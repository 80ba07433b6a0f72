//! What the benchmark is: its workloads and its metrics, by name. This is
//! the one place they are written down; `BENCHMARK.json` at the root of the
//! repo is `run.sh --manifest` verbatim, and a test holds the two equal.

use serde::ser::Value;

/// How long one run measures, in seconds (`BENCHMARK.json`'s `run_seconds`):
/// as long as the driver's `4 + 22 x gated workloads` runs fit 3 420 s with
/// a tenth to spare, because slow stretches of a shared machine last longer
/// than a short run and no estimator inside a run sees past them.
pub const RUN_SECONDS: u64 = 30;

/// Query batches per second the open-loop client sends.
pub const QUERY_RATE: u32 = 2000;
/// Point lookups in a batch: this many `(neighbors, knows)` pairs.
pub const BATCH_POINTS: u64 = 16;
/// Every this-many-th batch also asks for the O(n) `stats()`.
pub const STATS_EVERY: u64 = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SeqSparse,
    SeqConverge,
    ShardSparse,
    UdsExchange,
    UdpClean,
    UdpLossy,
    ServeQuery,
}

/// One workload: the engine it drives and the size it drives it at.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub n: usize,
    /// Shards of the graph (1: the single-arena layout).
    pub shards: usize,
    /// Measured rounds in one episode. `seq-converge` runs to completion
    /// instead, and this is only its budget.
    pub rounds: u64,
    /// Rounds of the served pass a traced run makes over this workload's
    /// `G_0` (for `serve-query` that pass is the workload itself).
    pub serve_rounds: u64,
    /// Whether `BENCHMARK.json` names it, which makes the driver run it and
    /// hold it to the bounds. Four runs of `RUN_SECONDS` fit the driver's
    /// time; the other three are run by `run.sh` and stand in the ledger.
    pub gated: bool,
}

/// The seven workloads, at full size or at `--smoke` size (same code paths,
/// no bounds).
pub fn workloads(smoke: bool) -> Vec<Spec> {
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    vec![
        Spec {
            name: "seq-sparse",
            why: "Engine<ArenaGraph, Pull>, sequential, n=2^17, 8 rounds: the single-threaded baseline; only core propose and graph apply run, on short rows with ~85% of proposals new",
            kind: Kind::SeqSparse,
            n: pick(1 << 17, 1 << 14),
            shards: 1,
            rounds: 8,
            serve_rounds: 8,
            gated: true,
        },
        Spec {
            name: "seq-converge",
            why: "Engine<ArenaGraph, Push>, n=512, run to the complete graph: the paper's question; the same propose/apply code on long dense rows, late proposals duplicates, per-round fixed costs paid ~3300 times",
            kind: Kind::SeqConverge,
            n: pick(512, 128),
            shards: 1,
            rounds: 1_000_000,
            serve_rounds: 2000,
            gated: true,
        },
        Spec {
            name: "shard-sparse",
            why: "ShardedEngine S=8, parallel on 2 threads, same G_0/seed/rule/rounds as seq-sparse: route, shard-parallel apply and pool dispatch; must end on seq-sparse's graph; links idle",
            kind: Kind::ShardSparse,
            n: pick(1 << 17, 1 << 14),
            shards: 8,
            rounds: 8,
            serve_rounds: 8,
            gated: false,
        },
        Spec {
            name: "uds-exchange",
            why: "TransportEngine, process mode, deterministic, S=2, n=2^17, Pull, 8 rounds: frame encode, FramedConn, supervisor fan-out and reassembly over Unix sockets; every wire count is exact",
            kind: Kind::UdsExchange,
            n: pick(1 << 17, 1 << 14),
            shards: 2,
            rounds: 8,
            serve_rounds: 8,
            gated: false,
        },
        Spec {
            name: "udp-clean",
            why: "udp-lossy with no injected loss: the datagram window's fast path, where the ack clock and spurious retransmits set the round; a window change that wins here by retransmitting eagerly pays on udp-lossy",
            kind: Kind::UdpClean,
            n: pick(1 << 16, 1 << 13),
            shards: 2,
            rounds: 8,
            serve_rounds: 12,
            gated: false,
        },
        Spec {
            name: "udp-lossy",
            why: "ClusterEngine, process mode, S=2 on 127.0.0.1, MTU 1400, n=2^16, Pull, 8 rounds, 5% of first transmissions dropped: wire codec, datagram window, nak/selective-ack repair and backoff all do real work",
            kind: Kind::UdpLossy,
            n: pick(1 << 16, 1 << 13),
            shards: 2,
            rounds: 8,
            serve_rounds: 12,
            gated: true,
        },
        Spec {
            name: "serve-query",
            why: "GossipService over ShardedEngine S=8 sequential, n=2^17, Pull, a snapshot every round, 10 rounds, one open-loop reader at 2000 batches/s: copy-on-write commit and publish under readers",
            kind: Kind::ServeQuery,
            n: pick(1 << 17, 1 << 14),
            shards: 8,
            rounds: 10,
            serve_rounds: 10,
            gated: true,
        },
    ]
}

/// An end-to-end metric: what a user of the system pays. `README.md` says
/// how each is measured.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen: set from the
    /// spreads `run.sh --calibrate` showed (the table in `README.md`).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ns_per_node_round", "ns", "lower", 0.25),
    e2e("rounds_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.12),
];

/// A per-layer metric: a single layer's work, time or waste, from a traced
/// run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 54] = [
    pl("graph.apply_ns_per_proposal", "ns", "lower"),
    pl("graph.apply_useful_ratio", "ratio", "higher"),
    pl("graph.apply_minor_faults_per_round", "count", "lower"),
    pl("graph.bytes_per_edge", "B", "lower"),
    pl("graph.build_ns_per_edge", "ns", "lower"),
    pl("graph.cow_commit_ms", "ms", "lower"),
    pl("core.propose_ns_per_node", "ns", "lower"),
    pl("core.proposals_per_node", "ratio", "higher"),
    pl("core.propose_parallel_speedup", "ratio", "higher"),
    pl("core.run_loop_overhead_ns", "ns", "lower"),
    pl("shard.phase_propose_share", "ratio", "lower"),
    pl("shard.phase_route_share", "ratio", "lower"),
    pl("shard.phase_apply_share", "ratio", "lower"),
    pl("shard.route_ns_per_proposal", "ns", "lower"),
    pl("shard.wire_encode_ns_per_entry", "ns", "lower"),
    pl("shard.wire_decode_ns_per_entry", "ns", "lower"),
    pl("shard.wire_bytes_per_entry", "B", "lower"),
    pl("shard.framed_mib_per_s", "MiB/s", "higher"),
    pl("shard.uds_phase_propose_share", "ratio", "lower"),
    pl("shard.uds_phase_serialize_share", "ratio", "lower"),
    pl("shard.uds_phase_flush_share", "ratio", "lower"),
    pl("shard.uds_phase_drain_share", "ratio", "lower"),
    pl("shard.uds_phase_apply_share", "ratio", "lower"),
    pl("shard.uds_frames_per_round", "count", "lower"),
    pl("shard.uds_bytes_per_round", "B", "lower"),
    pl("shard.uds_worker_rss_mib", "MiB", "lower"),
    pl("cluster.phase_propose_share", "ratio", "lower"),
    pl("cluster.phase_serialize_share", "ratio", "lower"),
    pl("cluster.phase_drain_share", "ratio", "lower"),
    pl("cluster.phase_apply_share", "ratio", "lower"),
    pl("cluster.datagrams_per_round", "count", "lower"),
    pl("cluster.fragments_per_round", "count", "lower"),
    pl("cluster.retransmit_ratio", "ratio", "lower"),
    pl("cluster.acks_per_round", "count", "lower"),
    pl("cluster.naks_per_round", "count", "lower"),
    pl("cluster.duplicates_per_round", "count", "lower"),
    pl("cluster.link_frame_us", "us", "lower"),
    pl("cluster.link_mib_per_s", "MiB/s", "higher"),
    pl("cluster.link_small_frame_us", "us", "lower"),
    pl("cluster.worker_rss_mib", "MiB", "lower"),
    pl("serve.snapshot_acquire_ns", "ns", "lower"),
    pl("serve.point_query_ns", "ns", "lower"),
    pl("serve.stats_query_us", "us", "lower"),
    pl("serve.publish_clone_ns", "ns", "lower"),
    pl("serve.query_batch_us_p50", "us", "lower"),
    pl("serve.query_batch_us_p99", "us", "lower"),
    pl("serve.snapshot_age_ms_p50", "ms", "lower"),
    pl("serve.generator_late_us_p99", "us", "lower"),
    pl("serve.round_overhead_ratio", "ratio", "lower"),
    pl("bench.round_ms_hi", "ms", "lower"),
    pl("bench.round_ms_max", "ms", "lower"),
    pl("bench.first_round_extra_ms", "ms", "lower"),
    pl("bench.wire_bytes_per_round", "B", "lower"),
    pl("bench.trace_overhead_ratio", "ratio", "lower"),
];

/// `BENCHMARK.json`, exactly.
pub fn manifest() -> Value {
    let s = |x: &str| Value::Str(x.into());
    let list = |items: Vec<Vec<(&str, Value)>>| {
        Value::Array(
            items
                .into_iter()
                .map(|kv| Value::Object(kv.into_iter().map(|(k, v)| (k.into(), v)).collect()))
                .collect(),
        )
    };
    Value::Object(vec![
        (
            "command".into(),
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Value::Array(vec![s("benchmark")])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            list(
                workloads(false)
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| vec![("name", s(w.name)), ("why", s(w.why))])
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            list(
                END_TO_END
                    .iter()
                    .map(|m| {
                        vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::Float(m.bound)),
                        ]
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            list(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ]
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut names: Vec<&str> = workloads(false).iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for w in workloads(false) {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(workloads(true).len(), workloads(false).len());
        let gated = workloads(false).iter().filter(|w| w.gated).count();
        assert!((2..=8).contains(&gated));
        // The driver's runs, with a second and a half of set-up, oracle and
        // single-layer passes around each, and two builds.
        let driver_s = (4 + 22 * gated as u64) as f64 * (RUN_SECONDS as f64 + 1.5) + 150.0;
        assert!(driver_s <= 0.9 * 3420.0, "{driver_s} s of driver runs");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(crate::json::pretty(&manifest()).len() <= 64 << 10);
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let ours: Value = serde_json::from_str(&crate::json::compact(&manifest())).unwrap();
        assert_eq!(on_disk, ours, "regenerate with `run.sh --manifest`");
    }
}
