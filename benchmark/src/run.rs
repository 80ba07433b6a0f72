//! One run of one workload, in this process: the measured window (tracing
//! off), or the traced run (an untraced and a traced half-window, then the
//! single-layer passes), then the output checks — and the metrics both give.

use crate::episode::{self, Episode, Link};
use crate::layers;
use crate::measure::{high_percentile, median, peak_rss_bytes, percentile, reset_peak_rss, sort};
use crate::spec::{Kind, Spec, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use gossip_core::PhaseNanos;
use serde::ser::Value;
use std::collections::BTreeMap;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

/// Seed whose exact outputs are pinned in `expected.json`.
pub const PINNED_SEED: u64 = 7;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// A measured value, with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
    pub note: String,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one run produced; `to_json` is the run record the ledger is built of.
pub struct Record {
    pub workload: &'static str,
    pub options: Options,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub episodes: usize,
    pub errors: Vec<String>,
    /// Each layer's share of the median traced round.
    pub layer_shares: Vec<(&'static str, f64)>,
    /// The exact outputs `expected.json` pins for the default seed.
    pub pins: Vec<(&'static str, u64)>,
    pub trace: Option<Value>,
}

fn one_episode(spec: &Spec, seed: u64, tr: Option<&mut Tracer>) -> Episode {
    match spec.kind {
        Kind::SeqConverge => episode::converge(spec, seed, tr),
        Kind::ServeQuery => episode::served(spec, seed, spec.rounds, tr),
        _ => episode::stepped(spec, seed, tr),
    }
}

/// Runs episodes until `seconds` have passed (a further one starts only
/// while at least half of it still fits), at least `min_episodes`. With a
/// tracer, every untraced episode is followed by its traced twin, so that a
/// slow stretch of the machine falls on both sides of the overhead ratio.
/// Returns the untraced and the traced episodes.
fn window(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    min_episodes: usize,
    mut tr: Option<&mut Tracer>,
) -> (Vec<Episode>, Vec<Episode>) {
    let t = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        reset_peak_rss();
        let mut ep = one_episode(spec, seed, None);
        ep.peak_rss = peak_rss_bytes();
        plain.push(ep);
        if let Some(tr) = tr.as_deref_mut() {
            traced.push(one_episode(spec, seed, Some(tr)));
        }
        let broken = plain.iter().chain(&traced).any(|e| e.failed > 0);
        let elapsed = t.elapsed().as_secs_f64();
        let mean = elapsed / plain.len() as f64;
        if broken || (plain.len() >= min_episodes && elapsed + mean / 2.0 >= seconds) {
            return (plain, traced);
        }
    }
}

fn pooled_rounds(eps: &[Episode]) -> Vec<f64> {
    eps.iter()
        .flat_map(|e| e.round_ns.iter().copied())
        .collect()
}

/// The median round, in ns: for each round of the episode the median of the
/// episodes' samples of it, averaged over the rounds. Every episode is the
/// same trajectory, so round `j` is the same work each time, while the
/// rounds of one episode are not (the graph grows). A stall that hits most
/// repeats of a round moves it, one that hits a few does not, and how many
/// episodes a run fits does not bias it. (`seq-converge` is one `run_until`
/// call untraced, so there it is the median of the episodes' mean rounds.)
fn median_round_ns(spec: &Spec, eps: &[Episode]) -> f64 {
    if spec.kind == Kind::SeqConverge {
        return median(&eps.iter().map(Episode::mean_round_ns).collect::<Vec<_>>());
    }
    let rounds = eps.iter().map(|e| e.round_ns.len()).min().unwrap_or(0);
    let total: f64 = (0..rounds)
        .map(|j| median(&eps.iter().map(|e| e.round_ns[j]).collect::<Vec<_>>()))
        .sum();
    total / rounds.max(1) as f64
}

fn sum<T>(eps: &[Episode], f: impl Fn(&Episode) -> T) -> T
where
    T: std::iter::Sum<T>,
{
    eps.iter().map(f).sum()
}

struct Metrics(BTreeMap<&'static str, (f64, u64, String)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(name, (value, samples, String::new()));
    }

    fn note(&mut self, name: &'static str, note: String) {
        if let Some(m) = self.0.get_mut(name) {
            m.2 = note;
        }
    }

    /// The metrics in manifest order; every listed name must have been set.
    fn listed(mut self, names: impl Iterator<Item = (&'static str, &'static str)>) -> Vec<Metric> {
        let out: Vec<Metric> = names
            .map(|(name, unit)| {
                let (value, samples, note) = self
                    .0
                    .remove(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                    note,
                }
            })
            .collect();
        assert!(self.0.is_empty(), "unlisted metrics: {:?}", self.0.keys());
        out
    }
}

fn end_to_end(spec: &Spec, eps: &[Episode]) -> Vec<Metric> {
    let mut m = Metrics(BTreeMap::new());
    let n_eps = eps.len() as u64;
    let setups: Vec<f64> = eps.iter().map(|e| e.setup_ns as f64 / 1e9).collect();
    m.set("setup_s", median(&setups), n_eps);
    let rounds = sum(eps, |e| e.rounds);
    m.set(
        "ns_per_node_round",
        median_round_ns(spec, eps) / spec.n as f64,
        rounds,
    );
    m.set(
        "rounds_per_s",
        rounds as f64 / (sum(eps, |e| e.wall_ns) as f64 / 1e9),
        rounds,
    );
    // The smallest of the episodes' peaks. What an episode adds to the peak
    // of a fresh process is what the episodes before it left in the heap,
    // which depends on the allocator's history and not on the engine: the
    // peaks of one seed fall in two groups 10 % apart, and the median flips
    // between them from seed to seed.
    let least_peak = eps
        .iter()
        .map(|e| (e.peak_rss + e.worker_rss.iter().sum::<u64>()) as f64 / MIB)
        .fold(f64::INFINITY, f64::min);
    m.set("peak_rss_mib", least_peak, n_eps);
    m.listed(END_TO_END.iter().map(|e| (e.name, e.unit)))
}

fn shares(m: &mut Metrics, names: &[(&'static str, u64)], rounds: u64) {
    let total: u64 = names.iter().map(|x| x.1).sum();
    for &(name, ns) in names {
        m.set(name, ns as f64 / total.max(1) as f64, rounds);
    }
}

fn total_phases(eps: &[Episode]) -> PhaseNanos {
    eps.iter().fold(PhaseNanos::default(), |t, e| {
        episode::phases_plus(t, e.phases)
    })
}

fn total_link(eps: &[Episode]) -> Link {
    eps.iter().fold(Link::default(), |t, e| t.plus(e.link))
}

/// The decomposed sequential round's metrics, from episodes that ran it.
fn split_metrics(m: &mut Metrics, n: usize, eps: &[Episode]) {
    let rounds = sum(eps, |e| e.rounds);
    let proposed = sum(eps, |e| e.proposed) as f64;
    let split = |f: fn(&episode::Split) -> u64| {
        sum(eps, |e| f(e.split.as_ref().expect("a decomposed episode"))) as f64
    };
    let node_rounds = (n as u64 * rounds) as f64;
    m.set(
        "graph.apply_ns_per_proposal",
        split(|s| s.apply_ns) / proposed,
        rounds,
    );
    m.set(
        "graph.apply_useful_ratio",
        sum(eps, |e| e.added) as f64 / proposed,
        rounds,
    );
    m.set(
        "graph.apply_minor_faults_per_round",
        split(|s| s.apply_faults) / rounds as f64,
        rounds,
    );
    let last = eps
        .last()
        .and_then(|e| e.split.as_ref())
        .expect("an episode");
    m.set("graph.bytes_per_edge", last.bytes_per_edge, 1);
    m.set(
        "core.propose_ns_per_node",
        split(|s| s.propose_ns) / node_rounds,
        rounds,
    );
    m.set("core.proposals_per_node", proposed / node_rounds, rounds);
}

fn serve_metrics(m: &mut Metrics, served: &[Episode], twin: &Episode) {
    let side = |f: fn(&episode::ServeSide) -> &Vec<f64>| -> Vec<f64> {
        let mut v: Vec<f64> = served
            .iter()
            .flat_map(|e| {
                f(e.serve.as_ref().expect("a served episode"))
                    .iter()
                    .copied()
            })
            .collect();
        sort(&mut v);
        v
    };
    type Pick = fn(&episode::ServeSide) -> &Vec<f64>;
    let rows: [(&'static str, Pick, f64); 7] = [
        ("serve.query_batch_us_p50", |s| &s.batch_us, 50.0),
        ("serve.query_batch_us_p99", |s| &s.batch_us, 99.0),
        ("serve.snapshot_age_ms_p50", |s| &s.age_ms, 50.0),
        ("serve.generator_late_us_p99", |s| &s.late_us, 99.0),
        ("serve.snapshot_acquire_ns", |s| &s.acquire_ns, 50.0),
        ("serve.point_query_ns", |s| &s.point_ns, 50.0),
        ("serve.stats_query_us", |s| &s.stats_us, 50.0),
    ];
    for (name, pick, p) in rows {
        let v = side(pick);
        m.set(name, percentile(&v, p), v.len() as u64);
    }
    let rounds = pooled_rounds(served);
    m.set(
        "serve.round_overhead_ratio",
        median(&rounds) / median(&twin.round_ns),
        rounds.len() as u64,
    );
}

fn same_graph(name: &str, a: (u64, u64), b: (u64, u64)) -> Check {
    Check {
        name: name.into(),
        ok: a == b,
        detail: format!(
            "(m, checksum) = ({}, {:016x}) vs ({}, {:016x})",
            a.0, a.1, b.0, b.1
        ),
    }
}

/// Everything a traced run adds: the per-layer metrics, the trace file, and
/// the checks that the traced work is the measured work.
fn per_layer(
    spec: &Spec,
    opt: &Options,
    untraced: &[Episode],
    traced: &[Episode],
    oracle: Option<&Episode>,
    checks: &mut Vec<Check>,
) -> Vec<Metric> {
    let mut m = Metrics(BTreeMap::new());
    let (n, seed) = (spec.n, opt.seed);
    let mut scratch = Tracer::new();
    let rounds = sum(traced, |e| e.rounds);

    // The harness's own view of the rounds, traced against untraced.
    m.set(
        "bench.trace_overhead_ratio",
        median_round_ns(spec, traced) / median_round_ns(spec, untraced),
        rounds,
    );
    let all = pooled_rounds(traced);
    let (p, hi) = high_percentile(&all);
    m.set("bench.round_ms_hi", hi / 1e6, all.len() as u64);
    m.note("bench.round_ms_hi", format!("p{p}"));
    let slowest = all.iter().copied().fold(0.0, f64::max);
    m.set("bench.round_ms_max", slowest / 1e6, all.len() as u64);
    let extra: Vec<f64> = traced
        .iter()
        .map(|e| (e.first_step_ns as f64 - median(&e.round_ns)) / 1e6)
        .collect();
    m.set(
        "bench.first_round_extra_ms",
        median(&extra),
        extra.len() as u64,
    );
    let link = total_link(traced);
    m.set(
        "bench.wire_bytes_per_round",
        link.bytes as f64 / rounds as f64,
        rounds,
    );
    let builds: Vec<f64> = untraced
        .iter()
        .chain(traced)
        .map(|e| e.build_ns as f64 / e.g0_edges.max(1) as f64)
        .collect();
    m.set(
        "graph.build_ns_per_edge",
        median(&builds),
        builds.len() as u64,
    );

    // The link engines' own phases and counters: zero where the workload
    // leaves that engine idle.
    let ph = total_phases(traced);
    let per_round = |x: u64| x as f64 / rounds as f64;
    let worker_mib = traced
        .iter()
        .flat_map(|e| e.worker_rss.iter().copied())
        .max()
        .unwrap_or(0) as f64
        / MIB;
    let idle = (PhaseNanos::default(), Link::default(), 0.0);
    let busy = (ph, link, worker_mib);
    let ((uds_ph, uds_link, uds_mib), (udp_ph, udp_link, udp_mib)) = match spec.kind {
        Kind::UdsExchange => (busy, idle),
        Kind::UdpClean | Kind::UdpLossy => (idle, busy),
        _ => (idle, idle),
    };
    shares(
        &mut m,
        &[
            ("shard.uds_phase_propose_share", uds_ph.propose),
            ("shard.uds_phase_serialize_share", uds_ph.serialize),
            ("shard.uds_phase_flush_share", uds_ph.flush),
            ("shard.uds_phase_drain_share", uds_ph.drain),
            ("shard.uds_phase_apply_share", uds_ph.apply),
        ],
        rounds,
    );
    m.set(
        "shard.uds_frames_per_round",
        per_round(uds_link.frames),
        rounds,
    );
    m.set(
        "shard.uds_bytes_per_round",
        per_round(uds_link.bytes),
        rounds,
    );
    m.set("shard.uds_worker_rss_mib", uds_mib, 1);
    shares(
        &mut m,
        &[
            ("cluster.phase_propose_share", udp_ph.propose),
            ("cluster.phase_serialize_share", udp_ph.serialize),
            ("cluster.phase_drain_share", udp_ph.drain),
            ("cluster.phase_apply_share", udp_ph.apply),
        ],
        rounds,
    );
    m.set(
        "cluster.datagrams_per_round",
        per_round(udp_link.datagrams),
        rounds,
    );
    m.set(
        "cluster.fragments_per_round",
        per_round(udp_link.fragments),
        rounds,
    );
    m.set(
        "cluster.retransmit_ratio",
        udp_link.retransmitted as f64 / udp_link.datagrams.max(1) as f64,
        udp_link.datagrams,
    );
    m.set("cluster.acks_per_round", per_round(udp_link.acks), rounds);
    m.set("cluster.naks_per_round", per_round(udp_link.naks), rounds);
    m.set(
        "cluster.duplicates_per_round",
        per_round(udp_link.duplicates),
        rounds,
    );
    m.set("cluster.worker_rss_mib", udp_mib, 1);

    // The in-process sharded engine on this G_0: the workload itself, its
    // oracle, or (seq-converge has none) a short pass of its own.
    let short;
    let sharded: &[Episode] = match (spec.kind, oracle) {
        (Kind::ShardSparse, _) => traced,
        (Kind::SeqConverge, _) | (_, None) => {
            let pass = Spec {
                kind: Kind::ShardSparse,
                shards: 2,
                rounds: 8,
                ..*spec
            };
            short = [episode::stepped(&pass, seed, None)];
            &short
        }
        (_, Some(o)) => std::slice::from_ref(o),
    };
    let sp = total_phases(sharded);
    let sharded_rounds = sum(sharded, |e| e.rounds);
    shares(
        &mut m,
        &[
            ("shard.phase_propose_share", sp.propose),
            ("shard.phase_route_share", sp.route),
            ("shard.phase_apply_share", sp.apply),
        ],
        sharded_rounds,
    );
    m.set(
        "shard.route_ns_per_proposal",
        sp.route as f64 / sum(sharded, |e| e.proposed).max(1) as f64,
        sharded_rounds,
    );

    // The decomposed sequential round on this G_0: the traced workload
    // itself for seq-*, else three rounds of it.
    match spec.kind {
        Kind::SeqSparse | Kind::SeqConverge => split_metrics(&mut m, n, traced),
        _ => {
            let pass = Spec {
                kind: Kind::SeqSparse,
                rounds: 3,
                ..*spec
            };
            split_metrics(
                &mut m,
                n,
                &[episode::stepped(&pass, seed, Some(&mut scratch))],
            );
        }
    }

    // What the run loop adds to propose + apply, on the small Push run to
    // completion: three interleaved pairs (seq-converge: its own pairs).
    let twins;
    let (plain, split): (&[Episode], &[Episode]) = if spec.kind == Kind::SeqConverge {
        (untraced, traced)
    } else {
        let small = crate::spec::workloads(opt.smoke)
            .into_iter()
            .find(|w| w.kind == Kind::SeqConverge)
            .expect("seq-converge is a workload");
        twins = (0..3).fold((Vec::new(), Vec::new()), |(mut plain, mut split), _| {
            plain.push(episode::converge(&small, seed, None));
            split.push(episode::converge(&small, seed, Some(&mut scratch)));
            (plain, split)
        });
        (&twins.0, &twins.1)
    };
    let overheads: Vec<f64> = plain
        .iter()
        .zip(split)
        .map(|(p, s)| {
            let inner = s.split.as_ref().expect("a decomposed episode");
            checks.push(Check {
                name: "decomposed-run-is-the-same-run".into(),
                ok: p.rounds == s.rounds && p.identity == s.identity,
                detail: format!("{} vs {} rounds", p.rounds, s.rounds),
            });
            (p.wall_ns as f64 - (inner.propose_ns + inner.apply_ns) as f64) / p.rounds as f64
        })
        .collect();
    m.set(
        "core.run_loop_overhead_ns",
        median(&overheads),
        overheads.len() as u64,
    );

    // Single-layer passes on inputs captured from G_0.
    let g0 = crate::inputs::sparse_arena(n, seed);
    let mail = layers::captured_mail(&g0, seed);
    let codec = layers::codec(&mail);
    m.set(
        "shard.wire_encode_ns_per_entry",
        codec.encode_ns_per_entry,
        codec.entries,
    );
    m.set(
        "shard.wire_decode_ns_per_entry",
        codec.decode_ns_per_entry,
        codec.entries,
    );
    m.set(
        "shard.wire_bytes_per_entry",
        codec.bytes_per_entry,
        codec.entries,
    );
    m.set("shard.framed_mib_per_s", layers::framed_mib_per_s(&mail), 1);
    let link_pass = layers::link(&mail, opt.smoke);
    m.set("cluster.link_frame_us", link_pass.frame_us, 1);
    m.set("cluster.link_mib_per_s", link_pass.mib_per_s, 1);
    m.set("cluster.link_small_frame_us", link_pass.small_frame_us, 1);
    m.set(
        "core.propose_parallel_speedup",
        layers::propose_parallel_speedup(&g0, seed),
        1,
    );
    drop((g0, mail));
    let cow = layers::cow(n, seed);
    m.set("graph.cow_commit_ms", cow.commit_ms, 1);
    m.set("serve.publish_clone_ns", cow.clone_ns, 1);

    // The served pass: serve-query's own traced episodes against its batch
    // twin (the oracle), else a short served run over this G_0.
    match (spec.kind, oracle) {
        (Kind::ServeQuery, Some(twin)) => serve_metrics(&mut m, traced, twin),
        _ => {
            let pass = Spec {
                kind: Kind::ServeQuery,
                shards: 8,
                rounds: spec.serve_rounds,
                ..*spec
            };
            let served = episode::served(&pass, seed, pass.rounds, Some(&mut scratch));
            let twin = episode::stepped(&pass, seed, None);
            checks.push(same_graph(
                "served-pass-equals-batch",
                served.identity,
                twin.identity,
            ));
            checks.push(Check {
                name: "served-pass-reads-hold".into(),
                ok: served.failed == 0,
                detail: served.errors.join("; "),
            });
            serve_metrics(&mut m, &[served], &twin);
        }
    }

    // The traced work must be the measured work, round for round.
    if spec.kind != Kind::SeqConverge && spec.kind != Kind::ServeQuery {
        checks.push(Check {
            name: "traced-rounds-equal-untraced".into(),
            ok: traced.iter().all(|e| e.stats == untraced[0].stats),
            detail: format!("{} traced episodes", traced.len()),
        });
    }
    m.listed(PER_LAYER.iter().map(|p| (p.name, p.unit)))
}

/// An episode's exact outputs, pinned for the default seed: what must not
/// change unless a workload's definition does.
fn pins(spec: &Spec, e: &Episode) -> Vec<(&'static str, u64)> {
    let mut p = vec![("m", e.identity.0), ("checksum", e.identity.1)];
    match spec.kind {
        Kind::SeqConverge => p.push(("rounds", e.rounds)),
        Kind::UdsExchange => {
            p.push(("frames", e.link.frames));
            p.push(("bytes", e.link.bytes));
        }
        Kind::UdpClean | Kind::UdpLossy => {
            p.push(("datagrams", e.link.datagrams));
            p.push(("fragments", e.link.fragments));
            p.push(("injected_drops", e.link.injected_drops));
        }
        _ => {}
    }
    p
}

fn check_pins(spec: &Spec, got: &[(&'static str, u64)]) -> Check {
    let expected: Value =
        serde_json::from_str(include_str!("../expected.json")).expect("expected.json parses");
    let want = |key: &str| -> Option<u64> {
        let Value::Object(all) = &expected else {
            return None;
        };
        let Value::Object(w) = &all.iter().find(|(k, _)| k == spec.name)?.1 else {
            return None;
        };
        match &w.iter().find(|(k, _)| k == key)?.1 {
            Value::Int(i) => Some(*i as u64),
            Value::UInt(u) => Some(*u),
            // Checksums are written in hex: not every u64 survives a JSON reader.
            Value::Str(s) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        }
    };
    let wrong: Vec<String> = got
        .iter()
        .filter(|(k, v)| want(k) != Some(*v))
        .map(|(k, v)| format!("{k}: got {v}, pinned {:?}", want(k)))
        .collect();
    Check {
        name: "pinned-outputs-for-seed-7".into(),
        ok: wrong.is_empty(),
        detail: wrong.join("; "),
    }
}

/// Runs `spec` as `opt` says and gathers the record.
pub fn run(spec: &Spec, opt: Options) -> Record {
    let min_episodes = if opt.smoke { 2 } else { 3 };
    let mut checks = Vec::new();
    let mut tracer = Tracer::new();
    let (untraced, traced) = if opt.trace {
        // The single-layer passes take the rest of the run's time.
        window(spec, opt.seed, opt.seconds * 0.8, 2, Some(&mut tracer))
    } else {
        window(spec, opt.seed, opt.seconds, min_episodes, None)
    };
    let all = || untraced.iter().chain(&traced);
    let first = &untraced[0];
    let healthy = all().all(|e| e.failed == 0);
    // The exact outputs (final graph, round count, first-transmission wire
    // counts) repeat exactly at a fixed seed, whatever the seed.
    let first_pins = pins(spec, first);
    checks.push(Check {
        name: "every-episode-is-the-same-run".into(),
        ok: all().all(|e| pins(spec, e) == first_pins),
        detail: format!("{} episodes", all().count()),
    });
    let oracle =
        (healthy && spec.kind != Kind::SeqConverge).then(|| episode::oracle(spec, opt.seed));
    if let Some(o) = &oracle {
        checks.push(same_graph(
            "final-graph-equals-oracle",
            first.identity,
            o.identity,
        ));
    }
    if spec.kind == Kind::UdpLossy {
        let drops = sum(&untraced, |e| e.link.injected_drops);
        checks.push(Check {
            name: "loss-was-injected".into(),
            ok: drops > 0,
            detail: format!("{drops} injected drops"),
        });
    }
    if healthy && opt.seed == PINNED_SEED && !opt.smoke {
        checks.push(check_pins(spec, &first_pins));
    }

    let metrics = if !healthy {
        Vec::new()
    } else if opt.trace {
        per_layer(spec, &opt, &untraced, &traced, oracle.as_ref(), &mut checks)
    } else {
        end_to_end(spec, &untraced)
    };

    let layer_shares = tracer.layer_shares("round");
    let trace = opt.trace.then(|| {
        tracer.to_json(vec![
            ("workload".into(), Value::Str(spec.name.into())),
            ("seed".into(), Value::UInt(opt.seed)),
            ("n".into(), Value::UInt(spec.n as u64)),
        ])
    });
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    Record {
        workload: spec.name,
        attempted: all().map(|e| e.attempted).sum::<u64>() + checks.len() as u64,
        failed: all().map(|e| e.failed).sum::<u64>() + failed_checks,
        episodes: all().count(),
        errors: all().flat_map(|e| e.errors.iter().cloned()).collect(),
        options: opt,
        metrics,
        checks,
        layer_shares,
        pins: first_pins,
        trace,
    }
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.metrics.is_empty()
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        crate::json::compact(&line)
    }

    /// The run record: the result plus what the ledger adds to it.
    pub fn to_json(&self) -> Value {
        let s = |x: &str| Value::Str(x.into());
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Value::Object(vec![
                    ("name".into(), s(m.name)),
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), s(m.unit)),
                    ("samples".into(), Value::UInt(m.samples)),
                    ("note".into(), s(&m.note)),
                ])
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("name".into(), s(&c.name)),
                    ("ok".into(), Value::Bool(c.ok)),
                    ("detail".into(), s(&c.detail)),
                ])
            })
            .collect();
        let pins = self
            .pins
            .iter()
            .map(|&(k, v)| {
                let v = if k == "checksum" {
                    Value::Str(format!("{v:016x}"))
                } else {
                    Value::UInt(v)
                };
                (k.to_string(), v)
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), s(self.workload)),
            ("seed".into(), Value::UInt(self.options.seed)),
            ("seconds".into(), Value::Float(self.options.seconds)),
            ("trace".into(), Value::Bool(self.options.trace)),
            ("smoke".into(), Value::Bool(self.options.smoke)),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("episodes".into(), Value::UInt(self.episodes as u64)),
            ("metrics".into(), Value::Array(metrics)),
            ("checks".into(), Value::Array(checks)),
            (
                "errors".into(),
                Value::Array(self.errors.iter().map(|e| s(e)).collect()),
            ),
            (
                "layer_share_of_median_round".into(),
                Value::Object(
                    self.layer_shares
                        .iter()
                        .map(|&(l, v)| (l.to_string(), Value::Float(v)))
                        .collect(),
                ),
            ),
            ("pins".into(), Value::Object(pins)),
        ])
    }

    /// Every metric by name, with its unit and sample count.
    pub fn print(&self) {
        let kind = if self.options.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!(
            "== {} seed {} ({kind}, {} episodes)",
            self.workload, self.options.seed, self.episodes
        );
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(" {}", m.note)
            };
            println!(
                "  {:<38} {:>16.4} {:<6} (n={}){note}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for (layer, share) in &self.layer_shares {
            println!(
                "  layer {layer:<8} {:>6.1} % of the median traced round",
                share * 100.0
            );
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("  check {verdict} {} [{}]", c.name, c.detail);
        }
        for e in &self.errors {
            println!("  error: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_round_is_taken_round_by_round_across_episodes() {
        let spec = crate::spec::workloads(true)
            .into_iter()
            .find(|w| w.kind == Kind::SeqSparse)
            .unwrap();
        let ep = |rounds: [f64; 2]| Episode {
            round_ns: rounds.to_vec(),
            ..Episode::default()
        };
        // Round 2 costs ten times round 1; one episode in three stalls.
        let eps = [ep([10.0, 100.0]), ep([12.0, 900.0]), ep([11.0, 104.0])];
        assert_eq!(median_round_ns(&spec, &eps), (11.0 + 104.0) / 2.0);
        // A stall on most repeats of a round does move it.
        let eps = [ep([10.0, 100.0]), ep([12.0, 900.0]), ep([11.0, 800.0])];
        assert_eq!(median_round_ns(&spec, &eps), (11.0 + 800.0) / 2.0);
    }
}
