//! E20 — datagram shard cluster: the sharded round peer-to-peer over UDP.
//!
//! E19 serialized the round through a resident supervisor on Unix domain
//! sockets. This experiment removes the supervisor from the data path:
//! each shard is an **OS process with its own UDP socket**, resolved from
//! a static peer table laid out as two loopback "hosts" (shards 0–1 on
//! `127.0.0.1`, shards 2–3 on `127.0.0.2`), exchanging mailbox frames
//! directly with every peer while shard 0 only coordinates round
//! barriers. Per `(n, loss)` it records:
//!
//! * **trajectory invariance** — per-round stats, final edge count, and
//!   row checksum must equal the in-process `ShardedEngine` run of the
//!   same `(n, seed)`, at zero loss *and* under seeded datagram
//!   drop/duplicate injection repaired by the ack/timeout/backoff
//!   windows,
//! * **datagram volume** — data datagrams queued, fragments, snapshot
//!   chunks, and injected faults (pure functions of trajectory, MTU, and
//!   fault seed, measured at the coordinator endpoint).
//!
//! It also asserts that the lossy runs dropped and retransmitted
//! datagrams, and that the streamed bootstrap hid some transfer under the
//! coordinator's first propose. Those amounts depend on timing and are
//! not recorded; repair traffic, RSS and round time are the benchmark
//! ledger's `udp-clean` and `udp-lossy` workloads.
//!
//! The full run's `n = 2^20` grid is the acceptance workload: a
//! million-node round over 2×2 shard processes on two loopback hosts,
//! bit-identical to the in-process engine at every loss rate.

use crate::experiments::shard::{fixed_horizon, oracle, sparse_sharded, FixedHorizon};
use crate::harness::{Args, Report};
use gossip_analysis::Table;
use gossip_cluster::{ClusterBuilder, ClusterStats, DatagramLoss};
use gossip_core::RuleId;
use gossip_shard::TransportMode;
use std::net::{SocketAddr, UdpSocket};

/// The two-host loopback address table, coordinator first: shards 0..S/2
/// on `127.0.0.1`, the rest on `127.0.0.2` (falling back to single-host
/// where the platform only binds the first loopback address). Every
/// reservation socket stays open until the whole table is built, so no
/// two shards — the coordinator included — get the same ephemeral port.
fn two_host_table(shards: usize) -> Vec<SocketAddr> {
    let host_b = if UdpSocket::bind("127.0.0.2:0").is_ok() {
        "127.0.0.2"
    } else {
        "127.0.0.1"
    };
    let reservations: Vec<UdpSocket> = (0..shards)
        .map(|s| {
            let host = if s < shards.div_ceil(2) {
                "127.0.0.1"
            } else {
                host_b
            };
            UdpSocket::bind(format!("{host}:0")).expect("reserve loopback port")
        })
        .collect();
    reservations
        .iter()
        .map(|s| {
            s.local_addr()
                .expect("local address of a bound loopback socket")
        })
        .collect()
}

fn cluster_run(
    n: usize,
    shards: usize,
    horizon: u64,
    seed: u64,
    loss: Option<DatagramLoss>,
) -> (FixedHorizon, ClusterStats) {
    let g = sparse_sharded(n, 2 * n as u64, seed, shards);
    let table = two_host_table(shards);
    let mut b = ClusterBuilder::new(g, RuleId::Pull, seed ^ 0x5A4D)
        .with_mode(TransportMode::Process)
        .with_bind(table[0])
        .with_peers(table[1..].to_vec());
    if let Some(l) = loss {
        b = b.with_loss(l);
    }
    let mut e = b.spawn().expect("spawn cluster shards");
    let run = fixed_horizon(&mut e, horizon);
    let cluster = e.stats();
    e.shutdown().expect("clean shard exit");
    (run, cluster)
}

/// E20: datagram shard cluster on a two-host loopback grid.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E20-cluster");

    // 2 loopback hosts × 2 shard processes each. Quick shrinks n only;
    // the loss grid runs either way.
    let shards = 4usize;
    let (n, horizon) = if args.quick {
        (1 << 17, 4u64)
    } else {
        (1 << 20, 5u64)
    };
    let loss_grid: [(&str, Option<DatagramLoss>); 3] = [
        ("udp", None),
        (
            "udp-loss-5%",
            Some(DatagramLoss {
                seed: args.seed ^ 0xD06,
                drop_per_mille: 50,
                dup_per_mille: 25,
            }),
        ),
        (
            "udp-loss-20%",
            Some(DatagramLoss {
                seed: args.seed ^ 0xD07,
                drop_per_mille: 200,
                dup_per_mille: 100,
            }),
        ),
    ];

    let mut table = Table::new([
        "mode",
        "n",
        "S",
        "rounds",
        "edges added",
        "data dgrams",
        "fragments",
        "snap chunks",
        "inj drops",
    ]);

    let oracle = oracle(n, shards, horizon, args.seed);
    let fam = format!("hosts-2x{}", shards / 2);

    for (label, loss) in loss_grid {
        let (run, cluster) = cluster_run(n, shards, horizon, args.seed, loss);

        // The headline contract: the datagram cluster replays the
        // in-process engine bit-for-bit at every loss rate.
        let invariant = run == oracle;
        assert!(
            invariant,
            "{label} cluster diverged from in-process engine at n={n}, S={shards}"
        );
        if loss.is_some() {
            assert!(
                cluster.endpoint.injected_drops > 0,
                "{label} at n={n} never dropped a datagram — \
                 injection rates too low to exercise the windows"
            );
            assert!(cluster.endpoint.retransmitted > 0);
        }
        if label == "udp" {
            assert!(
                cluster.bootstrap_overlap_ns > 0,
                "streamed bootstrap hid no transfer under the first propose"
            );
        }

        let added: u64 = run.added();
        report.measure_scalar(
            "trajectory_invariant_vs_inproc",
            label,
            fam.clone(),
            n as u64,
            invariant as u64 as f64,
        );
        report.measure_scalar("edges_added", label, fam.clone(), n as u64, added as f64);
        // Coordinator-side datagram volume is a pure function of
        // (trajectory, MTU, fault seed): queue order per link is fixed,
        // and injection verdicts are keyed by (seed, link, seq).
        report.measure_scalar(
            "data_datagrams",
            label,
            fam.clone(),
            n as u64,
            cluster.endpoint.data_datagrams as f64,
        );
        report.measure_scalar(
            "snapshot_chunks",
            label,
            fam.clone(),
            n as u64,
            cluster.snapshot_chunks as f64,
        );
        if loss.is_some() {
            report.measure_scalar(
                "injected_drops",
                label,
                fam.clone(),
                n as u64,
                cluster.endpoint.injected_drops as f64,
            );
        }

        table.push_row([
            label.into(),
            n.to_string(),
            shards.to_string(),
            horizon.to_string(),
            added.to_string(),
            cluster.endpoint.data_datagrams.to_string(),
            cluster.endpoint.fragments_sent.to_string(),
            cluster.snapshot_chunks.to_string(),
            cluster.endpoint.injected_drops.to_string(),
        ]);
    }

    report.note(format!(
        "every cluster run — one OS process per shard with its own UDP \
         socket, peer table split across loopback hosts 127.0.0.1/127.0.0.2, \
         no supervisor on the data path — replayed the in-process \
         ShardedEngine bit-for-bit (per-round stats, final m, row checksum) \
         at 0%, 5%, and 20% seeded datagram drop rates; the ack/timeout/\
         backoff windows repaired every injected fault before its round \
         barrier. Horizon: {} rounds at n = 2^{} over 2x{} shard processes.",
        horizon,
        n.trailing_zeros(),
        shards / 2,
    ));
    report.table("datagram cluster vs in-process engine (pull)", table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_host_table_hands_out_distinct_addresses() {
        let table = two_host_table(8);
        assert_eq!(table.len(), 8);
        assert!(table[..4].iter().all(|a| a.ip().to_string() == "127.0.0.1"));
        for (i, a) in table.iter().enumerate() {
            assert!(!table[i + 1..].contains(a), "{a} handed out twice");
        }
    }

    // Process mode would re-exec the libtest harness; thread-hosted
    // workers cover the same window/bootstrap/assembler code paths.
    #[test]
    fn cluster_run_matches_oracle_in_thread_mode() {
        let n = 1500;
        let shards = 3;
        let expected = oracle(n, shards, 3, 9);
        for loss in [
            None,
            Some(DatagramLoss {
                seed: 5,
                drop_per_mille: 150,
                dup_per_mille: 100,
            }),
        ] {
            let g = sparse_sharded(n, 2 * n as u64, 9, shards);
            let mut b = ClusterBuilder::new(g, RuleId::Pull, 9 ^ 0x5A4D);
            if let Some(l) = loss {
                b = b.with_loss(l);
            }
            let mut e = b.spawn().expect("spawn");
            assert_eq!(fixed_horizon(&mut e, 3), expected);
            if loss.is_some() {
                assert!(e.stats().endpoint.injected_drops > 0);
            }
            e.shutdown().unwrap();
        }
    }
}
