//! E12 — the wire-level validation of §1's message-size claim, plus the
//! loss/churn scenarios the paper motivates: push/pull keep every message at
//! 5 bytes on the wire while Name Dropper's payload grows with what it
//! knows; discovery keeps working through message loss and churn.

use crate::harness::{Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_graph::generators;
use gossip_net::{wire_protocol, ChurnModel, NetConfig, Network, Protocol, PushProtocol};

fn wire_row(
    report: &mut Report,
    table: &mut Table,
    n: usize,
    proto: &mut dyn Protocol,
    name: &str,
    g: &gossip_graph::ArenaGraph,
    seed: u64,
) {
    let mut net = Network::from_graph(
        g,
        n,
        NetConfig {
            drop_prob: 0.0,
            seed,
        },
    );
    let (rounds, done, t) = net.run_until_coverage(proto, 1.0, 50_000_000);
    assert!(done, "{name} failed to reach full coverage at n={n}");
    report.measure_scalar("rounds", name, "wire-clean", n as u64, rounds as f64);
    report.measure_scalar(
        "max_message_bytes",
        name,
        "wire-clean",
        n as u64,
        t.max_message_bytes as f64,
    );
    table.push_row([
        n.to_string(),
        name.to_string(),
        rounds.to_string(),
        t.max_message_bytes.to_string(),
        fmt_f64(t.bytes as f64 / 1e6),
        fmt_f64(t.bytes as f64 / (rounds.max(1) as f64 * n as f64)),
    ]);
}

/// E12.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E12-wire-validation");
    let sizes: Vec<usize> = if args.quick {
        vec![32, 64]
    } else {
        vec![64, 128, 256]
    };

    // Part 1: byte-accurate bandwidth at zero loss.
    let mut wire = Table::new([
        "n",
        "protocol",
        "rounds to full coverage",
        "max message (bytes)",
        "total (MB)",
        "bytes/node/round",
    ]);
    for &n in &sizes {
        let mut rng = gossip_core::rng::stream_rng(args.seed, 0xE7, n as u64);
        let g = generators::tree_plus_random_edges(n, 2 * n as u64, &mut rng);
        for name in ["push", "pull", "name-dropper"] {
            let mut proto = wire_protocol(name).unwrap();
            wire_row(
                &mut report,
                &mut wire,
                n,
                proto.as_mut(),
                name,
                &g,
                args.seed,
            );
        }
    }
    report.note(
        "push/pull max message is 5 bytes at every n (one address + tag): the O(log n)-bit \
         claim, on the wire. Name Dropper's max message grows ≈ 4n bytes.",
    );
    report.table("clean network: bandwidth profile", wire);

    // Part 2: message loss sweep.
    let n = if args.quick { 48 } else { 128 };
    let mut rng = gossip_core::rng::stream_rng(args.seed, 0xE8, n as u64);
    let g = generators::tree_plus_random_edges(n, 2 * n as u64, &mut rng);
    let mut loss = Table::new(["drop prob", "push rounds", "pull rounds"]);
    for &p in &[0.0, 0.1, 0.3, 0.5] {
        let mut row = vec![format!("{p}")];
        for proto_name in ["push", "pull"] {
            let mut net = Network::from_graph(
                &g,
                n,
                NetConfig {
                    drop_prob: p,
                    seed: args.seed,
                },
            );
            let mut proto = wire_protocol(proto_name).unwrap();
            let (rounds, done, _) = net.run_until_coverage(proto.as_mut(), 1.0, 50_000_000);
            assert!(done, "{proto_name} under loss {p} did not converge");
            report.measure_scalar(
                "rounds",
                proto_name,
                format!("loss-p{p}"),
                n as u64,
                rounds as f64,
            );
            row.push(rounds.to_string());
        }
        loss.push_row(row);
    }
    report.table(format!("message loss sweep (n = {n})"), loss);

    // Part 3: churn timeline — plain push vs push + failure detection.
    // Plain push never evicts, so under sustained churn its contact lists
    // silt up with the dead and coverage decays; the heartbeat extension
    // (§6's "failures / joining and leaving" future work) keeps both
    // metrics healthy on the same membership schedule.
    let horizon: u64 = if args.quick { 600 } else { 3000 };
    let capacity = 16 * n;
    let churn = ChurnModel {
        join_prob: 0.04,
        leave_prob: 0.04,
        bootstrap_contacts: 3,
        seed: args.seed ^ 0xC1,
    };
    let run_timeline = |proto: &mut dyn Protocol| {
        let mut net = Network::from_graph(
            &g,
            capacity,
            NetConfig {
                drop_prob: 0.1,
                seed: args.seed,
            },
        );
        let stride = horizon / 6;
        let mut rows = Vec::new();
        for round in 0..horizon {
            churn.apply(&mut net, round);
            net.step(proto);
            if round % stride == stride - 1 {
                rows.push((
                    round + 1,
                    net.alive_count(),
                    net.coverage(),
                    net.staleness(),
                ));
            }
        }
        rows
    };
    let plain = run_timeline(&mut PushProtocol);
    let mut hb = gossip_net::HeartbeatPushProtocol::new(capacity, 1, 4);
    let healed = run_timeline(&mut hb);
    let mut churn_table = Table::new([
        "round",
        "alive",
        "coverage (plain push)",
        "staleness (plain)",
        "coverage (heartbeat)",
        "staleness (heartbeat)",
    ]);
    for (p, h) in plain.iter().zip(&healed) {
        churn_table.push_row([
            p.0.to_string(),
            p.1.to_string(),
            fmt_f64(p.2),
            fmt_f64(p.3),
            fmt_f64(h.2),
            fmt_f64(h.3),
        ]);
    }
    let (pl, hl) = (plain.last().unwrap(), healed.last().unwrap());
    report.measure_scalar("final_coverage", "plain-push", "churn", n as u64, pl.2);
    report.measure_scalar("final_coverage", "heartbeat-push", "churn", n as u64, hl.2);
    report.note(format!(
        "churn (4% join / 4% leave per round, 10% loss, round {horizon}): plain push ends at \
         coverage {:.2} / staleness {:.2} — dead contacts accumulate forever. With heartbeat \
         eviction the same schedule ends at coverage {:.2} / staleness {:.2}: failure detection \
         is what turns \"naturally robust\" into \"self-healing\".",
        pl.2, pl.3, hl.2, hl.3
    ));
    report.table("churn timeline: plain push vs heartbeat push", churn_table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_full_shape() {
        let args = Args {
            quick: true,
            trials: 2,
            ..Args::default()
        };
        let r = run(&args);
        assert_eq!(r.tables.len(), 3);
        assert_eq!(r.tables[0].1.len(), 6);
    }
}
