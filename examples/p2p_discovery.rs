//! P2P resource discovery over an unreliable network with churn — the
//! paper's motivating application, run end-to-end on the byte-accurate
//! simulator: push discovery keeps every message at 5 bytes while Name
//! Dropper ships entire directories.
//!
//! ```text
//! cargo run --release --example p2p_discovery [n] [seed]
//! ```

use discovery_gossip::prelude::*;
use gossip_net::NameDropperProtocol;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(11);

    let mut rng = gossip_core::rng::stream_rng(seed, 0, 2);
    let g0 = generators::tree_plus_random_edges(n, 2 * n as u64, &mut rng);

    // Part 1: clean network, head-to-head bandwidth.
    println!("== clean network (no loss, no churn), n = {n} ==");
    println!(
        "{:<22} {:>8} {:>14} {:>16}",
        "protocol", "rounds", "total MB", "max msg bytes"
    );
    {
        let mut net = Network::from_graph(
            &g0,
            NetConfig {
                drop_prob: 0.0,
                seed,
            },
        );
        let (rounds, done, t) = net.run_until_coverage(&mut NetPush, 10_000_000);
        assert!(done);
        println!(
            "{:<22} {:>8} {:>14.2} {:>16}",
            "push (gossip)",
            rounds,
            t.bytes as f64 / 1e6,
            t.max_message_bytes
        );
    }
    {
        let mut net = Network::from_graph(
            &g0,
            NetConfig {
                drop_prob: 0.0,
                seed,
            },
        );
        let (rounds, done, t) = net.run_until_coverage(&mut NameDropperProtocol, 10_000_000);
        assert!(done);
        println!(
            "{:<22} {:>8} {:>14.2} {:>16}",
            "name dropper",
            rounds,
            t.bytes as f64 / 1e6,
            t.max_message_bytes
        );
    }

    // Part 2: 20% message loss + continuous churn.
    println!("\n== hostile network: 20% loss, churn (join 10%/round, leave 10%/round) ==");
    let mut net = Network::from_graph(
        &g0,
        NetConfig {
            drop_prob: 0.2,
            seed,
        },
    );
    let churn = ChurnModel {
        join_prob: 0.10,
        leave_prob: 0.10,
        bootstrap_contacts: 3,
        seed: seed ^ 0xC4,
    };
    let mut proto = NetPush;
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>12}",
        "round", "alive", "coverage", "staleness", "kB/round"
    );
    let horizon = 30 * n as u64;
    let mut bytes_window = 0u64;
    for round in 0..horizon {
        churn.apply(&mut net, round);
        let t = net.step(&mut proto);
        bytes_window += t.bytes;
        let stride = horizon / 10;
        if round % stride == stride - 1 {
            println!(
                "{:>8} {:>8} {:>10.4} {:>10.4} {:>12.1}",
                round + 1,
                net.alive_count(),
                net.coverage(),
                net.staleness(),
                bytes_window as f64 / stride as f64 / 1e3
            );
            bytes_window = 0;
        }
    }
    println!(
        "\npush discovery holds coverage near 1.0 under churn with 5-byte messages;\n\
         stale entries ({:.1}%) are the price of leave-without-notice.",
        net.staleness() * 100.0
    );
}
