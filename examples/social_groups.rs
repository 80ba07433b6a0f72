//! Social-network subgroup discovery (the paper's §1 LinkedIn scenario):
//! members of a club, embedded in a larger small-world network, discover
//! each other by running the gossip process **restricted to the club's
//! induced subgraph**. The paper's corollary: a connected k-member subgroup
//! completes in O(k log² k) rounds, independent of the host network's size.
//!
//! ```text
//! cargo run --release --example social_groups [host_n] [seed]
//! ```

use discovery_gossip::prelude::*;
use gossip_graph::components::is_connected;
use gossip_graph::traversal::bfs_distances;

fn main() {
    let mut args = std::env::args().skip(1);
    let host_n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    let mut rng = gossip_core::rng::stream_rng(seed, 0, 1);
    // The host society: a small-world contact network.
    let host = generators::watts_strogatz(host_n, 4, 0.05, &mut rng);
    println!(
        "host network: Watts–Strogatz n = {}, m = {}, mean degree = {:.1}",
        host.n(),
        host.m(),
        host.mean_degree()
    );

    println!(
        "\n{:>6} {:>10} {:>12} {:>10}",
        "k", "rounds", "k log² k", "ratio"
    );
    for k in [25usize, 50, 100, 200, 400] {
        // The club: a BFS ball around a random member, so it induces a
        // connected subgraph of the host network.
        let center = NodeId::new(k % host.n());
        let dist = bfs_distances(&host, center);
        let mut members: Vec<NodeId> = (0..host.n())
            .map(NodeId::new)
            .filter(|u| dist[u.index()] != u32::MAX)
            .collect();
        members.sort_by_key(|u| dist[u.index()]);
        members.truncate(k);

        // Restrict the process to the club's induced subgraph: members
        // introduce only fellow members (what "running the process on the
        // subgraph" means operationally).
        let (club, _) = host.induced_subgraph(&members);
        assert!(is_connected(&club), "BFS ball must induce a connected club");

        let cfg = TrialConfig {
            trials: 8,
            base_seed: seed,
            max_rounds: 100_000_000,
        };
        let rounds = convergence_rounds(&club, Push, ComponentwiseComplete::for_graph, &cfg);
        let mean = rounds.iter().sum::<u64>() as f64 / rounds.len() as f64;
        let kf = k as f64;
        let bound = kf * kf.ln() * kf.ln();
        println!(
            "{:>6} {:>10.0} {:>12.0} {:>10.3}",
            k,
            mean,
            bound,
            mean / bound
        );
    }
    println!(
        "\nratio staying flat-ish => rounds scale with the CLUB size, not the host's {host_n}"
    );
}
