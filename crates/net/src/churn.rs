//! Churn: the join/leave dynamics the paper's conclusion asks about.
//!
//! A [`ChurnModel`] drives membership changes between protocol rounds:
//! each round, with the configured rates, nodes join (bootstrapped with a
//! few random live contacts, like a tracker handing out peers) and random
//! nodes leave without notice. Discovery quality under churn is then read
//! off [`crate::network::Network::coverage`] and
//! [`crate::network::Network::staleness`].

use crate::network::Network;
use gossip_core::rng::stream_rng;
use gossip_graph::NodeId;
use rand::Rng;

/// Poisson-ish churn: expected `join_rate` joins and `leave_rate` departures
/// per round (Bernoulli per round at these probabilities for rates <= 1).
#[derive(Clone, Copy, Debug)]
pub struct ChurnModel {
    /// Probability a new node joins this round.
    pub join_prob: f64,
    /// Probability a random live node leaves this round.
    pub leave_prob: f64,
    /// Number of bootstrap contacts handed to each joiner.
    pub bootstrap_contacts: usize,
    /// Churn RNG seed (separate stream family from the protocol's).
    pub seed: u64,
}

impl ChurnModel {
    /// Applies one round of churn to `net`. Returns `(joined, left)`.
    ///
    /// Never kills the last two live nodes (discovery among < 2 nodes is
    /// vacuous and would just end the experiment).
    pub fn apply(&self, net: &mut Network, round: u64) -> (Option<NodeId>, Option<NodeId>) {
        let mut rng = stream_rng(self.seed, round, u64::MAX - 7);
        let mut joined = None;
        let mut left = None;
        if self.join_prob > 0.0 && rng.random_bool(self.join_prob) {
            let alive = net.alive_ids();
            if !alive.is_empty() {
                let k = self.bootstrap_contacts.min(alive.len());
                let mut boots = Vec::with_capacity(k);
                while boots.len() < k {
                    let c = alive[rng.random_range(0..alive.len())];
                    if !boots.contains(&c) {
                        boots.push(c);
                    }
                }
                joined = Some(net.join(&boots));
            }
        }
        if self.leave_prob > 0.0 && rng.random_bool(self.leave_prob) {
            let alive = net.alive_ids();
            if alive.len() > 2 {
                let victim = alive[rng.random_range(0..alive.len())];
                net.kill(victim);
                left = Some(victim);
            }
        }
        (joined, left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetConfig, Network};
    use crate::protocols::PushProtocol;
    use gossip_graph::generators;

    #[test]
    fn churn_changes_membership() {
        let g = generators::complete(8);
        let mut net = Network::from_graph(&g, NetConfig::default());
        let churn = ChurnModel {
            join_prob: 1.0,
            leave_prob: 1.0,
            bootstrap_contacts: 2,
            seed: 5,
        };
        let mut joins = 0;
        let mut leaves = 0;
        for round in 0..20 {
            let (j, l) = churn.apply(&mut net, round);
            joins += j.is_some() as u32;
            leaves += l.is_some() as u32;
        }
        assert_eq!(joins, 20);
        assert_eq!(leaves, 20);
        assert_eq!(net.peer_count(), 28);
    }

    #[test]
    fn never_kills_below_two() {
        let g = generators::complete(3);
        let mut net = Network::from_graph(&g, NetConfig::default());
        let churn = ChurnModel {
            join_prob: 0.0,
            leave_prob: 1.0,
            bootstrap_contacts: 0,
            seed: 1,
        };
        for round in 0..50 {
            churn.apply(&mut net, round);
        }
        assert_eq!(net.alive_count(), 2);
    }

    #[test]
    fn discovery_keeps_up_with_mild_churn() {
        let g = generators::complete(12);
        let mut net = Network::from_graph(
            &g,
            NetConfig {
                drop_prob: 0.0,
                seed: 9,
            },
        );
        let churn = ChurnModel {
            join_prob: 0.05,
            leave_prob: 0.05,
            bootstrap_contacts: 3,
            seed: 10,
        };
        let mut proto = PushProtocol;
        for round in 0..400 {
            churn.apply(&mut net, round);
            net.step(&mut proto);
        }
        // Push keeps coverage high even as membership drifts.
        assert!(
            net.coverage() > 0.85,
            "coverage collapsed under churn: {}",
            net.coverage()
        );
    }

    #[test]
    fn churn_is_deterministic() {
        let g = generators::complete(6);
        let run = || {
            let mut net = Network::from_graph(&g, NetConfig::default());
            let churn = ChurnModel {
                join_prob: 0.5,
                leave_prob: 0.3,
                bootstrap_contacts: 2,
                seed: 77,
            };
            let mut log = Vec::new();
            for round in 0..30 {
                log.push(churn.apply(&mut net, round));
            }
            (log, net.peer_count(), net.alive_count())
        };
        assert_eq!(run(), run());
    }
}
