//! Robustness variants the paper's conclusion (§6) calls for:
//! connection failures and partial participation, as composable wrappers
//! around any base rule.

use crate::process::{GossipGraph, ProposalRule, ProposalSet};
use gossip_graph::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;

/// Wraps a rule so each *proposed edge* independently fails to form with
/// probability `failure_prob` (a flaky introduction / lost message).
#[derive(Clone, Copy, Debug)]
pub struct Faulty<R> {
    inner: R,
    failure_prob: f64,
}

impl<R> Faulty<R> {
    /// Wraps `inner`; every proposal is dropped with probability
    /// `failure_prob`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= failure_prob <= 1.0`.
    pub fn new(inner: R, failure_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&failure_prob),
            "failure_prob must be in [0, 1]"
        );
        Faulty {
            inner,
            failure_prob,
        }
    }
}

impl<G: GossipGraph, R: ProposalRule<G>> ProposalRule<G> for Faulty<R> {
    #[inline]
    fn propose(&self, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
        let base = self.inner.propose(g, u, rng);
        let mut out = ProposalSet::empty();
        for &e in base.as_slice() {
            if !rng.random_bool(self.failure_prob) {
                out.push(e);
            }
        }
        out
    }
}

/// Wraps a rule so each node only participates in a round with probability
/// `participation` (independently per round) — the paper's "only a subset
/// of nodes participate" variant.
#[derive(Clone, Copy, Debug)]
pub struct Partial<R> {
    inner: R,
    participation: f64,
}

impl<R> Partial<R> {
    /// Wraps `inner` with per-round participation probability.
    ///
    /// # Panics
    /// Panics unless `0.0 <= participation <= 1.0`.
    pub fn new(inner: R, participation: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&participation),
            "participation must be in [0, 1]"
        );
        Partial {
            inner,
            participation,
        }
    }
}

impl<G: GossipGraph, R: ProposalRule<G>> ProposalRule<G> for Partial<R> {
    #[inline]
    fn propose(&self, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
        // Draw the participation coin first so the inner rule's stream usage
        // stays aligned whether or not the node acts.
        if rng.random_bool(self.participation) {
            self.inner.propose(g, u, rng)
        } else {
            ProposalSet::empty()
        }
    }
}

/// Restricts a rule to a fixed set of active nodes: only members propose.
/// Models the paper's social-group scenario where a subgroup runs the
/// process over the host network (§1, "members of a club").
#[derive(Clone, Debug)]
pub struct OnlySubset<R> {
    inner: R,
    active: Vec<bool>,
}

impl<R> OnlySubset<R> {
    /// Wraps `inner`; only nodes listed in `members` (ids into a graph of
    /// `n` nodes) will act.
    pub fn new(inner: R, n: usize, members: &[NodeId]) -> Self {
        let mut active = vec![false; n];
        for &u in members {
            active[u.index()] = true;
        }
        OnlySubset { inner, active }
    }
}

impl<G: GossipGraph, R: ProposalRule<G>> ProposalRule<G> for OnlySubset<R> {
    #[inline]
    fn propose(&self, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
        if self.active[u.index()] {
            self.inner.propose(g, u, rng)
        } else {
            ProposalSet::empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;
    use crate::rules::Push;
    use gossip_graph::generators;

    #[test]
    fn faulty_zero_is_transparent() {
        let g = generators::complete(8);
        for s in 0..100 {
            let mut r1 = stream_rng(1, s, 0);
            let mut r2 = stream_rng(1, s, 0);
            let base = Push.propose(&g, NodeId(0), &mut r1);
            let wrapped = Faulty::new(Push, 0.0).propose(&g, NodeId(0), &mut r2);
            assert_eq!(base, wrapped);
        }
    }

    #[test]
    fn faulty_one_drops_everything() {
        let g = generators::complete(8);
        let rule = Faulty::new(Push, 1.0);
        for s in 0..50 {
            let mut rng = stream_rng(2, s, 0);
            assert!(rule.propose(&g, NodeId(0), &mut rng).is_empty());
        }
    }

    #[test]
    fn faulty_half_drops_roughly_half() {
        let g = generators::complete(16);
        let rule = Faulty::new(Push, 0.5);
        let mut kept = 0;
        let trials = 2000;
        for s in 0..trials {
            let mut rng = stream_rng(3, s, 0);
            kept += rule.propose(&g, NodeId(0), &mut rng).len();
        }
        // Base rule proposes ~ (1 - 1/15) of the time; half survive.
        let expected = trials as f64 * (14.0 / 15.0) * 0.5;
        assert!(
            (kept as f64 - expected).abs() < 0.15 * expected,
            "kept {kept}, expected ~{expected}"
        );
    }

    #[test]
    fn partial_zero_never_acts() {
        let g = generators::complete(8);
        let rule = Partial::new(Push, 0.0);
        for s in 0..50 {
            let mut rng = stream_rng(4, s, 0);
            assert!(rule.propose(&g, NodeId(0), &mut rng).is_empty());
        }
    }

    #[test]
    fn subset_only_members_act() {
        let g = generators::complete(8);
        let rule = OnlySubset::new(Push, 8, &[NodeId(1), NodeId(3)]);
        let mut member_props = 0;
        for s in 0..100 {
            let mut rng = stream_rng(5, s, 0);
            assert!(rule.propose(&g, NodeId(0), &mut rng).is_empty());
            let mut rng = stream_rng(5, s, 1);
            member_props += rule.propose(&g, NodeId(1), &mut rng).len();
        }
        assert!(member_props > 50);
    }

    #[test]
    #[should_panic(expected = "failure_prob")]
    fn faulty_rejects_bad_probability() {
        let _ = Faulty::new(Push, 1.5);
    }

    #[test]
    #[should_panic(expected = "participation")]
    fn partial_rejects_bad_probability() {
        let _ = Partial::new(Push, -0.1);
    }
}
