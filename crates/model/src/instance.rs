//! Instance enumeration: every connected undirected graph on `n <= 5`
//! nodes, one representative per isomorphism class.
//!
//! The checker's claims are quantified over *all* small starting
//! topologies, so the instance set must be exhaustive. Graphs are encoded
//! as edge bitmasks over the `C(n, 2)` node pairs in lexicographic order;
//! isomorphism classes are deduplicated by taking, for each mask, the
//! minimum mask over all `n!` node relabelings and keeping only masks that
//! equal their own canonical form. The class counts (1, 1, 2, 6, 21 for
//! `n = 1..=5`) match the known census of connected graphs.

/// The largest instance size the checker and the exact solver support
/// (state rows are packed into one byte per node, edge masks into a `u16`).
pub const MAX_N: usize = 5;

/// One starting topology: `n` nodes and an edge bitmask over the
/// lexicographic pair order (0-1, 0-2, ..., (n-2)-(n-1)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Instance {
    /// Node count, `1..=MAX_N`.
    pub n: usize,
    /// Edge set: bit [`pair_index`]`(n, i, j)` set means edge `{i, j}`.
    pub edge_mask: u16,
}

/// The bit position of pair `{i, j}` (`i < j`) in an `n`-node edge mask.
pub fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    // Pairs with first endpoint a occupy a contiguous block of n-1-a bits.
    (0..i).map(|a| n - 1 - a).sum::<usize>() + (j - i - 1)
}

impl Instance {
    /// The edge list in lexicographic order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.edge_mask >> pair_index(self.n, i, j) & 1 == 1 {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Initial contact rows: `rows[i]` has bit `j` set iff `{i, j}` is an
    /// edge. Both the graph world and the knowledge world start from this
    /// (the paper's knowledge is symmetric at the start).
    pub fn initial_rows(&self) -> [u8; MAX_N] {
        let mut rows = [0u8; MAX_N];
        for (i, j) in self.edges() {
            rows[i] |= 1 << j;
            rows[j] |= 1 << i;
        }
        rows
    }

    /// Human-readable rendering, e.g. `n=3 edges=0-1,1-2`.
    pub fn describe(&self) -> String {
        let edges: Vec<String> = self
            .edges()
            .iter()
            .map(|&(i, j)| format!("{i}-{j}"))
            .collect();
        format!("n={} edges={}", self.n, edges.join(","))
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    fn rec(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == items.len() {
            out.push(items.clone());
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            rec(k + 1, items, out);
            items.swap(k, i);
        }
    }
    rec(0, &mut items, &mut out);
    out
}

pub(crate) fn is_connected(n: usize, mask: u16) -> bool {
    if n == 1 {
        return true;
    }
    let mut adj = [0u8; MAX_N];
    for i in 0..n {
        for j in (i + 1)..n {
            if mask >> pair_index(n, i, j) & 1 == 1 {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    let mut seen: u8 = 1;
    let mut frontier: u8 = 1;
    while frontier != 0 {
        let mut next: u8 = 0;
        for (i, &row) in adj.iter().enumerate().take(n) {
            if frontier >> i & 1 == 1 {
                next |= row & !seen;
            }
        }
        seen |= next;
        frontier = next;
    }
    seen == (1u8 << n) - 1
}

fn relabel(n: usize, mask: u16, perm: &[usize]) -> u16 {
    let mut out = 0u16;
    for i in 0..n {
        for j in (i + 1)..n {
            if mask >> pair_index(n, i, j) & 1 == 1 {
                let (a, b) = (perm[i].min(perm[j]), perm[i].max(perm[j]));
                out |= 1 << pair_index(n, a, b);
            }
        }
    }
    out
}

/// Every connected graph on exactly `n` nodes, one per isomorphism class
/// (the member whose edge mask is minimal over all relabelings).
pub fn connected_instances(n: usize) -> Vec<Instance> {
    assert!((1..=MAX_N).contains(&n), "instances support 1..={MAX_N}");
    let bits = n * (n - 1) / 2;
    let perms = permutations(n);
    let mut out = Vec::new();
    for mask in 0..(1u32 << bits) as u16 {
        if !is_connected(n, mask) {
            continue;
        }
        let canon = perms.iter().fold(mask, |m, p| m.min(relabel(n, mask, p)));
        if canon == mask {
            out.push(Instance { n, edge_mask: mask });
        }
    }
    out
}

/// All connected instances with `1 <= n <= max_n` — the checker's full
/// quantification domain (31 instances at `max_n = 5`).
pub fn all_instances(max_n: usize) -> Vec<Instance> {
    (1..=max_n).flat_map(connected_instances).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_matches_known_counts() {
        // Connected graphs up to isomorphism: OEIS A001349.
        assert_eq!(
            (1..=5)
                .map(|n| connected_instances(n).len())
                .collect::<Vec<_>>(),
            vec![1, 1, 2, 6, 21]
        );
        assert_eq!(all_instances(5).len(), 31);
    }

    #[test]
    fn pair_index_is_lexicographic_and_dense() {
        let mut seen = Vec::new();
        for i in 0..4 {
            for j in (i + 1)..4 {
                seen.push(pair_index(4, i, j));
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn initial_rows_are_symmetric() {
        for inst in all_instances(5) {
            let rows = inst.initial_rows();
            for i in 0..inst.n {
                for j in 0..inst.n {
                    assert_eq!(rows[i] >> j & 1, rows[j] >> i & 1);
                }
                assert_eq!(rows[i] >> i & 1, 0, "self-contact in {}", inst.describe());
            }
        }
    }

    #[test]
    fn instances_are_connected_representatives() {
        for inst in all_instances(5) {
            assert!(is_connected(inst.n, inst.edge_mask));
        }
    }
}
