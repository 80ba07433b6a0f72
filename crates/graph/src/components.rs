//! Connectivity: union-find, connected components, Tarjan SCC, and the
//! connectivity predicates the processes' preconditions are stated in.

use crate::arena::ArenaGraph;
use crate::directed::DirectedGraph;
use crate::node::NodeId;

/// Disjoint-set forest with union by size and path halving.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            // Path halving: point to grandparent.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Current number of disjoint sets.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.components
    }
}

/// Connected components of an undirected graph; returns per-node component
/// labels in `0..k` and the component sizes.
pub fn connected_components(g: &ArenaGraph) -> (Vec<u32>, Vec<usize>) {
    let mut uf = UnionFind::new(g.n());
    for e in g.edges() {
        uf.union(e.a.index(), e.b.index());
    }
    let mut label = vec![u32::MAX; g.n()];
    let mut sizes = Vec::new();
    for u in 0..g.n() {
        let r = uf.find(u);
        if label[r] == u32::MAX {
            label[r] = sizes.len() as u32;
            sizes.push(0);
        }
        label[u] = label[r];
        sizes[label[u] as usize] += 1;
    }
    (label, sizes)
}

/// Whether the undirected graph is connected (vacuously true for n <= 1).
pub fn is_connected(g: &ArenaGraph) -> bool {
    g.n() <= 1 || connected_components(g).1.len() == 1
}

/// The number of edges in the "componentwise complete" graph: the fixed point
/// the processes converge to when the start graph is disconnected
/// (`sum over components C of |C| * (|C|-1) / 2`).
pub fn componentwise_complete_edges(g: &ArenaGraph) -> u64 {
    connected_components(g)
        .1
        .iter()
        .map(|&s| (s as u64) * (s as u64 - 1) / 2)
        .sum()
}

/// Strongly connected components via iterative Tarjan; returns per-node
/// component labels (reverse topological order: a component's label is
/// assigned when it is popped) and the number of components.
pub fn strongly_connected_components(g: &DirectedGraph) -> (Vec<u32>, usize) {
    let n = g.n();
    const NONE: u32 = u32::MAX;
    let mut index = vec![NONE; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut label = vec![NONE; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    // Explicit DFS state machine: (node, next-successor-position).
    let mut call_stack: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != NONE {
            continue;
        }
        call_stack.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (u, ref mut pos)) = call_stack.last_mut() {
            let succs = g.out_neighbors(NodeId(u));
            if *pos < succs.len() {
                let v = succs[*pos].0;
                *pos += 1;
                if index[v as usize] == NONE {
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    call_stack.push((v, 0));
                } else if on_stack[v as usize] {
                    lowlink[u as usize] = lowlink[u as usize].min(index[v as usize]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[u as usize]);
                }
                if lowlink[u as usize] == index[u as usize] {
                    // u is an SCC root: pop its component.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        label[w as usize] = comp_count;
                        if w == u {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }
    (label, comp_count as usize)
}

/// Whether the digraph is strongly connected.
pub fn is_strongly_connected(g: &DirectedGraph) -> bool {
    g.n() <= 1 || strongly_connected_components(g).1 == 1
}

/// Whether the digraph is weakly connected (connected when arcs are
/// symmetrized).
pub fn is_weakly_connected(g: &DirectedGraph) -> bool {
    if g.n() <= 1 {
        return true;
    }
    let mut uf = UnionFind::new(g.n());
    for (a, b) in g.symmetrized_edges() {
        uf.union(a.index(), b.index());
    }
    uf.component_count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.union(0, 2));
        assert!(uf.connected(1, 3));
        assert_eq!(uf.component_count(), 2);
    }

    #[test]
    fn components_of_two_triangles() {
        let g = ArenaGraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let (label, sizes) = connected_components(&g);
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes, vec![3, 3]);
        assert_eq!(label[0], label[1]);
        assert_ne!(label[0], label[3]);
        assert!(!is_connected(&g));
        assert_eq!(componentwise_complete_edges(&g), 6);
    }

    #[test]
    fn connected_path() {
        let g = ArenaGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(is_connected(&g));
        assert_eq!(componentwise_complete_edges(&g), 6);
    }

    #[test]
    fn scc_cycle_plus_tail() {
        // 0 -> 1 -> 2 -> 0 (one SCC), 2 -> 3 (singleton SCC).
        let g = DirectedGraph::from_arcs(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let (label, count) = strongly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(label[0], label[1]);
        assert_eq!(label[1], label[2]);
        assert_ne!(label[0], label[3]);
        assert!(!is_strongly_connected(&g));
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn scc_directed_cycle() {
        let g = DirectedGraph::from_arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn scc_dag_all_singletons() {
        let g = DirectedGraph::from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 4);
        assert!(is_weakly_connected(&g));
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn deep_recursion_safe() {
        // 20k-node directed path: the iterative Tarjan must not overflow the
        // stack where a recursive one would.
        let n = 20_000u32;
        let g = DirectedGraph::from_arcs(n as usize, (0..n - 1).map(|i| (i, i + 1)));
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, n as usize);
    }
}
