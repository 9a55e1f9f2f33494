/// Union–find with parity: tracks, for every element, whether it sits on
/// the same or the opposite side as its set representative.
///
/// This answers incremental-bipartiteness queries in near-constant
/// amortized time: feed it "these two vertices must be on *different*
/// sides" constraints (one per CNOT for the cut-type machinery) and it
/// reports the first constraint that would close an odd cycle.
///
/// # Example
///
/// ```
/// use ecmas_partition::ParityDsu;
///
/// let mut dsu = ParityDsu::new(3);
/// assert!(dsu.union_different(0, 1));
/// assert!(dsu.union_different(1, 2));
/// // 0 and 2 are now provably on the same side:
/// assert_eq!(dsu.parity_between(0, 2), Some(0));
/// assert!(!dsu.union_different(0, 2)); // odd cycle rejected
/// ```
#[derive(Clone, Debug)]
pub struct ParityDsu {
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// Parity of the path from the element to its parent (0 = same side).
    parity: Vec<u8>,
}

impl ParityDsu {
    /// Creates a structure over `n` singleton elements.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ParityDsu { parent: (0..n).collect(), rank: vec![0; n], parity: vec![0; n] }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the structure is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x` and the parity of `x` relative to
    /// it, with path compression.
    fn find(&mut self, x: usize) -> (usize, u8) {
        if self.parent[x] == x {
            return (x, 0);
        }
        let (root, p) = self.find(self.parent[x]);
        let total = self.parity[x] ^ p;
        self.parent[x] = root;
        self.parity[x] = total;
        (root, total)
    }

    /// The set representative of `x`.
    pub fn root(&mut self, x: usize) -> usize {
        self.find(x).0
    }

    /// Relative parity of `a` and `b` if they are connected: `Some(0)` when
    /// they are forced to the same side, `Some(1)` when forced to opposite
    /// sides, `None` when not yet related.
    pub fn parity_between(&mut self, a: usize, b: usize) -> Option<u8> {
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        (ra == rb).then_some(pa ^ pb)
    }

    /// Adds the constraint "`a` and `b` lie on *different* sides".
    /// Returns `false` — leaving the structure unchanged — if the
    /// constraint contradicts what is already known (an odd cycle).
    pub fn union_different(&mut self, a: usize, b: usize) -> bool {
        self.union_with_parity(a, b, 1)
    }

    /// Adds the constraint "`a` and `b` lie on the *same* side". Returns
    /// `false` if contradictory.
    pub fn union_same(&mut self, a: usize, b: usize) -> bool {
        self.union_with_parity(a, b, 0)
    }

    fn union_with_parity(&mut self, a: usize, b: usize, rel: u8) -> bool {
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        if ra == rb {
            return pa ^ pb == rel;
        }
        // Union by rank; fix up the attached root's parity so that
        // parity(a) ^ parity(b) == rel holds afterwards.
        let (big, small, p_big, p_small) =
            if self.rank[ra] >= self.rank[rb] { (ra, rb, pa, pb) } else { (rb, ra, pb, pa) };
        self.parent[small] = big;
        self.parity[small] = p_big ^ p_small ^ rel;
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
        true
    }

    /// Two-colors every element consistently with the recorded constraints:
    /// `side[x]` is the parity of `x` relative to its set representative,
    /// so elements constrained to differ get different sides.
    pub fn coloring(&mut self) -> Vec<u8> {
        (0..self.len()).map(|x| self.find(x).1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_cycle_accepted_odd_rejected() {
        let mut dsu = ParityDsu::new(6);
        for i in 0..5 {
            assert!(dsu.union_different(i, i + 1));
        }
        assert!(dsu.union_different(5, 0), "6-cycle is even");

        let mut dsu = ParityDsu::new(5);
        for i in 0..4 {
            assert!(dsu.union_different(i, i + 1));
        }
        assert!(!dsu.union_different(4, 0), "5-cycle is odd");
    }

    #[test]
    fn union_same_interacts_with_union_different() {
        let mut dsu = ParityDsu::new(3);
        assert!(dsu.union_same(0, 1));
        assert!(dsu.union_different(1, 2));
        assert_eq!(dsu.parity_between(0, 2), Some(1));
        assert!(!dsu.union_same(0, 2));
    }

    #[test]
    fn failed_union_leaves_structure_usable() {
        let mut dsu = ParityDsu::new(3);
        assert!(dsu.union_different(0, 1));
        assert!(dsu.union_different(1, 2));
        assert!(!dsu.union_different(0, 2));
        // Still consistent afterwards.
        assert_eq!(dsu.parity_between(0, 1), Some(1));
        assert_eq!(dsu.parity_between(0, 2), Some(0));
    }

    #[test]
    fn coloring_respects_constraints() {
        let mut dsu = ParityDsu::new(7);
        dsu.union_different(0, 1);
        dsu.union_different(1, 2);
        dsu.union_different(4, 5);
        let side = dsu.coloring();
        assert_ne!(side[0], side[1]);
        assert_ne!(side[1], side[2]);
        assert_eq!(side[0], side[2]);
        assert_ne!(side[4], side[5]);
    }

    #[test]
    fn unrelated_elements_have_no_parity() {
        let mut dsu = ParityDsu::new(4);
        dsu.union_different(0, 1);
        assert_eq!(dsu.parity_between(0, 3), None);
    }

    /// Brute-force bipartiteness via BFS 2-coloring.
    fn bipartite_bfs(n: usize, edges: &[(usize, usize)]) -> bool {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut color = vec![u8::MAX; n];
        for s in 0..n {
            if color[s] != u8::MAX {
                continue;
            }
            color[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(v) = queue.pop_front() {
                for &w in &adj[v] {
                    if color[w] == u8::MAX {
                        color[w] = 1 - color[v];
                        queue.push_back(w);
                    } else if color[w] == color[v] {
                        return false;
                    }
                }
            }
        }
        true
    }

    proptest! {
        /// The DSU accepts a whole edge set iff BFS 2-coloring succeeds.
        #[test]
        fn dsu_matches_bfs_bipartiteness(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40)
        ) {
            let edges: Vec<(usize, usize)> =
                edges.into_iter().filter(|&(a, b)| a != b).collect();
            let mut dsu = ParityDsu::new(12);
            let dsu_ok = edges.iter().all(|&(a, b)| dsu.union_different(a, b));
            prop_assert_eq!(dsu_ok, bipartite_bfs(12, &edges));
        }

        /// When accepted, the DSU coloring properly 2-colors the edges.
        #[test]
        fn coloring_is_proper(
            edges in proptest::collection::vec((0usize..10, 0usize..10), 0..25)
        ) {
            let edges: Vec<(usize, usize)> =
                edges.into_iter().filter(|&(a, b)| a != b).collect();
            let mut dsu = ParityDsu::new(10);
            if edges.iter().all(|&(a, b)| dsu.union_different(a, b)) {
                let side = dsu.coloring();
                for (a, b) in edges {
                    prop_assert_ne!(side[a], side[b]);
                }
            }
        }
    }
}
