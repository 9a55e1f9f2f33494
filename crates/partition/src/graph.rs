/// A lightweight undirected weighted graph: the partitioners' input type.
///
/// Kept independent of `ecmas-circuit` so this crate stays dependency-free;
/// the compiler converts a communication graph into a `WeightedGraph` with
/// [`from_edges`](Self::from_edges).
///
/// # Example
///
/// ```
/// use ecmas_partition::WeightedGraph;
///
/// let g = WeightedGraph::from_edges(3, [(0, 1, 2u64), (1, 2, 1)]);
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.weighted_degree(1), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WeightedGraph {
    n: usize,
    /// CSR row starts: the neighbors of `v` are `adj[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    /// Every vertex's `(neighbor, weight)` list, neighbors ascending.
    adj: Vec<(usize, u64)>,
    edges: Vec<(usize, usize, u64)>,
}

impl WeightedGraph {
    /// Builds a graph over `n` vertices from `(a, b, weight)` triples.
    /// Parallel edges are merged by summing weights; self-loops are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    #[must_use]
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize, u64)>) -> Self {
        let mut edge_list: Vec<(usize, usize, u64)> = edges
            .into_iter()
            .inspect(|&(a, b, _)| assert!(a < n && b < n, "edge endpoint out of range"))
            .filter(|&(a, b, _)| a != b)
            .map(|(a, b, w)| (a.min(b), a.max(b), w))
            .collect();
        edge_list.sort_unstable_by_key(|&(a, b, _)| (a, b));
        edge_list.dedup_by(|next, kept| {
            let parallel = (next.0, next.1) == (kept.0, kept.1);
            if parallel {
                kept.2 += next.2;
            }
            parallel
        });
        // Counting sort into CSR. Edges arrive sorted by (a, b), so every
        // row fills in ascending neighbor order: first the smaller
        // endpoints (as `b` of an earlier edge), then the larger ones.
        let mut start = vec![0usize; n + 1];
        for &(a, b, _) in &edge_list {
            start[a + 1] += 1;
            start[b + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut adj = vec![(0, 0); 2 * edge_list.len()];
        for &(a, b, w) in &edge_list {
            adj[fill[a]] = (b, w);
            fill[a] += 1;
            adj[fill[b]] = (a, w);
            fill[b] += 1;
        }
        WeightedGraph { n, start, adj, edges: edge_list }
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Deduplicated `(a, b, weight)` edges with `a < b`, sorted.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize, u64)] {
        &self.edges
    }

    /// Neighbors of `v` with edge weights.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[(usize, u64)] {
        &self.adj[self.start[v]..self.start[v + 1]]
    }

    /// Sum of weights of edges incident to `v`.
    #[must_use]
    pub fn weighted_degree(&self, v: usize) -> u64 {
        self.neighbors(v).iter().map(|&(_, w)| w).sum()
    }

    /// Total weight of edges crossing the boolean partition `side`.
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != self.len()`.
    #[must_use]
    pub fn cut_weight(&self, side: &[bool]) -> u64 {
        assert_eq!(side.len(), self.n, "side length mismatch");
        self.edges.iter().filter(|&&(a, b, _)| side[a] != side[b]).map(|&(_, _, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_parallel_edges() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1), (1, 0, 2), (1, 2, 1)]);
        assert_eq!(g.edges(), &[(0, 1, 3), (1, 2, 1)]);
    }

    #[test]
    fn ignores_self_loops() {
        let g = WeightedGraph::from_edges(2, [(0, 0, 5), (0, 1, 1)]);
        assert_eq!(g.edges(), &[(0, 1, 1)]);
    }

    #[test]
    fn cut_weight_counts_crossing_edges() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 4)]);
        assert_eq!(g.cut_weight(&[false, false, true, true]), 2);
        assert_eq!(g.cut_weight(&[false, true, false, true]), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        let _ = WeightedGraph::from_edges(2, [(0, 5, 1)]);
    }
}
