use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::WeightedGraph;

/// Kernighan–Lin weighted bisection: splits the vertices into a `false`
/// side of exactly `left_size` vertices and a `true` side with the rest,
/// heuristically minimizing the crossing weight.
///
/// Starts from a random balanced assignment and runs KL improvement passes
/// (swap the best pair, lock, keep the best prefix) until a pass yields no
/// gain. Deterministic given the RNG state.
///
/// # Panics
///
/// Panics if `left_size > graph.len()`.
///
/// # Example
///
/// ```
/// use ecmas_partition::{bisect, WeightedGraph};
/// use rand::SeedableRng;
///
/// // Two triangles joined by one light edge: the optimal bisection cuts it.
/// let g = WeightedGraph::from_edges(6, [
///     (0, 1, 5), (1, 2, 5), (0, 2, 5),
///     (3, 4, 5), (4, 5, 5), (3, 5, 5),
///     (2, 3, 1),
/// ]);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let side = bisect(&g, 3, &mut rng);
/// assert_eq!(g.cut_weight(&side), 1);
/// ```
#[must_use]
pub fn bisect(graph: &WeightedGraph, left_size: usize, rng: &mut impl Rng) -> Vec<bool> {
    let view: Vec<usize> = (0..graph.len()).collect();
    Kl::new(graph.len()).bisect(graph, &view, left_size, rng).to_vec()
}

/// Marks a graph vertex outside the current view.
const OUTSIDE: usize = usize::MAX;

/// An edge weight as a signed gain term, saturating.
pub(crate) fn clamp(w: u64) -> i64 {
    i64::try_from(w).unwrap_or(i64::MAX)
}

/// `(position, weight)` of graph vertex `v`'s neighbors inside the view
/// that `index_of` numbers.
fn view_neighbors<'a>(
    graph: &'a WeightedGraph,
    index_of: &'a [usize],
    v: usize,
) -> impl Iterator<Item = (usize, i64)> + 'a {
    graph.neighbors(v).iter().filter_map(|&(u, w)| {
        let j = index_of[u];
        (j != OUTSIDE).then(|| (j, clamp(w)))
    })
}

/// Kernighan–Lin bisection of a *view* of a graph: the vertices listed in
/// `view`, numbered by their position in it, with the edges among them.
/// The induced subgraph is never built — neighbor lists are read from the
/// whole graph and filtered through `index_of` — and every array lives in
/// this scratch, reused across calls.
#[derive(Debug, Default)]
pub(crate) struct Kl {
    /// Graph vertex → position in the current view, [`OUTSIDE`] elsewhere.
    index_of: Vec<usize>,
    /// Per position: the committed side (`true` = right).
    side: Vec<bool>,
    /// Shuffled positions for the random balanced start.
    order: Vec<usize>,
    /// Per position: external − internal incident weight.
    d: Vec<i64>,
    locked: Vec<bool>,
    /// Per position: the side within the current pass.
    trial: Vec<bool>,
    /// The current pass's tentative `(a, b, gain)` swaps.
    swaps: Vec<(usize, usize, i64)>,
    /// Unlocked left / right positions, by descending D then position.
    left: Vec<usize>,
    right: Vec<usize>,
    /// Dense γ(a, ·) over positions; all zero between pair searches.
    row: Vec<i64>,
}

impl Kl {
    /// Scratch for views of a graph with `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        Kl { index_of: vec![OUTSIDE; n], ..Kl::default() }
    }

    /// Splits `view` into a `false` side of exactly `left_size` positions
    /// and a `true` side with the rest; the result is indexed by position
    /// in `view`. Starts from a random balanced assignment and runs KL
    /// passes until one yields no gain.
    ///
    /// # Panics
    ///
    /// Panics if `left_size > view.len()`.
    pub(crate) fn bisect(
        &mut self,
        graph: &WeightedGraph,
        view: &[usize],
        left_size: usize,
        rng: &mut impl Rng,
    ) -> &[bool] {
        self.enter(view, left_size, rng);
        while self.pass(graph, view) > 0 {}
        self.leave(view);
        &self.side
    }

    /// Numbers the view's vertices and draws the random balanced start.
    fn enter(&mut self, view: &[usize], left_size: usize, rng: &mut impl Rng) {
        let k = view.len();
        assert!(left_size <= k, "left side larger than the graph");
        for (i, &v) in view.iter().enumerate() {
            self.index_of[v] = i;
        }
        self.order.clear();
        self.order.extend(0..k);
        self.order.shuffle(rng);
        self.side.clear();
        self.side.resize(k, true);
        for &i in &self.order[..left_size] {
            self.side[i] = false;
        }
        self.row.clear();
        self.row.resize(k, 0);
    }

    /// Forgets the view's numbering, so the next view starts clean.
    fn leave(&mut self, view: &[usize]) {
        for &v in view {
            self.index_of[v] = OUTSIDE;
        }
    }

    /// One KL pass; mutates `side` if a positive-gain prefix exists and
    /// returns the committed gain.
    fn pass(&mut self, graph: &WeightedGraph, view: &[usize]) -> i64 {
        for _ in 0..self.start_pass(graph, view) {
            let Some((a, b, gain)) = self.best_pair(graph, view) else { break };
            self.swap(graph, view, a, b, gain);
        }
        self.commit()
    }

    /// Computes D, unlocks everything and returns how many swaps the pass
    /// may make.
    fn start_pass(&mut self, graph: &WeightedGraph, view: &[usize]) -> usize {
        let k = view.len();
        self.d.clear();
        for (v, &vertex) in view.iter().enumerate() {
            let d = view_neighbors(graph, &self.index_of, vertex)
                .map(|(u, w)| if self.side[u] == self.side[v] { -w } else { w })
                .sum();
            self.d.push(d);
        }
        self.locked.clear();
        self.locked.resize(k, false);
        self.trial.clone_from(&self.side);
        self.swaps.clear();
        self.left.clear();
        self.left.extend((0..k).filter(|&v| !self.side[v]));
        self.right.clear();
        self.right.extend((0..k).filter(|&v| self.side[v]));
        self.left.len().min(self.right.len())
    }

    /// The unlocked (left, right) pair of greatest gain
    /// `D[a] + D[b] − 2·γ(a, b)`, ties to the smallest `(a, b)`.
    ///
    /// Weights are non-negative, so `D[a] + D[b]` bounds the gain of
    /// every pair. Both sides are scanned by descending D (then
    /// ascending position), so once the bound falls below the best gain
    /// — or meets it at a pair that sorts after the best — no later pair
    /// in that scan can win. This picks exactly the pair an exhaustive
    /// a-then-b scan keeping the first strict maximum would.
    fn best_pair(&mut self, graph: &WeightedGraph, view: &[usize]) -> Option<(usize, usize, i64)> {
        let d = &self.d;
        self.left.sort_unstable_by_key(|&v| (std::cmp::Reverse(d[v]), v));
        self.right.sort_unstable_by_key(|&v| (std::cmp::Reverse(d[v]), v));
        let top_right = d[*self.right.first()?];
        let beaten = |best: Option<(usize, usize, i64)>, a: usize, b: usize, bound: i64| {
            best.is_some_and(|(ba, bb, bg)| bound < bg || (bound == bg && (a, b) > (ba, bb)))
        };
        let mut best: Option<(usize, usize, i64)> = None;
        for &a in &self.left {
            // `b = 0` sorts before any pair with this `a`.
            if beaten(best, a, 0, d[a] + top_right) {
                break;
            }
            for (u, w) in view_neighbors(graph, &self.index_of, view[a]) {
                self.row[u] = w;
            }
            for &b in &self.right {
                let bound = d[a] + d[b];
                if beaten(best, a, b, bound) {
                    break;
                }
                let gain = bound - 2 * self.row[b];
                if !beaten(best, a, b, gain) {
                    best = Some((a, b, gain));
                }
            }
            for (u, _) in view_neighbors(graph, &self.index_of, view[a]) {
                self.row[u] = 0;
            }
        }
        best
    }

    /// Tentatively swaps `a` and `b`, locks them and updates D for the
    /// unlocked vertices around them.
    fn swap(&mut self, graph: &WeightedGraph, view: &[usize], a: usize, b: usize, gain: i64) {
        self.trial[a] = true;
        self.trial[b] = false;
        self.locked[a] = true;
        self.locked[b] = true;
        self.swaps.push((a, b, gain));
        self.left.retain(|&v| v != a);
        self.right.retain(|&v| v != b);
        for moved in [a, b] {
            for (u, w) in view_neighbors(graph, &self.index_of, view[moved]) {
                if self.locked[u] {
                    continue;
                }
                // `moved` changed sides from u's perspective: same-side ↔
                // cross-side.
                if self.trial[u] == self.trial[moved] {
                    self.d[u] -= 2 * w;
                } else {
                    self.d[u] += 2 * w;
                }
            }
        }
    }

    /// Applies the best positive prefix of the pass's swaps to `side` and
    /// returns its gain.
    fn commit(&mut self) -> i64 {
        let mut cumulative = 0i64;
        let mut best_prefix = 0usize;
        let mut best_gain = 0i64;
        for (k, &(_, _, g)) in self.swaps.iter().enumerate() {
            cumulative += g;
            if cumulative > best_gain {
                best_gain = cumulative;
                best_prefix = k + 1;
            }
        }
        for &(a, b, _) in &self.swaps[..best_prefix] {
            self.side[a] = true;
            self.side[b] = false;
        }
        best_gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn sizes_are_exact() {
        let g = WeightedGraph::from_edges(7, [(0, 1, 1), (2, 3, 1), (4, 5, 1)]);
        for left in 0..=7 {
            let side = bisect(&g, left, &mut rng());
            assert_eq!(side.iter().filter(|&&s| !s).count(), left);
        }
    }

    #[test]
    fn separates_two_cliques() {
        let mut edges = Vec::new();
        for a in 0..4 {
            for b in a + 1..4 {
                edges.push((a, b, 10));
                edges.push((a + 4, b + 4, 10));
            }
        }
        edges.push((0, 4, 1));
        let g = WeightedGraph::from_edges(8, edges);
        let side = bisect(&g, 4, &mut rng());
        assert_eq!(g.cut_weight(&side), 1);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let g = WeightedGraph::from_edges(0, []);
        assert!(bisect(&g, 0, &mut rng()).is_empty());
        let g = WeightedGraph::from_edges(1, []);
        assert_eq!(bisect(&g, 1, &mut rng()), vec![false]);
        assert_eq!(bisect(&g, 0, &mut rng()), vec![true]);
    }

    /// The exhaustive pair scan the pruned search replaced: every
    /// unlocked (left, right) pair, a then b, keeping the first strict
    /// maximum, with γ(a, b) found by a linear neighbor search.
    fn reference_best_pair(
        kl: &Kl,
        graph: &WeightedGraph,
        view: &[usize],
    ) -> Option<(usize, usize, i64)> {
        let mut best: Option<(usize, usize, i64)> = None;
        for a in 0..view.len() {
            if kl.locked[a] || kl.trial[a] {
                continue;
            }
            for b in 0..view.len() {
                if kl.locked[b] || !kl.trial[b] {
                    continue;
                }
                let w_ab = graph
                    .neighbors(view[a])
                    .iter()
                    .find(|&&(u, _)| u == view[b])
                    .map_or(0i64, |&(_, w)| clamp(w));
                let gain = kl.d[a] + kl.d[b] - 2 * w_ab;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((a, b, gain));
                }
            }
        }
        best
    }

    /// A seeded graph on `n` vertices in one of three weight regimes:
    /// mixed weights with zeros, all-equal weights (many equal D values),
    /// and mostly-zero weights.
    fn random_graph(rng: &mut SmallRng, n: usize, regime: usize) -> WeightedGraph {
        let density = rng.gen_range(0.05..0.9);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.gen_bool(density) {
                    let w = match regime {
                        0 => rng.gen_range(0..5u64),
                        1 => 1,
                        _ => u64::from(rng.gen_bool(0.2)),
                    };
                    edges.push((a, b, w));
                }
            }
        }
        WeightedGraph::from_edges(n, edges)
    }

    /// A random ascending subset of `0..n` with `k` vertices.
    fn random_view(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        all.shuffle(rng);
        let mut view = all[..k].to_vec();
        view.sort_unstable();
        view
    }

    #[test]
    fn pruned_pair_search_matches_the_exhaustive_scan_at_every_step() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut steps = 0usize;
        for k in 2..=60 {
            for regime in [0, 1, 2, 0, 1, 2] {
                let n = k + rng.gen_range(0..k);
                let g = random_graph(&mut rng, n, regime);
                let view = random_view(&mut rng, n, k);
                let left_size = rng.gen_range(1..k);
                let mut kl = Kl::new(n);
                kl.enter(&view, left_size, &mut rng);
                loop {
                    for _ in 0..kl.start_pass(&g, &view) {
                        let expected = reference_best_pair(&kl, &g, &view);
                        let found = kl.best_pair(&g, &view);
                        assert_eq!(found, expected, "k={k} regime={regime} step {steps}");
                        let Some((a, b, gain)) = found else { break };
                        kl.swap(&g, &view, a, b, gain);
                        steps += 1;
                    }
                    if kl.commit() <= 0 {
                        break;
                    }
                }
                kl.leave(&view);
                assert!(kl.index_of.iter().all(|&i| i == OUTSIDE), "view numbering leaked");
            }
        }
        assert!(steps > 6_000, "only {steps} swap steps checked");
    }

    #[test]
    fn a_view_bisects_like_its_induced_subgraph() {
        let mut rng = SmallRng::seed_from_u64(7);
        for k in 1..=40 {
            let n = k + rng.gen_range(0..2 * k);
            let g = random_graph(&mut rng, n, k % 3);
            let view = random_view(&mut rng, n, k);
            let left_size = rng.gen_range(0..k + 1);
            let mut position = vec![usize::MAX; n];
            for (i, &v) in view.iter().enumerate() {
                position[v] = i;
            }
            let induced = WeightedGraph::from_edges(
                k,
                g.edges()
                    .iter()
                    .filter(|&&(a, b, _)| position[a] != usize::MAX && position[b] != usize::MAX)
                    .map(|&(a, b, w)| (position[a], position[b], w)),
            );
            let seed = rng.gen_range(0..u64::MAX);
            let by_view = Kl::new(n)
                .bisect(&g, &view, left_size, &mut SmallRng::seed_from_u64(seed))
                .to_vec();
            let by_subgraph = bisect(&induced, left_size, &mut SmallRng::seed_from_u64(seed));
            assert_eq!(by_view, by_subgraph, "k={k}");
        }
    }

    #[test]
    fn never_worse_than_random_start() {
        // KL only commits positive-gain prefixes, so the result can't be
        // worse than some balanced partition; sanity-check it's decent on a
        // path graph.
        let g = WeightedGraph::from_edges(10, (0..9).map(|i| (i, i + 1, 1)));
        let side = bisect(&g, 5, &mut rng());
        assert!(g.cut_weight(&side) <= 3, "path bisection should cut few edges");
    }
}
