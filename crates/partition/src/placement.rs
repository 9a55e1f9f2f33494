use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::bisect::{clamp, Kl};
use crate::graph::WeightedGraph;

/// A qubit → tile-slot assignment on a `rows × cols` tile array, scored by
/// the paper's communication cost `f = Σ γ_ij · manhattan(slot_i, slot_j)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    rows: usize,
    cols: usize,
    slot_of: Vec<usize>,
    cost: u64,
}

impl Placement {
    /// Tile-array rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Tile-array columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Slot (`r · cols + c`) assigned to each qubit.
    #[must_use]
    pub fn slot_of(&self) -> &[usize] {
        &self.slot_of
    }

    /// Communication cost `f = Σ γ_ij · l_ij` of this mapping.
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

fn manhattan(cols: usize, a: usize, b: usize) -> u64 {
    let (ra, ca) = (a / cols, a % cols);
    let (rb, cb) = (b / cols, b % cols);
    (ra.abs_diff(rb) + ca.abs_diff(cb)) as u64
}

fn total_cost(graph: &WeightedGraph, cols: usize, slot_of: &[usize]) -> u64 {
    graph.edges().iter().map(|&(a, b, w)| w * manhattan(cols, slot_of[a], slot_of[b])).sum()
}

/// Places the vertices of `graph` onto a `rows × cols` tile array by
/// recursive KL bisection followed by pairwise-swap refinement, repeated
/// `restarts` times with different random streams; the cheapest mapping
/// wins. This is the *mapping establishing* step of the paper (§IV-B1),
/// with the recursive bisectioner substituting for Metis.
///
/// `refine = false` skips the swap refinement, reproducing a bare
/// recursive-bisection (Metis-style) mapping — the "Metis" baseline of the
/// paper's Table II.
///
/// No vertex is ever assigned to a slot whose `forbidden` (defective) flag
/// is set: the bisection targets are proportional to *live* slot counts,
/// and the base-case drop and the refinement moves skip dead slots.
///
/// # Panics
///
/// Panics if `forbidden.len() != rows * cols` or if `graph.len()` exceeds
/// the number of live slots.
///
/// # Example
///
/// ```
/// use ecmas_partition::{place, WeightedGraph};
///
/// // A 4-path placed on a 2×2 array: every edge can be adjacent.
/// let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
/// let p = place(&g, 2, 2, 4, 7, true, &[false; 4]);
/// assert_eq!(p.cost(), 3);
/// ```
#[must_use]
pub fn place(
    graph: &WeightedGraph,
    rows: usize,
    cols: usize,
    restarts: usize,
    seed: u64,
    refine: bool,
    forbidden: &[bool],
) -> Placement {
    let n = graph.len();
    assert_eq!(forbidden.len(), rows * cols, "defect mask must cover the tile array");
    let live = forbidden.iter().filter(|&&f| !f).count();
    assert!(n <= live, "{n} qubits do not fit in {live} live slots of a {rows}×{cols} array");
    let mut bisector =
        Bisector { graph, cols, forbidden, kl: Kl::new(n), spill: Vec::with_capacity(n) };
    let mut refiner = refine.then(|| Refiner::new(graph, rows, cols));
    let mut qubits = Vec::with_capacity(n);
    let mut slot_of = vec![usize::MAX; n];
    let mut best: Option<Placement> = None;
    for r in 0..restarts.max(1) {
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_add(r as u64).wrapping_mul(0x9E37_79B9));
        qubits.clear();
        qubits.extend(0..n);
        bisector.recurse(&mut qubits, (0, rows, 0, cols), &mut slot_of, &mut rng);
        if let Some(refiner) = &mut refiner {
            refiner.run(graph, &mut slot_of, forbidden);
        }
        let cost = total_cost(graph, cols, &slot_of);
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(Placement { rows, cols, slot_of: slot_of.clone(), cost });
        }
    }
    best.expect("at least one restart")
}

/// A slot region `[r0, r1) × [c0, c1)`.
type Region = (usize, usize, usize, usize);

/// Recursive-bisection state shared by every level and restart of one
/// placement call.
struct Bisector<'g> {
    graph: &'g WeightedGraph,
    cols: usize,
    forbidden: &'g [bool],
    kl: Kl,
    /// The right half of a region's qubits while its slice is partitioned.
    spill: Vec<usize>,
}

impl Bisector<'_> {
    /// Recursively bisects `qubits` (ascending) into `region`, sizing the
    /// halves by their *live* (non-forbidden) slot counts. Each half is
    /// partitioned stably in place, so it stays ascending — the vertex
    /// order the KL view numbers positions by.
    fn recurse(
        &mut self,
        qubits: &mut [usize],
        (r0, r1, c0, c1): Region,
        slot_of: &mut [usize],
        rng: &mut SmallRng,
    ) {
        if qubits.is_empty() {
            return;
        }
        let (cols, forbidden) = (self.cols, self.forbidden);
        let region_rows = r1 - r0;
        let region_cols = c1 - c0;
        if region_rows * region_cols == 1 || qubits.len() == 1 {
            // Base case: drop remaining qubits into the region's live slots
            // row-major. (At most one qubit remains unless the region is a
            // single slot.)
            let mut slots = (r0..r1)
                .flat_map(|r| (c0..c1).map(move |c| r * cols + c))
                .filter(|&s| !forbidden[s]);
            for &q in qubits.iter() {
                slot_of[q] = slots.next().expect("region has room");
            }
            return;
        }

        let live_in = |r0: usize, r1: usize, c0: usize, c1: usize| -> usize {
            (r0..r1).map(|r| (c0..c1).filter(|&c| !forbidden[r * cols + c]).count()).sum()
        };

        // Split the longer dimension.
        let (a_slots, regions) = if region_rows >= region_cols {
            let rm = r0 + region_rows / 2;
            (live_in(r0, rm, c0, c1), ((r0, rm, c0, c1), (rm, r1, c0, c1)))
        } else {
            let cm = c0 + region_cols / 2;
            (live_in(r0, r1, c0, cm), ((r0, r1, c0, cm), (r0, r1, cm, c1)))
        };
        let total_slots = live_in(r0, r1, c0, c1);
        let b_slots = total_slots - a_slots;

        // Target sizes proportional to slot counts, clamped to fit.
        let k = qubits.len();
        let mut ka = (k * a_slots + total_slots / 2) / total_slots;
        ka = ka.min(a_slots).max(k.saturating_sub(b_slots));

        // Bisect the region's qubits as a view of the whole graph, then
        // move the right side behind the left one.
        let side = self.kl.bisect(self.graph, qubits, ka, rng);
        self.spill.clear();
        let mut kept = 0;
        for i in 0..k {
            if side[i] {
                self.spill.push(qubits[i]);
            } else {
                qubits[kept] = qubits[i];
                kept += 1;
            }
        }
        qubits[kept..].copy_from_slice(&self.spill);
        let (left, right) = qubits.split_at_mut(kept);
        self.recurse(left, regions.0, slot_of, rng);
        self.recurse(right, regions.1, slot_of, rng);
    }
}

/// Best-improvement local search: swap two qubits or move a qubit to a free
/// slot while the cost decreases.
///
/// The cost deltas are evaluated through per-qubit *attraction profiles*:
/// Manhattan distance separates into row and column terms, so the weighted
/// distance from a candidate slot `(r, c)` to all of `q`'s neighbors is
/// `A_q(r) + B_q(c)`, and both profiles come from a weighted histogram of
/// the neighbors' current rows/columns in two prefix passes. A profile
/// changes only when a neighbor moves, so after each move only the movers'
/// neighbors are rebuilt. Each round then costs `O(n·slots)` plus the
/// rebuilds instead of a graph scan per candidate, while producing the
/// *same integers* — and therefore the same move sequence and final
/// mapping — as the naive `Σ w·(d(to, s_u) − d(from, s_u))` evaluation.
///
/// The scratch, including the dense pair-weight table, is built once per
/// placement call and reused by every restart.
struct Refiner {
    rows: usize,
    cols: usize,
    /// Dense pair-weight table for the swap correction term (γ_qp): a
    /// swap leaves the q–p edge length unchanged, so its contribution
    /// must be backed out of the two one-sided deltas. n is a tile-array
    /// population, so n² stays small.
    weight: Vec<i64>,
    occupant: Vec<Option<usize>>,
    row_hist: Vec<i64>,
    col_hist: Vec<i64>,
    row_profile: Vec<i64>,
    col_profile: Vec<i64>,
    /// Qubits whose profiles are stale.
    stale: Vec<bool>,
}

impl Refiner {
    fn new(graph: &WeightedGraph, rows: usize, cols: usize) -> Self {
        let n = graph.len();
        let mut weight = vec![0i64; n * n];
        for q in 0..n {
            for &(u, w) in graph.neighbors(q) {
                weight[q * n + u] = clamp(w);
            }
        }
        Refiner {
            rows,
            cols,
            weight,
            occupant: vec![None; rows * cols],
            row_hist: vec![0; rows],
            col_hist: vec![0; cols],
            row_profile: vec![0; n * rows],
            col_profile: vec![0; n * cols],
            stale: vec![true; n],
        }
    }

    fn run(&mut self, graph: &WeightedGraph, slot_of: &mut [usize], forbidden: &[bool]) {
        let (n, rows, cols) = (graph.len(), self.rows, self.cols);
        self.occupant.fill(None);
        for (q, &s) in slot_of.iter().enumerate() {
            self.occupant[s] = Some(q);
        }
        self.stale.fill(true);

        for _round in 0..4 * n.max(1) {
            for q in 0..n {
                if !std::mem::take(&mut self.stale[q]) {
                    continue;
                }
                self.row_hist.fill(0);
                self.col_hist.fill(0);
                for &(u, w) in graph.neighbors(q) {
                    let s = slot_of[u];
                    self.row_hist[s / cols] += clamp(w);
                    self.col_hist[s % cols] += clamp(w);
                }
                fill_profile(&self.row_hist, &mut self.row_profile[q * rows..(q + 1) * rows]);
                fill_profile(&self.col_hist, &mut self.col_profile[q * cols..(q + 1) * cols]);
            }
            let attraction = |q: usize, slot: usize| -> i64 {
                self.row_profile[q * rows + slot / cols] + self.col_profile[q * cols + slot % cols]
            };
            let mut best: Option<(usize, Option<usize>, usize, i64)> = None; // (q, partner, target_slot, delta)
            for (q, &from) in slot_of.iter().enumerate() {
                let a_from = attraction(q, from);
                for (target, &occ) in self.occupant.iter().enumerate() {
                    if target == from || forbidden[target] {
                        continue;
                    }
                    match occ {
                        None => {
                            let d = attraction(q, target) - a_from;
                            if best.is_none_or(|(_, _, _, bd)| d < bd) {
                                best = Some((q, None, target, d));
                            }
                        }
                        Some(p) => {
                            if p <= q {
                                continue; // each unordered pair once
                            }
                            // The q–p edge length is unchanged by a swap;
                            // the profiles counted its endpoints moving
                            // apart and together, so restore
                            // 2·γ_qp·d(from, target).
                            let d = (attraction(q, target) - a_from)
                                + (attraction(p, from) - attraction(p, target))
                                + 2 * self.weight[q * n + p] * manhattan(cols, from, target) as i64;
                            if best.is_none_or(|(_, _, _, bd)| d < bd) {
                                best = Some((q, Some(p), target, d));
                            }
                        }
                    }
                }
            }
            let Some((q, partner, target, d)) = best else { break };
            if d >= 0 {
                break;
            }
            let from = slot_of[q];
            slot_of[q] = target;
            self.occupant[target] = Some(q);
            self.occupant[from] = partner;
            if let Some(p) = partner {
                slot_of[p] = from;
            }
            for moved in std::iter::once(q).chain(partner) {
                for &(u, _) in graph.neighbors(moved) {
                    self.stale[u] = true;
                }
            }
        }
    }
}

/// `A(x) = Σ_u w_u·|x − x_u|` for every coordinate `x`, from the
/// neighbors' weighted coordinate histogram in two sweeps.
fn fill_profile(hist: &[i64], out: &mut [i64]) {
    let (mut below, mut acc) = (0i64, 0i64);
    for (x, o) in out.iter_mut().enumerate() {
        acc += below;
        *o = acc;
        below += hist[x];
    }
    let (mut above, mut acc) = (0i64, 0i64);
    for (x, o) in out.iter_mut().enumerate().rev() {
        acc += above;
        *o += acc;
        above += hist[x];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_injective_and_in_range() {
        let g = WeightedGraph::from_edges(7, (0..6).map(|i| (i, i + 1, 1)));
        let p = place(&g, 3, 3, 3, 11, true, &[false; 9]);
        let mut seen = std::collections::HashSet::new();
        for &s in p.slot_of() {
            assert!(s < 9);
            assert!(seen.insert(s), "slot reused");
        }
    }

    #[test]
    fn ring_on_grid_is_near_optimal() {
        // An 8-ring on a 3×3 array can be laid out with every edge adjacent
        // (cost 8). Allow a small slack for the heuristic.
        let g = WeightedGraph::from_edges(8, (0..8).map(|i| (i, (i + 1) % 8, 1)));
        let p = place(&g, 3, 3, 8, 5, true, &[false; 9]);
        assert!(p.cost() <= 10, "ring cost {} too high", p.cost());
    }

    #[test]
    fn heavy_pair_lands_adjacent() {
        let g = WeightedGraph::from_edges(5, [(0, 1, 100), (2, 3, 1), (3, 4, 1)]);
        let p = place(&g, 3, 3, 4, 3, true, &[false; 9]);
        assert_eq!(manhattan(3, p.slot_of()[0], p.slot_of()[1]), 1);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let g = WeightedGraph::from_edges(
            9,
            (0..9).flat_map(|a| ((a + 1)..9).map(move |b| (a, b, ((a * b) % 5 + 1) as u64))),
        );
        let one = place(&g, 3, 3, 1, 17, true, &[false; 9]);
        let many = place(&g, 3, 3, 12, 17, true, &[false; 9]);
        assert!(many.cost() <= one.cost());
    }

    #[test]
    fn cost_matches_direct_computation() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 2), (1, 2, 3), (0, 3, 1)]);
        let p = place(&g, 2, 2, 2, 1, true, &[false; 4]);
        assert_eq!(p.cost(), total_cost(&g, 2, p.slot_of()));
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn rejects_overfull_array() {
        let g = WeightedGraph::from_edges(5, []);
        let _ = place(&g, 2, 2, 1, 0, true, &[false; 4]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = WeightedGraph::from_edges(6, (0..5).map(|i| (i, i + 1, 1)));
        assert_eq!(
            place(&g, 3, 2, 3, 9, true, &[false; 6]),
            place(&g, 3, 2, 3, 9, true, &[false; 6])
        );
    }

    #[test]
    fn forbidden_slots_are_never_assigned() {
        let g = WeightedGraph::from_edges(
            10,
            (0..10).flat_map(|a| ((a + 1)..10).map(move |b| (a, b, ((a + b) % 4 + 1) as u64))),
        );
        let mut forbidden = vec![false; 16];
        for dead in [0, 5, 6, 10, 15] {
            forbidden[dead] = true;
        }
        for seed in 0..8u64 {
            let p = place(&g, 4, 4, 4, seed, true, &forbidden);
            let mut seen = std::collections::HashSet::new();
            for &s in p.slot_of() {
                assert!(!forbidden[s], "seed {seed}: qubit placed on dead slot {s}");
                assert!(seen.insert(s), "seed {seed}: slot {s} reused");
            }
        }
    }

    /// A seeded random weighted graph with zero-weight edges and many
    /// repeated weights.
    pub(crate) fn random_graph(seed: u64, n: usize, density: f64) -> WeightedGraph {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.gen_bool(density) {
                    edges.push((a, b, rng.gen_range(0..4u64)));
                }
            }
        }
        WeightedGraph::from_edges(n, edges)
    }

    /// Defect-masked placements on seeded random graphs, fingerprinted
    /// (FNV-1a over every slot and the cost) on the subgraph-building KL
    /// with the exhaustive pair scan. The view-based KL must reproduce
    /// them exactly, with and without refinement.
    #[test]
    fn masked_placements_match_the_reference_results() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut write = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        };
        for (case, &(n, rows, cols, density)) in
            [(9, 3, 4, 0.5), (14, 4, 5, 0.3), (20, 5, 5, 0.2), (31, 6, 7, 0.15), (40, 7, 7, 0.6)]
                .iter()
                .enumerate()
        {
            let g = random_graph(case as u64, n, density);
            let mut mask_rng = SmallRng::seed_from_u64(100 + case as u64);
            let mut forbidden = vec![false; rows * cols];
            // Kill about a third of the spare slots.
            let mut dead = 0;
            while dead < (rows * cols - n).div_ceil(3) {
                let s = rand::Rng::gen_range(&mut mask_rng, 0..rows * cols);
                if !forbidden[s] {
                    forbidden[s] = true;
                    dead += 1;
                }
            }
            for refine_pass in [false, true] {
                let p = place(&g, rows, cols, 4, case as u64, refine_pass, &forbidden);
                for &s in p.slot_of() {
                    write(s as u64);
                }
                write(p.cost());
            }
        }
        assert_eq!(h, 10_623_006_945_943_559_861);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn rejects_overfull_live_capacity() {
        // 4 slots, 1 dead: 4 qubits no longer fit.
        let g = WeightedGraph::from_edges(4, []);
        let _ = place(&g, 2, 2, 1, 0, true, &[true, false, false, false]);
    }
}
