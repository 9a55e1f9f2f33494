//! Initial tile-location mapping (§IV-B1) and bandwidth adjusting.
//!
//! Three steps, mirroring the paper's Fig. 10:
//!
//! 1. **Shape determining** — pick the minimum-perimeter sub-array of tile
//!    slots that can host all logical qubits.
//! 2. **Mapping establishing** — place qubits in the sub-array minimizing
//!    the communication cost `f = Σ γ_ij · l_ij` (recursive-bisection
//!    placement, multi-start, best-of).
//! 3. **Bandwidth adjusting** — pre-route every gate on the unloaded chip,
//!    count per-channel crossings, and redistribute any channel-lane slack
//!    toward the hottest channels.

use ecmas_chip::Chip;
use ecmas_circuit::CommGraph;
use ecmas_partition::{place, WeightedGraph};

use crate::error::CompileError;

/// How to produce the initial qubit → tile mapping (Table II ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LocationStrategy {
    /// The full Ecmas pipeline: shape determining, multi-start placement,
    /// swap refinement, select best by cost.
    Ecmas {
        /// Number of randomized placements to generate.
        restarts: usize,
        /// RNG seed.
        seed: u64,
    },
    /// A bare recursive-bisection mapping over the whole chip array: one
    /// run, no shape determining, no refinement (the paper's "Metis"
    /// baseline).
    Partitioner {
        /// RNG seed.
        seed: u64,
    },
    /// The twisting/snake layout over the whole chip array (EDPCI's
    /// trivial mapping): row 0 left-to-right, row 1 right-to-left, ….
    Trivial,
}

/// Shape-search ranking key: lexicographic (primary, secondary, tiebreak).
type ShapeKey = (usize, usize, usize);

/// Picks the minimum-perimeter `a × b` sub-array with `a·b ≥ n` that fits
/// the chip (ties: smaller area, then fewer rows), and returns it with its
/// centered offset — the paper's *shape determining* step.
///
/// The region must hold `n` *live* slots: on a chip with defective tiles
/// each candidate shape may grow its width past `⌈n/a⌉` and slide off
/// center to clear the defects (the offset nearest the centered one
/// wins). On a defect-free chip the first width `⌈n/a⌉` and the centered
/// offset always qualify, so this is the paper's exact search.
///
/// # Errors
///
/// Returns [`CompileError::TooManyQubits`] if even the full array is too
/// small.
pub fn determine_shape(chip: &Chip, n: usize) -> Result<SubArray, CompileError> {
    let (rows, cols) = (chip.tile_rows(), chip.tile_cols());
    if n > chip.live_tiles() {
        return Err(CompileError::TooManyQubits { qubits: n, slots: chip.live_tiles() });
    }
    // For each height `a`, the narrowest width `b` for which *some*
    // placement of the window contains `n` live slots; among window
    // positions the one closest to the centered offset wins (then
    // top-most, then left-most), so a mask with conveniently-placed
    // defects still yields a near-centered region.
    let live_at = |r0: usize, c0: usize, a: usize, b: usize| -> usize {
        (r0..r0 + a).map(|r| (c0..c0 + b).filter(|&c| !chip.is_dead(r * cols + c)).count()).sum()
    };
    let mut best: Option<(ShapeKey, SubArray)> = None;
    for a in 1..=rows {
        for b in n.div_ceil(a)..=cols {
            let centered = ((rows - a) / 2, (cols - b) / 2);
            let mut chosen: Option<(ShapeKey, (usize, usize))> = None;
            for ro in 0..=(rows - a) {
                for co in 0..=(cols - b) {
                    if live_at(ro, co, a, b) < n {
                        continue;
                    }
                    let key = (ro.abs_diff(centered.0) + co.abs_diff(centered.1), ro, co);
                    if chosen.is_none_or(|(k, _)| key < k) {
                        chosen = Some((key, (ro, co)));
                    }
                }
            }
            if let Some((_, (ro, co))) = chosen {
                let key = (2 * (a + b), a * b, a);
                if best.as_ref().is_none_or(|&(k, _)| key < k) {
                    best =
                        Some((key, SubArray { rows: a, cols: b, row_offset: ro, col_offset: co }));
                }
                break; // wider windows for this height only cost perimeter
            }
        }
    }
    // The full array qualifies (live_tiles >= n), so a region always exists.
    best.map(|(_, region)| region)
        .ok_or(CompileError::TooManyQubits { qubits: n, slots: chip.live_tiles() })
}

/// A rectangular region of tile slots within the chip array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubArray {
    /// Region height in tiles.
    pub rows: usize,
    /// Region width in tiles.
    pub cols: usize,
    /// Top row of the region within the chip array.
    pub row_offset: usize,
    /// Left column of the region within the chip array.
    pub col_offset: usize,
}

impl SubArray {
    /// Converts a region-local slot to a chip slot index.
    #[must_use]
    pub fn to_chip_slot(&self, local: usize, chip: &Chip) -> usize {
        let (r, c) = (local / self.cols, local % self.cols);
        (r + self.row_offset) * chip.tile_cols() + (c + self.col_offset)
    }
}

/// Computes the qubit → chip-tile-slot mapping under `strategy`.
///
/// # Errors
///
/// Returns [`CompileError::TooManyQubits`] if the circuit does not fit.
pub fn initial_mapping(
    comm: &CommGraph,
    chip: &Chip,
    strategy: LocationStrategy,
) -> Result<Vec<usize>, CompileError> {
    let n = comm.qubits();
    let (rows, cols) = (chip.tile_rows(), chip.tile_cols());
    if n > chip.live_tiles() {
        return Err(CompileError::TooManyQubits { qubits: n, slots: chip.live_tiles() });
    }
    let graph =
        WeightedGraph::from_edges(n, comm.edges().iter().map(|e| (e.a, e.b, u64::from(e.weight))));
    let mapping = match strategy {
        LocationStrategy::Ecmas { restarts, seed } => {
            let region = determine_shape(chip, n)?;
            // Region-local defect mask (all-false on a defect-free chip).
            let forbidden: Vec<bool> = (0..region.rows * region.cols)
                .map(|local| chip.is_dead(region.to_chip_slot(local, chip)))
                .collect();
            let placement =
                place(&graph, region.rows, region.cols, restarts, seed, true, &forbidden);
            placement.slot_of().iter().map(|&local| region.to_chip_slot(local, chip)).collect()
        }
        LocationStrategy::Partitioner { seed } => {
            let forbidden: Vec<bool> = (0..rows * cols).map(|s| chip.is_dead(s)).collect();
            let placement = place(&graph, rows, cols, 1, seed, false, &forbidden);
            placement.slot_of().to_vec()
        }
        LocationStrategy::Trivial => snake_mapping(n, chip),
    };
    Ok(mapping)
}

/// The twisting layout of the paper's Table II / EDPCI: qubits fill row 0
/// left-to-right, row 1 right-to-left, and so on, skipping dead slots, so
/// consecutive qubits stay as adjacent as the defects allow.
///
/// # Panics
///
/// Panics if `n` exceeds the chip's live-tile count.
#[must_use]
pub fn snake_mapping(n: usize, chip: &Chip) -> Vec<usize> {
    assert!(n <= chip.live_tiles(), "snake mapping does not fit the live tiles");
    let (rows, cols) = (chip.tile_rows(), chip.tile_cols());
    (0..rows * cols)
        .map(|q| {
            let r = q / cols;
            let c = q % cols;
            let c = if r.is_multiple_of(2) { c } else { cols - 1 - c };
            r * cols + c
        })
        .filter(|&slot| !chip.is_dead(slot))
        .take(n)
        .collect()
}

/// The *bandwidth adjusting* step (§IV-B1, Fig. 10c): pre-routes every
/// communication-graph edge as an L-path between its mapped tiles, counts
/// how often each channel is crossed, and redistributes the chip's spare
/// lanes (anything above bandwidth 1 per channel) to the most-crossed
/// channels, holding the per-dimension lane totals constant.
///
/// On a minimum-viable chip every channel already sits at the bandwidth-1
/// floor, so the chip is returned unchanged — matching the paper, where
/// adjusting only pays off once the chip has slack.
#[must_use]
pub fn adjust_bandwidth(chip: &Chip, mapping: &[usize], comm: &CommGraph) -> Chip {
    let cols = chip.tile_cols();
    let h_channels = chip.tile_rows() + 1;
    let v_channels = cols + 1;
    let mut h_usage = vec![0u64; h_channels];
    let mut v_usage = vec![0u64; v_channels];
    for e in comm.edges() {
        let (sa, sb) = (mapping[e.a], mapping[e.b]);
        let (ra, ca) = (sa / cols, sa % cols);
        let (rb, cb) = (sb / cols, sb % cols);
        let w = u64::from(e.weight);
        // An L-path from tile (ra,ca) to (rb,cb) *crosses* the channels
        // strictly between the rows/columns (weight 2) and *runs along*
        // the channels bordering its endpoints (weight 1) — the latter
        // keeps boundary channels from being starved of detour lanes.
        for usage in &mut h_usage[ra.min(rb) + 1..=ra.max(rb)] {
            *usage += 2 * w;
        }
        for usage in &mut v_usage[ca.min(cb) + 1..=ca.max(cb)] {
            *usage += 2 * w;
        }
        for r in [ra, rb] {
            h_usage[r] += w;
            h_usage[r + 1] += w;
        }
        for c in [ca, cb] {
            v_usage[c] += w;
            v_usage[c + 1] += w;
        }
    }

    let mut adjusted = chip.clone();
    redistribute(&mut adjusted, true, &h_usage);
    redistribute(&mut adjusted, false, &v_usage);
    adjusted
}

/// Moves one dimension's lanes from cold channels to hot ones — but only
/// under strong imbalance (3× usage-per-lane), so near-uniform traffic
/// keeps the uniform allocation. Stealing a lane from a lightly-used
/// channel is not free: node-disjoint detours need it, so the threshold
/// errs conservative.
fn redistribute(chip: &mut Chip, horizontal: bool, usage: &[u64]) {
    let mut lanes: Vec<u32> =
        if horizontal { chip.h_bandwidths().to_vec() } else { chip.v_bandwidths().to_vec() };
    let channels = lanes.len();
    if channels < 2 || usage.iter().all(|&u| u == 0) {
        return;
    }
    let total: u32 = lanes.iter().sum();
    for _ in 0..total {
        // Usage per lane, scaled to integers to avoid float compare.
        let ratio = |i: usize, lanes: &[u32]| -> u64 { usage[i] * 1000 / u64::from(lanes[i]) };
        // Disabled (0-lane) channels are physically broken: they can
        // neither receive lanes nor enter the ratio (division by zero).
        let recipient = (0..channels)
            .filter(|&i| lanes[i] > 0)
            .max_by_key(|&i| ratio(i, &lanes))
            .expect("at least one channel per orientation stays open");
        let donor = (0..channels)
            .filter(|&i| lanes[i] > 1 && i != recipient)
            .min_by_key(|&i| ratio(i, &lanes));
        let Some(donor) = donor else { break };
        if ratio(recipient, &lanes) > 3 * ratio(donor, &lanes).max(1) {
            lanes[donor] -= 1;
            lanes[recipient] += 1;
        } else {
            break;
        }
    }
    for (i, &b) in lanes.iter().enumerate() {
        if horizontal {
            chip.set_h_bandwidth(i, b).expect("index in range");
        } else {
            chip.set_v_bandwidth(i, b).expect("index in range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::CodeModel;
    use ecmas_circuit::Circuit;

    fn chip(rows: usize, cols: usize, b: u32) -> Chip {
        Chip::uniform(CodeModel::DoubleDefect, rows, cols, b, 3).unwrap()
    }

    #[test]
    fn shape_prefers_min_perimeter() {
        // 8 qubits on a 4×4 chip: candidates 2×4 (perimeter 12) and 3×3
        // (12, area 9) and 4×2 (12): tie broken by smaller area ⇒ 2×4.
        let region = determine_shape(&chip(4, 4, 1), 8).unwrap();
        assert_eq!((region.rows, region.cols), (2, 4));
        // 9 qubits: 3×3 (perimeter 12) beats 2×5 (impossible, cols=4) and
        // 3×4 (14).
        let region = determine_shape(&chip(4, 4, 1), 9).unwrap();
        assert_eq!((region.rows, region.cols), (3, 3));
    }

    #[test]
    fn shape_is_centered() {
        let region = determine_shape(&chip(5, 5, 1), 9).unwrap();
        assert_eq!((region.rows, region.cols), (3, 3));
        assert_eq!((region.row_offset, region.col_offset), (1, 1));
    }

    #[test]
    fn shape_rejects_overflow() {
        assert!(matches!(
            determine_shape(&chip(2, 2, 1), 5),
            Err(CompileError::TooManyQubits { qubits: 5, slots: 4 })
        ));
    }

    #[test]
    fn snake_keeps_consecutive_adjacent() {
        let m = snake_mapping(9, &chip(3, 3, 1));
        assert_eq!(m, vec![0, 1, 2, 5, 4, 3, 6, 7, 8]);
        for w in m.windows(2) {
            let (r0, c0) = (w[0] / 3, w[0] % 3);
            let (r1, c1) = (w[1] / 3, w[1] % 3);
            assert_eq!(r0.abs_diff(r1) + c0.abs_diff(c1), 1, "snake neighbors adjacent");
        }
    }

    #[test]
    fn mappings_are_injective() {
        let c = ecmas_circuit::benchmarks::qft_n10();
        let comm = c.comm_graph();
        let chip = chip(4, 4, 1);
        for strategy in [
            LocationStrategy::Ecmas { restarts: 4, seed: 1 },
            LocationStrategy::Partitioner { seed: 1 },
            LocationStrategy::Trivial,
        ] {
            let m = initial_mapping(&comm, &chip, strategy).unwrap();
            let set: std::collections::HashSet<_> = m.iter().collect();
            assert_eq!(set.len(), m.len(), "{strategy:?} reuses a slot");
            assert!(m.iter().all(|&s| s < 16));
        }
    }

    #[test]
    fn ecmas_mapping_beats_trivial_on_star() {
        // A hub talking to everyone: placement should center it, snake
        // cannot.
        let mut c = Circuit::new(9);
        for q in 1..9 {
            c.cnot(0, q);
            c.cnot(0, q);
        }
        let comm = c.comm_graph();
        let chip = chip(3, 3, 1);
        let cost = |m: &[usize]| -> u64 {
            comm.edges()
                .iter()
                .map(|e| u64::from(e.weight) * chip.tile_distance(m[e.a], m[e.b]) as u64)
                .sum()
        };
        let ecmas = initial_mapping(&comm, &chip, LocationStrategy::Ecmas { restarts: 4, seed: 2 })
            .unwrap();
        let trivial = initial_mapping(&comm, &chip, LocationStrategy::Trivial).unwrap();
        assert!(cost(&ecmas) < cost(&trivial), "{} !< {}", cost(&ecmas), cost(&trivial));
    }

    #[test]
    fn adjust_keeps_minimum_viable_unchanged() {
        let c = ecmas_circuit::benchmarks::qft_n10();
        let comm = c.comm_graph();
        let base = chip(4, 4, 1);
        let mapping = initial_mapping(&comm, &base, LocationStrategy::Trivial).unwrap();
        assert_eq!(adjust_bandwidth(&base, &mapping, &comm), base);
    }

    #[test]
    fn adjust_preserves_lane_totals() {
        let c = ecmas_circuit::benchmarks::qft_n10();
        let comm = c.comm_graph();
        let base = chip(4, 4, 2);
        let mapping = initial_mapping(&comm, &base, LocationStrategy::Trivial).unwrap();
        let adjusted = adjust_bandwidth(&base, &mapping, &comm);
        let sum = |v: &[u32]| v.iter().sum::<u32>();
        assert_eq!(sum(adjusted.h_bandwidths()), sum(base.h_bandwidths()));
        assert_eq!(sum(adjusted.v_bandwidths()), sum(base.v_bandwidths()));
        assert!(adjusted.h_bandwidths().iter().all(|&b| b >= 1));
        assert!(adjusted.v_bandwidths().iter().all(|&b| b >= 1));
    }

    #[test]
    fn adjust_feeds_the_hot_channel() {
        // All traffic crosses the single middle vertical channel of a 1×2
        // array: with slack, that channel should gain lanes.
        let mut c = Circuit::new(2);
        for _ in 0..10 {
            c.cnot(0, 1);
        }
        let comm = c.comm_graph();
        let base = chip(1, 2, 2);
        let mapping = vec![0, 1];
        let adjusted = adjust_bandwidth(&base, &mapping, &comm);
        assert!(
            adjusted.v_bandwidth(1) > base.v_bandwidth(1),
            "middle channel should widen, got {:?}",
            adjusted.v_bandwidths()
        );
    }
}

#[cfg(test)]
mod shape_edge_cases {
    use super::*;
    use ecmas_chip::CodeModel;

    #[test]
    fn single_qubit_shape() {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 3, 3, 1, 3).unwrap();
        let region = determine_shape(&chip, 1).unwrap();
        assert_eq!((region.rows, region.cols), (1, 1));
    }

    #[test]
    fn full_chip_shape() {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 3, 4, 1, 3).unwrap();
        let region = determine_shape(&chip, 12).unwrap();
        assert_eq!((region.rows, region.cols), (3, 4));
        assert_eq!((region.row_offset, region.col_offset), (0, 0));
    }

    #[test]
    fn wide_chip_prefers_square_region() {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 8, 1, 3).unwrap();
        let region = determine_shape(&chip, 4).unwrap();
        assert_eq!((region.rows, region.cols), (2, 2));
    }

    #[test]
    fn to_chip_slot_round_trips() {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 4, 4, 1, 3).unwrap();
        let region = determine_shape(&chip, 4).unwrap();
        let slots: Vec<usize> = (0..4).map(|local| region.to_chip_slot(local, &chip)).collect();
        let unique: std::collections::HashSet<_> = slots.iter().collect();
        assert_eq!(unique.len(), 4);
        assert!(slots.iter().all(|&s| s < 16));
    }

    #[test]
    fn snake_full_coverage_is_permutation() {
        let m = snake_mapping(12, &Chip::uniform(CodeModel::DoubleDefect, 3, 4, 1, 3).unwrap());
        let mut sorted = m.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }
}

/// The closed-form defect-free searches the general ones must reproduce.
#[cfg(test)]
mod defect_free_reference {
    use super::*;
    use ecmas_chip::CodeModel;

    /// The paper's exact shape search on a defect-free `rows × cols` array.
    fn reference_shape(rows: usize, cols: usize, n: usize) -> SubArray {
        let mut best: Option<(usize, usize, usize)> = None; // (perimeter, area, rows)
        let mut shape = (rows, cols);
        for a in 1..=rows {
            let b = n.div_ceil(a);
            if b > cols {
                continue;
            }
            let key = (2 * (a + b), a * b, a);
            if best.is_none_or(|k| key < k) {
                best = Some(key);
                shape = (a, b);
            }
        }
        let (a, b) = shape;
        SubArray { rows: a, cols: b, row_offset: (rows - a) / 2, col_offset: (cols - b) / 2 }
    }

    /// The snake formula on a defect-free `rows × cols` array.
    fn reference_snake(n: usize, cols: usize) -> Vec<usize> {
        (0..n)
            .map(|q| {
                let (r, c) = (q / cols, q % cols);
                r * cols + if r.is_multiple_of(2) { c } else { cols - 1 - c }
            })
            .collect()
    }

    #[test]
    fn defect_free_shapes_match_the_closed_form_search() {
        for rows in 1..=12 {
            for cols in 1..=12 {
                let chip = Chip::uniform(CodeModel::LatticeSurgery, rows, cols, 1, 3).unwrap();
                for n in 0..=rows * cols {
                    assert_eq!(
                        determine_shape(&chip, n).unwrap(),
                        reference_shape(rows, cols, n),
                        "{rows}×{cols}, n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn defect_free_snake_matches_the_formula() {
        for (rows, cols) in [(1, 1), (1, 7), (3, 3), (3, 4), (5, 2), (6, 9)] {
            let chip = Chip::uniform(CodeModel::DoubleDefect, rows, cols, 1, 3).unwrap();
            for n in 0..=rows * cols {
                assert_eq!(
                    snake_mapping(n, &chip),
                    reference_snake(n, cols),
                    "{rows}×{cols}, n={n}"
                );
            }
        }
    }
}
