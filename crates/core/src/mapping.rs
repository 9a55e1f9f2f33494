//! Initial tile-location mapping (§IV-B1).
//!
//! Two steps, mirroring the paper's Fig. 10:
//!
//! 1. **Shape determining** — pick the minimum-perimeter sub-array of tile
//!    slots that can host all logical qubits.
//! 2. **Mapping establishing** — place qubits in the sub-array minimizing
//!    the communication cost `f = Σ γ_ij · l_ij` (recursive-bisection
//!    placement, multi-start, best-of).
//!
//! The paper's third step, bandwidth adjusting (Fig. 10c), is not
//! implemented: measured on every Table I compile it never changed a
//! schedule (DESIGN.md, "Bandwidth adjusting is not implemented").

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
