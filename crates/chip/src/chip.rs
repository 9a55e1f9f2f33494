use crate::error::ChipError;
use crate::grid::RoutingGrid;

/// The surface-code flavour a chip is operated under (paper §II-B).
///
/// The two models share the tile-array abstraction but differ in CNOT
/// implementation: double defect braids paths through channels (1 clock
/// cycle between opposite cut types, 3 between equal ones), lattice surgery
/// builds Bell states along ancilla-tile paths (always 1 clock cycle).
/// Paths within a cycle must be node-disjoint for braiding and
/// edge-disjoint for lattice surgery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodeModel {
    /// Double-defect encoding [Fowler et al. 2012]: 5d×5d tiles, braiding
    /// lanes 2.5d wide.
    DoubleDefect,
    /// Lattice-surgery encoding [Horsman et al. 2012]: ⌈√2·d⌉-wide rotated
    /// tiles; channels are rows of ancilla tiles.
    LatticeSurgery,
}

impl CodeModel {
    /// Display name used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CodeModel::DoubleDefect => "double defect",
            CodeModel::LatticeSurgery => "lattice surgery",
        }
    }
}

/// A surface-code chip: an `R × C` array of logical tile slots separated
/// and bordered by channels with per-channel integer bandwidth, plus a
/// capability description of what actually works on the physical device.
///
/// There are `R + 1` horizontal channels (running between/outside tile
/// rows) and `C + 1` vertical channels. Channel bandwidths are the number
/// of parallel CNOT paths the channel can carry side by side; the *chip
/// bandwidth* is the minimum over all **open** channels (paper §III-A).
///
/// Two capability dimensions extend the paper's uniform lattice:
///
/// * **Defective tiles** — a defect mask marks tile slots that must never
///   host a logical qubit or carry a path ([`add_defect`],
///   [`is_dead`], [`live_tiles`]). A chip with an all-false mask is
///   indistinguishable (`==`, routing, scheduling, cache keys) from the
///   equivalent uniform chip.
/// * **Disabled channels** — bandwidth 0 marks a channel as disabled: it
///   contributes no routing lanes and is excluded from [`bandwidth`].
///   Disabling the last open channel of an orientation is rejected.
///
/// [`add_defect`]: Self::add_defect
/// [`is_dead`]: Self::is_dead
/// [`live_tiles`]: Self::live_tiles
/// [`bandwidth`]: Self::bandwidth
///
/// # Example
///
/// ```
/// use ecmas_chip::{Chip, CodeModel};
///
/// let mut chip = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)?;
/// assert_eq!(chip.bandwidth(), 1);
/// chip.set_v_bandwidth(1, 3)?; // widen one busy vertical channel
/// assert_eq!(chip.v_bandwidth(1), 3);
/// assert_eq!(chip.bandwidth(), 1); // chip bandwidth is still the min
/// # Ok::<(), ecmas_chip::ChipError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chip {
    model: CodeModel,
    tile_rows: usize,
    tile_cols: usize,
    h_bandwidth: Vec<u32>,
    v_bandwidth: Vec<u32>,
    code_distance: u32,
    /// Defect mask, one flag per tile slot (`true` = dead). All-false for
    /// every chip built by the uniform constructors, so `PartialEq` keeps
    /// treating a masked-but-defect-free chip as the uniform chip.
    defects: Vec<bool>,
}

impl Chip {
    /// Creates a chip with `rows × cols` tile slots and the same
    /// `bandwidth` on every channel.
    ///
    /// # Errors
    ///
    /// Returns an error if the tile array is empty or `d == 0`.
    pub fn uniform(
        model: CodeModel,
        rows: usize,
        cols: usize,
        bandwidth: u32,
        code_distance: u32,
    ) -> Result<Self, ChipError> {
        if rows == 0 || cols == 0 {
            return Err(ChipError::EmptyTileArray);
        }
        if code_distance == 0 {
            return Err(ChipError::ZeroCodeDistance);
        }
        if bandwidth == 0 {
            return Err(ChipError::AllChannelsDisabled { horizontal: true });
        }
        Ok(Chip {
            model,
            tile_rows: rows,
            tile_cols: cols,
            h_bandwidth: vec![bandwidth; rows + 1],
            v_bandwidth: vec![bandwidth; cols + 1],
            code_distance,
            defects: vec![false; rows * cols],
        })
    }

    /// The paper's *minimum viable* configuration for an `n`-qubit circuit:
    /// a `⌈√n⌉ × ⌈√n⌉` tile array with bandwidth 1 everywhere — the
    /// smallest square chip that can host every qubit and still route.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `d == 0`.
    pub fn min_viable(model: CodeModel, n: usize, code_distance: u32) -> Result<Self, ChipError> {
        if n == 0 {
            return Err(ChipError::EmptyTileArray);
        }
        let side = int_sqrt_ceil(n);
        Chip::uniform(model, side, side, 1, code_distance)
    }

    /// The paper's *4x resources* configuration: same tile array as
    /// [`min_viable`](Self::min_viable) with every channel doubled to
    /// bandwidth 2 (≈4× the physical qubits at the evaluated sizes).
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `d == 0`.
    pub fn four_x(model: CodeModel, n: usize, code_distance: u32) -> Result<Self, ChipError> {
        if n == 0 {
            return Err(ChipError::EmptyTileArray);
        }
        let side = int_sqrt_ceil(n);
        Chip::uniform(model, side, side, 2, code_distance)
    }

    /// A deliberately *congested* limited-resources configuration: the
    /// tile array is twice the minimum-viable side (`2·⌈√n⌉` per side)
    /// while every channel stays at the bandwidth-1 floor. Spreading
    /// mappings (like the trivial snake) put communicating qubits far
    /// apart, long paths fight over single-lane channels, and routing
    /// pressure — not tile scarcity — dominates. This is the chip the
    /// Table II / Table IV ablations need to discriminate: on
    /// [`min_viable`](Self::min_viable) chips every ablation circuit
    /// schedules at the depth bound and the knobs measure nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `d == 0`.
    pub fn congested(model: CodeModel, n: usize, code_distance: u32) -> Result<Self, ChipError> {
        if n == 0 {
            return Err(ChipError::EmptyTileArray);
        }
        let side = 2 * int_sqrt_ceil(n);
        Chip::uniform(model, side, side, 1, code_distance)
    }

    /// The *sufficient resources* configuration used by Ecmas-ReSu: the
    /// smallest uniform bandwidth whose Chip Communication Capacity
    /// `⌊(b−1)/2⌋ + 3` (Theorem 2) reaches the circuit's parallelism
    /// degree `gpm`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `d == 0`.
    pub fn sufficient(
        model: CodeModel,
        n: usize,
        gpm: usize,
        code_distance: u32,
    ) -> Result<Self, ChipError> {
        if n == 0 {
            return Err(ChipError::EmptyTileArray);
        }
        let side = int_sqrt_ceil(n);
        let bandwidth = Self::bandwidth_for_capacity(gpm);
        Chip::uniform(model, side, side, bandwidth, code_distance)
    }

    /// The smallest bandwidth `b` with `⌊(b−1)/2⌋ + 3 ≥ capacity`
    /// (inverse of Theorem 2; 1 when three parallel gates suffice).
    #[must_use]
    pub fn bandwidth_for_capacity(capacity: usize) -> u32 {
        if capacity <= 3 {
            1
        } else {
            u32::try_from(2 * (capacity - 3) + 1).unwrap_or(u32::MAX)
        }
    }

    /// The encoding model.
    #[must_use]
    #[inline]
    pub fn model(&self) -> CodeModel {
        self.model
    }

    /// Tile-array rows `R`.
    #[must_use]
    #[inline]
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Tile-array columns `C`.
    #[must_use]
    #[inline]
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// Number of tile slots `R·C`, dead or alive.
    #[must_use]
    #[inline]
    pub fn tile_slots(&self) -> usize {
        self.tile_rows * self.tile_cols
    }

    /// Marks the tile at `(row, col)` as defective: it can never host a
    /// logical qubit and no CNOT path may pass through it.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::DefectOutOfRange`] if the coordinate falls
    /// outside the tile array.
    pub fn add_defect(&mut self, row: usize, col: usize) -> Result<(), ChipError> {
        self.set_defect(row, col, true)
    }

    /// Clears a defect flag set by [`add_defect`](Self::add_defect).
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::DefectOutOfRange`] if the coordinate falls
    /// outside the tile array.
    pub fn clear_defect(&mut self, row: usize, col: usize) -> Result<(), ChipError> {
        self.set_defect(row, col, false)
    }

    fn set_defect(&mut self, row: usize, col: usize, dead: bool) -> Result<(), ChipError> {
        if row >= self.tile_rows || col >= self.tile_cols {
            return Err(ChipError::DefectOutOfRange {
                row,
                col,
                rows: self.tile_rows,
                cols: self.tile_cols,
            });
        }
        self.defects[row * self.tile_cols + col] = dead;
        Ok(())
    }

    /// Builder form of [`add_defect`](Self::add_defect): marks every
    /// listed `(row, col)` as defective and returns the chip.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::DefectOutOfRange`] on the first coordinate
    /// outside the tile array.
    pub fn with_defects(mut self, defects: &[(usize, usize)]) -> Result<Self, ChipError> {
        for &(row, col) in defects {
            self.add_defect(row, col)?;
        }
        Ok(self)
    }

    /// Marks `count` distinct live tiles as defective, chosen by a
    /// deterministic seeded shuffle (a platform-stable splitmix64 stream,
    /// so the same `(chip, count, seed)` always yields the same mask).
    /// Marks every tile if `count` exceeds the live-tile count.
    pub fn seed_defects(&mut self, count: usize, seed: u64) {
        let mut live: Vec<usize> = (0..self.tile_slots()).filter(|&s| !self.defects[s]).collect();
        let count = count.min(live.len());
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for i in 0..count {
            // Partial Fisher-Yates driven by splitmix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let j = i + (z % (live.len() - i) as u64) as usize;
            live.swap(i, j);
            self.defects[live[i]] = true;
        }
    }

    /// `true` if tile slot `slot` (`r · C + c`) is defective.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    #[inline]
    pub fn is_dead(&self, slot: usize) -> bool {
        self.defects[slot]
    }

    /// Number of defective tile slots.
    #[must_use]
    pub fn defect_count(&self) -> usize {
        self.defects.iter().filter(|&&d| d).count()
    }

    /// Number of usable tile slots — the chip's logical-qubit capacity.
    #[must_use]
    pub fn live_tiles(&self) -> usize {
        self.tile_slots() - self.defect_count()
    }

    /// The defective slot indices, ascending.
    pub fn defect_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.defects.iter().enumerate().filter(|(_, &d)| d).map(|(s, _)| s)
    }

    /// Code distance `d`.
    #[must_use]
    pub fn code_distance(&self) -> u32 {
        self.code_distance
    }

    /// Bandwidth of horizontal channel `i` (0 = above the first tile row).
    ///
    /// # Panics
    ///
    /// Panics if `i > R`.
    #[must_use]
    #[inline]
    pub fn h_bandwidth(&self, i: usize) -> u32 {
        self.h_bandwidth[i]
    }

    /// Bandwidth of vertical channel `j` (0 = left of the first tile column).
    ///
    /// # Panics
    ///
    /// Panics if `j > C`.
    #[must_use]
    #[inline]
    pub fn v_bandwidth(&self, j: usize) -> u32 {
        self.v_bandwidth[j]
    }

    /// All horizontal channel bandwidths (length `R + 1`).
    #[must_use]
    pub fn h_bandwidths(&self) -> &[u32] {
        &self.h_bandwidth
    }

    /// All vertical channel bandwidths (length `C + 1`).
    #[must_use]
    pub fn v_bandwidths(&self) -> &[u32] {
        &self.v_bandwidth
    }

    /// Sets the bandwidth of horizontal channel `i`. Bandwidth 0 marks the
    /// channel as **disabled**: it contributes no lanes to the routing
    /// grid and is excluded from [`bandwidth`](Self::bandwidth).
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::ChannelOutOfRange`] if `i > R`, or
    /// [`ChipError::AllChannelsDisabled`] if `bandwidth == 0` would leave
    /// every horizontal channel disabled (an unroutable chip).
    pub fn set_h_bandwidth(&mut self, i: usize, bandwidth: u32) -> Result<(), ChipError> {
        let channels = self.h_bandwidth.len();
        if i >= channels {
            return Err(ChipError::ChannelOutOfRange { index: i, channels });
        }
        if bandwidth == 0 && self.h_bandwidth.iter().enumerate().all(|(k, &b)| k == i || b == 0) {
            return Err(ChipError::AllChannelsDisabled { horizontal: true });
        }
        self.h_bandwidth[i] = bandwidth;
        Ok(())
    }

    /// Sets the bandwidth of vertical channel `j`. Bandwidth 0 marks the
    /// channel as **disabled** (see [`set_h_bandwidth`](Self::set_h_bandwidth)).
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::ChannelOutOfRange`] if `j > C`, or
    /// [`ChipError::AllChannelsDisabled`] if `bandwidth == 0` would leave
    /// every vertical channel disabled.
    pub fn set_v_bandwidth(&mut self, j: usize, bandwidth: u32) -> Result<(), ChipError> {
        let channels = self.v_bandwidth.len();
        if j >= channels {
            return Err(ChipError::ChannelOutOfRange { index: j, channels });
        }
        if bandwidth == 0 && self.v_bandwidth.iter().enumerate().all(|(k, &b)| k == j || b == 0) {
            return Err(ChipError::AllChannelsDisabled { horizontal: false });
        }
        self.v_bandwidth[j] = bandwidth;
        Ok(())
    }

    /// The chip's bandwidth: the minimum over all **open** channels
    /// (paper §III-A). Disabled (bandwidth-0) channels are excluded —
    /// on chips without disabled channels this is the plain minimum.
    #[must_use]
    pub fn bandwidth(&self) -> u32 {
        self.h_bandwidth
            .iter()
            .chain(&self.v_bandwidth)
            .copied()
            .filter(|&b| b > 0)
            .min()
            .expect("at least one channel per orientation stays open")
    }

    /// Chip Communication Capacity `C = ⌊(b−1)/2⌋ + 3` (Theorem 2): the
    /// number of independent CNOTs that can always run simultaneously
    /// regardless of tile placement.
    #[must_use]
    pub fn communication_capacity(&self) -> usize {
        ((self.bandwidth() as usize - 1) / 2) + 3
    }

    /// Builds the routing grid (one blocked cell per tile slot, `b` free
    /// lanes per channel; defective tiles become permanently dead cells,
    /// disabled channels contribute no lanes).
    #[must_use]
    pub fn grid(&self) -> RoutingGrid {
        RoutingGrid::new(self)
    }

    /// Number of channel cells on the routing grid, in closed form: grid
    /// rows × grid cols − tile slots. Equals `self.grid().free_cells()`
    /// (dead tiles are tile cells, not channel space) without building
    /// the grid.
    #[must_use]
    pub fn channel_cells(&self) -> usize {
        let h_lanes: usize = self.h_bandwidth.iter().map(|&b| b as usize).sum();
        let v_lanes: usize = self.v_bandwidth.iter().map(|&b| b as usize).sum();
        (self.tile_rows + h_lanes) * (self.tile_cols + v_lanes) - self.tile_slots()
    }

    /// Manhattan distance between two tile slots, in tile units — the
    /// `l_ij` of the mapping cost function `f = Σ γ_ij · l_ij`.
    #[must_use]
    pub fn tile_distance(&self, slot_a: usize, slot_b: usize) -> usize {
        let (ra, ca) = (slot_a / self.tile_cols, slot_a % self.tile_cols);
        let (rb, cb) = (slot_b / self.tile_cols, slot_b % self.tile_cols);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    /// Physical qubit count in units of `d²` — the x-axis of the paper's
    /// Fig. 12. Double defect: side = `5·tiles + 2.5·Σ bandwidth`; lattice
    /// surgery: side = `√2·(tiles + Σ bandwidth)`.
    ///
    /// For a 7×7 tile array with uniform bandwidth 1…5 this reproduces the
    /// paper's x-axis values 3025…18225 (double defect) and 450…4418
    /// (lattice surgery).
    #[must_use]
    pub fn physical_qubits_per_d2(&self) -> f64 {
        let h_lanes: u32 = self.h_bandwidth.iter().sum();
        let v_lanes: u32 = self.v_bandwidth.iter().sum();
        match self.model {
            CodeModel::DoubleDefect => {
                let height = 5.0 * self.tile_rows as f64 + 2.5 * f64::from(h_lanes);
                let width = 5.0 * self.tile_cols as f64 + 2.5 * f64::from(v_lanes);
                height * width
            }
            CodeModel::LatticeSurgery => {
                let height = self.tile_rows as f64 + f64::from(h_lanes);
                let width = self.tile_cols as f64 + f64::from(v_lanes);
                2.0 * height * width
            }
        }
    }

    /// Absolute physical qubit count for the chip's code distance.
    #[must_use]
    pub fn physical_qubits(&self) -> u64 {
        let d2 = f64::from(self.code_distance * self.code_distance);
        (self.physical_qubits_per_d2() * d2).round() as u64
    }
}

/// `⌈√n⌉` without floating point.
fn int_sqrt_ceil(n: usize) -> usize {
    let mut s = 1usize;
    while s * s < n {
        s += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_viable_side_is_sqrt_ceiling() {
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
        assert_eq!((chip.tile_rows(), chip.tile_cols()), (4, 4));
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 9, 3).unwrap();
        assert_eq!((chip.tile_rows(), chip.tile_cols()), (3, 3));
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 50, 3).unwrap();
        assert_eq!((chip.tile_rows(), chip.tile_cols()), (8, 8));
    }

    #[test]
    fn congested_doubles_the_side_at_bandwidth_one() {
        let chip = Chip::congested(CodeModel::LatticeSurgery, 10, 3).unwrap();
        assert_eq!((chip.tile_rows(), chip.tile_cols()), (8, 8));
        assert_eq!(chip.bandwidth(), 1);
        assert_eq!(Chip::congested(CodeModel::DoubleDefect, 0, 3), Err(ChipError::EmptyTileArray));
    }

    #[test]
    fn bandwidth_is_channel_minimum() {
        let mut chip = Chip::uniform(CodeModel::DoubleDefect, 3, 3, 2, 3).unwrap();
        assert_eq!(chip.bandwidth(), 2);
        chip.set_h_bandwidth(1, 5).unwrap();
        assert_eq!(chip.bandwidth(), 2);
        chip.set_v_bandwidth(0, 1).unwrap();
        assert_eq!(chip.bandwidth(), 1);
    }

    #[test]
    fn capacity_matches_theorem2() {
        for (b, cap) in [(1, 3), (2, 3), (3, 4), (5, 5), (7, 6)] {
            let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, b, 3).unwrap();
            assert_eq!(chip.communication_capacity(), cap, "bandwidth {b}");
        }
    }

    #[test]
    fn bandwidth_for_capacity_inverts_theorem2() {
        for gpm in 1..40 {
            let b = Chip::bandwidth_for_capacity(gpm);
            let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, b, 3).unwrap();
            assert!(chip.communication_capacity() >= gpm, "gpm={gpm} b={b}");
            if b > 1 {
                let smaller = Chip::uniform(CodeModel::DoubleDefect, 2, 2, b - 2, 3);
                if let Ok(smaller) = smaller {
                    assert!(smaller.communication_capacity() < gpm, "b not minimal for gpm={gpm}");
                }
            }
        }
    }

    #[test]
    fn fig12_x_axis_double_defect() {
        // 49 qubits → 7×7 tiles; bandwidth 1..=5 must give the paper's
        // 3025, 5625, 9025, 13225, 18225 physical qubits per d².
        let expected = [3025.0, 5625.0, 9025.0, 13225.0, 18225.0];
        for (b, want) in (1..=5).zip(expected) {
            let chip = Chip::uniform(CodeModel::DoubleDefect, 7, 7, b, 3).unwrap();
            assert!((chip.physical_qubits_per_d2() - want).abs() < 1e-9, "b={b}");
        }
    }

    #[test]
    fn fig12_x_axis_lattice_surgery() {
        let expected = [450.0, 1058.0, 1922.0, 3042.0, 4418.0];
        for (b, want) in (1..=5).zip(expected) {
            let chip = Chip::uniform(CodeModel::LatticeSurgery, 7, 7, b, 3).unwrap();
            assert!((chip.physical_qubits_per_d2() - want).abs() < 1e-9, "b={b}");
        }
    }

    #[test]
    fn tile_distance_is_manhattan() {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 3, 4, 1, 3).unwrap();
        // slot 0 = (0,0), slot 11 = (2,3)
        assert_eq!(chip.tile_distance(0, 11), 5);
        assert_eq!(chip.tile_distance(5, 5), 0);
        assert_eq!(chip.tile_distance(1, 2), 1);
    }

    #[test]
    fn constructors_validate() {
        assert_eq!(
            Chip::uniform(CodeModel::DoubleDefect, 0, 3, 1, 3),
            Err(ChipError::EmptyTileArray)
        );
        assert_eq!(
            Chip::uniform(CodeModel::DoubleDefect, 3, 3, 1, 0),
            Err(ChipError::ZeroCodeDistance)
        );
        assert_eq!(Chip::min_viable(CodeModel::DoubleDefect, 0, 3), Err(ChipError::EmptyTileArray));
        let mut chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3).unwrap();
        assert!(chip.set_h_bandwidth(3, 1).is_err());
        assert!(chip.set_h_bandwidth(2, 4).is_ok());
    }

    #[test]
    fn defect_mask_tracks_live_capacity() {
        let mut chip = Chip::uniform(CodeModel::DoubleDefect, 3, 4, 1, 3).unwrap();
        assert_eq!(chip.live_tiles(), 12);
        assert_eq!(chip.defect_count(), 0);
        chip.add_defect(1, 2).unwrap();
        chip.add_defect(2, 3).unwrap();
        assert!(chip.is_dead(6) && chip.is_dead(11)); // slots (1,2) and (2,3)
        assert_eq!(chip.live_tiles(), 10);
        assert_eq!(chip.defect_slots().collect::<Vec<_>>(), vec![6, 11]);
        chip.clear_defect(1, 2).unwrap();
        assert_eq!(chip.defect_count(), 1);
        assert_eq!(
            chip.add_defect(3, 0),
            Err(ChipError::DefectOutOfRange { row: 3, col: 0, rows: 3, cols: 4 })
        );
        assert_eq!(
            chip.add_defect(0, 4),
            Err(ChipError::DefectOutOfRange { row: 0, col: 4, rows: 3, cols: 4 })
        );
    }

    #[test]
    fn with_defects_builder_matches_add_defect() {
        let built = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[(0, 1), (2, 2)])
            .unwrap();
        let mut manual = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3).unwrap();
        manual.add_defect(0, 1).unwrap();
        manual.add_defect(2, 2).unwrap();
        assert_eq!(built, manual);
        // An all-false mask is the uniform chip, under PartialEq too.
        let masked = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[])
            .unwrap();
        assert_eq!(masked, Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3).unwrap());
    }

    #[test]
    fn seed_defects_is_deterministic_and_distinct() {
        let mut a = Chip::uniform(CodeModel::DoubleDefect, 6, 6, 1, 3).unwrap();
        let mut b = a.clone();
        a.seed_defects(7, 42);
        b.seed_defects(7, 42);
        assert_eq!(a, b);
        assert_eq!(a.defect_count(), 7);
        let mut c = Chip::uniform(CodeModel::DoubleDefect, 6, 6, 1, 3).unwrap();
        c.seed_defects(100, 1); // more than the slot count: kills everything
        assert_eq!(c.live_tiles(), 0);
    }

    #[test]
    fn bandwidth_zero_is_an_explicit_disabled_channel() {
        let mut chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 2, 3).unwrap();
        chip.set_h_bandwidth(1, 0).unwrap();
        assert_eq!(chip.h_bandwidth(1), 0);
        // The disabled channel no longer drags the chip bandwidth to 0.
        assert_eq!(chip.bandwidth(), 2);
        chip.set_h_bandwidth(0, 0).unwrap();
        // Disabling the last open horizontal channel is rejected.
        assert_eq!(
            chip.set_h_bandwidth(2, 0),
            Err(ChipError::AllChannelsDisabled { horizontal: true })
        );
        assert_eq!(chip.h_bandwidth(2), 2, "rejected write must not stick");
        // Same story for vertical channels.
        let mut chip = Chip::uniform(CodeModel::DoubleDefect, 1, 1, 1, 3).unwrap();
        chip.set_v_bandwidth(0, 0).unwrap();
        assert_eq!(
            chip.set_v_bandwidth(1, 0),
            Err(ChipError::AllChannelsDisabled { horizontal: false })
        );
        // And a uniform bandwidth-0 chip cannot be built at all.
        assert_eq!(
            Chip::uniform(CodeModel::DoubleDefect, 2, 2, 0, 3),
            Err(ChipError::AllChannelsDisabled { horizontal: true })
        );
    }

    #[test]
    fn physical_qubits_scale_with_distance() {
        // 3×3 tiles, bandwidth 2: side = 15 + 2.5·8 = 35 ⇒ 1225·d² exactly.
        let d3 = Chip::uniform(CodeModel::DoubleDefect, 3, 3, 2, 3).unwrap();
        let d6 = Chip::uniform(CodeModel::DoubleDefect, 3, 3, 2, 6).unwrap();
        assert_eq!(d3.physical_qubits(), 1225 * 9);
        assert_eq!(d6.physical_qubits(), 4 * d3.physical_qubits());
    }
}
