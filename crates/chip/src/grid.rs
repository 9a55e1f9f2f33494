use crate::chip::Chip;

/// One cell of a [`RoutingGrid`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// Channel space: a free lane cell paths may traverse.
    Free,
    /// A logical tile slot (blocked for through-routing); the payload is
    /// the tile-slot index `r · C + c`.
    Tile(usize),
}

/// The planar routing grid of a [`Chip`].
///
/// Each tile slot occupies exactly one blocked cell; every channel of
/// bandwidth `b` contributes `b` parallel rows (or columns) of free cells
/// running the full width (or height) of the chip, so junctions between a
/// bandwidth-`b_h` and a bandwidth-`b_v` channel expand to a `b_h × b_v`
/// block of free cells. CNOT paths are free-cell paths between two tile
/// cells; because the grid is planar, node-disjointness of paths is exactly
/// the "braiding paths cannot cross" rule of the double-defect model.
///
/// # Example
///
/// ```
/// use ecmas_chip::{Cell, Chip, CodeModel};
///
/// let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3)?;
/// let grid = chip.grid();
/// assert_eq!((grid.rows(), grid.cols()), (5, 5));
/// assert_eq!(grid.cell(grid.tile_cell(0)), Cell::Tile(0));
/// // Tile 0 sits at grid (1,1); (0,1) above it is channel space.
/// assert_eq!(grid.cell(grid.index(0, 1)), Cell::Free);
/// # Ok::<(), ecmas_chip::ChipError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RoutingGrid {
    rows: usize,
    cols: usize,
    cells: Vec<Cell>,
    dead: Vec<bool>,
    tile_cells: Vec<usize>,
    h_channel: Vec<Option<usize>>,
    v_channel: Vec<Option<usize>>,
    /// `h_seam[r]` — the boundary between grid rows `r` and `r + 1` is a
    /// disabled-channel seam (both rows are tile rows, which only happens
    /// when the channel between them has bandwidth 0). The strip still
    /// occupies physical space but carries no horizontal lanes, so paths
    /// may only cross it along an open *vertical* channel's lane columns
    /// — never at a tile column.
    h_seam: Vec<bool>,
    /// `v_seam[c]` — same for the boundary between grid columns `c` and
    /// `c + 1`.
    v_seam: Vec<bool>,
}

impl RoutingGrid {
    /// Builds the grid for `chip`. Usually reached via [`Chip::grid`].
    #[must_use]
    pub fn new(chip: &Chip) -> Self {
        let (tr, tc) = (chip.tile_rows(), chip.tile_cols());
        let h_lanes: u32 = chip.h_bandwidths().iter().sum();
        let v_lanes: u32 = chip.v_bandwidths().iter().sum();
        let rows = tr + h_lanes as usize;
        let cols = tc + v_lanes as usize;

        // Map grid rows to their horizontal channel (None for tile rows).
        let mut h_channel = Vec::with_capacity(rows);
        let mut tile_row_pos = Vec::with_capacity(tr);
        for r in 0..tr {
            for _ in 0..chip.h_bandwidth(r) {
                h_channel.push(Some(r));
            }
            tile_row_pos.push(h_channel.len());
            h_channel.push(None);
        }
        for _ in 0..chip.h_bandwidth(tr) {
            h_channel.push(Some(tr));
        }
        debug_assert_eq!(h_channel.len(), rows);

        let mut v_channel = Vec::with_capacity(cols);
        let mut tile_col_pos = Vec::with_capacity(tc);
        for c in 0..tc {
            for _ in 0..chip.v_bandwidth(c) {
                v_channel.push(Some(c));
            }
            tile_col_pos.push(v_channel.len());
            v_channel.push(None);
        }
        for _ in 0..chip.v_bandwidth(tc) {
            v_channel.push(Some(tc));
        }
        debug_assert_eq!(v_channel.len(), cols);

        let mut cells = vec![Cell::Free; rows * cols];
        let mut dead = vec![false; rows * cols];
        let mut tile_cells = Vec::with_capacity(tr * tc);
        for (r, &row_pos) in tile_row_pos.iter().enumerate() {
            for (c, &col_pos) in tile_col_pos.iter().enumerate() {
                let idx = row_pos * cols + col_pos;
                let slot = r * tc + c;
                cells[idx] = Cell::Tile(slot);
                dead[idx] = chip.is_dead(slot);
                tile_cells.push(idx);
            }
        }

        // A bandwidth-0 channel contributes no lane rows/cols, leaving the
        // tile rows/cols on either side directly adjacent in the grid.
        // Record those boundaries so routing never tunnels through a
        // channel that physically has zero capacity.
        let h_seam = (0..rows.saturating_sub(1))
            .map(|r| h_channel[r].is_none() && h_channel[r + 1].is_none())
            .collect();
        let v_seam = (0..cols.saturating_sub(1))
            .map(|c| v_channel[c].is_none() && v_channel[c + 1].is_none())
            .collect();

        RoutingGrid { rows, cols, cells, dead, tile_cells, h_channel, v_channel, h_seam, v_seam }
    }

    /// Grid height in cells.
    #[must_use]
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width in cells.
    #[must_use]
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the grid has no cells (never happens for valid chips).
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Flattens `(row, col)` to a cell index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if out of range.
    #[must_use]
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Inverse of [`index`](Self::index).
    #[must_use]
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        (idx / self.cols, idx % self.cols)
    }

    /// The cell contents at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    #[inline]
    pub fn cell(&self, idx: usize) -> Cell {
        self.cells[idx]
    }

    /// `true` if `idx` is channel space.
    #[must_use]
    #[inline]
    pub fn is_free(&self, idx: usize) -> bool {
        self.cells[idx] == Cell::Free
    }

    /// `true` if `idx` sits on a defective tile: permanently unroutable
    /// and never a valid path endpoint. Routers seed their blocked set
    /// from this at construction, so their hot paths stay defect-blind.
    #[must_use]
    #[inline]
    pub fn is_dead(&self, idx: usize) -> bool {
        self.dead[idx]
    }

    /// Number of cells usable as channel space — free cells, since dead
    /// cells are always tile cells.
    #[must_use]
    pub fn free_cells(&self) -> usize {
        self.cells.iter().filter(|&&c| c == Cell::Free).count()
    }

    /// Cell index of tile slot `slot` (`r · C + c`).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    #[inline]
    pub fn tile_cell(&self, slot: usize) -> usize {
        self.tile_cells[slot]
    }

    /// Number of tile slots.
    #[must_use]
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tile_cells.len()
    }

    /// The 4-neighborhood of `idx` in the fixed up, down, left, right
    /// order, `None` where clipped at the boundary or at a
    /// disabled-channel seam: the tile rows/cols a bandwidth-0 channel
    /// separates are index-adjacent, but steppable-between only where an
    /// open perpendicular channel's lane crosses the disabled strip.
    ///
    /// This is the grid's one adjacency definition. The router's search,
    /// its reachability flood fill and its endpoint region probe all read
    /// it (through a per-router table), and the reachability cache is
    /// sound only because they agree. Seam clipping lives here, not in
    /// any availability predicate, for the same reason: a step across a
    /// bandwidth-0 channel at a tile column is not congestion, it is a
    /// non-edge of the grid.
    #[must_use]
    #[inline]
    pub fn neighbors4(&self, idx: usize) -> [Option<usize>; 4] {
        let (r, c) = self.coords(idx);
        let cols = self.cols;
        let lane_col = self.v_channel[c].is_some();
        let lane_row = self.h_channel[r].is_some();
        [
            (r > 0 && (lane_col || !self.h_seam[r - 1])).then(|| idx - cols),
            (r + 1 < self.rows && (lane_col || !self.h_seam[r])).then(|| idx + cols),
            (c > 0 && (lane_row || !self.v_seam[c - 1])).then(|| idx - 1),
            (c + 1 < cols && (lane_row || !self.v_seam[c])).then(|| idx + 1),
        ]
    }

    /// [`neighbors4`](Self::neighbors4) without the clipped directions.
    pub fn neighbors(&self, idx: usize) -> impl Iterator<Item = usize> {
        self.neighbors4(idx).into_iter().flatten()
    }

    /// Whether the boundary between grid rows `upper_row` and
    /// `upper_row + 1` is a disabled-channel seam (see
    /// [`step_allowed`](Self::step_allowed)).
    #[must_use]
    #[inline]
    pub fn h_seam_blocked(&self, upper_row: usize) -> bool {
        self.h_seam.get(upper_row).copied().unwrap_or(false)
    }

    /// Whether the boundary between grid columns `left_col` and
    /// `left_col + 1` is a disabled-channel seam.
    #[must_use]
    #[inline]
    pub fn v_seam_blocked(&self, left_col: usize) -> bool {
        self.v_seam.get(left_col).copied().unwrap_or(false)
    }

    /// Whether a unit step between grid-adjacent cells `a` and `b` is
    /// physically realizable. Every step between index-adjacent cells is,
    /// except across a disabled-channel seam at a tile row/col: a
    /// bandwidth-0 channel still occupies physical space between its tile
    /// rows/cols, and only an open perpendicular channel's lane offers a
    /// way through the strip.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `a` and `b` are not grid-adjacent.
    #[must_use]
    #[inline]
    pub fn step_allowed(&self, a: usize, b: usize) -> bool {
        debug_assert_eq!(self.manhattan(a, b), 1);
        let (lo, hi) = (a.min(b), a.max(b));
        if hi - lo == 1 {
            !self.v_seam[lo % self.cols] || self.h_channel[lo / self.cols].is_some()
        } else {
            !self.h_seam[lo / self.cols] || self.v_channel[lo % self.cols].is_some()
        }
    }

    /// The tile-row index of a grid row (`None` for lane rows).
    #[must_use]
    pub fn tile_row_index(&self, row: usize) -> Option<usize> {
        if self.h_channel[row].is_some() {
            return None;
        }
        Some(self.h_channel[..row].iter().filter(|ch| ch.is_none()).count())
    }

    /// The tile-column index of a grid column (`None` for lane columns).
    #[must_use]
    pub fn tile_col_index(&self, col: usize) -> Option<usize> {
        if self.v_channel[col].is_some() {
            return None;
        }
        Some(self.v_channel[..col].iter().filter(|ch| ch.is_none()).count())
    }

    /// The horizontal channel a grid row belongs to (`None` for tile rows).
    #[must_use]
    #[inline]
    pub fn h_channel_of_row(&self, row: usize) -> Option<usize> {
        self.h_channel[row]
    }

    /// The vertical channel a grid column belongs to (`None` for tile
    /// columns).
    #[must_use]
    #[inline]
    pub fn v_channel_of_col(&self, col: usize) -> Option<usize> {
        self.v_channel[col]
    }

    /// Manhattan distance between two cells.
    #[must_use]
    #[inline]
    pub fn manhattan(&self, a: usize, b: usize) -> usize {
        let (ra, ca) = self.coords(a);
        let (rb, cb) = self.coords(b);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    /// Renders the grid as ASCII art (`.` free, `#` tile, `X` dead tile),
    /// useful in examples and debugging.
    #[must_use]
    pub fn ascii(&self) -> String {
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let idx = self.index(r, c);
                out.push(match self.cells[idx] {
                    Cell::Free => '.',
                    Cell::Tile(_) if self.dead[idx] => 'X',
                    Cell::Tile(_) => '#',
                });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::CodeModel;

    fn chip(rows: usize, cols: usize, b: u32) -> Chip {
        Chip::uniform(CodeModel::DoubleDefect, rows, cols, b, 3).unwrap()
    }

    #[test]
    fn bandwidth1_grid_dimensions() {
        let g = chip(3, 3, 1).grid();
        assert_eq!((g.rows(), g.cols()), (7, 7));
        assert_eq!(g.tile_count(), 9);
    }

    #[test]
    fn bandwidth2_grid_dimensions() {
        let g = chip(3, 4, 2).grid();
        assert_eq!((g.rows(), g.cols()), (3 + 4 * 2, 4 + 5 * 2));
    }

    #[test]
    fn tiles_sit_on_odd_lattice_for_bandwidth1() {
        let g = chip(2, 2, 1).grid();
        for slot in 0..4 {
            let (r, c) = g.coords(g.tile_cell(slot));
            assert_eq!(r % 2, 1, "tile row should be odd");
            assert_eq!(c % 2, 1, "tile col should be odd");
            assert_eq!(g.cell(g.tile_cell(slot)), Cell::Tile(slot));
        }
    }

    #[test]
    fn free_cell_count_is_total_minus_tiles() {
        let g = chip(3, 3, 2).grid();
        let free = (0..g.len()).filter(|&i| g.is_free(i)).count();
        assert_eq!(free, g.len() - 9);
    }

    #[test]
    fn neighbors_clip_at_boundary() {
        let g = chip(2, 2, 1).grid();
        let corner = g.index(0, 0);
        assert_eq!(g.neighbors(corner).count(), 2);
        let mid = g.index(2, 2);
        assert_eq!(g.neighbors(mid).count(), 4);
    }

    #[test]
    fn channel_classification() {
        let g = chip(2, 2, 1).grid();
        // Rows: [ch0][tile0][ch1][tile1][ch2]
        assert_eq!(g.h_channel_of_row(0), Some(0));
        assert_eq!(g.h_channel_of_row(1), None);
        assert_eq!(g.h_channel_of_row(2), Some(1));
        assert_eq!(g.h_channel_of_row(3), None);
        assert_eq!(g.h_channel_of_row(4), Some(2));
        assert_eq!(g.v_channel_of_col(2), Some(1));
    }

    #[test]
    fn junction_expands_with_bandwidth() {
        // With bandwidth 3, the top-left junction is a 3×3 free block.
        let g = chip(2, 2, 3).grid();
        for r in 0..3 {
            for c in 0..3 {
                assert!(g.is_free(g.index(r, c)));
            }
        }
        let (tr, tc) = g.coords(g.tile_cell(0));
        assert_eq!((tr, tc), (3, 3));
    }

    #[test]
    fn adjacent_tiles_separated_by_bandwidth_lanes() {
        let g = chip(1, 2, 2).grid();
        let (r0, c0) = g.coords(g.tile_cell(0));
        let (r1, c1) = g.coords(g.tile_cell(1));
        assert_eq!(r0, r1);
        assert_eq!(c1 - c0, 3, "two lanes between adjacent tiles");
    }

    #[test]
    fn ascii_render_shape() {
        let g = chip(1, 1, 1).grid();
        assert_eq!(g.ascii(), "...\n.#.\n...\n");
    }

    #[test]
    fn dead_tiles_mark_dead_cells() {
        let mut c = chip(2, 2, 1);
        c.add_defect(0, 1).unwrap();
        let g = c.grid();
        assert!(g.is_dead(g.tile_cell(1)));
        for slot in [0, 2, 3] {
            assert!(!g.is_dead(g.tile_cell(slot)));
        }
        // Channel cells are never dead.
        assert!((0..g.len()).filter(|&i| g.is_free(i)).all(|i| !g.is_dead(i)));
        assert_eq!(g.free_cells(), g.len() - 4);
        assert_eq!(g.ascii(), ".....\n.#.X.\n.....\n.#.#.\n.....\n");
    }

    #[test]
    fn disabled_channel_contributes_no_lanes() {
        let mut c = chip(2, 2, 1);
        c.set_h_bandwidth(1, 0).unwrap();
        let g = c.grid();
        // Rows: [ch0][tile0][tile1][ch2] — the middle channel vanished.
        assert_eq!(g.rows(), 4);
        assert_eq!(g.h_channel_of_row(1), None);
        assert_eq!(g.h_channel_of_row(2), None);
        assert_eq!(g.h_channel_of_row(3), Some(2));
    }

    #[test]
    fn disabled_channel_seam_blocks_tile_column_steps() {
        let mut c = chip(2, 2, 1);
        c.set_h_bandwidth(1, 0).unwrap();
        let g = c.grid();
        // Rows: [ch0][tile0][tile1][ch2]; the tile rows 1 and 2 meet at a
        // seam. Columns: [ch0][tile0][ch1][tile1][ch2].
        assert!(g.h_seam_blocked(1));
        assert!(!g.h_seam_blocked(0));
        assert!(!g.v_seam_blocked(0));
        // At a tile column the seam is impassable...
        let above = g.index(1, 1);
        let below = g.index(2, 1);
        assert!(!g.step_allowed(above, below));
        assert!(!g.neighbors(above).any(|n| n == below));
        assert!(!g.neighbors(below).any(|n| n == above));
        // ...but an open vertical channel's lane crosses the strip.
        let lane_above = g.index(1, 2);
        let lane_below = g.index(2, 2);
        assert!(g.step_allowed(lane_above, lane_below));
        assert!(g.neighbors(lane_above).any(|n| n == lane_below));
        // Steps that cross no seam are untouched.
        assert!(g.step_allowed(g.index(0, 1), g.index(1, 1)));
        assert!(g.step_allowed(above, g.index(1, 2)));
    }

    #[test]
    fn tile_row_and_col_indices() {
        let mut c = chip(2, 2, 1);
        c.set_h_bandwidth(1, 0).unwrap();
        let g = c.grid();
        assert_eq!(g.tile_row_index(0), None); // lane row of channel 0
        assert_eq!(g.tile_row_index(1), Some(0));
        assert_eq!(g.tile_row_index(2), Some(1));
        assert_eq!(g.tile_row_index(3), None); // lane row of channel 2
        assert_eq!(g.tile_col_index(1), Some(0));
        assert_eq!(g.tile_col_index(3), Some(1));
        assert_eq!(g.tile_col_index(2), None);
    }

    #[test]
    fn uniform_chip_has_no_seams() {
        let g = chip(3, 3, 2).grid();
        for r in 0..g.rows() - 1 {
            assert!(!g.h_seam_blocked(r));
        }
        for c in 0..g.cols() - 1 {
            assert!(!g.v_seam_blocked(c));
        }
    }

    /// Chips covering every adjacency special case: bandwidth-0 seams in
    /// both orientations (inside and at the border), defective tiles,
    /// non-uniform bandwidths, and 1×1, 1×N and N×1 tile arrays.
    fn adjacency_chips() -> Vec<Chip> {
        let mut seams = chip(3, 4, 2);
        seams.set_h_bandwidth(1, 0).unwrap();
        seams.set_v_bandwidth(2, 0).unwrap();
        seams.set_v_bandwidth(0, 0).unwrap();
        seams.add_defect(2, 3).unwrap();
        let mut row_seams = chip(1, 5, 1);
        row_seams.set_v_bandwidth(1, 0).unwrap();
        row_seams.set_v_bandwidth(2, 0).unwrap();
        let mut col_seams = Chip::uniform(CodeModel::LatticeSurgery, 4, 1, 3, 3).unwrap();
        col_seams.set_h_bandwidth(2, 0).unwrap();
        col_seams.set_h_bandwidth(4, 0).unwrap();
        let mut uneven = chip(2, 3, 1);
        uneven.set_h_bandwidth(1, 4).unwrap();
        uneven.set_v_bandwidth(3, 2).unwrap();
        vec![
            chip(1, 1, 1),
            chip(1, 1, 3),
            chip(1, 6, 1),
            Chip::uniform(CodeModel::LatticeSurgery, 6, 1, 2, 3).unwrap(),
            chip(3, 3, 1).with_defects(&[(0, 0), (1, 1), (2, 2)]).unwrap(),
            seams,
            row_seams,
            col_seams,
            uneven,
        ]
    }

    #[test]
    fn neighbors_are_neighbors4_flattened_and_symmetric() {
        let (mut h_seams, mut v_seams, mut dead) = (0, 0, 0);
        for chip in adjacency_chips() {
            let g = chip.grid();
            h_seams += (0..g.rows()).filter(|&r| g.h_seam_blocked(r)).count();
            v_seams += (0..g.cols()).filter(|&c| g.v_seam_blocked(c)).count();
            dead += (0..g.len()).filter(|&i| g.is_dead(i)).count();
            for cell in 0..g.len() {
                let four = g.neighbors4(cell);
                assert!(g.neighbors(cell).eq(four.into_iter().flatten()), "cell {cell}");
                // Up/down and left/right are mirror directions: a step
                // exists both ways or neither.
                for (dir, next) in four.into_iter().enumerate() {
                    if let Some(next) = next {
                        assert_eq!(g.manhattan(cell, next), 1);
                        assert!(g.step_allowed(cell, next));
                        assert_eq!(
                            g.neighbors4(next)[dir ^ 1],
                            Some(cell),
                            "cell {cell} dir {dir}"
                        );
                    }
                }
            }
        }
        assert!(h_seams > 0 && v_seams > 0 && dead > 0, "the chips cover seams and defects");
    }

    #[test]
    fn channel_cells_match_the_grid_free_cell_count() {
        for chip in adjacency_chips() {
            assert_eq!(chip.channel_cells(), chip.grid().free_cells(), "{chip:?}");
        }
    }

    #[test]
    fn manhattan_distance() {
        let g = chip(2, 2, 1).grid();
        assert_eq!(g.manhattan(g.index(0, 0), g.index(3, 4)), 7);
    }

    #[test]
    fn non_uniform_bandwidths_respected() {
        let mut c = chip(2, 2, 1);
        c.set_h_bandwidth(1, 4).unwrap();
        let g = c.grid();
        assert_eq!(g.rows(), 2 + 1 + 4 + 1);
        // Rows 2..6 belong to the widened middle channel.
        for r in 2..6 {
            assert_eq!(g.h_channel_of_row(r), Some(1));
        }
    }
}
