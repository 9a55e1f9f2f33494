//! CNOT path routing on the surface-code routing grid.
//!
//! A CNOT between two tiles is implemented by a path of channel cells
//! connecting them (a braiding path in the double-defect model, a
//! Bell-state ancilla chain in lattice surgery). Paths scheduled in the
//! same clock cycle must not conflict:
//!
//! * **Double defect** — braiding paths are curves in the plane and cannot
//!   cross, i.e. paths must be [`Disjointness::Node`]-disjoint on the
//!   (planar) routing grid.
//! * **Lattice surgery** — EDPC's crossing construction (Beverland et al.,
//!   PRX Quantum 3, 020342) lets two Bell-state chains share a tile as long
//!   as they use different boundary segments, i.e. paths need only be
//!   [`Disjointness::Edge`]-disjoint.
//!
//! [`Router`] finds shortest conflict-free paths with A* (Manhattan
//! lower bound, FIFO tie-breaking on equal f-scores, so results are
//! exactly as short as BFS would find and runs are reproducible) over
//! reusable epoch-marked scratch buffers — a search allocates nothing but
//! the returned path. The open set is a monotone *bucket queue* (Dial's
//! algorithm): on a unit-weight grid with a consistent heuristic the
//! f-score of expansions never decreases and successors land in buckets
//! `f` or `f + 2`, so a cursor sweeping a dense array of FIFO buckets
//! replaces the binary heap — O(1) push/pop, and the pop order (f
//! ascending, insertion order within a bucket) is exactly the old heap's
//! `(f, seq)` order, keeping every schedule bit-identical.
//!
//! Adjacency has one definition, [`RoutingGrid::neighbors4`] (up, down,
//! left, right, clipped at the boundary and at bandwidth-0 seams). The
//! A* expansion, the reachability flood fill and the endpoint region
//! probe must all share it — the cache is sound only because the
//! coloring and the search agree on which steps exist — and they all
//! read it through one table that [`Router::new`] builds per router:
//! each cell's four neighbour indices (`u32::MAX` where clipped) and its
//! `(row, col)`, 24 bytes per cell. The hot loops therefore never divide
//! a cell index by the grid width: the heuristic and the stale-entry
//! check read coordinates from the table, and in edge mode a step's
//! edge id comes from its direction (up `2·next + 1`, down `2·cur + 1`,
//! left `2·next`, right `2·cur`) instead of from the cell indices.
//!
//! Failed searches are the congested worst case: when no route exists the
//! heuristic cannot prune anything and plain A* floods the whole
//! reachable region before returning `None`. The router therefore keeps a
//! *reachability cache* — a per-cycle flood-fill coloring of the
//! available cells into connected regions. Within a clock cycle,
//! committing reservations only ever *removes* availability, so a
//! "disconnected" verdict from a coloring taken earlier in the same cycle
//! can never turn into "connected": provably-unroutable requests are
//! answered `None` in O(1) without re-flooding. The coloring is computed
//! lazily — refreshed only when a search exhausts its region without a
//! cache hit, so uncongested workloads never pay for it — and
//! [`RouterStats`] counts `failed_searches`, `cache_hits`, and
//! `recolor_cells` so the hit rate is observable per compilation.
//!
//! Schedulers submit each cycle's requests as one batch through
//! [`Router::route_ready`], which can also order the batch by estimated
//! distance ([`Router::route_ready_by_distance`]) so short paths are laid
//! down before long greedy ones block them. Both write outcomes into
//! caller-owned scratch so a scheduler's cycle loop performs no
//! per-cycle allocation.
//!
//! Reservations are multi-cycle: a double-defect direct CNOT between equal
//! cut types holds its path for two cycles, so [`Router::commit`] carries a
//! duration. Searches take only the current `cycle`: because schedulers
//! drive the router with nondecreasing cycles and every reservation starts
//! at the cycle of its commit (never in the future), a resource free *now*
//! is free forever after — which is why `find_*` need no duration (the
//! invariant is debug-asserted).
//!
//! # Example
//!
//! ```
//! use ecmas_chip::{Chip, CodeModel};
//! use ecmas_route::{Disjointness, Router};
//!
//! let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3)?;
//! let mut router = Router::new(chip.grid(), Disjointness::Node);
//! // Map tiles 0 and 3 (diagonal) and route between them at cycle 0.
//! router.block_tile(0);
//! router.block_tile(3);
//! let path = router.find_tile_path(0, 3, 0).expect("path exists");
//! router.commit(&path, 0, 1);
//! # Ok::<(), ecmas_chip::ChipError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecmas_chip::RoutingGrid;

/// Marks a clipped direction in the router's neighbour table.
const NO_CELL: u32 = u32::MAX;

/// One cell's row of the router's table: its [`RoutingGrid::neighbors4`]
/// (`NO_CELL` where clipped) and its `(row, col)`, 24 bytes in all.
#[derive(Clone, Copy, Debug)]
struct CellLinks {
    adj: [u32; 4],
    row: u32,
    col: u32,
}

impl CellLinks {
    /// The neighbours with their directions, in up/down/left/right
    /// order, clipped directions skipped.
    #[inline]
    fn steps(self) -> impl Iterator<Item = (usize, usize)> {
        self.adj
            .into_iter()
            .enumerate()
            .filter(|&(_, next)| next != NO_CELL)
            .map(|(dir, next)| (dir, next as usize))
    }

    /// Manhattan distance to `other`.
    #[inline]
    fn distance(&self, other: &CellLinks) -> usize {
        (self.row.abs_diff(other.row) + self.col.abs_diff(other.col)) as usize
    }
}

/// Edge id of the step from `cur` to its grid neighbour `next` in
/// direction `dir` (0 up, 1 down, 2 left, 3 right — the order of
/// [`RoutingGrid::neighbors4`]). Vertical edges are `2·upper + 1`,
/// horizontal edges `2·left`: up and left steps name the edge by `next`,
/// down and right steps by `cur`. The same ids as [`Router::edge_id`],
/// with no division.
#[inline]
fn step_edge_id(cur: usize, next: usize, dir: usize) -> usize {
    let lo = if matches!(dir, 0 | 2) { next } else { cur };
    2 * lo + usize::from(dir < 2)
}

/// The disjointness rule paths in the same cycle must obey.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Disjointness {
    /// Paths may not share grid cells (double-defect braiding: curves in
    /// the plane cannot cross).
    Node,
    /// Paths may not share grid edges but may cross at a cell (lattice
    /// surgery via the EDPC crossing construction).
    Edge,
}

/// Cumulative routing-effort counters, reset with
/// [`Router::reset_stats`] and read with [`Router::stats`].
///
/// The scheduler-facing stats hook: compilers surface these in their
/// structured reports so congestion (failed finds) and search effort
/// (cells expanded) are observable per compilation without re-running it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Successful path searches ([`Router::find_tile_path`] /
    /// [`Router::find_cell_path`] returning `Some`).
    pub paths_found: u64,
    /// Failed path searches — the congestion/conflict count: every `None`
    /// means the current reservations blocked all routes.
    pub conflicts: u64,
    /// Total A* cells expanded across all searches (search effort).
    pub cells_expanded: u64,
    /// Open-list entries left unexpanded when a search found its target
    /// (superseded duplicate entries included) — an upper bound on the
    /// expansions the Manhattan heuristic saved versus an exhaustive
    /// breadth-first search.
    pub pruned_expansions: u64,
    /// Total cells of every found path (channel occupation proxy).
    pub path_cells: u64,
    /// Largest per-cycle sum of committed path cells — the channel-space
    /// high-water mark behind a report's peak utilization figure. Tracked
    /// at [`Router::commit`] time (probes don't count), so it measures
    /// what the schedule actually reserved.
    pub peak_cycle_path_cells: u64,
    /// Searches that proved no route exists — the region-exhaustion
    /// subset of [`conflicts`](Self::conflicts) (an endpoint already
    /// reserved fails before any search and is *not* counted here).
    /// Each one either flooded the reachable region or was answered by
    /// the reachability cache.
    pub failed_searches: u64,
    /// Failed searches answered in O(1) by the reachability cache
    /// instead of flooding the region. `cache_hits / failed_searches`
    /// is the cache hit rate on a congested workload.
    pub cache_hits: u64,
    /// Total cells colored by reachability-cache flood fills (the
    /// amortized cost of the cache: one recoloring per cache-*missed*
    /// failure, never more than doubling the flood work the exhausted
    /// search already did, and zero on uncongested workloads).
    pub recolor_cells: u64,
}

impl RouterStats {
    /// Component-wise sum — used to combine the stats of several router
    /// instances (e.g. the base and bandwidth-adjusted scheduling runs).
    /// The per-cycle peak takes the maximum: the runs are alternatives
    /// over the same chip, not concurrent occupants.
    #[must_use]
    pub fn merged(self, other: RouterStats) -> RouterStats {
        RouterStats {
            paths_found: self.paths_found + other.paths_found,
            conflicts: self.conflicts + other.conflicts,
            cells_expanded: self.cells_expanded + other.cells_expanded,
            pruned_expansions: self.pruned_expansions + other.pruned_expansions,
            path_cells: self.path_cells + other.path_cells,
            peak_cycle_path_cells: self.peak_cycle_path_cells.max(other.peak_cycle_path_cells),
            failed_searches: self.failed_searches + other.failed_searches,
            cache_hits: self.cache_hits + other.cache_hits,
            recolor_cells: self.recolor_cells + other.recolor_cells,
        }
    }
}

/// A committed or candidate CNOT path: the endpoint tile cells plus the
/// channel cells between them, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    cells: Vec<usize>,
}

impl Path {
    /// Builds a path from an explicit cell sequence (used by tests and by
    /// baseline compilers that construct pattern paths directly),
    /// verifying against `grid` that consecutive cells are 4-adjacent.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two cells are given, or if two consecutive
    /// cells are not grid-adjacent (e.g. the last cell of one row followed
    /// by the first cell of the next: index distance 1, but no edge).
    #[must_use]
    pub fn from_cells(grid: &RoutingGrid, cells: Vec<usize>) -> Self {
        assert!(cells.len() >= 2, "a path needs at least its two endpoints");
        for pair in cells.windows(2) {
            assert_eq!(
                grid.manhattan(pair[0], pair[1]),
                1,
                "cells {} and {} are not grid-adjacent",
                pair[0],
                pair[1]
            );
        }
        Path { cells }
    }

    /// [`from_cells`](Self::from_cells) without the adjacency check.
    ///
    /// Only for constructing *deliberately malformed* paths — the schedule
    /// validator's mutation tests need paths the router would never emit.
    /// Anything fed to [`Router::commit`] or
    /// [`Router::paths_conflict_free`] must be adjacency-clean or edge
    /// identification will panic.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two cells are given.
    #[must_use]
    pub fn from_cells_unchecked(cells: Vec<usize>) -> Self {
        assert!(cells.len() >= 2, "a path needs at least its two endpoints");
        Path { cells }
    }

    /// The cells from source tile cell to destination tile cell inclusive.
    #[must_use]
    #[inline]
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    /// The channel cells only (endpoints stripped).
    #[must_use]
    #[inline]
    pub fn interior(&self) -> &[usize] {
        &self.cells[1..self.cells.len() - 1]
    }

    /// Number of grid edges traversed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len() - 1
    }

    /// `true` for degenerate zero-length paths (never produced by the
    /// router: distinct tiles are never adjacent on the grid).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.len() <= 1
    }
}

/// One entry of a per-cycle routing batch for [`Router::route_ready`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteRequest {
    /// Source tile slot.
    pub from_slot: usize,
    /// Destination tile slot.
    pub to_slot: usize,
    /// Cycles the found path is reserved for when committed.
    pub hold: u64,
    /// `true` routes (find + commit); `false` probes (find only) —
    /// schedulers use probes for candidate queries whose commit decision
    /// depends on other state (the double-defect direct-vs-modify choice).
    pub commit: bool,
}

impl RouteRequest {
    /// A find-and-commit request holding the path for `hold` cycles.
    #[must_use]
    pub fn route(from_slot: usize, to_slot: usize, hold: u64) -> Self {
        RouteRequest { from_slot, to_slot, hold, commit: true }
    }

    /// A find-only request (no reservation on success).
    #[must_use]
    pub fn probe(from_slot: usize, to_slot: usize) -> Self {
        RouteRequest { from_slot, to_slot, hold: 0, commit: false }
    }
}

/// Shortest-path router with per-cycle reservations.
///
/// The router owns the grid, its neighbour/coordinate table (see the
/// module docs), and these layers of state:
///
/// * `blocked` — cells occupied by *mapped* logical tiles (static per
///   compilation). Unmapped tile slots are routable channel space.
/// * node/edge reservations — `free_at[x]` is the first cycle at which `x`
///   may be used again. Reservations always start at the scheduler's
///   current cycle, so a single scalar per resource suffices — and a
///   search therefore needs no duration: free now means free from now on.
/// * A* scratch — epoch-marked visit/score/parent arrays plus a reusable
///   bucket-queue open set, so a search performs no allocation beyond the
///   returned path.
/// * reachability cache — a flood-fill coloring of the available cells
///   into connected regions, valid for one clock cycle, that answers
///   provably-unroutable searches in O(1). Allocated by the first
///   recoloring, so routers that never fail a search never pay for it.
#[derive(Clone, Debug)]
pub struct Router {
    grid: RoutingGrid,
    mode: Disjointness,
    // `grid.neighbors4` and `grid.coords` per cell, tabled once so the
    // search, the flood fill and the region probe never divide a cell
    // index by the grid width.
    table: Vec<CellLinks>,
    blocked: Vec<bool>,
    node_free_at: Vec<u64>,
    edge_free_at: Vec<u64>,
    // A* scratch (epoch-marked so it never needs clearing). The open set
    // is a monotone bucket queue (Dial's algorithm): `buckets[f]` holds
    // the cells pushed with f-score `f`, consumed FIFO through
    // `bucket_head[f]`. On the unit-weight grid with the consistent
    // Manhattan heuristic, every push lands in bucket `f` or `f + 2` of
    // the cursor, so a forward-only sweep pops entries in exactly the
    // old binary heap's `(f, push order)` sequence — same expansions,
    // same parents, same paths, no `log n` and no per-push comparisons.
    visit_epoch: Vec<u32>,
    g_score: Vec<u32>,
    parent: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    bucket_head: Vec<u32>,
    epoch: u32,
    // Reachability cache: `region[cell]` is the connected-component id
    // (0 = unavailable) of the availability graph, computed by a flood
    // fill at `region_cycle`. Within one cycle reservations only shrink
    // availability, so "different regions" verdicts stay valid until
    // the cycle advances; anything that *grows* availability
    // (cycle advance, unblock, clear) invalidates the coloring.
    region: Vec<u32>,
    region_queue: Vec<u32>,
    region_cycle: Option<u64>,
    // Scratch for `route_ready_by_distance` request ordering.
    order_scratch: Vec<u32>,
    // Highest cycle any search or commit has used — the
    // reservations-start-now invariant that makes search durations
    // redundant (checked in debug builds).
    watermark: u64,
    stats: RouterStats,
    // Per-cycle committed-cell accumulator behind
    // `RouterStats::peak_cycle_path_cells`: commits arrive in
    // nondecreasing cycle order (the watermark invariant), so one scalar
    // pair suffices — flush on cycle advance, fold the in-progress cycle
    // in at `stats()` time.
    commit_cycle: u64,
    commit_cells: u64,
}

impl Router {
    /// Creates a router over `grid` with the given disjointness rule.
    ///
    /// # Panics
    ///
    /// Panics if the grid has 2³¹ or more cells: the search encodes cell
    /// indices as `u32` and f-scores (bounded by `cells + rows + cols`)
    /// in the high 32 bits of its heap keys, and refuses loudly rather
    /// than truncating silently.
    #[must_use]
    pub fn new(grid: RoutingGrid, mode: Disjointness) -> Self {
        let n = grid.len();
        assert!(n < (1 << 31), "routing grid of {n} cells exceeds the router's 32-bit encoding");
        // f = g + h is bounded by (n − 1) path edges plus the Manhattan
        // diameter, so this dense bucket array covers every reachable
        // f-score. The outer Vec is allocated once; inner buckets grow on
        // first use and keep their capacity across searches.
        let max_f = n + grid.rows() + grid.cols() + 1;
        // Dead cells (defective tiles) are blocked from birth: the hot
        // path already consults `blocked` first in both modes, so defects
        // cost the router nothing per search.
        let blocked = (0..n).map(|i| grid.is_dead(i)).collect();
        // Both fit u32: the assert above bounds every index and coordinate.
        let table = (0..n)
            .map(|cell| {
                let (r, c) = grid.coords(cell);
                CellLinks {
                    adj: grid.neighbors4(cell).map(|next| next.map_or(NO_CELL, |c| c as u32)),
                    row: r as u32,
                    col: c as u32,
                }
            })
            .collect();
        Router {
            grid,
            mode,
            table,
            blocked,
            node_free_at: vec![0; n],
            edge_free_at: vec![0; 2 * n],
            visit_epoch: vec![0; n],
            g_score: vec![0; n],
            parent: vec![0; n],
            buckets: vec![Vec::new(); max_f],
            bucket_head: vec![0; max_f],
            epoch: 0,
            region: Vec::new(),
            region_queue: Vec::new(),
            region_cycle: None,
            order_scratch: Vec::new(),
            watermark: 0,
            stats: RouterStats::default(),
            commit_cycle: 0,
            commit_cells: 0,
        }
    }

    /// The cumulative routing counters since construction or the last
    /// [`reset_stats`](Self::reset_stats), with the in-progress cycle's
    /// committed cells folded into the per-cycle peak.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        let mut stats = self.stats;
        stats.peak_cycle_path_cells = stats.peak_cycle_path_cells.max(self.commit_cells);
        stats
    }

    /// Zeroes the routing counters (reservations are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = RouterStats::default();
        self.commit_cells = 0;
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &RoutingGrid {
        &self.grid
    }

    /// The disjointness rule in force.
    #[must_use]
    pub fn mode(&self) -> Disjointness {
        self.mode
    }

    /// Marks the cell of tile slot `slot` as hosting a logical qubit
    /// (paths may start/end there but not pass through).
    pub fn block_tile(&mut self, slot: usize) {
        let cell = self.grid.tile_cell(slot);
        self.blocked[cell] = true;
        self.region_cycle = None;
    }

    /// Clears a tile blockage (used when remapping). Dead cells stay
    /// blocked: a defective tile can never become routable.
    pub fn unblock_tile(&mut self, slot: usize) {
        let cell = self.grid.tile_cell(slot);
        self.blocked[cell] = self.grid.is_dead(cell);
        self.region_cycle = None;
    }

    /// `true` if the cell currently hosts a logical qubit.
    #[must_use]
    pub fn is_blocked(&self, cell: usize) -> bool {
        self.blocked[cell]
    }

    /// Edge id for the edge between adjacent cells `a` and `b`.
    ///
    /// Horizontal edges are `2·lo`, vertical edges `2·lo + 1`. An index
    /// distance of 1 only means "horizontal neighbor" when `lo` is not the
    /// last cell of its row — the row-wrap pair (end of row *r*, start of
    /// row *r+1*) is one apart in index space but is no grid edge, and
    /// must not silently alias a horizontal id.
    ///
    /// # Panics
    ///
    /// Panics when `a` and `b` are not 4-adjacent on the grid (in every
    /// build profile: hand-built pattern paths reach here via
    /// [`Router::commit`]).
    fn edge_id(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = (a.min(b), a.max(b));
        let cols = self.grid.cols();
        if hi - lo == 1 && (lo % cols) + 1 < cols {
            2 * lo // horizontal edge within one row
        } else {
            assert_eq!(hi - lo, cols, "cells {lo} and {hi} are not grid-adjacent");
            2 * lo + 1 // vertical edge
        }
    }

    /// Whether a step onto `cell` (interior of a path) is allowed at
    /// `cycle`.
    fn cell_available(&self, cell: usize, cycle: u64) -> bool {
        if self.blocked[cell] {
            return false;
        }
        match self.mode {
            Disjointness::Node => self.node_free_at[cell] <= cycle,
            // Edge mode: cells are shareable; only edges are reserved.
            Disjointness::Edge => true,
        }
    }

    /// Whether the step from `cur` to its neighbour `next`, direction
    /// `dir` of the neighbour table, is free at `cycle`.
    #[inline]
    fn step_available(&self, cur: usize, next: usize, dir: usize, cycle: u64) -> bool {
        match self.mode {
            Disjointness::Node => true, // node reservations already forbid reuse
            Disjointness::Edge => {
                let id = step_edge_id(cur, next, dir);
                debug_assert_eq!(id, self.edge_id(cur, next));
                self.edge_free_at[id] <= cycle
            }
        }
    }

    /// Whether a path may *terminate* on `cell` at `cycle`. Tile cells are
    /// exempt from reservation checks — they host the gate's operand
    /// qubits and the scheduler's per-qubit exclusivity covers them — but
    /// a raw channel cell used as an endpoint competes with path interiors
    /// and must respect reservations like any other cell.
    fn endpoint_available(&self, cell: usize, cycle: u64) -> bool {
        !self.grid.is_free(cell) || self.cell_available(cell, cycle)
    }

    /// Finds a shortest conflict-free path between the cells of two tile
    /// slots, usable from `cycle` on. Returns `None` when no such path
    /// exists in the current congestion state.
    ///
    /// The endpoints may be blocked (they host the gate's operand qubits);
    /// interior cells must be channel space or unmapped tile slots.
    ///
    /// # Panics
    ///
    /// Panics if the two slots are equal.
    pub fn find_tile_path(&mut self, from_slot: usize, to_slot: usize, cycle: u64) -> Option<Path> {
        assert_ne!(from_slot, to_slot, "cannot route a tile to itself");
        let from = self.grid.tile_cell(from_slot);
        let to = self.grid.tile_cell(to_slot);
        self.find_cell_path(from, to, cycle)
    }

    /// [`find_tile_path`](Self::find_tile_path) on raw cell indices.
    ///
    /// A* with the Manhattan lower bound: admissible and consistent on the
    /// 4-connected grid, so the first time the target is generated the
    /// path is provably shortest (the parent was expanded with minimal
    /// f = g + h, and h is exactly the remaining-distance bound every
    /// alternative still has to pay). FIFO tie-breaking on equal f keeps
    /// expansion order — and therefore the chosen path among equally short
    /// ones — deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn find_cell_path(&mut self, from: usize, to: usize, cycle: u64) -> Option<Path> {
        assert_ne!(from, to, "cannot route a cell to itself");
        debug_assert!(
            cycle >= self.watermark,
            "searches must use nondecreasing cycles (got {cycle} after {})",
            self.watermark
        );
        self.watermark = cycle;
        // Endpoints on raw channel cells must respect reservations (tile
        // endpoints are exempt — see `endpoint_available`).
        if !self.endpoint_available(from, cycle) || !self.endpoint_available(to, cycle) {
            self.stats.conflicts += 1;
            return None;
        }
        // Reachability cache: if a coloring from earlier in this cycle
        // already proves the endpoints disconnected, the answer is `None`
        // without any flooding — reservations committed since the
        // coloring only removed availability, so the verdict holds.
        if self.region_cycle == Some(cycle) && !self.can_reach(from, to, cycle) {
            self.stats.conflicts += 1;
            self.stats.failed_searches += 1;
            self.stats.cache_hits += 1;
            return None;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visit_epoch.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let target = self.table[to];
        self.visit_epoch[from] = epoch;
        self.g_score[from] = 0;
        let f_lo = self.table[from].distance(&target);
        self.buckets[f_lo].push(u32::try_from(from).expect("grid fits"));
        let mut f_hi = f_lo; // highest bucket touched (for cleanup)
        let mut open_len: u64 = 1; // entries pushed and not yet popped
        let mut found = false;
        let mut f = f_lo;
        'sweep: while f <= f_hi {
            // New entries can land in this same bucket mid-sweep (a step
            // toward the target keeps f constant), so re-check the length
            // every pop; FIFO order within the bucket is the old heap's
            // push-counter tie-break.
            while (self.bucket_head[f] as usize) < self.buckets[f].len() {
                let cur = self.buckets[f][self.bucket_head[f] as usize] as usize;
                self.bucket_head[f] += 1;
                open_len -= 1;
                let g = self.g_score[cur];
                let links = self.table[cur];
                if f != g as usize + links.distance(&target) {
                    continue; // stale entry: the cell was re-queued with a better g
                }
                self.stats.cells_expanded += 1;
                for (dir, next) in links.steps() {
                    if !self.step_available(cur, next, dir, cycle) {
                        continue;
                    }
                    if next == to {
                        self.visit_epoch[next] = epoch;
                        self.parent[next] = cur as u32;
                        found = true;
                        break;
                    }
                    if !self.cell_available(next, cycle) {
                        continue;
                    }
                    let ng = g + 1;
                    if self.visit_epoch[next] == epoch && self.g_score[next] <= ng {
                        continue;
                    }
                    self.visit_epoch[next] = epoch;
                    self.g_score[next] = ng;
                    self.parent[next] = cur as u32;
                    let nf = ng as usize + self.table[next].distance(&target);
                    debug_assert!(nf == f || nf == f + 2, "consistent heuristic: f or f+2");
                    self.buckets[nf].push(next as u32);
                    f_hi = f_hi.max(nf);
                    open_len += 1;
                }
                if found {
                    break 'sweep;
                }
            }
            f += 1;
        }
        // Reset the touched buckets (cheap: the cursor range only).
        for bucket_f in f_lo..=f_hi {
            self.buckets[bucket_f].clear();
            self.bucket_head[bucket_f] = 0;
        }
        if !found {
            self.stats.conflicts += 1;
            self.stats.failed_searches += 1;
            // A cache-missed failure means the coloring is absent or
            // predates the commit that cut this route off — recolor now
            // (one flood, the same order of work the exhausted search
            // just did) so every repeat of this disconnection within the
            // cycle is answered in O(1).
            self.recolor(cycle);
            return None;
        }
        // Everything still in the open buckets is work the heuristic saved.
        self.stats.pruned_expansions += open_len;
        // The target's parent was expanded with its final g, so the path
        // has exactly g + 2 cells: fill them from the back.
        let mut cells = vec![0; self.g_score[self.parent[to] as usize] as usize + 2];
        let mut cur = to;
        for cell in cells.iter_mut().rev() {
            *cell = cur;
            cur = self.parent[cur] as usize;
        }
        debug_assert_eq!(cells[0], from, "the parent chain ends at the source");
        self.stats.paths_found += 1;
        self.stats.path_cells += cells.len() as u64;
        Some(Path { cells })
    }

    /// Recomputes the reachability coloring for `cycle`: a flood fill
    /// assigning every *available* cell (traversable as a path interior
    /// right now) a connected-region id, respecting edge reservations in
    /// edge mode. Costs one pass over the grid, paid only when a search
    /// exhausts its region without a cache hit — uncongested schedules
    /// never trigger it.
    fn recolor(&mut self, cycle: u64) {
        // Allocated on the first recolor: uncongested runs never color.
        self.region.clear();
        self.region.resize(self.grid.len(), 0);
        let mut queue = std::mem::take(&mut self.region_queue);
        let mut next_region: u32 = 0;
        for start in 0..self.grid.len() {
            if self.region[start] != 0 || !self.cell_available(start, cycle) {
                continue;
            }
            next_region += 1;
            self.region[start] = next_region;
            queue.clear();
            queue.push(u32::try_from(start).expect("grid fits"));
            while let Some(cur) = queue.pop() {
                let cur = cur as usize;
                self.stats.recolor_cells += 1;
                for (dir, next) in self.table[cur].steps() {
                    if self.region[next] != 0
                        || !self.step_available(cur, next, dir, cycle)
                        || !self.cell_available(next, cycle)
                    {
                        continue;
                    }
                    self.region[next] = next_region;
                    queue.push(u32::try_from(next).expect("grid fits"));
                }
            }
        }
        self.region_queue = queue;
        self.region_cycle = Some(cycle);
    }

    /// O(1) conservative reachability test against the current coloring
    /// (caller guarantees `region_cycle == Some(cycle)`): `false` only
    /// when *no* path can exist. Endpoints may be reservation-exempt tile
    /// cells, so the test works on their available neighbors: a path
    /// `from, c₁, …, cₖ, to` needs all interior cells in one available
    /// region adjacent to both endpoints. Availability is probed with the
    /// *current* predicates (⊆ the coloring's), so any interior cell that
    /// is usable now already carries a region id — if the endpoint
    /// neighborhoods share no region, the search cannot succeed.
    fn can_reach(&self, from: usize, to: usize, cycle: u64) -> bool {
        // A direct `from → to` hop has no interior; only the edge matters
        // (and the edge must exist — index-adjacency across a seam is no
        // edge, so such pairs fall through to the region test).
        if self.table[from]
            .steps()
            .any(|(dir, next)| next == to && self.step_available(from, to, dir, cycle))
        {
            return true;
        }
        let adjacent_regions = |cell: usize| -> [u32; 4] {
            let mut out = [0u32; 4];
            for (dir, next) in self.table[cell].steps() {
                if self.step_available(cell, next, dir, cycle) && self.cell_available(next, cycle) {
                    debug_assert!(
                        self.region[next] != 0,
                        "available cell must be colored (availability only shrinks in-cycle)"
                    );
                    out[dir] = self.region[next];
                }
            }
            out
        };
        let from_regions = adjacent_regions(from);
        if from_regions == [0; 4] {
            return false;
        }
        let to_regions = adjacent_regions(to);
        to_regions.iter().any(|&region| region != 0 && from_regions.contains(&region))
    }

    /// Reserves a path for `[cycle, cycle + duration)`.
    ///
    /// In node mode the interior cells are reserved; in edge mode the
    /// traversed edges are. Endpoint tile cells are never reserved — the
    /// scheduler's per-qubit exclusivity covers them.
    pub fn commit(&mut self, path: &Path, cycle: u64, duration: u64) {
        debug_assert!(
            cycle >= self.watermark,
            "reservations must start at the current cycle (got {cycle} after {})",
            self.watermark
        );
        self.watermark = cycle;
        if cycle != self.commit_cycle {
            self.stats.peak_cycle_path_cells =
                self.stats.peak_cycle_path_cells.max(self.commit_cells);
            self.commit_cycle = cycle;
            self.commit_cells = 0;
        }
        self.commit_cells += path.cells().len() as u64;
        let until = cycle + duration;
        match self.mode {
            Disjointness::Node => {
                for &cell in path.interior() {
                    self.node_free_at[cell] = self.node_free_at[cell].max(until);
                }
            }
            Disjointness::Edge => {
                for pair in path.cells().windows(2) {
                    let id = self.edge_id(pair[0], pair[1]);
                    self.edge_free_at[id] = self.edge_free_at[id].max(until);
                }
            }
        }
    }

    /// Convenience: find and immediately commit.
    pub fn route_tiles(
        &mut self,
        from_slot: usize,
        to_slot: usize,
        cycle: u64,
        duration: u64,
    ) -> Option<Path> {
        let path = self.find_tile_path(from_slot, to_slot, cycle)?;
        self.commit(&path, cycle, duration);
        Some(path)
    }

    /// Routes one clock cycle's batch of requests, in the order given.
    ///
    /// Equivalent to looping [`find_tile_path`](Self::find_tile_path) +
    /// [`commit`](Self::commit) per request — earlier requests' commits are
    /// visible to later searches, exactly as in sequential routing — but
    /// hands the router the whole cycle at once, so schedulers stop
    /// driving the hot path one gate at a time. Outcomes go into
    /// caller-owned scratch `out` (cleared first, then indexed like
    /// `requests`), so a scheduler's cycle loop allocates nothing; `None`
    /// marks a blocked request.
    pub fn route_ready(
        &mut self,
        requests: &[RouteRequest],
        cycle: u64,
        out: &mut Vec<Option<Path>>,
    ) {
        out.clear();
        out.extend(requests.iter().map(|req| self.route_one(req, cycle)));
    }

    /// [`route_ready`](Self::route_ready), with the router choosing the
    /// order: requests are served shortest-estimated-distance first
    /// (Manhattan between the endpoint tiles, ties in batch order), so a
    /// long greedy path laid down early cannot block several short ones.
    /// Outcomes are still indexed by the *original* request positions; the
    /// ordering permutation lives in router-owned scratch, so steady-state
    /// batches allocate nothing.
    pub fn route_ready_by_distance(
        &mut self,
        requests: &[RouteRequest],
        cycle: u64,
        out: &mut Vec<Option<Path>>,
    ) {
        out.clear();
        out.resize(requests.len(), None);
        let mut order = std::mem::take(&mut self.order_scratch);
        order.clear();
        order.extend(0..u32::try_from(requests.len()).expect("batch fits in u32"));
        // Unstable sort with the original index as tie-break: same order
        // as a stable sort on distance alone, without the stable sort's
        // temporary buffer.
        order.sort_unstable_by_key(|&i| {
            let req = &requests[i as usize];
            (self.estimated_distance(req.from_slot, req.to_slot), i)
        });
        for &i in &order {
            out[i as usize] = self.route_one(&requests[i as usize], cycle);
        }
        self.order_scratch = order;
    }

    /// The Manhattan lower bound on the path length between two tile
    /// slots — the estimate [`route_ready_by_distance`] orders by, also
    /// the A* heuristic.
    ///
    /// [`route_ready_by_distance`]: Self::route_ready_by_distance
    #[must_use]
    pub fn estimated_distance(&self, from_slot: usize, to_slot: usize) -> usize {
        let (from, to) = (self.grid.tile_cell(from_slot), self.grid.tile_cell(to_slot));
        self.table[from].distance(&self.table[to])
    }

    fn route_one(&mut self, req: &RouteRequest, cycle: u64) -> Option<Path> {
        let path = self.find_tile_path(req.from_slot, req.to_slot, cycle)?;
        if req.commit {
            self.commit(&path, cycle, req.hold);
        }
        Some(path)
    }

    /// Drops all reservations (but keeps tile blockages). Used when a
    /// compiler restarts scheduling from cycle 0.
    pub fn clear_reservations(&mut self) {
        self.node_free_at.fill(0);
        self.edge_free_at.fill(0);
        self.watermark = 0;
        // Availability grew: any cached disconnection verdict is void.
        self.region_cycle = None;
    }

    /// Checks that a set of `(path, start, duration)` triples is mutually
    /// conflict-free under `mode` — the independent validity oracle used by
    /// the schedule validator.
    #[must_use]
    pub fn paths_conflict_free(
        grid: &RoutingGrid,
        mode: Disjointness,
        reservations: &[(&Path, u64, u64)],
    ) -> bool {
        for (i, &(pa, sa, da)) in reservations.iter().enumerate() {
            for &(pb, sb, db) in &reservations[i + 1..] {
                let overlap = sa < sb + db && sb < sa + da;
                if !overlap {
                    continue;
                }
                match mode {
                    Disjointness::Node => {
                        // Interior cells must be pairwise disjoint; also no
                        // interior cell may sit on the other path's
                        // endpoint tiles.
                        for &ca in pa.interior() {
                            if pb.cells().contains(&ca) {
                                return false;
                            }
                        }
                        for &cb in pb.interior() {
                            if pa.cells().contains(&cb) {
                                return false;
                            }
                        }
                    }
                    Disjointness::Edge => {
                        let edges = |p: &Path| {
                            p.cells()
                                .windows(2)
                                .map(|w| {
                                    let (lo, hi) = (w[0].min(w[1]), w[0].max(w[1]));
                                    (lo, hi)
                                })
                                .collect::<std::collections::HashSet<_>>()
                        };
                        if !edges(pa).is_disjoint(&edges(pb)) {
                            return false;
                        }
                    }
                }
                let _ = grid;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::{Chip, CodeModel};

    fn router(rows: usize, cols: usize, b: u32, mode: Disjointness) -> Router {
        let chip = Chip::uniform(CodeModel::DoubleDefect, rows, cols, b, 3).unwrap();
        Router::new(chip.grid(), mode)
    }

    #[test]
    fn finds_shortest_path_between_adjacent_tiles() {
        let mut r = router(1, 2, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(1);
        let p = r.find_tile_path(0, 1, 0).expect("path");
        // Tiles at (1,1) and (1,3): shortest path length 2 edges via (1,2).
        assert_eq!(p.len(), 2);
        assert_eq!(p.interior().len(), 1);
    }

    #[test]
    fn cannot_route_through_mapped_tile() {
        // Tiles in a row: 0 — 1 — 2, all mapped. A 1×3 chip's grid is
        // 3 rows tall, so the path 0→2 must detour around tile 1.
        let mut r = router(1, 3, 1, Disjointness::Node);
        for t in 0..3 {
            r.block_tile(t);
        }
        let p = r.find_tile_path(0, 2, 0).expect("path around");
        let mid = r.grid().tile_cell(1);
        assert!(!p.cells().contains(&mid), "path must avoid the mapped middle tile");
        assert!(p.len() > 4, "detour is longer than the straight line");
    }

    #[test]
    fn unmapped_tile_slot_is_routable() {
        let mut r = router(1, 3, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(2);
        // Tile slot 1 unmapped ⇒ the straight path through it is legal.
        let p = r.find_tile_path(0, 2, 0).expect("straight path");
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn node_mode_makes_crossing_paths_detour() {
        // Two gates whose straight paths would cross at the central
        // junction of a 2×2 tile array: 0—3 and 1—2. In node mode the
        // second must detour around the reserved cells (braids cannot
        // cross), so it routes strictly longer than its Manhattan distance.
        let mut r = router(2, 2, 1, Disjointness::Node);
        for t in 0..4 {
            r.block_tile(t);
        }
        let p1 = r.route_tiles(0, 3, 0, 1).expect("first diagonal routes");
        let p2 = r.route_tiles(1, 2, 0, 1).expect("second diagonal detours");
        assert!(p2.len() > 4, "crossing forbidden ⇒ detour, got length {}", p2.len());
        assert!(Router::paths_conflict_free(
            r.grid(),
            Disjointness::Node,
            &[(&p1, 0, 1), (&p2, 0, 1)]
        ));
        // Next cycle the straight route is free again.
        let p3 = r.find_tile_path(1, 2, 1).expect("straight next cycle");
        assert_eq!(p3.len(), 4);
    }

    #[test]
    fn crossing_conflicts_in_node_mode_but_not_edge_mode() {
        // Hand-crafted orthogonal paths sharing exactly the central cell of
        // a 2×2 array's junction: a braid conflict, a legal EDP crossing.
        let r = router(2, 2, 1, Disjointness::Node);
        let g = r.grid();
        let vertical = Path::from_cells(g, vec![g.index(1, 2), g.index(2, 2), g.index(3, 2)]);
        let horizontal = Path::from_cells(g, vec![g.index(2, 1), g.index(2, 2), g.index(2, 3)]);
        assert!(!Router::paths_conflict_free(
            g,
            Disjointness::Node,
            &[(&vertical, 0, 1), (&horizontal, 0, 1)]
        ));
        assert!(Router::paths_conflict_free(
            g,
            Disjointness::Edge,
            &[(&vertical, 0, 1), (&horizontal, 0, 1)]
        ));
    }

    #[test]
    #[should_panic(expected = "not grid-adjacent")]
    fn from_cells_rejects_row_wrap_neighbors() {
        // End of row 1 and start of row 2 are one apart in index space but
        // share no grid edge — the aliasing pair the old edge-id scheme
        // silently accepted.
        let r = router(1, 2, 1, Disjointness::Edge);
        let g = r.grid();
        let last = g.index(1, g.cols() - 1);
        let wrapped = g.index(2, 0);
        assert_eq!(wrapped - last, 1, "the wrap pair is index-adjacent");
        let _ = Path::from_cells(g, vec![last, wrapped]);
    }

    #[test]
    #[should_panic(expected = "not grid-adjacent")]
    fn committing_a_wrap_pair_panics_instead_of_aliasing() {
        let mut r = router(1, 2, 1, Disjointness::Edge);
        let g = r.grid();
        let last = g.index(1, g.cols() - 1);
        let wrapped = g.index(2, 0);
        let bogus = Path::from_cells_unchecked(vec![last, wrapped]);
        r.commit(&bogus, 0, 1);
    }

    #[test]
    fn channel_exhaustion_fails_the_route() {
        // A 1×2 tile chip has exactly three node-disjoint 0–1 routes
        // (straight, over the top, under the bottom). A fourth request in
        // the same cycle must fail: every crossing of the middle column is
        // reserved.
        let mut r = router(1, 2, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(1);
        for k in 0..3 {
            assert!(r.route_tiles(0, 1, 0, 1).is_some(), "route {k} fits");
        }
        assert!(r.find_tile_path(0, 1, 0).is_none(), "fourth route must fail");
        assert!(r.find_tile_path(0, 1, 1).is_some(), "free next cycle");
    }

    #[test]
    fn edge_mode_allows_crossing_paths() {
        let mut r = router(2, 2, 1, Disjointness::Edge);
        for t in 0..4 {
            r.block_tile(t);
        }
        let p1 = r.route_tiles(0, 3, 0, 1).expect("first diagonal");
        let p2 = r.find_tile_path(1, 2, 0).expect("crossing allowed in edge mode");
        assert!(Router::paths_conflict_free(
            r.grid(),
            Disjointness::Edge,
            &[(&p1, 0, 1), (&p2, 0, 1)]
        ));
    }

    #[test]
    fn bandwidth_two_fits_parallel_paths() {
        // With bandwidth 2 the central channels have two lanes, so both
        // diagonals of a 2×2 array route simultaneously even in node mode.
        let mut r = router(2, 2, 2, Disjointness::Node);
        for t in 0..4 {
            r.block_tile(t);
        }
        let p1 = r.route_tiles(0, 3, 0, 1).expect("first diagonal");
        let p2 = r.route_tiles(1, 2, 0, 1).expect("second diagonal via spare lane");
        assert!(Router::paths_conflict_free(
            r.grid(),
            Disjointness::Node,
            &[(&p1, 0, 1), (&p2, 0, 1)]
        ));
    }

    #[test]
    fn duration_blocks_future_cycles() {
        let mut r = router(1, 2, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(1);
        let p = r.find_tile_path(0, 1, 0).expect("path");
        r.commit(&p, 0, 2);
        // The straight lane cell is reserved for cycles 0 and 1; another
        // path exists via the boundary lanes, but the straight one is out.
        let p2 = r.find_tile_path(0, 1, 1).expect("detour");
        assert!(p2.len() > p.len());
        // At cycle 2 the straight path is free again.
        let p3 = r.find_tile_path(0, 1, 2).expect("straight again");
        assert_eq!(p3.len(), p.len());
    }

    #[test]
    fn clear_reservations_resets_state() {
        let mut r = router(1, 2, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(1);
        let p = r.route_tiles(0, 1, 0, 100).expect("path");
        r.clear_reservations();
        let p2 = r.find_tile_path(0, 1, 0).expect("path after clear");
        assert_eq!(p.len(), p2.len());
    }

    #[test]
    fn conflict_checker_flags_shared_interior() {
        let mut r = router(2, 2, 1, Disjointness::Node);
        for t in 0..4 {
            r.block_tile(t);
        }
        let p1 = r.find_tile_path(0, 3, 0).expect("path");
        // Same path twice at the same cycle conflicts in node mode...
        assert!(!Router::paths_conflict_free(
            r.grid(),
            Disjointness::Node,
            &[(&p1, 0, 1), (&p1, 0, 1)]
        ));
        // ...but not when the cycles differ.
        assert!(Router::paths_conflict_free(
            r.grid(),
            Disjointness::Node,
            &[(&p1, 0, 1), (&p1, 1, 1)]
        ));
    }

    #[test]
    fn stats_count_finds_conflicts_and_effort() {
        let mut r = router(1, 2, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(1);
        for _ in 0..3 {
            assert!(r.route_tiles(0, 1, 0, 1).is_some());
        }
        assert!(r.find_tile_path(0, 1, 0).is_none(), "saturated");
        let s = r.stats();
        assert_eq!(s.paths_found, 3);
        assert_eq!(s.conflicts, 1);
        assert!(s.cells_expanded >= 4, "every search expands at least the source");
        assert!(s.path_cells >= 3 * 3, "three paths of ≥3 cells each");
        r.reset_stats();
        assert_eq!(r.stats(), RouterStats::default());
        let merged = s.merged(s);
        assert_eq!(merged.paths_found, 6);
        assert_eq!(merged.conflicts, 2);
        assert_eq!(merged.pruned_expansions, 2 * s.pruned_expansions);
    }

    #[test]
    fn failed_searches_hit_the_reachability_cache_within_a_cycle() {
        // Saturate the single 0–1 channel column, then fail repeatedly in
        // the same cycle: the first failure floods and colors, the rest
        // are O(1) cache hits with no further expansions.
        let mut r = router(1, 2, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(1);
        for _ in 0..3 {
            assert!(r.route_tiles(0, 1, 0, 1).is_some());
        }
        assert!(r.find_tile_path(0, 1, 0).is_none(), "saturated");
        let after_first = r.stats();
        assert_eq!(after_first.failed_searches, 1);
        assert_eq!(after_first.cache_hits, 0, "the first failure floods");
        assert!(after_first.recolor_cells > 0, "the first failure colors the regions");
        for _ in 0..5 {
            assert!(r.find_tile_path(0, 1, 0).is_none());
        }
        let s = r.stats();
        assert_eq!(s.failed_searches, 6);
        assert_eq!(s.cache_hits, 5, "every repeat is answered by the cache");
        assert_eq!(s.cells_expanded, after_first.cells_expanded, "cache hits expand nothing");
        assert_eq!(s.recolor_cells, after_first.recolor_cells, "cache hits do not recolor");
        // Conflicts still counts every failure, as before.
        assert_eq!(s.conflicts, 6);
    }

    #[test]
    fn reachability_cache_expires_when_the_cycle_advances() {
        let mut r = router(1, 2, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(1);
        for _ in 0..3 {
            assert!(r.route_tiles(0, 1, 0, 1).is_some());
        }
        assert!(r.find_tile_path(0, 1, 0).is_none());
        assert!(r.find_tile_path(0, 1, 0).is_none());
        assert_eq!(r.stats().cache_hits, 1);
        // Reservations expired: the stale "disconnected" verdict must not
        // leak into cycle 1.
        assert!(r.find_tile_path(0, 1, 1).is_some(), "free again at cycle 1");
    }

    #[test]
    fn reachability_cache_is_refreshed_by_mid_cycle_commits() {
        // A genuine mid-cycle region *split*: fail once so a coloring is
        // taken, then commit a wall that cuts the colored region in two.
        // The next failure's endpoints look connected under the stale
        // coloring (a miss — the search floods and recolors), and only
        // the repeat is a cache hit. On a 1×3 chip the free cells form a
        // ring around the tile row; a committed hook whose interior
        // covers one full column severs it.
        let mut r = router(1, 3, 1, Disjointness::Node);
        for t in 0..3 {
            r.block_tile(t);
        }
        let g = r.grid().clone();
        // Hook paths: interior = the 3 cells of the given column.
        let wall = |col: usize| {
            Path::from_cells(
                &g,
                vec![
                    g.index(0, col - 1),
                    g.index(0, col),
                    g.index(1, col),
                    g.index(2, col),
                    g.index(2, col - 1),
                ],
            )
        };
        r.commit(&wall(4), 0, 1);
        assert!(r.find_tile_path(0, 2, 0).is_none(), "column-4 wall separates 0 from 2");
        assert_eq!(r.stats().cache_hits, 0, "first failure floods and colors");
        r.commit(&wall(2), 0, 1);
        assert!(r.find_tile_path(0, 1, 0).is_none(), "column-2 wall separates 0 from 1");
        assert_eq!(
            r.stats().cache_hits,
            0,
            "the 0-1 split postdates the coloring: a miss that re-floods"
        );
        assert!(r.find_tile_path(0, 1, 0).is_none());
        assert_eq!(r.stats().cache_hits, 1, "the miss recolored, so the repeat hits");
    }

    #[test]
    fn clear_reservations_invalidates_the_reachability_cache() {
        let mut r = router(1, 2, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(1);
        for _ in 0..3 {
            assert!(r.route_tiles(0, 1, 0, 1).is_some());
        }
        assert!(r.find_tile_path(0, 1, 0).is_none());
        r.clear_reservations();
        assert!(r.find_tile_path(0, 1, 0).is_some(), "cleared reservations must re-route");
    }

    #[test]
    fn unblocking_a_tile_invalidates_the_reachability_cache() {
        // Tiles 0,1,2 in a row, middle mapped. Hand-committed top and
        // bottom detours (deterministic geometry, unlike router-chosen
        // paths) saturate every 0→2 route around the middle tile; then
        // unmapping it opens the straight lane, and the stale
        // "disconnected" coloring must not answer `None`.
        let mut r = router(1, 3, 1, Disjointness::Node);
        for t in 0..3 {
            r.block_tile(t);
        }
        let g = r.grid().clone();
        let over = Path::from_cells(&g, (0..=6).map(|c| g.index(0, c)).collect());
        let under = Path::from_cells(&g, (0..=6).map(|c| g.index(2, c)).collect());
        r.commit(&over, 0, 1);
        r.commit(&under, 0, 1);
        assert!(r.find_tile_path(0, 2, 0).is_none(), "both detour rows reserved");
        assert!(r.find_tile_path(0, 2, 0).is_none());
        assert_eq!(r.stats().cache_hits, 1, "the repeat hits the cache");
        r.unblock_tile(1);
        let p = r.find_tile_path(0, 2, 0).expect("unmapped slot opens the straight lane");
        assert_eq!(p.len(), 4, "straight through the unmapped middle slot");
    }

    #[test]
    fn route_ready_clears_stale_outcomes() {
        let reqs =
            [RouteRequest::route(0, 3, 1), RouteRequest::probe(1, 2), RouteRequest::route(1, 2, 1)];
        for by_distance in [false, true] {
            let run = |out: &mut Vec<Option<Path>>| {
                let mut r = router(2, 2, 1, Disjointness::Node);
                for t in 0..4 {
                    r.block_tile(t);
                }
                if by_distance {
                    r.route_ready_by_distance(&reqs, 0, out);
                } else {
                    r.route_ready(&reqs, 0, out);
                }
            };
            let (mut stale, mut fresh) = (vec![None; 17], Vec::new());
            run(&mut stale);
            run(&mut fresh);
            assert_eq!(stale, fresh, "by_distance={by_distance}");
        }
    }

    #[test]
    fn astar_expands_no_more_than_the_grid_and_prunes_on_detours() {
        // On an open 3×3 array, a corner-to-corner route leaves off-path
        // frontier entries unexpanded: the heuristic must prune something.
        let mut r = router(3, 3, 1, Disjointness::Node);
        r.block_tile(0);
        r.block_tile(8);
        let p = r.find_tile_path(0, 8, 0).expect("path");
        let s = r.stats();
        assert_eq!(p.len(), r.estimated_distance(0, 8), "uncongested ⇒ Manhattan-optimal");
        assert!(s.pruned_expansions > 0, "open frontier left behind");
        assert!(
            s.cells_expanded < r.grid().len() as u64,
            "A* must not expand the whole grid on an uncongested search"
        );
    }

    #[test]
    fn saturated_channel_recovers_next_cycle() {
        let mut r = router(3, 3, 1, Disjointness::Node);
        for t in 0..9 {
            r.block_tile(t);
        }
        // Route many gates in cycle 0 until saturation, then confirm
        // cycle 1 works again.
        let got0 = r.route_tiles(0, 8, 0, 1).is_some();
        assert!(got0);
        let mut failures = 0;
        for (a, b) in [(1, 7), (2, 6), (3, 5)] {
            if r.route_tiles(a, b, 0, 1).is_none() {
                failures += 1;
            }
        }
        // At bandwidth 1 not all of these fit simultaneously.
        assert!(failures > 0, "bandwidth-1 chip should congest");
        assert!(r.find_tile_path(1, 7, 1).is_some(), "free again at cycle 1");
    }

    #[test]
    fn free_cell_target_respects_reservations() {
        // Route 0→3 through the central junction, then ask for a path
        // *ending on* that reserved junction cell in the same cycle: the
        // old BFS early exit skipped the availability check and happily
        // terminated on another path's cell.
        let mut r = router(2, 2, 1, Disjointness::Node);
        for t in 0..4 {
            r.block_tile(t);
        }
        let center = r.grid().index(2, 2);
        let p1 = r.route_tiles(0, 3, 0, 1).expect("diagonal");
        assert!(p1.cells().contains(&center), "the diagonal uses the junction");
        let start = r.grid().tile_cell(1);
        assert!(
            r.find_cell_path(start, center, 0).is_none(),
            "a reserved channel cell must not terminate a node-mode path"
        );
        // Tile endpoints stay exempt: routing to the (blocked) tile 2 from
        // tile 1 is still legal this cycle if a clear route exists.
        assert!(r.find_tile_path(1, 2, 0).is_some(), "tile targets keep the exemption");
        // And the channel cell is a fine target again once the hold ends.
        let p2 = r.find_cell_path(start, center, 1).expect("free next cycle");
        assert_eq!(*p2.cells().last().unwrap(), center);
    }

    #[test]
    fn free_cell_target_conflicts_count_and_validate() {
        // The regression promised in the issue: with the target check in
        // place, node-mode cell routes never produce conflicting paths.
        let mut r = router(2, 2, 1, Disjointness::Node);
        for t in 0..4 {
            r.block_tile(t);
        }
        let center = r.grid().index(2, 2);
        let p1 = r.route_tiles(0, 3, 0, 1).expect("diagonal");
        let start = r.grid().tile_cell(1);
        let before = r.stats().conflicts;
        assert!(r.find_cell_path(start, center, 0).is_none());
        assert_eq!(r.stats().conflicts, before + 1, "the blocked target is a conflict");
        // Next cycle's path to the same cell coexists with the first
        // path's one-cycle reservation.
        let p2 = r.find_cell_path(start, center, 1).expect("path");
        assert!(Router::paths_conflict_free(
            r.grid(),
            Disjointness::Node,
            &[(&p1, 0, 1), (&p2, 1, 1)]
        ));
    }

    #[test]
    fn route_ready_matches_sequential_routing() {
        let reqs = [
            RouteRequest::route(0, 3, 1),
            RouteRequest::probe(1, 2),
            RouteRequest::route(1, 2, 1),
            RouteRequest::route(2, 1, 1),
        ];
        let mut batched = router(2, 2, 1, Disjointness::Node);
        let mut sequential = router(2, 2, 1, Disjointness::Node);
        for t in 0..4 {
            batched.block_tile(t);
            sequential.block_tile(t);
        }
        let mut got = Vec::new();
        batched.route_ready(&reqs, 0, &mut got);
        let want: Vec<Option<Path>> = reqs
            .iter()
            .map(|req| {
                let p = sequential.find_tile_path(req.from_slot, req.to_slot, 0)?;
                if req.commit {
                    sequential.commit(&p, 0, req.hold);
                }
                Some(p)
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(batched.stats(), sequential.stats());
        // The probe reserved nothing; the commit right after it did.
        assert!(got[1].is_some() && got[2].is_some());
    }

    #[test]
    fn route_ready_by_distance_serves_short_requests_first() {
        // On a 1×3 row with tiles 0,1,2 mapped, the long 0→2 request
        // hogs a boundary lane if served first. Distance ordering routes
        // the short 0→1 and 1→2 pairs before it.
        let mut r = router(1, 3, 1, Disjointness::Node);
        for t in 0..3 {
            r.block_tile(t);
        }
        let reqs = [
            RouteRequest::route(0, 2, 1),
            RouteRequest::route(0, 1, 1),
            RouteRequest::route(1, 2, 1),
        ];
        let mut out = Vec::new();
        r.route_ready_by_distance(&reqs, 0, &mut out);
        let short01 = out[1].as_ref().expect("short pair routes");
        let short12 = out[2].as_ref().expect("short pair routes");
        assert_eq!(short01.len(), 2, "served before the long request could block it");
        assert_eq!(short12.len(), 2, "served before the long request could block it");
        // Outcomes are reported at the original positions.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn astar_paths_are_as_short_as_bfs_on_congested_grids() {
        // Deterministic congestion sweep: commit a few paths, then check
        // every remaining pair against a reference BFS run on a clone.
        for mode in [Disjointness::Node, Disjointness::Edge] {
            let mut r = router(3, 3, 1, mode);
            for t in 0..9 {
                r.block_tile(t);
            }
            r.route_tiles(0, 8, 0, 1);
            r.route_tiles(2, 6, 0, 1);
            for (a, b) in [(1, 7), (3, 5), (0, 4), (4, 8), (1, 5), (3, 7)] {
                let bfs_len = reference_bfs_len(&r, a, b, 0);
                let astar = r.clone().find_tile_path(a, b, 0).map(|p| p.len());
                assert_eq!(astar, bfs_len, "{mode:?} {a}->{b}");
            }
        }
    }

    /// Reference shortest-path oracle: plain BFS over the router's own
    /// availability predicates (clone-probed, so no reservations change).
    fn reference_bfs_len(
        r: &Router,
        from_slot: usize,
        to_slot: usize,
        cycle: u64,
    ) -> Option<usize> {
        let grid = r.grid();
        let (from, to) = (grid.tile_cell(from_slot), grid.tile_cell(to_slot));
        if !r.endpoint_available(from, cycle) || !r.endpoint_available(to, cycle) {
            return None;
        }
        let mut dist = vec![usize::MAX; grid.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[from] = 0;
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            for next in grid.neighbors(cur) {
                let edge_free = match r.mode {
                    Disjointness::Node => true,
                    Disjointness::Edge => r.edge_free_at[r.edge_id(cur, next)] <= cycle,
                };
                if dist[next] != usize::MAX || !edge_free {
                    continue;
                }
                if next == to {
                    return Some(dist[cur] + 1);
                }
                if !r.cell_available(next, cycle) {
                    continue;
                }
                dist[next] = dist[cur] + 1;
                queue.push_back(next);
            }
        }
        None
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use ecmas_chip::{Chip, CodeModel};

    /// Chips covering every adjacency special case: bandwidth-0 seams in
    /// both orientations, defective tiles, and 1×1, 1×N and N×1 arrays.
    fn adjacency_chips() -> Vec<Chip> {
        let uniform =
            |rows, cols, b| Chip::uniform(CodeModel::DoubleDefect, rows, cols, b, 3).unwrap();
        let mut seams = uniform(3, 4, 2);
        seams.set_h_bandwidth(1, 0).unwrap();
        seams.set_v_bandwidth(2, 0).unwrap();
        seams.add_defect(2, 3).unwrap();
        let mut row_seams = uniform(1, 5, 1);
        row_seams.set_v_bandwidth(1, 0).unwrap();
        row_seams.set_v_bandwidth(2, 0).unwrap();
        let mut col_seams = uniform(4, 1, 3);
        col_seams.set_h_bandwidth(2, 0).unwrap();
        vec![
            uniform(1, 1, 1),
            uniform(1, 6, 1),
            uniform(6, 1, 2),
            uniform(3, 3, 1).with_defects(&[(0, 0), (1, 1), (2, 2)]).unwrap(),
            seams,
            row_seams,
            col_seams,
        ]
    }

    #[test]
    fn table_matches_the_grid_adjacency_and_coordinates() {
        for chip in adjacency_chips() {
            let grid = chip.grid();
            let r = Router::new(grid.clone(), Disjointness::Node);
            assert_eq!(r.table.len(), grid.len());
            for (cell, links) in r.table.iter().enumerate() {
                let adj = grid.neighbors4(cell).map(|n| n.map_or(NO_CELL, |n| n as u32));
                assert_eq!(links.adj, adj, "cell {cell} of {chip:?}");
                let (row, col) = grid.coords(cell);
                assert_eq!((links.row as usize, links.col as usize), (row, col));
                assert!(r.table[cell].steps().map(|(_, next)| next).eq(grid.neighbors(cell)));
            }
            for (a, b) in [(0, grid.len() - 1), (grid.len() / 2, 1), (3, 3)] {
                let (a, b) = (a % grid.len(), b % grid.len());
                assert_eq!(r.table[a].distance(&r.table[b]), grid.manhattan(a, b));
            }
        }
    }

    #[test]
    fn direction_edge_ids_match_edge_id_in_both_modes() {
        for chip in adjacency_chips() {
            for mode in [Disjointness::Node, Disjointness::Edge] {
                let r = Router::new(chip.grid(), mode);
                let mut steps = 0;
                let mut ids = std::collections::BTreeSet::new();
                for cell in 0..r.grid().len() {
                    for (dir, next) in r.table[cell].steps() {
                        let id = step_edge_id(cell, next, dir);
                        assert_eq!(id, r.edge_id(cell, next), "cell {cell} dir {dir} {mode:?}");
                        ids.insert(id);
                        steps += 1;
                    }
                }
                // Each edge has one id, reached once from either end.
                assert!(steps > 0);
                assert_eq!(2 * ids.len(), steps);
            }
        }
    }
}

#[cfg(test)]
mod edp_tests {
    use super::*;
    use ecmas_chip::{Chip, CodeModel};

    fn ls_router(rows: usize, cols: usize, b: u32) -> Router {
        let chip = Chip::uniform(CodeModel::LatticeSurgery, rows, cols, b, 3).unwrap();
        Router::new(chip.grid(), Disjointness::Edge)
    }

    #[test]
    fn edge_mode_shares_cells_but_not_edges() {
        let mut r = ls_router(1, 3, 1);
        for t in 0..3 {
            r.block_tile(t);
        }
        // Route 0→1 straight; its edges are used, but the lane cells stay
        // shareable for a perpendicular crossing.
        let p = r.route_tiles(0, 1, 0, 1).expect("straight");
        assert_eq!(p.len(), 2);
        // Re-routing the same pair in the same cycle must avoid the used
        // edges (detour via another row).
        let p2 = r.route_tiles(0, 1, 0, 1).expect("detour exists");
        assert!(p2.len() > p.len());
    }

    #[test]
    fn edge_reservations_expire() {
        let mut r = ls_router(1, 2, 1);
        r.block_tile(0);
        r.block_tile(1);
        let p = r.route_tiles(0, 1, 0, 1).expect("path");
        let p_next = r.find_tile_path(0, 1, 1).expect("next cycle free");
        assert_eq!(p.len(), p_next.len());
    }

    #[test]
    fn mapped_tiles_block_edge_mode_interiors_too() {
        let mut r = ls_router(1, 3, 1);
        for t in 0..3 {
            r.block_tile(t);
        }
        let p = r.find_tile_path(0, 2, 0).expect("path");
        let mid = r.grid().tile_cell(1);
        assert!(!p.cells().contains(&mid));
    }

    #[test]
    fn path_accessors_are_consistent() {
        let mut r = ls_router(2, 2, 1);
        r.block_tile(0);
        r.block_tile(3);
        let p = r.find_tile_path(0, 3, 0).expect("path");
        assert_eq!(p.cells().len(), p.len() + 1);
        assert_eq!(p.interior().len(), p.cells().len() - 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn find_does_not_commit() {
        let mut r = ls_router(1, 2, 1);
        r.block_tile(0);
        r.block_tile(1);
        let a = r.find_tile_path(0, 1, 0).expect("a");
        let b = r.find_tile_path(0, 1, 0).expect("b");
        assert_eq!(a, b, "find_tile_path must not reserve anything");
    }

    #[test]
    fn dead_tiles_are_blocked_at_construction() {
        // Tiles in a row: 0 — X — 2; the dead middle tile must force the
        // same detour a mapped tile would, without any block_tile call.
        let chip = Chip::uniform(CodeModel::DoubleDefect, 1, 3, 1, 3)
            .unwrap()
            .with_defects(&[(0, 1)])
            .unwrap();
        let mut r = Router::new(chip.grid(), Disjointness::Node);
        let mid = r.grid().tile_cell(1);
        assert!(r.is_blocked(mid), "dead cell blocked from birth");
        r.block_tile(0);
        r.block_tile(2);
        let p = r.find_tile_path(0, 2, 0).expect("path around the dead tile");
        assert!(!p.cells().contains(&mid));
        assert!(p.len() > 4, "detour is longer than the straight line");
    }

    #[test]
    fn unblock_tile_does_not_resurrect_dead_cells() {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 1, 3, 1, 3)
            .unwrap()
            .with_defects(&[(0, 1)])
            .unwrap();
        let mut r = Router::new(chip.grid(), Disjointness::Node);
        let mid = r.grid().tile_cell(1);
        r.block_tile(1);
        r.unblock_tile(1);
        assert!(r.is_blocked(mid), "a dead tile stays blocked after unblock");
        r.unblock_tile(0);
        assert!(!r.is_blocked(r.grid().tile_cell(0)), "live tiles unblock normally");
    }

    #[test]
    fn peak_cycle_path_cells_tracks_the_busiest_cycle() {
        // Two disjoint pairs routed in cycle 0, one pair in cycle 1.
        let chip = Chip::uniform(CodeModel::DoubleDefect, 1, 4, 1, 3).unwrap();
        let mut r = Router::new(chip.grid(), Disjointness::Node);
        for t in 0..4 {
            r.block_tile(t);
        }
        let a = r.route_tiles(0, 1, 0, 1).expect("a");
        let b = r.route_tiles(2, 3, 0, 1).expect("b");
        let cycle0 = (a.cells().len() + b.cells().len()) as u64;
        assert_eq!(r.stats().peak_cycle_path_cells, cycle0);
        let c = r.route_tiles(0, 1, 1, 1).expect("c");
        assert!((c.cells().len() as u64) < cycle0);
        assert_eq!(r.stats().peak_cycle_path_cells, cycle0, "cycle 1 is quieter");
        // Probes must not move the peak.
        let before = r.stats().peak_cycle_path_cells;
        r.find_tile_path(2, 3, 1).expect("probe");
        assert_eq!(r.stats().peak_cycle_path_cells, before);
        // merged() takes the max of peaks, not the sum.
        let merged =
            r.stats().merged(RouterStats { peak_cycle_path_cells: 1, ..RouterStats::default() });
        assert_eq!(merged.peak_cycle_path_cells, cycle0);
    }
}
