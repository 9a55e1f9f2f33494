//! The encoded-circuit representation and its independent validator.
//!
//! Every compiler in the workspace emits an [`EncodedCircuit`]; the
//! [`validate_encoded`] oracle re-checks all of the paper's §III
//! constraints against the original circuit and chip, so no scheduler can
//! silently produce an illegal schedule with a flattering cycle count.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{Circuit, GateDag, GateId};
use ecmas_route::{Disjointness, Path};

use crate::cut::CutType;
use crate::diag::{Code, Diagnostic};

/// What a scheduled event physically does on the chip.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A one-cycle braiding operation between tiles of different cut types
    /// (double defect).
    Braid {
        /// The braiding path (tile cell → … → tile cell).
        path: Path,
    },
    /// A three-cycle direct CNOT between tiles of the *same* cut type via
    /// the in-tile ancilla (Fig. 3a). The inter-tile path is held for the
    /// first two cycles.
    DirectSameCut {
        /// The braiding path used by the two inter-tile braids.
        path: Path,
    },
    /// A one-cycle lattice-surgery CNOT through a Bell-state ancilla chain
    /// (Fig. 4).
    LatticeCnot {
        /// The ancilla-tile path.
        path: Path,
    },
    /// A three-cycle cut-type modification of one tile (Fig. 3b); the tile
    /// is busy but no channel is used.
    CutModification {
        /// The logical qubit whose tile flips cut type.
        qubit: usize,
    },
}

impl EventKind {
    /// Total latency of the event in clock cycles.
    #[must_use]
    #[inline]
    pub fn duration(&self) -> u64 {
        match self {
            EventKind::Braid { .. } | EventKind::LatticeCnot { .. } => 1,
            EventKind::DirectSameCut { .. } | EventKind::CutModification { .. } => 3,
        }
    }

    /// How many cycles (from the start) the event's path is held.
    #[must_use]
    #[inline]
    pub fn path_hold(&self) -> u64 {
        match self {
            EventKind::Braid { .. } | EventKind::LatticeCnot { .. } => 1,
            EventKind::DirectSameCut { .. } => 2,
            EventKind::CutModification { .. } => 0,
        }
    }

    /// The event's path, if it uses one.
    #[must_use]
    #[inline]
    pub fn path(&self) -> Option<&Path> {
        match self {
            EventKind::Braid { path }
            | EventKind::DirectSameCut { path }
            | EventKind::LatticeCnot { path } => Some(path),
            EventKind::CutModification { .. } => None,
        }
    }
}

/// One scheduled operation of the encoded circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// The CNOT this event implements, or `None` for cut modifications.
    pub gate: Option<GateId>,
    /// Start cycle (0-based).
    pub start: u64,
    /// The physical operation.
    pub kind: EventKind,
}

impl Event {
    /// First cycle after the event completes.
    #[must_use]
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.kind.duration()
    }
}

/// The output of a surface-code compiler: an initial mapping plus a
/// conflict-free, dependency-respecting schedule of events. The paper's
/// objective is the cycle count Δ ([`cycles`](Self::cycles)).
#[derive(Clone, Debug)]
pub struct EncodedCircuit {
    chip: Arc<Chip>,
    mapping: Vec<usize>,
    initial_cuts: Option<Vec<CutType>>,
    events: Vec<Event>,
    cycles: u64,
}

impl EncodedCircuit {
    /// Assembles an encoded circuit; Δ is the max event end.
    ///
    /// `mapping[q]` is the tile slot of logical qubit `q`;
    /// `initial_cuts` must be `Some` for the double-defect model. The chip
    /// is shared, so a compilation carries one `Arc<Chip>` from the
    /// session into the result.
    #[must_use]
    pub fn new(
        chip: Arc<Chip>,
        mapping: Vec<usize>,
        initial_cuts: Option<Vec<CutType>>,
        events: Vec<Event>,
    ) -> Self {
        let cycles = events.iter().map(Event::end).max().unwrap_or(0);
        EncodedCircuit { chip, mapping, initial_cuts, events, cycles }
    }

    /// The chip the schedule targets.
    #[must_use]
    pub fn chip(&self) -> &Chip {
        self.chip.as_ref()
    }

    /// Tile slot of each logical qubit.
    #[must_use]
    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// Initial cut types (double defect only).
    #[must_use]
    pub fn initial_cuts(&self) -> Option<&[CutType]> {
        self.initial_cuts.as_deref()
    }

    /// The schedule, sorted by start cycle.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The cycle count Δ — the paper's objective.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of cut-modification events (a diagnostic for the ablations).
    #[must_use]
    pub fn modification_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::CutModification { .. })).count()
    }
}

/// A violation found by [`validate_encoded`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ValidateError {
    /// A DAG gate is missing from the schedule or scheduled twice.
    GateCoverage {
        /// The gate in question.
        gate: GateId,
        /// How many times it was scheduled.
        times: usize,
    },
    /// A gate started before one of its DAG parents finished.
    DependencyOrder {
        /// The early gate.
        gate: GateId,
        /// The violated parent.
        parent: GateId,
    },
    /// Two events overlap on the same logical qubit.
    QubitOverlap {
        /// The shared qubit.
        qubit: usize,
    },
    /// A braid ran between equal cut types, or a direct-same-cut CNOT
    /// between different ones.
    CutTypeRule {
        /// The offending gate.
        gate: GateId,
    },
    /// A path is structurally invalid (non-adjacent steps, wrong endpoints,
    /// an interior cell on a mapped tile, or any cell on a defective tile).
    MalformedPath {
        /// The offending gate.
        gate: GateId,
    },
    /// Two simultaneous paths violate the model's disjointness rule.
    PathConflict {
        /// The clock cycle of the conflict.
        cycle: u64,
    },
    /// The event kind does not match the chip's code model.
    WrongModel,
    /// Mapping is malformed (slot out of range, reused, or defective).
    BadMapping,
    /// Per-cycle per-channel bandwidth conservation violated: more
    /// concurrent paths through one channel section than the channel has
    /// lanes. A disabled (bandwidth-0) channel has no lanes at all, so
    /// any path crossing its seam at a tile row/col trips this.
    ChannelOversubscribed {
        /// `true` for a horizontal channel, `false` for a vertical one.
        horizontal: bool,
        /// The channel's index within its orientation.
        channel: usize,
        /// The first cycle at which usage exceeds capacity.
        cycle: u64,
        /// Concurrent paths through the section at that cycle.
        used: u32,
        /// The channel's bandwidth (its lane count).
        capacity: u32,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidateError::GateCoverage { gate, times } => {
                write!(f, "gate {gate} scheduled {times} times (expected exactly once)")
            }
            ValidateError::DependencyOrder { gate, parent } => {
                write!(f, "gate {gate} starts before its parent {parent} completes")
            }
            ValidateError::QubitOverlap { qubit } => {
                write!(f, "two events overlap on qubit {qubit}")
            }
            ValidateError::CutTypeRule { gate } => {
                write!(f, "gate {gate} violates the cut-type rule for its event kind")
            }
            ValidateError::MalformedPath { gate } => write!(f, "gate {gate} has a malformed path"),
            ValidateError::PathConflict { cycle } => {
                write!(f, "two paths conflict at cycle {cycle}")
            }
            ValidateError::WrongModel => write!(f, "event kind does not match the code model"),
            ValidateError::BadMapping => {
                write!(f, "mapping reuses, overflows, or lands on defective tile slots")
            }
            ValidateError::ChannelOversubscribed { horizontal, channel, cycle, used, capacity } => {
                let orient = if horizontal { "h" } else { "v" };
                write!(
                    f,
                    "{orient}-channel {channel} oversubscribed at cycle {cycle}: \
                     {used} concurrent paths on bandwidth {capacity}"
                )
            }
        }
    }
}

impl Error for ValidateError {}

impl ValidateError {
    /// The stable diagnostic code this violation reports under.
    #[must_use]
    pub fn code(&self) -> Code {
        match self {
            ValidateError::GateCoverage { .. } => Code::GateCoverage,
            ValidateError::DependencyOrder { .. } => Code::DependencyOrder,
            ValidateError::QubitOverlap { .. } => Code::QubitOverlap,
            ValidateError::CutTypeRule { .. } => Code::CutTypeRule,
            ValidateError::MalformedPath { .. } => Code::MalformedPath,
            ValidateError::PathConflict { .. } => Code::PathConflict,
            ValidateError::WrongModel => Code::WrongModel,
            ValidateError::BadMapping => Code::BadMapping,
            ValidateError::ChannelOversubscribed { .. } => Code::ChannelOversubscribed,
        }
    }

    /// This violation as a coded [`Diagnostic`].
    #[must_use]
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::new(self.code(), self.to_string())
    }
}

/// Independently checks every constraint the paper places on an encoded
/// circuit (§III) and returns **every** violation found: complete gate
/// coverage, topological order, per-qubit exclusivity, cut-type legality
/// of each event kind, structural path validity, per-cycle path
/// disjointness (node-disjoint for double defect, edge-disjoint for
/// lattice surgery), and per-cycle per-channel bandwidth conservation.
///
/// The returned order is deterministic and section-major — the first
/// element is exactly what [`validate_encoded`] (the first-error facade)
/// reports. Sections run even when earlier ones found violations, except
/// where a violation makes a later check meaningless (an out-of-range
/// mapping slot suppresses path-endpoint checks; an unknown gate id
/// suppresses its dependency and cut-type checks).
#[must_use]
pub fn collect_violations(circuit: &Circuit, enc: &EncodedCircuit) -> Vec<ValidateError> {
    collect_violations_with_dag(circuit, &circuit.dag(), enc)
}

/// [`collect_violations`] against a pre-built dependency DAG, so callers
/// that already hold one ([`analyze_encoded`]) don't pay for a rebuild.
#[allow(clippy::too_many_lines)]
fn collect_violations_with_dag(
    circuit: &Circuit,
    dag: &GateDag,
    enc: &EncodedCircuit,
) -> Vec<ValidateError> {
    let mut out = Vec::new();
    let chip = enc.chip();
    let grid = chip.grid();
    let n = circuit.qubits();

    // Mapping sanity. One violation covers the whole mapping — but keep
    // scanning to learn whether every slot is at least in range, which
    // gates the mapping-dependent checks below.
    let mut used = vec![false; chip.tile_slots()];
    let mut map_bad = enc.mapping().len() != n;
    let mut slots_in_range = true;
    for &slot in enc.mapping() {
        if slot >= used.len() {
            map_bad = true;
            slots_in_range = false;
        } else {
            if used[slot] || chip.is_dead(slot) {
                map_bad = true;
            }
            used[slot] = true;
        }
    }
    if map_bad {
        out.push(ValidateError::BadMapping);
    }
    let mut mapped_cells = vec![false; grid.len()];
    for &s in enc.mapping() {
        if s < chip.tile_slots() {
            mapped_cells[grid.tile_cell(s)] = true;
        }
    }
    // Maps a gate end to its two endpoint tile cells, `None` when the
    // mapping cannot answer (wrong arity or out-of-range slot — already
    // reported as BadMapping above).
    let endpoint_cell = |q: usize| -> Option<usize> {
        let &slot = enc.mapping().get(q)?;
        (slot < chip.tile_slots()).then(|| grid.tile_cell(slot))
    };

    // Gate coverage, per-gate end times, model/event agreement and the
    // per-qubit busy intervals — one fused pass over the events (the
    // checks are independent; only dependency order below needs the
    // completed `end_of` array and so runs as a second pass).
    let mut times = vec![0usize; dag.len()];
    let mut end_of = vec![0u64; dag.len()];
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for e in enc.events() {
        if let Some(g) = e.gate {
            if g >= dag.len() {
                out.push(ValidateError::GateCoverage { gate: g, times: usize::MAX });
            } else {
                times[g] += 1;
                end_of[g] = e.end();
            }
        }
        let ok = matches!(
            (chip.model(), &e.kind),
            (CodeModel::DoubleDefect, EventKind::Braid { .. })
                | (CodeModel::DoubleDefect, EventKind::DirectSameCut { .. })
                | (CodeModel::DoubleDefect, EventKind::CutModification { .. })
                | (CodeModel::LatticeSurgery, EventKind::LatticeCnot { .. })
        );
        if !ok {
            out.push(ValidateError::WrongModel);
        }
        match (&e.kind, e.gate) {
            (EventKind::CutModification { qubit }, _) => {
                if let Some(list) = intervals.get_mut(*qubit) {
                    list.push((e.start, e.end()));
                } else {
                    // A modification of a qubit the circuit doesn't have.
                    out.push(ValidateError::WrongModel);
                }
            }
            (_, Some(g)) if g < dag.len() => {
                let gate = dag.gate(g);
                intervals[gate.control].push((e.start, e.end()));
                intervals[gate.target].push((e.start, e.end()));
            }
            _ => {}
        }
    }
    for (g, &t) in times.iter().enumerate() {
        if t != 1 {
            out.push(ValidateError::GateCoverage { gate: g, times: t });
        }
    }

    // Dependency order.
    for e in enc.events() {
        if let Some(g) = e.gate {
            if g >= dag.len() {
                continue;
            }
            for &p in dag.parents(g) {
                if e.start < end_of[p] {
                    out.push(ValidateError::DependencyOrder { gate: g, parent: p });
                }
            }
        }
    }

    // Per-qubit exclusivity.
    for (q, list) in intervals.iter_mut().enumerate() {
        list.sort_unstable();
        for w in list.windows(2) {
            if w[1].0 < w[0].1 {
                out.push(ValidateError::QubitOverlap { qubit: q });
            }
        }
    }

    // Cut-type legality over time (double defect only).
    if chip.model() == CodeModel::DoubleDefect {
        match enc.initial_cuts() {
            Some(init) if init.len() == n => {
                // Replay events in start order, flipping cuts when
                // modifications complete. Per-qubit exclusivity (already
                // checked) guarantees no gate overlaps a modification on
                // the same qubit.
                let mut cuts = init.to_vec();
                let mut ordered: Vec<&Event> = enc.events().iter().collect();
                ordered.sort_by_key(|e| e.start);
                // Pending flips: (completion cycle, qubit).
                let mut flips: Vec<(u64, usize)> = Vec::new();
                for e in &ordered {
                    flips.sort_unstable();
                    let due: Vec<usize> =
                        flips.iter().filter(|&&(t, _)| t <= e.start).map(|&(_, q)| q).collect();
                    flips.retain(|&(t, _)| t > e.start);
                    for q in due {
                        cuts[q] = cuts[q].flipped();
                    }
                    match (&e.kind, e.gate) {
                        (EventKind::CutModification { qubit }, _) if *qubit < n => {
                            flips.push((e.end(), *qubit));
                        }
                        (EventKind::Braid { .. }, Some(g)) if g < dag.len() => {
                            let gate = dag.gate(g);
                            if cuts[gate.control] == cuts[gate.target] {
                                out.push(ValidateError::CutTypeRule { gate: g });
                            }
                        }
                        (EventKind::DirectSameCut { .. }, Some(g)) if g < dag.len() => {
                            let gate = dag.gate(g);
                            if cuts[gate.control] != cuts[gate.target] {
                                out.push(ValidateError::CutTypeRule { gate: g });
                            }
                        }
                        _ => {}
                    }
                }
            }
            _ => out.push(ValidateError::WrongModel),
        }
    }

    // Structural path validity (one violation per offending path).
    for e in enc.events() {
        let Some(path) = e.kind.path() else { continue };
        let Some(g) = e.gate else {
            out.push(ValidateError::WrongModel);
            continue;
        };
        let cells = path.cells();
        if cells.len() < 2 {
            out.push(ValidateError::MalformedPath { gate: g });
            continue;
        }
        if g < dag.len() && slots_in_range {
            let gate = dag.gate(g);
            let (want_a, want_b) = (endpoint_cell(gate.control), endpoint_cell(gate.target));
            let (first, last) = (Some(cells[0]), Some(cells[cells.len() - 1]));
            if want_a.is_some()
                && want_b.is_some()
                && !((first == want_a && last == want_b) || (first == want_b && last == want_a))
            {
                out.push(ValidateError::MalformedPath { gate: g });
                continue;
            }
        }
        // One fused pass: every cell in range and off defective tiles, no
        // interior cell on a mapped slot, and unit-step adjacency — the
        // latter via index arithmetic (grid-adjacent ⇔ indices differ by
        // `cols`, or by 1 without wrapping a row boundary).
        let cols = grid.cols();
        let last = cells.len() - 1;
        let mut prev = None;
        let mut malformed = false;
        for (i, &c) in cells.iter().enumerate() {
            if c >= grid.len() || grid.is_dead(c) || (i != 0 && i != last && mapped_cells[c]) {
                malformed = true;
                break;
            }
            if let Some(p) = prev {
                let (lo, hi) = if p < c { (p, c) } else { (c, p) };
                let d = hi - lo;
                if d != cols && (d != 1 || lo % cols == cols - 1) {
                    malformed = true;
                    break;
                }
            }
            prev = Some(c);
        }
        if malformed {
            out.push(ValidateError::MalformedPath { gate: g });
        }
    }

    // Spatial disjointness (E008) and per-cycle per-channel bandwidth
    // conservation (E009), fused into a single start-ordered sweep over
    // the path cells — the hottest part of the validator.
    let mode = match chip.model() {
        CodeModel::DoubleDefect => Disjointness::Node,
        CodeModel::LatticeSurgery => Disjointness::Edge,
    };
    let mut order: Vec<usize> = (0..enc.events().len()).collect();
    order.sort_unstable_by_key(|&i| (enc.events()[i].start, i));
    sweep_spatial_conflicts(enc, mode, &order, &mut out);

    out
}

/// The fused spatial sweep behind [`collect_violations`]' E008/E009
/// sections: one start-ordered pass over every path's cells checks both
/// pairwise disjointness (node-disjoint in double defect, edge-disjoint
/// in lattice surgery — a window starting before a prior window on the
/// same cell/lattice-edge ends is an `E008` conflict) and the per-cycle
/// per-channel bandwidth conservation laws (`E009`), all of which hold
/// for every schedule the routers in this workspace emit (see
/// EXPERIMENTS.md for the calibration against real schedules):
///
/// 1. **Seam crossings** (both modes): a step between two tile rows or
///    two tile cols crosses a disabled channel outside any perpendicular
///    lane — capacity 0, always a violation.
/// 2. **Cross-section occupancy** (node mode): the paths concurrently
///    occupying cells of channel `ch` at cross-coordinate `x` may not
///    exceed `bandwidth(ch)` — there are only that many lane rows/cols.
/// 3. **Along-channel flux** (edge mode): the paths concurrently moving
///    *along* channel `ch` across the lane-internal boundary at `x`
///    may not exceed `bandwidth(ch)`. (Cross-section occupancy is not
///    a law in edge mode: the EDPC crossing construction legally stacks
///    a crossing path on top of every lane at one coordinate.)
///
/// Paths with out-of-range cells (already reported as `E007`
/// MalformedPath by the structural section) are skipped entirely.
fn sweep_spatial_conflicts(
    enc: &EncodedCircuit,
    mode: Disjointness,
    order: &[usize],
    out: &mut Vec<ValidateError>,
) {
    let chip = enc.chip();
    let grid = chip.grid();

    // Disjointness state: latest occupancy end per resource (cell in
    // node mode, lattice edge in edge mode). Edge ids: 2·cell for the
    // step toward `cell + 1`, 2·cell + 1 for the step toward
    // `cell + cols` (non-adjacent steps of malformed paths collapse onto
    // these ids harmlessly).
    let resource_count = match mode {
        Disjointness::Node => grid.len(),
        Disjointness::Edge => 2 * grid.len(),
    };
    let mut occupied_until = vec![0u64; resource_count];

    // Hoisted per-row/col lookup tables: the sweep below visits every
    // path cell, and the grid accessors each cost a bounds check plus an
    // Option load — flattening them makes the inner loops pure array
    // arithmetic. (`step_allowed` is exactly a seam-array + channel-array
    // lookup, so the seam law folds into the same walk for free.)
    let (rows, cols) = (grid.rows(), grid.cols());
    let h_ch: Vec<Option<usize>> = (0..rows).map(|r| grid.h_channel_of_row(r)).collect();
    let v_ch: Vec<Option<usize>> = (0..cols).map(|c| grid.v_channel_of_col(c)).collect();
    let h_blocked: Vec<bool> = (0..rows).map(|r| grid.h_seam_blocked(r)).collect();
    let v_blocked: Vec<bool> = (0..cols).map(|c| grid.v_seam_blocked(c)).collect();

    // Section keys are (horizontal, channel, cross-coordinate),
    // dense-indexed so each lives in a flat array with a precomputed
    // capacity; each path contributes one window per section it touches
    // (stamp-deduplicated, so a path snaking within one section still
    // counts once). Events arrive in start order, so per section it
    // suffices to keep the active windows' end cycles: prune the expired
    // ones, add the new window, and the section is oversubscribed the
    // moment more than `bandwidth` remain. Each section reports at most
    // once (the first violating cycle).
    let h_sections = (chip.tile_rows() + 1) * cols;
    let v_sections = (chip.tile_cols() + 1) * rows;
    let cap: Vec<u32> = (0..h_sections + v_sections)
        .map(|s| {
            if s < h_sections {
                chip.h_bandwidth(s / cols)
            } else {
                chip.v_bandwidth((s - h_sections) / rows)
            }
        })
        .collect();
    let mut active: Vec<Vec<u64>> = vec![Vec::new(); h_sections + v_sections];
    let mut reported = vec![false; h_sections + v_sections];
    let mut seen = vec![0u32; h_sections + v_sections];
    let mut stamp = 0u32;
    let mut touched: Vec<usize> = Vec::new();
    for &i in order {
        let e = &enc.events()[i];
        let Some(path) = e.kind.path() else { continue };
        let cells = path.cells();
        // Out-of-range cells were already reported as MalformedPath by
        // the structural section; skip the whole path rather than index
        // the tables with garbage.
        if cells.iter().any(|&c| c >= grid.len()) {
            continue;
        }
        let (start, end) = (e.start, e.start + e.kind.path_hold());
        stamp += 1;
        touched.clear();
        // Unit-step walk: the seam law (1) for both modes, the E008
        // resource claims, the along-channel flux sections (3) in edge
        // mode and the cross-section occupancy cells (2) in node mode —
        // coordinates carried forward so each cell is div/mod-decomposed
        // exactly once.
        let Some((&first, rest)) = cells.split_first() else { continue };
        let last_idx = cells.len() - 1;
        let (mut prev, mut r0, mut c0) = (first, first / cols, first % cols);
        if matches!(mode, Disjointness::Node) {
            // The first cell's sections (the walk below covers the rest).
            if let Some(ch) = h_ch[r0] {
                let s = ch * cols + c0;
                if seen[s] != stamp {
                    seen[s] = stamp;
                    touched.push(s);
                }
            }
            if let Some(ch) = v_ch[c0] {
                let s = h_sections + ch * rows + r0;
                if seen[s] != stamp {
                    seen[s] = stamp;
                    touched.push(s);
                }
            }
        }
        for (k, &cell) in rest.iter().enumerate() {
            let (r1, c1) = (cell / cols, cell % cols);
            if r0 == r1 {
                let cl = c0.min(c1);
                if c0.abs_diff(c1) == 1 && v_blocked[cl] && h_ch[r0].is_none() {
                    // Crossing the disabled v-channel between two tile
                    // cols: that channel's index is the lower tile col's
                    // index + 1.
                    out.push(ValidateError::ChannelOversubscribed {
                        horizontal: false,
                        channel: grid.tile_col_index(cl).map_or(0, |tc| tc + 1),
                        cycle: start,
                        used: 1,
                        capacity: 0,
                    });
                }
                if matches!(mode, Disjointness::Edge) {
                    if let Some(ch) = h_ch[r0] {
                        let s = ch * cols + cl;
                        if seen[s] != stamp {
                            seen[s] = stamp;
                            touched.push(s);
                        }
                    }
                }
            } else {
                let rl = r0.min(r1);
                if c0 == c1 && r0.abs_diff(r1) == 1 && h_blocked[rl] && v_ch[c0].is_none() {
                    out.push(ValidateError::ChannelOversubscribed {
                        horizontal: true,
                        channel: grid.tile_row_index(rl).map_or(0, |tr| tr + 1),
                        cycle: start,
                        used: 1,
                        capacity: 0,
                    });
                }
                if matches!(mode, Disjointness::Edge) {
                    if let Some(ch) = v_ch[c0] {
                        let s = h_sections + ch * rows + rl;
                        if seen[s] != stamp {
                            seen[s] = stamp;
                            touched.push(s);
                        }
                    }
                }
            }
            match mode {
                Disjointness::Edge => {
                    // Claim the lattice edge under this step.
                    let (a, b) = (prev.min(cell), prev.max(cell));
                    let id = 2 * a + usize::from(b != a + 1);
                    if start < occupied_until[id] {
                        out.push(ValidateError::PathConflict { cycle: start });
                    }
                    occupied_until[id] = occupied_until[id].max(end);
                }
                Disjointness::Node => {
                    if let Some(ch) = h_ch[r1] {
                        let s = ch * cols + c1;
                        if seen[s] != stamp {
                            seen[s] = stamp;
                            touched.push(s);
                        }
                    }
                    if let Some(ch) = v_ch[c1] {
                        let s = h_sections + ch * rows + r1;
                        if seen[s] != stamp {
                            seen[s] = stamp;
                            touched.push(s);
                        }
                    }
                    // Claim interior cells (endpoints are the mapped
                    // tiles themselves).
                    if k + 1 != last_idx {
                        if start < occupied_until[cell] {
                            out.push(ValidateError::PathConflict { cycle: start });
                        }
                        occupied_until[cell] = occupied_until[cell].max(end);
                    }
                }
            }
            prev = cell;
            (r0, c0) = (r1, c1);
        }
        for &section in &touched {
            if reported[section] {
                continue;
            }
            let ends = &mut active[section];
            ends.retain(|&t| t > start);
            ends.push(end);
            if ends.len() > cap[section] as usize {
                reported[section] = true;
                let (horizontal, channel) = if section < h_sections {
                    (true, section / cols)
                } else {
                    (false, (section - h_sections) / rows)
                };
                out.push(ValidateError::ChannelOversubscribed {
                    horizontal,
                    channel,
                    cycle: start,
                    used: u32::try_from(ends.len()).unwrap_or(u32::MAX),
                    capacity: cap[section],
                });
            }
        }
    }
}

/// First-error facade over [`collect_violations`]: the historical
/// `validate_encoded` contract every compiler test suite in the
/// workspace (Ecmas, Ecmas-ReSu, AutoBraid, EDPCI) is written against,
/// so a scheduling bug in any of them cannot silently produce an
/// illegal schedule with a flattering cycle count.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_encoded(circuit: &Circuit, enc: &EncodedCircuit) -> Result<(), ValidateError> {
    match collect_violations(circuit, enc).into_iter().next() {
        None => Ok(()),
        Some(first) => Err(first),
    }
}

/// Runs every schedule-level analysis: all legality violations as
/// error-severity [`Diagnostic`]s (via [`collect_violations`]) plus the
/// idle-bubble (`H001`) and critical-path-slack (`H002`) hints.
#[must_use]
pub fn analyze_encoded(circuit: &Circuit, enc: &EncodedCircuit) -> Vec<Diagnostic> {
    let dag = circuit.dag();
    let mut out: Vec<Diagnostic> = collect_violations_with_dag(circuit, &dag, enc)
        .iter()
        .map(ValidateError::to_diagnostic)
        .collect();
    let n = circuit.qubits();
    let cycles = enc.cycles();
    if n == 0 || cycles == 0 {
        return out;
    }

    // H001 — idle bubbles: gaps between consecutive busy intervals of
    // the same qubit (time before a qubit's first event or after its
    // last is lead-in/lead-out, not a bubble).
    let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for e in enc.events() {
        match (&e.kind, e.gate) {
            (EventKind::CutModification { qubit }, _) => {
                if let Some(list) = busy.get_mut(*qubit) {
                    list.push((e.start, e.end()));
                }
            }
            (_, Some(g)) if g < dag.len() => {
                let gate = dag.gate(g);
                busy[gate.control].push((e.start, e.end()));
                busy[gate.target].push((e.start, e.end()));
            }
            _ => {}
        }
    }
    let mut bubbles: u64 = 0;
    let mut bubble_cycles: u64 = 0;
    let mut busy_cycles: u64 = 0;
    for list in &mut busy {
        list.sort_unstable();
        busy_cycles += list.iter().map(|&(s, e)| e.saturating_sub(s)).sum::<u64>();
        for w in list.windows(2) {
            let gap = w[1].0.saturating_sub(w[0].1);
            if gap > 0 {
                bubbles += 1;
                bubble_cycles += gap;
            }
        }
    }
    if bubbles > 0 {
        let utilization = 100.0 * busy_cycles as f64 / (n as u64 * cycles) as f64;
        out.push(Diagnostic::new(
            Code::IdleBubbles,
            format!(
                "{bubbles} idle bubbles totalling {bubble_cycles} qubit-cycles \
                 (qubit utilization {utilization:.1}%)"
            ),
        ));
    }

    // H002 — critical-path slack: Δ minus the dependency-chain lower
    // bound, using each gate's actual event duration (1 for unscheduled
    // gates — the bound stays a lower bound).
    if !dag.is_empty() {
        let mut duration = vec![1u64; dag.len()];
        for e in enc.events() {
            if let Some(g) = e.gate {
                if g < dag.len() {
                    duration[g] = e.kind.duration();
                }
            }
        }
        let mut earliest_end = vec![0u64; dag.len()];
        for g in 0..dag.len() {
            let ready = dag.parents(g).iter().map(|&p| earliest_end[p]).max().unwrap_or(0);
            earliest_end[g] = ready + duration[g];
        }
        let bound = earliest_end.iter().copied().max().unwrap_or(0);
        let slack = cycles.saturating_sub(bound);
        out.push(Diagnostic::new(
            Code::CriticalPathSlack,
            format!(
                "critical-path lower bound {bound} cycles, schedule Δ {cycles} \
                 (slack {slack})"
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::{Chip, CodeModel};
    use ecmas_circuit::Circuit;
    use ecmas_route::{Disjointness, Router};

    fn two_qubit_setup() -> (Circuit, Chip, Vec<usize>, Path) {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let chip = Chip::uniform(CodeModel::DoubleDefect, 1, 2, 1, 3).unwrap();
        let mapping = vec![0, 1];
        let mut router = Router::new(chip.grid(), Disjointness::Node);
        router.block_tile(0);
        router.block_tile(1);
        let path = router.find_tile_path(0, 1, 0).unwrap();
        (c, chip, mapping, path)
    }

    #[test]
    fn valid_braid_schedule_passes() {
        let (c, chip, mapping, path) = two_qubit_setup();
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::Z]),
            vec![Event { gate: Some(0), start: 0, kind: EventKind::Braid { path } }],
        );
        assert_eq!(enc.cycles(), 1);
        validate_encoded(&c, &enc).expect("valid schedule");
    }

    #[test]
    fn braid_between_equal_cuts_rejected() {
        let (c, chip, mapping, path) = two_qubit_setup();
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::X]),
            vec![Event { gate: Some(0), start: 0, kind: EventKind::Braid { path } }],
        );
        assert_eq!(validate_encoded(&c, &enc), Err(ValidateError::CutTypeRule { gate: 0 }));
    }

    #[test]
    fn direct_same_cut_between_equal_cuts_passes() {
        let (c, chip, mapping, path) = two_qubit_setup();
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::X]),
            vec![Event { gate: Some(0), start: 0, kind: EventKind::DirectSameCut { path } }],
        );
        assert_eq!(enc.cycles(), 3);
        validate_encoded(&c, &enc).expect("valid direct execution");
    }

    #[test]
    fn modification_then_braid_passes() {
        let (c, chip, mapping, path) = two_qubit_setup();
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::X]),
            vec![
                Event { gate: None, start: 0, kind: EventKind::CutModification { qubit: 0 } },
                Event { gate: Some(0), start: 3, kind: EventKind::Braid { path } },
            ],
        );
        assert_eq!(enc.cycles(), 4);
        validate_encoded(&c, &enc).expect("modification makes the braid legal");
    }

    #[test]
    fn missing_gate_detected() {
        let (c, chip, mapping, _) = two_qubit_setup();
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::Z]),
            vec![],
        );
        assert_eq!(
            validate_encoded(&c, &enc),
            Err(ValidateError::GateCoverage { gate: 0, times: 0 })
        );
    }

    #[test]
    fn dependency_violation_detected() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1);
        c.cnot(1, 2);
        let chip = Chip::uniform(CodeModel::DoubleDefect, 1, 3, 1, 3).unwrap();
        let mapping = vec![0, 1, 2];
        let mut router = Router::new(chip.grid(), Disjointness::Node);
        for t in 0..3 {
            router.block_tile(t);
        }
        let p01 = router.find_tile_path(0, 1, 0).unwrap();
        let p12 = router.find_tile_path(1, 2, 5).unwrap();
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::Z, CutType::X]),
            vec![
                // Child starts at 0, parent at 5: illegal.
                Event { gate: Some(1), start: 0, kind: EventKind::Braid { path: p12 } },
                Event { gate: Some(0), start: 5, kind: EventKind::Braid { path: p01 } },
            ],
        );
        assert!(matches!(
            validate_encoded(&c, &enc),
            Err(ValidateError::DependencyOrder { .. }) | Err(ValidateError::QubitOverlap { .. })
        ));
    }

    #[test]
    fn qubit_overlap_detected() {
        // A cut modification on qubit 0 spans [0,3); running the braid at
        // cycle 1 overlaps it. (Two *gates* sharing a qubit are always
        // DAG-ordered, so modification-vs-gate is the real overlap case.)
        let (c, chip, mapping, path) = two_qubit_setup();
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::Z]),
            vec![
                Event { gate: None, start: 0, kind: EventKind::CutModification { qubit: 0 } },
                Event { gate: Some(0), start: 1, kind: EventKind::Braid { path } },
            ],
        );
        assert_eq!(validate_encoded(&c, &enc), Err(ValidateError::QubitOverlap { qubit: 0 }));
    }

    #[test]
    fn conflicting_paths_detected() {
        // Two events that (illegally) reuse the same interior cell in the
        // same cycle on independent qubit pairs.
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3).unwrap();
        let grid = chip.grid();
        let mapping = vec![0, 3, 1, 2];
        // Hand-build two paths through the central cell (2,2).
        let p03 = Path::from_cells(
            &grid,
            vec![
                grid.tile_cell(0),
                grid.index(1, 2),
                grid.index(2, 2),
                grid.index(3, 2),
                grid.tile_cell(3),
            ],
        );
        let p12 = Path::from_cells(
            &grid,
            vec![
                grid.tile_cell(1),
                grid.index(2, 3),
                grid.index(2, 2),
                grid.index(2, 1),
                grid.tile_cell(2),
            ],
        );
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::Z, CutType::X, CutType::Z]),
            vec![
                Event { gate: Some(0), start: 0, kind: EventKind::Braid { path: p03 } },
                Event { gate: Some(1), start: 0, kind: EventKind::Braid { path: p12 } },
            ],
        );
        assert_eq!(validate_encoded(&c, &enc), Err(ValidateError::PathConflict { cycle: 0 }));
    }

    #[test]
    fn duplicate_mapping_rejected() {
        let (c, chip, _, path) = two_qubit_setup();
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            vec![0, 0],
            Some(vec![CutType::X, CutType::Z]),
            vec![Event { gate: Some(0), start: 0, kind: EventKind::Braid { path } }],
        );
        assert_eq!(validate_encoded(&c, &enc), Err(ValidateError::BadMapping));
    }

    #[test]
    fn wrong_model_event_rejected() {
        let (c, _, mapping, path) = two_qubit_setup();
        let ls_chip = Chip::uniform(CodeModel::LatticeSurgery, 1, 2, 1, 3).unwrap();
        let enc = EncodedCircuit::new(
            Arc::new(ls_chip),
            mapping,
            None,
            vec![Event { gate: Some(0), start: 0, kind: EventKind::Braid { path } }],
        );
        assert_eq!(validate_encoded(&c, &enc), Err(ValidateError::WrongModel));
    }

    #[test]
    fn direct_hold_conflicts_across_cycles() {
        // A direct same-cut CNOT holds its path for two cycles; a braid
        // through the same cell at cycle 1 must be flagged.
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3).unwrap();
        let grid = chip.grid();
        let mapping = vec![0, 3, 1, 2];
        let p03 = Path::from_cells(
            &grid,
            vec![
                grid.tile_cell(0),
                grid.index(1, 2),
                grid.index(2, 2),
                grid.index(3, 2),
                grid.tile_cell(3),
            ],
        );
        let p12 = Path::from_cells(
            &grid,
            vec![
                grid.tile_cell(1),
                grid.index(2, 3),
                grid.index(2, 2),
                grid.index(2, 1),
                grid.tile_cell(2),
            ],
        );
        let enc = EncodedCircuit::new(
            Arc::new(chip),
            mapping,
            Some(vec![CutType::X, CutType::X, CutType::X, CutType::Z]),
            vec![
                Event { gate: Some(0), start: 0, kind: EventKind::DirectSameCut { path: p03 } },
                Event { gate: Some(1), start: 1, kind: EventKind::Braid { path: p12 } },
            ],
        );
        assert_eq!(validate_encoded(&c, &enc), Err(ValidateError::PathConflict { cycle: 1 }));
    }
}
