//! Failure injection: take a known-valid schedule, corrupt it in each way
//! the paper's constraints forbid, and assert the independent validator
//! catches every corruption class. This is the test that keeps the
//! validator honest — a validator that accepts corrupted schedules would
//! silently bless buggy compilers.

use std::sync::Arc;

use ecmas::{
    collect_violations, validate_encoded, Code, CutType, Ecmas, EncodedCircuit, Event, EventKind,
    ValidateError,
};
use ecmas_chip::{Chip, CodeModel, RoutingGrid};
use ecmas_circuit::{random, Circuit};
use ecmas_route::Path;

fn base_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.cnot(0, 1);
    c.cnot(2, 3);
    c.cnot(1, 2);
    c.cnot(0, 3);
    c
}

fn compile(model: CodeModel) -> (Circuit, EncodedCircuit) {
    let circuit = base_circuit();
    let chip = Chip::min_viable(model, circuit.qubits(), 3).unwrap();
    let enc = Ecmas::default().compile(&circuit, &chip).unwrap();
    validate_encoded(&circuit, &enc).expect("baseline must be valid");
    (circuit, enc)
}

/// Rebuilds an encoded circuit with mutated parts.
fn rebuild(
    enc: &EncodedCircuit,
    mapping: Option<Vec<usize>>,
    cuts: Option<Option<Vec<CutType>>>,
    events: Vec<Event>,
) -> EncodedCircuit {
    EncodedCircuit::new(
        Arc::new(enc.chip().clone()),
        mapping.unwrap_or_else(|| enc.mapping().to_vec()),
        cuts.unwrap_or_else(|| enc.initial_cuts().map(<[CutType]>::to_vec)),
        events,
    )
}

#[test]
fn dropping_a_gate_is_caught() {
    let (circuit, enc) = compile(CodeModel::LatticeSurgery);
    let mut events = enc.events().to_vec();
    let victim = events.iter().position(|e| e.gate.is_some()).unwrap();
    events.remove(victim);
    let bad = rebuild(&enc, None, None, events);
    assert!(matches!(validate_encoded(&circuit, &bad), Err(ValidateError::GateCoverage { .. })));
}

#[test]
fn duplicating_a_gate_is_caught() {
    let (circuit, enc) = compile(CodeModel::LatticeSurgery);
    let mut events = enc.events().to_vec();
    let copy = events.iter().find(|e| e.gate.is_some()).unwrap().clone();
    let mut dup = copy.clone();
    dup.start += 1000; // far away so only coverage trips, not conflicts
    events.push(dup);
    let bad = rebuild(&enc, None, None, events);
    assert!(matches!(
        validate_encoded(&circuit, &bad),
        Err(ValidateError::GateCoverage { times: 2, .. })
    ));
}

#[test]
fn reordering_dependent_gates_is_caught() {
    let (circuit, enc) = compile(CodeModel::LatticeSurgery);
    // Gate 2 = cnot(1,2) depends on gates 0 and 1. Pull it to cycle 0 and
    // push its parents far out.
    let mut events = enc.events().to_vec();
    for e in &mut events {
        match e.gate {
            Some(2) => e.start = 0,
            Some(0) | Some(1) => e.start += 500,
            _ => {}
        }
    }
    let bad = rebuild(&enc, None, None, events);
    assert!(matches!(
        validate_encoded(&circuit, &bad),
        Err(ValidateError::DependencyOrder { .. }) | Err(ValidateError::QubitOverlap { .. })
    ));
}

#[test]
fn equal_cut_braid_is_caught() {
    let (circuit, enc) = compile(CodeModel::DoubleDefect);
    // Force all-X initial cuts: any braid event now joins equal cuts.
    let has_braid = enc.events().iter().any(|e| matches!(e.kind, EventKind::Braid { .. }));
    assert!(has_braid, "baseline should braid");
    let bad = rebuild(&enc, None, Some(Some(vec![CutType::X; 4])), enc.events().to_vec());
    assert!(matches!(validate_encoded(&circuit, &bad), Err(ValidateError::CutTypeRule { .. })));
}

#[test]
fn teleporting_path_is_caught() {
    let (circuit, enc) = compile(CodeModel::LatticeSurgery);
    let grid = enc.chip().grid();
    let mut events = enc.events().to_vec();
    // Replace one path with a non-adjacent hop between the right endpoints.
    let e = events.iter_mut().find(|e| e.gate == Some(3)).unwrap();
    let gate = circuit.cnot_gates()[3];
    let from = grid.tile_cell(enc.mapping()[gate.control]);
    let to = grid.tile_cell(enc.mapping()[gate.target]);
    e.kind = EventKind::LatticeCnot { path: Path::from_cells_unchecked(vec![from, to]) };
    let bad = rebuild(&enc, None, None, events);
    assert!(matches!(validate_encoded(&circuit, &bad), Err(ValidateError::MalformedPath { .. })));
}

#[test]
fn wrong_endpoints_are_caught() {
    let (circuit, enc) = compile(CodeModel::LatticeSurgery);
    let mut events = enc.events().to_vec();
    // Give gate 0 the path of gate 1 (wrong tiles).
    let donor =
        events.iter().find(|e| e.gate == Some(1)).and_then(|e| e.kind.path().cloned()).unwrap();
    let e = events.iter_mut().find(|e| e.gate == Some(0)).unwrap();
    e.kind = EventKind::LatticeCnot { path: donor };
    let bad = rebuild(&enc, None, None, events);
    assert!(matches!(validate_encoded(&circuit, &bad), Err(ValidateError::MalformedPath { .. })));
}

#[test]
fn path_through_mapped_tile_is_caught() {
    let (circuit, enc) = compile(CodeModel::LatticeSurgery);
    let grid = enc.chip().grid();
    let mut events = enc.events().to_vec();
    // Build a straight path for gate 2 = cnot(1,2) that tunnels through a
    // mapped tile: walk the grid row of qubit 1's tile.
    let gate = circuit.cnot_gates()[2];
    let from = grid.tile_cell(enc.mapping()[gate.control]);
    let to = grid.tile_cell(enc.mapping()[gate.target]);
    let (fr, fc) = grid.coords(from);
    let (tr, tc) = grid.coords(to);
    // Manhattan staircase: across the row, then down the column.
    let mut cells = vec![from];
    let mut c = fc;
    while c != tc {
        c = if c < tc { c + 1 } else { c - 1 };
        cells.push(grid.index(fr, c));
    }
    let mut r = fr;
    while r != tr {
        r = if r < tr { r + 1 } else { r - 1 };
        cells.push(grid.index(r, tc));
    }
    let tunnels_through_tile = cells[1..cells.len() - 1]
        .iter()
        .any(|&cell| enc.mapping().iter().any(|&slot| grid.tile_cell(slot) == cell));
    if !tunnels_through_tile {
        return; // mapping did not put a tile in the way; nothing to inject
    }
    let e = events.iter_mut().find(|e| e.gate == Some(2)).unwrap();
    e.kind = EventKind::LatticeCnot { path: Path::from_cells(&grid, cells) };
    let bad = rebuild(&enc, None, None, events);
    assert!(matches!(validate_encoded(&circuit, &bad), Err(ValidateError::MalformedPath { .. })));
}

#[test]
fn overlapping_paths_are_caught() {
    // Two independent gates forced onto the same interior cell at the same
    // cycle (constructed directly; the compiler would never emit this).
    let mut circuit = Circuit::new(4);
    circuit.cnot(0, 1);
    circuit.cnot(2, 3);
    let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3).unwrap();
    let grid = chip.grid();
    let mapping = vec![0, 3, 1, 2];
    let p0 = Path::from_cells(
        &grid,
        vec![
            grid.tile_cell(0),
            grid.index(1, 2),
            grid.index(2, 2),
            grid.index(3, 2),
            grid.tile_cell(3),
        ],
    );
    let p1 = Path::from_cells(
        &grid,
        vec![
            grid.tile_cell(1),
            grid.index(2, 3),
            grid.index(2, 2),
            grid.index(2, 1),
            grid.tile_cell(2),
        ],
    );
    let bad = EncodedCircuit::new(
        Arc::new(chip),
        mapping,
        Some(vec![CutType::X, CutType::Z, CutType::X, CutType::Z]),
        vec![
            Event { gate: Some(0), start: 0, kind: EventKind::Braid { path: p0 } },
            Event { gate: Some(1), start: 0, kind: EventKind::Braid { path: p1 } },
        ],
    );
    assert_eq!(validate_encoded(&circuit, &bad), Err(ValidateError::PathConflict { cycle: 0 }));
}

#[test]
fn out_of_range_mapping_is_caught() {
    let (circuit, enc) = compile(CodeModel::LatticeSurgery);
    let mut mapping = enc.mapping().to_vec();
    mapping[0] = 999;
    let bad = rebuild(&enc, Some(mapping), None, enc.events().to_vec());
    assert_eq!(validate_encoded(&circuit, &bad), Err(ValidateError::BadMapping));
}

#[test]
fn missing_cuts_on_double_defect_is_caught() {
    let (circuit, enc) = compile(CodeModel::DoubleDefect);
    let bad = rebuild(&enc, None, Some(None), enc.events().to_vec());
    assert_eq!(validate_encoded(&circuit, &bad), Err(ValidateError::WrongModel));
}

// ---------------------------------------------------------------------------
// Seeded mutation corpus. Each corruption class below must be caught by
// `collect_violations` with its *specific* stable diagnostic code — the
// contract `ecmas-analyze` exposes to tooling. The corpus runs each class
// over several seeded circuits and, where the class exists there, both
// code models, so a validator regression in any one section cannot hide
// behind another section firing first.

const SEEDS: [u64; 4] = [0xA11CE, 0xB0B5, 0xCAFE, 0xD00D];

fn seeded_compile(model: CodeModel, seed: u64) -> (Circuit, EncodedCircuit) {
    let circuit = random::layered(8, 6, 3, seed);
    let chip = Chip::min_viable(model, circuit.qubits(), 3).unwrap();
    let enc = Ecmas::default().compile(&circuit, &chip).unwrap();
    validate_encoded(&circuit, &enc).expect("baseline must be valid");
    (circuit, enc)
}

fn codes_of(circuit: &Circuit, enc: &EncodedCircuit) -> Vec<Code> {
    collect_violations(circuit, enc).iter().map(ValidateError::code).collect()
}

/// Unit-step row-then-column walk between two grid cells, inclusive.
fn staircase(grid: &RoutingGrid, from: usize, to: usize) -> Vec<usize> {
    let (fr, fc) = grid.coords(from);
    let (tr, tc) = grid.coords(to);
    let mut cells = vec![from];
    let mut c = fc;
    while c != tc {
        c = if c < tc { c + 1 } else { c - 1 };
        cells.push(grid.index(fr, c));
    }
    let mut r = fr;
    while r != tr {
        r = if r < tr { r + 1 } else { r - 1 };
        cells.push(grid.index(r, tc));
    }
    cells
}

#[test]
fn corpus_drop_event_is_e002() {
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        for seed in SEEDS {
            let (circuit, enc) = seeded_compile(model, seed);
            let mut events = enc.events().to_vec();
            let gate_events: Vec<usize> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.gate.is_some())
                .map(|(i, _)| i)
                .collect();
            let victim = gate_events[seed as usize % gate_events.len()];
            events.remove(victim);
            let bad = rebuild(&enc, None, None, events);
            assert!(
                codes_of(&circuit, &bad).contains(&Code::GateCoverage),
                "{} seed {seed:#x}: dropped event must raise E002",
                model.label(),
            );
        }
    }
}

#[test]
fn corpus_shift_cycle_is_e004() {
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        for seed in SEEDS {
            let (circuit, enc) = seeded_compile(model, seed);
            let dag = circuit.dag();
            let mut events = enc.events().to_vec();
            // Any gate with DAG parents starts at or after a parent's end
            // (≥ 1) in a valid schedule; yanking it to cycle 0 must trip
            // the dependency-order section.
            let candidates: Vec<usize> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.gate.is_some_and(|g| !dag.parents(g).is_empty()))
                .map(|(i, _)| i)
                .collect();
            let pick = candidates[seed as usize % candidates.len()];
            events[pick].start = 0;
            let bad = rebuild(&enc, None, None, events);
            assert!(
                codes_of(&circuit, &bad).contains(&Code::DependencyOrder),
                "{} seed {seed:#x}: shifted cycle must raise E004",
                model.label(),
            );
        }
    }
}

#[test]
fn corpus_reorder_dependents_is_e004() {
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        for seed in SEEDS {
            let (circuit, enc) = seeded_compile(model, seed);
            let dag = circuit.dag();
            let mut events = enc.events().to_vec();
            // Swap the start cycles of a parent/child event pair: the child
            // now begins at the parent's old start, strictly before the
            // parent's new end.
            let (child, parent) = events
                .iter()
                .enumerate()
                .find_map(|(i, e)| {
                    let g = e.gate?;
                    let &p = dag.parents(g).first()?;
                    let pi = events.iter().position(|pe| pe.gate == Some(p))?;
                    Some((i, pi))
                })
                .expect("compiled schedule must contain a dependent pair");
            let (a, b) = (events[child].start, events[parent].start);
            events[child].start = b;
            events[parent].start = a;
            let bad = rebuild(&enc, None, None, events);
            assert!(
                codes_of(&circuit, &bad).contains(&Code::DependencyOrder),
                "{} seed {seed:#x}: reordered dependents must raise E004",
                model.label(),
            );
        }
    }
}

#[test]
fn corpus_remap_onto_defect_is_e001() {
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        for seed in SEEDS {
            let circuit = random::layered(6, 4, 2, seed);
            let chip = Chip::uniform(model, 3, 3, 1, 3).unwrap().with_defects(&[(2, 2)]).unwrap();
            let enc = Ecmas::default().compile(&circuit, &chip).unwrap();
            validate_encoded(&circuit, &enc).expect("baseline must be valid");
            let dead = (0..enc.chip().tile_slots())
                .find(|&s| enc.chip().is_dead(s))
                .expect("chip has a defect");
            let mut mapping = enc.mapping().to_vec();
            let q = seed as usize % mapping.len();
            mapping[q] = dead;
            let bad = rebuild(&enc, Some(mapping), None, enc.events().to_vec());
            assert!(
                codes_of(&circuit, &bad).contains(&Code::BadMapping),
                "{} seed {seed:#x}: mapping qubit {q} onto a defect must raise E001",
                model.label(),
            );
        }
    }
}

#[test]
fn corpus_route_through_dead_cell_is_e007() {
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        for seed in SEEDS {
            let circuit = random::layered(6, 4, 2, seed);
            let chip = Chip::uniform(model, 3, 3, 1, 3).unwrap().with_defects(&[(1, 1)]).unwrap();
            let enc = Ecmas::default().compile(&circuit, &chip).unwrap();
            validate_encoded(&circuit, &enc).expect("baseline must be valid");
            let grid = enc.chip().grid();
            let dead_cell = grid.tile_cell(4); // slot (1,1) of the 3×3 chip
            let mut events = enc.events().to_vec();
            let e = events
                .iter_mut()
                .find(|e| e.kind.path().is_some())
                .expect("schedule must route at least one path");
            let old = e.kind.path().unwrap().cells().to_vec();
            let (from, to) = (old[0], *old.last().unwrap());
            // Reroute through the dead tile: staircase from → dead → to.
            let mut cells = staircase(&grid, from, dead_cell);
            cells.extend(staircase(&grid, dead_cell, to).into_iter().skip(1));
            let path = Path::from_cells_unchecked(cells);
            e.kind = match &e.kind {
                EventKind::Braid { .. } => EventKind::Braid { path },
                _ => EventKind::LatticeCnot { path },
            };
            let bad = rebuild(&enc, None, None, events);
            assert!(
                codes_of(&circuit, &bad).contains(&Code::MalformedPath),
                "{} seed {seed:#x}: routing through a dead tile must raise E007",
                model.label(),
            );
        }
    }
}

/// The bandwidth-conservation gap, pinned: a one-step path between two
/// tile cells made grid-adjacent by a disabled (bandwidth-0) channel
/// passes every *legacy* validator section — endpoints match the
/// mapping, the step is unit-Manhattan, no dead or mapped interior
/// cells, nothing to conflict with — and is caught **only** by the E009
/// channel-conservation law. Before that law existed, `validate_encoded`
/// blessed this schedule (see EXPERIMENTS.md).
#[test]
fn corpus_oversubscribed_seam_is_e009_and_slips_past_legacy_checks() {
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        let mut chip = Chip::uniform(model, 2, 2, 1, 3).unwrap();
        chip.set_h_bandwidth(1, 0).unwrap(); // disable the middle channel
        let grid = chip.grid();
        let from = grid.tile_cell(0); // tile (0,0)
        let to = grid.tile_cell(2); // tile (1,0), straight across the seam
        assert_eq!(grid.manhattan(from, to), 1, "seam collapses the rows to adjacency");
        assert!(!grid.step_allowed(from, to), "the seam step is not routable");
        let mut circuit = Circuit::new(2);
        circuit.cnot(0, 1);
        let path = Path::from_cells_unchecked(vec![from, to]);
        let kind = match model {
            CodeModel::DoubleDefect => EventKind::Braid { path },
            CodeModel::LatticeSurgery => EventKind::LatticeCnot { path },
        };
        let cuts = (model == CodeModel::DoubleDefect).then(|| vec![CutType::X, CutType::Z]);
        let bad = EncodedCircuit::new(
            Arc::new(chip),
            vec![0, 2],
            cuts,
            vec![Event { gate: Some(0), start: 0, kind }],
        );
        let violations = collect_violations(&circuit, &bad);
        assert!(!violations.is_empty(), "{}: the seam crossing must be rejected", model.label());
        assert!(
            violations.iter().all(|v| v.code() == Code::ChannelOversubscribed),
            "{}: every legacy section passes — only E009 fires (got {violations:?})",
            model.label(),
        );
        assert!(matches!(
            validate_encoded(&circuit, &bad),
            Err(ValidateError::ChannelOversubscribed { capacity: 0, .. })
        ));
    }
}

#[test]
fn cross_model_event_is_caught() {
    let (circuit, enc) = compile(CodeModel::LatticeSurgery);
    let mut events = enc.events().to_vec();
    let e = events.iter_mut().find(|e| e.gate.is_some()).unwrap();
    let path = e.kind.path().cloned().unwrap();
    e.kind = EventKind::Braid { path }; // braids do not exist in LS
    let bad = rebuild(&enc, None, None, events);
    assert_eq!(validate_encoded(&circuit, &bad), Err(ValidateError::WrongModel));
}
