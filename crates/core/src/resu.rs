//! Ecmas-ReSu — the sufficient-resources scheduler (Algorithm 2, §IV-B2
//! and §IV-C3).
//!
//! When the chip's Communication Capacity `⌊(b−1)/2⌋ + 3` reaches the
//! circuit's parallelism degree `ĝPM`, every layer of the Para-Finding
//! execution scheme is guaranteed routable in one clock cycle (Theorem 2).
//!
//! * **Lattice surgery**: one layer per cycle ⇒ Δ = α, which is optimal.
//! * **Double defect**: layers are consumed in *batches* — the longest
//!   prefix whose accumulated communication subgraph stays bipartite
//!   (checked incrementally with a parity DSU). Each batch gets a cut-type
//!   remapping (3 cycles, free for the first batch, and orientation-chosen
//!   per component to minimize flips) and then runs one layer per cycle.
//!   By Lemma 1 every batch spans at least two layers, giving the paper's
//!   5/2-approximation (Theorem 3).

use std::sync::Arc;

use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{GateDag, GateId};
use ecmas_partition::ParityDsu;
use ecmas_route::{Disjointness, Path, RouteRequest, Router, RouterStats};

use crate::cut::CutType;
use crate::encoded::{EncodedCircuit, Event, EventKind};
use crate::error::CompileError;
use crate::profile::ExecutionScheme;

/// Schedules `scheme` on a sufficient-resources chip, returning the
/// schedule with the router's effort/conflict counters. See the module
/// docs for the per-model behaviour.
///
/// Routing failures (which Theorem 2 rules out at sufficient bandwidth,
/// but which can occur if the caller supplies a smaller chip) spill the
/// affected gates into extra cycles rather than failing, so the result is
/// always a valid encoded circuit.
///
/// `initial_cuts` (double defect only) seeds the tiles' starting cut
/// types: the first batch then pays the usual 3-cycle remap when its
/// bipartition disagrees, instead of choosing the initial coloring
/// freely. `None` keeps Algorithm 2's free choice.
///
/// # Errors
///
/// * [`CompileError::ScheduleStuck`] only if a single gate cannot be
///   routed even on an otherwise idle chip (a malformed chip/mapping).
/// * [`CompileError::CutTypesMismatch`] when `initial_cuts` is supplied
///   for a lattice-surgery chip or has the wrong length.
pub fn schedule_sufficient(
    dag: &GateDag,
    scheme: &ExecutionScheme,
    chip: &Arc<Chip>,
    mapping: &[usize],
    initial_cuts: Option<&[CutType]>,
) -> Result<(EncodedCircuit, RouterStats), CompileError> {
    match (chip.model(), initial_cuts) {
        (CodeModel::LatticeSurgery, Some(_)) => Err(CompileError::CutTypesMismatch),
        (CodeModel::DoubleDefect, Some(cuts)) if cuts.len() != dag.qubits() => {
            Err(CompileError::CutTypesMismatch)
        }
        (CodeModel::LatticeSurgery, None) => schedule_sufficient_ls(dag, scheme, chip, mapping),
        (CodeModel::DoubleDefect, _) => {
            schedule_sufficient_dd(dag, scheme, chip, mapping, initial_cuts)
        }
    }
}

fn schedule_sufficient_ls(
    dag: &GateDag,
    scheme: &ExecutionScheme,
    chip: &Arc<Chip>,
    mapping: &[usize],
) -> Result<(EncodedCircuit, RouterStats), CompileError> {
    let mut router = Router::new(chip.grid(), Disjointness::Edge);
    for &slot in mapping {
        router.block_tile(slot);
    }
    let mut events = Vec::with_capacity(dag.len());
    let mut cycle: u64 = 0;
    let mut scratch = LayerScratch::default();
    for layer in scheme.layers() {
        // The whole layer goes to the router as one batch per cycle; the
        // router serves it shortest-estimated-distance first, so a long
        // greedy path laid down early cannot block several short ones
        // (Theorem 2 guarantees the paths exist; the order determines
        // whether greedy finds them).
        cycle = route_layer_batched(
            &mut router,
            dag,
            mapping,
            layer,
            cycle,
            &mut events,
            &mut scratch,
            |path| EventKind::LatticeCnot { path },
        )?;
    }
    let encoded = EncodedCircuit::new(Arc::clone(chip), mapping.to_vec(), None, events);
    Ok((encoded, router.stats()))
}

/// Reusable buffers for [`route_layer_batched`]: the pending/spill gate
/// lists, the per-cycle request batch, and the outcome scratch — reused
/// across every layer of a schedule so the steady-state layer loop
/// allocates nothing but the paths it emits.
#[derive(Default)]
struct LayerScratch {
    pending: Vec<GateId>,
    still: Vec<GateId>,
    requests: Vec<RouteRequest>,
    outcomes: Vec<Option<Path>>,
}

/// Routes every gate of `layer` starting at `cycle`, one
/// [`Router::route_ready_by_distance`] batch per cycle, spilling blocked
/// gates into follow-up cycles. Returns the first cycle after the layer.
///
/// An empty layer (identity padding in the execution scheme) still
/// consumes its clock cycle.
#[allow(clippy::too_many_arguments)]
fn route_layer_batched(
    router: &mut Router,
    dag: &GateDag,
    mapping: &[usize],
    layer: &[GateId],
    mut cycle: u64,
    events: &mut Vec<Event>,
    scratch: &mut LayerScratch,
    kind: impl Fn(Path) -> EventKind,
) -> Result<u64, CompileError> {
    scratch.pending.clear();
    scratch.pending.extend_from_slice(layer);
    while !scratch.pending.is_empty() {
        scratch.requests.clear();
        scratch.requests.extend(scratch.pending.iter().map(|&g| {
            let gate = dag.gate(g);
            RouteRequest::route(mapping[gate.control], mapping[gate.target], 1)
        }));
        router.route_ready_by_distance(&scratch.requests, cycle, &mut scratch.outcomes);
        scratch.still.clear();
        for (&g, outcome) in scratch.pending.iter().zip(scratch.outcomes.drain(..)) {
            match outcome {
                Some(path) => events.push(Event { gate: Some(g), start: cycle, kind: kind(path) }),
                None => scratch.still.push(g),
            }
        }
        if scratch.still.len() == scratch.pending.len() {
            return Err(CompileError::ScheduleStuck { cycle, pending: scratch.still.len() });
        }
        std::mem::swap(&mut scratch.pending, &mut scratch.still);
        cycle += 1;
    }
    if layer.is_empty() {
        cycle += 1;
    }
    Ok(cycle)
}

#[allow(clippy::too_many_lines)]
fn schedule_sufficient_dd(
    dag: &GateDag,
    scheme: &ExecutionScheme,
    chip: &Arc<Chip>,
    mapping: &[usize],
    initial_cuts: Option<&[CutType]>,
) -> Result<(EncodedCircuit, RouterStats), CompileError> {
    let n = dag.qubits();
    let mut router = Router::new(chip.grid(), Disjointness::Node);
    for &slot in mapping {
        router.block_tile(slot);
    }
    let mut events = Vec::with_capacity(dag.len());
    let mut cycle: u64 = 0;
    let mut scratch = LayerScratch::default();
    // Seeded cuts make the first batch pay for any remap it needs; `None`
    // lets the first batch's coloring come for free.
    let mut cuts: Option<Vec<CutType>> = initial_cuts.map(<[CutType]>::to_vec);
    let mut initial: Option<Vec<CutType>> = initial_cuts.map(<[CutType]>::to_vec);

    let mut i = 0;
    while i < scheme.depth() {
        // Grow the batch while the accumulated comm subgraph is bipartite.
        let mut dsu = ParityDsu::new(n);
        let mut j = i;
        while j < scheme.depth() {
            let mut trial = dsu.clone();
            let consistent = scheme.layer(j).iter().all(|&g| {
                let gate = dag.gate(g);
                trial.union_different(gate.control, gate.target)
            });
            if !consistent {
                break;
            }
            dsu = trial;
            j += 1;
        }
        debug_assert!(j > i, "a single layer is a matching and always bipartite");

        // Target cut assignment: per DSU component pick the orientation
        // that flips the fewest tiles relative to the current cuts.
        let sides = dsu.coloring();
        let target = match &cuts {
            None => sides.iter().map(|&s| CutType::from_side(s)).collect::<Vec<_>>(),
            Some(current) => {
                let mut by_root: std::collections::HashMap<usize, (usize, usize)> =
                    std::collections::HashMap::new();
                let mut dsu_roots = dsu.clone();
                for q in 0..n {
                    let root = dsu_roots.root(q);
                    let entry = by_root.entry(root).or_insert((0, 0));
                    // Count flips if the component keeps its parity (side as
                    // is) vs inverts it.
                    if CutType::from_side(sides[q]) != current[q] {
                        entry.0 += 1;
                    }
                    if CutType::from_side(1 - sides[q]) != current[q] {
                        entry.1 += 1;
                    }
                }
                let mut target = Vec::with_capacity(n);
                for (q, &side) in sides.iter().enumerate() {
                    let root = dsu_roots.root(q);
                    let (keep, invert) = by_root[&root];
                    let side = if invert < keep { 1 - side } else { side };
                    target.push(CutType::from_side(side));
                }
                target
            }
        };

        match &mut cuts {
            None => {
                initial = Some(target.clone());
                cuts = Some(target);
            }
            Some(current) => {
                let flips: Vec<usize> = (0..n).filter(|&q| current[q] != target[q]).collect();
                if !flips.is_empty() {
                    for &q in &flips {
                        events.push(Event {
                            gate: None,
                            start: cycle,
                            kind: EventKind::CutModification { qubit: q },
                        });
                        current[q] = current[q].flipped();
                    }
                    cycle += 3;
                }
            }
        }

        // Execute the batch, one layer per cycle (spilling on congestion),
        // each layer a distance-ordered router batch — see the
        // lattice-surgery scheduler.
        for layer in (i..j).map(|t| scheme.layer(t)) {
            cycle = route_layer_batched(
                &mut router,
                dag,
                mapping,
                layer,
                cycle,
                &mut events,
                &mut scratch,
                |path| EventKind::Braid { path },
            )?;
        }
        i = j;
    }

    let encoded = EncodedCircuit::new(Arc::clone(chip), mapping.to_vec(), initial, events);
    Ok((encoded, router.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::validate_encoded;
    use crate::profile::para_finding;
    use ecmas_circuit::{benchmarks, random, Circuit};

    fn sufficient_chip(model: CodeModel, c: &Circuit, gpm: usize) -> Arc<Chip> {
        Arc::new(Chip::sufficient(model, c.qubits(), gpm, 3).unwrap())
    }

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn lattice_surgery_resu_is_depth_optimal() {
        for c in [benchmarks::ghz(9), benchmarks::qft(8), benchmarks::ising_chain(9, 3)] {
            let dag = c.dag();
            let scheme = para_finding(&dag);
            let chip = sufficient_chip(CodeModel::LatticeSurgery, &c, scheme.gpm());
            let enc =
                schedule_sufficient(&dag, &scheme, &chip, &identity(c.qubits()), None).unwrap().0;
            assert_eq!(enc.cycles() as usize, dag.depth(), "{}: LS ReSu must hit α", c.name());
            validate_encoded(&c, &enc).unwrap();
        }
    }

    #[test]
    fn double_defect_resu_respects_approximation_bound() {
        for c in [benchmarks::qft(8), benchmarks::ising_chain(9, 3), benchmarks::ghz(9)] {
            let dag = c.dag();
            let scheme = para_finding(&dag);
            let chip = sufficient_chip(CodeModel::DoubleDefect, &c, scheme.gpm());
            let enc =
                schedule_sufficient(&dag, &scheme, &chip, &identity(c.qubits()), None).unwrap().0;
            validate_encoded(&c, &enc).unwrap();
            let bound = (5 * dag.depth()).div_ceil(2) + 3;
            assert!(
                enc.cycles() as usize <= bound,
                "{}: {} cycles exceeds 5/2·α bound {}",
                c.name(),
                enc.cycles(),
                bound
            );
        }
    }

    #[test]
    fn bipartite_circuit_needs_no_remapping() {
        let c = benchmarks::ising_chain(9, 3);
        let dag = c.dag();
        let scheme = para_finding(&dag);
        let chip = sufficient_chip(CodeModel::DoubleDefect, &c, scheme.gpm());
        let enc = schedule_sufficient(&dag, &scheme, &chip, &identity(c.qubits()), None).unwrap().0;
        assert_eq!(enc.modification_count(), 0, "bipartite comm graph: single batch");
        assert_eq!(enc.cycles() as usize, dag.depth());
    }

    #[test]
    fn non_bipartite_circuit_gets_batched_remaps() {
        // A triangle of gates repeated: must remap at least once.
        let mut c = Circuit::new(3);
        for _ in 0..4 {
            c.cnot(0, 1);
            c.cnot(1, 2);
            c.cnot(2, 0);
        }
        let dag = c.dag();
        let scheme = para_finding(&dag);
        let chip = sufficient_chip(CodeModel::DoubleDefect, &c, scheme.gpm().max(2));
        let enc = schedule_sufficient(&dag, &scheme, &chip, &identity(3), None).unwrap().0;
        validate_encoded(&c, &enc).unwrap();
        assert!(enc.modification_count() > 0, "odd cycles force remapping");
        assert!(enc.cycles() as usize > dag.depth());
    }

    #[test]
    fn random_high_parallelism_routes_at_capacity() {
        let c = random::layered(16, 10, 6, 5);
        let dag = c.dag();
        let scheme = para_finding(&dag);
        let chip = sufficient_chip(CodeModel::LatticeSurgery, &c, scheme.gpm());
        assert!(chip.communication_capacity() >= scheme.gpm());
        let enc = schedule_sufficient(&dag, &scheme, &chip, &identity(16), None).unwrap().0;
        assert_eq!(enc.cycles() as usize, 10, "sufficient bandwidth ⇒ no spill");
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(4);
        let dag = c.dag();
        let scheme = para_finding(&dag);
        let chip = sufficient_chip(CodeModel::LatticeSurgery, &c, 1);
        let enc = schedule_sufficient(&dag, &scheme, &chip, &identity(4), None).unwrap().0;
        assert_eq!(enc.cycles(), 0);
    }
}

#[cfg(test)]
mod orientation_tests {
    use super::*;
    use crate::encoded::validate_encoded;
    use crate::profile::para_finding;
    use ecmas_circuit::Circuit;

    /// A circuit whose batches share most of their bipartition: the
    /// per-component orientation choice should keep flips sparse.
    #[test]
    fn remap_flips_are_minimized_per_component() {
        let mut c = Circuit::new(6);
        // Batch 1: a path (bipartite).
        for i in 0..5 {
            c.cnot(i, i + 1);
        }
        // Close an odd cycle so a second batch is forced…
        c.cnot(0, 2);
        // …then repeat the same path, which is consistent with the FIRST
        // coloring again.
        for i in 0..5 {
            c.cnot(i, i + 1);
        }
        let dag = c.dag();
        let scheme = para_finding(&dag);
        let chip =
            Arc::new(Chip::sufficient(CodeModel::DoubleDefect, 6, scheme.gpm().max(2), 3).unwrap());
        let mapping: Vec<usize> = (0..6).collect();
        let enc = schedule_sufficient(&dag, &scheme, &chip, &mapping, None).unwrap().0;
        validate_encoded(&c, &enc).unwrap();
        // The odd-cycle edge forces at least one remap, but never a
        // wholesale flip of all six tiles.
        assert!(enc.modification_count() >= 1);
        assert!(enc.modification_count() < 6, "orientation choice should keep flips sparse");
    }

    #[test]
    fn batches_never_split_below_two_layers() {
        // Lemma 1 corollary: with ≥2 layers remaining, each batch spans ≥2.
        let mut c = Circuit::new(4);
        for _ in 0..6 {
            c.cnot(0, 1);
            c.cnot(1, 2);
            c.cnot(2, 0); // triangle: every batch hits the odd cycle
            c.cnot(2, 3);
        }
        let dag = c.dag();
        let scheme = para_finding(&dag);
        let chip =
            Arc::new(Chip::sufficient(CodeModel::DoubleDefect, 4, scheme.gpm().max(2), 3).unwrap());
        let mapping: Vec<usize> = (0..4).collect();
        let enc = schedule_sufficient(&dag, &scheme, &chip, &mapping, None).unwrap().0;
        validate_encoded(&c, &enc).unwrap();
        // Remap batches cost 3 cycles each; with L layers and batches of
        // ≥2 layers, total ≤ L + 3·⌈L/2⌉ (Theorem 3's counting).
        let layers = scheme.depth() as u64;
        assert!(enc.cycles() <= layers + 3 * layers.div_ceil(2));
    }
}
