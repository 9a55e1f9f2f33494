//! The limited-resources scheduler — Algorithm 1 of the paper.
//!
//! A cycle-driven event loop over the gate DAG: each clock cycle the ready
//! gates are ordered by priority (criticality, then descendant count — or
//! raw circuit order for the Table IV baseline) and greedily routed on the
//! chip. In the double-defect model a same-cut-type gate additionally
//! chooses between direct 3-cycle execution and a 3-cycle cut-type
//! modification, steered by the M-value `Mt + θ·Ms` (§IV-C2) or by the
//! Table V baseline policies.
//!
//! Routing goes through the router's batched per-cycle API: each cycle's
//! unconditional gates (lattice CNOTs, different-cut braids) accumulate
//! into one [`Router::route_ready`] call, flushed whenever a same-cut
//! gate needs its direct-vs-modify decision (whose M-values read state
//! the batch updates). Because ready gates are pairwise qubit-disjoint
//! and the flush preserves priority order, the batched schedule is
//! bit-identical to the historical per-gate loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{GateDag, GateId};
use ecmas_route::{Disjointness, RouteRequest, Router, RouterStats};

use crate::cut::CutType;
use crate::encoded::{EncodedCircuit, Event, EventKind};
use crate::error::CompileError;

/// Gate ordering within a cycle (Table IV ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GateOrder {
    /// Criticality first (longest remaining chain), then descendant count,
    /// then program order — the paper's priority function.
    Priority,
    /// Plain program order ("circuit-order" baseline).
    CircuitOrder,
}

/// Policy for same-cut-type CNOTs in the double-defect model (Table V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CutPolicy {
    /// The paper's adaptive M-value rule, instantiated as remaining-work
    /// latency accounting (the paper's exact constants are underspecified —
    /// see DESIGN.md): for each operand tile `x`, modifying saves
    /// `2·rem(x,q)` cycles for every partner `q` that currently shares
    /// `x`'s cut type (each of their CNOTs drops from 3 cycles to 1) and
    /// costs the same for partners that currently differ. When a direct
    /// path is available the swing must beat the 3-cycle modification
    /// latency; when the gate is congestion-blocked the wait hides that
    /// latency entirely and the policy modifies outright — "leveraging the
    /// waiting time due to path conflicts" (§V-C3).
    Adaptive,
    /// Always finish this gate as early as possible: direct when a path is
    /// available, modify otherwise ("Time-first" baseline).
    TimeFirst,
    /// Always minimize channel occupation: modify whenever the cut types
    /// are equal, since one braid beats two ("Channel-first" baseline).
    ChannelFirst,
    /// Never modify — every same-cut CNOT executes directly in 3 cycles
    /// (what AutoBraid/Braidflash implicitly do).
    NeverModify,
}

/// Configuration of the limited-resources scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Gate ordering within a cycle.
    pub order: GateOrder,
    /// Same-cut-type policy (ignored for lattice surgery).
    pub cut_policy: CutPolicy,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig { order: GateOrder::Priority, cut_policy: CutPolicy::Adaptive }
    }
}

/// Latency of a direct same-cut-type CNOT (Fig. 3a).
const DIRECT_LATENCY: u64 = 3;
/// Cycles the direct CNOT holds its inter-tile path.
const DIRECT_PATH_HOLD: u64 = 2;
/// Latency of a cut-type modification (Fig. 3b, before the closing braid).
const MODIFY_LATENCY: u64 = 3;

/// Runs Algorithm 1: schedules every CNOT of `dag` on `chip` under the
/// given `mapping` and (for double defect) `initial_cuts`, returning the
/// schedule with the router's effort/conflict counters.
///
/// The chip is shared: a session's one `Arc<Chip>` flows into the
/// [`EncodedCircuit`] without a chip clone.
///
/// # Errors
///
/// * [`CompileError::CutTypesMismatch`] if cut types are supplied for the
///   wrong model.
/// * [`CompileError::ScheduleStuck`] if the scheduler stops making progress
///   (defensive; indicates a model bug, not a user error).
#[allow(clippy::too_many_lines)]
pub fn schedule_limited(
    dag: &GateDag,
    chip: &Arc<Chip>,
    mapping: &[usize],
    initial_cuts: Option<&[CutType]>,
    config: ScheduleConfig,
) -> Result<(EncodedCircuit, RouterStats), CompileError> {
    let n = dag.qubits();
    let model = chip.model();
    match (model, initial_cuts) {
        (CodeModel::DoubleDefect, Some(cuts)) if cuts.len() == n => {}
        (CodeModel::LatticeSurgery, None) => {}
        _ => return Err(CompileError::CutTypesMismatch),
    }

    let mode = match model {
        CodeModel::DoubleDefect => Disjointness::Node,
        CodeModel::LatticeSurgery => Disjointness::Edge,
    };
    let mut router = Router::new(chip.grid(), mode);
    for &slot in mapping {
        router.block_tile(slot);
    }

    // The per-gate priority key is cycle-invariant — criticality and
    // descendant counts are DAG properties, the tile distance depends
    // only on the fixed mapping — so it is computed once here instead of
    // being rebuilt inside the sort comparator on every one of up to
    // thousands of cycles.
    let priority: Vec<(Reverse<usize>, Reverse<usize>, usize)> =
        if config.order == GateOrder::Priority && !dag.is_empty() {
            let descendants = dag.descendant_counts();
            (0..dag.len())
                .map(|g| {
                    let gate = dag.gate(g);
                    let dist = chip.tile_distance(mapping[gate.control], mapping[gate.target]);
                    (Reverse(dag.criticality(g)), Reverse(descendants[g] as usize), dist)
                })
                .collect()
        } else {
            Vec::new()
        };

    // Remaining CNOT multiplicity per qubit pair: the Adaptive cut policy's
    // look-ahead. Decremented as gates complete.
    let mut remaining = vec![0u32; n * n];
    for g in 0..dag.len() {
        let gate = dag.gate(g);
        remaining[gate.control * n + gate.target] += 1;
        remaining[gate.target * n + gate.control] += 1;
    }

    let mut cuts: Vec<CutType> = initial_cuts.map(<[CutType]>::to_vec).unwrap_or_default();
    let mut qubit_free = vec![0u64; n];
    let mut pending_parents: Vec<usize> = (0..dag.len()).map(|g| dag.parents(g).len()).collect();
    let mut earliest: Vec<u64> = vec![0; dag.len()];
    // (earliest start, gate) min-heap of gates whose parents are all done.
    let mut heap: BinaryHeap<Reverse<(u64, GateId)>> = BinaryHeap::new();
    for (g, &pending) in pending_parents.iter().enumerate() {
        if pending == 0 {
            heap.push(Reverse((0, g)));
        }
    }
    let mut active: Vec<GateId> = Vec::new();
    // One event per gate plus any cut modifications: reserving the
    // gate count up front saves the doubling regrowth of the log.
    let mut events: Vec<Event> = Vec::with_capacity(dag.len());
    // Per-cycle routing batch, reused across cycles. Ready gates are
    // pairwise qubit-disjoint (sharing a qubit implies a DAG dependency),
    // so a cycle's unconditional gates can be handed to the router as one
    // `route_ready` batch; only a same-cut gate forces a flush, because
    // its modify/direct decision reads state the batch updates.
    let mut batch: Vec<RouteRequest> = Vec::new();
    let mut batch_items: Vec<(usize, GateId)> = Vec::new();
    // More per-cycle scratch, reused so the steady-state cycle loop
    // allocates nothing: batch outcomes and the scheduled-index list.
    let mut outcomes: Vec<Option<ecmas_route::Path>> = Vec::new();
    let mut scheduled: Vec<usize> = Vec::new();
    let mut done = 0usize;
    let mut cycle: u64 = 0;
    // Generous stall bound: every gate needs at most a few cycles once
    // resources free up; 4·g + grid-perimeter slack covers worst cases.
    let stall_limit = 8 * dag.len() as u64 + 4 * (chip.tile_rows() + chip.tile_cols()) as u64 + 64;
    let mut last_progress_cycle: u64 = 0;

    while done < dag.len() {
        while let Some(&Reverse((t, g))) = heap.peek() {
            if t <= cycle {
                heap.pop();
                active.push(g);
            } else {
                break;
            }
        }
        if active.is_empty() {
            // Jump to the next gate-release time.
            if let Some(&Reverse((t, _))) = heap.peek() {
                cycle = cycle.max(t);
                continue;
            }
            // Nothing ready and nothing pending ⇒ inconsistent state.
            return Err(CompileError::ScheduleStuck { cycle, pending: dag.len() - done });
        }

        match config.order {
            // Criticality, then descendant count (the paper's priority
            // function); remaining ties go to shorter gates first so a
            // long greedy path does not block several short ones. The
            // gate id makes the key total, so the allocation-free
            // unstable sort is deterministic.
            GateOrder::Priority => active.sort_unstable_by_key(|&g| (priority[g], g)),
            GateOrder::CircuitOrder => active.sort_unstable(),
        }

        scheduled.clear(); // indices into `active`
        for (idx, &g) in active.iter().enumerate() {
            let gate = dag.gate(g);
            let (a, b) = (gate.control, gate.target);
            if qubit_free[a] > cycle || qubit_free[b] > cycle {
                continue;
            }
            let (sa, sb) = (mapping[a], mapping[b]);
            let unconditional = match model {
                CodeModel::LatticeSurgery => true,
                CodeModel::DoubleDefect => cuts[a] != cuts[b],
            };
            if unconditional {
                // Routed at the next flush; batching preserves the
                // sequential find/commit order because the batch runs in
                // priority order and nothing between here and the flush
                // touches the router.
                batch.push(RouteRequest::route(sa, sb, 1));
                batch_items.push((idx, g));
                continue;
            }
            // Same cut types (double defect): direct vs modify. This is a
            // decision point — the M-values read cut types and remaining
            // counts that earlier gates of this cycle update — so route
            // everything batched so far, then probe and decide.
            flush_routed_batch(FlushCtx {
                router: &mut router,
                dag,
                model,
                n,
                cycle,
                batch: &mut batch,
                batch_items: &mut batch_items,
                outcomes: &mut outcomes,
                events: &mut events,
                qubit_free: &mut qubit_free,
                remaining: &mut remaining,
                pending_parents: &mut pending_parents,
                earliest: &mut earliest,
                heap: &mut heap,
                done: &mut done,
                scheduled: &mut scheduled,
                last_progress_cycle: &mut last_progress_cycle,
            });
            let candidate = router.find_tile_path(sa, sb, cycle);
            let decision = decide_same_cut(
                dag,
                g,
                &cuts,
                &remaining,
                candidate.is_some(),
                n,
                config.cut_policy,
            );
            match decision {
                SameCutDecision::Modify(qubit) => {
                    events.push(Event {
                        gate: None,
                        start: cycle,
                        kind: EventKind::CutModification { qubit },
                    });
                    cuts[qubit] = cuts[qubit].flipped();
                    qubit_free[qubit] = cycle + MODIFY_LATENCY;
                    // The gate stays pending; it retries once the
                    // tile is free and will braid in one cycle.
                    last_progress_cycle = cycle;
                }
                SameCutDecision::Direct => {
                    if let Some(path) = candidate {
                        router.commit(&path, cycle, DIRECT_PATH_HOLD);
                        events.push(Event {
                            gate: Some(g),
                            start: cycle,
                            kind: EventKind::DirectSameCut { path },
                        });
                        let end = cycle + DIRECT_LATENCY;
                        qubit_free[a] = end;
                        qubit_free[b] = end;
                        complete(dag, g, end, &mut pending_parents, &mut earliest, &mut heap);
                        remaining[a * n + b] -= 1;
                        remaining[b * n + a] -= 1;
                        done += 1;
                        scheduled.push(idx);
                        last_progress_cycle = cycle;
                    }
                }
                SameCutDecision::Wait => {}
            }
        }
        flush_routed_batch(FlushCtx {
            router: &mut router,
            dag,
            model,
            n,
            cycle,
            batch: &mut batch,
            batch_items: &mut batch_items,
            outcomes: &mut outcomes,
            events: &mut events,
            qubit_free: &mut qubit_free,
            remaining: &mut remaining,
            pending_parents: &mut pending_parents,
            earliest: &mut earliest,
            heap: &mut heap,
            done: &mut done,
            scheduled: &mut scheduled,
            last_progress_cycle: &mut last_progress_cycle,
        });
        for &idx in scheduled.iter().rev() {
            active.swap_remove(idx);
        }
        if cycle - last_progress_cycle > stall_limit {
            return Err(CompileError::ScheduleStuck { cycle, pending: dag.len() - done });
        }
        cycle += 1;
    }

    let encoded = EncodedCircuit::new(
        Arc::clone(chip),
        mapping.to_vec(),
        initial_cuts.map(<[CutType]>::to_vec),
        events,
    );
    Ok((encoded, router.stats()))
}

/// Mutable scheduler state one routing-batch flush updates — bundled so
/// [`flush_routed_batch`] stays a plain function instead of a closure over
/// a dozen locals.
struct FlushCtx<'a> {
    router: &'a mut Router,
    dag: &'a GateDag,
    model: CodeModel,
    n: usize,
    cycle: u64,
    batch: &'a mut Vec<RouteRequest>,
    batch_items: &'a mut Vec<(usize, GateId)>,
    outcomes: &'a mut Vec<Option<ecmas_route::Path>>,
    events: &'a mut Vec<Event>,
    qubit_free: &'a mut [u64],
    remaining: &'a mut [u32],
    pending_parents: &'a mut [usize],
    earliest: &'a mut [u64],
    heap: &'a mut BinaryHeap<Reverse<(u64, GateId)>>,
    done: &'a mut usize,
    scheduled: &'a mut Vec<usize>,
    last_progress_cycle: &'a mut u64,
}

/// Routes the pending unconditional batch through
/// [`Router::route_ready`] and applies the completions (events, qubit
/// release times, DAG bookkeeping) in batch order — the same order and
/// router-call sequence the per-gate loop used to produce.
fn flush_routed_batch(ctx: FlushCtx<'_>) {
    if ctx.batch.is_empty() {
        return;
    }
    ctx.router.route_ready(ctx.batch, ctx.cycle, ctx.outcomes);
    for (&(idx, g), outcome) in ctx.batch_items.iter().zip(ctx.outcomes.drain(..)) {
        let Some(path) = outcome else { continue };
        let gate = ctx.dag.gate(g);
        let (a, b) = (gate.control, gate.target);
        let kind = match ctx.model {
            CodeModel::LatticeSurgery => EventKind::LatticeCnot { path },
            CodeModel::DoubleDefect => EventKind::Braid { path },
        };
        ctx.events.push(Event { gate: Some(g), start: ctx.cycle, kind });
        let end = ctx.cycle + 1;
        ctx.qubit_free[a] = end;
        ctx.qubit_free[b] = end;
        complete(ctx.dag, g, end, ctx.pending_parents, ctx.earliest, ctx.heap);
        // Every completed gate leaves the look-ahead table, braids included:
        // a different-cut braid that skipped this decrement (the latent
        // modeling bug recorded in ROADMAP) left the Adaptive policy's
        // M-values counting work that was already done, so later same-cut
        // decisions over-estimated the channel swing of a flip.
        ctx.remaining[a * ctx.n + b] -= 1;
        ctx.remaining[b * ctx.n + a] -= 1;
        *ctx.done += 1;
        ctx.scheduled.push(idx);
        *ctx.last_progress_cycle = ctx.cycle;
    }
    ctx.batch.clear();
    ctx.batch_items.clear();
}

fn complete(
    dag: &GateDag,
    g: GateId,
    end: u64,
    pending_parents: &mut [usize],
    earliest: &mut [u64],
    heap: &mut BinaryHeap<Reverse<(u64, GateId)>>,
) {
    for &child in dag.children(g) {
        earliest[child] = earliest[child].max(end);
        pending_parents[child] -= 1;
        if pending_parents[child] == 0 {
            heap.push(Reverse((earliest[child], child)));
        }
    }
}

enum SameCutDecision {
    Direct,
    Modify(usize),
    Wait,
}

/// The §IV-C2 decision for a same-cut-type gate.
///
/// `remaining[x·n + q]` holds the not-yet-completed CNOT multiplicity per
/// qubit pair, including the current gate.
fn decide_same_cut(
    dag: &GateDag,
    g: GateId,
    cuts: &[CutType],
    remaining: &[u32],
    routable_now: bool,
    n: usize,
    policy: CutPolicy,
) -> SameCutDecision {
    let gate = dag.gate(g);
    // Immediate-children channel term (used by the baseline policies to
    // pick which operand to flip): −1 for the saved braid on this gate,
    // ±1 per immediate child whose pairing improves/worsens.
    let ms_children = |x: usize| -> i64 {
        let mut ms = -1;
        let new_cut = cuts[x].flipped();
        for &child in dag.children(g) {
            let cg = dag.gate(child);
            if cg.touches(x) {
                if cuts[cg.other(x)] == new_cut {
                    ms += 1;
                } else {
                    ms -= 1;
                }
            }
        }
        ms
    };
    // Adaptive gain of flipping `x`: every remaining CNOT with a partner
    // that currently *shares* x's cut drops from 3 cycles to 1 (+2 each),
    // every one with a partner that currently differs goes the other way
    // (−2 each). When a direct path is available the flip must beat the
    // full MODIFY_LATENCY; when the gate is congestion-blocked the wait
    // hides the modification (the paper's "leverages the waiting time"),
    // so only the channel swing matters.
    let gain = |x: usize| -> i64 {
        let mut swing = 0i64;
        for q in 0..n {
            let rem = i64::from(remaining[x * n + q]);
            if rem == 0 || q == x {
                continue;
            }
            if cuts[q] == cuts[x] {
                swing += 2 * rem;
            } else {
                swing -= 2 * rem;
            }
        }
        let latency = if routable_now {
            i64::try_from(MODIFY_LATENCY).expect("small constant")
        } else {
            // Blocked: the wait hides the modification latency.
            0
        };
        swing - latency
    };
    match policy {
        CutPolicy::NeverModify => {
            if routable_now {
                SameCutDecision::Direct
            } else {
                SameCutDecision::Wait
            }
        }
        CutPolicy::TimeFirst => {
            if routable_now {
                SameCutDecision::Direct
            } else {
                // Modification needs no channel: it always makes progress.
                let (ma, mb) = (ms_children(gate.control), ms_children(gate.target));
                let pick = if ma <= mb { gate.control } else { gate.target };
                SameCutDecision::Modify(pick)
            }
        }
        CutPolicy::ChannelFirst => {
            let (ma, mb) = (ms_children(gate.control), ms_children(gate.target));
            let pick = if ma <= mb { gate.control } else { gate.target };
            SameCutDecision::Modify(pick)
        }
        CutPolicy::Adaptive => {
            let (ga, gb) = (gain(gate.control), gain(gate.target));
            let (g_max, pick) = if ga >= gb { (ga, gate.control) } else { (gb, gate.target) };
            if g_max > 0 {
                SameCutDecision::Modify(pick)
            } else if routable_now {
                SameCutDecision::Direct
            } else {
                // Congestion-blocked: a modification is channel-free
                // progress during a wait that happens anyway (§V-C3
                // "leverages the waiting time due to path conflicts"), so
                // flip the operand with the better remaining-work swing.
                SameCutDecision::Modify(pick)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{initialize_cuts, CutInitStrategy};
    use crate::encoded::validate_encoded;
    use ecmas_circuit::Circuit;

    fn dd_chip(n: usize) -> Arc<Chip> {
        Arc::new(Chip::min_viable(CodeModel::DoubleDefect, n, 3).unwrap())
    }

    fn ls_chip(n: usize) -> Arc<Chip> {
        Arc::new(Chip::min_viable(CodeModel::LatticeSurgery, n, 3).unwrap())
    }

    fn identity_mapping(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn greedy_cuts(c: &Circuit) -> Vec<CutType> {
        initialize_cuts(&c.dag(), &c.comm_graph(), CutInitStrategy::GreedyBipartitePrefix)
    }

    #[test]
    fn single_gate_different_cuts_takes_one_cycle() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let chip = dd_chip(2);
        let cuts = vec![CutType::X, CutType::Z];
        let enc = schedule_limited(
            &c.dag(),
            &chip,
            &identity_mapping(2),
            Some(&cuts),
            ScheduleConfig::default(),
        )
        .unwrap()
        .0;
        assert_eq!(enc.cycles(), 1);
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn single_gate_same_cuts_never_modify_takes_three() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let chip = dd_chip(2);
        let cuts = vec![CutType::X, CutType::X];
        let enc = schedule_limited(
            &c.dag(),
            &chip,
            &identity_mapping(2),
            Some(&cuts),
            ScheduleConfig { order: GateOrder::Priority, cut_policy: CutPolicy::NeverModify },
        )
        .unwrap()
        .0;
        assert_eq!(enc.cycles(), 3);
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn channel_first_modifies_and_takes_four() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let chip = dd_chip(2);
        let cuts = vec![CutType::X, CutType::X];
        let enc = schedule_limited(
            &c.dag(),
            &chip,
            &identity_mapping(2),
            Some(&cuts),
            ScheduleConfig { order: GateOrder::Priority, cut_policy: CutPolicy::ChannelFirst },
        )
        .unwrap()
        .0;
        assert_eq!(enc.cycles(), 4);
        assert_eq!(enc.modification_count(), 1);
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn ghz_chain_runs_at_depth_with_greedy_cuts() {
        let c = ecmas_circuit::benchmarks::ghz(8);
        let chip = dd_chip(8);
        let cuts = greedy_cuts(&c);
        let enc = schedule_limited(
            &c.dag(),
            &chip,
            &identity_mapping(8),
            Some(&cuts),
            ScheduleConfig::default(),
        )
        .unwrap()
        .0;
        assert_eq!(enc.cycles() as usize, c.depth(), "bipartite chain ⇒ Δ = α");
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn all_same_cuts_cost_three_alpha_on_chain() {
        let c = ecmas_circuit::benchmarks::ghz(6);
        let chip = dd_chip(6);
        let cuts = vec![CutType::X; 6];
        let enc = schedule_limited(
            &c.dag(),
            &chip,
            &identity_mapping(6),
            Some(&cuts),
            ScheduleConfig { order: GateOrder::Priority, cut_policy: CutPolicy::NeverModify },
        )
        .unwrap()
        .0;
        assert_eq!(enc.cycles() as usize, 3 * c.depth(), "AutoBraid signature: 3α");
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn lattice_surgery_chain_runs_at_depth() {
        let c = ecmas_circuit::benchmarks::ghz(9);
        let chip = ls_chip(9);
        let enc = schedule_limited(
            &c.dag(),
            &chip,
            &identity_mapping(9),
            None,
            ScheduleConfig::default(),
        )
        .unwrap()
        .0;
        assert_eq!(enc.cycles() as usize, c.depth());
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn parallel_gates_share_a_cycle_when_bandwidth_allows() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        let chip = ls_chip(4);
        let enc = schedule_limited(
            &c.dag(),
            &chip,
            &identity_mapping(4),
            None,
            ScheduleConfig::default(),
        )
        .unwrap()
        .0;
        assert_eq!(enc.cycles(), 1, "two disjoint gates fit one cycle");
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn cut_types_mismatch_is_rejected() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let err = schedule_limited(
            &c.dag(),
            &ls_chip(2),
            &identity_mapping(2),
            Some(&[CutType::X, CutType::Z]),
            ScheduleConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, CompileError::CutTypesMismatch);
        let err = schedule_limited(
            &c.dag(),
            &dd_chip(2),
            &identity_mapping(2),
            None,
            ScheduleConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, CompileError::CutTypesMismatch);
    }

    #[test]
    fn empty_circuit_compiles_to_zero_cycles() {
        let c = Circuit::new(3);
        let enc = schedule_limited(
            &c.dag(),
            &ls_chip(3),
            &identity_mapping(3),
            None,
            ScheduleConfig::default(),
        )
        .unwrap()
        .0;
        assert_eq!(enc.cycles(), 0);
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn circuit_order_vs_priority_both_valid() {
        let c = ecmas_circuit::benchmarks::qft(6);
        let chip = ls_chip(6);
        for order in [GateOrder::Priority, GateOrder::CircuitOrder] {
            let enc = schedule_limited(
                &c.dag(),
                &chip,
                &identity_mapping(6),
                None,
                ScheduleConfig { order, cut_policy: CutPolicy::Adaptive },
            )
            .unwrap()
            .0;
            validate_encoded(&c, &enc).unwrap();
            assert!(enc.cycles() as usize >= c.depth());
        }
    }

    #[test]
    fn adaptive_never_loses_to_never_modify_on_qft() {
        let c = ecmas_circuit::benchmarks::qft(8);
        let chip = dd_chip(8);
        let cuts = greedy_cuts(&c);
        let run = |policy| {
            schedule_limited(
                &c.dag(),
                &chip,
                &identity_mapping(8),
                Some(&cuts),
                ScheduleConfig { order: GateOrder::Priority, cut_policy: policy },
            )
            .unwrap()
            .0
        };
        let adaptive = run(CutPolicy::Adaptive);
        let never = run(CutPolicy::NeverModify);
        validate_encoded(&c, &adaptive).unwrap();
        validate_encoded(&c, &never).unwrap();
        assert!(
            adaptive.cycles() <= never.cycles(),
            "adaptive {} > never-modify {}",
            adaptive.cycles(),
            never.cycles()
        );
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::cut::CutType;
    use crate::encoded::{validate_encoded, EventKind};
    use ecmas_circuit::Circuit;

    /// A repeated same-cut pair should be flipped once by the adaptive
    /// policy (5 cycles for two CNOTs beats 6 direct), then braid.
    #[test]
    fn adaptive_flips_repeated_pairs() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.cnot(0, 1);
        let chip = Arc::new(Chip::min_viable(CodeModel::DoubleDefect, 2, 3).unwrap());
        let cuts = vec![CutType::X, CutType::X];
        let enc =
            schedule_limited(&c.dag(), &chip, &[0, 1], Some(&cuts), ScheduleConfig::default())
                .unwrap()
                .0;
        validate_encoded(&c, &enc).unwrap();
        assert_eq!(enc.modification_count(), 1);
        assert_eq!(enc.cycles(), 5, "flip(3) + braid(1) + braid(1)");
    }

    /// A one-shot same-cut pair should execute directly (3 < 4).
    #[test]
    fn adaptive_keeps_one_shot_pairs_direct() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let chip = Arc::new(Chip::min_viable(CodeModel::DoubleDefect, 2, 3).unwrap());
        let cuts = vec![CutType::X, CutType::X];
        let enc =
            schedule_limited(&c.dag(), &chip, &[0, 1], Some(&cuts), ScheduleConfig::default())
                .unwrap()
                .0;
        assert_eq!(enc.modification_count(), 0);
        assert_eq!(enc.cycles(), 3);
    }

    /// The adaptive flip must pick the operand whose other partners are
    /// not hurt: qubit 1 pairs with 2 later (different cut), so flipping
    /// qubit 0 preserves that braid while flipping 1 would break it.
    #[test]
    fn adaptive_picks_the_harmless_operand() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1);
        c.cnot(0, 1);
        c.cnot(1, 2);
        c.cnot(1, 2);
        let chip = Arc::new(Chip::min_viable(CodeModel::DoubleDefect, 3, 3).unwrap());
        let cuts = vec![CutType::X, CutType::X, CutType::Z];
        let enc =
            schedule_limited(&c.dag(), &chip, &[0, 1, 2], Some(&cuts), ScheduleConfig::default())
                .unwrap()
                .0;
        validate_encoded(&c, &enc).unwrap();
        let flipped: Vec<usize> = enc
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::CutModification { qubit } => Some(qubit),
                _ => None,
            })
            .collect();
        assert_eq!(flipped, vec![0], "flipping qubit 1 would break the (1,2) braids");
    }

    #[test]
    fn time_first_flips_only_when_blocked() {
        // On an uncongested chip TimeFirst never modifies.
        let c = ecmas_circuit::benchmarks::qft(6);
        let chip = Arc::new(Chip::min_viable(CodeModel::DoubleDefect, 6, 3).unwrap());
        let cuts = crate::cut::initialize_cuts(
            &c.dag(),
            &c.comm_graph(),
            crate::cut::CutInitStrategy::GreedyBipartitePrefix,
        );
        let enc = schedule_limited(
            &c.dag(),
            &chip,
            &[0, 1, 2, 3, 4, 5],
            Some(&cuts),
            ScheduleConfig { order: GateOrder::Priority, cut_policy: CutPolicy::TimeFirst },
        )
        .unwrap()
        .0;
        validate_encoded(&c, &enc).unwrap();
        // qft on 6 qubits at min-viable rarely congests; if no gate was
        // ever blocked, no modifications occurred.
        assert!(enc.modification_count() <= 2);
    }

    #[test]
    fn priority_order_prefers_critical_chains() {
        // Long chain plus an independent gate: with bandwidth for only one
        // path through the hot region, the chain gate must win the cycle.
        let mut c = Circuit::new(6);
        c.cnot(0, 1); // chain of 3
        c.cnot(1, 2);
        c.cnot(2, 3);
        c.cnot(4, 5); // loose gate
        let chip = Arc::new(Chip::min_viable(CodeModel::LatticeSurgery, 6, 3).unwrap());
        let enc =
            schedule_limited(&c.dag(), &chip, &[0, 1, 2, 3, 4, 5], None, ScheduleConfig::default())
                .unwrap()
                .0;
        validate_encoded(&c, &enc).unwrap();
        assert_eq!(enc.cycles() as usize, c.depth(), "chain must not be delayed");
    }
}
