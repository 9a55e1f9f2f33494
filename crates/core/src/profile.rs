//! Circuit profiling: Algorithm Para-Finding (§IV-A1).
//!
//! The Circuit Parallelism Degree `PM` is the smallest possible maximum
//! layer width over all depth-optimal layerings of the gate DAG — the
//! circuit's peak demand for simultaneous CNOT paths. Computing it exactly
//! is NP-complete (machine minimization under minimum-length schedules,
//! Finke et al.), so the paper's Para-Finding heuristic assigns gates in
//! increasing slack order to the emptiest feasible layer, yielding an
//! estimate `ĝPM` plus the layered execution scheme that Ecmas-ReSu
//! consumes.

use ecmas_circuit::{GateDag, GateId};

/// A depth-`α` layered execution scheme: layer `t` (0-based) holds the
/// gates of clock layer `t + 1`, and `gpm` is the maximum layer width
/// (the estimated Circuit Parallelism Degree `ĝPM`).
///
/// The layers are stored flat, one gate list cut at layer boundaries, so
/// a scheme costs two allocations however deep the circuit is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutionScheme {
    /// Every gate, layer after layer.
    gates: Vec<GateId>,
    /// Layer `t` is `gates[starts[t]..starts[t + 1]]`.
    starts: Vec<usize>,
    gpm: usize,
}

impl ExecutionScheme {
    /// The layers in execution order; every gate appears exactly once and
    /// parents appear in strictly earlier layers than children.
    pub fn layers(&self) -> impl ExactSizeIterator<Item = &[GateId]> + DoubleEndedIterator + '_ {
        self.starts.windows(2).map(|w| &self.gates[w[0]..w[1]])
    }

    /// The gates of layer `t` (0-based), in program order.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.depth()`.
    #[must_use]
    pub fn layer(&self, t: usize) -> &[GateId] {
        &self.gates[self.starts[t]..self.starts[t + 1]]
    }

    /// The estimated Circuit Parallelism Degree `ĝPM`.
    #[must_use]
    pub fn gpm(&self) -> usize {
        self.gpm
    }

    /// Number of layers (equals the circuit depth `α`).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.starts.len() - 1
    }
}

/// Algorithm Para-Finding: balances gates across the `α` layers.
///
/// Every gate `i` tracks the interval `[Low_i, High_i]` of layers it can
/// legally occupy (ASAP/ALAP under the depth-`α` horizon). Gates are
/// scheduled in increasing order of slack `High − Low`; each goes to the
/// emptiest layer in its interval, after which its children's `Low` and
/// parents' `High` tighten. The maximum resulting layer width is `ĝPM`.
///
/// # Example
///
/// ```
/// use ecmas_circuit::benchmarks::dnn_n8;
/// use ecmas::para_finding;
///
/// let scheme = para_finding(&dnn_n8().dag());
/// assert_eq!(scheme.depth(), 48);
/// assert_eq!(scheme.gpm(), 4); // 4 disjoint CNOTs per layer by design
/// ```
#[must_use]
pub fn para_finding(dag: &GateDag) -> ExecutionScheme {
    let n = dag.len();
    let depth = dag.depth();
    if n == 0 {
        return ExecutionScheme { gates: Vec::new(), starts: vec![0], gpm: 0 };
    }

    // Mutable Low/High bounds, 1-based.
    let mut low: Vec<usize> = (0..n).map(|g| dag.level(g)).collect();
    let mut high: Vec<usize> = (0..n).map(|g| dag.alap_level(g)).collect();
    let mut layer_of: Vec<usize> = vec![0; n]; // 0 = unscheduled
    let mut load: Vec<usize> = vec![0; depth + 1];

    // Repeatedly take the unscheduled gate with the smallest slack, ties
    // to the smallest position in `remaining` (which `swap_remove`
    // reorders). A min-tournament tree over those positions makes each
    // pick, and each slack change, O(log g).
    let mut remaining: Vec<GateId> = (0..n).collect();
    let mut slot_of: Vec<usize> = (0..n).collect();
    let mut tree = SlackTree::new((0..n).map(|g| high[g] - low[g]));
    let mut low_stack: Vec<(GateId, usize)> = Vec::new();
    let mut high_stack: Vec<(GateId, usize)> = Vec::new();
    while let Some(best_idx) = tree.leftmost_min() {
        let g = remaining.swap_remove(best_idx);
        let last = remaining.len();
        if best_idx < last {
            let moved = remaining[best_idx];
            slot_of[moved] = best_idx;
            tree.set(best_idx, high[moved] - low[moved]);
        }
        tree.set(last, usize::MAX);

        // Emptiest feasible layer in [low, high]; ties: earliest.
        debug_assert!(low[g] <= high[g], "window invariant");
        let mut target = low[g];
        for l in low[g]..=high[g] {
            if load[l] < load[target] {
                target = l;
            }
        }
        layer_of[g] = target;
        load[target] += 1;

        // Tighten the relatives' windows, cascading transitively so the
        // invariant low[child] > low[parent] (and symmetrically for high)
        // holds across unscheduled chains — a one-hop update can otherwise
        // strand a parent and child in the same layer.
        low_stack.extend(dag.children(g).iter().map(|&c| (c, target + 1)));
        while let Some((v, min_low)) = low_stack.pop() {
            if layer_of[v] == 0 && low[v] < min_low {
                low[v] = min_low;
                tree.lower(slot_of[v], high[v] - low[v]);
                low_stack.extend(dag.children(v).iter().map(|&c| (c, min_low + 1)));
            }
        }
        high_stack.extend(dag.parents(g).iter().map(|&p| (p, target - 1)));
        while let Some((v, max_high)) = high_stack.pop() {
            if layer_of[v] == 0 && high[v] > max_high {
                high[v] = max_high;
                tree.lower(slot_of[v], high[v] - low[v]);
                high_stack.extend(dag.parents(v).iter().map(|&p| (p, max_high - 1)));
            }
        }
    }

    // Rebalancing sweeps: pull gates out of the widest layers into the
    // emptiest feasible layer (bounded by the layers of their placed
    // parents and children). Keeps ĝPM close to the averaging bound.
    for _ in 0..4 {
        let mut moved = false;
        let max_load = *load[1..=depth].iter().max().unwrap_or(&0);
        if max_load * depth <= n {
            break; // already at the averaging bound
        }
        for g in 0..n {
            if load[layer_of[g]] < max_load {
                continue;
            }
            let lo = dag.parents(g).iter().map(|&p| layer_of[p] + 1).max().unwrap_or(1);
            let hi = dag.children(g).iter().map(|&c| layer_of[c] - 1).min().unwrap_or(depth);
            let best = (lo..=hi).min_by_key(|&l| (load[l], l)).unwrap_or(layer_of[g]);
            if load[best] + 1 < load[layer_of[g]] {
                load[layer_of[g]] -= 1;
                load[best] += 1;
                layer_of[g] = best;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }

    // Lay the gates out layer by layer (a counting sort on `layer_of`),
    // keeping program order within layers for determinism.
    let mut starts = vec![0; depth + 1];
    for l in 1..=depth {
        starts[l] = starts[l - 1] + load[l];
    }
    let mut next = starts.clone();
    let mut gates = vec![0; n];
    for g in 0..n {
        let slot = &mut next[layer_of[g] - 1];
        gates[*slot] = g;
        *slot += 1;
    }
    let gpm = load[1..=depth].iter().copied().max().unwrap_or(0);
    let slack_scheme = ExecutionScheme { gates, starts, gpm };

    // Refinement: binary-search the smallest per-layer capacity for which
    // deadline-driven list scheduling (earliest-ALAP-first) fits the DAG in
    // α layers. Whichever of the two heuristics yields the smaller maximum
    // width wins; exact PM is NP-complete (Finke et al.), both are
    // estimates from above.
    let mut best = slack_scheme;
    let mut lo = n.div_ceil(depth);
    let mut hi = best.gpm;
    while lo < hi {
        let mid = usize::midpoint(lo, hi);
        match edf_layers(dag, mid, depth) {
            Some(scheme) => {
                hi = scheme.gpm;
                debug_assert!(scheme.gpm <= mid);
                best = scheme;
            }
            None => lo = mid + 1,
        }
    }
    best
}

/// A flat min-tournament tree over the positions of Para-Finding's
/// `remaining` list: leaf `i` holds the slack of the gate at position
/// `i` (`usize::MAX` once the position is empty), and every inner node
/// the minimum of its two children.
struct SlackTree {
    /// Number of leaves, a power of two; leaf `i` is node `leaves + i`.
    leaves: usize,
    /// `node[1]` is the root; node `k` has children `2k` and `2k + 1`.
    node: Vec<usize>,
}

impl SlackTree {
    fn new(slack: impl ExactSizeIterator<Item = usize>) -> Self {
        let leaves = slack.len().next_power_of_two();
        let mut node = vec![usize::MAX; 2 * leaves];
        for (leaf, s) in node[leaves..].iter_mut().zip(slack) {
            *leaf = s;
        }
        for k in (1..leaves).rev() {
            node[k] = node[2 * k].min(node[2 * k + 1]);
        }
        SlackTree { leaves, node }
    }

    /// The smallest position holding the minimum slack, or `None` when
    /// every position is empty. Descending into the left child whenever
    /// it holds the root's value reaches the leftmost minimal leaf —
    /// exactly the first minimum a front-to-back scan finds.
    fn leftmost_min(&self) -> Option<usize> {
        let min = self.node[1];
        if min == usize::MAX {
            return None;
        }
        let mut k = 1;
        while k < self.leaves {
            k = if self.node[2 * k] == min { 2 * k } else { 2 * k + 1 };
        }
        Some(k - self.leaves)
    }

    /// Sets position `i` to any value and recomputes its ancestors,
    /// stopping at the first one whose minimum is unchanged.
    fn set(&mut self, i: usize, slack: usize) {
        let mut k = self.leaves + i;
        self.node[k] = slack;
        while k > 1 {
            let min = self.node[k].min(self.node[k ^ 1]);
            k /= 2;
            if self.node[k] == min {
                break;
            }
            self.node[k] = min;
        }
    }

    /// Lowers position `i` to `slack`, stopping at the first ancestor
    /// that already holds a value no larger.
    fn lower(&mut self, i: usize, slack: usize) {
        let mut k = self.leaves + i;
        debug_assert!(slack <= self.node[k], "slack only shrinks");
        self.node[k] = slack;
        while k > 1 && self.node[k / 2] > slack {
            k /= 2;
            self.node[k] = slack;
        }
    }
}

/// Deadline-driven list scheduling: fills the `depth` layers front to back,
/// taking up to `capacity` available gates per layer in increasing ALAP
/// order. Returns `None` if some gate misses its deadline.
fn edf_layers(dag: &GateDag, capacity: usize, depth: usize) -> Option<ExecutionScheme> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = dag.len();
    let mut pending_parents: Vec<usize> = (0..n).map(|g| dag.parents(g).len()).collect();
    // Gates whose parents are all scheduled, keyed by (alap, id).
    let mut ready: BinaryHeap<Reverse<(usize, GateId)>> = BinaryHeap::new();
    // Gates released for layers > current (children of the current layer).
    let mut next_release: Vec<GateId> = Vec::new();
    for (g, &pending) in pending_parents.iter().enumerate() {
        if pending == 0 {
            ready.push(Reverse((dag.alap_level(g), g)));
        }
    }
    let mut gates = Vec::with_capacity(n);
    let mut starts = Vec::with_capacity(depth + 1);
    starts.push(0);
    let mut gpm = 0;
    for layer_no in 1..=depth {
        let start = gates.len();
        while gates.len() - start < capacity {
            let Some(&Reverse((alap, g))) = ready.peek() else { break };
            if alap < layer_no {
                return None; // deadline already missed
            }
            ready.pop();
            gates.push(g);
            for &child in dag.children(g) {
                pending_parents[child] -= 1;
                if pending_parents[child] == 0 {
                    next_release.push(child);
                }
            }
        }
        // Urgency check: anything left in `ready` with deadline == this
        // layer can no longer make it.
        if let Some(&Reverse((alap, _))) = ready.peek() {
            if alap <= layer_no {
                return None;
            }
        }
        for g in next_release.drain(..) {
            ready.push(Reverse((dag.alap_level(g), g)));
        }
        gpm = gpm.max(gates.len() - start);
        starts.push(gates.len());
    }
    if gates.len() != n {
        return None;
    }
    Some(ExecutionScheme { gates, starts, gpm })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_circuit::{benchmarks, random, Circuit};

    /// Every gate exactly once; parents strictly before children.
    fn assert_valid_scheme(dag: &GateDag, scheme: &ExecutionScheme) {
        let mut layer_of = vec![usize::MAX; dag.len()];
        let mut seen = 0;
        for (l, layer) in scheme.layers().enumerate() {
            for &g in layer {
                assert_eq!(layer_of[g], usize::MAX, "gate {g} scheduled twice");
                layer_of[g] = l;
                seen += 1;
            }
        }
        assert_eq!(seen, dag.len(), "all gates scheduled");
        for g in 0..dag.len() {
            for &p in dag.parents(g) {
                assert!(layer_of[p] < layer_of[g], "parent after child");
            }
        }
        // No layer may contain two gates sharing a qubit.
        for layer in scheme.layers() {
            let mut used = std::collections::HashSet::new();
            for &g in layer {
                let gate = dag.gate(g);
                assert!(used.insert(gate.control), "qubit reused in layer");
                assert!(used.insert(gate.target), "qubit reused in layer");
            }
        }
    }

    #[test]
    fn chain_has_gpm_one() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(1, 2);
        c.cnot(2, 3);
        let dag = c.dag();
        let scheme = para_finding(&dag);
        assert_eq!(scheme.gpm(), 1);
        assert_eq!(scheme.depth(), 3);
        assert_valid_scheme(&dag, &scheme);
    }

    #[test]
    fn balances_slack_gates_away_from_busy_layers() {
        // Three parallel 1-gate chains of depth 1 and one chain of depth 3:
        // the three loose gates should spread across layers, giving ĝPM 2.
        let mut c = Circuit::new(10);
        c.cnot(0, 1); // chain
        c.cnot(1, 2);
        c.cnot(2, 3);
        c.cnot(4, 5); // loose
        c.cnot(6, 7); // loose
        c.cnot(8, 9); // loose
        let dag = c.dag();
        let scheme = para_finding(&dag);
        assert_eq!(scheme.depth(), 3);
        let layers: Vec<&[GateId]> = scheme.layers().collect();
        assert_eq!(scheme.gpm(), 2, "loose gates should spread: {layers:?}");
        assert_valid_scheme(&dag, &scheme);
    }

    #[test]
    fn gpm_lower_bound_holds() {
        // ĝPM ≥ ⌈g/α⌉ always.
        for c in [benchmarks::qft_n10(), benchmarks::adder_n10(), benchmarks::swap_test_n25()] {
            let dag = c.dag();
            let scheme = para_finding(&dag);
            let lower = dag.len().div_ceil(dag.depth());
            assert!(scheme.gpm() >= lower, "{}: gpm {} < {lower}", c.name(), scheme.gpm());
            assert_valid_scheme(&dag, &scheme);
        }
    }

    #[test]
    fn dnn_gpm_matches_construction() {
        let scheme = para_finding(&benchmarks::dnn_n16().dag());
        assert_eq!(scheme.gpm(), 8);
        assert_eq!(scheme.depth(), 48);
    }

    #[test]
    fn layered_random_circuits_recover_parallelism() {
        // ĝPM is a heuristic upper estimate: it can never go below the
        // averaging bound ⌈g/α⌉ = pm, and on these layered circuits it
        // should land within one of the constructed parallelism.
        for pm in [2, 5, 9] {
            let c = random::layered(30, 20, pm, 77);
            let dag = c.dag();
            let scheme = para_finding(&dag);
            assert_eq!(scheme.depth(), 20);
            assert!(scheme.gpm() >= pm, "gpm below averaging bound");
            assert!(scheme.gpm() <= pm + 1, "gpm {} far from constructed {pm}", scheme.gpm());
            assert_valid_scheme(&dag, &scheme);
        }
    }

    #[test]
    fn empty_circuit() {
        let scheme = para_finding(&Circuit::new(3).dag());
        assert_eq!(scheme.gpm(), 0);
        assert_eq!(scheme.depth(), 0);
    }

    #[test]
    fn multiplier_scheme_is_valid() {
        // Regression: the one-hop window update used to strand a parent
        // and child in the same layer on this circuit (gates 123/124).
        let c = benchmarks::multiplier_n25();
        let dag = c.dag();
        assert_valid_scheme(&dag, &para_finding(&dag));
    }

    #[test]
    fn all_table1_schemes_are_valid() {
        for c in benchmarks::table1_suite() {
            let dag = c.dag();
            assert_valid_scheme(&dag, &para_finding(&dag));
        }
    }

    /// The tree's pick is the first minimum of a front-to-back scan
    /// under the same mix of slack decreases and `swap_remove`s that
    /// Para-Finding performs.
    #[test]
    fn slack_tree_pick_matches_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x51AC);
        for len in [1, 2, 3, 7, 8, 9, 64, 100] {
            let mut slack: Vec<usize> = (0..len).map(|_| rng.gen_range(0..6)).collect();
            let mut tree = SlackTree::new(slack.iter().copied());
            while !slack.is_empty() {
                for _ in 0..rng.gen_range(0..4) {
                    let i = rng.gen_range(0..slack.len());
                    slack[i] = rng.gen_range(0..slack[i] + 1);
                    tree.lower(i, slack[i]);
                }
                let min = *slack.iter().min().unwrap();
                let scan = slack.iter().position(|&s| s == min);
                assert_eq!(tree.leftmost_min(), scan);
                let i = scan.unwrap();
                slack.swap_remove(i);
                if i < slack.len() {
                    tree.set(i, slack[i]);
                }
                tree.set(slack.len(), usize::MAX);
            }
            assert_eq!(tree.leftmost_min(), None);
        }
    }

    #[test]
    fn ising_gpm_is_half_the_bonds() {
        // ising_n50: 98 gates in 4 layers ⇒ optimal layering puts ~25/layer.
        let scheme = para_finding(&benchmarks::ising_n50().dag());
        assert_eq!(scheme.depth(), 4);
        assert!(scheme.gpm() <= 25, "gpm {} too large", scheme.gpm());
    }
}
