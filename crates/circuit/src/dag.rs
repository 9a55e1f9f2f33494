use crate::circuit::{Circuit, CnotGate};

/// Identifier of a CNOT gate: its index into [`Circuit::cnot_gates`].
pub type GateId = usize;

/// The dependency DAG `G_P` over a circuit's CNOT gates (paper §III).
///
/// Each node is a CNOT gate; an edge `u → v` means `v` is the next gate
/// acting on one of `u`'s operand qubits, so `v` cannot start before `u`
/// finishes. Every node therefore has at most two parents and two children
/// (one per operand qubit).
///
/// The DAG is immutable; schedulers keep their own mutable in-degree
/// counters. Precomputed per-gate data:
///
/// * [`level`](Self::level) — ASAP layer (1-based); `max` over gates is the
///   circuit depth `α` ([`depth`](Self::depth)).
/// * [`alap_level`](Self::alap_level) — ALAP layer under the `α`-layer
///   horizon (the "High" value of Algorithm Para-Finding).
/// * [`criticality`](Self::criticality) — length of the longest dependency
///   chain starting at the gate (inclusive), the primary scheduling
///   priority of Algorithm 1.
/// * [`descendant_counts`](Self::descendant_counts) — exact number of gates
///   that transitively depend on each gate (the tie-breaking priority).
///
/// # Example
///
/// ```
/// use ecmas_circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.cnot(0, 1);
/// c.cnot(1, 2);
/// c.cnot(0, 1);
/// let dag = c.dag();
/// assert_eq!(dag.depth(), 3); // all three serialize through qubit 1
/// assert_eq!(dag.criticality(0), 3);
/// assert_eq!(dag.parents(0), &[]);
/// ```
#[derive(Clone, Debug)]
pub struct GateDag {
    gates: Vec<CnotGate>,
    qubits: usize,
    // Adjacency in fixed-width flat arrays: every node has at most two
    // parents and two children (one per operand qubit), so slots
    // `2·id..2·id+count` hold them with no per-node allocation — the
    // validator and every scheduler rebuild this on hot paths.
    parents: Vec<GateId>,
    parent_count: Vec<u8>,
    children: Vec<GateId>,
    child_count: Vec<u8>,
    level: Vec<u32>,
    alap: Vec<u32>,
    criticality: Vec<u32>,
    depth: u32,
}

impl GateDag {
    /// Builds the DAG for `circuit`'s CNOT gates.
    #[must_use]
    pub fn new(circuit: &Circuit) -> Self {
        let gates: Vec<CnotGate> = circuit.cnot_gates().to_vec();
        let n = gates.len();
        let qubits = circuit.qubits();
        let mut parents: Vec<GateId> = vec![0; 2 * n];
        let mut parent_count = vec![0u8; n];
        let mut children: Vec<GateId> = vec![0; 2 * n];
        let mut child_count = vec![0u8; n];
        // Last gate seen on each qubit while scanning in program order.
        let mut last: Vec<Option<GateId>> = vec![None; qubits];
        for (id, g) in gates.iter().enumerate() {
            for q in [g.control, g.target] {
                if let Some(p) = last[q] {
                    // Dedup: both operands may share the same parent.
                    let pc = usize::from(parent_count[id]);
                    if pc == 0 || parents[2 * id] != p {
                        parents[2 * id + pc] = p;
                        parent_count[id] = u8::try_from(pc + 1).expect("at most 2 parents");
                        let cc = usize::from(child_count[p]);
                        children[2 * p + cc] = id;
                        child_count[p] = u8::try_from(cc + 1).expect("at most 2 children");
                    }
                }
                last[q] = Some(id);
            }
        }

        // ASAP levels (program order is a topological order).
        let mut level = vec![0u32; n];
        let mut depth = 0u32;
        for id in 0..n {
            let ps = &parents[2 * id..2 * id + usize::from(parent_count[id])];
            let l = ps.iter().map(|&p| level[p]).max().unwrap_or(0) + 1;
            level[id] = l;
            depth = depth.max(l);
        }

        // Criticality: longest chain from the gate to a sink, inclusive.
        let mut criticality = vec![0u32; n];
        for id in (0..n).rev() {
            let cs = &children[2 * id..2 * id + usize::from(child_count[id])];
            let below = cs.iter().map(|&c| criticality[c]).max().unwrap_or(0);
            criticality[id] = below + 1;
        }

        // ALAP level under the α-layer horizon: High = depth − (chain below).
        let mut alap = vec![0u32; n];
        for id in 0..n {
            alap[id] = depth - (criticality[id] - 1);
        }

        GateDag {
            gates,
            qubits,
            parents,
            parent_count,
            children,
            child_count,
            level,
            alap,
            criticality,
            depth,
        }
    }

    /// The gates, indexed by [`GateId`].
    #[must_use]
    pub fn gates(&self) -> &[CnotGate] {
        &self.gates
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn gate(&self, id: GateId) -> CnotGate {
        self.gates[id]
    }

    /// Number of gates `g`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the circuit has no CNOT gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of logical qubits in the underlying circuit.
    #[must_use]
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// Circuit depth `α` (critical-path length).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Immediate predecessors of `id` (at most two).
    #[must_use]
    pub fn parents(&self, id: GateId) -> &[GateId] {
        &self.parents[2 * id..2 * id + usize::from(self.parent_count[id])]
    }

    /// Immediate successors of `id` (at most two).
    #[must_use]
    pub fn children(&self, id: GateId) -> &[GateId] {
        &self.children[2 * id..2 * id + usize::from(self.child_count[id])]
    }

    /// ASAP layer of the gate, 1-based ("Low" in Algorithm Para-Finding).
    #[must_use]
    pub fn level(&self, id: GateId) -> usize {
        self.level[id] as usize
    }

    /// ALAP layer of the gate under the `α`-layer horizon ("High").
    #[must_use]
    pub fn alap_level(&self, id: GateId) -> usize {
        self.alap[id] as usize
    }

    /// Length of the longest dependency chain starting at `id`, inclusive.
    #[must_use]
    pub fn criticality(&self, id: GateId) -> usize {
        self.criticality[id] as usize
    }

    /// Gates with no predecessors.
    #[must_use]
    pub fn sources(&self) -> Vec<GateId> {
        (0..self.len()).filter(|&id| self.parent_count[id] == 0).collect()
    }

    /// Exact number of transitive descendants of every gate ("remaining
    /// gates number" in §IV-B2), from per-wire frontiers in one reverse
    /// sweep. Costs `O(g·m)` time and `m²` words of memory, where `m ≤ n`
    /// is the number of qubits that carry a CNOT.
    ///
    /// For gate `g` and wire `q`, let `t_q` be the position on `q` of the
    /// first descendant of `g` that touches `q` (`len_q` if none). Every
    /// gate on `q` from `t_q` on depends on that descendant, so the
    /// descendants of `g` on `q` are exactly the suffix from `t_q`; each
    /// descendant lies on two wires, hence `desc(g) = ½·Σ_q (len_q − t_q)`.
    /// The sweep keeps, per wire, the `t`-vector of the latest-visited
    /// gate on it (that gate included): a gate's vector is the element-wise
    /// minimum of its two successors' vectors, with its own two positions
    /// set. DESIGN.md has the proof and the bounds.
    #[must_use]
    pub fn descendant_counts(&self) -> Vec<u32> {
        let g = self.len();
        // Dense index of each active wire, and every gate's position on
        // its control and target wires.
        let mut wire_of = vec![u32::MAX; self.qubits];
        let mut wire_len: Vec<u32> = Vec::new();
        let mut position = vec![[0u32; 2]; g];
        for (gate, pos) in self.gates.iter().zip(&mut position) {
            for (q, p) in [gate.control, gate.target].into_iter().zip(pos) {
                if wire_of[q] == u32::MAX {
                    wire_of[q] = u32::try_from(wire_len.len()).expect("wire count fits u32");
                    wire_len.push(0);
                }
                let w = wire_of[q] as usize;
                *p = wire_len[w];
                wire_len[w] += 1;
            }
        }
        // Σ_q len_q = 2g: every gate sits on two wires.
        let total = u32::try_from(2 * g).expect("gate count fits u32");
        let m = wire_len.len();
        // Row `w`: the t-vector of the latest-visited gate on wire `w`;
        // before any visit, every wire's suffix is empty (`t_q = len_q`).
        let mut frontier = wire_len.repeat(m);
        let mut counts = vec![0u32; g];
        for id in (0..g).rev() {
            let gate = self.gates[id];
            let (a, b) = (wire_of[gate.control] as usize, wire_of[gate.target] as usize);
            let (lo, hi) = (a.min(b), a.max(b));
            let (head, tail) = frontier.split_at_mut(hi * m);
            let (row_lo, row_hi) = (&mut head[lo * m..(lo + 1) * m], &mut tail[..m]);
            let mut sum = 0u32;
            for (x, y) in row_lo.iter_mut().zip(row_hi.iter_mut()) {
                let t = (*x).min(*y);
                (*x, *y) = (t, t);
                sum += t;
            }
            counts[id] = (total - sum) / 2;
            for (w, p) in [a, b].into_iter().zip(position[id]) {
                row_lo[w] = p;
                row_hi[w] = p;
            }
        }
        counts
    }

    /// Groups gate ids by ASAP level: `result[l]` holds the gates of layer
    /// `l+1`. The greedy ASAP layering is a valid execution scheme, though
    /// Para-Finding (in the `ecmas` crate) balances layer sizes better.
    #[must_use]
    pub fn asap_layers(&self) -> Vec<Vec<GateId>> {
        let mut layers = vec![Vec::new(); self.depth as usize];
        for id in 0..self.len() {
            layers[self.level[id] as usize - 1].push(id);
        }
        layers
    }
}

#[cfg(test)]
mod tests {

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::GateDag;
    use crate::circuit::Circuit;
    use crate::random::{StressSpec, StressWorkload};

    /// The `O(g²/64)` bitset sweep the frontier counts replaced, kept as
    /// their reference: each gate's reach row is the union of its
    /// children's rows plus the children themselves, and a row is
    /// recycled once every parent has read it.
    fn bitset_descendant_counts(dag: &GateDag) -> Vec<u32> {
        let n = dag.len();
        let words = n.div_ceil(64);
        let mut rows: Vec<u64> = Vec::new();
        let mut free_rows: Vec<usize> = Vec::new();
        let mut row_of = vec![0usize; n];
        let mut unread: Vec<usize> = (0..n).map(|id| dag.parents(id).len()).collect();
        let mut counts = vec![0u32; n];
        for id in (0..n).rev() {
            let r = free_rows.pop().unwrap_or_else(|| {
                rows.resize(rows.len() + words, 0);
                rows.len() / words - 1
            });
            row_of[id] = r;
            rows[r * words..(r + 1) * words].fill(0);
            for &c in dag.children(id) {
                let cr = row_of[c];
                for w in 0..words {
                    let cw = rows[cr * words + w];
                    rows[r * words + w] |= cw;
                }
                rows[r * words + c / 64] |= 1u64 << (c % 64);
                unread[c] -= 1;
                if unread[c] == 0 {
                    free_rows.push(cr);
                }
            }
            counts[id] = rows[r * words..(r + 1) * words].iter().map(|w| w.count_ones()).sum();
            if unread[id] == 0 {
                free_rows.push(r);
            }
        }
        counts
    }

    fn assert_counts_match_reference(circuit: &Circuit) {
        let dag = circuit.dag();
        assert_eq!(dag.descendant_counts(), bitset_descendant_counts(&dag), "{}", circuit.name());
    }

    fn chain3() -> Circuit {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(1, 2);
        c.cnot(2, 3);
        c
    }

    #[test]
    fn chain_depth_and_levels() {
        let dag = chain3().dag();
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.level(0), 1);
        assert_eq!(dag.level(2), 3);
        assert_eq!(dag.alap_level(0), 1);
        assert_eq!(dag.criticality(0), 3);
        assert_eq!(dag.criticality(2), 1);
    }

    #[test]
    fn parents_children_of_chain() {
        let dag = chain3().dag();
        assert_eq!(dag.parents(0), &[]);
        assert_eq!(dag.children(0), &[1]);
        assert_eq!(dag.parents(2), &[1]);
        assert_eq!(dag.sources(), vec![0]);
    }

    #[test]
    fn parallel_gates_share_level() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        let dag = c.dag();
        assert_eq!(dag.depth(), 1);
        assert_eq!(dag.level(0), 1);
        assert_eq!(dag.level(1), 1);
        assert_eq!(dag.asap_layers(), vec![vec![0, 1]]);
    }

    #[test]
    fn duplicate_parent_is_deduped() {
        // Two successive gates on the same pair: the child has one parent.
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.cnot(0, 1);
        let dag = c.dag();
        assert_eq!(dag.parents(1), &[0]);
        assert_eq!(dag.children(0), &[1]);
    }

    #[test]
    fn descendant_counts_chain() {
        let dag = chain3().dag();
        assert_eq!(dag.descendant_counts(), vec![2, 1, 0]);
    }

    #[test]
    fn descendant_counts_diamond() {
        // g0 feeds g1 and g2 (different qubits), both feed g3.
        let mut c = Circuit::new(4);
        c.cnot(0, 1); // g0
        c.cnot(0, 2); // g1 (depends on g0 via qubit 0)
        c.cnot(1, 3); // g2 (depends on g0 via qubit 1)
        c.cnot(2, 3); // g3 (depends on g1 and g2)
        let dag = c.dag();
        assert_eq!(dag.descendant_counts(), vec![3, 1, 1, 0]);
    }

    #[test]
    fn descendant_counts_match_a_graph_search() {
        for (qubits, depth, parallelism, seed) in [(6, 40, 3, 1), (11, 300, 2, 2), (20, 60, 7, 3)] {
            let dag = crate::random::layered(qubits, depth, parallelism, seed).dag();
            let mut seen = vec![usize::MAX; dag.len()];
            let expected: Vec<u32> = (0..dag.len())
                .map(|root| {
                    let (mut stack, mut count) = (vec![root], 0);
                    while let Some(g) = stack.pop() {
                        for &c in dag.children(g) {
                            if seen[c] != root {
                                seen[c] = root;
                                count += 1;
                                stack.push(c);
                            }
                        }
                    }
                    count
                })
                .collect();
            assert_eq!(dag.descendant_counts(), expected, "{qubits} qubits, seed {seed}");
        }
    }

    #[test]
    fn descendant_counts_match_the_bitset_on_table1() {
        for circuit in crate::benchmarks::table1_suite() {
            assert_counts_match_reference(&circuit);
        }
    }

    #[test]
    fn descendant_counts_match_the_bitset_on_daemon_shaped_dags() {
        let spec = StressSpec {
            jobs: 60,
            min_qubits: 8,
            max_qubits: 24,
            min_depth: 40,
            max_depth: 240,
            mean_burst: 1,
            dup_percent: 0,
            defect_percent: 0,
            seed: 7,
        };
        let workload = StressWorkload::new(&spec);
        for index in 0..workload.len() {
            assert_counts_match_reference(&workload.circuit(index));
        }
    }

    /// Random circuits over a register wider than the gates use: idle
    /// qubits, disconnected components (gates confined to one of two
    /// halves), runs of repeated pairs, and the empty circuit.
    #[test]
    fn descendant_counts_match_the_bitset_on_irregular_circuits() {
        let mut rng = SmallRng::seed_from_u64(0xDE5C);
        for case in 0..200 {
            let qubits = rng.gen_range(2..40);
            let mut c = Circuit::new(qubits);
            // Only a random prefix of the register carries gates.
            let used = rng.gen_range(2..qubits + 1);
            let split = used / 2;
            for _ in 0..rng.gen_range(0..300) {
                let (lo, hi) = if case % 2 == 1 && split >= 2 && used - split >= 2 {
                    // Two components: each gate stays inside one half.
                    if rng.gen_bool(0.5) {
                        (0, split)
                    } else {
                        (split, used)
                    }
                } else {
                    (0, used)
                };
                let a = rng.gen_range(lo..hi);
                let b = (a - lo + rng.gen_range(1..hi - lo)) % (hi - lo) + lo;
                for _ in 0..rng.gen_range(1..4) {
                    c.cnot(a, b);
                }
            }
            assert_counts_match_reference(&c);
        }
        assert_counts_match_reference(&Circuit::new(0));
        assert_counts_match_reference(&Circuit::new(5));
    }

    #[test]
    fn slack_zero_on_critical_path() {
        let dag = chain3().dag();
        for id in 0..dag.len() {
            assert_eq!(dag.level(id), dag.alap_level(id), "chain gates have no slack");
        }
    }

    #[test]
    fn alap_at_least_asap() {
        let mut c = Circuit::new(6);
        c.cnot(0, 1);
        c.cnot(1, 2);
        c.cnot(2, 3);
        c.cnot(4, 5); // slack 2: can go in layer 1..3
        let dag = c.dag();
        assert_eq!(dag.level(3), 1);
        assert_eq!(dag.alap_level(3), 3);
    }

    #[test]
    fn empty_circuit_dag() {
        let dag = Circuit::new(3).dag();
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert!(dag.sources().is_empty());
        assert!(dag.descendant_counts().is_empty());
    }
}
