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
    /// gates number" in §IV-B2), computed with a bitset sweep in reverse
    /// topological order. Costs `O(g²/64)` time.
    ///
    /// A gate's reach row is read only by its parents, so it is recycled
    /// once the last of them has been swept. Live rows are the sweep's
    /// frontier, a few per qubit, so the transient memory is
    /// `O(qubits·g/64)` rather than one row per gate.
    #[must_use]
    pub fn descendant_counts(&self) -> Vec<u32> {
        let n = self.len();
        let words = n.div_ceil(64);
        let mut rows: Vec<u64> = Vec::new();
        let mut free_rows: Vec<usize> = Vec::new();
        let mut row_of = vec![0usize; n];
        // Parents that have yet to read each gate's row.
        let mut unread = self.parent_count.clone();
        let mut counts = vec![0u32; n];
        for id in (0..n).rev() {
            let r = free_rows.pop().unwrap_or_else(|| {
                rows.resize(rows.len() + words, 0);
                rows.len() / words - 1
            });
            row_of[id] = r;
            rows[r * words..(r + 1) * words].fill(0);
            for &c in self.children(id) {
                debug_assert!(c > id, "children always have larger program order");
                let cr = row_of[c];
                // `c`'s row is live (this gate has not read it yet), so it
                // is a different row from `id`'s.
                let (row, crow) = if r < cr {
                    let (head, tail) = rows.split_at_mut(cr * words);
                    (&mut head[r * words..(r + 1) * words], &tail[..words])
                } else {
                    let (head, tail) = rows.split_at_mut(r * words);
                    (&mut tail[..words], &head[cr * words..(cr + 1) * words])
                };
                for (w, &cw) in row.iter_mut().zip(crow) {
                    *w |= cw;
                }
                row[c / 64] |= 1u64 << (c % 64);
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

    use crate::circuit::Circuit;

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
