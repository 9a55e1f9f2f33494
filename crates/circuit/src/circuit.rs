use crate::comm::CommGraph;
use crate::dag::GateDag;
use crate::error::CircuitError;

/// A single-qubit operation kind.
///
/// Single-qubit gates are tracked so that circuits round-trip through the
/// QASM front-end, but they are *free* for mapping and scheduling purposes:
/// the paper executes them in software or locally within a tile (§III).
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum SingleGate {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate S = √Z.
    S,
    /// Inverse phase gate.
    Sdg,
    /// T = ⁴√Z (requires magic-state distillation; assumed supplied, cf. \[19\]).
    T,
    /// Inverse T.
    Tdg,
    /// Rotation about X by an angle in radians.
    Rx(f64),
    /// Rotation about Y by an angle in radians.
    Ry(f64),
    /// Rotation about Z by an angle in radians.
    Rz(f64),
    /// Diagonal phase rotation `u1(λ)`.
    Phase(f64),
    /// General single-qubit unitary `u3(θ, φ, λ)`.
    U(f64, f64, f64),
    /// Computational-basis measurement (classical bit index is not tracked).
    Measure,
    /// Reset to |0⟩.
    Reset,
}

/// One operation in a [`Circuit`] gate list.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum Op {
    /// A CNOT gate — the unit of work for surface-code scheduling.
    Cnot {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// A single-qubit gate (free for scheduling).
    Single {
        /// The operand qubit.
        qubit: usize,
        /// The gate kind.
        kind: SingleGate,
    },
    /// A scheduling barrier (kept for QASM round-trips; ignored by the
    /// compiler, which derives dependencies from data flow alone).
    Barrier,
}

/// A CNOT gate extracted from a circuit, in circuit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CnotGate {
    /// Control qubit.
    pub control: usize,
    /// Target qubit.
    pub target: usize,
}

impl CnotGate {
    /// Returns `true` if this gate acts on `qubit`.
    #[must_use]
    pub fn touches(&self, qubit: usize) -> bool {
        self.control == qubit || self.target == qubit
    }

    /// Returns the operand that is not `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if the gate does not act on `qubit`.
    #[must_use]
    pub fn other(&self, qubit: usize) -> usize {
        if self.control == qubit {
            self.target
        } else if self.target == qubit {
            self.control
        } else {
            panic!("gate {self:?} does not act on qubit {qubit}")
        }
    }
}

/// A logical quantum circuit: a list of operations over `n` logical qubits.
///
/// The builder methods (`h`, `cnot`, `ccx`, …) panic on out-of-range qubits;
/// the checked variants (`try_cnot`, …) return a [`CircuitError`] instead.
/// Multi-qubit gates other than CNOT are decomposed into CNOTs plus
/// single-qubit gates at insertion time, so the scheduler only ever sees
/// CNOTs — exactly the abstraction the paper uses.
///
/// # Example
///
/// ```
/// use ecmas_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0);
/// bell.cnot(0, 1);
/// assert_eq!(bell.cnot_count(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    qubits: usize,
    ops: Vec<Op>,
    cnots: Vec<CnotGate>,
    name: String,
}

impl Circuit {
    /// Creates an empty circuit over `qubits` logical qubits.
    #[must_use]
    pub fn new(qubits: usize) -> Self {
        Circuit { qubits, ops: Vec::new(), cnots: Vec::new(), name: String::new() }
    }

    /// Creates an empty named circuit (the name is used by reports).
    #[must_use]
    pub fn with_name(qubits: usize, name: impl Into<String>) -> Self {
        Circuit { qubits, ops: Vec::new(), cnots: Vec::new(), name: name.into() }
    }

    /// The circuit's display name (may be empty).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of logical qubits `n`.
    #[must_use]
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// The full operation list, in program order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The CNOT gates in program order. Indices into this slice are the
    /// [`GateId`](crate::GateId)s used throughout the compiler.
    #[must_use]
    pub fn cnot_gates(&self) -> &[CnotGate] {
        &self.cnots
    }

    /// Number of CNOT gates `g`.
    #[must_use]
    pub fn cnot_count(&self) -> usize {
        self.cnots.len()
    }

    /// Total number of operations including single-qubit gates.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    #[inline]
    fn check_qubit(&self, qubit: usize) -> Result<(), CircuitError> {
        if qubit >= self.qubits {
            Err(CircuitError::QubitOutOfRange { qubit, qubits: self.qubits })
        } else {
            Ok(())
        }
    }

    /// Appends a CNOT gate.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is out of range or if
    /// `control == target`.
    #[inline]
    pub fn try_cnot(&mut self, control: usize, target: usize) -> Result<(), CircuitError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(CircuitError::ControlEqualsTarget { qubit: control });
        }
        self.ops.push(Op::Cnot { control, target });
        self.cnots.push(CnotGate { control, target });
        Ok(())
    }

    /// Appends a CNOT gate.
    ///
    /// # Panics
    ///
    /// Panics if either operand is out of range or `control == target`.
    #[inline]
    pub fn cnot(&mut self, control: usize, target: usize) {
        self.try_cnot(control, target).expect("invalid cnot");
    }

    /// Appends a single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[inline]
    pub fn single(&mut self, qubit: usize, kind: SingleGate) {
        self.check_qubit(qubit).expect("invalid single-qubit gate");
        self.ops.push(Op::Single { qubit, kind });
    }

    /// Appends a Hadamard gate.
    pub fn h(&mut self, qubit: usize) {
        self.single(qubit, SingleGate::H);
    }

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, qubit: usize) {
        self.single(qubit, SingleGate::X);
    }

    /// Appends a T gate.
    pub fn t(&mut self, qubit: usize) {
        self.single(qubit, SingleGate::T);
    }

    /// Appends an inverse T gate.
    pub fn tdg(&mut self, qubit: usize) {
        self.single(qubit, SingleGate::Tdg);
    }

    /// Appends an Rz rotation.
    pub fn rz(&mut self, qubit: usize, angle: f64) {
        self.single(qubit, SingleGate::Rz(angle));
    }

    /// Appends an Ry rotation.
    pub fn ry(&mut self, qubit: usize, angle: f64) {
        self.single(qubit, SingleGate::Ry(angle));
    }

    /// Appends a `u1` phase rotation.
    pub fn phase(&mut self, qubit: usize, angle: f64) {
        self.single(qubit, SingleGate::Phase(angle));
    }

    /// Appends a barrier (ignored by the compiler).
    pub fn barrier(&mut self) {
        self.ops.push(Op::Barrier);
    }

    /// Appends a controlled-Z as `H(t); CNOT(c,t); H(t)`.
    pub fn cz(&mut self, control: usize, target: usize) {
        self.h(target);
        self.cnot(control, target);
        self.h(target);
    }

    /// Appends a controlled-phase `cp(λ)` using the standard two-CNOT
    /// decomposition (`u1(λ/2)` on both operands around the CNOT pair).
    pub fn cp(&mut self, control: usize, target: usize, lambda: f64) {
        self.phase(control, lambda / 2.0);
        self.cnot(control, target);
        self.phase(target, -lambda / 2.0);
        self.cnot(control, target);
        self.phase(target, lambda / 2.0);
    }

    /// Appends a controlled-Ry using the standard two-CNOT decomposition.
    pub fn cry(&mut self, control: usize, target: usize, theta: f64) {
        self.ry(target, theta / 2.0);
        self.cnot(control, target);
        self.ry(target, -theta / 2.0);
        self.cnot(control, target);
    }

    /// Appends a SWAP as three CNOTs.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cnot(a, b);
        self.cnot(b, a);
        self.cnot(a, b);
    }

    /// Appends a Toffoli gate using the standard 6-CNOT, 7-T decomposition.
    pub fn ccx(&mut self, c1: usize, c2: usize, target: usize) {
        self.h(target);
        self.cnot(c2, target);
        self.tdg(target);
        self.cnot(c1, target);
        self.t(target);
        self.cnot(c2, target);
        self.tdg(target);
        self.cnot(c1, target);
        self.t(c2);
        self.t(target);
        self.h(target);
        self.cnot(c1, c2);
        self.t(c1);
        self.tdg(c2);
        self.cnot(c1, c2);
    }

    /// Appends a controlled-SWAP (Fredkin) as `CNOT(b,a); CCX(c,a,b); CNOT(b,a)`.
    pub fn cswap(&mut self, control: usize, a: usize, b: usize) {
        self.cnot(b, a);
        self.ccx(control, a, b);
        self.cnot(b, a);
    }

    /// Widens the circuit to `qubits` qubits, keeping every operation.
    pub(crate) fn widen(&mut self, qubits: usize) {
        debug_assert!(qubits >= self.qubits, "widen never narrows");
        self.qubits = qubits;
    }

    /// Reserves room for at least `ops` more operations.
    pub(crate) fn reserve(&mut self, ops: usize) {
        self.ops.reserve(ops);
    }

    /// Builds the CNOT dependency DAG `G_P` (see [`GateDag`]).
    #[must_use]
    pub fn dag(&self) -> GateDag {
        GateDag::new(self)
    }

    /// Builds the communication graph `G_C` (see [`CommGraph`]).
    #[must_use]
    pub fn comm_graph(&self) -> CommGraph {
        CommGraph::new(self)
    }

    /// Number of T/T† gates — the magic-state demand. The paper assumes a
    /// steady magic-state supply at each tile (after \[19\]); this count is
    /// what a distillation-factory planner would budget for.
    #[must_use]
    pub fn t_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Single { kind: SingleGate::T | SingleGate::Tdg, .. }))
            .count()
    }

    /// Number of single-qubit gates (excluding measurements and resets).
    #[must_use]
    pub fn single_gate_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Single { kind, .. }
                        if !matches!(kind, SingleGate::Measure | SingleGate::Reset)
                )
            })
            .count()
    }

    /// Circuit depth `α`: the critical-path length of the CNOT DAG.
    ///
    /// Equivalent to `self.dag().depth()` but does not retain the DAG.
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut ready = vec![0u32; self.qubits];
        let mut depth = 0;
        for g in &self.cnots {
            let d = ready[g.control].max(ready[g.target]) + 1;
            ready[g.control] = d;
            ready[g.target] = d;
            depth = depth.max(d);
        }
        depth as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_circuit_is_empty() {
        let c = Circuit::new(4);
        assert_eq!(c.qubits(), 4);
        assert_eq!(c.cnot_count(), 0);
        assert_eq!(c.op_count(), 0);
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn cnot_records_gate() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        assert_eq!(c.cnot_gates(), &[CnotGate { control: 0, target: 1 }]);
    }

    #[test]
    fn try_cnot_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        assert_eq!(c.try_cnot(0, 5), Err(CircuitError::QubitOutOfRange { qubit: 5, qubits: 2 }));
    }

    #[test]
    fn try_cnot_rejects_self_loop() {
        let mut c = Circuit::new(2);
        assert_eq!(c.try_cnot(1, 1), Err(CircuitError::ControlEqualsTarget { qubit: 1 }));
    }

    #[test]
    fn swap_is_three_cnots() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        assert_eq!(c.cnot_count(), 3);
    }

    #[test]
    fn ccx_is_six_cnots() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert_eq!(c.cnot_count(), 6);
    }

    #[test]
    fn cswap_is_eight_cnots() {
        let mut c = Circuit::new(3);
        c.cswap(0, 1, 2);
        assert_eq!(c.cnot_count(), 8);
    }

    #[test]
    fn depth_tracks_dependencies() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1); // layer 1
        c.cnot(2, 3); // layer 1 (independent)
        c.cnot(1, 2); // layer 2
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn gate_statistics() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.ccx(0, 1, 2); // 6 CNOTs, 7 T/T†, 2 H inside + more singles
        c.single(2, SingleGate::Measure);
        assert_eq!(c.t_count(), 7);
        assert!(c.single_gate_count() >= 8);
        assert_eq!(c.cnot_count(), 6);
    }

    #[test]
    fn cnot_gate_other_operand() {
        let g = CnotGate { control: 2, target: 7 };
        assert_eq!(g.other(2), 7);
        assert_eq!(g.other(7), 2);
        assert!(g.touches(2) && g.touches(7) && !g.touches(3));
    }
}
