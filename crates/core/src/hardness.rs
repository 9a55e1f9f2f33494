//! The 3-SAT → cut-type-initialization reduction of Theorem 1
//! (Appendix A).
//!
//! The paper proves NP-hardness of the double-defect initialization
//! problem by compiling a 3-SAT instance into a circuit whose optimal
//! schedule length reveals satisfiability: each clause becomes an 8-qubit
//! gadget whose CNOTs run in one cycle exactly when the literal tiles'
//! cut types encode a satisfying assignment (cut type ↔ truth value), and
//! consistency sub-circuits tie each variable's occurrences to a shared
//! "ideal literal" tile. Placeholder gates keep the tiles too busy to
//! cheat by modifying their cut type mid-gadget.
//!
//! This module reconstructs that gadget from the paper's prose: the exact
//! padding constants of Fig. 13 are not fully specified, so the
//! reconstruction preserves the *semantic* property (tested below: cut
//! initializations that encode satisfying assignments schedule strictly
//! faster than ones that falsify the clause) rather than the literal
//! `10 + 3n` threshold.

use ecmas_circuit::Circuit;

/// A literal: variable index plus polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lit {
    /// Variable index (0-based).
    pub var: usize,
    /// `true` for a positive occurrence.
    pub positive: bool,
}

impl Lit {
    /// Positive literal of `var`.
    #[must_use]
    pub fn pos(var: usize) -> Self {
        Lit { var, positive: true }
    }

    /// Negative literal of `var`.
    #[must_use]
    pub fn neg(var: usize) -> Self {
        Lit { var, positive: false }
    }
}

/// A 3-SAT instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SatInstance {
    /// Number of variables.
    pub vars: usize,
    /// Three-literal clauses.
    pub clauses: Vec<[Lit; 3]>,
}

impl SatInstance {
    /// Evaluates the instance under `assignment` (indexed by variable).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.vars`.
    #[must_use]
    pub fn satisfied_by(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|clause| clause.iter().any(|l| assignment[l.var] == l.positive))
    }
}

/// Qubit roles within the reduction circuit. Offsets into the clause
/// gadget: `[qa, qa', qb, qb', qc, qc', qT, qF]`.
const GADGET_WIDTH: usize = 8;

/// Layout of the reduction circuit's qubits.
#[derive(Clone, Debug)]
pub struct ReductionLayout {
    /// Number of clauses.
    pub clauses: usize,
    /// Number of variables.
    pub vars: usize,
}

impl ReductionLayout {
    /// The literal qubit of clause `c`, literal position `k ∈ 0..3`.
    #[must_use]
    pub fn literal(&self, c: usize, k: usize) -> usize {
        c * GADGET_WIDTH + 2 * k
    }

    /// The ancilla partner of a literal qubit.
    #[must_use]
    pub fn literal_ancilla(&self, c: usize, k: usize) -> usize {
        c * GADGET_WIDTH + 2 * k + 1
    }

    /// Clause `c`'s X-cut reference tile `qT`.
    #[must_use]
    pub fn q_true(&self, c: usize) -> usize {
        c * GADGET_WIDTH + 6
    }

    /// Clause `c`'s Z-cut reference tile `qF`.
    #[must_use]
    pub fn q_false(&self, c: usize) -> usize {
        c * GADGET_WIDTH + 7
    }

    /// The shared "ideal literal" qubit of variable `v`.
    #[must_use]
    pub fn ideal(&self, v: usize) -> usize {
        self.clauses * GADGET_WIDTH + 2 * v
    }

    /// The ideal literal's placeholder ancilla.
    #[must_use]
    pub fn ideal_ancilla(&self, v: usize) -> usize {
        self.clauses * GADGET_WIDTH + 2 * v + 1
    }

    /// Total qubit count.
    #[must_use]
    pub fn qubits(&self) -> usize {
        self.clauses * GADGET_WIDTH + 2 * self.vars
    }
}

/// Builds the Theorem-1 reduction circuit for `inst`.
///
/// Per clause: three serialized literal stages, each braiding the literal
/// qubit with `qT` (positive occurrence) or `qF` (negative), followed by a
/// `qT`–`qF` braid, while the other two literal pairs run placeholder
/// CNOTs. Then each literal qubit runs a consistency CNOT with its
/// variable's shared ideal-literal qubit, and the ideal pairs run
/// placeholder CNOTs so they cannot flip cut type for free.
#[must_use]
pub fn reduction_circuit(inst: &SatInstance) -> (Circuit, ReductionLayout) {
    let layout = ReductionLayout { clauses: inst.clauses.len(), vars: inst.vars };
    let mut c = Circuit::with_name(layout.qubits(), "sat_reduction");

    for (ci, clause) in inst.clauses.iter().enumerate() {
        for (k, lit) in clause.iter().enumerate() {
            let lq = layout.literal(ci, k);
            let target = if lit.positive { layout.q_true(ci) } else { layout.q_false(ci) };
            c.cnot(lq, target);
            c.cnot(layout.q_true(ci), layout.q_false(ci));
            // Placeholders on the two idle literal pairs: keeps their tiles
            // busy so cut-type modification cannot hide in this stage.
            for other in 0..3 {
                if other != k {
                    c.cnot(layout.literal(ci, other), layout.literal_ancilla(ci, other));
                }
            }
        }
    }

    // Consistency: every occurrence must agree with the ideal literal.
    for (ci, clause) in inst.clauses.iter().enumerate() {
        for (k, lit) in clause.iter().enumerate() {
            let lq = layout.literal(ci, k);
            c.cnot(lq, layout.ideal(lit.var));
            // Placeholder on the ideal pair between uses.
            c.cnot(layout.ideal(lit.var), layout.ideal_ancilla(lit.var));
        }
    }

    (c, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::CutType;
    use crate::engine::{schedule_limited, ScheduleConfig};
    use ecmas_chip::{Chip, CodeModel};
    use std::sync::Arc;

    fn one_clause() -> SatInstance {
        SatInstance { vars: 3, clauses: vec![[Lit::pos(0), Lit::neg(1), Lit::pos(2)]] }
    }

    #[test]
    fn satisfied_by_checks_all_clauses() {
        let inst = SatInstance {
            vars: 2,
            clauses: vec![
                [Lit::pos(0), Lit::pos(0), Lit::neg(1)],
                [Lit::neg(0), Lit::pos(1), Lit::pos(1)],
            ],
        };
        assert!(inst.satisfied_by(&[true, true]));
        assert!(!inst.satisfied_by(&[true, false]));
        assert!(inst.satisfied_by(&[false, false]));
    }

    #[test]
    fn layout_is_contiguous() {
        let (c, layout) = reduction_circuit(&one_clause());
        assert_eq!(layout.qubits(), 8 + 6);
        assert_eq!(c.qubits(), layout.qubits());
        assert_eq!(layout.q_true(0), 6);
        assert_eq!(layout.ideal(2), 12);
    }

    #[test]
    fn gate_count_formula() {
        let inst = SatInstance {
            vars: 3,
            clauses: vec![
                [Lit::pos(0), Lit::neg(1), Lit::pos(2)],
                [Lit::neg(0), Lit::pos(1), Lit::neg(2)],
            ],
        };
        let (c, _) = reduction_circuit(&inst);
        // Per clause: 3 stages × (1 literal + 1 TF + 2 placeholders) = 12,
        // plus 3 × (1 consistency + 1 ideal placeholder) = 6.
        assert_eq!(c.cnot_count(), 2 * (12 + 6));
    }

    /// Schedule the reduction circuit under a given cut assignment derived
    /// from a truth assignment, on a generous chip, and return Δ.
    fn cycles_under(inst: &SatInstance, assignment: &[bool]) -> u64 {
        let (c, layout) = reduction_circuit(inst);
        let n = c.qubits();
        // Encode: qT = X, qF = Z; literal qubit "true" ⇒ opposite of qT so
        // a positive occurrence braids in one cycle; ancillas opposite
        // their partner so placeholders are 1-cycle.
        let mut cuts = vec![CutType::X; n];
        for ci in 0..layout.clauses {
            cuts[layout.q_true(ci)] = CutType::X;
            cuts[layout.q_false(ci)] = CutType::Z;
            for (k, lit) in inst.clauses[ci].iter().enumerate() {
                let value = assignment[lit.var];
                let lq = layout.literal(ci, k);
                // A "true" variable should braid cheaply with qT when
                // positive (needs cut ≠ X ⇒ Z) and with qF when negative.
                cuts[lq] = if value { CutType::Z } else { CutType::X };
                cuts[layout.literal_ancilla(ci, k)] = cuts[lq].flipped();
            }
        }
        for v in 0..layout.vars {
            cuts[layout.ideal(v)] = if assignment[v] { CutType::X } else { CutType::Z };
            cuts[layout.ideal_ancilla(v)] = cuts[layout.ideal(v)].flipped();
        }
        let chip = Arc::new(Chip::sufficient(CodeModel::DoubleDefect, n, 8, 3).unwrap());
        let mapping: Vec<usize> = (0..n).collect();
        let enc =
            schedule_limited(&c.dag(), &chip, &mapping, Some(&cuts), ScheduleConfig::default())
                .unwrap()
                .0;
        enc.cycles()
    }

    #[test]
    fn satisfying_assignments_schedule_faster() {
        // Clause (x0 ∨ ¬x1 ∨ x2): compare a satisfying assignment against
        // the unique falsifying one (F, T, F). The reduction's semantic
        // core: truth ↔ cut type, satisfied clauses run on the fast path.
        let inst = one_clause();
        let falsifying = cycles_under(&inst, &[false, true, false]);
        for sat in [[true, true, true], [true, false, false], [false, false, true]] {
            assert!(inst.satisfied_by(&sat));
            let fast = cycles_under(&inst, &sat);
            assert!(fast < falsifying, "satisfying {sat:?} took {fast} ≥ falsifying {falsifying}");
        }
    }

    #[test]
    fn reduction_scales_linearly() {
        let mut clauses = Vec::new();
        for i in 0..5 {
            clauses.push([Lit::pos(i % 3), Lit::neg((i + 1) % 3), Lit::pos((i + 2) % 3)]);
        }
        let inst = SatInstance { vars: 3, clauses };
        let (c, layout) = reduction_circuit(&inst);
        assert_eq!(c.qubits(), 5 * 8 + 6);
        assert_eq!(layout.qubits(), c.qubits());
    }
}
