//! QASM front-end integration: parse → compile → validate, plus writer
//! round-trips over the benchmark suite.

use ecmas::{validate_encoded, Ecmas};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::qasm;

#[test]
fn parse_compile_validate_a_program() {
    let source = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg a[3];
        qreg b[3];
        creg c[6];
        h a;
        cx a, b;
        ccx a[0], b[0], b[2];
        swap a[1], b[1];
        rz(pi/4) b[2];
        measure a -> c;
    "#;
    let circuit = qasm::parse(source).expect("parses");
    assert_eq!(circuit.qubits(), 6);
    // 3 broadcast cx + 6 (ccx) + 3 (swap) = 12 CNOTs.
    assert_eq!(circuit.cnot_count(), 12);

    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        let chip = Chip::min_viable(model, circuit.qubits(), 3).unwrap();
        let enc = Ecmas::default().compile(&circuit, &chip).unwrap();
        validate_encoded(&circuit, &enc).unwrap();
        assert!(enc.cycles() as usize >= circuit.depth());
    }
}

/// Every Table I circuit survives `to_qasm` → `parse` with its full op
/// stream: the same gates, qubits and angles in the same order.
#[test]
fn benchmarks_round_trip_through_qasm() {
    for original in ecmas_circuit::benchmarks::table1_suite() {
        let name = original.name();
        let source = qasm::to_qasm(&original);
        let reparsed = qasm::parse(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed.qubits(), original.qubits(), "{name}");
        assert_eq!(reparsed.ops(), original.ops(), "{name}");
        assert_eq!(reparsed.cnot_gates(), original.cnot_gates(), "{name}");
    }
}

#[test]
fn reparsed_circuit_compiles_to_identical_cycles() {
    let original = ecmas_circuit::benchmarks::ising_n10();
    let reparsed = qasm::parse(&qasm::to_qasm(&original)).unwrap();
    let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
    let a = Ecmas::default().compile(&original, &chip).unwrap();
    let b = Ecmas::default().compile(&reparsed, &chip).unwrap();
    assert_eq!(a.cycles(), b.cycles());
}

#[test]
fn parse_errors_carry_line_numbers() {
    let source = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[7];\n";
    let err = qasm::parse(source).unwrap_err();
    assert_eq!(err.line(), 3);
}
