//! QASM front-end pins: the parsed op stream of every Table I circuit's
//! `to_qasm` text and of the bundled example programs, and the exact
//! (line, column, message) of a malformed-input corpus that reaches
//! every error site of the lexer and the parser.

use ecmas::stable::StableHasher;
use ecmas_circuit::{benchmarks, qasm, Circuit};

/// FNV-1a over a circuit's width and its full op stream. `Debug` prints
/// every angle in its shortest round-tripping form, so equal hashes mean
/// bit-equal parameters.
fn op_stream_fingerprint(h: &mut StableHasher, circuit: &Circuit) {
    h.write_usize(circuit.qubits());
    h.write_usize(circuit.op_count());
    for op in circuit.ops() {
        h.write_str(&format!("{op:?}"));
    }
}

#[test]
fn parsed_op_streams_are_pinned() {
    let mut h = StableHasher::new();
    for circuit in benchmarks::table1_suite() {
        let parsed = qasm::parse(&qasm::to_qasm(&circuit))
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
        op_stream_fingerprint(&mut h, &parsed);
    }
    let table1 = h.finish();
    let mut h = StableHasher::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/programs exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no example programs found");
    for path in &paths {
        let source = std::fs::read_to_string(path).expect("readable program");
        let parsed = qasm::parse(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        op_stream_fingerprint(&mut h, &parsed);
    }
    assert_eq!((table1, h.finish()), OP_STREAM_PIN, "parsed op streams drifted");
}

// Captured on the `String`-token lexer and cloning parser.
const OP_STREAM_PIN: (u64, u64) = (1_873_066_459_841_431_569, 2_611_998_793_898_642_511);

const H: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

/// A user gate nested 70 definitions deep, past the expansion limit.
fn deep_gate_chain() -> String {
    let mut src = format!("{H}qreg q[1];\ngate g0 a {{ x a; }}\n");
    for k in 1..=70 {
        src.push_str(&format!("gate g{k} a {{ g{} a; }}\n", k - 1));
    }
    src.push_str("g70 q[0];\n");
    src
}

/// Malformed inputs, each paired with the error it must produce.
fn corpus() -> Vec<String> {
    let with_header = |body: &str| format!("{H}{body}");
    let mut inputs: Vec<String> = [
        // Lexer errors.
        "qreg q[2];\nh q[0] = 1;",
        "include \"qelib1.inc;\nqreg q[1];",
        "include \"qelib1.inc",
        "qreg q[1.2.3];",
        "qreg q[2];\nrz(1e) q[0];",
        "qreg q[2];\nh q[0]; @",
        "qreg q[2];\nh q[0]; é",
        "qreg q[2];\r\nh q[0]; \"é\" $",
        "qreg q[2]\nh q[0];\n#",
        // Header and include.
        "OPENQASM 3.0;",
        "OPENQASM",
        "OPENQASM 2.0",
        "include \"other.inc\";",
        "include qelib1;",
        "include \"ü.inc\";",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    inputs.extend(
        [
            // Token expectations.
            "qreg q[2]\nh q[0];",
            "qreg q[2]",
            "qreg 5[2];",
            "qreg \"q\"[1];",
            "qreg",
            "qreg q[1.5];",
            "qreg q[-1];",
            "qreg q[n];",
            "qreg q[",
            "qreg q[2];\nh 1e3;",
            "qreg q[2];\nh q[0] -> c;",
            // Declarations and statements.
            "qreg q[1];\nqreg q[2];",
            "qreg q[1];\nmeasure q[0] -> c[0];",
            "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[x];",
            "opaque magic q;",
            "qreg q[1];\ncreg c[1];\nif (c==1.5) x q[0];",
            "qreg q[1];\ncreg c[1];\nif (c==0) if (c==1) frob q[0];",
            "barrier q",
            // Gate definitions and applications.
            "gate g a { h b; }",
            "gate twice a { x a; }\ngate twice a { x a; }",
            "gate g(t a { x a; }",
            "qreg a[2];\nqreg b[3];\ncx a, b;",
            "qreg q[2];\ncx q[0];",
            "qreg q[2];\nrz q[0];",
            "qreg q[2];\ngate g a, b { cx a, b; }\ng q[0];",
            "qreg q[2];\ncx q[0], q[0];",
            "qreg q[2];\nfrobnicate q[0];",
            "h nope[0];",
            "qreg q[2];\nh   q[2];",
            "qreg q[1];\nrz(theta) q[0];",
            "qreg q[1];\ngate g(a) x { rz(b) x; }\ng(1) q[0];",
            "qreg q[1];\ngate g(a) x { rz(a) x; }\ng(1, 2) q[0];",
            // Expressions.
            "qreg q[1];\nrz(;) q[0];",
            "qreg q[1];\nrz(",
            "qreg q[1];\nrz((1 + 2) q[0];",
            "qreg q[1];\nrz(sin 1) q[0];",
            "qreg q[1];\nrz(1 +) q[0];",
        ]
        .iter()
        .map(|body| with_header(body)),
    );
    inputs.push(deep_gate_chain());
    inputs
}

/// Every corpus input fails, with the pinned line, column and message.
#[test]
fn malformed_corpus_errors_are_pinned() {
    let got: Vec<(usize, usize, String)> = corpus()
        .iter()
        .map(|src| {
            let err = qasm::parse(src).expect_err(src);
            (err.line(), err.col(), err.message().to_string())
        })
        .collect();
    let want: Vec<(usize, usize, String)> =
        CORPUS_PIN.iter().map(|&(l, c, m)| (l, c, m.to_string())).collect();
    assert_eq!(got, want);
}

// Captured on the `String`-token lexer and recursive parser.
const CORPUS_PIN: &[(usize, usize, &str)] = &[
    (2, 8, "stray `=` (expected `==`)"),
    (1, 9, "unterminated string literal"),
    (1, 9, "unterminated string literal"),
    (1, 8, "invalid number `1.2.3`"),
    (2, 4, "invalid number `1e`"),
    (2, 9, "unexpected character `@`"),
    (2, 9, "unexpected character `Ã`"),
    (2, 14, "unexpected character `$`"),
    (3, 1, "unexpected character `#`"),
    (1, 10, "unsupported OPENQASM version number 3"),
    (1, 1, "missing OPENQASM version"),
    (1, 10, "expected `;`, found end of input"),
    (1, 9, "only the built-in \"qelib1.inc\" include is supported, found \"other.inc\""),
    (1, 9, "expected a string after `include`"),
    (1, 9, "only the built-in \"qelib1.inc\" include is supported, found \"ü.inc\""),
    (4, 1, "expected `;`, found `h`"),
    (3, 9, "expected `;`, found end of input"),
    (3, 6, "expected identifier, found number 5"),
    (3, 6, "expected identifier, found string \"q\""),
    (3, 1, "expected identifier, found end of input"),
    (3, 8, "expected a non-negative integer, found 1.5"),
    (3, 8, "expected integer, found `-`"),
    (3, 8, "expected integer, found `n`"),
    (3, 7, "expected integer, found end of input"),
    (4, 3, "expected identifier, found number 1000"),
    (4, 8, "expected `;`, found `->`"),
    (4, 1, "duplicate qreg `q`"),
    (4, 17, "undeclared creg `c`"),
    (5, 19, "expected integer, found `x`"),
    (3, 1, "`opaque` gates are not supported"),
    (5, 8, "expected a non-negative integer, found 1.5"),
    (5, 21, "unknown gate `frob`"),
    (3, 9, "expected `;`, found end of input"),
    (3, 14, "`b` is not a formal qubit argument of gate `g`"),
    (4, 6, "duplicate gate definition `twice`"),
    (3, 10, "expected `)`, found `a`"),
    (5, 4, "broadcast size mismatch: register of size 2 vs 3"),
    (4, 1, "gate `cx` expects 0 parameter(s) and 2 qubit(s), got 0 and 1"),
    (4, 1, "gate `rz` expects 1 parameter(s) and 1 qubit(s), got 0 and 1"),
    (5, 1, "gate `g` expects 0 parameter(s) and 2 qubit(s), got 0 and 1"),
    (4, 1, "gate `cx` applied with repeated qubit 0"),
    (4, 1, "unknown gate `frobnicate`"),
    (3, 3, "undeclared qreg `nope`"),
    (4, 7, "index 2 out of range for qreg `q[2]`"),
    (4, 1, "unknown parameter `theta`"),
    (4, 15, "unknown parameter `b`"),
    (5, 1, "gate `g` expects 1 parameter(s) and 1 qubit(s), got 2 and 1"),
    (4, 4, "expected expression, found `;`"),
    (4, 3, "expected expression, found end of input"),
    (4, 12, "expected `)`, found `q`"),
    (4, 8, "expected `(`, found number 1"),
    (4, 7, "expected expression, found `)`"),
    (10, 13, "gate `g5` expansion recurses too deeply"),
];
