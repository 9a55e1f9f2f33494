use std::collections::HashMap;
use std::f64::consts::PI;
use std::ops::Range;

use super::lex::{lex, pos_at, Token, TokenKind};
use super::{Pos, QasmError};
use crate::circuit::{Circuit, SingleGate};

/// Parses OpenQASM 2.0 source into a [`Circuit`].
///
/// Multiple `qreg`s are concatenated into one global qubit index space in
/// declaration order. See the [module docs](super) for the supported
/// subset.
///
/// # Errors
///
/// Returns a [`QasmError`] with the offending line on lexical errors,
/// syntax errors, undeclared registers/gates, arity mismatches, broadcast
/// size mismatches, unsupported features (`opaque`, external includes),
/// and inputs past the parser's limits: gate expansion nested deeper than
/// 64 definitions, expressions nested deeper than 256 levels, more than
/// 2^20 qubits in total.
pub fn parse(src: &str) -> Result<Circuit, QasmError> {
    let mut parser = Parser::new(src, lex(src)?);
    parser.run()?;
    Ok(parser.out.circuit)
}

/// How deeply user gate definitions may expand into one another.
const MAX_EXPANSION_DEPTH: usize = 64;
/// How deeply a parameter expression may nest: parentheses, function
/// calls, unary signs and exponents. Bounds the parser's recursion.
const MAX_EXPR_DEPTH: usize = 256;
/// The most qubits a program may declare, over all its `qreg`s.
const MAX_QUBITS: usize = 1 << 20;

/// One step of a parameter expression in postfix order. Expressions are
/// flat code rather than a tree, so evaluating and dropping them never
/// recurses.
#[derive(Clone, Copy, Debug)]
enum Rpn<'a> {
    Num(f64),
    Pi,
    /// The `i`-th formal parameter of the enclosing gate definition.
    Param(usize),
    /// A name that is not a parameter in scope; evaluating it fails.
    Unknown(&'a str),
    Neg,
    Bin(BinOp),
    Func(UnaryFunc),
}

#[derive(Clone, Copy, Debug)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
}

#[derive(Clone, Copy, Debug)]
enum UnaryFunc {
    Sin,
    Cos,
    Tan,
    Exp,
    Ln,
    Sqrt,
}

/// Evaluates postfix `code`, pushing one value per expression onto
/// `values`. A [`Rpn::Param`] reads `values[env + i]`, the caller's
/// parameters further down the same stack. `at` is the byte offset that
/// an unknown-parameter error points at.
fn eval(
    code: &[Rpn<'_>],
    env: usize,
    values: &mut Vec<f64>,
    src: &str,
    at: usize,
) -> Result<(), QasmError> {
    // The parser only emits well-formed code: every operator finds its
    // operands on the stack.
    let pop = |values: &mut Vec<f64>| values.pop().unwrap_or(f64::NAN);
    for &op in code {
        let v = match op {
            Rpn::Num(v) => v,
            Rpn::Pi => PI,
            Rpn::Param(i) => values[env + i],
            Rpn::Unknown(name) => {
                return Err(QasmError::new(pos_at(src, at), format!("unknown parameter `{name}`")))
            }
            Rpn::Neg => -pop(values),
            Rpn::Bin(op) => {
                let b = pop(values);
                let a = pop(values);
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Pow => a.powf(b),
                }
            }
            Rpn::Func(f) => {
                let v = pop(values);
                match f {
                    UnaryFunc::Sin => v.sin(),
                    UnaryFunc::Cos => v.cos(),
                    UnaryFunc::Tan => v.tan(),
                    UnaryFunc::Exp => v.exp(),
                    UnaryFunc::Ln => v.ln(),
                    UnaryFunc::Sqrt => v.sqrt(),
                }
            }
        };
        values.push(v);
    }
    Ok(())
}

/// One call inside a user `gate` body. OpenQASM 2.0 forbids indexing
/// inside gate bodies, so every qubit operand is a formal argument.
#[derive(Debug)]
struct BodyCall<'a> {
    name: &'a str,
    /// Byte offset of the call's gate name.
    at: usize,
    /// The call's parameters in [`GateDef::code`].
    code: Range<usize>,
    /// The call's operands in [`GateDef::operands`].
    operands: Range<usize>,
}

#[derive(Debug)]
struct GateDef<'a> {
    params: usize,
    qargs: usize,
    /// Postfix code of every call's parameters, back to back.
    code: Vec<Rpn<'a>>,
    /// Every call's qubit operands, as indices of the formal qubits.
    operands: Vec<usize>,
    body: Vec<BodyCall<'a>>,
}

/// A qubit operand before broadcast: the global qubits
/// `first..first + len` (one qubit, or a whole register).
#[derive(Clone, Copy, Debug)]
struct QubitArg {
    first: usize,
    len: usize,
    /// Byte offset of the register name.
    at: usize,
}

/// The circuit under construction, plus the parameter-value and qubit
/// stacks that a gate application and its expansion share.
struct Emitter<'a> {
    src: &'a str,
    circuit: Circuit,
    values: Vec<f64>,
    qubits: Vec<usize>,
}

impl Emitter<'_> {
    /// Applies gate `name` to `self.qubits[qubits]` with parameters
    /// `self.values[params]`, expanding user gates recursively.
    fn apply(
        &mut self,
        defs: &HashMap<&str, GateDef<'_>>,
        name: &str,
        at: usize,
        params: Range<usize>,
        qubits: Range<usize>,
        depth: usize,
    ) -> Result<(), QasmError> {
        let err = |message: String| QasmError::new(pos_at(self.src, at), message);
        if depth > MAX_EXPANSION_DEPTH {
            return Err(err(format!("gate `{name}` expansion recurses too deeply")));
        }
        if self.builtin(name, at, params.clone(), qubits.clone())? {
            return Ok(());
        }
        let def = defs.get(name).ok_or_else(|| err(format!("unknown gate `{name}`")))?;
        if def.params != params.len() || def.qargs != qubits.len() {
            let (want, got) = ((def.params, def.qargs), (params.len(), qubits.len()));
            return Err(arity_error(self.src, name, at, want, got));
        }
        for call in &def.body {
            let (v0, q0) = (self.values.len(), self.qubits.len());
            eval(&def.code[call.code.clone()], params.start, &mut self.values, self.src, call.at)?;
            for &k in &def.operands[call.operands.clone()] {
                let q = self.qubits[qubits.start + k];
                self.qubits.push(q);
            }
            self.apply(
                defs,
                call.name,
                call.at,
                v0..self.values.len(),
                q0..self.qubits.len(),
                depth + 1,
            )?;
            self.values.truncate(v0);
            self.qubits.truncate(q0);
        }
        Ok(())
    }

    /// Applies a built-in gate; `Ok(false)` when `name` is not one.
    fn builtin(
        &mut self,
        name: &str,
        at: usize,
        params: Range<usize>,
        qubits: Range<usize>,
    ) -> Result<bool, QasmError> {
        let src = self.src;
        let (params, qubits) = (&self.values[params], &self.qubits[qubits]);
        let check = |want_p: usize, want_q: usize| {
            if params.len() == want_p && qubits.len() == want_q {
                Ok(())
            } else {
                Err(arity_error(src, name, at, (want_p, want_q), (params.len(), qubits.len())))
            }
        };
        let distinct = |qs: &[usize]| -> Result<(), QasmError> {
            for (i, a) in qs.iter().enumerate() {
                for b in &qs[i + 1..] {
                    if a == b {
                        return Err(QasmError::new(
                            pos_at(src, at),
                            format!("gate `{name}` applied with repeated qubit {a}"),
                        ));
                    }
                }
            }
            Ok(())
        };
        let circuit = &mut self.circuit;
        match name {
            "CX" | "cx" => {
                check(0, 2)?;
                distinct(qubits)?;
                circuit.cnot(qubits[0], qubits[1]);
            }
            "U" | "u3" => {
                check(3, 1)?;
                circuit.single(qubits[0], SingleGate::U(params[0], params[1], params[2]));
            }
            "u2" => {
                check(2, 1)?;
                circuit.single(qubits[0], SingleGate::U(PI / 2.0, params[0], params[1]));
            }
            "u1" | "p" | "u0" => {
                check(1, 1)?;
                circuit.single(qubits[0], SingleGate::Phase(params[0]));
            }
            "h" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::H);
            }
            "x" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::X);
            }
            "y" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::Y);
            }
            "z" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::Z);
            }
            "s" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::S);
            }
            "sdg" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::Sdg);
            }
            "t" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::T);
            }
            "tdg" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::Tdg);
            }
            "sx" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::Rx(PI / 2.0));
            }
            "sxdg" => {
                check(0, 1)?;
                circuit.single(qubits[0], SingleGate::Rx(-PI / 2.0));
            }
            "rx" => {
                check(1, 1)?;
                circuit.single(qubits[0], SingleGate::Rx(params[0]));
            }
            "ry" => {
                check(1, 1)?;
                circuit.single(qubits[0], SingleGate::Ry(params[0]));
            }
            "rz" => {
                check(1, 1)?;
                circuit.single(qubits[0], SingleGate::Rz(params[0]));
            }
            "id" => {
                check(0, 1)?;
            }
            "cz" => {
                check(0, 2)?;
                distinct(qubits)?;
                circuit.cz(qubits[0], qubits[1]);
            }
            "cy" => {
                check(0, 2)?;
                distinct(qubits)?;
                circuit.single(qubits[1], SingleGate::Sdg);
                circuit.cnot(qubits[0], qubits[1]);
                circuit.single(qubits[1], SingleGate::S);
            }
            "ch" => {
                check(0, 2)?;
                distinct(qubits)?;
                let (a, b) = (qubits[0], qubits[1]);
                circuit.h(b);
                circuit.single(b, SingleGate::Sdg);
                circuit.cnot(a, b);
                circuit.h(b);
                circuit.t(b);
                circuit.cnot(a, b);
                circuit.t(b);
                circuit.h(b);
                circuit.single(b, SingleGate::S);
                circuit.x(b);
                circuit.single(a, SingleGate::S);
            }
            "swap" => {
                check(0, 2)?;
                distinct(qubits)?;
                circuit.swap(qubits[0], qubits[1]);
            }
            "cp" | "cu1" => {
                check(1, 2)?;
                distinct(qubits)?;
                circuit.cp(qubits[0], qubits[1], params[0]);
            }
            "crz" => {
                check(1, 2)?;
                distinct(qubits)?;
                let (c, t) = (qubits[0], qubits[1]);
                circuit.rz(t, params[0] / 2.0);
                circuit.cnot(c, t);
                circuit.rz(t, -params[0] / 2.0);
                circuit.cnot(c, t);
            }
            "cry" => {
                check(1, 2)?;
                distinct(qubits)?;
                circuit.cry(qubits[0], qubits[1], params[0]);
            }
            "crx" => {
                check(1, 2)?;
                distinct(qubits)?;
                let (c, t) = (qubits[0], qubits[1]);
                circuit.h(t);
                circuit.rz(t, params[0] / 2.0);
                circuit.cnot(c, t);
                circuit.rz(t, -params[0] / 2.0);
                circuit.cnot(c, t);
                circuit.h(t);
            }
            "cu3" => {
                check(3, 2)?;
                distinct(qubits)?;
                let (c, t) = (qubits[0], qubits[1]);
                let (theta, phi, lambda) = (params[0], params[1], params[2]);
                circuit.phase(c, (lambda + phi) / 2.0);
                circuit.phase(t, (lambda - phi) / 2.0);
                circuit.cnot(c, t);
                circuit.single(t, SingleGate::U(-theta / 2.0, 0.0, -(phi + lambda) / 2.0));
                circuit.cnot(c, t);
                circuit.single(t, SingleGate::U(theta / 2.0, phi, 0.0));
            }
            "rzz" => {
                check(1, 2)?;
                distinct(qubits)?;
                let (a, b) = (qubits[0], qubits[1]);
                circuit.cnot(a, b);
                circuit.phase(b, params[0]);
                circuit.cnot(a, b);
            }
            "ccx" => {
                check(0, 3)?;
                distinct(qubits)?;
                circuit.ccx(qubits[0], qubits[1], qubits[2]);
            }
            "cswap" => {
                check(0, 3)?;
                distinct(qubits)?;
                circuit.cswap(qubits[0], qubits[1], qubits[2]);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn arity_error(
    src: &str,
    name: &str,
    at: usize,
    want: (usize, usize),
    got: (usize, usize),
) -> QasmError {
    QasmError::new(
        pos_at(src, at),
        format!(
            "gate `{name}` expects {} parameter(s) and {} qubit(s), got {} and {}",
            want.0, want.1, got.0, got.1
        ),
    )
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    /// Index of the next unread token.
    next: usize,
    /// `(name, first global qubit, size)` per register.
    qregs: Vec<(&'a str, usize, usize)>,
    cregs: HashMap<&'a str, usize>,
    defs: HashMap<&'a str, GateDef<'a>>,
    out: Emitter<'a>,
    /// A gate application's operands and parameter code, reused by every
    /// statement.
    args: Vec<QubitArg>,
    code: Vec<Rpn<'a>>,
    /// Nesting of the expression being parsed.
    expr_depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, tokens: Vec<Token>) -> Self {
        // A gate statement (`h q[0];`, `cx q[0], q[1];`) takes 6 to 11
        // tokens and most emit one operation; reserving for that spares
        // the operation list its growth copies.
        let mut circuit = Circuit::new(0);
        circuit.reserve(tokens.len() / 6);
        Parser {
            src,
            tokens,
            next: 0,
            qregs: Vec::new(),
            cregs: HashMap::new(),
            defs: HashMap::new(),
            out: Emitter { src, circuit, values: Vec::new(), qubits: Vec::new() },
            args: Vec::new(),
            code: Vec::new(),
            expr_depth: 0,
        }
    }

    // ---- token helpers ----------------------------------------------------

    #[cold]
    fn err(&self, at: usize, message: impl Into<String>) -> QasmError {
        QasmError::new(pos_at(self.src, at), message)
    }

    fn peek(&self) -> Option<TokenKind> {
        self.tokens.get(self.next).map(|t| t.kind)
    }

    /// Position of the current token (or the last one, at end of input).
    fn cur_pos(&self) -> Pos {
        self.tokens
            .get(self.next.min(self.tokens.len().saturating_sub(1)))
            .map_or(Pos { line: 0, col: 0 }, |t| pos_at(self.src, t.at()))
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.next).copied();
        if t.is_some() {
            self.next += 1;
        }
        t
    }

    /// An error at token `t`, or at the end of input when `t` is `None`.
    #[cold]
    fn err_at(&self, t: Option<Token>, message: impl Into<String>) -> QasmError {
        match t {
            Some(t) => self.err(t.at(), message),
            None => QasmError::new(self.cur_pos(), message),
        }
    }

    /// How a mismatched token reads in an error message.
    #[cold]
    fn found(&self, t: Option<Token>) -> String {
        t.map_or_else(|| "end of input".into(), |t| t.describe(self.src))
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), QasmError> {
        match self.bump() {
            Some(t) if t.kind == kind => Ok(()),
            t => {
                Err(self.err_at(t, format!("expected {}, found {}", kind.symbol(), self.found(t))))
            }
        }
    }

    /// An identifier and its byte offset.
    fn expect_ident(&mut self) -> Result<(&'a str, usize), QasmError> {
        match self.bump() {
            Some(t) if t.kind == TokenKind::Ident => Ok((t.text(self.src), t.at())),
            t => Err(self.err_at(t, format!("expected identifier, found {}", self.found(t)))),
        }
    }

    /// A non-negative integer and its byte offset.
    fn expect_uint(&mut self) -> Result<(usize, usize), QasmError> {
        match self.bump() {
            Some(t) if t.kind == TokenKind::Number => {
                // A digits-only number of up to 15 digits is below 2^53:
                // the same value the float path below gives, read without
                // parsing a float.
                let bytes = &self.src.as_bytes()[t.at()..];
                let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
                if digits <= 15 && !matches!(bytes.get(digits), Some(b'.' | b'e' | b'E')) {
                    let n = bytes[..digits].iter().fold(0, |n, &d| n * 10 + usize::from(d - b'0'));
                    return Ok((n, t.at()));
                }
                let v = t.number(self.src);
                if v.fract() == 0.0 && v >= 0.0 {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    Ok((v as usize, t.at()))
                } else {
                    Err(self.err(t.at(), format!("expected a non-negative integer, found {v}")))
                }
            }
            t => Err(self.err_at(t, format!("expected integer, found {}", self.found(t)))),
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.next += 1;
            true
        } else {
            false
        }
    }

    /// Skips to the next `;` and consumes it.
    fn skip_statement(&mut self) -> Result<(), QasmError> {
        while self.peek().is_some_and(|k| k != TokenKind::Semicolon) {
            self.next += 1;
        }
        self.expect(TokenKind::Semicolon)
    }

    // ---- top level ---------------------------------------------------------

    fn run(&mut self) -> Result<(), QasmError> {
        // Optional version header.
        if self
            .tokens
            .first()
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text(self.src) == "OPENQASM")
        {
            self.next += 1;
            match self.bump() {
                Some(t)
                    if t.kind == TokenKind::Number && (2.0..3.0).contains(&t.number(self.src)) => {}
                None => return Err(self.err_at(None, "missing OPENQASM version")),
                t => {
                    let found = self.found(t);
                    return Err(self.err_at(t, format!("unsupported OPENQASM version {found}")));
                }
            }
            self.expect(TokenKind::Semicolon)?;
        }
        while self.peek().is_some() {
            self.statement()?;
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<(), QasmError> {
        let (mut name, mut at) = self.expect_ident()?;
        // `if (creg == n) <qop>`: the guarded operation is applied
        // unconditionally (worst-case scheduling over-approximation).
        // Chains of guards are read in a loop, not by recursion.
        while name == "if" {
            self.expect(TokenKind::LParen)?;
            self.expect_ident()?;
            self.expect(TokenKind::EqEq)?;
            self.expect_uint()?;
            self.expect(TokenKind::RParen)?;
            (name, at) = self.expect_ident()?;
        }
        match name {
            "include" => {
                match self.bump() {
                    Some(t) if t.kind == TokenKind::Str => {
                        let path = t.text(self.src);
                        if path != "qelib1.inc" {
                            return Err(self.err(
                                t.at(),
                                format!("only the built-in \"qelib1.inc\" include is supported, found \"{path}\""),
                            ));
                        }
                    }
                    t => return Err(self.err_at(t, "expected a string after `include`")),
                }
                self.expect(TokenKind::Semicolon)?;
            }
            "qreg" => {
                let (reg, _) = self.expect_ident()?;
                self.expect(TokenKind::LBracket)?;
                let size_token = self.next;
                let (size, size_at) = self.expect_uint()?;
                self.expect(TokenKind::RBracket)?;
                self.expect(TokenKind::Semicolon)?;
                if self.qregs.iter().any(|&(n, _, _)| n == reg) {
                    return Err(self.err(at, format!("duplicate qreg `{reg}`")));
                }
                let first = self.out.circuit.qubits();
                let Some(total) = first.checked_add(size).filter(|&total| total <= MAX_QUBITS)
                else {
                    let written = self.tokens[size_token].text(self.src);
                    return Err(self.err(
                        size_at,
                        format!(
                            "qreg `{reg}[{written}]` takes the program past {MAX_QUBITS} qubits"
                        ),
                    ));
                };
                self.qregs.push((reg, first, size));
                self.out.circuit.widen(total);
            }
            "creg" => {
                let (reg, _) = self.expect_ident()?;
                self.expect(TokenKind::LBracket)?;
                let (size, _) = self.expect_uint()?;
                self.expect(TokenKind::RBracket)?;
                self.expect(TokenKind::Semicolon)?;
                self.cregs.insert(reg, size);
            }
            "gate" => self.gate_def()?,
            "opaque" => {
                return Err(self.err(at, "`opaque` gates are not supported"));
            }
            "barrier" => {
                // The operand list is ignored.
                self.skip_statement()?;
                self.out.circuit.barrier();
            }
            "measure" => {
                let arg = self.qubit_arg()?;
                self.expect(TokenKind::Arrow)?;
                // Classical destination: ident with optional [index].
                let (creg, creg_at) = self.expect_ident()?;
                if !self.cregs.contains_key(creg) {
                    return Err(self.err(creg_at, format!("undeclared creg `{creg}`")));
                }
                if self.eat(TokenKind::LBracket) {
                    self.expect_uint()?;
                    self.expect(TokenKind::RBracket)?;
                }
                self.expect(TokenKind::Semicolon)?;
                for q in arg.first..arg.first + arg.len {
                    self.out.circuit.single(q, SingleGate::Measure);
                }
            }
            "reset" => {
                let arg = self.qubit_arg()?;
                self.expect(TokenKind::Semicolon)?;
                for q in arg.first..arg.first + arg.len {
                    self.out.circuit.single(q, SingleGate::Reset);
                }
            }
            _ => self.gate_application(name, at)?,
        }
        Ok(())
    }

    // ---- gate definitions ---------------------------------------------------

    fn gate_def(&mut self) -> Result<(), QasmError> {
        let (name, at) = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(TokenKind::LParen) && !self.eat(TokenKind::RParen) {
            loop {
                params.push(self.expect_ident()?.0);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        let mut qargs = Vec::new();
        loop {
            qargs.push(self.expect_ident()?.0);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::LBrace)?;
        let mut code = Vec::new();
        let mut operands = Vec::new();
        let mut body = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            let (call, call_at) = self.expect_ident()?;
            if call == "barrier" {
                self.skip_statement()?;
                continue;
            }
            let code_start = code.len();
            if self.eat(TokenKind::LParen) && !self.eat(TokenKind::RParen) {
                loop {
                    self.expr(&mut code, &params)?;
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
            let operand_start = operands.len();
            loop {
                let (q, q_at) = self.expect_ident()?;
                // A repeated formal name binds its last occurrence.
                let Some(k) = qargs.iter().rposition(|&formal| formal == q) else {
                    return Err(self.err(
                        q_at,
                        format!("`{q}` is not a formal qubit argument of gate `{name}`"),
                    ));
                };
                operands.push(k);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::Semicolon)?;
            body.push(BodyCall {
                name: call,
                at: call_at,
                code: code_start..code.len(),
                operands: operand_start..operands.len(),
            });
        }
        if self.defs.contains_key(name) {
            return Err(self.err(at, format!("duplicate gate definition `{name}`")));
        }
        let def = GateDef { params: params.len(), qargs: qargs.len(), code, operands, body };
        self.defs.insert(name, def);
        Ok(())
    }

    // ---- applications ---------------------------------------------------------

    fn gate_application(&mut self, name: &'a str, at: usize) -> Result<(), QasmError> {
        self.out.values.clear();
        if self.eat(TokenKind::LParen) && !self.eat(TokenKind::RParen) {
            let mut code = std::mem::take(&mut self.code);
            code.clear();
            loop {
                self.expr(&mut code, &[])?;
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
            eval(&code, 0, &mut self.out.values, self.src, at)?;
            self.code = code;
        }
        self.args.clear();
        loop {
            let arg = self.qubit_arg()?;
            self.args.push(arg);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Semicolon)?;

        // Broadcast: whole-register args expand element-wise; registers must
        // agree on size; single qubits repeat.
        let broadcast = self.args.iter().map(|a| a.len).max().unwrap_or(1);
        if let Some(a) = self.args.iter().find(|a| a.len != 1 && a.len != broadcast) {
            return Err(self.err(
                a.at,
                format!("broadcast size mismatch: register of size {} vs {broadcast}", a.len),
            ));
        }
        let params = 0..self.out.values.len();
        for k in 0..broadcast {
            self.out.qubits.clear();
            self.out.qubits.extend(self.args.iter().map(|a| {
                if a.len == 1 {
                    a.first
                } else {
                    a.first + k
                }
            }));
            self.out.apply(&self.defs, name, at, params.clone(), 0..self.args.len(), 0)?;
        }
        Ok(())
    }

    /// Parses `reg` or `reg[i]`, resolving to global qubit indices.
    fn qubit_arg(&mut self) -> Result<QubitArg, QasmError> {
        let (reg, at) = self.expect_ident()?;
        let &(_, first, size) = self
            .qregs
            .iter()
            .find(|&&(n, _, _)| n == reg)
            .ok_or_else(|| self.err(at, format!("undeclared qreg `{reg}`")))?;
        if self.eat(TokenKind::LBracket) {
            let (idx, idx_at) = self.expect_uint()?;
            self.expect(TokenKind::RBracket)?;
            if idx >= size {
                return Err(
                    self.err(idx_at, format!("index {idx} out of range for qreg `{reg}[{size}]`"))
                );
            }
            Ok(QubitArg { first: first + idx, len: 1, at })
        } else {
            Ok(QubitArg { first, len: size, at })
        }
    }

    // ---- expressions -------------------------------------------------------
    //
    // Each parser appends postfix code to `code`; a name in `formals`
    // becomes a parameter reference (its last occurrence, as a repeated
    // formal name binds the last value).

    fn expr(&mut self, code: &mut Vec<Rpn<'a>>, formals: &[&'a str]) -> Result<(), QasmError> {
        self.expr_mul(code, formals)?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => return Ok(()),
            };
            self.next += 1;
            self.expr_mul(code, formals)?;
            code.push(Rpn::Bin(op));
        }
    }

    fn expr_mul(&mut self, code: &mut Vec<Rpn<'a>>, formals: &[&'a str]) -> Result<(), QasmError> {
        self.expr_unary(code, formals)?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => return Ok(()),
            };
            self.next += 1;
            self.expr_unary(code, formals)?;
            code.push(Rpn::Bin(op));
        }
    }

    /// Every cycle of the expression grammar passes through here, so the
    /// nesting bound is checked here.
    fn expr_unary(
        &mut self,
        code: &mut Vec<Rpn<'a>>,
        formals: &[&'a str],
    ) -> Result<(), QasmError> {
        if self.expr_depth == MAX_EXPR_DEPTH {
            return Err(QasmError::new(
                self.cur_pos(),
                format!("expression nests more than {MAX_EXPR_DEPTH} levels deep"),
            ));
        }
        self.expr_depth += 1;
        let parsed = if self.eat(TokenKind::Minus) {
            self.expr_unary(code, formals).map(|()| code.push(Rpn::Neg))
        } else if self.eat(TokenKind::Plus) {
            self.expr_unary(code, formals)
        } else {
            self.expr_pow(code, formals)
        };
        self.expr_depth -= 1;
        parsed
    }

    fn expr_pow(&mut self, code: &mut Vec<Rpn<'a>>, formals: &[&'a str]) -> Result<(), QasmError> {
        self.expr_atom(code, formals)?;
        if self.eat(TokenKind::Caret) {
            // Right-associative exponentiation.
            self.expr_unary(code, formals)?;
            code.push(Rpn::Bin(BinOp::Pow));
        }
        Ok(())
    }

    fn expr_atom(&mut self, code: &mut Vec<Rpn<'a>>, formals: &[&'a str]) -> Result<(), QasmError> {
        match self.bump() {
            Some(t) if t.kind == TokenKind::Number => code.push(Rpn::Num(t.number(self.src))),
            Some(t) if t.kind == TokenKind::Ident => {
                let f = match t.text(self.src) {
                    "pi" => {
                        code.push(Rpn::Pi);
                        return Ok(());
                    }
                    "sin" => UnaryFunc::Sin,
                    "cos" => UnaryFunc::Cos,
                    "tan" => UnaryFunc::Tan,
                    "exp" => UnaryFunc::Exp,
                    "ln" => UnaryFunc::Ln,
                    "sqrt" => UnaryFunc::Sqrt,
                    name => {
                        let slot = formals.iter().rposition(|&formal| formal == name);
                        code.push(slot.map_or(Rpn::Unknown(name), Rpn::Param));
                        return Ok(());
                    }
                };
                self.expect(TokenKind::LParen)?;
                self.expr(code, formals)?;
                self.expect(TokenKind::RParen)?;
                code.push(Rpn::Func(f));
            }
            Some(t) if t.kind == TokenKind::LParen => {
                self.expr(code, formals)?;
                self.expect(TokenKind::RParen)?;
            }
            t => {
                return Err(self.err_at(t, format!("expected expression, found {}", self.found(t))))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Op;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn parse_ok(body: &str) -> Circuit {
        parse(&format!("{HEADER}{body}")).expect("parse failure")
    }

    #[test]
    fn parses_bell_pair() {
        let c = parse_ok("qreg q[2];\nh q[0];\ncx q[0], q[1];\n");
        assert_eq!(c.qubits(), 2);
        assert_eq!(c.cnot_count(), 1);
    }

    #[test]
    fn broadcast_applies_to_register() {
        let c = parse_ok("qreg q[4];\nh q;\n");
        assert_eq!(c.op_count(), 4);
    }

    #[test]
    fn broadcast_cx_pairs_registers() {
        let c = parse_ok("qreg a[3];\nqreg b[3];\ncx a, b;\n");
        assert_eq!(c.cnot_count(), 3);
        assert_eq!(c.cnot_gates()[1].control, 1);
        assert_eq!(c.cnot_gates()[1].target, 4); // second qreg offset by 3
    }

    #[test]
    fn broadcast_scalar_against_register() {
        let c = parse_ok("qreg a[1];\nqreg b[3];\ncx a[0], b;\n");
        assert_eq!(c.cnot_count(), 3);
        assert!(c.cnot_gates().iter().all(|g| g.control == 0));
    }

    #[test]
    fn broadcast_size_mismatch_errors() {
        let err = parse(&format!("{HEADER}qreg a[2];\nqreg b[3];\ncx a, b;\n")).unwrap_err();
        assert!(err.message().contains("broadcast"));
    }

    #[test]
    fn user_gate_expansion() {
        let c = parse_ok("qreg q[2];\ngate bell a, b { h a; cx a, b; }\nbell q[0], q[1];\n");
        assert_eq!(c.cnot_count(), 1);
        assert_eq!(c.op_count(), 2);
    }

    #[test]
    fn parameterized_user_gate() {
        let c = parse_ok("qreg q[1];\ngate tilt(t) a { rz(t/2) a; }\ntilt(pi) q[0];\n");
        match c.ops()[0] {
            Op::Single { kind: SingleGate::Rz(v), .. } => {
                assert!((v - PI / 2.0).abs() < 1e-12);
            }
            ref other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn nested_user_gates() {
        let c = parse_ok(
            "qreg q[3];\n\
             gate pair a, b { cx a, b; }\n\
             gate trio a, b, c { pair a, b; pair b, c; }\n\
             trio q[0], q[1], q[2];\n",
        );
        assert_eq!(c.cnot_count(), 2);
    }

    #[test]
    fn ccx_decomposes_to_six_cnots() {
        let c = parse_ok("qreg q[3];\nccx q[0], q[1], q[2];\n");
        assert_eq!(c.cnot_count(), 6);
    }

    #[test]
    fn measure_whole_register() {
        let c = parse_ok("qreg q[2];\ncreg c[2];\nmeasure q -> c;\n");
        assert_eq!(c.op_count(), 2);
    }

    #[test]
    fn if_applies_unconditionally() {
        let c = parse_ok("qreg q[2];\ncreg c[1];\nif (c==1) cx q[0], q[1];\n");
        assert_eq!(c.cnot_count(), 1);
    }

    #[test]
    fn expression_precedence() {
        let c = parse_ok("qreg q[1];\nrz(1 + 2 * 3) q[0];\n");
        match c.ops()[0] {
            Op::Single { kind: SingleGate::Rz(v), .. } => assert!((v - 7.0).abs() < 1e-12),
            ref other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_functions() {
        let c = parse_ok("qreg q[1];\nrz(-cos(0)) q[0];\n");
        match c.ops()[0] {
            Op::Single { kind: SingleGate::Rz(v), .. } => assert!((v + 1.0).abs() < 1e-12),
            ref other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn undeclared_register_errors() {
        let err = parse(&format!("{HEADER}h nope[0];\n")).unwrap_err();
        assert!(err.message().contains("undeclared"));
    }

    #[test]
    fn unknown_gate_errors_with_line() {
        let err = parse(&format!("{HEADER}qreg q[1];\nfrobnicate q[0];\n")).unwrap_err();
        assert_eq!(err.line(), 4);
        assert_eq!(err.col(), 1);
        assert!(err.message().contains("frobnicate"));
    }

    #[test]
    fn errors_carry_columns() {
        // `q[2]` on line 4: the out-of-range index sits at column 5.
        let err = parse(&format!("{HEADER}qreg q[2];\nh   q[2];\n")).unwrap_err();
        assert_eq!(err.line(), 4);
        assert_eq!(err.col(), 7);
        // Missing semicolon: the error points at the next token.
        let err = parse(&format!("{HEADER}qreg q[2];\nh q[0]\ncx q[0], q[1];\n")).unwrap_err();
        assert_eq!(err.line(), 5);
        assert_eq!(err.col(), 1);
        // End-of-input errors keep the last token's line with col 0 never
        // asserted here (the lexer always has a column for real tokens).
        let err = parse("OPENQASM 2.0;\nqreg q").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn out_of_range_index_errors() {
        let err = parse(&format!("{HEADER}qreg q[2];\nh q[2];\n")).unwrap_err();
        assert!(err.message().contains("out of range"));
    }

    #[test]
    fn opaque_rejected() {
        let err = parse(&format!("{HEADER}opaque magic q;\n")).unwrap_err();
        assert!(err.message().contains("opaque"));
    }

    #[test]
    fn external_include_rejected() {
        let err = parse("OPENQASM 2.0;\ninclude \"other.inc\";\n").unwrap_err();
        assert!(err.message().contains("other.inc"));
    }

    #[test]
    fn repeated_qubit_in_cx_rejected() {
        let err = parse(&format!("{HEADER}qreg q[2];\ncx q[0], q[0];\n")).unwrap_err();
        assert!(err.message().contains("repeated qubit"));
    }

    #[test]
    fn version_3_rejected() {
        assert!(parse("OPENQASM 3.0;\n").is_err());
    }

    #[test]
    fn multiple_qregs_concatenate() {
        let c = parse_ok("qreg a[2];\nqreg b[3];\ncx a[1], b[0];\n");
        assert_eq!(c.qubits(), 5);
        assert_eq!(c.cnot_gates()[0].control, 1);
        assert_eq!(c.cnot_gates()[0].target, 2);
    }
}

#[cfg(test)]
mod gate_set_tests {
    use super::*;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn cnots(body: &str) -> usize {
        parse(&format!("{HEADER}{body}")).expect("parse").cnot_count()
    }

    #[test]
    fn two_cnot_controlled_gates() {
        for gate in ["cp(pi/2)", "cu1(pi/4)", "crz(pi/8)", "cry(0.3)", "crx(0.7)", "rzz(0.2)"] {
            assert_eq!(cnots(&format!("qreg q[2];\n{gate} q[0], q[1];\n")), 2, "{gate}");
        }
        assert_eq!(cnots("qreg q[2];\ncu3(0.1,0.2,0.3) q[0], q[1];\n"), 2);
        assert_eq!(cnots("qreg q[2];\nch q[0], q[1];\n"), 2);
    }

    #[test]
    fn one_cnot_controlled_gates() {
        for gate in ["cz", "cy"] {
            assert_eq!(cnots(&format!("qreg q[2];\n{gate} q[0], q[1];\n")), 1, "{gate}");
        }
    }

    #[test]
    fn single_qubit_extensions() {
        let c = parse(&format!(
            "{HEADER}qreg q[1];\nsx q[0];\nsxdg q[0];\nu2(0,pi) q[0];\nid q[0];\nu0(0) q[0];\n"
        ))
        .expect("parse");
        assert_eq!(c.cnot_count(), 0);
        assert!(c.op_count() >= 4);
    }

    #[test]
    fn reset_broadcasts() {
        let c = parse(&format!("{HEADER}qreg q[3];\nreset q;\n")).expect("parse");
        assert_eq!(c.op_count(), 3);
    }

    #[test]
    fn nested_if_applies_inner_gate() {
        let c =
            parse(&format!("{HEADER}qreg q[2];\ncreg c[1];\nif (c==0) if (c==1) cx q[0], q[1];\n"))
                .expect("parse");
        assert_eq!(c.cnot_count(), 1);
    }

    #[test]
    fn empty_parameter_parens_allowed() {
        let c = parse(&format!("{HEADER}qreg q[1];\ngate flip() a {{ x a; }}\nflip() q[0];\n"))
            .expect("parse");
        assert_eq!(c.op_count(), 1);
    }

    #[test]
    fn exponent_expression() {
        let c = parse(&format!("{HEADER}qreg q[1];\nrz(2^3) q[0];\n")).expect("parse");
        match c.ops()[0] {
            crate::circuit::Op::Single { kind: SingleGate::Rz(v), .. } => {
                assert!((v - 8.0).abs() < 1e-12);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recursion_depth_guard() {
        // A self-recursive gate must error, not stack-overflow. (Forward
        // references are rejected at definition time, so build recursion
        // through the expansion depth limit with nesting.)
        let mut defs = String::new();
        defs.push_str("gate g0 a { x a; }\n");
        for k in 1..=70 {
            defs.push_str(&format!("gate g{k} a {{ g{} a; }}\n", k - 1));
        }
        let err = parse(&format!("{HEADER}qreg q[1];\n{defs}g70 q[0];\n"));
        assert!(err.is_err(), "deep nesting beyond the limit must be rejected");
    }

    #[test]
    fn deep_unary_signs_are_an_error_not_a_stack_overflow() {
        let src = format!("{HEADER}qreg q[1];\nrz({}1) q[0];\n", "-".repeat(200_000));
        let err = parse(&src).unwrap_err();
        // The first sign is at column 4; the one past the limit errs.
        assert_eq!((err.line(), err.col()), (4, 4 + MAX_EXPR_DEPTH));
        assert_eq!(err.message(), "expression nests more than 256 levels deep");
    }

    #[test]
    fn deep_parentheses_are_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| {
            format!("{HEADER}qreg q[1];\nrz({}1{}) q[0];\n", "(".repeat(depth), ")".repeat(depth))
        };
        // Each parenthesis adds a level to the operand's own; the error
        // points at the first token past the limit.
        assert_eq!(parse(&nested(MAX_EXPR_DEPTH - 1)).expect("at the limit").op_count(), 1);
        let err = parse(&nested(MAX_EXPR_DEPTH)).unwrap_err();
        assert_eq!((err.line(), err.col()), (4, 4 + MAX_EXPR_DEPTH));
        assert!(err.message().contains("nests more than"));
        let err = parse(&nested(200_000)).unwrap_err();
        assert_eq!((err.line(), err.col()), (4, 4 + MAX_EXPR_DEPTH));
        // A chain of exponents nests the same way.
        let pow = format!("{HEADER}qreg q[1];\nrz(2{}) q[0];\n", "^2".repeat(200_000));
        assert!(parse(&pow).unwrap_err().message().contains("nests more than"));
    }

    #[test]
    fn long_flat_expressions_parse() {
        // Only nesting is bounded: a flat sum of any length is fine, and
        // its postfix code evaluates and drops without recursion.
        let src = format!("{HEADER}qreg q[1];\nrz(0{}) q[0];\n", "+1".repeat(200_000));
        match parse(&src).expect("flat sum").ops()[0] {
            crate::circuit::Op::Single { kind: SingleGate::Rz(v), .. } => assert_eq!(v, 200_000.0),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn long_if_chains_parse_iteratively() {
        let src =
            format!("{HEADER}qreg q[1];\ncreg c[1];\n{}x q[0];\n", "if (c==0) ".repeat(200_000));
        assert_eq!(parse(&src).expect("guard chain").op_count(), 1);
    }

    #[test]
    fn oversized_registers_are_rejected() {
        // `1e30` used to saturate to usize::MAX and wrap the qubit count.
        let err = parse(&format!("{HEADER}qreg q[1e30];\nqreg r[2];\n")).unwrap_err();
        assert_eq!((err.line(), err.col()), (3, 8));
        assert_eq!(err.message(), "qreg `q[1e30]` takes the program past 1048576 qubits");
        let err = parse(&format!("{HEADER}qreg q[18446744073709551615];\n")).unwrap_err();
        assert_eq!((err.line(), err.col()), (3, 8));
        assert!(err.message().contains("past 1048576 qubits"));
        // The cap is on the running total, and a register may reach it.
        let err = parse(&format!("{HEADER}qreg a[1048576];\nqreg b[1];\n")).unwrap_err();
        assert_eq!((err.line(), err.col()), (4, 8));
        assert_eq!(
            parse(&format!("{HEADER}qreg a[1048575];\nqreg b[1];\n")).unwrap().qubits(),
            1 << 20
        );
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let err = parse(&format!("{HEADER}gate twice a {{ x a; }}\ngate twice a {{ x a; }}\n"))
            .unwrap_err();
        assert!(err.message().contains("duplicate"));
        let err = parse(&format!("{HEADER}qreg q[1];\nqreg q[2];\n")).unwrap_err();
        assert!(err.message().contains("duplicate"));
    }
}
