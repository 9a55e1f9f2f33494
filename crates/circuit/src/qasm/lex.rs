use super::{Pos, QasmError};

/// One token: its kind and the byte offset of its first character,
/// 8 bytes in all. Tokens carry no payload: identifiers, numbers and
/// strings are read back from the source, their end found again by the
/// lexer's own scanners, and a [`Pos`] is computed from the start offset
/// only when an error is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    start: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`qreg`, `gate`, `h`, …).
    Ident,
    /// Numeric literal (integer or real), validated by the lexer.
    Number,
    /// String literal (only used by `include`); its text excludes the
    /// quotes.
    Str,
    Semicolon,
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Arrow,
    EqEq,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
}

impl Token {
    /// Byte offset of the token's first character.
    #[inline]
    pub(crate) fn at(self) -> usize {
        self.start as usize
    }

    /// The token's text: an identifier or number as written, a string
    /// without its quotes, an operator's symbol.
    #[inline]
    pub(crate) fn text(self, src: &str) -> &str {
        let (bytes, start) = (src.as_bytes(), self.at());
        match self.kind {
            TokenKind::Ident => &src[start..ident_end(bytes, start)],
            TokenKind::Number => &src[start..number_end(bytes, start).0],
            TokenKind::Str => &src[start + 1..string_end(bytes, start)],
            TokenKind::Arrow | TokenKind::EqEq => &src[start..start + 2],
            _ => &src[start..=start],
        }
    }

    /// The value of a [`TokenKind::Number`] token.
    #[inline]
    pub(crate) fn number(self, src: &str) -> f64 {
        // The lexer only emits number tokens whose text parses.
        self.text(src).parse().unwrap_or(f64::NAN)
    }

    /// How the token reads in an error message.
    pub(crate) fn describe(self, src: &str) -> String {
        match self.kind {
            TokenKind::Ident => format!("`{}`", self.text(src)),
            TokenKind::Number => format!("number {}", self.number(src)),
            TokenKind::Str => format!("string \"{}\"", self.text(src)),
            kind => kind.symbol().into(),
        }
    }
}

impl TokenKind {
    /// How a token of this kind reads in an error message; the payload
    /// kinds name their class.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            TokenKind::Ident => "identifier",
            TokenKind::Number => "number",
            TokenKind::Str => "string",
            TokenKind::Semicolon => "`;`",
            TokenKind::Comma => "`,`",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::LBracket => "`[`",
            TokenKind::RBracket => "`]`",
            TokenKind::LBrace => "`{`",
            TokenKind::RBrace => "`}`",
            TokenKind::Arrow => "`->`",
            TokenKind::EqEq => "`==`",
            TokenKind::Plus => "`+`",
            TokenKind::Minus => "`-`",
            TokenKind::Star => "`*`",
            TokenKind::Slash => "`/`",
            TokenKind::Caret => "`^`",
        }
    }
}

/// The 1-based line and byte column of byte offset `at` in `src`.
pub(crate) fn pos_at(src: &str, at: usize) -> Pos {
    let before = &src.as_bytes()[..at];
    let line_start = before.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    Pos { line, col: at - line_start + 1 }
}

/// End of the identifier starting at `i`.
#[inline]
fn ident_end(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    j
}

/// End of the number starting at `i`, and whether it is digits only:
/// digits and dots, then at most one exponent with an optional sign.
#[inline]
fn number_end(bytes: &[u8], i: usize) -> (usize, bool) {
    let mut j = i;
    let mut seen_exp = false;
    let mut plain = true;
    while j < bytes.len() {
        let d = bytes[j];
        if d.is_ascii_digit() {
            j += 1;
        } else if d == b'.' {
            plain = false;
            j += 1;
        } else if (d == b'e' || d == b'E') && !seen_exp {
            seen_exp = true;
            plain = false;
            j += 1;
            if matches!(bytes.get(j), Some(&b'+' | &b'-')) {
                j += 1;
            }
        } else {
            break;
        }
    }
    (j, plain)
}

/// Offset of the byte that ends the string opened at `i`: its closing
/// quote, or a newline or the end of input when it is unterminated.
#[inline]
fn string_end(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() && bytes[j] != b'"' && bytes[j] != b'\n' {
        j += 1;
    }
    j
}

/// Tokenizes QASM source. `//` comments run to end of line.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, QasmError> {
    if u32::try_from(src.len()).is_err() {
        return Err(QasmError::new(
            Pos { line: 1, col: 0 },
            format!("source of {} bytes exceeds the {}-byte limit", src.len(), u32::MAX),
        ));
    }
    let err = |at: usize, message: String| QasmError::new(pos_at(src, at), message);
    let bytes = src.as_bytes();
    // Writer output runs about 1.4 bytes per token; reserving for that
    // keeps the common case free of a growth copy.
    let mut tokens = Vec::with_capacity(src.len() * 3 / 4);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let next = bytes.get(i + 1).copied();
        let (kind, end) = match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                continue;
            }
            '/' if next == Some(b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            ';' => (TokenKind::Semicolon, i + 1),
            ',' => (TokenKind::Comma, i + 1),
            '(' => (TokenKind::LParen, i + 1),
            ')' => (TokenKind::RParen, i + 1),
            '[' => (TokenKind::LBracket, i + 1),
            ']' => (TokenKind::RBracket, i + 1),
            '{' => (TokenKind::LBrace, i + 1),
            '}' => (TokenKind::RBrace, i + 1),
            '+' => (TokenKind::Plus, i + 1),
            '*' => (TokenKind::Star, i + 1),
            '/' => (TokenKind::Slash, i + 1),
            '^' => (TokenKind::Caret, i + 1),
            '-' if next == Some(b'>') => (TokenKind::Arrow, i + 2),
            '-' => (TokenKind::Minus, i + 1),
            '=' if next == Some(b'=') => (TokenKind::EqEq, i + 2),
            '=' => return Err(err(i, "stray `=` (expected `==`)".into())),
            '"' => {
                let j = string_end(bytes, i);
                if bytes.get(j) != Some(&b'"') {
                    return Err(err(i, "unterminated string literal".into()));
                }
                (TokenKind::Str, j + 1)
            }
            _ if c.is_ascii_digit() || (c == '.' && next.is_some_and(|d| d.is_ascii_digit())) => {
                let (j, plain) = number_end(bytes, i);
                let text = &src[i..j];
                if !plain && text.parse::<f64>().is_err() {
                    return Err(err(i, format!("invalid number `{text}`")));
                }
                (TokenKind::Number, j)
            }
            _ if c.is_ascii_alphabetic() || c == '_' => (TokenKind::Ident, ident_end(bytes, i)),
            _ => return Err(err(i, format!("unexpected character `{c}`"))),
        };
        // Fits: the source length was checked above.
        #[allow(clippy::cast_possible_truncation)]
        tokens.push(Token { kind, start: i as u32 });
        i = end;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<&str> {
        lex(src).unwrap().into_iter().map(|t| t.text(src)).collect()
    }

    #[test]
    fn lexes_declaration() {
        let src = "qreg q[3];";
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::LBracket,
                TokenKind::Number,
                TokenKind::RBracket,
                TokenKind::Semicolon,
            ]
        );
        assert_eq!(texts(src), vec!["qreg", "q", "[", "3", "]", ";"]);
    }

    #[test]
    fn lexes_arrow_and_eqeq() {
        assert_eq!(kinds("-> =="), vec![TokenKind::Arrow, TokenKind::EqEq]);
        assert_eq!(texts("a->b"), vec!["a", "->", "b"]);
    }

    #[test]
    fn skips_comments() {
        assert_eq!(kinds("// hello\nh q;").len(), 3);
    }

    fn positions(src: &str) -> Vec<Pos> {
        lex(src).unwrap().into_iter().map(|t| pos_at(src, t.at())).collect()
    }

    #[test]
    fn tracks_line_numbers() {
        let pos = positions("a;\nb;");
        assert_eq!(pos[0].line, 1);
        assert_eq!(pos[2].line, 2);
    }

    #[test]
    fn tracks_columns() {
        let pos = positions("qreg q[3];\ncx q[0], q[1];");
        assert_eq!(pos[0], Pos { line: 1, col: 1 }); // qreg
        assert_eq!(pos[1], Pos { line: 1, col: 6 }); // q
        assert_eq!(pos[2], Pos { line: 1, col: 7 }); // [
        assert_eq!(pos[6], Pos { line: 2, col: 1 }); // cx
        assert_eq!(pos[7], Pos { line: 2, col: 4 }); // q
    }

    #[test]
    fn error_positions_carry_columns() {
        let err = lex("a;\n  = b").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.col(), 3);
        let err = lex("ok \u{7f}").unwrap_err();
        assert_eq!(err.col(), 4);
    }

    #[test]
    fn lexes_scientific_notation() {
        let src = "1.5e-3 42 .5 2E+2";
        assert_eq!(texts(src), vec!["1.5e-3", "42", ".5", "2E+2"]);
        let values: Vec<f64> = lex(src).unwrap().into_iter().map(|t| t.number(src)).collect();
        assert_eq!(values, vec![1.5e-3, 42.0, 0.5, 200.0]);
    }

    #[test]
    fn lexes_string() {
        let src = "\"qelib1.inc\"";
        assert_eq!(kinds(src), vec![TokenKind::Str]);
        assert_eq!(texts(src), vec!["qelib1.inc"]);
    }

    #[test]
    fn a_token_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Token>(), 8);
    }

    #[test]
    fn rejects_stray_equals() {
        assert!(lex("a = b").is_err());
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"oops").is_err());
    }
}
