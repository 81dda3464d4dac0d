//! A handwritten Rust lexer — the foundation every lint stands on.
//!
//! The lints in this crate are lexical: they look for token shapes like
//! `unsafe`, `Ordering :: SeqCst` or `. unwrap (`. Doing that with plain
//! substring search would misfire constantly — `"unsafe"` inside a string
//! literal, `unwrap` inside a doc comment, `Ordering::Relaxed` quoted in a
//! rustdoc example. So this module tokenizes real Rust source just deeply
//! enough to be trustworthy:
//!
//! - line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`) are captured as [`Comment`]s, not tokens;
//! - string literals, byte strings, raw strings (`r#"…"#` with any number
//!   of hashes) and char literals are consumed as single [`TokenKind::Str`]
//!   tokens, so their contents can never look like code;
//! - lifetimes (`'a`, `'static`) are distinguished from char literals
//!   (`'a'`, `'\n'`) by one-token lookahead;
//! - raw identifiers (`r#type`) are identifiers, not raw strings.
//!
//! No `syn`, no proc-macro machinery: consistent with the workspace's
//! offline `third_party/` policy, the lexer is ~200 lines of `match`.

/// What a token is, to the depth the lints care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `Ordering`, `unwrap`, …).
    /// Raw identifiers are stored without the `r#` prefix.
    Ident(String),
    /// A single punctuation character (`.`, `:`, `!`, `[`, `{`, …).
    /// Multi-character operators are emitted as individual characters.
    Punct(char),
    /// Any string, byte-string, raw-string or char literal, fully consumed.
    Str,
    /// A numeric literal (`1_000`, `0x5EED`, `1.05e-3`, `4f64`).
    Number,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: usize,
    /// The token's classification.
    pub kind: TokenKind,
}

/// One comment (line or block) with the lines it covers.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// 1-based line the comment ends on (equal to `line` for line comments).
    pub end_line: usize,
    /// Full comment text including the `//`/`/*` markers.
    pub text: String,
}

/// A tokenized source file: code tokens plus the comment sidecar.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Tokenizes `src`, splitting code tokens from comments.
///
/// The lexer is forgiving: malformed input (an unterminated string, a stray
/// byte) never panics, it just degrades into punctuation tokens. Lints must
/// stay usable on work-in-progress source.
pub fn lex(src: &str) -> LexedFile {
    let b = src.as_bytes();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line = 1usize;

    macro_rules! count_lines {
        ($range_start:expr, $range_end:expr) => {
            line += b[$range_start..$range_end]
                .iter()
                .filter(|&&c| c == b'\n')
                .count()
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                });
            }
            b'"' => {
                let start_line = line;
                let start = i;
                i = skip_string(b, i);
                count_lines!(start, i.min(b.len()));
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Str,
                });
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`): a tick
                // followed by an identifier run that is NOT closed by
                // another tick is a lifetime.
                let mut j = i + 1;
                if j < b.len() && is_ident_start(b[j]) {
                    while j < b.len() && is_ident_char(b[j]) {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'\'' && j == i + 2 {
                        // 'a' — a one-character char literal.
                        out.tokens.push(Token {
                            line,
                            kind: TokenKind::Str,
                        });
                        i = j + 1;
                    } else {
                        out.tokens.push(Token {
                            line,
                            kind: TokenKind::Lifetime,
                        });
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: '\n', '\'', '{'.
                    let start = i;
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'\'' {
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                    count_lines!(start, i.min(b.len()));
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Str,
                    });
                }
            }
            b'r' | b'b' if starts_raw_or_byte_literal(b, i) => {
                let start_line = line;
                let start = i;
                i = skip_raw_or_byte_literal(b, i);
                count_lines!(start, i.min(b.len()));
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Str,
                });
            }
            b'r' if i + 1 < b.len()
                && b[i + 1] == b'#'
                && i + 2 < b.len()
                && is_ident_start(b[i + 2]) =>
            {
                // Raw identifier r#type.
                let mut j = i + 2;
                while j < b.len() && is_ident_char(b[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Ident(String::from_utf8_lossy(&b[i + 2..j]).into_owned()),
                });
                i = j;
            }
            c if is_ident_start(c) => {
                let mut j = i + 1;
                while j < b.len() && is_ident_char(b[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Ident(String::from_utf8_lossy(&b[i..j]).into_owned()),
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                let hex =
                    i < b.len() && (b[i] == b'x' || b[i] == b'b' || b[i] == b'o') && c == b'0';
                while i < b.len() {
                    let d = b[i];
                    // Identifier characters, a decimal point before a
                    // digit, or an exponent sign (`1e-3`, not in hex).
                    if is_ident_char(d)
                        || (d == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit())
                        || ((d == b'+' || d == b'-')
                            && !hex
                            && matches!(b[i - 1], b'e' | b'E')
                            && i + 1 < b.len()
                            && b[i + 1].is_ascii_digit())
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let _ = start;
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Number,
                });
            }
            other => {
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Punct(other as char),
                });
                i += 1;
            }
        }
    }
    out
}

/// Consumes a `"…"` string starting at `i` (the opening quote); returns the
/// index just past the closing quote.
fn skip_string(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Does the source at `i` start a raw string (`r"`, `r#"`), byte string
/// (`b"`), byte char (`b'`) or raw byte string (`br"`, `br#"`)?
fn starts_raw_or_byte_literal(b: &[u8], i: usize) -> bool {
    let rest = &b[i..];
    if rest.starts_with(b"r\"") || rest.starts_with(b"b\"") || rest.starts_with(b"b'") {
        return true;
    }
    if rest.starts_with(b"br") || rest.starts_with(b"r#") {
        // r#… is a raw string only when hashes lead to a quote (else raw ident).
        let mut j = i + if rest.starts_with(b"br") { 2 } else { 1 };
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
        return j < b.len() && b[j] == b'"' && j > i + 1;
    }
    false
}

/// Consumes the raw/byte literal starting at `i`; returns the index just
/// past its end.
fn skip_raw_or_byte_literal(b: &[u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'\'' {
        // b'x' byte char: same shape as a char literal.
        j += 1;
        while j < b.len() {
            match b[j] {
                b'\\' => j += 2,
                b'\'' => return j + 1,
                _ => j += 1,
            }
        }
        return j;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < b.len() && b[j] == b'"' {
        if hashes == 0 && b[i] != b'r' && !(b[i] == b'b' && i + 1 < b.len() && b[i + 1] == b'r') {
            // Plain b"…": escapes are live.
            return skip_string(b, j);
        }
        // Raw string: ends at `"` followed by `hashes` hash marks, no escapes.
        j += 1;
        while j < b.len() {
            if b[j] == b'"'
                && b.len() - j > hashes
                && b[j + 1..j + 1 + hashes].iter().all(|&h| h == b'#')
            {
                return j + 1 + hashes;
            }
            j += 1;
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r##"
            // unsafe in a comment
            /* unwrap() in /* a nested */ block comment */
            let a = "unsafe { Ordering::SeqCst }";
            let b = r#"panic!("no")"#;
            let c = 'x';
            let d: &'static str = "ok";
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "unsafe"));
        assert!(!ids.iter().any(|s| s == "unwrap"));
        assert!(!ids.iter().any(|s| s == "panic"));
        assert!(ids.iter().any(|s| s == "let"));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Lifetime));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn raw_identifiers_are_idents() {
        assert!(idents("let r#type = 1;").iter().any(|s| s == "type"));
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        let lexed = lex("for i in 0..n { let x = 1.05f64.ln(); let h = 0x5EED; }");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "ln")));
        let dots = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct('.'))
            .count();
        assert_eq!(dots, 3); // `..` range plus the method dot
    }

    #[test]
    fn token_lines_are_accurate() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<usize> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn multiline_raw_string_advances_lines() {
        let lexed = lex("let x = r#\"line\nline\nline\"#;\nlet y = 2;");
        let y_line = lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "y"))
            .map(|t| t.line);
        assert_eq!(y_line, Some(4));
    }
}
