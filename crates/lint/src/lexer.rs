//! A lossless, dependency-free Rust lexer.
//!
//! The rule engine ([`crate::rules`]) works on token streams, never on raw
//! text, so the lexer's one job is to classify every byte of a source file
//! correctly enough that *code* tokens are never confused with *non-code*
//! bytes. The cases that matter for a linter (a `thread_rng` inside a string
//! must not fire a rule; an allow-comment inside a raw string must not
//! suppress one):
//!
//! * strings with escapes (`"a \" // not a comment"`), byte strings,
//!   raw strings with any number of `#` guards (`r##"…"##`);
//! * char literals vs lifetimes (`'a'` vs `'a`), including escaped chars
//!   (`'\''`, `'\u{1F600}'`) and raw identifiers (`r#type`);
//! * line comments, doc comments, and **nested** block comments;
//! * numeric literals including floats with exponents and type suffixes.
//!
//! Tokens carry byte spans plus 1-based line/column positions (columns are
//! byte offsets within the line; all code identifiers in this workspace are
//! ASCII, so byte columns equal display columns everywhere a diagnostic can
//! point). Whitespace is dropped; comments are kept as tokens because the
//! suppression and hot-path marker syntax lives in them.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `thread_rng`, `r#type`).
    Ident,
    /// Lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// Character literal such as `'a'` or `'\n'`, including byte chars `b'x'`.
    CharLit,
    /// String literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    StrLit,
    /// Numeric literal, including float forms (`1_000`, `0x7f`, `2.5e-3f64`).
    NumLit,
    /// Line comment, including doc forms (`//`, `///`, `//!`).
    LineComment,
    /// Block comment, including doc forms and nesting (`/* /* */ */`).
    BlockComment,
    /// Any single punctuation byte (`.`, `:`, `{`, `&`, …).
    Punct,
    /// Bytes the lexer does not model (stray non-ASCII outside comments).
    Unknown,
}

/// One token: kind plus its byte span and 1-based start position.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte within its line.
    pub col: u32,
}

/// A lexed file: the source plus its token stream.
pub struct Lexed<'a> {
    /// The original source text.
    pub src: &'a str,
    /// All tokens in order (whitespace dropped, comments kept).
    pub tokens: Vec<Token>,
}

impl Lexed<'_> {
    /// The source text of `tok`.
    pub fn text(&self, tok: &Token) -> &str {
        &self.src[tok.start..tok.end]
    }

    /// 1-based line of the *last* byte of `tok` (differs from `tok.line` for
    /// multi-line tokens such as block comments).
    pub fn end_line(&self, tok: &Token) -> u32 {
        let newlines = self.src[tok.start..tok.end]
            .bytes()
            .filter(|&b| b == b'\n')
            .count();
        tok.line + newlines as u32
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scans a `"…"`-delimited string body starting at the opening quote;
/// returns the offset one past the closing quote (or `len` if unterminated).
fn scan_quoted(bytes: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Scans a raw string whose `r` sits at `r_at` (hashes follow); returns
/// `Some(end)` if the bytes really are a raw string, `None` otherwise
/// (e.g. a raw identifier `r#type` or a plain identifier starting with `r`).
fn scan_raw_string(bytes: &[u8], r_at: usize) -> Option<usize> {
    let mut i = r_at + 1;
    let mut hashes = 0usize;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= bytes.len() || bytes[i] != b'"' {
        return None;
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < bytes.len() && seen < hashes && bytes[j] == b'#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some(j);
            }
        }
        i += 1;
    }
    Some(bytes.len())
}

/// Scans a char literal whose opening `'` sits at `q`; returns the offset one
/// past the closing quote. Assumes the caller already ruled out a lifetime.
fn scan_char_lit(bytes: &[u8], q: usize) -> usize {
    let mut i = q + 1;
    if i < bytes.len() && bytes[i] == b'\\' {
        i += 2; // the escape head: \n, \', \u, …
        if i <= bytes.len() && bytes.get(i.wrapping_sub(1)) == Some(&b'u') {
            // \u{…}: consume through the closing brace.
            while i < bytes.len() && bytes[i] != b'}' {
                i += 1;
            }
            i += 1;
        }
    } else {
        // One (possibly multi-byte) character.
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
    }
    // Closing quote.
    while i < bytes.len() && bytes[i] != b'\'' {
        i += 1;
    }
    (i + 1).min(bytes.len())
}

/// Scans a numeric literal starting at `d` (an ASCII digit); returns the end.
fn scan_number(bytes: &[u8], d: usize) -> usize {
    let n = bytes.len();
    let mut i = d;
    if bytes[i] == b'0' && i + 1 < n && matches!(bytes[i + 1], b'x' | b'o' | b'b') {
        i += 2;
        while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        return i;
    }
    while i < n && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
        i += 1;
    }
    // Fraction — but never swallow `..` (range) or `.method()`.
    if i + 1 < n && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
        i += 1;
        while i < n && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
            i += 1;
        }
    }
    // Exponent.
    if i < n && matches!(bytes[i], b'e' | b'E') {
        let mut j = i + 1;
        if j < n && matches!(bytes[j], b'+' | b'-') {
            j += 1;
        }
        if j < n && bytes[j].is_ascii_digit() {
            i = j;
            while i < n && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (`f64`, `u32`, `usize`).
    while i < n && is_ident_continue(bytes[i]) {
        i += 1;
    }
    i
}

/// Lexes `src` into a lossless-enough token stream for the rule engine.
pub fn lex(src: &str) -> Lexed<'_> {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_start = 0usize;

    while i < n {
        let start = i;
        let b = bytes[i];
        let (kind, end) = match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                let mut j = i;
                while j < n && matches!(bytes[j], b' ' | b'\t' | b'\r' | b'\n') {
                    j += 1;
                }
                (None, j)
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let mut j = i + 2;
                while j < n && bytes[j] != b'\n' {
                    j += 1;
                }
                (Some(TokenKind::LineComment), j)
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                (Some(TokenKind::BlockComment), j)
            }
            b'"' => (Some(TokenKind::StrLit), scan_quoted(bytes, i)),
            b'r' => match scan_raw_string(bytes, i) {
                Some(end) => (Some(TokenKind::StrLit), end),
                None => {
                    // Raw identifier `r#name` or a plain ident starting with r.
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&b'#') {
                        j += 1;
                    }
                    while j < n && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    (Some(TokenKind::Ident), j)
                }
            },
            b'b' => {
                if bytes.get(i + 1) == Some(&b'"') {
                    (Some(TokenKind::StrLit), scan_quoted(bytes, i + 1))
                } else if bytes.get(i + 1) == Some(&b'\'') {
                    (Some(TokenKind::CharLit), scan_char_lit(bytes, i + 1))
                } else if bytes.get(i + 1) == Some(&b'r') {
                    match scan_raw_string(bytes, i + 1) {
                        Some(end) => (Some(TokenKind::StrLit), end),
                        None => {
                            let mut j = i + 1;
                            while j < n && is_ident_continue(bytes[j]) {
                                j += 1;
                            }
                            (Some(TokenKind::Ident), j)
                        }
                    }
                } else {
                    let mut j = i + 1;
                    while j < n && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    (Some(TokenKind::Ident), j)
                }
            }
            b'\'' => {
                // Lifetime vs char literal: `'ident` not followed by a closing
                // quote is a lifetime; everything else is a char literal.
                match bytes.get(i + 1) {
                    Some(&c) if is_ident_start(c) => {
                        let mut j = i + 2;
                        while j < n && is_ident_continue(bytes[j]) {
                            j += 1;
                        }
                        if bytes.get(j) == Some(&b'\'') {
                            (Some(TokenKind::CharLit), j + 1)
                        } else {
                            (Some(TokenKind::Lifetime), j)
                        }
                    }
                    Some(_) => (Some(TokenKind::CharLit), scan_char_lit(bytes, i)),
                    None => (Some(TokenKind::Unknown), n),
                }
            }
            b'0'..=b'9' => (Some(TokenKind::NumLit), scan_number(bytes, i)),
            _ if is_ident_start(b) => {
                let mut j = i + 1;
                while j < n && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                (Some(TokenKind::Ident), j)
            }
            _ if b.is_ascii() => (Some(TokenKind::Punct), i + 1),
            _ => {
                // Whole UTF-8 character, so spans never split a code point.
                let ch_len = src[i..].chars().next().map_or(1, char::len_utf8);
                (Some(TokenKind::Unknown), i + ch_len)
            }
        };

        if let Some(kind) = kind {
            tokens.push(Token {
                kind,
                start,
                end,
                line,
                col: (start - line_start + 1) as u32,
            });
        }
        // Advance line accounting over everything just consumed.
        for (off, &c) in bytes[start..end].iter().enumerate() {
            if c == b'\n' {
                line += 1;
                line_start = start + off + 1;
            }
        }
        debug_assert!(end > start, "lexer must always make progress");
        i = end;
    }

    Lexed { src, tokens }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        let lexed = lex(src);
        lexed
            .tokens
            .iter()
            .map(|t| (t.kind, lexed.text(t).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn main() {}");
        assert_eq!(toks[0], (TokenKind::Ident, "fn".into()));
        assert_eq!(toks[1], (TokenKind::Ident, "main".into()));
        assert_eq!(toks[2].0, TokenKind::Punct);
    }

    #[test]
    fn string_hides_comment_and_escaped_quote() {
        let toks = kinds(r#"let s = "a \" // not a comment"; next"#);
        let strs: Vec<_> = toks.iter().filter(|t| t.0 == TokenKind::StrLit).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].1, r#""a \" // not a comment""#);
        assert!(toks.iter().any(|t| t.1 == "next"));
        assert!(!toks.iter().any(|t| t.0 == TokenKind::LineComment));
    }

    #[test]
    fn raw_strings_with_hash_guards() {
        let toks = kinds(r###"let s = r#"inner " quote // still string"#; done"###);
        let strs: Vec<_> = toks.iter().filter(|t| t.0 == TokenKind::StrLit).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.starts_with("r#\""));
        assert!(strs[0].1.ends_with("\"#"));
        assert!(toks.iter().any(|t| t.1 == "done"));
        // Two guards.
        let toks = kinds("r##\"a\"# b\"## tail");
        assert_eq!(toks[0].0, TokenKind::StrLit);
        assert_eq!(toks[0].1, "r##\"a\"# b\"##");
        assert_eq!(toks[1].1, "tail");
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r##"let a = b"bytes"; let c = b'x'; let r = br#"raw"#;"##);
        assert!(toks
            .iter()
            .any(|t| t.0 == TokenKind::StrLit && t.1 == "b\"bytes\""));
        assert!(toks
            .iter()
            .any(|t| t.0 == TokenKind::CharLit && t.1 == "b'x'"));
        assert!(toks
            .iter()
            .any(|t| t.0 == TokenKind::StrLit && t.1 == "br#\"raw\"#"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("before /* outer /* inner */ still outer */ after");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].1, "before");
        assert_eq!(toks[1].0, TokenKind::BlockComment);
        assert_eq!(toks[1].1, "/* outer /* inner */ still outer */");
        assert_eq!(toks[2].1, "after");
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks =
            kinds("fn f<'a>(x: &'a str) -> char { let c = 'a'; let s = 'static_is_fine; c }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokenKind::Lifetime)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a", "'static_is_fine"]);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokenKind::CharLit)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(chars, ["'a'"]);
    }

    #[test]
    fn escaped_char_literals() {
        let toks = kinds(r"let q = '\''; let n = '\n'; let u = '\u{1F600}'; tail");
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokenKind::CharLit)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(chars, [r"'\''", r"'\n'", r"'\u{1F600}'"]);
        assert!(toks.iter().any(|t| t.1 == "tail"));
    }

    #[test]
    fn raw_identifier_is_ident_not_string() {
        let toks = kinds("let r#type = 1; record");
        assert!(toks
            .iter()
            .any(|t| t.0 == TokenKind::Ident && t.1 == "r#type"));
        assert!(toks
            .iter()
            .any(|t| t.0 == TokenKind::Ident && t.1 == "record"));
    }

    #[test]
    fn numbers() {
        let toks = kinds("let x = 1_000; let y = 2.5e-3f64; let h = 0x7f; let r = 1..10;");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokenKind::NumLit)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(nums, ["1_000", "2.5e-3f64", "0x7f", "1", "10"]);
    }

    #[test]
    fn line_and_column_positions() {
        let lexed = lex("ab\n  cd /* x\ny */ ef\n");
        let t: Vec<_> = lexed
            .tokens
            .iter()
            .map(|t| (lexed.text(t).to_string(), t.line, t.col))
            .collect();
        assert_eq!(t[0], ("ab".into(), 1, 1));
        assert_eq!(t[1], ("cd".into(), 2, 3));
        assert_eq!(t[2].1, 2); // block comment starts on line 2
        assert_eq!(t[3], ("ef".into(), 3, 6));
        // The block comment spans onto line 3.
        assert_eq!(lexed.end_line(&lexed.tokens[2]), 3);
    }

    #[test]
    fn doc_comments_are_comments() {
        let toks = kinds("//! inner doc\n/// outer doc\n/** block doc */ fn f() {}");
        assert_eq!(toks[0].0, TokenKind::LineComment);
        assert_eq!(toks[1].0, TokenKind::LineComment);
        assert_eq!(toks[2].0, TokenKind::BlockComment);
        assert_eq!(toks[3].1, "fn");
    }

    #[test]
    fn unterminated_forms_do_not_loop() {
        for src in ["\"abc", "r#\"abc", "/* never closed", "'x", "b\"oops"] {
            let lexed = lex(src);
            assert!(!lexed.tokens.is_empty());
        }
    }

    #[test]
    fn non_ascii_is_unknown_only_outside_literals_and_comments() {
        let toks = kinds("let s = \"héllo\"; // ünïcode\n/* ✓ */");
        assert!(toks.iter().all(|t| t.0 != TokenKind::Unknown), "{toks:?}");
        let toks = kinds("let é = 1;");
        assert!(toks.iter().any(|t| t.0 == TokenKind::Unknown), "{toks:?}");
        assert!(lex("").tokens.is_empty());
        assert!(lex(" \t\n\r\n").tokens.is_empty());
    }
}
