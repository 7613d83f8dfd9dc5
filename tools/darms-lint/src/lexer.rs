//! A minimal Rust lexer: the token stream the parser is built on, and
//! the comments waivers are read from.
//!
//! The build environment is hermetic (no crates.io), so `syn` is not
//! available; instead we tokenise source text by hand. The lexer
//! understands comments (kept separately — waivers live there), string
//! and raw-string literals, char vs. lifetime disambiguation, numbers,
//! identifiers and punctuation. The multi-character operators `::`,
//! `=>` and `->` are fused into single tokens because paths and match
//! arms are matched constantly; everything else stays single-character.
//!
//! Every token and comment carries its **byte span** `[lo, hi)` into
//! the source, and its text is the verbatim source slice — so the
//! stream can be reassembled byte-identically (see the
//! `lexer_spans.rs` property test), and string literals reach the AST
//! verbatim (the metric/trace name registry reads their contents).

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    Literal,
    Lifetime,
}

/// A source token: kind, verbatim text, 1-based line number of its
/// first byte, and byte span `[lo, hi)` into the file.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub lo: u32,
    pub hi: u32,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A comment (line or block) with the line it starts on and its byte
/// span. Waiver annotations are parsed out of these.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
    pub lo: u32,
    pub hi: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenise `src`, returning the token stream and the comments.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    // Work over (byte_offset, char) pairs so spans are byte-accurate
    // even with multibyte characters (which appear in doc text).
    let chars: Vec<(usize, char)> = src.char_indices().collect();
    let n = chars.len();
    let total = src.len();
    let at = |i: usize| -> usize {
        if i < n {
            chars[i].0
        } else {
            total
        }
    };
    let mut toks: Vec<Token> = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let push = |toks: &mut Vec<Token>, kind, lo: usize, hi: usize, line, src: &str| {
        toks.push(Token {
            kind,
            text: src[lo..hi].to_string(),
            line,
            lo: lo as u32,
            hi: hi as u32,
        });
    };

    while i < n {
        let c = chars[i].1;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1].1 == '/' {
            let start = i;
            while i < n && chars[i].1 != '\n' {
                i += 1;
            }
            comments.push(Comment {
                line,
                text: src[at(start)..at(i)].to_string(),
                lo: at(start) as u32,
                hi: at(i) as u32,
            });
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && chars[i + 1].1 == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 0usize;
            while i < n {
                if chars[i].1 == '/' && i + 1 < n && chars[i + 1].1 == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i].1 == '*' && i + 1 < n && chars[i + 1].1 == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if chars[i].1 == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            comments.push(Comment {
                line: start_line,
                text: src[at(start)..at(i)].to_string(),
                lo: at(start) as u32,
                hi: at(i) as u32,
            });
            continue;
        }
        // Raw / byte string prefixes: r", r#", br", b"; rb is not a thing.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let mut j = i;
            let mut saw_r = false;
            if chars[j].1 == 'b' {
                j += 1;
            }
            if j < n && chars[j].1 == 'r' {
                saw_r = true;
                j += 1;
            }
            let mut hashes = 0usize;
            while saw_r && j < n && chars[j].1 == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && chars[j].1 == '"' && (saw_r || chars[i].1 == 'b') {
                // Raw or byte string literal.
                let start = i;
                let start_line = line;
                j += 1;
                if saw_r {
                    // Scan for `"` followed by `hashes` hash marks.
                    loop {
                        if j >= n {
                            break;
                        }
                        if chars[j].1 == '\n' {
                            line += 1;
                        }
                        if chars[j].1 == '"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < n && chars[j + 1 + k].1 == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break;
                            }
                        }
                        j += 1;
                    }
                } else {
                    // b"..." with escapes.
                    while j < n {
                        match chars[j].1 {
                            '\\' => j += 2,
                            '"' => {
                                j += 1;
                                break;
                            }
                            ch => {
                                if ch == '\n' {
                                    line += 1;
                                }
                                j += 1;
                            }
                        }
                    }
                }
                push(&mut toks, TokKind::Literal, at(start), at(j), start_line, src);
                i = j;
                continue;
            }
            if chars[i].1 == 'b' && i + 1 < n && chars[i + 1].1 == '\'' {
                // Byte char literal b'x'.
                let start = i;
                let start_line = line;
                let mut j = i + 2;
                while j < n {
                    match chars[j].1 {
                        '\\' => j += 2,
                        '\'' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                push(&mut toks, TokKind::Literal, at(start), at(j), start_line, src);
                i = j;
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        // String literal, verbatim.
        if c == '"' {
            let start = i;
            let start_line = line;
            let mut j = i + 1;
            while j < n {
                match chars[j].1 {
                    '\\' => j += 2,
                    '"' => break,
                    ch => {
                        if ch == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
            }
            push(&mut toks, TokKind::Literal, at(start), at((j + 1).min(n)), start_line, src);
            i = (j + 1).min(n);
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).map(|p| p.1);
            let is_char = match next {
                Some('\\') => true,
                Some(ch) if is_ident_start(ch) => chars.get(i + 2).map(|p| p.1) == Some('\''),
                Some(_) => true,
                None => true,
            };
            if is_char {
                let start = i;
                let mut j = i + 1;
                while j < n {
                    match chars[j].1 {
                        '\\' => j += 2,
                        '\'' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                push(&mut toks, TokKind::Literal, at(start), at(j), line, src);
                i = j;
                continue;
            }
            // Lifetime: 'ident
            let start = i;
            let mut j = i + 1;
            while j < n && is_ident_continue(chars[j].1) {
                j += 1;
            }
            push(&mut toks, TokKind::Lifetime, at(start), at(j), line, src);
            i = j;
            continue;
        }
        // Identifier or keyword (incl. raw idents r#name, caught above
        // only when followed by a quote).
        if is_ident_start(c) {
            let start = i;
            let mut j = i + 1;
            while j < n && is_ident_continue(chars[j].1) {
                j += 1;
            }
            push(&mut toks, TokKind::Ident, at(start), at(j), line, src);
            i = j;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i + 1;
            while j < n {
                let ch = chars[j].1;
                if ch.is_alphanumeric() || ch == '_' {
                    j += 1;
                } else if ch == '.'
                    && chars.get(j + 1).is_some_and(|p| p.1.is_ascii_digit())
                    && chars.get(j.wrapping_sub(1)).is_some_and(|p| p.1.is_ascii_digit())
                {
                    // Decimal point, not a range (`0..n`) or method call.
                    j += 1;
                } else {
                    break;
                }
            }
            push(&mut toks, TokKind::Literal, at(start), at(j), line, src);
            i = j;
            continue;
        }
        // Punctuation; fuse `::`, `=>`, `->`.
        let start = i;
        if i + 1 < n {
            let two: String = [chars[i].1, chars[i + 1].1].iter().collect();
            if two == "::" || two == "=>" || two == "->" {
                push(&mut toks, TokKind::Punct, at(start), at(i + 2), line, src);
                i += 2;
                continue;
            }
        }
        push(&mut toks, TokKind::Punct, at(start), at(i + 1), line, src);
        i += 1;
    }

    (toks, comments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let (t, c) = lex("let x = a::b.now(); // hi");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "a", "::", "b", ".", "now", "(", ")", ";"]);
        assert_eq!(c.len(), 1);
        assert!(c[0].text.contains("hi"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let (t, _) = lex("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; }");
        let lifetimes: Vec<&str> =
            t.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text.as_str()).collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let lits = t.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(lits, 2);
    }

    #[test]
    fn raw_strings_and_lines() {
        let (t, _) = lex("let s = r#\"a \" b\"#;\nlet u = 1;");
        let one = t.iter().find(|t| t.text == "u").unwrap();
        assert_eq!(one.line, 2);
        let raw = t.iter().find(|t| t.kind == TokKind::Literal).unwrap();
        assert_eq!(raw.text, "r#\"a \" b\"#");
        let lit = crate::ast::LitExpr { text: raw.text.clone(), line: 1 };
        assert_eq!(lit.str_content(), Some("a \" b"));
    }

    #[test]
    fn block_comment_lines() {
        let (t, c) = lex("/* a\nb */ fn g() {}");
        assert_eq!(c.len(), 1);
        assert_eq!(t[0].text, "fn");
        assert_eq!(t[0].line, 2);
    }

    #[test]
    fn spans_are_verbatim_slices() {
        let src = "fn f() { let s = \"metric.name\"; s.len() }";
        let (t, _) = lex(src);
        for tok in &t {
            assert_eq!(&src[tok.lo as usize..tok.hi as usize], tok.text);
        }
        let lit = t.iter().find(|t| t.kind == TokKind::Literal).unwrap();
        let lit = crate::ast::LitExpr { text: lit.text.clone(), line: 1 };
        assert_eq!(lit.str_content(), Some("metric.name"));
    }

    #[test]
    fn multibyte_spans_stay_byte_accurate() {
        let src = "let ok = \"héllo — ✓\"; let n = 1;";
        let (t, _) = lex(src);
        for tok in &t {
            assert_eq!(&src[tok.lo as usize..tok.hi as usize], tok.text);
        }
    }
}
