//! Waiver annotations: `// darms-lint: allow(<rule>, reason = "...")`.
//!
//! A waiver suppresses findings of the named rule on the waiver's own
//! line (trailing comment) or across the *full span* of the statement,
//! match arm, or item that starts on the next source line — so a
//! waiver above a multi-line call covers every line of that call, not
//! just its first. The `reason` is mandatory and must be non-empty; a
//! malformed waiver is itself a finding (rule `waiver`) and suppresses
//! nothing.

use crate::ast::{self, SourceFile};
use crate::diag::Diagnostic;
use crate::lexer::{Comment, Token};

/// Rules that may be waived.
pub const KNOWN_RULES: &[&str] = &[
    "nondet",
    "unordered-iter",
    "guard-across-await",
    "async-livelock",
    "proto-unhandled",
    "proto-wildcard",
    "proto-flow",
    "nondet-taint",
    "name-registry",
    "dead-api",
];

#[derive(Debug, Clone)]
pub struct Waiver {
    pub file: String,
    pub line: u32,
    /// Last line the waiver covers: through the end of the construct
    /// that starts on the next source line.
    pub end: u32,
    pub rule: String,
    pub reason: String,
}

/// Parse the waivers in one file from its comments. Malformed waivers
/// come back as diagnostics instead.
pub fn parse(
    rel: &str,
    comments: &[Comment],
    tokens: &[Token],
    ast: &SourceFile,
) -> (Vec<Waiver>, Vec<Diagnostic>) {
    let mut waivers = Vec::new();
    let mut diags = Vec::new();
    let mut spans = None;
    for c in comments {
        // Waivers live in plain comments only; doc comments (`///`,
        // `//!`, `/**`, `/*!`) merely *talk about* the syntax.
        let body = c.text.trim_start_matches('/').trim_start_matches('*');
        if body.starts_with('!') || c.text.starts_with("///") || c.text.starts_with("/**") {
            continue;
        }
        let Some(pos) = c.text.find("darms-lint:") else { continue };
        let rest = c.text[pos + "darms-lint:".len()..].trim();
        let bad = |msg: &str| Diagnostic::new(rel, c.line, "waiver", msg.to_string());
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.rfind(')').map(|e| &r[..e]))
        else {
            diags.push(bad("malformed waiver: expected `allow(<rule>, reason = \"...\")`"));
            continue;
        };
        let (rule, reason_part) = match inner.split_once(',') {
            Some((r, rest)) => (r.trim(), Some(rest.trim())),
            None => (inner.trim(), None),
        };
        if !KNOWN_RULES.contains(&rule) {
            diags.push(bad(&format!(
                "waiver names unknown rule `{rule}` (known: {})",
                KNOWN_RULES.join(", ")
            )));
            continue;
        }
        let reason = reason_part
            .and_then(|r| r.strip_prefix("reason"))
            .map(|r| r.trim_start())
            .and_then(|r| r.strip_prefix('='))
            .map(|r| r.trim())
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.strip_suffix('"'))
            .map(|r| r.trim().to_string());
        match reason {
            Some(r) if !r.is_empty() => {
                let spans = spans.get_or_insert_with(|| ast::coverable_spans(ast));
                waivers.push(Waiver {
                    file: rel.to_string(),
                    line: c.line,
                    end: covered_end(tokens, spans, c.line),
                    rule: rule.to_string(),
                    reason: r,
                });
            }
            _ => diags.push(bad(&format!(
                "waiver for `{rule}` is missing a non-empty `reason = \"...\"`"
            ))),
        }
    }
    (waivers, diags)
}

/// The last line a waiver at `line` covers: its own line (trailing
/// comment) through the end of the statement / match arm / item that
/// starts on the next source line. Falls back to just the next token
/// line when no parsed span starts there (e.g. a waiver above a
/// mid-expression continuation line).
fn covered_end(tokens: &[Token], spans: &[(u32, u32)], line: u32) -> u32 {
    let next = tokens.iter().map(|t| t.line).find(|&l| l > line).unwrap_or(line);
    // The *outermost* coverable construct starting on `next`: the one
    // with the greatest end line.
    let end = spans.iter().filter(|(lo, _)| *lo == next).map(|(_, hi)| *hi).max().unwrap_or(next);
    end.max(next)
}

/// Drop findings covered by a waiver. `waiver`-rule findings are never
/// suppressed.
pub fn apply(findings: Vec<Diagnostic>, waivers: &[Waiver]) -> Vec<Diagnostic> {
    findings
        .into_iter()
        .filter(|d| {
            d.rule == "waiver"
                || !waivers.iter().any(|w| {
                    w.file == d.file && w.rule == d.rule && (w.line..=w.end).contains(&d.line)
                })
        })
        .collect()
}
