//! Rules `proto-unhandled` / `proto-wildcard`: protocol exhaustiveness.
//!
//! For each configured protocol message enum we require every variant
//! to appear in at least one non-wildcard match arm somewhere in the
//! workspace (`proto-unhandled`), and we flag `_ =>` arms inside
//! protocol dispatches (`proto-wildcard`) — a wildcard there silently
//! swallows newly added message kinds. Enums come from the shared
//! declaration index (`graph::enum_decls`); an arm covers every
//! `A::B` segment pair of the paths in its pattern and guard.
//!
//! Mailbox *filter* matches (`match e.peek::<M>() { ... _ => false }`
//! inside `recv_where` predicates) are exempt from the wildcard rule:
//! unmatched messages stay queued for other handlers, so the wildcard
//! is the filter's semantics, not a hole.

use std::collections::BTreeSet;

use crate::ast::{self, Arm, Expr, MatchExpr, Node, Pat};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph;
use crate::FileData;

/// Every consecutive `A::B` segment pair of the paths in an arm's
/// pattern and guard.
fn arm_pairs(arm: &Arm) -> Vec<(&str, &str)> {
    let mut paths: Vec<&[String]> = Vec::new();
    arm.pat.for_each(&mut |p| match p {
        Pat::Path { segments, .. }
        | Pat::TupleStruct { segments, .. }
        | Pat::Struct { segments, .. } => paths.push(segments),
        _ => {}
    });
    if let Some(g) = &arm.guard {
        g.for_each(&mut |e| match e {
            Expr::Path(p) => paths.push(&p.segments),
            Expr::StructLit(s) => paths.push(&s.path.segments),
            Expr::Macro(m) => paths.push(&m.path),
            _ => {}
        });
    }
    paths.iter().flat_map(|segs| segs.windows(2).map(|w| (w[0].as_str(), w[1].as_str()))).collect()
}

/// Does the scrutinee read a mailbox through `peek` / `try_recv_where`?
fn is_filter(m: &MatchExpr) -> bool {
    let filter = |s: &str| s == "peek" || s == "try_recv_where";
    let mut hit = false;
    m.scrutinee.for_each(&mut |e| match e {
        Expr::MethodCall(c) => hit |= filter(&c.method),
        Expr::Field(_, name, _) => hit |= filter(name),
        Expr::Path(p) => hit |= p.segments.iter().any(|s| filter(s)),
        _ => {}
    });
    hit
}

pub fn check(cfg: &Config, files: &[FileData]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut enums = graph::enum_decls(cfg, files);
    enums.retain(|e| e.spec.exhaustive);
    if enums.is_empty() {
        return out;
    }
    let enum_names: BTreeSet<&str> = enums.iter().map(|e| e.spec.name.as_str()).collect();

    let mut matches: Vec<(&str, &MatchExpr)> = Vec::new();
    for f in files {
        ast::walk_file(&f.ast, &mut |n| {
            if let Node::Expr(Expr::Match(m)) = n {
                matches.push((&f.rel, m));
            }
        });
    }

    // Variant coverage: every variant needs a non-wildcard arm pattern
    // mentioning `Enum::Variant` somewhere.
    let covered: BTreeSet<(&str, &str)> =
        matches.iter().flat_map(|(_, m)| &m.arms).flat_map(arm_pairs).collect();
    for e in &enums {
        for (v, _) in e.variants {
            if !covered.contains(&(e.spec.name.as_str(), v.as_str())) {
                out.push(Diagnostic::new(
                    &e.spec.file,
                    e.line,
                    "proto-unhandled",
                    format!(
                        "protocol variant `{}::{}` has no non-wildcard match arm in any handler",
                        e.spec.name, v
                    ),
                ));
            }
        }
    }

    // Wildcard arms inside protocol dispatches.
    for &(file, m) in &matches {
        let is_dispatch =
            m.arms.iter().any(|a| arm_pairs(a).iter().any(|(e, _)| enum_names.contains(e)));
        if !is_dispatch || is_filter(m) {
            continue;
        }
        for arm in m.arms.iter().filter(|a| a.pat.is_bare_wild() && a.guard.is_none()) {
            out.push(Diagnostic::new(
                file,
                arm.line,
                "proto-wildcard",
                "wildcard `_ =>` arm in a protocol dispatch swallows new message kinds",
            ));
        }
    }
    out
}
