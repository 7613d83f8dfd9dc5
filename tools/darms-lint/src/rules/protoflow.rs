//! Rule `proto-flow`: workspace-wide message-flow analysis on the
//! control-plane graph (see `crate::graph`).
//!
//! Three checks:
//!
//! - **orphan send** — a flow-enum variant is constructed somewhere
//!   but no pattern anywhere handles it: the message would be sent and
//!   silently dropped (or crash a `match` at runtime under a wildcard).
//!   Reported at every send site.
//! - **dead handler** — a variant has handlers but no construction
//!   site: protocol surface that nothing exercises, which usually
//!   means a send was deleted without its handler (or a variant was
//!   renamed on one side). Reported at every handler site.
//! - **unfenced retriable handler** — a `match` over a retriable
//!   request enum inside a function that never references an
//!   idempotency fence (`seen` reply cache, token, incarnation): a
//!   retried request would re-execute its side effects. Structural
//!   check on the enclosing fn body.
//!
//! Variants with *neither* sends nor handlers are reported once at the
//! declaration site.

use std::collections::BTreeSet;

use crate::ast::{self, Expr};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph;
use crate::FileData;

pub fn check(cfg: &Config, files: &[FileData]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let g = graph::build(cfg, files);
    for n in &g.nodes {
        let label = format!("{}::{}", n.enum_name, n.variant);
        if n.sends.is_empty() && n.handlers.is_empty() {
            out.push(Diagnostic::new(
                &n.decl.file,
                n.decl.line,
                "proto-flow",
                format!("variant `{label}` has no send site and no handler in the workspace"),
            ));
            continue;
        }
        if n.handlers.is_empty() {
            for s in &n.sends {
                out.push(Diagnostic::new(
                    &s.file,
                    s.line,
                    "proto-flow",
                    format!("orphan send: `{label}` is constructed here but no handler matches it anywhere"),
                ));
            }
        }
        if n.sends.is_empty() {
            for h in &n.handlers {
                out.push(Diagnostic::new(
                    &h.file,
                    h.line,
                    "proto-flow",
                    format!("dead handler: `{label}` is matched here but never constructed"),
                ));
            }
        }
    }
    check_fences(cfg, files, &mut out);
    out
}

/// Retriable-request handlers must consult an idempotency fence.
fn check_fences(cfg: &Config, files: &[FileData], out: &mut Vec<Diagnostic>) {
    let retriable: BTreeSet<&str> =
        cfg.proto_enums.iter().filter(|e| e.flow && e.retriable).map(|e| e.name.as_str()).collect();
    if retriable.is_empty() {
        return;
    }
    for f in files {
        ast::for_each_fn(&f.ast, &mut |fi, test_only| {
            if test_only || f.in_tests_tree() {
                return;
            }
            let Some(body) = &fi.body else { return };
            // Find handler matches: a match with >= 2 arms destructuring
            // a retriable enum. (Single-arm matches / if-lets are
            // projections, not dispatch.)
            let mut handler_matches: Vec<(u32, String)> = Vec::new();
            body.for_each_expr(&mut |e| {
                let Expr::Match(m) = e else { return };
                let mut hit_enum = None;
                let mut arm_hits = 0usize;
                for arm in &m.arms {
                    let pairs = arm.pat.enum_pairs();
                    if pairs.iter().any(|(en, _, _)| retriable.contains(en.as_str())) {
                        arm_hits += 1;
                        if hit_enum.is_none() {
                            hit_enum = pairs
                                .iter()
                                .find(|(en, _, _)| retriable.contains(en.as_str()))
                                .map(|(en, _, _)| en.clone());
                        }
                    }
                }
                if arm_hits >= 2 {
                    if let Some(en) = hit_enum {
                        handler_matches.push((m.line, en));
                    }
                }
            });
            if handler_matches.is_empty() {
                return;
            }
            if fn_mentions_fence(fi, &cfg.fence_idents) {
                return;
            }
            for (line, en) in handler_matches {
                out.push(Diagnostic::new(
                    &f.rel,
                    line,
                    "proto-flow",
                    format!(
                        "handler match on retriable `{en}` in fn `{}` never consults an \
                         idempotency fence (reply cache / token / incarnation)",
                        fi.name
                    ),
                ));
            }
        });
    }
}

/// Does any identifier in the fn (params, bindings, paths, fields,
/// methods, struct fields) contain a fence identifier as a substring?
fn fn_mentions_fence(fi: &ast::FnItem, fences: &[String]) -> bool {
    let hit = |s: &str| fences.iter().any(|f| s.contains(f.as_str()));
    for p in &fi.params {
        if p.pat.bound_names().iter().any(|n| hit(n)) {
            return true;
        }
    }
    let Some(body) = &fi.body else { return false };
    let mut found = false;
    body.for_each_expr(&mut |e| {
        if found {
            return;
        }
        match e {
            Expr::Path(p) => found = p.segments.iter().any(|s| hit(s)),
            Expr::Field(_, name, _) => found = hit(name),
            Expr::MethodCall(m) => found = hit(&m.method),
            Expr::StructLit(s) => found = s.fields.iter().any(|(n, _)| hit(n)),
            Expr::Match(m) => {
                for arm in &m.arms {
                    if arm.pat.bound_names().iter().any(|n| hit(n)) {
                        found = true;
                    }
                }
            }
            _ => {}
        }
    });
    if found {
        return true;
    }
    // Let-binding names too (a fence consulted via a local).
    let mut bound = false;
    fn scan_block(b: &ast::Block, hit: &dyn Fn(&str) -> bool, bound: &mut bool) {
        for s in &b.stmts {
            if let ast::StmtKind::Let(l) = &s.kind {
                if l.pat.bound_names().iter().any(|n| hit(n)) {
                    *bound = true;
                }
                if let Some(eb) = &l.else_block {
                    scan_block(eb, hit, bound);
                }
            }
        }
    }
    scan_block(body, &hit, &mut bound);
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtoEnum;
    use std::path::PathBuf;

    fn lint(srcs: &[(&str, &str)], proto: Vec<ProtoEnum>) -> Vec<Diagnostic> {
        let files: Vec<FileData> = srcs
            .iter()
            .map(|(rel, src)| {
                let f = FileData::parse(rel, src);
                assert!(f.ast.errors.is_empty(), "{rel}: {:?}", f.ast.errors);
                f
            })
            .collect();
        let mut cfg = Config::workspace(PathBuf::from("."));
        cfg.proto_enums = proto;
        check(&cfg, &files)
    }

    fn msg_enum(retriable: bool) -> Vec<ProtoEnum> {
        vec![ProtoEnum {
            file: "a.rs".into(),
            name: "Msg".into(),
            exhaustive: false,
            flow: true,
            retriable,
        }]
    }

    #[test]
    fn orphan_and_dead_are_flagged() {
        let d = lint(
            &[(
                "a.rs",
                "pub enum Msg { Ping, Pong }\n\
                 fn send(s: &S) { s.tx(Msg::Ping); }\n\
                 fn handle(m: Msg) { match m { Msg::Pong => {}, _ => {} } }",
            )],
            msg_enum(false),
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("orphan send: `Msg::Ping`")));
        assert!(d.iter().any(|x| x.message.contains("dead handler: `Msg::Pong`")));
    }

    #[test]
    fn paired_variants_are_clean() {
        let d = lint(
            &[(
                "a.rs",
                "pub enum Msg { Ping }\n\
                 fn send(s: &S) { s.tx(Msg::Ping); }\n\
                 fn handle(m: Msg) { match m { Msg::Ping => {} } }",
            )],
            msg_enum(false),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unfenced_retriable_handler_is_flagged() {
        let src = "pub enum Msg { Get, Put }\n\
             fn send(s: &S) { s.tx(Msg::Get); s.tx(Msg::Put); }\n\
             fn serve(m: Msg) { match m { Msg::Get => get(), Msg::Put => put() } }";
        let d = lint(&[("a.rs", src)], msg_enum(true));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("never consults an idempotency fence"));
        // Same handler with a reply cache: clean.
        let fenced = src
            .replace("fn serve(m: Msg) {", "fn serve(m: Msg) { if seen.contains(&id) { return; }")
            + "\n";
        let d = lint(&[("a.rs", &fenced)], msg_enum(true));
        assert!(d.is_empty(), "{d:?}");
    }
}
