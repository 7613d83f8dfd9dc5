//! Intra-procedural taint propagation.
//!
//! The lattice is a flat two-point one (clean / tainted) over binding
//! names. Taint enters at calls of the configured nondeterminism sources
//! marked `taint` (`Instant::now`, `peak_rss_mib`, ...), propagates through let-bindings, assignments,
//! method chains and macro arguments, format-string captures included
//! (any tainted operand taints the result), and is reported when it reaches an argument of a sink
//! method. Propagation is flow-insensitive within a function — a
//! binding once tainted stays tainted — and iterates to a fixpoint so
//! taint flows through loops and forward references in closures.
//! Conservative in exactly one direction: over-taint is possible
//! (re-assignment with a clean value does not clear), missed taint
//! through fields/containers is accepted (`v.push(t); v.pop()` does
//! not track).

use std::collections::BTreeSet;

use crate::ast::{Expr, FnItem, StmtKind};
use crate::config::NondetSource;

/// A tainted value reaching a sink argument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SinkFlow {
    /// Line of the sink call.
    pub line: u32,
    /// Sink method name.
    pub sink: String,
    /// Human description of what flowed in (binding or source call).
    pub what: String,
}

pub struct TaintSpec<'a> {
    /// Nondeterminism sources; those marked `taint` are source calls.
    /// Paths may be bare fn names (`peak_rss_mib`) or `Type::method`
    /// pairs (`Instant::now`); matched against the last one or two path
    /// segments of call callees.
    pub sources: &'a [NondetSource],
    /// Sink method/function names; any tainted argument is a flow.
    pub sink_fns: &'a [String],
}

/// Analyze one function; returns sink flows in source order.
pub fn analyze_fn(f: &FnItem, spec: &TaintSpec) -> Vec<SinkFlow> {
    let Some(body) = &f.body else { return Vec::new() };
    let mut tainted: BTreeSet<String> = BTreeSet::new();

    // Fixpoint over binding taint. Two passes usually suffice; the cap
    // guards pathological chains.
    for _ in 0..8 {
        let before = tainted.len();
        walk_block_bindings(body, spec, &mut tainted);
        if tainted.len() == before {
            break;
        }
    }

    // Report pass: find sink calls with tainted arguments.
    let mut flows = Vec::new();
    body.for_each_expr(&mut |e| {
        let (name, args, line) = match e {
            Expr::MethodCall(m) if spec.sink_fns.iter().any(|s| s == &m.method) => {
                (m.method.clone(), &m.args, m.line)
            }
            Expr::Call(c) => {
                let Expr::Path(p) = c.callee.as_ref() else { return };
                let Some(last) = p.last() else { return };
                if !spec.sink_fns.iter().any(|s| s == last) {
                    return;
                }
                (last.to_string(), &c.args, c.line)
            }
            _ => return,
        };
        for a in args {
            if let Some(what) = expr_taint(a, spec, &tainted) {
                flows.push(SinkFlow { line, sink: name.clone(), what });
            }
        }
    });
    flows.sort();
    flows.dedup();
    flows
}

/// One propagation pass: taint bindings whose initializer (or assigned
/// value) is tainted.
fn walk_block_bindings(b: &crate::ast::Block, spec: &TaintSpec, tainted: &mut BTreeSet<String>) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr_bindings(init, spec, tainted);
                    if expr_taint(init, spec, tainted).is_some() {
                        for n in l.pat.bound_names() {
                            tainted.insert(n);
                        }
                    }
                }
                if let Some(eb) = &l.else_block {
                    walk_block_bindings(eb, spec, tainted);
                }
            }
            StmtKind::Expr(e, _) => walk_expr_bindings(e, spec, tainted),
            StmtKind::Item(_) | StmtKind::Empty => {}
        }
    }
}

fn walk_expr_bindings(e: &Expr, spec: &TaintSpec, tainted: &mut BTreeSet<String>) {
    // Assignments anywhere in the expression tree.
    let mut to_add: Vec<String> = Vec::new();
    e.for_each(&mut |e| match e {
        Expr::Assign { lhs, rhs, .. } if expr_taint(rhs, spec, tainted).is_some() => {
            if let Expr::Path(p) = lhs.as_ref() {
                if p.segments.len() == 1 {
                    to_add.push(p.segments[0].clone());
                }
            }
        }
        // Let-bindings inside nested blocks (if/match/loop bodies) are
        // reached through the nested `Block` nodes.
        Expr::Block(b, _) | Expr::Loop(b, _) => walk_block_bindings_shallow(b, spec, tainted),
        Expr::If(i) => {
            walk_block_bindings_shallow(&i.then_block, spec, tainted);
            if let (Some(p), c) = (&i.let_pat, &i.cond) {
                if expr_taint(c, spec, tainted).is_some() {
                    to_add.extend(p.bound_names());
                }
            }
        }
        Expr::While(w) => {
            walk_block_bindings_shallow(&w.body, spec, tainted);
            if let (Some(p), c) = (&w.let_pat, &w.cond) {
                if expr_taint(c, spec, tainted).is_some() {
                    to_add.extend(p.bound_names());
                }
            }
        }
        Expr::For(f) => {
            walk_block_bindings_shallow(&f.body, spec, tainted);
            if expr_taint(&f.iter, spec, tainted).is_some() {
                to_add.extend(f.pat.bound_names());
            }
        }
        Expr::Match(m) if expr_taint(&m.scrutinee, spec, tainted).is_some() => {
            for arm in &m.arms {
                to_add.extend(arm.pat.bound_names());
            }
        }
        _ => {}
    });
    for n in to_add {
        tainted.insert(n);
    }
}

/// Process only the direct let/assign statements of a block (its nested
/// expressions are visited by the enclosing `for_each`).
fn walk_block_bindings_shallow(
    b: &crate::ast::Block,
    spec: &TaintSpec,
    tainted: &mut BTreeSet<String>,
) {
    for s in &b.stmts {
        if let StmtKind::Let(l) = &s.kind {
            if let Some(init) = &l.init {
                if expr_taint(init, spec, tainted).is_some() {
                    for n in l.pat.bound_names() {
                        tainted.insert(n);
                    }
                }
            }
        }
    }
}

/// Is `e` tainted? Returns a description of the taint origin.
pub fn expr_taint(e: &Expr, spec: &TaintSpec, tainted: &BTreeSet<String>) -> Option<String> {
    match e {
        Expr::Path(p) => {
            if p.segments.len() == 1 && tainted.contains(&p.segments[0]) {
                return Some(format!("`{}`", p.segments[0]));
            }
            None
        }
        Expr::Lit(_) | Expr::Continue(_) | Expr::Other(_) => None,
        Expr::Call(c) => {
            if let Expr::Path(p) = c.callee.as_ref() {
                if let Some(src) = source_match(&p.segments, spec) {
                    return Some(format!("`{src}()`"));
                }
            }
            c.args.iter().find_map(|a| expr_taint(a, spec, tainted))
        }
        Expr::MethodCall(m) => expr_taint(&m.recv, spec, tainted)
            .or_else(|| m.args.iter().find_map(|a| expr_taint(a, spec, tainted))),
        Expr::Field(b, _, _)
        | Expr::Await(b, _)
        | Expr::Try(b, _)
        | Expr::Unary(b, _)
        | Expr::Cast(b, _) => expr_taint(b, spec, tainted),
        Expr::Index(b, i, _) => {
            expr_taint(b, spec, tainted).or_else(|| expr_taint(i, spec, tainted))
        }
        Expr::Binary(xs, _) | Expr::Tuple(xs, _) | Expr::Array(xs, _) => {
            xs.iter().find_map(|x| expr_taint(x, spec, tainted))
        }
        Expr::Range { lo, hi, .. } => lo
            .as_deref()
            .and_then(|l| expr_taint(l, spec, tainted))
            .or_else(|| hi.as_deref().and_then(|h| expr_taint(h, spec, tainted))),
        Expr::Assign { rhs, .. } => expr_taint(rhs, spec, tainted),
        Expr::StructLit(s) => s
            .fields
            .iter()
            .find_map(|(name, v)| match v {
                Some(v) => expr_taint(v, spec, tainted),
                // Shorthand `Foo { wall }` reads the binding `wall`.
                None => tainted.contains(name).then(|| format!("`{name}`")),
            })
            .or_else(|| s.rest.as_deref().and_then(|r| expr_taint(r, spec, tainted))),
        // Value-position blocks/branches: tainted if their tail/branch
        // values are. Approximated by "any nested tail expression" —
        // the last statement of a block, both branches of an if, all
        // arm bodies of a match.
        Expr::Block(b, _) => block_tail_taint(b, spec, tainted),
        Expr::If(i) => block_tail_taint(&i.then_block, spec, tainted)
            .or_else(|| i.else_branch.as_deref().and_then(|e| expr_taint(e, spec, tainted))),
        Expr::Match(m) => m.arms.iter().find_map(|a| expr_taint(&a.body, spec, tainted)),
        Expr::Loop(_, _) | Expr::While(_) | Expr::For(_) => None,
        Expr::Closure(_) => None,
        Expr::Break(e, _) | Expr::Return(e, _) => {
            e.as_deref().and_then(|e| expr_taint(e, spec, tainted))
        }
        Expr::Macro(m) => {
            // format!-style: any tainted argument taints the output, and
            // so does a tainted binding the format string captures
            // (`"took {t:?}"`).
            m.args.iter().find_map(|a| match a {
                Expr::Lit(l) => l
                    .format_captures()
                    .into_iter()
                    .find(|n| tainted.contains(n))
                    .map(|n| format!("`{n}`")),
                a => expr_taint(a, spec, tainted),
            })
        }
    }
}

fn block_tail_taint(
    b: &crate::ast::Block,
    spec: &TaintSpec,
    tainted: &BTreeSet<String>,
) -> Option<String> {
    let last = b.stmts.last()?;
    match &last.kind {
        StmtKind::Expr(e, false) => expr_taint(e, spec, tainted),
        _ => None,
    }
}

/// Match a call path against the source list: `peak_rss_mib` matches
/// the final segment, `Instant::now` the final two.
fn source_match<'a>(segments: &[String], spec: &TaintSpec<'a>) -> Option<&'a str> {
    for s in spec.sources.iter().filter(|s| s.taint).map(|s| s.path.as_str()) {
        if let Some((ty, method)) = s.split_once("::") {
            let n = segments.len();
            if n >= 2 && segments[n - 2] == ty && segments[n - 1] == method {
                return Some(s);
            }
        } else if segments.last().is_some_and(|l| l == s) {
            return Some(s);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;

    fn flows(src: &str) -> Vec<SinkFlow> {
        let f = ast::parse_source(src);
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        let sources: Vec<NondetSource> = ["Instant::now", "peak_rss_mib"]
            .iter()
            .map(|p| NondetSource { path: p.to_string(), what: None, taint: true })
            .collect();
        let sinks = vec!["trace".to_string(), "observe".to_string()];
        let spec = TaintSpec { sources: &sources, sink_fns: &sinks };
        let mut out = Vec::new();
        ast::for_each_fn(&f, &mut |fi, _| out.extend(analyze_fn(fi, &spec)));
        out
    }

    #[test]
    fn direct_flow_is_flagged() {
        let fl = flows("fn f(m: &M) { m.observe(peak_rss_mib()); }");
        assert_eq!(fl.len(), 1);
        assert_eq!(fl[0].sink, "observe");
    }

    #[test]
    fn flow_through_bindings_and_methods() {
        let fl = flows(
            "fn f(c: &C) { let t0 = Instant::now(); let d = t0.elapsed().as_nanos(); \
             let msg = format!(\"took {}\", d); c.trace(msg); }",
        );
        assert_eq!(fl.len(), 1, "{fl:?}");
        assert_eq!(fl[0].what, "`msg`");
    }

    #[test]
    fn flow_through_format_args_is_flagged() {
        // A positional argument and a binding the format string captures.
        for call in ["format_args!(\"took {:?}\", t.elapsed())", "format_args!(\"took {t:?}\")"] {
            let fl = flows(&format!("fn f(c: &C) {{ let t = Instant::now(); c.trace({call}); }}"));
            assert_eq!(fl.len(), 1, "{call}: {fl:?}");
            assert_eq!(fl[0].sink, "trace");
            assert_eq!(fl[0].what, "`t`");
        }
    }

    #[test]
    fn clean_flow_is_silent() {
        let fl = flows(
            "fn f(c: &C) { let t0 = Instant::now(); let wall = t0.elapsed(); \
             stats.wall += wall.as_nanos(); c.trace(format!(\"n={}\", stats.events)); \
             c.trace(format_args!(\"{{t0}} n={n}\")); }",
        );
        assert!(fl.is_empty(), "{fl:?}");
    }

    #[test]
    fn taint_through_match_scrutinee() {
        let fl = flows(
            "fn f(c: &C) { let r = peak_rss_mib(); match r { Some(mib) => c.observe(mib), None => {} } }",
        );
        assert_eq!(fl.len(), 1);
    }
}
