//! Await discipline, rebuilt on the AST (DESIGN.md §16).
//!
//! Rule `guard-across-await`: `Mutex` guards / `RefCell` borrows held
//! live across an `.await`. The runtime is a single-threaded
//! cooperative executor over `Rc<Mutex<Kernel>>`; a guard held across
//! an await point deadlocks the kernel (or panics a `RefCell`) the
//! moment the executor re-enters it. Two shapes are detected:
//!
//! 1. `let g = x.lock(); ... .await` — a named guard live (not
//!    dropped, scope not closed) when an `.await` runs;
//! 2. `x.lock().f().await` — a guard temporary kept alive to the end
//!    of the await expression by the method chain itself.
//!
//! Unlike the PR 5 token-shape matcher, scoping here is structural:
//! guards die at the end of their enclosing block (any nesting depth),
//! `drop(g)` releases early, and awaits are found wherever they sit in
//! the statement tree — arm bodies, let-initializers, nested blocks —
//! rather than wherever a `.` `await` token pair happened to land.
//!
//! Rule `async-livelock`: a `loop { ... }` in an `async fn` whose body
//! contains no `.await`, no `break`, and no `return` can never yield
//! back to the executor — in this runtime that spins the simulation
//! forever. (Bounded `for`/`while` loops are compute, not livelock,
//! and are exempt.)
//!
//! Still heuristic, not type-driven: guard detection keys on the
//! method names `lock`, `borrow`, `borrow_mut`.

use crate::ast::{self, Block, Expr, Pat, StmtKind};
use crate::diag::Diagnostic;
use crate::FileData;

const GUARD_METHODS: &[&str] = &["lock", "borrow", "borrow_mut"];

struct Guard {
    name: String,
    line: u32,
    depth: u32,
}

struct Ctx<'a> {
    rel: &'a str,
    out: &'a mut Vec<Diagnostic>,
    guards: Vec<Guard>,
}

pub fn check(files: &[FileData]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        ast::for_each_fn(&f.ast, &mut |fi, _| {
            let Some(body) = &fi.body else { return };
            let mut ctx = Ctx { rel: &f.rel, out: &mut out, guards: Vec::new() };
            walk_block(body, 0, &mut ctx);
            if fi.is_async {
                check_livelock(&fi.name, body, &f.rel, &mut out);
            }
        });
    }
    out
}

fn walk_block(b: &Block, depth: u32, ctx: &mut Ctx) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr(init, depth, ctx);
                    if is_guard_init(init) {
                        if let Pat::Ident { name, .. } = &l.pat {
                            ctx.guards.push(Guard { name: name.clone(), line: s.line, depth });
                        }
                    }
                }
                if let Some(eb) = &l.else_block {
                    walk_block(eb, depth + 1, ctx);
                }
            }
            StmtKind::Expr(e, _) => walk_expr(e, depth, ctx),
            StmtKind::Item(it) => {
                // Nested fn: separate scope, fresh guard state.
                if let ast::Item::Fn(fi) = it.as_ref() {
                    if let Some(nb) = &fi.body {
                        let saved = std::mem::take(&mut ctx.guards);
                        walk_block(nb, 0, ctx);
                        ctx.guards = saved;
                    }
                }
            }
            StmtKind::Empty => {}
        }
    }
    // Guards taken in this block die with it.
    ctx.guards.retain(|g| g.depth < depth);
}

/// Is this initializer a guard acquisition (outermost call is
/// `.lock()`/`.borrow()`/`.borrow_mut()`)?
fn is_guard_init(e: &Expr) -> bool {
    matches!(e, Expr::MethodCall(m)
        if m.args.is_empty() && GUARD_METHODS.contains(&m.method.as_str()))
}

/// Walk an expression in source order, handling awaits, drops, and
/// nested scopes.
fn walk_expr(e: &Expr, depth: u32, ctx: &mut Ctx) {
    match e {
        Expr::Await(inner, line) => {
            // Inner awaits fire first (`a.await.b(c.await)` style is
            // not in this codebase, but order is still correct).
            walk_expr(inner, depth, ctx);
            report_await(*line, inner, ctx);
        }
        Expr::Call(c) => {
            // `drop(g)` / `mem::drop(g)` releases.
            if let (Expr::Path(p), [Expr::Path(arg)]) = (c.callee.as_ref(), c.args.as_slice()) {
                if p.last() == Some("drop") && arg.segments.len() == 1 {
                    walk_expr(&c.args[0], depth, ctx);
                    ctx.guards.retain(|g| g.name != arg.segments[0]);
                    return;
                }
            }
            walk_expr(&c.callee, depth, ctx);
            for a in &c.args {
                walk_expr(a, depth, ctx);
            }
        }
        Expr::Block(b, _) | Expr::Loop(b, _) => walk_block(b, depth + 1, ctx),
        Expr::If(i) => {
            walk_expr(&i.cond, depth, ctx);
            walk_block(&i.then_block, depth + 1, ctx);
            if let Some(eb) = &i.else_branch {
                walk_expr(eb, depth, ctx);
            }
        }
        Expr::Match(m) => {
            walk_expr(&m.scrutinee, depth, ctx);
            for arm in &m.arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, depth, ctx);
                }
                // An arm body is its own scope whether braced or not.
                match &arm.body {
                    Expr::Block(b, _) => walk_block(b, depth + 1, ctx),
                    other => walk_expr(other, depth, ctx),
                }
            }
        }
        Expr::While(w) => {
            walk_expr(&w.cond, depth, ctx);
            walk_block(&w.body, depth + 1, ctx);
        }
        Expr::For(f) => {
            walk_expr(&f.iter, depth, ctx);
            walk_block(&f.body, depth + 1, ctx);
        }
        Expr::Closure(c) => walk_expr(&c.body, depth, ctx),
        Expr::MethodCall(m) => {
            walk_expr(&m.recv, depth, ctx);
            for a in &m.args {
                walk_expr(a, depth, ctx);
            }
        }
        Expr::Field(b, _, _) | Expr::Try(b, _) | Expr::Unary(b, _) | Expr::Cast(b, _) => {
            walk_expr(b, depth, ctx)
        }
        Expr::Index(b, i, _) => {
            walk_expr(b, depth, ctx);
            walk_expr(i, depth, ctx);
        }
        Expr::Binary(xs, _) | Expr::Tuple(xs, _) | Expr::Array(xs, _) => {
            for x in xs {
                walk_expr(x, depth, ctx);
            }
        }
        Expr::Range { lo, hi, .. } => {
            if let Some(l) = lo {
                walk_expr(l, depth, ctx);
            }
            if let Some(h) = hi {
                walk_expr(h, depth, ctx);
            }
        }
        Expr::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, depth, ctx);
            walk_expr(rhs, depth, ctx);
        }
        Expr::StructLit(s) => {
            for (_, v) in &s.fields {
                if let Some(v) = v {
                    walk_expr(v, depth, ctx);
                }
            }
            if let Some(r) = &s.rest {
                walk_expr(r, depth, ctx);
            }
        }
        Expr::Break(v, _) | Expr::Return(v, _) => {
            if let Some(v) = v {
                walk_expr(v, depth, ctx);
            }
        }
        Expr::Macro(m) => {
            for a in &m.args {
                walk_expr(a, depth, ctx);
            }
        }
        Expr::Path(_) | Expr::Lit(_) | Expr::Continue(_) | Expr::Other(_) => {}
    }
}

/// An await fired: every live named guard is a finding, and the awaited
/// chain itself is checked for guard temporaries.
fn report_await(line: u32, inner: &Expr, ctx: &mut Ctx) {
    for g in &ctx.guards {
        ctx.out.push(Diagnostic::new(
            ctx.rel,
            line,
            "guard-across-await",
            format!("guard `{}` (taken on line {}) is held across this `.await`", g.name, g.line),
        ));
    }
    ctx.guards.clear();
    // Chain temporaries: walk the receiver chain of the awaited
    // expression (not call arguments — a closure that takes and
    // releases a guard before the await is fine).
    let mut cur = inner;
    loop {
        match cur {
            Expr::MethodCall(m) => {
                if m.args.is_empty() && GUARD_METHODS.contains(&m.method.as_str()) {
                    ctx.out.push(Diagnostic::new(
                        ctx.rel,
                        line,
                        "guard-across-await",
                        format!("`.{}()` guard temporary is held across this `.await`", m.method),
                    ));
                    return;
                }
                cur = &m.recv;
            }
            Expr::Field(b, _, _) | Expr::Try(b, _) => cur = b,
            _ => return,
        }
    }
}

/// `async-livelock`: `loop` bodies in async fns with no await point and
/// no exit.
fn check_livelock(fn_name: &str, body: &Block, rel: &str, out: &mut Vec<Diagnostic>) {
    body.for_each_expr(&mut |e| {
        let Expr::Loop(b, line) = e else { return };
        let mut has_yield_or_exit = false;
        b.for_each_expr(&mut |e| {
            if matches!(e, Expr::Await(..) | Expr::Break(..) | Expr::Return(..)) {
                has_yield_or_exit = true;
            }
        });
        if !has_yield_or_exit {
            out.push(Diagnostic::new(
                rel,
                *line,
                "async-livelock",
                format!(
                    "`loop` in async fn `{fn_name}` has no await point and no break/return \
                     (livelock risk)"
                ),
            ));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let f = FileData::parse("x.rs", src);
        assert!(f.ast.errors.is_empty(), "{:?}", f.ast.errors);
        check(&[f])
    }

    #[test]
    fn named_guard_across_await() {
        let d = lint("async fn f() { let g = k.lock(); step().await; }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("guard `g` (taken on line 1)"));
    }

    #[test]
    fn guard_released_by_scope_or_drop() {
        assert!(lint("async fn f() { { let g = k.lock(); g.poke(); } step().await; }").is_empty());
        assert!(lint("async fn f() { let g = k.lock(); drop(g); step().await; }").is_empty());
    }

    #[test]
    fn chain_temporary_across_await() {
        let d = lint("async fn f() { k.borrow_mut().advance().await; }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`.borrow_mut()` guard temporary"));
    }

    #[test]
    fn guard_in_match_arm_scope() {
        // Taken and dropped inside one arm: fine.
        assert!(lint(
            "async fn f(x: u32) { match x { 0 => { let g = k.lock(); g.poke(); } _ => {} } \
             step().await; }"
        )
        .is_empty());
        // Await inside the arm while the guard lives: flagged.
        let d = lint(
            "async fn f(x: u32) { match x { 0 => { let g = k.lock(); step().await; } _ => {} } }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn multiline_statement_awaits_are_found() {
        // The await is inside a let-initializer, not a statement tail —
        // the PR 5 token scan found these too, but only because `.await`
        // is textual; the AST walk finds it structurally.
        let d =
            lint("async fn f() { let g = k.lock(); let v = fetch(\n  1,\n).await; use_it(v, g); }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn livelock_loop_flagged_bounded_loops_not() {
        let d = lint("async fn f() { loop { spin(); } }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "async-livelock");
        assert!(lint("async fn f() { loop { if done() { break; } spin(); } }").is_empty());
        assert!(lint("async fn f() { loop { tick().await; } }").is_empty());
        assert!(lint("fn f() { loop { spin(); } }").is_empty(), "sync fns are exempt");
        assert!(lint("async fn f() { for i in 0..3 { spin(i); } }").is_empty());
    }
}
