//! Rule `unordered-iter`: iteration over `HashMap`/`HashSet` bindings
//! in trace-affecting crates.
//!
//! `std` hash containers iterate in a per-instance random order
//! (`RandomState`), so any iteration whose effects can reach the event
//! stream makes the trace a function of the hasher seed instead of the
//! simulation seed. Within each trace-affecting scope we collect every
//! binding whose type or initialiser names `HashMap`/`HashSet` — struct
//! and variant fields, fn and closure params, consts, `let`
//! annotations, `let x = HashMap::new()` and struct-literal fields —
//! then flag `for` loops over those bindings and ordering-sensitive
//! method calls (`iter`, `keys`, `values`, `drain`, `retain`, ...) on
//! them.

use std::collections::BTreeSet;

use crate::ast::{self, Expr, Item, Node, Pat, Stmt, StmtKind};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::FileData;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that observe or mutate in iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Does a type (flat token text) name a hash container in its leading
/// path run — refs, lifetimes, `mut`/`dyn` and wrapper generics such as
/// `& 'a Arc < Mutex < HashMap < .. > > >`? A tuple, array or second
/// generic argument (`BTreeMap < u64 , HashSet < .. > >`) ends the run.
fn type_names_hash(ty: &str) -> bool {
    for tok in ty.split_whitespace() {
        if HASH_TYPES.contains(&tok) {
            return true;
        }
        let word = tok.starts_with(|c: char| c.is_alphabetic() || c == '_' || c == '\'');
        if !(word && tok != "use" || matches!(tok, "<" | "&" | "::")) {
            return false;
        }
    }
    false
}

/// Does an initialiser's leading path name a hash container
/// (`HashMap::new()`, `HashSet::with_capacity(n)`, `&HashMap::default()`)?
fn init_names_hash(e: &Expr) -> bool {
    match e {
        Expr::Path(p) => p.segments.iter().any(|s| HASH_TYPES.contains(&s.as_str())),
        Expr::Call(c) => init_names_hash(&c.callee),
        Expr::MethodCall(m) => init_names_hash(&m.recv),
        Expr::Field(b, _, _) | Expr::Try(b, _) | Expr::Unary(b, _) | Expr::Cast(b, _) => {
            init_names_hash(b)
        }
        _ => false,
    }
}

/// Is a hash container constructed (`HashMap::new` / `with_capacity` /
/// `default`) anywhere in `e` outside a braced block?
fn constructs_hash(e: &Expr) -> bool {
    let ctor = |segs: &[String]| {
        segs.windows(2).any(|w| {
            HASH_TYPES.contains(&w[0].as_str())
                && matches!(w[1].as_str(), "new" | "with_capacity" | "default")
        })
    };
    match e {
        Expr::Path(p) => ctor(&p.segments),
        Expr::Call(c) => constructs_hash(&c.callee) || c.args.iter().any(constructs_hash),
        Expr::MethodCall(m) => constructs_hash(&m.recv) || m.args.iter().any(constructs_hash),
        Expr::Field(b, _, _)
        | Expr::Await(b, _)
        | Expr::Try(b, _)
        | Expr::Unary(b, _)
        | Expr::Cast(b, _) => constructs_hash(b),
        Expr::Index(b, i, _) => constructs_hash(b) || constructs_hash(i),
        Expr::Binary(xs, _) | Expr::Tuple(xs, _) | Expr::Array(xs, _) => {
            xs.iter().any(constructs_hash)
        }
        Expr::Macro(m) => m.args.iter().any(constructs_hash),
        Expr::Closure(c) => constructs_hash(&c.body),
        _ => false,
    }
}

/// A simple `name` binding pattern's name.
fn ident(p: &Pat) -> Option<&str> {
    match p {
        Pat::Ident { name, .. } => Some(name),
        _ => None,
    }
}

/// Collect the names of hash-container bindings in `files`.
fn collect_bindings(files: &[&FileData]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let typed = |pat: &Pat, ty: &Option<String>, names: &mut BTreeSet<String>| {
        if let (Some(name), Some(ty)) = (ident(pat), ty) {
            if type_names_hash(ty) {
                names.insert(name.to_string());
            }
        }
    };
    for f in files {
        ast::walk_file(&f.ast, &mut |n| match n {
            Node::Item(Item::Other(o)) => {
                let hashed = o.fields.iter().filter(|fd| type_names_hash(&fd.ty));
                names.extend(hashed.map(|fd| fd.name.clone()));
            }
            Node::Item(Item::Enum(e)) => {
                let hashed = e.fields.iter().filter(|fd| type_names_hash(&fd.ty));
                names.extend(hashed.map(|fd| fd.name.clone()));
            }
            Node::Item(Item::Const(c)) if c.ty.as_deref().is_some_and(type_names_hash) => {
                names.insert(c.name.clone());
            }
            Node::Item(Item::Fn(fi)) => {
                fi.params.iter().for_each(|p| typed(&p.pat, &p.ty, &mut names))
            }
            Node::Expr(Expr::Closure(c)) => {
                c.params.iter().for_each(|p| typed(&p.pat, &p.ty, &mut names))
            }
            Node::Stmt(Stmt { kind: StmtKind::Let(l), .. }) => {
                typed(&l.pat, &l.ty, &mut names);
                if l.init.as_ref().is_some_and(constructs_hash) {
                    match &l.pat {
                        Pat::Tuple(..) => names.extend(l.pat.bound_names()),
                        p => names.extend(ident(p).map(str::to_string)),
                    }
                }
            }
            Node::Expr(Expr::StructLit(s)) => {
                for (name, v) in &s.fields {
                    if v.as_ref().is_some_and(init_names_hash) {
                        names.insert(name.clone());
                    }
                }
            }
            _ => {}
        });
    }
    names
}

/// The binding a method chain starts from, with its line: `inner` for
/// `self.inner.lock().retain(..)`, walking back over method calls.
fn chain_receiver(e: &Expr) -> Option<(&str, u32)> {
    match e {
        Expr::Path(p) => p.last().map(|s| (s, p.line)),
        Expr::Field(_, name, line) => Some((name, *line)),
        Expr::MethodCall(m) => chain_receiver(&m.recv),
        _ => None,
    }
}

/// Flag iteration sites over `names` in one file.
fn flag_file(f: &FileData, names: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let mut flag = |line: u32, message: String| {
        out.push(Diagnostic::new(&f.rel, line, "unordered-iter", message));
    };
    ast::walk_file(&f.ast, &mut |n| match n {
        // Ordering-sensitive method calls.
        Node::Expr(Expr::MethodCall(m)) if ITER_METHODS.contains(&m.method.as_str()) => {
            if let Some((recv, line)) = chain_receiver(&m.recv).filter(|(r, _)| names.contains(*r))
            {
                flag(
                    line,
                    format!(
                        "`{recv}.{}()` iterates a hash container in unspecified order",
                        m.method
                    ),
                );
            }
        }
        // `for <pat> in <expr>` loops: a binding used in the iterable
        // counts unless it is only the receiver of a non-iterating
        // method or field (`0..map.len()`).
        Node::Expr(Expr::For(fo)) => {
            let mut excused: Vec<*const Expr> = Vec::new();
            fo.iter.for_each(&mut |e| match e {
                Expr::MethodCall(m) if !ITER_METHODS.contains(&m.method.as_str()) => {
                    excused.push(&*m.recv)
                }
                Expr::Field(b, name, _) if !ITER_METHODS.contains(&name.as_str()) => {
                    excused.push(&**b)
                }
                Expr::Await(b, _) => excused.push(&**b),
                _ => {}
            });
            fo.iter.for_each(&mut |e| {
                let (name, line) = match e {
                    Expr::Path(p) => match p.last() {
                        Some(last) => (last, p.line),
                        None => return,
                    },
                    Expr::Field(_, name, line) => (name.as_str(), *line),
                    _ => return,
                };
                if names.contains(name) && !excused.contains(&(e as *const Expr)) {
                    flag(line, format!("`for` loop over hash container `{name}`"));
                }
            });
        }
        _ => {}
    });
}

pub fn check(cfg: &Config, files: &[FileData]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for scope in &cfg.trace_affecting {
        let in_scope: Vec<&FileData> =
            files.iter().filter(|f| f.rel.starts_with(scope.as_str())).collect();
        if in_scope.is_empty() {
            continue;
        }
        let names = collect_bindings(&in_scope);
        if names.is_empty() {
            continue;
        }
        for f in &in_scope {
            flag_file(f, &names, &mut out);
        }
    }
    // A file can fall under several scopes (or be flagged twice by the
    // `for`-loop and method checks); dedup by (file, line, rule).
    out.sort();
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint(src: &str) -> Vec<String> {
        let f = FileData::parse("crates/sim/src/x.rs", src);
        assert!(f.ast.errors.is_empty(), "{:?}", f.ast.errors);
        let cfg = Config::workspace(PathBuf::from("."));
        check(&cfg, &[f]).into_iter().map(|d| format!("{}: {}", d.line, d.message)).collect()
    }

    #[test]
    fn struct_literal_and_closure_bindings_are_collected() {
        let d = lint(
            "fn new() -> S { S { jobs: HashMap::new() } }\n\
             fn f(s: &S) { s.jobs.values().count(); }\n\
             fn g(v: &[u8]) { v.iter().for_each(|m: &HashSet<u8>| { m.drain(); }); }",
        );
        assert_eq!(
            d,
            [
                "2: `jobs.values()` iterates a hash container in unspecified order",
                "3: `m.drain()` iterates a hash container in unspecified order",
            ]
        );
    }

    #[test]
    fn for_loops_count_direct_uses_only() {
        let d = lint(
            "fn f(m: &HashMap<u8, u8>, n: usize) {\n\
             for i in 0..m.len() { use_it(i); }\n\
             for (k, v) in m { use_it(k); }\n\
             for x in sorted(m) { use_it(x); }\n\
             }",
        );
        assert_eq!(
            d,
            ["3: `for` loop over hash container `m`", "4: `for` loop over hash container `m`"]
        );
    }
}
