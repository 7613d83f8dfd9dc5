//! Rule `dead-api`: a library's public surface must be used.
//!
//! A bare-`pub` `fn`, `const` or `static` declared in a library source
//! file (`Config::api_dirs`, bins excluded) is a finding when its name
//! is used nowhere except in its own file's `#[cfg(test)]` / `#[test]`
//! code. Such an item is API that only exists for its own unit tests:
//! delete it with those tests, or make it private. An item kept on
//! purpose takes a `// darms-lint: allow(dead-api, reason = "...")`
//! waiver; the workspace has none.
//!
//! A use is a path segment, a method name, a struct-literal path or an
//! identifier captured in a format string (`{HORIZON:?}`), anywhere in
//! the scan set or the use roots (`Config::use_roots`, read but not
//! linted); macro arguments are walked like any other expression.
//! `use` / `pub use` lines and doc comments are not uses. Matching is
//! by name, so a collision can only keep an item alive, never make a
//! live item look dead. `pub(crate)` items are not public API.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, Expr, Item, Node, StmtKind};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::FileData;

pub fn check(cfg: &Config, files: &[FileData], roots: &[FileData]) -> Vec<Diagnostic> {
    let per_file: Vec<Uses> = files.iter().map(uses).collect();
    // In how many files (scan set and use roots) each name is used.
    let mut file_count: BTreeMap<String, usize> = BTreeMap::new();
    for u in per_file.iter().chain(&roots.iter().map(uses).collect::<Vec<_>>()) {
        for name in u.live.union(&u.test) {
            *file_count.entry(name.clone()).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for (f, own) in files.iter().zip(&per_file) {
        if !in_api(cfg, &f.rel) {
            continue;
        }
        ast::for_each_item(&f.ast, &mut |it, test_only| {
            let (name, line) = match it {
                Item::Fn(fi) if fi.is_pub => (&fi.name, fi.line),
                Item::Const(c) if c.is_pub => (&c.name, c.line),
                _ => return,
            };
            let in_own_tests = usize::from(own.test.contains(name));
            let other_files = file_count.get(name).map_or(0, |n| n - in_own_tests);
            if test_only || own.live.contains(name) || other_files > 0 {
                return;
            }
            out.push(Diagnostic::new(
                &f.rel,
                line,
                "dead-api",
                format!(
                    "public `{name}` is used nowhere outside this file's tests \
                     (delete it with its tests, or make it private)"
                ),
            ));
        });
    }
    out
}

/// Is `rel` a library source: under an `api_dirs` pattern and not in a
/// binary's `bin/` tree?
fn in_api(cfg: &Config, rel: &str) -> bool {
    let matches = |pat: &String| {
        let mut segs = rel.split('/');
        pat.split('/')
            .filter(|p| !p.is_empty())
            .all(|p| segs.next().is_some_and(|s| p == "*" || p == s))
    };
    cfg.api_dirs.iter().any(matches) && !rel.contains("/bin/")
}

/// Names one file uses, split by whether the use is in test code.
#[derive(Default)]
struct Uses {
    live: BTreeSet<String>,
    test: BTreeSet<String>,
}

fn uses(f: &FileData) -> Uses {
    let mut u = Uses::default();
    for it in &f.ast.items {
        item_uses(it, f.in_tests_tree(), &mut u);
    }
    u
}

fn item_uses<'a>(it: &'a Item, test_only: bool, u: &mut Uses) {
    let test_only = test_only || it.attrs().is_test_only();
    let mut nested: Vec<&'a Item> = Vec::new();
    let set = if test_only { &mut u.test } else { &mut u.live };
    let mut visit = |n: Node<'a>| match n {
        Node::Expr(e) => expr_names(e, set),
        Node::Stmt(s) => {
            if let StmtKind::Item(inner) = &s.kind {
                nested.push(&**inner);
            }
        }
        Node::Item(_) => {}
    };
    match it {
        Item::Fn(fi) => {
            if let Some(b) = &fi.body {
                b.walk(&mut visit);
            }
        }
        Item::Const(c) => {
            if let Some(e) = &c.init {
                e.for_each(&mut |e| visit(Node::Expr(e)));
            }
        }
        Item::Mod(m) => nested.extend(&m.items),
        Item::Container(c) => nested.extend(&c.items),
        Item::Other(o) => set.extend(o.macro_idents.iter().cloned()),
        Item::Enum(_) => {}
    }
    for inner in nested {
        item_uses(inner, test_only, u);
    }
}

fn expr_names(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Path(p) => out.extend(p.segments.iter().cloned()),
        Expr::MethodCall(m) => {
            out.insert(m.method.clone());
        }
        Expr::StructLit(s) => out.extend(s.path.segments.iter().cloned()),
        Expr::Lit(l) => out.extend(l.format_captures()),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const LIB: &str = "crates/net/src/network.rs";
    /// One of each kind of public item, each used only by its own tests.
    const DECLS: &str = "pub fn host_count() -> usize { 0 }\n\
                         pub const HORIZON: u64 = 9;\n\
                         pub static LABEL: &str = \"x\";\n\
                         #[cfg(test)] mod tests { #[test] fn t() { \
                         host_count(); let _ = (HORIZON, LABEL); } }\n";

    /// `dead-api` names for `files` (the first is the library file),
    /// with `roots` read as use roots.
    fn dead(files: &[(&str, &str)], roots: &[(&str, &str)]) -> Vec<String> {
        let parse = |fs: &[(&str, &str)]| -> Vec<FileData> {
            fs.iter().map(|(rel, src)| FileData::parse(rel, src)).collect()
        };
        let (files, roots) = (parse(files), parse(roots));
        for f in files.iter().chain(&roots) {
            assert!(f.ast.errors.is_empty(), "{}: {:?}", f.rel, f.ast.errors);
        }
        let cfg = Config::workspace(PathBuf::from("."));
        let mut names: Vec<String> = check(&cfg, &files, &roots)
            .into_iter()
            .map(|d| d.message.split('`').nth(1).unwrap().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn own_file_tests_are_not_a_use() {
        assert_eq!(dead(&[(LIB, DECLS)], &[]), ["HORIZON", "LABEL", "host_count"]);
    }

    #[test]
    fn a_perfbench_root_keeps_an_item_alive() {
        let bench = "fn main() { let _ = darms_net::network::host_count(); }";
        assert_eq!(dead(&[(LIB, DECLS)], &[("perfbench/src/run.rs", bench)]), ["HORIZON", "LABEL"]);
    }

    #[test]
    fn another_crates_test_keeps_an_item_alive() {
        let test = "#[test] fn t() { assert!(HORIZON > 0); }";
        assert_eq!(
            dead(&[(LIB, DECLS), ("crates/rms/tests/t.rs", test)], &[]),
            ["LABEL", "host_count"]
        );
    }

    #[test]
    fn a_format_capture_is_a_use() {
        let user = "fn show() { println!(\"{HORIZON:?} {{LABEL}}\"); }";
        assert_eq!(
            dead(&[(LIB, DECLS), ("crates/sim/src/a.rs", user)], &[]),
            ["LABEL", "host_count"]
        );
    }

    #[test]
    fn a_reexport_or_doc_comment_is_not_a_use() {
        let lib = "/// See [`host_count`].\npub use network::{host_count, HORIZON, LABEL};";
        assert_eq!(
            dead(&[(LIB, DECLS), ("crates/net/src/lib.rs", lib)], &[]),
            ["HORIZON", "LABEL", "host_count"]
        );
    }

    #[test]
    fn an_item_level_macro_body_is_a_use() {
        let props = "proptest! { #[test] fn p(n in 0..4u64) { prop_assert!(n < HORIZON); } }";
        assert_eq!(
            dead(&[(LIB, DECLS), ("crates/net/tests/props.rs", props)], &[]),
            ["LABEL", "host_count"]
        );
    }

    #[test]
    fn crate_visible_items_and_bins_are_not_api() {
        let scoped = "pub(crate) fn helper() {}\npub(in crate::net) const N: u8 = 1;";
        assert!(dead(&[(LIB, scoped)], &[]).is_empty());
        assert!(dead(&[("crates/experiments/src/bin/fig8.rs", DECLS)], &[]).is_empty());
    }
}
