//! Parser regression gate: the AST parser must handle every `.rs`
//! file the lint scans — zero parse errors workspace-wide. A failure
//! here means a Rust construct landed in the tree that the
//! recursive-descent parser does not model yet; teach the parser
//! rather than waiving, since every AST-based rule silently degrades
//! on files it cannot parse. The `dead-api` use roots (`perfbench/`)
//! are held to the same bar: a use the parser drops there would make
//! live API look dead.

use std::path::Path;

use darms_lint::Config;

#[test]
fn workspace_parses_with_zero_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").is_file(), "bad workspace root {}", root.display());
    let cfg = Config::workspace(root);
    let files = darms_lint::load_files(&cfg).expect("workspace scan");
    assert!(
        files.len() > 50,
        "suspiciously few files scanned ({}) — scan dirs misconfigured?",
        files.len()
    );
    let roots = darms_lint::load_use_roots(&cfg).expect("use-root scan");
    for dir in &cfg.use_roots {
        assert!(
            roots.iter().any(|f| f.rel.starts_with(&format!("{dir}/"))),
            "no file read under use root {dir}"
        );
    }
    let mut errors = Vec::new();
    for f in files.iter().chain(&roots) {
        for e in &f.ast.errors {
            errors.push(format!("{}:{}: {}", f.rel, e.line, e.msg));
        }
    }
    assert!(errors.is_empty(), "{} parse error(s):\n{}", errors.len(), errors.join("\n"));
}
