//! Rule `name-registry`: every metric/trace name literal must be
//! declared in the checked-in taxonomy (`metrics.toml`).
//!
//! Counters, gauges, histograms and spans are addressed by string
//! name; a typo'd name silently creates a parallel instrument and
//! every dashboard/assertion reading the real one goes quiet. The
//! registry makes the namespace closed: emission sites may only use
//! declared names, and near-misses get a Levenshtein "did you mean"
//! suggestion (this is exactly the `sched.iteration` span vs
//! `sched.iterations` counter class of drift).
//!
//! Scope: non-test code only. Test fns and `tests/` trees use ad-hoc
//! scratch names ("x", "lat") on private registries, which are not
//! part of the observability surface. Dynamic names (`format!`-built)
//! cannot be checked statically and are skipped.

use crate::ast::{self, Expr};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::registry::{self, Registry};
use crate::FileData;

pub fn check(cfg: &Config, files: &[FileData]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let path = cfg.root.join(&cfg.registry_path);
    let reg = match std::fs::read_to_string(&path) {
        Ok(src) => {
            let reg = registry::parse(&src);
            for (line, msg) in &reg.errors {
                out.push(Diagnostic::new(
                    &cfg.registry_path,
                    *line,
                    "name-registry",
                    format!("taxonomy parse error: {msg}"),
                ));
            }
            reg
        }
        Err(_) => {
            out.push(Diagnostic::new(
                &cfg.registry_path,
                1,
                "name-registry",
                format!("metric/trace taxonomy not found at `{}`", cfg.registry_path),
            ));
            return out;
        }
    };
    for f in files {
        if f.in_tests_tree() {
            continue;
        }
        ast::for_each_fn(&f.ast, &mut |fi, test_only| {
            if test_only {
                return;
            }
            let Some(body) = &fi.body else { return };
            body.for_each_expr(&mut |e| {
                let Expr::MethodCall(m) = e else { return };
                for sink in &cfg.metric_sinks {
                    if sink.method != m.method {
                        continue;
                    }
                    let Some(Expr::Lit(lit)) = m.args.get(sink.name_arg) else { continue };
                    let Some(name) = lit.str_content() else { continue };
                    check_name(&reg, name, &f.rel, lit.line, &m.method, &mut out);
                }
            });
        });
    }
    out
}

fn check_name(
    reg: &Registry,
    name: &str,
    rel: &str,
    line: u32,
    method: &str,
    out: &mut Vec<Diagnostic>,
) {
    if reg.contains(name) {
        return;
    }
    let suggestion =
        reg.nearest(name).map(|n| format!("; did you mean `{n}`?")).unwrap_or_default();
    out.push(Diagnostic::new(
        rel,
        line,
        "name-registry",
        format!("`{name}` passed to `{method}` is not declared in metrics.toml{suggestion}"),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint_with_registry(src: &str, toml: &str) -> Vec<Diagnostic> {
        let dir = std::env::temp_dir().join(format!(
            "darms-lint-names-{}-{:p}",
            std::process::id(),
            &src
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("metrics.toml"), toml).unwrap();
        let f = FileData::parse("crates/x/src/lib.rs", src);
        assert!(f.ast.errors.is_empty(), "{:?}", f.ast.errors);
        let mut cfg = Config::workspace(dir.clone());
        cfg.registry_path = "metrics.toml".into();
        let d = check(&cfg, &[f]);
        let _ = std::fs::remove_dir_all(&dir);
        d
    }

    const TOML: &str =
        "[counters]\n\"sched.iterations\" = \"d\"\n[spans]\n\"sched.iteration\" = \"d\"\n";

    #[test]
    fn declared_names_pass_undeclared_fail() {
        let d = lint_with_registry(
            "fn f(m: &M) { m.counter_inc(\"sched.iterations\"); m.counter_inc(\"sched.laps\"); }",
            TOML,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`sched.laps`"));
    }

    #[test]
    fn near_miss_gets_suggestion() {
        let d = lint_with_registry("fn f(m: &M) { m.counter_inc(\"sched.iteration5\"); }", TOML);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("did you mean"), "{}", d[0].message);
    }

    #[test]
    fn tracer_name_position_is_checked() {
        // Tracer methods carry the name at index 3; the source-name at
        // index 2 is not a taxonomy key.
        let d = lint_with_registry(
            "fn f(t: &T) { t.span_begin(now, src, \"sched\", \"sched.iteration\"); \
             t.span_begin(now, src, \"sched\", \"sched.iterationz\"); }",
            TOML,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("sched.iterationz"));
    }

    #[test]
    fn test_code_and_dynamic_names_are_skipped() {
        let d = lint_with_registry(
            "#[cfg(test)] mod tests { fn t(m: &M) { m.counter_inc(\"x\"); } }\n\
             fn f(m: &M, n: &str) { m.counter_inc(n); m.counter_inc(&format!(\"a.{}\", n)); }",
            TOML,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_registry_is_a_finding() {
        let mut cfg = Config::workspace(PathBuf::from("/nonexistent-darms"));
        cfg.registry_path = "metrics.toml".into();
        let d = check(&cfg, &[FileData::parse("a.rs", "fn f() {}")]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("not found"));
    }
}
