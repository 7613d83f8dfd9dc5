//! Rule `nondet-taint`: waived nondeterminism must not flow into the
//! observability surface.
//!
//! A `// darms-lint: allow(nondet, ...)` waiver says "this wall-clock /
//! RSS read is fine *where it is*" — it says nothing about where the
//! value goes afterwards. This rule closes that transitive blind spot:
//! taint starts at the nondeterministic producers themselves (the
//! `taint` entries of the shared nondeterminism source list:
//! `Instant::now`, `SystemTime::now`, `peak_rss_mib`), propagates
//! through let-bindings, assignments, method chains and `format!`
//! (see `crate::dataflow`), and is reported when it reaches an
//! argument of a trace/metric/event sink. A tainted value that stays
//! in profiling-only state (e.g. `stats.wall_nanos`, excluded from
//! trace equality) is fine and stays silent.
//!
//! Files on the `nondet_allow_files` list (the sweep runner, the
//! perf-report harness) are exempt wholesale: their entire output is
//! wall-clock measurement by design and never feeds golden traces.

use crate::ast;
use crate::config::Config;
use crate::dataflow::{self, TaintSpec};
use crate::diag::Diagnostic;
use crate::FileData;

pub fn check(cfg: &Config, files: &[FileData]) -> Vec<Diagnostic> {
    let spec = TaintSpec { sources: &cfg.nondet_sources, sink_fns: &cfg.taint_sink_fns };
    let mut out = Vec::new();
    for f in files {
        if cfg.nondet_allow_files.iter().any(|a| a == &f.rel) {
            continue;
        }
        ast::for_each_fn(&f.ast, &mut |fi, _test_only| {
            for flow in dataflow::analyze_fn(fi, &spec) {
                out.push(Diagnostic::new(
                    &f.rel,
                    flow.line,
                    "nondet-taint",
                    format!(
                        "nondeterministic value {} flows into `{}` (trace/metric sink)",
                        flow.what, flow.sink
                    ),
                ));
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint(rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = FileData::parse(rel, src);
        assert!(f.ast.errors.is_empty(), "{:?}", f.ast.errors);
        let cfg = Config::workspace(PathBuf::from("."));
        check(&cfg, &[f])
    }

    #[test]
    fn wall_clock_into_trace_is_flagged() {
        let d = lint(
            "crates/sim/src/engine.rs",
            "fn f(t: &T) { let w = std::time::Instant::now(); \
             t.trace(format!(\"took {:?}\", w.elapsed())); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "nondet-taint");
    }

    #[test]
    fn wall_clock_into_stats_is_fine() {
        let d = lint(
            "crates/sim/src/engine.rs",
            "fn f(stats: &mut S) { let w = std::time::Instant::now(); \
             stats.wall_nanos += w.elapsed().as_nanos() as u64; }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_files_are_exempt() {
        let d = lint(
            "crates/experiments/src/bin/perf_report.rs",
            "fn f(m: &M) { m.observe(peak_rss_mib()); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
