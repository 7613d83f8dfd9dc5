//! Rule `nondet`: sources of nondeterminism.
//!
//! The simulation must be a pure function of its seed; wall-clock
//! reads, ambient RNGs, OS threads and host-dependent parallelism
//! probes all break that. Every expression path is matched against the
//! configured source list (`Config::nondet_sources`, shared with
//! `nondet-taint`), plus two shapes no path list can express: string
//! literals naming `/proc/` (host-state reads) and argless
//! `XyzRng::default()` construction. Explicitly seeded RNGs
//! (`SmallRng::seed_from_u64`) are fine and not flagged.

use crate::ast::{self, Expr, Node};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::FileData;

pub fn check(cfg: &Config, files: &[FileData]) -> Vec<Diagnostic> {
    let sources: Vec<(Vec<&str>, String)> = cfg
        .nondet_sources
        .iter()
        .filter_map(|s| {
            Some((s.path.split("::").collect(), format!("{} `{}`", s.what.as_ref()?, s.path)))
        })
        .collect();
    let mut out = Vec::new();
    for f in files {
        if cfg.nondet_allow_files.contains(&f.rel) {
            continue;
        }
        let mut flag = |line: u32, message: String| {
            out.push(Diagnostic::new(&f.rel, line, "nondet", message));
        };
        ast::walk_file(&f.ast, &mut |n| match n {
            Node::Expr(Expr::Path(p)) => {
                let segs: Vec<&str> = p.segments.iter().map(|s| s.as_str()).collect();
                for (pat, what) in &sources {
                    if segs.windows(pat.len()).any(|w| w == pat.as_slice()) {
                        flag(p.line, format!("{what} outside the nondeterminism allowlist"));
                    }
                }
                // Argless `Default` RNG construction: `XyzRng::default()`.
                for w in segs.windows(2) {
                    if w[0].ends_with("Rng") && w[1] == "default" {
                        flag(p.line, format!("argless default RNG `{}::default()`", w[0]));
                    }
                }
            }
            // Host-state reads through `/proc`: peak RSS, CPU counts
            // and the like are host facts, not functions of the seed.
            // darms-lint: allow(nondet, reason = "the detector's own pattern string, not a host read")
            Node::Expr(Expr::Lit(l)) if l.text.contains("/proc/") => flag(
                l.line,
                format!("host-state read of {} outside the nondeterminism allowlist", l.text),
            ),
            _ => {}
        });
    }
    out
}
