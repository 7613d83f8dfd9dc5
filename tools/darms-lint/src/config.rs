//! Lint configuration: what to scan, what is exempt, and where the
//! protocol enums live.

use std::path::PathBuf;

/// A protocol message enum and the checks it takes part in.
#[derive(Debug, Clone)]
pub struct ProtoEnum {
    /// Workspace-relative file declaring the enum.
    pub file: String,
    /// Enum name.
    pub name: String,
    /// Whether every variant needs a non-wildcard match arm somewhere
    /// in the workspace (`proto-unhandled`) and dispatches on the enum
    /// may not wildcard (`proto-wildcard`).
    pub exhaustive: bool,
    /// Whether the enum is a node set of the control-plane flow graph:
    /// every variant must also have both a send site
    /// (expression-position construction) and a handler
    /// (pattern-position match) — rule `proto-flow`.
    pub flow: bool,
    /// Whether handlers of this (flow) enum's requests are retriable and
    /// must consult an idempotency fence (reply cache / token /
    /// incarnation).
    pub retriable: bool,
}

/// A nondeterminism source: an API whose result is a host fact rather
/// than a function of the simulation seed.
#[derive(Debug, Clone)]
pub struct NondetSource {
    /// Path suffix, matched against the segments of expression paths:
    /// `Instant::now`, `thread_rng`.
    pub path: String,
    /// What a use is, for `nondet` findings (`wall-clock read`); `None`
    /// for wrappers such as `peak_rss_mib` whose body already holds
    /// the (waived) read.
    pub what: Option<String>,
    /// Whether `nondet-taint` follows the value a call returns into
    /// trace/metric sinks.
    pub taint: bool,
}

/// A metric/trace emission method whose name argument must appear in
/// the checked-in taxonomy (`metrics.toml`).
#[derive(Debug, Clone)]
pub struct MetricSink {
    /// Method name, e.g. `counter_inc`, `span_begin`.
    pub method: String,
    /// Zero-based position of the name argument.
    pub name_arg: usize,
}

#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root.
    pub root: PathBuf,
    /// Directories (or files), relative to `root`, to scan for `.rs` sources.
    pub scan_dirs: Vec<String>,
    /// Relative path prefixes excluded from the scan. `vendor/` is outside
    /// the determinism boundary (std-backed shims, not simulation logic)
    /// and the lint's own test fixtures are known-bad on purpose.
    pub exclude: Vec<String>,
    /// Files allowed to use wall-clock / threads / entropy: the sweep
    /// runner (real OS thread pool whose *output order* is made
    /// deterministic by index-ordered collection) and the perf-report
    /// harness (its entire job is measuring wall time).
    pub nondet_allow_files: Vec<String>,
    /// Path prefixes of trace-affecting crates: iteration order of
    /// unordered containers here can leak into traces. Each prefix is
    /// also the binding-collection scope for the unordered-iter rule.
    pub trace_affecting: Vec<String>,
    /// Protocol message enums: exhaustively handled, and/or nodes of
    /// the control-plane flow graph.
    pub proto_enums: Vec<ProtoEnum>,
    /// Identifier substrings that count as consulting an idempotency
    /// fence inside a retriable-request handler's enclosing function.
    pub fence_idents: Vec<String>,
    /// Metric/trace emission methods checked against the taxonomy.
    pub metric_sinks: Vec<MetricSink>,
    /// Workspace-relative path of the declared metric/trace taxonomy.
    pub registry_path: String,
    /// Nondeterminism sources outside the allowlist (`nondet` rule),
    /// and which of them `nondet-taint` follows into sinks.
    pub nondet_sources: Vec<NondetSource>,
    /// Method names that emit into traces/metrics/event payloads: a
    /// tainted value reaching any argument of these is a finding.
    pub taint_sink_fns: Vec<String>,
    /// Path patterns (`*` matches one segment, each pattern matches a
    /// prefix) of the library sources whose bare-`pub` fns, consts and
    /// statics need a use outside their own file's tests (`dead-api`;
    /// `bin/` trees are exempt).
    pub api_dirs: Vec<String>,
    /// Directories read only as `dead-api` use roots: parsed for uses
    /// of workspace items, never linted themselves.
    pub use_roots: Vec<String>,
}

impl Config {
    /// The standard configuration for this workspace.
    pub fn workspace(root: PathBuf) -> Config {
        let pe = |file: &str, name: &str| ProtoEnum {
            file: file.into(),
            name: name.into(),
            exhaustive: true,
            flow: false,
            retriable: false,
        };
        let flow = |file: &str, name: &str, retriable: bool| ProtoEnum {
            flow: true,
            retriable,
            ..pe(file, name)
        };
        let src = |path: &str, what: &str, taint: bool| NondetSource {
            path: path.into(),
            what: Some(what.into()),
            taint,
        };
        let ms = |method: &str, name_arg: usize| MetricSink { method: method.into(), name_arg };
        Config {
            root,
            scan_dirs: ["crates", "src", "tests", "examples", "tools"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            exclude: ["vendor", "target", "tools/darms-lint/tests/fixtures"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            nondet_allow_files: [
                "crates/experiments/src/runner.rs",
                "crates/experiments/src/bin/perf_report.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            trace_affecting: [
                "crates/sim/src",
                "crates/net/src",
                "crates/rms/src",
                "crates/sched/src",
                "crates/dac/src",
                "crates/mpi/src",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            proto_enums: vec![
                pe("crates/rms/src/proto.rs", "DynResource"),
                pe("crates/rms/src/proto.rs", "DynReject"),
                pe("crates/rms/src/proto.rs", "DeviceClass"),
                // Daemon requests are retried by the frontend on lost
                // replies; handlers must consult the reply cache /
                // incarnation fence.
                flow("crates/dac/src/runtime.rs", "ReqBody", true),
                pe("crates/dac/src/runtime.rs", "RepBody"),
                flow("crates/dac/src/collective.rs", "CollBody", false),
                flow("crates/mpi/src/runtime.rs", "CtlBody", false),
            ],
            fence_idents: ["seen", "reply_cache", "tombs", "incarnation", "token", "idempot"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            metric_sinks: vec![
                // MetricsRegistry: name is the first argument.
                ms("counter_add", 0),
                ms("counter_inc", 0),
                ms("counter", 0),
                ms("counter_handle", 0),
                ms("twg_set", 0),
                ms("twg_mean", 0),
                ms("twg_updates", 0),
                ms("observe", 0),
                ms("observe_duration", 0),
                ms("histogram", 0),
                ms("histogram_samples", 0),
                // Tracer: (time, source, source_name, name, ..): name
                // is the fourth argument. `counter` is keyed at both
                // positions; only string-literal arguments are checked,
                // which disambiguates the registry/tracer overload.
                ms("span_begin", 3),
                ms("span_end", 3),
                ms("instant", 3),
                ms("counter", 3),
            ],
            registry_path: "metrics.toml".into(),
            // Path-qualified where a bare name would collide with a
            // deterministic API (`ctx.now()` is sim time, not wall
            // time); `.elapsed()` on a tainted clock propagates via the
            // receiver, so it is not itself a source. Explicitly seeded
            // RNGs (`SmallRng::seed_from_u64`) are not sources.
            nondet_sources: vec![
                src("Instant::now", "wall-clock read", true),
                src("SystemTime::now", "wall-clock read", true),
                src("thread_rng", "ambient thread-local RNG", false),
                src("rand::random", "ambient RNG", false),
                src("thread::spawn", "OS thread", false),
                src("thread::Builder", "OS thread", false),
                src("thread::scope", "OS threads", false),
                src("available_parallelism", "host-dependent probe", false),
                src("from_entropy", "OS-entropy-seeded RNG", false),
                src("OsRng", "OS RNG", false),
                // Host RSS; its `/proc` read is flagged (and waived)
                // inside the wrapper itself.
                NondetSource { path: "peak_rss_mib".into(), what: None, taint: true },
            ],
            taint_sink_fns: [
                "trace",
                "span_begin",
                "span_end",
                "instant",
                "counter_add",
                "counter_inc",
                // `Counter::count_add`, the add of a pre-resolved
                // `counter_handle` slot.
                "count_add",
                "twg_set",
                "observe",
                "observe_duration",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            api_dirs: vec!["crates/*/src".into()],
            // The frozen benchmark package drives the workspace API
            // from outside the lint's scan set.
            use_roots: vec!["perfbench/src".into(), "perfbench/tests".into()],
        }
    }

    /// Lint a single file in isolation (fixture tests): same rule
    /// inputs as the workspace config (sinks, fences, taint names,
    /// `metrics.toml` resolved against `root`), but everything is
    /// trace-affecting, nothing is allow-listed, no use roots are read,
    /// no enums are registered, and no file is public API — callers
    /// fill in `proto_enums` and `api_dirs`.
    pub fn single_file(root: PathBuf, file: &str) -> Config {
        Config {
            scan_dirs: vec![file.to_string()],
            exclude: Vec::new(),
            nondet_allow_files: Vec::new(),
            trace_affecting: vec![String::new()],
            proto_enums: Vec::new(),
            api_dirs: Vec::new(),
            use_roots: Vec::new(),
            ..Config::workspace(root)
        }
    }
}
