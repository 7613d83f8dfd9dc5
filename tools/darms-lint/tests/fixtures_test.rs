//! Snapshot tests for the lint rules: each known-bad fixture must
//! produce exactly the findings pinned in its `.expected.json`, and the
//! known-good fixtures must come back clean.

use std::fs;
use std::path::PathBuf;

use darms_lint::{findings_to_json, Config, ProtoEnum};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

/// Lint one fixture file in isolation: the fixture directory is the
/// config root (so `metrics.toml` there is the taxonomy), every file
/// is trace-affecting, and nothing is on the nondet allowlist.
/// `proto` registers an enum in the fixture as an exhaustively handled
/// protocol enum; `flow` registers one as a retriable flow-graph enum
/// only.
fn fixture_config(file: &str, proto: Option<&str>, flow: Option<&str>) -> Config {
    let mut cfg = Config::single_file(fixtures_root(), file);
    let enum_at = |name: &str, flow: bool| ProtoEnum {
        file: file.to_string(),
        name: name.to_string(),
        exhaustive: !flow,
        flow,
        retriable: flow,
    };
    cfg.proto_enums = proto
        .map(|n| enum_at(n, false))
        .into_iter()
        .chain(flow.map(|n| enum_at(n, true)))
        .collect();
    cfg
}

fn lint_fixture(file: &str, proto: Option<&str>, flow: Option<&str>) -> String {
    lint_with(file, &fixture_config(file, proto, flow))
}

fn lint_with(file: &str, cfg: &Config) -> String {
    let report = darms_lint::run(cfg).expect("fixture lint run");
    assert_eq!(report.files_scanned, 1, "fixture {file} not found");
    findings_to_json(&report.findings)
}

fn assert_snapshot(file: &str, proto: Option<&str>) {
    assert_snapshot_flow(file, proto, None)
}

fn assert_snapshot_flow(file: &str, proto: Option<&str>, flow: Option<&str>) {
    check_snapshot(file, &lint_fixture(file, proto, flow));
}

fn check_snapshot(file: &str, actual: &str) {
    let expected_path =
        fixtures_root().join(format!("{}.expected.json", file.trim_end_matches(".rs")));
    // `DARMS_LINT_BLESS=1 cargo test -p darms-lint` rewrites the
    // snapshots instead of diffing them.
    if std::env::var_os("DARMS_LINT_BLESS").is_some() {
        fs::write(&expected_path, format!("{}\n", actual.trim())).expect("bless snapshot");
        return;
    }
    let expected = fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
    assert_eq!(actual.trim(), expected.trim(), "findings for {file} diverged from its snapshot");
}

#[test]
fn bad_nondet_matches_snapshot() {
    assert_snapshot("bad_nondet.rs", None);
}

#[test]
fn bad_unordered_matches_snapshot() {
    assert_snapshot("bad_unordered.rs", None);
}

#[test]
fn bad_guard_await_matches_snapshot() {
    assert_snapshot("bad_guard_await.rs", None);
}

/// Pins detection in the kernel-fast-path shape: `RefCell` borrows of
/// the shared kernel (`Rc<RefCell<Kernel>>`) live across a park point.
#[test]
fn bad_guard_kernel_matches_snapshot() {
    assert_snapshot("bad_guard_kernel.rs", None);
}

#[test]
fn bad_proto_matches_snapshot() {
    assert_snapshot("bad_proto.rs", Some("WireMsg"));
}

/// Pins the fabric shape: a fieldless `DeviceClass`-style enum whose
/// dispatch wildcards the non-GPU classes — the unhandled class and the
/// wildcard arm must both be flagged.
#[test]
fn bad_device_class_matches_snapshot() {
    assert_snapshot("bad_device_class.rs", Some("DeviceClass"));
}

#[test]
fn bad_waiver_matches_snapshot() {
    assert_snapshot("bad_waiver.rs", None);
}

/// The soak binary's wall-clock budget read is only acceptable behind a
/// waiver *with a reason*; stripped of the reason, both the waiver and
/// the underlying nondet read must be flagged.
#[test]
fn bad_soak_waiver_matches_snapshot() {
    assert_snapshot("bad_soak_waiver.rs", None);
}

/// The four new rule families, bad/good snapshot pairs.
#[test]
fn bad_proto_flow_matches_snapshot() {
    assert_snapshot_flow("bad_proto_flow.rs", None, Some("FlowMsg"));
}

#[test]
fn bad_nondet_taint_matches_snapshot() {
    assert_snapshot("bad_nondet_taint.rs", None);
}

#[test]
fn bad_names_matches_snapshot() {
    assert_snapshot("bad_names.rs", None);
}

#[test]
fn bad_livelock_matches_snapshot() {
    assert_snapshot("bad_livelock.rs", None);
}

/// `dead-api` runs only where `api_dirs` reaches, so its pair is
/// linted with the fixture registered as a library source.
fn lint_api_fixture(file: &str) -> String {
    let mut cfg = fixture_config(file, None, None);
    cfg.api_dirs = vec![String::new()];
    lint_with(file, &cfg)
}

#[test]
fn bad_dead_api_matches_snapshot() {
    check_snapshot("bad_dead_api.rs", &lint_api_fixture("bad_dead_api.rs"));
}

#[test]
fn good_dead_api_is_clean() {
    let json = lint_api_fixture("good_dead_api.rs");
    assert_eq!(json, "[\n]", "good_dead_api.rs should lint clean, got: {json}");
}

#[test]
fn good_fixtures_are_clean() {
    for file in [
        "good_clean.rs",
        "good_waiver.rs",
        "good_waiver_multiline.rs",
        "good_names.rs",
        "good_nondet_taint.rs",
        "good_livelock.rs",
    ] {
        let json = lint_fixture(file, None, None);
        assert_eq!(json, "[\n]", "{file} should lint clean, got: {json}");
    }
    // The good flow fixture needs its enum registered as retriable.
    let json = lint_fixture("good_proto_flow.rs", None, Some("FlowMsg"));
    assert_eq!(json, "[\n]", "good_proto_flow.rs should lint clean, got: {json}");
    // Mailbox filters are exempt from `proto-wildcard`; the fixture's
    // enum must be registered for the exemption to be exercised.
    let json = lint_fixture("good_proto_filter.rs", Some("Mail"), None);
    assert_eq!(json, "[\n]", "good_proto_filter.rs should lint clean, got: {json}");
}

#[test]
fn good_waiver_is_recorded() {
    let report =
        darms_lint::run(&fixture_config("good_waiver.rs", None, None)).expect("fixture lint run");
    assert_eq!(report.waivers.len(), 1);
    assert_eq!(report.waivers[0].rule, "unordered-iter");
    assert!(!report.waivers[0].reason.is_empty());
}

/// Satellite regression for the waiver-span fix: the waiver above a
/// *multi-line* statement must cover every line of that statement, not
/// just the first — the flagged `.keys()` call sits two lines below
/// the comment.
#[test]
fn multiline_waiver_covers_full_statement() {
    let report = darms_lint::run(&fixture_config("good_waiver_multiline.rs", None, None))
        .expect("fixture lint run");
    assert_eq!(report.waivers.len(), 1, "waiver should parse");
    assert!(
        report.findings.is_empty(),
        "waiver must cover the whole statement span, got: {:?}",
        report.findings
    );
}
