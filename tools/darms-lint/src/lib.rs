//! darms-lint: workspace determinism & protocol static analysis.
//!
//! One front end: each file is lexed once, parsed into the lightweight
//! AST of [`ast`], and every rule family reads that AST (see DESIGN.md
//! §12 and §16):
//!
//! - `nondet` — wall-clock, ambient RNG, OS threads, parallelism
//!   probes and `/proc` reads outside the explicit allowlist;
//! - `unordered-iter` — iteration over `HashMap`/`HashSet` bindings in
//!   trace-affecting crates;
//! - `proto-unhandled` / `proto-wildcard` — protocol message enums
//!   with unhandled variants, and wildcard arms in protocol dispatches;
//! - `guard-across-await` — `Mutex` guards / `RefCell` borrows held
//!   across `.await`, tracked on let-binding scopes;
//! - `async-livelock` — loops in async process bodies with no await
//!   point and no bounded iteration;
//! - `proto-flow` — workspace message-flow graph: orphan sends, dead
//!   handlers, unfenced retriable-request handlers;
//! - `nondet-taint` — waived nondeterminism flowing into trace/metric
//!   sinks through bindings and calls;
//! - `name-registry` — metric/trace names not declared in
//!   `metrics.toml` (with near-miss suggestions);
//! - `dead-api` — bare-`pub` fns, consts and statics of the library
//!   crates that nothing uses outside their own file's tests.
//!
//! Sites can be waived with
//! `// darms-lint: allow(<rule>, reason = "...")`; a waiver without a
//! non-empty reason is itself a finding (rule `waiver`).

use std::fs;
use std::path::{Path, PathBuf};

pub mod ast;
pub mod config;
pub mod dataflow;
pub mod deny;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod registry;
pub mod waiver;
pub mod rules {
    pub mod deadapi;
    pub mod guard;
    pub mod names;
    pub mod nondet;
    pub mod protocol;
    pub mod protoflow;
    pub mod taint;
    pub mod unordered;
}

pub use config::{Config, MetricSink, NondetSource, ProtoEnum};
pub use diag::{findings_to_json, Diagnostic};
pub use waiver::Waiver;

/// A parsed source file with its waivers.
pub struct FileData {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    pub ast: ast::SourceFile,
    /// Well-formed waivers, each with the line span it covers.
    pub waivers: Vec<Waiver>,
    /// Malformed waivers (rule `waiver`).
    pub waiver_errors: Vec<Diagnostic>,
}

impl FileData {
    /// Lex and parse `src`, resolving its waivers against the tokens.
    pub fn parse(rel: &str, src: &str) -> FileData {
        let (tokens, comments) = lexer::lex(src);
        let ast = parser::parse(&tokens);
        let (waivers, waiver_errors) = waiver::parse(rel, &comments, &tokens, &ast);
        FileData { rel: rel.to_string(), ast, waivers, waiver_errors }
    }

    /// Is the file under a `tests/` tree (integration tests)?
    pub fn in_tests_tree(&self) -> bool {
        self.rel.starts_with("tests/") || self.rel.contains("/tests/")
    }
}

/// The result of a lint run.
pub struct LintReport {
    pub findings: Vec<Diagnostic>,
    /// All well-formed waivers seen (applied or not).
    pub waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn collect_files(cfg: &Config, dirs: &[String]) -> std::io::Result<Vec<FileData>> {
    let mut paths = Vec::new();
    for d in dirs {
        let p = cfg.root.join(d);
        if p.is_file() {
            paths.push(p);
        } else {
            walk(&p, &mut paths);
        }
    }
    paths.sort();
    paths.dedup();
    let mut files = Vec::new();
    for p in paths {
        let rel = p.strip_prefix(&cfg.root).unwrap_or(&p).to_string_lossy().replace('\\', "/");
        if cfg.exclude.iter().any(|e| rel.starts_with(e.as_str())) {
            continue;
        }
        files.push(FileData::parse(&rel, &fs::read_to_string(&p)?));
    }
    Ok(files)
}

/// Collect and parse the scan set without running any rules. Used by
/// the `graph` subcommand and the parse-coverage gate.
pub fn load_files(cfg: &Config) -> std::io::Result<Vec<FileData>> {
    collect_files(cfg, &cfg.scan_dirs)
}

/// Collect and parse the `dead-api` use roots (`Config::use_roots`).
pub fn load_use_roots(cfg: &Config) -> std::io::Result<Vec<FileData>> {
    collect_files(cfg, &cfg.use_roots)
}

/// Run the full lint over `cfg`.
pub fn run(cfg: &Config) -> std::io::Result<LintReport> {
    let files = load_files(cfg)?;
    let mut findings = Vec::new();
    let mut waivers = Vec::new();
    for f in &files {
        waivers.extend(f.waivers.iter().cloned());
        findings.extend(f.waiver_errors.iter().cloned());
        // Parse errors are findings (rule `parse`): every downstream
        // AST rule silently under-reports on a file it cannot parse.
        for e in &f.ast.errors {
            findings.push(Diagnostic {
                file: f.rel.clone(),
                line: e.line,
                rule: "parse".into(),
                message: format!("parse error: {}", e.msg),
            });
        }
    }
    findings.extend(rules::nondet::check(cfg, &files));
    findings.extend(rules::unordered::check(cfg, &files));
    findings.extend(rules::guard::check(&files));
    findings.extend(rules::protocol::check(cfg, &files));
    findings.extend(rules::protoflow::check(cfg, &files));
    findings.extend(rules::taint::check(cfg, &files));
    findings.extend(rules::names::check(cfg, &files));
    findings.extend(rules::deadapi::check(cfg, &files, &load_use_roots(cfg)?));
    let mut findings = waiver::apply(findings, &waivers);
    findings.sort();
    findings.dedup();
    Ok(LintReport { findings, waivers, files_scanned: files.len() })
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        cur = dir.parent().map(|p| p.to_path_buf());
    }
    None
}
