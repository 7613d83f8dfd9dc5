# Developer convenience targets. `make verify` is the full pre-merge
# gate: formatting, lints as errors, a release build, the quiet test
# suite, and the bench regression check — the same sequence CI runs.
# `make bench` runs the perf-regression macro suite and refreshes
# BENCH_sim.json; `make bench-smoke` is the tiny-workload variant (one
# trial per scenario); `make bench-check` runs the smoke suite and
# fails if ping-pong or datacenter@1k-hosts throughput drops more
# than 20% below the committed BENCH_sim.json. `make chaos-smoke` runs the seeded
# fault-injection sweep over the default 50 seeds (each run twice to
# prove byte-identical reproduction); for longer soaks run e.g.
# `cargo run --release -p darms-experiments --bin chaos_sweep -- --seeds 0..5000`.
# `make soak-smoke` runs the darms-soak cell matrix (seed x fault-plan
# x workload, every cell run twice for byte-identity, invariants
# audited, SLO quantiles reported; DESIGN.md §13); for a long soak run
# e.g. `cargo run --release -p darms-experiments --bin darms_soak -- --seeds 0..100 --budget-secs 600`.
# `make fabric-smoke` runs the backend conformance suite against every
# device class plus the mixed GPU+DPU scenario twice for byte-identity
# (DESIGN.md §15).
# `make lint-darms` runs the workspace determinism & protocol lint
# (DESIGN.md §12, §16) in deny mode; `make lint-graph` renders the
# control-plane message-flow graph to target/lint/control_plane.dot,
# writes the schema-versioned diagnostics document to
# target/lint/diagnostics.json, and fails if any flow-enum variant is
# missing a send site or handler (orphan sends / dead handlers gate
# `make verify` through it); `make deny` audits Cargo.lock and the
# crate licenses against deny.toml. `make bench-selftest` runs the
# frozen benchmark package's own tests (perfbench/), so a workspace API
# change that breaks the benchmark fails `make verify`.

.PHONY: verify fmt lint lint-darms lint-graph deny build test bench bench-smoke bench-check bench-selftest chaos-smoke soak-smoke fabric-smoke

verify: fmt lint lint-darms lint-graph deny build test bench-selftest chaos-smoke soak-smoke fabric-smoke bench-check

fmt:
	cargo fmt --all --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

lint-darms:
	cargo run --release -q -p darms-lint -- --deny

lint-graph:
	cargo run --release -q -p darms-lint -- graph --dot --check \
		--out target/lint/control_plane.dot --json-out target/lint/diagnostics.json

deny:
	cargo run --release -q -p darms-lint -- deny

build:
	cargo build --release

test:
	cargo test -q

bench:
	cargo run --release -p darms-experiments --bin perf_report

bench-smoke:
	cargo run --release -p darms-experiments --bin perf_report -- --smoke --out target/BENCH_sim.smoke.json

bench-check:
	cargo run --release -p darms-experiments --bin perf_report -- --smoke --out target/BENCH_sim.smoke.json --check BENCH_sim.json

bench-selftest:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml

chaos-smoke:
	cargo run --release -p darms-experiments --bin chaos_sweep -- --smoke

soak-smoke:
	cargo run --release -p darms-experiments --bin darms_soak -- --smoke

fabric-smoke:
	cargo run --release -p darms-experiments --bin fabric_smoke
