// Fixture: deterministic sim time flowing into a sink is fine, and a
// (waived) wall-clock reading that only lands in a non-sink stats
// field is not a taint finding.

pub struct Metrics;

impl Metrics {
    pub fn counter_add(&self, _name: &str, _v: u64) {}
}

pub struct Ctx;

impl Ctx {
    pub fn now(&self) -> u64 {
        0
    }
}

pub struct Stats {
    pub wall_nanos: u64,
}

pub fn report(m: &Metrics, ctx: &Ctx, st: &mut Stats) {
    let t = ctx.now();
    m.counter_add("net.messages", t);
    // darms-lint: allow(nondet, reason = "wall budget for the perf footer only")
    let wall = std::time::Instant::now();
    st.wall_nanos = wall.elapsed().as_nanos() as u64;
}

pub struct Counter;

impl Counter {
    pub fn count_add(&self, _n: u64) {}
}

pub fn report_handle(c: &Counter, ctx: &Ctx) {
    c.count_add(ctx.now());
}
