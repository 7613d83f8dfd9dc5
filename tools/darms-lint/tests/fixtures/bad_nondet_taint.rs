// Fixture: a wall-clock reading must not flow into a trace/metric
// sink — here it travels through two intermediate bindings before
// landing in a counter.

pub struct Metrics;

impl Metrics {
    pub fn counter_add(&self, _name: &str, _v: u64) {}
}

pub fn report(m: &Metrics) {
    let start = std::time::Instant::now();
    let spent = start.elapsed().as_nanos() as u64;
    m.counter_add("net.messages", spent);
}

pub struct Counter;

impl Counter {
    pub fn count_add(&self, _n: u64) {}
}

// The add of a pre-resolved counter handle is a sink as well.
pub fn report_handle(c: &Counter) {
    let start = std::time::Instant::now();
    c.count_add(start.elapsed().as_nanos() as u64);
}

pub struct Ctx;

impl Ctx {
    pub fn trace(&mut self, _event: impl std::fmt::Display) {}
}

// Trace text passed unformatted as `format_args!` still carries the
// taint of its arguments.
pub fn report_lazy(c: &mut Ctx) {
    let t = std::time::Instant::now();
    c.trace(format_args!("took {:?}", t.elapsed()));
}

// A binding captured inside the format string carries its taint too.
pub fn report_captured(c: &mut Ctx) {
    let t = std::time::Instant::now().elapsed();
    c.trace(format_args!("took {t:?}"));
}
