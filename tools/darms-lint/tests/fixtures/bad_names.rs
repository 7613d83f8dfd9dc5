// Fixture: metric/trace names must be declared in metrics.toml — the
// near-miss gets a Levenshtein "did you mean" suggestion, the unknown
// name does not.

pub struct Metrics;

impl Metrics {
    pub fn counter_inc(&self, _name: &str) {}
    pub fn observe(&self, _name: &str, _v: f64) {}
}

pub fn tick(m: &Metrics) {
    m.counter_inc("sched.iteratons");
    m.observe("dac.unheard_of", 1.0);
}

pub struct Counter;

impl Counter {
    pub fn count_add(&self, _n: u64) {}
}

impl Metrics {
    pub fn counter_handle(&self, _name: &str) -> Counter {
        Counter
    }
}

// A pre-resolved handle is keyed by name too: the name is checked where
// the handle is taken.
pub fn hot(m: &Metrics) {
    m.counter_handle("net.mesages").count_add(1);
}
