// Fixture: declared metric names lint clean, and dynamic
// (non-literal) names are out of the rule's scope.

pub struct Metrics;

impl Metrics {
    pub fn counter_inc(&self, _name: &str) {}
    pub fn observe(&self, _name: &str, _v: f64) {}
}

pub fn tick(m: &Metrics, dynamic: &str) {
    m.counter_inc("sched.iterations");
    m.observe("rms.qsub_to_run", 2.0);
    m.counter_inc(dynamic);
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

pub fn hot(m: &Metrics) {
    m.counter_handle("net.messages").count_add(1);
}
