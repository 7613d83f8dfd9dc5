//! Known-bad fixture for `dead-api`: public items whose only uses are
//! this file's own tests.

/// Used only by the tests below.
pub fn only_tested() -> u32 {
    1
}

/// Used nowhere at all.
pub const UNUSED_LIMIT: u32 = 8;

/// A static no code reads.
pub static UNUSED_LABEL: &str = "pool";

pub struct Pool {
    free: u32,
}

impl Pool {
    /// An inherent method called only from a test; naming
    /// [`Pool::drain`] in a doc comment is not a use either.
    pub fn drain(&mut self) {
        self.free = 0;
    }

    /// Used by live code below: not flagged.
    pub fn size(&self) -> u32 {
        self.free
    }
}

/// Crate-visible: not public API, not flagged.
pub(crate) fn crate_only() -> u32 {
    3
}

fn report(p: &Pool) -> u32 {
    p.size() + crate_only()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helpers are not API.
    pub fn fixture_pool() -> Pool {
        Pool { free: 2 }
    }

    #[test]
    fn exercises_the_dead_items() {
        let mut p = fixture_pool();
        p.drain();
        assert_eq!(only_tested(), 1);
        assert_eq!(report(&p), 3);
    }
}
