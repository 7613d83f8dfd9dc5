//! Known-good fixture for `dead-api`: every public item has a use in
//! live code.

pub use self::limits::HORIZON;

/// Read through a format-string capture.
pub const HORIZON_LABEL: &str = "horizon";

/// Read through a macro argument.
pub static STEP: u64 = 2;

pub struct Pool {
    pub size: u64,
}

impl Pool {
    /// Called as a method.
    pub fn grow(&mut self) {
        self.size = step(self.size);
    }
}

/// Called through a path.
pub fn step(x: u64) -> u64 {
    x + STEP
}

/// Kept without a use on purpose: the waiver says why.
// darms-lint: allow(dead-api, reason = "kept for downstream users")
pub fn kept_for_users() {}

mod limits {
    /// Used only through the re-export above, then by `main`.
    pub const HORIZON: u64 = 10;
}

fn main() {
    let mut p = Pool { size: 0 };
    p.grow();
    assert!(p.size < HORIZON);
    println!("{HORIZON_LABEL}: {}", p.size);
}
