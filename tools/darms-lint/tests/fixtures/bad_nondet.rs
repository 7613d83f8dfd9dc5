// Fixture: nondeterminism sources outside the allowlist.

pub fn elapsed_ms() -> u128 {
    let start = std::time::Instant::now();
    start.elapsed().as_millis()
}

pub fn width() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn ambient_rngs() -> u64 {
    let a: u64 = rand::thread_rng().gen();
    let b: u64 = rand::random();
    let c = SmallRng::from_entropy().next_u64();
    let d = OsRng.next_u64();
    let e = SmallRng::default().next_u64();
    a ^ b ^ c ^ d ^ e
}

pub fn os_threads() {
    std::thread::spawn(|| {});
    let _ = std::thread::Builder::new().spawn(|| {});
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}

pub fn seeded_is_fine() -> u64 {
    SmallRng::seed_from_u64(7).next_u64()
}
