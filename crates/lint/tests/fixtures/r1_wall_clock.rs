//! R1 fixture: wall-clock and ambient-randomness sources.

use std::time::SystemTime;

fn violations() -> u128 {
    let t = SystemTime::now();
    let i = std::time::Instant::now();
    let r = rand::thread_rng();
    let _ = (t, i, r);
    0
}

fn negatives() {
    // SystemTime::now() in a comment is fine.
    let s = "SystemTime and thread_rng() in a string are fine";
    let instant_like = Instant { raw: 0 };
    let _ = (s, instant_like);
}

struct Instant {
    raw: u64,
}

fn suppressed() -> std::time::Duration {
    // lmp-lint: allow(wall-clock) — a justified allow silences its line: host timing that never reaches a digest
    let start = std::time::Instant::now();
    start.elapsed()
}
