//! The benchmark's only wall-clock reads.

use std::sync::OnceLock;
// incam-lint: allow(wall-clock) — the benchmark measures real time; library code never does
use std::time::Instant;

/// Seconds since the first call, from a monotonic clock.
pub fn now_s() -> f64 {
    // incam-lint: allow(wall-clock) — the origin every benchmark time is measured from
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    // incam-lint: allow(wall-clock) — the one clock read, against that origin
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}
