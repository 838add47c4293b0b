//! Fixture: a wall-clock read behind a reasoned `#[allow]`.
use std::time::Instant;

pub fn metric() -> u128 {
    #[allow(clippy::disallowed_methods, reason = "reporting-only latency metric")]
    let t0 = Instant::now();
    t0.elapsed().as_millis()
}
