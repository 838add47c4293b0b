//! Fixture: the same exception, with its reason.
#[allow(clippy::disallowed_methods, reason = "a report's wall-clock stamp")]
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
