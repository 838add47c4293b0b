//! Fixture: an exception to a rule that does not say why.
#[allow(clippy::disallowed_methods)]
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
