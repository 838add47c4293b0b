//! Fixture: ambient randomness behind a reasoned `#[allow]`.
use std::hash::BuildHasher;

#[allow(
    clippy::disallowed_types,
    reason = "interactive demo path, never inside a trial"
)]
pub fn roll() -> u64 {
    std::hash::RandomState::new().hash_one(0u64)
}
