//! Fixture: ambient randomness — std's per-process random hasher keys,
//! by either of their paths.
use std::hash::{BuildHasher, RandomState};

pub fn roll() -> u64 {
    RandomState::new().hash_one(0u64)
}

pub fn roll_again() -> u64 {
    std::collections::hash_map::RandomState::new().hash_one(1u64)
}
