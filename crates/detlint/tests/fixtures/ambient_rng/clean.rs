//! Fixture: a value derived from a seed alone. RandomState named in a
//! comment or a string is not a use of it.
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

pub fn roll(seed: u64) -> u64 {
    // RandomState is banned; this comment saying so is not a finding
    BuildHasherDefault::<DefaultHasher>::default().hash_one(seed)
}

pub fn policy() -> &'static str {
    "seed a DetRng; never RandomState::new()"
}
