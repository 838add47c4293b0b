//! Fixture: a hash set that never reaches output, behind a reasoned
//! `#[allow]`.
#[allow(
    clippy::disallowed_types,
    reason = "membership cache, iteration order never observed"
)]
pub fn dedup_count(xs: &[u64]) -> usize {
    let seen: std::collections::HashSet<u64> = xs.iter().copied().collect();
    seen.len()
}
