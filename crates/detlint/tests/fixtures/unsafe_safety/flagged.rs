//! Fixture: an `unsafe` block without a SAFETY comment.
pub fn first(xs: &[u32]) -> Option<u32> {
    if xs.is_empty() {
        return None;
    }
    Some(unsafe { *xs.get_unchecked(0) })
}
