//! Fixture: `unsafe` justified by a SAFETY comment.
pub fn first(xs: &[u32]) -> Option<u32> {
    if xs.is_empty() {
        return None;
    }
    // SAFETY: `xs` is not empty, so index 0 is in bounds.
    Some(unsafe { *xs.get_unchecked(0) })
}
