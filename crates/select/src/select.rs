//! Complete (non-incremental) selection.

/// Out-of-line panic for the `k >= len` contract violation, keeping the
/// cold formatting machinery off the selection hot path.
#[cold]
#[inline(never)]
fn index_out_of_range(k: usize, len: usize) -> ! {
    panic!("selection index {k} out of range {len}");
}

/// Rearranges `buf` so that its `k`-th smallest element (0-based) is at
/// index `k`, everything before it is `<=` it, and everything after is
/// `>=` it. Returns a reference to the element at index `k`.
///
/// This is [`slice::select_nth_unstable`]: introselect with a
/// median-of-medians fallback, so the worst case is `O(n)`
/// comparisons (`tests/proptest_select.rs` counts them on adversarial
/// inputs).
///
/// # Panics
///
/// Panics if `k >= buf.len()`.
pub fn nth_smallest<T: Ord>(buf: &mut [T], k: usize) -> &T {
    if k >= buf.len() {
        index_out_of_range(k, buf.len());
    }
    buf.select_nth_unstable(k).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_out_of_range_panics() {
        let mut v = vec![1, 2, 3];
        nth_smallest(&mut v, 3);
    }
}
