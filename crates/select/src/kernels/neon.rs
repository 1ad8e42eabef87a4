//! NEON kernels over 2×u64 lanes (aarch64).
//!
//! NEON has native unsigned 64-bit compares (`vcgtq_u64`), so no sign
//! bias is needed, but only two qword lanes per vector — the compress
//! step is a four-way branch on the 2-bit survivor mask rather than a
//! shuffle table. The three-stream partition does not pay for itself at
//! this width and stays scalar (see the dispatch layer).
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "neon")]` and must only
//! be called when `is_aarch64_feature_detected!("neon")` returned true;
//! the dispatch layer guarantees this. Wide (2-lane) stores are only
//! issued while `cursor + 2 <= limit`, with a scalar tail.

use core::arch::aarch64::*;

/// Kernel (a): Ψ-filter admit over `(u64, u64)` pairs; `vld2q_u64`
/// deinterleaves two pairs into an id vector and a value vector.
#[target_feature(enable = "neon")]
pub(super) unsafe fn admit_pairs_u64(
    items: &[(u64, u64)],
    t: u64,
    vals: &mut [u64],
    ids: &mut [u64],
    mut w: usize,
    hard_end: usize,
) -> usize {
    debug_assert!(w + items.len() <= hard_end && hard_end <= vals.len().min(ids.len()));
    let n = items.len();
    let src = items.as_ptr() as *const u64;
    let tv = vdupq_n_u64(t);
    let mut i = 0usize;
    while i + 2 <= n && w + 2 <= hard_end {
        let pair = vld2q_u64(src.add(2 * i));
        let (idv, vv) = (pair.0, pair.1);
        let keep = vcgtq_u64(vv, tv);
        let k0 = vgetq_lane_u64::<0>(keep) != 0;
        let k1 = vgetq_lane_u64::<1>(keep) != 0;
        if k0 && k1 {
            vst1q_u64(vals.as_mut_ptr().add(w), vv);
            vst1q_u64(ids.as_mut_ptr().add(w), idv);
            w += 2;
        } else if k0 {
            vals[w] = vgetq_lane_u64::<0>(vv);
            ids[w] = vgetq_lane_u64::<0>(idv);
            w += 1;
        } else if k1 {
            vals[w] = vgetq_lane_u64::<1>(vv);
            ids[w] = vgetq_lane_u64::<1>(idv);
            w += 1;
        }
        i += 2;
    }
    for &(id, v) in &items[i..] {
        vals[w] = v;
        ids[w] = id;
        w += usize::from(v > t);
    }
    w
}

/// Kernel (b) counting pass: `(#gt, #eq)` vs the pivot.
#[target_feature(enable = "neon")]
pub(super) unsafe fn count_gt_eq_u64(vals: &[u64], pivot: u64) -> (usize, usize) {
    let n = vals.len();
    let p = vals.as_ptr();
    let pv = vdupq_n_u64(pivot);
    let (mut gt, mut eq) = (0u64, 0u64);
    let mut i = 0usize;
    while i + 2 <= n {
        let v = vld1q_u64(p.add(i));
        let g = vcgtq_u64(v, pv);
        let e = vceqq_u64(v, pv);
        // Compare lanes are all-ones (= -1); negate-and-add to count.
        gt = gt
            .wrapping_sub(vgetq_lane_u64::<0>(g))
            .wrapping_sub(vgetq_lane_u64::<1>(g));
        eq = eq
            .wrapping_sub(vgetq_lane_u64::<0>(e))
            .wrapping_sub(vgetq_lane_u64::<1>(e));
        i += 2;
    }
    let (mut gt, mut eq) = (gt as usize, eq as usize);
    for &v in &vals[i..] {
        gt += usize::from(v > pivot);
        eq += usize::from(v == pivot);
    }
    (gt, eq)
}

/// Kernel (c) sweep: `(min, max)` of a non-empty lane.
#[target_feature(enable = "neon")]
pub(super) unsafe fn min_max_u64(vals: &[u64]) -> (u64, u64) {
    debug_assert!(!vals.is_empty());
    let n = vals.len();
    let p = vals.as_ptr();
    if n < 2 {
        return (vals[0], vals[0]);
    }
    let mut vmin = vld1q_u64(p);
    let mut vmax = vmin;
    let mut i = 2usize;
    while i + 2 <= n {
        let v = vld1q_u64(p.add(i));
        // No unsigned 64-bit min/max instruction: compare + bit-select.
        vmin = vbslq_u64(vcgtq_u64(vmin, v), v, vmin);
        vmax = vbslq_u64(vcgtq_u64(v, vmax), v, vmax);
        i += 2;
    }
    let mut mn = vgetq_lane_u64::<0>(vmin).min(vgetq_lane_u64::<1>(vmin));
    let mut mx = vgetq_lane_u64::<0>(vmax).max(vgetq_lane_u64::<1>(vmax));
    for &v in &vals[i..] {
        mn = mn.min(v);
        mx = mx.max(v);
    }
    (mn, mx)
}
