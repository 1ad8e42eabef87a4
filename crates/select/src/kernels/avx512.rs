//! AVX-512F kernels over 8×u64 lanes (x86_64).
//!
//! Where the AVX2 tier emulates unsigned compares (sign-bias XOR) and
//! compressed stores (16-entry shuffle table + full-width store), this
//! tier uses the native instructions: `vpcmpuq` compares unsigned
//! directly into a `__mmask8`, `vpcompressq` with that mask writes
//! *exactly* the surviving lanes (no garbage past the cursor, so no
//! spill-region reasoning is needed), and `vpermt2q` deinterleaves
//! `(id, val)` pairs from two source vectors in one shuffle.
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "avx512f")]` and must
//! only be called when `is_x86_feature_detected!("avx512f")` returned
//! true — the dispatch layer in [`super`] guarantees this. Masked
//! compress stores touch only the lanes the mask admits, which by the
//! callers' cursor invariants always lie inside the destination slice.

use core::arch::x86_64::*;

/// `vpermt2q` index vectors selecting the id (even) and value (odd)
/// qwords of 8 interleaved `(id, val)` pairs split across two vectors.
const IDX_ID: [i64; 8] = [0, 2, 4, 6, 8, 10, 12, 14];
const IDX_V: [i64; 8] = [1, 3, 5, 7, 9, 11, 13, 15];

/// Kernel (a): Ψ-filter admit over `(u64, u64)` pairs. See
/// [`super::Kernel::admit_pairs`] for the contract; `threshold` is
/// always present here (the fill phase without a threshold is a plain
/// copy the scalar path handles).
#[target_feature(enable = "avx512f")]
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
    let src = items.as_ptr() as *const i64;
    let vp = vals.as_mut_ptr();
    let ip = ids.as_mut_ptr();
    let tv = _mm512_set1_epi64(t as i64);
    let idx_id = _mm512_loadu_si512(IDX_ID.as_ptr() as *const _);
    let idx_v = _mm512_loadu_si512(IDX_V.as_ptr() as *const _);
    let mut i = 0usize;
    while i + 8 <= n {
        let a = _mm512_loadu_si512(src.add(2 * i) as *const _);
        let b = _mm512_loadu_si512(src.add(2 * i + 8) as *const _);
        let vv = _mm512_permutex2var_epi64(a, idx_v, b);
        let m = _mm512_cmpgt_epu64_mask(vv, tv);
        let idv = _mm512_permutex2var_epi64(a, idx_id, b);
        // Compress stores write exactly popcount(m) lanes at the
        // cursor — never past it — so the `w + len <= hard_end`
        // contract alone keeps every store in bounds.
        _mm512_mask_compressstoreu_epi64(vp.add(w) as *mut _, m, vv);
        _mm512_mask_compressstoreu_epi64(ip.add(w) as *mut _, m, idv);
        w += m.count_ones() as usize;
        i += 8;
    }
    for &(id, v) in &items[i..] {
        vals[w] = v;
        ids[w] = id;
        w += usize::from(v > t);
    }
    w
}

/// Kernel (b) counting pass: `(#gt, #eq)` vs the pivot.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn count_gt_eq_u64(vals: &[u64], pivot: u64) -> (usize, usize) {
    let n = vals.len();
    let p = vals.as_ptr();
    let pv = _mm512_set1_epi64(pivot as i64);
    let (mut gt, mut eq) = (0usize, 0usize);
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm512_loadu_si512(p.add(i) as *const _);
        gt += _mm512_cmpgt_epu64_mask(v, pv).count_ones() as usize;
        eq += _mm512_cmpeq_epi64_mask(v, pv).count_ones() as usize;
        i += 8;
    }
    for &v in &vals[i..] {
        gt += usize::from(v > pivot);
        eq += usize::from(v == pivot);
    }
    (gt, eq)
}

/// Kernel (c) sweep: `(min, max)` of a non-empty lane.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn min_max_u64(vals: &[u64]) -> (u64, u64) {
    debug_assert!(!vals.is_empty());
    let n = vals.len();
    let p = vals.as_ptr();
    if n < 8 {
        let (mut mn, mut mx) = (vals[0], vals[0]);
        for &v in &vals[1..] {
            mn = mn.min(v);
            mx = mx.max(v);
        }
        return (mn, mx);
    }
    // Two independent accumulator chains hide the min/max latency.
    let first = _mm512_loadu_si512(p as *const _);
    let (mut mn0, mut mn1) = (first, first);
    let (mut mx0, mut mx1) = (first, first);
    let mut i = 8usize;
    while i + 16 <= n {
        let v0 = _mm512_loadu_si512(p.add(i) as *const _);
        let v1 = _mm512_loadu_si512(p.add(i + 8) as *const _);
        mn0 = _mm512_min_epu64(mn0, v0);
        mx0 = _mm512_max_epu64(mx0, v0);
        mn1 = _mm512_min_epu64(mn1, v1);
        mx1 = _mm512_max_epu64(mx1, v1);
        i += 16;
    }
    while i + 8 <= n {
        let v = _mm512_loadu_si512(p.add(i) as *const _);
        mn0 = _mm512_min_epu64(mn0, v);
        mx0 = _mm512_max_epu64(mx0, v);
        i += 8;
    }
    let vmin = _mm512_min_epu64(mn0, mn1);
    let vmax = _mm512_max_epu64(mx0, mx1);
    let mut lanes_min = [0u64; 8];
    let mut lanes_max = [0u64; 8];
    _mm512_storeu_si512(lanes_min.as_mut_ptr() as *mut _, vmin);
    _mm512_storeu_si512(lanes_max.as_mut_ptr() as *mut _, vmax);
    let mut mn = lanes_min[0];
    let mut mx = lanes_max[0];
    for l in 1..8 {
        mn = mn.min(lanes_min[l]);
        mx = mx.max(lanes_max[l]);
    }
    for &v in &vals[i..] {
        mn = mn.min(v);
        mx = mx.max(v);
    }
    (mn, mx)
}

/// Kernel (b): stable three-stream partition into descending region
/// order (`> | == | <`), counts pre-computed by the caller. Compress
/// stores emit exactly each class's lanes at its cursor, so unlike the
/// AVX2 tier no spill-region fallback is needed anywhere.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn partition3_desc_u64(
    vals: &[u64],
    ids: &[u64],
    pivot: u64,
    ngt: usize,
    neq: usize,
    out_vals: &mut [u64],
    out_ids: &mut [u64],
) {
    let n = vals.len();
    let eq_end = ngt + neq;
    let (mut wg, mut we, mut wl) = (0usize, ngt, eq_end);
    let vp = vals.as_ptr();
    let ip = ids.as_ptr();
    let ovp = out_vals.as_mut_ptr();
    let oip = out_ids.as_mut_ptr();
    let pv = _mm512_set1_epi64(pivot as i64);
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm512_loadu_si512(vp.add(i) as *const _);
        let idv = _mm512_loadu_si512(ip.add(i) as *const _);
        let mg = _mm512_cmpgt_epu64_mask(v, pv);
        let me = _mm512_cmpeq_epi64_mask(v, pv);
        let ml = !(mg | me);
        _mm512_mask_compressstoreu_epi64(ovp.add(wg) as *mut _, mg, v);
        _mm512_mask_compressstoreu_epi64(oip.add(wg) as *mut _, mg, idv);
        wg += mg.count_ones() as usize;
        _mm512_mask_compressstoreu_epi64(ovp.add(we) as *mut _, me, v);
        _mm512_mask_compressstoreu_epi64(oip.add(we) as *mut _, me, idv);
        we += me.count_ones() as usize;
        _mm512_mask_compressstoreu_epi64(ovp.add(wl) as *mut _, ml, v);
        _mm512_mask_compressstoreu_epi64(oip.add(wl) as *mut _, ml, idv);
        wl += ml.count_ones() as usize;
        i += 8;
    }
    for j in i..n {
        let (v, id) = (vals[j], ids[j]);
        let w = if v > pivot {
            &mut wg
        } else if v == pivot {
            &mut we
        } else {
            &mut wl
        };
        out_vals[*w] = v;
        out_ids[*w] = id;
        *w += 1;
    }
    debug_assert!(wg == ngt && we == eq_end && wl == n);
}
