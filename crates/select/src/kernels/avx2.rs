//! AVX2 kernels over 4×u64 lanes (x86_64).
//!
//! Shared building blocks:
//!
//! * **unsigned compares** — AVX2 only has signed 64-bit compares
//!   (`_mm256_cmpgt_epi64`), so both operands are biased by XOR-ing the
//!   sign bit, which maps unsigned order onto signed order;
//! * **left-pack compress** — a 4-bit survivor mask (from
//!   `_mm256_movemask_pd` over the compare result) indexes a 16-entry
//!   table of `_mm256_permutevar8x32_epi32` shuffles that moves the
//!   surviving qword lanes to the front in lane order, after which one
//!   unaligned store plus a popcount cursor advance emits them;
//! * **deinterleave** — `(id, val)` pairs are split into an id and a
//!   value vector with `_mm256_unpack{lo,hi}_epi64`, whose 128-bit-lane
//!   interleaving is undone by `_mm256_permute4x64_epi64(x, 0xD8)` so
//!   both vectors are in arrival order (this keeps SIMD output
//!   bit-identical to the scalar reference).
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "avx2")]` and must only
//! be called when `is_x86_feature_detected!("avx2")` returned true —
//! the dispatch layer in [`super`] guarantees this. Wide stores are
//! only issued while `cursor + 4 <= limit` for the region being
//! written, so no store ever leaves the caller-provided bounds; the
//! remainder runs the scalar tail.

use core::arch::x86_64::*;

/// Left-pack shuffles: entry `m` lists, as 8×u32 indices, the qword
/// lanes whose mask bit is set (in lane order), each as its (lo, hi)
/// dword pair; trailing slots replicate index 0 and are dead lanes.
static PACK: [[u32; 8]; 16] = pack_table();

const fn pack_table() -> [[u32; 8]; 16] {
    let mut t = [[0u32; 8]; 16];
    let mut m = 0usize;
    while m < 16 {
        let mut out = 0usize;
        let mut lane = 0usize;
        while lane < 4 {
            if m & (1 << lane) != 0 {
                t[m][out] = (2 * lane) as u32;
                t[m][out + 1] = (2 * lane + 1) as u32;
                out += 2;
            }
            lane += 1;
        }
        m += 1;
    }
    t
}

/// Left-pack shuffles for vectors still in `unpack{lo,hi}_epi64`
/// cross-lane order, where physical qword lane `j` holds arrival
/// element `[0, 2, 1, 3][j]`. Visiting physical lanes in arrival order
/// folds the order fixup into the compress itself, saving the
/// `permute4x64` per vector that [`PACK`] would otherwise require.
static PACK_ILV: [[u32; 8]; 16] = pack_table_interleaved();

const fn pack_table_interleaved() -> [[u32; 8]; 16] {
    let visit = [0usize, 2, 1, 3];
    let mut t = [[0u32; 8]; 16];
    let mut m = 0usize;
    while m < 16 {
        let mut out = 0usize;
        let mut k = 0usize;
        while k < 4 {
            let lane = visit[k];
            if m & (1 << lane) != 0 {
                t[m][out] = (2 * lane) as u32;
                t[m][out + 1] = (2 * lane + 1) as u32;
                out += 2;
            }
            k += 1;
        }
        m += 1;
    }
    t
}

/// XOR the sign bit into each qword: maps unsigned order to signed.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bias(v: __m256i) -> __m256i {
    _mm256_xor_si256(v, _mm256_set1_epi64x(i64::MIN))
}

/// 4-bit mask (bit j = qword lane j) from a full-lane compare result.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn qmask(cmp: __m256i) -> usize {
    _mm256_movemask_pd(_mm256_castsi256_pd(cmp)) as usize
}

/// Compress-stores the masked qword lanes of `v` at `dst[w..]` (one
/// 4-wide store; caller guarantees `w + 4 <= limit`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn compress_store(dst: *mut u64, w: usize, v: __m256i, mask: usize) {
    let perm = _mm256_loadu_si256(PACK[mask].as_ptr() as *const __m256i);
    let packed = _mm256_permutevar8x32_epi32(v, perm);
    _mm256_storeu_si256(dst.add(w) as *mut __m256i, packed);
}

/// [`compress_store`] for vectors still in `unpack` cross-lane order
/// (the mask is over the same physical lanes); emits arrival order.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn compress_store_ilv(dst: *mut u64, w: usize, v: __m256i, mask: usize) {
    let perm = _mm256_loadu_si256(PACK_ILV[mask].as_ptr() as *const __m256i);
    let packed = _mm256_permutevar8x32_epi32(v, perm);
    _mm256_storeu_si256(dst.add(w) as *mut __m256i, packed);
}

/// Kernel (a): Ψ-filter admit over `(u64, u64)` pairs. See
/// [`super::Kernel::admit_pairs`] for the contract; `threshold` is
/// always present here (the fill phase without a threshold is a plain
/// copy the scalar path handles).
#[target_feature(enable = "avx2")]
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
    let tv = bias(_mm256_set1_epi64x(t as i64));
    let mut i = 0usize;
    // Wide stores write 4 lanes; stop once fewer than 4 slots remain
    // before `hard_end` and let the scalar tail finish.
    // 2× unrolled: both blocks' masks and popcounts are computed
    // before any store, so the loop-carried dependency through the
    // write cursor (mask → popcount → next store address) is paid once
    // per 8 pairs instead of once per 4.
    while i + 8 <= n && w + 8 <= hard_end {
        let a0 = _mm256_loadu_si256(src.add(2 * i) as *const __m256i);
        let b0 = _mm256_loadu_si256(src.add(2 * i + 4) as *const __m256i);
        let a1 = _mm256_loadu_si256(src.add(2 * i + 8) as *const __m256i);
        let b1 = _mm256_loadu_si256(src.add(2 * i + 12) as *const __m256i);
        // unpack{lo,hi} leave lanes in [0, 2, 1, 3] cross-lane order;
        // the interleaved pack table restores arrival order during the
        // compress, so no permute4x64 fixup is needed here.
        let vv0 = _mm256_unpackhi_epi64(a0, b0);
        let vv1 = _mm256_unpackhi_epi64(a1, b1);
        let m0 = qmask(_mm256_cmpgt_epi64(bias(vv0), tv));
        let m1 = qmask(_mm256_cmpgt_epi64(bias(vv1), tv));
        // Steady-state Ψ rejects almost everything, so whole blocks
        // with no survivor are the common case: skip the id-lane
        // unpacks, compress stores, and cursor update entirely.
        if m0 | m1 != 0 {
            let idv0 = _mm256_unpacklo_epi64(a0, b0);
            let idv1 = _mm256_unpacklo_epi64(a1, b1);
            let c0 = m0.count_ones() as usize;
            // Each store covers [w, w+4) ⊆ [w, hard_end); non-surviving
            // lanes land past the cursor and are overwritten by the
            // next store (or stay past the final cursor = scratch).
            compress_store_ilv(vp, w, vv0, m0);
            compress_store_ilv(ip, w, idv0, m0);
            compress_store_ilv(vp, w + c0, vv1, m1);
            compress_store_ilv(ip, w + c0, idv1, m1);
            w += c0 + m1.count_ones() as usize;
        }
        i += 8;
    }
    while i + 4 <= n && w + 4 <= hard_end {
        let a = _mm256_loadu_si256(src.add(2 * i) as *const __m256i);
        let b = _mm256_loadu_si256(src.add(2 * i + 4) as *const __m256i);
        let vv = _mm256_unpackhi_epi64(a, b);
        let mask = qmask(_mm256_cmpgt_epi64(bias(vv), tv));
        if mask != 0 {
            let idv = _mm256_unpacklo_epi64(a, b);
            compress_store_ilv(vp, w, vv, mask);
            compress_store_ilv(ip, w, idv, mask);
            w += mask.count_ones() as usize;
        }
        i += 4;
    }
    for &(id, v) in &items[i..] {
        vals[w] = v;
        ids[w] = id;
        w += usize::from(v > t);
    }
    w
}

/// Kernel (b) counting pass: `(#gt, #eq)` vs the pivot.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn count_gt_eq_u64(vals: &[u64], pivot: u64) -> (usize, usize) {
    let n = vals.len();
    let p = vals.as_ptr();
    let pv = _mm256_set1_epi64x(pivot as i64);
    let pvb = bias(pv);
    let (mut gt, mut eq) = (0usize, 0usize);
    let mut i = 0usize;
    while i + 4 <= n {
        let v = _mm256_loadu_si256(p.add(i) as *const __m256i);
        gt += qmask(_mm256_cmpgt_epi64(bias(v), pvb)).count_ones() as usize;
        eq += qmask(_mm256_cmpeq_epi64(v, pv)).count_ones() as usize;
        i += 4;
    }
    for &v in &vals[i..] {
        gt += usize::from(v > pivot);
        eq += usize::from(v == pivot);
    }
    (gt, eq)
}

/// Kernel (c) sweep: `(min, max)` of a non-empty lane.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn min_max_u64(vals: &[u64]) -> (u64, u64) {
    debug_assert!(!vals.is_empty());
    let n = vals.len();
    let p = vals.as_ptr();
    if n < 4 {
        let (mut mn, mut mx) = (vals[0], vals[0]);
        for &v in &vals[1..] {
            mn = mn.min(v);
            mx = mx.max(v);
        }
        return (mn, mx);
    }
    // Accumulators live in the sign-biased domain (one XOR per loaded
    // vector instead of re-biasing both compare operands every step),
    // and four independent min/max chains hide the cmp→blend latency.
    let first = bias(_mm256_loadu_si256(p as *const __m256i));
    let mut mins = [first; 4];
    let mut maxs = [first; 4];
    let mut i = 4usize;
    while i + 16 <= n {
        let mut c = 0usize;
        while c < 4 {
            let v = bias(_mm256_loadu_si256(p.add(i + 4 * c) as *const __m256i));
            mins[c] = _mm256_blendv_epi8(mins[c], v, _mm256_cmpgt_epi64(mins[c], v));
            maxs[c] = _mm256_blendv_epi8(maxs[c], v, _mm256_cmpgt_epi64(v, maxs[c]));
            c += 1;
        }
        i += 16;
    }
    while i + 4 <= n {
        let v = bias(_mm256_loadu_si256(p.add(i) as *const __m256i));
        mins[0] = _mm256_blendv_epi8(mins[0], v, _mm256_cmpgt_epi64(mins[0], v));
        maxs[0] = _mm256_blendv_epi8(maxs[0], v, _mm256_cmpgt_epi64(v, maxs[0]));
        i += 4;
    }
    let mut vmin = mins[0];
    let mut vmax = maxs[0];
    for c in 1..4 {
        vmin = _mm256_blendv_epi8(vmin, mins[c], _mm256_cmpgt_epi64(vmin, mins[c]));
        vmax = _mm256_blendv_epi8(vmax, maxs[c], _mm256_cmpgt_epi64(maxs[c], vmax));
    }
    let mut lanes_min = [0u64; 4];
    let mut lanes_max = [0u64; 4];
    _mm256_storeu_si256(lanes_min.as_mut_ptr() as *mut __m256i, bias(vmin));
    _mm256_storeu_si256(lanes_max.as_mut_ptr() as *mut __m256i, bias(vmax));
    let mut mn = lanes_min[0];
    let mut mx = lanes_max[0];
    for l in 1..4 {
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
/// order (`> | == | <`), counts pre-computed by the caller.
///
/// Wide stores are only issued for a class while its cursor is at
/// least 4 slots from its region end, so every store — valid lanes
/// *and* the up-to-3 packed-garbage lanes behind them — stays inside
/// that class's own region, where later stores of the same class
/// overwrite the garbage (there are always at least as many elements
/// left in the class as garbage lanes). Blocks that would violate this
/// for any non-empty class fall back to scalar stores.
#[target_feature(enable = "avx2")]
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
    let pv = _mm256_set1_epi64x(pivot as i64);
    let pvb = bias(pv);
    let mut i = 0usize;
    while i + 4 <= n {
        let v = _mm256_loadu_si256(vp.add(i) as *const __m256i);
        let idv = _mm256_loadu_si256(ip.add(i) as *const __m256i);
        let mg = qmask(_mm256_cmpgt_epi64(bias(v), pvb));
        let me = qmask(_mm256_cmpeq_epi64(v, pv));
        let ml = 0b1111 & !(mg | me);
        let (kg, ke, kl) = (
            mg.count_ones() as usize,
            me.count_ones() as usize,
            ml.count_ones() as usize,
        );
        let fits =
            (kg == 0 || wg + 4 <= ngt) && (ke == 0 || we + 4 <= eq_end) && (kl == 0 || wl + 4 <= n);
        if fits {
            if kg != 0 {
                compress_store(ovp, wg, v, mg);
                compress_store(oip, wg, idv, mg);
                wg += kg;
            }
            if ke != 0 {
                compress_store(ovp, we, v, me);
                compress_store(oip, we, idv, me);
                we += ke;
            }
            if kl != 0 {
                compress_store(ovp, wl, v, ml);
                compress_store(oip, wl, idv, ml);
                wl += kl;
            }
        } else {
            for j in i..i + 4 {
                scatter_one(
                    vals, ids, pivot, out_vals, out_ids, j, &mut wg, &mut we, &mut wl,
                );
            }
        }
        i += 4;
    }
    for j in i..n {
        scatter_one(
            vals, ids, pivot, out_vals, out_ids, j, &mut wg, &mut we, &mut wl,
        );
    }
    debug_assert!(wg == ngt && we == eq_end && wl == n);
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn scatter_one(
    vals: &[u64],
    ids: &[u64],
    pivot: u64,
    out_vals: &mut [u64],
    out_ids: &mut [u64],
    j: usize,
    wg: &mut usize,
    we: &mut usize,
    wl: &mut usize,
) {
    let (v, id) = (vals[j], ids[j]);
    let w = if v > pivot {
        wg
    } else if v == pivot {
        we
    } else {
        wl
    };
    out_vals[*w] = v;
    out_ids[*w] = id;
    *w += 1;
}
