//! Portable reference kernels.
//!
//! These define the semantics the SIMD paths must reproduce exactly on
//! the defined output region: same cursors, same counts, same region
//! contents in the same order. They are also the fallback for CPUs
//! without the vector features and under `QMAX_FORCE_SCALAR`.

/// Ψ-filter batch admit: branchless store-then-conditionally-advance,
/// identical to the hand-rolled loops previously inlined in
/// `qmax-core`'s SoA backends.
#[inline]
pub(super) fn admit_pairs(
    items: &[(u64, u64)],
    threshold: Option<u64>,
    vals: &mut [u64],
    ids: &mut [u64],
    mut w: usize,
) -> usize {
    match threshold {
        Some(t) => {
            for &(id, v) in items {
                vals[w] = v;
                ids[w] = id;
                w += usize::from(v > t);
            }
        }
        None => {
            for &(id, v) in items {
                vals[w] = v;
                ids[w] = id;
                w += 1;
            }
        }
    }
    w
}

#[inline]
pub(super) fn count_gt_eq(vals: &[u64], pivot: u64) -> (usize, usize) {
    let mut gt = 0usize;
    let mut eq = 0usize;
    for &v in vals {
        gt += usize::from(v > pivot);
        eq += usize::from(v == pivot);
    }
    (gt, eq)
}

/// Stable three-way partition into descending region order; `ngt`/`neq`
/// are the pre-computed class counts (from [`count_gt_eq`]).
#[inline]
pub(super) fn partition3_desc(
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
    for i in 0..n {
        let (v, id) = (vals[i], ids[i]);
        match v.cmp(&pivot) {
            core::cmp::Ordering::Greater => {
                out_vals[wg] = v;
                out_ids[wg] = id;
                wg += 1;
            }
            core::cmp::Ordering::Equal => {
                out_vals[we] = v;
                out_ids[we] = id;
                we += 1;
            }
            core::cmp::Ordering::Less => {
                out_vals[wl] = v;
                out_ids[wl] = id;
                wl += 1;
            }
        }
    }
    debug_assert!(
        wg == ngt && we == eq_end && wl == n,
        "partition counts inconsistent: wg={wg}/{ngt} we={we}/{eq_end} wl={wl}/{n}"
    );
}
