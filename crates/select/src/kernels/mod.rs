//! Vectorized hot-loop kernels with runtime SIMD dispatch.
//!
//! q-MAX's two hot loops are branch-light linear scans — exactly the
//! shape that vectorizes:
//!
//! * **(a) Ψ-filter batch admit** — compress the values `> Ψ` of an
//!   arrival batch into the buffer lanes ([`Kernel::admit_pairs`]);
//! * **(b) three-way partition** — split a value lane around a pivot
//!   with the same permutation mirrored into the id lane
//!   ([`Kernel::partition3_desc`], plus the counting pass
//!   [`Kernel::count_gt_eq`]).
//!
//! A [`Kernel`] is resolved **once per structure** ([`Kernel::detect`])
//! and then dispatches each call to an AVX-512F or AVX2 (x86_64) or
//! NEON (aarch64) implementation when
//!
//! 1. the CPU reports the feature at runtime
//!    (`is_x86_feature_detected!` / `is_aarch64_feature_detected!`),
//! 2. `QMAX_FORCE_SCALAR` is not set in the environment (CI uses this
//!    to pin the portable path).
//!
//! Otherwise every call runs the always-correct scalar fallback in
//! `scalar` — the *same* code the SIMD paths must match bit-for-bit
//! on the defined output region (differential property tests in
//! `tests/proptest_kernels.rs` pin this down).
//!
//! Every lane is `u64`: the ids and values of `qmax-core`'s split-lane
//! `SoaAmortizedQMax`. [`Kernel`]'s type parameter names that lane
//! type and has one implementation, `Kernel<u64>`, so the SIMD paths
//! take the caller's slices as they are.
//!
//! # Safety
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate root is `#![deny(unsafe_code)]`). The obligations are local
//! and uniform:
//!
//! * every `#[target_feature]` function is only reachable through a
//!   [`Kernel`] whose `kind` was set after the matching runtime
//!   feature check;
//! * every SIMD store stays inside the caller-provided bounds: wide
//!   stores are only issued when `cursor + LANES <= limit`, with a
//!   scalar tail for the remainder.

#![allow(unsafe_code)]

use core::marker::PhantomData;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "aarch64")]
mod neon;
mod probe;
mod scalar;

pub use probe::{prefetch_read, ProbeKernel, GROUP_WIDTH};

/// Which implementation a [`Kernel`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable scalar code (always available, always correct).
    Scalar,
    /// AVX2 over 4×u64 lanes (x86_64, runtime-detected).
    Avx2,
    /// AVX-512F over 8×u64 lanes with native masked compress stores
    /// (x86_64, runtime-detected, preferred over AVX2 when present).
    Avx512,
    /// NEON over 2×u64 lanes (aarch64, runtime-detected).
    Neon,
}

/// Seed base for the deterministic pivot sample; a structure's k-th
/// compaction samples with `PIVOT_SEED ^ k`, so replays are exact.
pub const PIVOT_SEED: u64 = 0x5A3C_F70D_9E1B_2468;

/// Buffers below this size skip sampled-pivot compaction entirely: the
/// sample would be a sizable fraction of the buffer and plain exact
/// selection is already cheap.
pub const SAMPLED_COMPACT_MIN: usize = 1024;

/// Residual tolerance for a sampled pivot on an `n`-element buffer:
/// when the partition leaves an exact-select residue larger than this,
/// the compaction counts as a fallback to exact selection (the result
/// is exact either way; the counter tracks sample quality).
#[inline]
pub fn pivot_band(n: usize) -> usize {
    core::cmp::max(64, n / 8)
}

/// Sample size for an `n`-element buffer: `O(√n)`, clamped so tiny
/// buffers are not over-sampled and huge ones stay cheap.
#[inline]
pub fn sample_size(n: usize) -> usize {
    (4 * n.isqrt()).clamp(64, 2048).min(n)
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic positions a sampled-pivot compaction (the
/// array-of-structs `AmortizedQMax` in `qmax-core`) draws for an
/// `n`-element buffer under `seed` (duplicates allowed). Exposed so
/// tests can predict — and adversarially defeat — the sample.
pub fn sample_positions(n: usize, seed: u64, out: &mut Vec<usize>) {
    out.clear();
    let mut s = seed;
    for _ in 0..sample_size(n) {
        out.push((splitmix64(&mut s) % n as u64) as usize);
    }
}

/// Runtime feature detection for the `u64` lane kernels; cached by the
/// standard library's own detection machinery.
fn detect_arch_kind() -> KernelKind {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return KernelKind::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelKind::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return KernelKind::Neon;
        }
    }
    KernelKind::Scalar
}

fn force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| std::env::var_os("QMAX_FORCE_SCALAR").is_some_and(|v| v != "0"))
}

/// A per-structure dispatch handle for the vectorized kernels.
///
/// Resolve once with [`Kernel::detect`] (runtime feature detection) or
/// pin the portable path with [`Kernel::scalar`]; each method then
/// routes to the best implementation for the CPU. All methods
/// produce output **identical** to the scalar reference on the defined
/// region, so swapping kernels never changes a caller's observable
/// behavior.
pub struct Kernel<V> {
    kind: KernelKind,
    _lane: PhantomData<fn() -> V>,
}

impl<V> Clone for Kernel<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for Kernel<V> {}
impl<V> core::fmt::Debug for Kernel<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kernel").field("kind", &self.kind).finish()
    }
}

impl Kernel<u64> {
    /// Resolves the best kernel on this CPU: AVX-512F, AVX2, or NEON
    /// (in that preference order) when the feature is present, scalar
    /// otherwise (or when the `QMAX_FORCE_SCALAR` environment variable
    /// is set).
    pub fn detect() -> Self {
        let kind = if force_scalar() {
            KernelKind::Scalar
        } else {
            detect_arch_kind()
        };
        Kernel {
            kind,
            _lane: PhantomData,
        }
    }

    /// The portable scalar kernel, unconditionally.
    pub fn scalar() -> Self {
        Kernel {
            kind: KernelKind::Scalar,
            _lane: PhantomData,
        }
    }

    /// Which implementation this handle dispatches to.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Whether calls dispatch to a SIMD implementation.
    pub fn is_vectorized(&self) -> bool {
        self.kind != KernelKind::Scalar
    }

    /// Kernel (a): Ψ-filter batch admit. Streams `items` into the
    /// parallel lanes starting at write cursor `w`: every item is
    /// conceptually stored at the cursor and the cursor advances only
    /// for survivors (`val > threshold`; everything survives when
    /// `threshold` is `None`). Returns the new cursor.
    ///
    /// Only `vals[w..ret]` / `ids[w..ret]` are defined output; slots at
    /// and beyond the returned cursor (up to `hard_end`) may hold
    /// arbitrary rejected-item residue, exactly like the scalar
    /// overwrite trick. No store ever touches `vals[hard_end..]`.
    ///
    /// # Panics
    ///
    /// Panics unless `w + items.len() <= hard_end <= min(vals.len(),
    /// ids.len())`: the SIMD stores rely on that bound.
    pub fn admit_pairs(
        &self,
        items: &[(u64, u64)],
        threshold: Option<u64>,
        vals: &mut [u64],
        ids: &mut [u64],
        w: usize,
        hard_end: usize,
    ) -> usize {
        assert!(
            w + items.len() <= hard_end && hard_end <= vals.len().min(ids.len()),
            "admit window out of bounds: w={w} items={} hard_end={hard_end}",
            items.len()
        );
        if let Some(t) = threshold {
            match self.kind {
                // SAFETY: `detect` sets Avx512 only after the avx512f
                // check passed; the bound is asserted above.
                #[cfg(target_arch = "x86_64")]
                KernelKind::Avx512 => {
                    return unsafe { avx512::admit_pairs_u64(items, t, vals, ids, w, hard_end) }
                }
                // SAFETY: as for Avx512, with the avx2 check.
                #[cfg(target_arch = "x86_64")]
                KernelKind::Avx2 => {
                    return unsafe { avx2::admit_pairs_u64(items, t, vals, ids, w, hard_end) }
                }
                // SAFETY: as for Avx512, with the neon check.
                #[cfg(target_arch = "aarch64")]
                KernelKind::Neon => {
                    return unsafe { neon::admit_pairs_u64(items, t, vals, ids, w, hard_end) }
                }
                _ => {}
            }
        }
        scalar::admit_pairs(items, threshold, vals, ids, w)
    }

    /// Kernel (b), counting pass: `(#elements > pivot, #elements ==
    /// pivot)` over the value lane.
    pub fn count_gt_eq(&self, vals: &[u64], pivot: u64) -> (usize, usize) {
        match self.kind {
            // SAFETY: `detect` sets each SIMD kind only after its
            // feature check passed; the sweeps read within `vals`.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe { avx512::count_gt_eq_u64(vals, pivot) },
            // SAFETY: as for Avx512.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe { avx2::count_gt_eq_u64(vals, pivot) },
            // SAFETY: as for Avx512.
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => unsafe { neon::count_gt_eq_u64(vals, pivot) },
            _ => scalar::count_gt_eq(vals, pivot),
        }
    }

    /// Kernel (b): stable three-way partition of `(vals, ids)` around
    /// `pivot` into the output lanes, **descending** region order —
    /// `out[0..ngt)` holds the elements `> pivot`, `out[ngt..eq_end)`
    /// the ones `== pivot`, `out[eq_end..n)` the ones `< pivot`, each
    /// region in input order. Returns `(ngt, eq_end)`.
    ///
    /// The descending order makes a q-MAX compaction's survivors a
    /// *prefix* of the output, so keeping them is a lane swap instead
    /// of an overlapping `copy_within`.
    ///
    /// # Panics
    ///
    /// Panics unless all four slices have equal length: the SIMD
    /// stores rely on it.
    pub fn partition3_desc(
        &self,
        vals: &[u64],
        ids: &[u64],
        pivot: u64,
        out_vals: &mut [u64],
        out_ids: &mut [u64],
    ) -> (usize, usize) {
        assert!(
            vals.len() == ids.len() && vals.len() == out_vals.len() && vals.len() == out_ids.len(),
            "partition lanes differ in length"
        );
        let (ngt, neq) = self.count_gt_eq(vals, pivot);
        // NEON: the 2-lane compress does not pay for the three-stream
        // bookkeeping, so aarch64 partitions take the scalar path.
        match self.kind {
            // SAFETY: `detect` sets Avx512 only after the avx512f check
            // passed; the lanes' equal length is asserted above and
            // `(ngt, neq)` are their exact class counts.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe {
                avx512::partition3_desc_u64(vals, ids, pivot, ngt, neq, out_vals, out_ids)
            },
            // SAFETY: as for Avx512, with the avx2 check.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe {
                avx2::partition3_desc_u64(vals, ids, pivot, ngt, neq, out_vals, out_ids)
            },
            _ => scalar::partition3_desc(vals, ids, pivot, ngt, neq, out_vals, out_ids),
        }
        (ngt, ngt + neq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        splitmix64(state)
    }

    fn zipfish(n: usize, seed: u64) -> Vec<u64> {
        // Heavy-tailed-ish deterministic values: many small, few huge.
        let mut s = seed;
        (0..n)
            .map(|_| {
                let r = splitmix(&mut s);
                let shift = (r % 48) as u32;
                r >> shift
            })
            .collect()
    }

    fn kernels() -> Vec<Kernel<u64>> {
        let mut ks = vec![Kernel::<u64>::scalar()];
        let auto = Kernel::<u64>::detect();
        if auto.is_vectorized() {
            ks.push(auto);
        }
        ks
    }

    #[test]
    fn admit_matches_scalar_reference() {
        let scalar = Kernel::<u64>::scalar();
        for k in kernels() {
            for n in [0usize, 1, 3, 4, 5, 16, 127, 1024] {
                let items: Vec<(u64, u64)> = zipfish(n, 11)
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i as u64, v))
                    .collect();
                for t in [None, Some(0u64), Some(1 << 40), Some(u64::MAX)] {
                    let cap = n + 8;
                    let mut v1 = vec![0u64; cap];
                    let mut i1 = vec![0u64; cap];
                    let mut v2 = vec![0u64; cap];
                    let mut i2 = vec![0u64; cap];
                    let w1 = scalar.admit_pairs(&items, t, &mut v1, &mut i1, 3, 3 + n);
                    let w2 = k.admit_pairs(&items, t, &mut v2, &mut i2, 3, 3 + n);
                    assert_eq!(w1, w2, "cursor diverged: n={n} t={t:?} {k:?}");
                    assert_eq!(&v1[3..w1], &v2[3..w2], "values diverged");
                    assert_eq!(&i1[3..w1], &i2[3..w2], "ids diverged");
                    // Nothing past hard_end is ever touched.
                    assert!(v2[3 + n..].iter().all(|&x| x == 0));
                    assert!(i2[3 + n..].iter().all(|&x| x == 0));
                }
            }
        }
    }

    #[test]
    fn count_matches_scalar() {
        let scalar = Kernel::<u64>::scalar();
        for k in kernels() {
            for n in [0usize, 1, 4, 7, 100, 4097] {
                let vals = zipfish(n, 5);
                for pivot in [0u64, 1, 1 << 20, u64::MAX] {
                    assert_eq!(
                        scalar.count_gt_eq(&vals, pivot),
                        k.count_gt_eq(&vals, pivot),
                        "count diverged n={n} pivot={pivot}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_is_stable_and_regions_ordered() {
        for k in kernels() {
            for n in [0usize, 1, 5, 64, 999, 4096] {
                let vals: Vec<u64> = zipfish(n, 3).into_iter().map(|v| v % 17).collect();
                let ids: Vec<u64> = (0..n as u64).collect();
                let pivot = 8u64;
                let mut ov = vec![0u64; n];
                let mut oi = vec![0u64; n];
                let (ngt, eq_end) = k.partition3_desc(&vals, &ids, pivot, &mut ov, &mut oi);
                assert!(ov[..ngt].iter().all(|&v| v > pivot), "{k:?}");
                assert!(ov[ngt..eq_end].iter().all(|&v| v == pivot));
                assert!(ov[eq_end..].iter().all(|&v| v < pivot));
                // Pairs intact and each region stable (ids ascending,
                // because the input ids were ascending).
                for (i, (&v, &id)) in ov.iter().zip(&oi).enumerate() {
                    assert_eq!(v, vals[id as usize], "pair broken at {i}");
                }
                for region in [&oi[..ngt], &oi[ngt..eq_end], &oi[eq_end..]] {
                    assert!(region.windows(2).all(|w| w[0] < w[1]), "region not stable");
                }
            }
        }
    }
}
