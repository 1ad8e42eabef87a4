//! Differential property tests: the runtime-dispatched kernels must be
//! bit-for-bit equivalent to the scalar reference on every input.
//!
//! On an AVX2 (or NEON) host `Kernel::detect()` resolves to the
//! vectorized path for `u64` lanes and these tests are genuine
//! scalar-vs-SIMD comparisons; on other hosts both sides resolve to the
//! scalar path and the properties still pin the contract.

use proptest::prelude::*;
use qmax_select::kernels::{sample_size, PIVOT_SEED};
use qmax_select::{Kernel, ProbeKernel, GROUP_WIDTH};

/// Order-preserving, NaN-free mapping from `f64` to the `u64` lane
/// domain: `a < b` (by `total_cmp`) iff `key(a) < key(b)`.
fn f64_key(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// NaN-free `f64` edge values the SIMD comparisons must order exactly
/// like `total_cmp`: signed zeros, subnormals, infinities, plus a few
/// ordinary magnitudes.
fn f64_edge() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::MIN_POSITIVE),
        Just(-f64::MIN_POSITIVE),
        Just(f64::from_bits(1)), // smallest positive subnormal
        Just(-f64::from_bits(1)),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(1.0f64),
        Just(-1.0f64),
        (-1.0e12f64..1.0e12f64),
    ]
}

/// Heavy-tailed ("zipf-ish") u64 lane: many small values, few huge
/// ones, like a skewed flow-size distribution.
fn zipf_lane(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((any::<u64>(), 0u32..48), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(r, s)| r >> s).collect())
}

/// The lane mix the kernels must handle: zipf-ish, all-equal, and
/// f64 edge values pushed through the order-preserving bits mapping.
fn lane(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        3 => zipf_lane(max_len),
        1 => (any::<u64>(), 1..max_len).prop_map(|(x, n)| vec![x >> 32; n]),
        2 => prop::collection::vec(f64_edge(), 1..max_len)
            .prop_map(|v| v.into_iter().map(f64_key).collect()),
    ]
}

fn naive_admit(items: &[(u64, u64)], threshold: Option<u64>) -> (Vec<u64>, Vec<u64>) {
    let mut vals = Vec::new();
    let mut ids = Vec::new();
    for &(id, val) in items {
        if threshold.is_none_or(|t| val > t) {
            vals.push(val);
            ids.push(id);
        }
    }
    (vals, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) Ψ-filter admit: dispatched kernel == scalar == naive filter,
    /// including the id lane and the untouched-beyond-cursor contract.
    #[test]
    fn admit_pairs_matches_scalar(
        vals in lane(300),
        ids_seed in any::<u64>(),
        t_pick in prop::option::of(any::<prop::sample::Index>()),
        w in 0usize..8,
    ) {
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (ids_seed.wrapping_add(i as u64), v))
            .collect();
        let threshold = t_pick.map(|ix| vals[ix.index(vals.len())]);
        let hard_end = w + items.len();

        let run = |k: Kernel<u64>| {
            let mut out_v = vec![u64::MAX; hard_end + 3];
            let mut out_i = vec![u64::MAX; hard_end + 3];
            let r = k.admit_pairs(&items, threshold, &mut out_v, &mut out_i, w, hard_end);
            (r, out_v, out_i)
        };
        let (rs, vs, is) = run(Kernel::scalar());
        let (rd, vd, id) = run(Kernel::detect());

        prop_assert_eq!(rs, rd);
        prop_assert_eq!(&vs[w..rs], &vd[w..rd]);
        prop_assert_eq!(&is[w..rs], &id[w..rd]);
        // Nothing past hard_end may be touched by either kernel.
        prop_assert!(vd[hard_end..].iter().all(|&x| x == u64::MAX));
        prop_assert!(id[hard_end..].iter().all(|&x| x == u64::MAX));

        let (nv, ni) = naive_admit(&items, threshold);
        prop_assert_eq!(&vd[w..rd], &nv[..]);
        prop_assert_eq!(&id[w..rd], &ni[..]);
    }

    /// (b) Three-way descending partition with index-lane permutation:
    /// dispatched kernel == scalar, regions correctly classified and
    /// stable (input order preserved inside each region).
    #[test]
    fn partition3_desc_matches_scalar(
        vals in lane(300),
        pivot_ix in any::<prop::sample::Index>(),
    ) {
        let n = vals.len();
        let pivot = vals[pivot_ix.index(n)];
        let ids: Vec<u64> = (0..n as u64).collect();

        let run = |k: Kernel<u64>| {
            let mut ov = vec![0u64; n];
            let mut oi = vec![0u64; n];
            let (ngt, eq_end) = k.partition3_desc(&vals, &ids, pivot, &mut ov, &mut oi);
            (ngt, eq_end, ov, oi)
        };
        let (sg, se, sv, si) = run(Kernel::scalar());
        let (dg, de, dv, di) = run(Kernel::detect());
        prop_assert_eq!((sg, se), (dg, de));
        prop_assert_eq!(&sv[..], &dv[..]);
        prop_assert_eq!(&si[..], &di[..]);

        // Classification: [> | = | <] by region.
        prop_assert!(dv[..dg].iter().all(|&x| x > pivot));
        prop_assert!(dv[dg..de].iter().all(|&x| x == pivot));
        prop_assert!(dv[de..].iter().all(|&x| x < pivot));
        // Id lane is the matching permutation…
        prop_assert!(di.iter().zip(&dv).all(|(&i, &v)| vals[i as usize] == v));
        // …and each region is stable (ids strictly increasing).
        for region in [&di[..dg], &di[dg..de], &di[de..]] {
            prop_assert!(region.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// (c) Counting and min/max sweeps match the scalar reference and a
    /// naive recomputation.
    #[test]
    fn count_and_minmax_match_scalar(
        vals in lane(400),
        pivot_ix in any::<prop::sample::Index>(),
    ) {
        let pivot = vals[pivot_ix.index(vals.len())];
        let s = Kernel::<u64>::scalar();
        let d = Kernel::<u64>::detect();

        prop_assert_eq!(s.count_gt_eq(&vals, pivot), d.count_gt_eq(&vals, pivot));
        let naive_gt = vals.iter().filter(|&&x| x > pivot).count();
        let naive_eq = vals.iter().filter(|&&x| x == pivot).count();
        prop_assert_eq!(d.count_gt_eq(&vals, pivot), (naive_gt, naive_eq));

        prop_assert_eq!(s.min_max(&vals), d.min_max(&vals));
        let mn = *vals.iter().min().unwrap();
        let mx = *vals.iter().max().unwrap();
        prop_assert_eq!(d.min_max(&vals), Some((mn, mx)));
    }

    /// The pivot sampler is deterministic under a fixed seed, identical
    /// across kernels, and always returns an element of the buffer.
    #[test]
    fn sample_pivot_is_deterministic(
        vals in lane(600),
        rank_ix in any::<prop::sample::Index>(),
        seed_off in 0u64..16,
    ) {
        let rank = rank_ix.index(vals.len());
        let seed = PIVOT_SEED ^ seed_off;
        let mut scratch = Vec::new();
        let a = Kernel::<u64>::scalar().sample_pivot(&vals, rank, seed, &mut scratch);
        let b = Kernel::<u64>::detect().sample_pivot(&vals, rank, seed, &mut scratch);
        let c = Kernel::<u64>::detect().sample_pivot(&vals, rank, seed, &mut scratch);
        prop_assert_eq!(a, b);
        prop_assert_eq!(b, c);
        prop_assert!(vals.contains(&a));
        prop_assert_eq!(scratch.len(), sample_size(vals.len()));
    }

    /// Group probe: dispatched kernel == scalar == naive per-byte scan
    /// over control-byte mixes a flow table actually produces (random
    /// tags, sentinel-heavy groups, all-equal groups).
    #[test]
    fn probe_match_byte_matches_scalar(
        raw in prop::collection::vec(any::<u8>(), GROUP_WIDTH),
        mode in 0u8..3,
        tag in any::<u8>(),
    ) {
        let mut group = [0u8; GROUP_WIDTH];
        for (g, &r) in group.iter_mut().zip(&raw) {
            *g = match mode {
                0 => r,          // arbitrary bytes
                1 => r & 0x81,   // only sentinels 0x00/0x80/0x81/0x01
                _ => raw[0],     // all-equal group
            };
        }
        let s = ProbeKernel::scalar();
        let d = ProbeKernel::detect();
        for t in [tag, group[0], 0x80, 0x81] {
            let naive = group
                .iter()
                .enumerate()
                .fold(0u16, |m, (i, &b)| m | (u16::from(b == t) << i));
            prop_assert_eq!(s.match_byte(&group, t), naive);
            prop_assert_eq!(d.match_byte(&group, t), naive);
        }
    }

    /// The f64→u64 lane mapping is strictly order-preserving on the
    /// NaN-free edge set, so SIMD `u64` compares order floats exactly
    /// like `total_cmp`.
    #[test]
    fn f64_key_mapping_preserves_order(a in f64_edge(), b in f64_edge()) {
        use std::cmp::Ordering;
        let ord = a.total_cmp(&b);
        // total_cmp separates -0.0 < +0.0, and so does the bits map.
        prop_assert_eq!(f64_key(a).cmp(&f64_key(b)), ord);
        if ord == Ordering::Equal {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
