//! Differential property tests pinning the structure-of-arrays backend
//! to the array-of-structs original and to the standard library.
//!
//! The SoA fast path re-implements the q-MAX hot loop twice over —
//! branchless batch admission and paired selection kernels — so its
//! contract is checked the strongest way available: byte-for-byte
//! agreement of thresholds and admission decisions with the AoS backend
//! on every stream shape that has ever broken a selection algorithm
//! (duplicate-heavy, all-equal, adversarial chunkings), plus agreement
//! with `select_nth_unstable` as the independent ground truth.
//!
//! Results are compared as sorted value multisets: ids tie-break
//! arbitrarily between equal values in both layouts, so value sets are
//! the invariant, not id sets.

use proptest::prelude::*;
use qmax_core::{AmortizedQMax, BatchInsert, DeamortizedQMax, QMax, SoaAmortizedQMax};
use qmax_select::paired_nth_smallest;

fn reference_top_q(vals: &[u64], q: usize) -> Vec<u64> {
    let mut s = vals.to_vec();
    s.sort_unstable_by(|a, b| b.cmp(a));
    s.truncate(q);
    s.sort_unstable();
    s
}

fn sorted_vals(pairs: Vec<(u32, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SoA amortized ≡ AoS amortized: same admissions, same threshold
    /// trajectory, same top-q, on arbitrary streams.
    #[test]
    fn soa_amortized_equals_aos(
        vals in prop::collection::vec(any::<u64>(), 1..3000),
        q in 1usize..64,
        gamma in 0.01f64..2.5,
    ) {
        let mut aos = AmortizedQMax::new(q, gamma);
        let mut soa = SoaAmortizedQMax::new(q, gamma);
        for (i, &v) in vals.iter().enumerate() {
            let a = aos.insert(i as u32, v);
            let s = soa.insert(i as u32, v);
            prop_assert_eq!(a, s, "admission diverged at item {}", i);
            prop_assert_eq!(aos.threshold(), soa.threshold());
        }
        prop_assert_eq!(sorted_vals(aos.query()), sorted_vals(soa.query()));
    }

    /// SoA amortized ≡ AoS amortized on duplicate-heavy streams — the
    /// regime where three-way partitions and tie-breaking have the most
    /// room to diverge — including identical compaction counters.
    #[test]
    fn soa_amortized_equals_aos_duplicate_heavy(
        vals in prop::collection::vec(0u64..8, 1..3000),
        q in 1usize..48,
        gamma_pct in 3usize..250,
    ) {
        let gamma = gamma_pct as f64 / 100.0;
        let mut aos = AmortizedQMax::new(q, gamma);
        let mut soa = SoaAmortizedQMax::new(q, gamma);
        for (i, &v) in vals.iter().enumerate() {
            let a = aos.insert(i as u32, v);
            let s = soa.insert(i as u32, v);
            prop_assert_eq!(a, s, "admission diverged at item {}", i);
            prop_assert_eq!(aos.threshold(), soa.threshold());
        }
        prop_assert_eq!(aos.compactions(), soa.compactions());
        prop_assert_eq!(aos.filtered(), soa.filtered());
        prop_assert_eq!(sorted_vals(aos.query()), sorted_vals(soa.query()));
        prop_assert_eq!(sorted_vals(aos.query()), reference_top_q(&vals, q));
    }

    /// All-equal streams: every partition degenerates to the equal band;
    /// both backends must keep exactly min(q, n) copies and agree.
    #[test]
    fn soa_handles_all_equal_streams(
        n in 1usize..3000,
        value in any::<u64>(),
        q in 1usize..32,
        gamma in 0.05f64..2.0,
    ) {
        let items: Vec<(u32, u64)> = (0..n).map(|i| (i as u32, value)).collect();
        let mut aos = DeamortizedQMax::new(q, gamma);
        let mut soa_a = SoaAmortizedQMax::new(q, gamma);
        for &(id, v) in &items {
            aos.insert(id, v);
        }
        soa_a.insert_batch(&items);
        let expect = sorted_vals(aos.query());
        prop_assert_eq!(expect.len(), n.min(q));
        prop_assert_eq!(&expect, &sorted_vals(soa_a.query()));
    }

    /// Batched inserts through the branchless kernel are state-identical
    /// to singleton inserts, for arbitrary chunkings of the same stream.
    #[test]
    fn soa_batch_equals_singletons(
        vals in prop::collection::vec(any::<u64>(), 1..3000),
        q in 1usize..48,
        gamma in 0.05f64..2.0,
        chunk in 1usize..600,
    ) {
        let items: Vec<(u32, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, v))
            .collect();
        let mut one_a = SoaAmortizedQMax::new(q, gamma);
        let mut bat_a = SoaAmortizedQMax::new(q, gamma);
        let mut adm_one_a = 0usize;
        for &(id, v) in &items {
            adm_one_a += usize::from(one_a.insert(id, v));
        }
        let mut adm_bat_a = 0usize;
        for c in items.chunks(chunk) {
            adm_bat_a += bat_a.insert_batch(c);
        }
        prop_assert_eq!(adm_one_a, adm_bat_a);
        prop_assert_eq!(one_a.threshold(), bat_a.threshold());
        prop_assert_eq!(sorted_vals(one_a.query()), sorted_vals(bat_a.query()));
    }

    /// The paired selection kernel agrees with `select_nth_unstable` and
    /// carries the id lane through the exact value-lane permutation.
    #[test]
    fn paired_select_matches_std_select_nth(
        base in prop::collection::vec(0u64..16, 1..600),
        k_seed in any::<u64>(),
    ) {
        let n = base.len();
        let k = (k_seed as usize) % n;
        let mut by_std = base.clone();
        let (_, &mut expect, _) = by_std.select_nth_unstable(k);
        let mut vals = base.clone();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        paired_nth_smallest(&mut vals, &mut ids, k);
        prop_assert_eq!(vals[k], expect, "order statistic diverged at k={}", k);
        for &v in &vals[..k] {
            prop_assert!(v <= vals[k]);
        }
        for &v in &vals[k + 1..] {
            prop_assert!(v >= vals[k]);
        }
        // Permutation integrity: every pair is an input pair.
        for (i, (&v, &id)) in vals.iter().zip(&ids).enumerate() {
            prop_assert_eq!(v, base[id as usize], "pair broken at index {}", i);
        }
    }
}
