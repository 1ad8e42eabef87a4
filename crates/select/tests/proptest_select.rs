//! Property-based tests of the selection substrate.

use proptest::prelude::*;
use qmax_select::{
    nth_smallest, partition3, Direction, MachineStatus, NthElementMachine, PartitionMachine,
    WORK_BOUND_FACTOR,
};
use std::cell::Cell;
use std::cmp::Ordering;

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

/// A `u32` whose every comparison is counted in [`COMPARISONS`].
#[derive(Clone, Copy, PartialEq, Eq)]
struct Counted(u32);

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARISONS.with(|c| c.set(c.get() + 1));
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Input shapes that defeat naive pivot rules: sorted, reversed,
/// organ-pipe, all-equal, few-distinct, sawtooth and random.
fn shaped(shape: u8, n: usize, seed: u64) -> Vec<u32> {
    let mut s = seed;
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as u32
    };
    let n32 = n as u32;
    (0..n32)
        .map(|i| match shape {
            0 => i,
            1 => n32 - i,
            2 => i.min(n32 - i),
            3 => 7,
            4 => rnd() % 4,
            5 => i % 97,
            _ => rnd(),
        })
        .collect()
}

/// Comparison budget per element for [`nth_smallest`]. The standard
/// library's select is introselect with a median-of-medians fallback,
/// so its count is linear in the worst case; measured maxima are
/// 4.4·n for n ≥ 1000 (organ-pipe) and 7.5·n at n = 16, where a
/// reversed input runs the insertion-sort base case's n(n−1)/2
/// comparisons. 8 stays above both, and a quadratic pivot regression
/// exceeds it from n ≈ 17 on.
const COMPARISONS_PER_ELEMENT: u64 = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nth_smallest_equals_sorted(mut v in prop::collection::vec(any::<i64>(), 1..2000), k_seed in any::<usize>()) {
        let k = k_seed % v.len();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let got = *nth_smallest(&mut v, k);
        prop_assert_eq!(got, sorted[k]);
        // Partition property.
        for &x in &v[..k] {
            prop_assert!(x <= v[k]);
        }
        for &x in &v[k + 1..] {
            prop_assert!(x >= v[k]);
        }
        // The multiset is preserved.
        let mut after = v.clone();
        after.sort_unstable();
        prop_assert_eq!(after, sorted);
    }

    #[test]
    fn nth_smallest_equals_machine(v in prop::collection::vec(any::<u32>(), 1..1000), k_seed in any::<usize>()) {
        let n = v.len();
        let k = k_seed % n;
        let mut a = v.clone();
        let mut b = v.clone();
        let mut m = NthElementMachine::new(0, n, k, Direction::Ascending);
        let at = m.run_to_completion(&mut b);
        prop_assert_eq!(*nth_smallest(&mut a, k), b[at]);
    }

    /// Worst case counted, not trusted: on every adversarial shape and
    /// at ranks 0, n/10, n/2 and n−1, `nth_smallest` stays exact and
    /// within `COMPARISONS_PER_ELEMENT · n` comparisons.
    #[test]
    fn nth_smallest_comparisons_are_linear(n in 1usize..10_000, seed in any::<u64>()) {
        for shape in 0u8..7 {
            let base = shaped(shape, n, seed);
            let mut sorted = base.clone();
            sorted.sort_unstable();
            for k in [0, n / 10, n / 2, n - 1] {
                let mut buf: Vec<Counted> = base.iter().copied().map(Counted).collect();
                COMPARISONS.with(|c| c.set(0));
                let got = nth_smallest(&mut buf, k).0;
                let comparisons = COMPARISONS.with(Cell::get);
                prop_assert_eq!(got, sorted[k], "shape {} n {} k {}", shape, n, k);
                prop_assert!(
                    comparisons <= COMPARISONS_PER_ELEMENT * n as u64,
                    "shape {} n {} k {}: {} comparisons", shape, n, k, comparisons
                );
            }
        }
    }

    #[test]
    fn machine_work_is_linear(v in prop::collection::vec(any::<u16>(), 30..3000), k_seed in any::<usize>()) {
        let n = v.len();
        let k = k_seed % n;
        let mut buf = v.clone();
        let mut m = NthElementMachine::new(0, n, k, Direction::Ascending);
        m.run_to_completion(&mut buf);
        prop_assert!(
            m.total_ops() <= (WORK_BOUND_FACTOR * n + WORK_BOUND_FACTOR) as u64,
            "ops {} exceed linear bound for n={}", m.total_ops(), n
        );
    }

    #[test]
    fn machine_descending_is_reverse(v in prop::collection::vec(any::<u32>(), 1..400), k_seed in any::<usize>()) {
        let n = v.len();
        let k = k_seed % n;
        let mut asc = v.clone();
        let mut desc = v.clone();
        let mut ma = NthElementMachine::new(0, n, k, Direction::Ascending);
        let mut md = NthElementMachine::new(0, n, n - 1 - k, Direction::Descending);
        while ma.step(&mut asc, 17) == MachineStatus::InProgress {}
        while md.step(&mut desc, 17) == MachineStatus::InProgress {}
        // k-th smallest == (n-1-k)-th largest.
        prop_assert_eq!(asc[k], desc[n - 1 - k]);
    }

    #[test]
    fn partition_machine_equals_partition3(
        mut v in prop::collection::vec(0u8..16, 1..600),
        pivot in 0u8..16,
        budget in 1usize..50,
    ) {
        let mut reference = v.clone();
        let n = v.len();
        let (rlt, rgt) = partition3(&mut reference, 0, n, &pivot);
        let mut m = PartitionMachine::new(0, n, pivot, Direction::Ascending);
        while m.step(&mut v, budget) == MachineStatus::InProgress {}
        let (lt, gt) = m.result().unwrap();
        prop_assert_eq!((lt, gt), (rlt, rgt));
        for &x in &v[..lt] {
            prop_assert!(x < pivot);
        }
        for &x in &v[lt..gt] {
            prop_assert!(x == pivot);
        }
        for &x in &v[gt..] {
            prop_assert!(x > pivot);
        }
    }
}
