//! Properties of the compaction paths as seen from the structure
//! level: the array-of-structs sampled-pivot compaction must stay
//! exact and rarely fall back to full selection on realistic inputs
//! (also on `OrderedF64` edge values), and the kernel-accelerated SoA
//! path must produce identical results whether the kernels dispatch
//! scalar or SIMD.

use proptest::prelude::*;
use qmax_core::{AmortizedQMax, BatchInsert, OrderedF64, QMax, SoaAmortizedQMax};
use qmax_select::Kernel;

/// Heavy-tailed ("zipf-ish") value stream: many small values, few huge.
fn zipf_stream(len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((any::<u64>(), 0u32..48), len..len + 1)
        .prop_map(|v| v.into_iter().map(|(r, s)| r >> s).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sampled pivots hit the q(1+γ) tolerance band almost always: on
    /// 10k-element zipf buffers fewer than 5% of compactions may fall
    /// back to exact selection — and the result stays exactly top-q.
    #[test]
    fn sampled_pivot_fallback_rate_below_5_percent(vals in zipf_stream(10_000)) {
        // cap = 2·q = 2048 ≥ SAMPLED_COMPACT_MIN, so every compaction
        // takes the sampled path.
        let q = 1024usize;
        let mut qm: AmortizedQMax<u64, u64> = AmortizedQMax::new(q, 1.0);
        for (i, &v) in vals.iter().enumerate() {
            qm.insert(i as u64, v);
        }
        let compactions = qm.compactions();
        let fallbacks = qm.pivot_fallbacks();
        prop_assert!(compactions > 0, "stream must force at least one compaction");
        prop_assert!(
            (fallbacks as f64) < 0.05 * (compactions as f64).max(1.0),
            "fallback rate too high: {fallbacks}/{compactions}"
        );

        // Exactness regardless of how many fallbacks occurred.
        let mut expect = vals.clone();
        expect.sort_unstable();
        let top: Vec<u64> = expect[expect.len() - q..].to_vec();
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, val)| val).collect();
        got.sort_unstable();
        prop_assert_eq!(got, top);
    }

    /// Forcing the scalar kernel must not change anything observable:
    /// same admissions, same Ψ trajectory, same compaction schedule,
    /// same surviving (id, value) set as the auto-dispatched kernel.
    #[test]
    fn scalar_and_simd_dispatch_are_observably_identical(
        vals in zipf_stream(6_000),
        batch in 1usize..700,
    ) {
        let q = 512usize;
        let mut auto: SoaAmortizedQMax<u64, u64> = SoaAmortizedQMax::new(q, 1.0);
        let mut forced: SoaAmortizedQMax<u64, u64> = SoaAmortizedQMax::new(q, 1.0);
        forced.set_kernel(Kernel::scalar());

        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        for chunk in items.chunks(batch) {
            let a = auto.insert_batch(chunk);
            let f = forced.insert_batch(chunk);
            prop_assert_eq!(a, f, "admission counts diverged");
            prop_assert_eq!(auto.threshold(), forced.threshold(), "Ψ diverged");
        }
        prop_assert_eq!(auto.compactions(), forced.compactions());

        let mut a: Vec<(u64, u64)> = auto.query();
        let mut f: Vec<(u64, u64)> = forced.query();
        a.sort_unstable();
        f.sort_unstable();
        prop_assert_eq!(a, f);
    }

    /// Non-`u64` value types (here `OrderedF64`, including signed
    /// zeros, subnormals, and infinities) live in the array-of-structs
    /// backend and keep exact top-q semantics through its sampled
    /// compaction (cap = 2·q = 1400 ≥ `SAMPLED_COMPACT_MIN`).
    #[test]
    fn ordered_f64_edge_values_stay_exact(
        raw in prop::collection::vec(
            prop_oneof![
                Just(0.0f64),
                Just(-0.0f64),
                Just(f64::MIN_POSITIVE),
                Just(-f64::MIN_POSITIVE),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                (-1.0e9f64..1.0e9f64),
            ],
            4_000..4_001,
        ),
    ) {
        let q = 700usize;
        let mut qm: AmortizedQMax<u32, OrderedF64> = AmortizedQMax::new(q, 1.0);
        for (i, &v) in raw.iter().enumerate() {
            qm.insert(i as u32, OrderedF64(v));
        }
        let mut expect: Vec<OrderedF64> = raw.iter().map(|&v| OrderedF64(v)).collect();
        expect.sort_unstable();
        let top = &expect[expect.len() - q..];
        let mut got: Vec<OrderedF64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        prop_assert_eq!(&got[..], top);
    }
}
