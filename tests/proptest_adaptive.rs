//! Differential property tests for the adaptive backend layer: a
//! structure built on [`AdaptiveBackend`] must be observationally
//! identical — same top-q value multisets, same admission threshold Ψ,
//! same arrival accounting — no matter which layout the policy picks.
//! The policy moves *performance*, never semantics: forced-AoS,
//! forced-SoA, and every `auto` crossover must answer every query the
//! same way.
//!
//! Policies are pinned through [`AdaptiveBackend::try_with_policy`] /
//! window prototypes rather than the `QMAX_BACKEND_POLICY` environment
//! variable: the global policy is cached in a `OnceLock`, so env
//! overrides cannot be varied within one process. The env parsing
//! itself is covered by the policy module's unit tests; here we cover
//! every decision path the env knob can select.
//!
//! Streams cover the shapes named by the paper's workloads: Zipf-skewed
//! values, all-equal values, slack fractions τ from 0.003 to 1.0, and
//! streams long enough to recycle window blocks mid-run. Items are
//! `(u64, u64)`, the only shape with a split-lane layout, so the
//! forced-SoA arm runs the SIMD admit and partition kernels wherever
//! the CPU has them.

use proptest::prelude::*;
use qmax_core::{
    AdaptiveBackend, BackendPolicy, BasicSlackQMax, BatchInsert, CostModel, HierSlackQMax,
    PolicyMode, QMax,
};
use qmax_select::{calibrate, Kernel, KernelKind};
use qmax_traces::zipf::ZipfSampler;

const TAUS: [f64; 6] = [0.003, 0.01, 0.1, 0.33, 0.9, 1.0];

/// A synthetic cost model pinning the auto decision at `crossover`.
fn model_with_crossover(crossover_items: usize) -> CostModel {
    CostModel {
        kernel_kind: KernelKind::Scalar,
        aos_fixed_ns: 10.0,
        aos_per_item_ns: 2.0,
        soa_fixed_ns: 100.0,
        soa_per_item_ns: 1.0,
        crossover_items,
    }
}

/// The policy set the differential tests sweep: both forced modes plus
/// auto policies whose crossover lands below, inside, and above any
/// plausible block capacity — together they cover every layout decision
/// `QMAX_BACKEND_POLICY` can induce.
fn policy_suite() -> Vec<BackendPolicy> {
    vec![
        BackendPolicy::new(PolicyMode::ForceAos, model_with_crossover(64)),
        BackendPolicy::new(PolicyMode::ForceSoa, model_with_crossover(64)),
        BackendPolicy::new(PolicyMode::Auto, model_with_crossover(0)),
        BackendPolicy::new(PolicyMode::Auto, model_with_crossover(40)),
        BackendPolicy::new(PolicyMode::Auto, model_with_crossover(usize::MAX)),
    ]
}

fn value_stream(n: usize, seed: u64, all_equal: bool) -> Vec<u64> {
    if all_equal {
        return vec![seed | 1; n];
    }
    let mut zipf = ZipfSampler::new(5_000, 1.0, seed);
    (0..n).map(|_| zipf.sample() as u64).collect()
}

fn sorted_vals(pairs: Vec<(u64, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Plain interval reservoir: every policy in the suite admits the
    /// same items, reports the same Ψ, and answers the same top-q —
    /// singleton and batched arrivals alike.
    #[test]
    fn adaptive_interval_is_policy_invariant(
        seed in any::<u64>(),
        n in 16usize..3000,
        q in 1usize..48,
        gamma in 0.05f64..1.5,
        all_equal in 0usize..2,
        chunk in 1usize..400,
        fill_hint in 0usize..3,
    ) {
        let vals = value_stream(n, seed, all_equal == 1);
        let hint = match fill_hint {
            0 => None,
            1 => Some(1),
            _ => Some(n),
        };
        let mut backends: Vec<AdaptiveBackend<u64, u64>> = policy_suite()
            .iter()
            .map(|p| AdaptiveBackend::try_with_policy(q, gamma, hint, p).unwrap())
            .collect();
        // Feed the first backend singleton-wise, the rest batched.
        for (i, &v) in vals.iter().enumerate() {
            backends[0].insert(i as u64, v);
        }
        let items: Vec<(u64, u64)> = vals.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
        for b in backends.iter_mut().skip(1) {
            for span in items.chunks(chunk) {
                b.insert_batch(span);
            }
        }
        let reference = sorted_vals(backends[0].query());
        let psi = backends[0].threshold();
        let filtered = backends[0].filtered();
        for (k, b) in backends.iter_mut().enumerate().skip(1) {
            prop_assert_eq!(
                sorted_vals(b.query()),
                reference.clone(),
                "policy {} diverged on top-q",
                k
            );
            prop_assert_eq!(b.threshold(), psi, "policy {} diverged on psi", k);
            prop_assert_eq!(b.filtered(), filtered, "policy {} diverged on accounting", k);
        }
    }

    /// Basic slack window over adaptive blocks: the whole policy suite
    /// agrees at mid-stream (blocks recycled in place) and at
    /// end-of-stream, across τ ∈ [0.003, 1] and both stream shapes.
    #[test]
    fn adaptive_basic_window_is_policy_invariant(
        seed in any::<u64>(),
        n in 32usize..2500,
        q in 1usize..40,
        w in 1usize..1000,
        tau_sel in 0usize..6,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..400,
    ) {
        let tau = TAUS[tau_sel];
        let vals = value_stream(n, seed, all_equal == 1);
        let block = w.div_ceil(((1.0 / tau).ceil() as usize).max(1)).max(1);
        let mut windows: Vec<BasicSlackQMax<u64, u64, AdaptiveBackend<u64, u64>>> = policy_suite()
            .iter()
            .map(|p| {
                let proto =
                    AdaptiveBackend::try_with_policy(q, gamma, Some(block), p).unwrap();
                BasicSlackQMax::try_with_backend(w, tau, proto).unwrap()
            })
            .collect();
        let items: Vec<(u64, u64)> = vals.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
        // Two checkpoints: mid-stream (short streams) and end-of-stream
        // (n can exceed w several times over, so rings recycle blocks
        // in place between the checkpoints).
        for stop in [n / 2, n] {
            let start = if stop == n { n / 2 } else { 0 };
            for (k, sw) in windows.iter_mut().enumerate() {
                if k == 0 {
                    for &(id, v) in &items[start..stop] {
                        sw.insert(id, v);
                    }
                } else {
                    for span in items[start..stop].chunks(chunk) {
                        sw.insert_batch(span);
                    }
                }
            }
            let reference = sorted_vals(windows[0].query());
            for (k, sw) in windows.iter_mut().enumerate().skip(1) {
                prop_assert_eq!(
                    sorted_vals(sw.query()),
                    reference.clone(),
                    "policy {} diverged at position {}",
                    k,
                    stop
                );
            }
        }
    }

    /// Hierarchical slack window over adaptive blocks: same contract
    /// across 1–3 layers.
    #[test]
    fn adaptive_hier_window_is_policy_invariant(
        seed in any::<u64>(),
        n in 32usize..2000,
        q in 1usize..32,
        w in 1usize..1000,
        tau_sel in 0usize..6,
        c in 1usize..4,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..300,
    ) {
        let tau = TAUS[tau_sel];
        let vals = value_stream(n, seed, all_equal == 1);
        let mut windows: Vec<HierSlackQMax<u64, u64, AdaptiveBackend<u64, u64>>> = policy_suite()
            .iter()
            .map(|p| {
                let proto = AdaptiveBackend::try_with_policy(q, gamma, None, p).unwrap();
                HierSlackQMax::try_with_backend(w, tau, c, proto).unwrap()
            })
            .collect();
        let items: Vec<(u64, u64)> = vals.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
        for (k, sw) in windows.iter_mut().enumerate() {
            if k == 0 {
                for (i, &v) in vals.iter().enumerate() {
                    sw.insert(i as u64, v);
                }
            } else {
                for span in items.chunks(chunk) {
                    sw.insert_batch(span);
                }
            }
        }
        let reference = sorted_vals(windows[0].query());
        for (k, sw) in windows.iter_mut().enumerate().skip(1) {
            prop_assert_eq!(
                sorted_vals(sw.query()),
                reference.clone(),
                "policy {} diverged",
                k
            );
        }
    }
}

/// Calibration determinism: whatever kernel the calibration measured —
/// the runtime-dispatched one or the scalar one `QMAX_FORCE_SCALAR`
/// would pin — and whatever mode the env knob selects, query results
/// are identical. The cost model may differ between machines and runs;
/// the answers may not.
#[test]
fn calibrated_policies_are_observationally_identical() {
    let models = [
        calibrate(Kernel::<u64>::detect()),
        calibrate(Kernel::<u64>::scalar()),
    ];
    let modes = [PolicyMode::Auto, PolicyMode::ForceAos, PolicyMode::ForceSoa];
    let mut zipf = ZipfSampler::new(10_000, 1.0, 0xCA11);
    let items: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i, zipf.sample() as u64)).collect();
    let mut reference: Option<(Vec<u64>, Option<u64>)> = None;
    for model in &models {
        for mode in modes {
            let policy = BackendPolicy::new(mode, *model);
            let mut b: AdaptiveBackend<u64, u64> =
                AdaptiveBackend::try_with_policy(500, 0.25, None, &policy).unwrap();
            for span in items.chunks(777) {
                b.insert_batch(span);
            }
            let got = (sorted_vals(b.query()), b.threshold());
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(
                    &got, r,
                    "mode {mode:?} over kernel {:?} diverged",
                    model.kernel_kind
                ),
            }
        }
    }
}

/// The calibrated cost model itself is sane on this machine: finite,
/// non-negative, and serializable — the properties the bench JSON
/// provenance relies on.
#[test]
fn calibration_produces_a_usable_model() {
    let model = calibrate(Kernel::<u64>::detect());
    assert!(model.aos_per_item_ns.is_finite() && model.aos_per_item_ns >= 0.0);
    assert!(model.soa_per_item_ns.is_finite() && model.soa_per_item_ns >= 0.0);
    assert!(model.aos_fixed_ns.is_finite() && model.aos_fixed_ns >= 0.0);
    assert!(model.soa_fixed_ns.is_finite() && model.soa_fixed_ns >= 0.0);
    let json = model.summary_json();
    for key in [
        "kernel",
        "aos_fixed_ns",
        "aos_per_item_ns",
        "soa_fixed_ns",
        "soa_per_item_ns",
        "crossover_items",
    ] {
        assert!(json.contains(key), "cost-model JSON missing {key}: {json}");
    }
}
