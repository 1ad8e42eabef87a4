//! Startup-calibrated backend selection policy (AoS vs SoA).
//!
//! The q-MAX interval backends come in two layouts: the array-of-structs
//! `AmortizedQMax` (a plain `Vec<(id, val)>` with a scalar admit loop and
//! no kernel handle) and the structure-of-arrays `SoaAmortizedQMax`
//! (split value/id lanes driven by the [`Kernel`] batch-admit and
//! partition kernels). Which one is faster is a *per-block* question:
//! the SoA path pays a per-chunk fixed cost (slice setup, dispatch,
//! lane bookkeeping) that only amortizes once a block sees enough items
//! per trip, while below that point the AoS loop — which never touches
//! a kernel handle at all — wins. The slack-window variants multiply
//! block count as τ shrinks, so the expected items-per-block swings
//! over three orders of magnitude across reasonable configurations.
//!
//! This module turns that trade-off into a measured decision:
//!
//! * [`calibrate`] extends the runtime kernel-dispatch probe into a
//!   startup **calibration pass**: it times one AoS-style admit trip and
//!   one SoA-style kernel admit trip at two sizes and fits a two-point
//!   linear model (fixed cost + per-item cost for each layout).
//! * [`CostModel`] holds the fit and its derived **crossover capacity**
//!   — the smallest expected per-trip fill at which the SoA line dips
//!   below the AoS line.
//! * [`BackendPolicy`] combines the model with a [`PolicyMode`] read
//!   from the `QMAX_BACKEND_POLICY` environment variable (`auto` /
//!   `force-aos` / `force-soa`); [`BackendPolicy::global`] caches one
//!   calibrated policy per process.
//!
//! The policy composes with `QMAX_FORCE_SCALAR`: calibration times
//! whatever [`Kernel::detect`] resolves, so when dispatch is pinned to
//! the portable path the model measures (and the crossover reflects)
//! the scalar tiers.
//!
//! The choice is **performance-only**: both layouts are behavioral
//! twins (same admissions, same Ψ, same top-q on the value multiset),
//! so a wrong pick can never change a caller's observable results —
//! the differential property suites pin this down.

use std::sync::OnceLock;
use std::time::Instant;

use crate::kernels::{Kernel, KernelKind};

/// How the policy picks between the AoS and SoA interval backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMode {
    /// Consult the calibrated [`CostModel`] per block capacity / fill.
    #[default]
    Auto,
    /// Always pick the array-of-structs backend (no kernel handle).
    ForceAos,
    /// Always pick the structure-of-arrays SIMD backend.
    ForceSoa,
}

impl PolicyMode {
    /// Parses the `QMAX_BACKEND_POLICY` spellings: `auto`, `force-aos`,
    /// `force-soa` (case-insensitive; `aos` / `soa` are accepted as
    /// shorthands, the empty string means `auto`). Returns `None` for
    /// anything else.
    pub fn parse(s: &str) -> Option<PolicyMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(PolicyMode::Auto),
            "force-aos" | "aos" => Some(PolicyMode::ForceAos),
            "force-soa" | "soa" => Some(PolicyMode::ForceSoa),
            _ => None,
        }
    }

    /// Reads `QMAX_BACKEND_POLICY` from the environment. Unset or
    /// unparseable values fall back to [`PolicyMode::Auto`] (an unknown
    /// spelling must not crash a production start-up; the auto path is
    /// always correct).
    pub fn from_env() -> PolicyMode {
        std::env::var("QMAX_BACKEND_POLICY")
            .ok()
            .and_then(|s| PolicyMode::parse(&s))
            .unwrap_or(PolicyMode::Auto)
    }
}

/// Which layout the policy picked for one block prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Array-of-structs `AmortizedQMax`: scalar admit loop, no kernel
    /// handle — the small-block fast path.
    Aos,
    /// Structure-of-arrays `SoaAmortizedQMax`: kernel-dispatched batch
    /// admit and partition over split lanes.
    Soa,
}

/// Two-point linear cost model for one admit trip through each layout:
/// `time(n) ≈ fixed_ns + n · per_item_ns`, fitted from measurements at
/// [`CAL_SMALL`] and [`CAL_LARGE`] items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Which kernel tier the SoA measurements dispatched to.
    pub kernel_kind: KernelKind,
    /// Fixed per-trip cost of the AoS admit loop, nanoseconds.
    pub aos_fixed_ns: f64,
    /// Marginal per-item cost of the AoS admit loop, nanoseconds.
    pub aos_per_item_ns: f64,
    /// Fixed per-trip cost of the SoA kernel admit, nanoseconds.
    pub soa_fixed_ns: f64,
    /// Marginal per-item cost of the SoA kernel admit, nanoseconds.
    pub soa_per_item_ns: f64,
    /// Smallest expected per-trip fill at which the SoA line is at or
    /// below the AoS line; `usize::MAX` when the SoA line never
    /// catches up (e.g. scalar dispatch with no SIMD win).
    pub crossover_items: usize,
}

/// Small calibration size (items per timed trip).
pub const CAL_SMALL: usize = 64;
/// Large calibration size (items per timed trip).
pub const CAL_LARGE: usize = 4096;
const CAL_TRIALS: usize = 9;
const CAL_REPS: usize = 8;

impl CostModel {
    /// Fits the model from per-trip times (nanoseconds) measured at
    /// `small` and `large` items: `per_item = Δt / Δn` (clamped at 0 —
    /// timer noise must not produce a negative slope), `fixed =
    /// t_small − per_item · small` (likewise clamped).
    pub fn fit(
        kernel_kind: KernelKind,
        small: usize,
        large: usize,
        aos_ns: (f64, f64),
        soa_ns: (f64, f64),
    ) -> CostModel {
        assert!(small < large, "calibration sizes must be ordered");
        let span = (large - small) as f64;
        let per = |t: (f64, f64)| ((t.1 - t.0) / span).max(0.0);
        let fixed = |t: (f64, f64), per: f64| (t.0 - per * small as f64).max(0.0);
        let aos_per_item_ns = per(aos_ns);
        let aos_fixed_ns = fixed(aos_ns, aos_per_item_ns);
        let soa_per_item_ns = per(soa_ns);
        let soa_fixed_ns = fixed(soa_ns, soa_per_item_ns);
        CostModel {
            kernel_kind,
            aos_fixed_ns,
            aos_per_item_ns,
            soa_fixed_ns,
            soa_per_item_ns,
            crossover_items: Self::crossover(
                aos_fixed_ns,
                aos_per_item_ns,
                soa_fixed_ns,
                soa_per_item_ns,
            ),
        }
    }

    /// The break-even fill of the two cost lines: the smallest `n` with
    /// `soa_fixed + n·soa_per ≤ aos_fixed + n·aos_per`, `0` when SoA is
    /// already at or below AoS at `n = 0`, and `usize::MAX` when the
    /// SoA line never catches up.
    pub fn crossover(aos_fixed: f64, aos_per: f64, soa_fixed: f64, soa_per: f64) -> usize {
        if soa_fixed <= aos_fixed && soa_per <= aos_per {
            return 0;
        }
        if soa_per < aos_per {
            let n = (soa_fixed - aos_fixed) / (aos_per - soa_per);
            // `n` is finite and positive here (soa_fixed > aos_fixed in
            // this branch); ceil to the first integer fill past break-even.
            n.ceil().min(usize::MAX as f64 / 2.0) as usize
        } else {
            usize::MAX
        }
    }

    /// Predicted trip time in nanoseconds for `n` items on each line,
    /// `(aos_ns, soa_ns)`.
    pub fn predict_ns(&self, n: usize) -> (f64, f64) {
        (
            self.aos_fixed_ns + n as f64 * self.aos_per_item_ns,
            self.soa_fixed_ns + n as f64 * self.soa_per_item_ns,
        )
    }

    /// Serializes the model as a compact JSON object for bench-report
    /// provenance (`crossover_items` is `null` when unbounded).
    pub fn summary_json(&self) -> String {
        let crossover = if self.crossover_items == usize::MAX {
            "null".to_string()
        } else {
            self.crossover_items.to_string()
        };
        format!(
            concat!(
                "{{\"kernel\": \"{:?}\", \"aos_fixed_ns\": {:.3}, ",
                "\"aos_per_item_ns\": {:.4}, \"soa_fixed_ns\": {:.3}, ",
                "\"soa_per_item_ns\": {:.4}, \"crossover_items\": {}}}"
            ),
            self.kernel_kind,
            self.aos_fixed_ns,
            self.aos_per_item_ns,
            self.soa_fixed_ns,
            self.soa_per_item_ns,
            crossover,
        )
    }
}

/// Minimum of `CAL_TRIALS` trials of `CAL_REPS` repetitions each, in
/// nanoseconds per repetition. Min-of-trials is the standard robust
/// estimator for short deterministic loops: interference only ever
/// adds time.
fn min_time_ns<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..CAL_TRIALS {
        let t0 = Instant::now();
        for _ in 0..CAL_REPS {
            f();
        }
        let dt = t0.elapsed().as_nanos() as f64 / CAL_REPS as f64;
        best = best.min(dt);
    }
    best
}

/// Runs the startup calibration pass against `kernel` and fits a
/// [`CostModel`]. The AoS trip models `AmortizedQMax::insert_batch`'s
/// hot loop (hoisted-Ψ compare + pair push into a recycled buffer); the
/// SoA trip is the kernel batch admit into preallocated lanes. Both
/// trips admit every item, matching the windows' dominant regime
/// (Ψ = `None` or below the stream mass between compactions).
///
/// Total budget is sub-millisecond: 2 sizes × 2 layouts × 9 trials × 8
/// reps over at most [`CAL_LARGE`] items.
pub fn calibrate(kernel: Kernel<u64>) -> CostModel {
    let make_items = |n: usize| -> Vec<(u64, u64)> {
        (0..n as u64)
            .map(|i| (i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1))
            .collect()
    };
    let small_items = make_items(CAL_SMALL);
    let large_items = make_items(CAL_LARGE);

    let mut aos_buf: Vec<(u64, u64)> = Vec::with_capacity(CAL_LARGE);
    let mut time_aos = |items: &[(u64, u64)]| {
        min_time_ns(|| {
            aos_buf.clear();
            let threshold = 0u64;
            for &(id, val) in items {
                if val > threshold {
                    aos_buf.push((id, val));
                }
            }
            std::hint::black_box(aos_buf.len());
        })
    };
    let aos_ns = (time_aos(&small_items), time_aos(&large_items));

    let mut vals = vec![0u64; CAL_LARGE];
    let mut ids = vec![0u64; CAL_LARGE];
    let mut time_soa = |items: &[(u64, u64)]| {
        min_time_ns(|| {
            let n = items.len();
            let w = kernel.admit_pairs(items, Some(0u64), &mut vals, &mut ids, 0, n);
            std::hint::black_box(w);
        })
    };
    let soa_ns = (time_soa(&small_items), time_soa(&large_items));

    CostModel::fit(kernel.kind(), CAL_SMALL, CAL_LARGE, aos_ns, soa_ns)
}

/// A backend-selection policy: a [`PolicyMode`] plus the calibrated
/// [`CostModel`] it consults in auto mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendPolicy {
    mode: PolicyMode,
    model: CostModel,
}

impl BackendPolicy {
    /// Builds a policy from explicit parts (tests and benchmarks pin
    /// modes this way; production callers use [`BackendPolicy::global`]).
    pub fn new(mode: PolicyMode, model: CostModel) -> Self {
        BackendPolicy { mode, model }
    }

    /// The process-wide policy: mode from `QMAX_BACKEND_POLICY`, model
    /// from one [`calibrate`] pass against [`Kernel::detect`]. Both are
    /// resolved exactly once per process and cached.
    pub fn global() -> &'static BackendPolicy {
        static POLICY: OnceLock<BackendPolicy> = OnceLock::new();
        POLICY.get_or_init(|| {
            BackendPolicy::new(PolicyMode::from_env(), calibrate(Kernel::<u64>::detect()))
        })
    }

    /// The policy's mode.
    pub fn mode(&self) -> PolicyMode {
        self.mode
    }

    /// The calibrated cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Picks a layout for a block of `capacity` slots that is expected
    /// to see `expected_fill` items over its lifetime (between window
    /// recycles). `None` means "unbounded" — the plain interval use
    /// where the block fills and compacts over and over. Forced modes
    /// bypass the model entirely.
    ///
    /// Two regimes drive the auto decision:
    ///
    /// * **Append-only** (`expected_fill ≤ capacity`): the block is
    ///   recycled before it ever reaches capacity, so no compaction —
    ///   the SIMD trip the SoA layout is built around — runs at all.
    ///   What remains is raw appends, where the AoS single interleaved
    ///   push beats the SoA twin-lane push (measured ~1.25× on the
    ///   basic window at τ = 0.01, whose blocks see `w·τ < capacity`
    ///   items each). AoS wins unconditionally here.
    /// * **Compaction-heavy** (`expected_fill > capacity` or `None`):
    ///   the block cycles through kernel admits, so the calibrated
    ///   crossover decides — AoS only while the per-trip fill
    ///   (≈ capacity) is below the break-even of the two cost lines.
    pub fn choose(&self, capacity: usize, expected_fill: Option<usize>) -> BackendChoice {
        match self.mode {
            PolicyMode::ForceAos => BackendChoice::Aos,
            PolicyMode::ForceSoa => BackendChoice::Soa,
            PolicyMode::Auto => {
                if let Some(fill) = expected_fill {
                    if fill <= capacity {
                        return BackendChoice::Aos;
                    }
                }
                if capacity.max(1) < self.model.crossover_items {
                    BackendChoice::Aos
                } else {
                    BackendChoice::Soa
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_spellings() {
        assert_eq!(PolicyMode::parse("auto"), Some(PolicyMode::Auto));
        assert_eq!(PolicyMode::parse(""), Some(PolicyMode::Auto));
        assert_eq!(PolicyMode::parse("force-aos"), Some(PolicyMode::ForceAos));
        assert_eq!(PolicyMode::parse("FORCE-SOA"), Some(PolicyMode::ForceSoa));
        assert_eq!(PolicyMode::parse(" aos "), Some(PolicyMode::ForceAos));
        assert_eq!(PolicyMode::parse("soa"), Some(PolicyMode::ForceSoa));
        assert_eq!(PolicyMode::parse("fastest"), None);
        assert_eq!(PolicyMode::parse("force_aos"), None);
    }

    #[test]
    fn crossover_math() {
        // SoA dominates outright.
        assert_eq!(CostModel::crossover(10.0, 2.0, 5.0, 1.0), 0);
        // Classic trade: SoA pays 90 ns more up front, saves 1 ns/item.
        assert_eq!(CostModel::crossover(10.0, 2.0, 100.0, 1.0), 90);
        // Fractional break-even rounds up.
        assert_eq!(CostModel::crossover(10.0, 2.0, 101.0, 1.0), 91);
        // SoA never catches up.
        assert_eq!(CostModel::crossover(10.0, 1.0, 20.0, 1.0), usize::MAX);
        assert_eq!(CostModel::crossover(10.0, 1.0, 20.0, 2.0), usize::MAX);
    }

    #[test]
    fn fit_clamps_noise() {
        // A "large" measurement faster than the "small" one (pure timer
        // noise) must not produce negative slopes or fixed costs.
        let m = CostModel::fit(KernelKind::Scalar, 64, 4096, (100.0, 50.0), (100.0, 50.0));
        assert_eq!(m.aos_per_item_ns, 0.0);
        assert_eq!(m.soa_per_item_ns, 0.0);
        assert!(m.aos_fixed_ns >= 0.0 && m.soa_fixed_ns >= 0.0);
        assert_eq!(m.crossover_items, 0);
    }

    fn model_with_crossover(crossover: usize) -> CostModel {
        CostModel {
            kernel_kind: KernelKind::Scalar,
            aos_fixed_ns: 10.0,
            aos_per_item_ns: 2.0,
            soa_fixed_ns: 100.0,
            soa_per_item_ns: 1.0,
            crossover_items: crossover,
        }
    }

    #[test]
    fn forced_modes_bypass_model() {
        let model = model_with_crossover(usize::MAX);
        let aos = BackendPolicy::new(PolicyMode::ForceAos, model);
        let soa = BackendPolicy::new(PolicyMode::ForceSoa, model);
        for cap in [1usize, 100, 1 << 20] {
            assert_eq!(aos.choose(cap, None), BackendChoice::Aos);
            assert_eq!(soa.choose(cap, Some(1)), BackendChoice::Soa);
        }
    }

    #[test]
    fn auto_distinguishes_append_only_from_compaction_heavy() {
        let p = BackendPolicy::new(PolicyMode::Auto, model_with_crossover(90));
        // No hint: unbounded stream, crossover decides on capacity.
        assert_eq!(p.choose(1000, None), BackendChoice::Soa);
        assert_eq!(p.choose(50, None), BackendChoice::Aos);
        // Lifetime fill within capacity: append-only, AoS regardless of
        // the crossover (even when the fill exceeds it).
        assert_eq!(p.choose(1000, Some(10)), BackendChoice::Aos);
        assert_eq!(p.choose(1000, Some(1000)), BackendChoice::Aos);
        // Lifetime fill past capacity: compaction-heavy, back to the
        // crossover on capacity.
        assert_eq!(p.choose(1000, Some(10_000)), BackendChoice::Soa);
        assert_eq!(p.choose(50, Some(10_000)), BackendChoice::Aos);
    }

    #[test]
    fn append_only_rule_beats_soa_dominant_model() {
        // Even a model where SoA dominates outright (crossover 0) must
        // not reach a block that never compacts: at basic-window
        // τ = 0.01 geometry (fill w·τ below capacity) the measured win
        // is AoS, because the kernel path never runs.
        let p = BackendPolicy::new(PolicyMode::Auto, model_with_crossover(0));
        assert_eq!(p.choose(12_500, Some(10_000)), BackendChoice::Aos);
        assert_eq!(p.choose(12_500, Some(100_000)), BackendChoice::Soa);
        assert_eq!(p.choose(12_500, None), BackendChoice::Soa);
    }

    #[test]
    fn calibration_produces_sane_model() {
        let m = calibrate(Kernel::<u64>::detect());
        assert!(m.aos_fixed_ns.is_finite() && m.aos_fixed_ns >= 0.0);
        assert!(m.soa_fixed_ns.is_finite() && m.soa_fixed_ns >= 0.0);
        assert!(m.aos_per_item_ns.is_finite() && m.aos_per_item_ns >= 0.0);
        assert!(m.soa_per_item_ns.is_finite() && m.soa_per_item_ns >= 0.0);
        let json = m.summary_json();
        for key in [
            "kernel",
            "aos_fixed_ns",
            "aos_per_item_ns",
            "soa_fixed_ns",
            "soa_per_item_ns",
            "crossover_items",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn global_policy_is_cached() {
        let a = BackendPolicy::global() as *const BackendPolicy;
        let b = BackendPolicy::global() as *const BackendPolicy;
        assert_eq!(a, b);
    }

    #[test]
    fn predict_follows_lines() {
        let m = model_with_crossover(90);
        let (a, s) = m.predict_ns(90);
        assert_eq!(a, 10.0 + 180.0);
        assert_eq!(s, 100.0 + 90.0);
    }
}
