//! The q-MAX benchmark: four single-client, closed-loop workloads, each
//! checked against an untimed reference, with end-to-end metrics from
//! an untraced run (`--trace 0`) and a per-layer breakdown from a
//! traced one (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Human-readable records go first; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod common;
mod trace;
mod workloads;

use common::{median, Measured, Outcome};
use qmax_select::{BackendPolicy, Kernel};
use std::path::{Path, PathBuf};
use std::process::Command;
use workloads::{Ctx, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("throughput_mips", "Mitems/s"),
    ("batch_mean_us", "us"),
    ("batch_p99_us", "us"),
    ("query_p50_ms", "ms"),
    ("hit_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer the
/// workload does not run reports 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("sharded.route_ns_per_item", "ns"),
    ("sharded.prefilter_ratio", "ratio"),
    ("sharded.admitted_per_item", "ratio"),
    ("sharded.shard_admit_ns_per_item", "ns"),
    ("sharded.query_local_ms", "ms"),
    ("sharded.query_merge_ms", "ms"),
    ("deamortized.ops_per_admit", "ops"),
    ("deamortized.max_step_ops", "ops"),
    ("deamortized.forced_completions", "count"),
    ("window.block_admit_ns_per_item", "ns"),
    ("window.compactions_per_kitem", "count/kitem"),
    ("window.pivot_fallback_ratio", "ratio"),
    ("window.allocs_per_kitem", "count/kitem"),
    ("policy.calibration_ms", "ms"),
    ("driver.produce_ns_per_item", "ns"),
    ("driver.drain_ns_per_item", "ns"),
    ("driver.handoff_ns_per_item", "ns"),
    ("driver.allocs_per_batch", "count"),
    ("driver.ring_high_water", "batches"),
    ("driver.saturated_shards", "count"),
    ("driver.admitted_per_item", "ratio"),
    ("lrfu.probe_ns_per_req", "ns"),
    ("lrfu.merge_ns_per_req", "ns"),
    ("lrfu.residual_ns_per_req", "ns"),
    ("lrfu.maintenance_passes_per_kreq", "count/kreq"),
    ("lrfu.flow_table_resizes", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Fresh processes whose construction times make up `setup_s`.
const SETUP_PROBES: usize = 48;

/// Settings that change the program being measured.
const REFUSED_ENV: [&str; 2] = ["QMAX_FORCE_SCALAR", "QMAX_BACKEND_POLICY"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    setup_probe: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        let (mut tiny, mut setup_probe) = (false, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--tiny" => tiny = true,
                "--setup-probe" => setup_probe = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        Ok(Args {
            workload: workload.ok_or(format!(
                "--workload is required: one of {}",
                names.join(", ")
            ))?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace,
            tiny,
            setup_probe,
        })
    }
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; it changes the program being measured, so unset it"
        ));
    }
    let args = Args::parse(std::env::args().skip(1))?;
    if args.setup_probe {
        println!(
            "{}",
            workloads::setup(args.workload, args.tiny).as_secs_f64()
        );
        return Ok(());
    }
    let name = args.workload.name();
    println!(
        "perfbench workload={name} seed={} seconds={} trace={} tiny={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny
    );
    println!("host {}", host_record(args.seed));
    let setup_s = if args.trace {
        None
    } else {
        Some(setup_seconds(&args)?)
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
    };
    let outcome = workloads::run(args.workload, &ctx, args.trace);
    if let Some(spans) = &outcome.spans {
        let path = spans_path(name)?;
        spans
            .write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans {}", path.display());
    }
    report(outcome, setup_s);
    Ok(())
}

/// The host and environment the numbers belong to.
fn host_record(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let policy = BackendPolicy::global();
    let crossover = match policy.model().crossover_items {
        usize::MAX => "none".to_string(),
        n => n.to_string(),
    };
    format!(
        "nproc={nproc} kernel={:?} policy_mode={:?} policy_crossover_items={crossover} git_rev={} seed={seed}",
        Kernel::<u64>::detect().kind(),
        policy.mode(),
        git_rev(),
    )
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Construction time over fresh processes, so every probe pays the
/// one-time lazy initialisation a real start-up pays; the median of the
/// probes. Unlike the other timings it does not keep only the best
/// eighth: most probes' times sit in the middle of a 2× range whose
/// fast end is thin, so the median of the best eighth followed how many
/// fast probes a run happened to draw, and the median of all is
/// steadier.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--setup-probe", "--workload", args.workload.name()]);
        if args.tiny {
            cmd.arg("--tiny");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("running a setup probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "setup probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("setup probe printed {text:?}: {e}"))?;
        times.push(secs);
    }
    Ok(median(&times))
}

/// Where a traced run's spans go: next to the benchmark binary, inside
/// the build directory.
fn spans_path(workload: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the benchmark binary has no directory")?;
    Ok(dir.join(format!("perfbench-spans-{workload}.csv")))
}

fn report(outcome: Outcome, setup_s: Option<f64>) {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    match &outcome.measured {
        Measured::EndToEnd(e2e) => {
            let s = e2e.summary();
            println!(
                "samples passes={} kept_best={} batches={} queries={}",
                e2e.passes.len(),
                s.kept,
                e2e.samples.0,
                e2e.samples.1
            );
            // Printed, not gated: see "Reading the timings" in the README.
            println!("record batch_p50_us = {} us", s.batch_p50_ns / 1e3);
            let values = [
                s.throughput_mips,
                s.batch_mean_ns / 1e3,
                s.batch_p99_ns / 1e3,
                s.query_p50_ns / 1e6,
                e2e.hit_ratio,
                setup_s.unwrap_or(0.0),
                e2e.peak_heap_bytes as f64 / 1e6,
            ];
            for ((name, unit), v) in END_TO_END.iter().zip(values) {
                metrics.push((name, v, unit));
            }
        }
        Measured::Layers(layers) => {
            for (name, unit) in PER_LAYER {
                metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
            }
        }
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    let checks = &outcome.checks;
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    println!(
        "metric error_rate = {} ratio (checks={}, failed={})",
        common::ratio(checks.failed as f64, checks.made as f64),
        checks.made,
        checks.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.made > 0,
        checks.made.max(1),
        checks.failed,
        body.join(", ")
    );
}
