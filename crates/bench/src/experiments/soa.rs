//! AoS-vs-SoA layout comparison on the batched insert hot loop.
//!
//! The paper's throughput argument is entirely about the per-update
//! constant; this experiment measures the layout half of that constant.
//! For γ ∈ {0.25, 1, 4} it streams Zipf(1.0) and CAIDA-like traces
//! through the array-of-structs amortized backend and its
//! structure-of-arrays twin (branchless chunked Ψ-filter + value-lane
//! selection kernels), asserts the two layouts produce the same
//! reservoir, and reports millions of inserts per second plus the SoA
//! speedup. The de-amortized variant has a single (array-of-structs)
//! layout, so it has no row here.
//!
//! Series go to `results/soa_compare.csv` as usual; the same numbers are
//! also written machine-readably to `BENCH_soa.json` in the working
//! directory (the repo root in normal invocations) so the perf
//! trajectory across PRs can be tracked by tooling.

use crate::scale::Scale;
use crate::{fmt, mpps, Report};
use qmax_core::{AmortizedQMax, BatchInsert, SoaAmortizedQMax};
use qmax_traces::gen::{caida_like, random_u64_stream};
use qmax_traces::zipf::ZipfSampler;
use std::io::Write;
use std::time::Instant;

const BATCH: usize = 1024;

/// PR 2 amortized AoS→SoA speedups from the checked-in `BENCH_soa.json`
/// (same q, stream length, and batch size), per `(trace, gamma)`. Kept
/// as a CSV column so the before/after of the small-surplus compaction
/// fix is recorded next to the current numbers — at γ = 0.25 PR 2
/// regressed to 0.918 (zipf), the number this PR is accountable for.
const PR2_AM_SPEEDUP: [(&str, f64, f64); 6] = [
    ("zipf", 0.25, 172.960 / 188.365),
    ("zipf", 1.0, 419.555 / 242.841),
    ("zipf", 4.0, 360.541 / 233.221),
    ("caida", 0.25, 208.029 / 190.771),
    ("caida", 1.0, 479.576 / 283.843),
    ("caida", 4.0, 543.069 / 310.677),
];

fn pr2_am_speedup(trace: &str, gamma: f64) -> f64 {
    PR2_AM_SPEEDUP
        .iter()
        .find(|(t, g, _)| *t == trace && *g == gamma)
        .map(|(_, _, s)| *s)
        .unwrap_or(f64::NAN)
}

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut flows = ZipfSampler::new(1_000_000, 1.0, seed);
    random_u64_stream(n, seed ^ 0x5EED)
        .map(|v| (flows.sample() as u64, v))
        .collect()
}

fn caida_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    caida_like(n, seed)
        .map(|p| (p.flow().as_u64(), p.len as u64))
        .collect()
}

/// Times the batched-insert path and returns (mips, sorted final top-q).
fn time_batch<B: BatchInsert<u64, u64>>(qm: &mut B, items: &[(u64, u64)]) -> (f64, Vec<u64>) {
    let start = Instant::now();
    for chunk in items.chunks(BATCH) {
        qm.insert_batch(chunk);
    }
    let mips = mpps(items.len(), start.elapsed());
    let mut vals: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
    vals.sort_unstable();
    (mips, vals)
}

/// One measured series row, kept for the JSON mirror.
struct SeriesRow {
    trace: &'static str,
    gamma: f64,
    aos_amortized_mips: f64,
    soa_amortized_mips: f64,
}

/// Sweeps γ ∈ {0.25, 1, 4} × {zipf, caida} at q = 10⁴ comparing the AoS
/// and SoA layouts of the amortized q-MAX; mirrors the series as
/// `results/soa_compare.csv` and `BENCH_soa.json`.
pub fn soa_compare(scale: &Scale) {
    println!("# AoS vs SoA layout: batched insert throughput (q=10^4)");
    let n = scale.stream(2_000_000);
    let q = 10_000;
    let gammas = [0.25, 1.0, 4.0];
    let traces = [("zipf", zipf_stream(n, 7)), ("caida", caida_stream(n, 9))];
    let mut rep = Report::new(
        "soa_compare",
        &[
            "trace",
            "gamma",
            "aos_am_mips",
            "soa_am_mips",
            "am_speedup",
            "pr2_am_speedup",
        ],
    );
    let mut rows: Vec<SeriesRow> = Vec::new();
    for (name, items) in &traces {
        for &gamma in &gammas {
            let (aos_am, top_aos_am) = time_batch(&mut AmortizedQMax::new(q, gamma), items);
            let (soa_am, top_soa_am) = time_batch(&mut SoaAmortizedQMax::new(q, gamma), items);
            assert_eq!(
                top_aos_am, top_soa_am,
                "amortized layouts diverged on {name} gamma={gamma}"
            );
            rep.row(&[
                name.to_string(),
                gamma.to_string(),
                fmt(aos_am),
                fmt(soa_am),
                fmt(soa_am / aos_am),
                fmt(pr2_am_speedup(name, gamma)),
            ]);
            rows.push(SeriesRow {
                trace: name,
                gamma,
                aos_amortized_mips: aos_am,
                soa_amortized_mips: soa_am,
            });
        }
    }
    write_bench_json(&rows, n, q);
}

/// Hand-rolled JSON mirror (no serde in the dependency-free build).
fn write_bench_json(rows: &[SeriesRow], stream_len: usize, q: usize) {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            concat!(
                "    {{\"trace\": \"{}\", \"gamma\": {}, ",
                "\"aos_amortized_mips\": {:.3}, \"soa_amortized_mips\": {:.3}, ",
                "\"amortized_speedup\": {:.3}}}"
            ),
            r.trace,
            r.gamma,
            r.aos_amortized_mips,
            r.soa_amortized_mips,
            r.soa_amortized_mips / r.aos_amortized_mips,
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"soa_compare\",\n",
            "  \"generated_unix_secs\": {ts},\n",
            "  \"q\": {q},\n",
            "  \"stream_len\": {n},\n",
            "  \"batch\": {batch},\n",
            "  \"nproc\": {nproc},\n",
            "  \"machine_caveats\": \"wall-clock timing on a shared, unpinned machine ",
            "(no CPU isolation, no frequency control, container noise); ",
            "relative AoS-vs-SoA speedups are the signal, absolute MIPS are not ",
            "comparable across machines or runs\",\n",
            "  \"series\": [\n{body}\n  ]\n",
            "}}\n"
        ),
        ts = ts,
        q = q,
        n = stream_len,
        batch = BATCH,
        nproc = nproc,
        body = body,
    );
    match std::fs::File::create("BENCH_soa.json").and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[soa] wrote BENCH_soa.json"),
        Err(e) => eprintln!("[soa] could not write BENCH_soa.json: {e}"),
    }
}
