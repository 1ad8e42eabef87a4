//! Runs every workload on tiny inputs, traced and untraced, and checks
//! that each output passes its correctness gate and names every metric
//! `BENCHMARK.json` lists.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["sharded-zipf", "window-zipf", "driver-caida", "lrfu-arc"];

fn run(workload: &str, trace: &str, env: Option<(&str, &str)>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", trace, "--tiny"])
        .env_remove("QMAX_FORCE_SCALAR")
        .env_remove("QMAX_BACKEND_POLICY");
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

/// The `"name"` values of one metric list in `BENCHMARK.json`.
fn metric_names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has {section}"));
    let body = &text[start..];
    let end = body.find(']').expect("the list is closed");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

fn check(workload: &str, trace: &str, section: &str) {
    let out = run(workload, trace, None);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("metric error_rate = 0 ratio"),
        "{workload}: {stdout}"
    );
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
    let names = metric_names(section);
    assert!(!names.is_empty());
    for name in names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload} trace={trace} does not print {name}: {last}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        check(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        check(w, "1", "per_layer");
    }
}

#[test]
fn settings_that_change_the_program_are_refused() {
    for var in ["QMAX_FORCE_SCALAR", "QMAX_BACKEND_POLICY"] {
        let out = run("sharded-zipf", "0", Some((var, "1")));
        assert_eq!(out.status.code(), Some(2), "{var} was not refused");
        assert!(out.stdout.is_empty(), "{var}: printed {:?}", out.stdout);
    }
}
