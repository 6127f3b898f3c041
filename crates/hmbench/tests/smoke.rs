//! Runs every workload at smoke scale through the built binary: the
//! output contract holds, every metric `BENCHMARK.json` names is
//! emitted with its unit, and counted metrics repeat exactly.

use hmbench::json::{self, Json};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke-scale workload and returns its last output line,
/// checked against the output contract.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_hmbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--scale", "smoke", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("hmbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let v = json::parse(last).expect("last line is JSON");
    let keys: Vec<&str> = v.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stdout}"
    );
    assert!(v.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    assert_eq!(v.get("failed").and_then(Json::as_f64), Some(0.0));
    v
}

fn value(run: &Json, metric: &str) -> f64 {
    run.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{metric} missing"))
}

fn check_workload(workload: &str) {
    let bench = benchmark_json();
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let got = run(workload, trace);
        let emitted: Vec<(String, String)> = got
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                (name.clone(), unit.to_owned())
            })
            .collect();
        assert_eq!(
            emitted,
            declared(&bench, list),
            "{workload}: {list} metrics"
        );
        if !trace {
            for (name, _) in &emitted {
                assert!(
                    value(&got, name) > 0.0,
                    "{workload}: {name} must never be 0"
                );
            }
        }
    }
    // Counted metrics depend only on the seed, never on the host. With
    // worker threads the pool's own queue allocates as the threads
    // happen to interleave, so allocations repeat exactly only on a
    // single thread.
    let (a, b) = (run(workload, false), run(workload, false));
    let exact: &[&str] = if workload == "fleet_day" {
        &["wire_bytes_per_op"]
    } else {
        &["wire_bytes_per_op", "allocs_per_op", "alloc_bytes_per_op"]
    };
    for metric in exact {
        assert_eq!(value(&a, metric), value(&b, metric), "{workload}: {metric}");
    }
}

#[test]
fn benchmark_json_lists_the_four_workloads() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    assert_eq!(names, ["mix_soap", "mix_binary", "vsr_churn", "fleet_day"]);
}

#[test]
fn default_run_length_is_run_seconds() {
    let run_seconds = benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert_eq!(run_seconds, hmbench::workload::DEFAULT_SECONDS as f64);
}

#[test]
fn mix_soap() {
    check_workload("mix_soap");
}

#[test]
fn mix_binary() {
    check_workload("mix_binary");
}

#[test]
fn vsr_churn() {
    check_workload("vsr_churn");
}

#[test]
fn fleet_day() {
    check_workload("fleet_day");
}

#[test]
fn agree_accepts_a_set_against_itself() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hmbench-agree");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for seed in ["1", "2", "3"] {
        let status = Command::new(env!("CARGO_BIN_EXE_hmbench"))
            .args(["--workload", "mix_binary", "--seed", seed, "--seconds", "0"])
            .args(["--scale", "smoke", "--out"])
            .arg(dir.join(format!("run{seed}.json")))
            .output()
            .expect("hmbench runs")
            .status;
        assert!(status.success());
    }
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let out = Command::new(env!("CARGO_BIN_EXE_hmbench"))
        .arg("agree")
        .args([&dir, &dir])
        .args(["--bench", bench])
        .output()
        .expect("agree runs");
    let text = String::from_utf8_lossy(&out.stdout);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert!(out.status.success(), "{text}");
    assert!(text.contains("mix_binary ops_per_s"), "{text}");
    assert!(text.contains("0 differ"), "{text}");
}
