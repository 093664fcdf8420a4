//! The benchmark keeps the contract `BENCHMARK.json` declares: every
//! workload runs and passes its output checks, prints exactly the declared
//! metrics with the declared units, and a fixed-size run is deterministic.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn declaration() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(decl: &'a Value, key: &str) -> &'a [Value] {
    decl.get(key)
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the list {key}"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry {entry:?} lacks {key}"))
}

/// `(name, unit)` of every metric in one of the declaration's lists.
fn declared(decl: &Value, key: &str) -> Vec<(String, String)> {
    list(decl, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

/// Run the benchmark binary with `--tiny`; returns stdout.
fn run_tiny(workload: &str, seed: u64, trace: bool, out: Option<&Path>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(out) = out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd.output().expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) exited {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// The printed `name value unit` lines and the final JSON line must carry
/// exactly the declared metrics, and every output check must have passed.
fn assert_reports(stdout: &str, want: &[(String, String)], what: &str) {
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, metric_lines) = lines.split_last().expect("the benchmark printed a result");
    let printed: Vec<(String, String)> = metric_lines
        .iter()
        .map(|l| {
            let parts: Vec<&str> = l.split(' ').collect();
            assert_eq!(parts.len(), 3, "{what}: malformed metric line {l:?}");
            assert!(parts[1].parse::<f64>().is_ok(), "{what}: value in {l:?}");
            (parts[0].to_string(), parts[2].to_string())
        })
        .collect();
    assert_eq!(printed, want, "{what}: printed metrics");

    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_map()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_map)
        .expect("metrics");
    let reported: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{what}: {name} = {value}");
            (name.clone(), field(m, "unit").to_string())
        })
        .collect();
    assert_eq!(reported, want, "{what}: JSON metrics");
}

#[test]
fn every_workload_reports_the_declared_metrics() {
    let decl = declaration();
    let end_to_end = declared(&decl, "end_to_end");
    let per_layer = declared(&decl, "per_layer");
    for workload in list(&decl, "workloads") {
        let name = field(workload, "name");
        assert_reports(&run_tiny(name, 7, false, None), &end_to_end, name);
        assert_reports(&run_tiny(name, 7, true, None), &per_layer, name);
    }
}

#[test]
fn one_seed_gives_identical_round_trip_replies() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let details = |i: u32| {
        let out = dir.join(format!("contract-determinism-{i}.json"));
        run_tiny("small", 11, false, Some(&out));
        let text = std::fs::read_to_string(&out).expect("--out wrote the report");
        let report: Value = serde_json::from_str(&text).expect("the report parses");
        let details = report.get("details").expect("details").clone();
        std::fs::remove_file(&out).expect("report removed");
        details
    };
    let (a, b) = (details(0), details(1));
    for key in ["rtt_requests", "rtt_reply_digest", "durable_requests"] {
        assert_eq!(a.get(key), b.get(key), "{key} differs between two runs");
    }
}

#[test]
fn declaration_keeps_its_limits() {
    let decl = declaration();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in list(&decl, key) {
            let name = field(entry, "name");
            assert!(name_ok(name), "bad name {name:?}");
            assert!(names.insert(name.to_string()), "{name} is declared twice");
        }
    }
    let mut setup_bound = None;
    let mut largest_other: f64 = 0.0;
    for m in list(&decl, "end_to_end")
        .iter()
        .chain(list(&decl, "per_layer"))
    {
        assert!(unit_ok(field(m, "unit")), "bad unit in {m:?}");
        assert!(matches!(field(m, "better"), "lower" | "higher"), "{m:?}");
    }
    for m in list(&decl, "end_to_end") {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound out of range in {m:?}");
        if field(m, "name") == "setup_s" {
            assert_eq!((field(m, "unit"), field(m, "better")), ("s", "lower"));
            setup_bound = Some(bound);
        } else {
            largest_other = largest_other.max(bound);
        }
    }
    let setup_bound = setup_bound.expect("setup_s is declared");
    assert!(
        setup_bound >= largest_other,
        "setup_s must carry the largest bound"
    );
}
