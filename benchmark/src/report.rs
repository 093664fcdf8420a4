//! Order statistics, provenance and the run's printed and written output.

use dbp_obs::span::StageBreakdown;
use serde_json::Value;

/// Version of the `--out` report layout.
const SCHEMA_VERSION: u64 = 1;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|m| {
                    let entry = obj(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]);
                    (m.name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Where and on what the numbers were measured: enough to tell whether
/// two reports are comparable.
pub fn provenance(workload: &str, seed: u64, seconds: f64, trace: bool, tiny: bool) -> Value {
    obj(vec![
        ("schema_version", Value::UInt(SCHEMA_VERSION as u128)),
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::UInt(seed as u128)),
        ("seconds", Value::Float(seconds)),
        ("trace", Value::Bool(trace)),
        ("tiny", Value::Bool(tiny)),
        ("git_commit", Value::Str(git_commit())),
        ("cpu_model", Value::Str(cpu_model())),
        (
            "available_parallelism",
            Value::UInt(
                std::thread::available_parallelism()
                    .map(|p| p.get() as u128)
                    .unwrap_or(1),
            ),
        ),
        ("selector_engine", Value::Str("indexed".to_string())),
        (
            "dims",
            obj(vec![
                ("serve", Value::UInt(1)),
                ("batch", Value::Seq(vec![Value::UInt(1), Value::UInt(3)])),
                ("cluster", Value::UInt(1)),
            ]),
        ),
    ])
}

/// `git rev-parse HEAD` of the working directory, or `"unknown"` outside a
/// git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The first `model name` in `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Stage rows of a breakdown: count, total, self time, p50 and p99 per
/// stage, ranked by self time.
pub fn stage_rows(breakdown: &StageBreakdown) -> Value {
    let opt = |v: Option<u64>| v.map_or(Value::Null, |v| Value::UInt(v as u128));
    Value::Seq(
        breakdown
            .rows()
            .into_iter()
            .map(|r| {
                obj(vec![
                    ("stage", Value::Str(r.stage)),
                    ("count", Value::UInt(r.count as u128)),
                    ("total_ns", Value::UInt(r.total_ns as u128)),
                    ("self_ns", Value::UInt(r.self_ns as u128)),
                    ("p50_ns", opt(r.p50_ns)),
                    ("p99_ns", opt(r.p99_ns)),
                ])
            })
            .collect(),
    )
}

/// Sum of every stage's self time.
pub fn self_ns(breakdown: &StageBreakdown) -> u64 {
    breakdown.stages().map(|(_, s)| s.self_ns).sum()
}
