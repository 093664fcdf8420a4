//! Run provenance: [`RunManifest`] pins down *what* was run (algorithm,
//! seed, instance digest) and *how it went* (wall time, peak RSS), so every
//! table in `results/` can be traced back to an exact, reproducible run.

use dbp_core::demand::Demand;
use dbp_core::instance::GInstance;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Provenance record for one simulation or experiment run. Attached to
/// `dbp-cloudsim::SystemReport` and written per-experiment by `run_all`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Algorithm / selector name (e.g. `"FirstFit"`).
    pub algorithm: String,
    /// RNG seed the instance was generated from, when one exists.
    pub seed: Option<u64>,
    /// FNV-1a digest of the instance (capacity + every item tuple).
    pub instance_digest: String,
    /// Number of items in the instance.
    pub n_items: u64,
    /// Bin capacity `W` (the GPU component, 0, of a vector capacity).
    pub capacity: u64,
    /// Wall-clock time of the run, nanoseconds.
    pub wall_time_ns: u64,
    /// Peak resident set size in bytes, when the platform exposes it
    /// (`/proc/self/status` `VmHWM` on Linux).
    pub peak_rss_bytes: Option<u64>,
    /// Exact total cost Σᵢ span(bin i) in ticks, when the run computed a
    /// packing trace. `dbp recover` re-derives this value from the journal
    /// alone and diffs it against the recorded one.
    pub total_cost_ticks: Option<u128>,
    /// Shard restarts performed by the self-healing cluster supervisor,
    /// when the run injected shard faults.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard_restarts: Option<u64>,
    /// Whether the extended SLA ledger conserved
    /// `served + dropped + lost + rerouted == total` (self-healing runs).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ledger_conserved: Option<bool>,
}

impl RunManifest {
    /// Build a manifest for a finished run over `instance`, at any demand
    /// dimensionality (the digest is [`instance_digest`]).
    pub fn capture<Sz: Demand>(
        algorithm: &str,
        seed: Option<u64>,
        instance: &GInstance<Sz>,
        wall_time: Duration,
    ) -> RunManifest {
        RunManifest {
            algorithm: algorithm.to_string(),
            seed,
            instance_digest: instance_digest(instance),
            n_items: instance.len() as u64,
            capacity: instance.capacity().component(0),
            wall_time_ns: wall_time.as_nanos() as u64,
            peak_rss_bytes: peak_rss_bytes(),
            total_cost_ticks: None,
            shard_restarts: None,
            ledger_conserved: None,
        }
    }

    /// Attach the exact packing cost (builder style).
    pub fn with_cost(mut self, cost_ticks: u128) -> RunManifest {
        self.total_cost_ticks = Some(cost_ticks);
        self
    }

    /// Attach the self-healing restart count (builder style).
    pub fn with_shard_restarts(mut self, restarts: u64) -> RunManifest {
        self.shard_restarts = Some(restarts);
        self
    }

    /// Attach the extended-ledger conservation verdict (builder style).
    pub fn with_ledger_conserved(mut self, conserved: bool) -> RunManifest {
        self.ledger_conserved = Some(conserved);
        self
    }
}

/// Stable FNV-1a (64-bit) digest of an instance: capacity followed by every
/// item's `(arrival, departure, size)` in id order, rendered as 16 hex
/// digits. Two runs with equal digests packed the same input. Every
/// component of the capacity and each item's size is hashed in dimension
/// order, so a one-dimensional vector instance digests to the scalar
/// digest exactly (one component each — the same byte stream).
pub fn instance_digest<Sz: Demand>(instance: &GInstance<Sz>) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for d in 0..Sz::DIMS {
        eat(instance.capacity().component(d));
    }
    for item in instance.items() {
        eat(item.arrival.0);
        eat(item.departure.0);
        for d in 0..Sz::DIMS {
            eat(item.size.component(d));
        }
    }
    format!("{h:016x}")
}

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or if the file is
/// unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Outcome of one experiment inside a `run_all` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentStatus {
    /// Ran to completion and its table was written.
    Ok,
    /// The experiment panicked; its table is missing or stale.
    Panicked,
    /// The experiment ran but its table could not be written.
    WriteFailed,
    /// The experiment never ran: a graceful shutdown (SIGINT/SIGTERM)
    /// landed before a worker claimed it. A `--resume` run picks it up.
    Skipped,
}

/// Timing/outcome record for one experiment in a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment stem (the CSV file name without extension).
    pub name: String,
    /// Outcome.
    pub status: ExperimentStatus,
    /// Wall-clock time spent, milliseconds.
    pub wall_time_ms: u64,
    /// Failure detail when there is one: the panic message for
    /// [`ExperimentStatus::Panicked`], the I/O error for
    /// [`ExperimentStatus::WriteFailed`]. `None` on success.
    pub detail: Option<String>,
}

/// Manifest for a whole `run_all` sweep, written to `results/manifest.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentManifest {
    /// Per-experiment records, in execution order.
    pub experiments: Vec<ExperimentRecord>,
    /// Total wall-clock time, milliseconds.
    pub total_wall_time_ms: u64,
    /// Peak resident set size in bytes, when available.
    pub peak_rss_bytes: Option<u64>,
}

impl ExperimentManifest {
    /// Number of experiments that did not end [`ExperimentStatus::Ok`].
    pub fn failures(&self) -> usize {
        self.experiments
            .iter()
            .filter(|r| r.status != ExperimentStatus::Ok)
            .count()
    }
}

/// Crash-recovery checkpoint for a `run_all` sweep, written atomically to
/// `results/run_all.checkpoint.json` after every experiment completes and
/// deleted when the whole sweep succeeds. `run_all --resume` reloads it,
/// verifies the sweep configuration matches, reuses the recorded results
/// of every [`ExperimentStatus::Ok`] experiment, and re-runs the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Whether the sweep ran with `--quick` (results are not interchangeable
    /// across modes, so a resume must match).
    pub quick: bool,
    /// The `--only` subset the sweep was restricted to, when it was.
    pub only: Option<Vec<String>>,
    /// Records of experiments that finished (any status) before the
    /// checkpoint was written.
    pub completed: Vec<ExperimentRecord>,
}

impl SweepCheckpoint {
    /// The record for `name`, if that experiment already completed.
    pub fn record(&self, name: &str) -> Option<&ExperimentRecord> {
        self.completed.iter().find(|r| r.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;

    fn inst(extra: u64) -> Instance {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 2 + extra);
        b.build().unwrap()
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(instance_digest(&inst(0)), instance_digest(&inst(0)));
        assert_ne!(instance_digest(&inst(0)), instance_digest(&inst(1)));
        assert_eq!(instance_digest(&inst(0)).len(), 16);
    }

    #[test]
    fn capture_fills_fields() {
        let i = inst(0);
        let m = RunManifest::capture("FirstFit", Some(42), &i, Duration::from_micros(1500));
        assert_eq!(m.algorithm, "FirstFit");
        assert_eq!(m.seed, Some(42));
        assert_eq!(m.n_items, 2);
        assert_eq!(m.capacity, 10);
        assert_eq!(m.wall_time_ns, 1_500_000);
        #[cfg(target_os = "linux")]
        assert!(m.peak_rss_bytes.unwrap() > 0);
    }

    #[test]
    fn manifest_serde_round_trip() {
        let m = ExperimentManifest {
            experiments: vec![
                ExperimentRecord {
                    name: "table2".into(),
                    status: ExperimentStatus::Ok,
                    wall_time_ms: 12,
                    detail: None,
                },
                ExperimentRecord {
                    name: "fig3".into(),
                    status: ExperimentStatus::Panicked,
                    wall_time_ms: 0,
                    detail: Some("assertion failed: ratio <= bound".into()),
                },
            ],
            total_wall_time_ms: 12,
            peak_rss_bytes: Some(1 << 20),
        };
        let text = serde_json::to_string_pretty(&m).unwrap();
        let back: ExperimentManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.failures(), 1);
    }

    #[test]
    fn run_manifest_cost_round_trips() {
        let m = RunManifest::capture("FF", None, &inst(0), Duration::from_millis(1))
            .with_cost(123456789012345678901234567890u128);
        let text = serde_json::to_string(&m).unwrap();
        let back: RunManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_cost_ticks, Some(123456789012345678901234567890));
    }

    #[test]
    fn sweep_checkpoint_round_trips() {
        let cp = SweepCheckpoint {
            quick: true,
            only: Some(vec!["table2".into()]),
            completed: vec![ExperimentRecord {
                name: "table2".into(),
                status: ExperimentStatus::Skipped,
                wall_time_ms: 0,
                detail: None,
            }],
        };
        let text = serde_json::to_string_pretty(&cp).unwrap();
        let back: SweepCheckpoint = serde_json::from_str(&text).unwrap();
        assert_eq!(back, cp);
        assert!(back.record("table2").is_some());
        assert!(back.record("fig3").is_none());
    }
}
