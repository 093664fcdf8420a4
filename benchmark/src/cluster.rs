//! The journaled cluster phase: the run's stream through
//! `ClusterEngine::run_probed` with four shards, the hash router, indexed
//! First Fit and one `--fsync never` WAL per shard (the `dbp cluster
//! --journal` path), then every WAL read back with `read_journal` and
//! audited with `replay_events` (the `dbp recover` path).

use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::IndexedFirstFit;
use dbp_core::instance::Instance;
use dbp_core::packer::SelectorFactory;
use dbp_obs::journal::{read_journal, FsyncPolicy, JournalProbe};
use dbp_obs::replay::replay_events;
use dbp_obs::span::{StageAggregator, StageBreakdown};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine shards of the cluster.
const SHARDS: usize = 4;

/// Recoveries of each repetition's WALs. A recovery takes a fraction of
/// the journaled run, so it repeats to give its median as many samples
/// per run as the other phases get.
const RECOVERIES: usize = 2;

/// Spans and byte counts of the traced repetition.
#[derive(Debug)]
pub struct Traced {
    /// Driver and shard lanes merged: partition, route, dispatch, queue
    /// wait, shard busy, validate, report build, fan-in, manifest merge,
    /// and the engine stages inside each shard.
    pub stages: StageBreakdown,
    /// `journal_append` spans of every shard's WAL writer.
    pub journal: StageBreakdown,
    /// The driver's wall time of the run.
    pub wall_ns: u64,
    /// Driver-lane time in partition, enqueue, dispatch and fan-in.
    pub accounted_ns: u64,
}

/// The phase's measurements.
#[derive(Debug, Default)]
pub struct ClusterRun {
    /// Items per second of every untraced repetition (partition,
    /// dispatch, WAL append and fan-in), one list per cycle.
    pub items_per_s: Vec<Vec<f64>>,
    /// Journal events per second of every recovery of every untraced
    /// repetition, one list per cycle.
    pub events_per_s: Vec<Vec<f64>>,
    /// Untraced repetitions run.
    pub reps: usize,
    /// Time in `read_journal` (framing, CRC, decode), last recovery.
    pub read: Duration,
    /// Time in `replay_events`, last recovery.
    pub replay: Duration,
    /// WAL bytes written by the last repetition.
    pub wal_bytes: u64,
    /// WAL records written by the last repetition.
    pub wal_records: u64,
    /// Present for traced runs.
    pub traced: Option<Traced>,
}

fn engine(capacity: u64) -> ClusterEngine {
    let system = GamingSystem {
        server: ServerType {
            gpu_capacity: capacity,
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    };
    let config = ClusterConfig::new(SHARDS, Router::HashByItem).expect("shard count is nonzero");
    ClusterEngine::new(system, config)
}

fn wal_paths(dir: &Path) -> Vec<PathBuf> {
    (0..SHARDS)
        .map(|s| dir.join(format!("cluster.wal.shard{s}")))
        .collect()
}

/// Recover every shard WAL once: `read_journal` then `replay_events`.
/// Each WAL must replay to a complete run, and the replayed costs must sum
/// to the cluster's `busy_ticks`; mismatches are pushed onto `failures`.
/// Returns the time in reading, the time in replaying and the events read.
fn recover(
    paths: &[PathBuf],
    busy_ticks: u128,
    failures: &mut Vec<String>,
) -> Result<(Duration, Duration, u64), String> {
    let (mut read, mut replay, mut cost, mut events) =
        (Duration::ZERO, Duration::ZERO, 0u128, 0u64);
    for path in paths {
        let t = Instant::now();
        let wal = read_journal(path)?;
        read += t.elapsed();
        let t = Instant::now();
        let summary = replay_events(&wal.events)?;
        replay += t.elapsed();
        if !wal.is_clean() || !summary.is_complete() {
            failures.push(format!(
                "cluster WAL {} did not replay to a complete run",
                path.display()
            ));
        }
        cost += summary.cost_ticks;
        events += wal.events.len() as u64;
    }
    if cost != busy_ticks {
        failures.push(format!(
            "cluster: replayed WAL costs sum to {cost}, the report bills {busy_ticks}"
        ));
    }
    Ok((read, replay, events))
}

/// One repetition: a journaled cluster run, then every WAL recovered
/// [`RECOVERIES`] times. Returns the run's wall time, the recovered events
/// per second of each recovery, and, when traced, stores the spans.
fn repetition(
    inst: &Instance,
    dir: &Path,
    traced: bool,
    out: &mut ClusterRun,
    failures: &mut Vec<String>,
) -> Result<(Duration, Vec<f64>), String> {
    let engine = engine(inst.capacity().raw());
    let factory = SelectorFactory::new("FF", || Box::new(IndexedFirstFit::new()));
    let paths = wal_paths(dir);
    let mut probes = paths
        .iter()
        .enumerate()
        .map(|(s, path)| {
            let mut probe = JournalProbe::create(path, FsyncPolicy::Never)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if traced {
                probe.set_spans(StageAggregator::new(s as u32));
            }
            Ok(Some(probe))
        })
        .collect::<Result<Vec<Option<JournalProbe>>, String>>()?;
    let mut take = |s: usize| probes[s].take().expect("each shard takes its probe once");

    let t = Instant::now();
    let (run, probes, cluster_trace) = if traced {
        let (run, probes, ct) = engine
            .run_traced(inst, &factory, &mut take, |s, epoch| {
                StageAggregator::with_epoch(epoch, s as u32)
            })
            .map_err(|e| e.to_string())?;
        (run, probes, Some(ct))
    } else {
        let (run, probes) = engine
            .run_probed(inst, &factory, &mut take)
            .map_err(|e| e.to_string())?;
        (run, probes, None)
    };
    let wall = t.elapsed();

    let mut journal = StageBreakdown::new();
    for mut probe in probes {
        if let Some(spans) = probe.take_spans() {
            journal.merge(&spans.finish());
        }
        probe
            .finish()
            .map_err(|e| format!("sealing a cluster WAL: {e}"))?;
    }

    let mut recoveries = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        let (read, replay, events) = recover(&paths, run.report.busy_ticks, failures)?;
        recoveries.push(events as f64 / (read + replay).as_secs_f64());
        (out.read, out.replay, out.wal_records) = (read, replay, events);
    }
    out.wal_bytes = 0;
    for path in &paths {
        out.wal_bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(ct) = cluster_trace {
        let mut stages = ct.driver.stage_breakdown();
        for lane in ct.shards {
            stages.merge(&lane.finish());
        }
        out.traced = Some(Traced {
            stages,
            journal,
            wall_ns: ct.timing.wall_ns,
            accounted_ns: ct.timing.accounted_ns(),
        });
    }
    Ok((wall, recoveries))
}

/// One cycle's cluster phase: untraced repetitions until `budget` is spent
/// (at least one), their throughputs added to `out`.
pub fn measure(
    inst: &Instance,
    dir: &Path,
    budget: Duration,
    out: &mut ClusterRun,
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let started = Instant::now();
    let (mut items_per_s, mut events_per_s) = (Vec::new(), Vec::new());
    while items_per_s.is_empty() || started.elapsed() < budget {
        let (wall, recoveries) = repetition(inst, dir, false, out, &mut failures)?;
        items_per_s.push(inst.len() as f64 / wall.as_secs_f64());
        events_per_s.extend(recoveries);
    }
    out.reps += items_per_s.len();
    out.items_per_s.push(items_per_s);
    out.events_per_s.push(events_per_s);
    Ok(failures)
}

/// One traced repetition: cluster driver and shard spans plus the WAL
/// writers' append spans, stored in `out.traced`.
pub fn trace(inst: &Instance, dir: &Path, out: &mut ClusterRun) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    repetition(inst, dir, true, out, &mut failures)?;
    Ok(failures)
}
