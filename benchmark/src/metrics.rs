//! The reported numbers: end-to-end and per-layer metrics, per-cycle
//! details, stage tables and coverage, all derived from what a run's
//! cycles measured.

use dbp_core::span::stage;
use dbp_obs::span::StageBreakdown;
use serde_json::Value;

use crate::report::{median, obj, self_ns, stage_rows, Metrics};
use crate::serve::{layer, Block, ConnRun};
use crate::{batch, cluster};

/// Everything the phases measured, over all cycles.
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// The round-trip connection, one record per daemon.
    pub rtt: Vec<ConnRun>,
    /// Both connections of the durable phase merged.
    pub durable: ConnRun,
    /// WAL append and fsync spans of the re-append (traced runs only).
    pub reappend: Option<StageBreakdown>,
    pub batch: Vec<batch::Row>,
    pub cluster: cluster::ClusterRun,
    /// The serve layers replayed in-process (traced runs only).
    pub layers: Option<StageBreakdown>,
    /// The host's speed at each cycle's checkpoints (see [`Phase`]).
    pub speed: Vec<[f64; 4]>,
}

/// A cycle's checkpoints around a phase, as indexes into
/// [`Measured::speed`]: the host's speed is calibrated before the round
/// trips (0), before the batch phase (1), before the cluster phase (2)
/// and after it (3). The cycle's two set-ups are its first and last work.
#[derive(Clone, Copy)]
struct Phase(usize, usize);

const RTT: Phase = Phase(0, 1);
const BATCH: Phase = Phase(1, 2);
const CLUSTER: Phase = Phase(2, 3);
const SETUP: Phase = Phase(0, 3);

/// Whether a sample is a rate or a time.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Rate,
    Time,
}

/// The median over every cycle's samples of a phase, each taken to the
/// reference host speed: a rate sampled while the host ran at speed `s`
/// (the mean of the checkpoints around the phase) counts as `rate / s`,
/// a time as `time * s`.
fn at_reference(m: &Measured, phase: Phase, kind: Kind, cycles: &[Vec<f64>]) -> f64 {
    let values: Vec<f64> = cycles
        .iter()
        .zip(&m.speed)
        .flat_map(|(samples, speed)| {
            let s = (speed[phase.0] + speed[phase.1]) / 2.0;
            let scale = if kind == Kind::Rate { 1.0 / s } else { s };
            samples.iter().map(move |v| v * scale)
        })
        .collect();
    median(&values)
}

fn req_per_s(c: &ConnRun) -> f64 {
    c.rtt.count() as f64 / c.timed.as_secs_f64()
}

fn pct_us(c: &ConnRun, p: u64) -> f64 {
    c.rtt.percentile(p).unwrap_or(0) as f64 / 1e3
}

pub fn end_to_end(m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    let blocks = |stat: fn(&Block) -> f64| -> Vec<Vec<f64>> {
        m.rtt
            .iter()
            .map(|c| c.blocks.iter().map(stat).collect())
            .collect()
    };
    let rate = blocks(|b| b.req_per_s);
    out.push(
        "rtt_req_per_s",
        at_reference(m, RTT, Kind::Rate, &rate),
        "1/s",
    );
    let p50 = blocks(|b| b.p50_ns as f64 / 1e3);
    out.push("rtt_p50_us", at_reference(m, RTT, Kind::Time, &p50), "us");
    for row in &m.batch {
        let value = at_reference(m, BATCH, Kind::Rate, &row.items_per_s);
        out.push(format!("{}_items_per_s", row.key), value, "1/s");
    }
    let cluster = &m.cluster;
    let value = at_reference(m, CLUSTER, Kind::Rate, &cluster.items_per_s);
    out.push("cluster_items_per_s", value, "1/s");
    let value = at_reference(m, CLUSTER, Kind::Rate, &cluster.events_per_s);
    out.push("recover_events_per_s", value, "1/s");
    let setup: Vec<Vec<f64>> = m.setup_s.iter().map(|&s| vec![s]).collect();
    out.push("setup_s", at_reference(m, SETUP, Kind::Time, &setup), "s");
    let rss = dbp_obs::manifest::peak_rss_bytes().unwrap_or(0);
    out.push("peak_rss_mb", rss as f64 / (1u64 << 20) as f64, "MiB");
    out
}

/// Nearest-rank percentile `p` of `stage`'s span durations, nanoseconds.
fn stage_pct(b: &StageBreakdown, stage: &str, p: u64) -> f64 {
    b.get(stage).and_then(|s| s.hist.percentile(p)).unwrap_or(0) as f64
}

/// Mean span duration of `stage`, nanoseconds.
fn stage_mean(b: &StageBreakdown, stage: &str) -> f64 {
    b.get(stage)
        .map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64)
}

/// Self time of `stage` summed over every lane, nanoseconds.
fn stage_self(b: &StageBreakdown, stage: &str) -> f64 {
    b.get(stage).map_or(0.0, |s| s.self_ns as f64)
}

/// Serve-layer percentiles: metric name, replayed span, percentile.
const SERVE_LAYERS: [(&str, &str, u64); 7] = [
    ("protocol.parse_ns.p50", layer::PARSE, 50),
    ("protocol.parse_ns.p99", layer::PARSE, 99),
    ("protocol.encode_ns.p50", layer::ENCODE, 50),
    ("router.route_ns.p50", layer::ROUTE, 50),
    ("shard.arrive_ns.p50", layer::SHARD_ARRIVE, 50),
    ("shard.arrive_ns.p99", layer::SHARD_ARRIVE, 99),
    ("shard.depart_ns.p50", layer::SHARD_DEPART, 50),
];

/// Engine stages reported as `engine.<selector>.<name>_ns.mean`.
const ENGINE_STAGES: [(&str, &str); 4] = [
    ("arrival", stage::ARRIVAL),
    ("decide", stage::DECIDE),
    ("place", stage::PLACE),
    ("departure", stage::DEPARTURE),
];

/// The cluster stages reported as `cluster.<name>_ns` self times.
const CLUSTER_STAGES: [(&str, &str); 8] = [
    ("partition", stage::PARTITION),
    ("route", stage::ROUTE),
    ("queue_wait", stage::QUEUE_WAIT),
    ("shard_busy", stage::SHARD_BUSY),
    ("validate", stage::VALIDATE),
    ("report_build", stage::REPORT_BUILD),
    ("fan_in", stage::FAN_IN),
    ("manifest_merge", stage::MANIFEST_MERGE),
];

pub fn per_layer(m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    let layers = m
        .layers
        .as_ref()
        .expect("traced runs replay the serve layers");
    for (name, span, p) in SERVE_LAYERS {
        out.push(name, stage_pct(layers, span, p), "ns");
    }
    let rtt = merged(&m.rtt);
    let rtt_mean = rtt.rtt.mean();
    out.push("serve.rtt_ns.mean", rtt_mean, "ns");
    for (name, p) in [("serve.rtt_ns.p90", 90), ("serve.rtt_ns.p99", 99)] {
        out.push(name, rtt.rtt.percentile(p).unwrap_or(0) as f64, "ns");
    }
    let transport = rtt_mean - serve_layer_mean(m);
    out.push("server.transport_ns.mean", transport, "ns");
    let write = rtt.write.p50().unwrap_or(0) as f64;
    out.push("client.write_ns.p50", write, "ns");

    let traced = m
        .cluster
        .traced
        .as_ref()
        .expect("traced runs trace the cluster");
    let reappend = m.reappend.as_ref().expect("traced runs re-append the WAL");
    let append = &traced.journal;
    for (name, spans, span, p) in [
        ("journal.append_ns.p50", append, stage::JOURNAL_APPEND, 50),
        ("journal.append_ns.p99", append, stage::JOURNAL_APPEND, 99),
        ("journal.fsync_ns.p50", reappend, stage::JOURNAL_FSYNC, 50),
        ("journal.fsync_ns.p99", reappend, stage::JOURNAL_FSYNC, 99),
    ] {
        out.push(name, stage_pct(spans, span, p), "ns");
    }
    out.push("serve.durable_req_per_s", req_per_s(&m.durable), "1/s");
    out.push("serve.durable_p50_us", pct_us(&m.durable, 50), "us");
    let records = m.cluster.wal_records;
    let per_record = m.cluster.wal_bytes as f64 / records.max(1) as f64;
    out.push("journal.bytes_per_record", per_record, "bytes");
    out.push("journal.records", records as f64, "count");

    for row in &m.batch {
        let (b, _) = row
            .traced
            .as_ref()
            .expect("traced runs trace every selector");
        let bill = row.bill.expect("every selector ran");
        let key = row.key;
        for (name, span) in ENGINE_STAGES {
            let mean = stage_mean(b, span);
            out.push(format!("engine.{key}.{name}_ns.mean"), mean, "ns");
        }
        let events: u64 = [stage::ARRIVAL, stage::DEPARTURE]
            .iter()
            .filter_map(|s| b.get(s).map(|s| s.count))
            .sum();
        let dispatch = stage_self(b, batch::layer::EVENT_LOOP) / events.max(1) as f64;
        out.push(format!("engine.{key}.dispatch_ns.mean"), dispatch, "ns");
        let schedule = stage_self(b, batch::layer::SCHEDULE);
        out.push(format!("engine.{key}.schedule_ns"), schedule, "ns");
        let finish = stage_self(b, batch::layer::FINISH);
        out.push(format!("engine.{key}.finish_ns"), finish, "ns");
        let peak = bill.peak_open as f64;
        out.push(format!("engine.{key}.open_bins.peak"), peak, "count");
        let used = bill.bins_used as f64;
        out.push(format!("engine.{key}.bins_used"), used, "count");
    }
    let (traced_wall, untraced_wall, engine_self) = engine_walls(m);
    let overhead = traced_wall / untraced_wall;
    out.push("engine.trace_overhead_share", overhead, "share");
    out.push("engine.coverage_share", engine_self / traced_wall, "share");

    for (name, span) in CLUSTER_STAGES {
        let spent = stage_self(&traced.stages, span);
        out.push(format!("cluster.{name}_ns"), spent, "ns");
    }
    let coverage = traced.accounted_ns as f64 / traced.wall_ns.max(1) as f64;
    out.push("cluster.coverage_share", coverage, "share");
    let (read, replay) = (m.cluster.read, m.cluster.replay);
    out.push("recover.read_ns", read.as_nanos() as f64, "ns");
    out.push("recover.replay_ns", replay.as_nanos() as f64, "ns");
    out
}

/// Mean in-process time of the serve layers per request, nanoseconds.
fn serve_layer_mean(m: &Measured) -> f64 {
    let layers = m
        .layers
        .as_ref()
        .expect("traced runs replay the serve layers");
    let requests = layers.get(layer::PARSE).map_or(1, |s| s.count.max(1));
    self_ns(layers) as f64 / requests as f64
}

/// Batch walls in nanoseconds: traced total, median untraced total, and
/// the engine spans' summed self time.
fn engine_walls(m: &Measured) -> (f64, f64, f64) {
    let mut traced = 0.0;
    let mut untraced = 0.0;
    let mut spans = 0.0;
    for row in &m.batch {
        if let Some((b, wall)) = &row.traced {
            traced += wall.as_nanos() as f64;
            spans += self_ns(b) as f64;
        }
        let walls: Vec<f64> = row.walls.iter().map(|w| w.as_nanos() as f64).collect();
        untraced += median(&walls);
    }
    (traced, untraced, spans)
}

/// Every cycle's record folded into one.
fn merged(runs: &[ConnRun]) -> ConnRun {
    let mut all = ConnRun::default();
    for run in runs {
        all.absorb(run);
    }
    all
}

/// Counts and digests that identify what a run did.
pub fn details(m: &Measured) -> Value {
    let rtt = merged(&m.rtt);
    let uint = |v: usize| Value::UInt(v as u128);
    obj(vec![
        ("rtt_requests", uint(rtt.answered)),
        (
            "rtt_reply_digest",
            Value::Str(format!("{:016x}", rtt.digest)),
        ),
        ("durable_requests", uint(m.durable.answered)),
        ("rtt_daemons", serve_daemons(&m.rtt)),
        (
            "rtt_blocks",
            uint(m.rtt.iter().map(|c| c.blocks.len()).sum()),
        ),
        ("durable", serve_daemons(std::slice::from_ref(&m.durable))),
        ("batch_rounds", uint(m.batch[0].walls.len())),
        (
            "batch_items_per_s",
            Value::Map(
                m.batch
                    .iter()
                    .map(|r| (r.key.to_string(), per_cycle(&r.items_per_s)))
                    .collect(),
            ),
        ),
        ("cluster_items_per_s", per_cycle(&m.cluster.items_per_s)),
        ("recover_events_per_s", per_cycle(&m.cluster.events_per_s)),
        ("cluster_repetitions", uint(m.cluster.reps)),
        ("setup_s", floats(&m.setup_s)),
        (
            "speed",
            Value::Seq(m.speed.iter().map(|s| floats(s)).collect()),
        ),
    ])
}

fn floats(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|&v| Value::Float(v)).collect())
}

/// Requests per second, p50, p90 and p99 of every daemon of a serve phase.
fn serve_daemons(runs: &[ConnRun]) -> Value {
    Value::Seq(
        runs.iter()
            .map(|c| floats(&[req_per_s(c), pct_us(c, 50), pct_us(c, 90), pct_us(c, 99)]))
            .collect(),
    )
}

fn per_cycle(cycles: &[Vec<f64>]) -> Value {
    Value::Seq(cycles.iter().map(|c| floats(c)).collect())
}

/// Per-phase stage tables of a traced run.
pub fn stage_tables(m: &Measured) -> Value {
    let mut tables = Vec::new();
    if let Some(layers) = &m.layers {
        tables.push(("serve".to_string(), stage_rows(layers)));
    }
    if let Some(reappend) = &m.reappend {
        tables.push(("durable_wal".to_string(), stage_rows(reappend)));
    }
    for row in &m.batch {
        if let Some((b, _)) = &row.traced {
            tables.push((format!("batch_{}", row.key), stage_rows(b)));
        }
    }
    if let Some(traced) = &m.cluster.traced {
        tables.push(("cluster".to_string(), stage_rows(&traced.stages)));
        tables.push(("cluster_wal".to_string(), stage_rows(&traced.journal)));
    }
    Value::Map(tables)
}

/// Coverage of a traced run: layer self time over the wall it explains.
/// The serve layers cover only the in-process part of a round trip; the
/// rest is the named transport residual.
pub fn coverage(m: &Measured) -> Value {
    let (traced_wall, _, engine_self) = engine_walls(m);
    let share = |part: f64, whole: f64| Value::Float(part / whole);
    let mut rows = vec![obj(vec![
        ("phase", Value::Str("batch".to_string())),
        ("layer_self_ns", Value::Float(engine_self)),
        ("wall_ns", Value::Float(traced_wall)),
        ("share", share(engine_self, traced_wall)),
    ])];
    if let Some(t) = &m.cluster.traced {
        rows.push(obj(vec![
            ("phase", Value::Str("cluster".to_string())),
            ("layer_self_ns", Value::UInt(t.accounted_ns as u128)),
            ("wall_ns", Value::UInt(t.wall_ns as u128)),
            ("share", share(t.accounted_ns as f64, t.wall_ns as f64)),
        ]));
    }
    let layer_mean = serve_layer_mean(m);
    let rtt_mean = merged(&m.rtt).rtt.mean();
    rows.push(obj(vec![
        ("phase", Value::Str("rtt".to_string())),
        ("layer_ns_per_request", Value::Float(layer_mean)),
        ("rtt_ns_mean", Value::Float(rtt_mean)),
        ("share", share(layer_mean, rtt_mean)),
        (
            "residual",
            Value::Str("server.transport: socket I/O and two channel handoffs".to_string()),
        ),
    ]));
    Value::Seq(rows)
}
