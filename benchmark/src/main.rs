//! `benchmark`: one measured run of the dbp system on one workload.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload small|large --seed N [--seconds S] [--trace 0|1] [--tiny] [--out FILE]
//! ```
//!
//! A run is a sequence of cycles of about a second, started until
//! `--seconds` have passed. Each cycle runs on one CPU, alternating
//! between cycles. It generates the inputs from the seed, measures three
//! phases in turn, each for its share of the cycle, and generates the
//! inputs again (both set-ups timed; the two inputs must be equal). The
//! host's speed is calibrated before each phase and after the last:
//!
//! 1. `rtt`: the `dbp serve` daemon in-process on loopback, one connection
//!    with one request in flight, every reply checked against a reference;
//! 2. `batch`: `simulate` with indexed FF, BF and MFF(8), and FF at D = 3,
//!    bills checked against the naive selectors;
//! 3. `cluster`: a four-shard journaled `ClusterEngine` run and the
//!    recovery of its WALs, replayed costs checked against the bill.
//!
//! After the cycles, one `durable` phase runs the same daemon with
//! per-shard WALs at `--fsync always`, two connections with 16 requests in
//! flight each, and replays the WALs. It waits on the host's disk for
//! every record, so its speed is the disk's more than the program's: it
//! is checked on every run and reported only among the per-layer metrics.
//!
//! Other tenants of the host slow a CPU by up to half for seconds at a
//! time, and its speed drifts over minutes. Every sample of a phase (a
//! block of consecutive round trips, a batch or cluster repetition, a
//! cycle's set-up) is therefore taken to the reference host speed with
//! the calibrations around it (see `calibrate`), and each end-to-end
//! metric is the median of those samples over the run. `setup_s` samples
//! each cycle's faster input set-up plus its daemon's start-up.
//!
//! Metric lines print as `name value unit`; the last line of stdout is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! traced run). `--out FILE` writes the same data with provenance and,
//! when tracing, the stage tables and coverage. Exit status: 0 when every
//! output check passes, 1 when one fails or the run errs, 2 on bad usage.

mod affinity;
mod batch;
mod calibrate;
mod cluster;
mod inputs;
mod metrics;
mod report;
mod serve;

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{durable_streams, Inputs, Sizes, Workload};
use metrics::Measured;
use report::obj;
use serve::{DurableRun, Window};

const USAGE: &str = "usage: benchmark --workload small|large --seed N \
                     [--seconds S] [--trace 0|1] [--tiny] [--out FILE]";

/// Target length of one cycle of the three phases.
const CYCLE_SECONDS: f64 = 1.0;

/// Items in the batch and cluster stream.
const ITEMS: usize = 25_000;

/// Shares of each cycle the three phases measure for.
const RTT_SHARE: f64 = 0.3;
const BATCH_SHARE: f64 = 0.25;
const CLUSTER_SHARE: f64 = 0.45;

/// How long the run's one durable phase lasts.
const DURABLE_SECONDS: f64 = 1.5;

/// Request rates the serve streams are generated for: well above what a
/// closed loop reaches, so the phase clock, not the stream, ends a phase.
const RTT_FEED_PER_S: f64 = 100_000.0;
const DURABLE_FEED_PER_S: f64 = 10_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut tiny = false;
    let mut out = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--tiny" => tiny = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        out,
    })
}

/// How much a run generates and how long each phase of a cycle measures.
struct Plan {
    /// Cycles start until this much time has passed (at least one runs).
    run_for: Duration,
    sizes: Sizes,
    /// The clock of the round-trip daemon.
    rtt: Window,
    batch: Duration,
    cluster: Duration,
    /// The clock of the durable phase and its requests per connection.
    durable: Window,
    durable_requests: usize,
}

impl Plan {
    fn new(seconds: f64, tiny: bool) -> Plan {
        if tiny {
            // Fixed small work, no clock: one cycle, every stream runs to
            // its end and every phase repeats once, so two runs see
            // identical replies.
            let unclocked = Window {
                warm: Duration::ZERO,
                total: Duration::from_secs(3600),
            };
            return Plan {
                run_for: Duration::ZERO,
                sizes: Sizes {
                    items: 2_000,
                    rtt_requests: 2_000,
                },
                rtt: unclocked,
                batch: Duration::ZERO,
                cluster: Duration::ZERO,
                durable: unclocked,
                durable_requests: 300,
            };
        }
        let phase = |share: f64| Duration::from_secs_f64(CYCLE_SECONDS * share);
        let window = |length: Duration| Window {
            warm: length / 10,
            total: length,
        };
        Plan {
            run_for: Duration::from_secs_f64(
                (seconds - DURABLE_SECONDS - CYCLE_SECONDS / 2.0).max(0.0),
            ),
            sizes: Sizes {
                items: ITEMS,
                rtt_requests: (RTT_FEED_PER_S * CYCLE_SECONDS * RTT_SHARE) as usize,
            },
            rtt: window(phase(RTT_SHARE)),
            batch: phase(BATCH_SHARE),
            cluster: phase(CLUSTER_SHARE),
            durable: window(Duration::from_secs_f64(DURABLE_SECONDS)),
            durable_requests: (DURABLE_FEED_PER_S * DURABLE_SECONDS) as usize,
        }
    }
}

/// A scratch directory for WALs inside the working directory, removed on
/// every exit path.
struct WorkDir(PathBuf);

const WORK_ROOT: &str = ".bench_work";

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT); // only succeeds when empty
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generate a cycle's inputs, timed.
fn set_up(args: &Args, plan: &Plan) -> (Inputs, f64) {
    let t = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed, plan.sizes);
    (inputs, t.elapsed().as_secs_f64())
}

/// One cycle: set up, every phase in turn with the host's speed
/// calibrated before each and after the last, then set up again. The two
/// inputs must be equal. The cycle's `setup_s` sample is the faster input
/// set-up (a burst of load from another tenant rarely covers both ends of
/// a cycle) plus the start-up of the cycle's daemon. The first cycle's
/// inputs are kept in `first`.
fn run_cycle(
    cycle: usize,
    args: &Args,
    plan: &Plan,
    dir: &Path,
    m: &mut Measured,
    first: &mut Option<Inputs>,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let (inputs, setup_s) = set_up(args, plan);
    let before_rtt = calibrate::speed();

    let (rtt, summary, start_up) = serve::run_rtt(&inputs.rtt, plan.rtt, args.trace)?;
    if !summary.conserved() || summary.dropped + summary.lost > 0 {
        failures.push(format!("rtt: daemon ledger {}", summary.to_json()));
    }
    m.rtt.push(rtt);

    let before_batch = calibrate::speed();
    failures.extend(batch::measure(&inputs, &mut m.batch, plan.batch));
    let before_cluster = calibrate::speed();
    failures.extend(cluster::measure(
        &inputs.instance,
        dir,
        plan.cluster,
        &mut m.cluster,
    )?);
    let after = calibrate::speed();
    m.speed
        .push([before_rtt, before_batch, before_cluster, after]);
    let (again, setup_again_s) = set_up(args, plan);
    if again != inputs {
        failures.push(format!(
            "cycle {cycle}: two set-ups generated different inputs"
        ));
    }
    m.setup_s
        .push(setup_s.min(setup_again_s) + start_up.as_secs_f64());
    eprintln!(
        "[cycle {cycle}] setup {:.3} s, rtt {} requests, batch {} rounds, \
         cluster {} repetitions",
        m.setup_s[cycle],
        m.rtt.last().map_or(0, |r| r.answered),
        m.batch[0].items_per_s[cycle].len(),
        m.cluster.items_per_s[cycle].len()
    );
    first.get_or_insert(inputs);
    Ok(())
}

/// Run cycles for the planned time, each confined to one CPU and the CPU
/// alternating between cycles; then the durable phase, the untimed checks
/// and, with `--trace 1`, the traced repetitions. `Ok(correct)` unless the
/// run itself failed.
fn run(args: &Args) -> Result<bool, String> {
    let plan = Plan::new(args.seconds, args.tiny);
    let work = WorkDir::create(args.workload)?;
    let mut failures: Vec<String> = Vec::new();
    let mut first: Option<Inputs> = None;
    let mut m = Measured {
        setup_s: Vec::new(),
        rtt: Vec::new(),
        durable: Default::default(),
        reappend: None,
        batch: batch::rows(),
        cluster: cluster::ClusterRun::default(),
        layers: None,
        speed: Vec::new(),
    };
    let started = Instant::now();
    let mut cycle = 0;
    while cycle == 0 || started.elapsed() < plan.run_for {
        affinity::on_cpu(cycle, || {
            run_cycle(
                cycle,
                args,
                &plan,
                &work.0,
                &mut m,
                &mut first,
                &mut failures,
            )
        })?;
        cycle += 1;
    }
    let inputs = first.expect("a run has at least one cycle");
    let streams = durable_streams(args.workload, args.seed, plan.durable_requests);
    let durable = affinity::on_cpu(cycle, || {
        serve::run_durable(&streams, plan.durable, &work.0, args.trace)
    })?;
    failures.extend(check_durable(&durable));
    (m.durable, m.reappend) = (durable.conn, durable.reappend);
    failures.extend(batch::verify(&inputs, &m.batch));

    let mut mismatches: usize = m.rtt.iter().chain([&m.durable]).map(|c| c.mismatches).sum();
    if args.trace {
        affinity::on_cpu(cycle, || -> Result<(), String> {
            failures.extend(batch::trace(&inputs, &mut m.batch));
            failures.extend(cluster::trace(&inputs.instance, &work.0, &mut m.cluster)?);
            let (layers, wrong) = serve::replay_layers(&inputs.rtt, m.rtt[0].answered)?;
            mismatches += wrong;
            m.layers = Some(layers);
            Ok(())
        })?;
    }

    let reported = if args.trace {
        metrics::per_layer(&m)
    } else {
        metrics::end_to_end(&m)
    };
    let attempted = m
        .rtt
        .iter()
        .chain([&m.durable])
        .map(|c| c.answered)
        .sum::<usize>()
        + inputs.instance.len()
            * (m.batch.iter().map(|r| r.walls.len()).sum::<usize>() + m.cluster.reps);
    let failed = mismatches + failures.len();
    let correct = failed == 0;
    for f in &failures {
        eprintln!("[check] FAILED: {f}");
    }

    for metric in &reported.0 {
        println!("{} {} {}", metric.name, metric.value, metric.unit);
    }
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted as u128)),
        ("failed", Value::UInt(failed as u128)),
        ("metrics", reported.to_value()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a value tree always serializes")
    );

    if let Some(path) = &args.out {
        let mut fields = vec![
            (
                "provenance",
                report::provenance(
                    args.workload.name(),
                    args.seed,
                    args.seconds,
                    args.trace,
                    args.tiny,
                ),
            ),
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(attempted as u128)),
            ("failed", Value::UInt(failed as u128)),
            (
                "failures",
                Value::Seq(failures.iter().map(|f| Value::Str(f.clone())).collect()),
            ),
            ("metrics", reported.to_value()),
            ("details", metrics::details(&m)),
        ];
        if args.trace {
            fields.push(("stages", metrics::stage_tables(&m)));
            fields.push(("coverage", metrics::coverage(&m)));
        }
        dbp_obs::export::write_json(path, &obj(fields))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(correct)
}

/// The durable phase's output checks: a conserved ledger with nothing
/// refused or lost, one pipeline outcome per answered request, and shard
/// WALs that replay to exactly the served placements and departures.
fn check_durable(d: &DurableRun) -> Vec<String> {
    let s = &d.summary;
    let answered = d.conn.answered;
    let mut failures = Vec::new();
    if !s.conserved() || s.dropped + s.lost > 0 || (s.served + s.departed) as usize != answered {
        failures.push(format!(
            "durable: daemon ledger {} for {answered} answered requests",
            s.to_json()
        ));
    }
    if (d.wal_placements, d.wal_departures) != (s.served, s.departed) {
        failures.push(format!(
            "durable: WALs replay {} placements and {} departures, the daemon served {} and departed {}",
            d.wal_placements, d.wal_departures, s.served, s.departed
        ));
    }
    failures
}
