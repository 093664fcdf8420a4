//! `dbp` — command-line driver for the MinTotal DBP reproduction.
//!
//! ```text
//! dbp generate gaming --seed 1 --horizon 14400 --out trace.json
//! dbp generate mu --mu 10 --n 200 --out trace.json
//! dbp adversary thm1 --k 8 --mu 10 --out witness.json
//! dbp adversary thm2 --k 4 --mu 2 --n 8 --out witness.json
//! dbp run trace.json --algo ff [--validate] [--trace-events ev.jsonl] [--metrics m.prom]
//! dbp run trace.json --algo ff --faults 42          # seeded crash/flaky-boot injection
//! dbp run trace.json --algo ff --faults plan.json   # explicit fault plan
//! dbp run trace.json --algo ff --journal run.wal --run-manifest run.json
//! dbp recover run.wal --trace trace.json --manifest run.json
//! dbp trace ev.jsonl              # replay a JSONL event log as a timeline
//! dbp compare trace.json
//! dbp analyze trace.json          # §4.3 FF proof-machinery report
//! dbp opt trace.json              # OPT_total integral
//! ```

mod args;

// Every `println!`/`print!` in this binary is one of these two, not std's:
// report output goes through [`report`], so a reader that hangs up early
// ends the output instead of panicking the process.
macro_rules! println {
    () => {
        report(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        report(format_args!("{}\n", format_args!($($arg)*)))
    };
}

macro_rules! print {
    ($($arg:tt)*) => {
        report(format_args!($($arg)*))
    };
}

use args::Args;
use dbp_adversary::{AdaptiveMuAdversary, Theorem1, Theorem2};
use dbp_cloudsim::{FaultPlan, ResilientReport};
use dbp_cluster::{vector::DimReport, ShardFaultPlan};
use dbp_core::algorithms::{standard_factories, Rule};
use dbp_core::analysis::analyze_first_fit;
use dbp_core::bounds;
use dbp_core::demand::{Demand, VSize};
use dbp_core::engine::{simulate, simulate_probed, validate_probed, EngineRun};
use dbp_core::instance::{GInstance, Instance};
use dbp_core::item::Size;
use dbp_core::metrics::summarize;
use dbp_core::packer::{BinSelector, GSelectorFactory, SelectorFactory};
use dbp_core::probe::{GProbeEvent, Probe, VerifyProbe};
use dbp_core::ratio::Ratio;
use dbp_core::span::NoSpans;
use dbp_obs::{FsyncPolicy, MetricsRegistry, RunManifest, TimeSeriesSampler};
use dbp_opt::{opt_total, SolveMode};
use dbp_workloads::vector::{DIM_NAMES, HETERO_DIMS};
use dbp_workloads::{
    generate, generate_mu_controlled, widen, ArrivalKind, CloudGamingConfig, MuControlledConfig,
    Scenario,
};
use std::fmt::Display;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::OnceLock;

const USAGE: &str = "\
dbp — MinTotal Dynamic Bin Packing (SPAA'14 reproduction)

USAGE:
  dbp generate gaming [--seed N] [--horizon TICKS] [--rate R] [--regions N] --out FILE
  dbp generate mu --mu N [--n ITEMS] [--seed N] --out FILE
  dbp generate scenario --name steady|diurnal-day|launch-day|night-owls|multi-region
               [--seed N] --out FILE
  dbp adversary thm1 --k N --mu N [--out FILE]
  dbp adversary thm2 --k N --mu N --n N [--out FILE]
  dbp adversary adaptive --k N --mu N --algo NAME [--out FILE]
  dbp run FILE --algo ff|bf|wf|nf|lf|mi|rf|hff|mff|mff-mu|cff
          [--hetero]                  # D=3 vector run: per-dimension ledger, v2 journals
          [--validate] [--gantt] [--fleet] [--save-trace FILE] [--svg FILE]
          [--trace-events FILE.jsonl] [--metrics FILE.prom] [--timeseries FILE.csv]
          [--faults SEED|PLAN.json]   # resilient dispatch under injected faults
          [--journal FILE.wal] [--fsync always|never|N]   # crash-safe event journal
          [--run-manifest FILE.json]  # provenance + exact cost, for `recover`
  dbp cluster FILE --algo NAME --shards N [--router hash|affinity|least-loaded]
          [--hetero]                  # D=3 vector dispatch: per-dimension ledger, v2 journals
          [--jobs N] [--trace-events FILE.jsonl] [--metrics FILE.prom]
          [--faults SEED|PLAN.json]   # per-shard fault plans (seed+shard / shared plan)
          [--shard-faults SEED|PLAN.json]  # kill shards mid-run; self-heal from journals
          [--journal FILE.wal] [--fsync always|never|N]   # one journal per shard: FILE.wal.shardK
          [--run-manifest FILE.json]  # merged provenance + exact aggregate cost
  dbp profile [FILE] [--algo NAME] [--shards N] [--router hash|affinity|least-loaded]
          [--jobs N] [--items N] [--seed N]
          [--shard-faults SEED|PLAN.json]  # profile the self-healing engine instead
          [--trace-out FILE.json]     # Chrome-trace JSON (chrome://tracing, Perfetto)
          [--metrics FILE.prom]       # per-stage latency histograms
  dbp serve --shards N [--algo NAME] [--capacity W] [--router hash|least-loaded]
          [--dims D] [--capacities A,B,..]  # D-dimensional demands (demand:[..] on the wire)
          [--addr HOST:PORT] [--metrics-addr HOST:PORT]   # NDJSON ingest + Prometheus
          [--queue-capacity N] [--queue-timeout TICKS]    # bounded shard queue + event-time shed
          [--backpressure block|shed] [--max-sessions N] [--read-timeout-ms MS]
          [--journal BASE] [--fsync always|never|N]       # per-shard WAL: BASE.shardK
  dbp recover FILE.wal [--repair] [--manifest FILE.json]
          [--trace FILE] [--algo NAME] [--faults SEED|PLAN.json]
          [--resume-jsonl FILE.jsonl]
          [--serve-shards N]          # audit a daemon's BASE.shardK journal set
  dbp trace FILE.jsonl [--summary]
  dbp compare FILE
  dbp analyze FILE
  dbp opt FILE [--bounds-only] [--timeline]
  dbp stats FILE
  dbp scenarios [--seed N]

A flag a command does not list above is an error, never ignored.

MODE RESTRICTIONS (a flag a mode cannot honour is an error, never ignored):
  run --hetero            --algo ff|bf|mff|mff-mu|dom
  run --faults            no --timeseries --validate --fleet --gantt --svg --save-trace
  cluster --hetero        --algo as run --hetero
  cluster --shard-faults  no --faults --journal
  recover --serve-shards  no --repair --trace --manifest --resume-jsonl --faults --algo
  recover (D=2|4 journal) no --trace resume
";

/// The first error writing report output to stdout, if any.
static STDOUT_ERROR: OnceLock<std::io::Error> = OnceLock::new();

/// The one writer of report output. The first failed write closes it:
/// later output is dropped while the command runs to completion, so
/// journals and artifacts are still sealed. A reader that hung up
/// (`dbp run … | head`) is not an error — `main` exits 0 without a word —
/// and any other write error fails the command once it is done.
fn report(args: std::fmt::Arguments) {
    if STDOUT_ERROR.get().is_none() {
        if let Err(e) = std::io::stdout().lock().write_fmt(args) {
            let _ = STDOUT_ERROR.set(e);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = run(argv);
    if let Err(e) = std::io::stdout().flush() {
        let _ = STDOUT_ERROR.set(e);
    }
    match result {
        Ok(()) => match STDOUT_ERROR.get() {
            Some(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                eprintln!("error: writing to stdout: {e}");
                ExitCode::FAILURE
            }
            _ => ExitCode::SUCCESS,
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv)?;
    let cmd = args.positional.first().map(|s| s.as_str()).unwrap_or("");
    let kind = args.positional.get(1).map_or("", |s| s.as_str());
    // Each command (and generator or construction kind) with every flag it
    // reads; any other flag is refused before any work, so a misspelt or
    // removed flag is never dropped.
    type Command = fn(&Args) -> Result<(), String>;
    let (command, flags): (Command, &str) = match (cmd, kind) {
        ("generate", "gaming") => (cmd_generate, "out seed horizon rate regions"),
        ("generate", "mu") => (cmd_generate, "out seed mu n"),
        ("generate", "scenario") => (cmd_generate, "out seed name"),
        ("adversary", "thm1") => (cmd_adversary, "out k mu"),
        ("adversary", "thm2") => (cmd_adversary, "out k mu n"),
        ("adversary", "adaptive") => (cmd_adversary, "out k mu algo"),
        // An unknown kind is the command's own error, before any work.
        ("generate", _) => return cmd_generate(&args),
        ("adversary", _) => return cmd_adversary(&args),
        ("run", _) => (
            cmd_run,
            "algo hetero validate gantt fleet save-trace svg trace-events metrics \
             timeseries faults journal fsync run-manifest",
        ),
        ("cluster", _) => (
            cmd_cluster,
            "algo shards router hetero jobs trace-events metrics faults shard-faults \
             journal fsync run-manifest",
        ),
        ("serve", _) => (
            cmd_serve,
            "shards algo capacity router dims capacities addr metrics-addr queue-capacity \
             queue-timeout backpressure max-sessions read-timeout-ms journal fsync",
        ),
        ("profile", _) => (
            cmd_profile,
            "algo shards router jobs items seed shard-faults trace-out metrics",
        ),
        ("recover", _) => (
            cmd_recover,
            "repair manifest trace algo faults resume-jsonl serve-shards",
        ),
        ("trace", _) => (cmd_trace, "summary"),
        ("compare", _) => (cmd_compare, ""),
        ("analyze", _) => (cmd_analyze, ""),
        ("opt", _) => (cmd_opt, "bounds-only timeline"),
        ("stats", _) => (cmd_stats, ""),
        ("scenarios", _) => (cmd_scenarios, "seed"),
        ("" | "help", _) => {
            println!("{USAGE}");
            return Ok(());
        }
        (other, _) => return Err(format!("unknown command '{other}'")),
    };
    let label = match cmd {
        "generate" | "adversary" => format!("{cmd} {kind}"),
        _ => cmd.to_string(),
    };
    args.only(&label, flags)?;
    command(&args)
}

fn load_instance(args: &Args, pos: usize) -> Result<Instance, String> {
    read_json(
        args.positional
            .get(pos)
            .ok_or("missing trace file argument")?,
    )
}

/// Parse the JSON file at `path`; errors name the file.
fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
}

fn save_instance(inst: &Instance, path: &str) -> Result<(), String> {
    let body = serde_json::to_string(inst).map_err(|e| e.to_string())?;
    std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {} items to {path}", inst.len());
    Ok(())
}

/// The D = 1 selector factory for roster rule `name`, validated up front
/// (incl. the µ hint only `mff-mu` uses), labelled with the rule's key.
fn selector_factory(name: &str, mu_hint: Option<u64>) -> Result<SelectorFactory, String> {
    let unknown = || format!("unknown algorithm '{name}'");
    let rule = Rule::find(name).ok_or_else(unknown)?;
    rule.build(mu_hint, 0).ok_or_else(unknown)??;
    Ok(SelectorFactory::new(rule.key, move || {
        rule.build(mu_hint, 0)
            .and_then(Result::ok)
            .expect("algorithm validated above")
    }))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let kind = args.positional.get(1).map(|s| s.as_str()).unwrap_or("");
    let out = args.str_flag("out").ok_or("missing --out FILE")?;
    let inst = match kind {
        "gaming" => {
            let cfg = CloudGamingConfig {
                horizon: args.u64_flag_or("horizon", 4 * 3600)?,
                arrivals: ArrivalKind::Poisson {
                    rate: args.f64_flag_or("rate", 0.05)?,
                },
                regions: args.u64_flag_or("regions", 1)? as u16,
                seed: args.u64_flag_or("seed", 0)?,
                ..CloudGamingConfig::default()
            };
            generate(&cfg)
        }
        "mu" => {
            let cfg = MuControlledConfig {
                n_items: args.u64_flag_or("n", 200)? as usize,
                seed: args.u64_flag_or("seed", 0)?,
                ..MuControlledConfig::new(args.u64_flag("mu")?)
            };
            generate_mu_controlled(&cfg)
        }
        "scenario" => {
            let name = args.str_flag("name").ok_or("missing --name")?;
            let scenario =
                Scenario::from_name(name).ok_or_else(|| format!("unknown scenario '{name}'"))?;
            let cfg = CloudGamingConfig {
                seed: args.u64_flag_or("seed", 0)?,
                ..scenario.config()
            };
            generate(&cfg)
        }
        other => {
            return Err(format!(
                "unknown workload kind '{other}' (gaming|mu|scenario)"
            ))
        }
    };
    save_instance(&inst, out)
}

fn cmd_adversary(args: &Args) -> Result<(), String> {
    let which = args.positional.get(1).map(|s| s.as_str()).unwrap_or("");
    let inst = match which {
        "thm1" => {
            let t1 = Theorem1::new(args.u64_flag("k")?, args.u64_flag("mu")?);
            println!(
                "Theorem 1 witness: forced Any Fit cost {} bin-ticks, OPT {} — ratio {}",
                t1.expected_anyfit_cost_ticks(),
                t1.expected_opt_cost_ticks(),
                t1.expected_ratio()
            );
            t1.instance()
        }
        "adaptive" => {
            let adv = AdaptiveMuAdversary::new(args.u64_flag("k")?, args.u64_flag("mu")?);
            let algo = args.str_flag("algo").unwrap_or("ff");
            let mut sel = selector_factory(algo, Some(adv.mu))?.build();
            let outcome = adv.play(&mut *sel);
            println!(
                "adaptive adversary vs {}: {} bins opened, forced cost {} bin-ticks",
                algo, outcome.bins_opened, outcome.forced_cost_ticks
            );
            outcome.instance
        }
        "thm2" => {
            let t2 = Theorem2::new(
                args.u64_flag("k")?,
                args.u64_flag("mu")?,
                args.u64_flag("n")?,
            );
            println!(
                "Theorem 2 witness: BF cost {} bin-ticks; ratio floor {}",
                t2.expected_bf_cost_ticks(),
                t2.ratio_floor()
            );
            t2.instance()
        }
        other => {
            return Err(format!(
                "unknown construction '{other}' (thm1|thm2|adaptive)"
            ))
        }
    };
    match args.str_flag("out") {
        Some(path) => save_instance(&inst, path),
        None => {
            println!("{} items (pass --out FILE to save)", inst.len());
            Ok(())
        }
    }
}

fn mu_hint(inst: &Instance) -> Option<u64> {
    inst.mu().map(|m| m.ceil() as u64)
}

/// Write the artifact `--{flag}` names (plus a shard's `suffix`), if given,
/// and announce it as `{what} saved to PATH{detail}`; `write` returns the detail.
fn save<E: Display>(
    args: &Args,
    flag: &str,
    suffix: &str,
    what: &str,
    write: impl FnOnce(&Path) -> Result<String, E>,
) -> Result<(), String> {
    let Some(base) = args.str_flag(flag) else {
        return Ok(());
    };
    let path = format!("{base}{suffix}");
    let detail = write(Path::new(&path)).map_err(|e| format!("{path}: {e}"))?;
    println!("{what} saved to {path}{detail}");
    Ok(())
}

fn save_metrics(args: &Args, registry: &MetricsRegistry) -> Result<(), String> {
    save(args, "metrics", "", "metrics", |path| {
        dbp_obs::export::write_prometheus(path, registry).map(|()| String::new())
    })
}

fn save_manifest(args: &Args, manifest: &RunManifest) -> Result<(), String> {
    save(args, "run-manifest", "", "manifest", |path| {
        dbp_obs::export::write_json(path, manifest).map(|()| String::new())
    })
}

/// `--journal` and its `--fsync` policy (default `always`: a crash loses
/// at most the frame being written).
fn journal_flags<'a>(args: &'a Args, what: &str) -> Result<Option<(&'a str, FsyncPolicy)>, String> {
    let Some(path) = args.str_flag("journal") else {
        if args.has("fsync") {
            return Err(format!("--fsync only makes sense with --journal {what}"));
        }
        return Ok(None);
    };
    let policy = match args.str_flag("fsync") {
        None => FsyncPolicy::Always,
        Some(spec) => FsyncPolicy::parse(spec).map_err(|e| format!("--fsync: {e}"))?,
    };
    Ok(Some((path, policy)))
}

/// One dispatcher's recorders; `suffix` picks a cluster shard's files.
struct RunProbe<Sz = Size> {
    suffix: String,
    events: dbp_obs::GEventLog<Sz>,
    metrics: dbp_obs::MetricsProbe,
    sampler: Option<TimeSeriesSampler>,
    journal: Option<dbp_obs::JournalProbe>,
}

impl<Sz: Demand> RunProbe<Sz> {
    /// Creates the journal file (a `D > 1` journal is format v2), so its
    /// I/O errors surface before any work.
    fn open(args: &Args, suffix: String) -> Result<RunProbe<Sz>, String> {
        let journal = journal_flags(args, "FILE")?
            .map(|(base, fsync)| {
                let path = format!("{base}{suffix}");
                dbp_obs::JournalProbe::create_dims(Path::new(&path), fsync, Sz::DIMS)
                    .map_err(|e| format!("{path}: {e}"))
            })
            .transpose()?;
        Ok(RunProbe {
            suffix,
            events: dbp_obs::GEventLog::new(),
            metrics: dbp_obs::MetricsProbe::new(),
            sampler: None,
            journal,
        })
    }

    /// Seal the journal, surfacing any write error latched during the run.
    fn seal_journal(&mut self, args: &Args) -> Result<(), String> {
        self.journal.take().map_or(Ok(()), |journal| {
            save(args, "journal", &self.suffix, "journal", |_| {
                journal.finish().map(|n| format!(" ({n} records)"))
            })
        })
    }

    /// Seal the journal, then write the `--trace-events` log.
    fn seal(&mut self, args: &Args) -> Result<(), String> {
        self.seal_journal(args)?;
        let log = &self.events;
        save(args, "trace-events", &self.suffix, "events", |path| {
            dbp_obs::export::write_jsonl(path, log.events())
                .map(|()| format!(" ({} events)", log.len()))
        })
    }
}

impl<Sz: Demand> Probe<Sz> for RunProbe<Sz> {
    const TIMED: bool = true;

    fn record(&mut self, event: GProbeEvent<Sz>) {
        self.events.record(event.clone());
        self.metrics.record(event.clone());
        if let Some(sampler) = &mut self.sampler {
            sampler.record(event.clone());
        }
        if let Some(journal) = &mut self.journal {
            journal.record(event);
        }
    }

    fn on_decision_ns(&mut self, ns: u64) {
        Probe::<Sz>::on_decision_ns(&mut self.metrics, ns);
    }
}

/// `dbp run FILE --algo A`: one online dispatcher packs the trace. `--hetero`
/// widens it to the `[gpu, cpu, mem]` catalog and runs the same way at D=3.
fn cmd_run(args: &Args) -> Result<(), String> {
    let inst = load_instance(args, 1)?;
    let algo = args.str_flag("algo").unwrap_or("ff");
    if args.has("hetero") {
        let factory = hetero_factory(algo, mu_hint(&inst))?;
        return run_at(args, &widen(&inst), &factory);
    }
    run_at(args, &inst, &selector_factory(algo, mu_hint(&inst))?)
}

/// The body of `dbp run` at any demand dimensionality.
fn run_at<Sz: Demand>(
    args: &Args,
    inst: &GInstance<Sz>,
    factory: &GSelectorFactory<Sz>,
) -> Result<(), String> {
    let algo = args.str_flag("algo").unwrap_or("ff");
    let plan = match args.str_flag("faults") {
        Some(spec) => {
            args.refuse("--faults", "timeseries validate fleet gantt svg save-trace")?;
            Some((spec, fault_plans(spec, inst, 1)?.remove(0)))
        }
        None => None,
    };
    let mut sel = factory.build();
    let observing = args
        .first_of("trace-events metrics timeseries journal run-manifest")
        .is_some();
    let started = std::time::Instant::now();
    let mut probe = RunProbe::open(args, String::new())?;
    if let Some((spec, plan)) = plan {
        // Resilient dispatch (crashes, flaky provisioning, retries, orphan
        // re-dispatch): the SLA ledger prints next to the bill.
        let resilient = dbp_cloudsim::ResilientSystem::new(paper_gaming_system(inst), plan.clone());
        let report = if observing {
            resilient.run_probed(inst, &mut *sel, &mut probe)
        } else {
            resilient.run(inst, &mut *sel)
        }
        .map_err(|e| format!("{spec}: {e}"))?;
        let wall = started.elapsed();
        probe.seal_journal(args)?;
        // No packing trace here, so no exact cost: `recover --faults`
        // re-derives the report by verified re-execution instead.
        save_manifest(args, &RunManifest::capture(sel.name(), None, inst, wall))?;
        probe.seal(args)?;
        save_metrics(args, probe.metrics.registry())?;
        // A scalar report echoes `--algo`; a vector one names the selector
        // and D, as every vector report does.
        let name = if Sz::DIMS == 1 { algo } else { sel.name() };
        print_fault_report(&dims_label::<Sz>(name), &plan, &report);
        return Ok(());
    }
    if args.has("timeseries") {
        probe.sampler = Some(TimeSeriesSampler::new(inst.capacity().component(0)));
    }
    // Journaled runs honor SIGINT/SIGTERM: the step loop polls the
    // shutdown latch between bursts and exits early, so the journal seals
    // a clean prefix that `dbp recover --trace` can resume.
    let trace = if probe.journal.is_some() {
        dbp_serve::install_signal_handlers();
        let mut run = EngineRun::new(inst, &mut *sel, &mut probe);
        while !run.is_done() && !dbp_serve::shutdown_requested() {
            for _ in 0..4096 {
                if !run.step() {
                    break;
                }
            }
        }
        run.is_done().then(|| run.finish())
    } else if observing {
        Some(simulate_probed(inst, &mut *sel, &mut probe))
    } else {
        Some(simulate(inst, &mut *sel))
    };
    // `--validate` audits the finished trace; each violation reaches the
    // probe (event log, journal) before the run fails.
    if let Some(trace) = trace.as_ref().filter(|_| args.has("validate")) {
        validate_probed(inst, trace, &mut probe)?;
    }
    let wall = started.elapsed();
    let Some(trace) = trace else {
        probe.seal_journal(args)?;
        let wal = args.str_flag("journal").unwrap_or_default();
        let trace_file = args.positional.get(1).cloned().unwrap_or_default();
        println!("interrupted    : stopped by signal; the journal holds a clean prefix");
        println!("resume with    : dbp recover {wal} --trace {trace_file} --algo {algo}");
        return Ok(());
    };
    probe.seal(args)?;
    let s = summarize(inst, &trace);
    let dims = dim_ledger(inst, s.total_cost_ticks);
    save_metrics(
        args,
        &with_dim_metrics(probe.metrics.registry().clone(), &dims),
    )?;
    if let Some(sampler) = &probe.sampler {
        save(args, "timeseries", "", "time series", |path| {
            dbp_obs::export::atomic_write(path, sampler.to_csv().as_bytes())
                .map(|()| format!(" ({} samples)", sampler.samples().len()))
        })?;
    }
    println!("algorithm      : {}", dims_label::<Sz>(&s.algorithm));
    println!("items          : {}", s.n_items);
    println!("total cost     : {} bin-ticks", s.total_cost_ticks);
    println!("bins used      : {}", s.bins_used);
    println!("max open bins  : {}", s.max_open_bins);
    println!("cost / LB      : {:.4}", s.ratio_vs_lower_bound.to_f64());
    println!("utilization    : {:.4}", s.mean_utilization.to_f64());
    if !dims.is_empty() {
        let peak = dbp_workloads::vector::peak_pressure(inst);
        for d in &dims {
            // Peak concurrent demand is fleet-wide; in servers' worth here.
            println!(
                "dim {} ({:<3})    : {:.4} utilized, {} demand-ticks, {} wasted, \
                 peak {:.1} servers",
                d.dim,
                DIM_NAMES[d.dim],
                utilization_ppm(d) as f64 / 1e6,
                d.demand_ticks,
                d.waste_ticks,
                peak[d.dim].0 as f64 / peak[d.dim].1 as f64,
            );
        }
    }
    if observing {
        let manifest = RunManifest::capture(&s.algorithm, None, inst, wall)
            .with_cost(trace.total_cost_ticks());
        println!("instance digest: {}", manifest.instance_digest);
        println!(
            "wall time      : {:.3} ms",
            manifest.wall_time_ns as f64 / 1e6
        );
        if let Some(rss) = manifest.peak_rss_bytes {
            println!("peak rss       : {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
        }
        save_manifest(args, &manifest)?;
    }
    if args.has("fleet") {
        if let Some(f) = dbp_core::metrics::fleet_stats(&trace) {
            println!(
                "fleet          : mean {:.2}, p50 {}, p95 {}, max {}",
                f.mean_open, f.p50_open, f.p95_open, f.max_open
            );
            println!(
                "bin lifetimes  : {}..{} ticks (mean {:.0})",
                f.min_bin_life, f.max_bin_life, f.mean_bin_life
            );
        }
    }
    if args.has("gantt") {
        println!("\n{}", dbp_core::gantt::render_gantt(inst, &trace, 72));
        println!("open bins: {}", dbp_core::gantt::sparkline(&trace));
    }
    save(args, "svg", "", "svg", |path| {
        let svg = dbp_core::svg::render_svg(inst, &trace, dbp_core::svg::SvgOptions::default());
        std::fs::write(path, svg).map(|()| String::new())
    })?;
    save(args, "save-trace", "", "trace", |path| {
        let body = serde_json::to_string(&trace).map_err(|e| e.to_string())?;
        std::fs::write(path, body).map_err(|e| e.to_string())?;
        Ok::<_, String>(String::new())
    })
}

/// The `--hetero` selector factory over the `[gpu, cpu, mem]` catalog,
/// validated up front like [`selector_factory`].
fn hetero_factory(
    algo: &str,
    mu_hint: Option<u64>,
) -> Result<GSelectorFactory<VSize<HETERO_DIMS>>, String> {
    let scalar_only =
        || format!("--hetero packs with ff, bf, mff, mff-mu or dom; '{algo}' is scalar-only");
    let rule = Rule::find(algo).ok_or_else(scalar_only)?;
    rule.build_any::<VSize<HETERO_DIMS>>(mu_hint)
        .ok_or_else(scalar_only)??;
    Ok(GSelectorFactory::new(rule.key, move || {
        rule.build_any(mu_hint)
            .and_then(Result::ok)
            .expect("algorithm validated above")
    }))
}

/// The SLA ledger and bill of one `run --faults` dispatch.
fn print_fault_report(algorithm: &str, plan: &FaultPlan, report: &ResilientReport) {
    println!("algorithm      : {algorithm}");
    println!(
        "fault plan     : seed {}, {} crashes, boot fail {:.2}, delay ≤{}, reject {:.2}",
        plan.seed,
        plan.crashes.len(),
        plan.boot_fail_prob,
        plan.boot_delay_max,
        plan.reject_prob
    );
    println!("sessions       : {}", report.sessions_total);
    println!(
        "served         : {} ({:.1}%)",
        report.sessions_served,
        100.0 * report.service_rate()
    );
    println!("dropped        : {}", report.sessions_dropped);
    println!("lost to crash  : {}", report.sessions_lost);
    println!("re-dispatched  : {}", report.redispatches);
    println!(
        "faults         : {} crashes, {} boot failures, {} retries, {} rejections",
        report.crashes,
        report.provision_failures,
        report.retries_scheduled,
        report.dispatch_rejections
    );
    println!("queue peak     : {}", report.queue_peak);
    println!(
        "servers        : {} rented, peak {}",
        report.servers_rented, report.peak_servers
    );
    print_bill(report.busy_ticks, report.billed_ticks, report.cost_cents);
}

/// A report's algorithm line: a vector run names its dimensionality.
fn dims_label<Sz: Demand>(algorithm: &str) -> String {
    match Sz::DIMS {
        1 => algorithm.to_string(),
        d => format!("{algorithm} ({d}-dimensional)"),
    }
}

/// The per-dimension ledger of a vector run that served every session, so
/// the instance's demand is the packing's and the ledger is exact; empty
/// at D = 1.
fn dim_ledger<Sz: Demand>(inst: &GInstance<Sz>, busy: u128) -> Vec<DimReport> {
    match Sz::DIMS {
        1 => Vec::new(),
        _ => dbp_cluster::vector::dim_reports(inst, busy),
    }
}

/// A dimension's utilization in parts per million, rounded down (0 when
/// nothing was rented).
fn utilization_ppm(d: &DimReport) -> u128 {
    (d.demand_ticks * 1_000_000)
        .checked_div(d.rented_ticks)
        .unwrap_or(0)
}

/// `reg` with the `dbp_dim_*{dim="gpu|cpu|mem"}` block of a vector run's
/// per-dimension ledger, shared by `dbp run --hetero` and
/// `dbp cluster --hetero`.
fn with_dim_metrics(mut reg: MetricsRegistry, dims: &[DimReport]) -> MetricsRegistry {
    // Saturate each `u128` ledger value into a Prometheus gauge.
    let clamp_i64 = |v: u128| v.min(i64::MAX as u128) as i64;
    for d in dims {
        let mut dreg = MetricsRegistry::new();
        dreg.gauge_set("dbp_dim_demand_ticks", clamp_i64(d.demand_ticks));
        dreg.gauge_set("dbp_dim_rented_ticks", clamp_i64(d.rented_ticks));
        dreg.gauge_set("dbp_dim_waste_ticks", clamp_i64(d.waste_ticks));
        dreg.gauge_set("dbp_dim_utilization_ppm", clamp_i64(utilization_ppm(d)));
        reg.absorb_labeled(&dreg, "dim", DIM_NAMES[d.dim]);
    }
    reg
}

/// The paper's cost model over `inst`'s capacity: per-tick billing on
/// GPU VMs (a vector capacity's GPU component). Shared by `run --faults`
/// and `recover --faults`, which must reconstruct the *same* system for
/// deterministic re-execution.
fn paper_gaming_system<Sz: Demand>(inst: &GInstance<Sz>) -> dbp_cloudsim::GamingSystem {
    dbp_cloudsim::GamingSystem {
        server: dbp_cloudsim::ServerType {
            gpu_capacity: inst.capacity().component(0),
            ..dbp_cloudsim::ServerType::default_gpu_vm()
        },
        granularity: dbp_cloudsim::Granularity::PerTick,
    }
}

/// Resolve `--{flag} SEED|PLAN.json`: a plan file for `parse`, or a seed.
fn load_plan<T>(
    flag: &str,
    spec: &str,
    parse: impl FnOnce(&str) -> Result<T, serde_json::Error>,
    from_seed: impl FnOnce(u64) -> Result<T, String>,
) -> Result<T, String> {
    if spec.ends_with(".json") || Path::new(spec).exists() {
        let body = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        parse(&body).map_err(|e| format!("{spec}: {e}"))
    } else {
        let seed = spec
            .parse()
            .map_err(|_| format!("--{flag} expects a seed or a plan .json, got '{spec}'"))?;
        from_seed(seed).map_err(|e| format!("--{flag} {spec}: {e}"))
    }
}

/// One `--faults` plan per dispatcher: a plan file is shared verbatim;
/// seed `S` gives dispatcher `k` the plan of seed `S + k`. A plan that
/// breaks [`FaultPlan::validate`] is refused here, before any file is
/// created.
fn fault_plans<Sz: Demand>(
    spec: &str,
    inst: &GInstance<Sz>,
    dispatchers: usize,
) -> Result<Vec<FaultPlan>, String> {
    let horizon = dbp_core::events::event_ticks(inst)
        .last()
        .map_or(0, |t| t.raw());
    let plans = load_plan(
        "faults",
        spec,
        |body| serde_json::from_str(body).map(|plan| vec![plan; dispatchers]),
        |seed| {
            (0..dispatchers as u64)
                .map(|k| FaultPlan::from_seed(seed.wrapping_add(k), horizon))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())
        },
    )?;
    for plan in &plans {
        plan.validate().map_err(|e| format!("{spec}: {e}"))?;
    }
    Ok(plans)
}

/// A `--shard-faults` plan; a seed draws one sized to the instance.
fn shard_fault_plan<Sz: Demand>(
    spec: &str,
    shards: usize,
    inst: &GInstance<Sz>,
) -> Result<ShardFaultPlan, String> {
    // Each shard sees ~2 events per item it serves; aim kill offsets
    // inside the live part of the stream.
    let events_hint = (2 * inst.len() as u64 / shards.max(1) as u64).max(4);
    load_plan("shard-faults", spec, serde_json::from_str, |seed| {
        Ok(ShardFaultPlan::from_seed(seed, shards, events_hint))
    })
}

/// The cluster shape from `--shards`, `--router` and `--jobs`.
fn cluster_config(args: &Args, default_shards: u64) -> Result<dbp_cluster::ClusterConfig, String> {
    let shards = args.u64_flag_or("shards", default_shards)? as usize;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let mut config =
        dbp_cluster::ClusterConfig::new(shards, parse_router(args)?).map_err(|e| e.to_string())?;
    config.jobs = args.u64_flag_or("jobs", 0)? as usize;
    Ok(config)
}

/// The lines every `dbp cluster` report opens with.
fn print_cluster_header(algo: &str, router: &str, shards: impl Display, sessions: impl Display) {
    println!("algorithm      : {algo}");
    println!("router         : {router}");
    println!("shards         : {shards}");
    println!("sessions       : {sessions}");
}

/// The verdict line of an SLA ledger (served + dropped + lost == total).
fn print_ledger(conserved: bool) {
    let verdict = if conserved {
        "conserved"
    } else {
        "NOT CONSERVED"
    };
    println!("ledger         : {verdict}");
}

/// The bill every fault and cluster report closes its totals with.
fn print_bill(busy: u128, billed: u128, cents: Ratio) {
    println!("busy ticks     : {busy}");
    println!("billed ticks   : {billed}");
    println!("bill           : {:.2} USD", cents.to_f64() / 100.0);
}

/// `dbp cluster FILE --algo A --shards N --router R`: partition the request
/// stream across N independent dispatcher shards, run them on a worker
/// pool, and report the exact aggregate bill. `--journal FILE.wal` writes
/// one crash-safe journal per shard at `FILE.wal.shardK` (each replayable
/// with `dbp recover`); `--faults` derives one fault plan per shard (seed
/// plans get `seed + shard`, explicit `.json` plans are shared verbatim);
/// `--shard-faults` kills whole shards mid-run instead and self-heals them
/// from their journals (seed or a `ShardFaultPlan` `.json`). `--hetero`
/// widens the trace to the `[gpu, cpu, mem]` catalog and runs the same
/// way, with every flag, a per-dimension ledger under the bill and D=3
/// (format v2) journals.
fn cmd_cluster(args: &Args) -> Result<(), String> {
    let inst = load_instance(args, 1)?;
    let algo = args.str_flag("algo").unwrap_or("ff");
    if args.has("hetero") {
        let factory = hetero_factory(algo, mu_hint(&inst))?;
        return cluster_at(args, &widen(&inst), &factory);
    }
    cluster_at(args, &inst, &selector_factory(algo, mu_hint(&inst))?)
}

/// The body of `dbp cluster` at any demand dimensionality.
fn cluster_at<Sz: Demand>(
    args: &Args,
    inst: &GInstance<Sz>,
    factory: &GSelectorFactory<Sz>,
) -> Result<(), String> {
    let config = cluster_config(args, 2)?;
    let shards = config.shards;
    let engine = dbp_cluster::ClusterEngine::new(paper_gaming_system(inst), config);
    let label = dims_label::<Sz>;

    if let Some(spec) = args.str_flag("shard-faults") {
        if args.has("faults") {
            return Err(
                "--faults and --shard-faults are mutually exclusive; pick one fault model".into(),
            );
        }
        if args.has("journal") {
            return Err(
                "--journal is not supported with --shard-faults: each shard keeps its own \
                 in-memory journal for resurrection; use --trace-events for the merged stream"
                    .into(),
            );
        }
        let plan = shard_fault_plan(spec, shards, inst)?;
        let mut probe = RunProbe::open(args, String::new())?;
        let (run, _) = engine
            .run_self_healing(inst, factory, &plan, &mut probe, |_, _| NoSpans)
            .map_err(|e| e.to_string())?;
        probe.seal(args)?;
        let mut merged = run.metrics();
        merged.absorb_labeled(probe.metrics.registry(), "scope", "cluster");
        save_metrics(args, &merged)?;
        save_manifest(args, &run.manifest)?;
        let r = &run.report;
        print_cluster_header(&label(&r.algorithm), &r.router, r.shards, r.sessions_total);
        println!("served         : {}", r.sessions_served);
        println!("dropped        : {}", r.sessions_dropped);
        println!("lost to kills  : {}", r.sessions_lost);
        println!("rerouted       : {}", r.sessions_rerouted);
        print_ledger(r.conserved());
        print_bill(r.busy_ticks, r.billed_ticks, r.cost_cents);
        for h in &run.shards {
            println!(
                "  shard {:>2}     : {:<10} {}/{} served, {} lost, {} rerouted out, \
                 {} hosted, {} kills, {} restarts",
                h.shard,
                h.health.name(),
                h.sessions_served,
                h.sessions_total,
                h.sessions_lost,
                h.sessions_rerouted_out,
                h.sessions_rerouted_in,
                h.kills,
                h.restarts,
            );
            if let Some(reason) = &h.down_reason {
                println!("                 down: {reason}");
            }
        }
        // Mirror `dbp trace`'s shard-fault footer so greps work on both.
        if r.shard_kills + r.shard_restarts + r.shards_lost > 0 {
            println!(
                "-- shards: {} kills, {} restarts, {} abandoned",
                r.shard_kills, r.shard_restarts, r.shards_lost
            );
        }
        return Ok(());
    }

    let plans = args
        .str_flag("faults")
        .map(|spec| fault_plans(spec, inst, shards).map(|plans| (spec, plans)))
        .transpose()?;
    // Pre-open every shard's recorders so journal I/O errors surface
    // before any work runs; the pool then takes them by shard index.
    let mut probes = (0..shards)
        .map(|s| RunProbe::open(args, format!(".shard{s}")).map(Some))
        .collect::<Result<Vec<_>, String>>()?;
    let take_probe = |s: usize| probes[s].take().expect("each shard probe is taken once");

    let started = std::time::Instant::now();
    if let Some((spec, plans)) = plans {
        let (run, probes) = engine
            .run_resilient(inst, factory, &plans, take_probe)
            .map_err(|e| format!("{spec}: {e}"))?;
        let wall = started.elapsed();
        let mut merged = MetricsRegistry::new();
        for (s, mut probe) in probes.into_iter().enumerate() {
            probe.seal(args)?;
            merged.absorb_labeled(probe.metrics.registry(), "shard", &s.to_string());
        }
        save_metrics(args, &merged)?;
        // No single packing trace under faults, so no exact cost —
        // mirrors `run --faults`.
        let manifest = RunManifest::capture(factory.name(), None, inst, wall);
        save_manifest(args, &manifest)?;
        let r = &run.report;
        print_cluster_header(&label(&r.algorithm), &r.router, r.shards, r.sessions_total);
        println!("served         : {}", r.sessions_served);
        println!("dropped        : {}", r.sessions_dropped);
        println!("lost to crash  : {}", r.sessions_lost);
        print_ledger(r.conserved());
        print_bill(r.busy_ticks, r.billed_ticks, r.cost_cents);
        for (s, shard) in run.shards.iter().enumerate() {
            println!(
                "  shard {s:>2}     : {} sessions, {}/{} served, {} busy ticks",
                shard.sessions_total, shard.sessions_served, shard.sessions_total, shard.busy_ticks
            );
        }
        return Ok(());
    }

    // Journaled cluster runs honor SIGINT/SIGTERM: the shard loops poll
    // the shutdown latch, the run surfaces as Interrupted, and dropping
    // the probes flushes + fsyncs every shard journal on the way out.
    let journal_base = args.str_flag("journal");
    if journal_base.is_some() {
        dbp_serve::install_signal_handlers();
        dbp_cluster::cancel::set_flag(dbp_serve::global_flag());
    }
    let (run, probes) = match engine.run_probed(inst, factory, take_probe) {
        Ok(ok) => ok,
        Err(dbp_cluster::ClusterError::Interrupted) => {
            println!("interrupted    : stopped by signal; shard journals hold clean prefixes");
            if let Some(base) = journal_base {
                for s in 0..shards {
                    println!("  shard {s:>2}     : dbp recover {base}.shard{s}");
                }
            }
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    let mut registries = Vec::with_capacity(shards);
    for mut probe in probes {
        probe.seal(args)?;
        registries.push(probe.metrics.registry().clone());
    }
    let r = &run.report;
    let dims = dim_ledger(inst, r.busy_ticks);
    save_metrics(args, &with_dim_metrics(run.metrics(&registries), &dims))?;
    save_manifest(args, &r.manifest)?;
    print_cluster_header(&label(&r.algorithm), &r.router, r.shards, r.sessions_served);
    println!(
        "servers        : {} rented, peak {} (sum of shard peaks)",
        r.servers_rented, r.peak_servers
    );
    print_bill(r.busy_ticks, r.billed_ticks, r.cost_cents);
    println!("utilization    : {:.4}", r.utilization.to_f64());
    println!("instance digest: {}", r.manifest.instance_digest);
    for d in &dims {
        println!(
            "dim {} ({:<3})    : {:.4} utilized, {} demand-ticks, {} wasted",
            d.dim,
            DIM_NAMES[d.dim],
            d.utilization.to_f64(),
            d.demand_ticks,
            d.waste_ticks,
        );
    }
    for shard in &run.shards {
        println!(
            "  shard {:>2}     : {} sessions, {} busy ticks, {} servers",
            shard.shard,
            shard.report.sessions_served,
            shard.report.busy_ticks,
            shard.report.servers_rented
        );
    }
    Ok(())
}

fn parse_router(args: &Args) -> Result<dbp_cluster::Router, String> {
    let name = args.str_flag("router").unwrap_or("hash");
    dbp_cluster::Router::from_name(name)
        .ok_or_else(|| format!("unknown router '{name}' (hash|affinity|least-loaded)"))
}

/// `dbp serve --shards N`: the live dispatcher daemon. NDJSON arrivals and
/// departures over TCP, online routing across N shard pipelines (each an
/// open-mode driver of the event core), bounded shard queues with
/// block/shed backpressure, event-time admission control, optional
/// per-shard write-ahead journals (`BASE.shardK`, each auditable with
/// `dbp recover`), and a Prometheus `/metrics` endpoint. SIGINT/SIGTERM
/// drains gracefully: open connections finish, journals seal, and the
/// conserved final ledger prints as one JSON line.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let shards = args.u64_flag_or("shards", 2)? as usize;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let algo = args.str_flag("algo").unwrap_or("ff");
    // No instance up front, so no µ hint: validate the name accepts that.
    let factory = selector_factory(algo, None)?;

    let capacity = args.u64_flag_or("capacity", 100)?;
    if capacity == 0 {
        return Err("--capacity must be at least 1".into());
    }
    // --capacities A,B,.. implies the dimensionality; --dims D alone splats
    // --capacity across D resource dimensions.
    let capacities: Option<Vec<u64>> = match args.str_flag("capacities") {
        None => None,
        Some(spec) => Some(
            spec.split(',')
                .map(|c| {
                    c.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("--capacities expects N,N,.. — got '{c}'"))
                })
                .collect::<Result<Vec<u64>, String>>()?,
        ),
    };
    let dims = match (&capacities, args.str_flag("dims")) {
        (Some(caps), None) => caps.len(),
        (caps, Some(d)) => {
            let d: usize = d
                .parse()
                .map_err(|_| format!("--dims expects 1..={}, got '{d}'", dbp_serve::MAX_DIMS))?;
            if let Some(caps) = caps {
                if caps.len() != d {
                    return Err(format!(
                        "--capacities lists {} dimensions but --dims says {d}",
                        caps.len()
                    ));
                }
            }
            d
        }
        (None, None) => 1,
    };
    if !(1..=dbp_serve::MAX_DIMS).contains(&dims) {
        return Err(format!("--dims must be 1..={}", dbp_serve::MAX_DIMS));
    }
    let defaults = dbp_cloudsim::AdmissionPolicy::default();
    let admission = dbp_cloudsim::AdmissionPolicy {
        queue_capacity: args.u64_flag_or("queue-capacity", defaults.queue_capacity as u64)? as u32,
        queue_timeout: args.u64_flag_or("queue-timeout", defaults.queue_timeout)?,
    };
    let backpressure = match args.str_flag("backpressure") {
        None => dbp_serve::BackpressurePolicy::Block,
        Some(name) => dbp_serve::BackpressurePolicy::parse(name)?,
    };
    let journal = journal_flags(args, "BASE")?;
    let cfg = dbp_serve::ServeConfig {
        addr: args
            .str_flag("addr")
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        metrics_addr: args.str_flag("metrics-addr").map(|s| s.to_string()),
        shards,
        router: parse_router(args)?,
        capacity,
        dims,
        capacities,
        admission,
        backpressure,
        max_sessions: args.u64_flag_or("max-sessions", 65_536)? as usize,
        read_timeout_ms: args.u64_flag_or("read-timeout-ms", 25)?,
        journal_base: journal.map(|(base, _)| base.into()),
        fsync: journal.map_or(FsyncPolicy::Always, |(_, fsync)| fsync),
    };

    dbp_serve::install_signal_handlers();
    let summary = dbp_serve::run_server(cfg, &factory, dbp_serve::global_flag(), |h| {
        println!(
            "listening      : {} ({} shards, {algo}, {dims}-dimensional)",
            h.addr, shards
        );
        if let Some(m) = h.metrics_addr {
            println!("metrics        : http://{m}/metrics");
        }
        let arrive = if dims == 1 {
            "{\"op\":\"arrive\",\"id\":N,\"at\":T,\"size\":S}".to_string()
        } else {
            format!("{{\"op\":\"arrive\",\"id\":N,\"at\":T,\"demand\":[{dims} components]}}")
        };
        println!(
            "protocol       : one JSON object per line — {arrive} | \
                  {{\"op\":\"depart\",\"id\":N,\"at\":T}} | {{\"op\":\"ping\",\"id\":N}}"
        );
    })?;

    println!(
        "drained        : {} served, {} dropped, {} lost of {} arrivals",
        summary.served, summary.dropped, summary.lost, summary.total
    );
    print_ledger(summary.conserved());
    println!("{}", summary.to_json());
    if !summary.conserved() {
        return Err("drain ledger is not conserved (served + dropped + lost != total)".into());
    }
    Ok(())
}

/// `dbp profile`: run one traced cluster dispatch and explain where the
/// wall clock went — the ranked per-stage self-time table, the per-shard
/// busy vs queue-wait utilization split, and (with `--trace-out`) the full
/// Chrome-trace flamechart. With no FILE it packs the shared churn fixture
/// (`dbp_workloads::churn`), the same stream the scaling benches measure,
/// so the numbers here explain those curves directly.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let inst = match args.positional.get(1) {
        Some(_) => load_instance(args, 1)?,
        None => {
            let n = args.u64_flag_or("items", 100_000)? as usize;
            let seed = args.u64_flag_or("seed", 42)?;
            dbp_workloads::churn(n, seed)
        }
    };
    let factory = selector_factory(args.str_flag("algo").unwrap_or("ff"), mu_hint(&inst))?;
    let config = cluster_config(args, 8)?;
    let shards = config.shards;
    let engine = dbp_cluster::ClusterEngine::new(paper_gaming_system(&inst), config);

    // With `--shard-faults` the profile runs the self-healing engine
    // instead, so `shard_replay` spans (and the driver's `reroute` span)
    // show up in the stage table and the Chrome trace.
    let (algorithm, router_name, shard_sessions, trace) =
        if let Some(spec) = args.str_flag("shard-faults") {
            let plan = shard_fault_plan(spec, shards, &inst)?;
            let (run, trace) = engine
                .run_self_healing(
                    &inst,
                    &factory,
                    &plan,
                    &mut dbp_core::probe::NoProbe,
                    |s, epoch| dbp_obs::SpanCollector::with_epoch(epoch, s as u32),
                )
                .map_err(|e| e.to_string())?;
            let sessions: Vec<u64> = run.shards.iter().map(|h| h.sessions_served).collect();
            (run.report.algorithm, run.report.router, sessions, trace)
        } else {
            let (run, _probes, trace) = engine
                .run_traced(
                    &inst,
                    &factory,
                    |_| dbp_core::probe::NoProbe,
                    |s, epoch| dbp_obs::SpanCollector::with_epoch(epoch, s as u32),
                )
                .map_err(|e| e.to_string())?;
            let sessions: Vec<u64> = run
                .shards
                .iter()
                .map(|sr| sr.report.sessions_served as u64)
                .collect();
            (run.report.algorithm, run.report.router, sessions, trace)
        };

    let t = &trace.timing;
    print_cluster_header(
        &algorithm,
        &router_name,
        format!("{shards} ({} workers)", config.workers()),
        shard_sessions.iter().sum::<u64>(),
    );
    println!("wall           : {:.3} ms", t.wall_ns as f64 / 1e6);

    // Ranked self-time table over every lane (driver + shards).
    let mut breakdown = dbp_obs::StageBreakdown::from_spans(trace.driver.spans());
    for lane in &trace.shards {
        breakdown.absorb_spans(lane.spans());
    }
    println!();
    print!("{}", breakdown.render(t.wall_ns));

    // Per-shard utilization: where each shard's slice of the dispatch
    // window went. queue-wait is pool contention — with fewer workers than
    // shards this is exactly the scaling plateau.
    println!();
    println!("shard   sessions     busy_ms   queue_ms   busy%_of_dispatch");
    for (s, &sessions) in shard_sessions.iter().enumerate().take(shards) {
        let busy = t.busy_ns[s];
        let wait = t.queue_wait_ns[s];
        let pct = if t.dispatch_ns == 0 {
            0.0
        } else {
            busy as f64 * 100.0 / t.dispatch_ns as f64
        };
        println!(
            "{s:>5}   {sessions:>8}   {:>9.3}   {:>8.3}   {pct:>6.1}%",
            busy as f64 / 1e6,
            wait as f64 / 1e6,
        );
    }

    // Driver coverage: the sequential stages must explain the wall.
    let accounted = t.accounted_ns();
    let pct = |ns: u64| ns as f64 * 100.0 / t.wall_ns.max(1) as f64;
    println!();
    println!(
        "coverage       : partition {:.1}% + enqueue {:.1}% + dispatch {:.1}% + fan-in {:.1}% \
         = {:.1}% of wall",
        pct(t.partition_ns),
        pct(t.batch_enqueue_ns),
        pct(t.dispatch_ns),
        pct(t.fan_in_ns),
        pct(accounted),
    );

    save(args, "trace-out", "", "chrome trace", |path| {
        let names: Vec<String> = (0..shards).map(|s| format!("shard {s}")).collect();
        let shard_lanes = trace
            .shards
            .iter()
            .zip(&names)
            .map(|(l, n)| (n.as_str(), l.spans()));
        let lanes = std::iter::once(("driver", trace.driver.spans())).chain(shard_lanes);
        std::fs::write(path, dbp_obs::chrome_trace_json(lanes))
            .map(|()| " (open in chrome://tracing or Perfetto)".to_string())
    })?;
    let mut reg = MetricsRegistry::new();
    breakdown.export_metrics(&mut reg);
    for s in 0..shards {
        reg.gauge_set(
            &format!("dbp_shard_busy_ns{{shard=\"{s}\"}}"),
            t.busy_ns[s] as i64,
        );
        reg.gauge_set(
            &format!("dbp_shard_queue_wait_ns{{shard=\"{s}\"}}"),
            t.queue_wait_ns[s] as i64,
        );
    }
    save_metrics(args, &reg)
}

/// `dbp recover JOURNAL`: audit a write-ahead journal from `run --journal`.
///
/// Always: read the journal tolerating a torn tail frame (`--repair`
/// truncates it on disk), replay the event stream checking every structural
/// invariant, and recompute the exact integer cost from the events alone.
/// A vector (format v2) journal also gets the exact per-dimension cost
/// audit: served demand-ticks, one integer per resource dimension.
///
/// With `--trace FILE` (the instance the run packed; a 3-dimensional
/// journal widens it as `run --hetero` did): re-execute the interrupted
/// run from scratch, verifying every
/// event of the whole sound journal, and finish it — `--resume-jsonl OUT`
/// writes the journal plus the continuation, byte-identical to an
/// uninterrupted run's stream. A journal carrying fault-injection events
/// recovers the same way under the resilient dispatcher and needs
/// `--faults` (the original plan).
///
/// With `--manifest FILE` (from `run --run-manifest`): refuse a selector
/// other than the recorded algorithm before re-executing, then diff the
/// replayed run against the recorded provenance — item count, instance
/// digest, and exact cost — and fail on any disagreement.
fn cmd_recover(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("missing journal argument (a .wal file from run --journal)")?;
    if args.has("serve-shards") {
        args.refuse(
            "--serve-shards",
            "repair trace manifest resume-jsonl faults algo",
        )?;
        return cmd_recover_serve(path, args.u64_flag("serve-shards")? as usize);
    }
    let dims =
        dbp_obs::journal::peek_journal_dims(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    match dims {
        1 => recover_at::<Size>(
            args,
            path,
            Some(|inst, algo| Ok((selector_factory(algo, mu_hint(&inst))?, inst))),
        ),
        // `run --hetero` journals: the trace widens the same way again.
        3 => recover_at::<VSize<3>>(
            args,
            path,
            Some(|inst, algo| Ok((hetero_factory(algo, mu_hint(&inst))?, widen(&inst)))),
        ),
        2 => recover_at::<VSize<2>>(args, path, None),
        4 => recover_at::<VSize<4>>(args, path, None),
        d => Err(too_many_dims(path, d)),
    }
}

/// How `recover --trace FILE` rebuilds the run a journal recorded: the
/// instance at the journal's dimensionality and the `--algo` factory.
type Rebuild<Sz> = fn(Instance, &str) -> Result<(GSelectorFactory<Sz>, GInstance<Sz>), String>;

/// The body of `dbp recover` at the journal's dimensionality; without a
/// `rebuild`, the journal is audited only.
fn recover_at<Sz: Demand>(
    args: &Args,
    path: &str,
    rebuild: Option<Rebuild<Sz>>,
) -> Result<(), String> {
    // Refuse before reading anything.
    if rebuild.is_none() && args.has("trace") {
        return Err(format!(
            "--trace resumes `run` and `run --hetero` journals; this journal is {}-dimensional",
            Sz::DIMS
        ));
    }
    let (audit, events) = audit_at::<Sz>(path)?;
    match &audit.torn {
        Some(torn) => {
            println!(
                "journal        : torn tail — {} (sound prefix {} bytes)",
                torn.reason, torn.sound_len
            );
            if args.has("repair") {
                dbp_obs::journal::repair_journal(Path::new(path), torn)?;
                println!("repaired       : truncated to {} bytes", torn.sound_len);
            }
        }
        None => println!("journal        : clean"),
    }
    if Sz::DIMS > 1 {
        println!("dimensions     : {}", Sz::DIMS);
    }
    println!("events         : {}", audit.events);
    // A fault-injection stream breaks the engine's structural invariants
    // by design (crashed bins vanish, their sessions reopen elsewhere), so
    // its audit is the verified re-execution below, not the replay walk.
    let summary = if audit.fault_events > 0 {
        if !(args.has("trace") && args.has("faults")) {
            println!(
                "audit          : {} fault events — a resilient-dispatch journal; \
                 pass --trace and --faults to audit by verified re-execution",
                audit.fault_events
            );
        }
        None
    } else {
        let s = audit.summary?;
        println!(
            "items          : {} arrived, {} placed, {} departed",
            s.arrivals, s.placements, s.departures
        );
        println!(
            "bins           : {} opened, {} closed, {} still open (peak {})",
            s.bins_opened, s.bins_closed, s.open_at_end, s.max_open
        );
        if s.violations > 0 {
            println!("carried        : {} violations", s.violations);
        }
        println!(
            "replayed cost  : {} bin-ticks ({})",
            s.cost_ticks,
            if s.is_complete() {
                "complete run"
            } else {
                "closed bins only — run was interrupted"
            }
        );
        Some(s)
    };
    if Sz::DIMS > 1 {
        for (d, t) in audit.dim_ticks.iter().enumerate() {
            println!("dim {d} served   : {t} demand-ticks");
        }
        if audit.resident > 0 {
            println!(
                "resident       : {} items still placed at stream end \
                 (their demand-ticks are not yet accountable)",
                audit.resident
            );
        }
    }

    // With the original instance in hand, finish what the journal started.
    let mut final_cost = summary
        .as_ref()
        .filter(|s| s.is_complete())
        .map(|s| s.cost_ticks);
    let mut trace_digest: Option<String> = None;
    // The recorded provenance every recomputed figure is diffed against;
    // any disagreement is a hard failure.
    let manifest = match args.str_flag("manifest") {
        Some(manifest_path) => Some((manifest_path, read_json::<RunManifest>(manifest_path)?)),
        None => None,
    };
    let disagrees = |manifest_path: &str, mismatches: &[String]| {
        format!(
            "manifest {manifest_path} disagrees with the journal:\n  {}",
            mismatches.join("\n  ")
        )
    };
    if let (Some(trace_path), Some(rebuild)) = (args.str_flag("trace"), rebuild) {
        let algo = args.str_flag("algo").unwrap_or("ff");
        let (factory, inst) = rebuild(read_json(trace_path)?, algo)?;
        trace_digest = Some(dbp_obs::manifest::instance_digest(&inst));
        let mut sel = factory.build();
        // A selector other than the recorded one cannot re-execute the
        // journal; say so before running it.
        if let Some((manifest_path, recorded)) = &manifest {
            if sel.name() != recorded.algorithm {
                return Err(disagrees(
                    manifest_path,
                    &[format!(
                        "algorithm: manifest records {}, recovery used {} (pass --algo)",
                        recorded.algorithm,
                        sel.name()
                    )],
                ));
            }
        }
        // Run again from scratch, checking every event against the whole
        // sound journal; only the continuation reaches `log`. A fault
        // journal is re-executed by the resilient dispatcher under its
        // original plan, a fault-free one by the engine alone.
        let mut log = dbp_obs::GEventLog::<Sz>::new();
        let mut verify = VerifyProbe::new(&events, &mut log);
        let report = if audit.fault_events > 0 {
            let spec = args.str_flag("faults").ok_or(
                "journal carries fault-injection events; pass --faults SEED|PLAN.json \
                 matching the original run",
            )?;
            let plan = fault_plans(spec, &inst, 1)?.remove(0);
            let system = dbp_cloudsim::ResilientSystem::new(paper_gaming_system(&inst), plan);
            let report = system
                .run_probed(&inst, &mut *sel, &mut verify)
                .map_err(|e| format!("recovery failed: {e}"))?;
            Some(report)
        } else if args.has("faults") {
            return Err("--faults given but the journal carries no fault events".into());
        } else {
            final_cost = Some(simulate_probed(&inst, &mut *sel, &mut verify).total_cost_ticks());
            None
        };
        let (verified, rederived) = verify
            .finish()
            .map_err(|e| format!("recovery failed: {e}"))?;
        println!("recovery       : {verified} journaled events verified, {rederived} re-derived");
        match report {
            Some(r) => println!(
                "report         : {}/{} sessions served, {} crashes, {} re-dispatched",
                r.sessions_served, r.sessions_total, r.crashes, r.redispatches
            ),
            None => println!(
                "resumed cost   : {} bin-ticks ({rederived} continuation events)",
                final_cost.unwrap_or_default()
            ),
        }
        save(args, "resume-jsonl", "", "combined stream", |path| {
            let mut combined = dbp_obs::export::events_to_jsonl(&events);
            combined.push_str(&dbp_obs::export::events_to_jsonl(log.events()));
            dbp_obs::export::atomic_write(path, combined.as_bytes()).map(|()| String::new())
        })?;
    } else if args.has("resume-jsonl") {
        return Err("--resume-jsonl needs --trace FILE (the instance the run packed)".into());
    }

    // Diff everything the journal could recompute against the recorded
    // provenance.
    if let Some((manifest_path, recorded)) = manifest {
        let mut mismatches: Vec<String> = Vec::new();
        match (recorded.total_cost_ticks, final_cost) {
            (Some(want), Some(got)) if want != got => mismatches.push(format!(
                "total cost: manifest records {want} bin-ticks, journal replays to {got}"
            )),
            (Some(want), Some(_)) => {
                println!("cost check     : OK ({want} bin-ticks, recomputed exactly)");
            }
            (Some(_), None) => mismatches.push(
                "total cost: journal is an incomplete prefix; pass --trace FILE to \
                 resume the run and recompute it"
                    .into(),
            ),
            (None, _) => println!("cost check     : manifest records no cost (skipped)"),
        }
        if let Some(s) = &summary {
            if s.is_complete() && s.arrivals != recorded.n_items {
                mismatches.push(format!(
                    "items: manifest records {}, journal replays {}",
                    recorded.n_items, s.arrivals
                ));
            }
        }
        if let Some(digest) = &trace_digest {
            if *digest != recorded.instance_digest {
                mismatches.push(format!(
                    "instance digest: manifest records {}, --trace hashes to {digest}",
                    recorded.instance_digest
                ));
            } else {
                println!("digest check   : OK ({digest})");
            }
        }
        if !mismatches.is_empty() {
            return Err(disagrees(manifest_path, &mismatches));
        }
        println!("manifest check : OK");
    }
    Ok(())
}

/// A journal audited without the instance.
struct JournalAudit {
    events: usize,
    torn: Option<dbp_obs::journal::TornTail>,
    fault_events: usize,
    /// The replay walk; its error is raised only where the walk is needed.
    summary: Result<dbp_obs::ReplaySummary, String>,
    /// Departed demand-ticks per dimension, and items still resident.
    dim_ticks: Vec<u128>,
    resident: u64,
}

/// Read and audit `path` as a journal of `Sz` demands; its events are
/// returned for resume and re-execution.
fn audit_at<Sz: Demand>(path: &str) -> Result<(JournalAudit, Vec<GProbeEvent<Sz>>), String> {
    let c = dbp_obs::journal::read_journal_dims::<Sz>(Path::new(path))?;
    let (dim_ticks, resident) = dbp_obs::per_dim_demand_ticks(&c.events);
    let audit = JournalAudit {
        events: c.events.len(),
        torn: c.torn,
        fault_events: c.events.iter().filter(|e| e.is_fault_event()).count(),
        summary: dbp_obs::replay::replay_events_dims(&c.events)
            .map_err(|e| format!("{path}: audit failed: {e}")),
        dim_ticks,
        resident,
    };
    Ok((audit, c.events))
}

/// Read and audit `path` at the dimensionality its header declares.
fn audit_journal(path: &str) -> Result<JournalAudit, String> {
    Ok(
        match dbp_obs::journal::peek_journal_dims(Path::new(path))? {
            1 => audit_at::<Size>(path)?.0,
            2 => audit_at::<VSize<2>>(path)?.0,
            3 => audit_at::<VSize<3>>(path)?.0,
            4 => audit_at::<VSize<4>>(path)?.0,
            d => return Err(too_many_dims(path, d)),
        },
    )
}

fn too_many_dims(path: &str, dims: usize) -> String {
    format!("{path}: journal holds {dims}-dimensional demands; this build audits up to 4")
}

/// `dbp recover BASE --serve-shards N`: audit a daemon's journal set.
///
/// Reads `BASE.shardK` for every shard — tolerating torn tails, exactly
/// what a SIGKILL'd daemon leaves behind — replays each through the
/// instance-free auditor, and prints the aggregate as one JSON line. The
/// placements/departures counts are the daemon's served/departed ledger
/// recomputed from disk alone, so CI can diff them against a pre-kill
/// `/metrics` scrape.
fn cmd_recover_serve(base: &str, shards: usize) -> Result<(), String> {
    if shards == 0 {
        return Err("--serve-shards must be at least 1".into());
    }
    let mut events = 0u64;
    let mut torn_shards = 0u64;
    let mut placements = 0u64;
    let mut departures = 0u64;
    let mut sheds = 0u64;
    let mut open_bins = 0u64;
    let mut cost_ticks = 0u128;
    let mut dim_ticks: Vec<u128> = Vec::new();
    for k in 0..shards {
        let path = format!("{base}.shard{k}");
        let a = audit_journal(&path)?;
        // Serve journals interleave drop records (admission sheds) with
        // the engine stream; the replay walk counts them as fault events.
        let s = a.summary?;
        let tail = match &a.torn {
            Some(torn) => format!("torn tail ({})", torn.reason),
            None => "clean".to_string(),
        };
        torn_shards += u64::from(a.torn.is_some());
        println!(
            "shard {k:>2}       : {} events, {} placed, {} departed, {} shed, \
             {} bins open — {tail}",
            a.events, s.placements, s.departures, s.fault_events, s.open_at_end,
        );
        events += a.events as u64;
        placements += s.placements;
        departures += s.departures;
        sheds += s.fault_events;
        open_bins += s.open_at_end;
        cost_ticks += s.cost_ticks;
        dim_ticks.resize(dim_ticks.len().max(a.dim_ticks.len()), 0);
        for (slot, t) in dim_ticks.iter_mut().zip(&a.dim_ticks) {
            *slot += t;
        }
    }
    let dims = dim_ticks.len();
    let mut dims_json = String::new();
    if dims > 1 {
        for (d, t) in dim_ticks.iter().enumerate() {
            println!("dim {d} served   : {t} demand-ticks");
        }
        let ticks: Vec<String> = dim_ticks.iter().map(|t| t.to_string()).collect();
        dims_json = format!(
            ",\"dims\":{dims},\"dim_demand_ticks\":[{}]",
            ticks.join(",")
        );
    }
    println!(
        "{{\"shards\":{shards},\"torn_shards\":{torn_shards},\"events\":{events},\
         \"placements\":{placements},\"departures\":{departures},\"sheds\":{sheds},\
         \"open_bins\":{open_bins},\"closed_cost_ticks\":{cost_ticks}{dims_json}}}"
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("missing event-log argument (a .jsonl file from run --trace-events)")?;
    let events = dbp_obs::export::read_jsonl(std::path::Path::new(path))?;
    let rendered = dbp_obs::timeline::render_timeline(&events);
    if args.has("summary") {
        // Just the trailing summary line.
        println!("{}", rendered.lines().last().unwrap_or(""));
    } else {
        print!("{rendered}");
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let inst = load_instance(args, 1)?;
    let lb = bounds::combined_lower_bound(&inst);
    println!(
        "{} items, span {} ticks, µ = {:.3}, LB = {:.1} bin-ticks",
        inst.len(),
        inst.span().raw(),
        inst.mu().map(|m| m.to_f64()).unwrap_or(f64::NAN),
        lb.to_f64()
    );
    println!(
        "{:>8}  {:>14}  {:>9}  {:>8}  {:>8}",
        "algo", "cost", "cost/LB", "bins", "peak"
    );
    for f in standard_factories(0) {
        let s = summarize(&inst, &simulate(&inst, &mut *f.build()));
        println!(
            "{:>8}  {:>14}  {:>9.4}  {:>8}  {:>8}",
            f.name(),
            s.total_cost_ticks,
            s.ratio_vs_lower_bound.to_f64(),
            s.bins_used,
            s.max_open_bins
        );
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let inst = load_instance(args, 1)?;
    if inst.is_empty() {
        // ∆ and µ∆ are undefined without an item; `analyze_first_fit`
        // requires at least one.
        return Err(format!(
            "{}: analyze needs at least one item",
            args.positional[1]
        ));
    }
    dbp_core::analysis::check_tick_range(&inst)
        .map_err(|e| format!("{}: {e}", args.positional[1]))?;
    let trace = simulate(&inst, &mut *selector_factory("ff", None)?.build());
    let a = analyze_first_fit(&inst, &trace);
    println!(
        "First Fit trace: {} bins, cost {} bin-ticks",
        trace.bins_used(),
        a.certificates.ff_total
    );
    println!("∆ = {}, µ∆ = {} ticks", a.delta.raw(), a.max_len.raw());
    println!("sub-periods     : {}", a.subperiods.len());
    println!(
        "pairing         : J = {}, S = {}, U = {}",
        a.refs.pairing.joint_pairs, a.refs.pairing.single_periods, a.refs.pairing.non_intersecting
    );
    println!("case totals     : {:?}", a.refs.case_counts.total);
    println!("case intersects : {:?}", a.refs.case_counts.intersecting);
    println!("eq (6) holds    : {}", a.certificates.eq6_holds);
    println!("ineq (13) holds : {}", a.certificates.ineq13_holds);
    println!("ineq (15) holds : {}", a.certificates.ineq15_holds);
    println!(
        "Theorem 5 check : FF_total = {} <= (2µ+13)·LB = {:.1} : {}",
        a.certificates.ff_total,
        a.certificates.theorem5_rhs.to_f64(),
        a.certificates.theorem5_holds
    );
    if a.is_clean() {
        println!("analysis clean: every feature/lemma of §4.3 verified");
        Ok(())
    } else {
        Err(format!("analysis violations:\n{}", a.violations.join("\n")))
    }
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let inst = load_instance(args, 1)?;
    let s = inst.stats();
    println!("items            : {}", s.n_items);
    println!("capacity W       : {}", s.capacity);
    println!("span             : {} ticks", s.span.raw());
    println!("total demand u(R): {} size·ticks", s.total_demand);
    println!(
        "interval lengths : {}..{} ticks  (µ = {:.3})",
        s.min_interval_len.raw(),
        s.max_interval_len.raw(),
        s.mu.to_f64()
    );
    println!("sizes            : {}..{}", s.min_size, s.max_size);
    println!(
        "lower bounds     : u/W = {:.1}, span = {}",
        bounds::demand_lower_bound(&inst).to_f64(),
        s.span.raw()
    );
    Ok(())
}

fn cmd_scenarios(args: &Args) -> Result<(), String> {
    let seed = args.u64_flag_or("seed", 0)?;
    println!(
        "{:>13}  {:>6}  {:>8}  {:>12}  {:>9}  {:>8}",
        "scenario", "items", "mu", "best algo", "cost/LB", "peak"
    );
    for scenario in dbp_workloads::Scenario::ALL {
        let cfg = CloudGamingConfig {
            seed,
            ..scenario.config()
        };
        let inst = generate(&cfg);
        let mut best: Option<(String, Ratio, u32)> = None;
        for f in standard_factories(seed) {
            let s = summarize(&inst, &simulate(&inst, &mut *f.build()));
            let ratio = s.ratio_vs_lower_bound;
            if best.as_ref().is_none_or(|(_, r, _)| ratio < *r) {
                best = Some((f.name().to_string(), ratio, s.max_open_bins));
            }
        }
        let (name, ratio, peak) = best.expect("roster is nonempty");
        println!(
            "{:>13}  {:>6}  {:>8.2}  {:>12}  {:>9.3}  {:>8}",
            scenario.name(),
            inst.len(),
            inst.mu().map(|m| m.to_f64()).unwrap_or(f64::NAN),
            name,
            ratio.to_f64(),
            peak
        );
    }
    Ok(())
}

fn cmd_opt(args: &Args) -> Result<(), String> {
    let inst = load_instance(args, 1)?;
    let mode = if args.has("bounds-only") {
        SolveMode::Bounds
    } else {
        SolveMode::default()
    };
    let opt = opt_total(&inst, mode);
    if opt.is_exact() {
        println!(
            "OPT_total = {} bin-ticks (exact, {} segments, {} distinct sets)",
            opt.lb_ticks, opt.segments, opt.distinct_sets
        );
    } else {
        println!(
            "OPT_total in [{}, {}] bin-ticks ({} segments, {} distinct sets)",
            opt.lb_ticks, opt.ub_ticks, opt.segments, opt.distinct_sets
        );
    }
    println!(
        "lower bounds: u(R)/W = {:.1}, span = {}",
        bounds::demand_lower_bound(&inst).to_f64(),
        inst.span().raw()
    );
    if args.has("timeline") {
        let timeline = dbp_opt::opt_timeline(&inst, mode);
        let max = timeline
            .iter()
            .map(|&(_, _, ub)| ub)
            .max()
            .unwrap_or(1)
            .max(1);
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let spark: String = timeline
            .iter()
            .map(|&(_, lb, _)| GLYPHS[(lb * (GLYPHS.len() - 1)) / max])
            .collect();
        println!(
            "OPT(R,t) profile ({} event ticks, peak {max}):",
            timeline.len()
        );
        println!("{spark}");
        // Compare against First Fit's open-bin profile at the same ticks.
        let trace = simulate(&inst, &mut *selector_factory("ff", None)?.build());
        let ff_spark: String = timeline
            .iter()
            .map(|&(t, _, _)| {
                let n = trace.open_bins_at(t) as usize;
                GLYPHS[(n * (GLYPHS.len() - 1)) / max.max(n).max(1)]
            })
            .collect();
        println!("{ff_spark}");
        println!("(top: OPT, bottom: FF open bins)");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysed_rules_build_view_free_selectors() {
        for key in ["ff", "bf", "mff", "mff-mu"] {
            let factory = selector_factory(key, Some(8)).unwrap();
            assert_eq!(factory.name(), key);
            assert!(!factory.build().needs_views(), "{key}");
        }
        assert!(selector_factory("dom", None).is_err());
        assert!(selector_factory("mff-mu", None).is_err());
    }
}
