//! End-to-end tests of the `dbp` binary: every subcommand through a real
//! process, files round-tripping through a temp directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dbp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbp"))
        .args(args)
        .output()
        .expect("failed to spawn dbp")
}

fn tmpfile(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("dbp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    (p.clone(), p.to_string_lossy().into_owned())
}

fn stdout(o: &Output) -> String {
    assert!(
        o.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = dbp(&["help"]);
    let text = stdout(&out);
    assert!(text.contains("USAGE"));
    assert!(text.contains("adversary"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = dbp(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_run_compare_analyze_opt_pipeline() {
    let (_, path) = tmpfile("mu_trace.json");
    let out = dbp(&["generate", "mu", "--mu", "6", "--n", "80", "--out", &path]);
    assert!(stdout(&out).contains("wrote 80 items"));

    let out = dbp(&["run", &path, "--algo", "ff", "--validate", "--gantt"]);
    let text = stdout(&out);
    assert!(text.contains("algorithm      : FF"));
    assert!(text.contains("cost / LB"));
    assert!(text.contains("open bins:"), "gantt sparkline missing");

    let out = dbp(&["compare", &path]);
    let text = stdout(&out);
    for algo in ["FF", "BF", "WF", "NF", "LF", "MI", "RF", "MFF(8)", "HFF(4)"] {
        assert!(text.contains(algo), "missing {algo} in compare output");
    }

    let out = dbp(&["analyze", &path]);
    let text = stdout(&out);
    assert!(text.contains("analysis clean"));
    assert!(text.contains("Theorem 5 check"));

    let out = dbp(&["opt", &path]);
    assert!(stdout(&out).contains("OPT_total"));
}

#[test]
fn adversary_thm1_produces_exact_witness() {
    let (_, path) = tmpfile("thm1.json");
    let out = dbp(&["adversary", "thm1", "--k", "4", "--mu", "5", "--out", &path]);
    let text = stdout(&out);
    assert!(
        text.contains("ratio 5/2") || text.contains("ratio 20/8"),
        "{text}"
    );

    // The witness runs and yields the forced cost.
    let out = dbp(&["run", &path, "--algo", "bf"]);
    assert!(stdout(&out).contains("total cost     : 20000 bin-ticks"));
}

#[test]
fn adversary_adaptive_works_against_named_algorithm() {
    let (_, path) = tmpfile("adaptive.json");
    let out = dbp(&[
        "adversary",
        "adaptive",
        "--k",
        "3",
        "--mu",
        "4",
        "--algo",
        "wf",
        "--out",
        &path,
    ]);
    let text = stdout(&out);
    assert!(text.contains("3 bins opened"), "{text}");
    let out = dbp(&["opt", &path]);
    assert!(stdout(&out).contains("exact"));
}

#[test]
fn run_saves_trace_and_prints_fleet() {
    let (_, trace_in) = tmpfile("wl.json");
    let (_, trace_out) = tmpfile("trace_out.json");
    let _ = dbp(&[
        "generate", "mu", "--mu", "4", "--n", "40", "--out", &trace_in,
    ]);
    let out = dbp(&[
        "run",
        &trace_in,
        "--algo",
        "bf",
        "--fleet",
        "--save-trace",
        &trace_out,
    ]);
    let text = stdout(&out);
    assert!(text.contains("fleet"));
    assert!(text.contains("bin lifetimes"));
    assert!(text.contains("trace saved"));
    let body = std::fs::read_to_string(&trace_out).unwrap();
    assert!(body.contains("\"algorithm\":\"BF\""));
}

#[test]
fn generate_scenario_by_name() {
    let (_, path) = tmpfile("scenario.json");
    let out = dbp(&[
        "generate",
        "scenario",
        "--name",
        "launch-day",
        "--seed",
        "2",
        "--out",
        &path,
    ]);
    assert!(stdout(&out).contains("wrote"));
    let out = dbp(&["run", &path, "--algo", "mff"]);
    assert!(stdout(&out).contains("algorithm      : MFF"));

    let out = dbp(&["generate", "scenario", "--name", "nope", "--out", &path]);
    assert!(!out.status.success());
}

#[test]
fn stats_scenarios_and_svg() {
    let (_, path) = tmpfile("svg_wl.json");
    let (_, svg_path) = tmpfile("trace.svg");
    let _ = dbp(&["generate", "mu", "--mu", "3", "--n", "30", "--out", &path]);
    let out = dbp(&["stats", &path]);
    let text = stdout(&out);
    assert!(text.contains("total demand"));
    assert!(text.contains("µ ="));

    let out = dbp(&["run", &path, "--algo", "ff", "--svg", &svg_path]);
    assert!(stdout(&out).contains("svg saved"));
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.matches("<rect").count() >= 30);

    let out = dbp(&["scenarios"]);
    let text = stdout(&out);
    for name in [
        "steady",
        "diurnal-day",
        "launch-day",
        "night-owls",
        "multi-region",
    ] {
        assert!(text.contains(name), "missing scenario {name}");
    }
}

#[test]
fn run_rejects_unknown_algorithm() {
    let (_, path) = tmpfile("r.json");
    let _ = dbp(&["generate", "mu", "--mu", "2", "--n", "10", "--out", &path]);
    let out = dbp(&["run", &path, "--algo", "quantum"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn opt_timeline_prints_profiles() {
    let (_, path) = tmpfile("tl.json");
    let _ = dbp(&["generate", "mu", "--mu", "3", "--n", "25", "--out", &path]);
    let out = dbp(&["opt", &path, "--timeline"]);
    let text = stdout(&out);
    assert!(text.contains("OPT(R,t) profile"));
    assert!(text.contains("top: OPT, bottom: FF"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = dbp(&["run", "/nonexistent/trace.json"]);
    assert!(!out.status.success());
}

#[test]
fn analyze_refuses_an_empty_instance_without_panicking() {
    let (_, path) = tmpfile("empty.json");
    std::fs::write(&path, r#"{"capacity":10,"items":[]}"#).unwrap();
    let out = dbp(&["analyze", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: {path}: analyze needs at least one item")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Three items departing at the last `u64` tick: every horizon-scaled
/// quantity sits at the top of the tick range.
fn write_huge_horizon_instance(name: &str) -> String {
    let (_, path) = tmpfile(name);
    let items: Vec<String> = (0..3)
        .map(|k| {
            format!(
                r#"{{"id":{k},"arrival":{k},"departure":{},"size":{},"region":0}}"#,
                u64::MAX,
                3 + k
            )
        })
        .collect();
    std::fs::write(
        &path,
        format!(r#"{{"capacity":10,"items":[{}]}}"#, items.join(",")),
    )
    .unwrap();
    path
}

/// `dbp ARGS` exits 1 with an `error:` line starting `want` and without a
/// panic or an allocation abort.
fn assert_error_line(args: &[&str], want: &str) {
    let out = dbp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {want}")),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!stderr.contains("memory allocation"), "{args:?}: {stderr}");
}

#[test]
fn seeded_fault_plan_over_a_huge_horizon_is_refused() {
    let path = write_huge_horizon_instance("huge_faults.json");
    let want = "--faults 3: bad fault plan: a seeded plan over a 18446744073709551615-tick horizon";
    assert_error_line(&["run", &path, "--algo", "ff", "--faults", "3"], want);
    assert_error_line(&["cluster", &path, "--shards", "2", "--faults", "3"], want);
}

#[test]
fn analyze_refuses_a_horizon_beyond_the_tick_range() {
    let path = write_huge_horizon_instance("huge_analyze.json");
    assert_error_line(
        &["analyze", &path],
        &format!("{path}: the §4.3 analysis needs µ∆ + 4∆"),
    );
}

/// Run `dbp BASE.. --FLAG [VALUE]` for each `(flag, value)`; each must
/// fail before doing any work, with an error naming the flag and `mode`,
/// and leave no file behind at a path-valued flag's target.
fn assert_refused(base: &[&str], mode: &str, flags: &[(&str, Option<&str>)]) {
    for &(flag, value) in flags {
        let flag_arg = format!("--{flag}");
        let mut args = base.to_vec();
        args.push(&flag_arg);
        args.extend(value);
        let _ = value.map(std::fs::remove_file);
        let out = dbp(&args);
        assert!(!out.status.success(), "{args:?} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag_arg} is not supported with {mode}")),
            "{args:?}: {err}"
        );
        if let Some(path) = value.filter(|v| v.contains(std::path::MAIN_SEPARATOR)) {
            assert!(
                !std::path::Path::new(path).exists(),
                "{args:?} created {path}"
            );
        }
    }
}

/// A flag the command does not read — a typo or a removed flag — fails
/// before any work, naming the flag, instead of being silently dropped.
#[test]
fn flags_a_command_does_not_read_are_refused() {
    let (_, tr) = tmpfile("unknown_flag.json");
    stdout(&dbp(&[
        "generate", "mu", "--mu", "4", "--n", "30", "--out", &tr,
    ]));
    let (wal_path, wal) = tmpfile("unknown_flag.wal");
    let (out_path, out) = tmpfile("unknown_flag.out.json");
    let cases: [(&[&str], &str, &str); 5] = [
        (
            &["run", &tr, "--algo", "ff", "--jounral", &wal],
            "run",
            "jounral",
        ),
        (
            &["cluster", &tr, "--shards", "2", "--bacth", "3"],
            "cluster",
            "bacth",
        ),
        (
            &["generate", "mu", "--mu", "4", "--out", &out, "--seeed", "3"],
            "generate mu",
            "seeed",
        ),
        // A flag of another generator kind is not this kind's flag.
        (
            &["generate", "gaming", "--out", &out, "--mu", "4"],
            "generate gaming",
            "mu",
        ),
        (&["compare", &tr, "--algo", "ff"], "compare", "algo"),
    ];
    for (args, cmd, flag) in cases {
        let o = dbp(args);
        assert!(!o.status.success(), "{args:?} succeeded");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(
            err.contains(&format!("--{flag} is not a flag of `dbp {cmd}`")),
            "{args:?}: {err}"
        );
    }
    assert!(!wal_path.exists(), "a refused run wrote {wal}");
    assert!(!out_path.exists(), "a refused generate wrote {out}");
}

/// Every flag `run` takes works with `--hetero`: the vector run goes
/// through the one generic run path, so none is refused, and `--faults`
/// keeps only the refusals it has at every D.
#[test]
fn run_hetero_honours_every_flag() {
    use dbp_core::demand::VSize;
    let (_, tr) = tmpfile("hetero_run_flags.json");
    stdout(&dbp(&[
        "generate",
        "scenario",
        "--name",
        "launch-day",
        "--seed",
        "7",
        "--out",
        &tr,
    ]));
    let (_, wal) = tmpfile("hetero_run_flags.wal");
    let (_, jsonl) = tmpfile("hetero_run_flags.jsonl");
    let (_, csv) = tmpfile("hetero_run_flags.csv");
    let (_, man) = tmpfile("hetero_run_flags.manifest.json");
    let (_, svg) = tmpfile("hetero_run_flags.svg");
    let (_, saved) = tmpfile("hetero_run_flags.trace.json");
    let text = stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--hetero",
        "--journal",
        &wal,
        "--fsync",
        "never",
        "--trace-events",
        &jsonl,
        "--timeseries",
        &csv,
        "--run-manifest",
        &man,
        "--fleet",
        "--gantt",
        "--svg",
        &svg,
        "--save-trace",
        &saved,
    ]));
    assert!(text.contains("FF (3-dimensional)"), "{text}");
    assert!(text.contains("dim 2 (mem)"), "{text}");
    assert!(text.contains("fleet          : mean"), "{text}");
    assert!(text.contains("open bins: "), "{text}");
    let cost = count(&text, "total cost");

    // A D=3 (format v2) journal and a JSONL log of D=3 events.
    let bytes = std::fs::read(&wal).unwrap();
    assert_eq!(&bytes[..9], b"DBPWAL02\x03", "journal header");
    let log = std::fs::read_to_string(&jsonl).unwrap();
    assert!(!log.is_empty());
    for line in log.lines() {
        serde_json::from_str::<dbp_core::probe::GProbeEvent<VSize<3>>>(line)
            .unwrap_or_else(|e| panic!("{line}: {e:?}"));
    }
    assert!(std::fs::read_to_string(&csv).unwrap().lines().count() > 1);
    assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));

    // The manifest digests the widened instance and records the exact
    // cost; the saved trace is the D=3 packing that cost it.
    let manifest: dbp_obs::RunManifest =
        serde_json::from_str(&std::fs::read_to_string(&man).unwrap()).unwrap();
    let scalar: dbp_core::instance::Instance =
        serde_json::from_str(&std::fs::read_to_string(&tr).unwrap()).unwrap();
    let widened = dbp_workloads::widen(&scalar);
    assert_eq!(
        manifest.instance_digest,
        dbp_obs::manifest::instance_digest(&widened)
    );
    assert_eq!(manifest.total_cost_ticks, Some(u128::from(cost)));
    let trace: dbp_core::trace::GPackingTrace<VSize<3>> =
        serde_json::from_str(&std::fs::read_to_string(&saved).unwrap()).unwrap();
    assert_eq!(trace.total_cost_ticks(), u128::from(cost));

    // The vector fault run writes its metrics, like the scalar one...
    let (_, prom) = tmpfile("hetero_run_flags.prom");
    let _ = std::fs::remove_file(&prom);
    let text = stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--hetero",
        "--faults",
        "42",
        "--metrics",
        &prom,
    ]));
    assert!(text.contains("metrics saved to"), "{text}");
    assert_eq!(
        counter_sum(&prom, "dbp_items_arrived_total"),
        count(&text, "sessions")
    );
    // ...and refuses what a run without a packing trace cannot write.
    assert_refused(
        &["run", &tr, "--algo", "ff", "--hetero", "--faults", "42"],
        "--faults",
        &[("svg", Some(&svg)), ("gantt", None)],
    );
}

#[test]
fn run_faults_refuses_flags_it_would_drop() {
    let (_, tr) = tmpfile("refuse_run_faults.json");
    let _ = dbp(&["generate", "mu", "--mu", "4", "--n", "30", "--out", &tr]);
    let (_, csv) = tmpfile("refuse_run_faults.csv");
    let (_, svg) = tmpfile("refuse_run_faults.svg");
    let (_, saved) = tmpfile("refuse_run_faults.trace.json");
    assert_refused(
        &["run", &tr, "--algo", "ff", "--faults", "42"],
        "--faults",
        &[
            ("timeseries", Some(&csv)),
            ("validate", None),
            ("fleet", None),
            ("gantt", None),
            ("svg", Some(&svg)),
            ("save-trace", Some(&saved)),
        ],
    );
}

/// Every flag `cluster` takes works with `--hetero`: the vector cluster
/// runs through the one generic cluster path, so none is refused.
#[test]
fn cluster_hetero_honours_every_flag() {
    let (_, tr) = tmpfile("hetero_flags.json");
    stdout(&dbp(&[
        "generate",
        "scenario",
        "--name",
        "launch-day",
        "--seed",
        "7",
        "--out",
        &tr,
    ]));
    let base = ["cluster", &tr, "--algo", "ff", "--hetero", "--shards", "3"];
    let with = |extra: &[&str]| {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        stdout(&dbp(&args))
    };
    let plain = with(&[]);
    assert!(plain.contains("FF (3-dimensional)"), "{plain}");

    // One D=3 (format v2) journal per shard, and JSONL event logs.
    let (_, wal) = tmpfile("hetero_flags.wal");
    let (_, jsonl) = tmpfile("hetero_flags.jsonl");
    with(&[
        "--journal",
        &wal,
        "--fsync",
        "never",
        "--trace-events",
        &jsonl,
    ]);
    for s in 0..3 {
        let bytes = std::fs::read(format!("{wal}.shard{s}")).unwrap();
        assert_eq!(&bytes[..9], b"DBPWAL02\x03", "shard {s} journal header");
        let log = std::fs::read_to_string(format!("{jsonl}.shard{s}")).unwrap();
        assert!(!log.is_empty());
        for line in log.lines() {
            serde_json::from_str::<dbp_core::probe::GProbeEvent<dbp_core::demand::VSize<3>>>(line)
                .unwrap_or_else(|e| panic!("shard {s}: {line}: {e:?}"));
        }
    }

    // Both fault models conserve their SLA ledger.
    for faults in [&["--faults", "42"][..], &["--shard-faults", "7"][..]] {
        let text = with(faults);
        assert!(
            text.contains("ledger         : conserved"),
            "{faults:?}: {text}"
        );
    }

    // The manifest digests the widened instance.
    let (_, man) = tmpfile("hetero_flags.manifest.json");
    with(&["--run-manifest", &man]);
    let manifest: dbp_obs::RunManifest =
        serde_json::from_str(&std::fs::read_to_string(&man).unwrap()).unwrap();
    let scalar: dbp_core::instance::Instance =
        serde_json::from_str(&std::fs::read_to_string(&tr).unwrap()).unwrap();
    assert_eq!(
        manifest.instance_digest,
        dbp_obs::manifest::instance_digest(&dbp_workloads::widen(&scalar))
    );

    // The worker pool never changes the report.
    assert_eq!(with(&["--jobs", "1"]), plain);
}

#[test]
fn recover_serve_shards_refuses_flags_it_would_drop() {
    let (_, tr) = tmpfile("refuse_serve.json");
    let _ = dbp(&["generate", "mu", "--mu", "4", "--n", "30", "--out", &tr]);
    let (_, base) = tmpfile("refuse_serve.wal");
    let out = dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "2",
        "--journal",
        &base,
        "--fsync",
        "never",
    ]);
    assert!(out.status.success());
    let (_, man) = tmpfile("refuse_serve.manifest.json");
    let (_, jsonl) = tmpfile("refuse_serve.resume.jsonl");
    assert_refused(
        &["recover", &base, "--serve-shards", "2"],
        "--serve-shards",
        &[
            ("repair", None),
            ("trace", Some(&tr)),
            ("manifest", Some(&man)),
            ("resume-jsonl", Some(&jsonl)),
            ("faults", Some("42")),
            ("algo", Some("ff")),
        ],
    );
}

/// The value of a `name : value` report line.
fn field<'a>(text: &'a str, name: &str) -> &'a str {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.trim_start().strip_prefix(':'))
        .unwrap_or_else(|| panic!("no '{name}' line in:\n{text}"))
        .trim()
}

/// The leading integer of a report field.
fn count(text: &str, name: &str) -> u64 {
    let value = field(text, name);
    value
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("'{name}' is not a count: {value}"))
}

#[test]
fn run_hetero_faults_conserves_and_a_zero_plan_bills_the_plain_run() {
    let (_, tr) = tmpfile("hetero_faults.json");
    let _ = dbp(&[
        "generate",
        "scenario",
        "--name",
        "launch-day",
        "--seed",
        "7",
        "--out",
        &tr,
    ]);
    for algo in ["ff", "bf", "mff"] {
        let text = stdout(&dbp(&[
            "run", &tr, "--algo", algo, "--hetero", "--faults", "42",
        ]));
        assert!(text.contains("(3-dimensional)"), "{algo}: {text}");
        assert_eq!(
            count(&text, "served") + count(&text, "dropped") + count(&text, "lost to crash"),
            count(&text, "sessions"),
            "{algo}: {text}"
        );
        assert!(
            count(&text, "faults") > 0,
            "{algo}: the plan must crash: {text}"
        );
    }
    let (_, zero) = tmpfile("hetero_zero_plan.json");
    let plan = dbp_cloudsim::FaultPlan::none();
    std::fs::write(&zero, serde_json::to_string(&plan).unwrap()).unwrap();
    let plain = stdout(&dbp(&["run", &tr, "--algo", "ff", "--hetero"]));
    let faulted = stdout(&dbp(&[
        "run", &tr, "--algo", "ff", "--hetero", "--faults", &zero,
    ]));
    assert_eq!(
        count(&faulted, "busy ticks"),
        count(&plain, "total cost"),
        "{plain}\n{faulted}"
    );
}

#[test]
fn cluster_hetero_takes_the_vector_roster() {
    let (_, tr) = tmpfile("hetero_roster.json");
    let _ = dbp(&[
        "generate",
        "scenario",
        "--name",
        "launch-day",
        "--seed",
        "7",
        "--out",
        &tr,
    ]);
    let text = stdout(&dbp(&[
        "cluster", &tr, "--hetero", "--algo", "dom", "--shards", "3",
    ]));
    assert!(text.contains("DOM (3-dimensional)"), "{text}");
    assert!(text.contains("dim 2 (mem)"), "{text}");
    for algo in ["FF-idx", "BF-idx", "MFF-idx"] {
        let text = stdout(&dbp(&[
            "cluster", &tr, "--hetero", "--algo", algo, "--shards", "3",
        ]));
        assert!(text.contains("(3-dimensional)"), "{algo}: {text}");
        assert!(text.contains("dim 2 (mem)"), "{algo}: {text}");
    }
    // `dom` is vector-only: the scalar cluster still rejects it.
    let out = dbp(&["cluster", &tr, "--algo", "dom"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown algorithm 'dom'"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A reader that hangs up early (`dbp … | head -2`) ends the report
/// quietly: exit 0, no panic on stderr. `dbp trace` of a 2,000-item run
/// prints far more than a pipe buffers, so its writes do hit the closed
/// pipe.
#[test]
fn closed_stdout_is_a_quiet_exit_0() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let (_, inst) = tmpfile("pipe.json");
    let (_, events) = tmpfile("pipe.jsonl");
    stdout(&dbp(&[
        "generate", "mu", "--mu", "20", "--n", "2000", "--seed", "7", "--out", &inst,
    ]));
    stdout(&dbp(&[
        "run",
        &inst,
        "--algo",
        "ff",
        "--trace-events",
        &events,
    ]));
    assert!(stdout(&dbp(&["trace", &events])).len() > 4 * 65536);
    for args in [
        vec!["trace", events.as_str()],
        vec!["run", inst.as_str(), "--algo", "ff", "--gantt"],
    ] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_dbp"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("failed to spawn dbp");
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        for _ in 0..2 {
            lines.next().unwrap().unwrap();
        }
        drop(lines);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Sum of every `dbp_decision_ns…_count` sample in a Prometheus file.
fn decision_counts(prom: &str) -> u64 {
    std::fs::read_to_string(prom)
        .unwrap()
        .lines()
        .filter(|l| {
            l.starts_with("dbp_decision_ns") && l.split(' ').next().unwrap().ends_with("_count")
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// Each driver's metrics probe hears one decision timing per arrival: the
/// plain run (`RunProbe`), the sharded run, and the self-healing cluster,
/// whose shards time arrivals into their in-memory WAL (`WalProbe`) and
/// replay them to the user probe, a killed and restarted shard included.
#[test]
fn metrics_time_every_arrival_once() {
    let (_, inst) = tmpfile("timed.json");
    stdout(&dbp(&[
        "generate", "scenario", "--name", "steady", "--seed", "5", "--out", &inst,
    ]));
    let (_, prom) = tmpfile("timed.prom");
    let (_, wal) = tmpfile("timed.wal");
    let text = stdout(&dbp(&[
        "run",
        &inst,
        "--algo",
        "ff",
        "--metrics",
        &prom,
        "--journal",
        &wal,
        "--fsync",
        "never",
    ]));
    let n = count(&text, "items");
    assert!(n > 0);
    assert_eq!(decision_counts(&prom), n, "run");
    for extra in [&[][..], &["--shard-faults", "7"][..]] {
        let mut args = vec![
            "cluster",
            &inst,
            "--algo",
            "ff",
            "--shards",
            "3",
            "--metrics",
            &prom,
        ];
        args.extend_from_slice(extra);
        let text = stdout(&dbp(&args));
        if !extra.is_empty() {
            assert!(
                text.contains("1 restarts"),
                "the plan restarts a shard:\n{text}"
            );
        }
        assert_eq!(decision_counts(&prom), n, "cluster {extra:?}");
    }
    // Fault runs time each dispatch attempt that commits a placement or a
    // boot, so one timing per `FitAttempt`; with no fault that is one per
    // arrival.
    let (_, zero) = tmpfile("timed_zero_plan.json");
    let plan = dbp_cloudsim::FaultPlan::none();
    std::fs::write(&zero, serde_json::to_string(&plan).unwrap()).unwrap();
    for (spec, want) in [("42", None), (zero.as_str(), Some(n))] {
        for mode in [&["run"][..], &["cluster", "--shards", "3"][..]] {
            let mut args = vec![mode[0], &inst, "--algo", "ff", "--faults", spec];
            args.extend_from_slice(&mode[1..]);
            args.extend_from_slice(&["--metrics", &prom]);
            stdout(&dbp(&args));
            let timed = decision_counts(&prom);
            assert!(timed > 0, "{args:?}");
            assert_eq!(
                timed,
                counter_sum(&prom, "dbp_fit_attempts_total"),
                "{args:?}"
            );
            if let Some(n) = want {
                assert_eq!(timed, n, "{args:?}");
            }
        }
    }
}

/// Sum of every sample of counter `name`, labelled or not.
fn counter_sum(prom: &str, name: &str) -> u64 {
    std::fs::read_to_string(prom)
        .unwrap()
        .lines()
        .filter(|l| {
            let key = l.split(' ').next().unwrap();
            key == name || key.starts_with(&format!("{name}{{"))
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}
