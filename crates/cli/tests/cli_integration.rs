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

#[test]
fn run_hetero_refuses_flags_it_would_drop() {
    let (_, tr) = tmpfile("refuse_run_hetero.json");
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
    let (_, wal) = tmpfile("refuse_run_hetero.wal");
    let (_, jsonl) = tmpfile("refuse_run_hetero.jsonl");
    let (_, csv) = tmpfile("refuse_run_hetero.csv");
    let (_, man) = tmpfile("refuse_run_hetero.manifest.json");
    let (_, svg) = tmpfile("refuse_run_hetero.svg");
    let (_, saved) = tmpfile("refuse_run_hetero.trace.json");
    assert_refused(
        &["run", &tr, "--algo", "ff", "--hetero"],
        "--hetero",
        &[
            ("journal", Some(&wal)),
            ("fsync", Some("never")),
            ("trace-events", Some(&jsonl)),
            ("timeseries", Some(&csv)),
            ("run-manifest", Some(&man)),
            ("fleet", None),
            ("gantt", None),
            ("svg", Some(&svg)),
            ("save-trace", Some(&saved)),
        ],
    );
    // The combination that used to exit 0 without journaling anything.
    let out = dbp(&[
        "run",
        &tr,
        "--hetero",
        "--journal",
        &wal,
        "--trace-events",
        &jsonl,
        "--faults",
        "42",
    ]);
    assert!(!out.status.success());
    assert!(!std::path::Path::new(&wal).exists());
    assert!(!std::path::Path::new(&jsonl).exists());
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

#[test]
fn cluster_hetero_refuses_flags_it_would_drop() {
    let (_, tr) = tmpfile("refuse_cluster_hetero.json");
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
    let (_, wal) = tmpfile("refuse_cluster_hetero.wal");
    let (_, jsonl) = tmpfile("refuse_cluster_hetero.jsonl");
    let (_, man) = tmpfile("refuse_cluster_hetero.manifest.json");
    assert_refused(
        &["cluster", &tr, "--algo", "ff", "--hetero", "--shards", "3"],
        "--hetero",
        &[
            ("journal", Some(&wal)),
            ("fsync", Some("never")),
            ("trace-events", Some(&jsonl)),
            ("faults", Some("42")),
            ("shard-faults", Some("7")),
            ("run-manifest", Some(&man)),
            ("batch", Some("event")),
            ("jobs", Some("2")),
        ],
    );
    // No shard journal or shard event log was created either.
    for s in 0..3 {
        assert!(!std::path::Path::new(&format!("{wal}.shard{s}")).exists());
        assert!(!std::path::Path::new(&format!("{jsonl}.shard{s}")).exists());
    }
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
    // Artifact flags the vector fault run cannot write stay refused.
    let (_, prom) = tmpfile("hetero_faults.prom");
    let out = dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--hetero",
        "--faults",
        "42",
        "--metrics",
        &prom,
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--metrics is not supported with --faults"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!std::path::Path::new(&prom).exists());
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
    assert!(text.contains("ledger         : conserved"), "{text}");
    for algo in ["FF-idx", "BF-idx", "MFF-idx"] {
        let text = stdout(&dbp(&[
            "cluster", &tr, "--hetero", "--algo", algo, "--shards", "3",
        ]));
        assert!(text.contains("(3-dimensional)"), "{algo}: {text}");
        assert!(
            text.contains("ledger         : conserved"),
            "{algo}: {text}"
        );
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
