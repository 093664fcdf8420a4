//! End-to-end tests of the crash-recovery CLI surface: `run --journal` /
//! `--run-manifest` and the `recover` subcommand, through a real process.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dbp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbp"))
        .args(args)
        .output()
        .expect("failed to spawn dbp")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbp-recover-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &std::path::Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
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

fn stderr_of_failure(o: &Output) -> String {
    assert!(
        !o.status.success(),
        "command unexpectedly succeeded:\nstdout: {}",
        String::from_utf8_lossy(&o.stdout)
    );
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Generate an instance and run it with a journal + manifest; returns
/// (trace path, journal path, manifest path).
fn journaled_run(dir: &std::path::Path, stem: &str) -> (String, String, String) {
    let tr = path(dir, &format!("{stem}.json"));
    let wal = path(dir, &format!("{stem}.wal"));
    let man = path(dir, &format!("{stem}.manifest.json"));
    stdout(&dbp(&[
        "generate", "mu", "--mu", "10", "--n", "60", "--seed", "7", "--out", &tr,
    ]));
    // `--fsync never`: these tests exercise the format, not durability.
    let out = stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--journal",
        &wal,
        "--fsync",
        "never",
        "--run-manifest",
        &man,
    ]));
    assert!(out.contains("journal saved to"), "{out}");
    assert!(out.contains("manifest saved to"), "{out}");
    (tr, wal, man)
}

#[test]
fn recover_audits_a_clean_journal_against_its_manifest() {
    let dir = tmpdir();
    let (tr, wal, man) = journaled_run(&dir, "clean");
    let out = stdout(&dbp(&["recover", &wal, "--trace", &tr, "--manifest", &man]));
    assert!(out.contains("journal        : clean"), "{out}");
    assert!(out.contains("complete run"), "{out}");
    assert!(out.contains("cost check     : OK"), "{out}");
    assert!(out.contains("digest check   : OK"), "{out}");
    assert!(out.contains("manifest check : OK"), "{out}");
}

#[test]
fn recover_resumes_a_torn_journal_to_a_byte_identical_stream() {
    let dir = tmpdir();
    let (tr, wal, man) = journaled_run(&dir, "torn");
    // Reference JSONL stream from an uninterrupted probed run.
    let reference = path(&dir, "reference.jsonl");
    stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--trace-events",
        &reference,
    ]));
    // Tear the journal mid-frame, as a SIGKILL mid-append would.
    let bytes = std::fs::read(&wal).unwrap();
    let torn = path(&dir, "torn.wal");
    std::fs::write(&torn, &bytes[..bytes.len() / 2 - 3]).unwrap();
    let combined = path(&dir, "combined.jsonl");
    let out = stdout(&dbp(&[
        "recover",
        &torn,
        "--trace",
        &tr,
        "--manifest",
        &man,
        "--resume-jsonl",
        &combined,
        "--repair",
    ]));
    assert!(out.contains("torn tail"), "{out}");
    assert!(out.contains("repaired"), "{out}");
    // The resumed run recomputes the exact recorded cost...
    assert!(out.contains("cost check     : OK"), "{out}");
    // ...and prefix + continuation is the uninterrupted stream, bytewise.
    assert_eq!(
        std::fs::read(&combined).unwrap(),
        std::fs::read(&reference).unwrap(),
        "combined stream differs from the uninterrupted run"
    );
    // --repair truncated the torn frame: the file now reads back clean.
    let out = stdout(&dbp(&["recover", &torn]));
    assert!(out.contains("journal        : clean"), "{out}");
}

#[test]
fn recover_fails_on_a_manifest_that_disagrees() {
    let dir = tmpdir();
    let (tr, wal, man) = journaled_run(&dir, "diff");
    // Tamper with the recorded cost.
    let body = std::fs::read_to_string(&man).unwrap();
    let cost: u128 = body
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"total_cost_ticks\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("manifest records a cost");
    let bad = path(&dir, "bad.manifest.json");
    std::fs::write(
        &bad,
        body.replace(&cost.to_string(), &(cost + 1).to_string()),
    )
    .unwrap();
    let err = stderr_of_failure(&dbp(&["recover", &wal, "--manifest", &bad]));
    assert!(err.contains("disagrees"), "{err}");
    assert!(err.contains("total cost"), "{err}");
    // A wrong --algo is caught through the manifest's recorded algorithm.
    let err = stderr_of_failure(&dbp(&[
        "recover",
        &wal,
        "--trace",
        &tr,
        "--manifest",
        &man,
        "--algo",
        "bf",
    ]));
    assert!(err.contains("algorithm: manifest records FF"), "{err}");
    // An incomplete journal cannot satisfy a cost check without --trace.
    let bytes = std::fs::read(&wal).unwrap();
    let torn = path(&dir, "diff-torn.wal");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    let err = stderr_of_failure(&dbp(&["recover", &torn, "--manifest", &man]));
    assert!(err.contains("incomplete prefix"), "{err}");
}

/// A journal re-executed under a selector that did not write it diverges:
/// recovery refuses it with a typed error — no panic (MFF would meet
/// another selector's bin tags) and no cost for a run no selector made.
#[test]
fn recover_refuses_a_foreign_selector_journal_without_panicking() {
    let dir = tmpdir();
    let (tr, wal, _) = journaled_run(&dir, "foreign");
    let bytes = std::fs::read(&wal).unwrap();
    let torn = path(&dir, "foreign-torn.wal");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    for algo in ["mff", "bf"] {
        let out = dbp(&["recover", &torn, "--trace", &tr, "--algo", algo]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--algo {algo}: {err}");
        assert!(err.contains("diverges"), "--algo {algo}: {err}");
        assert!(!err.contains("panicked"), "--algo {algo}: {err}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("resumed cost"),
            "--algo {algo} printed a cost"
        );
    }
}

#[test]
fn recover_reexecutes_fault_journals_and_rejects_foreign_plans() {
    let dir = tmpdir();
    let tr = path(&dir, "faulty.json");
    stdout(&dbp(&[
        "generate", "mu", "--mu", "10", "--n", "60", "--seed", "7", "--out", &tr,
    ]));
    let wal = path(&dir, "faulty.wal");
    stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--faults",
        "42",
        "--journal",
        &wal,
        "--fsync",
        "never",
    ]));
    let reference = path(&dir, "faulty-ref.jsonl");
    stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--faults",
        "42",
        "--trace-events",
        &reference,
    ]));
    // Tear the journal and recover by verified re-execution.
    let bytes = std::fs::read(&wal).unwrap();
    let torn = path(&dir, "faulty-torn.wal");
    std::fs::write(&torn, &bytes[..bytes.len() * 2 / 3]).unwrap();
    let combined = path(&dir, "faulty-combined.jsonl");
    let out = stdout(&dbp(&[
        "recover",
        &torn,
        "--trace",
        &tr,
        "--faults",
        "42",
        "--resume-jsonl",
        &combined,
    ]));
    assert!(out.contains("events verified"), "{out}");
    assert_eq!(
        std::fs::read(&combined).unwrap(),
        std::fs::read(&reference).unwrap(),
        "combined fault stream differs from the uninterrupted run"
    );
    // A journal from one plan must not recover under another.
    let err = stderr_of_failure(&dbp(&["recover", &torn, "--trace", &tr, "--faults", "43"]));
    assert!(err.contains("diverges"), "{err}");
}

/// A fault run's manifest records its bill, and recovery re-derives it:
/// the re-executed report must bill exactly the recorded busy ticks, and
/// a tampered figure fails the check.
#[test]
fn recover_checks_a_fault_run_bill_against_its_manifest() {
    let dir = tmpdir();
    let tr = path(&dir, "billed.json");
    stdout(&dbp(&[
        "generate", "mu", "--mu", "10", "--n", "60", "--seed", "7", "--out", &tr,
    ]));
    let (wal, man) = (path(&dir, "billed.wal"), path(&dir, "billed.manifest.json"));
    let run = stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--faults",
        "42",
        "--journal",
        &wal,
        "--fsync",
        "never",
        "--run-manifest",
        &man,
    ]));
    let busy = run
        .lines()
        .find_map(|l| l.strip_prefix("busy ticks     : "))
        .expect("a fault report prints its busy ticks");
    let recover = [
        "recover",
        &wal,
        "--trace",
        &tr,
        "--faults",
        "42",
        "--manifest",
    ];
    let out = stdout(&dbp(&[&recover[..], &[&man]].concat()));
    assert!(
        out.contains(&format!("cost check     : OK ({busy} bin-ticks")),
        "{out}"
    );
    // Without the instance and plan the bill cannot be re-derived: the
    // check says so instead of calling the journal an incomplete prefix.
    let out = stdout(&dbp(&["recover", &wal, "--manifest", &man]));
    assert!(
        out.contains("cost check     : a fault run's bill needs --trace and --faults"),
        "{out}"
    );

    let body = std::fs::read_to_string(&man).unwrap();
    let recorded = format!("\"total_cost_ticks\": {busy}");
    assert!(body.contains(&recorded), "{body}");
    let bad = path(&dir, "billed-bad.manifest.json");
    let tampered = format!(
        "\"total_cost_ticks\": {}",
        busy.parse::<u128>().unwrap() + 1
    );
    std::fs::write(&bad, body.replace(&recorded, &tampered)).unwrap();
    let err = stderr_of_failure(&dbp(&[&recover[..], &[&bad]].concat()));
    assert!(err.contains("total cost: manifest records"), "{err}");
}

/// A plan that only delays boots journals no fault event, yet its bill
/// counts boot waits the journal cannot show (a delayed bin opens late).
/// Its manifest records no cost, and recovery under `--faults` accepts it
/// with or without the instance. A plan that cannot delay keeps its cost,
/// which the replay and the re-execution both recompute exactly.
#[test]
fn recover_accepts_a_fault_run_whose_only_faults_are_boot_delays() {
    let dir = tmpdir();
    let tr = path(&dir, "delayed.json");
    stdout(&dbp(&[
        "generate", "mu", "--mu", "10", "--n", "60", "--seed", "7", "--out", &tr,
    ]));
    let none = dbp_cloudsim::FaultPlan::none();
    let delays = dbp_cloudsim::FaultPlan {
        boot_delay_max: 30,
        ..none.clone()
    };
    for (stem, plan) in [("delayed", delays), ("undelayed", none)] {
        let spec = path(&dir, &format!("{stem}.plan.json"));
        std::fs::write(&spec, serde_json::to_string(&plan).unwrap()).unwrap();
        let (wal, man) = (
            path(&dir, &format!("{stem}.wal")),
            path(&dir, &format!("{stem}.manifest.json")),
        );
        let run = stdout(&dbp(&[
            "run",
            &tr,
            "--algo",
            "ff",
            "--faults",
            &spec,
            "--journal",
            &wal,
            "--fsync",
            "never",
            "--run-manifest",
            &man,
        ]));
        let busy = run
            .lines()
            .find_map(|l| l.strip_prefix("busy ticks     : "))
            .expect("a fault report prints its busy ticks");
        let recover = |extra: &[&str]| {
            let out = stdout(&dbp(&[
                &["recover", &wal][..],
                extra,
                &["--manifest", &man],
            ]
            .concat()));
            assert!(out.contains("manifest check : OK"), "{stem}: {out}");
            out
        };
        let full = recover(&["--trace", &tr, "--faults", &spec]);
        assert!(full.contains("events verified"), "{stem}: {full}");
        if stem == "delayed" {
            let plain = stdout(&dbp(&["run", &tr, "--algo", "ff"]));
            assert!(
                !plain.contains(&format!("total cost     : {busy} ")),
                "the plan must delay some boot:\n{run}\n{plain}"
            );
            for out in [full, recover(&["--faults", &spec])] {
                assert!(
                    out.contains("cost check     : manifest records no cost (skipped)"),
                    "{stem}: {out}"
                );
            }
        } else {
            for out in [full, recover(&[])] {
                assert!(
                    out.contains(&format!("cost check     : OK ({busy} bin-ticks")),
                    "{stem}: {out}"
                );
            }
        }
    }
}

#[test]
fn journal_flag_validation() {
    let dir = tmpdir();
    let tr = path(&dir, "flags.json");
    stdout(&dbp(&[
        "generate", "mu", "--mu", "10", "--n", "20", "--seed", "1", "--out", &tr,
    ]));
    // --fsync without --journal is rejected.
    let err = stderr_of_failure(&dbp(&["run", &tr, "--algo", "ff", "--fsync", "always"]));
    assert!(err.contains("--fsync"), "{err}");
    // A bad --fsync spelling is rejected.
    let wal = path(&dir, "flags.wal");
    let err = stderr_of_failure(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--journal",
        &wal,
        "--fsync",
        "sometimes",
    ]));
    assert!(err.contains("--fsync"), "{err}");
    // The EveryN policy parses and runs.
    let out = stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "ff",
        "--journal",
        &wal,
        "--fsync",
        "8",
    ]));
    assert!(out.contains("journal saved to"), "{out}");
    // --resume-jsonl without --trace cannot work.
    let err = stderr_of_failure(&dbp(&["recover", &wal, "--resume-jsonl", &wal]));
    assert!(err.contains("--trace"), "{err}");
}

// ---------------------------------------------------------------------
// Format-v2 (vector) journals: append → SIGKILL → `dbp recover` with the
// exact per-dimension cost audit; v1 scalar journals keep their path.

/// Write a 3-dimensional journal exactly as a daemon shard would — then
/// "SIGKILL" it: the writer is dropped mid-stream, never `finish`ed.
/// Returns the journal path and the exact per-dimension demand-ticks of
/// the departed items.
fn vector_journal_killed_midstream(dir: &std::path::Path, stem: &str) -> (String, [u128; 3]) {
    use dbp_cloudsim::faults::AdmissionPolicy;
    use dbp_core::demand::VSize;
    use dbp_obs::journal::{FsyncPolicy, JournalProbe};
    use dbp_serve::{GShardPipeline, Outcome, Request, ServeProbe};

    let wal = path(dir, &format!("{stem}.wal"));
    let journal = JournalProbe::create_dims(std::path::Path::new(&wal), FsyncPolicy::Never, 3)
        .expect("journal opens");
    let mut pipe = GShardPipeline::with_probe(
        VSize::<3>([1000, 800, 1000]),
        dbp_core::algorithms::selector_for::<VSize<3>>("FF").unwrap(),
        AdmissionPolicy::unbounded(),
        ServeProbe {
            journal: Some(journal),
        },
    );
    let arrive = |id, at, [g, c, m]: [u64; 3]| Request::Arrive {
        id,
        at,
        demand: [g, c, m, 0],
    };
    // Three sessions with heterogeneous footprints; the first two depart
    // inside the journaled window, the third is still resident at the
    // kill. Demand-ticks below count the departed only.
    let items: [(u64, u64, [u64; 3]); 3] = [
        (0, 40, [125, 90, 220]),
        (5, 25, [240, 170, 680]),
        (10, 900, [65, 45, 120]),
    ];
    let arrivals = (0..)
        .zip(&items)
        .map(|(id, &(a, _, size))| arrive(id, a, size));
    // Depart the first two in schedule order (1 at 25, then 0 at 40) so
    // they hit the journal, then admit one more session at tick 50.
    let later = [
        Request::Depart { id: 1, at: 25 },
        Request::Depart { id: 0, at: 40 },
        arrive(3, 50, [1, 1, 1]),
    ];
    for req in arrivals.chain(later) {
        let outcome = pipe.handle(&req);
        assert!(matches!(
            outcome,
            Outcome::Placed { .. } | Outcome::Departed
        ));
    }
    let mut ticks = [0u128; 3];
    for &(a, dep, size) in &items[..2] {
        let span = (dep - a) as u128;
        for d in 0..3 {
            ticks[d] += size[d] as u128 * span;
        }
    }
    drop(pipe); // SIGKILL: no seal, no drain
    (wal, ticks)
}

#[test]
fn recover_audits_a_killed_vector_journal_per_dimension() {
    let dir = tmpdir();
    let (wal, ticks) = vector_journal_killed_midstream(&dir, "vec-kill");
    let out = stdout(&dbp(&["recover", &wal]));
    assert!(out.contains("journal        : clean"), "{out}");
    assert!(out.contains("dimensions     : 3"), "{out}");
    assert!(
        out.contains("closed bins only — run was interrupted"),
        "{out}"
    );
    for (d, t) in ticks.iter().enumerate() {
        assert!(
            out.contains(&format!("dim {d} served   : {t} demand-ticks")),
            "missing exact dim {d} audit in:\n{out}"
        );
    }
    assert!(out.contains("resident       : 2 items"), "{out}");
}

/// `--trace` re-executes a 3-dimensional journal with the widened trace:
/// a journal that trace cannot have produced diverges (exit 1, never a
/// panic). No `dbp run` writes a 2-dimensional journal, so `--trace` on
/// one is refused up front, naming its dims; its audit still runs.
#[test]
fn vector_resume_verifies_d3_and_refuses_other_dims() {
    use dbp_obs::journal::{FsyncPolicy, JournalProbe};
    let dir = tmpdir();
    let (wal, _) = vector_journal_killed_midstream(&dir, "vec-resume");
    let tr = path(&dir, "vec-resume.json");
    stdout(&dbp(&[
        "generate", "mu", "--mu", "10", "--n", "20", "--seed", "3", "--out", &tr,
    ]));
    let err = stderr_of_failure(&dbp(&["recover", &wal, "--trace", &tr]));
    assert!(err.contains("journal diverges from re-execution"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    let d2 = path(&dir, "vec-resume-d2.wal");
    drop(JournalProbe::create_dims(std::path::Path::new(&d2), FsyncPolicy::Never, 2).unwrap());
    let err = stderr_of_failure(&dbp(&["recover", &d2, "--trace", &tr]));
    assert!(err.contains("this journal is 2-dimensional"), "{err}");
    let out = stdout(&dbp(&["recover", &d2]));
    assert!(out.contains("dimensions     : 2"), "{out}");
}

/// A `run --hetero --journal` WAL cut to a prefix resumes at D=3: the
/// resumed cost is the uninterrupted run's, prefix + continuation is its
/// event stream byte for byte, and the run's manifest (the widened
/// instance's digest) checks out.
#[test]
fn hetero_journal_resumes_to_the_uninterrupted_run() {
    let dir = tmpdir();
    let tr = path(&dir, "hetero-resume.json");
    let wal = path(&dir, "hetero-resume.wal");
    let man = path(&dir, "hetero-resume.manifest.json");
    let reference = path(&dir, "hetero-resume.ref.jsonl");
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
    let run = stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "dom",
        "--hetero",
        "--journal",
        &wal,
        "--fsync",
        "never",
        "--run-manifest",
        &man,
    ]));
    let total = run
        .lines()
        .find_map(|l| l.strip_prefix("total cost     : "))
        .unwrap_or_else(|| panic!("no total cost in:\n{run}"));
    stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "dom",
        "--hetero",
        "--trace-events",
        &reference,
    ]));
    let bytes = std::fs::read(&wal).unwrap();
    let torn = path(&dir, "hetero-resume.torn.wal");
    std::fs::write(&torn, &bytes[..bytes.len() / 2 - 3]).unwrap();
    let combined = path(&dir, "hetero-resume.comb.jsonl");
    let out = stdout(&dbp(&[
        "recover",
        &torn,
        "--trace",
        &tr,
        "--algo",
        "dom",
        "--resume-jsonl",
        &combined,
        "--manifest",
        &man,
    ]));
    assert!(out.contains("dimensions     : 3"), "{out}");
    assert!(
        out.contains(&format!("resumed cost   : {total} (")),
        "{out}"
    );
    assert!(out.contains("cost check     : OK"), "{out}");
    assert!(out.contains("digest check   : OK"), "{out}");
    assert!(out.contains("manifest check : OK"), "{out}");
    assert_eq!(
        std::fs::read(&combined).unwrap(),
        std::fs::read(&reference).unwrap(),
        "combined stream differs from the uninterrupted run"
    );
}

#[test]
fn torn_vector_journal_reports_and_repairs() {
    let dir = tmpdir();
    let (wal, ticks) = vector_journal_killed_midstream(&dir, "vec-torn");
    // Tear the tail: chop a few bytes off the final record.
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
    let out = stdout(&dbp(&["recover", &wal]));
    assert!(out.contains("torn tail"), "{out}");
    assert!(out.contains("dimensions     : 3"), "{out}");
    let out = stdout(&dbp(&["recover", &wal, "--repair"]));
    assert!(out.contains("repaired       : truncated to"), "{out}");
    // After repair the journal is clean and the audit is unchanged for
    // every fully-journaled dimension total.
    let out = stdout(&dbp(&["recover", &wal]));
    assert!(out.contains("journal        : clean"), "{out}");
    assert!(
        out.contains(&format!("dim 0 served   : {} demand-ticks", ticks[0])),
        "{out}"
    );
}

#[test]
fn serve_shard_set_audit_aggregates_vector_dimensions() {
    let dir = tmpdir();
    // Two shards of the same daemon: BASE.shard0 and BASE.shard1.
    let base = path(&dir, "vecdaemon.wal");
    let (s0, t0) = vector_journal_killed_midstream(&dir, "vecdaemon.wal.shard0-stage");
    let (s1, t1) = vector_journal_killed_midstream(&dir, "vecdaemon.wal.shard1-stage");
    std::fs::rename(&s0, format!("{base}.shard0")).unwrap();
    std::fs::rename(&s1, format!("{base}.shard1")).unwrap();
    let out = stdout(&dbp(&["recover", &base, "--serve-shards", "2"]));
    assert!(out.contains("shard  0"), "{out}");
    assert!(out.contains("shard  1"), "{out}");
    for d in 0..3usize {
        let total = t0[d] + t1[d];
        assert!(
            out.contains(&format!("dim {d} served   : {total} demand-ticks")),
            "missing aggregated dim {d} in:\n{out}"
        );
    }
    assert!(out.contains("\"dims\":3"), "{out}");
    assert!(out.contains("\"dim_demand_ticks\":["), "{out}");
}

/// A v1 scalar journal written today still replays through the scalar
/// path — no dims line, no per-dimension rows, byte-stable output shape.
#[test]
fn v1_scalar_journals_keep_the_scalar_recover_path() {
    let dir = tmpdir();
    let (_, wal, _) = journaled_run(&dir, "v1-compat");
    let header = {
        let mut f = std::fs::File::open(&wal).unwrap();
        use std::io::Read;
        let mut m = [0u8; 8];
        f.read_exact(&mut m).unwrap();
        m
    };
    assert_eq!(&header, b"DBPWAL01", "scalar journals must stay format v1");
    let out = stdout(&dbp(&["recover", &wal]));
    assert!(out.contains("journal        : clean"), "{out}");
    assert!(
        !out.contains("dimensions"),
        "scalar output grew a dims line:\n{out}"
    );
    assert!(!out.contains("dim 0 served"), "{out}");
}
