//! Whole-stdout transcripts of the `dbp` front end, pinned against the
//! goldens in `tests/transcripts/NAME.txt`.
//!
//! Every command writes into a per-test temp dir whose prefix is
//! normalised to `$TMP`; the `wall time`, `wall` and `peak rss` lines are
//! dropped because they measure the host, not the run. Everything else —
//! report lines, their order, and every "… saved to" line — must match
//! byte for byte. Each run also leaves its normalised transcript at
//! `CARGO_TARGET_TMPDIR/transcripts/NAME.txt`, so a deliberate output
//! change is re-pinned by copying those files over the goldens.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One test's scratch directory plus the mismatches it has collected.
struct Session {
    dir: PathBuf,
    failures: Vec<String>,
}

impl Session {
    fn new(test: &str) -> Session {
        let dir =
            std::env::temp_dir().join(format!("dbp-transcripts-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Session {
            dir,
            failures: Vec::new(),
        }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    /// Run `dbp ARGS`, which must succeed, and return its raw stdout.
    fn run(&self, args: &[&str]) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_dbp"))
            .args(args)
            .output()
            .expect("failed to spawn dbp");
        assert!(
            out.status.success(),
            "dbp {args:?} failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("stdout is UTF-8")
    }

    /// Run `dbp ARGS` and compare its normalised stdout with golden `name`.
    fn check(&mut self, name: &str, args: &[&str]) {
        let raw = self.run(args);
        let prefix = self.dir.to_string_lossy().into_owned();
        let mut got = String::new();
        for line in raw.lines() {
            if ["wall time", "wall ", "peak rss"]
                .iter()
                .any(|p| line.starts_with(p))
            {
                continue;
            }
            got.push_str(&line.replace(&prefix, "$TMP"));
            got.push('\n');
        }
        let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("transcripts");
        std::fs::create_dir_all(&actual_dir).unwrap();
        let actual = actual_dir.join(format!("{name}.txt"));
        std::fs::write(&actual, &got).unwrap();
        let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/transcripts")
            .join(format!("{name}.txt"));
        match std::fs::read_to_string(&golden) {
            Ok(want) if want == got => {}
            Ok(want) => self.failures.push(format!(
                "{name}: stdout differs from {}\n--- want\n{want}--- got ({})\n{got}",
                golden.display(),
                actual.display()
            )),
            Err(e) => self.failures.push(format!(
                "{name}: no golden at {} ({e}); got ({})\n{got}",
                golden.display(),
                actual.display()
            )),
        }
    }

    fn finish(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        assert!(
            self.failures.is_empty(),
            "{} transcript(s) differ:\n\n{}",
            self.failures.len(),
            self.failures.join("\n")
        );
    }
}

/// A µ-controlled trace and a steady gaming scenario, both seeded.
fn inputs(s: &Session) -> (String, String) {
    let mu = s.path("mu.json");
    s.run(&[
        "generate", "mu", "--mu", "6", "--n", "60", "--seed", "3", "--out", &mu,
    ]);
    let steady = s.path("steady.json");
    s.run(&[
        "generate", "scenario", "--name", "steady", "--seed", "5", "--out", &steady,
    ]);
    (mu, steady)
}

#[test]
fn run_and_recover_transcripts() {
    let mut s = Session::new("run");
    let (mu, _) = inputs(&s);
    let (wal, man) = (s.path("r.wal"), s.path("r.mfst.json"));
    let (ev, prom, ts) = (s.path("ev.jsonl"), s.path("r.prom"), s.path("ts.csv"));
    let (svg, saved) = (s.path("r.svg"), s.path("trace.json"));
    s.check("run_plain", &["run", &mu, "--algo", "ff"]);
    s.check(
        "run_validate_fleet",
        &["run", &mu, "--algo", "bf", "--validate", "--fleet"],
    );
    s.check(
        "run_artifacts",
        &[
            "run",
            &mu,
            "--algo",
            "ff",
            "--gantt",
            "--trace-events",
            &ev,
            "--metrics",
            &prom,
            "--timeseries",
            &ts,
            "--journal",
            &wal,
            "--fsync",
            "never",
            "--run-manifest",
            &man,
            "--svg",
            &svg,
            "--save-trace",
            &saved,
        ],
    );
    let (fwal, fman, fev, fprom) = (
        s.path("f.wal"),
        s.path("f.mfst.json"),
        s.path("fev.jsonl"),
        s.path("f.prom"),
    );
    s.check(
        "run_faults",
        &[
            "run",
            &mu,
            "--algo",
            "ff",
            "--faults",
            "42",
            "--trace-events",
            &fev,
            "--metrics",
            &fprom,
            "--journal",
            &fwal,
            "--fsync",
            "never",
            "--run-manifest",
            &fman,
        ],
    );

    s.check("recover_clean", &["recover", &wal, "--manifest", &man]);
    s.check(
        "recover_clean_trace",
        &["recover", &wal, "--trace", &mu, "--manifest", &man],
    );
    let torn = s.path("torn.wal");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    let comb = s.path("comb.jsonl");
    s.check(
        "recover_torn_resume",
        &["recover", &torn, "--trace", &mu, "--resume-jsonl", &comb],
    );
    s.check("recover_torn_repair", &["recover", &torn, "--repair"]);
    s.check("recover_faults_audit", &["recover", &fwal]);
    let fcomb = s.path("fcomb.jsonl");
    s.check(
        "recover_faults_reexecute",
        &[
            "recover",
            &fwal,
            "--trace",
            &mu,
            "--faults",
            "42",
            "--resume-jsonl",
            &fcomb,
            "--manifest",
            &fman,
        ],
    );
    s.finish();
}

#[test]
fn cluster_transcripts() {
    let mut s = Session::new("cluster");
    let (_, steady) = inputs(&s);
    let (wal, ev, prom, man) = (
        s.path("c.wal"),
        s.path("c.jsonl"),
        s.path("c.prom"),
        s.path("c.mfst.json"),
    );
    s.check(
        "cluster_hash_artifacts",
        &[
            "cluster",
            &steady,
            "--algo",
            "ff",
            "--shards",
            "3",
            "--router",
            "hash",
            "--journal",
            &wal,
            "--fsync",
            "never",
            "--trace-events",
            &ev,
            "--metrics",
            &prom,
            "--run-manifest",
            &man,
        ],
    );
    s.check(
        "cluster_affinity",
        &[
            "cluster", &steady, "--algo", "bf", "--shards", "4", "--router", "affinity",
        ],
    );
    s.check(
        "cluster_least_loaded",
        &[
            "cluster",
            &steady,
            "--algo",
            "mff",
            "--shards",
            "3",
            "--router",
            "least-loaded",
        ],
    );
    let (fwal, fev, fprom, fman) = (
        s.path("cf.wal"),
        s.path("cf.jsonl"),
        s.path("cf.prom"),
        s.path("cf.mfst.json"),
    );
    s.check(
        "cluster_faults",
        &[
            "cluster",
            &steady,
            "--algo",
            "ff",
            "--shards",
            "3",
            "--router",
            "affinity",
            "--faults",
            "42",
            "--journal",
            &fwal,
            "--fsync",
            "never",
            "--trace-events",
            &fev,
            "--metrics",
            &fprom,
            "--run-manifest",
            &fman,
        ],
    );
    let (hev, hprom, hman) = (s.path("h.jsonl"), s.path("h.prom"), s.path("h.mfst.json"));
    s.check(
        "cluster_shard_faults",
        &[
            "cluster",
            &steady,
            "--algo",
            "ff",
            "--shards",
            "4",
            "--shard-faults",
            "7",
            "--trace-events",
            &hev,
            "--metrics",
            &hprom,
            "--run-manifest",
            &hman,
        ],
    );
    // A cluster's per-shard journals form a `BASE.shardK` set, exactly
    // the layout `--serve-shards` audits.
    s.check(
        "recover_serve_shards",
        &["recover", &wal, "--serve-shards", "3"],
    );
    s.finish();
}

/// Write a 3-dimensional journal the way a daemon shard does and drop the
/// pipeline mid-stream, unsealed: two sessions departed, two still resident.
fn vector_journal(path: &str) {
    use dbp_cloudsim::faults::AdmissionPolicy;
    use dbp_core::demand::VSize;
    use dbp_obs::journal::{FsyncPolicy, JournalProbe};
    use dbp_serve::{GShardPipeline, Outcome, Request, ServeProbe};

    let journal = JournalProbe::create_dims(Path::new(path), FsyncPolicy::Never, 3).unwrap();
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
    // Schedule order up to tick 50: sessions 1 and 0 depart (at 25 and
    // 40) before session 3 arrives; 2 and 3 are still resident.
    for req in [
        arrive(0, 0, [125, 90, 220]),
        arrive(1, 5, [240, 170, 680]),
        arrive(2, 10, [65, 45, 120]),
        Request::Depart { id: 1, at: 25 },
        Request::Depart { id: 0, at: 40 },
        arrive(3, 50, [1, 1, 1]),
    ] {
        let outcome = pipe.handle(&req);
        assert!(matches!(
            outcome,
            Outcome::Placed { .. } | Outcome::Departed
        ));
    }
    drop(pipe);
}

#[test]
fn vector_transcripts() {
    let mut s = Session::new("vector");
    let launch = s.path("launch.json");
    s.run(&[
        "generate",
        "scenario",
        "--name",
        "launch-day",
        "--seed",
        "7",
        "--out",
        &launch,
    ]);
    let vprom = s.path("v.prom");
    s.check(
        "run_hetero",
        &[
            "run",
            &launch,
            "--algo",
            "ff",
            "--hetero",
            "--validate",
            "--metrics",
            &vprom,
        ],
    );
    s.check(
        "run_hetero_dom",
        &["run", &launch, "--algo", "dom", "--hetero"],
    );
    let cprom = s.path("vc.prom");
    s.check(
        "cluster_hetero",
        &[
            "cluster",
            &launch,
            "--algo",
            "ff",
            "--hetero",
            "--shards",
            "3",
            "--router",
            "least-loaded",
            "--metrics",
            &cprom,
        ],
    );
    let wal = s.path("vec.wal");
    vector_journal(&wal);
    s.check("recover_vector", &["recover", &wal]);
    let base = s.path("vd.wal");
    vector_journal(&format!("{base}.shard0"));
    vector_journal(&format!("{base}.shard1"));
    s.check(
        "recover_vector_serve_shards",
        &["recover", &base, "--serve-shards", "2"],
    );
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
    s.check("recover_vector_torn_repair", &["recover", &wal, "--repair"]);
    s.finish();
}

#[test]
fn compare_and_stats_transcripts() {
    let mut s = Session::new("compare");
    let (mu, steady) = inputs(&s);
    s.check("compare", &["compare", &mu]);
    s.check("stats", &["stats", &steady]);
    s.finish();
}
