//! End-to-end tests of `dbp cluster`: sharded dispatch through a real
//! process, per-shard journals replayed by `dbp recover` to the recorded
//! aggregate cost, labelled metrics, and 1-shard equivalence to `dbp run`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dbp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbp"))
        .args(args)
        .output()
        .expect("failed to spawn dbp")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbp-cluster-test-{}", std::process::id()));
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

fn field(out: &str, key: &str) -> String {
    out.lines()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("no '{key}' line in:\n{out}"))
        .split(':')
        .nth(1)
        .unwrap()
        .trim()
        .to_string()
}

fn generate(dir: &std::path::Path, stem: &str) -> String {
    let tr = path(dir, &format!("{stem}.json"));
    stdout(&dbp(&[
        "generate", "scenario", "--name", "steady", "--seed", "5", "--out", &tr,
    ]));
    tr
}

#[test]
fn shard_journals_replay_to_the_recorded_aggregate_cost() {
    let dir = tmpdir();
    let tr = generate(&dir, "replay");
    let wal = path(&dir, "replay.wal");
    let man = path(&dir, "replay.manifest.json");
    let out = stdout(&dbp(&[
        "cluster",
        &tr,
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
        "--run-manifest",
        &man,
    ]));
    let busy: u128 = field(&out, "busy ticks").parse().unwrap();

    // Every shard journal is a clean, complete run; their replayed costs
    // sum exactly to the aggregate the cluster reported and recorded.
    let mut replayed_sum: u128 = 0;
    for s in 0..3 {
        let rec = stdout(&dbp(&["recover", &format!("{wal}.shard{s}")]));
        assert!(rec.contains("journal        : clean"), "{rec}");
        let cost_line = field(&rec, "replayed cost");
        assert!(cost_line.ends_with("(complete run)"), "{cost_line}");
        replayed_sum += cost_line
            .split_whitespace()
            .next()
            .unwrap()
            .parse::<u128>()
            .unwrap();
    }
    assert_eq!(replayed_sum, busy);

    let manifest = std::fs::read_to_string(&man).unwrap();
    assert!(
        manifest.contains(&format!("\"total_cost_ticks\": {busy}")),
        "manifest must record the exact aggregate cost:\n{manifest}"
    );
}

#[test]
fn one_shard_cluster_matches_plain_run_output() {
    let dir = tmpdir();
    let tr = generate(&dir, "one");
    let plain = stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "bf",
        "--run-manifest",
        &path(&dir, "plain.manifest.json"),
    ]));
    for router in ["hash", "affinity", "least-loaded"] {
        let clustered = stdout(&dbp(&[
            "cluster", &tr, "--algo", "bf", "--shards", "1", "--router", router,
        ]));
        assert_eq!(
            field(&clustered, "busy ticks"),
            field(&plain, "total cost").replace(" bin-ticks", ""),
            "{router}"
        );
        assert_eq!(
            field(&clustered, "instance digest"),
            field(&plain, "instance digest"),
            "{router}"
        );
        assert_eq!(field(&clustered, "sessions"), field(&plain, "items"));
    }
}

#[test]
fn cluster_metrics_carry_per_shard_labels_and_totals() {
    let dir = tmpdir();
    let tr = generate(&dir, "metrics");
    let prom = path(&dir, "metrics.prom");
    let out = stdout(&dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "4",
        "--router",
        "least-loaded",
        "--metrics",
        &prom,
    ]));
    let sessions: u64 = field(&out, "sessions").parse().unwrap();
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.contains("dbp_cluster_shards 4"), "{text}");
    assert!(
        text.contains(&format!("dbp_cluster_sessions_served_total {sessions}")),
        "{text}"
    );
    for s in 0..4 {
        assert!(
            text.contains(&format!("{{shard=\"{s}\"}}")),
            "no shard {s} series in:\n{text}"
        );
    }
}

#[test]
fn faulted_cluster_reports_a_conserved_ledger() {
    let dir = tmpdir();
    let tr = generate(&dir, "faults");
    let out = stdout(&dbp(&[
        "cluster", &tr, "--algo", "ff", "--shards", "3", "--router", "affinity", "--faults", "42",
    ]));
    assert_eq!(field(&out, "ledger"), "conserved");
    let total: u64 = field(&out, "sessions").parse().unwrap();
    let served: u64 = field(&out, "served").parse().unwrap();
    let dropped: u64 = field(&out, "dropped").parse().unwrap();
    let lost: u64 = field(&out, "lost to crash").parse().unwrap();
    assert_eq!(served + dropped + lost, total);
}

#[test]
fn shard_faulted_cluster_heals_and_conserves_the_extended_ledger() {
    let dir = tmpdir();
    let tr = generate(&dir, "shardfaults");
    let prom = path(&dir, "shardfaults.prom");
    let man = path(&dir, "shardfaults.manifest.json");
    let out = stdout(&dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "4",
        "--router",
        "hash",
        "--shard-faults",
        "7",
        "--metrics",
        &prom,
        "--run-manifest",
        &man,
    ]));
    assert_eq!(field(&out, "ledger"), "conserved");
    let total: u64 = field(&out, "sessions").parse().unwrap();
    let served: u64 = field(&out, "served").parse().unwrap();
    let dropped: u64 = field(&out, "dropped").parse().unwrap();
    let lost: u64 = field(&out, "lost to kills").parse().unwrap();
    let rerouted: u64 = field(&out, "rerouted").parse().unwrap();
    assert_eq!(served + dropped + lost + rerouted, total);
    // A seeded 4-shard plan lands kills; the footer mirrors `dbp trace`.
    assert!(out.contains("-- shards:"), "{out}");

    let text = std::fs::read_to_string(&prom).unwrap();
    for s in 0..4 {
        assert!(
            text.contains(&format!("dbp_cluster_shard_up{{shard=\"{s}\"}}")),
            "no shard {s} health gauge in:\n{text}"
        );
    }
    assert!(text.contains("dbp_cluster_shard_restarts_total"), "{text}");

    let manifest = std::fs::read_to_string(&man).unwrap();
    assert!(manifest.contains("\"shard_restarts\""), "{manifest}");
    assert!(
        manifest.contains("\"ledger_conserved\": true"),
        "{manifest}"
    );
}

#[test]
fn zero_kill_shard_fault_plan_matches_the_plain_cluster_bill() {
    let dir = tmpdir();
    let tr = generate(&dir, "zerokill");
    let plan = path(&dir, "none.json");
    std::fs::write(&plan, r#"{"seed":0,"kills":[]}"#).unwrap();
    let plain = stdout(&dbp(&[
        "cluster", &tr, "--algo", "ff", "--shards", "3", "--router", "hash",
    ]));
    let healed = stdout(&dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "3",
        "--router",
        "hash",
        "--shard-faults",
        &plan,
    ]));
    assert_eq!(field(&healed, "busy ticks"), field(&plain, "busy ticks"));
    assert_eq!(field(&healed, "bill"), field(&plain, "bill"));
    assert_eq!(field(&healed, "ledger"), "conserved");
    assert!(!healed.contains("-- shards:"), "{healed}");
}

#[test]
fn zero_shards_is_a_clear_error() {
    let dir = tmpdir();
    let tr = generate(&dir, "zeroshards");
    let out = dbp(&["cluster", &tr, "--algo", "ff", "--shards", "0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--shards must be at least 1"), "{err}");
}

#[test]
fn shard_faults_and_faults_are_mutually_exclusive() {
    let dir = tmpdir();
    let tr = generate(&dir, "exclusive");
    let out = dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "2",
        "--faults",
        "1",
        "--shard-faults",
        "2",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
}
