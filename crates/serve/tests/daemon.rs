//! End-to-end daemon test: real sockets, real journals, graceful drain.
//!
//! Spins the full server up on ephemeral ports, drives the NDJSON protocol
//! over TCP, scrapes `/metrics`, drains, and then replays the sealed shard
//! journals through the instance-free auditor — the same path `dbp
//! recover` takes after a crash — asserting the journals agree with the
//! daemon's own conserved ledger.

use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_cluster::router::Router;
use dbp_core::algorithms::FirstFit;
use dbp_core::packer::SelectorFactory;
use dbp_obs::journal::{read_journal, FsyncPolicy};
use dbp_obs::replay::replay_events;
use dbp_serve::{journal_shard_path, run_server, BackpressurePolicy, ServeConfig, ServeSummary};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;

fn temp_base(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbp-serve-test-{tag}-{}", std::process::id()));
    p
}

fn send(w: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str) -> serde_json::Value {
    w.write_all(line.as_bytes()).unwrap();
    w.write_all(b"\n").unwrap();
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    serde_json::from_str(reply.trim()).unwrap()
}

fn get(v: &serde_json::Value, key: &str) -> serde_json::Value {
    v.get(key).cloned().unwrap_or(serde_json::Value::Null)
}

#[test]
fn daemon_serves_drains_and_journals_replay_to_the_ledger() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let base = temp_base("e2e");
    let shards = 2usize;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        shards,
        router: Router::HashByItem,
        capacity: 10,
        dims: 1,
        capacities: None,
        admission: AdmissionPolicy {
            queue_capacity: 8,
            queue_timeout: 1_000,
        },
        backpressure: BackpressurePolicy::Shed,
        max_sessions: 64,
        read_timeout_ms: 5,
        journal_base: Some(base.clone()),
        fsync: FsyncPolicy::Always,
    };
    let (addr_tx, addr_rx) = mpsc::channel::<(SocketAddr, SocketAddr)>();
    let server = std::thread::spawn(move || -> Result<ServeSummary, String> {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        run_server(cfg, &factory, stop, |h| {
            addr_tx
                .send((h.addr, h.metrics_addr.expect("metrics bound")))
                .unwrap();
        })
    });
    let (addr, maddr) = addr_rx.recv().unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;

    let pong = send(&mut w, &mut r, r#"{"op":"ping","id":9}"#);
    assert_eq!(get(&pong, "ok"), serde_json::Value::Bool(true));

    // Two placements, on whichever shards the hash route picks.
    let a1 = send(&mut w, &mut r, r#"{"op":"arrive","id":1,"at":0,"size":6}"#);
    assert_eq!(get(&a1, "ok"), serde_json::Value::Bool(true), "{a1:?}");
    let a2 = send(&mut w, &mut r, r#"{"op":"arrive","id":2,"at":1,"size":6}"#);
    assert_eq!(get(&a2, "ok"), serde_json::Value::Bool(true), "{a2:?}");

    // Front-door refusal: duplicate live id.
    let dup = send(&mut w, &mut r, r#"{"op":"arrive","id":1,"at":2,"size":3}"#);
    assert_eq!(get(&dup, "ok"), serde_json::Value::Bool(false));

    // Pipeline refusal: oversized for capacity 10.
    let big = send(&mut w, &mut r, r#"{"op":"arrive","id":3,"at":2,"size":20}"#);
    assert_eq!(get(&big, "ok"), serde_json::Value::Bool(false));

    // A departure, an unknown departure, and a garbage line.
    let d1 = send(&mut w, &mut r, r#"{"op":"depart","id":1,"at":5}"#);
    assert_eq!(get(&d1, "ok"), serde_json::Value::Bool(true));
    let ghost = send(&mut w, &mut r, r#"{"op":"depart","id":42,"at":6}"#);
    assert_eq!(get(&ghost, "ok"), serde_json::Value::Bool(false));
    let junk = send(&mut w, &mut r, "definitely not json");
    assert_eq!(get(&junk, "ok"), serde_json::Value::Bool(false));

    // Scrape /metrics while live.
    let mut m = TcpStream::connect(maddr).unwrap();
    m.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut scrape = String::new();
    m.read_to_string(&mut scrape).unwrap();
    assert!(scrape.contains("200 OK"), "{scrape}");
    assert!(scrape.contains("serve_shard_placed_total"), "{scrape}");
    assert!(
        scrape.contains("serve_dropped_duplicate_total 1"),
        "{scrape}"
    );

    // Graceful drain.
    drop(w);
    drop(r);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let summary = server.join().unwrap().expect("server ran");

    assert!(summary.conserved(), "{summary:?}");
    assert_eq!(summary.total, 4); // ids 1, 2, dup-1, 3
    assert_eq!(summary.served, 2);
    assert_eq!(summary.dropped, 2); // duplicate + oversized
    assert_eq!(summary.lost, 0);
    assert_eq!(summary.departed, 1);
    assert_eq!(summary.dropped_duplicate, 1);
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.bad_lines, 1);
    let in_flight: u64 = summary.shards.iter().map(|s| s.in_flight).sum();
    assert_eq!(in_flight, 1); // id 2 never departed

    // The sealed journals replay — instance-free — to the same aggregate,
    // exactly what `dbp recover` does after a SIGKILL.
    let mut placements = 0u64;
    let mut departures = 0u64;
    let mut open_at_end = 0u64;
    for k in 0..shards {
        let path = journal_shard_path(&base, k);
        let contents = read_journal(&path).expect("journal reads");
        assert!(contents.torn.is_none(), "graceful drain must seal cleanly");
        let s = replay_events(&contents.events).expect("journal replays");
        placements += s.placements;
        departures += s.departures;
        open_at_end += s.open_at_end;
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(placements, summary.served);
    assert_eq!(departures, summary.departed);
    assert_eq!(open_at_end, 1);

    // The summary serializes to one JSON line with the ledger fields.
    let json = summary.to_json();
    assert!(json.contains("\"total\":4"), "{json}");
}

#[test]
fn vector_daemon_places_arrays_and_types_arity_rejections() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let base = temp_base("vec");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        shards: 2,
        router: Router::LeastLoaded,
        capacity: 1000,
        dims: 3,
        capacities: Some(vec![1000, 800, 1000]),
        admission: AdmissionPolicy {
            queue_capacity: 8,
            queue_timeout: 1_000,
        },
        backpressure: BackpressurePolicy::Block,
        max_sessions: 64,
        read_timeout_ms: 5,
        journal_base: Some(base.clone()),
        fsync: FsyncPolicy::Always,
    };
    let (addr_tx, addr_rx) = mpsc::channel::<(SocketAddr, SocketAddr)>();
    let server = std::thread::spawn(move || -> Result<ServeSummary, String> {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        run_server(cfg, &factory, stop, |h| {
            addr_tx
                .send((h.addr, h.metrics_addr.expect("metrics bound")))
                .unwrap();
        })
    });
    let (addr, maddr) = addr_rx.recv().unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;

    // Vector placements.
    let a1 = send(
        &mut w,
        &mut r,
        r#"{"op":"arrive","id":1,"at":0,"demand":[125,90,220]}"#,
    );
    assert_eq!(get(&a1, "ok"), serde_json::Value::Bool(true), "{a1:?}");
    let a2 = send(
        &mut w,
        &mut r,
        r#"{"op":"arrive","id":2,"at":1,"demand":[240,170,680]}"#,
    );
    assert_eq!(get(&a2, "ok"), serde_json::Value::Bool(true), "{a2:?}");

    // Arity mismatches — short, long, scalar spelling — are typed
    // rejections, never truncation and never a dead daemon.
    for bad in [
        r#"{"op":"arrive","id":3,"at":2,"demand":[125,90]}"#,
        r#"{"op":"arrive","id":3,"at":2,"demand":[125,90,220,1]}"#,
        r#"{"op":"arrive","id":3,"at":2,"size":125}"#,
    ] {
        let v = send(&mut w, &mut r, bad);
        assert_eq!(get(&v, "ok"), serde_json::Value::Bool(false), "{bad}");
        let reason = match get(&v, "reason") {
            serde_json::Value::Str(s) => s,
            other => panic!("no reason in reply to {bad}: {other:?}"),
        };
        assert!(reason.starts_with("demand_arity:"), "{bad} -> {reason}");
    }

    // An arrival too big in one dimension alone (cpu 801 > 800) is a
    // componentwise refusal even though every other dimension fits.
    let big = send(
        &mut w,
        &mut r,
        r#"{"op":"arrive","id":4,"at":3,"demand":[1,801,1]}"#,
    );
    assert_eq!(get(&big, "ok"), serde_json::Value::Bool(false), "{big:?}");

    // The live scrape carries per-dimension utilization/waste gauges.
    let mut m = TcpStream::connect(maddr).unwrap();
    m.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut scrape = String::new();
    m.read_to_string(&mut scrape).unwrap();
    for d in 0..3 {
        assert!(
            scrape.contains(&format!("serve_dim_demand{{dim=\"{d}\"}}")),
            "{scrape}"
        );
        assert!(
            scrape.contains(&format!("serve_dim_waste{{dim=\"{d}\"}}")),
            "{scrape}"
        );
        assert!(
            scrape.contains(&format!("serve_dim_utilization_ppm{{dim=\"{d}\"}}")),
            "{scrape}"
        );
    }
    // Dimension 0 demand is the routed gpu load: 125 + 240.
    assert!(
        scrape.contains("serve_dim_demand{dim=\"0\"} 365"),
        "{scrape}"
    );

    let d1 = send(&mut w, &mut r, r#"{"op":"depart","id":1,"at":9}"#);
    assert_eq!(get(&d1, "ok"), serde_json::Value::Bool(true));

    drop(w);
    drop(r);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let summary = server.join().unwrap().expect("server ran");
    assert!(summary.conserved(), "{summary:?}");
    assert_eq!(summary.served, 2);
    assert_eq!(summary.rejected, 1); // the per-dimension oversize
    assert_eq!(summary.bad_lines, 3); // the three arity rejections
    assert_eq!(summary.departed, 1);

    // The sealed journals are v2 (3-dimensional) and replay to the ledger.
    let mut placements = 0u64;
    let mut departures = 0u64;
    for k in 0..2usize {
        let path = journal_shard_path(&base, k);
        assert_eq!(dbp_obs::journal::peek_journal_dims(&path).unwrap(), 3);
        let contents = dbp_obs::journal::read_journal_dims::<dbp_core::demand::VSize<3>>(&path)
            .expect("vector journal reads");
        assert!(contents.torn.is_none(), "graceful drain must seal cleanly");
        placements += contents
            .events
            .iter()
            .filter(|e| matches!(e, dbp_core::probe::GProbeEvent::ItemPlaced { .. }))
            .count() as u64;
        departures += contents
            .events
            .iter()
            .filter(|e| matches!(e, dbp_core::probe::GProbeEvent::ItemDeparted { .. }))
            .count() as u64;
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(placements, summary.served);
    assert_eq!(departures, summary.departed);
}

#[test]
fn shed_policy_refuses_queue_overflow_and_ledgers_it() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: None,
        shards: 1,
        router: Router::HashByItem,
        capacity: 1_000_000,
        dims: 1,
        capacities: None,
        // Tiny event-time budget: arrivals stale by ≥ 2 ticks are shed.
        admission: AdmissionPolicy {
            queue_capacity: 4,
            queue_timeout: 2,
        },
        backpressure: BackpressurePolicy::Shed,
        max_sessions: 8,
        read_timeout_ms: 5,
        journal_base: None,
        fsync: FsyncPolicy::Never,
    };
    let (addr_tx, addr_rx) = mpsc::channel::<SocketAddr>();
    let server = std::thread::spawn(move || {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        run_server(cfg, &factory, stop, |h| addr_tx.send(h.addr).unwrap())
    });
    let addr = addr_rx.recv().unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;

    // Advance the shard horizon to 100, then offer a stale arrival: the
    // event-time timeout (satellite semantics: wait == timeout drops).
    let fresh = send(
        &mut w,
        &mut r,
        r#"{"op":"arrive","id":1,"at":100,"size":5}"#,
    );
    assert_eq!(get(&fresh, "ok"), serde_json::Value::Bool(true));
    let stale = send(&mut w, &mut r, r#"{"op":"arrive","id":2,"at":98,"size":5}"#);
    assert_eq!(get(&stale, "ok"), serde_json::Value::Bool(false));
    assert_eq!(
        get(&stale, "reason"),
        serde_json::Value::Str("queue_timeout".to_string())
    );

    // Session-table cap: 8 live sessions max.
    let mut table_full = 0;
    for i in 10..30u64 {
        let v = send(
            &mut w,
            &mut r,
            &format!(r#"{{"op":"arrive","id":{i},"at":100,"size":5}}"#),
        );
        if get(&v, "reason") == serde_json::Value::Str("session table full".to_string()) {
            table_full += 1;
        }
    }
    assert!(table_full > 0, "the session table must be bounded");

    drop(w);
    drop(r);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let summary = server.join().unwrap().expect("server ran");
    assert!(summary.conserved(), "{summary:?}");
    assert_eq!(summary.dropped_timeout, 1);
    assert_eq!(summary.dropped_table_full, table_full);
    assert_eq!(
        summary.served as usize,
        summary.shards[0].in_flight as usize
    );
}

#[test]
fn a_journal_that_cannot_open_fails_before_listening() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    // The journal base's parent is a regular file, so no shard WAL can be
    // created under it.
    let file = temp_base("not-a-dir");
    std::fs::write(&file, b"a regular file").unwrap();
    let mut cfg = ServeConfig::local(2, 100);
    cfg.journal_base = Some(file.join("x.wal"));
    let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
    let mut ready = false;
    let got = run_server(cfg, &factory, stop, |_| ready = true);
    std::fs::remove_file(&file).ok();
    let err = got.expect_err("an unopenable journal is an error");
    assert!(err.starts_with("open journal "), "{err}");
    assert!(!ready, "on_ready must not fire");
}

#[test]
fn an_overlong_line_is_refused_and_the_connection_keeps_serving() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let mut cfg = ServeConfig::local(1, 100);
    cfg.metrics_addr = None;
    cfg.read_timeout_ms = 5;
    let (addr_tx, addr_rx) = mpsc::channel::<SocketAddr>();
    let server = std::thread::spawn(move || {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        run_server(cfg, &factory, stop, |h| addr_tx.send(h.addr).unwrap())
    });
    let addr = addr_rx.recv().unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;

    // 1 MiB without a newline, then its newline and a ping: one refusal
    // for the long line, then the pong.
    let long = send(&mut w, &mut r, &"x".repeat(1 << 20));
    assert_eq!(get(&long, "ok"), serde_json::Value::Bool(false), "{long:?}");
    assert_eq!(
        get(&long, "reason"),
        serde_json::Value::Str("line longer than 65536 bytes".to_string())
    );
    let pong = send(&mut w, &mut r, r#"{"op":"ping","id":5}"#);
    assert_eq!(get(&pong, "ok"), serde_json::Value::Bool(true), "{pong:?}");
    assert_eq!(get(&pong, "id"), serde_json::Value::UInt(5), "{pong:?}");
    let a = send(&mut w, &mut r, r#"{"op":"arrive","id":1,"at":0,"size":5}"#);
    assert_eq!(get(&a, "ok"), serde_json::Value::Bool(true), "{a:?}");

    drop(w);
    drop(r);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let summary = server.join().unwrap().expect("server ran");
    assert!(summary.conserved(), "{summary:?}");
    assert_eq!(summary.bad_lines, 1);
    assert_eq!(summary.total, 1);
    assert_eq!(summary.served, 1);
}
