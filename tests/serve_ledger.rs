//! The live daemon's ledger over loopback: sessions placed and departed
//! through `dbp_serve::run_server`, hostile lines refused without taking
//! the daemon down, and a graceful drain whose conserved ledger
//! (`served + dropped + lost == total`) the sealed shard journals replay
//! to exactly.

use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_cluster::router::Router;
use dbp_core::algorithms::FirstFit;
use dbp_core::packer::SelectorFactory;
use dbp_obs::journal::{read_journal, FsyncPolicy};
use dbp_obs::replay::replay_events;
use dbp_serve::{journal_shard_path, run_server, BackpressurePolicy, ServeConfig, ServeSummary};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// One client connection speaking the NDJSON protocol.
struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let w = TcpStream::connect(addr).expect("daemon accepts");
        let r = BufReader::new(w.try_clone().unwrap());
        Client { w, r }
    }

    /// Send one line and return the reply's `ok` field and the reply.
    fn send(&mut self, line: &str) -> (bool, Value) {
        self.w.write_all(line.as_bytes()).unwrap();
        self.w.write_all(b"\n").unwrap();
        let mut reply = String::new();
        self.r.read_line(&mut reply).expect("daemon replies");
        let v: Value = serde_json::from_str(reply.trim()).expect("reply is JSON");
        let ok = v.get("ok").cloned() == Some(Value::Bool(true));
        (ok, v)
    }
}

#[test]
fn serve_ledger_survives_hostile_lines_and_journals_replay_to_it() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let mut base = std::env::temp_dir();
    base.push(format!("dbp-serve-ledger-{}", std::process::id()));
    let shards = 2usize;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: None,
        shards,
        router: Router::HashByItem,
        capacity: 100,
        dims: 1,
        capacities: None,
        admission: AdmissionPolicy {
            queue_capacity: 16,
            queue_timeout: 1_000,
        },
        backpressure: BackpressurePolicy::Block,
        max_sessions: 64,
        read_timeout_ms: 5,
        journal_base: Some(base.clone()),
        fsync: FsyncPolicy::Never,
    };
    let (addr_tx, addr_rx) = mpsc::channel::<SocketAddr>();
    let server = std::thread::spawn(move || -> Result<ServeSummary, String> {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        run_server(cfg, &factory, stop, |h| addr_tx.send(h.addr).unwrap())
    });
    let addr = addr_rx.recv().unwrap();
    let mut c = Client::connect(addr);

    // Eight sessions placed; the even ids depart again.
    for id in 1..=8u64 {
        let (ok, v) = c.send(&format!(
            r#"{{"op":"arrive","id":{id},"at":{id},"size":{}}}"#,
            10 + 7 * id
        ));
        assert!(ok, "arrive {id}: {v:?}");
    }
    for id in (2..=8u64).step_by(2) {
        let (ok, v) = c.send(&format!(r#"{{"op":"depart","id":{id},"at":{}}}"#, 20 + id));
        assert!(ok, "depart {id}: {v:?}");
    }
    // Refused inside the pipeline: oversized for capacity 100.
    let (ok, _) = c.send(r#"{"op":"arrive","id":9,"at":30,"size":101}"#);
    assert!(!ok);

    // Hostile lines are refused, and the daemon keeps answering on the
    // same connection and on a new one.
    let (ok, _) = c.send("not json");
    assert!(!ok);
    let (ok, v) = c.send(&"[".repeat(20_000));
    assert!(!ok, "{v:?}");
    let reason = v.get("reason").and_then(|r| r.as_str()).unwrap_or_default();
    assert!(reason.contains("bad json"), "{v:?}");
    let (ok, v) = c.send(r#"{"op":"ping","id":77}"#);
    assert!(ok, "{v:?}");
    let mut c2 = Client::connect(addr);
    let (ok, v) = c2.send(r#"{"op":"arrive","id":10,"at":40,"size":30}"#);
    assert!(ok, "{v:?}");
    let (ok, v) = c2.send(r#"{"op":"depart","id":1,"at":41}"#);
    assert!(ok, "{v:?}");

    // Graceful drain.
    drop(c);
    drop(c2);
    stop.store(true, Ordering::SeqCst);
    let summary = server.join().unwrap().expect("server ran");
    assert_eq!(
        summary.served + summary.dropped + summary.lost,
        summary.total,
        "{summary:?}"
    );
    assert!(summary.conserved());
    assert_eq!(summary.total, 10); // ids 1..=8, oversized 9, and 10
    assert_eq!(summary.served, 9);
    assert_eq!(summary.dropped, 1);
    assert_eq!(summary.lost, 0);
    assert_eq!(summary.departed, 5);
    assert_eq!(summary.bad_lines, 2);
    let in_flight: u64 = summary.shards.iter().map(|s| s.in_flight).sum();
    assert_eq!(in_flight, 4); // ids 3, 5, 7 and 10

    // The sealed shard journals replay, instance-free, to that ledger.
    let (mut placements, mut departures, mut open_at_end) = (0, 0, 0);
    for k in 0..shards {
        let path = journal_shard_path(&base, k);
        let contents = read_journal(&path).expect("journal reads");
        assert!(contents.torn.is_none(), "graceful drain seals shard {k}");
        let s = replay_events(&contents.events).expect("journal replays");
        placements += s.placements;
        departures += s.departures;
        open_at_end += s.open_at_end;
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(placements, summary.served);
    assert_eq!(departures, summary.departed);
    let open_bins: u64 = summary.shards.iter().map(|s| s.open_bins).sum();
    assert!(open_bins > 0);
    assert_eq!(open_at_end, open_bins);
}
