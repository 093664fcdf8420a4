//! The live-dispatcher phases: the `dbp serve` daemon runs in-process on
//! loopback through [`dbp_serve::run_server`] and a closed-loop client
//! drives it over TCP, exactly as an external client would.
//!
//! The daemon is configured like `dbp serve --shards 2 --router
//! least-loaded` over indexed First Fit. The benchmark adds no tracing
//! inside it: per-layer times come from replaying the same requests
//! through the same public functions (`parse_line_dims`, `route_one_dims`,
//! `GShardPipeline::handle`, `Reply::to_line`) in this process, and the
//! rest of the round trip is reported as the transport residual.

use dbp_cloudsim::AdmissionPolicy;
use dbp_cluster::vector::{
    apply_route_dims, route_one_dims, unapply_route_dims, zero_loads, DimLoads,
};
use dbp_cluster::Router;
use dbp_core::algorithms::IndexedFirstFit;
use dbp_core::item::Size;
use dbp_core::packer::SelectorFactory;
use dbp_core::span::SpanRecorder;
use dbp_obs::journal::{read_journal, FsyncPolicy, JournalWriter};
use dbp_obs::metrics::Histogram;
use dbp_obs::replay::replay_events;
use dbp_obs::span::{StageAggregator, StageBreakdown};
use dbp_serve::{
    journal_shard_path, parse_line_dims, run_server, BackpressurePolicy, Outcome, Reply, Request,
    ServeConfig, ServeSummary, ShardPipeline,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::inputs::{Stream, CAPACITY};

/// Shard pipelines behind the daemon's front door.
const SHARDS: usize = 2;

const ROUTER: Router = Router::LeastLoaded;

/// Requests each durable connection keeps in flight.
const DURABLE_WINDOW: usize = 16;

/// The daemon's admission policy. The event-time timeout is off: the two
/// durable connections share each shard's event-time horizon, so a finite
/// timeout would shed whichever connection the scheduler let fall behind,
/// and the benchmark's workloads are ones on which no request fails.
const ADMISSION: AdmissionPolicy = AdmissionPolicy {
    queue_capacity: 64,
    queue_timeout: u64::MAX,
};

/// Span names of the serve layers replayed in-process.
pub mod layer {
    /// `parse_line_dims`: NDJSON decode and validation.
    pub const PARSE: &str = "parse";
    /// `route_one_dims` + `apply_route_dims`: the least-loaded front door.
    pub const ROUTE: &str = dbp_core::span::stage::ROUTE;
    /// `GShardPipeline::handle` on an arrival: admission, select, place.
    pub const SHARD_ARRIVE: &str = "shard_arrive";
    /// `GShardPipeline::handle` on a departure.
    pub const SHARD_DEPART: &str = "shard_depart";
    /// `Reply::to_line`: reply encoding.
    pub const ENCODE: &str = "encode";
}

/// Indexed First Fit, the selector engine every phase of the benchmark
/// runs (decision-identical to the naive First Fit).
fn factory() -> SelectorFactory {
    SelectorFactory::new("FF", || Box::new(IndexedFirstFit::new()))
}

/// The daemon's front door and shard pipelines, modelled in-process: the
/// same routing fold (undone on refusal), the same pipelines, the same
/// reply for every outcome. Driven with one request at a time it predicts
/// every reply of a single-connection run exactly.
pub struct Reference {
    loads: DimLoads,
    sessions: HashMap<u64, (usize, u64)>,
    pipes: Vec<ShardPipeline>,
}

impl Reference {
    /// A fresh model of a just-started daemon.
    pub fn new() -> Reference {
        let factory = factory();
        Reference {
            loads: zero_loads(SHARDS, 1),
            sessions: HashMap::new(),
            pipes: (0..SHARDS)
                .map(|_| ShardPipeline::new(Size(CAPACITY), factory.build(), ADMISSION))
                .collect(),
        }
    }

    /// Serve one request, recording the route and shard layers on `spans`.
    pub fn serve<R: SpanRecorder>(&mut self, req: &Request, spans: &mut R) -> Reply {
        match *req {
            Request::Arrive { id, demand, .. } => {
                spans.enter(layer::ROUTE);
                let shard = route_one_dims(ROUTER, id, &demand[..1], &self.loads);
                apply_route_dims(&mut self.loads, shard, &demand[..1]);
                spans.exit();
                self.sessions.insert(id, (shard, demand[0]));
                spans.enter(layer::SHARD_ARRIVE);
                let outcome = self.pipes[shard].handle(req);
                spans.exit();
                let reply = reply_for(shard, id, outcome);
                if !reply.ok {
                    self.sessions.remove(&id);
                    unapply_route_dims(&mut self.loads, shard, &demand[..1]);
                }
                reply
            }
            Request::Depart { id, .. } => {
                let Some((shard, size)) = self.sessions.remove(&id) else {
                    return Reply::refused(id, format!("unknown session id {id}"));
                };
                unapply_route_dims(&mut self.loads, shard, &[size]);
                spans.enter(layer::SHARD_DEPART);
                let outcome = self.pipes[shard].handle(req);
                spans.exit();
                reply_for(shard, id, outcome)
            }
            Request::Ping { id } => Reply::ok(id, None),
        }
    }
}

/// The daemon's reply for a pipeline outcome.
fn reply_for(shard: usize, id: u64, outcome: Outcome) -> Reply {
    match outcome {
        Outcome::Placed { bin } => Reply::placed(id, shard, bin.0 as u64),
        Outcome::Departed | Outcome::Pong => Reply::ok(id, Some(shard)),
        Outcome::Dropped { reason } => Reply::refused(id, reason.name()),
        Outcome::Rejected { reason } => Reply::refused(id, reason),
    }
}

/// Run a daemon for the duration of `client`, then drain it. `journal`
/// turns on per-shard WALs with `--fsync always`. Returns the client's
/// result, the drained ledger and when the daemon thread was spawned.
fn with_daemon<T>(
    journal: Option<&Path>,
    client: impl FnOnce(SocketAddr) -> T,
) -> Result<(T, ServeSummary, Instant), String> {
    // run_server polls a `'static` flag; one small leak per daemon start.
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: None,
        shards: SHARDS,
        router: ROUTER,
        capacity: CAPACITY,
        dims: 1,
        capacities: None,
        admission: ADMISSION,
        backpressure: BackpressurePolicy::Block,
        max_sessions: 65_536,
        read_timeout_ms: 25,
        journal_base: journal.map(Path::to_path_buf),
        fsync: FsyncPolicy::Always,
    };
    let factory = factory();
    std::thread::scope(|s| {
        let (ready_tx, ready_rx) = mpsc::channel();
        let spawned = Instant::now();
        let daemon = s.spawn(|| {
            run_server(cfg, &factory, stop, move |h| {
                let _ = ready_tx.send(h.addr);
            })
        });
        let out = ready_rx.recv().ok().map(client);
        stop.store(true, Ordering::SeqCst);
        let summary = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??;
        match out {
            Some(out) => Ok((out, summary, spawned)),
            None => Err("daemon exited before listening".to_string()),
        }
    })
}

/// Replies per block of the round-trip phase (about 15 ms of replies).
const RTT_BLOCK: usize = 1_000;

/// A run of consecutive timed round trips of one daemon.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Replies after the block's first over the time from its first reply
    /// to its last.
    pub req_per_s: f64,
    /// Nearest-rank median round trip of the block's replies, nanoseconds.
    pub p50_ns: u64,
}

/// Cut the timed replies, in completion order, into blocks of `size` (a
/// partial last block is dropped).
fn cut_blocks(replies: &[(Instant, u64)], size: usize) -> Vec<Block> {
    replies
        .chunks_exact(size)
        .map(|block| {
            let span = block[size - 1].0 - block[0].0;
            let mut rtts: Vec<u64> = block.iter().map(|&(_, rtt)| rtt).collect();
            rtts.sort_unstable();
            Block {
                req_per_s: (size - 1) as f64 / span.as_secs_f64(),
                p50_ns: rtts[(size * 50).div_ceil(100) - 1],
            }
        })
        .collect()
}

/// What one client connection measured.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Round-trip time of every timed request, nanoseconds, write to reply.
    pub rtt: Histogram,
    /// Completion time and round trip of every timed request, in
    /// completion order (round-trip phase only).
    replies: Vec<(Instant, u64)>,
    /// The timed replies in blocks of consecutive completions (round-trip
    /// phase only).
    pub blocks: Vec<Block>,
    /// Time spent in `write_all` per timed request (traced runs only).
    pub write: Histogram,
    /// Requests answered, warm-up included.
    pub answered: usize,
    /// Replies that differ from the expected reply.
    pub mismatches: usize,
    /// Wall time of the timed window.
    pub timed: Duration,
    /// FNV-1a digest of every reply line, warm-up included.
    pub digest: u64,
    /// When the first reply arrived.
    pub first_reply: Option<Instant>,
}

impl ConnRun {
    /// Fold another measurement into this one: samples, blocks and counts
    /// add, timed windows add, digests chain, the earlier first reply
    /// stays.
    pub fn absorb(&mut self, other: &ConnRun) {
        self.rtt.merge(&other.rtt);
        self.blocks.extend_from_slice(&other.blocks);
        self.write.merge(&other.write);
        self.answered += other.answered;
        self.mismatches += other.mismatches;
        self.timed += other.timed;
        self.digest = fnv1a(self.digest, &other.digest.to_le_bytes());
        self.first_reply = self.first_reply.into_iter().chain(other.first_reply).min();
    }
}

/// The phase clock: requests sent before `warm` has passed are untimed,
/// and none is sent once `total` has passed.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Untimed warm-up from the phase start.
    pub warm: Duration,
    /// Whole phase, warm-up included.
    pub total: Duration,
}

/// Drive one connection with up to `window` requests in flight until the
/// stream ends or the phase clock runs out.
fn drive(
    addr: SocketAddr,
    stream: &Stream,
    window: usize,
    clock: Window,
    exact: bool,
    record_writes: bool,
) -> std::io::Result<ConnRun> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut replies = BufReader::new(conn.try_clone()?);
    let start = Instant::now();
    let warm_end = start + clock.warm;
    let end = start + clock.total;
    let mut run = ConnRun {
        digest: FNV_OFFSET,
        ..ConnRun::default()
    };
    let mut sent_at: Vec<Instant> = Vec::with_capacity(window);
    let mut sent = 0usize;
    let mut timed_from: Option<Instant> = None;
    let mut line = Vec::with_capacity(128);
    while run.answered < sent || (sent < stream.requests.len() && Instant::now() < end) {
        while sent < stream.requests.len() && sent - run.answered < window && Instant::now() < end {
            let t = Instant::now();
            conn.write_all(stream.requests[sent].as_bytes())?;
            if record_writes && t >= warm_end {
                run.write.observe(t.elapsed().as_nanos() as u64);
            }
            if sent_at.len() < window {
                sent_at.push(t);
            } else {
                sent_at[sent % window] = t;
            }
            sent += 1;
        }
        if run.answered == sent {
            break; // the clock ran out between the loop test and the send
        }
        line.clear();
        if replies.read_until(b'\n', &mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let done = Instant::now();
        run.first_reply.get_or_insert(done);
        let reply = line.strip_suffix(b"\n").unwrap_or(&line);
        let want = stream.expected[run.answered].as_bytes();
        let matches = if exact {
            reply == want
        } else {
            reply.starts_with(want)
        };
        if !matches {
            run.mismatches += 1;
        }
        run.digest = fnv1a(run.digest, &line);
        let issued = sent_at[run.answered % window];
        if issued >= warm_end {
            timed_from.get_or_insert(issued);
            let rtt = (done - issued).as_nanos() as u64;
            run.rtt.observe(rtt);
            run.replies.push((done, rtt));
            run.timed = done - timed_from.unwrap_or(issued);
        }
        run.answered += 1;
    }
    Ok(run)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The round-trip phase: one connection, one request in flight, every
/// reply checked byte for byte against the reference. With `trace`, the
/// client also times its own writes. Returns the daemon's start-up last:
/// from spawning the daemon to the first reply, so binding and shard start
/// count.
pub fn run_rtt(
    stream: &Stream,
    clock: Window,
    trace: bool,
) -> Result<(ConnRun, ServeSummary, Duration), String> {
    let (run, summary, spawned) =
        with_daemon(None, |addr| drive(addr, stream, 1, clock, true, trace))?;
    let mut run = run.map_err(|e| format!("round-trip client: {e}"))?;
    run.blocks = cut_blocks(&std::mem::take(&mut run.replies), RTT_BLOCK);
    let start_up = run.first_reply.map_or(Duration::ZERO, |t| t - spawned);
    Ok((run, summary, start_up))
}

/// What the durable phase measured and verified.
#[derive(Debug)]
pub struct DurableRun {
    /// Both connections' measurements merged; the timed window is the
    /// longer of the two, since they ran concurrently.
    pub conn: ConnRun,
    /// The daemon's drained ledger.
    pub summary: ServeSummary,
    /// Placements replayed from the shard WALs.
    pub wal_placements: u64,
    /// Departures replayed from the shard WALs.
    pub wal_departures: u64,
    /// `journal_append` / `journal_fsync` spans from re-appending the
    /// recovered WAL (traced runs only).
    pub reappend: Option<StageBreakdown>,
}

/// The durable phase: `--journal` with `--fsync always`, two connections
/// with [`DURABLE_WINDOW`] requests in flight each. Afterwards every shard
/// WAL is read back and replayed; with `trace`, shard 0's records are also
/// re-appended to time the WAL layers.
pub fn run_durable(
    streams: &[Stream; 2],
    clock: Window,
    dir: &Path,
    trace: bool,
) -> Result<DurableRun, String> {
    let base = dir.join("serve.wal");
    let (conns, summary, _) = with_daemon(Some(&base), |addr| {
        std::thread::scope(|s| {
            let second = s.spawn(|| drive(addr, &streams[1], DURABLE_WINDOW, clock, false, false));
            let first = drive(addr, &streams[0], DURABLE_WINDOW, clock, false, false);
            let second = second
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("client thread panicked")));
            [first, second]
        })
    })?;
    let [first, second] = conns.map(|c| c.map_err(|e| format!("durable client: {e}")));
    let (mut conn, second) = (first?, second?);
    let window = conn.timed.max(second.timed);
    conn.absorb(&second);
    conn.timed = window;

    let mut run = DurableRun {
        conn,
        summary,
        wal_placements: 0,
        wal_departures: 0,
        reappend: None,
    };
    for shard in 0..SHARDS {
        let path = journal_shard_path(&base, shard);
        let wal = read_journal(&path)?;
        let replayed = replay_events(&wal.events)?;
        run.wal_placements += replayed.placements;
        run.wal_departures += replayed.departures;
        if trace && shard == 0 {
            run.reappend = Some(reappend(&wal.events, &dir.join("reappend.wal"))?);
        }
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(run)
}

/// Records re-appended to time the WAL's append and fsync layers.
const REAPPEND_RECORDS: usize = 2_000;

/// Re-append the first recovered WAL records through a fresh writer with
/// the daemon's policy (`--fsync always`), with spans on the writer.
fn reappend(events: &[dbp_core::probe::ProbeEvent], path: &Path) -> Result<StageBreakdown, String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut writer = JournalWriter::create(path, FsyncPolicy::Always).map_err(io)?;
    writer.set_spans(StageAggregator::new(0));
    for event in events.iter().take(REAPPEND_RECORDS) {
        writer.append(event).map_err(io)?;
    }
    let spans = writer.take_spans().expect("spans were attached above");
    writer.finish().map_err(io)?;
    std::fs::remove_file(path).map_err(io)?;
    Ok(spans.finish())
}

/// Replay the first `n` requests of the round-trip stream through the
/// serve layers in-process, one span per layer call. Returns the layer
/// breakdown and how many replies differ from the expected ones.
pub fn replay_layers(stream: &Stream, n: usize) -> Result<(StageBreakdown, usize), String> {
    let mut spans = StageAggregator::new(0);
    let mut reference = Reference::new();
    let mut mismatches = 0;
    for (line, want) in stream.requests.iter().zip(&stream.expected).take(n) {
        spans.enter(layer::PARSE);
        let req = parse_line_dims(line.trim_end(), 1);
        spans.exit();
        let reply = reference.serve(&req?, &mut spans);
        spans.enter(layer::ENCODE);
        let out = reply.to_line();
        spans.exit();
        if &out != want {
            mismatches += 1;
        }
    }
    Ok((spans.finish(), mismatches))
}
