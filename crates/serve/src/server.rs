//! The live dispatcher daemon: TCP accept loop, thread-per-connection
//! serving over shared [`ShardPipeline`]s, a Prometheus `/metrics`
//! endpoint, and the graceful drain protocol.
//!
//! ## Threading model
//!
//! ```text
//! accept loop ──spawns──▶ connection threads (read, parse, route, serve, reply)
//!                              │ lock the routed shard
//!                              ▼
//!                         shards (a mutex'd ShardPipeline + journal each)
//! metrics loop ──────────  serves GET /metrics from shared atomics
//! ```
//!
//! A request is served start to finish on the thread that read it: the
//! connection routes it at the front door, locks the routed shard, runs
//! the pipeline and writes the reply. No request crosses a thread.
//!
//! Everything is bounded: a request line holds at most 64 KiB, a shard
//! admits at most `admission.queue_capacity` connections waiting on or
//! holding it (under [`BackpressurePolicy::Shed`]), the session table at
//! most `max_sessions` live sessions, and each shard engine's memory is
//! O(live sessions + open bins) — nothing in the hot path grows with total
//! stream length except the append-only journal on disk.
//!
//! ## Backpressure
//!
//! Each shard counts the connections waiting on or holding its lock; with
//! one request in flight per connection, that count is the shard's queue.
//! A [`BackpressurePolicy::Block`] arrival waits its turn (TCP
//! backpressure reaches the client); under [`BackpressurePolicy::Shed`]
//! an arrival that finds `queue_capacity` there is refused `queue_full`,
//! accounted in the ledger. Departures are **never** shed — dropping a
//! release would leak capacity — so they always wait.
//!
//! ## Drain protocol
//!
//! On SIGINT/SIGTERM (or [`crate::shutdown::request_shutdown`]): stop
//! accepting connections → connections finish the request in hand and
//! exit at their next read-timeout poll → the shards, in index order, seal
//! their journals (flush + fsync + length frame) → the daemon emits one
//! final [`ServeSummary`] whose ledger conserves `served + dropped + lost
//! == total`. Every shard, journal included, is built before the daemon
//! reports ready, so an unopenable journal fails [`run_server`] before it
//! listens.

use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_cluster::router::Router;
use dbp_cluster::vector::{
    apply_route_dims, route_one_dims, unapply_route_dims, zero_loads, DimLoads,
};
use dbp_core::algorithms::Rule;
use dbp_core::demand::{Demand, VSize};
use dbp_core::item::Size;
use dbp_core::packer::SelectorFactory;
use dbp_core::probe::DropReason;
use dbp_obs::journal::{FsyncPolicy, JournalProbe};
use dbp_obs::metrics::MetricsRegistry;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::protocol::{parse_line_dims, Reply, Request, MAX_DIMS};
use crate::shard::{GShardPipeline, Outcome, ServeProbe, ShardLedger, ShardPipeline};

/// What an arrival does when its shard's queue is full, that is when
/// `queue_capacity` connections are already waiting on or holding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait for the shard, however many connections are ahead.
    Block,
    /// Refuse the arrival with a ledgered `queue_full` drop.
    Shed,
}

impl BackpressurePolicy {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::Shed => "shed",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Result<BackpressurePolicy, String> {
        match s {
            "block" => Ok(BackpressurePolicy::Block),
            "shed" => Ok(BackpressurePolicy::Shed),
            other => Err(format!(
                "unknown backpressure policy {other:?} (block|shed)"
            )),
        }
    }
}

/// Daemon configuration. See module docs for the semantics of each knob.
pub struct ServeConfig {
    /// Ingest listener address, e.g. `127.0.0.1:7878` (`:0` for an
    /// ephemeral port, reported by [`ServeHandle::addr`]).
    pub addr: String,
    /// `/metrics` listener address, or `None` for no metrics endpoint.
    pub metrics_addr: Option<String>,
    /// Number of shard pipelines.
    pub shards: usize,
    /// Online routing policy.
    pub router: Router,
    /// Bin capacity of every shard (dimension 0; see `capacities`).
    pub capacity: u64,
    /// Demand dimensionality the daemon runs at (`1..=MAX_DIMS`). Scalar
    /// clients (`"size":n`) are only accepted at `dims == 1`.
    pub dims: usize,
    /// Per-dimension bin capacities (length must equal `dims`); `None`
    /// splats `capacity` across every dimension.
    pub capacities: Option<Vec<u64>>,
    /// Bounded-queue admission: `queue_capacity` is how many connections
    /// may wait on or hold one shard before [`BackpressurePolicy::Shed`]
    /// refuses an arrival, `queue_timeout` is the event-time shed threshold.
    pub admission: AdmissionPolicy,
    /// Full-queue behavior for arrivals.
    pub backpressure: BackpressurePolicy,
    /// Maximum live sessions across all shards (bounded session table).
    pub max_sessions: usize,
    /// Per-connection read timeout; also the shutdown poll cadence.
    pub read_timeout_ms: u64,
    /// Journal path base: shard `k` writes `{base}.shard{k}`.
    pub journal_base: Option<PathBuf>,
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
}

impl ServeConfig {
    /// A local test/default configuration on ephemeral ports.
    pub fn local(shards: usize, capacity: u64) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: Some("127.0.0.1:0".to_string()),
            shards,
            router: Router::HashByItem,
            capacity,
            dims: 1,
            capacities: None,
            admission: AdmissionPolicy::default(),
            backpressure: BackpressurePolicy::Block,
            max_sessions: 65_536,
            read_timeout_ms: 25,
            journal_base: None,
            fsync: FsyncPolicy::Always,
        }
    }

    /// The effective per-dimension capacity vector (`capacities`, or
    /// `capacity` splatted across `dims`).
    pub fn capacity_vec(&self) -> Vec<u64> {
        match &self.capacities {
            Some(v) => v.clone(),
            None => vec![self.capacity; self.dims],
        }
    }

    /// Reject impossible dims/capacity combinations before any thread or
    /// socket exists.
    fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_DIMS).contains(&self.dims) {
            return Err(format!("dims {} outside 1..={MAX_DIMS}", self.dims));
        }
        let caps = self.capacity_vec();
        if caps.len() != self.dims {
            return Err(format!(
                "demand_arity: {} capacities configured, daemon runs {} dimensions",
                caps.len(),
                self.dims
            ));
        }
        if caps.contains(&0) {
            return Err("bin capacity must be positive in every dimension".to_string());
        }
        Ok(())
    }
}

/// Final per-shard report, embedded in [`ServeSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u64,
    /// Arrivals offered to the pipeline.
    pub offered: u64,
    /// Arrivals placed.
    pub placed: u64,
    /// Event-time queue-timeout sheds.
    pub dropped_timeout: u64,
    /// Invalid arrivals refused by the pipeline.
    pub rejected: u64,
    /// Departures applied.
    pub departed: u64,
    /// Arrivals admitted but never processed: always 0, since every
    /// admitted request is served before drain seals the shard.
    pub lost: u64,
    /// Sessions still in flight at drain (served, not lost).
    pub in_flight: u64,
    /// Bins open at drain.
    pub open_bins: u64,
    /// Bins opened over the shard's lifetime.
    pub bins_opened: u64,
    /// Journal seal error, if the shard's journal could not be flushed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

/// The daemon's final conserved ledger, emitted at drain.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// Every arrival that reached the front door (parsed `arrive` lines).
    pub total: u64,
    /// Arrivals placed into a bin.
    pub served: u64,
    /// Arrivals refused anywhere: front door or pipeline.
    pub dropped: u64,
    /// Arrivals admitted to a shard but never processed: always 0, since
    /// every admitted request is served before drain seals the shards.
    pub lost: u64,
    /// Departures applied.
    pub departed: u64,
    /// Front-door sheds: shard queue full ([`BackpressurePolicy::Shed`]).
    pub dropped_queue_full: u64,
    /// Front-door sheds: session table full.
    pub dropped_table_full: u64,
    /// Front-door refusals: duplicate live session id.
    pub dropped_duplicate: u64,
    /// Pipeline sheds: event-time queue timeout.
    pub dropped_timeout: u64,
    /// Pipeline refusals: invalid arrivals (oversized, …).
    pub rejected: u64,
    /// Wire lines that failed to parse.
    pub bad_lines: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Peak resident set size, if the platform exposes it.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub peak_rss_bytes: Option<u64>,
    /// Per-shard breakdown.
    pub shards: Vec<ShardReport>,
}

impl ServeSummary {
    /// The drain invariant: `served + dropped + lost == total`.
    pub fn conserved(&self) -> bool {
        self.served + self.dropped + self.lost == self.total
    }

    /// Serialize to one JSON line.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("summary serializes")
    }
}

/// Shared atomic counters backing `/metrics` and the final summary.
#[derive(Debug, Default)]
struct ShardCounters {
    offered: AtomicU64,
    placed: AtomicU64,
    departed: AtomicU64,
    dropped_timeout: AtomicU64,
    rejected: AtomicU64,
    open_bins: AtomicU64,
    in_flight: AtomicU64,
    bins_opened: AtomicU64,
}

/// All live-scrape state.
#[derive(Debug, Default)]
struct ServeMetrics {
    shards: Vec<ShardCounters>,
    queue_full: AtomicU64,
    table_full: AtomicU64,
    duplicate: AtomicU64,
    bad_lines: AtomicU64,
    connections: AtomicU64,
    connections_open: AtomicU64,
    sessions_live: AtomicU64,
}

impl ServeMetrics {
    fn new(shards: usize) -> ServeMetrics {
        ServeMetrics {
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            ..ServeMetrics::default()
        }
    }

    /// Render the Prometheus exposition text.
    fn to_prometheus(&self) -> String {
        let ld = Ordering::Relaxed;
        let mut reg = MetricsRegistry::new();
        reg.counter_add("serve_dropped_queue_full_total", self.queue_full.load(ld));
        reg.counter_add("serve_dropped_table_full_total", self.table_full.load(ld));
        reg.counter_add("serve_dropped_duplicate_total", self.duplicate.load(ld));
        reg.counter_add("serve_bad_lines_total", self.bad_lines.load(ld));
        reg.counter_add("serve_connections_total", self.connections.load(ld));
        reg.gauge_set(
            "serve_connections_open",
            self.connections_open.load(ld) as i64,
        );
        reg.gauge_set("serve_sessions_live", self.sessions_live.load(ld) as i64);
        for (k, c) in self.shards.iter().enumerate() {
            let mut sreg = MetricsRegistry::new();
            sreg.counter_add("serve_shard_offered_total", c.offered.load(ld));
            sreg.counter_add("serve_shard_placed_total", c.placed.load(ld));
            sreg.counter_add("serve_shard_departed_total", c.departed.load(ld));
            sreg.counter_add(
                "serve_shard_dropped_timeout_total",
                c.dropped_timeout.load(ld),
            );
            sreg.counter_add("serve_shard_rejected_total", c.rejected.load(ld));
            sreg.counter_add("serve_shard_bins_opened_total", c.bins_opened.load(ld));
            sreg.gauge_set("serve_shard_open_bins", c.open_bins.load(ld) as i64);
            sreg.gauge_set("serve_shard_in_flight", c.in_flight.load(ld) as i64);
            reg.absorb_labeled(&sreg, "shard", &k.to_string());
        }
        reg.to_prometheus()
    }
}

/// Front-door shared state: the bounded session table and the live
/// per-shard load view the least-loaded router consults.
struct FrontDoor {
    /// external id → (shard, demand) for every live session.
    sessions: HashMap<u64, (usize, [u64; MAX_DIMS])>,
    /// Active routed load per shard **per dimension**, maintained
    /// add-on-route / subtract-on-depart — the fold the batch router proves
    /// consistent. At `dims == 1` this is the scalar load view.
    loads: DimLoads,
}

/// A shard's admission gate: how many connections are waiting on or
/// holding the shard's lock. An arrival under [`BackpressurePolicy::Shed`]
/// that finds `capacity` or more there is refused; every other request
/// passes. The count guards no data (the shard's mutex does), so its
/// updates are `Relaxed`.
struct Gate {
    there: AtomicU64,
    capacity: u64,
}

impl Gate {
    /// Take a place at the shard, or `None` when `shed` is set and the
    /// shard is full.
    fn enter(&self, shed: bool) -> Option<Pass<'_>> {
        let before = self.there.fetch_add(1, Ordering::Relaxed);
        let pass = Pass(&self.there);
        (!shed || before < self.capacity).then_some(pass)
    }
}

/// A connection's place at a [`Gate`], given up on drop.
struct Pass<'a>(&'a AtomicU64);

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One shard: its pipeline, served under the lock by whichever connection
/// holds it, and the gate bounding how many connections queue for it.
struct Shard {
    pipe: Mutex<Box<dyn DynPipeline>>,
    gate: Gate,
}

struct Shared {
    cfg: ServeConfig,
    front: Mutex<FrontDoor>,
    shards: Vec<Shard>,
    metrics: ServeMetrics,
    stop: &'static AtomicBool,
}

impl Shared {
    /// Build every shard (journals opened) and an empty front door.
    fn new(
        cfg: ServeConfig,
        factory: &SelectorFactory,
        stop: &'static AtomicBool,
    ) -> Result<Shared, String> {
        Ok(Shared {
            shards: (0..cfg.shards)
                .map(|k| build_shard(&cfg, factory, k))
                .collect::<Result<_, String>>()?,
            metrics: ServeMetrics::new(cfg.shards),
            front: Mutex::new(FrontDoor {
                sessions: HashMap::new(),
                loads: zero_loads(cfg.shards, cfg.dims),
            }),
            cfg,
            stop,
        })
    }
}

/// Addresses the daemon actually bound (resolves `:0` requests).
#[derive(Debug, Clone)]
pub struct ServeHandle {
    /// Ingest address.
    pub addr: std::net::SocketAddr,
    /// Metrics address, when a metrics listener is up.
    pub metrics_addr: Option<std::net::SocketAddr>,
}

/// Run the daemon until `stop` is raised, then drain and return the final
/// conserved summary. Every shard pipeline is built (journals opened)
/// before `on_ready` fires once with the bound addresses (tests connect
/// through it; the CLI prints them); a shard that cannot be built is an
/// `Err` and `on_ready` never fires.
pub fn run_server(
    cfg: ServeConfig,
    factory: &SelectorFactory,
    stop: &'static AtomicBool,
    on_ready: impl FnOnce(&ServeHandle),
) -> Result<ServeSummary, String> {
    cfg.validate()?;
    assert!(cfg.shards > 0, "a daemon needs at least one shard");
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let metrics_listener = match &cfg.metrics_addr {
        Some(addr) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("set_nonblocking: {e}"))?;
            Some(l)
        }
        None => None,
    };
    let handle = ServeHandle {
        addr: listener.local_addr().map_err(|e| e.to_string())?,
        metrics_addr: match &metrics_listener {
            Some(l) => Some(l.local_addr().map_err(|e| e.to_string())?),
            None => None,
        },
    };

    let shared = Shared::new(cfg, factory, stop)?;
    on_ready(&handle);

    std::thread::scope(|s| -> Result<(), String> {
        // Metrics endpoint.
        if let Some(l) = metrics_listener {
            let shared = &shared;
            s.spawn(move || metrics_loop(l, shared));
        }

        // Accept loop.
        let mut conns = Vec::new();
        while !shared.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    shared
                        .metrics
                        .connections_open
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = &shared;
                    conns.push(s.spawn(move || {
                        handle_connection(stream, shared);
                        shared
                            .metrics
                            .connections_open
                            .fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
        }

        // Drain: connections finish the request in hand and exit at their
        // next read-timeout poll.
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    })?;

    // Every connection has joined: seal the shards in index order.
    let reports = shared
        .shards
        .into_iter()
        .enumerate()
        .map(|(k, shard)| {
            let pipe = shard
                .pipe
                .into_inner()
                .map_err(|_| format!("shard {k} panicked"))?;
            Ok(seal_shard(k, pipe))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let m = &shared.metrics;
    let ld = Ordering::Relaxed;
    let front_drops = m.queue_full.load(ld) + m.table_full.load(ld) + m.duplicate.load(ld);
    let summary = ServeSummary {
        total: reports.iter().map(|r| r.offered).sum::<u64>() + front_drops,
        served: reports.iter().map(|r| r.placed).sum(),
        dropped: front_drops
            + reports
                .iter()
                .map(|r| r.dropped_timeout + r.rejected)
                .sum::<u64>(),
        lost: 0,
        departed: reports.iter().map(|r| r.departed).sum(),
        dropped_queue_full: m.queue_full.load(ld),
        dropped_table_full: m.table_full.load(ld),
        dropped_duplicate: m.duplicate.load(ld),
        dropped_timeout: reports.iter().map(|r| r.dropped_timeout).sum(),
        rejected: reports.iter().map(|r| r.rejected).sum(),
        bad_lines: m.bad_lines.load(ld),
        connections: m.connections.load(ld),
        peak_rss_bytes: dbp_obs::manifest::peak_rss_bytes(),
        shards: reports,
    };
    debug_assert!(summary.conserved(), "drain ledger must conserve");
    Ok(summary)
}

/// The dimension-erased face of [`GShardPipeline`]: exactly what serving a
/// request and draining a shard need. One monomorphization per supported
/// `D` exists behind [`build_pipeline`]'s `match`, chosen once at daemon
/// start — the per-request path pays one vtable hop, never a dims branch.
trait DynPipeline: Send {
    fn handle(&mut self, req: &Request) -> Outcome;
    fn ledger(&self) -> ShardLedger;
    fn open_bins(&self) -> usize;
    fn in_flight(&self) -> usize;
    fn bins_opened(&self) -> usize;
    fn seal(self: Box<Self>) -> Result<(), String>;
}

impl<Sz: dbp_core::demand::Demand> DynPipeline for GShardPipeline<Sz> {
    fn handle(&mut self, req: &Request) -> Outcome {
        GShardPipeline::handle(self, req)
    }
    fn ledger(&self) -> ShardLedger {
        self.ledger
    }
    fn open_bins(&self) -> usize {
        GShardPipeline::open_bins(self)
    }
    fn in_flight(&self) -> usize {
        GShardPipeline::in_flight(self)
    }
    fn bins_opened(&self) -> usize {
        GShardPipeline::bins_opened(self)
    }
    fn seal(self: Box<Self>) -> Result<(), String> {
        GShardPipeline::seal(*self).map(drop)
    }
}

/// Build shard `k`: its journal (`{base}.shard{k}`) opened and its
/// pipeline built for the configured dimensionality.
fn build_shard(cfg: &ServeConfig, factory: &SelectorFactory, k: usize) -> Result<Shard, String> {
    let journal = match &cfg.journal_base {
        Some(base) => {
            let path = journal_shard_path(base, k);
            let j = JournalProbe::create_dims(&path, cfg.fsync, cfg.dims)
                .map_err(|e| format!("open journal {}: {e}", path.display()))?;
            Some(j)
        }
        None => None,
    };
    Ok(Shard {
        pipe: Mutex::new(build_pipeline(cfg, factory, ServeProbe { journal })?),
        gate: Gate {
            there: AtomicU64::new(0),
            capacity: cfg.admission.queue_capacity.max(1) as u64,
        },
    })
}

/// Build the shard pipeline for the configured dimensionality. At
/// `dims == 1` the factory's own builder runs, so the full scalar roster
/// (WF/NF/LF/MI/RF/HFF included) keeps working byte-identically; vector
/// daemons build the factory's rule from the `dbp-core` roster at `D`.
fn build_pipeline(
    cfg: &ServeConfig,
    factory: &SelectorFactory,
    probe: ServeProbe,
) -> Result<Box<dyn DynPipeline>, String> {
    fn vec_pipe<const D: usize>(
        caps: &[u64],
        factory: &SelectorFactory,
        admission: AdmissionPolicy,
        probe: ServeProbe,
    ) -> Result<Box<dyn DynPipeline>, String> {
        let capacity = VSize::<D>::from_components(&caps[..D]).expect("validated capacities");
        let selector = Rule::find(factory.name())
            .and_then(|r| r.build_any::<VSize<D>>(None))
            .ok_or_else(|| {
                format!(
                    "selector {} is scalar-only; vector daemons take FF, BF, MFF(8) or DOM",
                    factory.name()
                )
            })??;
        Ok(Box::new(GShardPipeline::<VSize<D>>::with_probe(
            capacity, selector, admission, probe,
        )))
    }
    let caps = cfg.capacity_vec();
    match cfg.dims {
        1 => Ok(Box::new(ShardPipeline::with_probe(
            Size(caps[0]),
            factory.build(),
            cfg.admission,
            probe,
        ))),
        2 => vec_pipe::<2>(&caps, factory, cfg.admission, probe),
        3 => vec_pipe::<3>(&caps, factory, cfg.admission, probe),
        4 => vec_pipe::<4>(&caps, factory, cfg.admission, probe),
        d => Err(format!("dims {d} outside 1..={MAX_DIMS}")),
    }
}

/// Seal a drained shard's journal and report its ledger; a seal failure
/// rides along in `error`.
fn seal_shard(k: usize, pipe: Box<dyn DynPipeline>) -> ShardReport {
    let ledger = pipe.ledger();
    ShardReport {
        shard: k as u64,
        offered: ledger.offered,
        placed: ledger.placed,
        dropped_timeout: ledger.dropped_timeout,
        rejected: ledger.rejected,
        departed: ledger.departed,
        lost: 0,
        in_flight: pipe.in_flight() as u64,
        open_bins: pipe.open_bins() as u64,
        bins_opened: pipe.bins_opened() as u64,
        error: pipe.seal().err(),
    }
}

/// Per-shard journal path: `{base}.shard{k}` — the same layout `dbp
/// cluster --journal` uses, so `dbp recover` reads both.
pub fn journal_shard_path(base: &std::path::Path, shard: usize) -> PathBuf {
    let mut s = base.as_os_str().to_os_string();
    s.push(format!(".shard{shard}"));
    PathBuf::from(s)
}

fn publish(counters: &ShardCounters, pipe: &dyn DynPipeline, req: &Request, outcome: &Outcome) {
    let ld = Ordering::Relaxed;
    if let Request::Arrive { .. } = req {
        counters.offered.fetch_add(1, ld);
    }
    let tally = match outcome {
        Outcome::Placed { .. } => &counters.placed,
        Outcome::Departed => &counters.departed,
        Outcome::Dropped { .. } => &counters.dropped_timeout,
        Outcome::Rejected { .. } => &counters.rejected,
        Outcome::Pong => return,
    };
    tally.fetch_add(1, ld);
    counters.open_bins.store(pipe.open_bins() as u64, ld);
    counters.in_flight.store(pipe.in_flight() as u64, ld);
    counters.bins_opened.store(pipe.bins_opened() as u64, ld);
}

fn reply_for(shard: usize, req: &Request, outcome: &Outcome) -> Reply {
    let id = req.id();
    match outcome {
        Outcome::Placed { bin } => Reply::placed(id, shard, bin.0 as u64),
        Outcome::Departed | Outcome::Pong => Reply::ok(id, Some(shard)),
        Outcome::Dropped { reason } => Reply::refused(id, reason.name()),
        Outcome::Rejected { reason } => Reply::refused(id, reason.clone()),
    }
}

/// The longest request line a connection may send, newline excluded. A
/// longer line is refused as a bad line once the cap is passed, and the
/// rest of it is discarded through the next newline.
const MAX_LINE: usize = 64 * 1024;

/// One connection: read NDJSON lines, serve each in turn, reply in order.
/// Each byte read is scanned for a newline once, and the line and reply
/// buffers are reused from request to request.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    let _ = stream.set_nodelay(true);
    // `buf` holds the unserved bytes read so far; `buf[..scanned]` has no
    // newline. `skipping` discards the tail of a refused overlong line.
    let mut buf: Vec<u8> = Vec::new();
    let mut scanned = 0;
    let mut skipping = false;
    let mut out: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut send = |reply: &Reply| {
        out.clear();
        serde_json::to_writer(&mut out, reply).expect("reply serializes");
        out.push(b'\n');
        (&stream).write_all(&out).is_ok()
    };
    loop {
        // Serve every complete line already buffered.
        let mut start = 0;
        while let Some(n) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let line = &buf[start..scanned + n];
            start = scanned + n + 1;
            scanned = start;
            if std::mem::take(&mut skipping) {
                continue;
            }
            if let Some(reply) = line_reply(line, shared) {
                if !send(&reply) {
                    return;
                }
            }
        }
        buf.drain(..start);
        if !skipping && buf.len() > MAX_LINE {
            let reply = line_reply(&buf, shared).expect("an overlong line is refused");
            if !send(&reply) {
                return;
            }
            skipping = true;
        }
        if skipping {
            buf.clear();
        }
        scanned = buf.len();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match (&stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// The reply to one wire line (newline stripped), or `None` for a blank
/// line. Lines over [`MAX_LINE`] bytes or not UTF-8 are bad lines.
fn line_reply(line: &[u8], shared: &Shared) -> Option<Reply> {
    let line = if line.len() > MAX_LINE {
        Err(format!("line longer than {MAX_LINE} bytes"))
    } else {
        std::str::from_utf8(line).map_err(|e| format!("bad json: {e}"))
    };
    match line.map(str::trim) {
        Ok("") => None,
        Ok(line) => Some(serve_line(line, shared)),
        Err(e) => {
            shared.metrics.bad_lines.fetch_add(1, Ordering::Relaxed);
            Some(Reply::refused(0, e))
        }
    }
}

/// Parse, route and serve one request line, returning the reply to write.
fn serve_line(line: &str, shared: &Shared) -> Reply {
    let req = match parse_line_dims(line, shared.cfg.dims) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.bad_lines.fetch_add(1, Ordering::Relaxed);
            return Reply::refused(0, e);
        }
    };
    match req {
        Request::Ping { id } => Reply::ok(id, None),
        Request::Arrive { id, demand, .. } => {
            let dims = shared.cfg.dims;
            // Front door: bounded session table + online routing.
            let shard = {
                let mut front = shared.front.lock().unwrap();
                if front.sessions.contains_key(&id) {
                    shared.metrics.duplicate.fetch_add(1, Ordering::Relaxed);
                    return Reply::refused(id, format!("duplicate session id {id}"));
                }
                if front.sessions.len() >= shared.cfg.max_sessions {
                    shared.metrics.table_full.fetch_add(1, Ordering::Relaxed);
                    return Reply::refused(id, "session table full");
                }
                let shard = route_one_dims(shared.cfg.router, id, &demand[..dims], &front.loads);
                apply_route_dims(&mut front.loads, shard, &demand[..dims]);
                front.sessions.insert(id, (shard, demand));
                let live = front.sessions.len() as u64;
                shared.metrics.sessions_live.store(live, Ordering::Relaxed);
                shard
            };
            let shed = shared.cfg.backpressure == BackpressurePolicy::Shed;
            let Some(reply) = serve_on(shared, shard, &req, shed) else {
                shared.metrics.queue_full.fetch_add(1, Ordering::Relaxed);
                release(shared, id);
                return Reply::refused(id, DropReason::QueueFull.name());
            };
            if !reply.ok {
                // The pipeline refused it (timeout shed, oversized, …).
                release(shared, id);
            }
            reply
        }
        Request::Depart { id, .. } => {
            let Some(shard) = release(shared, id) else {
                return Reply::refused(id, format!("unknown session id {id}"));
            };
            // Departures free capacity: never shed, always wait.
            serve_on(shared, shard, &req, false).expect("a departure is never shed")
        }
    }
}

/// Serve `req` on `shard` under its lock, on the calling connection's
/// thread; `None` when `shed` is set and the shard's gate is full.
fn serve_on(shared: &Shared, shard: usize, req: &Request, shed: bool) -> Option<Reply> {
    let Shard { pipe, gate } = &shared.shards[shard];
    let _pass = gate.enter(shed)?;
    let mut pipe = pipe.lock().expect("a shard pipeline panicked");
    let outcome = pipe.handle(req);
    publish(&shared.metrics.shards[shard], &**pipe, req, &outcome);
    Some(reply_for(shard, req, &outcome))
}

/// Take session `id` out of the front door, its table slot and routed
/// load, on departure or refusal; returns the shard it was routed to.
fn release(shared: &Shared, id: u64) -> Option<usize> {
    let mut front = shared.front.lock().expect("the front door panicked");
    let (shard, demand) = front.sessions.remove(&id)?;
    unapply_route_dims(&mut front.loads, shard, &demand[..shared.cfg.dims]);
    let live = front.sessions.len() as u64;
    shared.metrics.sessions_live.store(live, Ordering::Relaxed);
    Some(shard)
}

/// The full `/metrics` exposition: the atomic counters plus the live
/// per-dimension view — routed demand, rented capacity (open bins ×
/// per-dimension capacity), absolute waste and utilization in
/// parts-per-million, one `dim="d"` label per dimension. At `dims == 1`
/// the block describes the scalar daemon's single resource.
fn render_metrics(shared: &Shared) -> String {
    let mut text = shared.metrics.to_prometheus();
    let ld = Ordering::Relaxed;
    let caps = shared.cfg.capacity_vec();
    let loads: DimLoads = shared.front.lock().unwrap().loads.clone();
    let open_bins: u128 = shared
        .metrics
        .shards
        .iter()
        .map(|c| c.open_bins.load(ld) as u128)
        .sum();
    let clamp = |v: u128| v.min(i64::MAX as u128) as i64;
    let mut reg = MetricsRegistry::new();
    for (d, &cap) in caps.iter().enumerate() {
        let demand: u128 = loads.iter().map(|per_shard| per_shard[d]).sum();
        let rented = open_bins * cap as u128;
        let mut dreg = MetricsRegistry::new();
        dreg.gauge_set("serve_dim_demand", clamp(demand));
        dreg.gauge_set("serve_dim_rented", clamp(rented));
        dreg.gauge_set("serve_dim_waste", clamp(rented.saturating_sub(demand)));
        dreg.gauge_set(
            "serve_dim_utilization_ppm",
            (demand * 1_000_000).checked_div(rented).map_or(0, clamp),
        );
        reg.absorb_labeled(&dreg, "dim", &d.to_string());
    }
    text.push_str(&reg.to_prometheus());
    text
}

/// Minimal HTTP/1.1 responder for `GET /metrics` (and a `/healthz` probe).
fn metrics_loop(listener: TcpListener, shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut req = [0u8; 1024];
                let n = stream.read(&mut req).unwrap_or(0);
                let head = String::from_utf8_lossy(&req[..n]);
                let (status, body) = if head.starts_with("GET /healthz") {
                    ("200 OK", "ok\n".to_string())
                } else if head.starts_with("GET /metrics") || head.starts_with("GET / ") {
                    ("200 OK", render_metrics(shared))
                } else {
                    ("404 Not Found", "not found\n".to_string())
                };
                let resp = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(resp.as_bytes());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::algorithms::FirstFit;

    static STOP: AtomicBool = AtomicBool::new(false);

    /// A one-shard daemon state (no sockets) whose gate admits two.
    fn daemon(backpressure: BackpressurePolicy) -> Shared {
        let mut cfg = ServeConfig::local(1, 100);
        cfg.admission.queue_capacity = 2;
        cfg.backpressure = backpressure;
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        Shared::new(cfg, &factory, &STOP).expect("shard builds")
    }

    fn there(shared: &Shared) -> u64 {
        shared.shards[0].gate.there.load(Ordering::SeqCst)
    }

    /// Hold `n` places at shard 0's gate, as `n` connections queued on it.
    fn hold(shared: &Shared, n: usize) -> Vec<Pass<'_>> {
        (0..n)
            .map(|_| shared.shards[0].gate.enter(false).expect("never shed"))
            .collect()
    }

    #[test]
    fn shed_refuses_an_arrival_at_a_full_shard() {
        let shared = daemon(BackpressurePolicy::Shed);
        let held = hold(&shared, 2);
        let r = serve_line(r#"{"op":"arrive","id":1,"at":0,"size":5}"#, &shared);
        assert_eq!(r, Reply::refused(1, "queue_full"));
        assert_eq!(shared.metrics.queue_full.load(Ordering::SeqCst), 1);
        assert!(
            shared.front.lock().unwrap().sessions.is_empty(),
            "route undone"
        );
        assert_eq!(there(&shared), 2, "a refusal gives its place back");
        // One place short of full, the arrival is served.
        drop(held);
        let _held = hold(&shared, 1);
        let r = serve_line(r#"{"op":"arrive","id":1,"at":0,"size":5}"#, &shared);
        assert!(r.ok, "{r:?}");
        assert_eq!(there(&shared), 1);
    }

    #[test]
    fn block_never_refuses() {
        let shared = daemon(BackpressurePolicy::Block);
        let held = hold(&shared, 5);
        for id in 1..=4 {
            let r = serve_line(
                &format!(r#"{{"op":"arrive","id":{id},"at":0,"size":5}}"#),
                &shared,
            );
            assert!(r.ok, "{r:?}");
            assert_eq!(there(&shared), 5);
        }
        drop(held);
        assert_eq!(there(&shared), 0);
        assert_eq!(shared.metrics.queue_full.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_departure_is_never_refused() {
        let shared = daemon(BackpressurePolicy::Shed);
        let r = serve_line(r#"{"op":"arrive","id":1,"at":0,"size":5}"#, &shared);
        assert!(r.ok, "{r:?}");
        let held = hold(&shared, 3);
        let r = serve_line(r#"{"op":"depart","id":1,"at":4}"#, &shared);
        assert_eq!(r, Reply::ok(1, Some(0)));
        assert_eq!(there(&shared), 3);
        drop(held);
        assert_eq!(there(&shared), 0);
    }

    #[test]
    fn overlong_and_non_utf8_lines_are_bad_lines() {
        let shared = daemon(BackpressurePolicy::Block);
        let mut long = br#"{"op":"ping","id":1}"#.to_vec();
        long.resize(MAX_LINE + 1, b' ');
        let refused = |r: Option<Reply>| r.is_some_and(|r| !r.ok && r.id == 0);
        assert!(refused(line_reply(&long, &shared)));
        assert!(refused(line_reply(
            b"{\"op\":\"ping\",\"id\":\xff}",
            &shared
        )));
        assert_eq!(shared.metrics.bad_lines.load(Ordering::SeqCst), 2);
        assert_eq!(
            line_reply(b"  \r", &shared),
            None,
            "blank lines get no reply"
        );
        long.truncate(MAX_LINE);
        assert_eq!(line_reply(&long, &shared), Some(Reply::ok(1, None)));
    }

    #[test]
    fn every_outcome_gives_its_place_back() {
        let shared = daemon(BackpressurePolicy::Shed);
        for line in [
            r#"{"op":"arrive","id":1,"at":9,"size":5}"#,   // placed
            r#"{"op":"arrive","id":2,"at":0,"size":500}"#, // oversized: rejected
            r#"{"op":"depart","id":1,"at":10}"#,           // departed
            r#"{"op":"depart","id":1,"at":11}"#,           // unknown: front door
            r#"{"op":"ping","id":3}"#,                     // pong
            "not json",                                    // bad line
        ] {
            serve_line(line, &shared);
            assert_eq!(there(&shared), 0, "{line}");
        }
        let held = hold(&shared, 2);
        serve_line(r#"{"op":"arrive","id":4,"at":12,"size":5}"#, &shared);
        drop(held);
        assert_eq!(there(&shared), 0, "after a queue_full refusal");
    }
}
