//! Live-dispatcher throughput under overload: how fast one shard pipeline
//! sustains ingest, and what fraction it sheds when offered more than it
//! can hold.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dbp-bench --bin serve_throughput [--quick] [--out PATH]
//! ```
//!
//! Drives a seeded arrival/departure stream (10^6 arrivals; `--quick`:
//! 10^5) through one [`ShardPipeline`] — the exact admission + streaming
//! engine a `dbp serve` shard runs — behind a bounded front-door queue, at
//! 1×, 4× and 16× overload. "Overload F" means the driver offers F
//! requests per processing step, so F = 1 is a keep-up consumer and
//! F = 16 starves the queue sixteen-to-one. The run is single-threaded
//! and fully deterministic (no sockets, no scheduler), so rows are
//! comparable across hosts and runs: the same seed always sheds the same
//! requests (`tests/shed_determinism.rs` pins that). Writes
//! `BENCH_SERVE.json`; every row's ledger must conserve
//! `placed + shed + rejected == offered` or the bench fails.

use dbp_bench::{available_parallelism, ns_to_ms_rounded, write_report, ReportArgs};
use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_core::algorithms::standard_factories;
use dbp_core::item::Size;
use dbp_serve::protocol::Request;
use dbp_serve::shard::{Outcome, ShardPipeline};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 42;
const CAPACITY: u64 = 100;
const QUEUE_CAPACITY: u32 = 256;
const QUEUE_TIMEOUT: u64 = 50;

/// Report schema; bump when fields change (CI validates this). Starts at
/// v3 to match the other bench reports' conventions (rounded walls,
/// `selector_engine`, `available_parallelism`).
/// v4: `dimensions` alongside `selector_engine` (the drive is scalar, 1;
/// vector daemons report their D here when benched).
const SCHEMA_VERSION: u64 = 4;

/// One measured overload factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OverloadResult {
    /// Offers per processing step (1 = keep-up, 16 = hard overload).
    overload: u64,
    /// Arrivals offered at the front door.
    offered: u64,
    /// Arrivals placed by the engine.
    placed: u64,
    /// Front-door sheds (bounded front-door queue full).
    shed_queue_full: u64,
    /// Event-time admission sheds (`wait >= queue_timeout`).
    shed_timeout: u64,
    /// Departures applied.
    departed: u64,
    /// Wall time of the whole drive, milliseconds.
    wall_ms: u64,
    /// Requests (arrivals + departures) processed per second.
    requests_per_sec: u64,
    /// Sheds per thousand offered arrivals.
    shed_rate_millis: u64,
    /// Peak simultaneously-open bins across the drive.
    peak_open_bins: u64,
}

/// The whole report, written as `BENCH_SERVE.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServeBenchReport {
    schema_version: u64,
    quick: bool,
    seed: u64,
    n_arrivals: u64,
    capacity: u64,
    queue_capacity: u32,
    queue_timeout: u64,
    algorithm: String,
    /// Which selector engine produced every row: "indexed", matching
    /// BENCH_ENGINE / BENCH_CLUSTER so the rows are comparable.
    selector_engine: String,
    /// Demand dimensionality of the driven daemon (1 = scalar).
    dimensions: u64,
    /// The host's `available_parallelism` at run time. The drive itself is
    /// single-threaded by design; recorded for cross-report context only.
    available_parallelism: u64,
    peak_rss_bytes: Option<u64>,
    results: Vec<OverloadResult>,
}

/// SplitMix-style deterministic generator (same constants as the shed
/// determinism proptest, so the bench stream is the tested stream writ
/// large).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn measure(n: u64, overload: u64) -> OverloadResult {
    let mut rng = Lcg(SEED.wrapping_mul(2654435761).wrapping_add(overload));
    let mut pipe = ShardPipeline::new(
        Size(CAPACITY),
        standard_factories(0).remove(0).build(), // the roster's First Fit
        AdmissionPolicy {
            queue_capacity: QUEUE_CAPACITY,
            queue_timeout: QUEUE_TIMEOUT,
        },
    );
    let queue_cap = QUEUE_CAPACITY as usize;
    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut live: Vec<u64> = Vec::new();
    let mut offered = 0u64;
    let mut shed_queue_full = 0u64;
    let mut processed = 0u64;
    let mut peak_open = 0u64;
    let mut at = 0u64;
    let mut next_id = 1u64;

    let started = Instant::now();
    while next_id <= n || !queue.is_empty() {
        for _ in 0..overload {
            if next_id > n {
                break;
            }
            at += rng.next() % 3;
            if !live.is_empty() && rng.next().is_multiple_of(4) {
                let idx = (rng.next() as usize) % live.len();
                let id = live.swap_remove(idx);
                // Departures always land: dropping a release would leak
                // capacity forever (same rule the daemon enforces).
                queue.push_back(Request::Depart { id, at });
            } else {
                offered += 1;
                // One arrival in eight carries a late (out-of-order) stamp,
                // lagging the stream by up to 120 ticks: a perfectly
                // ordered stream never trips the event-time timeout (the
                // engine horizon trails the newest stamp), so without late
                // events the admission column measures nothing.
                let stamp = if rng.next().is_multiple_of(8) {
                    at.saturating_sub(rng.next() % 120)
                } else {
                    at
                };
                let mut demand = [0u64; dbp_serve::MAX_DIMS];
                demand[0] = 1 + rng.next() % 50;
                let req = Request::Arrive {
                    id: next_id,
                    at: stamp,
                    demand,
                };
                next_id += 1;
                if queue.len() >= queue_cap {
                    shed_queue_full += 1;
                } else {
                    queue.push_back(req);
                }
            }
        }
        if let Some(req) = queue.pop_front() {
            if let Outcome::Placed { .. } = pipe.handle(&req) {
                live.push(req.id());
            }
            processed += 1;
            peak_open = peak_open.max(pipe.open_bins() as u64);
        }
    }
    let wall_ns = started.elapsed().as_nanos().max(1);

    let ledger = &pipe.ledger;
    assert!(ledger.conserved(), "shard ledger must conserve: {ledger:?}");
    assert_eq!(
        ledger.placed + ledger.dropped_timeout + ledger.rejected + shed_queue_full,
        offered,
        "every offered arrival is accounted exactly once"
    );
    OverloadResult {
        overload,
        offered,
        placed: ledger.placed,
        shed_queue_full,
        shed_timeout: ledger.dropped_timeout,
        departed: ledger.departed,
        wall_ms: ns_to_ms_rounded(wall_ns),
        requests_per_sec: (processed as u128 * 1_000_000_000 / wall_ns) as u64,
        shed_rate_millis: ((shed_queue_full + ledger.dropped_timeout) as u128 * 1000
            / offered.max(1) as u128) as u64,
        peak_open_bins: peak_open,
    }
}

fn main() -> ExitCode {
    let Some(args) = ReportArgs::from_env("BENCH_SERVE.json") else {
        return ExitCode::FAILURE;
    };
    let quick = args.quick;

    let n: u64 = if quick { 100_000 } else { 1_000_000 };
    let mut results = Vec::new();
    for overload in [1u64, 4, 16] {
        let r = measure(n, overload);
        eprintln!(
            "[bench] overload={overload:>2}x {:>9} req/s  {:>6} ms  shed {:>5.1}%  \
             ({} queue-full, {} timeout of {} offered)",
            r.requests_per_sec,
            r.wall_ms,
            r.shed_rate_millis as f64 / 10.0,
            r.shed_queue_full,
            r.shed_timeout,
            r.offered,
        );
        results.push(r);
    }

    let report = ServeBenchReport {
        schema_version: SCHEMA_VERSION,
        quick,
        seed: SEED,
        n_arrivals: n,
        capacity: CAPACITY,
        queue_capacity: QUEUE_CAPACITY,
        queue_timeout: QUEUE_TIMEOUT,
        algorithm: "FF".to_string(),
        selector_engine: "indexed".to_string(),
        dimensions: 1,
        available_parallelism: available_parallelism(),
        peak_rss_bytes: dbp_obs::manifest::peak_rss_bytes(),
        results,
    };
    write_report(&args.out, &report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_rows_conserve_and_report_round_trips() {
        let one = measure(5_000, 1);
        let hard = measure(5_000, 16);
        // Same offered-arrival budget, more pressure ⇒ at least as many
        // sheds (the 1× row may legitimately shed zero).
        assert!(hard.shed_queue_full + hard.shed_timeout >= one.shed_queue_full + one.shed_timeout);
        assert!(
            hard.shed_queue_full + hard.shed_timeout > 0,
            "16x overload over a 256-slot queue must shed: {hard:?}"
        );
        assert!(one.placed > 0 && hard.placed > 0);
        let report = ServeBenchReport {
            schema_version: SCHEMA_VERSION,
            quick: true,
            seed: SEED,
            n_arrivals: 5_000,
            capacity: CAPACITY,
            queue_capacity: QUEUE_CAPACITY,
            queue_timeout: QUEUE_TIMEOUT,
            algorithm: "FF".to_string(),
            selector_engine: "indexed".to_string(),
            dimensions: 1,
            available_parallelism: 1,
            peak_rss_bytes: None,
            results: vec![one, hard],
        };
        let body = serde_json::to_string(&report).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn same_overload_same_numbers() {
        let a = measure(3_000, 4);
        let b = measure(3_000, 4);
        // Wall-clock fields differ run to run; the packing outcome must not.
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.shed_queue_full, b.shed_queue_full);
        assert_eq!(a.shed_timeout, b.shed_timeout);
        assert_eq!(a.departed, b.departed);
        assert_eq!(a.peak_open_bins, b.peak_open_bins);
    }
}
