//! Workloads and the seeded inputs every phase of a run consumes.
//!
//! A workload is an item-size regime against bin capacity `W = 100`. The
//! paper's case analysis splits on exactly this property (Theorem 3 for
//! items of at least `W/k`, Theorem 4 for items below `W/k`), and it moves
//! every layer: how many bins are open at once (selector search depth and
//! the arena's working set), how many items share a bin, and how many bin
//! open/close records the journal writes per item. Every phase of a run
//! draws from the same regime, so each workload exercises every layer.

use dbp_core::demand::VSize;
use dbp_core::instance::{GInstance, Instance};
use dbp_serve::{Request, MAX_DIMS};
use dbp_workloads::mu_control::size_bounds;
use dbp_workloads::{generate_mu_controlled, MuControlledConfig, SizeModel};

use crate::serve::Reference;

/// Bin capacity of every phase (the µ-controlled generator's default `W`).
pub const CAPACITY: u64 = 100;

/// Live sessions the single round-trip connection keeps open at most.
const RTT_LIVE_CAP: usize = 4096;

/// Live sessions each durable connection keeps open at most.
const DURABLE_LIVE_CAP: usize = 2048;

/// Arrivals out of ten requests while a connection is below its live cap.
const ARRIVALS_PER_TEN: u64 = 6;

/// The item-size regimes the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sizes below `W/8`: a few hundred open bins holding many items each.
    Small,
    /// Sizes of at least `W/4`: thousands of open bins, one to three items
    /// each, so nearly every arrival opens or closes a bin.
    Large,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Small, Workload::Large];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Small => "small",
            Workload::Large => "large",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn size_model(self) -> SizeModel {
        match self {
            Workload::Small => SizeModel::SmallOnly { k: 8 },
            Workload::Large => SizeModel::LargeOnly { k: 4 },
        }
    }

    /// The batch stream: `n` items with the `dbp_workloads::churn`
    /// fixture's arrival rate and session lengths (µ = 10 over ∆ = 2000
    /// ticks), sizes from the regime.
    pub fn instance(self, n: usize, seed: u64) -> Instance {
        generate_mu_controlled(&MuControlledConfig {
            capacity: CAPACITY,
            n_items: n,
            mu: 10,
            delta: 2_000,
            arrival_rate: 0.5,
            sizes: self.size_model(),
            seed,
        })
    }
}

/// SplitMix64: the seeded source of every serve request.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these ranges).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One connection's request source: in-order event time, arrivals with
/// regime-drawn sizes, departures of random live sessions. While the
/// connection is below its live cap six requests in ten are arrivals; at
/// the cap it departs, so the live set settles at the cap.
struct Traffic {
    rng: SplitMix64,
    size_lo: u64,
    size_span: u64,
    live: Vec<u64>,
    live_cap: usize,
    next_id: u64,
    at: u64,
}

impl Traffic {
    fn new(workload: Workload, seed: u64, first_id: u64, live_cap: usize) -> Traffic {
        let (lo, hi) = size_bounds(workload.size_model(), CAPACITY);
        Traffic {
            rng: SplitMix64(seed),
            size_lo: lo,
            size_span: hi - lo + 1,
            live: Vec::new(),
            live_cap,
            next_id: first_id,
            at: 0,
        }
    }

    fn next(&mut self) -> Request {
        self.at += self.rng.below(3);
        let arrive = self.live.is_empty()
            || (self.live.len() < self.live_cap && self.rng.below(10) < ARRIVALS_PER_TEN);
        if arrive {
            let id = self.next_id;
            self.next_id += 1;
            let mut demand = [0u64; MAX_DIMS];
            demand[0] = self.size_lo + self.rng.below(self.size_span);
            Request::Arrive {
                id,
                at: self.at,
                demand,
            }
        } else {
            let idx = self.rng.below(self.live.len() as u64) as usize;
            Request::Depart {
                id: self.live.swap_remove(idx),
                at: self.at,
            }
        }
    }
}

/// The NDJSON line a client writes for `req`, newline included.
fn wire_line(req: &Request) -> String {
    match *req {
        Request::Arrive { id, at, demand } => {
            format!(
                "{{\"op\":\"arrive\",\"id\":{id},\"at\":{at},\"size\":{}}}\n",
                demand[0]
            )
        }
        Request::Depart { id, at } => format!("{{\"op\":\"depart\",\"id\":{id},\"at\":{at}}}\n"),
        Request::Ping { id } => format!("{{\"op\":\"ping\",\"id\":{id}}}\n"),
    }
}

/// A connection's request lines and, per request, the reply it must get:
/// the whole reply line for the round-trip stream, the `ok`/`id` prefix for
/// the durable streams (their shard and bin depend on how the two
/// connections interleave).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Request lines, each ending in `\n`.
    pub requests: Vec<String>,
    /// Expected reply (or reply prefix) per request, without the newline.
    pub expected: Vec<String>,
}

/// How many requests and items each cycle's set-up generates.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Items in the batch and cluster stream.
    pub items: usize,
    /// Requests in the round-trip stream (the phase stops early at its
    /// deadline).
    pub rtt_requests: usize,
}

/// Everything a cycle measures on, generated from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The scalar batch and cluster stream.
    pub instance: Instance,
    /// The same stream with every size splatted across three resource
    /// dimensions: decision-identical to the scalar stream, so the D = 3
    /// row measures only the cost of vector demands.
    pub vector: GInstance<VSize<3>>,
    /// The single round-trip connection, replies from the reference model.
    pub rtt: Stream,
}

impl Inputs {
    /// Generate a cycle's inputs. Deterministic in `(workload, seed, sizes)`.
    pub fn generate(workload: Workload, seed: u64, sizes: Sizes) -> Inputs {
        let instance = workload.instance(sizes.items, seed);
        let vector = dbp_workloads::lift_uniform::<3>(&instance);
        Inputs {
            rtt: rtt_stream(workload, seed, sizes.rtt_requests),
            instance,
            vector,
        }
    }
}

/// The two durable connections' streams of `n` requests each, on disjoint
/// id ranges. Deterministic in `(workload, seed, n)`.
pub fn durable_streams(workload: Workload, seed: u64, n: usize) -> [Stream; 2] {
    [0, 1].map(|conn| durable_stream(workload, seed, conn, n))
}

/// The round-trip stream, with every expected reply computed by replaying
/// it through the in-process [`Reference`] of the daemon. Only sessions the
/// reference placed are ever departed.
fn rtt_stream(workload: Workload, seed: u64, n: usize) -> Stream {
    let mut traffic = Traffic::new(workload, seed ^ 0x5254_5400, 1, RTT_LIVE_CAP);
    let mut reference = Reference::new();
    let mut stream = Stream {
        requests: Vec::with_capacity(n),
        expected: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let req = traffic.next();
        let reply = reference.serve(&req, &mut dbp_core::span::NoSpans);
        if let (Request::Arrive { id, .. }, true) = (req, reply.ok) {
            traffic.live.push(id);
        }
        stream.requests.push(wire_line(&req));
        stream.expected.push(reply.to_line());
    }
    stream
}

/// One durable connection's stream. Every arrival fits a bin and the
/// daemon's admission timeout never fires, so every request must succeed.
fn durable_stream(workload: Workload, seed: u64, conn: u64, n: usize) -> Stream {
    let first_id = (conn + 1) << 40;
    let mut traffic = Traffic::new(
        workload,
        seed ^ (0x4455_5200 + conn),
        first_id,
        DURABLE_LIVE_CAP,
    );
    let mut stream = Stream {
        requests: Vec::with_capacity(n),
        expected: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let req = traffic.next();
        if let Request::Arrive { id, .. } = req {
            traffic.live.push(id);
        }
        stream.requests.push(wire_line(&req));
        stream
            .expected
            .push(format!("{{\"ok\":true,\"id\":{},", req.id()));
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("mixed"), None);
    }

    #[test]
    fn no_generated_request_is_refused() {
        let sizes = Sizes {
            items: 100,
            rtt_requests: 20_000,
        };
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 5, sizes);
            assert!(
                inputs
                    .rtt
                    .expected
                    .iter()
                    .all(|r| r.starts_with("{\"ok\":true,")),
                "{}: the reference refused a request",
                w.name()
            );
        }
    }
}
