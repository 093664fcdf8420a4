//! One shard of the live dispatcher: a deterministic, single-threaded
//! driver of the event core.
//!
//! The pipeline owns an [`EventCore`] fed in *open mode* (arrivals carry no
//! departure — the online model), an external→internal session map, its
//! event-time horizon, the event-time admission check reused from
//! [`dbp_cloudsim::faults::AdmissionPolicy`], and an optional write-ahead
//! journal. Everything here is synchronous and deterministic: the daemon
//! keeps one pipeline per shard behind a lock and serves it from whichever
//! connection thread holds that lock; tests and the shed-determinism
//! proptest drive it directly.
//!
//! Internal ids are dense and handed out in arrival order, one per placed
//! or shed arrival; a refused arrival takes none. Fed an instance's
//! schedule with external ids in arrival order, the pipeline journals the
//! bytes `simulate_probed` journals for that instance
//! (`tests/pipeline_equivalence.rs`).
//!
//! ## Admission semantics
//!
//! Arrivals are admitted in **event time**, matching the fault layer: the
//! effective processing tick is `now = max(horizon, at)` (event time never
//! rewinds), the queueing delay is `wait = now − at`, and
//! `wait >= queue_timeout` is a [`DropReason::QueueTimeout`] drop — the
//! boundary `wait == timeout` drops, exactly as in the batch simulator.
//! Queue-*capacity* sheds happen at the daemon's front door (each shard's
//! bound on the connections waiting for it) before a request reaches the
//! pipeline, so they are ledgered by the server, not here.
//!
//! ## Memory
//!
//! The session map holds live sessions only, but the core's arena is
//! indexed by internal id and bin id, and neither is ever reused. Every
//! internal id ever handed out keeps 16 bytes of per-item columns (two
//! membership links and its assignment), every placement 4 more in the
//! placement log, and every bin ever opened keeps `37 + 8·D` bytes of
//! per-bin columns (level, tag, open and close ticks, open flag,
//! member-list ends and count, scan-rank counter), plus whatever the
//! selector keeps per bin. So a shard's memory grows with its whole
//! stream, by those amounts.

use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_core::bin::BinId;
use dbp_core::demand::Demand;
use dbp_core::event_core::EventCore;
use dbp_core::item::{GArrivingItem, ItemId, RegionId, Size};
use dbp_core::packer::BinSelector;
use dbp_core::probe::{DropReason, GProbeEvent, Probe};
use dbp_core::span::NoSpans;
use dbp_core::time::Tick;
use dbp_obs::journal::JournalProbe;
use std::collections::HashMap;

use crate::protocol::Request;

/// The shard probe: forwards every engine event to the write-ahead journal
/// when one is attached. Always enabled — a live dispatcher's history *is*
/// its journal.
#[derive(Debug, Default)]
pub struct ServeProbe {
    /// The shard's journal, if journaling is on.
    pub journal: Option<JournalProbe>,
}

impl<Sz: Demand> Probe<Sz> for ServeProbe {
    fn record(&mut self, event: GProbeEvent<Sz>) {
        if let Some(j) = self.journal.as_mut() {
            Probe::<Sz>::record(j, event);
        }
    }
}

/// Exact per-shard accounting. Every arrival offered to the pipeline gets
/// exactly one of {placed, dropped_timeout, rejected}, so
/// [`ShardLedger::conserved`] holds at all times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLedger {
    /// Arrivals offered to this pipeline.
    pub offered: u64,
    /// Arrivals placed into a bin.
    pub placed: u64,
    /// Arrivals shed by the event-time queue timeout.
    pub dropped_timeout: u64,
    /// Arrivals refused as invalid (duplicate id, oversized, id space
    /// exhausted).
    pub rejected: u64,
    /// Departures applied.
    pub departed: u64,
    /// Departure requests for unknown sessions.
    pub bad_departs: u64,
}

impl ShardLedger {
    /// `placed + dropped + rejected == offered` — no arrival unaccounted.
    pub fn conserved(&self) -> bool {
        self.placed + self.dropped_timeout + self.rejected == self.offered
    }
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The arrival was placed into `bin`.
    Placed {
        /// The bin chosen by the selector.
        bin: BinId,
    },
    /// The departure was applied.
    Departed,
    /// The arrival was shed by admission control.
    Dropped {
        /// Which admission rule fired.
        reason: DropReason,
    },
    /// The request was invalid (duplicate / unknown id, oversized, …).
    Rejected {
        /// Human-readable refusal.
        reason: String,
    },
    /// A ping; no shard state touched.
    Pong,
}

/// One shard's deterministic dispatch pipeline over `Sz`-dimensional
/// demands. See the module docs. The scalar daemon uses the
/// [`ShardPipeline`] alias; vector daemons monomorphize per `--dims`.
pub struct GShardPipeline<Sz: Demand = Size> {
    core: EventCore<Box<dyn BinSelector<Sz>>, ServeProbe, Sz>,
    capacity: Sz,
    admission: AdmissionPolicy,
    /// Live external id → dense internal id and demand (read back at
    /// departure).
    sessions: HashMap<u64, (ItemId, Sz)>,
    next_internal: u32,
    /// Event-time horizon: the tick of the latest placement or departure.
    horizon: Tick,
    /// Running accounting, updated on every request.
    pub ledger: ShardLedger,
}

/// The scalar (`D = 1`) pipeline the original daemon shipped.
pub type ShardPipeline = GShardPipeline<Size>;

impl<Sz: Demand> GShardPipeline<Sz> {
    /// Build a pipeline with no journal.
    pub fn new(
        capacity: Sz,
        selector: Box<dyn BinSelector<Sz>>,
        admission: AdmissionPolicy,
    ) -> GShardPipeline<Sz> {
        GShardPipeline::with_probe(capacity, selector, admission, ServeProbe::default())
    }

    /// Build a pipeline writing every engine event to `probe.journal`.
    ///
    /// # Panics
    /// Panics if any capacity component is zero.
    pub fn with_probe(
        capacity: Sz,
        selector: Box<dyn BinSelector<Sz>>,
        admission: AdmissionPolicy,
        probe: ServeProbe,
    ) -> GShardPipeline<Sz> {
        assert!(
            !capacity.has_zero_component(),
            "bin capacity must be positive in every dimension"
        );
        GShardPipeline {
            core: EventCore::new(capacity, selector, probe, 0),
            capacity,
            admission,
            sessions: HashMap::new(),
            next_internal: 0,
            horizon: Tick(0),
            ledger: ShardLedger::default(),
        }
    }

    /// The shard's event-time horizon.
    pub fn horizon(&self) -> Tick {
        self.horizon
    }

    /// Currently open bins.
    pub fn open_bins(&self) -> usize {
        self.core.open_bins()
    }

    /// Bins opened over the shard's lifetime.
    pub fn bins_opened(&self) -> usize {
        self.core.bins_opened()
    }

    /// Live (placed, not yet departed) sessions.
    pub fn in_flight(&self) -> usize {
        self.sessions.len()
    }

    /// Handle one request; never panics on client input. Arrival demands
    /// are read from the first `Sz::DIMS` components of the wire array —
    /// the protocol layer has already arity-checked them against the
    /// daemon's dimensionality, so no truncation can happen here.
    pub fn handle(&mut self, req: &Request) -> Outcome {
        match *req {
            Request::Arrive { id, at, demand } => self.handle_arrive(id, at, &demand),
            Request::Depart { id, at } => self.handle_depart(id, at),
            Request::Ping { .. } => Outcome::Pong,
        }
    }

    fn handle_arrive(&mut self, external: u64, at: u64, demand: &[u64]) -> Outcome {
        self.ledger.offered += 1;
        if self.sessions.contains_key(&external) {
            return self.reject(format!("duplicate session id {external}"));
        }
        if self.next_internal == u32::MAX {
            return self.reject("shard id space exhausted".to_string());
        }
        let Some(size) = Sz::from_components(&demand[..Sz::DIMS]) else {
            return self.reject(format!(
                "demand_arity: demand has {} components, shard expects {}",
                demand.len().min(Sz::DIMS),
                Sz::DIMS
            ));
        };
        // Event-time admission: the arrival is processed at the shard's
        // horizon if it queued behind earlier work; waiting `queue_timeout`
        // ticks or more (boundary inclusive) is a shed.
        let at = Tick(at);
        let now = self.horizon.max(at);
        let wait = now.raw() - at.raw();
        let internal = ItemId(self.next_internal);
        if wait >= self.admission.queue_timeout {
            self.next_internal += 1;
            Probe::<Sz>::record(
                self.core.probe_mut(),
                GProbeEvent::ItemDropped {
                    at: now,
                    item: internal,
                    reason: DropReason::QueueTimeout,
                },
            );
            self.ledger.dropped_timeout += 1;
            return Outcome::Dropped {
                reason: DropReason::QueueTimeout,
            };
        }
        if size.is_zero() {
            return self.reject(format!("item {internal} has size 0"));
        }
        if !size.fits_within(self.capacity) {
            return self.reject(format!(
                "item {internal} (size {size}) exceeds capacity {}",
                self.capacity
            ));
        }
        self.next_internal += 1;
        self.horizon = now;
        self.core.ensure_item(internal);
        let bin = self.core.arrive(
            &mut NoSpans,
            &GArrivingItem {
                id: internal,
                arrival: now,
                size,
                region: RegionId::GLOBAL,
            },
        );
        self.sessions.insert(external, (internal, size));
        self.ledger.placed += 1;
        Outcome::Placed { bin }
    }

    /// Refuse an arrival: it takes no internal id and leaves the horizon.
    fn reject(&mut self, reason: String) -> Outcome {
        self.ledger.rejected += 1;
        Outcome::Rejected { reason }
    }

    fn handle_depart(&mut self, external: u64, at: u64) -> Outcome {
        let Some((internal, size)) = self.sessions.remove(&external) else {
            self.ledger.bad_departs += 1;
            return Outcome::Rejected {
                reason: format!("unknown session id {external}"),
            };
        };
        self.horizon = self.horizon.max(Tick(at));
        self.core.depart(&mut NoSpans, internal, size, self.horizon);
        self.ledger.departed += 1;
        Outcome::Departed
    }

    /// Tear the pipeline down: seal the journal (flush + fsync) and return
    /// the final ledger plus `(in_flight, open_bins)` at teardown.
    /// In-flight sessions were *served*; they are not losses.
    pub fn seal(mut self) -> Result<(ShardLedger, usize, usize), String> {
        if let Some(j) = self.core.probe_mut().journal.take() {
            j.finish()
                .map_err(|e| format!("journal seal failed: {e}"))?;
        }
        Ok((self.ledger, self.sessions.len(), self.core.open_bins()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_DIMS;
    use dbp_core::algorithms::FirstFit;
    use dbp_core::demand::VSize;

    fn pipeline(timeout: u64) -> ShardPipeline {
        ShardPipeline::new(
            Size(10),
            Box::new(FirstFit::new()),
            AdmissionPolicy {
                queue_capacity: 64,
                queue_timeout: timeout,
            },
        )
    }

    /// Wire-shaped arrival with a scalar demand in dimension 0.
    fn arrive(id: u64, at: u64, size: u64) -> Request {
        let mut demand = [0u64; MAX_DIMS];
        demand[0] = size;
        Request::Arrive { id, at, demand }
    }

    #[test]
    fn place_depart_lifecycle_conserves() {
        let mut p = pipeline(100);
        let a = p.handle(&arrive(7, 0, 6));
        assert!(matches!(a, Outcome::Placed { .. }), "{a:?}");
        let b = p.handle(&arrive(8, 1, 6));
        assert!(matches!(b, Outcome::Placed { .. }), "{b:?}");
        assert_eq!(p.open_bins(), 2);
        assert_eq!(p.in_flight(), 2);
        assert_eq!(
            p.handle(&Request::Depart { id: 7, at: 5 }),
            Outcome::Departed
        );
        assert_eq!(p.open_bins(), 1);
        // External id 7 is free again after departure.
        let c = p.handle(&arrive(7, 6, 2));
        assert!(matches!(c, Outcome::Placed { .. }), "{c:?}");
        assert!(p.ledger.conserved());
        assert_eq!(p.ledger.placed, 3);
        assert_eq!(p.ledger.departed, 1);
    }

    #[test]
    fn stale_arrival_at_the_timeout_boundary_is_shed() {
        let mut p = pipeline(8);
        // Push the horizon to 20.
        p.handle(&arrive(1, 20, 4));
        // Queued at 13 against horizon 20: wait 7 < 8 → admitted (clamped).
        let ok = p.handle(&arrive(2, 13, 4));
        assert!(matches!(ok, Outcome::Placed { .. }), "{ok:?}");
        // Queued at 12: wait 8 == timeout → boundary drop.
        let shed = p.handle(&arrive(3, 12, 4));
        assert_eq!(
            shed,
            Outcome::Dropped {
                reason: DropReason::QueueTimeout
            }
        );
        assert!(p.ledger.conserved());
        assert_eq!(p.ledger.dropped_timeout, 1);
    }

    fn rejected(reason: &str) -> Outcome {
        Outcome::Rejected {
            reason: reason.to_string(),
        }
    }

    #[test]
    fn invalid_requests_are_refused_not_fatal() {
        let mut p = pipeline(100);
        p.handle(&arrive(1, 0, 4));
        // Refusals name the next internal id (1): none of them takes it.
        assert_eq!(
            p.handle(&arrive(1, 1, 4)),
            rejected("duplicate session id 1")
        );
        assert_eq!(
            p.handle(&arrive(2, 1, 11)),
            rejected("item r1 (size 11) exceeds capacity 10")
        );
        // The wire parser refuses a zero demand; a request built in code
        // reaches the pipeline's own check.
        assert_eq!(p.handle(&arrive(3, 1, 0)), rejected("item r1 has size 0"));
        assert_eq!(
            p.handle(&Request::Depart { id: 99, at: 2 }),
            rejected("unknown session id 99")
        );
        assert!(p.ledger.conserved());
        assert_eq!(p.ledger.rejected, 3);
        assert_eq!(p.ledger.bad_departs, 1);
    }

    #[test]
    fn refusals_take_no_internal_id_and_leave_the_horizon() {
        use dbp_obs::journal::{read_journal, FsyncPolicy, JournalProbe};
        let path =
            std::env::temp_dir().join(format!("dbp-serve-refusal-{}.wal", std::process::id()));
        let journal = JournalProbe::create(&path, FsyncPolicy::Never).unwrap();
        let mut p = ShardPipeline::with_probe(
            Size(10),
            Box::new(FirstFit::new()),
            AdmissionPolicy {
                queue_capacity: 64,
                queue_timeout: 3,
            },
            ServeProbe {
                journal: Some(journal),
            },
        );
        assert!(matches!(p.handle(&arrive(1, 5, 4)), Outcome::Placed { .. }));
        // Refused at tick 9 and at 1: had either moved the horizon, the
        // arrival stamped 7 would be placed later (or shed).
        assert!(matches!(
            p.handle(&arrive(2, 9, 11)),
            Outcome::Rejected { .. }
        ));
        assert!(matches!(
            p.handle(&arrive(3, 9, 0)),
            Outcome::Rejected { .. }
        ));
        assert!(matches!(p.handle(&arrive(4, 7, 3)), Outcome::Placed { .. }));
        // Stamped 2 against horizon 7: shed at 7 under the next id.
        assert!(matches!(
            p.handle(&arrive(5, 2, 3)),
            Outcome::Dropped { .. }
        ));
        assert!(matches!(p.handle(&arrive(6, 8, 3)), Outcome::Placed { .. }));
        p.seal().unwrap();
        let wal = read_journal(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let fates: Vec<(&str, u32, u64)> = wal
            .events
            .iter()
            .filter_map(|ev| match *ev {
                GProbeEvent::ItemPlaced { at, item, .. } => Some(("placed", item.0, at.0)),
                GProbeEvent::ItemDropped { at, item, .. } => Some(("dropped", item.0, at.0)),
                _ => None,
            })
            .collect();
        assert_eq!(
            fates,
            [
                ("placed", 0, 5),
                ("placed", 1, 7),
                ("dropped", 2, 7),
                ("placed", 3, 8)
            ]
        );
    }

    #[test]
    fn sealing_reports_in_flight_sessions() {
        let mut p = pipeline(100);
        p.handle(&arrive(1, 0, 4));
        p.handle(&arrive(2, 1, 4));
        p.handle(&Request::Depart { id: 1, at: 3 });
        let (ledger, in_flight, open_bins) = p.seal().unwrap();
        assert!(ledger.conserved());
        assert_eq!(in_flight, 1);
        assert_eq!(open_bins, 1);
    }

    #[test]
    fn vector_pipeline_packs_by_binding_dimension() {
        // Capacity [10, 4]: dimension 1 binds first, so every [4, 3] item
        // needs its own bin — a scalar engine at capacity 10 would have
        // paired them two per bin.
        let mut p: GShardPipeline<VSize<2>> = GShardPipeline::new(
            VSize([10, 4]),
            Box::new(FirstFit::new()),
            AdmissionPolicy {
                queue_capacity: 64,
                queue_timeout: 100,
            },
        );
        for id in 0..3u64 {
            let got = p.handle(&Request::Arrive {
                id,
                at: id,
                demand: [4, 3, 0, 0],
            });
            assert!(matches!(got, Outcome::Placed { .. }), "{got:?}");
        }
        assert_eq!(p.open_bins(), 3, "dim 1 (cap 4) admits one 3 per bin");
        // An item too big in dimension 1 alone is a typed refusal.
        let big = p.handle(&Request::Arrive {
            id: 9,
            at: 5,
            demand: [1, 5, 0, 0],
        });
        assert!(matches!(big, Outcome::Rejected { .. }), "{big:?}");
        assert!(p.ledger.conserved());
    }
}
