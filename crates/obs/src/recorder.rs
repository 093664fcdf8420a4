//! Event-recording probes: the in-memory [`EventLog`], the cheap
//! [`CountingProbe`] used by invariant tests, and [`MetricsProbe`] which
//! aggregates events into a [`MetricsRegistry`].

use crate::metrics::MetricsRegistry;
use dbp_core::demand::Demand;
use dbp_core::item::Size;
use dbp_core::probe::{GProbeEvent, Probe, ProbeEvent};

/// A probe that stores every event in order, generic over the demand type
/// (scalar via the [`EventLog`] alias). The basis for JSONL export
/// ([`crate::export`]) and the `dbp trace` timeline.
#[derive(Debug, Clone, Default)]
pub struct GEventLog<Sz = Size> {
    events: Vec<GProbeEvent<Sz>>,
    decision_ns: Vec<u64>,
}

/// The scalar event log of the source paper's model.
pub type EventLog = GEventLog<Size>;

impl<Sz> GEventLog<Sz> {
    /// New empty log.
    pub fn new() -> GEventLog<Sz> {
        GEventLog {
            events: Vec::new(),
            decision_ns: Vec::new(),
        }
    }

    /// The recorded events, in simulation order.
    pub fn events(&self) -> &[GProbeEvent<Sz>] {
        &self.events
    }

    /// Per-arrival wall times in nanoseconds, in arrival order. Each entry
    /// covers the full arrival handling (selection plus the engine's
    /// placement bookkeeping), matching the cost callers observe.
    pub fn decision_ns(&self) -> &[u64] {
        &self.decision_ns
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume the log, returning the events.
    pub fn into_events(self) -> Vec<GProbeEvent<Sz>> {
        self.events
    }
}

impl<Sz: Demand> Probe<Sz> for GEventLog<Sz> {
    const TIMED: bool = true;

    fn record(&mut self, event: GProbeEvent<Sz>) {
        self.events.push(event);
    }

    fn on_decision_ns(&mut self, ns: u64) {
        self.decision_ns.push(ns);
    }
}

/// A probe that only counts, per event kind. Used by the engine invariant
/// tests to cross-check event streams against [`PackingTrace`] totals
/// without buffering the stream.
///
/// [`PackingTrace`]: dbp_core::trace::PackingTrace
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// `ItemArrived` events seen.
    pub items_arrived: u64,
    /// `FitAttempt` events seen.
    pub fit_attempts: u64,
    /// `BinOpened` events seen.
    pub bins_opened: u64,
    /// `ItemPlaced` events seen.
    pub items_placed: u64,
    /// `ItemDeparted` events seen.
    pub items_departed: u64,
    /// `BinClosed` events seen.
    pub bins_closed: u64,
    /// `Violation` events seen.
    pub violations: u64,
    /// Sum of `bins_scanned` over all fit attempts.
    pub bins_scanned_total: u64,
    /// Sum of `open_ticks` over all bin closes.
    pub bin_open_ticks_total: u64,
    /// Number of timed selector decisions.
    pub decisions_timed: u64,
    /// `BinCrashed` events seen.
    pub bins_crashed: u64,
    /// Sum of `orphans` over all crashes.
    pub orphans_total: u64,
    /// `ProvisionFailed` events seen.
    pub provision_failures: u64,
    /// `RetryScheduled` events seen.
    pub retries_scheduled: u64,
    /// `DispatchRejected` events seen.
    pub dispatch_rejections: u64,
    /// `ItemDropped` events seen.
    pub items_dropped: u64,
    /// `ItemRedispatched` events seen.
    pub items_redispatched: u64,
    /// `RecoveryEnded` events seen.
    pub recoveries: u64,
    /// `ShardKilled` events seen.
    pub shard_kills: u64,
    /// `ShardRestarted` events seen.
    pub shard_restarts: u64,
    /// `ShardAbandoned` events seen.
    pub shards_abandoned: u64,
    /// Sum of `replayed` over all shard restarts.
    pub shard_replayed_total: u64,
}

impl CountingProbe {
    /// New zeroed counter set.
    pub fn new() -> CountingProbe {
        CountingProbe::default()
    }

    /// Total events of any kind.
    pub fn total(&self) -> u64 {
        self.items_arrived
            + self.fit_attempts
            + self.bins_opened
            + self.items_placed
            + self.items_departed
            + self.bins_closed
            + self.violations
            + self.bins_crashed
            + self.provision_failures
            + self.retries_scheduled
            + self.dispatch_rejections
            + self.items_dropped
            + self.items_redispatched
            + self.recoveries
            + self.shard_kills
            + self.shard_restarts
            + self.shards_abandoned
    }
}

impl Probe for CountingProbe {
    const TIMED: bool = true;

    fn record(&mut self, event: ProbeEvent) {
        match event {
            ProbeEvent::ItemArrived { .. } => self.items_arrived += 1,
            ProbeEvent::FitAttempt { bins_scanned, .. } => {
                self.fit_attempts += 1;
                self.bins_scanned_total += bins_scanned as u64;
            }
            ProbeEvent::BinOpened { .. } => self.bins_opened += 1,
            ProbeEvent::ItemPlaced { .. } => self.items_placed += 1,
            ProbeEvent::ItemDeparted { .. } => self.items_departed += 1,
            ProbeEvent::BinClosed { open_ticks, .. } => {
                self.bins_closed += 1;
                self.bin_open_ticks_total += open_ticks;
            }
            ProbeEvent::Violation { .. } => self.violations += 1,
            ProbeEvent::BinCrashed { orphans, .. } => {
                self.bins_crashed += 1;
                self.orphans_total += orphans as u64;
            }
            ProbeEvent::ProvisionFailed { .. } => self.provision_failures += 1,
            ProbeEvent::RetryScheduled { .. } => self.retries_scheduled += 1,
            ProbeEvent::DispatchRejected { .. } => self.dispatch_rejections += 1,
            ProbeEvent::ItemDropped { .. } => self.items_dropped += 1,
            ProbeEvent::ItemRedispatched { .. } => self.items_redispatched += 1,
            ProbeEvent::RecoveryEnded { .. } => self.recoveries += 1,
            ProbeEvent::ShardKilled { .. } => self.shard_kills += 1,
            ProbeEvent::ShardRestarted { replayed, .. } => {
                self.shard_restarts += 1;
                self.shard_replayed_total += replayed;
            }
            ProbeEvent::ShardAbandoned { .. } => self.shards_abandoned += 1,
        }
    }

    fn on_decision_ns(&mut self, _ns: u64) {
        self.decisions_timed += 1;
    }
}

/// A probe that folds the event stream into a [`MetricsRegistry`] as it
/// arrives: counters for every event kind, an open-bin gauge with peak
/// tracking, and exact histograms for scan depth, occupancy after
/// placement (the GPU component, 0, of a vector level), bin lifetime, and
/// decision wall time.
#[derive(Debug, Clone, Default)]
pub struct MetricsProbe {
    registry: MetricsRegistry,
    open_bins: i64,
}

impl MetricsProbe {
    /// New probe with an empty registry.
    pub fn new() -> MetricsProbe {
        MetricsProbe::default()
    }

    /// The registry accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consume the probe, returning the registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }
}

impl<Sz: Demand> Probe<Sz> for MetricsProbe {
    const TIMED: bool = true;

    fn record(&mut self, event: GProbeEvent<Sz>) {
        let reg = &mut self.registry;
        match event {
            GProbeEvent::ItemArrived { .. } => reg.counter_add("dbp_items_arrived_total", 1),
            GProbeEvent::FitAttempt { bins_scanned, .. } => {
                reg.counter_add("dbp_fit_attempts_total", 1);
                reg.observe("dbp_fit_scan_depth", bins_scanned as u64);
            }
            GProbeEvent::BinOpened { .. } => {
                reg.counter_add("dbp_bins_opened_total", 1);
                self.open_bins += 1;
                reg.gauge_set("dbp_open_bins", self.open_bins);
                reg.gauge_max("dbp_open_bins_peak", self.open_bins);
            }
            GProbeEvent::ItemPlaced { level, .. } => {
                reg.counter_add("dbp_items_placed_total", 1);
                reg.observe("dbp_open_bin_occupancy", level.component(0));
            }
            GProbeEvent::ItemDeparted { .. } => reg.counter_add("dbp_items_departed_total", 1),
            GProbeEvent::BinClosed { open_ticks, .. } => {
                reg.counter_add("dbp_bins_closed_total", 1);
                self.open_bins -= 1;
                reg.gauge_set("dbp_open_bins", self.open_bins);
                reg.observe("dbp_bin_lifetime_ticks", open_ticks);
            }
            GProbeEvent::Violation { .. } => reg.counter_add("dbp_violations_total", 1),
            GProbeEvent::BinCrashed { orphans, .. } => {
                reg.counter_add("dbp_bins_crashed_total", 1);
                reg.counter_add("dbp_orphaned_sessions_total", orphans as u64);
                self.open_bins -= 1;
                reg.gauge_set("dbp_open_bins", self.open_bins);
            }
            GProbeEvent::ProvisionFailed { .. } => {
                reg.counter_add("dbp_provision_failures_total", 1)
            }
            GProbeEvent::RetryScheduled { .. } => reg.counter_add("dbp_retries_scheduled_total", 1),
            GProbeEvent::DispatchRejected { .. } => {
                reg.counter_add("dbp_dispatch_rejections_total", 1)
            }
            GProbeEvent::ItemDropped { .. } => reg.counter_add("dbp_items_dropped_total", 1),
            GProbeEvent::ItemRedispatched { .. } => {
                reg.counter_add("dbp_items_redispatched_total", 1)
            }
            GProbeEvent::RecoveryEnded {
                redispatched, lost, ..
            } => {
                reg.counter_add("dbp_recoveries_total", 1);
                reg.counter_add("dbp_recovery_redispatched_total", redispatched as u64);
                reg.counter_add("dbp_recovery_lost_total", lost as u64);
            }
            GProbeEvent::ShardKilled { .. } => reg.counter_add("dbp_shard_kills_total", 1),
            GProbeEvent::ShardRestarted { replayed, .. } => {
                reg.counter_add("dbp_shard_restarts_total", 1);
                reg.counter_add("dbp_shard_replayed_events_total", replayed);
            }
            GProbeEvent::ShardAbandoned { lost, rerouted, .. } => {
                reg.counter_add("dbp_shards_abandoned_total", 1);
                reg.counter_add("dbp_shard_sessions_lost_total", lost as u64);
                reg.counter_add("dbp_shard_sessions_rerouted_total", rerouted as u64);
            }
        }
    }

    fn on_decision_ns(&mut self, ns: u64) {
        self.registry.observe("dbp_decision_ns", ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;

    fn small_instance() -> Instance {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 6);
        b.add(10, 35, 4);
        b.build().unwrap()
    }

    #[test]
    fn counting_probe_matches_trace() {
        let inst = small_instance();
        let mut probe = CountingProbe::new();
        let trace = simulate_probed(&inst, &mut FirstFit::new(), &mut probe);
        assert_eq!(probe.bins_opened, trace.bins_used() as u64);
        assert_eq!(probe.items_placed, inst.len() as u64);
        assert_eq!(probe.items_departed, inst.len() as u64);
        assert_eq!(probe.bins_closed, probe.bins_opened);
        assert_eq!(probe.fit_attempts, probe.items_placed);
        assert_eq!(probe.decisions_timed, inst.len() as u64);
        assert_eq!(probe.violations, 0);
    }

    /// Every probe that consumes decision timings declares `TIMED`, so it
    /// hears exactly one `on_decision_ns` per placed arrival: alone, behind
    /// `&mut`, beside an untimed journal in a tuple, and through
    /// `VerifyProbe`'s continuation. A probe that forgot the flag would
    /// read zero here instead of silently emptying `dbp_decision_ns`.
    #[test]
    fn timed_probes_hear_one_decision_per_arrival() {
        use crate::journal::{FsyncPolicy, JournalProbe};
        use dbp_core::algorithms::IndexedFirstFit;
        use dbp_core::probe::VerifyProbe;
        let mut b = InstanceBuilder::new(10);
        for i in 0..60u64 {
            b.add(i, i + 1 + (i * 7) % 23, 1 + (i * 5) % 9);
        }
        let inst = b.build().unwrap();
        let n = inst.len() as u64;
        let decisions = |reg: &MetricsRegistry| reg.histogram("dbp_decision_ns").unwrap().count();
        let wal = std::env::temp_dir().join(format!("dbp_timed_probe_{}.wal", std::process::id()));

        let mut counting = CountingProbe::new();
        simulate_probed(&inst, &mut IndexedFirstFit::new(), &mut counting);
        assert_eq!(counting.decisions_timed, n);

        let mut log = EventLog::new();
        simulate_probed(&inst, &mut FirstFit::new(), &mut log);
        assert_eq!(log.decision_ns().len() as u64, n);

        let mut metrics = MetricsProbe::new();
        simulate_probed(&inst, &mut IndexedFirstFit::new(), &mut metrics);
        assert_eq!(decisions(metrics.registry()), n);

        let journal = JournalProbe::create(&wal, FsyncPolicy::Never).unwrap();
        let mut pair = (journal, MetricsProbe::new());
        simulate_probed(&inst, &mut IndexedFirstFit::new(), &mut pair);
        assert_eq!(decisions(pair.1.registry()), n);
        assert!(pair.0.finish().unwrap() > 0);

        let mut counting = CountingProbe::new();
        let journal = JournalProbe::create(&wal, FsyncPolicy::Never).unwrap();
        let mut pair = (journal, &mut counting);
        simulate_probed(&inst, &mut IndexedFirstFit::new(), &mut pair);
        pair.0.finish().unwrap();
        assert_eq!(counting.decisions_timed, n);

        // A verified prefix is not timed again; the continuation is.
        let events = log.into_events();
        let prefix = events
            .iter()
            .position(|e| matches!(e, ProbeEvent::ItemDeparted { .. }));
        let prefix = &events[..prefix.unwrap()];
        let replayed = prefix
            .iter()
            .filter(|e| matches!(e, ProbeEvent::ItemArrived { .. }))
            .count() as u64;
        let mut counting = CountingProbe::new();
        let mut verify = VerifyProbe::new(prefix, &mut counting);
        simulate_probed(&inst, &mut FirstFit::new(), &mut verify);
        verify.finish().unwrap();
        assert!(replayed > 0);
        assert_eq!(counting.decisions_timed, n - replayed);

        // Event-only probes take no clock readings.
        let untimed = [
            <JournalProbe as Probe>::TIMED,
            <crate::sampler::TimeSeriesSampler as Probe>::TIMED,
            <(JournalProbe, JournalProbe) as Probe>::TIMED,
        ];
        assert_eq!(untimed, [false; 3]);
        std::fs::remove_file(&wal).unwrap();
    }

    #[test]
    fn metrics_probe_aggregates() {
        let inst = small_instance();
        let mut probe = MetricsProbe::new();
        let trace = simulate_probed(&inst, &mut FirstFit::new(), &mut probe);
        let reg = probe.registry();
        assert_eq!(
            reg.counter("dbp_bins_opened_total"),
            trace.bins_used() as u64
        );
        assert_eq!(reg.counter("dbp_items_placed_total"), inst.len() as u64);
        assert_eq!(reg.gauge("dbp_open_bins"), Some(0));
        assert!(reg.gauge("dbp_open_bins_peak").unwrap() >= 1);
        assert_eq!(
            reg.histogram("dbp_fit_scan_depth").unwrap().count(),
            inst.len() as u64
        );
        assert_eq!(
            reg.histogram("dbp_decision_ns").unwrap().count(),
            inst.len() as u64
        );
    }

    #[test]
    fn event_log_records_in_order() {
        let inst = small_instance();
        let mut log = EventLog::new();
        simulate_probed(&inst, &mut BestFit::new(), &mut log);
        assert!(!log.is_empty());
        // Ticks are non-decreasing along the stream.
        let ticks: Vec<u64> = log.events().iter().map(|e| e.at().0).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(log.decision_ns().len(), inst.len());
        assert_eq!(log.events().first().unwrap().kind(), "ItemArrived");
    }
}
