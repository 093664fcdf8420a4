//! Zero-cost structured-span seam for the packing pipeline.
//!
//! Where [`Probe`](crate::probe::Probe) streams *what happened* (typed
//! engine events), a [`SpanRecorder`] captures *where the wall-clock time
//! went*: nested `enter`/`exit` intervals named after pipeline stages
//! ([`stage`]), recorded per thread and merged lock-free at report time —
//! each shard owns its recorder for the whole run, and the fan-in step
//! simply collects the finished recorders in shard order, the same
//! merge-at-report-time design the cluster uses for metrics registries.
//!
//! ## Zero cost when off
//!
//! The seam follows the probe contract exactly: every emission site is
//! guarded by `if R::ENABLED`, an associated `const` that is `false` for
//! [`NoSpans`], so the optimizer deletes the guarded blocks — including
//! every timestamp read. `simulate` therefore compiles to the same code
//! whether the span seam exists or not; the `packing_throughput` benchmark
//! (`span_overhead` group) keeps this honest.
//!
//! ## Who implements it
//!
//! `dbp-core` only defines the seam and the stage-name vocabulary.
//! Recorders live in `dbp-obs`: `SpanCollector` (full span capture for
//! Chrome-trace export) and `StageAggregator` (streaming per-stage
//! histograms for benches that cannot afford to buffer millions of spans).

/// One completed span: a named interval on one shard's timeline.
///
/// `start_ns` is relative to the recorder's epoch (shared across a cluster
/// run so shard streams merge onto one timeline); `parent` is the index of
/// the enclosing span in the same stream, or [`SpanEvent::ROOT`] for a
/// top-level span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (one of the [`stage`] constants, by convention).
    pub name: &'static str,
    /// Shard lane the span was recorded on (`u32::MAX` = the driver).
    pub shard: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span in the same stream, or [`SpanEvent::ROOT`].
    pub parent: u32,
}

impl SpanEvent {
    /// Sentinel `parent` value for spans with no enclosing span.
    pub const ROOT: u32 = u32::MAX;

    /// End of the span, nanoseconds since the epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Canonical stage names, so every layer of the pipeline agrees on the
/// span taxonomy and consumers can rank/merge across shards by name.
pub mod stage {
    /// Whole arrival handling in the core engine (contains `decide`+`place`).
    pub const ARRIVAL: &str = "arrival";
    /// The `BinSelector::select` call alone.
    pub const DECIDE: &str = "decide";
    /// Placement bookkeeping: state update, view maintenance, probe events.
    pub const PLACE: &str = "place";
    /// One departure: state update, view maintenance, possible bin close.
    pub const DEPARTURE: &str = "departure";
    /// Cluster driver: router assignment + instance restriction.
    pub const PARTITION: &str = "partition";
    /// Cluster driver: the router's item→shard assignment alone.
    pub const ROUTE: &str = "route";
    /// Cluster driver: building the per-shard work units (batch handoff).
    pub const BATCH_ENQUEUE: &str = "batch_enqueue";
    /// Cluster driver: the bounded pool running all shards (wall of the
    /// parallel section).
    pub const DISPATCH: &str = "dispatch";
    /// Per shard: time between pool start and a worker claiming the shard.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Per shard: a worker actively running the shard (claim → done).
    pub const SHARD_BUSY: &str = "shard_busy";
    /// Per shard: trace self-validation after the run.
    pub const VALIDATE: &str = "validate";
    /// Per shard: building the shard's `SystemReport` (billing, manifest).
    pub const REPORT_BUILD: &str = "report_build";
    /// Cluster driver: collecting shard outcomes and summing the ledger.
    pub const FAN_IN: &str = "fan_in";
    /// Cluster driver: capturing the merged run manifest (inside fan-in).
    pub const MANIFEST_MERGE: &str = "manifest_merge";
    /// Journal: serializing + appending one framed record.
    pub const JOURNAL_APPEND: &str = "journal_append";
    /// Journal: flush + fsync (nested in `journal_append` when policy-due).
    pub const JOURNAL_FSYNC: &str = "journal_fsync";
    /// Cloudsim: one retry batch firing (backoff expiry → re-dispatch).
    pub const RETRY: &str = "retry";
    /// Cloudsim: re-dispatching the orphans of one crash.
    pub const REDISPATCH: &str = "redispatch";
    /// Per shard: re-executing a killed shard's WAL under verification.
    pub const SHARD_REPLAY: &str = "shard_replay";
    /// Cluster driver: re-routing a dead shard's unarrived sessions onto
    /// the healthy shards.
    pub const REROUTE: &str = "reroute";
}

/// Receiver of `enter`/`exit` stage boundaries. The recorder takes its own
/// timestamps, so instrumentation sites stay two guarded calls with no
/// clock reads of their own.
///
/// `exit` calls must pair with the most recent unmatched `enter` (spans
/// nest properly); recorders may debug-assert this but must not panic in
/// release builds on unbalanced streams — a best-effort trace beats a dead
/// engine.
pub trait SpanRecorder {
    /// Compile-time switch: when `false`, instrumentation sites skip both
    /// the call and the timestamp read entirely.
    const ENABLED: bool = true;

    /// Open a span named `name` nested under the current open span.
    fn enter(&mut self, name: &'static str);

    /// Close the most recently opened span.
    fn exit(&mut self);
}

/// The default recorder: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpans;

impl SpanRecorder for NoSpans {
    const ENABLED: bool = false;

    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}

    #[inline(always)]
    fn exit(&mut self) {}
}

impl<R: SpanRecorder> SpanRecorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    fn enter(&mut self, name: &'static str) {
        (**self).enter(name);
    }

    fn exit(&mut self) {
        (**self).exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nospans_is_disabled_and_forwarding_preserves_the_flag() {
        let flags = [NoSpans::ENABLED, <&mut NoSpans as SpanRecorder>::ENABLED];
        assert_eq!(flags, [false, false]);

        struct Depth(i32, i32);
        impl SpanRecorder for Depth {
            fn enter(&mut self, _: &'static str) {
                self.0 += 1;
                self.1 = self.1.max(self.0);
            }
            fn exit(&mut self) {
                self.0 -= 1;
            }
        }
        const { assert!(<&mut Depth as SpanRecorder>::ENABLED) };
        let mut d = Depth(0, 0);
        let fwd = &mut d;
        fwd.enter(stage::ARRIVAL);
        fwd.enter(stage::DECIDE);
        fwd.exit();
        fwd.exit();
        assert_eq!((d.0, d.1), (0, 2));
    }

    #[test]
    fn span_event_accessors() {
        let ev = SpanEvent {
            name: stage::DECIDE,
            shard: 3,
            start_ns: 100,
            dur_ns: 40,
            parent: SpanEvent::ROOT,
        };
        assert_eq!(ev.end_ns(), 140);
        assert_eq!(ev.parent, u32::MAX);
    }
}
