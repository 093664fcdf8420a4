//! # dbp-obs — observability for the MinTotal DBP engine
//!
//! Consumers of the [`Probe`](dbp_core::probe::Probe) seam in `dbp-core`:
//!
//! * [`recorder`] — [`EventLog`] (full event capture),
//!   [`CountingProbe`] (per-kind counters for
//!   invariant tests), [`MetricsProbe`] (streaming
//!   aggregation into a registry);
//! * [`metrics`] — counters, gauges, and exact integer histograms with
//!   Prometheus text rendering;
//! * [`sampler`] — [`TimeSeriesSampler`], the
//!   exact step functions `n(t)` (the paper's `A(R,t)`), used capacity,
//!   and waste;
//! * [`codec`] — the canonical byte encoding of one event, shared by
//!   journal frames and JSONL lines, with a strict decoder;
//! * [`export`] — atomic JSONL / Prometheus / JSON writers and parsers;
//! * [`journal`] — the crash-safe write-ahead event journal
//!   (length-prefixed + CRC32-framed records, torn-tail-tolerant reader);
//! * [`replay`] — journal audit ([`replay_events`](replay::replay_events))
//!   from the events alone (a resume re-executes the run under a
//!   `VerifyProbe` over the whole sound journal instead);
//! * [`manifest`] — [`RunManifest`] provenance
//!   records, the `run_all` sweep manifest, and the sweep resume
//!   checkpoint;
//! * [`span`] — consumers of the `SpanRecorder` seam:
//!   [`SpanCollector`] (full capture, Chrome-trace
//!   export), [`StageAggregator`] (streaming
//!   per-stage histograms), and the ranked
//!   [`StageBreakdown`] self-time table;
//! * [`timeline`] — the `dbp trace` timeline renderer.
//!
//! Probes compose with the tuple combinator from `dbp-core`, so one
//! simulation pass can feed several consumers:
//!
//! ```
//! use dbp_core::prelude::*;
//! use dbp_obs::prelude::*;
//!
//! let mut b = InstanceBuilder::new(10);
//! b.add(0, 40, 6);
//! b.add(5, 25, 6);
//! let instance = b.build().unwrap();
//!
//! let mut probe = (EventLog::new(), MetricsProbe::new());
//! let trace = simulate_probed(&instance, &mut FirstFit::new(), &mut probe);
//! let (log, metrics) = probe;
//! assert_eq!(
//!     metrics.registry().counter("dbp_bins_opened_total"),
//!     trace.bins_used() as u64
//! );
//! let jsonl = dbp_obs::export::events_to_jsonl(log.events());
//! assert_eq!(dbp_obs::export::parse_jsonl(&jsonl).unwrap(), log.events());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod export;
pub mod journal;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod replay;
pub mod sampler;
pub mod span;
pub mod timeline;

pub use journal::{
    peek_journal_dims, read_journal_dims, FsyncPolicy, GJournalContents, JournalContents,
    JournalProbe, JournalWriter,
};
pub use manifest::{
    instance_digest, ExperimentManifest, ExperimentRecord, ExperimentStatus, RunManifest,
    SweepCheckpoint,
};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{CountingProbe, EventLog, GEventLog, MetricsProbe};
pub use replay::{per_dim_demand_ticks, replay_events_dims, ReplaySummary};
pub use sampler::{Sample, TimeSeriesSampler};
pub use span::{
    chrome_trace_json, SpanCollector, StageAggregator, StageBreakdown, StageRow, StageStats,
};

/// Everything most users need, in one import.
pub mod prelude {
    pub use crate::export::{events_to_jsonl, parse_jsonl, read_jsonl, write_jsonl};
    pub use crate::journal::{
        read_journal, FsyncPolicy, JournalContents, JournalProbe, JournalWriter,
    };
    pub use crate::manifest::{instance_digest, ExperimentManifest, RunManifest, SweepCheckpoint};
    pub use crate::metrics::{Histogram, MetricsRegistry};
    pub use crate::recorder::{CountingProbe, EventLog, MetricsProbe};
    pub use crate::replay::replay_events;
    pub use crate::sampler::{Sample, TimeSeriesSampler};
    pub use crate::span::{
        chrome_trace_json, SpanCollector, StageAggregator, StageBreakdown, StageRow,
    };
    pub use crate::timeline::render_timeline;
}
