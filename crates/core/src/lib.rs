//! # MinTotal Dynamic Bin Packing — core library
//!
//! Implementation of the model and algorithms of **"On Dynamic Bin Packing
//! for Resource Allocation in the Cloud"** (Li, Tang, Cai — SPAA 2014).
//!
//! In the MinTotal DBP problem, items (cloud-gaming play requests) arrive
//! and depart over time, each with a size; bins (rented servers) have
//! capacity `W` and cost proportional to the duration they stay open. The
//! objective is the **total bin-time cost** `∫ n(t) dt` — not the classical
//! "maximum bins ever open". Items are packed online, without knowledge of
//! departure times, and never migrate.
//!
//! ## Table 1 notation map
//!
//! | Paper | Here |
//! |---|---|
//! | `a(r)`, `d(r)`, `s(r)` | [`Item::arrival`], [`Item::departure`], [`Item::size`] |
//! | `I(r)`, `len(I(r))` | [`Item::interval`], [`Item::interval_len`] |
//! | `u(r) = s(r)·len(I(r))` | [`Item::demand`] |
//! | `span(R)` | [`Instance::span`] |
//! | `u(R)` | [`Instance::total_demand`] |
//! | `W`, `C` | [`Instance::capacity`]; cost rate `C` cancels in every ratio and is applied by `dbp-cloudsim` billing |
//! | µ | [`Instance::mu`] |
//! | `A(R,t)` | [`PackingTrace::open_bins_at`] |
//! | `A_total(R)` | [`PackingTrace::total_cost_ticks`] |
//! | `OPT(R,t)`, `OPT_total(R)` | `dbp-opt::{opt_at, opt_total}` |
//! | bin configurations `⟨x₁|y₁, …⟩` | [`trace::BinRecord`] + instance sizes |
//!
//! ## Crate layout
//!
//! * [`time`], [`ratio`] — exact tick/rational arithmetic (no floats in any
//!   measured quantity);
//! * [`item`], [`instance`] — the problem model;
//! * [`events`], [`engine`], [`trace`] — the online simulation engine;
//! * [`algorithms`] — First/Best/Worst/Next/Last/Random/Most-Items Fit,
//!   Modified First Fit (§4.4) and Constrained First Fit (§5 extension);
//! * [`bounds`] — bounds (b.1)–(b.3) and every theorem's closed form;
//! * [`clairvoyant`] — departure-aware baselines bridging to the
//!   interval-scheduling related work;
//! * [`analysis`] — the §4.3 proof machinery, executable and checkable;
//! * [`metrics`] — run summaries for experiment tables.
//!
//! ## Quickstart
//!
//! ```
//! use dbp_core::prelude::*;
//!
//! // Three play requests on servers of capacity 10.
//! let mut b = InstanceBuilder::new(10);
//! b.add(0, 40, 6); // arrival, departure, size
//! b.add(5, 25, 6);
//! b.add(10, 35, 4);
//! let instance = b.build().unwrap();
//!
//! let trace = simulate_validated(&instance, &mut FirstFit::new());
//! assert_eq!(trace.bins_used(), 2);
//! let cost = trace.total_cost_ticks(); // exact ∫ n(t) dt
//! assert!(cost >= instance.span().raw() as u128); // bound (b.2)
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod analysis;
pub mod bin;
pub mod bounds;
pub mod clairvoyant;
pub mod demand;
pub mod engine;
pub mod event_core;
pub mod events;
pub mod gantt;
pub mod instance;
pub mod item;
pub mod metrics;
pub mod packer;
pub mod probe;
#[cfg(test)]
mod proptests;
pub mod ratio;
pub mod span;
pub mod svg;
pub mod time;
pub mod trace;

pub use bin::{BinId, BinTag, GOpenBinView, OpenBinView};
pub use demand::{scalar_of, vec1_of, Demand, VSize};
pub use engine::{
    any_fit_violations, simulate, simulate_probed, simulate_validated, simulate_validated_probed,
    EngineRun,
};
pub use event_core::EventCore;
pub use instance::{
    GInstance, GInstanceBuilder, GInstanceError, GInstanceStats, Instance, InstanceBuilder,
    InstanceError, InstanceStats,
};
pub use item::{ArrivingItem, GArrivingItem, GItem, Item, ItemId, RegionId, Size};
pub use packer::{BinSelector, Decision, GSelectorFactory, SelectorFactory};
pub use probe::{DropReason, GProbeEvent, NoProbe, Probe, ProbeEvent, VerifyProbe};
pub use ratio::Ratio;
pub use span::{NoSpans, SpanEvent, SpanRecorder};
pub use time::{Dur, Interval, Tick};
pub use trace::{BinRecord, GPackingTrace, PackingTrace};

/// Everything most users need, in one import.
pub mod prelude {
    pub use crate::algorithms::{
        BestFit, ConstrainedFirstFit, DominanceFit, FirstFit, HarmonicFit, LastFit,
        ModifiedFirstFit, MostItemsFit, NextFit, RandomFit, WorstFit,
    };
    pub use crate::bin::{BinId, BinTag, GOpenBinView, OpenBinView};
    pub use crate::bounds;
    pub use crate::demand::{scalar_of, vec1_of, Demand, VSize};
    pub use crate::engine::{
        any_fit_violations, simulate, simulate_probed, simulate_validated,
        simulate_validated_probed, EngineRun,
    };
    pub use crate::instance::{GInstance, GInstanceBuilder, Instance, InstanceBuilder};
    pub use crate::item::{ArrivingItem, GArrivingItem, GItem, Item, ItemId, RegionId, Size};
    pub use crate::metrics::{summarize, RunSummary};
    pub use crate::packer::{BinSelector, Decision, SelectorFactory};
    pub use crate::probe::{DropReason, NoProbe, Probe, ProbeEvent};
    pub use crate::ratio::Ratio;
    pub use crate::span::{NoSpans, SpanEvent, SpanRecorder};
    pub use crate::time::{Dur, Interval, Tick};
    pub use crate::trace::PackingTrace;
}
