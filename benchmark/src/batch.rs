//! The batch engine phase: the run's stream through `simulate` with the
//! indexed First Fit, Best Fit and Modified First Fit, and First Fit on the
//! same stream lifted to three resource dimensions. No sockets, no WAL:
//! the SoA arena and the selector indexes are the whole cost.

use dbp_core::algorithms::{
    selector_for, BestFit, FirstFit, IndexedBestFit, IndexedFirstFit, IndexedMff, ModifiedFirstFit,
};
use dbp_core::demand::{Demand, VSize};
use dbp_core::engine::{simulate, EngineRun};
use dbp_core::instance::GInstance;
use dbp_core::packer::BinSelector;
use dbp_core::probe::NoProbe;
use dbp_core::span::SpanRecorder;
use dbp_obs::span::{StageAggregator, StageBreakdown};
use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::inputs::Inputs;

/// The measured selectors, in report order.
const SELECTORS: [&str; 4] = ["ff", "bf", "mff", "ff_d3"];

/// Which implementation of a selector to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The O(log m) indexed selector: the measured engine.
    Indexed,
    /// The scanning selector: the reference the indexed bill must equal.
    Naive,
}

/// What one packing produced: the bill and the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bill {
    /// Σ bin open time, in bin-ticks: the paper's objective.
    pub cost_ticks: u128,
    /// Bins opened over the run.
    pub bins_used: usize,
    /// Most bins open at once.
    pub peak_open: u32,
}

/// One selector's measurements.
#[derive(Debug)]
pub struct Row {
    /// Selector key from [`SELECTORS`].
    pub key: &'static str,
    /// Items per second of every untraced repetition, one list per cycle.
    pub items_per_s: Vec<Vec<f64>>,
    /// Wall time of each untraced repetition.
    pub walls: Vec<Duration>,
    /// The bill every repetition must reproduce.
    pub bill: Option<Bill>,
    /// Engine stage spans and wall of the traced repetition.
    pub traced: Option<(StageBreakdown, Duration)>,
}

/// Span names the benchmark records around the engine's own stages.
pub mod layer {
    /// `EngineRun` construction: the event schedule sort and the arena.
    pub const SCHEDULE: &str = "schedule";
    /// The `EngineRun::step` loop. Its self time is the engine's event
    /// dispatch plus the recorder's bookkeeping for the nested spans.
    pub const EVENT_LOOP: &str = "event_loop";
    /// `EngineRun::finish`: materializing the packing trace.
    pub const FINISH: &str = "finish";
}

/// Pack the stream once with `key`'s `engine`; with `traced`, record the
/// engine's stages nested in the benchmark's own spans.
fn pack(
    inputs: &Inputs,
    key: &str,
    engine: Engine,
    traced: bool,
) -> (Duration, Bill, Option<StageBreakdown>) {
    if key == "ff_d3" {
        let name = match engine {
            Engine::Indexed => "FF-idx",
            Engine::Naive => "FF",
        };
        let sel = selector_for::<VSize<3>>(name).expect("First Fit runs at every dimensionality");
        return pack_with(&inputs.vector, sel, traced);
    }
    let sel: Box<dyn BinSelector> = match (key, engine) {
        ("ff", Engine::Indexed) => Box::new(IndexedFirstFit::new()),
        ("bf", Engine::Indexed) => Box::new(IndexedBestFit::new()),
        ("mff", Engine::Indexed) => Box::new(IndexedMff::new(8)),
        ("ff", Engine::Naive) => Box::new(FirstFit::new()),
        ("bf", Engine::Naive) => Box::new(BestFit::new()),
        ("mff", Engine::Naive) => Box::new(ModifiedFirstFit::new(8)),
        _ => unreachable!("unknown selector key {key}"),
    };
    pack_with(&inputs.instance, sel, traced)
}

/// One recorder shared by the engine and the benchmark, so the engine's
/// spans nest inside the benchmark's and self times stay exact.
struct Shared<'a>(&'a RefCell<StageAggregator>);

impl SpanRecorder for Shared<'_> {
    fn enter(&mut self, name: &'static str) {
        self.0.borrow_mut().enter(name);
    }

    fn exit(&mut self) {
        self.0.borrow_mut().exit();
    }
}

fn pack_with<Sz: Demand>(
    inst: &GInstance<Sz>,
    mut sel: Box<dyn BinSelector<Sz>>,
    traced: bool,
) -> (Duration, Bill, Option<StageBreakdown>) {
    let (wall, trace, spans) = if traced {
        let cell = RefCell::new(StageAggregator::new(0));
        let mut outer = Shared(&cell);
        let mut probe = NoProbe;
        let started = Instant::now();
        outer.enter(layer::SCHEDULE);
        let mut run = EngineRun::traced(inst, &mut *sel, &mut probe, Shared(&cell));
        outer.exit();
        outer.enter(layer::EVENT_LOOP);
        while run.step() {}
        outer.exit();
        outer.enter(layer::FINISH);
        let trace = run.finish();
        outer.exit();
        (started.elapsed(), trace, Some(cell.into_inner().finish()))
    } else {
        let started = Instant::now();
        let trace = simulate(inst, &mut *sel);
        (started.elapsed(), trace, None)
    };
    let bill = Bill {
        cost_ticks: trace.total_cost_ticks(),
        bins_used: trace.bins_used(),
        peak_open: trace.max_open_bins(),
    };
    (wall, bill, spans)
}

/// One empty row per selector.
pub fn rows() -> Vec<Row> {
    SELECTORS
        .iter()
        .map(|&key| Row {
            key,
            items_per_s: Vec::new(),
            walls: Vec::new(),
            bill: None,
            traced: None,
        })
        .collect()
}

/// Record `bill` as `row`'s bill, or report it if it differs from the bill
/// of an earlier repetition.
fn settle(row: &mut Row, bill: Bill) -> Option<String> {
    match row.bill {
        None => {
            row.bill = Some(bill);
            None
        }
        Some(first) if first != bill => Some(format!(
            "batch {}: a repetition billed {bill:?}, the first {first:?}",
            row.key
        )),
        Some(_) => None,
    }
}

/// One cycle's batch phase: rounds of every selector, interleaved so drift
/// hits all four alike, until `budget` is spent (at least one round).
/// Returns any repetition whose bill differs from the first.
pub fn measure(inputs: &Inputs, rows: &mut [Row], budget: Duration) -> Vec<String> {
    let items = inputs.instance.len() as f64;
    let mut failures = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    for row in rows.iter_mut() {
        row.items_per_s.push(Vec::new());
    }
    while rounds == 0 || started.elapsed() < budget {
        for row in rows.iter_mut() {
            let (wall, bill, _) = pack(inputs, row.key, Engine::Indexed, false);
            let cycle = row.items_per_s.last_mut().expect("pushed above");
            cycle.push(items / wall.as_secs_f64());
            row.walls.push(wall);
            failures.extend(settle(row, bill));
        }
        rounds += 1;
    }
    failures
}

/// One traced round: every selector's engine stages, stored in the rows.
pub fn trace(inputs: &Inputs, rows: &mut [Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows.iter_mut() {
        let (wall, bill, spans) = pack(inputs, row.key, Engine::Indexed, true);
        row.traced = spans.map(|b| (b, wall));
        failures.extend(settle(row, bill));
    }
    failures
}

/// The output check: every indexed bill, fleet and peak must equal the
/// naive scanning selector's on the same stream (untimed).
pub fn verify(inputs: &Inputs, rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter_map(|row| {
            let (_, naive, _) = pack(inputs, row.key, Engine::Naive, false);
            match row.bill {
                Some(bill) if bill == naive => None,
                got => Some(format!(
                    "batch {}: indexed billed {got:?}, naive {naive:?}",
                    row.key
                )),
            }
        })
        .collect()
}
