//! Text Gantt rendering of packing traces — one row per bin, a compressed
//! time axis, and per-cell fill levels. Used by `dbp run --gantt` and handy
//! when staring at adversarial constructions. Vector demands draw their
//! first (GPU) dimension.

use crate::demand::Demand;
use crate::instance::GInstance;
use crate::time::Tick;
use crate::trace::GPackingTrace;

/// Render `trace` as a text Gantt chart with `width` columns.
///
/// Cell glyphs encode the bin's fill level over that time slice:
/// `·` closed, `░` ≤ 25%, `▒` ≤ 50%, `▓` ≤ 75%, `█` > 75% (max level within
/// the slice).
///
/// # Panics
/// Panics if `width == 0`.
pub fn render_gantt<Sz: Demand>(
    instance: &GInstance<Sz>,
    trace: &GPackingTrace<Sz>,
    width: usize,
) -> String {
    assert!(width > 0, "gantt width must be positive");
    let Some(period) = instance.packing_period() else {
        return String::from("(empty instance)\n");
    };
    let start = period.start.raw();
    let end = period.end.raw().max(start + 1);
    let span = end - start;
    let capacity = trace.capacity.component(0).max(1);

    let col_of = |t: u64| -> usize {
        (((t.saturating_sub(start)) as u128 * width as u128) / span as u128) as usize
    };

    let mut out = String::new();
    out.push_str(&format!(
        "time [{start}, {end}) -> {width} cols, {} bins, cost {} bin-ticks\n",
        trace.bins.len(),
        trace.total_cost_ticks()
    ));
    for bin in &trace.bins {
        // Max level per column while the bin is open.
        let mut level_per_col = vec![None::<u64>; width];
        // Walk the bin's item intervals: level changes only at arrivals and
        // departures of its own items.
        let mut events: Vec<(u64, i64)> = Vec::new();
        for &id in &bin.items {
            let it = instance.item(id);
            events.push((it.arrival.raw(), it.size.component(0) as i64));
            events.push((it.departure.raw(), -(it.size.component(0) as i64)));
        }
        events.sort_unstable();
        let mut level: i64 = 0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                level += events[i].1;
                i += 1;
            }
            let until = events.get(i).map(|e| e.0).unwrap_or(t);
            if level > 0 {
                let (c0, c1) = (col_of(t), col_of(until.max(t + 1)).min(width - 1));
                for cell in level_per_col.iter_mut().take(c1.max(c0) + 1).skip(c0) {
                    let lv = cell.unwrap_or(0).max(level as u64);
                    *cell = Some(lv);
                }
            }
        }
        out.push_str(&format!("{:>5} |", bin.id.to_string()));
        for cell in &level_per_col {
            out.push(match cell {
                None => '·',
                Some(lv) => {
                    let q = lv * 4 / capacity;
                    match q {
                        0 => '░',
                        1 => '▒',
                        2 | 3 => '▓',
                        _ => '█',
                    }
                }
            });
        }
        out.push('\n');
    }
    out
}

/// The open-bin count over time as a sparkline (one char per step change).
pub fn sparkline<Sz: Demand>(trace: &GPackingTrace<Sz>) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = trace.max_open_bins().max(1);
    trace
        .open_bins_steps
        .iter()
        .map(|&(_, n)| {
            let idx = (n as usize * (GLYPHS.len() - 1)) / max as usize;
            GLYPHS[idx]
        })
        .collect()
}

/// Number of open bins at evenly spaced sample ticks — a plottable series.
pub fn open_bins_series<Sz: Demand>(trace: &GPackingTrace<Sz>, samples: usize) -> Vec<(Tick, u32)> {
    let Some(&(first, _)) = trace.open_bins_steps.first() else {
        return Vec::new();
    };
    let &(last, _) = trace.open_bins_steps.last().unwrap();
    let span = (last.raw().saturating_sub(first.raw())).max(1);
    (0..samples)
        .map(|i| {
            let t = Tick(first.raw() + span * i as u64 / samples.max(1) as u64);
            (t, trace.open_bins_at(t))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FirstFit;
    use crate::engine::simulate_validated;
    use crate::instance::{Instance, InstanceBuilder};
    use crate::trace::PackingTrace;

    fn demo() -> (Instance, PackingTrace) {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 100, 6);
        b.add(0, 40, 6);
        b.add(50, 100, 9);
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        (inst, trace)
    }

    #[test]
    fn gantt_has_one_row_per_bin() {
        let (inst, trace) = demo();
        let g = render_gantt(&inst, &trace, 40);
        let rows: Vec<&str> = g.lines().collect();
        assert_eq!(rows.len(), 1 + trace.bins.len());
        assert!(rows[0].contains("cost"));
        // Every bin row has exactly width glyph cells after the label.
        for row in &rows[1..] {
            let cells = row.split('|').nth(1).unwrap();
            assert_eq!(cells.chars().count(), 40);
        }
    }

    #[test]
    fn closed_periods_render_as_dots() {
        let (inst, trace) = demo();
        let g = render_gantt(&inst, &trace, 50);
        // Bin 1 (the size-6 item departing at 40) must be dotted in the
        // second half of the axis.
        let row_b1 = g.lines().nth(2).unwrap();
        let cells: Vec<char> = row_b1.split('|').nth(1).unwrap().chars().collect();
        assert_eq!(cells[45], '·');
        assert_ne!(cells[5], '·');
    }

    #[test]
    fn sparkline_length_matches_steps() {
        let (_, trace) = demo();
        assert_eq!(
            sparkline(&trace).chars().count(),
            trace.open_bins_steps.len()
        );
    }

    #[test]
    fn series_samples_are_monotone_in_time() {
        let (_, trace) = demo();
        let series = open_bins_series(&trace, 20);
        assert_eq!(series.len(), 20);
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
        // Values agree with direct queries.
        for (t, n) in series {
            assert_eq!(trace.open_bins_at(t), n);
        }
    }

    #[test]
    fn empty_instance_renders_placeholder() {
        let inst = Instance::new(crate::item::Size(5), vec![]).unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        assert_eq!(render_gantt(&inst, &trace, 10), "(empty instance)\n");
        assert!(open_bins_series(&trace, 5).is_empty());
    }
}
