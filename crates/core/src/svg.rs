//! SVG rendering of packing traces: one lane per bin, one rectangle per
//! item, opacity by size — a publication-quality companion to the text
//! Gantt in [`gantt`](crate::gantt). No dependencies; the output is plain
//! hand-assembled SVG. Vector demands are drawn, and titled, by their
//! first (GPU) dimension.

use crate::demand::Demand;
use crate::instance::GInstance;
use crate::trace::GPackingTrace;
use std::fmt::Write as _;

/// Layout constants for the rendering.
#[derive(Debug, Clone, Copy)]
pub struct SvgOptions {
    /// Total drawing width in pixels (time axis).
    pub width: u32,
    /// Height of one bin lane in pixels.
    pub lane_height: u32,
    /// Vertical gap between lanes.
    pub lane_gap: u32,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 900,
            lane_height: 22,
            lane_gap: 4,
        }
    }
}

/// A categorical palette (color-blind friendly Okabe–Ito).
const PALETTE: [&str; 8] = [
    "#0072B2", "#E69F00", "#009E73", "#CC79A7", "#56B4E9", "#D55E00", "#F0E442", "#999999",
];

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render a trace as an SVG document. Each bin is a horizontal lane with a
/// light outline over its usage period; each item is a rectangle spanning
/// its interval, colored by bin tag and sized (vertically) by its share of
/// the capacity. Returns the SVG text.
pub fn render_svg<Sz: Demand>(
    instance: &GInstance<Sz>,
    trace: &GPackingTrace<Sz>,
    opts: SvgOptions,
) -> String {
    let Some(period) = instance.packing_period() else {
        return String::from("<svg xmlns=\"http://www.w3.org/2000/svg\"/>");
    };
    let t0 = period.start.raw();
    let t1 = period.end.raw().max(t0 + 1);
    let span = (t1 - t0) as f64;
    let label_w = 48u32;
    let plot_w = opts.width.saturating_sub(label_w).max(1) as f64;
    let x_of = |t: u64| label_w as f64 + (t.saturating_sub(t0)) as f64 / span * plot_w;

    let lane_pitch = (opts.lane_height + opts.lane_gap) as f64;
    let height = (trace.bins.len() as f64 * lane_pitch + opts.lane_gap as f64).ceil() as u32;
    let capacity = trace.capacity.component(0).max(1) as f64;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
         font-family=\"monospace\" font-size=\"11\">",
        opts.width, height
    );
    let _ = writeln!(
        svg,
        "<title>{} — {} bins, {} bin-ticks</title>",
        xml_escape(&trace.algorithm),
        trace.bins.len(),
        trace.total_cost_ticks()
    );

    for (lane, bin) in trace.bins.iter().enumerate() {
        let y = opts.lane_gap as f64 + lane as f64 * lane_pitch;
        // Usage-period outline.
        let (bx0, bx1) = (x_of(bin.opened_at.raw()), x_of(bin.closed_at.raw()));
        let _ = writeln!(
            svg,
            "<rect x=\"{bx0:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"{}\" \
             fill=\"none\" stroke=\"#bbb\" stroke-width=\"1\"/>",
            (bx1 - bx0).max(1.0),
            opts.lane_height
        );
        // Lane label.
        let _ = writeln!(
            svg,
            "<text x=\"2\" y=\"{:.1}\" fill=\"#444\">{}</text>",
            y + opts.lane_height as f64 * 0.7,
            bin.id
        );
        // Item rectangles, stacked by cumulative share of capacity (an
        // approximation: items stack in assignment order; exact per-instant
        // stacking would need fragment splitting, unnecessary for reading).
        let color = PALETTE[bin.tag.0 as usize % PALETTE.len()];
        for &id in &bin.items {
            let it = instance.item(id);
            let (ix0, ix1) = (x_of(it.arrival.raw()), x_of(it.departure.raw()));
            let h = (it.size.component(0) as f64 / capacity * opts.lane_height as f64).max(1.5);
            let _ = writeln!(
                svg,
                "<rect x=\"{ix0:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{h:.1}\" \
                 fill=\"{color}\" fill-opacity=\"0.45\" stroke=\"{color}\" \
                 stroke-width=\"0.5\"><title>{} s={} [{}, {})</title></rect>",
                y + 1.0,
                (ix1 - ix0).max(1.0),
                it.id,
                it.size.component(0),
                it.arrival.raw(),
                it.departure.raw()
            );
        }
    }
    svg.push_str("</svg>\n");
    svg
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
        b.add(0, 50, 6);
        b.add(5, 40, 6);
        b.add(10, 30, 4);
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        (inst, trace)
    }

    #[test]
    fn svg_has_one_outline_per_bin_and_one_rect_per_item() {
        let (inst, trace) = demo();
        let svg = render_svg(&inst, &trace, SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, trace.bins.len() + inst.len());
        let titles = svg.matches("<title>").count();
        assert_eq!(titles, 1 + inst.len());
    }

    #[test]
    fn svg_tags_are_balanced() {
        let (inst, trace) = demo();
        let svg = render_svg(&inst, &trace, SvgOptions::default());
        assert_eq!(svg.matches("<svg").count(), svg.matches("</svg>").count());
        assert_eq!(
            svg.matches("<title>").count(),
            svg.matches("</title>").count()
        );
        // Self-closing rects: no closing tag except those carrying titles.
        assert_eq!(
            svg.matches("</rect>").count(),
            inst.len() // item rects carry <title> children
        );
    }

    #[test]
    fn empty_instance_yields_minimal_svg() {
        let inst = Instance::new(crate::item::Size(5), vec![]).unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let svg = render_svg(&inst, &trace, SvgOptions::default());
        assert!(svg.contains("<svg"));
        assert!(!svg.contains("<rect"));
    }

    #[test]
    fn escape_handles_special_chars() {
        assert_eq!(xml_escape("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }
}
