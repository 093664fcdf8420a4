//! Next Fit (NF): keep a single *current* bin; if the arriving item fits it,
//! use it, otherwise open a new bin which becomes current.
//!
//! NF is deliberately **not** an Any Fit algorithm — it may open a bin while
//! older bins still have room — and acts as the weak baseline in workload
//! comparisons (classical NF loses to FF in static packing too).

use crate::bin::{BinId, OpenBinView};
use crate::item::{ArrivingItem, Size};
use crate::packer::{BinSelector, Decision};

/// Next Fit packing. Stateful: remembers the current bin; when the current
/// bin closes (all items departed) the next arrival opens a fresh one.
#[derive(Debug, Clone, Copy, Default)]
pub struct NextFit {
    current: Option<BinId>,
    /// Number of bins this selector has opened so far. Engine bin ids are
    /// assigned sequentially across *all* bins ever opened (including closed
    /// ones), so counting our own `Open` decisions predicts the next id.
    opened: u32,
}

impl NextFit {
    /// Create a Next Fit selector.
    pub fn new() -> NextFit {
        NextFit {
            current: None,
            opened: 0,
        }
    }
}

impl BinSelector for NextFit {
    fn name(&self) -> &'static str {
        "NF"
    }

    fn select(&mut self, bins: &[OpenBinView], item: &ArrivingItem, _capacity: Size) -> Decision {
        if let Some(cur) = self.current {
            if let Ok(pos) = bins.binary_search_by_key(&cur, |b| b.id) {
                if bins[pos].fits(item.size) {
                    return Decision::Use(cur);
                }
            }
        }
        // The engine allocates ids sequentially over all bins ever opened;
        // since every opening goes through this selector, `opened` is the
        // next id.
        self.current = Some(BinId(self.opened));
        self.opened += 1;
        Decision::OPEN
    }

    fn on_bin_closed(&mut self, bin: BinId) {
        if self.current == Some(bin) {
            self.current = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::BinId;
    use crate::engine::simulate_validated;
    use crate::instance::InstanceBuilder;
    use crate::item::ItemId;

    #[test]
    fn nf_ignores_older_bins_with_room() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 2); // b0 (current), level 2
        b.add(1, 10, 9); // does not fit b0 -> b1 becomes current
        b.add(2, 10, 1); // fits b1 (9+1=10) -> b1, even though b0 has room
        b.add(3, 10, 5); // does not fit b1 -> b2, despite b0 having room
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut NextFit::new());
        assert_eq!(trace.bin_of(ItemId(2)), BinId(1));
        assert_eq!(trace.bin_of(ItemId(3)), BinId(2));
        assert_eq!(trace.bins_used(), 3);
    }

    #[test]
    fn nf_recovers_after_current_bin_closes() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 4); // b0, closes at 5
        b.add(6, 9, 4); // current is gone -> opens b1
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut NextFit::new());
        assert_eq!(trace.bins_used(), 2);
        assert_eq!(trace.max_open_bins(), 1);
    }

    #[test]
    fn nf_new_bin_becomes_current_with_nonempty_history() {
        // Regression guard for the next-id computation: ids keep counting
        // past closed bins.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 20, 6); // b0
        b.add(1, 3, 6); // -> b1 (current), closes at 3
        b.add(4, 8, 6); // current closed -> b2; must then be reused
        b.add(5, 8, 4); // fits b2 (6+4) -> b2
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut NextFit::new());
        assert_eq!(trace.bin_of(ItemId(2)), BinId(2));
        assert_eq!(trace.bin_of(ItemId(3)), BinId(2));
    }
}
