//! The online packing algorithm interface.
//!
//! The engine owns the bins and the accounting; an algorithm is a
//! [`BinSelector`] — a strategy that, given the current open bins and an
//! arriving item, either picks an open bin or asks for a new one. The
//! selector never sees departure times
//! ([`ArrivingItem`](crate::item::ArrivingItem) has none), which enforces
//! the online model of the paper by construction.

use crate::bin::{BinId, BinTag, GOpenBinView};
use crate::demand::Demand;
use crate::item::{GArrivingItem, Size};

/// The decision a selector makes for an arriving item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Pack the item into this open bin. The engine validates fit and
    /// panics on a selector bug (a bin that does not fit), since a wrong
    /// placement would silently corrupt every downstream measurement.
    Use(BinId),
    /// Open a new bin carrying `tag` and pack the item there.
    Open {
        /// Tag the new bin will carry for its whole lifetime.
        tag: BinTag,
    },
}

impl Decision {
    /// Open a new, untagged bin.
    pub const OPEN: Decision = Decision::Open {
        tag: BinTag::DEFAULT,
    };
}

/// An online packing strategy.
///
/// Implementations must be deterministic given their construction (randomized
/// strategies own a seeded RNG), so that every experiment is reproducible.
///
/// ## State-change notifications
///
/// Beyond [`select`](BinSelector::select), the engine notifies the selector
/// of every bin state change it performs: [`on_bin_opened`],
/// [`on_item_placed`], [`on_item_departed`] and [`on_bin_closed`]. Plain
/// selectors ignore them (the defaults are no-ops); *indexed* selectors
/// (`crate::algorithms::indexed`) use them to maintain O(log m) search
/// structures and return `false` from [`needs_views`], which lets the
/// engine skip open-bin view maintenance entirely on the hot path.
///
/// Every hook is invoked by the one event core
/// ([`EventCore`](crate::streaming::EventCore)), whichever driver feeds
/// it; a hook referring to a bin id the selector has never seen opened
/// must be tolerated (the fault layer burns ids on failed boots).
///
/// [`on_bin_opened`]: BinSelector::on_bin_opened
/// [`on_item_placed`]: BinSelector::on_item_placed
/// [`on_item_departed`]: BinSelector::on_item_departed
/// [`on_bin_closed`]: BinSelector::on_bin_closed
/// [`needs_views`]: BinSelector::needs_views
///
/// Selectors are `Send`: a live daemon's shard pipeline, selector
/// included, is served from whichever connection thread holds its lock.
pub trait BinSelector<Sz: Demand = Size>: Send {
    /// Short stable name used in reports ("FF", "BF", ...).
    fn name(&self) -> &'static str;

    /// Choose where the arriving `item` goes. `bins` holds *all* currently
    /// open bins in opening order (ascending id); the selector is
    /// responsible for checking fit via
    /// [`OpenBinView::fits`](GOpenBinView::fits). `capacity` is the public
    /// bin capacity `W` (needed e.g. by MFF's size classification even when
    /// no bin is open yet).
    ///
    /// When [`needs_views`](BinSelector::needs_views) is `false`, `bins`
    /// may be empty regardless of the true open set — the selector answers
    /// from its own hook-maintained index.
    fn select(
        &mut self,
        bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision;

    /// Whether this selector reads the `bins` slice passed to
    /// [`select`](BinSelector::select). Must be constant for the lifetime
    /// of the selector. Indexed selectors return `false`, letting the
    /// engine drop per-arrival view maintenance from the hot path.
    fn needs_views(&self) -> bool {
        true
    }

    /// Notification that a new bin materialized carrying `tag`, holding its
    /// first item (bin level = `level`). Follows the selector's own
    /// `Decision::Open` under the engine; under fault injection a delayed
    /// boot may deliver it later, or never (failed boot — see
    /// [`on_bin_closed`](BinSelector::on_bin_closed)).
    fn on_bin_opened(&mut self, _bin: BinId, _tag: BinTag, _level: Sz) {}

    /// Notification that an item was added to an already open bin; `level`
    /// is the bin's level *after* the placement.
    fn on_item_placed(&mut self, _bin: BinId, _level: Sz) {}

    /// Notification that an item left its bin; `level` is the bin's level
    /// *after* the departure. If the bin closes as a result,
    /// [`on_bin_closed`](BinSelector::on_bin_closed) follows immediately.
    fn on_item_departed(&mut self, _bin: BinId, _level: Sz) {}

    /// Notification that a bin is gone: it emptied and was closed, crashed
    /// (fault injection, possibly non-empty), or its id was burned by a
    /// failed boot without ever opening. Ids are never reused.
    fn on_bin_closed(&mut self, _bin: BinId) {}

    /// Whether the strategy belongs to the Any Fit family: it never opens a
    /// new bin while some open bin can accommodate the item. This is a
    /// *claim* checked by property tests, not an enforcement.
    fn is_any_fit(&self) -> bool {
        false
    }
}

/// Blanket impl so `&mut S` can be passed where a selector is expected.
impl<Sz: Demand, S: BinSelector<Sz> + ?Sized> BinSelector<Sz> for &mut S {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn select(
        &mut self,
        bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        (**self).select(bins, item, capacity)
    }
    fn needs_views(&self) -> bool {
        (**self).needs_views()
    }
    fn on_bin_opened(&mut self, bin: BinId, tag: BinTag, level: Sz) {
        (**self).on_bin_opened(bin, tag, level)
    }
    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        (**self).on_item_placed(bin, level)
    }
    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        (**self).on_item_departed(bin, level)
    }
    fn on_bin_closed(&mut self, bin: BinId) {
        (**self).on_bin_closed(bin)
    }
    fn is_any_fit(&self) -> bool {
        (**self).is_any_fit()
    }
}

/// Forwarding impl so `Box<dyn BinSelector>` is itself a selector — the
/// streaming engine owns its selector, and long-running daemons pick the
/// algorithm at run time.
impl<Sz: Demand, S: BinSelector<Sz> + ?Sized> BinSelector<Sz> for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn select(
        &mut self,
        bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        (**self).select(bins, item, capacity)
    }
    fn needs_views(&self) -> bool {
        (**self).needs_views()
    }
    fn on_bin_opened(&mut self, bin: BinId, tag: BinTag, level: Sz) {
        (**self).on_bin_opened(bin, tag, level)
    }
    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        (**self).on_item_placed(bin, level)
    }
    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        (**self).on_item_departed(bin, level)
    }
    fn on_bin_closed(&mut self, bin: BinId) {
        (**self).on_bin_closed(bin)
    }
    fn is_any_fit(&self) -> bool {
        (**self).is_any_fit()
    }
}

/// A boxed factory for selectors, letting experiment harnesses iterate over
/// algorithm families generically.
pub struct GSelectorFactory<Sz: Demand> {
    name: &'static str,
    make: Box<dyn Fn() -> Box<dyn BinSelector<Sz>> + Send + Sync>,
}

/// The scalar selector factory.
pub type SelectorFactory = GSelectorFactory<Size>;

impl<Sz: Demand> GSelectorFactory<Sz> {
    /// Wrap a constructor closure under a roster name.
    pub fn new(
        name: &'static str,
        make: impl Fn() -> Box<dyn BinSelector<Sz>> + Send + Sync + 'static,
    ) -> GSelectorFactory<Sz> {
        GSelectorFactory {
            name,
            make: Box::new(make),
        }
    }

    /// The roster name of this factory.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Construct a fresh selector.
    pub fn build(&self) -> Box<dyn BinSelector<Sz>> {
        (self.make)()
    }
}

impl<Sz: Demand> core::fmt::Debug for GSelectorFactory<Sz> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SelectorFactory")
            .field("name", &self.name)
            .finish()
    }
}
