//! Problem instances: an item list `R` plus the bin capacity `W`.
//!
//! The instance owns everything the *offline* adversary knows. Aggregate
//! statistics defined in §3.1 of the paper — `span(R)`, `u(R)`, the max/min
//! interval-length ratio µ — are computed here exactly.

use crate::demand::Demand;
use crate::item::{GItem, Item, ItemId, RegionId, Size};
use crate::ratio::Ratio;
use crate::time::{union_intervals, union_length, Dur, Interval, Tick};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Validation errors for [`Instance::new`], generic over the demand type
/// (scalar via the [`InstanceError`] alias).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GInstanceError<Sz> {
    /// The capacity must be positive.
    ZeroCapacity,
    /// Item ids must equal their index in the list.
    BadItemId {
        /// Index in the item list where the mismatch occurred.
        index: usize,
        /// The id actually found there.
        found: ItemId,
    },
    /// `d(r) > a(r)` must hold for every item.
    EmptyInterval {
        /// The offending item.
        id: ItemId,
    },
    /// Items must have positive size.
    ZeroSize {
        /// The offending item.
        id: ItemId,
    },
    /// No single item may exceed the bin capacity in any dimension.
    Oversized {
        /// The offending item.
        id: ItemId,
        /// Its size.
        size: Sz,
        /// The bin capacity it exceeds.
        capacity: Sz,
    },
}

/// The scalar instance-validation error of the source paper's model.
pub type InstanceError = GInstanceError<Size>;

impl<Sz: fmt::Display> fmt::Display for GInstanceError<Sz> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GInstanceError::ZeroCapacity => {
                write!(f, "bin capacity must be positive in every dimension")
            }
            GInstanceError::BadItemId { index, found } => {
                write!(f, "item at index {index} has id {found}, expected r{index}")
            }
            GInstanceError::EmptyInterval { id } => {
                write!(f, "item {id} has departure <= arrival")
            }
            GInstanceError::ZeroSize { id } => write!(f, "item {id} has zero size"),
            GInstanceError::Oversized { id, size, capacity } => {
                write!(f, "item {id} has size {size} > capacity {capacity}")
            }
        }
    }
}

impl<Sz: fmt::Debug + fmt::Display> std::error::Error for GInstanceError<Sz> {}

/// An immutable, validated MinTotal DBP instance, generic over the demand
/// type (scalar via the [`Instance`] alias, vector via
/// [`VSize<D>`](crate::demand::VSize)).
///
/// Deserialization goes through [`GInstance::new`], so an instance file
/// that breaks the model (zero capacity or size, `d(r) <= a(r)`, an item
/// larger than a bin, ids out of order) is a typed error, not an instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GInstance<Sz> {
    capacity: Sz,
    items: Vec<GItem<Sz>>,
}

impl<Sz: Demand> Deserialize for GInstance<Sz> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if !v.is_object() {
            return Err(serde::Error::custom(format!(
                "expected object for GInstance, got {}",
                v.kind()
            )));
        }
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{name}` in GInstance")))
        };
        let capacity = Sz::from_value(field("capacity")?)?;
        let items = Vec::<GItem<Sz>>::from_value(field("items")?)?;
        GInstance::new(capacity, items)
            .map_err(|e| serde::Error::custom(format!("invalid instance: {e}")))
    }
}

/// The scalar instance of the source paper.
pub type Instance = GInstance<Size>;

impl<Sz: Demand> GInstance<Sz> {
    /// Validate and build an instance. Items keep their given order — the
    /// order is meaningful: simultaneous arrivals are presented to online
    /// algorithms in list order (the adversarial constructions rely on it).
    pub fn new(capacity: Sz, items: Vec<GItem<Sz>>) -> Result<GInstance<Sz>, GInstanceError<Sz>> {
        if capacity.has_zero_component() {
            return Err(GInstanceError::ZeroCapacity);
        }
        for (index, it) in items.iter().enumerate() {
            if it.id.index() != index {
                return Err(GInstanceError::BadItemId {
                    index,
                    found: it.id,
                });
            }
            if it.departure <= it.arrival {
                return Err(GInstanceError::EmptyInterval { id: it.id });
            }
            if it.size.is_zero() {
                return Err(GInstanceError::ZeroSize { id: it.id });
            }
            if !it.size.fits_within(capacity) {
                return Err(GInstanceError::Oversized {
                    id: it.id,
                    size: it.size,
                    capacity,
                });
            }
        }
        Ok(GInstance { capacity, items })
    }

    /// Bin capacity `W`.
    #[inline]
    pub fn capacity(&self) -> Sz {
        self.capacity
    }

    #[inline]
    /// The items, in instance (arrival-presentation) order.
    pub fn items(&self) -> &[GItem<Sz>] {
        &self.items
    }

    #[inline]
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    /// Whether the instance has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    #[inline]
    /// Look up an item by id.
    pub fn item(&self, id: ItemId) -> &GItem<Sz> {
        &self.items[id.index()]
    }

    /// Start of the packing period: `min a(r)`.
    pub fn first_arrival(&self) -> Option<Tick> {
        self.items.iter().map(|r| r.arrival).min()
    }

    /// End of the packing period: `max d(r)`.
    pub fn last_departure(&self) -> Option<Tick> {
        self.items.iter().map(|r| r.departure).max()
    }

    /// The packing period `[min a(r), max d(r))`.
    pub fn packing_period(&self) -> Option<Interval> {
        Some(Interval::new(self.first_arrival()?, self.last_departure()?))
    }

    /// `span(R)`: length of the union of all item intervals (Figure 1).
    ///
    /// ```
    /// use dbp_core::instance::InstanceBuilder;
    /// let mut b = InstanceBuilder::new(10);
    /// b.add(0, 4, 1);
    /// b.add(2, 6, 1);  // overlaps the first
    /// b.add(9, 12, 1); // after a gap
    /// let inst = b.build().unwrap();
    /// assert_eq!(inst.span().raw(), 9); // [0,6) ∪ [9,12)
    /// ```
    pub fn span(&self) -> Dur {
        let ivs: Vec<Interval> = self.items.iter().map(|r| r.interval()).collect();
        union_length(&ivs)
    }

    /// The maximal disjoint intervals covering all item activity.
    pub fn active_intervals(&self) -> Vec<Interval> {
        let ivs: Vec<Interval> = self.items.iter().map(|r| r.interval()).collect();
        union_intervals(&ivs)
    }

    /// `u(R) = Σ s(r)·len(I(r))`, in size·ticks.
    pub fn total_demand(&self) -> u128 {
        self.items.iter().map(|r| r.demand()).sum()
    }

    /// Minimum interval length ∆.
    pub fn min_interval_len(&self) -> Option<Dur> {
        self.items.iter().map(|r| r.interval_len()).min()
    }

    /// Maximum interval length µ∆.
    pub fn max_interval_len(&self) -> Option<Dur> {
        self.items.iter().map(|r| r.interval_len()).max()
    }

    /// The max/min item interval length ratio µ, exactly.
    pub fn mu(&self) -> Option<Ratio> {
        let min = self.min_interval_len()?;
        let max = self.max_interval_len()?;
        Some(Ratio::new(max.0 as u128, min.0 as u128))
    }

    /// Items active at time `t` (arrival inclusive, departure exclusive).
    pub fn active_at(&self, t: Tick) -> Vec<ItemId> {
        self.items
            .iter()
            .filter(|r| r.is_active_at(t))
            .map(|r| r.id)
            .collect()
    }

    /// All distinct regions present in the instance.
    pub fn regions(&self) -> Vec<RegionId> {
        let mut rs: Vec<RegionId> = self.items.iter().map(|r| r.region).collect();
        rs.sort_unstable();
        rs.dedup();
        rs
    }

    /// The sub-instance of items satisfying `keep`, with ids renumbered to
    /// stay index-consistent. Returns the new instance and, for each new
    /// item, the original [`ItemId`] it came from. Relative arrival order
    /// (and hence online presentation order) is preserved.
    pub fn restrict(
        &self,
        mut keep: impl FnMut(&GItem<Sz>) -> bool,
    ) -> (GInstance<Sz>, Vec<ItemId>) {
        let mut items = Vec::new();
        let mut back = Vec::new();
        for it in &self.items {
            if keep(it) {
                let mut renumbered = *it;
                renumbered.id = ItemId(items.len() as u32);
                items.push(renumbered);
                back.push(it.id);
            }
        }
        let inst = GInstance {
            capacity: self.capacity,
            items,
        };
        (inst, back)
    }

    /// The same instance with every arrival/departure shifted `dt` ticks
    /// later — useful for composing adversarial phases.
    ///
    /// # Panics
    /// Panics on tick overflow.
    pub fn shifted(&self, dt: u64) -> GInstance<Sz> {
        let items = self
            .items
            .iter()
            .map(|it| GItem {
                arrival: it.arrival + crate::time::Dur(dt),
                departure: it.departure + crate::time::Dur(dt),
                ..*it
            })
            .collect();
        GInstance {
            capacity: self.capacity,
            items,
        }
    }

    /// Concatenate two instances over the same capacity: `other`'s items
    /// are appended (renumbered) after `self`'s, preserving both lists'
    /// internal orders. Simultaneous arrivals from `self` are presented
    /// first.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn concat(&self, other: &GInstance<Sz>) -> GInstance<Sz> {
        assert_eq!(
            self.capacity, other.capacity,
            "concat requires equal capacities"
        );
        let mut items = self.items.clone();
        for it in &other.items {
            let mut renumbered = *it;
            renumbered.id = ItemId(items.len() as u32);
            items.push(renumbered);
        }
        GInstance {
            capacity: self.capacity,
            items,
        }
    }

    /// Per-dimension demand `u_d(R) = Σ s_d(r)·len(I(r))` — the exact
    /// per-resource ledger a vector run's cost audit checks against.
    pub fn total_demand_per_dim(&self) -> Vec<u128> {
        let mut out = vec![0u128; Sz::DIMS];
        for r in &self.items {
            let len = r.interval_len().0 as u128;
            for (d, slot) in out.iter_mut().enumerate() {
                *slot += r.size.component(d) as u128 * len;
            }
        }
        out
    }

    /// The same instance with every demand mapped through `f`; `None` if
    /// the mapped instance fails validation (e.g. `f` produced a demand
    /// exceeding the mapped capacity). The D=1 equivalence suite uses this
    /// to lift scalar instances into vector space and back.
    pub fn map_demand<T: Demand>(
        &self,
        mut f: impl FnMut(Sz) -> T,
    ) -> Result<GInstance<T>, GInstanceError<T>> {
        let capacity = f(self.capacity);
        let items = self.items.iter().map(|it| it.map_demand(&mut f)).collect();
        GInstance::new(capacity, items)
    }

    /// Summary statistics used by experiment reports.
    pub fn stats(&self) -> GInstanceStats<Sz> {
        GInstanceStats {
            n_items: self.items.len(),
            capacity: self.capacity,
            span: self.span(),
            total_demand: self.total_demand(),
            min_interval_len: self.min_interval_len().unwrap_or(Dur::ZERO),
            max_interval_len: self.max_interval_len().unwrap_or(Dur::ZERO),
            mu: self.mu().unwrap_or(Ratio::ONE),
            min_size: self.items.iter().map(|r| r.size).min().unwrap_or(Sz::ZERO),
            max_size: self.items.iter().map(|r| r.size).max().unwrap_or(Sz::ZERO),
        }
    }
}

/// Aggregate instance statistics (§3.1 quantities), generic over the
/// demand type (scalar via the [`InstanceStats`] alias).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GInstanceStats<Sz> {
    /// Number of items.
    pub n_items: usize,
    /// Bin capacity `W`.
    pub capacity: Sz,
    /// `span(R)`.
    pub span: Dur,
    /// `u(R)` in size·ticks.
    pub total_demand: u128,
    /// Minimum interval length ∆.
    pub min_interval_len: Dur,
    /// Maximum interval length µ∆.
    pub max_interval_len: Dur,
    /// Max/min interval length ratio µ.
    pub mu: Ratio,
    /// Smallest item size (lexicographic minimum for vectors).
    pub min_size: Sz,
    /// Largest item size (lexicographic maximum for vectors).
    pub max_size: Sz,
}

/// The scalar instance statistics of the source paper.
pub type InstanceStats = GInstanceStats<Size>;

/// Incremental builder for instances; assigns ids in insertion order.
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    capacity: Size,
    items: Vec<Item>,
}

impl InstanceBuilder {
    /// Start a builder for bins of the given capacity.
    pub fn new(capacity: u64) -> InstanceBuilder {
        InstanceBuilder {
            capacity: Size(capacity),
            items: Vec::new(),
        }
    }

    /// Add an item; returns its id.
    pub fn add(&mut self, arrival: u64, departure: u64, size: u64) -> ItemId {
        let id = ItemId(self.items.len() as u32);
        self.items.push(Item {
            id,
            arrival: Tick(arrival),
            departure: Tick(departure),
            size: Size(size),
            region: RegionId::GLOBAL,
        });
        id
    }

    /// Add an item with a region tag (constrained-DBP extension).
    pub fn add_in_region(
        &mut self,
        arrival: u64,
        departure: u64,
        size: u64,
        region: RegionId,
    ) -> ItemId {
        let id = self.add(arrival, departure, size);
        self.items[id.index()].region = region;
        id
    }

    /// Number of items added so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no items have been added.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Validate and build the instance.
    pub fn build(self) -> Result<Instance, InstanceError> {
        Instance::new(self.capacity, self.items)
    }
}

/// Incremental builder for generic (vector-demand) instances; assigns ids
/// in insertion order. The scalar [`InstanceBuilder`] keeps its `u64` API.
#[derive(Debug, Clone)]
pub struct GInstanceBuilder<Sz> {
    capacity: Sz,
    items: Vec<GItem<Sz>>,
}

impl<Sz: Demand> GInstanceBuilder<Sz> {
    /// Start a builder for bins of the given (vector) capacity.
    pub fn new(capacity: Sz) -> GInstanceBuilder<Sz> {
        GInstanceBuilder {
            capacity,
            items: Vec::new(),
        }
    }

    /// Add an item; returns its id.
    pub fn add(&mut self, arrival: u64, departure: u64, size: Sz) -> ItemId {
        let id = ItemId(self.items.len() as u32);
        self.items.push(GItem {
            id,
            arrival: Tick(arrival),
            departure: Tick(departure),
            size,
            region: RegionId::GLOBAL,
        });
        id
    }

    /// Add an item with a region tag (constrained-DBP extension).
    pub fn add_in_region(
        &mut self,
        arrival: u64,
        departure: u64,
        size: Sz,
        region: RegionId,
    ) -> ItemId {
        let id = self.add(arrival, departure, size);
        self.items[id.index()].region = region;
        id
    }

    /// Number of items added so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no items have been added.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Validate and build the instance.
    pub fn build(self) -> Result<GInstance<Sz>, GInstanceError<Sz>> {
        GInstance::new(self.capacity, self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Instance {
        // The Figure 1 example shape: three items, two overlapping then a gap.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 4, 5);
        b.add(2, 6, 5);
        b.add(9, 12, 3);
        b.build().unwrap()
    }

    #[test]
    fn fig1_span_example() {
        let inst = small();
        assert_eq!(inst.span(), Dur(9));
        assert_eq!(
            inst.packing_period(),
            Some(Interval::new(Tick(0), Tick(12)))
        );
        assert_eq!(inst.active_intervals().len(), 2);
    }

    #[test]
    fn stats_are_exact() {
        let inst = small();
        let s = inst.stats();
        assert_eq!(s.n_items, 3);
        assert_eq!(s.total_demand, 4 * 5 + 4 * 5 + 3 * 3);
        assert_eq!(s.min_interval_len, Dur(3));
        assert_eq!(s.max_interval_len, Dur(4));
        assert_eq!(s.mu, Ratio::new(4, 3));
        assert_eq!(s.max_size, Size(5));
        assert_eq!(s.min_size, Size(3));
    }

    #[test]
    fn active_set_respects_half_open_intervals() {
        let inst = small();
        assert_eq!(inst.active_at(Tick(0)), vec![ItemId(0)]);
        assert_eq!(inst.active_at(Tick(3)), vec![ItemId(0), ItemId(1)]);
        assert_eq!(inst.active_at(Tick(4)), vec![ItemId(1)]);
        assert_eq!(inst.active_at(Tick(6)), Vec::<ItemId>::new());
        assert_eq!(inst.active_at(Tick(9)), vec![ItemId(2)]);
    }

    #[test]
    fn validation_rejects_bad_instances() {
        assert_eq!(
            Instance::new(Size(0), vec![]),
            Err(InstanceError::ZeroCapacity)
        );
        let bad_interval = vec![Item::new(0, 5, 5, 1)];
        assert!(matches!(
            Instance::new(Size(10), bad_interval),
            Err(InstanceError::EmptyInterval { .. })
        ));
        let zero_size = vec![Item::new(0, 0, 1, 0)];
        assert!(matches!(
            Instance::new(Size(10), zero_size),
            Err(InstanceError::ZeroSize { .. })
        ));
        let oversized = vec![Item::new(0, 0, 1, 11)];
        assert!(matches!(
            Instance::new(Size(10), oversized),
            Err(InstanceError::Oversized { .. })
        ));
        let bad_id = vec![Item::new(3, 0, 1, 1)];
        assert!(matches!(
            Instance::new(Size(10), bad_id),
            Err(InstanceError::BadItemId { .. })
        ));
    }

    #[test]
    fn empty_instance_is_fine() {
        let inst = Instance::new(Size(5), vec![]).unwrap();
        assert!(inst.is_empty());
        assert_eq!(inst.span(), Dur::ZERO);
        assert_eq!(inst.mu(), None);
        assert_eq!(inst.packing_period(), None);
    }

    #[test]
    fn serde_round_trip() {
        let inst = small();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn restrict_renumbers_and_maps_back() {
        let inst = small();
        let (sub, back) = inst.restrict(|r| r.size.raw() == 5);
        assert_eq!(sub.len(), 2);
        assert_eq!(back, vec![ItemId(0), ItemId(1)]);
        for (i, it) in sub.items().iter().enumerate() {
            assert_eq!(it.id.index(), i);
            assert_eq!(it.size, inst.item(back[i]).size);
            assert_eq!(it.arrival, inst.item(back[i]).arrival);
        }
        let (empty, back) = inst.restrict(|_| false);
        assert!(empty.is_empty());
        assert!(back.is_empty());
    }

    #[test]
    fn shifted_moves_everything_uniformly() {
        let inst = small();
        let moved = inst.shifted(100);
        assert_eq!(moved.span(), inst.span());
        assert_eq!(moved.total_demand(), inst.total_demand());
        assert_eq!(moved.mu(), inst.mu());
        assert_eq!(moved.first_arrival(), Some(Tick(100)));
        assert_eq!(moved.last_departure(), Some(Tick(112)));
    }

    #[test]
    fn concat_renumbers_and_preserves_order() {
        let a = small();
        let b = small().shifted(50);
        let joined = a.concat(&b);
        assert_eq!(joined.len(), 6);
        for (i, it) in joined.items().iter().enumerate() {
            assert_eq!(it.id.index(), i);
        }
        assert_eq!(joined.total_demand(), 2 * a.total_demand());
        // Two disjoint activity windows.
        assert_eq!(joined.active_intervals().len(), 4);
    }

    #[test]
    #[should_panic(expected = "equal capacities")]
    fn concat_rejects_capacity_mismatch() {
        let a = small();
        let mut bld = InstanceBuilder::new(99);
        bld.add(0, 5, 1);
        let b = bld.build().unwrap();
        let _ = a.concat(&b);
    }

    #[test]
    fn regions_deduplicated() {
        let mut b = InstanceBuilder::new(10);
        b.add_in_region(0, 5, 1, RegionId(2));
        b.add_in_region(0, 5, 1, RegionId(1));
        b.add_in_region(1, 6, 1, RegionId(2));
        let inst = b.build().unwrap();
        assert_eq!(inst.regions(), vec![RegionId(1), RegionId(2)]);
    }
}
