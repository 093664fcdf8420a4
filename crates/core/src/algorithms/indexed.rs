//! Indexed First Fit / Best Fit: O(log m) decisions from hook-maintained
//! search structures.
//!
//! The naive [`FirstFit`]/[`BestFit`] selectors scan every open bin per
//! arrival — O(m) work that dominates adversarial instances like the
//! Theorem 5 construction. The selectors here make *exactly the same
//! decisions* (property-tested decision-for-decision against the naive
//! implementations, and they report the same [`name`] so traces are
//! byte-identical) but answer each query from an index updated through the
//! [`BinSelector`] state-change hooks:
//!
//! * [`IndexedFirstFit`] — a max-residual segment tree over bin-id space.
//!   "First open bin with residual ≥ s" is a leftmost-leaf descent,
//!   O(log B) where B is the number of bins ever opened. Closed (and
//!   never-opened) ids hold residual 0, which no item can fit since item
//!   sizes are validated positive.
//! * [`IndexedBestFit`] — open bins keyed by their L1 level total.
//!   "Fullest open bin with level ≤ W − s, ties to the earliest-opened" is
//!   a predecessor query for the greatest occupied level ≤ W − s followed
//!   by the lowest id at that level. The layout is chosen once per run
//!   from `W = capacity.total()`:
//!   - **dense** (`W < 4096`, every capacity the repository's workloads
//!     use): a binary min-heap of bin ids per level `0..=W` and a
//!     two-level bitset of the occupied levels — one summary `u64` over at
//!     most 64 words, which is where the 4096 = 64 × 64 limit comes from.
//!     The predecessor is two `leading_zeros`, the lowest id the heap top;
//!     a level change is an O(log k) heap removal and insertion for `k`
//!     bins at the level. No hook allocates once the heaps have grown.
//!   - **sparse** (every larger `W`, up to `u64::MAX`): one `BTreeSet` of
//!     packed keys `(total << 32) | !id`, so descending key order is
//!     fullest first and lowest id first within a total; O(log m).
//! * [`IndexedMff`] — the paper's MFF (§4.4) on two class-segregated
//!   residual trees, one per size class. Classification picks the tree;
//!   within a tree the query is the same leftmost descent as indexed FF,
//!   which matches naive MFF because MFF *is* First Fit restricted to
//!   same-tag bins and each tree holds residual 0 for every bin outside
//!   its class.
//!
//! ## Vector demands
//!
//! Every structure is generic over the [`Demand`] type. For `D > 1` the
//! segment tree's internal nodes hold the componentwise **join** (per-
//! dimension max) of their children, which over-approximates feasibility:
//! `s ⊑ join(a, b)` does not imply `s ⊑ a ∨ s ⊑ b`, so the descent
//! backtracks when both children's subtrees turn out infeasible. At `D = 1`
//! the join *is* the max and the subtree bound is exact, so the descent
//! never backtracks and is byte-identical (decisions and complexity) to the
//! scalar tree. Indexed BF keys by the L1 total and re-checks componentwise
//! fit against the stored per-bin level, walking candidates in naive BF's
//! order: levels descending, ids ascending within a level (the dense
//! layout sorts a copy of the level's heap in a reused buffer when its top
//! fails). At `D = 1` total-feasibility implies fit, so the first
//! candidate is the answer and no per-bin level is stored.
//!
//! All three return `false` from [`BinSelector::needs_views`], so the
//! engine skips open-bin view maintenance entirely and the whole arrival
//! path runs in O(log m).
//!
//! [`FirstFit`]: super::FirstFit
//! [`BestFit`]: super::BestFit
//! [`name`]: BinSelector::name

use super::modified_first_fit::{ItemClass, ModifiedFirstFit, LARGE_TAG, SMALL_TAG};
use crate::bin::{BinId, BinTag, GOpenBinView};
use crate::demand::Demand;
use crate::item::{GArrivingItem, Size};
use crate::packer::{BinSelector, Decision};
use crate::ratio::Ratio;
use std::collections::BTreeSet;

/// Max-residual segment tree keyed by bin id, generic over the demand type.
/// Leaves hold the residual capacity of open bins and the all-zero demand
/// for closed/unopened ids; internal nodes hold the componentwise join
/// (per-dimension max) of their subtrees. Grows by doubling as ids are
/// allocated.
#[derive(Debug, Clone, Default)]
struct ResidualTree<Sz> {
    /// 1-based heap layout; `tree[leaf_base + id]` is bin `id`'s residual.
    tree: Vec<Sz>,
    /// Number of leaves (a power of two, or 0 before the first insert).
    leaves: usize,
}

impl<Sz: Demand> ResidualTree<Sz> {
    /// Smallest open bin id whose residual fits `s` componentwise (`s`
    /// validated nonzero). The join bound is exact at `D = 1` (no
    /// backtracking, the classic leftmost descent); at higher dimensions
    /// the descent backtracks out of subtrees whose join was feasible only
    /// as a mixture of different leaves.
    fn first_fitting(&self, s: Sz) -> Option<u32> {
        if self.leaves == 0 || !s.fits_within(self.tree[1]) {
            return None;
        }
        let mut node = 1usize;
        loop {
            if node < self.leaves {
                // Internal node known feasible: try the left child first.
                let left = 2 * node;
                node = if s.fits_within(self.tree[left]) {
                    left
                } else {
                    left + 1
                };
                if s.fits_within(self.tree[node]) {
                    continue;
                }
                // Right child infeasible after a failed left probe (only
                // possible at D > 1): backtrack to the nearest ancestor
                // whose right sibling is untried and feasible.
                loop {
                    let from_left = node.is_multiple_of(2);
                    node /= 2;
                    if node == 0 {
                        return None;
                    }
                    if from_left && s.fits_within(self.tree[2 * node + 1]) {
                        node = 2 * node + 1;
                        break;
                    }
                }
            } else {
                return Some((node - self.leaves) as u32);
            }
        }
    }

    /// Set bin `id`'s residual, growing the tree if the id is new.
    fn set(&mut self, id: u32, residual: Sz) {
        let id = id as usize;
        if id >= self.leaves {
            self.grow(id + 1);
        }
        let mut node = self.leaves + id;
        self.tree[node] = residual;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].join(self.tree[2 * node + 1]);
        }
    }

    /// Bin `id`'s current residual (all-zero if never seen).
    #[cfg(test)]
    fn get(&self, id: u32) -> Sz {
        let id = id as usize;
        if id < self.leaves {
            self.tree[self.leaves + id]
        } else {
            Sz::ZERO
        }
    }

    fn grow(&mut self, min_leaves: usize) {
        let new_leaves = min_leaves.next_power_of_two().max(64);
        let mut tree = vec![Sz::ZERO; 2 * new_leaves];
        tree[new_leaves..new_leaves + self.leaves]
            .copy_from_slice(&self.tree[self.leaves..2 * self.leaves]);
        for node in (1..new_leaves).rev() {
            tree[node] = tree[2 * node].join(tree[2 * node + 1]);
        }
        self.tree = tree;
        self.leaves = new_leaves;
    }
}

/// First Fit answered from a segment tree: same decisions as
/// [`FirstFit`](super::FirstFit), O(log B) per arrival. Scalar via the
/// [`IndexedFirstFit`] alias.
#[derive(Debug, Clone, Default)]
pub struct GIndexedFirstFit<Sz> {
    tree: ResidualTree<Sz>,
    capacity: Option<Sz>,
}

/// The scalar indexed First Fit of the paper's model.
pub type IndexedFirstFit = GIndexedFirstFit<Size>;

impl<Sz: Demand> GIndexedFirstFit<Sz> {
    /// Create an indexed First Fit selector.
    pub fn new() -> GIndexedFirstFit<Sz> {
        GIndexedFirstFit {
            tree: ResidualTree::default(),
            capacity: None,
        }
    }

    fn residual(&self, level: Sz) -> Sz {
        self.capacity
            .expect("hook before the first select call")
            .sub(level)
    }
}

impl<Sz: Demand> BinSelector<Sz> for GIndexedFirstFit<Sz> {
    fn name(&self) -> &'static str {
        // Deliberately the naive selector's name: this *is* First Fit, so
        // traces (which carry the algorithm name) stay byte-identical.
        "FF"
    }

    fn select(
        &mut self,
        _bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        debug_assert!(!item.size.is_zero(), "zero-size items break the 0-sentinel");
        self.capacity = Some(capacity);
        match self.tree.first_fitting(item.size) {
            Some(id) => Decision::Use(BinId(id)),
            None => Decision::OPEN,
        }
    }

    fn needs_views(&self) -> bool {
        false
    }

    fn on_bin_opened(&mut self, bin: BinId, _tag: BinTag, level: Sz) {
        self.tree.set(bin.0, self.residual(level));
    }

    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        self.tree.set(bin.0, self.residual(level));
    }

    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        self.tree.set(bin.0, self.residual(level));
    }

    fn on_bin_closed(&mut self, bin: BinId) {
        // Also reached for ids burned by failed boots (never opened): the
        // leaf is already 0, and `set` tolerates unseen ids.
        self.tree.set(bin.0, Sz::ZERO);
    }

    fn is_any_fit(&self) -> bool {
        true
    }
}

/// Capacity totals below this get the dense layout: one id heap per level
/// `0..=W` and a 64 × 64-bit two-level bitset over those levels, so every
/// level has a bit and the predecessor query is two `leading_zeros`.
const DENSE_LEVELS: u128 = 64 * 64;

/// `pos` of a bin that sits in no dense heap; `key` of a bin that sits in
/// no sparse set (a real key is below it, see [`Levels::seed`]).
const ABSENT: u32 = u32::MAX;
const ABSENT_KEY: u128 = u128::MAX;

/// Where a bin sits in the dense layout.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Its level total, i.e. which heap holds it.
    level: u32,
    /// Its index in that heap, or [`ABSENT`] when the bin is not open.
    pos: u32,
}

/// Dense Best Fit index for `W = capacity.total() < 4096`: per level a
/// binary min-heap of open bin ids, plus a two-level bitset of the
/// non-empty levels. Once the heaps and columns have grown to the run's
/// working set, no hook allocates.
#[derive(Debug, Clone)]
struct DenseLevels {
    /// `heaps[l]` holds the ids of the open bins at level total `l` as a
    /// binary min-heap, so `heaps[l][0]` is the earliest-opened of them.
    heaps: Vec<Vec<u32>>,
    /// Per bin id, its heap and position there (O(log k) removal).
    slots: Vec<Slot>,
    /// Bit `l % 64` of `words[l / 64]` is set iff `heaps[l]` is non-empty
    /// (at most 64 words).
    words: Vec<u64>,
    /// Bit `w` is set iff `words[w] != 0`.
    summary: u64,
    /// Reused buffer for the ascending-id walk of one level at `D > 1`.
    scratch: Vec<u32>,
}

impl DenseLevels {
    fn new(total: usize) -> DenseLevels {
        DenseLevels {
            heaps: vec![Vec::new(); total + 1],
            slots: Vec::new(),
            words: vec![0; total / 64 + 1],
            summary: 0,
            scratch: Vec::new(),
        }
    }

    /// Highest non-empty level `≤ bound` (`bound < 4096`).
    fn highest_at_most(&self, bound: usize) -> Option<usize> {
        let (w, b) = (bound >> 6, bound & 63);
        let here = self.words[w] & (u64::MAX >> (63 - b));
        if here != 0 {
            return Some(w << 6 | (63 - here.leading_zeros() as usize));
        }
        let below = self.summary & ((1u64 << w) - 1);
        if below == 0 {
            return None;
        }
        let w = 63 - below.leading_zeros() as usize;
        Some(w << 6 | (63 - self.words[w].leading_zeros() as usize))
    }

    /// First bin in (level descending, id ascending) order with level
    /// `≤ bound` that passes `fits`.
    fn first_fitting(&mut self, bound: u128, mut fits: impl FnMut(u32) -> bool) -> Option<u32> {
        let bound = bound.min(self.heaps.len() as u128 - 1) as usize;
        let mut next = self.highest_at_most(bound);
        while let Some(level) = next {
            let heap = &self.heaps[level];
            if fits(heap[0]) {
                return Some(heap[0]);
            }
            // Only reachable at D > 1: the heap is not sorted, so walk a
            // sorted copy of the rest of the level.
            if heap.len() > 1 {
                self.scratch.clear();
                self.scratch.extend_from_slice(&heap[1..]);
                self.scratch.sort_unstable();
                if let Some(&id) = self.scratch.iter().find(|&&id| fits(id)) {
                    return Some(id);
                }
            }
            next = level.checked_sub(1).and_then(|l| self.highest_at_most(l));
        }
        None
    }

    fn insert(&mut self, id: u32, total: u128) {
        let level = total as usize;
        let b = id as usize;
        if b >= self.slots.len() {
            self.slots.resize(
                b + 1,
                Slot {
                    level: 0,
                    pos: ABSENT,
                },
            );
        }
        self.remove(id);
        let heap = &mut self.heaps[level];
        if heap.is_empty() {
            self.words[level >> 6] |= 1 << (level & 63);
            self.summary |= 1 << (level >> 6);
        }
        heap.push(id);
        let last = heap.len() - 1;
        self.slots[b].level = level as u32;
        sift_up(heap, &mut self.slots, last);
    }

    fn remove(&mut self, id: u32) {
        let Some(slot) = self.slots.get(id as usize).copied() else {
            return;
        };
        if slot.pos == ABSENT {
            return;
        }
        self.slots[id as usize].pos = ABSENT;
        let (level, pos) = (slot.level as usize, slot.pos as usize);
        let heap = &mut self.heaps[level];
        let last = heap.pop().expect("an open bin's heap is non-empty");
        if pos < heap.len() {
            heap[pos] = last;
            if pos > 0 && heap[(pos - 1) / 2] > last {
                sift_up(heap, &mut self.slots, pos);
            } else {
                sift_down(heap, &mut self.slots, pos);
            }
        } else if heap.is_empty() {
            let w = level >> 6;
            self.words[w] &= !(1 << (level & 63));
            if self.words[w] == 0 {
                self.summary &= !(1 << w);
            }
        }
    }
}

/// Move `heap[i]` towards the root of the min-heap, recording positions.
fn sift_up(heap: &mut [u32], slots: &mut [Slot], mut i: usize) {
    let id = heap[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        let up = heap[parent];
        if up < id {
            break;
        }
        heap[i] = up;
        slots[up as usize].pos = i as u32;
        i = parent;
    }
    heap[i] = id;
    slots[id as usize].pos = i as u32;
}

/// Move `heap[i]` towards the leaves of the min-heap, recording positions.
fn sift_down(heap: &mut [u32], slots: &mut [Slot], mut i: usize) {
    let id = heap[i];
    loop {
        let mut child = 2 * i + 1;
        if child >= heap.len() {
            break;
        }
        if child + 1 < heap.len() && heap[child + 1] < heap[child] {
            child += 1;
        }
        let down = heap[child];
        if down > id {
            break;
        }
        heap[i] = down;
        slots[down as usize].pos = i as u32;
        i = child;
    }
    heap[i] = id;
    slots[id as usize].pos = i as u32;
}

/// Sparse Best Fit index for every capacity total `≥ 4096`: one ordered
/// set of packed keys `(total << 32) | !id`. Descending key order is
/// fullest first and, within a total, lowest id first. A total is at most
/// `D · (2⁶⁴ − 1) < 2⁹⁶` for `D ≤ 2³²`, so the key fits a `u128`.
#[derive(Debug, Clone, Default)]
struct SparseLevels {
    keys: BTreeSet<u128>,
    /// Per bin id, its current key ([`ABSENT_KEY`] when not open).
    key_of: Vec<u128>,
}

impl SparseLevels {
    fn first_fitting(&self, bound: u128, mut fits: impl FnMut(u32) -> bool) -> Option<u32> {
        self.keys
            .range(..=(bound << 32 | u128::from(u32::MAX)))
            .rev()
            .map(|&key| !(key as u32))
            .find(|&id| fits(id))
    }

    fn insert(&mut self, id: u32, total: u128) {
        let b = id as usize;
        if b >= self.key_of.len() {
            self.key_of.resize(b + 1, ABSENT_KEY);
        }
        self.remove(id);
        let key = total << 32 | u128::from(!id);
        self.keys.insert(key);
        self.key_of[b] = key;
    }

    fn remove(&mut self, id: u32) {
        if let Some(key) = self.key_of.get_mut(id as usize) {
            if *key != ABSENT_KEY {
                self.keys.remove(key);
                *key = ABSENT_KEY;
            }
        }
    }
}

/// The Best Fit index in the layout its run's capacity calls for.
#[derive(Debug, Clone, Default)]
enum Levels {
    /// No capacity seen yet: nothing can be open.
    #[default]
    Unseeded,
    Dense(DenseLevels),
    Sparse(SparseLevels),
}

impl Levels {
    /// Pick the layout on the first capacity seen; later calls are no-ops
    /// (the capacity of a run does not change).
    fn seed(&mut self, total: u128) {
        if let Levels::Unseeded = self {
            // Keeps every packed key below ABSENT_KEY; D·(2⁶⁴ − 1) is
            // below this bound for any D ≤ 2³².
            assert!(total < (1 << 96) - 1, "level totals must fit in 96 bits");
            *self = if total < DENSE_LEVELS {
                Levels::Dense(DenseLevels::new(total as usize))
            } else {
                Levels::Sparse(SparseLevels::default())
            };
        }
    }

    fn first_fitting(&mut self, bound: u128, fits: impl FnMut(u32) -> bool) -> Option<u32> {
        match self {
            Levels::Unseeded => None,
            Levels::Dense(d) => d.first_fitting(bound, fits),
            Levels::Sparse(s) => s.first_fitting(bound, fits),
        }
    }

    /// Put open bin `id` at level total `total`, wherever it was before.
    fn insert(&mut self, id: u32, total: u128) {
        match self {
            Levels::Unseeded => panic!("hook before the first select call"),
            Levels::Dense(d) => d.insert(id, total),
            Levels::Sparse(s) => s.insert(id, total),
        }
    }

    /// Drop bin `id`; a no-op for ids that are not open.
    fn remove(&mut self, id: u32) {
        match self {
            Levels::Unseeded => {}
            Levels::Dense(d) => d.remove(id),
            Levels::Sparse(s) => s.remove(id),
        }
    }
}

/// Best Fit answered from a level index: same decisions as
/// [`BestFit`](super::BestFit). Scalar via the [`IndexedBestFit`] alias.
///
/// The first `select` picks the layout from `capacity.total()`:
///
/// * **dense** for totals below 4096 — an id min-heap per level and a
///   two-level bitset over the levels; a decision is an O(1) predecessor
///   query plus the heap top, a level change O(log k) for `k` bins at the
///   level. 4096 = 64 × 64 is what one summary word over 64 level words
///   can cover.
/// * **sparse** otherwise (up to `W = u64::MAX`) — one ordered set of
///   packed `(total << 32) | !id` keys, O(log m).
///
/// Both walk candidates fullest first, lowest id first within a level —
/// naive BF's order. At `D > 1` the first candidate whose componentwise
/// level still fits wins; the dense walk visits a level's ids ascending
/// from a sorted copy before it moves to the next lower level.
#[derive(Debug, Clone, Default)]
pub struct GIndexedBestFit<Sz> {
    levels: Levels,
    /// Componentwise level per bin id for the fit re-check, kept only at
    /// `D > 1`: at `D = 1` a level total that fits is a level that fits.
    vec_level_of: Vec<Sz>,
}

/// The scalar indexed Best Fit of the paper's model.
pub type IndexedBestFit = GIndexedBestFit<Size>;

impl<Sz: Demand> GIndexedBestFit<Sz> {
    /// Create an indexed Best Fit selector.
    pub fn new() -> GIndexedBestFit<Sz> {
        GIndexedBestFit {
            levels: Levels::Unseeded,
            vec_level_of: Vec::new(),
        }
    }

    fn set_level(&mut self, bin: BinId, level: Sz) {
        if Sz::DIMS > 1 {
            let b = bin.index();
            if b >= self.vec_level_of.len() {
                self.vec_level_of.resize(b + 1, Sz::ZERO);
            }
            self.vec_level_of[b] = level;
        }
        self.levels.insert(bin.0, level.total());
    }
}

impl<Sz: Demand> BinSelector<Sz> for GIndexedBestFit<Sz> {
    fn name(&self) -> &'static str {
        // Deliberately the naive selector's name — see IndexedFirstFit.
        "BF"
    }

    fn select(
        &mut self,
        _bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        self.levels.seed(capacity.total());
        // A fitting bin satisfies level_d ≤ W_d − s_d in every dimension,
        // hence total(level) ≤ total(W) − total(s): the bound below is
        // sound, and exact at D = 1. If s exceeds W in some dimension no
        // bin can ever fit and BF opens (and the engine will reject the
        // overflow, same as with the naive selector).
        if !item.size.fits_within(capacity) {
            return Decision::OPEN;
        }
        let bound = capacity.total() - item.size.total();
        let vec_level_of = &self.vec_level_of;
        let fits = |id: u32| {
            Sz::DIMS == 1
                || vec_level_of[id as usize]
                    .checked_add(item.size)
                    .is_some_and(|l| l.fits_within(capacity))
        };
        match self.levels.first_fitting(bound, fits) {
            Some(id) => Decision::Use(BinId(id)),
            None => Decision::OPEN,
        }
    }

    fn needs_views(&self) -> bool {
        false
    }

    fn on_bin_opened(&mut self, bin: BinId, _tag: BinTag, level: Sz) {
        self.set_level(bin, level);
    }

    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        self.set_level(bin, level);
    }

    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        self.set_level(bin, level);
    }

    fn on_bin_closed(&mut self, bin: BinId) {
        // Burned ids (failed boots) may close without ever opening, even
        // before any capacity is known; `remove` ignores them.
        self.levels.remove(bin.0);
    }

    fn is_any_fit(&self) -> bool {
        true
    }
}

/// Modified First Fit answered from two class-segregated residual trees:
/// same decisions as [`ModifiedFirstFit`], O(log B) per arrival. Scalar via
/// the [`IndexedMff`] alias.
///
/// Classification is delegated to an inner naive [`ModifiedFirstFit`] so
/// the exact-rational threshold arithmetic has a single home. Each class
/// keeps its own [`ResidualTree`]; bins of the other class (and closed
/// bins) hold residual 0 there, so the leftmost-fitting query within a
/// tree is exactly naive MFF's "first same-tag bin that fits" scan.
#[derive(Debug, Clone)]
pub struct GIndexedMff<Sz> {
    inner: ModifiedFirstFit,
    large: ResidualTree<Sz>,
    small: ResidualTree<Sz>,
    /// Class each bin id was opened under (by tag); `None` for ids never
    /// opened, so burned ids can be closed without guessing a tree.
    class_of: Vec<Option<ItemClass>>,
    capacity: Option<Sz>,
}

/// The scalar indexed MFF of the paper's model.
pub type IndexedMff = GIndexedMff<Size>;

impl<Sz: Demand> GIndexedMff<Sz> {
    /// Indexed MFF with an integer `k ≥ 2` (the paper's µ-oblivious
    /// setting is `k = 8`).
    ///
    /// # Panics
    /// Panics if `k < 2`, same contract as [`ModifiedFirstFit::new`].
    pub fn new(k: u64) -> GIndexedMff<Sz> {
        GIndexedMff::from_inner(ModifiedFirstFit::new(k))
    }

    /// Indexed MFF with a rational `k = num/den > 1`.
    ///
    /// # Panics
    /// Same contract as [`ModifiedFirstFit::with_rational_k`].
    pub fn with_rational_k(num: u64, den: u64) -> GIndexedMff<Sz> {
        GIndexedMff::from_inner(ModifiedFirstFit::with_rational_k(num, den))
    }

    /// The semi-online setting: µ known, `k = µ + 7`.
    pub fn for_known_mu(mu: u64) -> GIndexedMff<Sz> {
        GIndexedMff::from_inner(ModifiedFirstFit::for_known_mu(mu))
    }

    fn from_inner(inner: ModifiedFirstFit) -> GIndexedMff<Sz> {
        GIndexedMff {
            inner,
            large: ResidualTree::default(),
            small: ResidualTree::default(),
            class_of: Vec::new(),
            capacity: None,
        }
    }

    /// The classification threshold parameter `k`, exactly.
    pub fn k(&self) -> Ratio {
        self.inner.k()
    }

    fn residual(&self, level: Sz) -> Sz {
        self.capacity
            .expect("hook before the first select call")
            .sub(level)
    }

    fn tree_of(&mut self, class: ItemClass) -> &mut ResidualTree<Sz> {
        match class {
            ItemClass::Large => &mut self.large,
            ItemClass::Small => &mut self.small,
        }
    }

    /// Re-publish bin's residual into its class tree (no-op for ids whose
    /// class was never recorded, which cannot hold items).
    fn update(&mut self, bin: BinId, level: Sz) {
        let b = bin.index();
        if let Some(Some(class)) = self.class_of.get(b).copied() {
            let residual = self.residual(level);
            self.tree_of(class).set(bin.0, residual);
        }
    }
}

impl<Sz: Demand> BinSelector<Sz> for GIndexedMff<Sz> {
    fn name(&self) -> &'static str {
        // Deliberately the naive selector's name — see IndexedFirstFit.
        "MFF"
    }

    fn select(
        &mut self,
        _bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        debug_assert!(!item.size.is_zero(), "zero-size items break the 0-sentinel");
        self.capacity = Some(capacity);
        let class = self.inner.classify(item.size, capacity);
        let tree = match class {
            ItemClass::Large => &self.large,
            ItemClass::Small => &self.small,
        };
        match tree.first_fitting(item.size) {
            Some(id) => Decision::Use(BinId(id)),
            None => Decision::Open { tag: class.tag() },
        }
    }

    fn needs_views(&self) -> bool {
        false
    }

    fn on_bin_opened(&mut self, bin: BinId, tag: BinTag, level: Sz) {
        let class = match tag {
            LARGE_TAG => ItemClass::Large,
            SMALL_TAG => ItemClass::Small,
            other => unreachable!("MFF opened a bin with foreign tag {other:?}"),
        };
        let b = bin.index();
        if b >= self.class_of.len() {
            self.class_of.resize(b + 1, None);
        }
        self.class_of[b] = Some(class);
        let residual = self.residual(level);
        self.tree_of(class).set(bin.0, residual);
    }

    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        self.update(bin, level);
    }

    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        self.update(bin, level);
    }

    fn on_bin_closed(&mut self, bin: BinId) {
        // Burned ids (failed boots) may close without ever opening; their
        // class is unrecorded and both trees already hold 0 for them.
        let b = bin.index();
        if let Some(Some(class)) = self.class_of.get(b).copied() {
            self.tree_of(class).set(bin.0, Sz::ZERO);
            self.class_of[b] = None;
        }
    }

    // MFF is NOT Any Fit: it refuses cross-class placements.
    fn is_any_fit(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BestFit, FirstFit};
    use crate::demand::VSize;
    use crate::engine::{any_fit_violations, simulate_validated};
    use crate::instance::InstanceBuilder;

    #[test]
    fn residual_tree_leftmost_query() {
        let mut t = ResidualTree::<Size>::default();
        assert_eq!(t.first_fitting(Size(1)), None);
        t.set(0, Size(3));
        t.set(1, Size(7));
        t.set(2, Size(7));
        assert_eq!(t.first_fitting(Size(1)), Some(0));
        assert_eq!(t.first_fitting(Size(4)), Some(1));
        assert_eq!(t.first_fitting(Size(8)), None);
        t.set(1, Size(0)); // close bin 1
        assert_eq!(t.first_fitting(Size(4)), Some(2));
        assert_eq!(t.get(1), Size(0));
        // Grow past the initial allocation and query across the boundary.
        t.set(1000, Size(9));
        assert_eq!(t.first_fitting(Size(8)), Some(1000));
        assert_eq!(t.get(1000), Size(9));
    }

    #[test]
    fn residual_tree_backtracks_at_higher_dims() {
        // join(leaf0, leaf1) = [5,5] claims feasibility for [4,4], but no
        // single leaf fits — the descent must backtrack past both and land
        // on leaf 2.
        let mut t = ResidualTree::<VSize<2>>::default();
        t.set(0, VSize([5, 1]));
        t.set(1, VSize([1, 5]));
        t.set(2, VSize([4, 4]));
        assert_eq!(t.first_fitting(VSize([4, 4])), Some(2));
        assert_eq!(t.first_fitting(VSize([5, 1])), Some(0));
        assert_eq!(t.first_fitting(VSize([0, 5])), Some(1));
        assert_eq!(t.first_fitting(VSize([5, 5])), None);
        t.set(2, VSize([0, 0]));
        assert_eq!(t.first_fitting(VSize([4, 4])), None);
    }

    fn churny_instance() -> crate::instance::Instance {
        // Interleaved arrivals/departures with ties in level and id, exact
        // fills, and bins that close and make ids stale.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6); // b0
        b.add(0, 4, 6); // b1, closes at 4
        b.add(2, 8, 4); // fills b0 exactly
        b.add(3, 6, 5); // new bin
        b.add(5, 9, 6); // arrives after b1 closed
        b.add(5, 9, 5); // tie candidates
        b.add(6, 9, 5);
        b.add(8, 12, 2);
        b.build().unwrap()
    }

    #[test]
    fn indexed_ff_matches_naive_on_fixture() {
        let inst = churny_instance();
        let naive = simulate_validated(&inst, &mut FirstFit::new());
        let indexed = simulate_validated(&inst, &mut IndexedFirstFit::new());
        assert_eq!(naive, indexed);
        assert!(any_fit_violations(&inst, &indexed).is_empty());
    }

    #[test]
    fn indexed_bf_matches_naive_on_fixture() {
        let inst = churny_instance();
        let naive = simulate_validated(&inst, &mut BestFit::new());
        let indexed = simulate_validated(&inst, &mut IndexedBestFit::new());
        assert_eq!(naive, indexed);
        assert!(any_fit_violations(&inst, &indexed).is_empty());
    }

    #[test]
    fn indexed_bf_tie_breaks_to_earliest_bin() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 7); // b0 level 7
        b.add(1, 10, 7); // 7+7 > 10 -> b1 level 7
        b.add(2, 10, 2); // tie at level 7 -> b0
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut IndexedBestFit::new());
        assert_eq!(trace.bin_of(crate::item::ItemId(2)), BinId(0));
    }

    #[test]
    fn indexed_mff_matches_naive_on_fixture() {
        let inst = churny_instance();
        let naive = simulate_validated(&inst, &mut ModifiedFirstFit::new(8));
        let indexed = simulate_validated(&inst, &mut IndexedMff::new(8));
        assert_eq!(naive, indexed);
    }

    #[test]
    fn indexed_mff_matches_naive_with_mixed_classes() {
        // W = 10, k = 2 -> threshold 5: the fixture's sizes straddle it, so
        // both trees see churn, exact fills, and closes.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 9, 6); // large -> b0
        b.add(0, 4, 3); // small -> b1, closes at 4
        b.add(1, 8, 5); // large, doesn't fit b0 -> b2
        b.add(2, 7, 2); // small, fits b1
        b.add(3, 6, 4); // small, 3+2+4 > 10 -> new small bin
        b.add(5, 9, 5); // large, fits b2 after nothing departed? 5+5=10 exact
        b.add(6, 9, 1); // small, b1 closed at 4 -> earliest open small bin
        let inst = b.build().unwrap();
        let naive = simulate_validated(&inst, &mut ModifiedFirstFit::new(2));
        let indexed = simulate_validated(&inst, &mut IndexedMff::new(2));
        assert_eq!(naive, indexed);
        for bin in &indexed.bins {
            assert!(bin.tag == LARGE_TAG || bin.tag == SMALL_TAG);
        }
    }

    #[test]
    fn indexed_mff_keeps_classes_separate() {
        // Large item leaves room, but the small item must open its own bin
        // (mirrors the naive engine_tests fixture).
        let mut b = InstanceBuilder::new(80);
        b.add(0, 10, 20); // large (threshold 10)
        b.add(1, 10, 5); // small
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut IndexedMff::new(8));
        assert_eq!(trace.bins_used(), 2);
        assert_eq!(trace.bins[0].tag, LARGE_TAG);
        assert_eq!(trace.bins[1].tag, SMALL_TAG);
    }

    #[test]
    fn indexed_selectors_skip_view_maintenance() {
        assert!(!IndexedFirstFit::new().needs_views());
        assert!(!IndexedBestFit::new().needs_views());
        assert!(!IndexedMff::new(8).needs_views());
        assert!(<FirstFit as BinSelector<Size>>::needs_views(
            &FirstFit::new()
        ));
    }

    #[test]
    fn indexed_mff_reports_k_exactly() {
        assert_eq!(IndexedMff::for_known_mu(10).k(), Ratio::from_int(17));
        assert_eq!(IndexedMff::with_rational_k(3, 2).k(), Ratio::new(3, 2));
    }

    #[test]
    fn hooks_tolerate_burned_ids() {
        // Fault injection may close an id that never opened.
        let mut ff = IndexedFirstFit::new();
        ff.capacity = Some(Size(10));
        ff.on_bin_closed(BinId(17));
        let mut bf = IndexedBestFit::new();
        bf.on_bin_closed(BinId(17));
        let mut mff = IndexedMff::new(8);
        mff.capacity = Some(Size(10));
        mff.on_bin_closed(BinId(17));

        // BF in both layouts: a close before any capacity is known, and
        // one past the end of every per-bin column once the layout exists.
        let item = GArrivingItem {
            id: crate::item::ItemId(0),
            arrival: crate::time::Tick::ZERO,
            size: Size(1),
            region: crate::item::RegionId::GLOBAL,
        };
        for w in [100, 1 << 40] {
            let mut bf = IndexedBestFit::new();
            bf.on_bin_closed(BinId(17));
            assert_eq!(bf.select(&[], &item, Size(w)), Decision::OPEN);
            bf.on_bin_opened(BinId(0), BinTag::DEFAULT, Size(1));
            bf.on_bin_closed(BinId(17));
            assert_eq!(bf.select(&[], &item, Size(w)), Decision::Use(BinId(0)));
        }
    }

    #[test]
    fn bf_layout_follows_the_capacity_total() {
        let layout = |total: u128| {
            let mut levels = Levels::default();
            levels.seed(total);
            levels
        };
        assert!(matches!(layout(100), Levels::Dense(_)));
        assert!(matches!(layout(4095), Levels::Dense(_)));
        assert!(matches!(layout(4096), Levels::Sparse(_)));
        assert!(matches!(layout(u64::MAX as u128 * 3), Levels::Sparse(_)));
    }

    #[test]
    fn dense_predecessor_crosses_words() {
        let mut d = DenseLevels::new(4095);
        assert_eq!(d.highest_at_most(4095), None);
        for (id, level) in [(0, 0u128), (1, 63), (2, 64), (3, 4095)] {
            d.insert(id, level);
        }
        assert_eq!(d.highest_at_most(4095), Some(4095));
        assert_eq!(d.highest_at_most(4094), Some(64));
        assert_eq!(d.highest_at_most(64), Some(64));
        assert_eq!(d.highest_at_most(63), Some(63));
        assert_eq!(d.highest_at_most(62), Some(0));
        d.remove(0);
        assert_eq!(d.highest_at_most(62), None);
        // Moving a bin clears its old level's bit once the level empties.
        d.insert(2, 63);
        assert_eq!(d.highest_at_most(4094), Some(63));
    }

    /// A churn-heavy scalar instance with item sizes scaled to `capacity`.
    fn churn_at(capacity: u64) -> crate::instance::Instance {
        let mut b = InstanceBuilder::new(capacity);
        let mut x = 7u64;
        for i in 0..80u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = 1 + (x >> 33) % 60;
            let len = 1 + (x >> 17) % 40;
            let size = (s as u128 * capacity as u128 / 100) as u64;
            b.add(i / 2, i / 2 + len, size);
        }
        b.build().unwrap()
    }

    #[test]
    fn bf_recovery_continues_byte_identically_in_both_layouts() {
        use crate::engine::EngineRun;
        use crate::probe::{FnProbe, VerifyProbe};
        // W = 100 puts BF on the dense layout, W = 2^40 on the sparse one.
        for w in [100, 1 << 40] {
            let inst = churn_at(w);
            let mut full = Vec::new();
            let mut sel = IndexedBestFit::new();
            let mut probe = FnProbe::new(|e| full.push(e));
            let trace = EngineRun::new(&inst, &mut sel, &mut probe).finish();
            assert_eq!(trace, simulate_validated(&inst, &mut BestFit::new()));
            let full_json = serde_json::to_string(&full).unwrap();
            for k in [1, full.len() / 3, full.len() / 2, full.len() - 1] {
                // Re-execute under a verifier of the first `k` events; only
                // the continuation reaches `tail`.
                let mut tail = Vec::new();
                let mut inner = FnProbe::new(|e| tail.push(e));
                let mut verify = VerifyProbe::new(&full[..k], &mut inner);
                let rerun = EngineRun::new(&inst, &mut IndexedBestFit::new(), &mut verify).finish();
                assert_eq!(verify.finish(), Ok((k, (full.len() - k) as u64)));
                assert_eq!(rerun, trace, "W = {w}, prefix {k}");
                let mut head = full[..k].to_vec();
                head.extend(tail);
                assert_eq!(
                    serde_json::to_string(&head).unwrap(),
                    full_json,
                    "W = {w}, prefix {k}"
                );
            }
        }
    }
}
