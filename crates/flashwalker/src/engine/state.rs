//! Mutable state of the accelerator hierarchy: per-chip slots and queues,
//! channel and board mailboxes, the partition walk buffer, spill stores,
//! and the subgraph scheduler's scoreboard.

use std::collections::{BTreeMap, VecDeque};

use fw_walk::Walk;

use super::events::Ev;

/// Subgraph (graph block) identifier.
pub type SgId = u32;

/// A walk in flight through the hierarchy with one routing tag: 20 bytes
/// (the 16-byte [`Walk`] plus the tag).
///
/// The container a walk sits in fixes what its tag means:
///
/// | where the walk is | what `tag` holds |
/// |---|---|
/// | chip slot queues, PWB entries, spill pages, delivery buckets, foreigner pages | destination subgraph |
/// | roving: chip → channel → board, until the board resolves it | location code of `walk.cur` ([`fw_graph::PartitionedGraph::vloc`]) |
///
/// A destination is the subgraph that holds the walk's current vertex
/// (for a dense vertex, the pre-walked slice). A location code is the
/// owning subgraph, or the dense bit plus a dense index. The hop that
/// moves a walk reads the code once: the chip guider, the channel's hot
/// subgraphs, the range search's cost and the board's dense check, query
/// cache and mapping-table search all answer from it. For a regular
/// vertex the code is also its destination; the board replaces a dense
/// vertex's code with the pre-walked slice.
#[derive(Debug, Clone, Copy)]
pub struct TWalk {
    /// The walk itself.
    pub walk: Walk,
    /// Destination subgraph or location code, by container (see the
    /// table).
    pub tag: u32,
}

/// One chip-level subgraph buffer slot.
#[derive(Debug, Clone)]
pub enum Slot {
    /// Nothing resident.
    Empty,
    /// A load command is in flight for this subgraph.
    Loading {
        /// The subgraph being loaded.
        sg: SgId,
        /// Its walk set: the PWB-fetched walks, then walks delivered
        /// while the load was in flight, in arrival order. Becomes the
        /// `Loaded` queue when the load completes.
        walks: Vec<TWalk>,
    },
    /// Subgraph resident with its walk queue.
    Loaded {
        /// The resident subgraph.
        sg: SgId,
        /// Walks waiting to be updated in it.
        queue: Vec<TWalk>,
        /// True until the first update batch has consumed the queue —
        /// fresh slots are exempt from trickle eviction.
        fresh: bool,
    },
}

/// Chip-level accelerator state (its subgraph buffer slots live in
/// [`ChipSlots`]).
#[derive(Debug, Clone, Default)]
pub struct ChipState {
    /// An update batch is running.
    pub busy: bool,
    /// Completed walks buffered, awaiting a page-sized flush.
    pub completed_buf: u64,
}

/// Every chip's subgraph buffer slots in one array (one allocation for
/// the whole device): chip `c` owns `slots[c * per_chip..(c + 1) * per_chip]`.
#[derive(Debug, Clone)]
pub struct ChipSlots {
    slots: Vec<Slot>,
    per_chip: usize,
}

impl ChipSlots {
    /// `chips` chips with `per_chip` empty slots each.
    pub fn new(chips: u32, per_chip: u32) -> Self {
        let per_chip = per_chip as usize;
        ChipSlots {
            slots: std::iter::repeat_with(|| Slot::Empty)
                .take(chips as usize * per_chip)
                .collect(),
            per_chip,
        }
    }

    /// Chip `chip`'s slots.
    pub fn of(&self, chip: u32) -> &[Slot] {
        let c = chip as usize * self.per_chip;
        &self.slots[c..c + self.per_chip]
    }

    /// Chip `chip`'s slots, mutably.
    pub fn of_mut(&mut self, chip: u32) -> &mut [Slot] {
        let c = chip as usize * self.per_chip;
        &mut self.slots[c..c + self.per_chip]
    }

    /// Total walks queued across `chip`'s slots.
    pub fn queued_walks(&self, chip: u32) -> u64 {
        self.of(chip)
            .iter()
            .map(|s| match s {
                Slot::Loaded { queue, .. } => queue.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Empty every slot, returning its walk vector to `pools`.
    pub fn clear(&mut self, pools: &mut Pools) {
        for slot in &mut self.slots {
            match std::mem::replace(slot, Slot::Empty) {
                Slot::Empty => {}
                Slot::Loading { walks, .. } => pools.put_walks(walks),
                Slot::Loaded { queue, .. } => pools.put_walks(queue),
            }
        }
    }

    /// Index of `chip`'s slot holding `sg`, if loaded.
    pub fn slot_of(&self, chip: u32, sg: SgId) -> Option<usize> {
        self.of(chip)
            .iter()
            .position(|s| matches!(s, Slot::Loaded { sg: s2, .. } if *s2 == sg))
    }

    /// Index of a free slot of `chip`, if any.
    pub fn free_slot(&self, chip: u32) -> Option<usize> {
        self.of(chip).iter().position(|s| matches!(s, Slot::Empty))
    }

    /// Subgraphs loaded or loading on `chip` (to avoid double loads).
    pub fn resident(&self, chip: u32) -> impl Iterator<Item = SgId> + '_ {
        self.of(chip).iter().filter_map(|s| match s {
            Slot::Empty => None,
            Slot::Loading { sg, .. } | Slot::Loaded { sg, .. } => Some(*sg),
        })
    }
}

/// Channel-level accelerator state.
#[derive(Debug, Clone)]
pub struct ChannelState {
    /// Walks that arrived from chip-level accelerators, pending a batch
    /// (FIFO: batches take from the front).
    pub inbox: VecDeque<TWalk>,
    /// A batch is running.
    pub busy: bool,
}

/// Board-level accelerator state (tables and hot sets live in the
/// [`super::FlashImage`]).
#[derive(Debug, Clone)]
pub struct BoardState {
    /// Walks pending a board batch (FIFO: batches take from the front).
    pub inbox: VecDeque<TWalk>,
    /// A batch is running.
    pub busy: bool,
    /// Foreigner walks buffered before a page flush.
    pub foreigner_buf: Vec<TWalk>,
    /// Completed walks buffered before a page flush.
    pub completed_buf: u64,
}

/// A page of walks spilled to flash (overflowed partition-walk-buffer
/// entries, or foreigners).
#[derive(Debug, Clone)]
pub struct SpillPage {
    /// Logical page the walks were written to.
    pub lpn: u64,
    /// The walks stored in it.
    pub walks: Vec<TWalk>,
}

/// One partition-walk-buffer entry: walks for one subgraph.
#[derive(Debug, Clone, Default)]
pub struct PwbEntry {
    /// Walks resident in DRAM.
    pub walks: Vec<TWalk>,
    /// Pages of walks spilled to flash when the entry overflowed.
    pub spilled: Vec<SpillPage>,
}

impl PwbEntry {
    /// No walks in DRAM and none on flash.
    pub fn is_empty(&self) -> bool {
        self.walks.is_empty() && self.spilled.is_empty()
    }

    /// Walks in DRAM plus walks on flash for this subgraph.
    pub fn total_walks(&self) -> u64 {
        self.walks.len() as u64
            + self
                .spilled
                .iter()
                .map(|p| p.walks.len() as u64)
                .sum::<u64>()
    }
}

/// The partition walk buffer plus per-subgraph scheduler bookkeeping for
/// the *current* partition. The default buffer has no entries; a
/// partition setup lays it out with [`Pwb::reset`].
#[derive(Debug, Clone, Default)]
pub struct Pwb {
    /// First subgraph id of the current partition.
    pub first_sg: SgId,
    /// One entry per subgraph in the partition.
    pub entries: Vec<PwbEntry>,
    /// DRAM quota per entry, in walks.
    pub quota: u64,
    /// Insertions since the last (lazy) score refresh, per entry.
    pub inserts_since_refresh: Vec<u32>,
    /// Stale scores used by the scheduler (refreshed every M inserts).
    pub stale_score: Vec<f64>,
}

impl Pwb {
    /// Empty the buffer and lay it out for a partition of `len`
    /// subgraphs starting at `first_sg`, with `quota` walks of DRAM per
    /// entry. The entries it keeps keep their walk vectors' capacity.
    pub fn reset(&mut self, first_sg: SgId, len: usize, quota: u64) {
        self.first_sg = first_sg;
        self.entries.truncate(len);
        for e in &mut self.entries {
            e.walks.clear();
            e.spilled.clear();
        }
        self.entries.resize_with(len, PwbEntry::default);
        self.quota = quota.max(4);
        self.inserts_since_refresh.clear();
        self.inserts_since_refresh.resize(len, 0);
        self.stale_score.clear();
        self.stale_score.resize(len, 0.0);
    }

    /// Entry index for a subgraph, if it belongs to this partition.
    pub fn index_of(&self, sg: SgId) -> Option<usize> {
        let i = sg.checked_sub(self.first_sg)? as usize;
        (i < self.entries.len()).then_some(i)
    }

    /// Walks remaining anywhere in the partition buffer (DRAM + spill).
    pub fn total_walks(&self) -> u64 {
        self.entries.iter().map(|e| e.total_walks()).sum()
    }
}

/// Eq. 1: the critical degree of a subgraph.
///
/// `score_i = (pwb·α + fls)·β` for non-dense subgraphs, `pwb·α + fls` for
/// dense ones. With SS disabled the caller passes α = β = 1, reducing the
/// score to the GraphWalker-style walk count.
pub fn eq1_score(pwb_walks: u64, flash_walks: u64, is_dense: bool, alpha: f64, beta: f64) -> f64 {
    let base = pwb_walks as f64 * alpha + flash_walks as f64;
    if is_dense {
        base
    } else {
        base * beta
    }
}

/// Per-partition store of foreigner pages, keyed by destination partition.
#[derive(Debug, Clone, Default)]
pub struct ForeignStore {
    /// Pages of foreigner walks, keyed by the partition they belong to.
    /// BTreeMap for deterministic drain order.
    pub pages: BTreeMap<u32, Vec<SpillPage>>,
}

impl ForeignStore {
    /// Walks stored for partition `p`.
    pub fn walks_for(&self, p: u32) -> u64 {
        self.pages
            .get(&p)
            .map(|v| v.iter().map(|pg| pg.walks.len() as u64).sum())
            .unwrap_or(0)
    }

    /// Total walks stored across partitions.
    pub fn total_walks(&self) -> u64 {
        self.pages
            .values()
            .flat_map(|v| v.iter())
            .map(|p| p.walks.len() as u64)
            .sum()
    }
}

/// A cheap helper for bucketing walks by destination chip during board
/// batch routing.
#[derive(Debug, Default)]
pub struct DeliveryBuckets {
    /// `(chip, walks)` pairs in first-touch order (deterministic).
    pub buckets: Vec<(u32, Vec<TWalk>)>,
}

impl DeliveryBuckets {
    /// Append a walk to its chip's bucket, drawing fresh buckets from the
    /// pool instead of allocating.
    pub fn push_pooled(&mut self, chip: u32, w: TWalk, pool: &mut Pools) {
        match self.buckets.iter_mut().find(|(c, _)| *c == chip) {
            Some((_, v)) => v.push(w),
            None => {
                let mut v = pool.take_walks();
                v.push(w);
                self.buckets.push((chip, v));
            }
        }
    }
}

/// Free lists for the `Vec` payloads that flow through the event queue
/// and the chip slots (walk batches, delivery fan-outs, dirty-chip
/// lists, PWB entries and slot queues). Each vector is returned here
/// when its event is consumed or its slot is freed, and handed out again
/// on the next batch or load, so takes and puts stay balanced.
/// Ownership rule: a vector taken from a pool is either moved into a
/// scheduled event or a slot (whose handler or eviction puts it back) or
/// put back directly — never dropped on the hot path.
///
/// A returned walk vector keeps at most one flash page of walks of
/// capacity, so a queue that once grew large does not pin its peak for
/// the rest of the run.
#[derive(Debug)]
pub struct Pools {
    /// Walks per flash page: the capacity a returned walk vector keeps.
    page_walks: usize,
    walks: Vec<Vec<TWalk>>,
    deliveries: Vec<Vec<(u32, Vec<TWalk>)>>,
    chip_ids: Vec<Vec<u32>>,
}

impl Pools {
    /// Empty pools whose walk vectors keep at most `page_walks` of
    /// capacity.
    pub fn new(page_walks: usize) -> Self {
        Pools {
            page_walks,
            walks: Vec::new(),
            deliveries: Vec::new(),
            chip_ids: Vec::new(),
        }
    }

    /// An empty walk vector, recycled when available.
    pub fn take_walks(&mut self) -> Vec<TWalk> {
        self.walks.pop().unwrap_or_default()
    }

    /// Return a walk vector to the pool, cut to one page of capacity.
    pub fn put_walks(&mut self, mut v: Vec<TWalk>) {
        v.clear();
        v.shrink_to(self.page_walks);
        self.walks.push(v);
    }

    /// An empty delivery fan-out vector, recycled when available.
    pub fn take_deliveries(&mut self) -> Vec<(u32, Vec<TWalk>)> {
        self.deliveries.pop().unwrap_or_default()
    }

    /// Return a delivery fan-out vector (its inner walk vectors must have
    /// been recycled or moved out already).
    pub fn put_deliveries(&mut self, mut v: Vec<(u32, Vec<TWalk>)>) {
        v.clear();
        self.deliveries.push(v);
    }

    /// An empty chip-id vector, recycled when available.
    pub fn take_chip_ids(&mut self) -> Vec<u32> {
        self.chip_ids.pop().unwrap_or_default()
    }

    /// Return a chip-id vector to the pool.
    pub fn put_chip_ids(&mut self, mut v: Vec<u32>) {
        v.clear();
        self.chip_ids.push(v);
    }

    /// Return every vector an undelivered event carries.
    pub(super) fn put_event(&mut self, ev: Ev) {
        match ev {
            Ev::ChipLoaded { .. } => {}
            Ev::ChipBatchDone { outbox: v, .. }
            | Ev::ChanArrive { walks: v, .. }
            | Ev::ChanBatchDone { to_board: v, .. }
            | Ev::ChipDeliver { walks: v, .. } => self.put_walks(v),
            Ev::BoardBatchDone {
                mut deliveries,
                dirty_chips,
            } => {
                for (_, walks) in deliveries.drain(..) {
                    self.put_walks(walks);
                }
                self.put_deliveries(deliveries);
                self.put_chip_ids(dirty_chips);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A walk at `v`; these containers never read its tag.
    fn tw(v: u32) -> TWalk {
        TWalk {
            walk: Walk::new(v, 6),
            tag: 0,
        }
    }

    #[test]
    fn chip_slot_bookkeeping() {
        let mut c = ChipSlots::new(3, 2);
        assert_eq!(c.free_slot(1), Some(0));
        c.of_mut(1)[0] = Slot::Loading {
            sg: 7,
            walks: vec![tw(0)],
        };
        c.of_mut(1)[1] = Slot::Loaded {
            sg: 9,
            queue: vec![tw(1)],
            fresh: true,
        };
        assert_eq!(c.free_slot(1), None);
        assert_eq!(c.slot_of(1, 9), Some(1));
        assert_eq!(c.slot_of(1, 7), None, "loading != loaded");
        assert_eq!(c.queued_walks(1), 1, "loading walks are not queued");
        let resident: Vec<_> = c.resident(1).collect();
        assert_eq!(resident, vec![7, 9]);
        // Neighbouring chips are untouched.
        assert_eq!(c.free_slot(0), Some(0));
        assert_eq!(c.resident(2).count(), 0);
    }

    #[test]
    fn pwb_indexing_and_counts() {
        let mut p = Pwb::default();
        p.reset(10, 4, 8);
        assert_eq!(p.index_of(10), Some(0));
        assert_eq!(p.index_of(13), Some(3));
        assert_eq!(p.index_of(14), None);
        assert_eq!(p.index_of(9), None);
        p.entries[0].walks.push(tw(0));
        p.entries[1].spilled.push(SpillPage {
            lpn: 1,
            walks: vec![tw(1); 3],
        });
        assert_eq!(p.total_walks(), 4);
        assert_eq!(p.entries[1].total_walks(), 3);
        // Laid out again for a smaller partition: empty, re-indexed.
        p.inserts_since_refresh[2] = 5;
        p.reset(20, 3, 1);
        assert_eq!((p.entries.len(), p.total_walks(), p.quota), (3, 0, 4));
        assert_eq!(p.index_of(22), Some(2));
        assert_eq!(p.inserts_since_refresh, [0; 3]);
    }

    #[test]
    fn eq1_matches_paper_formula() {
        // non-dense: (pwb*alpha + fls) * beta
        let s = eq1_score(10, 4, false, 1.2, 1.5);
        assert!((s - (10.0 * 1.2 + 4.0) * 1.5).abs() < 1e-12);
        // dense: no beta
        let d = eq1_score(10, 4, true, 1.2, 1.5);
        assert!((d - (10.0 * 1.2 + 4.0)).abs() < 1e-12);
        // SS off: walk count
        assert!((eq1_score(10, 4, false, 1.0, 1.0) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn foreign_store_counts() {
        let mut f = ForeignStore::default();
        f.pages.entry(2).or_default().push(SpillPage {
            lpn: 5,
            walks: vec![tw(3); 7],
        });
        assert_eq!(f.walks_for(2), 7);
        assert_eq!(f.walks_for(1), 0);
        assert_eq!(f.total_walks(), 7);
    }

    #[test]
    fn delivery_buckets_group_by_chip() {
        let mut pools = Pools::new(256);
        pools.put_walks(Vec::with_capacity(8));
        let mut d = DeliveryBuckets::default();
        d.push_pooled(3, tw(0), &mut pools);
        d.push_pooled(1, tw(1), &mut pools);
        d.push_pooled(3, tw(2), &mut pools);
        assert_eq!(d.buckets.len(), 2);
        assert_eq!(d.buckets[0].0, 3);
        assert_eq!(d.buckets[0].1.len(), 2);
        // The first bucket drew the pooled vector; the second a fresh one.
        assert!(d.buckets[0].1.capacity() >= 8);
        assert_eq!(pools.take_walks().capacity(), 0, "pool drained");
    }

    #[test]
    fn pooled_walk_vectors_keep_at_most_one_page() {
        let mut pools = Pools::new(256);
        pools.put_walks(Vec::with_capacity(1_000));
        let big = pools.take_walks();
        assert!(big.capacity() <= 256, "kept {}", big.capacity());
        pools.put_walks(Vec::with_capacity(64));
        assert_eq!(pools.take_walks().capacity(), 64);
    }

    #[test]
    fn in_flight_walk_is_20_bytes() {
        assert_eq!(std::mem::size_of::<TWalk>(), 20);
    }
}
