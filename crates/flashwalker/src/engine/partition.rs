//! Partition-scoped walk storage and partition switching: the partition
//! walk buffer (PWB) in on-board DRAM with its flash spill pages, the
//! foreigner path for walks that leave the current partition, and the
//! drain/switch sequence that moves the device to the next partition with
//! work.

use std::collections::BTreeMap;
use std::sync::Arc;

use fw_sim::JourneyEventKind::Enqueue;
use fw_sim::SimTime;
use fw_walk::WALK_BYTES;

use super::state::{SpillPage, TWalk};
use super::{page_walks, FlashWalkerSim};

impl FlashWalkerSim<'_> {
    // ------------------------------------------------------------------
    // Partition walk buffer
    // ------------------------------------------------------------------

    /// Insert a walk into the PWB (destination must be in the current
    /// partition). Returns DRAM bytes written; spill pages are charged
    /// immediately when `charge` is set.
    pub(super) fn pwb_insert(&mut self, tw: TWalk, now: SimTime, charge: bool) -> u64 {
        let sg = tw.tag;
        debug_assert!(
            self.tag_holds_walk(&tw) && self.pg.partition_of(sg) == self.current_partition,
            "walk {} inserted into partition {}'s PWB with tag {sg}",
            tw.walk.id,
            self.current_partition
        );
        let idx = self
            .pwb
            .index_of(sg)
            .expect("pwb_insert outside current partition");
        // Zero-width marker: the walk entered a queue here; waiting time
        // until its next activity shows up as `wait` in the journey
        // decomposition.
        self.probe.event(tw.walk.id, Enqueue, sg, now);
        self.pwb.entries[idx].walks.push(tw);
        self.pwb.inserts_since_refresh[idx] += 1;
        // Lazy score refresh: "we access the topN list every M
        // walk-insertions for a subgraph".
        if self.pwb.inserts_since_refresh[idx] >= self.cfg.lazy_m {
            self.pwb.inserts_since_refresh[idx] = 0;
            self.refresh_score(idx);
        }
        if self.pwb.entries[idx].walks.len() as u64 > self.pwb.quota {
            self.spill_entry(idx, now, charge);
        }
        WALK_BYTES
    }

    /// Spill an overflowing PWB entry to flash walk pages. The entry
    /// keeps its emptied vector for the walks that arrive next.
    pub(super) fn spill_entry(&mut self, idx: usize, now: SimTime, charge: bool) {
        let pw = page_walks(&self.ssd) as usize;
        let mut walks = std::mem::take(&mut self.pwb.entries[idx].walks);
        for chunk in walks.chunks(pw) {
            let lpn = self.alloc_lpn();
            if charge {
                self.ssd.ftl_write_page(now, lpn);
                self.stats.pwb_spill_pages += 1;
            } else {
                self.stats.init_spill_pages += 1;
            }
            self.pwb.entries[idx].spilled.push(SpillPage {
                lpn,
                walks: chunk.to_vec(),
            });
        }
        walks.clear();
        self.pwb.entries[idx].walks = walks;
        self.refresh_score(idx);
    }

    // ------------------------------------------------------------------
    // Foreigner pages
    // ------------------------------------------------------------------

    /// Write buffered foreigner walks to flash, one page per destination
    /// partition group.
    pub(super) fn flush_foreign_page(&mut self, walks: Vec<TWalk>, now: SimTime, charge: bool) {
        debug_assert!(!walks.is_empty());
        let mut groups: BTreeMap<u32, Vec<TWalk>> = BTreeMap::new();
        for tw in walks {
            groups
                .entry(self.pg.partition_of(tw.tag))
                .or_default()
                .push(tw);
        }
        self.write_foreign_groups(groups, now, charge);
    }

    /// Write foreigner walks grouped by destination partition to flash,
    /// one page per group, in partition order.
    fn write_foreign_groups(
        &mut self,
        groups: BTreeMap<u32, Vec<TWalk>>,
        now: SimTime,
        charge: bool,
    ) {
        for (p, g) in groups {
            debug_assert!(
                g.iter().all(|tw| self.tag_holds_walk(tw)),
                "foreigner walk for partition {p} with a stale tag"
            );
            let lpn = self.alloc_lpn();
            if charge {
                self.ssd.ftl_write_page(now, lpn);
                self.stats.foreign_pages += 1;
            } else {
                self.stats.init_spill_pages += 1;
            }
            for tw in &g {
                self.probe.event(tw.walk.id, Enqueue, p, now);
            }
            self.foreign
                .pages
                .entry(p)
                .or_default()
                .push(SpillPage { lpn, walks: g });
        }
    }

    // ------------------------------------------------------------------
    // Partition management
    // ------------------------------------------------------------------

    /// Set up partition `p`: the PWB laid out afresh (in place),
    /// hot-subgraph loads, foreigner read-back.
    pub(super) fn setup_partition(&mut self, p: u32, now: SimTime, charge: bool) {
        self.current_partition = p;
        self.relaxed_pick = false;
        let range = self.pg.partition_range(p);
        let len = range.len();
        let quota = (self.cfg.dram_pwb_bytes / len.max(1) as u64) / WALK_BYTES;
        self.pwb.reset(range.start, len, quota);

        // Charge the hot-subgraph loads (the image holds the per-chip
        // scheduler candidates and the hot sets themselves): pages cross
        // the channel bus to the channel accelerator / the controller.
        if charge {
            let image = Arc::clone(&self.image);
            for sg in image.parts[p as usize].hot_loads() {
                for &ppa in &image.placements[sg as usize].pages {
                    // No walk waits on a hot load in the model: fault unrecorded.
                    let _ = self.ssd.read_page_to_controller(now, ppa);
                    self.stats.hot_load_pages += 1;
                }
            }
        }

        // Read back this partition's foreigner pages and distribute.
        if let Some(pages) = self.foreign.pages.remove(&p) {
            for page in pages {
                if charge {
                    // No walk waits on the read-back in the model: its
                    // walks enter the PWB at `now`. Fault unrecorded.
                    let _ = self.ssd.ftl_read_page(now, page.lpn);
                    self.ssd.ftl_mut().trim(page.lpn);
                }
                for tw in page.walks {
                    self.pwb_insert(tw, now, charge);
                }
            }
        }
        self.refresh_filled_scores();
        for chip in 0..self.num_chips() {
            self.maybe_fill_chip(chip, now);
        }
    }

    /// Refresh the score of every PWB entry holding walks. Only called
    /// right after a fresh buffer is filled, where an empty entry still
    /// has the 0.0 score a refresh would give it.
    fn refresh_filled_scores(&mut self) {
        for idx in 0..self.pwb.entries.len() {
            if !self.pwb.entries[idx].is_empty() {
                self.refresh_score(idx);
            }
        }
    }

    /// The next partition (after the current) that still has work.
    pub(super) fn next_partition_with_work(&self) -> Option<u32> {
        let n = self.pg.num_partitions();
        (1..=n)
            .map(|i| (self.current_partition + i) % n)
            .find(|&p| self.foreign.walks_for(p) > 0)
    }

    /// Distribute the initial walk population (uncharged, like the
    /// paper's excluded preprocessing) as it is drawn: current-partition
    /// walks into the PWB, the rest straight into their destination
    /// partition's foreigner group, so no walk is held twice.
    pub(super) fn distribute_initial_walks(&mut self) {
        let walks = self.wl.init_walks(self.csr, self.rng.next_u64());
        let mut foreign: BTreeMap<u32, Vec<TWalk>> = BTreeMap::new();
        for w in walks {
            let tw = TWalk {
                walk: w,
                tag: self.true_dest(w.cur),
            };
            let p = self.pg.partition_of(tw.tag);
            if p == self.current_partition {
                self.pwb_insert(tw, SimTime::ZERO, false);
            } else {
                foreign.entry(p).or_default().push(tw);
            }
        }
        self.write_foreign_groups(foreign, SimTime::ZERO, false);
        self.refresh_filled_scores();
    }
}
