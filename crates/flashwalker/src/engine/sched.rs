//! The subgraph scheduler: Eq. 1 scoring over PWB entries and filling of
//! idle chip slots, plus the subgraph-load path it triggers.

use std::sync::Arc;

use fw_dram::DramOp;
use fw_sim::JourneyEventKind::{NandRead, Stall, SubgraphLoad};
use fw_sim::SimTime;
use fw_walk::WALK_BYTES;

use super::events::Ev;
use super::state::{eq1_score, SgId, Slot, TWalk};
use super::FlashWalkerSim;

impl FlashWalkerSim<'_> {
    /// Recompute the lazily-maintained Eq. 1 score for PWB entry `idx`.
    pub(super) fn refresh_score(&mut self, idx: usize) {
        let sg = self.pwb.first_sg + idx as u32;
        let e = &self.pwb.entries[idx];
        let fls: u64 = e.spilled.iter().map(|p| p.walks.len() as u64).sum();
        let is_dense = self.pg.subgraphs[sg as usize].is_dense();
        let (a, b) = if self.cfg.opts.subgraph_scheduling {
            (self.cfg.alpha, self.cfg.beta)
        } else {
            (1.0, 1.0)
        };
        self.pwb.stale_score[idx] = eq1_score(e.walks.len() as u64, fls, is_dense, a, b);
    }

    /// Fill every empty slot of `chip` with the best-scoring candidate
    /// subgraph of this chip that still has walks.
    pub(super) fn maybe_fill_chip(&mut self, chip: u32, now: SimTime) {
        loop {
            let Some(slot) = self.slots.free_slot(chip) else {
                self.stats.fill_no_slot += 1;
                return;
            };
            let Some(sg) = self.pick_subgraph(chip, self.relaxed_pick) else {
                self.stats.fill_no_candidate += 1;
                return;
            };
            let walks = self.issue_load(chip, sg, now);
            self.slots.of_mut(chip)[slot] = Slot::Loading { sg, walks };
        }
    }

    /// Highest-stale-score subgraph of `chip` in the current partition
    /// with walks waiting and not already resident. ("FlashWalker
    /// restricts that subgraphs fetched by a chip-level accelerator must
    /// be in the same chip's flash planes.")
    pub(super) fn pick_subgraph(&self, chip: u32, relaxed: bool) -> Option<SgId> {
        let threshold = if relaxed { 1 } else { self.cfg.min_load_walks };
        let mut best: Option<(f64, SgId)> = None;
        let part = &self.image.parts[self.current_partition as usize];
        for &idx in part.chip_candidates(chip) {
            let idx = idx as usize;
            let entry = &self.pwb.entries[idx];
            let sg = self.pwb.first_sg + idx as u32;
            // The cheap walk-count test first: most entries are empty.
            if entry.total_walks() < threshold || self.slots.resident(chip).any(|r| r == sg) {
                continue;
            }
            let score = self.pwb.stale_score[idx].max(entry.total_walks() as f64 * 1e-9);
            // Deterministic tie-break on the lower subgraph id.
            if best
                .map(|(s, b)| score > s || (score == s && sg < b))
                .unwrap_or(true)
            {
                best = Some((score, sg));
            }
        }
        best.map(|(_, sg)| sg)
    }

    /// Issue a subgraph load: array-read the graph block from the chip's
    /// planes, and fetch the subgraph's walks from DRAM (PWB) and spilled
    /// walk pages. The slot opens when the block and its walk set are
    /// resident (the paper's chip "reads the subgraph from flash planes in
    /// this chip, and collects its walks from partition walk buffer in the
    /// on-board DRAM and from the flash planes", §III-B). Returns the
    /// fetched walk set, which the caller parks in the loading slot.
    pub(super) fn issue_load(&mut self, chip: u32, sg: SgId, now: SimTime) -> Vec<TWalk> {
        self.stats.sg_loads += 1;
        // Graph block pages: chip-private path, no channel traffic. Fault
        // segments go to the probe, which stamps them onto every sampled
        // walk the load fetches.
        let image = Arc::clone(&self.image);
        let page_bytes = self.ssd.config().geometry.page_bytes;
        let mut array_done = now;
        for &ppa in &image.placements[sg as usize].pages {
            let (r, fault) = self.ssd.read_page_recorded(now, ppa, &mut self.probe);
            let mut end = r.end;
            if fault.hard_fail {
                // Re-read from the mapping table; a degraded read is the
                // controller path, so the page then crosses the channel.
                let (mut recovered, rereads, degraded) =
                    self.ssd.recover_read(ppa, end, &mut self.probe);
                self.stats.load_requeues += u64::from(rereads);
                if degraded {
                    self.stats.degraded_loads += 1;
                    let ch = self
                        .ssd
                        .channel_transfer(recovered, ppa.channel, page_bytes);
                    recovered = ch.end;
                }
                let lane = ppa.plane_index(&self.ssd.config().geometry) as u32;
                self.probe.segment(Stall, lane, end, recovered);
                end = recovered;
            }
            array_done = array_done.max(end);
        }
        let mut done = array_done;
        // Walks from the PWB: DRAM read + board→chip channel transfer.
        // The entry's vector becomes the slot's queue (and goes back to
        // the pool on eviction); the entry refills from the pool.
        let idx = self.pwb.index_of(sg).expect("loading outside partition");
        let mut walks =
            std::mem::replace(&mut self.pwb.entries[idx].walks, self.pools.take_walks());
        let spilled = std::mem::take(&mut self.pwb.entries[idx].spilled);
        debug_assert!(
            walks
                .iter()
                .chain(spilled.iter().flat_map(|p| &p.walks))
                .all(|tw| tw.tag == sg && self.tag_holds_walk(tw)),
            "PWB entry of subgraph {sg} holds a walk tagged for another"
        );
        let ch = self.channel_of_chip(chip);
        let mut fetch_done = now;
        if !walks.is_empty() {
            let bytes = walks.len() as u64 * WALK_BYTES;
            let addr = idx as u64 * self.pwb.quota * WALK_BYTES;
            let d = self.dram.access(now, addr, bytes as u32, DramOp::Read);
            let t = self.ssd.channel_transfer(d.done, ch, bytes);
            fetch_done = fetch_done.max(t.end);
        }
        done = done.max(fetch_done);
        // Spilled walk pages: flash read → controller → chip. A spill
        // page's hard fail is charged its ladder but not re-read.
        let mut spill_done = now;
        for page in spilled {
            if let Some(ppa) = self.ssd.ftl_mut().translate(page.lpn) {
                let (r, _) = self.ssd.read_page_recorded(now, ppa, &mut self.probe);
                let c = self.ssd.channel_transfer(r.end, ppa.channel, page_bytes);
                let t = self.ssd.channel_transfer(c.end, ch, page_bytes);
                spill_done = spill_done.max(t.end);
            }
            self.ssd.ftl_mut().trim(page.lpn);
            walks.extend(page.walks);
        }
        done = done.max(spill_done);
        // Watchdog: a load that blows past the profile's timeout counts as
        // stalled — the scheduler abandons the wait and requeues the load
        // command (re-sent over the channel after a backoff), which is
        // what delays the slot opening; the data itself is already in
        // flight and completes with the requeued command.
        let faults = self.ssd.fault_profile();
        if faults.is_on() && done - now > faults.load_timeout {
            let resend = done + faults.retry_backoff;
            self.stats.stalled_loads += 1;
            self.stats.load_requeues += 1;
            let t = self.ssd.channel_transfer(resend, ch, WALK_BYTES);
            self.probe.segment(Stall, chip, done, t.end);
            done = t.end;
        }
        self.refresh_score(idx);
        self.probe.segment(NandRead, chip, now, array_done);
        let ids = walks.iter().map(|tw| tw.walk.id);
        self.probe.walks(ids, SubgraphLoad, chip);
        self.stats.load_array_ns += (array_done - now).as_nanos();
        self.stats.load_fetch_ns += (fetch_done - now).as_nanos();
        self.stats.load_spill_ns += (spill_done - now).as_nanos();
        self.stats.load_latency_ns += (done - now).as_nanos();
        self.stats.load_walks += walks.len() as u64;
        let id = self.events.schedule_at(done, Ev::ChipLoaded { chip, sg });
        self.probe.work(id, "sg.load", chip, now, done);
        walks
    }
}

#[cfg(test)]
mod tests {
    use super::super::state::{Slot, TWalk};
    use super::super::FlashWalkerSim;
    use crate::config::AccelConfig;
    use fw_graph::partition::PartitionConfig;
    use fw_graph::rmat::{generate_csr, RmatParams};
    use fw_graph::{Csr, PartitionedGraph};
    use fw_nand::SsdConfig;
    use fw_sim::SimTime;
    use fw_walk::Walk;

    fn setup() -> (Csr, PartitionedGraph) {
        let csr = generate_csr(RmatParams::graph500(), 2000, 20_000, 11);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 4 << 10,
                id_bytes: 4,
                subgraphs_per_partition: 5_000,
            },
        );
        (csr, pg)
    }

    /// Queue `n` walks for subgraph `sg` directly in the PWB.
    fn queue_walks(sim: &mut FlashWalkerSim, sg: u32, n: u64) {
        let v = sim.pg.subgraphs[sg as usize].low;
        for _ in 0..n {
            let tw = TWalk {
                walk: Walk::new(v, 6),
                tag: sg,
            };
            sim.pwb_insert(tw, SimTime::ZERO, false);
        }
    }

    #[test]
    fn pick_prefers_higher_walk_count() {
        let (csr, pg) = setup();
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        // Two subgraphs on the same chip: give one more walks.
        let chip0 = sim.chip_of_sg(0);
        let sibling = (1..pg.num_subgraphs())
            .find(|&sg| sim.chip_of_sg(sg) == chip0)
            .expect("another subgraph on chip 0");
        queue_walks(&mut sim, 0, 4);
        queue_walks(&mut sim, sibling, 40);
        assert_eq!(sim.pick_subgraph(chip0, true), Some(sibling));
    }

    #[test]
    fn pick_respects_min_load_threshold() {
        let (csr, pg) = setup();
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let chip0 = sim.chip_of_sg(0);
        let below = sim.cfg.min_load_walks.saturating_sub(1).max(1);
        queue_walks(&mut sim, 0, below);
        if below < sim.cfg.min_load_walks {
            assert_eq!(sim.pick_subgraph(chip0, false), None, "below threshold");
        }
        assert_eq!(
            sim.pick_subgraph(chip0, true),
            Some(0),
            "relaxed ignores it"
        );
    }

    #[test]
    fn pick_skips_other_chips_and_resident_subgraphs() {
        let (csr, pg) = setup();
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let chip0 = sim.chip_of_sg(0);
        queue_walks(&mut sim, 0, 50);
        let other = (0..sim.num_chips()).find(|&c| c != chip0).unwrap();
        assert_eq!(sim.pick_subgraph(other, true), None, "wrong chip");
        // Mark sg 0 resident: it must no longer be a candidate.
        sim.slots.of_mut(chip0)[0] = Slot::Loading {
            sg: 0,
            walks: Vec::new(),
        };
        assert_ne!(sim.pick_subgraph(chip0, true), Some(0), "already resident");
    }

    #[test]
    fn maybe_fill_loads_and_schedules_event() {
        let (csr, pg) = setup();
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let chip0 = sim.chip_of_sg(0);
        queue_walks(&mut sim, 0, 50);
        assert!(sim.events.is_empty());
        sim.maybe_fill_chip(chip0, SimTime::ZERO);
        assert_eq!(sim.stats.sg_loads, 1);
        assert!(!sim.events.is_empty(), "ChipLoaded event scheduled");
        // The PWB entry was drained into the loading slot.
        assert!(matches!(
            &sim.slots.of(chip0)[0],
            Slot::Loading { sg: 0, walks } if walks.len() == 50
        ));
        assert_eq!(sim.pwb.entries[0].walks.len(), 0);
    }

    #[test]
    fn scores_follow_eq1_shape() {
        let (csr, pg) = setup();
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        queue_walks(&mut sim, 0, 10);
        sim.refresh_score(0);
        let ten = sim.pwb.stale_score[0];
        queue_walks(&mut sim, 0, 10);
        sim.refresh_score(0);
        let twenty = sim.pwb.stale_score[0];
        assert!(twenty > ten, "score grows with waiting walks");
    }
}
