//! Block residency: state-aware block picking, the LRU host block cache
//! and the read-back of spilled walk pages.

use fw_sim::JourneyEventKind::{NandRead, PcieTransfer, Stall, SubgraphLoad};
use fw_sim::SimTime;

use super::{GraphWalkerSim, GwRun};

impl GraphWalkerSim<'_> {
    /// Pick the block with the most waiting walks (state-aware
    /// scheduling). Ties break to the lower id.
    pub(super) fn pick_block(&self) -> Option<u32> {
        (0..self.pools.len())
            .filter(|&b| self.pools[b].total() > 0)
            .max_by(|&a, &b| {
                self.pools[a]
                    .total()
                    .cmp(&self.pools[b].total())
                    .then(b.cmp(&a))
            })
            .map(|b| b as u32)
    }

    /// Fault `block` into the cache if absent, advancing `run.now` past
    /// any required I/O. Reads go through the full host path (array →
    /// channel → PCIe).
    pub(super) fn ensure_cached(&mut self, block: u32, run: &mut GwRun) {
        if let Some(pos) = self.cache.iter().position(|&b| b == block) {
            self.cache.remove(pos);
            self.cache.insert(0, block);
            return;
        }
        if self.cache.len() >= self.cfg.cache_blocks() {
            self.cache.pop(); // evict LRU (clean data, no writeback)
        }
        self.cache.insert(0, block);
        run.block_loads += 1;
        // The host path page by page (NVMe command → array read → channel
        // → PCIe DMA), unrolled from `Ssd::host_read_pages` so each page's
        // ECC verdict is visible: a hard-failed page goes through the
        // recovery loop, whose degraded read stands for host-side
        // reconstruction, before its channel/PCIe leg. With faults off
        // this is timing-identical to `host_read_pages`.
        let page_bytes = self.ssd.config().geometry.page_bytes;
        let start = run.now + self.ssd.config().nvme_cmd_overhead;
        let mut done = start;
        // Fault segments go to the probe, which stamps them onto every
        // sampled walk of the block.
        let mut array_done = start;
        let mut pcie_start: Option<SimTime> = None;
        for &ppa in &self.placements[block as usize].pages {
            let (r, fault) = self.ssd.read_page_recorded(start, ppa, &mut self.probe);
            let mut end = r.end;
            if fault.hard_fail {
                let (recovered, rereads, degraded) =
                    self.ssd.recover_read(ppa, end, &mut self.probe);
                run.requeues += u64::from(rereads);
                run.degraded += u64::from(degraded);
                let lane = ppa.plane_index(&self.ssd.config().geometry) as u32;
                self.probe.segment(Stall, lane, end, recovered);
                end = recovered;
            }
            array_done = array_done.max(end);
            let ch = self.ssd.channel_transfer(end, ppa.channel, page_bytes);
            let dma = self.ssd.pcie_transfer(ch.end, page_bytes);
            pcie_start = Some(match pcie_start {
                Some(s) if s <= ch.end => s,
                _ => ch.end,
            });
            done = done.max(dma.end);
        }
        // Watchdog: a block load that blows past the profile's timeout is
        // treated as stalled — the host abandons the wait and requeues the
        // NVMe command after a backoff; the requeued command completes
        // against data already staged in the controller.
        let faults = self.ssd.fault_profile();
        if faults.is_on() && done - run.now > faults.load_timeout {
            run.stalled_loads += 1;
            run.requeues += 1;
            let stalled_at = done;
            done = done + faults.retry_backoff + self.ssd.config().nvme_cmd_overhead;
            self.probe.segment(Stall, u32::MAX, stalled_at, done);
        }
        // Every walk pooled on this block waited out the whole load; the
        // DMA leg is recorded for the per-walk tracks even though the load
        // interval shadows it in the decomposition.
        self.probe.segment(NandRead, block, start, array_done);
        if let Some(ps) = pcie_start {
            self.probe.segment(PcieTransfer, block, ps, done);
        }
        // Spilled walks waited on the load too.
        let pool = &self.pools[block as usize];
        let spilled = pool.spilled.iter().flat_map(|(_, walks)| walks);
        let ids = pool.walks.iter().chain(spilled).map(|w| w.id);
        self.probe.walks(ids, SubgraphLoad, block);
        let bytes = self.placements[block as usize].pages.len() as u64 * page_bytes;
        self.probe.phase("gw.load", block, run.now, done, bytes);
        run.breakdown.load_graph += done - run.now;
        run.now = done;
    }

    /// Read back spilled walk pages for `block` (walk I/O). Pages are
    /// issued together and pipeline across planes.
    pub(super) fn read_spilled(&mut self, block: u32, run: &mut GwRun) {
        let spilled = std::mem::take(&mut self.pools[block as usize].spilled);
        if spilled.is_empty() {
            return;
        }
        let page_bytes = self.ssd.config().geometry.page_bytes;
        let mut done = run.now;
        for (lpn, walks) in spilled {
            // A spill page's hard fail is charged its ladder but not re-read.
            if let Some(ppa) = self.ssd.ftl_mut().translate(lpn) {
                let (r, _) = self.ssd.read_page_recorded(run.now, ppa, &mut self.probe);
                let ch = self.ssd.channel_transfer(r.end, ppa.channel, page_bytes);
                let dma = self.ssd.pcie_transfer(ch.end, page_bytes);
                done = done.max(dma.end);
            }
            self.ssd.ftl_mut().trim(lpn);
            // Spill read-back is walk I/O over the host path; attributed
            // to the PCIe leg in the journey decomposition.
            self.probe
                .walks(walks.iter().map(|w| w.id), PcieTransfer, block);
            self.pools[block as usize].walks.extend(walks);
        }
        self.probe.phase("gw.walk_io", block, run.now, done, 0);
        run.breakdown.walk_io += done - run.now;
        run.now = done;
    }
}
