//! Block residency: state-aware block picking, the LRU host block cache
//! and the read-back of spilled walk pages.

use fw_nand::Ppa;
use fw_sim::JourneyEventKind::{EccRetry, NandRead, PcieTransfer, Stall, SubgraphLoad};
use fw_sim::{Duration, SimTime};

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
        // ECC verdict is visible: a hard-failed page goes through the host
        // recovery path before its channel/PCIe leg. With faults off this
        // is timing-identical to `host_read_pages`.
        let num_pages = self.placements[block as usize].pages.len();
        let page_bytes = self.ssd.config().geometry.page_bytes;
        let start = run.now + self.ssd.config().nvme_cmd_overhead;
        let mut done = start;
        // Fault segments go to the probe, which stamps them onto every
        // sampled walk pooled on the block. Their lane is the page index,
        // so same-timed retries on different pages stay distinct events.
        let mut array_done = start;
        let mut pcie_start: Option<SimTime> = None;
        for i in 0..num_pages {
            let ppa = self.placements[block as usize].pages[i];
            let (mut end, hard_fail) = self.array_read_recorded(start, ppa, i as u32);
            if hard_fail {
                let recovered = self.recover_host_read(ppa, end, run, i as u32);
                self.probe.segment(Stall, i as u32, end, recovered);
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
        if self.faults.is_on() && done - run.now > self.faults.load_timeout {
            run.stalled_loads += 1;
            run.requeues += 1;
            let stalled_at = done;
            done = done + self.faults.retry_backoff + self.ssd.config().nvme_cmd_overhead;
            self.probe.segment(Stall, u32::MAX, stalled_at, done);
        }
        // Every walk pooled on this block waited out the whole load; the
        // DMA leg is recorded for the per-walk tracks even though the load
        // interval shadows it in the decomposition.
        self.probe.segment(NandRead, block, start, array_done);
        if let Some(ps) = pcie_start {
            self.probe.segment(PcieTransfer, block, ps, done);
        }
        let ids = self.pools[block as usize].walks.iter().map(|w| w.id);
        self.probe.walks(ids, SubgraphLoad, block);
        let bytes = num_pages as u64 * page_bytes;
        self.probe.phase("gw.load", block, run.now, done, bytes);
        run.breakdown.load_graph += done - run.now;
        run.now = done;
    }

    /// One array read of `ppa` from `at`. Its retry-ladder time goes to
    /// the probe as an ECC-retry segment on `lane`. Returns the read's end
    /// and whether the ladder ran dry.
    fn array_read_recorded(&mut self, at: SimTime, ppa: Ppa, lane: u32) -> (SimTime, bool) {
        let (r, fault) = self.ssd.array_read_checked(at, ppa);
        if fault.extra.as_nanos() > 0 {
            self.probe
                .segment(EccRetry, lane, r.end - fault.extra, r.end);
        }
        (r.end, fault.hard_fail)
    }

    /// Host recovery for a page whose ECC ladder was exhausted: re-issue
    /// the read with exponential backoff up to the profile's attempt
    /// budget, then fall back to host-side reconstruction, charged as one
    /// final full-array pass (any residual errors on that pass are
    /// absorbed by the reconstruction). Returns when the page is in the
    /// controller. Retry-ladder time spent by every re-read, the final
    /// pass included, goes to the probe as segments on `lane`, so
    /// journeys reconcile with the injector's aggregate retry counters.
    fn recover_host_read(
        &mut self,
        ppa: Ppa,
        failed_at: SimTime,
        run: &mut GwRun,
        lane: u32,
    ) -> SimTime {
        let mut end = failed_at;
        for attempt in 0..self.faults.max_load_attempts.saturating_sub(1) {
            run.requeues += 1;
            let backoff = Duration::nanos(self.faults.retry_backoff.as_nanos() << attempt);
            let (read_end, hard_fail) = self.array_read_recorded(end + backoff, ppa, lane);
            end = read_end;
            if !hard_fail {
                return end;
            }
        }
        run.degraded += 1;
        self.array_read_recorded(end, ppa, lane).0
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
            if let Some(r) = self.ssd.ftl_read_page(run.now, lpn) {
                let dma = self.ssd.pcie_transfer(r.end, page_bytes);
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
