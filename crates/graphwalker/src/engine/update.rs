//! Walk progress: the asynchronous update batch over a scheduled block's
//! pool, and the walk-buffer spill policy that bounds host memory.

use fw_nand::Lpn;
use fw_sim::Duration;
use fw_sim::JourneyEventKind::{Complete, Enqueue, PcieTransfer, SampleStep};
use fw_walk::workload::WalkEvent;
use fw_walk::WALK_BYTES;

use super::{GraphWalkerSim, GwRun};
use crate::blocks::block_of;

impl GraphWalkerSim<'_> {
    /// Asynchronously update every waiting walk of `block` until it
    /// leaves the cached block set or completes (GraphWalker's key idea:
    /// "keeps updating them until they leave these blocks or have reached
    /// the termination conditions").
    pub(super) fn update_block(&mut self, block: u32, run: &mut GwRun) {
        // Taken for the drain; the emptied buffer is restored below so the
        // pool never reallocates. Safe because hopping walks either stay
        // cached (and keep hopping) or leave to *another* block's pool —
        // nothing pushes into `block`'s own pool mid-update.
        let mut work = std::mem::take(&mut self.pools[block as usize].walks);
        // The walk RNG, moved out for the batch (same object, same draw
        // order).
        let mut wrng = self.take_walk_rng();
        let mut batch_hops: u64 = 0;
        for mut w in work.drain(..) {
            self.probe.walk(w.id, SampleStep, block);
            loop {
                let (ev, _ops) = self.wl.step(self.csr, w, &mut wrng);
                batch_hops += 1;
                match ev {
                    WalkEvent::Completed(done) => {
                        run.completed += 1;
                        run.progress.add(run.now, 1.0);
                        self.probe.mark(done.id, Complete, block);
                        if let Some(log) = &mut self.walk_log {
                            log.push(done);
                        }
                        break;
                    }
                    WalkEvent::Moved(next) => {
                        w = next;
                        let b = block_of(&self.blocks, w.cur, &mut wrng);
                        if self.cache.contains(&b) {
                            // Keep updating inside cached blocks, but
                            // account the walk to its block if we stop.
                            continue;
                        }
                        self.probe.mark(w.id, Enqueue, b);
                        self.pools[b as usize].walks.push(w);
                        break;
                    }
                }
            }
        }
        self.put_walk_rng(wrng);
        self.pools[block as usize].walks = work;
        run.hops += batch_hops;
        let cpu = Duration::nanos(batch_hops * self.cfg.cpu_ns_per_hop);
        let now = run.now;
        self.probe.phase("gw.update", block, now, now + cpu, 0);
        if let Some(per_hop) = cpu.as_nanos().checked_div(batch_hops) {
            self.probe.record("walk.step_ns", per_hop);
        }
        run.breakdown.update_walks += cpu;
        run.now += cpu;
    }

    /// Spill oversized pools: smallest pools go to disk first (keeping
    /// hot pools resident suits state-aware scheduling). All spill pages
    /// of one round are written as one batched host command, so programs
    /// pipeline across planes the way a sequential buffered file write
    /// does.
    pub(super) fn spill_overflow(&mut self, run: &mut GwRun) {
        let walks_per_page = (self.ssd.config().geometry.page_bytes / WALK_BYTES) as usize;
        let mut ram_walks: u64 = self.pools.iter().map(|p| p.walks.len() as u64).sum();
        if ram_walks * WALK_BYTES <= self.cfg.walk_buffer_bytes {
            return;
        }
        let mut batch_lpns: Vec<Lpn> = Vec::new();
        let mut order: Vec<usize> = (0..self.pools.len())
            .filter(|&b| !self.pools[b].walks.is_empty())
            .collect();
        order.sort_by_key(|&b| (self.pools[b].walks.len(), b));
        for victim in order {
            if ram_walks * WALK_BYTES <= self.cfg.walk_buffer_bytes {
                break;
            }
            let walks = std::mem::take(&mut self.pools[victim].walks);
            ram_walks -= walks.len() as u64;
            run.walk_spills += 1;
            self.probe
                .walks(walks.iter().map(|w| w.id), PcieTransfer, victim as u32);
            for chunk in walks.chunks(walks_per_page) {
                self.next_lpn += 1;
                let lpn = self.next_lpn;
                batch_lpns.push(lpn);
                self.pools[victim].spilled.push((lpn, chunk.to_vec()));
            }
        }
        if !batch_lpns.is_empty() {
            let end = self.ssd.host_write_lpns(run.now, &batch_lpns);
            let bytes = batch_lpns.len() as u64 * self.ssd.config().geometry.page_bytes;
            // Spills are not block-directed: one shared lane.
            self.probe.span("gw.walk_io", u32::MAX, run.now, end, bytes);
            run.breakdown.walk_io += end - run.now;
            run.now = end;
        }
    }
}
