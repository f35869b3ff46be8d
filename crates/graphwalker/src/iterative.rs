//! An iteration-synchronous out-of-core baseline in the GraphChi /
//! DrunkardMob mold — the systems §II-B argues against:
//!
//! > "The iteration-wise synchronization forces updated walks to be
//! > written back to disks before walks are completed, incurring
//! > significant slow disk operations. Moreover, the iteration-wise
//! > synchronization prevents finished partitions of current iteration
//! > from being initiated."
//!
//! Each iteration streams every graph block that holds walks through
//! memory in ID order, advances each resident walk by **one** hop, and
//! buckets moved walks for the *next* iteration (walks never re-enter a
//! block within an iteration, even if memory still holds it — that is the
//! synchronization the quote describes). Walk buckets beyond the walk
//! buffer spill to disk between iterations.
//!
//! Comparing this engine against [`crate::GraphWalkerSim`] reproduces the
//! GraphWalker paper's own result (asynchronous updating wins), and
//! against FlashWalker the full hierarchy of §II.

use fw_graph::{Csr, GraphBlocks};
use fw_nand::layout::GraphBlockPlacement;
use fw_nand::{Lpn, Ssd, SsdConfig};
use fw_sim::{Duration, Probe, SimTime, TraceConfig, TraceReport, Xoshiro256pp};
use fw_walk::{
    EngineBreakdown, RunReport, RunStats, Traffic, Walk, WalkEngine, Workload, WALK_BYTES,
};

use crate::blocks::{block_of, lay_out};
use crate::breakdown::TimeBreakdown;
use crate::config::GwConfig;

/// Result of an iterative-baseline run.
#[derive(Debug, Clone)]
pub struct IterReport {
    /// End-to-end execution time.
    pub time: Duration,
    /// Walks completed.
    pub walks: u64,
    /// Hops executed.
    pub hops: u64,
    /// Iterations performed (≥ the walk length).
    pub iterations: u32,
    /// Graph-block loads.
    pub block_loads: u64,
    /// Time breakdown.
    pub breakdown: TimeBreakdown,
    /// Bytes read from flash.
    pub flash_read_bytes: u64,
    /// Bytes written to flash (iteration walk write-back).
    pub flash_write_bytes: u64,
    /// Bytes over PCIe.
    pub pcie_bytes: u64,
    /// Achieved flash read bandwidth over the run, bytes/s.
    pub read_bw: f64,
    /// Span-trace derived views, when
    /// [`IterativeSim::with_span_trace`] was enabled.
    pub trace: Option<TraceReport>,
}

impl From<IterReport> for RunReport {
    fn from(r: IterReport) -> RunReport {
        RunReport {
            engine: "iterative",
            time: r.time,
            walks: r.walks,
            stats: RunStats {
                hops: r.hops,
                loads: r.block_loads,
                walk_spill_pages: 0, // every surviving walk is written back each iteration
            },
            traffic: Traffic {
                flash_read_bytes: r.flash_read_bytes,
                flash_write_bytes: r.flash_write_bytes,
                interconnect_bytes: r.pcie_bytes,
            },
            breakdown: EngineBreakdown {
                load_ns: r.breakdown.load_graph.as_nanos(),
                update_ns: r.breakdown.update_walks.as_nanos(),
                walk_io_ns: r.breakdown.walk_io.as_nanos(),
                other_ns: r.breakdown.other.as_nanos(),
            },
            read_bw: r.read_bw,
            progress: Vec::new(), // untraced engine
            trace_window_ns: 0,
            walk_log: Vec::new(), // no walk logging
            trace: r.trace,
            faults: None,   // serial engine runs unfaulted
            journeys: None, // no per-walk lifecycle recording
            critical: None, // no dependency recording either
        }
    }
}

/// The iteration-synchronous engine.
pub struct IterativeSim<'g> {
    csr: &'g Csr,
    blocks: GraphBlocks,
    placements: Vec<GraphBlockPlacement>,
    cfg: GwConfig,
    wl: Workload,
    ssd: Ssd,
    rng: Xoshiro256pp,
    /// The run's recorders; only spans are ever enabled here.
    probe: Probe,
}

impl<'g> IterativeSim<'g> {
    /// Build the engine over the same block structure GraphWalker uses.
    /// The workload is supplied at run time ([`Self::run_detailed`] /
    /// [`WalkEngine::run`]). `cfg` supplies the block size and the per-hop
    /// CPU cost; its `memory_bytes` is not read, since every iteration
    /// streams each block that holds walks whatever memory holds.
    pub fn new(csr: &'g Csr, id_bytes: u32, cfg: GwConfig, ssd_cfg: SsdConfig, seed: u64) -> Self {
        let (blocks, placements, static_blocks) = lay_out(csr, id_bytes, &cfg, &ssd_cfg);
        IterativeSim {
            csr,
            blocks,
            placements,
            cfg,
            wl: Workload::paper_default(0),
            ssd: Ssd::new(ssd_cfg, static_blocks),
            rng: Xoshiro256pp::new(seed),
            probe: Probe::default(),
        }
    }

    /// Enable span tracing on the iteration loop and the underlying SSD;
    /// derived views land in [`IterReport::trace`].
    pub fn with_span_trace(mut self, cfg: TraceConfig) -> Self {
        self.probe.enable_trace(cfg);
        self.ssd.enable_span_trace(cfg);
        self
    }

    /// Run `wl` to completion and return the engine-specific report. The
    /// unified view is [`WalkEngine::run`].
    pub fn run_detailed(mut self, wl: Workload) -> IterReport {
        self.wl = wl;
        let mut breakdown = TimeBreakdown::default();
        let mut now = SimTime::ZERO;
        let mut completed = 0u64;
        let mut hops = 0u64;
        let mut block_loads = 0u64;
        let mut iterations = 0u32;
        let total = self.wl.num_walks;
        let page_bytes = self.ssd.config().geometry.page_bytes;
        let walks_per_page = (page_bytes / WALK_BYTES) as usize;

        let nblocks = self.blocks.num_subgraphs() as usize;
        let mut buckets: Vec<Vec<Walk>> = vec![Vec::new(); nblocks];
        let mut spilled: Vec<Vec<(Lpn, Vec<Walk>)>> = vec![Vec::new(); nblocks];
        let mut next_lpn: Lpn = 0;
        for w in self.wl.init_walks(self.csr, self.rng.next_u64()) {
            let b = block_of(&self.blocks, w.cur, &mut self.rng);
            buckets[b as usize].push(w);
        }

        while completed < total {
            iterations += 1;
            let mut next_buckets: Vec<Vec<Walk>> = vec![Vec::new(); nblocks];
            for b in 0..nblocks {
                // The clock only advances, and every step issues its I/O
                // at the clock or later.
                self.ssd.set_floor(now);
                // Read back spilled walks for this block.
                for (lpn, walks) in std::mem::take(&mut spilled[b]) {
                    // The iterative baseline never enables faults.
                    if let Some((r, _)) = self.ssd.ftl_read_page(now, lpn) {
                        let dma = self.ssd.pcie_transfer(r.end, page_bytes);
                        breakdown.walk_io += dma.end - now;
                        now = dma.end;
                    }
                    self.ssd.ftl_mut().trim(lpn);
                    buckets[b].extend(walks);
                }
                if buckets[b].is_empty() {
                    continue;
                }
                // Load the block (no cross-iteration cache: the stream
                // revisits every block each iteration).
                block_loads += 1;
                let pages = &self.placements[b].pages;
                let num_pages = pages.len() as u64;
                // Fault-free, as the read-backs above are.
                let (done, _) = self.ssd.host_read_pages(now, pages);
                let bytes = num_pages * page_bytes;
                self.probe.span("iter.load", b as u32, now, done, bytes);
                breakdown.load_graph += done - now;
                now = done;

                // One hop per walk — iteration-wise synchronization.
                let work = std::mem::take(&mut buckets[b]);
                let mut batch_hops = 0u64;
                for w in work {
                    let (ev, _) = self.wl.step(self.csr, w, &mut self.rng);
                    batch_hops += 1;
                    match ev {
                        fw_walk::workload::WalkEvent::Completed(_) => completed += 1,
                        fw_walk::workload::WalkEvent::Moved(next) => {
                            let nb = block_of(&self.blocks, next.cur, &mut self.rng);
                            next_buckets[nb as usize].push(next);
                        }
                    }
                }
                hops += batch_hops;
                let cpu = Duration::nanos(batch_hops * self.cfg.cpu_ns_per_hop);
                self.probe.span("iter.update", b as u32, now, now + cpu, 0);
                breakdown.update_walks += cpu;
                now += cpu;
            }

            // Synchronization barrier: all surviving walks are written
            // back to disk before the next iteration begins.
            let mut batch_lpns = Vec::new();
            for (b, bucket) in next_buckets.iter_mut().enumerate() {
                let walks = std::mem::take(bucket);
                for chunk in walks.chunks(walks_per_page.max(1)) {
                    next_lpn += 1;
                    batch_lpns.push(next_lpn);
                    spilled[b].push((next_lpn, chunk.to_vec()));
                }
            }
            if !batch_lpns.is_empty() {
                self.ssd.set_floor(now);
                let end = self.ssd.host_write_lpns(now, &batch_lpns);
                let bytes = batch_lpns.len() as u64 * page_bytes;
                self.probe.span("iter.walk_io", iterations, now, end, bytes);
                breakdown.walk_io += end - now;
                now = end;
            }
            assert!(
                iterations <= 4 * self.wl.initial_hops() as u32 + 8,
                "iterative engine failed to converge"
            );
        }

        let (span_trace, _, _) = self.probe.finish(now, &[self.ssd.take_tracer()]);

        let s = *self.ssd.stats();
        let cfgp = *self.ssd.config();
        IterReport {
            time: now - SimTime::ZERO,
            walks: completed,
            hops,
            iterations,
            block_loads,
            breakdown,
            flash_read_bytes: s.array_read_bytes(&cfgp),
            flash_write_bytes: s.array_write_bytes(&cfgp),
            pcie_bytes: s.pcie_bytes,
            read_bw: if now == SimTime::ZERO {
                0.0
            } else {
                s.array_read_bytes(&cfgp) as f64 / now.as_secs_f64()
            },
            trace: span_trace,
        }
    }
}

impl WalkEngine for IterativeSim<'_> {
    fn name(&self) -> &'static str {
        "iterative"
    }

    fn run(self, workload: Workload) -> RunReport {
        self.run_detailed(workload).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GraphWalkerSim;
    use fw_graph::rmat::{generate_csr, RmatParams};

    fn cfg() -> GwConfig {
        GwConfig {
            memory_bytes: 128 << 10,
            block_bytes: 16 << 10,
            cpu_ns_per_hop: 20,
            walk_buffer_bytes: 64 << 10,
        }
    }

    #[test]
    fn completes_in_walk_length_iterations() {
        let g = generate_csr(RmatParams::graph500(), 1_000, 12_000, 3);
        let wl = Workload::paper_default(2_000);
        let r = IterativeSim::new(&g, 4, cfg(), SsdConfig::tiny(), 5).run_detailed(wl);
        assert_eq!(r.walks, 2_000);
        // Fixed 6-hop walks need at most 6 sweeps (dead ends can finish
        // earlier, never later).
        assert!(r.iterations <= 6, "{} iterations", r.iterations);
        assert!(r.hops <= 12_000);
    }

    #[test]
    fn asynchronous_graphwalker_beats_iteration_synchronous() {
        // §II-B's argument, measured: same graph, same workload, same SSD
        // model — GraphWalker's asynchronous updating must win.
        let g = generate_csr(RmatParams::graph500(), 2_000, 30_000, 7);
        let wl = Workload::paper_default(4_000);
        let iter = IterativeSim::new(&g, 4, cfg(), SsdConfig::tiny(), 5).run_detailed(wl);
        let gw = GraphWalkerSim::new(&g, 4, cfg(), SsdConfig::tiny(), 5).run_detailed(wl);
        assert_eq!(iter.walks, gw.walks);
        assert!(
            gw.time < iter.time,
            "async {} must beat iterative {}",
            gw.time,
            iter.time
        );
        // And the iterative engine re-reads far more graph data.
        assert!(iter.block_loads > gw.block_loads);
    }

    #[test]
    fn iterative_writes_walks_every_iteration() {
        let g = generate_csr(RmatParams::graph500(), 1_000, 12_000, 3);
        let wl = Workload::paper_default(2_000);
        let r = IterativeSim::new(&g, 4, cfg(), SsdConfig::tiny(), 5).run_detailed(wl);
        // Synchronization forces walk write-back: walk I/O is nonzero.
        assert!(r.breakdown.walk_io > Duration::ZERO);
    }
}
