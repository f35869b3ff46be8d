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

use fw_graph::partition::PartitionConfig;
use fw_graph::{Csr, PartitionedGraph, VertexId};
use fw_nand::layout::GraphBlockPlacement;
use fw_nand::{GraphLayout, Lpn, Ssd, SsdConfig};
use fw_sim::{Duration, SimTime, TraceConfig, TraceReport, Tracer, Xoshiro256pp};
use fw_walk::{
    EngineBreakdown, RunReport, RunStats, Traffic, Walk, WalkEngine, Workload, WALK_BYTES,
};

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
    blocks: PartitionedGraph,
    placements: Vec<GraphBlockPlacement>,
    cfg: GwConfig,
    wl: Workload,
    ssd: Ssd,
    rng: Xoshiro256pp,
    tracer: Tracer,
}

impl<'g> IterativeSim<'g> {
    /// Build the engine over the same block structure GraphWalker uses.
    /// The workload is supplied at run time ([`Self::run_detailed`] /
    /// [`WalkEngine::run`]).
    pub fn new(csr: &'g Csr, id_bytes: u32, cfg: GwConfig, ssd_cfg: SsdConfig, seed: u64) -> Self {
        let blocks = PartitionedGraph::build(
            csr,
            PartitionConfig {
                subgraph_bytes: cfg.block_bytes,
                id_bytes,
                subgraphs_per_partition: u32::MAX,
            },
        );
        let pages_per_block = (cfg.block_bytes / ssd_cfg.geometry.page_bytes).max(1) as u32;
        let total_pages = blocks.num_subgraphs() as u64 * pages_per_block as u64;
        let per_plane = total_pages.div_ceil(ssd_cfg.geometry.num_planes() as u64);
        let static_blocks = (per_plane.div_ceil(ssd_cfg.geometry.pages_per_block as u64) as u32
            + 1)
        .min(ssd_cfg.geometry.blocks_per_plane - 4);
        let mut layout = GraphLayout::new(ssd_cfg.geometry, static_blocks);
        let placements = blocks
            .subgraphs
            .iter()
            .map(|sg| {
                let bytes = sg.bytes(id_bytes).max(ssd_cfg.geometry.page_bytes);
                let pages = bytes.div_ceil(ssd_cfg.geometry.page_bytes) as u32;
                let mut placement = layout.place_block(0);
                for _ in 0..pages {
                    placement.pages.extend(layout.place_block(1).pages);
                }
                placement
            })
            .collect();
        IterativeSim {
            csr,
            blocks,
            placements,
            cfg,
            wl: Workload::paper_default(0),
            ssd: Ssd::new(ssd_cfg, static_blocks),
            rng: Xoshiro256pp::new(seed),
            tracer: Tracer::disabled(),
        }
    }

    /// Enable span tracing on the iteration loop and the underlying SSD;
    /// derived views land in [`IterReport::trace`].
    pub fn with_span_trace(mut self, cfg: TraceConfig) -> Self {
        self.tracer = Tracer::enabled(cfg);
        self.ssd.enable_span_trace(cfg);
        self
    }

    fn block_of(&mut self, v: VertexId) -> u32 {
        match self.blocks.find_dense(v) {
            Some(meta) => {
                let meta = *meta;
                let cap = self.blocks.config.dense_slice_edges();
                let rnd = self.rng.next_below(meta.total_degree);
                let idx = ((rnd / cap) as u32).min(meta.num_blocks - 1);
                meta.first_subgraph + idx
            }
            None => self.blocks.subgraph_of(v).expect("vertex outside blocks"),
        }
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
            let b = self.block_of(w.cur);
            buckets[b as usize].push(w);
        }

        while completed < total {
            iterations += 1;
            let mut next_buckets: Vec<Vec<Walk>> = vec![Vec::new(); nblocks];
            for b in 0..nblocks {
                // Read back spilled walks for this block.
                for (lpn, walks) in std::mem::take(&mut spilled[b]) {
                    if let Some(r) = self.ssd.ftl_read_page(now, lpn) {
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
                let done = self.ssd.host_read_pages(now, pages);
                self.tracer
                    .span_bytes("iter.load", b as u32, now, done, num_pages * page_bytes);
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
                            let nb = self.block_of(next.cur);
                            next_buckets[nb as usize].push(next);
                        }
                    }
                }
                hops += batch_hops;
                let cpu = Duration::nanos(batch_hops * self.cfg.cpu_ns_per_hop);
                self.tracer.span("iter.update", b as u32, now, now + cpu);
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
                let end = self.ssd.host_write_lpns(now, &batch_lpns);
                self.tracer.span_bytes(
                    "iter.walk_io",
                    iterations,
                    now,
                    end,
                    batch_lpns.len() as u64 * page_bytes,
                );
                breakdown.walk_io += end - now;
                now = end;
            }
            assert!(
                iterations <= 4 * self.wl.initial_hops() as u32 + 8,
                "iterative engine failed to converge"
            );
        }

        let ssd_tracer = self.ssd.take_tracer();
        self.tracer.merge(&ssd_tracer);
        let span_trace = self.tracer.finish(now);

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
