//! The GraphWalker host engine.
//!
//! A serial scheduler loop over coarse graph blocks: pick the block with
//! the most waiting walks, fault it into the host block cache through the
//! SSD's NVMe/PCIe path if absent, then asynchronously update every
//! waiting walk until it leaves the cached block set or completes.
//! Walks that leave go to the destination block's pool; pools beyond the
//! walk buffer spill to disk and are read back when their block is next
//! scheduled.
//!
//! ## Module map
//!
//! * `cache` — block residency: state-aware block picking, the LRU host
//!   cache and spilled-walk read-back.
//! * `update` — walk progress: the asynchronous update batch and the
//!   walk-buffer spill policy.
//!
//! This file owns the simulator struct, construction (blocks and their
//! SSD layout come from `crate::blocks`) and the top-level scheduler
//! loop.

mod cache;
mod update;

use fw_fault::{derive_stream_seed, FaultProfile, FAULT_STREAM};
use fw_graph::{Csr, GraphBlocks};
use fw_nand::layout::GraphBlockPlacement;
use fw_nand::{Lpn, Ssd, SsdConfig};
use fw_sim::{
    CriticalConfig, CriticalReport, Duration, JourneyConfig, JourneyEventKind, JourneyReport,
    Probe, SimTime, TimeSeries, TraceConfig, TraceReport, Xoshiro256pp,
};
use fw_walk::{
    EngineBreakdown, FaultSummary, RunReport, RunStats, Traffic, Walk, WalkEngine, Workload,
};

use crate::blocks::{block_of, lay_out};
use crate::breakdown::TimeBreakdown;
use crate::config::GwConfig;

/// Result of a GraphWalker run.
#[derive(Debug, Clone)]
pub struct GwReport {
    /// End-to-end execution time.
    pub time: Duration,
    /// Walks completed.
    pub walks: u64,
    /// Total hops executed.
    pub hops: u64,
    /// Figure 1 time breakdown.
    pub breakdown: TimeBreakdown,
    /// Bytes read from flash arrays on behalf of the host.
    pub flash_read_bytes: u64,
    /// Bytes written to flash (walk spills).
    pub flash_write_bytes: u64,
    /// Bytes over PCIe.
    pub pcie_bytes: u64,
    /// Achieved flash read bandwidth over the run, bytes/s.
    pub read_bw: f64,
    /// Graph-block loads (including re-loads).
    pub block_loads: u64,
    /// Walk pool spill events.
    pub walk_spills: u64,
    /// Walks completed per trace window.
    pub progress: Vec<f64>,
    /// Trace window width in nanoseconds.
    pub trace_window_ns: u64,
    /// Completed walks, collected when
    /// [`GraphWalkerSim::with_walk_log`] is enabled.
    pub walk_log: Vec<Walk>,
    /// Span-trace derived views, when
    /// [`GraphWalkerSim::with_span_trace`] was enabled.
    pub trace: Option<TraceReport>,
    /// Fault-injection counters, when the run had a nonzero fault
    /// profile ([`GraphWalkerSim::with_faults`]).
    pub faults: Option<FaultSummary>,
    /// Walk-journey report, when
    /// [`GraphWalkerSim::with_journeys`] was enabled.
    pub journeys: Option<JourneyReport>,
    /// Critical-path report (causal bottleneck attribution), when
    /// [`GraphWalkerSim::with_critical`] was enabled. The engine is
    /// serial, so the "path" is the full phase chain — its value is the
    /// per-phase share split, comparable with FlashWalker's.
    pub critical: Option<CriticalReport>,
}

impl From<GwReport> for RunReport {
    fn from(r: GwReport) -> RunReport {
        RunReport {
            engine: "graphwalker",
            time: r.time,
            walks: r.walks,
            stats: RunStats {
                hops: r.hops,
                loads: r.block_loads,
                walk_spill_pages: r.walk_spills,
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
            progress: r.progress,
            trace_window_ns: r.trace_window_ns,
            walk_log: r.walk_log,
            trace: r.trace,
            faults: r.faults,
            journeys: r.journeys,
            critical: r.critical,
        }
    }
}

pub(super) struct BlockPool {
    pub(super) walks: Vec<Walk>,
    pub(super) spilled: Vec<(Lpn, Vec<Walk>)>,
}

impl BlockPool {
    pub(super) fn total(&self) -> u64 {
        self.walks.len() as u64
            + self
                .spilled
                .iter()
                .map(|(_, w)| w.len() as u64)
                .sum::<u64>()
    }
}

/// Mutable per-run accumulator threaded through the loop phases.
pub(super) struct GwRun {
    pub(super) now: SimTime,
    pub(super) breakdown: TimeBreakdown,
    pub(super) completed: u64,
    pub(super) hops: u64,
    pub(super) block_loads: u64,
    pub(super) walk_spills: u64,
    pub(super) progress: TimeSeries,
    /// Block loads that exceeded the fault profile's timeout.
    pub(super) stalled_loads: u64,
    /// Page/command re-issues performed by the host recovery path.
    pub(super) requeues: u64,
    /// Pages completed through the degraded host-reconstruction path.
    pub(super) degraded: u64,
}

/// The GraphWalker simulator.
pub struct GraphWalkerSim<'g> {
    csr: &'g Csr,
    blocks: GraphBlocks,
    placements: Vec<GraphBlockPlacement>,
    cfg: GwConfig,
    wl: Workload,
    ssd: Ssd,
    /// The host walk RNG: every hop draws from it, in program order.
    rng: Xoshiro256pp,
    /// Construction seed, kept so [`Self::with_faults`] can derive the
    /// injector's independent stream.
    seed: u64,
    /// Block ids currently cached in host memory, LRU order (front = MRU).
    cache: Vec<u32>,
    pools: Vec<BlockPool>,
    next_lpn: Lpn,
    trace_window_ns: u64,
    walk_log: Option<Vec<Walk>>,
    /// The run's recorders: block-level spans (loads, walk I/O, updates,
    /// spills), the queue gauge, walk-step latency and sampled walk
    /// journeys, plus one dependency node per non-empty phase (sched /
    /// load / walk I/O / update / spill), chained in program order. The
    /// SSD tracer is folded in at run end.
    probe: Probe,
}

impl<'g> GraphWalkerSim<'g> {
    /// Build the engine: partition the graph into GraphWalker-size blocks
    /// and lay them out on the shared SSD model. The workload is supplied
    /// at run time ([`Self::run_detailed`] / [`WalkEngine::run`]).
    pub fn new(csr: &'g Csr, id_bytes: u32, cfg: GwConfig, ssd_cfg: SsdConfig, seed: u64) -> Self {
        let (blocks, placements, static_blocks) = lay_out(csr, id_bytes, &cfg, &ssd_cfg);
        let pools = (0..blocks.num_subgraphs())
            .map(|_| BlockPool {
                walks: Vec::new(),
                spilled: Vec::new(),
            })
            .collect();
        GraphWalkerSim {
            csr,
            blocks,
            placements,
            cfg,
            wl: Workload::paper_default(0),
            ssd: Ssd::new(ssd_cfg, static_blocks),
            rng: Xoshiro256pp::new(seed),
            seed,
            cache: Vec::new(),
            pools,
            next_lpn: 0,
            trace_window_ns: 1_000_000,
            walk_log: None,
            probe: Probe::default(),
        }
    }

    /// Move the walk RNG out so an update batch can draw from it
    /// alongside `&mut self` (same object, same draw order). Must be
    /// returned via [`Self::put_walk_rng`].
    pub(super) fn take_walk_rng(&mut self) -> Xoshiro256pp {
        std::mem::replace(&mut self.rng, Xoshiro256pp::new(0))
    }

    /// Return the generator taken with [`Self::take_walk_rng`].
    pub(super) fn put_walk_rng(&mut self, rng: Xoshiro256pp) {
        self.rng = rng;
    }

    /// Set the progress trace window (default 1 ms).
    pub fn with_trace_window(mut self, window_ns: u64) -> Self {
        self.trace_window_ns = window_ns;
        self
    }

    /// Collect every completed walk into [`GwReport::walk_log`].
    ///
    /// Besides the figure binaries, this is the serving layer's hook:
    /// `fw-serve` runs every admitted batch with the walk log on and
    /// installs the endpoint distribution of cacheable (single-source)
    /// batches into its hot-source walk cache.
    pub fn with_walk_log(mut self) -> Self {
        self.walk_log = Some(Vec::new());
        self
    }

    /// Enable fault injection and recovery under `profile`. The injector
    /// draws from its own RNG stream derived from the construction seed,
    /// so walk paths match a fault-free run — only timing and
    /// retry/requeue metrics change. Enabling [`FaultProfile::none`] is a
    /// no-op.
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.ssd
            .enable_faults(profile, derive_stream_seed(self.seed, FAULT_STREAM));
        self
    }

    /// Enable sampled walk-journey recording; the derived report lands in
    /// [`GwReport::journeys`]. Sampling is a pure function of
    /// `cfg.seed` and the walk id, so recording never perturbs the
    /// simulated schedule.
    pub fn with_journeys(mut self, cfg: JourneyConfig) -> Self {
        self.probe.enable_journeys(cfg);
        self
    }

    /// Enable causal critical-path recording; the derived
    /// [`fw_sim::CriticalReport`] — whose path segments sum *exactly* to
    /// end-to-end sim time — lands in [`GwReport::critical`]. Recording
    /// never touches sim state, so every other report byte is unchanged.
    pub fn with_critical(mut self, cfg: CriticalConfig) -> Self {
        self.probe.enable_critical(cfg);
        self
    }

    /// Enable span tracing on the host loop and the underlying SSD;
    /// derived views land in [`GwReport::trace`].
    pub fn with_span_trace(mut self, cfg: TraceConfig) -> Self {
        self.probe.enable_trace(cfg);
        self.ssd.enable_span_trace(cfg);
        self
    }

    /// Number of GraphWalker blocks for this graph.
    pub fn num_blocks(&self) -> u32 {
        self.blocks.num_subgraphs()
    }

    /// Run `wl` to completion and return the engine-specific report. The
    /// unified view is [`WalkEngine::run`].
    pub fn run_detailed(mut self, wl: Workload) -> GwReport {
        self.wl = wl;
        let mut run = GwRun {
            now: SimTime::ZERO,
            breakdown: TimeBreakdown::default(),
            completed: 0,
            hops: 0,
            block_loads: 0,
            walk_spills: 0,
            progress: TimeSeries::new(self.trace_window_ns),
            stalled_loads: 0,
            requeues: 0,
            degraded: 0,
        };
        let total = self.wl.num_walks;

        // Initial distribution (uncharged, like FlashWalker's), streamed
        // straight into the block pools.
        for w in self.wl.init_walks(self.csr, self.rng.next_u64()) {
            let b = block_of(&self.blocks, w.cur, &mut self.rng);
            self.probe
                .event(w.id, JourneyEventKind::Enqueue, b, SimTime::ZERO);
            self.pools[b as usize].walks.push(w);
        }

        while run.completed < total {
            // The clock only advances, and every step issues its I/O at
            // the clock or later.
            self.ssd.set_floor(run.now);
            let block = self.pick_block().expect("walks remain but no pool has any");
            let waiting = || self.pools.iter().map(|p| p.total()).sum();
            self.probe.gauge("gw.queue", run.now, waiting);
            // Scheduling overhead: a scan of per-block walk counts.
            let t0 = run.now;
            let sched = Duration::nanos(self.pools.len() as u64 * 2);
            run.breakdown.other += sched;
            run.now += sched;
            self.probe.chain("gw.sched", block, t0, run.now);

            // Load, walk I/O and update record their own phases.
            self.ensure_cached(block, &mut run);
            self.read_spilled(block, &mut run);
            self.update_block(block, &mut run);
            let t4 = run.now;
            self.spill_overflow(&mut run);
            self.probe.chain("gw.spill", block, t4, run.now);
        }

        let devices = [self.ssd.take_tracer()];
        let (span_trace, journeys, critical) = self.probe.finish(run.now, &devices);

        let s = *self.ssd.stats();
        let cfgp = *self.ssd.config();
        let faults = self.ssd.fault_profile().is_on().then(|| {
            let f = self.ssd.fault_stats();
            FaultSummary {
                read_retries: f.read_retries,
                recovered_reads: f.recovered_reads,
                hard_read_fails: f.hard_read_fails,
                program_retries: f.program_retries,
                chip_stalls: f.chip_stalls,
                channel_stalls: f.channel_stalls,
                stall_ns: f.stall_ns,
                retry_ns: f.retry_ns,
                stalled_loads: run.stalled_loads,
                requeues: run.requeues,
                degraded_ops: run.degraded,
            }
        });
        GwReport {
            time: run.now - SimTime::ZERO,
            walks: run.completed,
            hops: run.hops,
            breakdown: run.breakdown,
            flash_read_bytes: s.array_read_bytes(&cfgp),
            flash_write_bytes: s.array_write_bytes(&cfgp),
            pcie_bytes: s.pcie_bytes,
            read_bw: if run.now == SimTime::ZERO {
                0.0
            } else {
                s.array_read_bytes(&cfgp) as f64 / run.now.as_secs_f64()
            },
            block_loads: run.block_loads,
            walk_spills: run.walk_spills,
            progress: run.progress.windows().to_vec(),
            trace_window_ns: self.trace_window_ns,
            walk_log: self.walk_log.take().unwrap_or_default(),
            trace: span_trace,
            faults,
            journeys,
            critical,
        }
    }
}

impl WalkEngine for GraphWalkerSim<'_> {
    fn name(&self) -> &'static str {
        "graphwalker"
    }

    fn run(self, workload: Workload) -> RunReport {
        self.run_detailed(workload).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_graph::rmat::{generate_csr, RmatParams};

    fn graph(nv: u32, ne: u64) -> Csr {
        generate_csr(RmatParams::graph500(), nv, ne, 21)
    }

    fn run(csr: &Csr, cfg: GwConfig, walks: u64) -> GwReport {
        let wl = Workload::paper_default(walks);
        GraphWalkerSim::new(csr, 4, cfg, SsdConfig::tiny(), 5).run_detailed(wl)
    }

    fn small_cfg(mem: u64) -> GwConfig {
        GwConfig {
            memory_bytes: mem,
            block_bytes: 16 << 10,
            cpu_ns_per_hop: 20,
            walk_buffer_bytes: 64 << 10,
        }
    }

    #[test]
    fn completes_all_walks() {
        let g = graph(2000, 20_000);
        let r = run(&g, small_cfg(256 << 10), 3_000);
        assert_eq!(r.walks, 3_000);
        assert!(r.hops >= 3_000 && r.hops <= 18_000);
        assert!(r.time > Duration::ZERO);
        assert!(r.block_loads > 0);
        assert!(r.flash_read_bytes > 0);
    }

    #[test]
    fn graph_fitting_in_memory_loads_each_block_once() {
        let g = graph(500, 4_000);
        let r = run(&g, small_cfg(16 << 20), 1_000); // memory >> graph
        let sim = GraphWalkerSim::new(&g, 4, small_cfg(16 << 20), SsdConfig::tiny(), 5);
        assert_eq!(r.block_loads, sim.num_blocks() as u64);
    }

    #[test]
    fn small_memory_causes_reloads_and_more_io() {
        let g = graph(3000, 40_000);
        let big = run(&g, small_cfg(1 << 20), 4_000);
        let small = run(&g, small_cfg(48 << 10), 4_000); // 3 blocks cached
        assert!(
            small.block_loads > big.block_loads,
            "thrashing: {} vs {}",
            small.block_loads,
            big.block_loads
        );
        assert!(small.breakdown.load_graph > big.breakdown.load_graph);
        assert!(small.time > big.time);
    }

    #[test]
    fn breakdown_sums_to_total_time() {
        let g = graph(1000, 10_000);
        let r = run(&g, small_cfg(64 << 10), 2_000);
        // Serial model: components account for all advance of `now` except
        // rounding in I/O gaps (I/O waits are included in their slices).
        let sum = r.breakdown.total();
        assert!(
            sum.as_nanos() >= r.time.as_nanos() * 9 / 10,
            "breakdown {sum} vs total {}",
            r.time
        );
    }

    #[test]
    fn io_dominates_when_memory_starved() {
        // The Figure 1 shape: graph loading dominates for out-of-core runs.
        let g = graph(4000, 60_000);
        let r = run(&g, small_cfg(32 << 10), 2_000); // 2 blocks of ~30
        assert!(
            r.breakdown.load_fraction() > 0.5,
            "load fraction {:.2}",
            r.breakdown.load_fraction()
        );
    }

    #[test]
    fn deterministic() {
        let g = graph(800, 8_000);
        let a = run(&g, small_cfg(64 << 10), 1_000);
        let b = run(&g, small_cfg(64 << 10), 1_000);
        assert_eq!(a.time, b.time);
        assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn zero_fault_profile_is_byte_identical_to_default() {
        // The unrolled fault-aware load path must reproduce
        // `host_read_pages` timing exactly when the injector is off.
        let g = graph(800, 8_000);
        let base = run(&g, small_cfg(64 << 10), 1_000);
        let off = GraphWalkerSim::new(&g, 4, small_cfg(64 << 10), SsdConfig::tiny(), 5)
            .with_faults(fw_fault::FaultProfile::none())
            .run_detailed(Workload::paper_default(1_000));
        assert_eq!(off.time, base.time);
        assert_eq!(off.hops, base.hops);
        assert_eq!(off.flash_read_bytes, base.flash_read_bytes);
        assert!(off.faults.is_none(), "fault-free run omits the summary");
        assert!(base.faults.is_none());
    }

    #[test]
    fn completes_under_heavy_faults_and_stays_deterministic() {
        let g = graph(2000, 20_000);
        let faulted = |_| {
            GraphWalkerSim::new(&g, 4, small_cfg(96 << 10), SsdConfig::tiny(), 5)
                .with_faults(fw_fault::FaultProfile::heavy())
                .run_detailed(Workload::paper_default(2_000))
        };
        let a = faulted(());
        let b = faulted(());
        assert_eq!(a.walks, 2_000);
        let f = a.faults.expect("faulted run reports a summary");
        assert!(f.read_retries > 0, "heavy profile must trigger retries");
        assert!(f.total_events() > 0);
        assert_eq!(a.time, b.time);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn exhausted_retry_ladder_falls_back_to_the_host() {
        // Certain read error + 0% retry success: every page read runs the
        // ladder dry, re-issues fail, and the load finishes through the
        // host-reconstruction fallback.
        let g = graph(800, 8_000);
        let profile = fw_fault::FaultProfile {
            read_error_ppm: 1_000_000,
            retry_success_pct: 0,
            max_read_retries: 2,
            max_load_attempts: 2,
            retry_backoff: Duration::micros(1),
            load_timeout: Duration::secs(1),
            ..fw_fault::FaultProfile::none()
        };
        let r = GraphWalkerSim::new(&g, 4, small_cfg(64 << 10), SsdConfig::tiny(), 5)
            .with_faults(profile)
            .run_detailed(Workload::paper_default(1_000));
        assert_eq!(r.walks, 1_000, "walks still complete in degraded mode");
        let f = r.faults.unwrap();
        assert!(f.hard_read_fails > 0);
        assert!(f.degraded_ops > 0);
        assert!(f.requeues >= f.degraded_ops);
    }

    #[test]
    fn slow_loads_trip_the_watchdog_and_requeue() {
        // A 1 ns timeout classifies every block load as stalled; each is
        // requeued with backoff and the run still completes.
        let g = graph(800, 8_000);
        let profile = fw_fault::FaultProfile {
            channel_stall_ppm: 1, // keeps the profile "on" with negligible noise
            load_timeout: Duration::nanos(1),
            retry_backoff: Duration::micros(10),
            ..fw_fault::FaultProfile::none()
        };
        let r = GraphWalkerSim::new(&g, 4, small_cfg(64 << 10), SsdConfig::tiny(), 5)
            .with_faults(profile)
            .run_detailed(Workload::paper_default(1_000));
        assert_eq!(r.walks, 1_000);
        let f = r.faults.unwrap();
        assert!(f.stalled_loads > 0);
        assert_eq!(f.stalled_loads, r.block_loads);
        assert!(f.requeues >= f.stalled_loads);
    }

    #[test]
    fn journeys_off_by_default_and_deterministic_when_on() {
        let g = graph(800, 8_000);
        let base = run(&g, small_cfg(64 << 10), 1_000);
        assert!(base.journeys.is_none(), "journeys are opt-in");
        let journeyed = |_| {
            GraphWalkerSim::new(&g, 4, small_cfg(64 << 10), SsdConfig::tiny(), 5)
                .with_journeys(JourneyConfig::default())
                .run_detailed(Workload::paper_default(1_000))
        };
        let a = journeyed(());
        let b = journeyed(());
        assert_eq!(a.time, base.time, "recording never perturbs the schedule");
        assert_eq!(a.hops, base.hops);
        let ja = a.journeys.expect("journeys on");
        let jb = b.journeys.expect("journeys on");
        assert_eq!(ja.to_json(), jb.to_json(), "byte-deterministic");
        assert!(ja.sampled_walks > 0);
        // Every walk's segments partition its latency exactly.
        for w in &ja.walks {
            let sum: u64 = w.segments.iter().map(|&(_, ns)| ns).sum();
            assert_eq!(sum, w.latency_ns, "walk {} segments", w.id);
        }
    }

    #[test]
    fn critical_off_by_default_with_exact_sum_and_determinism_when_on() {
        let g = graph(800, 8_000);
        let base = run(&g, small_cfg(64 << 10), 1_000);
        assert!(base.critical.is_none(), "critical recording is opt-in");
        let profiled = |_| {
            GraphWalkerSim::new(&g, 4, small_cfg(64 << 10), SsdConfig::tiny(), 5)
                .with_critical(CriticalConfig::default())
                .run_detailed(Workload::paper_default(1_000))
        };
        let a = profiled(());
        let b = profiled(());
        assert_eq!(a.time, base.time, "recording never perturbs the schedule");
        assert_eq!(a.hops, base.hops);
        let ca = a.critical.expect("critical on");
        let cb = b.critical.expect("critical on");
        assert_eq!(ca.to_json(), cb.to_json(), "byte-deterministic");
        // The invariant: critical-path segments sum *exactly* to the
        // end-to-end simulated time.
        assert_eq!(ca.total_ns, a.time.as_nanos());
        assert_eq!(ca.path_total_ns(), ca.total_ns);
        assert!(!ca.truncated);
        assert_eq!(ca.dropped_nodes, 0);
        assert!(ca.shares.iter().any(|s| s.name == "gw.load"));
    }

    #[test]
    fn critical_path_sums_exactly_under_heavy_faults() {
        let g = graph(2000, 20_000);
        let r = GraphWalkerSim::new(&g, 4, small_cfg(96 << 10), SsdConfig::tiny(), 5)
            .with_faults(fw_fault::FaultProfile::heavy())
            .with_critical(CriticalConfig::default())
            .run_detailed(Workload::paper_default(2_000));
        assert!(r.faults.expect("faulted summary").read_retries > 0);
        let c = r.critical.expect("critical on");
        assert_eq!(c.total_ns, r.time.as_nanos());
        assert_eq!(c.path_total_ns(), c.total_ns);
        assert!(!c.truncated);
    }

    #[test]
    fn heavy_fault_journeys_surface_ecc_retry_segments() {
        let g = graph(2000, 20_000);
        let r = GraphWalkerSim::new(&g, 4, small_cfg(96 << 10), SsdConfig::tiny(), 5)
            .with_faults(fw_fault::FaultProfile::heavy())
            .with_journeys(JourneyConfig {
                seed: 7,
                sample_period: 1,
                max_walks: usize::MAX,
            })
            .run_detailed(Workload::paper_default(2_000));
        let f = r.faults.expect("faulted run reports a summary");
        assert!(f.read_retries > 0);
        let j = r.journeys.expect("journeys on");
        let retry_walks = j
            .walks
            .iter()
            .filter(|w| {
                w.segments
                    .iter()
                    .any(|&(k, ns)| k == JourneyEventKind::EccRetry && ns > 0)
            })
            .count();
        assert!(
            retry_walks > 0,
            "heavy faults must show up as ecc_retry segments in sampled journeys"
        );
    }

    #[test]
    fn journey_retry_time_reconciles_with_fault_counters() {
        // Soft-error-only profile: every injected error is recovered by
        // the retry ladder (no hard fails, no recovery path) and a huge
        // walk buffer prevents spills, so every block load has its full
        // pool attached. With sample_period 1 every waiting walk records
        // the load's retry segments; dedup by (lane, start, end) then
        // recovers the injector's aggregate exactly.
        let g = graph(2000, 20_000);
        let profile = fw_fault::FaultProfile {
            read_error_ppm: 150_000,
            retry_success_pct: 100,
            max_read_retries: 4,
            retry_backoff: Duration::micros(1),
            load_timeout: Duration::secs(1),
            ..fw_fault::FaultProfile::none()
        };
        let cfg = GwConfig {
            walk_buffer_bytes: 1 << 30,
            ..small_cfg(96 << 10)
        };
        let r = GraphWalkerSim::new(&g, 4, cfg, SsdConfig::tiny(), 5)
            .with_faults(profile)
            .with_journeys(JourneyConfig {
                seed: 7,
                sample_period: 1,
                max_walks: usize::MAX,
            })
            .run_detailed(Workload::paper_default(2_000));
        assert_eq!(r.walk_spills, 0, "precondition: no spilled pools");
        let f = r.faults.expect("faulted run reports a summary");
        assert!(f.read_retries > 0, "profile must trigger retries");
        assert_eq!(f.hard_read_fails, 0, "always-recovering profile");
        let j = r.journeys.expect("journeys on");
        let mut seen: std::collections::BTreeSet<(u32, u64, u64)> = Default::default();
        let mut retry_ns: u64 = 0;
        for w in &j.walks {
            for e in &w.events {
                if e.kind == JourneyEventKind::EccRetry
                    && seen.insert((e.lane, e.start.as_nanos(), e.end.as_nanos()))
                {
                    retry_ns += e.end.as_nanos() - e.start.as_nanos();
                }
            }
        }
        assert_eq!(
            retry_ns, f.retry_ns,
            "per-walk retry segments must reconcile with the injector's aggregate"
        );
    }

    #[test]
    fn recovery_rereads_show_their_retry_time_in_journeys() {
        // Every read runs its ladder dry: the first read, the re-issued
        // read and the final reconstruction pass each spend retry time,
        // and so does every spill read-back, which is not re-read.
        // Journeys must hold all of it, each read on its plane's lane,
        // including the loads of blocks whose walks are all spilled.
        let g = graph(800, 8_000);
        let profile = fw_fault::FaultProfile {
            read_error_ppm: 1_000_000,
            retry_success_pct: 0,
            max_read_retries: 2,
            max_load_attempts: 2,
            retry_backoff: Duration::micros(1),
            load_timeout: Duration::secs(1),
            ..fw_fault::FaultProfile::none()
        };
        // (row, walk buffer bytes)
        for (row, walk_buffer_bytes) in [("no spills", 1 << 30), ("walk spills", 4 << 10)] {
            let cfg = GwConfig {
                walk_buffer_bytes,
                ..small_cfg(64 << 10)
            };
            let r = GraphWalkerSim::new(&g, 4, cfg, SsdConfig::tiny(), 5)
                .with_faults(profile)
                .with_journeys(JourneyConfig {
                    seed: 7,
                    sample_period: 1,
                    max_walks: usize::MAX,
                })
                .run_detailed(Workload::paper_default(1_000));
            assert_eq!(r.walk_spills > 0, walk_buffer_bytes < 1 << 30, "{row}");
            let f = r.faults.expect("faulted run reports a summary");
            assert!(f.degraded_ops > 0, "{row}: reconstruction passes");
            let j = r.journeys.expect("journeys on");
            let mut seen: std::collections::BTreeSet<(u32, u64, u64)> = Default::default();
            let mut retry_ns: u64 = 0;
            for e in j.walks.iter().flat_map(|w| &w.events) {
                if e.kind == JourneyEventKind::EccRetry
                    && seen.insert((e.lane, e.start.as_nanos(), e.end.as_nanos()))
                {
                    retry_ns += e.end.as_nanos() - e.start.as_nanos();
                }
            }
            assert_eq!(
                retry_ns, f.retry_ns,
                "{row}: journeys must hold every read's retry time"
            );
        }
    }

    #[test]
    fn trait_run_matches_detailed_run() {
        let g = graph(800, 8_000);
        let wl = Workload::paper_default(1_000);
        let detailed =
            GraphWalkerSim::new(&g, 4, small_cfg(64 << 10), SsdConfig::tiny(), 5).run_detailed(wl);
        let eng = GraphWalkerSim::new(&g, 4, small_cfg(64 << 10), SsdConfig::tiny(), 5);
        assert_eq!(eng.name(), "graphwalker");
        let unified = eng.run(wl);
        assert_eq!(unified.engine, "graphwalker");
        assert_eq!(unified.time, detailed.time);
        assert_eq!(unified.stats.hops, detailed.hops);
        assert_eq!(unified.stats.loads, detailed.block_loads);
        assert_eq!(
            unified.breakdown.load_ns,
            detailed.breakdown.load_graph.as_nanos()
        );
    }

    #[test]
    fn walk_log_conserves_sources() {
        let g = graph(1500, 18_000);
        let wl = Workload::paper_default(2_500);
        let r = GraphWalkerSim::new(&g, 4, small_cfg(96 << 10), SsdConfig::tiny(), 5)
            .with_walk_log()
            .run_detailed(wl);
        assert_eq!(r.walk_log.len(), 2_500);
        let mut got: Vec<u32> = r.walk_log.iter().map(|w| w.src).collect();
        let mut expect: Vec<u32> = wl.init_walks(&g, 0).map(|w| w.src).collect();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(r.walk_log.iter().all(|w| w.is_done()));
    }

    #[test]
    fn biased_workload_runs() {
        let g = graph(800, 10_000).with_random_weights(7);
        let wl = Workload::node2vec_biased(1_000, 6);
        let r =
            GraphWalkerSim::new(&g, 4, small_cfg(96 << 10), SsdConfig::tiny(), 5).run_detailed(wl);
        assert_eq!(r.walks, 1_000);
    }

    #[test]
    fn progress_sums_to_walks() {
        let g = graph(800, 8_000);
        let r = run(&g, small_cfg(64 << 10), 1_500);
        let total: f64 = r.progress.iter().sum();
        assert!((total - 1_500.0).abs() < 1e-6);
    }
}
