//! The FlashWalker system simulation: an event-driven model of the
//! three-level accelerator hierarchy running a random-walk workload over
//! a partitioned graph resident in the simulated SSD.
//!
//! ## Module map
//!
//! * [`state`] — walk-in-transit, chip/channel/board state, the PWB and
//!   the Eq. 1 score.
//! * [`step`] — single-hop sampling: regular subgraphs, dense slices,
//!   pre-walking, local guiding.
//! * `events` — the event enum, [`FwStats`] and [`FwReport`].
//! * `sched` — the subgraph scheduler: Eq. 1 scoring and chip slot
//!   filling.
//! * `routing` — walk flow through the hierarchy: chip batches, channel
//!   batches, board batches and destination resolution.
//! * `partition` — the partition walk buffer, foreigner pages, partition
//!   setup and switching.
//! * `image` — the read-only [`FlashImage`]: graph layout, board tables
//!   and per-partition selections, shareable across runs.
//!
//! This file owns the simulator struct, construction and reset of the
//! per-run device state, and the top-level event loop.
//!
//! ## Model granularity
//!
//! Walk updating is simulated per *drain batch* (DESIGN.md §4): when an
//! accelerator has pending walks it processes them back-to-back —
//! asynchronous updating keeps a walk hopping while it stays inside
//! subgraphs loaded at that accelerator — accumulating updater/guider
//! operation counts that are converted to busy time with the Table II
//! cycle times and PE counts. Flash, channel-bus, PCIe and DRAM timing
//! come from reservations against the shared `fw-nand`/`fw-dram` resource
//! models, so contention (the saturated channel buses of Figure 8)
//! emerges from the schedule rather than being asserted.
//!
//! ## Walk life cycle
//!
//! 1. Walks wait in the **partition walk buffer** (on-board DRAM), one
//!    entry per subgraph of the current partition; overflowing entries
//!    spill to flash as walk pages.
//! 2. The **scheduler** fills idle chip slots with the highest-score
//!    subgraph of that chip (Eq. 1; with SS disabled the score reduces to
//!    the walk count). Loading a subgraph reads its pages from the chip's
//!    own planes (no channel traffic) and fetches its walks from DRAM and
//!    spill pages (channel traffic).
//! 3. The **chip batch** updates walks until they leave the chip's loaded
//!    subgraphs; leavers cross the channel bus as roving walks.
//! 4. The **channel batch** updates walks landing in its hot subgraphs
//!    (HS) and charges the rest an approximate walk search for their
//!    range (WQ), then forwards them to the board.
//! 5. The **board batch** resolves destinations (dense table → pre-walk;
//!    query cache → mapping-table binary search), updates walks landing in
//!    board-hot subgraphs, and routes the rest: delivery to a chip that
//!    has the subgraph loaded, the partition walk buffer, or the foreigner
//!    path for walks beyond the current partition.
//! 6. When the current partition drains, the next partition with work is
//!    set up and its foreigner pages are read back.

mod events;
mod image;
mod partition;
mod routing;
mod sched;
pub mod state;
pub mod step;

#[cfg(test)]
mod tests;

pub use events::{FwReport, FwStats};
pub use image::FlashImage;

use std::collections::VecDeque;
use std::sync::Arc;

use fw_dram::{Dram, DramConfig};
use fw_fault::{derive_stream_seed, FaultProfile, FAULT_STREAM};
use fw_graph::{Csr, PartitionedGraph, DENSE_BIT};
use fw_nand::{Lpn, Ssd, SsdConfig};
use fw_sim::{
    CriticalConfig, EventQueue, JourneyConfig, Probe, SimTime, TimeSeries, TraceConfig,
    Xoshiro256pp,
};
use fw_walk::{FaultSummary, RunReport, WalkEngine, Workload, WALK_BYTES};

use crate::config::AccelConfig;
use crate::tables::WalkQueryCache;
use events::Ev;
use state::{ChannelState, ChipSlots, ChipState, ForeignStore, Pools, Pwb, SgId, Slot, TWalk};
use step::prewalk_slice;

/// The FlashWalker system simulator.
pub struct FlashWalkerSim<'g> {
    cfg: AccelConfig,
    csr: &'g Csr,
    pg: &'g PartitionedGraph,
    wl: Workload,
    /// The preprocessed graph layout and tables this run walks on.
    image: Arc<FlashImage>,
    ssd: Ssd,
    dram: Dram,
    events: EventQueue<Ev>,
    /// The walk RNG: every sampling decision draws from this one
    /// generator, in event order.
    rng: Xoshiro256pp,
    /// Construction seed, kept so [`Self::with_faults`] can derive the
    /// injector's independent stream.
    seed: u64,

    chips: Vec<ChipState>,
    slots: ChipSlots,
    channels: Vec<ChannelState>,
    board: state::BoardState,
    caches: Vec<WalkQueryCache>,

    pwb: Pwb,
    foreign: ForeignStore,
    current_partition: u32,
    /// Quiesce mode: the scheduler may load pools below the threshold.
    relaxed_pick: bool,

    /// Reusable batch buffer: the chip/channel/board batch bodies run
    /// serially (they only *schedule* further work), so one scratch
    /// vector serves all three drain loops without allocating.
    scratch: Vec<TWalk>,
    /// Reusable loaded-subgraph snapshot for chip batches.
    loaded_scratch: Vec<SgId>,
    /// Reusable stage buffer for chip batches.
    chip_stages: Vec<routing::StagedHop>,
    /// Free lists for event-payload vectors (see [`state::Pools`]).
    pools: Pools,

    total_walks: u64,
    completed: u64,
    next_lpn: Lpn,
    stats: FwStats,
    progress: TimeSeries,
    trace_window_ns: u64,
    walk_log: Option<Vec<fw_walk::Walk>>,
    /// The run's recorders. Every `schedule_at` site records its
    /// interval once: accelerator batch spans (`chip.batch`, `chan.batch`,
    /// `board.batch`, `sg.load`), a dependency node whose id is the
    /// queue's sequence number and whose cause is the event being
    /// dispatched, and the interval of each sampled walk it serves. The
    /// SSD and DRAM tracers are folded in at run end.
    probe: Probe,
}

/// The Figure 8 trace window a new or reset simulator uses: 1 ms.
const DEFAULT_TRACE_WINDOW_NS: u64 = 1_000_000;

/// Walks per flash page (4 KB / 16 B).
fn page_walks(ssd: &Ssd) -> u64 {
    ssd.config().geometry.page_bytes / WALK_BYTES
}

impl<'g> FlashWalkerSim<'g> {
    /// Build a simulator over a partitioned graph, preprocessing it into
    /// a private [`FlashImage`]. The workload is supplied at run time
    /// ([`Self::run_detailed`] / [`WalkEngine::run`]).
    ///
    /// # Panics
    /// Panics if the graph does not fit the static region, or if the
    /// partition size exceeds the mapping-table capacity.
    pub fn new(
        csr: &'g Csr,
        pg: &'g PartitionedGraph,
        cfg: AccelConfig,
        ssd_cfg: SsdConfig,
        seed: u64,
    ) -> Self {
        Self::from_image(csr, pg, Arc::new(FlashImage::new(pg, cfg, ssd_cfg)), seed)
    }

    /// Build a simulator that runs on a prebuilt `image` of `pg`: only
    /// the per-run device state (FTL, resource timelines, accelerator
    /// state, queues) is created, then set to its initial state by
    /// [`Self::reset`]. Equivalent to [`Self::new`] with the image's
    /// configurations, report for report.
    ///
    /// # Panics
    /// Panics if `image` was built for a graph with a different
    /// subgraph or partition count.
    pub fn from_image(
        csr: &'g Csr,
        pg: &'g PartitionedGraph,
        image: Arc<FlashImage>,
        seed: u64,
    ) -> Self {
        assert!(
            image.placements.len() == pg.num_subgraphs() as usize
                && image.parts.len() == pg.num_partitions() as usize,
            "flash image built for another graph"
        );
        let cfg = image.cfg;
        let ssd = Ssd::new(image.ssd_cfg, image.static_blocks);
        let pools = Pools::new(page_walks(&ssd) as usize);
        let geometry = image.ssd_cfg.geometry;
        let chip_slots = cfg.chip_slots(pg.config.subgraph_bytes);
        let channels = (0..geometry.channels)
            .map(|_| ChannelState {
                inbox: VecDeque::new(),
                busy: false,
            })
            .collect();
        let caches = (0..cfg.query_caches)
            .map(|_| WalkQueryCache::new(cfg.query_cache_entries()))
            .collect();

        let mut sim = FlashWalkerSim {
            cfg,
            csr,
            pg,
            wl: Workload::paper_default(0),
            image,
            ssd,
            dram: Dram::new(DramConfig::ddr4_1600()),
            events: EventQueue::new(),
            rng: Xoshiro256pp::new(seed),
            seed,
            chips: vec![ChipState::default(); geometry.num_chips() as usize],
            slots: ChipSlots::new(geometry.num_chips(), chip_slots),
            channels,
            board: state::BoardState {
                inbox: VecDeque::new(),
                busy: false,
                foreigner_buf: Vec::new(),
                completed_buf: 0,
            },
            caches,
            pwb: Pwb::default(),
            foreign: ForeignStore::default(),
            current_partition: 0,
            relaxed_pick: false,
            scratch: Vec::new(),
            loaded_scratch: Vec::new(),
            chip_stages: Vec::new(),
            pools,
            total_walks: 0,
            completed: 0,
            next_lpn: 0,
            stats: FwStats::default(),
            progress: TimeSeries::new(DEFAULT_TRACE_WINDOW_NS),
            trace_window_ns: DEFAULT_TRACE_WINDOW_NS,
            walk_log: None,
            probe: Probe::default(),
        };
        sim.reset(seed);
        sim
    }

    /// Return the device, in place, to the state [`Self::from_image`]
    /// builds on the same image with `seed`, keeping every allocation:
    /// pending events are dropped (their vectors go back to the pools)
    /// and the queue's clock and sequence numbers rewind; the SSD and
    /// DRAM models go idle and empty ([`Ssd::reset`], [`Dram::reset`]);
    /// chip slots, inboxes, query caches and the foreign store empty;
    /// the walk RNG restarts from `seed`; counters zero; and every
    /// opt-in (span trace, faults, journeys, critical path, trace window,
    /// walk log) is off again. The PWB is laid out by the first
    /// partition setup of the next run. A serving loop resets one device
    /// before each batch instead of building one per batch; the reports
    /// are identical.
    pub fn reset(&mut self, seed: u64) {
        while let Some((_, ev)) = self.events.pop() {
            self.pools.put_event(ev);
        }
        self.events.reset();
        self.ssd.reset();
        self.dram.reset();
        self.wl = Workload::paper_default(0);
        self.rng = Xoshiro256pp::new(seed);
        self.seed = seed;
        self.chips.fill(ChipState::default());
        self.slots.clear(&mut self.pools);
        for ch in &mut self.channels {
            ch.inbox.clear();
            ch.busy = false;
        }
        self.board.inbox.clear();
        self.board.busy = false;
        self.board.foreigner_buf.clear();
        self.board.completed_buf = 0;
        self.caches.iter_mut().for_each(WalkQueryCache::clear);
        self.foreign.pages.clear();
        self.current_partition = 0;
        self.relaxed_pick = false;
        self.total_walks = 0;
        self.completed = 0;
        self.next_lpn = 0;
        self.stats = FwStats::default();
        self.trace_window_ns = DEFAULT_TRACE_WINDOW_NS;
        self.progress.reset(DEFAULT_TRACE_WINDOW_NS);
        self.walk_log = None;
        self.probe = Probe::default();
    }

    /// Enable span-based tracing of the whole hierarchy: flash / channel /
    /// PCIe spans from the SSD, DRAM spans, and the accelerator batch
    /// spans (`chip.batch`, `chan.batch`, `board.batch`, `sg.load`), plus
    /// queue-depth gauges and walk-step latency. The derived
    /// [`fw_sim::TraceReport`] lands in [`FwReport::trace`].
    pub fn with_span_trace(mut self, cfg: TraceConfig) -> Self {
        self.probe.enable_trace(cfg);
        self.ssd.enable_span_trace(cfg);
        self.dram.enable_span_trace(cfg);
        self
    }

    /// Enable fault injection and recovery under `profile`. The injector
    /// draws from its own RNG stream (derived from the construction seed
    /// via [`derive_stream_seed`]), so walk paths are identical to a
    /// fault-free run — only timing, retry/requeue metrics and the
    /// recovery schedule change. Enabling [`FaultProfile::none`] is a
    /// no-op.
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.ssd
            .enable_faults(profile, derive_stream_seed(self.seed, FAULT_STREAM));
        self
    }

    /// Enable walk-journey recording: a deterministic sample of walk ids
    /// (pure function of `cfg.seed` and the id) gets its full lifecycle —
    /// subgraph loads, NAND reads, ECC retries, sample batches, hops,
    /// enqueues — recorded with sim-time stamps. The derived
    /// [`fw_sim::JourneyReport`] lands in [`FwReport::journeys`].
    /// Zero-cost when not called; byte-deterministic (the finish sort is
    /// canonical).
    pub fn with_journeys(mut self, cfg: JourneyConfig) -> Self {
        self.probe.enable_journeys(cfg);
        self
    }

    /// Enable causal critical-path recording: every scheduled event
    /// becomes a dependency-log node (component, lane, busy interval,
    /// causing event), and the derived [`fw_sim::CriticalReport`] — whose
    /// path segments sum *exactly* to end-to-end sim time — lands in
    /// [`FwReport::critical`]. Zero-cost when not called; recording never
    /// touches sim state, so enabling it leaves every other report byte
    /// unchanged, and node ids are the queue's sequence numbers, so the
    /// report is byte-deterministic.
    pub fn with_critical(mut self, cfg: CriticalConfig) -> Self {
        self.probe.enable_critical(cfg);
        self
    }

    /// Set the Figure 8 trace window (default 1 ms).
    pub fn with_trace_window(mut self, window_ns: u64) -> Self {
        self.trace_window_ns = window_ns;
        self
    }

    /// Collect every completed walk into [`FwReport::walk_log`].
    ///
    /// Besides the figure binaries, this is the serving layer's hook:
    /// `fw-serve` runs every admitted batch with the walk log on and
    /// installs the endpoint distribution of cacheable (single-source)
    /// batches into its hot-source walk cache.
    pub fn with_walk_log(mut self) -> Self {
        self.walk_log = Some(Vec::new());
        self
    }

    fn log_completed(&mut self, w: fw_walk::Walk) {
        if let Some(log) = &mut self.walk_log {
            log.push(w);
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn num_chips(&self) -> u32 {
        self.ssd.config().geometry.num_chips()
    }

    fn chip_of_sg(&self, sg: SgId) -> u32 {
        self.image.placements[sg as usize].chip
    }

    fn channel_of_chip(&self, chip: u32) -> u32 {
        chip / self.ssd.config().geometry.chips_per_channel
    }

    /// Whether `tw`'s tag names a subgraph holding its current vertex:
    /// what every container that keeps a destination in the tag requires
    /// (see [`TWalk`]).
    fn tag_holds_walk(&self, tw: &TWalk) -> bool {
        let v = tw.walk.cur;
        self.pg
            .subgraphs
            .get(tw.tag as usize)
            .is_some_and(|s| s.low <= v && v <= s.high)
    }

    fn alloc_lpn(&mut self) -> Lpn {
        self.next_lpn += 1;
        self.next_lpn
    }

    /// Ground-truth destination of a walk whose vertex has location code
    /// `code` ([`PartitionedGraph::vloc`]; timing for the lookup is
    /// charged separately by the timed structures): the owning subgraph,
    /// or for a dense vertex a slice pre-walked on `rng` (the walk RNG,
    /// taken out of `self` by batch handlers).
    fn dest_of(pg: &PartitionedGraph, code: u32, rng: &mut Xoshiro256pp) -> SgId {
        if code & DENSE_BIT == 0 {
            return code;
        }
        let meta = &pg.dense[(code & !DENSE_BIT) as usize];
        prewalk_slice(meta, pg.config.dense_slice_edges(), rng).0
    }

    /// [`Self::dest_of`] for vertex `v` on the walk RNG — the init path.
    fn true_dest(&mut self, v: fw_graph::VertexId) -> SgId {
        Self::dest_of(self.pg, self.pg.vloc(v), &mut self.rng)
    }

    /// Move the walk RNG out so batch helpers can draw from it alongside
    /// `&mut self` (the same object, so the draw order is untouched).
    /// Must be returned via [`Self::put_walk_rng`] before the handler
    /// yields.
    pub(super) fn take_walk_rng(&mut self) -> Xoshiro256pp {
        std::mem::replace(&mut self.rng, Xoshiro256pp::new(0))
    }

    /// Return the generator taken with [`Self::take_walk_rng`].
    pub(super) fn put_walk_rng(&mut self, rng: Xoshiro256pp) {
        self.rng = rng;
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    /// Deliver one committed event to its handler.
    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        // Events pop in time order and every handler issues its device
        // requests at `now` or later: nothing can name an earlier time.
        self.ssd.set_floor(now);
        self.dram.set_floor(now);
        match ev {
            Ev::ChipLoaded { chip, sg } => self.on_chip_loaded(chip, sg, now),
            Ev::ChipBatchDone { chip, outbox } => self.on_chip_batch_done(chip, outbox, now),
            Ev::ChanArrive { ch, mut walks } => {
                self.channels[ch as usize].inbox.extend(walks.drain(..));
                self.pools.put_walks(walks);
                self.try_start_channel(ch, now);
            }
            Ev::ChanBatchDone { ch, to_board } => self.on_chan_batch_done(ch, to_board, now),
            Ev::BoardBatchDone {
                deliveries,
                dirty_chips,
            } => self.on_board_batch_done(deliveries, dirty_chips, now),
            Ev::ChipDeliver { chip, walks } => self.on_chip_deliver(chip, walks, now),
        }
    }

    /// The queue drained with work left: flush leftover foreigner-
    /// buffered walks, relax the load threshold for PWB stragglers, or
    /// switch to the next partition with work.
    fn on_quiesce(&mut self) {
        let now = self.events.now();
        if !self.board.foreigner_buf.is_empty() {
            let walks = std::mem::take(&mut self.board.foreigner_buf);
            self.flush_foreign_page(walks, now, true);
        }
        if self.pwb.total_walks() > 0 {
            // Straggler tail: relax the load threshold and free any idle
            // slots (their queues go back to the pool) so the scheduler
            // can make progress, then refill.
            self.relaxed_pick = true;
            for chip in 0..self.num_chips() {
                for slot in self.slots.of_mut(chip) {
                    if let Slot::Loaded { queue, .. } = slot {
                        if queue.is_empty() {
                            self.pools.put_walks(std::mem::take(queue));
                            *slot = Slot::Empty;
                        }
                    }
                }
                self.maybe_fill_chip(chip, now);
            }
            assert!(
                !self.events.is_empty(),
                "stuck: PWB has {} walks but no chip can load \
                 (completed {}/{})",
                self.pwb.total_walks(),
                self.completed,
                self.total_walks
            );
            return;
        }
        let next = self.next_partition_with_work().unwrap_or_else(|| {
            panic!(
                "stuck: no partition has work but only {}/{} walks done",
                self.completed, self.total_walks
            )
        });
        self.stats.partition_switches += 1;
        self.setup_partition(next, now, true);
    }

    /// The event loop: pop the next event, dispatch, repeat; refill on
    /// quiesce.
    fn run_loop_sequential(&mut self) {
        let mut guard: u64 = 0;
        while self.completed < self.total_walks {
            match self.events.pop() {
                Some((now, ev)) => {
                    // The popped event is the cause of everything its
                    // handler schedules. Quiesce keeps the last anchor:
                    // refills happen-after the event that drained the
                    // queue, keeping the dependency chain unbroken.
                    self.probe.caused_by(self.events.last_popped_seq());
                    self.dispatch(now, ev);
                }
                None => self.on_quiesce(),
            }
            guard += 1;
            assert!(
                guard < 500_000_000,
                "event guard tripped — runaway simulation"
            );
        }
    }

    /// Run `wl` to completion and return the engine-specific report with
    /// the full per-level statistics. The unified view is
    /// [`WalkEngine::run`].
    ///
    /// # Panics
    /// Panics if the simulator already ran a workload since it was built
    /// or last [`reset`](Self::reset).
    pub fn run_detailed(&mut self, wl: Workload) -> FwReport {
        assert!(
            self.total_walks == 0 && self.events.events_processed() == 0,
            "FlashWalkerSim ran before: reset it first"
        );
        self.wl = wl;
        self.total_walks = wl.num_walks;
        self.ssd.enable_trace(self.trace_window_ns);
        self.progress.reset(self.trace_window_ns);
        self.setup_partition(0, SimTime::ZERO, false);
        self.distribute_initial_walks();
        for chip in 0..self.num_chips() {
            self.maybe_fill_chip(chip, SimTime::ZERO);
        }

        self.run_loop_sequential();

        let end = self.events.now();
        let horizon = SimTime::ZERO.max(end);
        let cfgp = *self.ssd.config();
        let s = *self.ssd.stats();
        let devices = [self.ssd.take_tracer(), self.dram.take_tracer()];
        let (span_trace, journeys, critical) =
            std::mem::take(&mut self.probe).finish(horizon, &devices);
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
                stalled_loads: self.stats.stalled_loads,
                requeues: self.stats.load_requeues,
                degraded_ops: self.stats.degraded_loads,
            }
        });
        let trace = self.ssd.trace().expect("trace enabled");
        FwReport {
            time: end - SimTime::ZERO,
            walks: self.completed,
            stats: self.stats.clone(),
            flash_read_bytes: s.array_read_bytes(&cfgp),
            flash_write_bytes: s.array_write_bytes(&cfgp),
            channel_bytes: s.channel_bytes,
            read_bw: if end == SimTime::ZERO {
                0.0
            } else {
                s.array_read_bytes(&cfgp) as f64 / end.as_secs_f64()
            },
            channel_util: self.ssd.channel_utilization(horizon),
            channel_wait_ns: s.channel_wait_ns / s.channel_transfers.max(1),
            events: self.events.events_processed(),
            progress: self.progress.windows().to_vec(),
            read_bytes_series: trace.array_read.windows().to_vec(),
            write_bytes_series: trace.array_write.windows().to_vec(),
            channel_bytes_series: trace.channel.windows().to_vec(),
            trace_window_ns: self.trace_window_ns,
            walk_log: self.walk_log.take().unwrap_or_default(),
            trace: span_trace,
            faults,
            journeys,
            critical,
        }
    }
}

impl WalkEngine for FlashWalkerSim<'_> {
    fn name(&self) -> &'static str {
        "flashwalker"
    }

    fn run(mut self, workload: Workload) -> RunReport {
        self.run_detailed(workload).into()
    }
}
