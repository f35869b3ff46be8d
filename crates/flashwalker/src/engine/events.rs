//! Simulation events, run statistics and the detailed report type.

use fw_walk::{EngineBreakdown, FaultSummary, RunReport, RunStats, Traffic};

use super::state::{SgId, TWalk};

/// Simulation events.
pub(super) enum Ev {
    /// A subgraph (and its walks) finished loading into a chip slot.
    ChipLoaded { chip: u32, sg: SgId },
    /// A chip update batch finished; roving walks leave for the channel.
    ChipBatchDone { chip: u32, outbox: Vec<TWalk> },
    /// Walks crossed the channel bus and arrived at an accelerator.
    ChanArrive { ch: u32, walks: Vec<TWalk> },
    /// A channel batch finished; walks continue to the board.
    ChanBatchDone { ch: u32, to_board: Vec<TWalk> },
    /// A board batch finished; deliveries fan out to chips.
    BoardBatchDone {
        deliveries: Vec<(u32, Vec<TWalk>)>,
        dirty_chips: Vec<u32>,
    },
    /// Walks delivered from the board arrived at a chip.
    ChipDeliver { chip: u32, walks: Vec<TWalk> },
}

/// Aggregated run statistics.
#[derive(Debug, Clone, Default)]
pub struct FwStats {
    /// Total hops executed.
    pub hops: u64,
    /// Hops executed at chip level.
    pub chip_hops: u64,
    /// Hops executed at channel level (hot subgraphs).
    pub chan_hops: u64,
    /// Hops executed at board level (hot subgraphs).
    pub board_hops: u64,
    /// Subgraph loads into chip slots.
    pub sg_loads: u64,
    /// Walks that left a chip as roving walks.
    pub roving: u64,
    /// Partition-walk-buffer overflow pages written to flash.
    pub pwb_spill_pages: u64,
    /// Foreigner pages written to flash.
    pub foreign_pages: u64,
    /// Completed-walk pages written to flash.
    pub completed_pages: u64,
    /// Subgraph-mapping-table probes.
    pub map_probes: u64,
    /// Walk-query-cache hits.
    pub cache_hits: u64,
    /// Walk-query-cache misses.
    pub cache_misses: u64,
    /// Walks delivered directly to a loaded chip slot.
    pub deliveries: u64,
    /// Partition switches performed.
    pub partition_switches: u64,
    /// Pages spilled during (uncharged) initial walk distribution.
    pub init_spill_pages: u64,
    /// Hot-subgraph pages loaded at partition setup.
    pub hot_load_pages: u64,
    /// Accumulated chip-batch busy time (ns, summed over 128 chips).
    pub chip_busy_ns: u64,
    /// Accumulated channel-batch busy time (ns, summed over 32 channels).
    pub chan_busy_ns: u64,
    /// Accumulated board-batch busy time (ns).
    pub board_busy_ns: u64,
    /// Of the board busy time, ns attributable to PWB DRAM writes.
    pub board_dram_ns: u64,
    /// Of the board busy time, ns attributable to mapping-table ports.
    pub board_map_ns: u64,
    /// Chip update batches run.
    pub chip_batches: u64,
    /// Channel batches run.
    pub chan_batches: u64,
    /// Board batches run.
    pub board_batches: u64,
    /// maybe_fill calls that stopped for want of a free slot.
    pub fill_no_slot: u64,
    /// maybe_fill calls that stopped for want of a candidate subgraph.
    pub fill_no_candidate: u64,
    /// Total subgraph-load latency (ns), for mean-latency reporting.
    pub load_latency_ns: u64,
    /// Total walks fetched by subgraph loads.
    pub load_walks: u64,
    /// Load-latency share: graph-block array reads (ns).
    pub load_array_ns: u64,
    /// Load-latency share: walk fetch over DRAM + channel (ns).
    pub load_fetch_ns: u64,
    /// Load-latency share: spilled-page read-back (ns).
    pub load_spill_ns: u64,
    /// Subgraph loads whose completion exceeded the fault profile's
    /// timeout and were requeued (0 when faults are off).
    pub stalled_loads: u64,
    /// Load re-issues: timeout requeues plus hard-ECC-fail re-reads.
    pub load_requeues: u64,
    /// Pages completed through the degraded controller-path re-read after
    /// exhausting re-issue attempts.
    pub degraded_loads: u64,
}

/// Result of a FlashWalker run.
#[derive(Debug, Clone)]
pub struct FwReport {
    /// End-to-end execution time.
    pub time: fw_sim::Duration,
    /// Walks completed (== workload size).
    pub walks: u64,
    /// Engine statistics.
    pub stats: FwStats,
    /// Bytes read from flash arrays.
    pub flash_read_bytes: u64,
    /// Bytes programmed to flash arrays.
    pub flash_write_bytes: u64,
    /// Bytes moved over channel buses.
    pub channel_bytes: u64,
    /// Achieved flash read bandwidth, bytes/s.
    pub read_bw: f64,
    /// Mean channel-bus utilization over the run.
    pub channel_util: f64,
    /// Mean queueing delay per channel transfer (ns).
    pub channel_wait_ns: u64,
    /// Simulator events delivered over the run: how much host work the
    /// simulator did, not simulated behaviour.
    pub events: u64,
    /// Walks completed per trace window (Figure 8 progression curve).
    pub progress: Vec<f64>,
    /// Flash read bytes per trace window.
    pub read_bytes_series: Vec<f64>,
    /// Flash write bytes per trace window.
    pub write_bytes_series: Vec<f64>,
    /// Channel-bus bytes per trace window.
    pub channel_bytes_series: Vec<f64>,
    /// Trace window width in nanoseconds.
    pub trace_window_ns: u64,
    /// Completed walks (src, final vertex, 0 hops left), collected when
    /// [`super::FlashWalkerSim::with_walk_log`] is enabled — the engine's
    /// actual output for downstream tasks.
    pub walk_log: Vec<fw_walk::Walk>,
    /// Span-trace derived views, when
    /// [`super::FlashWalkerSim::with_span_trace`] was enabled.
    pub trace: Option<fw_sim::TraceReport>,
    /// Fault-injection counters, when the run had a nonzero fault
    /// profile ([`super::FlashWalkerSim::with_faults`]).
    pub faults: Option<FaultSummary>,
    /// Walk-journey report, when
    /// [`super::FlashWalkerSim::with_journeys`] was enabled.
    pub journeys: Option<fw_sim::JourneyReport>,
    /// Critical-path report (causal bottleneck attribution), when
    /// [`super::FlashWalkerSim::with_critical`] was enabled.
    pub critical: Option<fw_sim::CriticalReport>,
}

impl From<FwReport> for RunReport {
    fn from(r: FwReport) -> RunReport {
        RunReport {
            engine: "flashwalker",
            time: r.time,
            walks: r.walks,
            stats: RunStats {
                hops: r.stats.hops,
                loads: r.stats.sg_loads,
                walk_spill_pages: r.stats.pwb_spill_pages + r.stats.foreign_pages,
            },
            traffic: Traffic {
                flash_read_bytes: r.flash_read_bytes,
                flash_write_bytes: r.flash_write_bytes,
                interconnect_bytes: r.channel_bytes,
            },
            // Busy-time attributions (the levels overlap): graph-array
            // reads as load, level busy time as update, walk fetch and
            // spill read-back as walk I/O.
            breakdown: EngineBreakdown {
                load_ns: r.stats.load_array_ns,
                update_ns: r.stats.chip_busy_ns + r.stats.chan_busy_ns + r.stats.board_busy_ns,
                walk_io_ns: r.stats.load_fetch_ns + r.stats.load_spill_ns,
                other_ns: 0,
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
