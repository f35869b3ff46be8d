//! The engine abstraction: every walk system in this workspace —
//! FlashWalker's in-storage hierarchy, the GraphWalker host baseline, the
//! iteration-synchronous baseline — runs a [`Workload`] to completion and
//! reports through the same [`RunReport`] shape, so benches, figures and
//! conformance tests can be written once against [`WalkEngine`].
//!
//! Engine-specific detail (FlashWalker's per-level hop counts, the
//! GraphWalker cache behaviour, …) stays on the engines' own `run_detailed`
//! methods and report types; this module is the lowest common denominator.

use fw_sim::{CriticalReport, Duration, JourneyReport, Json, TraceReport};

use crate::walk::Walk;
use crate::workload::Workload;

/// Counters every engine can meaningfully report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total walk hops executed (each is one neighbor sample).
    pub hops: u64,
    /// Graph loads: subgraph loads into chip slots (FlashWalker) or
    /// graph-block faults into host memory (baselines), re-loads included.
    pub loads: u64,
    /// Walk pages written to flash because a walk buffer overflowed
    /// (PWB spills + foreigner pages for FlashWalker, walk-pool spill
    /// pages for the baselines).
    pub walk_spill_pages: u64,
}

/// Byte traffic over the storage paths the engines share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes read from flash arrays.
    pub flash_read_bytes: u64,
    /// Bytes programmed to flash arrays.
    pub flash_write_bytes: u64,
    /// Bytes over the engine's interconnect: channel buses for
    /// FlashWalker (in-storage data movement), PCIe for the host
    /// baselines (host data movement).
    pub interconnect_bytes: u64,
}

/// Coarse time attribution in nanoseconds.
///
/// For the serial host baselines the four slices partition wall-clock
/// time (this is Figure 1's breakdown). For FlashWalker, whose levels
/// overlap in time, the slices are *busy-time attributions* — they can sum
/// to more than [`RunReport::time`] and are meaningful as ratios, not as a
/// partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineBreakdown {
    /// Loading graph data from flash.
    pub load_ns: u64,
    /// Updating walks (sampling compute).
    pub update_ns: u64,
    /// Walk I/O: spilling walk state to flash and reading it back.
    pub walk_io_ns: u64,
    /// Everything else (scheduling overheads).
    pub other_ns: u64,
}

impl RunStats {
    /// The counters as a [`fw_sim::json`] object, keys in field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hops", Json::u(self.hops)),
            ("loads", Json::u(self.loads)),
            ("walk_spill_pages", Json::u(self.walk_spill_pages)),
        ])
    }
}

impl Traffic {
    /// The byte counters as a [`fw_sim::json`] object, keys in field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("flash_read_bytes", Json::u(self.flash_read_bytes)),
            ("flash_write_bytes", Json::u(self.flash_write_bytes)),
            ("interconnect_bytes", Json::u(self.interconnect_bytes)),
        ])
    }
}

impl EngineBreakdown {
    /// Sum of all slices.
    pub fn total_ns(&self) -> u64 {
        self.load_ns + self.update_ns + self.walk_io_ns + self.other_ns
    }

    /// The slices as a [`fw_sim::json`] object, keys in field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("load_ns", Json::u(self.load_ns)),
            ("update_ns", Json::u(self.update_ns)),
            ("walk_io_ns", Json::u(self.walk_io_ns)),
            ("other_ns", Json::u(self.other_ns)),
        ])
    }

    /// Fraction of the breakdown spent loading graph data.
    pub fn load_fraction(&self) -> f64 {
        let t = self.total_ns();
        if t == 0 {
            0.0
        } else {
            self.load_ns as f64 / t as f64
        }
    }
}

/// Fault-injection and recovery counters for one run.
///
/// Present on a [`RunReport`] only when the engine ran with a nonzero
/// fault profile; fault-free runs carry `None` and serialize without a
/// `faults` key, keeping their summaries byte-identical to pre-fault
/// baselines. Device-level counters come from the SSD's injector; the
/// `stalled_loads` / `requeues` / `degraded_ops` triple is the engine's
/// own recovery bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// ECC read-retry ladder steps taken.
    pub read_retries: u64,
    /// Reads that entered the ladder and recovered.
    pub recovered_reads: u64,
    /// Reads that exhausted the ladder (triggering engine recovery).
    pub hard_read_fails: u64,
    /// Programs that needed an extra pulse.
    pub program_retries: u64,
    /// Array ops delayed by a stalled chip.
    pub chip_stalls: u64,
    /// Channel transfers delayed by a stalled bus.
    pub channel_stalls: u64,
    /// Total injected stall time, ns.
    pub stall_ns: u64,
    /// Total extra retry sense/program time, ns.
    pub retry_ns: u64,
    /// Loads whose completion exceeded the profile's timeout and were
    /// requeued by the engine.
    pub stalled_loads: u64,
    /// Load re-issues (timeout requeues + hard-fail re-reads).
    pub requeues: u64,
    /// Operations completed through the degradation path (mapping-table /
    /// host fallback re-read) after exhausting re-issue attempts.
    pub degraded_ops: u64,
}

impl FaultSummary {
    /// Total injected fault events (the CI smoke gate checks this is
    /// nonzero under a nonzero profile).
    pub fn total_events(&self) -> u64 {
        self.read_retries
            + self.program_retries
            + self.chip_stalls
            + self.channel_stalls
            + self.stalled_loads
            + self.requeues
            + self.degraded_ops
    }

    /// The counters as a [`fw_sim::json`] object, keys in field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("read_retries", Json::u(self.read_retries)),
            ("recovered_reads", Json::u(self.recovered_reads)),
            ("hard_read_fails", Json::u(self.hard_read_fails)),
            ("program_retries", Json::u(self.program_retries)),
            ("chip_stalls", Json::u(self.chip_stalls)),
            ("channel_stalls", Json::u(self.channel_stalls)),
            ("stall_ns", Json::u(self.stall_ns)),
            ("retry_ns", Json::u(self.retry_ns)),
            ("stalled_loads", Json::u(self.stalled_loads)),
            ("requeues", Json::u(self.requeues)),
            ("degraded_ops", Json::u(self.degraded_ops)),
        ])
    }
}

/// The unified result of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine identifier ([`WalkEngine::name`]).
    pub engine: &'static str,
    /// End-to-end simulated execution time.
    pub time: Duration,
    /// Walks completed (equals the workload size on success).
    pub walks: u64,
    /// Common counters.
    pub stats: RunStats,
    /// Byte traffic.
    pub traffic: Traffic,
    /// Coarse time attribution (see [`EngineBreakdown`] for semantics).
    pub breakdown: EngineBreakdown,
    /// Achieved flash read bandwidth over the run, bytes/s.
    pub read_bw: f64,
    /// Host-side work proxy for the run: delivered simulator events for
    /// the event-driven engines, executed hops for the serial baselines.
    /// This measures how much the *simulator* did, not simulated
    /// behaviour — it is deliberately excluded from [`Self::summary_json`]
    /// so the byte-identical simulated-results contract is untouched.
    pub host_events: u64,
    /// Walks completed per trace window (empty when the engine does not
    /// trace).
    pub progress: Vec<f64>,
    /// Trace window width in nanoseconds (0 when untraced).
    pub trace_window_ns: u64,
    /// Completed walks, when walk logging was enabled on the engine.
    pub walk_log: Vec<Walk>,
    /// Span-trace derived views (utilization, latency percentiles,
    /// queue depths), when span tracing was enabled on the engine.
    pub trace: Option<TraceReport>,
    /// Fault-injection counters; `None` when the engine ran fault-free
    /// (the default), so pre-fault summaries stay byte-identical.
    pub faults: Option<FaultSummary>,
    /// Walk-journey report (per-walk lifecycle traces, latency
    /// percentiles, tail attribution), when journey recording was
    /// enabled on the engine. Deliberately excluded from
    /// [`Self::summary_json`] — it has its own serializer
    /// (`JourneyReport::to_json`) and benchmark-record column, so
    /// journey-off records stay byte-identical.
    pub journeys: Option<JourneyReport>,
    /// Critical-path report (causal bottleneck attribution: dependency
    /// log, critical-path segments summing exactly to `time`, per-
    /// component critical-time shares), when critical recording was
    /// enabled on the engine. Excluded from [`Self::summary_json`] for
    /// the same byte-identity reason as `journeys`; it serializes via
    /// `CriticalReport::to_json`.
    pub critical: Option<CriticalReport>,
}

impl RunReport {
    /// Completed walks per simulated second.
    pub fn walks_per_sec(&self) -> f64 {
        let s = self.time.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.walks as f64 / s
        }
    }

    /// How many times faster this run is than `other` (simulated time
    /// ratio `other / self`).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        if self.time.as_nanos() == 0 {
            return 0.0;
        }
        other.time.as_nanos() as f64 / self.time.as_nanos() as f64
    }

    /// Machine-readable one-run summary as a [`fw_sim::json`] tree.
    /// Covers the scalar core of the report — engine, simulated time,
    /// walks, [`RunStats`], [`Traffic`], [`EngineBreakdown`] and achieved
    /// read bandwidth — and deliberately excludes the bulky per-run
    /// vectors (`progress`, `walk_log`) and the optional trace, which have
    /// their own exporters. Key order is fixed and floats use fixed
    /// precision, so identical runs serialize byte-identically.
    pub fn summary_json(&self) -> Json {
        let mut pairs = vec![
            ("engine", Json::s(self.engine)),
            ("time_ns", Json::u(self.time.as_nanos())),
            ("walks", Json::u(self.walks)),
            ("stats", self.stats.to_json()),
            ("traffic", self.traffic.to_json()),
            ("breakdown", self.breakdown.to_json()),
            ("read_bw", Json::f(self.read_bw, 3)),
        ];
        if let Some(f) = &self.faults {
            pairs.push(("faults", f.to_json()));
        }
        Json::obj(pairs)
    }
}

/// A walk system that runs a [`Workload`] to completion.
///
/// # Contract
///
/// * **Consumes self.** `run` takes the engine by value: an engine is a
///   one-shot configured simulation. Construct, optionally toggle
///   builders (trace window, walk log), then run.
/// * **Determinism.** Two engines built with identical inputs (graph,
///   configuration, seed) and run with the same workload must produce
///   identical reports — the same `time`, `stats`, `traffic` and
///   `walk_log`. All randomness must flow from the construction seed.
/// * **Completion.** On return, `report.walks == workload.num_walks`;
///   engines panic rather than silently dropping walks.
/// * **Stats semantics.** `stats.hops` counts every neighbor sample
///   (including the final hop that completes a walk); `stats.loads`
///   counts every transfer of graph data into compute-visible memory,
///   re-loads included; `traffic` counts *charged* simulated bytes only —
///   untimed preprocessing (initial walk distribution) is excluded.
/// * **Walk log.** When the engine's walk logging is enabled, `walk_log`
///   holds every completed walk exactly once, each with `is_done()` true
///   and the multiset of `src` vertices equal to the workload's initial
///   distribution. Order is engine-specific.
pub trait WalkEngine {
    /// Stable identifier for reports and figure labels.
    fn name(&self) -> &'static str;

    /// Run `workload` to completion and report.
    fn run(self, workload: Workload) -> RunReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_json_is_deterministic_and_complete() {
        let r = RunReport {
            engine: "flashwalker",
            time: Duration(1_234_567),
            walks: 42,
            stats: RunStats {
                hops: 252,
                loads: 7,
                walk_spill_pages: 1,
            },
            traffic: Traffic {
                flash_read_bytes: 4096,
                flash_write_bytes: 512,
                interconnect_bytes: 2048,
            },
            breakdown: EngineBreakdown {
                load_ns: 100,
                update_ns: 200,
                walk_io_ns: 50,
                other_ns: 0,
            },
            read_bw: 12.3456,
            host_events: 99,
            progress: vec![1.0],
            trace_window_ns: 0,
            walk_log: Vec::new(),
            trace: None,
            faults: None,
            journeys: None,
            critical: None,
        };
        let json = r.summary_json();
        assert_eq!(json, r.summary_json());
        assert_eq!(json.get("engine"), Some(&Json::s("flashwalker")));
        assert_eq!(json.get("time_ns"), Some(&Json::u(1_234_567)));
        let traffic = json.get("traffic").expect("traffic object");
        assert_eq!(traffic.get("flash_read_bytes"), Some(&Json::u(4096)));
        assert_eq!(json.get("read_bw"), Some(&Json::Num("12.346".into())));
        // Host metrics must never leak into the simulated summary.
        let text = json.render();
        assert!(!text.contains("host_events"));
        // Fault-free runs must not carry a faults key: the byte-identity
        // contract against pre-fault baselines depends on it.
        assert!(!text.contains("faults"));

        let mut faulted = r.clone();
        faulted.faults = Some(FaultSummary {
            read_retries: 5,
            recovered_reads: 4,
            hard_read_fails: 1,
            requeues: 2,
            degraded_ops: 1,
            ..FaultSummary::default()
        });
        let Json::Obj(pairs) = faulted.summary_json() else {
            panic!("summary is an object")
        };
        let (last_key, faults) = pairs.last().expect("non-empty summary");
        assert_eq!(last_key, "faults", "faults object closes the summary");
        assert_eq!(faults.get("read_retries"), Some(&Json::u(5)));
        assert_eq!(faults.get("degraded_ops"), Some(&Json::u(1)));
        // read_retries + requeues + degraded_ops (hard fails are already
        // counted through their ladder retries).
        assert_eq!(faulted.faults.unwrap().total_events(), 5 + 2 + 1);
    }
}
