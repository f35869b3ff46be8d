#![warn(missing_docs)]

//! `fw-sim` — the discrete-event simulation substrate shared by every other
//! crate in the FlashWalker reproduction.
//!
//! The paper evaluates FlashWalker with "a cycle-level microarchitectural
//! simulator, which includes MQSim and DRAMSim3 to model SSD and DRAM".
//! This crate provides the equivalents of the pieces those frameworks share:
//!
//! * [`SimTime`] / [`Duration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a deterministic time-ordered event queue,
//! * [`Timeline`] — a busy-until resource model used for flash planes,
//!   dies, channel buses, the PCIe link and DRAM banks,
//! * [`rng`] — self-contained deterministic PRNGs (SplitMix64 and
//!   xoshiro256++, with exact jump-ahead and SIMD lanes) so whole
//!   experiments replay from a single `u64` seed,
//! * [`stats`] — counters, histograms and the windowed time-series sampler
//!   that produces the Figure 8 resource-consumption curves (re-exported
//!   from [`fw_trace`], the observability crate, together with the
//!   span-based [`Tracer`], the per-run [`Probe`] and the
//!   [`MetricsRegistry`]).
//!
//! Everything here is engine-agnostic: both the FlashWalker in-storage
//! hierarchy and the GraphWalker host baseline are built on it, which keeps
//! the two sides of the evaluation comparable.

pub mod event;
pub mod pool;
pub mod rng;
pub mod timeline;

pub use fw_trace::{
    critical, export, heatmap, journey, json, metrics, probe, report, span, stats, time,
};

pub use event::{EventQueue, HeapEventQueue};
pub use fw_trace::{
    chrome_trace_json, spans_csv, ComponentUtil, Counter, CritNode, CritSegment, CritShare,
    CriticalConfig, CriticalReport, Duration, HeatmapLane, HeatmapReport, Histogram, JourneyConfig,
    JourneyEvent, JourneyEventKind, JourneyLatency, JourneyReport, Json, LatencySummary,
    MetricsRegistry, Probe, QueueDepthSeries, SimTime, SpanRecord, StatSet, TailRow, TimeSeries,
    TraceConfig, TraceReport, Tracer, WalkJourney,
};
pub use pool::WorkerPool;
pub use rng::{derive_stream_seed, SplitMix64, Xoshiro256pp, XoshiroJump, XoshiroLanes};
pub use timeline::{BandwidthLink, ServerBank, Timeline};
