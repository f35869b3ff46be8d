#![warn(missing_docs)]

//! `fw-trace` — the sim-time observability layer shared by every engine in
//! the FlashWalker reproduction.
//!
//! The paper's evaluation hinges on seeing *inside* the simulated SSD: the
//! Figure 1 time breakdown, the Figure 6 traffic split and the Figure 8
//! resource-consumption curves are all observability artifacts. This crate
//! provides the primitives those artifacts (and every future perf PR) are
//! built on:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`] /
//!   [`Duration`]), the clock domain every span lives in,
//! * [`stats`] — power-of-two [`Histogram`]s and the windowed
//!   [`TimeSeries`] sampler,
//! * [`span`] — the [`Tracer`]: span-based busy-interval recording for
//!   channels, chips, planes, DRAM banks and the accelerator PEs, with
//!   exact per-track aggregates and bounded-memory deterministic sampling
//!   of the retained span list,
//! * [`report`] — derived views ([`TraceReport`]): per-component
//!   utilization, p50/p95/p99 latency summaries and queue-depth time
//!   series,
//! * [`journey`] — walk-granular lifecycle tracing: the sampled
//!   [`JourneyRecorder`] and the derived [`JourneyReport`] with
//!   end-to-end walk latency percentiles and tail attribution,
//! * [`critical`] — causal critical-path profiling: the happens-before
//!   [`CriticalRecorder`] and the derived [`CriticalReport`] whose path
//!   segments sum exactly to end-to-end sim time,
//! * [`probe`] — the [`Probe`]: an engine run's one recording handle,
//!   which owns its tracer, journey recorder and critical-path recorder
//!   and records each event site's interval into all of them,
//! * [`heatmap`] — windowed contention heatmaps (per-lane busy fraction
//!   and queue-depth occupancy) derived from the same dependency log,
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto), CSV, and a human-readable text report,
//! * [`json`] — the workspace's one JSON value type ([`Json`]): every
//!   record producer in the workspace builds its summary as a `Json` tree.
//!
//! Tracing is **zero-cost when disabled**: a disabled [`Tracer`] is a
//! no-op sink behind a single branch, so Tier-1 benchmark numbers are
//! unaffected. It is also **deterministic**: sampling is modular counting
//! (never wall-clock or randomness), so two runs with the same seed emit
//! byte-identical traces.
//!
//! `fw-sim` re-exports the names the engines reach through it, so engine
//! code may use either `fw_trace::Tracer` or `fw_sim::Tracer`.

pub mod critical;
pub mod export;
pub mod heatmap;
pub mod journey;
pub mod json;
pub mod probe;
pub mod report;
pub mod span;
pub mod stats;
pub mod time;

pub use critical::{
    CritNode, CritSegment, CritShare, CriticalConfig, CriticalRecorder, CriticalReport,
};
pub use export::{chrome_trace_json, spans_csv};
pub use heatmap::{HeatmapLane, HeatmapReport};
pub use journey::{
    JourneyConfig, JourneyEvent, JourneyEventKind, JourneyLatency, JourneyRecorder, JourneyReport,
    TailRow, WalkJourney,
};
pub use json::Json;
pub use probe::Probe;
pub use report::{ComponentUtil, LatencySummary, QueueDepthSeries, TraceReport};
pub use span::{SpanRecord, TraceConfig, Tracer};
pub use stats::{Histogram, TimeSeries};
pub use time::{Duration, SimTime};
