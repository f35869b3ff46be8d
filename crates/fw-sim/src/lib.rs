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
//! * [`WorkerPool`] — a deterministic pool for fan-out phases such as a
//!   suite's scenario × seed cells.
//!
//! It also re-exports the [`fw_trace`] names the engines reach through it:
//! simulated time, the windowed [`TimeSeries`] sampler behind the Figure 8
//! resource-consumption curves, the span-based [`Tracer`], the per-run
//! [`Probe`], the report types and the [`export`] and [`json`] modules.
//!
//! Everything here is engine-agnostic: both the FlashWalker in-storage
//! hierarchy and the GraphWalker host baseline are built on it, which keeps
//! the two sides of the evaluation comparable.

pub mod event;
pub mod pool;
pub mod rng;
pub mod timeline;

pub use event::{EventQueue, HeapEventQueue};
pub use fw_trace::{
    chrome_trace_json, spans_csv, CriticalConfig, CriticalReport, Duration, HeatmapReport,
    JourneyConfig, JourneyEvent, JourneyEventKind, JourneyReport, Json, Probe, SimTime, TimeSeries,
    TraceConfig, TraceReport, Tracer,
};
pub use fw_trace::{export, json};
pub use pool::WorkerPool;
pub use rng::{derive_stream_seed, SplitMix64, Xoshiro256pp, XoshiroJump, XoshiroLanes};
pub use timeline::{BandwidthLink, ServerBank, Timeline};
