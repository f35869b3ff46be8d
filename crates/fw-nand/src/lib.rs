#![warn(missing_docs)]

//! `fw-nand` — an event-driven multi-queue SSD simulator (the MQSim
//! stand-in) implementing the Table I / Table III configuration:
//!
//! * 32 channels × 4 chips × 2 dies × 4 planes, 4 KB pages, 64 pages per
//!   block (so one 256 KB *graph block* is exactly one flash block),
//! * read 35 µs, program 350 µs, erase 2 ms (MLC),
//! * ONFI NV-DDR2 channel buses at 333 MB/s,
//! * an NVMe host interface over 4 × 1 GB/s PCIe,
//! * a page-mapped FTL with greedy garbage collection.
//!
//! ## Concurrency model
//!
//! Each plane serializes its own array operations ([`fw_sim::Timeline`]).
//! Additionally each chip owns **four array ports** ([`fw_sim::ServerBank`]):
//! at most four plane operations progress concurrently per chip, matching
//! the paper's aggregate numbers (§II-C: "the aggregation bandwidth of all
//! planes in this channel reaches 1786 MB/s" = 16 concurrent 4 KB/35 µs
//! reads per channel; 32 channels ⇒ ≈57 GB/s array read ceiling, the
//! paper's "theoretically maximal aggregated chip read throughput").
//! The channel bus (333 MB/s) and PCIe (4 GB/s) are bandwidth links, which
//! is why they saturate long before the array does — the observation that
//! motivates FlashWalker.
//!
//! ## One page read, two access paths
//!
//! Every flash page reaches a walk through one NAND sense,
//! [`Ssd::read_page`], which returns the read's reservation and its
//! [`ReadFault`]. On its own it occupies only the plane/chip array
//! resources — the chip-level accelerator's private path that never
//! touches the channel bus, the core of the FlashWalker design.
//! [`Ssd::read_page_to_controller`] adds the channel transfer of the page
//! register to the controller (what a conventional SSD, the board-level
//! accelerator, and the GraphWalker host path do). Reads a walk waits on
//! go through [`Ssd::read_page_recorded`], which puts the read's ECC
//! retry time on the run's probe, and a read whose ladder ran dry goes
//! through [`Ssd::recover_read`], the one recovery loop of both engines.

pub mod address;
pub mod config;
pub mod ftl;
pub mod layout;
pub mod ssd;
pub mod trace;

pub use address::{Geometry, Ppa};
pub use config::SsdConfig;
pub use ftl::{Ftl, Lpn};
pub use fw_fault::{FaultProfile, FaultStats, ReadFault};
pub use layout::GraphLayout;
pub use ssd::{Ssd, SsdStats};
pub use trace::SsdTrace;
