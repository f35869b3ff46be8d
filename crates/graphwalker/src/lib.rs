#![warn(missing_docs)]

//! `graphwalker` — a from-scratch reimplementation of GraphWalker
//! (Wang et al., USENIX ATC'20), the paper's baseline: "an I/O-efficient
//! and resource-friendly graph analytic system for fast and scalable
//! random walks".
//!
//! GraphWalker's two key ideas, both reproduced here (§II-B):
//!
//! 1. **Asynchronous walk updating** — "instead of updating walks in the
//!    loaded blocks only once and then putting them back to disk, it keeps
//!    updating them until they leave these blocks or have reached the
//!    termination conditions";
//! 2. **State-aware scheduling** — "it gives preference to blocks with a
//!    higher number of walks inside to load into the memory".
//!
//! The host engine reads graph blocks through the *same* `fw-nand` SSD
//! simulator FlashWalker uses, over the NVMe/PCIe host path, with a
//! configurable in-memory block cache standing in for the machine's RAM
//! (the paper sweeps 4/8/16 GB; we sweep the 1/500-scaled equivalents).
//! Walk pools that outgrow their buffer spill to disk and are read back
//! when their block is scheduled — the "walk I/O" slice of Figure 1.
//!
//! The CPU side is modeled as an aggregate hop rate
//! ([`GwConfig::cpu_ns_per_hop`]): GraphWalker on the paper's 8-core
//! Ryzen 3700X updates tens of millions of walk steps per second; the
//! default 20 ns/hop (50 M hops/s) is in the middle of the range the
//! GraphWalker paper reports for in-memory blocks.

mod blocks;
pub mod breakdown;
pub mod config;
pub mod engine;
pub mod iterative;

pub use breakdown::TimeBreakdown;
pub use config::GwConfig;
pub use engine::{GraphWalkerSim, GwReport};
pub use iterative::{IterReport, IterativeSim};
