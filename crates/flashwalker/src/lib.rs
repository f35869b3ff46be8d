#![warn(missing_docs)]

//! `flashwalker` — the paper's contribution: an in-storage accelerator
//! hierarchy for graph random walks.
//!
//! FlashWalker "moves walk updating close to graph data stored in flash
//! memory, by exploiting significant parallelisms inside SSD" (§I). The
//! hierarchy has three levels (§III):
//!
//! * **chip-level accelerators** (one per flash chip, 128 total) load
//!   subgraphs straight from their chip's planes — never crossing the
//!   channel bus — and run the walk updater / walk guider loop of Fig. 3;
//! * **channel-level accelerators** (one per channel, 32) keep the top-K
//!   in-degree *hot subgraphs* of their chips, absorb roving walks, and
//!   perform the *approximate walk search* against the subgraph range
//!   mapping table;
//! * the **board-level accelerator** owns the subgraph mapping table (with
//!   per-guider-group *walk query caches*), the dense vertices mapping
//!   table (bloom filter + hash table) driving *pre-walking*, the
//!   partition walk buffer in on-board DRAM, the foreigner buffer, and the
//!   subgraph scheduler (Eq. 1 scores, per-chip topN lists).
//!
//! The crate also contains the analytical area model substituting for the
//! paper's RTL synthesis (see DESIGN.md §1) and per-optimization toggles
//! (WQ / HS / SS) for the Figure 9 ablation.

pub mod area;
pub mod config;
pub mod energy;
pub mod engine;
pub mod tables;

pub use config::{AccelConfig, OptToggles};
pub use engine::{FlashImage, FlashWalkerSim, FwReport};
pub use tables::WalkQueryCache;
