//! `fw-benchmark`: the end-to-end and per-layer benchmark of the
//! FlashWalker reproduction. See `README.md` beside this crate for the
//! workloads, the metrics and how to run it.

pub mod defs;
pub mod run;
pub mod spans;
pub mod stats;
