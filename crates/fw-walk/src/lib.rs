#![warn(missing_docs)]

//! `fw-walk` — random-walk primitives shared by the FlashWalker
//! accelerator model and the GraphWalker baseline.
//!
//! §II-A of the paper: "each walk randomly jumps to a neighbor of the
//! vertex that the walk lands in, based on the neighbor-sampling
//! probability distribution specified by both the graph and algorithm …
//! until a walk reaches the termination condition." This crate provides
//! the walk state (`src`, `cur`, `hop` — §III-B), the unbiased sampler,
//! the biased sampler via Inverse Transform Sampling with a binary search
//! over pre-computed cumulative lists, termination rules (fixed hop count
//! or stop-probability), and workload presets for the example algorithms
//! (DeepWalk sampling, personalized PageRank, a biased Node2Vec-style
//! walk).
//!
//! Samplers report an *operation count* so the hardware models can charge
//! updater cycles: the paper's walk updater "performs 5 operations to
//! process a walk" in the unbiased case, and biased walks cost extra
//! cycles for the binary search (§III-B).

pub mod engine;
pub mod sampler;
pub mod visits;
pub mod walk;
pub mod workload;

pub use engine::{EngineBreakdown, FaultSummary, RunReport, RunStats, Traffic, WalkEngine};
pub use sampler::{
    its_search, sample_biased, sample_unbiased, StepOutcome, DEAD_END_OPS, UNBIASED_UPDATER_OPS,
};
pub use visits::VisitCounts;
pub use walk::{Walk, WALK_BYTES};
pub use workload::{Bias, StartDist, Termination, WalkEvent, Workload};
