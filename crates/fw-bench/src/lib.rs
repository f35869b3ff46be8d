//! `fw-bench` — the experiment harness: shared runners that pit
//! FlashWalker against GraphWalker on the five Table IV datasets, plus
//! one binary per table/figure of the paper (see DESIGN.md §3).
//!
//! All binaries print TSV to stdout so results can be diffed and plotted;
//! EXPERIMENTS.md records paper-vs-measured numbers from these runs.
//!
//! On top of the per-figure binaries sits the structured benchmark
//! subsystem (EXPERIMENTS.md "Continuous benchmarking"):
//!
//! * [`suite`] — declarative scenario grids (engine × dataset ×
//!   walk-count × seeds) and the shared suite runner,
//! * [`bench_json`] — the schema-versioned, byte-deterministic
//!   `BENCH_*.json` record format with its in-crate parser,
//! * [`compare`] — noise-aware regression gating between two records
//!   plus paper-fidelity verdicts,
//! * [`record`] — shared record loading/validation with distinct exit
//!   codes for parse (3) vs invariant (4) failures,
//! * [`why`] — causal trace diffing: attribute a sim-time movement to
//!   the components whose critical-path time grew,
//! * [`cli`] — the one command-line splitter of `fwbench`, `fwtrace`
//!   and `diag`,
//! * [`serve`] — the online-serving suite over `fw-serve`: capacity-
//!   calibrated offered-load points, throughput-vs-p99 curves, and the
//!   byte-deterministic `SERVE_*.json` record + CSV artifact,
//!
//! all driven by the `fwbench` binary (`fwbench run` / `compare` / `why` /
//! `tail` / `serve`). Every record holds only simulated numbers and run
//! stamps; host time is measured by the separate `bench/` package.

pub mod bench_json;
pub mod chart;
pub mod cli;
pub mod compare;
pub mod record;
pub mod runner;
pub mod serve;
pub mod suite;
pub mod why;

pub use runner::{
    flashwalker_engine, graphwalker_engine, iterative_engine, prepared, run_engine,
    run_flashwalker, run_graphwalker, ComparisonRow, Prepared, DEFAULT_SEED,
};

/// Format a bytes/s figure as GB/s with 2 decimals.
pub fn gbps(x: f64) -> String {
    format!("{:.2}", x / 1e9)
}

/// Speedup ratio `slow / fast` (how much faster `fast` is).
pub fn ratio(fast: f64, slow: f64) -> f64 {
    if fast <= 0.0 {
        0.0
    } else {
        slow / fast
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn ratio_is_slow_over_fast() {
        assert!((super::ratio(2.0, 10.0) - 5.0).abs() < 1e-12);
        assert_eq!(super::ratio(0.0, 10.0), 0.0);
    }
}
