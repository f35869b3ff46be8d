//! `fw-bench` — the experiment harness: shared runners that pit
//! FlashWalker against GraphWalker on the five Table IV datasets, and the
//! `fwbench` binary that regenerates every table and figure of the paper
//! as a subcommand (see DESIGN.md §3).
//!
//! Figure and table subcommands print TSV to stdout so results can be
//! diffed and plotted; EXPERIMENTS.md records paper-vs-measured numbers
//! from these runs. The modules:
//!
//! * [`suite`] — declarative scenario grids (engine × dataset ×
//!   walk-count × seeds), the one table of named suites, and the shared
//!   suite runner,
//! * [`figures`] — the TSV of each figure, table and extension report,
//! * [`diag`] — the span-trace and diagnostic reports of `fwbench trace`
//!   and `fwbench diag`,
//! * [`bench_json`] — the schema-versioned, byte-deterministic
//!   `BENCH_*.json` record format with its in-crate parser,
//! * [`compare`] — noise-aware regression gating between two records
//!   plus paper-fidelity verdicts,
//! * [`record`] — shared record loading/validation with distinct exit
//!   codes for parse (3) vs invariant (4) failures,
//! * [`why`] — causal trace diffing: attribute a sim-time movement to
//!   the components whose critical-path time grew,
//! * [`cli`] — the one command-line splitter of `fwbench`,
//! * [`serve`] — the online-serving suite over `fw-serve`: capacity-
//!   calibrated offered-load points, throughput-vs-p99 curves, and the
//!   byte-deterministic `SERVE_*.json` record + CSV artifact.
//!
//! Every record holds only simulated numbers and run stamps; host time
//! is measured by the separate `bench/` package.

pub mod bench_json;
pub mod chart;
pub mod cli;
pub mod compare;
pub mod diag;
pub mod figures;
pub mod record;
pub mod runner;
pub mod serve;
pub mod suite;
pub mod why;
