//! Shared experiment plumbing: dataset preparation, engine builders, the
//! generic [`WalkEngine`] harness and a std-thread parallel sweep runner.
//!
//! Experiments compose three layers:
//!
//! 1. [`prepared`] generates and partitions a dataset once,
//! 2. an engine builder ([`flashwalker_engine`], [`graphwalker_engine`],
//!    [`iterative_engine`]) configures a not-yet-run simulator,
//! 3. [`run_engine`] drives any [`WalkEngine`] through the paper-default
//!    workload and returns the unified [`RunReport`].
//!
//! Binaries that need engine-specific counters (per-window traces, PWB
//! stats) use the detailed wrappers [`run_flashwalker`] /
//! [`run_graphwalker`] instead, which return the engine-native reports.

use flashwalker::{AccelConfig, FlashWalkerSim, FwReport, OptToggles};
use fw_graph::{Dataset, DatasetId, PartitionedGraph};
use fw_nand::SsdConfig;
use fw_sim::Duration;
use fw_walk::{RunReport, WalkEngine, Workload};
use graphwalker::{GraphWalkerSim, GwConfig, GwReport, IterativeSim};

/// The seed every experiment uses unless it sweeps seeds.
pub const DEFAULT_SEED: u64 = 42;

/// A generated and partitioned dataset ready to run.
pub struct Prepared {
    /// Dataset identity.
    pub id: DatasetId,
    /// The generated graph.
    pub dataset: Dataset,
    /// FlashWalker's fine-grained partitioning.
    pub pg: PartitionedGraph,
}

/// Generate and partition a dataset for FlashWalker. The partition size
/// is the board mapping table's entry capacity, exactly the constraint
/// the paper derives partitions from.
pub fn prepared(id: DatasetId, seed: u64) -> Prepared {
    let dataset = Dataset::generate(id, seed);
    let cfg = AccelConfig::scaled();
    let pg = dataset.partition(cfg.mapping_table_entries());
    Prepared { id, dataset, pg }
}

// ----------------------------------------------------------------------
// Engine builders: configured simulators, workload supplied at run time.
// ----------------------------------------------------------------------

/// A configured FlashWalker over a prepared dataset (1 ms trace windows).
pub fn flashwalker_engine<'a>(
    p: &'a Prepared,
    opts: OptToggles,
    alpha: f64,
    seed: u64,
) -> FlashWalkerSim<'a> {
    let mut cfg = AccelConfig::scaled();
    cfg.opts = opts;
    cfg.alpha = alpha;
    FlashWalkerSim::new(&p.dataset.csr, &p.pg, cfg, SsdConfig::scaled(), seed)
        .with_trace_window(1_000_000)
}

/// A configured GraphWalker baseline with a given host memory capacity.
pub fn graphwalker_engine<'a>(p: &'a Prepared, memory_bytes: u64, seed: u64) -> GraphWalkerSim<'a> {
    let cfg = GwConfig::scaled().with_memory(memory_bytes);
    GraphWalkerSim::new(
        &p.dataset.csr,
        p.id.id_bytes(),
        cfg,
        SsdConfig::scaled(),
        seed,
    )
    .with_trace_window(1_000_000)
}

/// A configured iteration-synchronous baseline (GraphChi/DrunkardMob
/// style) with a given host memory capacity.
pub fn iterative_engine<'a>(p: &'a Prepared, memory_bytes: u64, seed: u64) -> IterativeSim<'a> {
    let cfg = GwConfig::scaled().with_memory(memory_bytes);
    IterativeSim::new(
        &p.dataset.csr,
        p.id.id_bytes(),
        cfg,
        SsdConfig::scaled(),
        seed,
    )
}

// ----------------------------------------------------------------------
// The generic harness.
// ----------------------------------------------------------------------

/// Run any [`WalkEngine`] through the paper-default DeepWalk workload and
/// return the unified report. This is the single code path every
/// trait-based experiment shares.
pub fn run_engine<E: WalkEngine>(engine: E, walks: u64) -> RunReport {
    engine.run(Workload::paper_default(walks))
}

// ----------------------------------------------------------------------
// Detailed wrappers (engine-native reports, for trace/stat consumers).
// ----------------------------------------------------------------------

/// Run FlashWalker on a prepared dataset (detailed report).
pub fn run_flashwalker(p: &Prepared, walks: u64, opts: OptToggles, seed: u64) -> FwReport {
    run_flashwalker_alpha(p, walks, opts, AccelConfig::scaled().alpha, seed)
}

/// Run FlashWalker with an explicit Eq. 1 α (the §IV-E ablation sets
/// α = 0.4 "to reduce the burden on the channel bus"; the default is 1.2).
pub fn run_flashwalker_alpha(
    p: &Prepared,
    walks: u64,
    opts: OptToggles,
    alpha: f64,
    seed: u64,
) -> FwReport {
    flashwalker_engine(p, opts, alpha, seed).run_detailed(Workload::paper_default(walks))
}

/// Run the GraphWalker baseline with a given host memory capacity
/// (detailed report).
pub fn run_graphwalker(p: &Prepared, walks: u64, memory_bytes: u64, seed: u64) -> GwReport {
    graphwalker_engine(p, memory_bytes, seed).run_detailed(Workload::paper_default(walks))
}

// ----------------------------------------------------------------------
// Comparison rows.
// ----------------------------------------------------------------------

/// One dataset × walk-count comparison, distilled from two unified
/// [`RunReport`]s.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Dataset abbreviation.
    pub dataset: &'static str,
    /// Number of walks run.
    pub walks: u64,
    /// FlashWalker execution time.
    pub fw_time: Duration,
    /// GraphWalker execution time.
    pub gw_time: Duration,
    /// Speedup (GraphWalker / FlashWalker).
    pub speedup: f64,
    /// FlashWalker flash reads, bytes.
    pub fw_read_bytes: u64,
    /// GraphWalker flash reads, bytes.
    pub gw_read_bytes: u64,
    /// FlashWalker achieved read bandwidth, bytes/s.
    pub fw_read_bw: f64,
    /// GraphWalker achieved read bandwidth, bytes/s.
    pub gw_read_bw: f64,
}

/// Run both engines through the generic harness and produce a comparison
/// row.
pub fn compare(p: &Prepared, walks: u64, gw_memory: u64, seed: u64) -> ComparisonRow {
    let fw = run_engine(
        flashwalker_engine(p, OptToggles::all(), AccelConfig::scaled().alpha, seed),
        walks,
    );
    let gw = run_engine(graphwalker_engine(p, gw_memory, seed), walks);
    ComparisonRow {
        dataset: p.id.abbrev(),
        walks,
        fw_time: fw.time,
        gw_time: gw.time,
        speedup: fw.speedup_over(&gw),
        fw_read_bytes: fw.traffic.flash_read_bytes,
        gw_read_bytes: gw.traffic.flash_read_bytes,
        fw_read_bw: fw.read_bw,
        gw_read_bw: gw.read_bw,
    }
}

/// The Figure 5 walk-count sweep for a dataset: the paper's maximum is
/// 10⁹ walks for CW and 4×10⁸ for the rest; the sweep halves downward
/// (scaled by 1/500).
pub fn walk_sweep(id: DatasetId) -> Vec<u64> {
    let max = id.default_walks();
    vec![max / 8, max / 4, max / 2, max]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_sweep_is_increasing_and_capped() {
        let s = walk_sweep(DatasetId::Twitter);
        assert_eq!(s.len(), 4);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*s.last().unwrap(), 800_000);
        assert_eq!(*walk_sweep(DatasetId::ClueWeb).last().unwrap(), 2_000_000);
    }

    #[test]
    fn generic_harness_runs_both_engines() {
        let p = prepared(DatasetId::Twitter, DEFAULT_SEED);
        let fw = run_engine(
            flashwalker_engine(&p, OptToggles::all(), AccelConfig::scaled().alpha, 7),
            500,
        );
        let gw = run_engine(graphwalker_engine(&p, 8 << 20, 7), 500);
        assert_eq!(fw.engine, "flashwalker");
        assert_eq!(gw.engine, "graphwalker");
        assert_eq!(fw.walks, 500);
        assert_eq!(gw.walks, 500);
        assert!(fw.traffic.flash_read_bytes > 0);
        assert!(gw.traffic.flash_read_bytes > 0);
    }
}
