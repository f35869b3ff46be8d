//! Shared experiment plumbing: dataset preparation and engine builders.
//!
//! Experiments compose two layers:
//!
//! 1. [`prepared`] generates and partitions a dataset once,
//! 2. an engine builder ([`flashwalker_engine`], [`graphwalker_engine`],
//!    [`iterative_engine`]) configures a not-yet-run simulator.
//!
//! [`crate::suite::run_one`] is the one builder of unified
//! [`fw_walk::RunReport`]s. Reports that need engine-native counters
//! (per-window series, breakdowns, PWB stats) use [`run_flashwalker`] /
//! [`run_graphwalker`] instead, which return the engine-native reports.

use flashwalker::{AccelConfig, FlashWalkerSim, FwReport};
use fw_graph::{Dataset, DatasetId, PartitionedGraph};
use fw_nand::SsdConfig;
use fw_walk::Workload;
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

/// A configured FlashWalker over a prepared dataset.
pub fn flashwalker_engine(p: &Prepared, cfg: AccelConfig, seed: u64) -> FlashWalkerSim<'_> {
    FlashWalkerSim::new(&p.dataset.csr, &p.pg, cfg, SsdConfig::scaled(), seed)
}

/// A configured GraphWalker baseline with a given host memory capacity.
pub fn graphwalker_engine(p: &Prepared, memory_bytes: u64, seed: u64) -> GraphWalkerSim<'_> {
    let cfg = GwConfig::scaled().with_memory(memory_bytes);
    GraphWalkerSim::new(
        &p.dataset.csr,
        p.id.id_bytes(),
        cfg,
        SsdConfig::scaled(),
        seed,
    )
}

/// A configured iteration-synchronous baseline (GraphChi/DrunkardMob
/// style). It takes no memory capacity: the engine reads none.
pub fn iterative_engine(p: &Prepared, seed: u64) -> IterativeSim<'_> {
    IterativeSim::new(
        &p.dataset.csr,
        p.id.id_bytes(),
        GwConfig::scaled(),
        SsdConfig::scaled(),
        seed,
    )
}

// ----------------------------------------------------------------------
// Detailed wrappers (engine-native reports, for trace/stat consumers).
// ----------------------------------------------------------------------

/// Run FlashWalker on a prepared dataset through the paper-default
/// workload (detailed report).
pub fn run_flashwalker(p: &Prepared, walks: u64, cfg: AccelConfig, seed: u64) -> FwReport {
    flashwalker_engine(p, cfg, seed).run_detailed(Workload::paper_default(walks))
}

/// Run the GraphWalker baseline with a given host memory capacity
/// (detailed report).
pub fn run_graphwalker(p: &Prepared, walks: u64, memory_bytes: u64, seed: u64) -> GwReport {
    graphwalker_engine(p, memory_bytes, seed).run_detailed(Workload::paper_default(walks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_walk::WalkEngine;

    #[test]
    fn builders_run_both_engines() {
        let p = prepared(DatasetId::Twitter, DEFAULT_SEED);
        let fw = flashwalker_engine(&p, AccelConfig::scaled(), 7).run(Workload::paper_default(500));
        let gw = graphwalker_engine(&p, 8 << 20, 7).run(Workload::paper_default(500));
        assert_eq!(fw.engine, "flashwalker");
        assert_eq!(gw.engine, "graphwalker");
        assert_eq!(fw.walks, 500);
        assert_eq!(gw.walks, 500);
        assert!(fw.traffic.flash_read_bytes > 0);
        assert!(gw.traffic.flash_read_bytes > 0);
    }
}
