//! Simulated results of small FlashWalker runs, pinned by digest.
//!
//! Host-side work on routing, scheduling or the board tables must leave
//! every simulated number byte-identical. These runs cover both
//! partitions of a 2-partition RMAT graph with dense vertices (foreigner
//! pages, partition switches, pre-walking), with every optimization on,
//! with every one off, and under light fault injection. A digest that
//! moves marks a model change: state it and re-pin the digests.

use flashwalker::{AccelConfig, FlashWalkerSim, FwReport, OptToggles};
use fw_fault::FaultProfile;
use fw_graph::partition::PartitionConfig;
use fw_graph::rmat::{generate_csr, RmatParams};
use fw_graph::PartitionedGraph;
use fw_nand::SsdConfig;
use fw_walk::Workload;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Digest of a report's simulated fields (runs here record no trace,
/// journeys or critical path).
fn digest(r: &FwReport) -> u64 {
    let text = format!(
        "{}|{}|{:?}|{}|{}|{}|{:?}|{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.time.0,
        r.walks,
        r.stats,
        r.flash_read_bytes,
        r.flash_write_bytes,
        r.channel_bytes,
        r.read_bw,
        r.channel_util,
        r.channel_wait_ns,
        r.events,
        r.progress,
        r.read_bytes_series,
        r.write_bytes_series,
        r.channel_bytes_series,
        r.walk_log,
        r.faults,
    );
    fnv1a(text.as_bytes())
}

#[test]
fn simulated_results_match_the_pinned_digests() {
    let csr = generate_csr(RmatParams::graph500(), 4_000, 40_000, 7);
    let pg = PartitionedGraph::build(
        &csr,
        PartitionConfig {
            subgraph_bytes: 2 << 10,
            id_bytes: 4,
            subgraphs_per_partition: 48,
        },
    );
    assert_eq!(pg.num_partitions(), 2);
    assert!(!pg.dense.is_empty(), "the graph must have dense vertices");
    let cases = [
        (
            "all opts",
            OptToggles::all(),
            FaultProfile::none(),
            0xe897_5227_c202_fc9b,
        ),
        (
            "no opts",
            OptToggles::none(),
            FaultProfile::none(),
            0x6cc7_e207_5493_1748,
        ),
        (
            "all opts, light faults",
            OptToggles::all(),
            FaultProfile::light(),
            0x4052_c3bc_f980_d42f,
        ),
    ];
    let mut got = Vec::new();
    for (name, opts, faults, want) in cases {
        let mut cfg = AccelConfig::scaled();
        cfg.opts = opts;
        let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 42)
            .with_faults(faults)
            .with_walk_log()
            .run_detailed(Workload::paper_default(4_000));
        assert_eq!(r.walks, 4_000, "{name}");
        assert!(
            r.stats.partition_switches > 0 && r.stats.foreign_pages > 0,
            "{name}: both partitions must run"
        );
        got.push((name, digest(&r), want));
    }
    let report: Vec<String> = got
        .iter()
        .map(|(name, d, want)| format!("{name}: {d:#018x} (pinned {want:#018x})"))
        .collect();
    assert!(
        got.iter().all(|(_, d, want)| d == want),
        "simulated results moved:\n{}",
        report.join("\n")
    );
}
