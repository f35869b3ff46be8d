//! Observer outputs of small runs, pinned by digest.
//!
//! `sim_digests` pins what the engines simulate; this file pins what the
//! three recorders see while they do it: the span trace summary and span
//! list, every sampled walk journey (`sample_period: 1`) and the critical
//! path. Each run switches all three recorders on at once, so every event
//! site of each engine records into all of them. A moved digest means an
//! event site records something else: state why and re-pin.

use flashwalker::{AccelConfig, FlashWalkerSim, OptToggles};
use fw_fault::FaultProfile;
use fw_graph::partition::PartitionConfig;
use fw_graph::rmat::{generate_csr, RmatParams};
use fw_graph::PartitionedGraph;
use fw_nand::SsdConfig;
use fw_sim::export::trace_summary_json;
use fw_sim::{
    spans_csv, CriticalConfig, CriticalReport, JourneyConfig, JourneyReport, TraceConfig,
    TraceReport,
};
use fw_walk::Workload;
use graphwalker::{GraphWalkerSim, GwConfig, IterativeSim};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every walk, every event: the journey recorder keeps all of them.
const JOURNEYS: JourneyConfig = JourneyConfig {
    seed: 3,
    sample_period: 1,
    max_walks: usize::MAX,
};

/// `(trace, journeys, critical)` digests of one run; a recorder that was
/// not enabled digests to 0.
fn digests(
    trace: &Option<TraceReport>,
    journeys: &Option<JourneyReport>,
    critical: &Option<CriticalReport>,
) -> [u64; 3] {
    let trace = trace.as_ref().map_or(0, |t| {
        fnv1a(format!("{}\n{}", trace_summary_json(t).render(), spans_csv(t)).as_bytes())
    });
    let journeys = journeys.as_ref().map_or(0, |j| {
        fnv1a(format!("{}\n{}", j.to_json().render(), j.journeys_csv()).as_bytes())
    });
    let critical = critical
        .as_ref()
        .map_or(0, |c| fnv1a(c.to_json().render().as_bytes()));
    [trace, journeys, critical]
}

fn small_gw() -> GwConfig {
    GwConfig {
        memory_bytes: 96 << 10,
        block_bytes: 16 << 10,
        cpu_ns_per_hop: 20,
        walk_buffer_bytes: 16 << 10,
    }
}

#[test]
fn observer_outputs_match_the_pinned_digests() {
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
    let wl = Workload::paper_default(4_000);
    let mut got: Vec<(&str, [u64; 3], [u64; 3])> = Vec::new();

    for (name, faults, want) in [
        (
            "fw all opts",
            FaultProfile::none(),
            [
                0x6684_32c5_a714_e9a9,
                0x69e5_22c3_aa82_32c8,
                0x649f_d415_37b5_7aed,
            ],
        ),
        (
            "fw all opts, light faults",
            FaultProfile::light(),
            [
                0x0139_c7fc_77c8_d4a7,
                0x61cf_d501_c42b_4f92,
                0x0e8f_b9c7_0c75_7452,
            ],
        ),
    ] {
        let mut cfg = AccelConfig::scaled();
        cfg.opts = OptToggles::all();
        let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 42)
            .with_faults(faults)
            .with_span_trace(TraceConfig::default())
            .with_journeys(JOURNEYS)
            .with_critical(CriticalConfig::default())
            .run_detailed(wl);
        assert!(r.stats.partition_switches > 0 && r.stats.foreign_pages > 0);
        got.push((name, digests(&r.trace, &r.journeys, &r.critical), want));
    }

    let r = GraphWalkerSim::new(&csr, 4, small_gw(), SsdConfig::tiny(), 5)
        .with_faults(FaultProfile::light())
        .with_span_trace(TraceConfig::default())
        .with_journeys(JOURNEYS)
        .with_critical(CriticalConfig::default())
        .run_detailed(wl);
    assert!(r.walk_spills > 0, "the spill sites must run");
    got.push((
        "gw light faults",
        digests(&r.trace, &r.journeys, &r.critical),
        [
            0xe023_e24d_5e8b_268b,
            0x9e98_69a3_0f28_58aa,
            0x5e02_293b_b61c_3dc0,
        ],
    ));

    let r = IterativeSim::new(&csr, 4, small_gw(), SsdConfig::tiny(), 5)
        .with_span_trace(TraceConfig::default())
        .run_detailed(wl);
    got.push((
        "iterative",
        digests(&r.trace, &None, &None),
        [0xc62c_a3b0_aa95_b97c, 0, 0],
    ));

    let report: Vec<String> = got
        .iter()
        .map(|(name, d, want)| {
            let hex = |x: &[u64; 3]| {
                x.iter()
                    .map(|v| format!("{v:#018x}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!("{name}: [{}] (pinned [{}])", hex(d), hex(want))
        })
        .collect();
    assert!(
        got.iter().all(|(_, d, want)| d == want),
        "observer outputs moved (trace, journeys, critical):\n{}",
        report.join("\n")
    );
}
