//! The fw-trace observability layer, end to end: span-derived byte totals
//! must conserve against the engines' own traffic counters, the derived
//! channel utilization must agree with the NAND simulator's
//! Timeline-derived figure, and traced runs must stay bit-deterministic —
//! two same-seed runs emit byte-identical Chrome trace JSON.

use flashwalker::{AccelConfig, FlashWalkerSim, FwReport};
use fw_graph::partition::PartitionConfig;
use fw_graph::rmat::{generate_csr, RmatParams};
use fw_graph::{Csr, PartitionedGraph};
use fw_nand::SsdConfig;
use fw_sim::{chrome_trace_json, TraceConfig, TraceReport};
use fw_walk::{RunReport, WalkEngine, Workload};
use graphwalker::{GraphWalkerSim, GwConfig, GwReport, IterativeSim};

fn graph() -> Csr {
    generate_csr(RmatParams::graph500(), 2_000, 24_000, 55)
}

fn partition(csr: &Csr) -> PartitionedGraph {
    PartitionedGraph::build(
        csr,
        PartitionConfig {
            subgraph_bytes: 4 << 10,
            id_bytes: 4,
            subgraphs_per_partition: AccelConfig::scaled().mapping_table_entries(),
        },
    )
}

fn gw_cfg() -> GwConfig {
    GwConfig {
        memory_bytes: 256 << 10,
        block_bytes: 16 << 10,
        cpu_ns_per_hop: 20,
        walk_buffer_bytes: 64 << 10,
    }
}

fn run_fw(csr: &Csr, pg: &PartitionedGraph, seed: u64) -> FwReport {
    FlashWalkerSim::new(csr, pg, AccelConfig::scaled(), SsdConfig::tiny(), seed)
        .with_span_trace(TraceConfig::default())
        .run_detailed(Workload::paper_default(3_000))
}

fn run_gw(csr: &Csr, seed: u64) -> GwReport {
    GraphWalkerSim::new(csr, 4, gw_cfg(), SsdConfig::tiny(), seed)
        .with_span_trace(TraceConfig::default())
        .run_detailed(Workload::paper_default(3_000))
}

/// Spans mirror the SSD's reservations, so their byte totals must equal
/// the unified traffic counters *exactly* — any drift means a data path
/// records traffic without tracing it (or vice versa).
fn assert_traffic_conserved(unified: &RunReport, trace: &TraceReport, interconnect: &str) {
    assert_eq!(
        trace.bytes_for("flash.read"),
        unified.traffic.flash_read_bytes,
        "flash.read span bytes vs traffic counter"
    );
    assert_eq!(
        trace.bytes_for("flash.program"),
        unified.traffic.flash_write_bytes,
        "flash.program span bytes vs traffic counter"
    );
    assert_eq!(
        trace.bytes_for(interconnect),
        unified.traffic.interconnect_bytes,
        "{interconnect} span bytes vs traffic counter"
    );
}

#[test]
fn flashwalker_trace_conserves_traffic() {
    let csr = graph();
    let pg = partition(&csr);
    let r = run_fw(&csr, &pg, 11);
    let trace = r.trace.clone().expect("tracing enabled");
    assert!(!trace.spans.is_empty());
    let unified: RunReport = r.into();
    assert_traffic_conserved(&unified, &trace, "channel.bus");
}

#[test]
fn graphwalker_trace_conserves_traffic() {
    let csr = graph();
    let r = run_gw(&csr, 21);
    let trace = r.trace.clone().expect("tracing enabled");
    assert!(!trace.spans.is_empty());
    let unified: RunReport = r.into();
    assert_traffic_conserved(&unified, &trace, "pcie");
}

#[test]
fn flashwalker_channel_utilization_matches_nand_counters() {
    // Acceptance: per-channel utilization derived from spans within ±1%
    // of the Timeline-derived figure. Spans mirror the reservations, so
    // the only slack is float rounding; the tiny config's two channels
    // both carry traffic, making the lane means comparable.
    let csr = graph();
    let pg = partition(&csr);
    let r = run_fw(&csr, &pg, 11);
    let trace = r.trace.as_ref().expect("tracing enabled");
    let lanes = trace.utils_for("channel.bus");
    assert_eq!(lanes.len(), 2, "tiny config has two channels, both used");
    let span_util = trace.mean_util_for("channel.bus");
    assert!(
        (span_util - r.channel_util).abs() <= 0.01,
        "span util {span_util} vs NAND-counter util {}",
        r.channel_util
    );
}

#[test]
fn traced_runs_are_deterministic() {
    let csr = graph();
    let pg = partition(&csr);
    let a = run_fw(&csr, &pg, 11).trace.unwrap();
    let b = run_fw(&csr, &pg, 11).trace.unwrap();
    assert_eq!(
        chrome_trace_json(&a, None, None),
        chrome_trace_json(&b, None, None)
    );

    let a = run_gw(&csr, 21).trace.unwrap();
    let b = run_gw(&csr, 21).trace.unwrap();
    assert_eq!(
        chrome_trace_json(&a, None, None),
        chrome_trace_json(&b, None, None)
    );

    let run_iter = |seed| {
        IterativeSim::new(&csr, 4, gw_cfg(), SsdConfig::tiny(), seed)
            .with_span_trace(TraceConfig::default())
            .run_detailed(Workload::paper_default(2_000))
    };
    let a = run_iter(31).trace.unwrap();
    let b = run_iter(31).trace.unwrap();
    assert_eq!(
        chrome_trace_json(&a, None, None),
        chrome_trace_json(&b, None, None)
    );
}

#[test]
fn disabled_tracing_leaves_reports_unchanged() {
    // The unified path without tracing must report `trace: None` and the
    // same counters as a traced run — tracing only observes.
    let csr = graph();
    let pg = partition(&csr);
    let wl = Workload::paper_default(3_000);
    let plain = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 11)
        .run_detailed(wl);
    assert!(plain.trace.is_none());
    let traced = run_fw(&csr, &pg, 11);
    assert_eq!(plain.time, traced.time);
    assert_eq!(plain.stats.hops, traced.stats.hops);
    assert_eq!(plain.flash_read_bytes, traced.flash_read_bytes);
    assert_eq!(plain.channel_bytes, traced.channel_bytes);
}

#[test]
fn unified_trait_run_carries_trace() {
    let csr = graph();
    let wl = Workload::paper_default(2_000);
    let eng = GraphWalkerSim::new(&csr, 4, gw_cfg(), SsdConfig::tiny(), 5)
        .with_span_trace(TraceConfig::default());
    let unified = eng.run(wl);
    let trace = unified.trace.expect("trait path preserves the trace");
    assert!(trace.bottleneck().is_some());
    assert!(!chrome_trace_json(&trace, None, None).is_empty());
}
