//! Cross-crate integration: both engines run the same workloads on the
//! same SSD model and agree on everything the algorithm defines, while
//! differing in the system behaviour the paper is about.

use flashwalker::{AccelConfig, FlashWalkerSim, OptToggles};
use fw_graph::partition::PartitionConfig;
use fw_graph::rmat::{generate_csr, RmatParams};
use fw_graph::{Csr, PartitionedGraph};
use fw_nand::SsdConfig;
use fw_walk::Workload;
use graphwalker::{GraphWalkerSim, GwConfig};

fn graph() -> Csr {
    generate_csr(RmatParams::graph500(), 4_000, 60_000, 77)
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
        memory_bytes: 128 << 10, // force out-of-core behaviour
        block_bytes: 16 << 10,
        cpu_ns_per_hop: 20,
        walk_buffer_bytes: 64 << 10,
    }
}

#[test]
fn both_engines_complete_identical_workloads() {
    let csr = graph();
    let pg = partition(&csr);
    let wl = Workload::paper_default(10_000);
    let fw = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 5)
        .run_detailed(wl);
    let gw = GraphWalkerSim::new(&csr, 4, gw_cfg(), SsdConfig::tiny(), 5).run_detailed(wl);
    assert_eq!(fw.walks, 10_000);
    assert_eq!(gw.walks, 10_000);
    // Fixed-length-6 workload: identical hop bounds on both engines.
    assert!(fw.stats.hops <= 60_000 && fw.stats.hops >= 10_000);
    assert!(gw.hops <= 60_000 && gw.hops >= 10_000);
}

#[test]
fn flashwalker_beats_graphwalker_when_out_of_core() {
    let csr = graph();
    let pg = partition(&csr);
    let wl = Workload::paper_default(20_000);
    let fw = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 5)
        .run_detailed(wl);
    let gw = GraphWalkerSim::new(&csr, 4, gw_cfg(), SsdConfig::tiny(), 5).run_detailed(wl);
    let speedup = gw.time.as_nanos() as f64 / fw.time.as_nanos().max(1) as f64;
    assert!(
        speedup > 1.0,
        "in-storage must beat out-of-core: fw {} vs gw {}",
        fw.time,
        gw.time
    );
}

#[test]
fn walk_sources_are_conserved() {
    // Every initial walk must come back exactly once, with its source
    // intact (the engines move state around aggressively — spills,
    // foreigners, roving — and must not lose or duplicate walks).
    let csr = graph();
    let pg = partition(&csr);
    let wl = Workload::paper_default(8_000);
    let fw = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 5)
        .with_walk_log()
        .run_detailed(wl);
    assert_eq!(fw.walk_log.len(), 8_000);
    let mut got: Vec<u32> = fw.walk_log.iter().map(|w| w.src).collect();
    let mut expect: Vec<u32> = wl.init_walks(&csr, 0).map(|w| w.src).collect();
    got.sort_unstable();
    expect.sort_unstable();
    assert_eq!(got, expect, "source multiset preserved");
    assert!(fw.walk_log.iter().all(|w| w.is_done()));
}

#[test]
fn engines_agree_on_endpoint_distribution() {
    // The system must not distort the algorithm: endpoint histograms from
    // the two engines (different rng interleavings, same workload) should
    // be statistically close; total-variation distance well below chance
    // disagreement for 30k walks on 4k vertices.
    let csr = graph();
    let pg = partition(&csr);
    let wl = Workload::paper_default(30_000);
    let fw = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 5)
        .with_walk_log()
        .run_detailed(wl);
    let gw = GraphWalkerSim::new(&csr, 4, gw_cfg(), SsdConfig::tiny(), 6)
        .with_walk_log()
        .run_detailed(wl);
    let hist = |log: &[fw_walk::Walk]| {
        let mut h = vec![0f64; csr.num_vertices() as usize];
        for w in log {
            h[w.cur as usize] += 1.0 / log.len() as f64;
        }
        h
    };
    let hf = hist(&fw.walk_log);
    let hg = hist(&gw.walk_log);
    let tv: f64 = hf.iter().zip(&hg).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
    assert!(tv < 0.12, "endpoint distributions diverge: TV = {tv:.4}");
}

#[test]
fn optimization_toggles_do_not_change_results() {
    let csr = graph();
    let pg = partition(&csr);
    let wl = Workload::paper_default(6_000);
    let run = |opts| {
        let mut cfg = AccelConfig::scaled();
        cfg.opts = opts;
        FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 5)
            .with_walk_log()
            .run_detailed(wl)
    };
    let all = run(OptToggles::all());
    let none = run(OptToggles::none());
    assert_eq!(all.walk_log.len(), none.walk_log.len());
    // Sources conserved under both configurations.
    let srcs = |log: &[fw_walk::Walk]| {
        let mut v: Vec<u32> = log.iter().map(|w| w.src).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(srcs(&all.walk_log), srcs(&none.walk_log));
}

#[test]
fn biased_workload_runs_on_both_engines() {
    let csr = graph().with_random_weights(3);
    let pg = partition(&csr);
    let wl = Workload::node2vec_biased(5_000, 6);
    let fw = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 5)
        .run_detailed(wl);
    let gw = GraphWalkerSim::new(&csr, 4, gw_cfg(), SsdConfig::tiny(), 5).run_detailed(wl);
    assert_eq!(fw.walks, 5_000);
    assert_eq!(gw.walks, 5_000);
}

#[test]
fn ppr_workload_terminates_early() {
    let csr = graph();
    let pg = partition(&csr);
    let wl = Workload::ppr(5_000, 1, 0.3, 32);
    let fw = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 5)
        .run_detailed(wl);
    assert_eq!(fw.walks, 5_000);
    // Stop probability 0.3 ⇒ expected ~2.3 hops per walk, far below cap.
    assert!(
        fw.stats.hops < 5_000 * 16,
        "geometric termination keeps hops low: {}",
        fw.stats.hops
    );
}

#[test]
fn file_loaded_graph_runs_through_the_engine() {
    // Exercise the io path end to end: write an edge list, load it back,
    // and run the in-storage engine on the loaded graph.
    let csr = graph();
    let dir = std::env::temp_dir().join("fw_suite_io_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.txt");
    fw_graph::io::save_edge_list(&csr, &path).unwrap();
    let loaded = fw_graph::io::load_edge_list(&path, Some(csr.num_vertices())).unwrap();
    assert_eq!(loaded.num_edges(), csr.num_edges());
    let pg = partition(&loaded);
    let wl = Workload::paper_default(4_000);
    let r = FlashWalkerSim::new(&loaded, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 5)
        .run_detailed(wl);
    assert_eq!(r.walks, 4_000);
}

#[test]
fn visit_counts_agree_with_engine_walk_log() {
    // The VisitCounts aggregation plus the engine's walk log reproduce a
    // host-side PPR estimate (same workload, same graph).
    let csr = graph();
    let pg = partition(&csr);
    let src = csr.max_out_degree().0;
    let wl = Workload::ppr(20_000, src, 0.2, 32);
    let r = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 5)
        .with_walk_log()
        .run_detailed(wl);
    let mut engine_counts = fw_walk::VisitCounts::new(csr.num_vertices());
    engine_counts.record_endpoints(&r.walk_log);

    let mut rng = fw_sim::Xoshiro256pp::new(123);
    let mut host_counts = fw_walk::VisitCounts::new(csr.num_vertices());
    for w in wl.init_walks(&csr, 9) {
        let (done, _) = wl.run_to_completion(&csr, w, &mut rng);
        host_counts.record_endpoint(&done);
    }
    // Two independent 20k-sample draws of a distribution spread over
    // ~2k effective outcomes have a TV noise floor of ~sqrt(k/(pi*n)) ~
    // 0.18 even when the distributions are identical; 0.25 flags real
    // divergence while tolerating sampling noise.
    let tv = engine_counts.total_variation(&host_counts);
    assert!(
        tv < 0.25,
        "PPR endpoint distributions diverge: TV = {tv:.4}"
    );
    // The personalization source dominates both rankings.
    assert_eq!(engine_counts.top_k(1)[0].0, src);
    assert_eq!(host_counts.top_k(1)[0].0, src);
}
