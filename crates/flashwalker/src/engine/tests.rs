//! Whole-engine integration tests: walks complete, conserve sources,
//! stay deterministic, and the flash/channel accounting is consistent.

use super::*;
use fw_graph::partition::PartitionConfig;
use fw_graph::rmat::{generate_csr, RmatParams};
use fw_sim::Duration;

fn small_setup(nv: u32, ne: u64, spp: u32) -> (Csr, PartitionedGraph) {
    let csr = generate_csr(RmatParams::graph500(), nv, ne, 11);
    let pg = PartitionedGraph::build(
        &csr,
        PartitionConfig {
            subgraph_bytes: 4 << 10, // 1 flash page per subgraph
            id_bytes: 4,
            subgraphs_per_partition: spp,
        },
    );
    (csr, pg)
}

fn run(csr: &Csr, pg: &PartitionedGraph, walks: u64, opts: crate::OptToggles) -> FwReport {
    let mut cfg = AccelConfig::scaled();
    cfg.opts = opts;
    let wl = Workload::paper_default(walks);
    FlashWalkerSim::new(csr, pg, cfg, SsdConfig::tiny(), 99)
        .with_trace_window(100_000)
        .run_detailed(wl)
}

/// Every dispatched event has a counted cause: a subgraph load
/// (`ChipLoaded`), a chip batch (its `ChipBatchDone` plus at most one
/// `ChanArrive`), a channel batch, a board batch, or a delivered walk
/// (at most one `ChipDeliver` per walk). Exact, with no wall clock.
fn assert_events_have_causes(r: &FwReport) {
    let s = &r.stats;
    let bound = s.sg_loads + 2 * s.chip_batches + s.chan_batches + s.board_batches + s.deliveries;
    assert!(
        r.events <= bound,
        "{} events but only {bound} counted causes",
        r.events
    );
}

#[test]
fn events_are_bounded_by_their_causes() {
    // 20k walks on a 20k-vertex graph: enough concurrent deliveries that
    // walks regularly reach a chip while their subgraph is still loading.
    let (csr, pg) = small_setup(20_000, 200_000, 5_000);
    let wl = Workload::deepwalk(20_000, 6);
    let r = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1)
        .run_detailed(wl);
    assert_eq!(r.walks, 20_000);
    assert_events_have_causes(&r);
}

#[test]
fn completes_all_walks_single_partition() {
    let (csr, pg) = small_setup(2000, 20_000, 5_000);
    assert_eq!(pg.num_partitions(), 1);
    let r = run(&csr, &pg, 5_000, crate::OptToggles::all());
    assert_eq!(r.walks, 5_000);
    assert!(r.time > Duration::ZERO);
    // Fixed length 6 with possible dead-ends: hops <= 6 per walk.
    assert!(r.stats.hops <= 6 * 5_000);
    assert!(r.stats.hops >= 5_000, "at least one hop per walk");
    assert!(r.stats.sg_loads > 0);
    assert!(r.flash_read_bytes > 0);
    assert_events_have_causes(&r);
}

#[test]
fn completes_across_partitions_with_foreigners() {
    let (csr, pg) = small_setup(2000, 20_000, 8);
    assert!(pg.num_partitions() > 2);
    let r = run(&csr, &pg, 2_000, crate::OptToggles::all());
    assert_eq!(r.walks, 2_000);
    assert!(
        r.stats.partition_switches > 0,
        "multiple partitions visited"
    );
    assert_events_have_causes(&r);
}

#[test]
fn opt_toggles_change_behaviour_not_correctness() {
    let (csr, pg) = small_setup(1500, 15_000, 5_000);
    let all = run(&csr, &pg, 3_000, crate::OptToggles::all());
    let none = run(&csr, &pg, 3_000, crate::OptToggles::none());
    assert_eq!(all.walks, 3_000);
    assert_eq!(none.walks, 3_000);
    // With WQ off there are no cache probes at all.
    assert_eq!(none.stats.cache_hits + none.stats.cache_misses, 0);
    assert!(all.stats.cache_hits + all.stats.cache_misses > 0);
    // With HS off, no channel/board hops.
    assert_eq!(none.stats.chan_hops + none.stats.board_hops, 0);
    assert_events_have_causes(&all);
    assert_events_have_causes(&none);
}

#[test]
fn deterministic_across_runs() {
    let (csr, pg) = small_setup(1000, 8_000, 5_000);
    let a = run(&csr, &pg, 1_000, crate::OptToggles::all());
    let b = run(&csr, &pg, 1_000, crate::OptToggles::all());
    assert_eq!(a.time, b.time);
    assert_eq!(a.stats.hops, b.stats.hops);
    assert_eq!(a.flash_read_bytes, b.flash_read_bytes);
}

#[test]
fn trait_run_matches_detailed_run() {
    // WalkEngine::run is the same simulation as run_detailed, reported
    // through the unified type.
    let (csr, pg) = small_setup(1000, 8_000, 5_000);
    let wl = Workload::paper_default(1_000);
    let detailed = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 99)
        .run_detailed(wl);
    let eng = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 99);
    assert_eq!(eng.name(), "flashwalker");
    let unified = eng.run(wl);
    assert_eq!(unified.engine, "flashwalker");
    assert_eq!(unified.time, detailed.time);
    assert_eq!(unified.walks, detailed.walks);
    assert_eq!(unified.stats.hops, detailed.stats.hops);
    assert_eq!(unified.stats.loads, detailed.stats.sg_loads);
    assert_eq!(unified.traffic.flash_read_bytes, detailed.flash_read_bytes);
    assert_eq!(unified.traffic.interconnect_bytes, detailed.channel_bytes);
}

#[test]
fn progress_series_sums_to_walks() {
    let (csr, pg) = small_setup(1000, 8_000, 5_000);
    let r = run(&csr, &pg, 1_000, crate::OptToggles::all());
    let total: f64 = r.progress.iter().sum();
    assert!((total - 1_000.0).abs() < 1e-6);
}

#[test]
fn sources_conserved_across_partitions() {
    // Walks crossing partition boundaries park as foreigners, get
    // written to flash, and are read back on the next partition —
    // none may be lost or duplicated along the way.
    let (csr, pg) = small_setup(2000, 20_000, 8);
    assert!(pg.num_partitions() > 2);
    let mut cfg = AccelConfig::scaled();
    cfg.opts = crate::OptToggles::all();
    let wl = Workload::paper_default(2_000);
    let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
        .with_walk_log()
        .run_detailed(wl);
    assert_eq!(r.walk_log.len(), 2_000);
    let mut got: Vec<u32> = r.walk_log.iter().map(|w| w.src).collect();
    let mut expect: Vec<u32> = wl.init_walks(&csr, 0).map(|w| w.src).collect();
    got.sort_unstable();
    expect.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn stop_probability_workload_through_the_system() {
    let (csr, pg) = small_setup(1000, 8_000, 5_000);
    let mut cfg = AccelConfig::scaled();
    cfg.opts = crate::OptToggles::all();
    let wl = Workload::ppr(2_000, 3, 0.4, 32);
    let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 7).run_detailed(wl);
    assert_eq!(r.walks, 2_000);
    // Geometric(0.4) termination: mean hops ~1.5, far under the cap.
    assert!(r.stats.hops < 2_000 * 8, "hops {}", r.stats.hops);
}

#[test]
fn biased_workload_with_dense_vertices() {
    // The hardest sampling path: ITS inside dense-vertex slices.
    let mut e = vec![];
    for v in 1..2_000u32 {
        e.push((0, v));
        e.push((v, (v * 7) % 2_000));
        e.push((v, 0));
    }
    let csr = Csr::from_edges(2_000, &e).with_random_weights(5);
    let pg = PartitionedGraph::build(
        &csr,
        PartitionConfig {
            subgraph_bytes: 4 << 10,
            id_bytes: 4,
            subgraphs_per_partition: 5_000,
        },
    );
    assert!(!pg.dense.is_empty());
    let wl = Workload::node2vec_biased(1_500, 6);
    let mut cfg = AccelConfig::scaled();
    cfg.opts = crate::OptToggles::all();
    let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 3).run_detailed(wl);
    assert_eq!(r.walks, 1_500);
}

#[test]
fn flash_accounting_is_self_consistent() {
    let (csr, pg) = small_setup(1500, 15_000, 5_000);
    let r = run(&csr, &pg, 3_000, crate::OptToggles::all());
    // Every load read the subgraph's pages through the private path.
    assert!(r.flash_read_bytes >= r.stats.sg_loads * 4096);
    // Spill pages are written once each (plus completed pages).
    let min_writes =
        (r.stats.pwb_spill_pages + r.stats.foreign_pages + r.stats.completed_pages) * 4096;
    assert!(r.flash_write_bytes >= min_writes);
    // Channel traffic at least covers roving walks once.
    assert!(r.channel_bytes >= r.stats.roving * 16);
}

#[test]
fn zero_fault_profile_is_byte_identical_to_default() {
    // Enabling the subsystem with the all-zero profile must not move a
    // single reservation: the injector draws no RNG and adds no latency.
    let (csr, pg) = small_setup(1500, 15_000, 5_000);
    let base = run(&csr, &pg, 2_000, crate::OptToggles::all());
    let mut cfg = AccelConfig::scaled();
    cfg.opts = crate::OptToggles::all();
    let off = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
        .with_trace_window(100_000)
        .with_faults(fw_fault::FaultProfile::none())
        .run_detailed(Workload::paper_default(2_000));
    assert_eq!(off.time, base.time);
    assert_eq!(off.stats.hops, base.stats.hops);
    assert_eq!(off.flash_read_bytes, base.flash_read_bytes);
    assert_eq!(off.channel_bytes, base.channel_bytes);
    assert!(off.faults.is_none(), "fault-free run omits the summary");
    assert!(base.faults.is_none());
}

#[test]
fn completes_under_heavy_faults_and_stays_deterministic() {
    let (csr, pg) = small_setup(1500, 15_000, 5_000);
    let faulted = |_| {
        let mut cfg = AccelConfig::scaled();
        cfg.opts = crate::OptToggles::all();
        FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
            .with_faults(fw_fault::FaultProfile::heavy())
            .run_detailed(Workload::paper_default(2_000))
    };
    let a = faulted(());
    let b = faulted(());
    // Every walk completes despite injected errors and stalls.
    assert_eq!(a.walks, 2_000);
    let f = a.faults.expect("faulted run reports a summary");
    assert!(f.read_retries > 0, "heavy profile must trigger retries");
    assert!(f.total_events() > 0);
    // Same seed, same profile: the whole fault schedule replays.
    assert_eq!(a.time, b.time);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.stats.hops, b.stats.hops);
}

#[test]
fn exhausted_retry_ladder_takes_the_degraded_path() {
    // Certain read error + 0% retry success: every graph-page read runs
    // the ladder dry, re-issues fail too, and the load finishes through
    // the degraded controller path.
    let (csr, pg) = small_setup(1000, 8_000, 5_000);
    let profile = fw_fault::FaultProfile {
        read_error_ppm: 1_000_000,
        retry_success_pct: 0,
        max_read_retries: 2,
        max_load_attempts: 2,
        retry_backoff: Duration::micros(1),
        load_timeout: Duration::secs(1),
        ..fw_fault::FaultProfile::none()
    };
    let mut cfg = AccelConfig::scaled();
    cfg.opts = crate::OptToggles::all();
    let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
        .with_faults(profile)
        .run_detailed(Workload::paper_default(1_000));
    assert_eq!(r.walks, 1_000, "walks still complete in degraded mode");
    assert!(r.stats.degraded_loads > 0);
    assert!(r.stats.load_requeues >= r.stats.degraded_loads);
    let f = r.faults.unwrap();
    assert!(f.hard_read_fails > 0);
    assert_eq!(f.degraded_ops, r.stats.degraded_loads);
}

#[test]
fn slow_loads_trip_the_watchdog_and_requeue() {
    // A 1 ns timeout classifies every subgraph load as stalled; each one
    // is requeued with backoff and the run still completes.
    let (csr, pg) = small_setup(1000, 8_000, 5_000);
    let profile = fw_fault::FaultProfile {
        chip_stall_ppm: 1, // keeps the profile "on" with negligible noise
        load_timeout: Duration::nanos(1),
        retry_backoff: Duration::micros(10),
        ..fw_fault::FaultProfile::none()
    };
    let mut cfg = AccelConfig::scaled();
    cfg.opts = crate::OptToggles::all();
    let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
        .with_faults(profile)
        .run_detailed(Workload::paper_default(1_000));
    assert_eq!(r.walks, 1_000);
    assert!(r.stats.stalled_loads > 0);
    assert_eq!(r.stats.stalled_loads, r.stats.sg_loads);
    assert!(r.stats.load_requeues >= r.stats.stalled_loads);
}

#[test]
fn dense_graph_with_hub_completes() {
    // A hub vertex forces dense handling through pre-walking.
    let mut e = vec![];
    for v in 1..3000u32 {
        e.push((0, v));
        e.push((v, v % 100 + 1));
        e.push((v, 0));
    }
    let csr = Csr::from_edges(3000, &e);
    let pg = PartitionedGraph::build(
        &csr,
        PartitionConfig {
            subgraph_bytes: 4 << 10,
            id_bytes: 4,
            subgraphs_per_partition: 5_000,
        },
    );
    assert!(!pg.dense.is_empty(), "hub must be dense");
    let r = run(&csr, &pg, 2_000, crate::OptToggles::all());
    assert_eq!(r.walks, 2_000);
}

#[test]
fn journeys_off_by_default_on_is_exact_and_schedule_neutral() {
    let (csr, pg) = small_setup(1500, 15_000, 5_000);
    let base = run(&csr, &pg, 2_000, crate::OptToggles::all());
    assert!(base.journeys.is_none(), "journeys are opt-in");
    let journeyed = |_| {
        let mut cfg = AccelConfig::scaled();
        cfg.opts = crate::OptToggles::all();
        FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
            .with_trace_window(100_000)
            .with_journeys(fw_sim::JourneyConfig::default())
            .run_detailed(Workload::paper_default(2_000))
    };
    let a = journeyed(());
    let b = journeyed(());
    assert_eq!(a.time, base.time, "recording never perturbs the schedule");
    assert_eq!(a.stats.hops, base.stats.hops);
    let ja = a.journeys.expect("journeys on");
    assert_eq!(
        ja.to_json(),
        b.journeys.expect("journeys on").to_json(),
        "byte-deterministic"
    );
    assert!(ja.sampled_walks > 0);
    for w in &ja.walks {
        let sum: u64 = w.segments.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(
            sum, w.latency_ns,
            "walk {} segments partition latency",
            w.id
        );
    }
}

#[test]
fn critical_off_by_default_on_is_exact_and_schedule_neutral() {
    let (csr, pg) = small_setup(1500, 15_000, 5_000);
    let base = run(&csr, &pg, 2_000, crate::OptToggles::all());
    assert!(base.critical.is_none(), "critical recording is opt-in");
    let profiled = |_| {
        let mut cfg = AccelConfig::scaled();
        cfg.opts = crate::OptToggles::all();
        FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
            .with_trace_window(100_000)
            .with_critical(fw_sim::CriticalConfig::default())
            .run_detailed(Workload::paper_default(2_000))
    };
    let a = profiled(());
    let b = profiled(());
    assert_eq!(a.time, base.time, "recording never perturbs the schedule");
    assert_eq!(a.stats.hops, base.stats.hops);
    let ca = a.critical.expect("critical on");
    assert_eq!(
        ca.to_json(),
        b.critical.expect("critical on").to_json(),
        "byte-deterministic"
    );
    // The tentpole invariant: the extracted critical path's wait+service
    // segments sum *exactly* to the end-to-end simulated time.
    assert_eq!(ca.total_ns, a.time.as_nanos());
    assert_eq!(ca.path_total_ns(), ca.total_ns);
    assert!(!ca.truncated);
    assert_eq!(ca.dropped_nodes, 0);
    assert!(!ca.shares.is_empty());
}

#[test]
fn critical_path_sums_exactly_under_heavy_faults() {
    let (csr, pg) = small_setup(1500, 15_000, 5_000);
    let mut cfg = AccelConfig::scaled();
    cfg.opts = crate::OptToggles::all();
    let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
        .with_faults(fw_fault::FaultProfile::heavy())
        .with_critical(fw_sim::CriticalConfig::default())
        .run_detailed(Workload::paper_default(2_000));
    assert!(r.faults.expect("faulted summary").read_retries > 0);
    let c = r.critical.expect("critical on");
    assert_eq!(c.total_ns, r.time.as_nanos());
    assert_eq!(c.path_total_ns(), c.total_ns);
    assert!(!c.truncated);
}

#[test]
fn heavy_fault_journeys_surface_retry_and_stall_segments() {
    let (csr, pg) = small_setup(1500, 15_000, 5_000);
    let mut cfg = AccelConfig::scaled();
    cfg.opts = crate::OptToggles::all();
    let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
        .with_faults(fw_fault::FaultProfile::heavy())
        .with_journeys(fw_sim::JourneyConfig {
            seed: 7,
            sample_period: 1,
            max_walks: usize::MAX,
        })
        .run_detailed(Workload::paper_default(2_000));
    let f = r.faults.expect("faulted run reports a summary");
    assert!(f.read_retries > 0);
    let j = r.journeys.expect("journeys on");
    let touched = j
        .walks
        .iter()
        .filter(|w| {
            w.events.iter().any(|e| {
                matches!(
                    e.kind,
                    fw_sim::JourneyEventKind::EccRetry | fw_sim::JourneyEventKind::Stall
                )
            })
        })
        .count();
    assert!(
        touched > 0,
        "heavy faults must appear as retry/stall events in sampled journeys"
    );
}

#[test]
fn recovery_rereads_show_their_retry_time_in_journeys() {
    // Every read runs its two-step ladder dry, so every graph-page read
    // stalls in recovery, and the one re-issued read and the degraded
    // read run theirs dry too. The re-reads' retry time lies inside the
    // stall. Journeys hold the retry time of every read a walk waits on:
    // graph pages, re-reads and PWB spill read-backs, each on its plane's
    // lane, so two same-timed reads of one chip stay distinct. A partition
    // switch's hot-subgraph loads and foreigner read-backs reach no walk:
    // each of their pages is one ladder the journeys leave out.
    const LADDER_NS: u64 = 35_000 + 45_500;
    let profile = fw_fault::FaultProfile {
        read_error_ppm: 1_000_000,
        retry_success_pct: 0,
        max_read_retries: 2,
        max_load_attempts: 2,
        retry_backoff: Duration::micros(1),
        load_timeout: Duration::secs(1),
        ..fw_fault::FaultProfile::none()
    };
    // (row, partitions, slots per chip, hot subgraphs, PWB bytes, walks)
    let rows = [
        ("1 slot per chip", 1, 1, false, None, 1_000),
        ("2 slots per chip", 1, 2, false, None, 1_000),
        ("2 slots, hot subgraphs", 1, 2, true, None, 1_000),
        ("2 slots, PWB spills", 1, 2, false, Some(16 << 10), 4_000),
        ("3 partitions, hot", 3, 2, true, None, 2_000),
    ];
    for (row, partitions, slots, hot, pwb_bytes, walks) in rows {
        // The graph packs into 9 subgraphs.
        let (csr, pg) = small_setup(1000, 8_000, 9 / partitions);
        assert_eq!(pg.num_partitions(), partitions, "{row}");
        let mut cfg = AccelConfig::scaled();
        cfg.opts.hot_subgraphs = hot;
        cfg.chip_subgraph_buf = slots * pg.config.subgraph_bytes;
        cfg.dram_pwb_bytes = pwb_bytes.unwrap_or(cfg.dram_pwb_bytes);
        let r = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 99)
            .with_faults(profile)
            .with_journeys(fw_sim::JourneyConfig {
                seed: 7,
                sample_period: 1,
                max_walks: usize::MAX,
            })
            .run_detailed(Workload::paper_default(walks));
        let f = r.faults.unwrap();
        assert!(f.hard_read_fails > 0, "{row}");
        assert_eq!(pwb_bytes.is_some(), r.stats.pwb_spill_pages > 0, "{row}");
        let unrecorded = r.stats.foreign_pages + r.stats.hot_load_pages;
        assert_eq!(partitions > 1, unrecorded > 0, "{row}");
        let j = r.journeys.expect("journeys on");
        let (mut stalls, mut covered) = (0, 0);
        for w in &j.walks {
            let of = |k| w.events.iter().filter(move |e| e.kind == k);
            for s in of(fw_sim::JourneyEventKind::Stall) {
                stalls += 1;
                let inside = |e: &&fw_sim::JourneyEvent| s.start < e.start && e.end <= s.end;
                covered += usize::from(of(fw_sim::JourneyEventKind::EccRetry).any(|e| inside(&e)));
            }
        }
        assert!(stalls > 0, "{row}: every graph-page read hard-fails");
        assert_eq!(
            covered, stalls,
            "{row}: a stall without its re-read's retry time"
        );
        assert_eq!(
            distinct_retry_ns(&j) + unrecorded * LADDER_NS,
            f.retry_ns,
            "{row}: journeys must hold the retry time of every read a walk waits on"
        );
    }
}

/// Total time of the distinct ECC-retry segments in `j`: a load stamps
/// the same segment on every walk it fetches.
fn distinct_retry_ns(j: &fw_sim::JourneyReport) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    j.walks
        .iter()
        .flat_map(|w| &w.events)
        .filter(|e| e.kind == fw_sim::JourneyEventKind::EccRetry)
        .filter(|e| seen.insert((e.lane, e.start, e.end)))
        .map(|e| (e.end - e.start).as_nanos())
        .sum()
}

/// Field-by-field equality of two reports.
fn assert_same_report(a: &FwReport, b: &FwReport, ctx: &str) {
    assert_eq!(a.time, b.time, "{ctx}: time");
    assert_eq!(a.walks, b.walks, "{ctx}: walks");
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "{ctx}: stats"
    );
    assert_eq!(a.flash_read_bytes, b.flash_read_bytes, "{ctx}: flash reads");
    assert_eq!(
        a.flash_write_bytes, b.flash_write_bytes,
        "{ctx}: flash writes"
    );
    assert_eq!(a.channel_bytes, b.channel_bytes, "{ctx}: channel bytes");
    assert_eq!(a.read_bw.to_bits(), b.read_bw.to_bits(), "{ctx}: read bw");
    assert_eq!(
        a.channel_util.to_bits(),
        b.channel_util.to_bits(),
        "{ctx}: channel util"
    );
    assert_eq!(a.channel_wait_ns, b.channel_wait_ns, "{ctx}: channel wait");
    assert_eq!(a.events, b.events, "{ctx}: events");
    assert_eq!(a.progress, b.progress, "{ctx}: progress");
    assert_eq!(
        a.read_bytes_series, b.read_bytes_series,
        "{ctx}: read series"
    );
    assert_eq!(
        a.write_bytes_series, b.write_bytes_series,
        "{ctx}: write series"
    );
    assert_eq!(
        a.channel_bytes_series, b.channel_bytes_series,
        "{ctx}: channel series"
    );
    assert_eq!(a.walk_log, b.walk_log, "{ctx}: walk log");
    assert_eq!(a.faults, b.faults, "{ctx}: faults");
    // Everything else (recorder reports) through the Debug rendering.
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}: report");
}

/// The opt-ins of one run in [`one_image_backs_many_runs_like_fresh_simulators`].
#[derive(Clone, Copy)]
struct Opts {
    log: bool,
    faults: FaultProfile,
    window_ns: Option<u64>,
    critical: bool,
}

impl Opts {
    fn apply<'g>(&self, mut sim: FlashWalkerSim<'g>) -> FlashWalkerSim<'g> {
        sim = sim.with_faults(self.faults);
        if let Some(w) = self.window_ns {
            sim = sim.with_trace_window(w);
        }
        if self.log {
            sim = sim.with_walk_log();
        }
        if self.critical {
            sim = sim.with_critical(fw_sim::CriticalConfig::default());
        }
        sim
    }
}

/// Three ways to run one case sequence give the same reports: a fresh
/// simulator per run ([`FlashWalkerSim::new`]), one per run on a shared
/// image ([`FlashWalkerSim::from_image`]), and one device reset before
/// every run ([`FlashWalkerSim::reset`]), as the serving loop does. The
/// sequence crosses partitions (foreigner pages), spills PWB entries,
/// turns light faults, a trace window, the walk log and critical-path
/// recording on and off, and repeats a seed. The critical-path runs
/// compare the dependency log's node ids, which are the event queue's
/// sequence numbers, so a reset that does not rewind them fails here.
#[test]
fn one_image_backs_many_runs_like_fresh_simulators() {
    // Several partitions (foreigner pages, partition switches) and a PWB
    // so small that entries spill to flash.
    let (csr, pg) = small_setup(2000, 20_000, 8);
    assert!(pg.num_partitions() > 2);
    let mut cfg = AccelConfig::scaled();
    cfg.dram_pwb_bytes = 2 << 10;
    let ssd_cfg = SsdConfig::tiny();
    let image = Arc::new(FlashImage::new(&pg, cfg, ssd_cfg));
    let (none, light) = (FaultProfile::none(), FaultProfile::light());
    let opts = |log, faults, window_ns, critical| Opts {
        log,
        faults,
        window_ns,
        critical,
    };
    let w = Some(100_000);
    let cases = [
        (7, Workload::deepwalk(2_000, 6), opts(false, none, w, false)),
        (
            8,
            Workload::paper_default(500),
            opts(true, none, None, false),
        ),
        (
            9,
            Workload::ppr(300, 17, 0.15, 10),
            opts(false, light, w, false),
        ),
        (
            10,
            Workload::deepwalk(1_000, 4),
            opts(true, light, None, true),
        ),
        (11, Workload::deepwalk(1_500, 6), opts(false, none, w, true)),
        (7, Workload::deepwalk(2_000, 6), opts(false, none, w, false)),
    ];
    let mut reused = FlashWalkerSim::from_image(&csr, &pg, Arc::clone(&image), 0);
    let (mut spilled, mut foreign, mut critical) = (false, false, false);
    for (i, &(seed, wl, o)) in cases.iter().enumerate() {
        let fresh = o
            .apply(FlashWalkerSim::new(&csr, &pg, cfg, ssd_cfg, seed))
            .run_detailed(wl);
        let shared = o
            .apply(FlashWalkerSim::from_image(
                &csr,
                &pg,
                Arc::clone(&image),
                seed,
            ))
            .run_detailed(wl);
        reused.reset(seed);
        let mut device = o.apply(reused);
        let again = device.run_detailed(wl);
        reused = device;
        assert_eq!(fresh.walks, wl.num_walks);
        assert_same_report(&shared, &fresh, &format!("run {i}, shared image"));
        assert_same_report(&again, &fresh, &format!("run {i}, reused device"));
        spilled |= fresh.stats.pwb_spill_pages > 0;
        foreign |= fresh.stats.foreign_pages > 0;
        critical |= fresh.critical.is_some_and(|c| !c.log.is_empty());
    }
    assert!(spilled, "no run spilled a PWB entry");
    assert!(foreign, "no run wrote a foreigner page");
    assert!(critical, "no run recorded a critical path");
}

#[test]
#[should_panic(expected = "reset it first")]
fn a_second_run_needs_a_reset() {
    let (csr, pg) = small_setup(500, 5_000, 5_000);
    let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
    sim.run_detailed(Workload::deepwalk(50, 4));
    sim.run_detailed(Workload::deepwalk(50, 4));
}
