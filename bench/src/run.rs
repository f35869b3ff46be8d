//! Running one workload: set-up, the measured rounds, the correctness
//! checks and, in trace mode, the traced pass.
//!
//! Only public entry points of each layer are called: `Dataset::generate`
//! and `Dataset::partition`, the engines' `new` and `run_detailed`, and
//! `fw_serve::run_serve`. Tracing is switched on in [`run_cell`] alone.

use std::collections::BTreeMap;
use std::time::Instant;

use flashwalker::{AccelConfig, FlashWalkerSim, FwReport, OptToggles};
use fw_graph::{Dataset, DatasetId, PartitionedGraph};
use fw_nand::SsdConfig;
use fw_serve::{
    run_serve, AdmissionConfig, ArrivalProcess, QueryMix, ServeConfig, ServeEngine, ServeHost,
    ServeReport, WalkCacheConfig,
};
use fw_sim::{CriticalConfig, CriticalReport, TraceConfig};
use fw_walk::Workload;
use graphwalker::{GraphWalkerSim, GwConfig, GwReport};

use crate::defs::{Kind, Metrics, WorkloadDef, PER_LAYER};
use crate::spans::{SpanId, Spans};
use crate::stats::{max_rate_meeting_slo, median, nearest_rank, percentile_over_offered};

/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of every cell at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// DeepWalk walk length of every batch cell (the paper's default).
const WALK_LEN: u16 = 6;
/// GraphWalker's host memory: the paper's 8 GB at graph scale.
const GW_MEMORY_BYTES: u64 = (8 << 30) / fw_graph::datasets::GRAPH_SCALE;

/// Offered rates of the serve ladder, queries per simulated second. Fixed
/// rates, so no engine change can move the offered load.
const LADDER_QPS: [u32; 6] = [1000, 2000, 3000, 4000, 5000, 6000];
/// The ladder point whose latency breakdown is reported.
const REFERENCE_QPS: u32 = 3000;
/// Queries per ladder point: enough for ten samples beyond the p99.
const QUERIES_PER_POINT: u64 = 1000;
/// The query mix's size parameter: query sizes draw uniformly from
/// [w/2, 2w], so their mean is 1.25 w.
const SERVE_WALKS_PER_QUERY: u64 = 16;
const MEAN_WALKS_PER_QUERY: f64 = SERVE_WALKS_PER_QUERY as f64 * 1.25;
/// The latency limit `serve.max_qps` is judged against: p99 over offered
/// queries, a refused query counting as a miss.
const SLO_P99_NS: u64 = 5_000_000;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the generated graph, the engines and the serve traffic.
    pub seed: u64,
    /// Minimum measuring time; rounds repeat until it has passed.
    pub seconds: u64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// Everything one run produced.
pub struct Outcome {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Correctness checks.
    pub checks: Checks,
    /// Walks requested by batch cells plus queries offered to the service.
    pub attempted: u64,
    /// Walks that did not complete plus admitted queries without a result.
    pub failed: u64,
    /// FNV-1a hash of every simulated number the run produced.
    pub sim_digest: u64,
    /// Host-time spans.
    pub spans: Spans,
    /// Human-readable notes for the log.
    pub notes: Vec<String>,
}

/// Pass counts and failure messages of the correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    passed: BTreeMap<&'static str, u64>,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, what: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            *self.passed.entry(what).or_default() += 1;
        } else {
            self.failures.push(format!("{what}: {}", detail()));
        }
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// One log line per check kind, then one per failure.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .passed
            .iter()
            .map(|(what, n)| format!("check ok   {what} (x{n})"))
            .collect();
        out.extend(self.failures.iter().map(|f| format!("check FAIL {f}")));
        out
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One digest over the per-cell (or per-point) digests, in order.
fn combined_digest<T>(first: &[(T, u64)]) -> u64 {
    let all: Vec<u8> = first.iter().flat_map(|(_, d)| d.to_le_bytes()).collect();
    fnv1a(&all)
}

/// Run one workload.
pub fn run(def: &WorkloadDef, opts: &Options) -> Outcome {
    let mut out = Outcome {
        metrics: Metrics::default(),
        checks: Checks::default(),
        attempted: 0,
        failed: 0,
        sim_digest: 0,
        spans: Spans::default(),
        notes: Vec::new(),
    };
    let root = out.spans.open("workload", None);
    match def.kind {
        Kind::Batch {
            dataset,
            walks,
            ablation,
        } => run_batch(&mut out, root, opts, dataset, walks, ablation),
        Kind::Serve => run_ladder(&mut out, root, opts),
    }
    out.spans.close(root);
    out.metrics
        .set("peak_rss_mib", peak_rss_kib() as f64 / 1024.0);
    out
}

/// The process's peak resident set (`VmHWM`), KiB; 0 where the kernel
/// does not report it.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

struct Graph {
    dataset: Dataset,
    pg: PartitionedGraph,
}

/// Generate and partition the dataset [`SETUPS`] times and keep the last
/// copy. Each copy is dropped before the next is built, so peak memory
/// holds one graph.
fn setup(out: &mut Outcome, root: SpanId, id: DatasetId, seed: u64) -> Graph {
    let (mut total, mut generate, mut partition) = (Vec::new(), Vec::new(), Vec::new());
    let mut shapes = Vec::new();
    let mut graph: Option<Graph> = None;
    for _ in 0..SETUPS {
        drop(graph.take());
        let s = out.spans.open("setup", Some(root));
        let g = out.spans.open("graph.generate", Some(s));
        let dataset = Dataset::generate(id, seed);
        generate.push(out.spans.close(g));
        let p = out.spans.open("graph.partition", Some(s));
        let pg = dataset.partition(AccelConfig::scaled().mapping_table_entries());
        partition.push(out.spans.close(p));
        total.push(out.spans.close(s));
        shapes.push((
            dataset.csr.num_edges(),
            pg.num_subgraphs(),
            pg.num_partitions(),
        ));
        graph = Some(Graph { dataset, pg });
    }
    out.checks.check(
        "set-ups build the same graph",
        shapes.windows(2).all(|w| w[0] == w[1]),
        || format!("{shapes:?}"),
    );
    let graph = graph.expect("SETUPS > 0");
    let m = &mut out.metrics;
    m.set("setup_s", median(&total));
    m.set("graph.generate_s", median(&generate));
    m.set("graph.partition_s", median(&partition));
    m.set(
        "graph.medges_per_s",
        graph.dataset.csr.num_edges() as f64 / median(&generate) / 1e6,
    );
    out.notes.push(format!(
        "setup: {} x generate+partition {:?} s; {} vertices, {} edges, {} subgraphs, {} partitions, {} dense vertices",
        SETUPS,
        total,
        graph.dataset.csr.num_vertices(),
        graph.dataset.csr.num_edges(),
        graph.pg.num_subgraphs(),
        graph.pg.num_partitions(),
        graph.pg.dense.len()
    ));
    graph
}

// ----------------------------------------------------------------------
// Batch workloads
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Fw,
    FwBase,
    Gw,
}

impl Cell {
    fn name(self) -> &'static str {
        match self {
            Cell::Fw => "fw",
            Cell::FwBase => "fw-base",
            Cell::Gw => "gw",
        }
    }
}

// A run holds a few of these, so their size does not matter.
#[allow(clippy::large_enum_variant)]
enum Report {
    Fw(FwReport),
    Gw(GwReport),
}

impl Report {
    fn walks(&self) -> u64 {
        match self {
            Report::Fw(r) => r.walks,
            Report::Gw(r) => r.walks,
        }
    }

    fn hops(&self) -> u64 {
        match self {
            Report::Fw(r) => r.stats.hops,
            Report::Gw(r) => r.hops,
        }
    }

    fn sim_ns(&self) -> u64 {
        match self {
            Report::Fw(r) => r.time.0,
            Report::Gw(r) => r.time.0,
        }
    }

    fn critical(&self) -> Option<&CriticalReport> {
        match self {
            Report::Fw(r) => r.critical.as_ref(),
            Report::Gw(r) => r.critical.as_ref(),
        }
    }

    /// Hash of the simulated results; leaves out the trace and critical
    /// views, which only traced runs carry.
    fn digest(&self) -> u64 {
        let text = match self {
            Report::Fw(r) => format!(
                "{}|{}|{:?}|{}|{}|{}|{:?}|{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}",
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
            ),
            Report::Gw(r) => format!(
                "{}|{}|{}|{:?}|{}|{}|{}|{:?}|{}|{}|{:?}",
                r.time.0,
                r.walks,
                r.hops,
                r.breakdown,
                r.flash_read_bytes,
                r.flash_write_bytes,
                r.pcie_bytes,
                r.read_bw,
                r.block_loads,
                r.walk_spills,
                r.progress,
            ),
        };
        fnv1a(text.as_bytes())
    }
}

/// Host seconds of one cell run.
#[derive(Debug, Clone, Copy)]
struct CellTime {
    new_s: f64,
    run_s: f64,
}

/// Build one cell's engine fresh, run it, and time both steps. This is
/// the one place that switches tracing on.
fn run_cell(
    out: &mut Outcome,
    parent: SpanId,
    cell: Cell,
    g: &Graph,
    walks: u64,
    seed: u64,
    traced: bool,
) -> (Report, CellTime) {
    let wl = Workload::deepwalk(walks, WALK_LEN);
    let spans = &mut out.spans;
    let c = spans.open("cell", Some(parent));
    let n = spans.open("engine.new", Some(c));
    let (report, time) = match cell {
        Cell::Fw | Cell::FwBase => {
            let mut cfg = AccelConfig::scaled();
            if cell == Cell::FwBase {
                cfg.opts = OptToggles::none();
            }
            let mut e = FlashWalkerSim::new(&g.dataset.csr, &g.pg, cfg, SsdConfig::scaled(), seed);
            if traced {
                e = e
                    .with_span_trace(TraceConfig::default())
                    .with_critical(CriticalConfig::default());
            }
            let new_s = spans.close(n);
            let r = spans.open("engine.run", Some(c));
            let report = Report::Fw(e.run_detailed(wl));
            let run_s = spans.close(r);
            (report, CellTime { new_s, run_s })
        }
        Cell::Gw => {
            let cfg = GwConfig::scaled().with_memory(GW_MEMORY_BYTES);
            let id_bytes = g.dataset.id.id_bytes();
            let mut e =
                GraphWalkerSim::new(&g.dataset.csr, id_bytes, cfg, SsdConfig::scaled(), seed);
            if traced {
                e = e
                    .with_span_trace(TraceConfig::default())
                    .with_critical(CriticalConfig::default());
            }
            let new_s = spans.close(n);
            let r = spans.open("engine.run", Some(c));
            let report = Report::Gw(e.run_detailed(wl));
            let run_s = spans.close(r);
            (report, CellTime { new_s, run_s })
        }
    };
    spans.close(c);
    out.attempted += walks;
    out.failed += walks.saturating_sub(report.walks());
    check_cell(&mut out.checks, cell, &report, walks);
    (report, time)
}

/// Invariants every batch cell's result must satisfy.
fn check_cell(checks: &mut Checks, cell: Cell, r: &Report, walks: u64) {
    checks.check("walks == requested", r.walks() == walks, || {
        format!("{}: {} of {walks}", cell.name(), r.walks())
    });
    checks.check(
        "hops <= walk length x walks",
        r.hops() <= u64::from(WALK_LEN) * walks,
        || format!("{}: {} hops", cell.name(), r.hops()),
    );
    if let Report::Fw(f) = r {
        let s = &f.stats;
        checks.check(
            "chip + chan + board hops == hops",
            s.chip_hops + s.chan_hops + s.board_hops == s.hops,
            || {
                format!(
                    "{}: {} + {} + {} != {}",
                    cell.name(),
                    s.chip_hops,
                    s.chan_hops,
                    s.board_hops,
                    s.hops
                )
            },
        );
    }
}

fn run_batch(
    out: &mut Outcome,
    root: SpanId,
    opts: &Options,
    dataset: DatasetId,
    walks: u64,
    ablation: bool,
) {
    let g = setup(out, root, dataset, opts.seed);
    let cells: Vec<Cell> = if ablation {
        vec![Cell::Fw, Cell::FwBase, Cell::Gw]
    } else {
        vec![Cell::Fw, Cell::Gw]
    };

    // Rounds run every cell once, interleaved, until `seconds` have passed.
    let mut first: Vec<(Report, u64)> = Vec::new();
    let mut times: Vec<Vec<CellTime>> = vec![Vec::new(); cells.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds as f64 {
        for (i, &cell) in cells.iter().enumerate() {
            let (report, time) = run_cell(out, root, cell, &g, walks, opts.seed, false);
            times[i].push(time);
            let digest = report.digest();
            match first.get(i) {
                None => first.push((report, digest)),
                Some(&(_, d0)) => out.checks.check(
                    "repetitions give identical simulated results",
                    digest == d0,
                    || format!("{} round {rounds}", cell.name()),
                ),
            }
        }
        rounds += 1;
    }

    // A cell's host time is its fastest round: slowdowns from other load
    // on a shared host only add time, and across runs the fastest of a few
    // rounds spreads less than their median (bench/README.md).
    let idx = |cell: Cell| cells.iter().position(|&c| c == cell).expect("cell ran");
    let fastest = |cell: Cell, f: fn(&CellTime) -> f64| {
        times[idx(cell)].iter().map(f).fold(f64::INFINITY, f64::min)
    };
    let total = |t: &CellTime| t.new_s + t.run_s;
    let run_s: f64 = cells.iter().map(|&c| fastest(c, total)).sum();
    let (Report::Fw(fw), Report::Gw(gw)) = (&first[idx(Cell::Fw)].0, &first[idx(Cell::Gw)].0)
    else {
        unreachable!("the fw cell holds a FlashWalker report and the gw cell a GraphWalker one")
    };

    let m = &mut out.metrics;
    m.set("run_s", run_s);
    m.set(
        "sim_walks_per_s",
        fw.walks as f64 / (fw.time.0 as f64 / 1e9),
    );
    m.set("fw.new_s", fastest(Cell::Fw, |t| t.new_s));
    m.set("fw.run_s", fastest(Cell::Fw, |t| t.run_s));
    m.set("fw.events", fw.events as f64);
    m.set("fw.events_per_hop", fw.events as f64 / fw.stats.hops as f64);
    m.set(
        "fw.ns_per_event",
        fastest(Cell::Fw, |t| t.run_s) * 1e9 / fw.events as f64,
    );
    set_fw_sim(m, fw);
    m.set("fw.speedup_vs_gw", gw.time.0 as f64 / fw.time.0 as f64);
    m.set("gw.run_s", fastest(Cell::Gw, total));
    if ablation {
        let Report::Fw(base) = &first[idx(Cell::FwBase)].0 else {
            unreachable!("the fw-base cell holds a FlashWalker report")
        };
        let base_run_s = fastest(Cell::FwBase, |t| t.run_s);
        m.set("fw_base.run_s", base_run_s);
        m.set("fw_base.events", base.events as f64);
        m.set(
            "fw_base.ns_per_event",
            base_run_s * 1e9 / base.events as f64,
        );
        m.set("fw_base.opt_speedup", base.time.0 as f64 / fw.time.0 as f64);
    } else {
        m.not_exercised("fw_base.");
    }
    m.not_exercised("serve.");

    for (i, cell) in cells.iter().enumerate() {
        let r = &first[i].0;
        let host: Vec<String> = times[i]
            .iter()
            .map(|t| format!("{:.3}", t.new_s + t.run_s))
            .collect();
        out.notes.push(format!(
            "cell {}: sim {:.3} ms, {} walks, {} hops; host s per round [{}]",
            cell.name(),
            r.sim_ns() as f64 / 1e6,
            r.walks(),
            r.hops(),
            host.join(", ")
        ));
    }
    out.sim_digest = combined_digest(&first);

    if opts.trace {
        let untraced = [Cell::Fw, Cell::Gw].map(|c| (c, first[idx(c)].1));
        traced_pass(
            out,
            root,
            &g,
            walks,
            opts.seed,
            untraced,
            fastest(Cell::Fw, total),
        );
    }
}

/// The simulated FlashWalker statistics of one report.
fn set_fw_sim(m: &mut Metrics, r: &FwReport) {
    let s = &r.stats;
    let hops = s.hops as f64;
    let loads = s.sg_loads.max(1) as f64;
    let load_ns = s.load_latency_ns.max(1) as f64;
    m.set("fw.sim_ms", r.time.0 as f64 / 1e6);
    m.set("fw.chip_hop_frac", s.chip_hops as f64 / hops);
    m.set("fw.chan_hop_frac", s.chan_hops as f64 / hops);
    m.set("fw.board_hop_frac", s.board_hops as f64 / hops);
    m.set("fw.sg_loads", s.sg_loads as f64);
    m.set("fw.walks_per_load", s.load_walks as f64 / loads);
    m.set("fw.mean_load_us", s.load_latency_ns as f64 / loads / 1e3);
    m.set("fw.load_array_frac", s.load_array_ns as f64 / load_ns);
    m.set("fw.load_fetch_frac", s.load_fetch_ns as f64 / load_ns);
    m.set("fw.load_spill_frac", s.load_spill_ns as f64 / load_ns);
    m.set("fw.pwb_spill_pages", s.pwb_spill_pages as f64);
    m.set("fw.foreign_pages", s.foreign_pages as f64);
    m.set("fw.partition_switches", s.partition_switches as f64);
    m.set(
        "fw.query_cache_hit_ratio",
        s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64,
    );
    m.set("fw.fill_no_slot", s.fill_no_slot as f64);
    m.set("fw.fill_no_candidate", s.fill_no_candidate as f64);
    m.set("fw.chip_busy_ms", s.chip_busy_ns as f64 / 1e6);
    m.set("fw.chan_busy_ms", s.chan_busy_ns as f64 / 1e6);
    m.set("fw.board_busy_ms", s.board_busy_ns as f64 / 1e6);
    m.set("fw.channel_util", r.channel_util);
    m.set("fw.channel_wait_ns", r.channel_wait_ns as f64);
    m.set("fw.flash_read_mb", r.flash_read_bytes as f64 / 1e6);
    m.set("fw.flash_write_mb", r.flash_write_bytes as f64 / 1e6);
    m.set("fw.channel_mb", r.channel_bytes as f64 / 1e6);
}

/// Run the fw and gw cells once more with span tracing and critical-path
/// recording, check they reproduce the untraced results, and report the
/// traced per-layer view of the fw cell.
fn traced_pass(
    out: &mut Outcome,
    root: SpanId,
    g: &Graph,
    walks: u64,
    seed: u64,
    untraced: [(Cell, u64); 2],
    fw_host_s: f64,
) {
    for (cell, digest) in untraced {
        let (report, time) = run_cell(out, root, cell, g, walks, seed, true);
        out.checks.check(
            "traced run reproduces the untraced results",
            report.digest() == digest,
            || cell.name().to_string(),
        );
        let crit = report.critical().expect("critical recording was enabled");
        out.checks.check(
            "critical path total == simulated time",
            !crit.truncated && crit.path_total_ns() == report.sim_ns(),
            || {
                format!(
                    "{}: path {} ns, sim {} ns, truncated {}",
                    cell.name(),
                    crit.path_total_ns(),
                    report.sim_ns(),
                    crit.truncated
                )
            },
        );
        let Report::Fw(fw) = &report else { continue };
        let trace = fw.trace.as_ref().expect("span tracing was enabled");
        for def in PER_LAYER.iter().filter(|d| d.name.starts_with("util.")) {
            let component = &def.name["util.".len()..];
            out.checks.check(
                "traced component groups are present",
                !trace.utils_for(component).is_empty(),
                || component.to_string(),
            );
            out.metrics.set(def.name, trace.mean_util_for(component));
        }
        for def in PER_LAYER.iter().filter(|d| d.name.starts_with("crit.")) {
            let component = &def.name["crit.".len()..];
            let share = crit
                .shares
                .iter()
                .filter(|s| s.name == component)
                .map(|s| s.share)
                .sum();
            out.metrics.set(def.name, share);
        }
        out.metrics
            .set("trace.overhead_x", (time.new_s + time.run_s) / fw_host_s);
    }
}

// ----------------------------------------------------------------------
// The serve ladder
// ----------------------------------------------------------------------

fn serve_config(seed: u64, arrival: ArrivalProcess) -> ServeConfig {
    let mix = QueryMix::default_mix(SERVE_WALKS_PER_QUERY);
    ServeConfig {
        engine: ServeEngine::Flashwalker,
        seed,
        queries: QUERIES_PER_POINT,
        arrival,
        mix,
        admission: AdmissionConfig {
            // About 16 mean queries of backlog before admission pushes back.
            queue_capacity_walks: (MEAN_WALKS_PER_QUERY * 16.0) as u64,
            tenants: mix.tenants,
            tenant_share: 0.5,
        },
        cache: WalkCacheConfig::default_cfg(),
        max_batch_walks: (MEAN_WALKS_PER_QUERY * 8.0) as u64,
        threads: 1,
    }
}

/// The ladder's points: the fixed Poisson rates, then a bursty process
/// at the reference rate's mean (1500 qps off, 9000 qps on for a fifth
/// of each period, ten periods over the run).
fn ladder() -> Vec<(String, ArrivalProcess)> {
    let mut points: Vec<(String, ArrivalProcess)> = LADDER_QPS
        .iter()
        .map(|&q| {
            let rate_qps = f64::from(q);
            (format!("r{q}"), ArrivalProcess::Poisson { rate_qps })
        })
        .collect();
    let span_ns = QUERIES_PER_POINT as f64 / f64::from(REFERENCE_QPS) * 1e9;
    points.push((
        "bursty".to_string(),
        ArrivalProcess::Bursty {
            base_qps: 1500.0,
            burst_qps: 9000.0,
            period_ns: (span_ns / 10.0) as u64,
            burst_fraction: 0.2,
        },
    ));
    points
}

/// Books and timelines every service run must satisfy, checked from the
/// per-query outcomes.
fn check_serve(checks: &mut Checks, point: &str, r: &ServeReport) {
    let a = &r.admission;
    checks.check(
        "serve: admitted + refused == offered",
        a.admitted + a.rejected == a.offered && a.offered == QUERIES_PER_POINT,
        || format!("{point}: {} + {} vs {}", a.admitted, a.rejected, a.offered),
    );
    checks.check(
        "serve: every admitted query completes",
        r.outcomes.len() as u64 == a.admitted,
        || {
            format!(
                "{point}: {} outcomes, {} admitted",
                r.outcomes.len(),
                a.admitted
            )
        },
    );
    let bad = r
        .outcomes
        .iter()
        .find(|o| !(o.arrival_ns <= o.start_ns && o.start_ns <= o.done_ns));
    checks.check("serve: arrival <= start <= done", bad.is_none(), || {
        format!("{point}: {bad:?}")
    });
    let mut lat: Vec<u64> = r
        .outcomes
        .iter()
        .map(|o| o.done_ns.saturating_sub(o.arrival_ns))
        .collect();
    lat.sort_unstable();
    let (p50, p99) = (nearest_rank(&lat, 50), nearest_rank(&lat, 99));
    checks.check(
        "serve: nearest-rank p50/p99 == ServeReport.latency",
        p50 == r.latency.p50_ns && p99 == r.latency.p99_ns,
        || {
            format!(
                "{point}: own {p50}/{p99} ns, report {}/{} ns",
                r.latency.p50_ns, r.latency.p99_ns
            )
        },
    );
}

fn run_ladder(out: &mut Outcome, root: SpanId, opts: &Options) {
    let g = setup(out, root, DatasetId::Twitter, opts.seed);
    let host = ServeHost {
        csr: &g.dataset.csr,
        pg: &g.pg,
        id_bytes: g.dataset.id.id_bytes(),
        gw_memory_bytes: GW_MEMORY_BYTES,
    };
    let points = ladder();

    // A round is one pass over the whole ladder.
    let mut first: Vec<(ServeReport, u64)> = Vec::new();
    let mut pass_s = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds as f64 {
        let mut total = 0.0;
        for (i, (name, arrival)) in points.iter().enumerate() {
            let sp = out.spans.open("serve.point", Some(root));
            let report = run_serve(&host, &serve_config(opts.seed, *arrival));
            total += out.spans.close(sp);
            check_serve(&mut out.checks, name, &report);
            out.attempted += report.admission.offered;
            out.failed += report
                .admission
                .admitted
                .saturating_sub(report.outcomes.len() as u64);
            let digest = fnv1a(format!("{report:?}").as_bytes());
            match first.get(i) {
                None => first.push((report, digest)),
                Some(&(_, d0)) => out.checks.check(
                    "repetitions give identical simulated results",
                    digest == d0,
                    || format!("{name} round {rounds}"),
                ),
            }
        }
        pass_s.push(total);
        rounds += 1;
    }

    let passes: Vec<String> = pass_s.iter().map(|s| format!("{s:.3}")).collect();
    out.notes
        .push(format!("ladder host s per round [{}]", passes.join(", ")));
    let m = &mut out.metrics;
    // The fastest pass, for the reason given in `run_batch`.
    let run_s = pass_s.iter().copied().fold(f64::INFINITY, f64::min);
    m.set("run_s", run_s);
    let mut slo = Vec::new();
    for ((name, _), (r, _)) in points.iter().zip(&first) {
        let refused_frac = r.admission.rejected as f64 / r.admission.offered as f64;
        let lat: Vec<u64> = r
            .outcomes
            .iter()
            .map(|o| o.done_ns.saturating_sub(o.arrival_ns))
            .collect();
        let p99_offered = percentile_over_offered(&lat, r.admission.rejected, 99);
        out.notes.push(format!(
            "serve {name}: p50 {:.3} ms, p99 {:.3} ms, refused {}, engine runs {}, cache hits {}",
            r.latency.p50_ns as f64 / 1e6,
            r.latency.p99_ns as f64 / 1e6,
            r.admission.rejected,
            r.engine_runs,
            r.cache.hits
        ));
        let p99_ms = r.latency.p99_ns as f64 / 1e6;
        if name == "bursty" {
            m.set("serve.bursty_p99_ms", p99_ms);
            m.set("serve.bursty_refused_frac", refused_frac);
            continue;
        }
        slo.push((r.offered_qps, p99_offered <= SLO_P99_NS));
        m.set(format!("serve.p99_ms.{name}"), p99_ms);
        m.set(format!("serve.refused_frac.{name}"), refused_frac);
        if *name == format!("r{REFERENCE_QPS}") {
            m.set("serve.p50_ms", r.latency.p50_ns as f64 / 1e6);
            m.set("serve.wait_p99_ms", r.wait.p99_ns as f64 / 1e6);
            m.set("serve.service_p99_ms", r.service.p99_ns as f64 / 1e6);
            m.set("serve.tail_wait_share", r.tail_wait_share);
        }
    }
    m.set("serve.max_qps", max_rate_meeting_slo(&slo));

    let sum = |f: fn(&ServeReport) -> u64| first.iter().map(|(r, _)| f(r)).sum::<u64>();
    let engine_runs = sum(|r| r.engine_runs);
    let hits = sum(|r| r.cache.hits);
    let misses = sum(|r| r.cache.misses);
    let engine_walks = sum(|r| r.walks_completed - r.cache.cached_walks_served);
    let engine_sim_ns = sum(|r| r.engine_sim_ns);
    m.set("serve.engine_runs", engine_runs as f64);
    m.set("serve.batches", sum(|r| r.batches) as f64);
    m.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set(
        "serve.host_ms_per_engine_run",
        run_s * 1e3 / engine_runs.max(1) as f64,
    );
    m.set(
        "sim_walks_per_s",
        engine_walks as f64 / (engine_sim_ns as f64 / 1e9),
    );
    for prefix in ["fw.", "fw_base.", "gw.", "util.", "crit.", "trace."] {
        m.not_exercised(prefix);
    }
    out.sim_digest = combined_digest(&first);
}
