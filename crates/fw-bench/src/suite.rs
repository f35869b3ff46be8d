//! Declarative benchmark suites: a [`Scenario`] is one engine × dataset ×
//! walk-count cell, a [`Suite`] is a list of scenarios repeated over a
//! seed list, and [`run_suite`] executes the whole grid through the
//! shared [`WalkEngine`] harness — scenario×seed cells fan out over a
//! [`WorkerPool`], speedups paired against the suite's own GraphWalker
//! cells.
//!
//! [`Suite::named`] is the one suite table: `fwbench run`, the figure
//! subcommands, `three-way` and `smoke` all run their grid through
//! [`run_suite`]; the result feeds [`build_bench_report`] to produce the
//! `BENCH_*.json` record (see [`crate::bench_json`]) or a figure's TSV
//! (see [`crate::figures`]).

use std::collections::HashMap;

use flashwalker::{AccelConfig, OptToggles};
use fw_fault::FaultProfile;
use fw_graph::datasets::{GRAPH_SCALE, STRUCT_SCALE};
use fw_graph::DatasetId;
use fw_sim::export::trace_summary_json;
use fw_sim::{CriticalConfig, JourneyConfig, TraceConfig, WorkerPool};
use fw_walk::{RunReport, WalkEngine, Workload};

use crate::bench_json::{BenchReport, EnvFingerprint, ScenarioRecord, StatF, StatU, SCHEMA};
use crate::runner::{
    flashwalker_engine, graphwalker_engine, iterative_engine, prepared, Prepared, DEFAULT_SEED,
};

/// The host memory capacity every baseline uses unless a suite sweeps it
/// (the paper's 8 GB, graph-scaled).
pub fn default_gw_memory() -> u64 {
    (8u64 << 30) / GRAPH_SCALE
}

/// `n` consecutive seeds from [`DEFAULT_SEED`]: the seed list of every
/// `--seeds N` flag.
pub fn seed_list(n: u64) -> Vec<u64> {
    (0..n).map(|i| DEFAULT_SEED + i).collect()
}

/// Parse a comma-separated dataset list (`TT,R2B`); an unknown
/// abbreviation is an error naming it, not a silently smaller grid.
pub fn parse_datasets(list: &str) -> Result<Vec<DatasetId>, String> {
    list.split(',')
        .map(str::trim)
        .map(|x| {
            DatasetId::from_abbrev(x)
                .ok_or_else(|| format!("unknown dataset '{x}' (known: TT, FS, CW, R2B, R8B)"))
        })
        .collect()
}

/// Which simulator a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The in-storage accelerator.
    Flashwalker,
    /// The asynchronous host baseline.
    Graphwalker,
    /// The iteration-synchronous host baseline.
    Iterative,
}

impl EngineKind {
    /// The engine's `WalkEngine::name`.
    pub fn engine_name(self) -> &'static str {
        match self {
            EngineKind::Flashwalker => "flashwalker",
            EngineKind::Graphwalker => "graphwalker",
            EngineKind::Iterative => "iterative",
        }
    }
}

/// One cell of a suite: an engine configuration on a dataset at a walk
/// count. Scenario names are stable across runs, which is what lets
/// `fwbench compare` match rows between records.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short display/config tag ("fw", "fw-base", "gw", "iter", …).
    pub tag: String,
    /// Which simulator to run.
    pub engine: EngineKind,
    /// Dataset to run on.
    pub dataset: DatasetId,
    /// Number of walks.
    pub walks: u64,
    /// Host memory for the GraphWalker baseline (ignored by FlashWalker
    /// and the iteration-synchronous baseline).
    pub gw_memory: u64,
    /// FlashWalker optimization toggles (ignored by the baselines).
    pub opts: OptToggles,
    /// Extra name suffix distinguishing same-cell variants (e.g. a
    /// memory sweep point: "/m4GB"). Speedups pair scenarios with equal
    /// (dataset, walks, variant).
    pub variant: String,
}

impl Scenario {
    /// FlashWalker with all optimizations.
    pub fn fw(dataset: DatasetId, walks: u64) -> Scenario {
        Scenario {
            tag: "fw".into(),
            engine: EngineKind::Flashwalker,
            dataset,
            walks,
            gw_memory: default_gw_memory(),
            opts: OptToggles::all(),
            variant: String::new(),
        }
    }

    /// FlashWalker with explicit toggles under a custom tag (ablation
    /// cells; `fwbench`'s "fw-base" fidelity anchor).
    pub fn fw_opts(tag: &str, dataset: DatasetId, walks: u64, opts: OptToggles) -> Scenario {
        Scenario {
            tag: tag.into(),
            opts,
            ..Scenario::fw(dataset, walks)
        }
    }

    /// The GraphWalker baseline at a host memory capacity.
    pub fn gw(dataset: DatasetId, walks: u64, gw_memory: u64) -> Scenario {
        Scenario {
            tag: "gw".into(),
            engine: EngineKind::Graphwalker,
            gw_memory,
            ..Scenario::fw(dataset, walks)
        }
    }

    /// The iteration-synchronous baseline (it reads no host memory
    /// capacity; see [`graphwalker::IterativeSim::new`]).
    pub fn iter(dataset: DatasetId, walks: u64) -> Scenario {
        Scenario {
            tag: "iter".into(),
            engine: EngineKind::Iterative,
            ..Scenario::fw(dataset, walks)
        }
    }

    /// Attach a variant suffix (returns self for chaining).
    pub fn with_variant(mut self, v: &str) -> Scenario {
        self.variant = v.to_string();
        self
    }

    /// Stable scenario name: `{tag}/{dataset}/w{walks}{variant}`.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/w{}{}",
            self.tag,
            self.dataset.abbrev(),
            self.walks,
            self.variant
        )
    }
}

/// A named scenario grid repeated over a seed list.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Suite name (recorded in the env fingerprint).
    pub name: String,
    /// Seeds every scenario repeats over. Seed index 0 is the canonical
    /// run whose full report (traffic, stats, trace) lands in the JSON.
    pub seeds: Vec<u64>,
    /// The scenario grid.
    pub scenarios: Vec<Scenario>,
    /// Enable span tracing on each scenario's seed-0 run (adds
    /// `TraceReport`-derived summaries to the record; does not perturb
    /// simulated time).
    pub trace: bool,
    /// Fault-injection profile applied to every FlashWalker and
    /// GraphWalker cell (the iterative baseline always runs fault-free).
    /// The default [`FaultProfile::none`] draws zero RNG and adds zero
    /// latency, preserving byte-identity with pre-fault records.
    pub faults: FaultProfile,
    /// Worker threads for the suite sweep: scenario×seed cells execute
    /// on a [`WorkerPool`] this wide. Each cell is an independent
    /// sequential simulator run, so simulated results are thread-invariant
    /// (the equivalence tests assert it); only host time changes. 1 — the
    /// default — runs every cell inline in order.
    pub threads: u32,
    /// Record sampled walk journeys on each scenario's seed-0 run (adds
    /// a `JourneyReport` tail-attribution summary to the record; does not
    /// perturb simulated time). Off by default so plain records stay
    /// byte-identical to pre-journey baselines.
    pub journeys: bool,
    /// Record critical-path profiles on each scenario's seed-0 run (adds
    /// a `CriticalReport` causal-attribution summary to the record; does
    /// not perturb simulated time). Off by default for the same
    /// byte-identity reason as `journeys`.
    pub critical: bool,
}

/// The names [`Suite::named`] knows, in the order usage text lists them.
pub const SUITE_NAMES: [&str; 7] = ["ci", "paper", "fig5", "fig6", "fig7", "fig9", "three-way"];

/// FlashWalker's optimization toggles: WQ (approximate walk search +
/// query caches), HS (hot subgraphs) and SS (Eq. 1 subgraph scheduling).
pub const fn toggles(wq: bool, hs: bool, ss: bool) -> OptToggles {
    OptToggles {
        walk_query: wq,
        hot_subgraphs: hs,
        subgraph_scheduling: ss,
    }
}

/// The incremental §IV-E configurations of Figure 9: the
/// no-optimization baseline, then WQ, HS and SS enabled in turn.
pub const FIG9_CONFIGS: [(&str, OptToggles); 4] = [
    ("base", toggles(false, false, false)),
    ("+WQ", toggles(true, false, false)),
    ("+WQ+HS", toggles(true, true, false)),
    ("+WQ+HS+SS", toggles(true, true, true)),
];

/// Suite `name`'s scenarios on dataset `id`, in suite order (see
/// [`Suite::named`]); `None` for an unknown suite.
fn cells(name: &str, id: DatasetId) -> Option<Vec<Scenario>> {
    let mem = default_gw_memory();
    let max = id.default_walks();
    let vs_gw = |walks| vec![Scenario::gw(id, walks, mem), Scenario::fw(id, walks)];
    let base = |walks| Scenario::fw_opts("fw-base", id, walks, OptToggles::none());
    Some(match (name, id) {
        ("ci", DatasetId::Twitter) => vs_gw(max / 16),
        ("ci", DatasetId::Rmat2B) => [vs_gw(max / 16), vec![base(max / 16)]].concat(),
        ("ci", _) => Vec::new(),
        ("paper", _) => [vs_gw(max), vec![base(max)]].concat(),
        ("fig5", _) => walk_sweep(id).into_iter().flat_map(vs_gw).collect(),
        ("fig6", _) => vs_gw(max),
        ("fig7", _) => [4u64, 8, 16]
            .into_iter()
            .flat_map(|gb| {
                let variant = format!("/m{gb}GB");
                vec![
                    Scenario::gw(id, max, (gb << 30) / GRAPH_SCALE).with_variant(&variant),
                    Scenario::fw(id, max).with_variant(&variant),
                ]
            })
            .collect(),
        ("fig9", _) => FIG9_CONFIGS
            .into_iter()
            .map(|(tag, opts)| Scenario::fw_opts(tag, id, max, opts))
            .collect(),
        ("three-way", _) => {
            let walks = max / 2;
            vec![
                Scenario::iter(id, walks),
                Scenario::gw(id, walks, mem),
                Scenario::fw(id, walks),
            ]
        }
        _ => return None,
    })
}

/// The Figure 5 walk-count sweep for a dataset: the paper's maximum is
/// 10⁹ walks for CW and 4×10⁸ for the rest; the sweep halves downward
/// (scaled by 1/500).
pub fn walk_sweep(id: DatasetId) -> Vec<u64> {
    let max = id.default_walks();
    vec![max / 8, max / 4, max / 2, max]
}

impl Suite {
    /// A suite over `scenarios` with every recorder off, no faults and
    /// one worker.
    fn new(name: &str, seeds: Vec<u64>, scenarios: Vec<Scenario>) -> Suite {
        Suite {
            name: name.into(),
            seeds,
            scenarios,
            trace: false,
            faults: FaultProfile::none(),
            threads: 1,
            journeys: false,
            critical: false,
        }
    }

    /// The suite called `name` (one of [`SUITE_NAMES`]), or `None`. This
    /// is the one suite table: `fwbench run --suite` and the figure
    /// subcommands both look their grid up here, so any figure grid can
    /// also be written as a `BENCH_*` record. Every grid spans all five
    /// Table IV datasets except `ci`'s.
    ///
    /// * `ci` — small cells on TT and the 2-billion-edge RMAT stand-in
    ///   (fw, gw, and fw-base on R2B): fast enough to gate every change,
    ///   rich enough to exercise the speedup, ablation and fidelity paths.
    /// * `paper` — every dataset at its maximum Figure 5 walk count: fw,
    ///   gw and fw-base. Slow — minutes per seed.
    /// * `fig5` — fw vs gw over each dataset's [`walk_sweep`].
    /// * `fig6` — fw vs gw at the maximum walk count.
    /// * `fig7` — fw vs gw at the maximum walk count with the baseline's
    ///   memory at the paper's 4, 8 and 16 GB, graph-scaled (variants
    ///   `/m4GB`, `/m8GB`, `/m16GB`).
    /// * `fig9` — the [`FIG9_CONFIGS`] ablation at the maximum walk count.
    /// * `three-way` — the §II hierarchy (iterative < GraphWalker <
    ///   FlashWalker) at half the default walk count.
    ///
    /// `ci` and `paper` trace their seed-0 runs.
    pub fn named(name: &str, seeds: Vec<u64>) -> Option<Suite> {
        let grid: Option<Vec<Vec<Scenario>>> = DatasetId::ALL
            .into_iter()
            .map(|id| cells(name, id))
            .collect();
        let mut suite = Suite::new(name, seeds, grid?.concat());
        suite.trace = matches!(name, "ci" | "paper");
        Some(suite)
    }

    /// One dataset, one walk count, FlashWalker vs GraphWalker (the
    /// `fwbench smoke` cell).
    pub fn single(dataset: DatasetId, walks: u64, gw_memory: u64, seeds: Vec<u64>) -> Suite {
        let scenarios = vec![
            Scenario::gw(dataset, walks, gw_memory),
            Scenario::fw(dataset, walks),
        ];
        Suite::new("smoke", seeds, scenarios)
    }

    /// Keep only the scenarios on `datasets` (returns self for chaining).
    pub fn on_datasets(mut self, datasets: &[DatasetId]) -> Suite {
        self.scenarios.retain(|sc| datasets.contains(&sc.dataset));
        self
    }

    /// Attach a fault profile (returns self for chaining).
    pub fn with_faults(mut self, faults: FaultProfile) -> Suite {
        self.faults = faults;
        self
    }

    /// Set the worker-thread count (returns self for chaining). Zero
    /// clamps to one, the sequential reference.
    pub fn with_threads(mut self, threads: u32) -> Suite {
        self.threads = threads.max(1);
        self
    }

    /// Enable walk-journey recording on seed-0 runs (returns self for
    /// chaining).
    pub fn with_journeys(mut self) -> Suite {
        self.journeys = true;
        self
    }

    /// Enable critical-path recording on seed-0 runs (returns self for
    /// chaining).
    pub fn with_critical(mut self) -> Suite {
        self.critical = true;
        self
    }
}

/// One seed's run of one scenario.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// Engine seed.
    pub seed: u64,
    /// Speedup over the paired GraphWalker run at the same seed (None
    /// when the suite has no GraphWalker cell at this dataset/walks/
    /// variant, and on the GraphWalker scenarios themselves).
    pub speedup: Option<f64>,
    /// The full unified report.
    pub report: RunReport,
}

/// All seed runs of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// One entry per suite seed, in seed order.
    pub runs: Vec<SeedRun>,
}

impl ScenarioResult {
    /// The canonical (seed-0) report.
    pub fn seed0(&self) -> &RunReport {
        &self.runs[0].report
    }

    /// Simulated times across seeds, nanoseconds.
    pub fn sim_ns(&self) -> Vec<u64> {
        self.runs.iter().map(|r| r.report.time.as_nanos()).collect()
    }

    /// mean/min/max simulated time.
    pub fn sim_stat(&self) -> StatU {
        StatU::of(&self.sim_ns())
    }

    /// mean/min/max speedup over GraphWalker, when every seed has one.
    pub fn speedup_stat(&self) -> Option<StatF> {
        let xs: Vec<f64> = self.runs.iter().filter_map(|r| r.speedup).collect();
        if xs.len() == self.runs.len() && !xs.is_empty() {
            Some(StatF::of(&xs))
        } else {
            None
        }
    }
}

/// The executed suite.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Suite name.
    pub name: String,
    /// The seed list that ran.
    pub seeds: Vec<u64>,
    /// The fault profile the suite ran under.
    pub faults: FaultProfile,
    /// The worker-thread count the sweep ran with.
    pub threads: u32,
    /// Whether walk journeys were recorded on seed-0 runs.
    pub journeys: bool,
    /// Whether critical-path profiles were recorded on seed-0 runs.
    pub critical: bool,
    /// The *effective* worker count: `threads` clamped to the widest
    /// parallel pass (scenario×seed cells or dataset preparations). Extra
    /// workers beyond that width are provably idle, so the clamp is
    /// logged at run time and this — not the request — is what the env
    /// fingerprint stamps.
    pub workers: u32,
    /// Per-scenario results, in suite order.
    pub results: Vec<ScenarioResult>,
}

impl SuiteResult {
    /// Find a scenario's result by tag, dataset and walk count (first
    /// variant match).
    pub fn find(&self, tag: &str, dataset: DatasetId, walks: u64) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| {
            r.scenario.tag == tag && r.scenario.dataset == dataset && r.scenario.walks == walks
        })
    }

    /// Find by full scenario name.
    pub fn find_name(&self, name: &str) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| r.scenario.name() == name)
    }
}

/// The recorders enabled for one run. A suite enables them on seed-0
/// runs only: they are schedule-neutral but bulky in the record.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// Span tracing ([`TraceConfig::default`]).
    pub trace: bool,
    /// Walk journeys, sampled with the engine seed.
    pub journeys: bool,
    /// The critical-path dependency log ([`CriticalConfig::default`]).
    pub critical: bool,
}

/// Run one scenario at `seed` with the given recorders and fault
/// profile. This is the one place that builds an engine and switches its
/// recorders on: the suite runner, `fwbench trace` and `fwbench diag` all
/// call it. The
/// iterative baseline has no per-walk event stream and no dependency
/// log, so it ignores `journeys` and `critical`.
pub fn run_one(
    p: &Prepared,
    sc: &Scenario,
    seed: u64,
    probes: Probes,
    faults: FaultProfile,
) -> RunReport {
    let wl = Workload::paper_default(sc.walks);
    let tcfg = TraceConfig::default();
    // Journey sampling is seeded by the engine seed, so the sampled
    // cohort is a pure function of the record's env fingerprint.
    let jcfg = JourneyConfig {
        seed,
        ..JourneyConfig::default()
    };
    let ccfg = CriticalConfig::default();
    match sc.engine {
        EngineKind::Flashwalker => {
            let mut cfg = AccelConfig::scaled();
            cfg.opts = sc.opts;
            let mut e = flashwalker_engine(p, cfg, seed);
            if probes.trace {
                e = e.with_span_trace(tcfg);
            }
            if probes.journeys {
                e = e.with_journeys(jcfg);
            }
            if probes.critical {
                e = e.with_critical(ccfg);
            }
            if faults.is_on() {
                e = e.with_faults(faults);
            }
            e.run(wl)
        }
        EngineKind::Graphwalker => {
            let mut e = graphwalker_engine(p, sc.gw_memory, seed);
            if probes.trace {
                e = e.with_span_trace(tcfg);
            }
            if probes.journeys {
                e = e.with_journeys(jcfg);
            }
            if probes.critical {
                e = e.with_critical(ccfg);
            }
            if faults.is_on() {
                e = e.with_faults(faults);
            }
            e.run(wl)
        }
        EngineKind::Iterative => {
            let mut e = iterative_engine(p, seed);
            if probes.trace {
                e = e.with_span_trace(tcfg);
            }
            e.run(wl)
        }
    }
}

/// Execute every scenario × seed of a suite on a [`WorkerPool`] of
/// `suite.threads` workers. Datasets are prepared once (in first-
/// appearance order) across the pool, then every scenario×seed cell runs
/// as one pool job; GraphWalker cells run as a full pass first so every
/// other cell can pair its per-seed speedup against the same-seed
/// GraphWalker time. With `threads == 1` the pool runs every job inline
/// in order — the sequential reference the equivalence tests diff
/// against. Simulated results are identical either way (each cell is an
/// independent simulator run); only host time changes.
///
/// Errors (rather than panicking) on a suite with no seeds or no
/// scenarios — both are reachable from the `fwbench` CLI.
pub fn run_suite(suite: &Suite) -> Result<SuiteResult, String> {
    if suite.seeds.is_empty() {
        return Err(format!(
            "suite '{}' has no seeds; pass at least one (e.g. --seeds 1)",
            suite.name
        ));
    }
    if suite.scenarios.is_empty() {
        return Err(format!("suite '{}' has no scenarios to run", suite.name));
    }
    let threads = suite.threads.max(1);

    // Prepare each dataset once, in first-appearance order.
    let mut order: Vec<DatasetId> = Vec::new();
    for sc in &suite.scenarios {
        if !order.contains(&sc.dataset) {
            order.push(sc.dataset);
        }
    }

    // One pool job per scenario×seed cell, split into a GraphWalker pass
    // and an everything-else pass.
    let cells = |gw_pass: bool| -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for (i, sc) in suite.scenarios.iter().enumerate() {
            if (sc.engine == EngineKind::Graphwalker) == gw_pass {
                for si in 0..suite.seeds.len() {
                    v.push((i, si));
                }
            }
        }
        v
    };

    // Workers beyond the widest parallel pass never receive a job; clamp
    // the pool, say so, and let the env fingerprint record what actually
    // ran rather than what was asked for.
    let widest = cells(true)
        .len()
        .max(cells(false).len())
        .max(order.len())
        .max(1) as u32;
    let workers = threads.min(widest);
    if workers < threads {
        eprintln!(
            "[suite] --threads {} exceeds the {} parallel cells of suite '{}'; \
             running {} workers (extra workers would sit idle)",
            threads, widest, suite.name, workers
        );
    }
    let pool = WorkerPool::new(workers as usize);

    let prepped: Vec<Prepared> = pool.map_ordered(order.clone(), |_, id| {
        eprintln!("[{}] generating …", id.abbrev());
        prepared(id, DEFAULT_SEED)
    });
    let prep_of = |d: DatasetId| -> &Prepared {
        &prepped[order
            .iter()
            .position(|&x| x == d)
            .expect("dataset prepared")]
    };
    let run_cell = |_: usize, (i, si): (usize, usize)| {
        let sc = &suite.scenarios[i];
        let seed = suite.seeds[si];
        eprintln!("[{}] {} seed {} …", sc.dataset.abbrev(), sc.name(), seed);
        let report = run_one(
            prep_of(sc.dataset),
            sc,
            seed,
            Probes {
                trace: suite.trace && si == 0,
                journeys: suite.journeys && si == 0,
                critical: suite.critical && si == 0,
            },
            suite.faults,
        );
        (i, si, report)
    };
    let gw_runs = pool.map_ordered(cells(true), run_cell);
    // GraphWalker sim times per (dataset, walks, variant, seed), for
    // speedup pairing in the second pass.
    let mut gw_ns: HashMap<(DatasetId, u64, String, u64), u64> = HashMap::new();
    for (i, si, report) in &gw_runs {
        let sc = &suite.scenarios[*i];
        gw_ns.insert(
            (sc.dataset, sc.walks, sc.variant.clone(), suite.seeds[*si]),
            report.time.as_nanos(),
        );
    }
    let rest_runs = pool.map_ordered(cells(false), run_cell);

    // Reassemble per-scenario results in suite order, seeds in order.
    let mut by_scenario: Vec<Vec<(usize, RunReport)>> =
        (0..suite.scenarios.len()).map(|_| Vec::new()).collect();
    for (i, si, report) in gw_runs.into_iter().chain(rest_runs) {
        by_scenario[i].push((si, report));
    }
    let mut results = Vec::new();
    for (i, mut seed_runs) in by_scenario.into_iter().enumerate() {
        let sc = &suite.scenarios[i];
        seed_runs.sort_by_key(|(si, _)| *si);
        let runs = seed_runs
            .into_iter()
            .map(|(si, report)| {
                let seed = suite.seeds[si];
                let speedup = if sc.engine == EngineKind::Graphwalker {
                    None
                } else {
                    gw_ns
                        .get(&(sc.dataset, sc.walks, sc.variant.clone(), seed))
                        .map(|&g| g as f64 / report.time.as_nanos().max(1) as f64)
                };
                SeedRun {
                    seed,
                    speedup,
                    report,
                }
            })
            .collect();
        results.push(ScenarioResult {
            scenario: sc.clone(),
            runs,
        });
    }
    Ok(SuiteResult {
        name: suite.name.clone(),
        seeds: suite.seeds.clone(),
        faults: suite.faults,
        threads,
        journeys: suite.journeys,
        critical: suite.critical,
        workers,
        results,
    })
}

/// `git rev-parse --short HEAD`, or "unknown" outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Distill an executed suite into the `BENCH_*.json` record. Every field
/// is simulated or a run stamp, so same-seed runs serialize
/// byte-identically; host time is measured by the `bench/` package.
pub fn build_bench_report(label: &str, res: &SuiteResult) -> BenchReport {
    let scenarios = res
        .results
        .iter()
        .map(|r| {
            let sc = &r.scenario;
            let seed0 = r.seed0();
            ScenarioRecord {
                name: sc.name(),
                tag: sc.tag.clone(),
                engine: sc.engine.engine_name().to_string(),
                dataset: sc.dataset.abbrev().to_string(),
                walks: sc.walks,
                num_seeds: r.runs.len() as u64,
                sim_time_ns: r.sim_stat(),
                speedup_over_graphwalker: r.speedup_stat(),
                report: seed0.summary_json(),
                trace: seed0.trace.as_ref().map(trace_summary_json),
                journeys: seed0.journeys.as_ref().map(|j| j.to_json()),
                critical: seed0.critical.as_ref().map(|c| c.to_json()),
            }
        })
        .collect();
    BenchReport {
        schema: SCHEMA.to_string(),
        label: label.to_string(),
        env: EnvFingerprint {
            git_rev: git_rev(),
            config: "scaled".to_string(),
            graph_scale: GRAPH_SCALE,
            struct_scale: STRUCT_SCALE,
            suite: res.name.clone(),
            seeds: res.seeds.clone(),
            fault_profile: res.faults.name.to_string(),
            threads: res.threads,
            journeys: res.journeys,
            critical: res.critical,
            workers: res.workers,
        },
        scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_stable_and_variant_aware() {
        let sc = Scenario::fw(DatasetId::Twitter, 1000);
        assert_eq!(sc.name(), "fw/TT/w1000");
        let sc = Scenario::gw(DatasetId::Rmat2B, 500, 1 << 20).with_variant("/m4GB");
        assert_eq!(sc.name(), "gw/R2B/w500/m4GB");
        assert_eq!(sc.engine.engine_name(), "graphwalker");
    }

    #[test]
    fn ci_suite_contains_the_fidelity_anchors() {
        let s = Suite::named("ci", vec![42]).unwrap();
        let names: Vec<String> = s.scenarios.iter().map(Scenario::name).collect();
        assert!(names.iter().any(|n| n.starts_with("fw/TT/")));
        assert!(names.iter().any(|n| n.starts_with("fw/R2B/")));
        assert!(names.iter().any(|n| n.starts_with("fw-base/R2B/")));
        assert!(names.iter().any(|n| n.starts_with("gw/TT/")));
        assert!(s.trace);
    }

    #[test]
    fn every_listed_suite_is_named_and_nothing_else_is() {
        for name in SUITE_NAMES {
            let s = Suite::named(name, seed_list(2)).expect(name);
            assert_eq!(s.name, name);
            assert_eq!(s.seeds, vec![DEFAULT_SEED, DEFAULT_SEED + 1]);
            assert!(!s.scenarios.is_empty(), "{name}");
        }
        assert!(Suite::named("fig8", vec![42]).is_none());
        let names = |s: Suite| s.scenarios.iter().map(Scenario::name).collect::<Vec<_>>();
        let fig7 = Suite::named("fig7", vec![42])
            .unwrap()
            .on_datasets(&[DatasetId::Twitter]);
        assert_eq!(
            names(fig7)[..2],
            [
                "gw/TT/w800000/m4GB".to_string(),
                "fw/TT/w800000/m4GB".to_string()
            ]
        );
        let ci = Suite::named("ci", vec![42]).unwrap();
        assert_eq!(ci.scenarios.last().unwrap().name(), "fw-base/R2B/w50000");
        assert!(ci
            .scenarios
            .iter()
            .all(|sc| sc.gw_memory == default_gw_memory()));
    }

    #[test]
    fn dataset_lists_parse_strictly() {
        assert_eq!(
            parse_datasets("TT, R2B"),
            Ok(vec![DatasetId::Twitter, DatasetId::Rmat2B])
        );
        assert!(parse_datasets("TT,XYZ").unwrap_err().contains("'XYZ'"));
        assert!(parse_datasets("").is_err());
    }

    #[test]
    fn walk_sweep_is_increasing_and_capped() {
        let s = walk_sweep(DatasetId::Twitter);
        assert_eq!(s.len(), 4);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*s.last().unwrap(), 800_000);
        assert_eq!(*walk_sweep(DatasetId::ClueWeb).last().unwrap(), 2_000_000);
    }
}
