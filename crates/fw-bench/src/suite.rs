//! Declarative benchmark suites: a [`Scenario`] is one engine × dataset ×
//! walk-count cell, a [`Suite`] is a list of scenarios repeated over a
//! seed list, and [`run_suite`] executes the whole grid through the
//! shared [`WalkEngine`] harness — scenario×seed cells fan out over a
//! [`WorkerPool`], speedups paired against the suite's own GraphWalker
//! cells.
//!
//! This is the one code path behind the `fwbench` binary, the figure
//! binaries' seed repetition, and `smoke`/`baseline_compare`; the result
//! feeds [`build_bench_report`] to produce the `BENCH_*.json` record
//! (see [`crate::bench_json`]).

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

/// `FW_SEEDS=N` → `[DEFAULT_SEED, …, DEFAULT_SEED+N-1]`; default one
/// seed. Shared by every figure binary (it used to live in
/// `fig5_speedup` only).
pub fn env_seeds() -> Vec<u64> {
    let n: u64 = std::env::var("FW_SEEDS")
        .ok()
        .and_then(|x| x.parse().ok())
        .unwrap_or(1)
        .max(1);
    (0..n).map(|i| DEFAULT_SEED + i).collect()
}

/// Worker-thread count for a binary's cell sweep: `--threads N` on the
/// command line, else `FW_THREADS=N`, else 1 (every cell inline, in
/// order). Shared by the figure binaries; `fwbench run` parses its own
/// `--threads` flag through the same precedence.
pub fn env_threads() -> u32 {
    let args: Vec<String> = std::env::args().collect();
    let from_flag = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    from_flag
        .or_else(|| {
            std::env::var("FW_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(1)
        .max(1)
}

/// `FW_DATASETS=TT,FS` restricts the dataset grid; default all five.
pub fn selected_datasets() -> Vec<DatasetId> {
    match std::env::var("FW_DATASETS") {
        Ok(s) => DatasetId::ALL
            .into_iter()
            .filter(|d| s.split(',').any(|x| x.trim() == d.abbrev()))
            .collect(),
        Err(_) => DatasetId::ALL.to_vec(),
    }
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
    /// Host memory for the baseline engines (ignored by FlashWalker).
    pub gw_memory: u64,
    /// FlashWalker optimization toggles (ignored by the baselines).
    pub opts: OptToggles,
    /// FlashWalker Eq. 1 α (ignored by the baselines).
    pub alpha: f64,
    /// Extra name suffix distinguishing same-cell variants (e.g. a
    /// memory sweep point: "/m4GB"). Speedups pair scenarios with equal
    /// (dataset, walks, variant).
    pub variant: String,
}

impl Scenario {
    /// FlashWalker with all optimizations at paper-default α.
    pub fn fw(dataset: DatasetId, walks: u64) -> Scenario {
        Scenario {
            tag: "fw".into(),
            engine: EngineKind::Flashwalker,
            dataset,
            walks,
            gw_memory: default_gw_memory(),
            opts: OptToggles::all(),
            alpha: AccelConfig::scaled().alpha,
            variant: String::new(),
        }
    }

    /// FlashWalker with explicit toggles/α under a custom tag (ablation
    /// cells; `fwbench`'s "fw-base" fidelity anchor).
    pub fn fw_opts(
        tag: &str,
        dataset: DatasetId,
        walks: u64,
        opts: OptToggles,
        alpha: f64,
    ) -> Scenario {
        Scenario {
            tag: tag.into(),
            opts,
            alpha,
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

    /// The iteration-synchronous baseline at a host memory capacity.
    pub fn iter(dataset: DatasetId, walks: u64, gw_memory: u64) -> Scenario {
        Scenario {
            tag: "iter".into(),
            engine: EngineKind::Iterative,
            gw_memory,
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

impl Suite {
    /// The CI suite: small cells on TT and the 2-billion-edge RMAT
    /// stand-in — fast enough to gate every PR, rich enough to exercise
    /// the speedup, ablation and fidelity paths.
    pub fn ci_small(seeds: Vec<u64>) -> Suite {
        let mem = default_gw_memory();
        let mut scenarios = Vec::new();
        for id in [DatasetId::Twitter, DatasetId::Rmat2B] {
            let walks = id.default_walks() / 16;
            scenarios.push(Scenario::gw(id, walks, mem));
            scenarios.push(Scenario::fw(id, walks));
        }
        let r2b_walks = DatasetId::Rmat2B.default_walks() / 16;
        scenarios.push(Scenario::fw_opts(
            "fw-base",
            DatasetId::Rmat2B,
            r2b_walks,
            OptToggles::none(),
            AccelConfig::scaled().alpha,
        ));
        Suite {
            name: "ci".into(),
            seeds,
            scenarios,
            trace: true,
            faults: FaultProfile::none(),
            threads: 1,
            journeys: false,
            critical: false,
        }
    }

    /// The full paper grid: every (selected) Table IV dataset at its
    /// maximum Figure 5 walk count, FlashWalker + GraphWalker + the
    /// no-optimization FlashWalker baseline. Slow — minutes per seed.
    pub fn paper(seeds: Vec<u64>) -> Suite {
        let mem = default_gw_memory();
        let mut scenarios = Vec::new();
        for id in selected_datasets() {
            let walks = id.default_walks();
            scenarios.push(Scenario::gw(id, walks, mem));
            scenarios.push(Scenario::fw(id, walks));
            scenarios.push(Scenario::fw_opts(
                "fw-base",
                id,
                walks,
                OptToggles::none(),
                AccelConfig::scaled().alpha,
            ));
        }
        Suite {
            name: "paper".into(),
            seeds,
            scenarios,
            trace: true,
            faults: FaultProfile::none(),
            threads: 1,
            journeys: false,
            critical: false,
        }
    }

    /// One dataset, one walk count, FlashWalker vs GraphWalker (the
    /// `smoke` binary's cell).
    pub fn single(dataset: DatasetId, walks: u64, gw_memory: u64, seeds: Vec<u64>) -> Suite {
        Suite {
            name: "smoke".into(),
            seeds,
            scenarios: vec![
                Scenario::gw(dataset, walks, gw_memory),
                Scenario::fw(dataset, walks),
            ],
            trace: false,
            faults: FaultProfile::none(),
            threads: 1,
            journeys: false,
            critical: false,
        }
    }

    /// The §II three-way hierarchy (iterative < GraphWalker <
    /// FlashWalker) on every selected dataset at half the default walk
    /// count (the `baseline_compare` binary's grid).
    pub fn three_way(seeds: Vec<u64>) -> Suite {
        let mem = default_gw_memory();
        let mut scenarios = Vec::new();
        for id in selected_datasets() {
            let walks = id.default_walks() / 2;
            scenarios.push(Scenario::iter(id, walks, mem));
            scenarios.push(Scenario::gw(id, walks, mem));
            scenarios.push(Scenario::fw(id, walks));
        }
        Suite {
            name: "three-way".into(),
            seeds,
            scenarios,
            trace: false,
            faults: FaultProfile::none(),
            threads: 1,
            journeys: false,
            critical: false,
        }
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
/// recorders on: the suite runner, `fwtrace` and `diag` all call it. The
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
            let mut e = flashwalker_engine(p, sc.opts, sc.alpha, seed);
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
            let mut e = iterative_engine(p, sc.gw_memory, seed);
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
        let s = Suite::ci_small(vec![42]);
        let names: Vec<String> = s.scenarios.iter().map(Scenario::name).collect();
        assert!(names.iter().any(|n| n.starts_with("fw/TT/")));
        assert!(names.iter().any(|n| n.starts_with("fw/R2B/")));
        assert!(names.iter().any(|n| n.starts_with("fw-base/R2B/")));
        assert!(names.iter().any(|n| n.starts_with("gw/TT/")));
        assert!(s.trace);
    }

    #[test]
    fn env_seed_list_defaults_to_one_canonical_seed() {
        // Do not set FW_SEEDS here (tests run in parallel; the env is
        // process-global) — just check the default path's shape.
        let seeds = env_seeds();
        assert!(!seeds.is_empty());
        assert_eq!(seeds[0], DEFAULT_SEED);
    }
}
