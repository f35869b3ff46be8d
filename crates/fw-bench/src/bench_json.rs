//! The `BENCH_*.json` format: the record types of one benchmark-suite
//! run, built on the workspace's one JSON value type
//! ([`fw_sim::json::Json`]) and read back for regression comparison.
//!
//! Determinism rules (those of `fw_sim::json`): object keys are emitted
//! in fixed order, floats are rendered with fixed precision, and number
//! literals survive a parse→render round trip verbatim, so
//! `BenchReport::parse(s).render() == s` for any string this module
//! produced.

use std::path::{Path, PathBuf};

use fw_sim::Json;

/// Schema tag written at the top of every record. Bump on incompatible
/// layout changes; `compare` refuses to diff mismatched schemas.
pub const SCHEMA: &str = "fwbench/v2";

// ----------------------------------------------------------------------
// Statistics over seed repetitions.
// ----------------------------------------------------------------------

/// mean/min/max over per-seed integer observations (nanoseconds, bytes).
/// The mean is rounded to the nearest integer with integer math so the
/// record stays platform-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatU {
    /// Rounded mean.
    pub mean: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl StatU {
    /// Summarize a non-empty slice. Panics on an empty one — callers that
    /// may legitimately see empty data (all-skipped suites, zero seeds)
    /// should use [`StatU::try_of`] and surface the error themselves.
    pub fn of(xs: &[u64]) -> StatU {
        StatU::try_of(xs).expect("StatU::of on empty slice")
    }

    /// Summarize a slice, `None` when it is empty.
    pub fn try_of(xs: &[u64]) -> Option<StatU> {
        let n = xs.len() as u128;
        let sum: u128 = xs.iter().map(|&x| x as u128).sum();
        Some(StatU {
            mean: ((sum + n / 2) / n.max(1)) as u64,
            min: *xs.iter().min()?,
            max: *xs.iter().max()?,
        })
    }

    /// `(max - min) / mean` — the seed-derived relative noise band
    /// (0 when the mean is 0).
    pub fn rel_spread(&self) -> f64 {
        if self.mean == 0 {
            0.0
        } else {
            (self.max - self.min) as f64 / self.mean as f64
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("mean", Json::u(self.mean)),
            ("min", Json::u(self.min)),
            ("max", Json::u(self.max)),
        ])
    }

    fn from_json(v: &Json, what: &str) -> Result<StatU, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{what}: missing integer field '{k}'"))
        };
        Ok(StatU {
            mean: field("mean")?,
            min: field("min")?,
            max: field("max")?,
        })
    }
}

/// mean/min/max over per-seed float observations (speedups). Rendered at
/// fixed 4-decimal precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatF {
    /// Mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl StatF {
    /// Summarize a non-empty slice. Panics on an empty one — callers that
    /// may legitimately see empty data should use [`StatF::try_of`].
    pub fn of(xs: &[f64]) -> StatF {
        StatF::try_of(xs).expect("StatF::of on empty slice")
    }

    /// Summarize a slice, `None` when it is empty.
    pub fn try_of(xs: &[f64]) -> Option<StatF> {
        if xs.is_empty() {
            return None;
        }
        Some(StatF {
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("mean", Json::f(self.mean, 4)),
            ("min", Json::f(self.min, 4)),
            ("max", Json::f(self.max, 4)),
        ])
    }

    fn from_json(v: &Json, what: &str) -> Result<StatF, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{what}: missing number field '{k}'"))
        };
        Ok(StatF {
            mean: field("mean")?,
            min: field("min")?,
            max: field("max")?,
        })
    }
}

// ----------------------------------------------------------------------
// The benchmark record.
// ----------------------------------------------------------------------

/// Where and how a record was produced — enough to tell whether two
/// records are comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvFingerprint {
    /// `git rev-parse --short HEAD` at run time ("unknown" outside git).
    pub git_rev: String,
    /// Configuration family (always "scaled" today; DESIGN.md §5).
    pub config: String,
    /// Graph scale divisor (walk counts, memory).
    pub graph_scale: u64,
    /// Structure scale divisor (per-structure capacities).
    pub struct_scale: u64,
    /// Suite name the record was produced from.
    pub suite: String,
    /// The exact seed list every scenario repeated over.
    pub seeds: Vec<u64>,
    /// Fault-injection profile the suite ran under ("none", "light",
    /// "heavy"). Written only when not "none" so fault-free records stay
    /// byte-identical to records written before faults existed; absent
    /// on parse means "none".
    pub fault_profile: String,
    /// Worker-thread count the suite's cell pool ran with. Written only
    /// when not 1 so single-threaded records stay byte-identical to
    /// records written before the field existed; absent on parse means 1.
    /// An observer key: the simulated numbers are thread-count invariant,
    /// so `compare` and `why` show it but never refuse on it.
    pub threads: u32,
    /// Whether the run recorded walk journeys (`fwbench run --journeys`).
    /// Written only when true so default records stay byte-identical to
    /// records written before journeys existed; absent on parse means
    /// false. An observer key: journey recording is schedule-neutral, so
    /// `compare` and `why` print a journey/plain mismatch but never
    /// refuse on it.
    pub journeys: bool,
    /// Whether the run recorded critical-path profiles (`fwbench run
    /// --critical`). Written only when true, for the same byte-identity
    /// reason as `journeys`; absent on parse means false. An observer key
    /// for `compare`, like `journeys`; `fwbench why` requires both records
    /// to carry critical sections.
    pub critical: bool,
    /// The *effective* worker count the suite sweep ran with: `threads`
    /// clamped to the widest parallel pass. Written only when it differs
    /// from `threads` (i.e. when the clamp fired) so ordinary records keep
    /// their pre-field shape; absent on parse means equal to `threads`.
    pub workers: u32,
}

impl EnvFingerprint {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("git_rev", Json::s(&self.git_rev)),
            ("config", Json::s(&self.config)),
            ("graph_scale", Json::u(self.graph_scale)),
            ("struct_scale", Json::u(self.struct_scale)),
            ("suite", Json::s(&self.suite)),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::u(s)).collect()),
            ),
        ];
        if self.fault_profile != "none" {
            pairs.push(("fault_profile", Json::s(&self.fault_profile)));
        }
        if self.threads != 1 {
            pairs.push(("threads", Json::u(self.threads as u64)));
        }
        if self.journeys {
            pairs.push(("journeys", Json::Bool(true)));
        }
        if self.critical {
            pairs.push(("critical", Json::Bool(true)));
        }
        if self.workers != self.threads {
            pairs.push(("workers", Json::u(self.workers as u64)));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<EnvFingerprint, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("env: missing string field '{k}'"))
        };
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("env: missing integer field '{k}'"))
        };
        let seeds = v
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or("env: missing 'seeds' array")?
            .iter()
            .map(|x| x.as_u64().ok_or("env: non-integer seed"))
            .collect::<Result<Vec<_>, _>>()?;
        // Records from the removed per-lane RNG mode sampled different
        // walk paths; parsing one as an ordinary record would let it diff
        // silently against the single-RNG numbers.
        if v.get("rng").is_some() {
            return Err(
                "env: 'rng' stamp found — sharded-universe records are no longer \
                 supported; re-run the suite to produce a current record"
                    .into(),
            );
        }
        let threads = v.get("threads").and_then(Json::as_u64).unwrap_or(1) as u32;
        Ok(EnvFingerprint {
            git_rev: s("git_rev")?,
            config: s("config")?,
            graph_scale: u("graph_scale")?,
            struct_scale: u("struct_scale")?,
            suite: s("suite")?,
            seeds,
            fault_profile: v
                .get("fault_profile")
                .and_then(Json::as_str)
                .unwrap_or("none")
                .to_string(),
            threads,
            journeys: matches!(v.get("journeys"), Some(Json::Bool(true))),
            critical: matches!(v.get("critical"), Some(Json::Bool(true))),
            workers: v
                .get("workers")
                .and_then(Json::as_u64)
                .map(|w| w as u32)
                .unwrap_or(threads),
        })
    }
}

/// One scenario's measured row: engine × dataset × walk count, repeated
/// over the env's seed list.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Stable scenario name, `{tag}/{dataset}/w{walks}[{variant}]`.
    pub name: String,
    /// Short engine-config tag ("fw", "fw-base", "gw", "iter").
    pub tag: String,
    /// Engine identifier (`WalkEngine::name`).
    pub engine: String,
    /// Dataset abbreviation.
    pub dataset: String,
    /// Walks per run.
    pub walks: u64,
    /// Seeds this scenario repeated over.
    pub num_seeds: u64,
    /// Simulated end-to-end time per seed, nanoseconds.
    pub sim_time_ns: StatU,
    /// Per-seed speedup over the paired GraphWalker scenario, when the
    /// suite contains one at the same dataset/walks/variant.
    pub speedup_over_graphwalker: Option<StatF>,
    /// The seed-0 run's `RunReport::summary_json` (fw-walk) tree:
    /// stats, traffic, breakdown, read bandwidth.
    pub report: Json,
    /// The seed-0 run's `trace_summary_json` (fw-trace) tree:
    /// utilization, latencies, queues, bottleneck. None when tracing was
    /// off.
    pub trace: Option<Json>,
    /// The seed-0 run's `JourneyReport::to_json` (fw-trace) tree:
    /// walk-latency percentiles, per-walk segment decompositions and the
    /// tail-attribution table. Unlike `trace` (always present as a key,
    /// null when off), the key is omitted entirely when journeys were not
    /// recorded so pre-journey records stay byte-identical.
    pub journeys: Option<Json>,
    /// The seed-0 run's `CriticalReport::to_json` (fw-trace) tree:
    /// critical-path totals, per-component critical-time shares and the
    /// heatmap summary. Key omitted entirely when critical recording was
    /// off, so pre-critical records stay byte-identical.
    pub critical: Option<Json>,
}

impl ScenarioRecord {
    /// Seed-0 flash read bytes (0 if the report is malformed).
    pub fn flash_read_bytes(&self) -> u64 {
        self.report
            .get("traffic")
            .and_then(|t| t.get("flash_read_bytes"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::s(&self.name)),
            ("tag", Json::s(&self.tag)),
            ("engine", Json::s(&self.engine)),
            ("dataset", Json::s(&self.dataset)),
            ("walks", Json::u(self.walks)),
            ("num_seeds", Json::u(self.num_seeds)),
            ("sim_time_ns", self.sim_time_ns.to_json()),
        ];
        pairs.push((
            "speedup_over_graphwalker",
            match self.speedup_over_graphwalker {
                Some(s) => s.to_json(),
                None => Json::Null,
            },
        ));
        pairs.push(("report", self.report.clone()));
        pairs.push((
            "trace",
            match &self.trace {
                Some(t) => t.clone(),
                None => Json::Null,
            },
        ));
        if let Some(j) = &self.journeys {
            pairs.push(("journeys", j.clone()));
        }
        if let Some(c) = &self.critical {
            pairs.push(("critical", c.clone()));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<ScenarioRecord, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("scenario: missing string field '{k}'"))
        };
        let name = s("name")?;
        let speedup = match v.get("speedup_over_graphwalker") {
            None | Some(Json::Null) => None,
            Some(x) => Some(StatF::from_json(x, &name)?),
        };
        let trace = match v.get("trace") {
            None | Some(Json::Null) => None,
            Some(t) => Some(t.clone()),
        };
        let journeys = match v.get("journeys") {
            None | Some(Json::Null) => None,
            Some(j) => Some(j.clone()),
        };
        let critical = match v.get("critical") {
            None | Some(Json::Null) => None,
            Some(c) => Some(c.clone()),
        };
        Ok(ScenarioRecord {
            tag: s("tag")?,
            engine: s("engine")?,
            dataset: s("dataset")?,
            walks: v
                .get("walks")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing 'walks'"))?,
            num_seeds: v
                .get("num_seeds")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing 'num_seeds'"))?,
            sim_time_ns: StatU::from_json(
                v.get("sim_time_ns")
                    .ok_or_else(|| format!("{name}: missing 'sim_time_ns'"))?,
                &name,
            )?,
            speedup_over_graphwalker: speedup,
            report: v
                .get("report")
                .cloned()
                .ok_or_else(|| format!("{name}: missing 'report'"))?,
            trace,
            journeys,
            critical,
            name,
        })
    }
}

/// One complete `BENCH_*.json` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Always [`SCHEMA`] for records this crate writes.
    pub schema: String,
    /// Record label (the `<label>` in `BENCH_<label>.json`).
    pub label: String,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// Per-scenario rows, in suite order.
    pub scenarios: Vec<ScenarioRecord>,
}

impl BenchReport {
    /// Build the JSON tree for this record.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::s(&self.schema)),
            ("label", Json::s(&self.label)),
            ("env", self.env.to_json()),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioRecord::to_json).collect()),
            ),
        ])
    }

    /// Render the record as the canonical `BENCH_*.json` text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Reconstruct a record from a parsed tree.
    pub fn from_json(v: &Json) -> Result<BenchReport, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing 'schema'")?
            .to_string();
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema '{schema}' (this build reads '{SCHEMA}'); \
                 re-run the suite to produce a current record"
            ));
        }
        Ok(BenchReport {
            schema,
            label: v
                .get("label")
                .and_then(Json::as_str)
                .ok_or("missing 'label'")?
                .to_string(),
            env: EnvFingerprint::from_json(v.get("env").ok_or("missing 'env'")?)?,
            scenarios: v
                .get("scenarios")
                .and_then(Json::as_arr)
                .ok_or("missing 'scenarios' array")?
                .iter()
                .map(ScenarioRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// Parse a `BENCH_*.json` document.
    pub fn parse(src: &str) -> Result<BenchReport, String> {
        BenchReport::from_json(&Json::parse(src)?)
    }

    /// Load and parse a record from disk.
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchReport::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Find a scenario row by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioRecord> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// The newest `BENCH_*.json` in `dir` (by modification time, ties broken
/// by name), excluding any paths in `exclude`. This is how
/// `fwbench compare` picks its implicit baseline.
pub fn newest_bench_file(dir: &Path, exclude: &[&Path]) -> Option<PathBuf> {
    let mut candidates: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|e| {
            let path = e.path();
            let name = path.file_name()?.to_str()?;
            if !name.starts_with("BENCH_") || !name.ends_with(".json") {
                return None;
            }
            if exclude.iter().any(|x| {
                x.file_name() == path.file_name()
                    || x.canonicalize().ok() == path.canonicalize().ok()
            }) {
                return None;
            }
            let mtime = e.metadata().ok()?.modified().ok()?;
            Some((mtime, path))
        })
        .collect();
    candidates.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    candidates.pop().map(|(_, p)| p)
}

/// Shared test fixtures (also used by `record`/`why` unit tests and the
/// `fwbench` CLI regression tests, which need to write doctored records
/// to disk). Not part of the crate's real API.
#[doc(hidden)]
pub mod tests_support {
    use super::*;

    pub fn tiny_report() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            label: "t".into(),
            env: EnvFingerprint {
                git_rev: "abc1234".into(),
                config: "scaled".into(),
                graph_scale: 500,
                struct_scale: 16,
                suite: "ci".into(),
                seeds: vec![42, 43],
                fault_profile: "none".into(),
                threads: 1,
                journeys: false,
                critical: false,
                workers: 1,
            },
            scenarios: vec![ScenarioRecord {
                name: "fw/TT/w100".into(),
                tag: "fw".into(),
                engine: "flashwalker".into(),
                dataset: "TT".into(),
                walks: 100,
                num_seeds: 2,
                sim_time_ns: StatU {
                    mean: 1000,
                    min: 990,
                    max: 1010,
                },
                speedup_over_graphwalker: Some(StatF {
                    mean: 5.0,
                    min: 4.5,
                    max: 5.5,
                }),
                report: Json::obj(vec![(
                    "traffic",
                    Json::obj(vec![("flash_read_bytes", Json::u(4096))]),
                )]),
                trace: None,
                journeys: None,
                critical: None,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_u_rounds_mean_with_integer_math() {
        let s = StatU::of(&[1, 2]);
        assert_eq!(
            s,
            StatU {
                mean: 2,
                min: 1,
                max: 2
            }
        ); // (3 + 1)/2
        let s = StatU::of(&[10, 10, 10]);
        assert_eq!(s.rel_spread(), 0.0);
        let s = StatU::of(&[90, 110]);
        assert!((s.rel_spread() - 0.2).abs() < 1e-12);
    }

    use super::tests_support::tiny_report;

    #[test]
    fn bench_report_round_trips_byte_identically() {
        let rep = tiny_report();
        let text = rep.render();
        let back = BenchReport::parse(&text).expect("parse own output");
        assert_eq!(back, rep);
        assert_eq!(back.render(), text);
        assert_eq!(
            back.scenario("fw/TT/w100").unwrap().flash_read_bytes(),
            4096
        );
    }

    #[test]
    fn stats_over_empty_slices_are_none_not_panics() {
        // Regression: an all-skipped suite used to reach the `of` assert
        // and abort; the try_ variants give callers an error path.
        assert_eq!(StatU::try_of(&[]), None);
        assert_eq!(StatF::try_of(&[]), None);
        assert_eq!(
            StatU::try_of(&[3, 5]),
            Some(StatU {
                mean: 4,
                min: 3,
                max: 5
            })
        );
        assert_eq!(StatF::try_of(&[2.0]).unwrap().mean, 2.0);
    }

    #[test]
    fn fault_profile_is_omitted_when_none_and_round_trips_otherwise() {
        // Fault-free records must not change shape (byte-identity with
        // pre-fault baselines)…
        let rep = tiny_report();
        assert!(!rep.render().contains("fault_profile"));
        let back = BenchReport::parse(&rep.render()).unwrap();
        assert_eq!(back.env.fault_profile, "none");

        // …and fault-enabled records carry the profile through a round
        // trip.
        let mut rep = tiny_report();
        rep.env.fault_profile = "light".into();
        let text = rep.render();
        assert!(text.contains("\"fault_profile\": \"light\""));
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn threads_field_is_omitted_at_one_and_round_trips_otherwise() {
        // Sequential records keep the pre-threads shape (byte-identity
        // with records written before the field existed)…
        let rep = tiny_report();
        assert!(!rep.render().contains("\"threads\""));
        let back = BenchReport::parse(&rep.render()).unwrap();
        assert_eq!(back.env.threads, 1);

        // …and multi-worker records carry the count through a round trip.
        let mut rep = tiny_report();
        rep.env.threads = 4;
        let text = rep.render();
        assert!(text.contains("\"threads\": 4"));
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn journeys_are_omitted_when_off_and_round_trip_otherwise() {
        // Default records carry no journey keys at all — env flag and
        // scenario section alike (byte-identity with pre-journey
        // baselines).
        let rep = tiny_report();
        assert!(!rep.render().contains("journeys"));
        let back = BenchReport::parse(&rep.render()).unwrap();
        assert!(!back.env.journeys);
        assert!(back.scenarios[0].journeys.is_none());

        // A --journeys record carries both through a round trip.
        let mut rep = tiny_report();
        rep.env.journeys = true;
        rep.scenarios[0].journeys =
            Some(Json::parse("{\"sampled_walks\":3,\"p99_ns\":120}").unwrap());
        let text = rep.render();
        assert!(text.contains("\"journeys\": true"));
        assert!(text.contains("\"sampled_walks\": 3"));
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn critical_is_omitted_when_off_and_round_trips_otherwise() {
        // Default records carry no critical keys at all (byte-identity
        // with pre-critical baselines).
        let rep = tiny_report();
        assert!(!rep.render().contains("critical"));
        let back = BenchReport::parse(&rep.render()).unwrap();
        assert!(!back.env.critical);
        assert!(back.scenarios[0].critical.is_none());

        // A --critical record carries both through a round trip.
        let mut rep = tiny_report();
        rep.env.critical = true;
        rep.scenarios[0].critical = Some(Json::parse("{\"total_ns\":1000,\"shares\":[]}").unwrap());
        let text = rep.render();
        assert!(text.contains("\"critical\": true"));
        assert!(text.contains("\"total_ns\": 1000"));
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn records_with_an_rng_stamp_are_rejected() {
        // Current records never carry the key…
        let text = tiny_report().render();
        assert!(!text.contains("\"rng\""));
        // …and a sharded-universe record is a parse error, not a record
        // silently read as the single-RNG one.
        let old = text.replacen("\"suite\":", "\"rng\": \"sharded\",\n    \"suite\":", 1);
        let err = BenchReport::parse(&old).unwrap_err();
        assert!(err.contains("no longer supported"), "{err}");
    }

    #[test]
    fn workers_field_is_omitted_unless_the_clamp_fired() {
        // workers == threads (no clamp): field absent, parse defaults it
        // back to the thread count.
        let mut rep = tiny_report();
        rep.env.threads = 4;
        rep.env.workers = 4;
        let text = rep.render();
        assert!(!text.contains("\"workers\""));
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back.env.workers, 4);

        // A clamped run (--threads 8 against a 3-cell suite) records the
        // effective count and round-trips.
        let mut rep = tiny_report();
        rep.env.threads = 8;
        rep.env.workers = 3;
        let text = rep.render();
        assert!(text.contains("\"workers\": 3"));
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut rep = tiny_report();
        rep.schema = "fwbench/v0".into();
        let text = rep.render();
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(err.contains("re-run"), "{err}");
    }
}
