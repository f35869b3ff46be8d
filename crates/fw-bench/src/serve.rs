//! The `fwbench serve` suite: throughput-vs-p99 curves for the online
//! serving layer (`fw-serve`), written as schema-versioned
//! `SERVE_<label>.json` records.
//!
//! Scenario design follows queueing practice: the engine's batch
//! capacity is measured first with a deterministic probe run
//! ([`fw_serve::probe_walks_per_sec`]), and offered-load points are
//! placed as *multiples of capacity* — below saturation (0.5×), near
//! saturation (0.9×), and overloaded (1.4×, where admission control must
//! reject) — plus a bursty arrival at 0.9× mean to stress the queue, and
//! one GraphWalker point against its own (much lower) capacity. Because
//! the probe is simulated, the derived load points and therefore the
//! whole record are byte-deterministic: `fwbench serve --suite ci` twice
//! produces `cmp`-identical files, which CI gates on.
//!
//! The record's filename prefix (`SERVE_`) and schema
//! ([`crate::record::SERVE_SCHEMA`]) keep serve records out of
//! `compare`'s `BENCH_*` auto-baseline discovery. The throughput-vs-p99
//! CSV is derived *from the record* (not from in-memory state), so the
//! uploaded artifact is a pure view of the canonical file.

use fw_graph::DatasetId;
use fw_serve::{
    probe_walks_per_sec, run_serve, AdmissionConfig, ArrivalProcess, QueryMix, ServeConfig,
    ServeEngine, ServeHost, ServeReport, WalkCacheConfig,
};
use fw_sim::Json;

use crate::record::SERVE_SCHEMA;
use crate::runner::prepared;
use crate::suite::{default_gw_memory, git_rev};

/// One serve scenario's description and result.
pub struct ServeScenarioResult {
    /// Scenario name, `serve/{fw|gw}/{ds}/{arrival}-x{factor}`.
    pub name: String,
    /// Arrival-process tag (`poisson` / `bursty`).
    pub arrival: &'static str,
    /// Offered load as a multiple of the engine's probed capacity.
    pub load_factor: f64,
    /// The probed capacity, queries per simulated second.
    pub capacity_qps: f64,
    /// The service run's full report.
    pub report: ServeReport,
}

/// A completed serve suite.
pub struct ServeSuiteResult {
    /// Record label.
    pub label: String,
    /// Master seed.
    pub seed: u64,
    /// Queries offered per scenario.
    pub queries: u64,
    /// Dataset abbreviation.
    pub dataset: &'static str,
    /// Per-scenario results, in suite order.
    pub scenarios: Vec<ServeScenarioResult>,
}

/// The load factors the ci suite places its Poisson points at: under,
/// near, and past saturation.
pub const CI_LOAD_FACTORS: [f64; 3] = [0.5, 0.9, 1.4];

/// Run the ci serve suite on the Twitter stand-in: three Poisson points
/// and one bursty point on FlashWalker, one Poisson point on
/// GraphWalker. `queries` bounds each scenario's open-loop run.
pub fn run_ci_serve_suite(label: &str, seed: u64, queries: u64) -> ServeSuiteResult {
    let p = prepared(DatasetId::Twitter, seed);
    let host = ServeHost {
        csr: &p.dataset.csr,
        pg: &p.pg,
        id_bytes: p.id.id_bytes(),
        gw_memory_bytes: default_gw_memory(),
    };
    let mix = QueryMix::default_mix(16);
    // Mean walks per query: sizes draw uniformly from [w/2, 2w].
    let mean_wpq = (mix.walks_per_query as f64 / 2.0 + mix.walks_per_query as f64 * 2.0) / 2.0;
    let base_cfg = |engine: ServeEngine, arrival: ArrivalProcess| ServeConfig {
        engine,
        seed,
        queries,
        arrival,
        mix,
        admission: AdmissionConfig {
            // ~16 mean queries of backlog before the queue pushes back.
            queue_capacity_walks: (mean_wpq * 16.0) as u64,
            tenants: mix.tenants,
            tenant_share: 0.5,
        },
        cache: WalkCacheConfig::default_cfg(),
        max_batch_walks: (mean_wpq * 8.0) as u64,
        threads: 1,
    };

    let mut scenarios = Vec::new();
    let mut run_point = |tag: &str,
                         engine: ServeEngine,
                         arrival_name: &'static str,
                         factor: f64,
                         capacity_qps: f64,
                         arrival: ArrivalProcess| {
        let cfg = base_cfg(engine, arrival);
        let report = run_serve(&host, &cfg);
        report
            .check()
            .unwrap_or_else(|e| panic!("serve books do not balance: {e}"));
        scenarios.push(ServeScenarioResult {
            name: format!(
                "serve/{tag}/{}/{arrival_name}-x{:03}",
                DatasetId::Twitter.abbrev(),
                (factor * 100.0).round() as u32
            ),
            arrival: arrival_name,
            load_factor: factor,
            capacity_qps,
            report,
        });
    };

    // FlashWalker points, placed against FlashWalker's probed capacity.
    let fw_probe = base_cfg(
        ServeEngine::Flashwalker,
        ArrivalProcess::Poisson { rate_qps: 1.0 },
    );
    let fw_capacity_qps = probe_walks_per_sec(&host, &fw_probe, (mean_wpq * 4.0) as u64) / mean_wpq;
    for factor in CI_LOAD_FACTORS {
        run_point(
            "fw",
            ServeEngine::Flashwalker,
            "poisson",
            factor,
            fw_capacity_qps,
            ArrivalProcess::Poisson {
                rate_qps: fw_capacity_qps * factor,
            },
        );
    }
    // Bursty at 0.9× mean: off phase at 0.5×, on phase at 2.5× for 20%
    // of each period, with ~10 cycles over the nominal run span.
    let mean_qps = fw_capacity_qps * 0.9;
    let span_ns = queries as f64 / mean_qps * 1e9;
    run_point(
        "fw",
        ServeEngine::Flashwalker,
        "bursty",
        0.9,
        fw_capacity_qps,
        ArrivalProcess::Bursty {
            base_qps: fw_capacity_qps * 0.5,
            burst_qps: fw_capacity_qps * 2.5,
            period_ns: (span_ns / 10.0).round() as u64,
            burst_fraction: 0.2,
        },
    );
    // One GraphWalker point near its own saturation, for the serving-side
    // accelerator-vs-baseline contrast.
    let gw_probe = base_cfg(
        ServeEngine::Graphwalker,
        ArrivalProcess::Poisson { rate_qps: 1.0 },
    );
    let gw_capacity_qps = probe_walks_per_sec(&host, &gw_probe, (mean_wpq * 4.0) as u64) / mean_wpq;
    run_point(
        "gw",
        ServeEngine::Graphwalker,
        "poisson",
        0.9,
        gw_capacity_qps,
        ArrivalProcess::Poisson {
            rate_qps: gw_capacity_qps * 0.9,
        },
    );

    ServeSuiteResult {
        label: label.to_string(),
        seed,
        queries,
        dataset: DatasetId::Twitter.abbrev(),
        scenarios,
    }
}

/// Build the schema-versioned record document. Scenario rows embed the
/// full `ServeReport` aggregate JSON with the suite-level identity
/// (name, arrival, load factor, capacity) prepended.
pub fn build_serve_record(res: &ServeSuiteResult) -> Json {
    let scenarios: Vec<Json> = res
        .scenarios
        .iter()
        .map(|sc| {
            let mut pairs = vec![
                ("name", Json::s(&sc.name)),
                ("dataset", Json::s(res.dataset)),
                ("arrival", Json::s(sc.arrival)),
                ("load_factor", Json::f(sc.load_factor, 2)),
                ("capacity_qps", Json::f(sc.capacity_qps, 3)),
            ];
            pairs.extend(sc.report.json_fields());
            Json::obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::s(SERVE_SCHEMA)),
        ("label", Json::s(&res.label)),
        (
            "env",
            Json::obj(vec![
                ("git_rev", Json::s(&git_rev())),
                ("config", Json::s("scaled")),
                ("graph_scale", Json::u(fw_graph::datasets::GRAPH_SCALE)),
                ("struct_scale", Json::u(fw_graph::datasets::STRUCT_SCALE)),
                ("suite", Json::s("ci")),
                ("seed", Json::u(res.seed)),
                ("queries", Json::u(res.queries)),
                // Every engine run is one sequential event loop; the
                // constant stamp keeps the record's shape unchanged.
                ("threads", Json::u(1)),
            ]),
        ),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

/// The throughput-vs-p99 CSV, derived from the canonical record document
/// (so the uploaded artifact is a pure view of the file CI gated on).
pub fn serve_csv(doc: &Json) -> String {
    let mut out = String::from(
        "scenario,engine,arrival,load_factor,offered_qps,achieved_qps,offered,admitted,rejected,p50_ns,p95_ns,p99_ns\n",
    );
    for sc in doc.get("scenarios").and_then(Json::as_arr).unwrap_or(&[]) {
        let s = |k: &str| sc.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let u = |k: &str| sc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let f = |k: &str| sc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let lat = |k: &str| {
            sc.get("latency")
                .and_then(|l| l.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        out.push_str(&format!(
            "{},{},{},{:.2},{:.3},{:.3},{},{},{},{},{},{}\n",
            s("name"),
            s("engine"),
            s("arrival"),
            f("load_factor"),
            f("offered_qps"),
            f("achieved_qps"),
            u("offered"),
            u("admitted"),
            u("rejected"),
            lat("p50_ns"),
            lat("p95_ns"),
            lat("p99_ns"),
        ));
    }
    out
}

/// Human-readable stdout table for `fwbench serve`.
pub fn render_serve_table(doc: &Json) -> String {
    let mut out = format!(
        "{:<30} {:>7} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>6}\n",
        "scenario",
        "load",
        "offered/s",
        "achieved/s",
        "admitted",
        "rejected",
        "p50_ms",
        "p99_ms",
        "cache"
    );
    for sc in doc.get("scenarios").and_then(Json::as_arr).unwrap_or(&[]) {
        let u = |k: &str| sc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let f = |k: &str| sc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let lat = |k: &str| {
            sc.get("latency")
                .and_then(|l| l.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let hits = sc
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        out.push_str(&format!(
            "{:<30} {:>6.2}x {:>10.1} {:>10.1} {:>9} {:>9} {:>10.3} {:>10.3} {:>6}\n",
            sc.get("name").and_then(Json::as_str).unwrap_or("?"),
            f("load_factor"),
            f("offered_qps"),
            f("achieved_qps"),
            u("admitted"),
            u("rejected"),
            lat("p50_ns") as f64 / 1e6,
            lat("p99_ns") as f64 / 1e6,
            hits,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::validate_serve_record;

    /// A miniature end-to-end pass through the suite machinery — small
    /// enough for unit-test budgets; the CI-scale determinism gate lives
    /// in `tests/serve_suite.rs` and the workflow's double-run `cmp`.
    #[test]
    fn tiny_suite_record_round_trips_and_validates() {
        let res = run_ci_serve_suite("t", 42, 12);
        assert_eq!(res.scenarios.len(), 5);
        let doc = build_serve_record(&res);
        validate_serve_record(&doc).expect("fresh record balances");
        let text = doc.render();
        let back = Json::parse(&text).expect("parse own record");
        assert_eq!(back.render(), text, "record round-trips byte-identically");
        let csv = serve_csv(&doc);
        assert_eq!(csv.lines().count(), 6, "header + 5 scenarios");
        assert!(csv.contains("serve/fw/TT/poisson-x050"));
        assert!(csv.contains("serve/gw/TT/poisson-x090"));
        let table = render_serve_table(&doc);
        assert!(table.contains("serve/fw/TT/bursty-x090"));
    }
}
