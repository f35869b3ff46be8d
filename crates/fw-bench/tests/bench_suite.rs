//! Integration tests for the fwbench observability subsystem: the
//! declarative suite runner, the `BENCH_*.json` record writer, and
//! the noise-aware compare gate (ISSUE 3 acceptance tests).
//!
//! Tests run in the debug profile, so the suite under test is tiny: one
//! dataset (Twitter) at a few hundred walks over two seeds. The suite is
//! executed once in a `OnceLock` and shared across tests.

use std::sync::OnceLock;

use fw_bench::bench_json::{BenchReport, StatU};
use fw_bench::compare::{compare_reports, fidelity_checks, CompareConfig, Verdict};
use fw_bench::serve::{build_serve_record, run_ci_serve_suite};
use fw_bench::suite::{build_bench_report, default_gw_memory, run_suite, Suite, SuiteResult};
use fw_fault::FaultProfile;
use fw_graph::DatasetId;
use fw_sim::Json;

const WALKS: u64 = 500;

fn tiny_suite() -> Suite {
    let mut s = Suite::single(DatasetId::Twitter, WALKS, default_gw_memory(), vec![42, 43]);
    s.trace = true;
    s
}

fn shared_result() -> &'static SuiteResult {
    static RESULT: OnceLock<SuiteResult> = OnceLock::new();
    RESULT.get_or_init(|| run_suite(&tiny_suite()).expect("tiny suite runs"))
}

fn shared_report() -> BenchReport {
    build_bench_report("test", shared_result(), false)
}

/// Two runs of the same suite with the same seeds must render to
/// byte-identical JSON (the determinism contract the compare gate and
/// the committed baseline rely on).
#[test]
fn same_seed_runs_emit_byte_identical_json() {
    let a = build_bench_report("test", shared_result(), false).render();
    let b = build_bench_report(
        "test",
        &run_suite(&tiny_suite()).expect("tiny suite runs"),
        false,
    )
    .render();
    assert_eq!(a, b, "same-seed fwbench runs must be byte-identical");
    assert!(a.ends_with('\n'), "rendered report ends with a newline");
}

/// A report compared against itself reports zero regressions: every row
/// passes with an exact 0% delta, and no scenarios are missing or added.
#[test]
fn compare_against_self_reports_zero_regressions() {
    let rep = shared_report();
    let res = compare_reports(&rep, &rep, &CompareConfig::default()).expect("compatible");
    assert!(!res.rows.is_empty());
    for row in &res.rows {
        assert_eq!(row.verdict, Verdict::Pass, "row {} not pass", row.name);
        assert_eq!(row.delta, 0.0, "row {} delta nonzero", row.name);
    }
    assert!(res.missing.is_empty() && res.added.is_empty());
    assert!(
        !res.failed(),
        "self-compare must gate clean:\n{}",
        res.render()
    );
}

/// Synthetically slowing one scenario far beyond the noise band must
/// trip the fail verdict and the non-zero gate.
#[test]
fn synthetic_slowdown_trips_fail_verdict() {
    let base = shared_report();
    let mut cur = base.clone();
    let slow = &mut cur.scenarios[0];
    let m = slow.sim_time_ns.mean * 3;
    slow.sim_time_ns = StatU {
        mean: m,
        min: m,
        max: m,
    };
    let res = compare_reports(&base, &cur, &CompareConfig::default()).expect("compatible");
    assert_eq!(res.rows[0].verdict, Verdict::Fail);
    assert!(res.failed(), "3x slowdown must fail the gate");
    // The other direction — a speedup — must not fail.
    let res = compare_reports(&cur, &base, &CompareConfig::default()).expect("compatible");
    assert!(!res.rows.iter().any(|r| r.verdict == Verdict::Fail));
}

/// A rendered report must round-trip through the in-crate parser:
/// parse → re-render is byte-identical, and the typed loader recovers
/// the same scenario statistics.
#[test]
fn bench_json_round_trips_through_in_crate_parser() {
    let rep = shared_report();
    let text = rep.render();
    let parsed = Json::parse(&text).expect("rendered report parses");
    assert_eq!(parsed.render(), text, "parse → render is byte-identical");

    let back = BenchReport::parse(&text).expect("typed round-trip");
    assert_eq!(back.schema, rep.schema);
    assert_eq!(back.env.seeds, vec![42, 43]);
    assert_eq!(back.scenarios.len(), rep.scenarios.len());
    for (a, b) in back.scenarios.iter().zip(&rep.scenarios) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
        assert_eq!(
            a.speedup_over_graphwalker.is_some(),
            b.speedup_over_graphwalker.is_some()
        );
    }
}

/// Empty suites error cleanly instead of panicking (regression: an
/// empty seed list used to reach an assert and abort the process before
/// any error could be printed).
#[test]
fn empty_suites_error_instead_of_panicking() {
    let mut s = tiny_suite();
    s.seeds.clear();
    let err = run_suite(&s).unwrap_err();
    assert!(err.contains("no seeds"), "{err}");

    let mut s = tiny_suite();
    s.scenarios.clear();
    let err = run_suite(&s).unwrap_err();
    assert!(err.contains("no scenarios"), "{err}");
}

/// Fault-enabled suites complete every walk, report nonzero fault
/// metrics, stay byte-deterministic across same-seed runs, and stamp the
/// profile into the env fingerprint — while fault-free records keep the
/// exact pre-fault shape.
#[test]
fn fault_suite_is_deterministic_and_reports_fault_metrics() {
    let faulted = || tiny_suite().with_faults(FaultProfile::light());
    let a = run_suite(&faulted()).expect("fault suite runs");
    let ra = build_bench_report("faults", &a, false);
    let rb = build_bench_report(
        "faults",
        &run_suite(&faulted()).expect("fault suite runs"),
        false,
    );
    assert_eq!(
        ra.render(),
        rb.render(),
        "same-seed fault runs must be byte-identical"
    );
    assert_eq!(ra.env.fault_profile, "light");

    // Every walk completed despite injected faults, and the injector
    // left observable traces in the reports.
    for res in &a.results {
        for run in &res.runs {
            assert_eq!(run.report.walks, WALKS, "{}", res.scenario.name());
        }
    }
    let events: u64 = a
        .results
        .iter()
        .flat_map(|r| r.runs.iter())
        .filter_map(|run| run.report.faults.as_ref())
        .map(|f| f.total_events())
        .sum();
    assert!(events > 0, "light profile must inject observable faults");
    assert!(ra.render().contains("\"faults\""));

    // The fault-free record keeps its pre-fault shape: no profile key,
    // no per-scenario fault sections.
    let clean = shared_report();
    assert_eq!(clean.env.fault_profile, "none");
    assert!(!clean.render().contains("fault_profile"));
    assert!(!clean.render().contains("\"faults\""));
}

/// Journey-enabled suites stamp the env fingerprint, attach a journey
/// section to every scenario whose walks reconcile exactly (per-walk
/// segment durations sum to the end-to-end latency — the invariant
/// `fwbench tail` gates on), and stay byte-deterministic across
/// same-seed runs; plain records carry no journey keys at all.
#[test]
fn journey_suite_reconciles_and_stays_deterministic() {
    let journeyed = || tiny_suite().with_journeys();
    let ra = build_bench_report("j", &run_suite(&journeyed()).expect("suite runs"), false);
    let rb = build_bench_report("j", &run_suite(&journeyed()).expect("suite runs"), false);
    assert_eq!(
        ra.render(),
        rb.render(),
        "same-seed journey runs must be byte-identical"
    );
    assert!(ra.env.journeys);
    for sc in &ra.scenarios {
        let j = sc.journeys.as_ref().expect("journey section per scenario");
        assert!(
            j.get("sampled_walks").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "{}: at least one sampled walk",
            sc.name
        );
        for w in j.get("walks").and_then(|v| v.as_arr()).unwrap_or(&[]) {
            let latency = w.get("latency_ns").and_then(|v| v.as_u64()).unwrap();
            let sum: u64 = match w.get("segments") {
                Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
                _ => 0,
            };
            assert_eq!(
                sum, latency,
                "{}: walk segments must sum exactly to its latency",
                sc.name
            );
        }
    }
    // The round trip preserves the journey sections byte-for-byte.
    let back = BenchReport::parse(&ra.render()).expect("journey record parses");
    assert_eq!(back.render(), ra.render());

    // Plain records keep the pre-journey shape.
    assert!(!shared_report().render().contains("journeys"));
}

/// Every producer tree survives render → parse unchanged, so each emits
/// only canonical JSON literals: the fw-walk summary with its fault
/// counters and the trace, journey, critical and heatmap summaries of
/// real fw and gw runs (one record embeds them all), and the
/// `ServeReport` trees of a tiny serve suite.
#[test]
fn every_producer_tree_round_trips_through_render_and_parse() {
    let mut suite = tiny_suite()
        .with_faults(FaultProfile::light())
        .with_journeys()
        .with_critical();
    suite.seeds = vec![42];
    let rep = build_bench_report("trees", &run_suite(&suite).expect("suite runs"), false);
    for sc in &rep.scenarios {
        assert!(sc.report.get("faults").is_some(), "{}", sc.name);
        assert!(sc.trace.is_some() && sc.journeys.is_some() && sc.critical.is_some());
    }
    let serve = build_serve_record(&run_ci_serve_suite("trees", 42, 4));
    for tree in [rep.to_json(), serve] {
        assert_eq!(Json::parse(&tree.render()).as_ref(), Ok(&tree));
    }
}

/// The suite runner's report carries everything the schema promises:
/// engine summaries with traffic, a trace summary on traced scenarios,
/// paired speedups on FlashWalker cells, and a sane fingerprint.
#[test]
fn suite_report_carries_traffic_trace_and_speedup() {
    let rep = shared_report();
    assert_eq!(rep.schema, "fwbench/v1");
    assert_eq!(rep.env.seeds, vec![42, 43]);
    let fw = rep
        .scenarios
        .iter()
        .find(|s| s.tag == "fw")
        .expect("fw cell");
    let sp = fw
        .speedup_over_graphwalker
        .as_ref()
        .expect("paired speedup");
    assert!(sp.min <= sp.mean && sp.mean <= sp.max);
    assert!(fw.flash_read_bytes() > 0, "traffic captured");
    assert!(fw.trace.is_some(), "trace summary captured on traced suite");
    let gw = rep
        .scenarios
        .iter()
        .find(|s| s.tag == "gw")
        .expect("gw cell");
    assert!(gw.speedup_over_graphwalker.is_none());
    // Deterministic mode zeroes wall-clock stats.
    assert_eq!(fw.wall_time_ms.mean, 0.0);

    // Fidelity checks on a single-dataset report: nothing fails, and
    // the cross-dataset claims are skipped rather than guessed.
    let checks = fidelity_checks(&rep, &CompareConfig::default());
    assert!(checks.iter().all(|c| c.verdict != Verdict::Fail));
    assert!(checks.iter().any(|c| c.verdict == Verdict::Skip));
}
