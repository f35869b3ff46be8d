//! Integration tests for the `fwbench serve` suite (ISSUE 10 tentpole
//! acceptance): the record is byte-deterministic across independent
//! suite runs, its admission books balance exactly
//! (`admitted + rejected == offered`, per tenant and in total), and the
//! throughput-vs-p99 CSV is a faithful derivation of the record.
//!
//! Debug-profile budget: two runs of a trimmed suite (few queries per
//! scenario). The full-size double-run `cmp` gate lives in CI.

use fw_bench::record::validate_serve_record;
use fw_bench::serve::{build_serve_record, run_ci_serve_suite, serve_csv};
use fw_sim::Json;

const QUERIES: u64 = 10;

#[test]
fn serve_suite_is_byte_deterministic_and_balances_its_books() {
    let a = build_serve_record(&run_ci_serve_suite("ci", 42, QUERIES)).render();
    let b = build_serve_record(&run_ci_serve_suite("ci", 42, QUERIES)).render();
    assert_eq!(a, b, "independent suite runs must render byte-identically");

    let doc = Json::parse(&a).expect("record parses");
    validate_serve_record(&doc).expect("record balances");
    for sc in doc.get("scenarios").and_then(Json::as_arr).unwrap() {
        let u = |k: &str| sc.get(k).and_then(Json::as_u64).unwrap_or(0);
        assert_eq!(
            u("admitted") + u("rejected"),
            u("offered"),
            "admission identity in {}",
            sc.get("name").and_then(Json::as_str).unwrap_or("?")
        );
        assert_eq!(u("offered"), QUERIES);
        // The throughput-vs-p99 axes the curve is drawn from.
        assert!(sc.get("offered_qps").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(sc.get("achieved_qps").and_then(Json::as_f64).unwrap() > 0.0);
        let lat = sc.get("latency").expect("latency section");
        let p = |k: &str| lat.get(k).and_then(Json::as_u64).unwrap();
        assert!(p("p50_ns") <= p("p95_ns") && p("p95_ns") <= p("p99_ns"));
    }

    // A different seed is a genuinely different experiment.
    let d = build_serve_record(&run_ci_serve_suite("ci", 43, QUERIES)).render();
    let blank_seed = |s: &str| {
        s.replace("\"seed\": 42", "\"seed\": S")
            .replace("\"seed\": 43", "\"seed\": S")
    };
    assert_ne!(blank_seed(&a), blank_seed(&d));

    // CSV is derived from the canonical record, one row per scenario.
    let csv = serve_csv(&doc);
    let csv2 = serve_csv(&Json::parse(&b).unwrap());
    assert_eq!(csv, csv2, "CSV derivation is deterministic too");
    let scenarios = doc.get("scenarios").and_then(Json::as_arr).unwrap().len();
    assert_eq!(csv.lines().count(), scenarios + 1);
    for sc in doc.get("scenarios").and_then(Json::as_arr).unwrap() {
        let name = sc.get("name").and_then(Json::as_str).unwrap();
        assert!(csv.contains(name), "CSV row for {name}");
    }
}
