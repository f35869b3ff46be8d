//! Shared `BENCH_*.json` loading and validation for the `fwbench`
//! subcommands.
//!
//! Every reader used to call [`BenchReport::load`] directly and map any
//! failure to a generic exit 1, which made "the file is garbage" and
//! "the file parsed but its books don't balance" indistinguishable to
//! CI. This module splits the two:
//!
//! * [`LoadError::Parse`] — the file is unreadable, malformed JSON, or a
//!   foreign schema. Exit code **3**.
//! * [`LoadError::Invariant`] — the record parsed but violates an
//!   internal accounting invariant (critical-path shares that don't sum
//!   to the end-to-end time, journey segments that don't reconcile with
//!   their walk's latency). Exit code **4**.
//!
//! Usage errors keep exit code **2** (the binary's `usage()`), and exit
//! **1** stays reserved for "the command ran and the gate failed". See
//! EXPERIMENTS.md "Exit codes".

use std::fmt;
use std::path::Path;

use fw_sim::Json;

use crate::bench_json::BenchReport;

/// Why a record could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Unreadable file, malformed JSON, or schema mismatch.
    Parse(String),
    /// Well-formed record whose internal accounting does not balance.
    Invariant(String),
}

impl LoadError {
    /// Process exit code for this failure class (3 = parse, 4 =
    /// invariant; 2 is usage, 1 is a failed gate).
    pub fn exit_code(&self) -> u8 {
        match self {
            LoadError::Parse(_) => 3,
            LoadError::Invariant(_) => 4,
        }
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "{e}"),
            LoadError::Invariant(e) => write!(f, "invariant violation: {e}"),
        }
    }
}

/// Load a record and validate every embedded accounting invariant.
pub fn load_bench_report(path: &Path) -> Result<BenchReport, LoadError> {
    let rep = BenchReport::load(path).map_err(LoadError::Parse)?;
    validate_report(&rep).map_err(LoadError::Invariant)?;
    Ok(rep)
}

/// Schema tag of `fwbench serve` records (`SERVE_<label>.json`). A
/// distinct schema (and filename prefix) keeps serve records out of
/// `compare`'s `BENCH_*` auto-baseline discovery.
pub const SERVE_SCHEMA: &str = "fwserve/v1";

/// Load an `fwbench serve` record with the same failure taxonomy as
/// [`load_bench_report`]: unreadable/malformed/foreign-schema → exit 3,
/// admission books that don't balance → exit 4.
pub fn load_serve_record(path: &Path) -> Result<Json, LoadError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LoadError::Parse(format!("cannot read {}: {e}", path.display())))?;
    let doc =
        Json::parse(&text).map_err(|e| LoadError::Parse(format!("{}: {e}", path.display())))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SERVE_SCHEMA => {}
        other => {
            return Err(LoadError::Parse(format!(
                "{}: schema {:?} is not '{SERVE_SCHEMA}'",
                path.display(),
                other.unwrap_or("<missing>")
            )))
        }
    }
    validate_serve_record(&doc).map_err(LoadError::Invariant)?;
    Ok(doc)
}

/// The serve record's accounting invariants, per scenario:
///
/// * `admitted + rejected == offered` (the ISSUE's acceptance identity),
/// * rejection reasons sum to `rejected`,
/// * per-tenant tallies balance and sum to the totals,
/// * per-query latency count equals `admitted`,
/// * every admitted walk completed (`walks_completed == walks_admitted`).
pub fn validate_serve_record(doc: &Json) -> Result<(), String> {
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("record has no scenarios array")?;
    for sc in scenarios {
        let name = sc.get("name").and_then(Json::as_str).unwrap_or("<unnamed>");
        let u = |k: &str| sc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let (offered, admitted, rejected) = (u("offered"), u("admitted"), u("rejected"));
        if admitted + rejected != offered {
            return Err(format!(
                "{name}: admitted {admitted} + rejected {rejected} != offered {offered}"
            ));
        }
        if u("rejected_capacity") + u("rejected_fairness") != rejected {
            return Err(format!(
                "{name}: rejection reasons do not sum to {rejected}"
            ));
        }
        let (mut to, mut ta, mut tr) = (0u64, 0u64, 0u64);
        for t in sc.get("tenants").and_then(Json::as_arr).unwrap_or(&[]) {
            let tu = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0);
            if tu("admitted") + tu("rejected") != tu("offered") {
                return Err(format!("{name}: tenant books do not balance: {t:?}"));
            }
            to += tu("offered");
            ta += tu("admitted");
            tr += tu("rejected");
        }
        if (to, ta, tr) != (offered, admitted, rejected) {
            return Err(format!(
                "{name}: tenant sums ({to}, {ta}, {tr}) != totals ({offered}, {admitted}, {rejected})"
            ));
        }
        let lat_count = sc
            .get("latency")
            .and_then(|l| l.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if lat_count != admitted {
            return Err(format!(
                "{name}: latency count {lat_count} != admitted {admitted}"
            ));
        }
        if u("walks_completed") != u("walks_admitted") {
            return Err(format!(
                "{name}: walks completed {} != walks admitted {}",
                u("walks_completed"),
                u("walks_admitted")
            ));
        }
    }
    Ok(())
}

/// Check the record's internal books. Pure; used by [`load_bench_report`]
/// and directly by tests.
pub fn validate_report(rep: &BenchReport) -> Result<(), String> {
    for sc in &rep.scenarios {
        if let Some(c) = &sc.critical {
            validate_critical(&sc.name, c)?;
        }
        if let Some(j) = &sc.journeys {
            validate_journeys(&sc.name, j)?;
        }
    }
    Ok(())
}

/// The critical-path invariant, as far as the bounded record allows:
/// unless the cause walk was truncated, the per-(component, lane) shares
/// aggregate exactly the path segments, so their `service + wait` must
/// sum to `total_ns` and their counts to `path_segments`.
fn validate_critical(scenario: &str, c: &Json) -> Result<(), String> {
    let u = |k: &str| c.get(k).and_then(Json::as_u64);
    let total = u("total_ns").ok_or_else(|| format!("{scenario}: critical has no total_ns"))?;
    let segments = u("path_segments").unwrap_or(0);
    let truncated = matches!(c.get("truncated"), Some(Json::Bool(true)));
    let shares = c
        .get("shares")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{scenario}: critical has no shares array"))?;
    let mut sum_ns = 0u64;
    let mut sum_count = 0u64;
    for s in shares {
        sum_ns += s.get("service_ns").and_then(Json::as_u64).unwrap_or(0);
        sum_ns += s.get("wait_ns").and_then(Json::as_u64).unwrap_or(0);
        sum_count += s.get("count").and_then(Json::as_u64).unwrap_or(0);
    }
    if truncated {
        // A truncated walk under-covers the run by construction; the
        // exact-sum check only applies to the segments that were kept.
        return Ok(());
    }
    if sum_count != segments {
        return Err(format!(
            "{scenario}: critical shares count {sum_count} != path_segments {segments}"
        ));
    }
    if sum_ns != total {
        return Err(format!(
            "{scenario}: critical shares sum to {sum_ns} ns but total_ns is {total}"
        ));
    }
    Ok(())
}

/// The journey decomposition invariant: each sampled walk's segment
/// durations sum exactly to its end-to-end latency.
fn validate_journeys(scenario: &str, j: &Json) -> Result<(), String> {
    for w in j.get("walks").and_then(Json::as_arr).unwrap_or(&[]) {
        let latency = w.get("latency_ns").and_then(Json::as_u64).unwrap_or(0);
        let sum: u64 = match w.get("segments") {
            Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
            _ => 0,
        };
        if sum != latency {
            return Err(format!(
                "{scenario} walk {}: segments sum to {sum} ns but latency is {latency} ns",
                w.get("id").and_then(Json::as_u64).unwrap_or(0)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_json::SCHEMA;

    fn parse(src: &str) -> Json {
        Json::parse(src).expect("test fixture json")
    }

    fn rep_with_critical(critical: &str) -> BenchReport {
        let mut rep = crate::bench_json::tests_support::tiny_report();
        rep.scenarios[0].critical = Some(parse(critical));
        rep
    }

    #[test]
    fn balanced_critical_section_passes() {
        let rep = rep_with_critical(
            r#"{"total_ns":100,"path_segments":2,"truncated":false,
                "shares":[{"name":"a","lane":0,"count":1,"service_ns":30,"wait_ns":10},
                          {"name":"b","lane":1,"count":1,"service_ns":50,"wait_ns":10}]}"#,
        );
        assert_eq!(rep.schema, SCHEMA);
        validate_report(&rep).expect("books balance");
    }

    #[test]
    fn unbalanced_critical_section_is_an_invariant_failure() {
        let rep = rep_with_critical(
            r#"{"total_ns":100,"path_segments":1,"truncated":false,
                "shares":[{"name":"a","lane":0,"count":1,"service_ns":30,"wait_ns":10}]}"#,
        );
        let err = validate_report(&rep).unwrap_err();
        assert!(err.contains("shares sum to 40"), "{err}");
    }

    #[test]
    fn truncated_sections_skip_the_exact_sum_check() {
        let rep = rep_with_critical(
            r#"{"total_ns":100,"path_segments":1,"truncated":true,
                "shares":[{"name":"a","lane":0,"count":1,"service_ns":30,"wait_ns":0}]}"#,
        );
        validate_report(&rep).expect("truncated records under-cover by design");
    }

    #[test]
    fn journey_segment_mismatch_is_an_invariant_failure() {
        let mut rep = crate::bench_json::tests_support::tiny_report();
        rep.scenarios[0].journeys = Some(parse(
            r#"{"walks":[{"id":7,"latency_ns":50,"segments":{"service":20,"queue":20}}]}"#,
        ));
        let err = validate_report(&rep).unwrap_err();
        assert!(err.contains("walk 7"), "{err}");
        assert!(err.contains("sum to 40"), "{err}");
    }

    #[test]
    fn exit_codes_distinguish_parse_from_invariant() {
        assert_eq!(LoadError::Parse("x".into()).exit_code(), 3);
        assert_eq!(LoadError::Invariant("x".into()).exit_code(), 4);
    }

    fn serve_scenario(offered: u64, admitted: u64, rejected: u64) -> String {
        format!(
            r#"{{"name":"serve/fw/TT/poisson-x090","offered":{offered},"admitted":{admitted},
                "rejected":{rejected},"rejected_capacity":{rejected},"rejected_fairness":0,
                "walks_admitted":50,"walks_completed":50,
                "tenants":[{{"tenant":0,"offered":{offered},"admitted":{admitted},"rejected":{rejected}}}],
                "latency":{{"count":{admitted},"p50_ns":10,"p95_ns":20,"p99_ns":30,"max_ns":40,"mean_ns":15}}}}"#
        )
    }

    fn serve_doc(scenario: &str) -> Json {
        parse(&format!(
            r#"{{"schema":"{SERVE_SCHEMA}","label":"t","scenarios":[{scenario}]}}"#
        ))
    }

    #[test]
    fn balanced_serve_record_passes() {
        validate_serve_record(&serve_doc(&serve_scenario(10, 8, 2))).expect("books balance");
    }

    #[test]
    fn serve_admission_identity_is_enforced() {
        let err = validate_serve_record(&serve_doc(&serve_scenario(10, 8, 3))).unwrap_err();
        assert!(
            err.contains("admitted 8 + rejected 3 != offered 10"),
            "{err}"
        );
    }

    #[test]
    fn serve_latency_count_must_match_admitted() {
        let sc = serve_scenario(10, 8, 2).replace("\"count\":8", "\"count\":7");
        let err = validate_serve_record(&serve_doc(&sc)).unwrap_err();
        assert!(err.contains("latency count 7 != admitted 8"), "{err}");
    }

    #[test]
    fn serve_tenant_sums_must_match_totals() {
        let sc = serve_scenario(10, 8, 2)
            .replace("\"tenant\":0,\"offered\":10", "\"tenant\":0,\"offered\":9");
        let err = validate_serve_record(&serve_doc(&sc)).unwrap_err();
        assert!(err.contains("tenant"), "{err}");
    }

    #[test]
    fn foreign_schema_is_a_parse_error_for_serve_records() {
        let dir = std::env::temp_dir().join("fw_serve_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("SERVE_bad.json");
        std::fs::write(&p, "{\"schema\":\"other/v9\",\"scenarios\":[]}\n").unwrap();
        let err = load_serve_record(&p).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let p2 = dir.join("SERVE_unbalanced.json");
        std::fs::write(&p2, serve_doc(&serve_scenario(10, 9, 2)).render()).unwrap();
        let err = load_serve_record(&p2).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
