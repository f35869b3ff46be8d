//! `fwbench why` — causal trace diffing between two `--critical` records.
//!
//! `compare` answers *whether* a scenario got slower; `why` answers
//! *where the extra time went*. Both records carry per-scenario
//! critical-path shares (per-(component, lane) wait + service time on
//! the one dependency chain that determined the end-to-end sim time), so
//! subtracting them attributes a slowdown to the components whose
//! critical time actually grew — a causal signal, unlike utilization
//! deltas, which move for busy components that were never on the path.
//!
//! Same record-mixup guards as `compare` (schema is enforced at parse
//! time): fault profile and generator config must match, and both
//! records must actually have critical sections. Thread and worker
//! counts are observer keys and never refuse a diff.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fw_sim::Json;

use crate::bench_json::BenchReport;

/// One component's critical-time movement between two records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareDelta {
    /// `component.lane` key, e.g. `chan.bus.2`.
    pub key: String,
    /// Critical ns (wait + service) in the baseline.
    pub base_ns: u64,
    /// Critical ns in the current record.
    pub cur_ns: u64,
}

impl ShareDelta {
    /// Signed movement in ns (positive = this component gained critical
    /// time).
    pub fn delta_ns(&self) -> i64 {
        self.cur_ns as i64 - self.base_ns as i64
    }
}

/// Per-scenario attribution of a sim-time delta to component shares.
#[derive(Debug, Clone, PartialEq)]
pub struct WhyRow {
    /// Scenario name (`tag/dataset/walks`).
    pub name: String,
    /// Baseline end-to-end critical time (== sim time) in ns.
    pub base_total_ns: u64,
    /// Current end-to-end critical time in ns.
    pub cur_total_ns: u64,
    /// Component movements, largest |delta| first.
    pub deltas: Vec<ShareDelta>,
}

impl WhyRow {
    /// Signed end-to-end movement in ns.
    pub fn delta_ns(&self) -> i64 {
        self.cur_total_ns as i64 - self.base_total_ns as i64
    }
}

/// Result of a `why` diff: one row per scenario present (with a critical
/// section) in both records.
#[derive(Debug, Clone, PartialEq)]
pub struct WhyResult {
    /// Attribution rows in baseline scenario order.
    pub rows: Vec<WhyRow>,
    /// Scenarios present in both records but missing a critical section
    /// in at least one (skipped, reported).
    pub skipped: Vec<String>,
}

impl WhyResult {
    /// Human-readable attribution tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let dt = r.delta_ns();
            let _ = writeln!(
                out,
                "== {} — sim time {:.3} ms -> {:.3} ms ({}{:.3} ms) ==",
                r.name,
                r.base_total_ns as f64 / 1e6,
                r.cur_total_ns as f64 / 1e6,
                if dt >= 0 { "+" } else { "" },
                dt as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "{:<20} {:>14} {:>14} {:>12} {:>8}",
                "component.lane", "base ns", "cur ns", "delta ns", "of dt"
            );
            for d in &r.deltas {
                let pct = if dt == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}%", d.delta_ns() as f64 / dt as f64 * 100.0)
                };
                let _ = writeln!(
                    out,
                    "{:<20} {:>14} {:>14} {:>+12} {:>8}",
                    d.key,
                    d.base_ns,
                    d.cur_ns,
                    d.delta_ns(),
                    pct
                );
            }
            out.push('\n');
        }
        for s in &self.skipped {
            let _ = writeln!(out, "{s:<28} (no critical section in one record — skipped)");
        }
        out
    }
}

/// Per-(component, lane) critical ns from a scenario's embedded critical
/// section.
fn share_map(c: &Json) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for s in c.get("shares").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
        let lane = s.get("lane").and_then(Json::as_u64).unwrap_or(0);
        let ns = s.get("service_ns").and_then(Json::as_u64).unwrap_or(0)
            + s.get("wait_ns").and_then(Json::as_u64).unwrap_or(0);
        *m.entry(format!("{name}.{lane}")).or_insert(0) += ns;
    }
    m
}

/// Diff `cur` against `base`, attributing each scenario's sim-time
/// movement to per-component critical-time deltas.
pub fn why_reports(base: &BenchReport, cur: &BenchReport) -> Result<WhyResult, String> {
    if base.env.fault_profile != cur.env.fault_profile {
        return Err(format!(
            "fault profile mismatch: baseline '{}' vs current '{}' — faulted and \
             fault-free records are not comparable",
            base.env.fault_profile, cur.env.fault_profile
        ));
    }
    if base.env.graph_scale != cur.env.graph_scale
        || base.env.struct_scale != cur.env.struct_scale
        || base.env.config != cur.env.config
    {
        return Err(format!(
            "records are not comparable: baseline config {}/{}:{} vs current {}/{}:{}",
            base.env.config,
            base.env.graph_scale,
            base.env.struct_scale,
            cur.env.config,
            cur.env.graph_scale,
            cur.env.struct_scale
        ));
    }
    if !base.env.critical || !cur.env.critical {
        let which = |on: bool| if on { "has" } else { "has no" };
        return Err(format!(
            "baseline {} critical sections, current {} critical sections — \
             both records must come from `fwbench run --critical`",
            which(base.env.critical),
            which(cur.env.critical)
        ));
    }

    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for b in &base.scenarios {
        let Some(c) = cur.scenario(&b.name) else {
            continue;
        };
        let (Some(bc), Some(cc)) = (&b.critical, &c.critical) else {
            skipped.push(b.name.clone());
            continue;
        };
        let total = |j: &Json| j.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
        let bm = share_map(bc);
        let cm = share_map(cc);
        let mut keys: Vec<&String> = bm.keys().chain(cm.keys()).collect();
        keys.sort();
        keys.dedup();
        let mut deltas: Vec<ShareDelta> = keys
            .into_iter()
            .map(|k| ShareDelta {
                key: k.clone(),
                base_ns: bm.get(k).copied().unwrap_or(0),
                cur_ns: cm.get(k).copied().unwrap_or(0),
            })
            .collect();
        deltas.sort_by(|a, b| {
            b.delta_ns()
                .abs()
                .cmp(&a.delta_ns().abs())
                .then_with(|| a.key.cmp(&b.key))
        });
        rows.push(WhyRow {
            name: b.name.clone(),
            base_total_ns: total(bc),
            cur_total_ns: total(cc),
            deltas,
        });
    }
    if rows.is_empty() {
        return Err("no scenario carries a critical section in both records".into());
    }
    Ok(WhyResult { rows, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_json::tests_support::tiny_report;

    fn crit(total: u64, shares: &[(&str, u64, u64, u64)]) -> Json {
        let body: Vec<String> = shares
            .iter()
            .map(|(name, lane, service, wait)| {
                format!(
                    "{{\"name\":\"{name}\",\"lane\":{lane},\"count\":1,\
                     \"service_ns\":{service},\"wait_ns\":{wait}}}"
                )
            })
            .collect();
        Json::parse(&format!(
            "{{\"total_ns\":{total},\"path_segments\":{},\"truncated\":false,\"shares\":[{}]}}",
            shares.len(),
            body.join(",")
        ))
        .expect("fixture json")
    }

    fn record(critical: Json) -> BenchReport {
        let mut rep = tiny_report();
        rep.env.critical = true;
        rep.scenarios[0].critical = Some(critical);
        rep
    }

    #[test]
    fn attributes_a_channel_slowdown_to_the_channel_share() {
        // Baseline: 10 ms total, chip service dominates. Current: the
        // channel bus gained 2 ms of critical time and everything else
        // held still — the top-ranked delta must be the channel.
        let base = record(crit(
            10_000_000,
            &[
                ("chip.batch", 3, 6_000_000, 0),
                ("chan.bus", 1, 2_000_000, 1_000_000),
                ("sg.load", 0, 1_000_000, 0),
            ],
        ));
        let cur = record(crit(
            12_000_000,
            &[
                ("chip.batch", 3, 6_000_000, 0),
                ("chan.bus", 1, 3_500_000, 1_500_000),
                ("sg.load", 0, 1_000_000, 0),
            ],
        ));
        let res = why_reports(&base, &cur).expect("guards pass");
        assert_eq!(res.rows.len(), 1);
        let row = &res.rows[0];
        assert_eq!(row.delta_ns(), 2_000_000);
        assert_eq!(row.deltas[0].key, "chan.bus.1");
        assert_eq!(row.deltas[0].delta_ns(), 2_000_000);
        // Unmoved components rank below and carry zero delta.
        assert!(row.deltas[1..].iter().all(|d| d.delta_ns() == 0));
        let text = res.render();
        assert!(text.contains("chan.bus.1"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
    }

    #[test]
    fn records_without_critical_sections_are_refused() {
        let mut base = tiny_report();
        base.env.critical = true;
        base.scenarios[0].critical = Some(crit(1000, &[("a", 0, 1000, 0)]));
        let cur = tiny_report(); // env.critical = false
        let err = why_reports(&base, &cur).unwrap_err();
        assert!(err.contains("--critical"), "{err}");
    }

    #[test]
    fn mixed_up_records_are_refused_like_compare() {
        let base = record(crit(1000, &[("a", 0, 1000, 0)]));
        // Thread counts are observer keys: a differing stamp still diffs.
        let mut cur = record(crit(1000, &[("a", 0, 1000, 0)]));
        cur.env.threads = 4;
        why_reports(&base, &cur).expect("thread counts never refuse");

        let mut cur = record(crit(1000, &[("a", 0, 1000, 0)]));
        cur.env.fault_profile = "heavy".into();
        let err = why_reports(&base, &cur).unwrap_err();
        assert!(err.contains("fault profile mismatch"), "{err}");

        let mut cur = record(crit(1000, &[("a", 0, 1000, 0)]));
        cur.env.graph_scale = 9;
        let err = why_reports(&base, &cur).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");
    }

    #[test]
    fn scenarios_missing_a_section_are_skipped_not_fatal() {
        let mut base = record(crit(1000, &[("a", 0, 1000, 0)]));
        let mut extra = base.scenarios[0].clone();
        extra.name = "fw/CW/w100".into();
        extra.critical = None;
        base.scenarios.push(extra.clone());
        let mut cur = record(crit(1500, &[("a", 0, 1500, 0)]));
        cur.scenarios.push(extra);
        let res = why_reports(&base, &cur).expect("one good row suffices");
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.skipped, vec!["fw/CW/w100".to_string()]);
    }
}
