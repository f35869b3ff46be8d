//! Regression comparison between two `BENCH_*.json` records: per-scenario
//! simulated-time deltas gated by seed-spread-derived noise bounds, plus
//! paper-fidelity verdicts re-checking the directional claims EXPERIMENTS.md
//! reproduces (FlashWalker wins everywhere, TT smallest, larger graphs →
//! larger speedups, optimizations never hurt).
//!
//! The simulator is deterministic per seed, so across runs of the *same*
//! code the delta is exactly zero; the noise band exists to absorb
//! legitimate behavior-neutral changes (e.g. a reseeded RNG stream) whose
//! effect should be indistinguishable from seed-to-seed variation. A
//! scenario fails when its slowdown exceeds what seed variation can
//! explain.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bench_json::{BenchReport, ScenarioRecord};

/// Gating thresholds.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Minimum relative noise band even for perfectly stable scenarios
    /// (protects single-seed records from zero-width bands).
    pub noise_floor: f64,
    /// Slowdown beyond `warn_mult × noise` → warn.
    pub warn_mult: f64,
    /// Slowdown beyond `fail_mult × noise` → fail (gate trips).
    pub fail_mult: f64,
    /// Noise-floor widening for single-seed rows. A one-seed record has
    /// `rel_spread() == 0` — the record carries *no* evidence about its
    /// own run-to-run noise — so the band would collapse to the bare
    /// `noise_floor`, making single-seed gating much twitchier than
    /// multi-seed gating instead of more conservative. When either side
    /// of a row has `num_seeds <= 1`, the floor becomes
    /// `noise_floor * single_seed_floor_mult` and the row is flagged in
    /// the rendered table. `1.0` restores the old collapsed behavior.
    pub single_seed_floor_mult: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            noise_floor: 0.02,
            warn_mult: 1.0,
            fail_mult: 2.0,
            single_seed_floor_mult: 2.0,
        }
    }
}

/// Outcome of one gated check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within bounds.
    Pass,
    /// Suspicious but inside the fail threshold.
    Warn,
    /// Out of bounds — the compare exits non-zero.
    Fail,
    /// Not applicable to this record (missing scenarios/datasets).
    Skip,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
            Verdict::Skip => "skip",
        })
    }
}

/// One scenario's regression row.
#[derive(Debug, Clone)]
pub struct RegressionRow {
    /// Scenario name (shared between both records).
    pub name: String,
    /// Baseline mean simulated time, ns.
    pub base_ns: u64,
    /// Current mean simulated time, ns.
    pub cur_ns: u64,
    /// Relative change, `cur/base − 1` (positive = slower).
    pub delta: f64,
    /// Noise band used for this row (max of both records' seed spreads
    /// and the configured floor).
    pub noise: f64,
    /// True when either record measured this scenario with one seed, so
    /// the band fell back to the widened single-seed floor (the spread
    /// carries no noise information).
    pub single_seed: bool,
    /// Gate outcome.
    pub verdict: Verdict,
}

/// One paper-fidelity check.
#[derive(Debug, Clone)]
pub struct FidelityCheck {
    /// The directional claim, in EXPERIMENTS.md's words.
    pub claim: String,
    /// Outcome.
    pub verdict: Verdict,
    /// Human-readable evidence.
    pub detail: String,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct CompareResult {
    /// Per-scenario regression rows (scenarios present in both records).
    pub rows: Vec<RegressionRow>,
    /// Paper-fidelity verdicts evaluated on the *current* record.
    pub fidelity: Vec<FidelityCheck>,
    /// Scenario names only the baseline has (coverage shrank).
    pub missing: Vec<String>,
    /// Scenario names only the current record has (coverage grew).
    pub added: Vec<String>,
}

impl CompareResult {
    /// True when any regression row or fidelity check failed — the
    /// condition under which `fwbench compare` exits non-zero.
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Fail)
            || self.fidelity.iter().any(|f| f.verdict == Verdict::Fail)
    }

    /// Render the pass/warn/fail table and the fidelity verdict list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== regression gate (mean sim time, noise-aware) ==");
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>8} {:>8}  verdict",
            "scenario", "base_ms", "cur_ms", "delta", "noise"
        );
        let mut any_single_seed = false;
        for r in &self.rows {
            any_single_seed |= r.single_seed;
            let _ = writeln!(
                out,
                "{:<28} {:>12.3} {:>12.3} {:>+7.2}% {:>7.2}%  {}{}",
                r.name,
                r.base_ns as f64 / 1e6,
                r.cur_ns as f64 / 1e6,
                r.delta * 100.0,
                r.noise * 100.0,
                r.verdict,
                if r.single_seed { " *" } else { "" }
            );
        }
        if any_single_seed {
            let _ = writeln!(
                out,
                "* single-seed row: no seed-spread evidence, widened noise floor applied \
                 (gate is weaker — prefer multi-seed records)"
            );
        }
        for m in &self.missing {
            let _ = writeln!(out, "{m:<28} (in baseline only — coverage shrank)");
        }
        for a in &self.added {
            let _ = writeln!(out, "{a:<28} (new scenario — no baseline)");
        }
        let _ = writeln!(out, "\n== paper-fidelity verdicts ==");
        for f in &self.fidelity {
            let _ = writeln!(out, "[{}] {} — {}", f.verdict, f.claim, f.detail);
        }
        let _ = writeln!(
            out,
            "\noverall: {}",
            if self.failed() { "FAIL" } else { "pass" }
        );
        out
    }
}

/// Compare `cur` against the `base`line record.
pub fn compare_reports(
    base: &BenchReport,
    cur: &BenchReport,
    cfg: &CompareConfig,
) -> Result<CompareResult, String> {
    if base.schema != cur.schema {
        return Err(format!(
            "schema mismatch: baseline '{}' vs current '{}'",
            base.schema, cur.schema
        ));
    }
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

    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for b in &base.scenarios {
        let Some(c) = cur.scenario(&b.name) else {
            missing.push(b.name.clone());
            continue;
        };
        // A single-seed side has zero spread — no noise evidence — so the
        // floor widens instead of the band collapsing to the bare floor.
        let single_seed = b.num_seeds <= 1 || c.num_seeds <= 1;
        let floor = if single_seed {
            cfg.noise_floor * cfg.single_seed_floor_mult
        } else {
            cfg.noise_floor
        };
        let noise = b
            .sim_time_ns
            .rel_spread()
            .max(c.sim_time_ns.rel_spread())
            .max(floor);
        let base_ns = b.sim_time_ns.mean;
        let cur_ns = c.sim_time_ns.mean;
        let delta = if base_ns == 0 {
            0.0
        } else {
            cur_ns as f64 / base_ns as f64 - 1.0
        };
        let verdict = if delta > cfg.fail_mult * noise {
            Verdict::Fail
        } else if delta > cfg.warn_mult * noise {
            Verdict::Warn
        } else {
            Verdict::Pass
        };
        rows.push(RegressionRow {
            name: b.name.clone(),
            base_ns,
            cur_ns,
            delta,
            noise,
            single_seed,
            verdict,
        });
    }
    let added = cur
        .scenarios
        .iter()
        .filter(|c| base.scenario(&c.name).is_none())
        .map(|c| c.name.clone())
        .collect();

    Ok(CompareResult {
        rows,
        fidelity: fidelity_checks(cur, cfg),
        missing,
        added,
    })
}

/// For each dataset, the all-optimizations FlashWalker scenario at that
/// dataset's largest walk count (the Figure 5 anchor cells). The anchor
/// is picked on walk count alone; a cell without a paired GraphWalker
/// run still anchors its dataset, and the claims below skip it instead
/// of silently falling back to a smaller cell.
fn fw_anchor_cells(rep: &BenchReport) -> BTreeMap<String, &ScenarioRecord> {
    let mut best: BTreeMap<String, &ScenarioRecord> = BTreeMap::new();
    for s in &rep.scenarios {
        if s.tag != "fw" {
            continue;
        }
        match best.get(&s.dataset) {
            Some(prev) if prev.walks >= s.walks => {}
            _ => {
                best.insert(s.dataset.clone(), s);
            }
        }
    }
    best
}

/// Mean speedup of an anchor cell, if it has a paired GraphWalker run.
fn anchor_speedup(s: &ScenarioRecord) -> Option<f64> {
    s.speedup_over_graphwalker.as_ref().map(|st| st.mean)
}

/// Re-check the EXPERIMENTS.md directional claims against one record.
/// Checks whose scenarios are absent from the record return
/// [`Verdict::Skip`] rather than guessing.
pub fn fidelity_checks(rep: &BenchReport, cfg: &CompareConfig) -> Vec<FidelityCheck> {
    let mut out = Vec::new();
    let anchors = fw_anchor_cells(rep);

    // Claim 1 (Fig 5, reproduction summary row 1): FlashWalker beats
    // GraphWalker on every measured cell.
    {
        let fw: Vec<(&str, f64)> = rep
            .scenarios
            .iter()
            .filter(|s| s.tag == "fw")
            .filter_map(|s| anchor_speedup(s).map(|sp| (s.name.as_str(), sp)))
            .collect();
        let check = if fw.is_empty() {
            FidelityCheck {
                claim: "FlashWalker beats GraphWalker everywhere".into(),
                verdict: Verdict::Skip,
                detail: "no paired fw/gw scenarios in this record".into(),
            }
        } else {
            let losers: Vec<String> = fw
                .iter()
                .filter(|(_, sp)| *sp <= 1.0)
                .map(|(name, sp)| format!("{name} ({sp:.2}x)"))
                .collect();
            FidelityCheck {
                claim: "FlashWalker beats GraphWalker everywhere".into(),
                verdict: if losers.is_empty() {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                },
                detail: if losers.is_empty() {
                    format!("{} cells, all speedups > 1", fw.len())
                } else {
                    format!("losing cells: {}", losers.join(", "))
                },
            }
        };
        out.push(check);
    }

    // Claim 2 (Fig 5): TT shows the smallest speedup — its graph fits
    // GraphWalker's memory, so the baseline is at its strongest there.
    {
        let claim = "TT shows the smallest speedup (graph fits baseline memory)";
        let check = match anchors.get("TT").map(|tt| (tt, anchor_speedup(tt))) {
            Some((tt, None)) => FidelityCheck {
                claim: claim.into(),
                verdict: Verdict::Skip,
                detail: format!("anchor cell {} has no paired gw run", tt.name),
            },
            Some((_, Some(tt_s))) if anchors.len() >= 2 => {
                let others: Vec<(&str, f64)> = anchors
                    .iter()
                    .filter(|(d, _)| d.as_str() != "TT")
                    .filter_map(|(d, s)| anchor_speedup(s).map(|sp| (d.as_str(), sp)))
                    .collect();
                if others.is_empty() {
                    FidelityCheck {
                        claim: claim.into(),
                        verdict: Verdict::Skip,
                        detail: "no other dataset anchor has a paired gw run".into(),
                    }
                } else {
                    let beaten: Vec<String> = others
                        .iter()
                        .filter(|(_, s)| *s < tt_s)
                        .map(|(d, s)| format!("{d} ({s:.2}x < {tt_s:.2}x)"))
                        .collect();
                    FidelityCheck {
                        claim: claim.into(),
                        verdict: if beaten.is_empty() {
                            Verdict::Pass
                        } else {
                            Verdict::Fail
                        },
                        detail: if beaten.is_empty() {
                            format!(
                                "TT {:.2}x ≤ {}",
                                tt_s,
                                others
                                    .iter()
                                    .map(|(d, s)| format!("{d} {s:.2}x"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            )
                        } else {
                            format!("datasets below TT: {}", beaten.join(", "))
                        },
                    }
                }
            }
            _ => FidelityCheck {
                claim: claim.into(),
                verdict: Verdict::Skip,
                detail: "needs TT plus at least one other dataset".into(),
            },
        };
        out.push(check);
    }

    // Claim 3 (Fig 5): larger graphs → larger speedups; CW (the largest
    // graph) must beat TT (the smallest).
    {
        let claim = "larger graphs see larger speedups (CW > TT)";
        let check = match (anchors.get("TT"), anchors.get("CW")) {
            (Some(tt), Some(cw)) => match (anchor_speedup(tt), anchor_speedup(cw)) {
                (Some(tt_s), Some(cw_s)) => FidelityCheck {
                    claim: claim.into(),
                    verdict: if cw_s > tt_s {
                        Verdict::Pass
                    } else {
                        Verdict::Fail
                    },
                    detail: format!("CW {cw_s:.2}x vs TT {tt_s:.2}x"),
                },
                (tt_sp, _) => {
                    let unpaired = if tt_sp.is_none() { &tt.name } else { &cw.name };
                    FidelityCheck {
                        claim: claim.into(),
                        verdict: Verdict::Skip,
                        detail: format!("anchor cell {unpaired} has no paired gw run"),
                    }
                }
            },
            _ => FidelityCheck {
                claim: claim.into(),
                verdict: Verdict::Skip,
                detail: "needs both CW and TT cells".into(),
            },
        };
        out.push(check);
    }

    // Claim 4 (Fig 9): the optimization stack never hurts — the
    // all-optimizations engine is at least as fast as the
    // no-optimization baseline on the same cell, within noise.
    {
        let pairs: Vec<(&ScenarioRecord, &ScenarioRecord)> = rep
            .scenarios
            .iter()
            .filter(|s| s.tag == "fw-base")
            .filter_map(|b| {
                rep.scenarios
                    .iter()
                    .find(|a| a.tag == "fw" && a.dataset == b.dataset && a.walks == b.walks)
                    .map(|a| (b, a))
            })
            .collect();
        let check = if pairs.is_empty() {
            FidelityCheck {
                claim: "optimizations never hurt (all-opts ≥ base, Fig 9 ordering)".into(),
                verdict: Verdict::Skip,
                detail: "no fw-base/fw cell pairs in this record".into(),
            }
        } else {
            let bad: Vec<String> = pairs
                .iter()
                .filter(|(b, a)| {
                    let noise = b
                        .sim_time_ns
                        .rel_spread()
                        .max(a.sim_time_ns.rel_spread())
                        .max(cfg.noise_floor);
                    (a.sim_time_ns.mean as f64) > b.sim_time_ns.mean as f64 * (1.0 + noise)
                })
                .map(|(b, a)| {
                    format!(
                        "{}: all-opts {:.3}ms vs base {:.3}ms",
                        a.name,
                        a.sim_time_ns.mean as f64 / 1e6,
                        b.sim_time_ns.mean as f64 / 1e6
                    )
                })
                .collect();
            FidelityCheck {
                claim: "optimizations never hurt (all-opts ≥ base, Fig 9 ordering)".into(),
                verdict: if bad.is_empty() {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                },
                detail: if bad.is_empty() {
                    format!("{} cell pair(s), ablation ordering holds", pairs.len())
                } else {
                    bad.join("; ")
                },
            }
        };
        out.push(check);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_json::{EnvFingerprint, StatF, StatU, SCHEMA};
    use fw_sim::Json;

    fn record(
        tag: &str,
        dataset: &str,
        walks: u64,
        mean_ns: u64,
        spread_ns: u64,
        speedup: Option<f64>,
    ) -> ScenarioRecord {
        ScenarioRecord {
            name: format!("{tag}/{dataset}/w{walks}"),
            tag: tag.into(),
            engine: if tag == "gw" {
                "graphwalker"
            } else {
                "flashwalker"
            }
            .into(),
            dataset: dataset.into(),
            walks,
            num_seeds: 3,
            sim_time_ns: StatU {
                mean: mean_ns,
                min: mean_ns - spread_ns,
                max: mean_ns + spread_ns,
            },
            speedup_over_graphwalker: speedup.map(|s| StatF {
                mean: s,
                min: s,
                max: s,
            }),
            report: Json::Obj(vec![]),
            trace: None,
            journeys: None,
            critical: None,
        }
    }

    fn report(scenarios: Vec<ScenarioRecord>) -> BenchReport {
        BenchReport {
            schema: SCHEMA.into(),
            label: "t".into(),
            env: EnvFingerprint {
                git_rev: "x".into(),
                config: "scaled".into(),
                graph_scale: 500,
                struct_scale: 16,
                suite: "ci".into(),
                seeds: vec![42, 43, 44],
                fault_profile: "none".into(),
                threads: 1,
                journeys: false,
                critical: false,
                workers: 1,
            },
            scenarios,
        }
    }

    fn sample() -> BenchReport {
        report(vec![
            record("gw", "TT", 1000, 50_000_000, 500_000, None),
            record("fw", "TT", 1000, 10_000_000, 100_000, Some(5.0)),
            record("gw", "CW", 2000, 900_000_000, 9_000_000, None),
            record("fw", "CW", 2000, 70_000_000, 700_000, Some(12.9)),
            record("fw-base", "TT", 1000, 19_000_000, 200_000, None),
        ])
    }

    #[test]
    fn thread_and_worker_counts_are_observer_keys() {
        // Neither the cell-pool width nor the schedule-neutral journey and
        // critical recorders change a simulated number, so a mismatch in
        // any of them is diffed, not refused — and the diff gates clean.
        let stamps: [fn(&mut EnvFingerprint); 4] = [
            |e| {
                e.threads = 4;
                e.workers = 2;
            },
            |e| e.journeys = true,
            |e| e.critical = true,
            |e| {
                e.journeys = true;
                e.critical = true;
            },
        ];
        for stamp in stamps {
            let base = sample();
            let mut cur = sample();
            stamp(&mut cur.env);
            for (b, c) in [(&base, &cur), (&cur, &base)] {
                let res = compare_reports(b, c, &CompareConfig::default())
                    .expect("observer keys never block a compare");
                assert!(!res.failed(), "{:?} vs {:?}", b.env, c.env);
            }
        }
    }

    #[test]
    fn self_compare_reports_zero_regressions_and_passes() {
        let rep = sample();
        let res = compare_reports(&rep, &rep, &CompareConfig::default()).unwrap();
        assert_eq!(res.rows.len(), 5);
        assert!(res
            .rows
            .iter()
            .all(|r| r.delta == 0.0 && r.verdict == Verdict::Pass));
        assert!(res.missing.is_empty() && res.added.is_empty());
        assert!(!res.failed());
        // Fidelity: wins everywhere, TT smallest, CW > TT, ablation ok.
        assert!(res.fidelity.iter().all(|f| f.verdict != Verdict::Fail));
        assert_eq!(res.fidelity.len(), 4);
    }

    #[test]
    fn slowdown_beyond_noise_fails_and_within_noise_passes() {
        let base = sample();
        let mut cur = sample();
        // 2× slowdown on fw/TT — way beyond the ~2% spread band.
        {
            let s = &mut cur.scenarios[1];
            s.sim_time_ns.mean *= 2;
            s.sim_time_ns.min *= 2;
            s.sim_time_ns.max *= 2;
        }
        let res = compare_reports(&base, &cur, &CompareConfig::default()).unwrap();
        let row = res.rows.iter().find(|r| r.name == "fw/TT/w1000").unwrap();
        assert_eq!(row.verdict, Verdict::Fail);
        assert!(res.failed());

        // A 1.5% slowdown sits inside the 2% noise floor.
        let mut mild = sample();
        {
            let s = &mut mild.scenarios[1];
            s.sim_time_ns.mean = (s.sim_time_ns.mean as f64 * 1.015) as u64;
        }
        let res = compare_reports(&base, &mild, &CompareConfig::default()).unwrap();
        let row = res.rows.iter().find(|r| r.name == "fw/TT/w1000").unwrap();
        assert_eq!(row.verdict, Verdict::Pass);
        assert!(!res.failed());
    }

    #[test]
    fn wider_seed_spread_widens_the_noise_band() {
        let base = sample();
        let mut cur = sample();
        // 8% slowdown, but the current record's seeds spread ±10%.
        {
            let s = &mut cur.scenarios[1];
            s.sim_time_ns.mean = 10_800_000;
            s.sim_time_ns.min = 9_700_000;
            s.sim_time_ns.max = 11_900_000;
        }
        let res = compare_reports(&base, &cur, &CompareConfig::default()).unwrap();
        let row = res.rows.iter().find(|r| r.name == "fw/TT/w1000").unwrap();
        assert!(row.noise > 0.15, "noise {}", row.noise);
        assert_ne!(row.verdict, Verdict::Fail);
    }

    #[test]
    fn fidelity_fails_when_graphwalker_wins_a_cell() {
        let mut rep = sample();
        rep.scenarios[1].speedup_over_graphwalker = Some(StatF {
            mean: 0.8,
            min: 0.8,
            max: 0.8,
        });
        let checks = fidelity_checks(&rep, &CompareConfig::default());
        assert_eq!(checks[0].verdict, Verdict::Fail);
        assert!(checks[0].detail.contains("fw/TT/w1000"));
    }

    #[test]
    fn fidelity_fails_when_tt_is_not_smallest() {
        let mut rep = sample();
        rep.scenarios[3].speedup_over_graphwalker = Some(StatF {
            mean: 2.0,
            min: 2.0,
            max: 2.0,
        });
        let checks = fidelity_checks(&rep, &CompareConfig::default());
        assert_eq!(checks[1].verdict, Verdict::Fail, "{}", checks[1].detail);
        assert_eq!(checks[2].verdict, Verdict::Fail, "CW > TT must also fail");
    }

    #[test]
    fn fidelity_skips_when_cells_are_absent() {
        let rep = report(vec![record("gw", "R2B", 100, 1_000, 0, None)]);
        let checks = fidelity_checks(&rep, &CompareConfig::default());
        assert!(checks.iter().all(|c| c.verdict == Verdict::Skip));
    }

    #[test]
    fn ablation_inversion_fails() {
        let mut rep = sample();
        // Make the all-opts engine slower than base on TT.
        rep.scenarios[1].sim_time_ns = StatU {
            mean: 25_000_000,
            min: 25_000_000,
            max: 25_000_000,
        };
        let checks = fidelity_checks(&rep, &CompareConfig::default());
        assert_eq!(checks[3].verdict, Verdict::Fail, "{}", checks[3].detail);
    }

    /// Regression: a largest-walks fw cell whose gw twin is absent used
    /// to be silently skipped during anchor selection, letting a smaller
    /// cell anchor the dataset (and, before that, the claim code
    /// unwrapped speedups that could be None). The anchor must stay on
    /// the largest cell and the cross-dataset claims must skip, not
    /// panic or quietly downgrade.
    #[test]
    fn unpaired_anchor_cells_skip_the_cross_dataset_claims() {
        let rep = report(vec![
            record("fw", "CW", 2000, 70_000_000, 700_000, None),
            record("fw", "CW", 1000, 40_000_000, 400_000, Some(12.0)),
            record("gw", "TT", 1000, 50_000_000, 500_000, None),
            record("fw", "TT", 1000, 10_000_000, 100_000, Some(5.0)),
        ]);
        let checks = fidelity_checks(&rep, &CompareConfig::default());
        // Claim 1 still judges the paired cells.
        assert_eq!(checks[0].verdict, Verdict::Pass, "{}", checks[0].detail);
        // Claims 2 and 3 anchor on fw/CW/w2000, which has no paired gw
        // run — they must skip rather than fall back to fw/CW/w1000.
        assert_eq!(checks[1].verdict, Verdict::Skip, "{}", checks[1].detail);
        assert!(checks[1].detail.contains("no other dataset anchor"));
        assert_eq!(checks[2].verdict, Verdict::Skip, "{}", checks[2].detail);
        assert!(checks[2].detail.contains("fw/CW/w2000"));
    }

    /// Pin the single-seed noise-band behavior: with one seed,
    /// `rel_spread()` is 0 and the band used to collapse to the bare 2%
    /// floor, gating *tighter* than a 3-seed record with real spread.
    /// The seed-count-aware floor widens single-seed rows by
    /// `single_seed_floor_mult` and flags them in the rendered table.
    #[test]
    fn single_seed_rows_get_a_widened_floor_and_a_warning() {
        // Zero-spread records: the only band evidence is the floor.
        let base = report(vec![record("fw", "TT", 1000, 100_000_000, 0, None)]);
        let mut cur = report(vec![record("fw", "TT", 1000, 105_000_000, 0, None)]);
        // 5% slowdown. With 3 seeds the floor stays 2%: 5% > 2×2% → Fail.
        let res = compare_reports(&base, &cur, &CompareConfig::default()).unwrap();
        assert!(!res.rows[0].single_seed);
        assert_eq!(res.rows[0].verdict, Verdict::Fail);

        // Same movement measured with one seed on the current side: the
        // floor widens to 4%, so 5% is a Warn (inside 2×4%), and the row
        // is flagged as weakly gated.
        cur.scenarios[0].num_seeds = 1;
        let res = compare_reports(&base, &cur, &CompareConfig::default()).unwrap();
        assert!(res.rows[0].single_seed);
        assert!((res.rows[0].noise - 0.04).abs() < 1e-12);
        assert_eq!(res.rows[0].verdict, Verdict::Warn);
        let text = res.render();
        assert!(text.contains("single-seed row"), "{text}");
        assert!(text.contains(" *"), "{text}");

        // A real measured spread still beats the widened floor.
        cur.scenarios[0].sim_time_ns = StatU {
            mean: 105_000_000,
            min: 95_000_000,
            max: 115_000_000,
        };
        let res = compare_reports(&base, &cur, &CompareConfig::default()).unwrap();
        assert!(res.rows[0].noise > 0.04);

        // Opting out (mult = 1.0) restores the collapsed band.
        cur.scenarios[0].sim_time_ns = StatU {
            mean: 105_000_000,
            min: 105_000_000,
            max: 105_000_000,
        };
        let cfg = CompareConfig {
            single_seed_floor_mult: 1.0,
            ..CompareConfig::default()
        };
        let res = compare_reports(&base, &cur, &cfg).unwrap();
        assert_eq!(res.rows[0].verdict, Verdict::Fail);
    }

    #[test]
    fn mismatched_fault_profiles_are_rejected() {
        let a = sample();
        let mut b = sample();
        b.env.fault_profile = "light".into();
        let err = compare_reports(&a, &b, &CompareConfig::default()).unwrap_err();
        assert!(err.contains("fault profile mismatch"), "{err}");
    }

    #[test]
    fn incompatible_records_are_rejected() {
        let a = sample();
        let mut b = sample();
        b.env.graph_scale = 100;
        assert!(compare_reports(&a, &b, &CompareConfig::default()).is_err());
    }

    #[test]
    fn coverage_changes_are_reported() {
        let base = sample();
        let mut cur = sample();
        cur.scenarios.remove(4);
        cur.scenarios
            .push(record("iter", "TT", 1000, 90_000_000, 0, Some(0.5)));
        let res = compare_reports(&base, &cur, &CompareConfig::default()).unwrap();
        assert_eq!(res.missing, vec!["fw-base/TT/w1000".to_string()]);
        assert_eq!(res.added, vec!["iter/TT/w1000".to_string()]);
        let text = res.render();
        assert!(text.contains("coverage shrank"));
        assert!(text.contains("no baseline"));
    }
}
