//! What the benchmark runs and reports: its workloads and metrics.
//!
//! `BENCHMARK.json` at the repository root is a rendering of these tables;
//! `tests/benchmark_json.rs` fails when the two drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fw_graph::DatasetId;

use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// DeepWalk batch cells on one dataset: FlashWalker and GraphWalker,
    /// plus FlashWalker with every optimization off when `ablation` is set.
    Batch {
        /// The Table IV stand-in graph.
        dataset: DatasetId,
        /// Walks per cell.
        walks: u64,
        /// Whether the `fw-base` cell runs.
        ablation: bool,
    },
    /// The `fw-serve` rate ladder on the Twitter stand-in.
    Serve,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses that the others do not.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "tt-400k",
        why: "TT stand-in, 400k walks: 4 events per hop in one partition with no spills, so the FlashWalker event loop dominates host time",
        kind: Kind::Batch {
            dataset: DatasetId::Twitter,
            walks: 400_000,
            ablation: false,
        },
    },
    WorkloadDef {
        name: "r2b-300k",
        why: "R2B RMAT graph, 300k walks, plus FlashWalker with WQ/HS/SS off: the only run of the unoptimized scheduler, giving the Fig. 9 ablation",
        kind: Kind::Batch {
            dataset: DatasetId::Rmat2B,
            walks: 300_000,
            ablation: true,
        },
    },
    WorkloadDef {
        name: "cw-2m",
        why: "CW stand-in, 2M walks: graph generation is most of the wall time, and it is the only run with 8-byte ids, partition switches and foreigner pages",
        kind: Kind::Batch {
            dataset: DatasetId::ClueWeb,
            walks: 2_000_000,
            ablation: false,
        },
    },
    WorkloadDef {
        name: "serve-tt",
        why: "fw-serve on TT at fixed open-loop rates: thousands of small single-source engine runs, admission, batching and the walk cache",
        kind: Kind::Serve,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports all of them.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_walks_per_s",
        unit: "walks/s",
        better: Better::Higher,
        bound: 0.15,
    },
];

/// A per-layer metric, with the end-to-end metric it should move and the
/// workload on which it should move it most.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric this layer metric should move.
    pub moves: &'static str,
    /// The workload on which it should move it.
    pub on: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// The per-layer metrics, grouped by layer. A workload that does not
/// exercise a layer reports its metrics as 0.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // fw-graph: dataset generation and partitioning.
    pl("graph.generate_s", "s", Lower, "setup_s", "cw-2m"),
    pl("graph.partition_s", "s", Lower, "setup_s", "cw-2m"),
    pl("graph.medges_per_s", "Medges/s", Higher, "setup_s", "cw-2m"),
    // flashwalker, host cost of the simulator.
    pl("fw.new_s", "s", Lower, "run_s", "serve-tt"),
    pl("fw.run_s", "s", Lower, "run_s", "tt-400k"),
    pl("fw.events", "count", Lower, "run_s", "tt-400k"),
    pl("fw.events_per_hop", "events/hop", Lower, "run_s", "tt-400k"),
    pl("fw.ns_per_event", "ns", Lower, "run_s", "tt-400k"),
    pl("fw_base.run_s", "s", Lower, "run_s", "r2b-300k"),
    pl("fw_base.events", "count", Lower, "run_s", "r2b-300k"),
    pl("fw_base.ns_per_event", "ns", Lower, "run_s", "r2b-300k"),
    // flashwalker, the simulated hierarchy (exact for a seed).
    pl("fw.sim_ms", "ms", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.speedup_vs_gw", "x", Higher, "sim_walks_per_s", "cw-2m"),
    pl("fw.chip_hop_frac", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    pl("fw.chan_hop_frac", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    pl("fw.board_hop_frac", "ratio", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.sg_loads", "count", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.walks_per_load", "walks", Higher, "sim_walks_per_s", "tt-400k"),
    pl("fw.mean_load_us", "us", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.load_array_frac", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    pl("fw.load_fetch_frac", "ratio", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.load_spill_frac", "ratio", Lower, "sim_walks_per_s", "cw-2m"),
    pl("fw.pwb_spill_pages", "pages", Lower, "sim_walks_per_s", "cw-2m"),
    pl("fw.foreign_pages", "pages", Lower, "sim_walks_per_s", "cw-2m"),
    pl("fw.partition_switches", "count", Lower, "sim_walks_per_s", "cw-2m"),
    pl("fw.query_cache_hit_ratio", "ratio", Higher, "sim_walks_per_s", "r2b-300k"),
    pl("fw.fill_no_slot", "count", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.fill_no_candidate", "count", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.chip_busy_ms", "ms", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.chan_busy_ms", "ms", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.board_busy_ms", "ms", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.channel_util", "ratio", Lower, "sim_walks_per_s", "r2b-300k"),
    pl("fw.channel_wait_ns", "ns", Lower, "sim_walks_per_s", "r2b-300k"),
    pl("fw.flash_read_mb", "MB", Lower, "sim_walks_per_s", "tt-400k"),
    pl("fw.flash_write_mb", "MB", Lower, "sim_walks_per_s", "cw-2m"),
    pl("fw.channel_mb", "MB", Lower, "sim_walks_per_s", "r2b-300k"),
    pl("fw_base.opt_speedup", "x", Higher, "sim_walks_per_s", "r2b-300k"),
    // graphwalker, host cost of the baseline.
    pl("gw.run_s", "s", Lower, "run_s", "cw-2m"),
    // fw-serve: per-query latency on the virtual timeline.
    pl("serve.p99_ms.r1000", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.p99_ms.r2000", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.p99_ms.r3000", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.p99_ms.r4000", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.p99_ms.r5000", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.p99_ms.r6000", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.refused_frac.r1000", "ratio", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.refused_frac.r2000", "ratio", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.refused_frac.r3000", "ratio", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.refused_frac.r4000", "ratio", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.refused_frac.r5000", "ratio", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.refused_frac.r6000", "ratio", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.p50_ms", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.max_qps", "qps", Higher, "sim_walks_per_s", "serve-tt"),
    pl("serve.bursty_p99_ms", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.bursty_refused_frac", "ratio", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.wait_p99_ms", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.service_p99_ms", "ms", Lower, "sim_walks_per_s", "serve-tt"),
    pl("serve.tail_wait_share", "ratio", Lower, "sim_walks_per_s", "serve-tt"),
    // fw-serve: host cost of the ladder.
    pl("serve.engine_runs", "count", Lower, "run_s", "serve-tt"),
    pl("serve.batches", "count", Lower, "run_s", "serve-tt"),
    pl("serve.cache_hit_ratio", "ratio", Higher, "run_s", "serve-tt"),
    pl("serve.host_ms_per_engine_run", "ms", Lower, "run_s", "serve-tt"),
    // Traced FlashWalker run (fw-trace over fw-nand, fw-dram and the
    // accelerator levels): mean utilization per component group...
    pl("util.flash.read", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    pl("util.plane", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    pl("util.channel.bus", "ratio", Higher, "sim_walks_per_s", "r2b-300k"),
    pl("util.dram.access", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    pl("util.chip.batch", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    pl("util.chan.batch", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    pl("util.board.batch", "ratio", Higher, "sim_walks_per_s", "tt-400k"),
    // ...the share of the critical path per component...
    pl("crit.sg.load", "ratio", Lower, "sim_walks_per_s", "tt-400k"),
    pl("crit.chip.batch", "ratio", Lower, "sim_walks_per_s", "tt-400k"),
    pl("crit.chan.batch", "ratio", Lower, "sim_walks_per_s", "tt-400k"),
    pl("crit.chan.bus", "ratio", Lower, "sim_walks_per_s", "r2b-300k"),
    pl("crit.board.batch", "ratio", Lower, "sim_walks_per_s", "tt-400k"),
    // ...and what tracing costs: the instrumented sites sit on the
    // untraced run_s path too.
    pl("trace.overhead_x", "x", Lower, "run_s", "tt-400k"),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record a value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Report every per-layer metric whose name starts with `prefix` as 0:
    /// the workload does not exercise that layer.
    pub fn not_exercised(&mut self, prefix: &str) {
        for m in PER_LAYER.iter().filter(|m| m.name.starts_with(prefix)) {
            self.set(m.name, 0.0);
        }
    }

    /// The `(name, value, unit)` rows of one output mode, in table order.
    /// Errors name any declared metric that was not recorded, any recorded
    /// name that is not declared, and any value that is not finite.
    pub fn select(
        &self,
        per_layer: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let rows: Vec<(&'static str, &'static str)> = if per_layer {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut errors = Vec::new();
        for name in self.0.keys() {
            let declared = END_TO_END.iter().any(|m| m.name == name)
                || PER_LAYER.iter().any(|m| m.name == name);
            if !declared {
                errors.push(format!("{name} is recorded but not declared"));
            }
        }
        let mut out = Vec::new();
        for (name, unit) in rows {
            match self.get(name) {
                Some(v) if v.is_finite() => out.push((name, v, unit)),
                Some(v) => errors.push(format!("{name} is not finite: {v}")),
                None => errors.push(format!("{name} is declared but not recorded")),
            }
        }
        if errors.is_empty() {
            Ok(out)
        } else {
            Err(errors.join("; "))
        }
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&'static str, f64, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `{}` on f64 prints the shortest digits that read back as the
        // same value, never in exponent form.
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_reports_missing_unknown_and_non_finite() {
        let mut m = Metrics::default();
        for e in END_TO_END {
            m.set(e.name, 1.5);
        }
        let rows = m.select(false).expect("all end-to-end metrics set");
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(m.select(true).is_err(), "per-layer metrics are missing");

        m.set("run_s", f64::NAN);
        m.set("no.such.metric", 1.0);
        let err = m.select(false).unwrap_err();
        assert!(err.contains("run_s is not finite"), "{err}");
        assert!(
            err.contains("no.such.metric is recorded but not declared"),
            "{err}"
        );
    }

    #[test]
    fn not_exercised_zeroes_one_layer() {
        let mut m = Metrics::default();
        m.not_exercised("serve.");
        assert_eq!(m.get("serve.max_qps"), Some(0.0));
        assert_eq!(m.get("fw.sim_ms"), None);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 10, 0, &[("run_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"run_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
    }
}
