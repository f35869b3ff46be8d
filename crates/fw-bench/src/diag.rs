//! The reports of `fwbench trace` and `fwbench diag`: the engine
//! scenarios they run, the per-optimization statistics dump, and the
//! side-by-side utilization and queue-depth rows.

use std::fmt::Write;

use flashwalker::{FwReport, OptToggles};
use fw_graph::DatasetId;
use fw_sim::export::trace_summary_json;
use fw_sim::{Json, TraceReport};

use crate::suite::{default_gw_memory, toggles, Scenario};

/// Eq. 1's α in diag's per-optimization dump. §IV-E sets α = 0.4 "to
/// reduce the burden on the channel bus"; the dump keeps that setting so
/// its rows show the §IV-E configuration, where the Fig. 9 suite runs at
/// the default α = 1.2 (EXPERIMENTS.md records the deviation).
pub const DIAG_ALPHA: f64 = 0.4;

/// The optimization configurations of diag's statistics dump: none, each
/// of WQ, HS and SS alone, and all three.
pub const DIAG_CONFIGS: [(&str, OptToggles); 5] = [
    ("base", toggles(false, false, false)),
    ("WQ", toggles(true, false, false)),
    ("HS", toggles(false, true, false)),
    ("SS", toggles(false, false, true)),
    ("all", toggles(true, true, true)),
];

/// The engine tags `fwbench trace` takes and `fwbench diag` compares.
pub const ENGINES: [&str; 3] = ["fw", "gw", "iter"];

/// The scenario `fwbench trace` and `fwbench diag` run for an engine tag
/// of [`ENGINES`], or `None` for any other tag. GraphWalker gets the
/// host memory every suite gives it, [`default_gw_memory`].
pub fn engine_scenario(engine: &str, id: DatasetId, walks: u64) -> Option<Scenario> {
    match engine {
        "fw" => Some(Scenario::fw(id, walks)),
        "gw" => Some(Scenario::gw(id, walks, default_gw_memory())),
        "iter" => Some(Scenario::iter(id, walks)),
        _ => None,
    }
}

/// One engine's per-component-group utilization and queue-depth rows,
/// prefixed with the engine tag so the blocks read side by side under a
/// shared header.
pub fn trace_rows(tag: &str, t: &TraceReport) -> String {
    let mut out = String::new();
    let mut groups: Vec<&str> = t.components.iter().map(|c| c.name.as_str()).collect();
    groups.dedup(); // components are sorted by (name, lane)
    for name in groups {
        let _ = writeln!(
            out,
            "{tag}\t{name}\tutil={:5.1}%\tbusy={}ms\tbytes={}MiB\tops={}",
            t.mean_util_for(name) * 100.0,
            t.busy_ns_for(name) / 1_000_000,
            t.bytes_for(name) >> 20,
            t.utils_for(name).iter().map(|c| c.count).sum::<u64>(),
        );
    }
    for q in &t.queue_depths {
        let _ = writeln!(
            out,
            "{tag}\t{}\tmean_depth={:.1}\tpeak_depth={:.1}",
            q.name,
            q.overall_mean(),
            q.peak()
        );
    }
    if let Some((name, util)) = t.bottleneck() {
        let _ = writeln!(out, "{tag}\tbottleneck\t{name}\t{:.1}%", util * 100.0);
    }
    out
}

/// The `fwdiag/v1` document: each engine's trace summary.
pub fn diag_json(id: DatasetId, walks: u64, traces: &[(&str, TraceReport)]) -> Json {
    let engines = traces.iter().map(|(tag, t)| {
        Json::obj(vec![
            ("engine", Json::s(tag)),
            ("trace", trace_summary_json(t)),
        ])
    });
    Json::obj(vec![
        ("schema", Json::s("fwdiag/v1")),
        ("dataset", Json::s(id.abbrev())),
        ("walks", Json::u(walks)),
        ("engines", Json::Arr(engines.collect())),
    ])
}

/// One configuration's row of diag's statistics dump.
pub fn stats_row(name: &str, r: &FwReport) -> String {
    let s = &r.stats;
    let per_load = |ns: u64| ns / s.sg_loads.max(1) / 1000;
    format!(
        "{name}\ttime={}\thops={} (chip {} chan {} board {})\troving={}\tloads={}\tdeliv={}\tprobes={}\tcache={}h/{}m\tpwb_spill={}\tforeign={}\tchan_util={:.2}\tbusy(chip/chan/board)={}/{}/{}ms dram={}ms map={}ms\tbatches(c/ch/b)={}/{}/{}\tfill(noslot/nocand)={}/{}\tload_lat={}us (arr {} fetch {} spill {}) walks/load={:.0}\tchan_wait={}us/xfer\n",
        r.time,
        s.hops,
        s.chip_hops,
        s.chan_hops,
        s.board_hops,
        s.roving,
        s.sg_loads,
        s.deliveries,
        s.map_probes,
        s.cache_hits,
        s.cache_misses,
        s.pwb_spill_pages,
        s.foreign_pages,
        r.channel_util,
        s.chip_busy_ns / 1_000_000,
        s.chan_busy_ns / 1_000_000,
        s.board_busy_ns / 1_000_000,
        s.board_dram_ns / 1_000_000,
        s.board_map_ns / 1_000_000,
        s.chip_batches,
        s.chan_batches,
        s.board_batches,
        s.fill_no_slot,
        s.fill_no_candidate,
        per_load(s.load_latency_ns),
        per_load(s.load_array_ns),
        per_load(s.load_fetch_ns),
        per_load(s.load_spill_ns),
        s.load_walks as f64 / s.sg_loads.max(1) as f64,
        r.channel_wait_ns / 1000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::EngineKind;

    #[test]
    fn trace_and_diag_baselines_get_the_suite_memory() {
        for tag in ENGINES {
            let sc = engine_scenario(tag, DatasetId::Rmat2B, 2000).expect(tag);
            assert_eq!(sc.tag, tag);
            assert_eq!(sc.name(), format!("{tag}/R2B/w2000"));
            if sc.engine == EngineKind::Graphwalker {
                assert_eq!(sc.gw_memory, default_gw_memory(), "{tag}");
                assert_eq!(sc.gw_memory, (8u64 << 30) / fw_graph::datasets::GRAPH_SCALE);
            }
        }
        assert!(engine_scenario("fw-base", DatasetId::Twitter, 1).is_none());
    }
}
