//! Figure 7: FlashWalker speedup over GraphWalker with varied host DRAM
//! capacities (the paper's 4 / 8 / 16 GB, scaled by 1/500).
//!
//! Paper shapes: speedup grows as GraphWalker's memory shrinks (4 GB
//! emulates a larger graph); TT barely changes at 16 GB because the graph
//! already fits at 8 GB; for CW even 16 GB is far below the graph size so
//! the speedup stays high.
//!
//! `FW_SEEDS=N` repeats every cell over N seeds and adds min–max spread
//! columns; `FW_DATASETS` restricts the dataset grid.

use fw_bench::runner::walk_sweep;
use fw_bench::suite::{env_seeds, env_threads, run_suite, selected_datasets, Scenario, Suite};
use fw_graph::datasets::GRAPH_SCALE;

fn main() {
    let mems: Vec<(u64, &str)> = vec![
        ((4u64 << 30) / GRAPH_SCALE, "4GB"),
        ((8u64 << 30) / GRAPH_SCALE, "8GB"),
        ((16u64 << 30) / GRAPH_SCALE, "16GB"),
    ];
    let mut scenarios = Vec::new();
    for id in selected_datasets() {
        let walks = *walk_sweep(id).last().unwrap();
        for &(m, label) in &mems {
            let variant = format!("/m{label}");
            scenarios.push(Scenario::gw(id, walks, m).with_variant(&variant));
            scenarios.push(Scenario::fw(id, walks).with_variant(&variant));
        }
    }
    let suite = Suite {
        name: "fig7".into(),
        seeds: env_seeds(),
        scenarios,
        trace: false,
        faults: fw_fault::FaultProfile::none(),
        threads: env_threads(),
        journeys: false,
        critical: false,
    };
    let res = run_suite(&suite).expect("suite has seeds and scenarios");

    // Results keep suite order: dataset outer, memory sweep inner.
    println!("dataset\twalks\tmem\tfw_time\tgw_time\tspeedup\tmin\tmax");
    for r in res.results.iter().filter(|r| r.scenario.tag == "fw") {
        let gw = res
            .find_name(&format!(
                "gw/{}/w{}{}",
                r.scenario.dataset.abbrev(),
                r.scenario.walks,
                r.scenario.variant
            ))
            .expect("paired gw cell");
        let s = r.speedup_stat().expect("paired speedups");
        println!(
            "{}\t{}\t{}\t{}\t{}\t{:.2}\t{:.2}\t{:.2}",
            r.scenario.dataset.abbrev(),
            r.scenario.walks,
            r.scenario.variant.trim_start_matches("/m"),
            r.seed0().time,
            gw.seed0().time,
            s.mean,
            s.min,
            s.max
        );
    }
}
