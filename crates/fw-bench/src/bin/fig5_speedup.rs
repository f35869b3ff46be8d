//! Figure 5: FlashWalker speedup over GraphWalker at varied walk counts.
//!
//! The paper reports 4.79×–660.50× (51.56× average), with larger graphs
//! showing larger speedups. Datasets run in parallel (one thread each);
//! walk counts sweep {max/8, max/4, max/2, max} per dataset, where max is
//! the paper's count scaled by 1/500 (10⁹ for CW, 4×10⁸ otherwise).
//!
//! `FW_DATASETS=TT,FS` restricts the dataset set (useful for quick
//! runs); `FW_SEEDS=N` repeats every cell over N seeds and reports
//! mean and min–max spread. Both knobs, and the grid execution itself,
//! come from the shared suite runner (`fw_bench::suite`).

use fw_bench::runner::walk_sweep;
use fw_bench::suite::{
    default_gw_memory, env_seeds, env_threads, run_suite, selected_datasets, Scenario, Suite,
};

fn main() {
    let mem = default_gw_memory();
    let mut scenarios = Vec::new();
    for id in selected_datasets() {
        for walks in walk_sweep(id) {
            scenarios.push(Scenario::gw(id, walks, mem));
            scenarios.push(Scenario::fw(id, walks));
        }
    }
    let suite = Suite {
        name: "fig5".into(),
        seeds: env_seeds(),
        scenarios,
        trace: false,
        faults: fw_fault::FaultProfile::none(),
        threads: env_threads(),
        journeys: false,
        critical: false,
    };
    let res = run_suite(&suite).expect("suite has seeds and scenarios");

    println!("dataset\twalks\tfw_time\tgw_time\tspeedup\tmin\tmax");
    let mut speedups = Vec::new();
    for r in res.results.iter().filter(|r| r.scenario.tag == "fw") {
        let gw = res
            .find("gw", r.scenario.dataset, r.scenario.walks)
            .expect("every fw cell has a paired gw cell");
        let s = r.speedup_stat().expect("paired speedups");
        println!(
            "{}\t{}\t{}\t{}\t{:.2}\t{:.2}\t{:.2}",
            r.scenario.dataset.abbrev(),
            r.scenario.walks,
            r.seed0().time,
            gw.seed0().time,
            s.mean,
            s.min,
            s.max
        );
        speedups.push(s.mean);
    }
    let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    println!(
        "\nsummary: min {min:.2}x  max {max:.2}x  avg {avg:.2}x   (paper: 4.79x / 660.50x / 51.56x)"
    );
}
