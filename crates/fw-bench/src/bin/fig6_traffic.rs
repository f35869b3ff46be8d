//! Figure 6: flash memory read-traffic reduction and achieved-bandwidth
//! improvement of FlashWalker over GraphWalker.
//!
//! Paper shapes to reproduce: ~17.21× bandwidth improvement and ~3.82×
//! read-traffic reduction on average across all tasks; **TT reads more
//! total data than GraphWalker** (parallelism overload on a small graph)
//! yet still wins on bandwidth; CW reads much less (finer subgraph
//! granularity + GraphWalker thrashing).
//!
//! `FW_SEEDS=N` repeats every cell over N seeds; the bandwidth
//! improvement column then reports mean and min–max spread.

use fw_bench::runner::walk_sweep;
use fw_bench::suite::{
    default_gw_memory, env_seeds, env_threads, run_suite, selected_datasets, Scenario, Suite,
};

fn main() {
    let mem = default_gw_memory();
    let mut scenarios = Vec::new();
    for id in selected_datasets() {
        let walks = *walk_sweep(id).last().unwrap();
        scenarios.push(Scenario::gw(id, walks, mem));
        scenarios.push(Scenario::fw(id, walks));
    }
    let suite = Suite {
        name: "fig6".into(),
        seeds: env_seeds(),
        scenarios,
        trace: false,
        faults: fw_fault::FaultProfile::none(),
        threads: env_threads(),
        journeys: false,
        critical: false,
    };
    let res = run_suite(&suite).expect("suite has seeds and scenarios");

    println!("dataset\twalks\tfw_read_MB\tgw_read_MB\ttraffic_reduction\tfw_bw_GBs\tgw_bw_GBs\tbw_improvement\tbw_min\tbw_max");
    let mut traffic = Vec::new();
    let mut bw = Vec::new();
    for r in res.results.iter().filter(|r| r.scenario.tag == "fw") {
        let gw = res
            .find("gw", r.scenario.dataset, r.scenario.walks)
            .expect("paired gw cell");
        // Per-seed ratios (engines at the same seed), summarized.
        let bw_imps: Vec<f64> = r
            .runs
            .iter()
            .zip(&gw.runs)
            .map(|(f, g)| f.report.read_bw / g.report.read_bw.max(1.0))
            .collect();
        let bw_mean = bw_imps.iter().sum::<f64>() / bw_imps.len() as f64;
        let bw_min = bw_imps.iter().cloned().fold(f64::MAX, f64::min);
        let bw_max = bw_imps.iter().cloned().fold(0.0, f64::max);
        let fwr = r.seed0();
        let gwr = gw.seed0();
        let t_red =
            gwr.traffic.flash_read_bytes as f64 / fwr.traffic.flash_read_bytes.max(1) as f64;
        println!(
            "{}\t{}\t{}\t{}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            r.scenario.dataset.abbrev(),
            r.scenario.walks,
            fwr.traffic.flash_read_bytes >> 20,
            gwr.traffic.flash_read_bytes >> 20,
            t_red,
            fwr.read_bw / 1e9,
            gwr.read_bw / 1e9,
            bw_mean,
            bw_min,
            bw_max
        );
        traffic.push(t_red);
        bw.push(bw_mean);
    }

    let gmean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!(
        "\nsummary (geo-mean): traffic reduction {:.2}x (paper avg 3.82x at smaller counts, 1.23x at max), bandwidth improvement {:.2}x (paper avg 17.21x, 33.44x at max)",
        gmean(&traffic),
        gmean(&bw)
    );
}
