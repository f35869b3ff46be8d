//! The reports of `fwbench fig`, `table`, `energy`, `three-way`,
//! `ablation` and `smoke`: each returns the TSV its subcommand prints.
//!
//! Suite-backed reports (Figs. 5, 6, 7, 9, the three-way comparison and
//! the smoke cell) render from the in-memory [`SuiteResult`] of a
//! [`Suite::named`](crate::suite::Suite::named) grid. Fig. 1, Fig. 8,
//! the energy table and the model ablation need engine-native counters
//! (the GraphWalker breakdown, per-window series, energy inputs, load
//! stats) that a unified [`fw_walk::RunReport`] does not carry, so they
//! run [`run_flashwalker`] / [`run_graphwalker`] themselves.

use std::fmt::Write;

use flashwalker::area::AreaReport;
use flashwalker::energy::{flashwalker_energy, graphwalker_energy, graphwalker_report::GwLike};
use flashwalker::AccelConfig;
use fw_dram::DramConfig;
use fw_graph::DatasetId;
use fw_nand::SsdConfig;
use fw_sim::WorkerPool;

use crate::chart::chart_row;
use crate::runner::{prepared, run_flashwalker, run_graphwalker, DEFAULT_SEED};
use crate::suite::{default_gw_memory, SuiteResult};

/// Mean, min and max of a non-empty sample.
fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let min = xs.iter().cloned().fold(f64::MAX, f64::min);
    let max = xs.iter().cloned().fold(f64::MIN, f64::max);
    (mean, min, max)
}

/// Figure 1: GraphWalker's time-cost breakdown on the scaled ClueWeb
/// stand-in at its default walk count. The paper's motivating
/// observation: "time spent on loading graph structure data still
/// accounts for the majority of total execution time".
pub fn fig1() -> String {
    let id = DatasetId::ClueWeb;
    eprintln!("generating {} …", id.abbrev());
    let p = prepared(id, DEFAULT_SEED);
    let walks = id.default_walks();
    let mem = default_gw_memory();
    eprintln!(
        "running GraphWalker: {walks} walks, {} MB memory …",
        mem >> 20
    );
    let r = run_graphwalker(&p, walks, mem, DEFAULT_SEED);

    let b = r.breakdown;
    let total = b.total().as_nanos().max(1) as f64;
    let mut out = String::from("category\ttime\tfraction\n");
    for (name, t) in [
        ("load graph", b.load_graph),
        ("update walks", b.update_walks),
        ("walk I/O", b.walk_io),
        ("other", b.other),
    ] {
        let pct = t.as_nanos() as f64 / total * 100.0;
        let _ = writeln!(out, "{name}\t{t}\t{pct:.1}%");
    }
    let _ = writeln!(out, "total\t{}\t100%", r.time);
    let _ = writeln!(
        out,
        "\nblock loads: {}  flash read: {} MB  walk spills: {}",
        r.block_loads,
        r.flash_read_bytes >> 20,
        r.walk_spills
    );
    let _ = writeln!(
        out,
        "paper shape check: load fraction {:.1}% (paper: majority of total time)",
        b.load_fraction() * 100.0
    );
    out
}

/// Figure 5 over the `fig5` suite: FlashWalker's speedup over
/// GraphWalker at each walk count, mean and min–max over seeds. The
/// paper reports 4.79×–660.50× (51.56× average), with larger graphs
/// showing larger speedups.
pub fn fig5(res: &SuiteResult) -> String {
    let mut out = String::from("dataset\twalks\tfw_time\tgw_time\tspeedup\tmin\tmax\n");
    let mut speedups = Vec::new();
    for r in res.results.iter().filter(|r| r.scenario.tag == "fw") {
        let gw = res
            .find("gw", r.scenario.dataset, r.scenario.walks)
            .expect("every fw cell has a paired gw cell");
        let s = r.speedup_stat().expect("paired speedups");
        let _ = writeln!(
            out,
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
    let _ = writeln!(
        out,
        "\nsummary: min {min:.2}x  max {max:.2}x  avg {avg:.2}x   (paper: 4.79x / 660.50x / 51.56x)"
    );
    out
}

/// Figure 6 over the `fig6` suite: flash read-traffic reduction and
/// achieved-bandwidth improvement of FlashWalker over GraphWalker; the
/// bandwidth improvement is a per-seed ratio, mean and min–max.
///
/// Paper shapes: ~17.21× bandwidth improvement and ~3.82× read-traffic
/// reduction on average; TT reads more total data than GraphWalker yet
/// still wins on bandwidth; CW reads much less.
pub fn fig6(res: &SuiteResult) -> String {
    let mut out = String::from("dataset\twalks\tfw_read_MB\tgw_read_MB\ttraffic_reduction\tfw_bw_GBs\tgw_bw_GBs\tbw_improvement\tbw_min\tbw_max\n");
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
        let (bw_mean, bw_min, bw_max) = spread(&bw_imps);
        let (fwr, gwr) = (r.seed0(), gw.seed0());
        let t_red =
            gwr.traffic.flash_read_bytes as f64 / fwr.traffic.flash_read_bytes.max(1) as f64;
        let _ = writeln!(
            out,
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
    let _ = writeln!(
        out,
        "\nsummary (geo-mean): traffic reduction {:.2}x (paper avg 3.82x at smaller counts, 1.23x at max), bandwidth improvement {:.2}x (paper avg 17.21x, 33.44x at max)",
        gmean(&traffic),
        gmean(&bw)
    );
    out
}

/// Figure 7 over the `fig7` suite: the speedup with GraphWalker's host
/// memory at the paper's 4 / 8 / 16 GB, graph-scaled. Paper shapes: the
/// speedup grows as the baseline's memory shrinks; TT barely changes at
/// 16 GB; CW stays high since even 16 GB is far below its graph size.
pub fn fig7(res: &SuiteResult) -> String {
    // Results keep suite order: dataset outer, memory sweep inner.
    let mut out = String::from("dataset\twalks\tmem\tfw_time\tgw_time\tspeedup\tmin\tmax\n");
    for r in res.results.iter().filter(|r| r.scenario.tag == "fw") {
        let sc = &r.scenario;
        let gw_name = format!("gw/{}/w{}{}", sc.dataset.abbrev(), sc.walks, sc.variant);
        let gw = res.find_name(&gw_name).expect("paired gw cell");
        let s = r.speedup_stat().expect("paired speedups");
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{:.2}\t{:.2}\t{:.2}",
            sc.dataset.abbrev(),
            sc.walks,
            sc.variant.trim_start_matches("/m"),
            r.seed0().time,
            gw.seed0().time,
            s.mean,
            s.min,
            s.max
        );
    }
    out
}

/// Figure 8: FlashWalker's flash read, flash write and channel-bus
/// bandwidth and walk completion over time, in 1 ms windows, at each
/// dataset's maximum walk count, over all five datasets (run on
/// `threads` workers).
/// Terminal charts of the same series go to stderr.
///
/// Paper shapes: channel bandwidth saturates near its ~10.4 GB/s
/// aggregate ceiling for TT/FS/R8B while flash read bandwidth stays
/// below its ceiling; write bandwidth is tiny; CW finishes ~90% of walks
/// quickly and spends the long tail on stragglers.
pub fn fig8(threads: u32) -> String {
    let ceiling = SsdConfig::paper().aggregate_channel_bw() as f64 / 1e9;
    let mut out = format!("# channel-bus aggregate ceiling: {ceiling:.2} GB/s\n");
    out.push_str("dataset\twindow_ms\tread_GBs\twrite_GBs\tchannel_GBs\tdone_pct\n");

    let pool = WorkerPool::new(threads as usize);
    let rows = pool.map_ordered(DatasetId::ALL.to_vec(), |_, id| {
        let p = prepared(id, DEFAULT_SEED);
        let walks = id.default_walks();
        eprintln!("[{}] {} walks …", id.abbrev(), walks);
        let r = run_flashwalker(&p, walks, AccelConfig::scaled(), DEFAULT_SEED);
        (id, walks, r)
    });
    for (id, walks, r) in rows {
        let w_s = r.trace_window_ns as f64 / 1e9;
        let n = r
            .read_bytes_series
            .len()
            .max(r.channel_bytes_series.len())
            .max(r.progress.len());
        let mut done = 0.0;
        for i in 0..n {
            let get = |v: &Vec<f64>| v.get(i).copied().unwrap_or(0.0);
            done += get(&r.progress);
            let _ = writeln!(
                out,
                "{}\t{:.1}\t{:.2}\t{:.3}\t{:.2}\t{:.1}",
                id.abbrev(),
                i as f64 * w_s * 1e3,
                get(&r.read_bytes_series) / w_s / 1e9,
                get(&r.write_bytes_series) / w_s / 1e9,
                get(&r.channel_bytes_series) / w_s / 1e9,
                done / walks as f64 * 100.0
            );
        }
        // Terminal-friendly summary (per-window GB/s, channel scaled to
        // its aggregate ceiling).
        let gbs = |v: &[f64]| -> Vec<f64> { v.iter().map(|b| b / w_s / 1e9).collect() };
        let read = gbs(&r.read_bytes_series);
        let read_max = read.iter().cloned().fold(0.0, f64::max);
        let cum: Vec<f64> = r
            .progress
            .iter()
            .scan(0.0, |acc, v| {
                *acc += v;
                Some(*acc)
            })
            .collect();
        eprintln!("\n[{}] {} walks, {}:", id.abbrev(), walks, r.time);
        for (label, series, max, unit) in [
            ("flash read", read, read_max, " GB/s"),
            ("flash write", gbs(&r.write_bytes_series), read_max, " GB/s"),
            (
                "channel bus",
                gbs(&r.channel_bytes_series),
                ceiling,
                " GB/s",
            ),
            ("done", cum, walks as f64, " walks"),
        ] {
            eprintln!("  {}", chart_row(label, &series, max, 60, unit));
        }
    }
    out
}

/// Figure 9 over the `fig9` suite: each incremental §IV-E configuration's
/// gain over the no-optimization baseline, per seed, mean and min–max.
///
/// Paper shapes: WQ helps FS/R2B/R8B by 13–18% but TT only ~5%; HS
/// mainly helps TT; SS adds up to ~21% cumulative; CW barely moves.
/// §IV-E sets α = 0.4 "to reduce the burden on the channel bus"; in our
/// model that inverts Eq. 1's intent, so the suite runs at the paper's
/// stated default α = 1.2 (EXPERIMENTS.md records this deviation).
pub fn fig9(res: &SuiteResult) -> String {
    let mut out = String::from("dataset\tconfig\ttime\tspeedup_vs_base\tmin\tmax\n");
    for r in &res.results {
        let base = res
            .find("base", r.scenario.dataset, r.scenario.walks)
            .expect("base configuration present");
        // Per-seed gains over the no-optimization baseline at the same
        // seed.
        let gains: Vec<f64> = r
            .runs
            .iter()
            .zip(&base.runs)
            .map(|(c, b)| {
                b.report.time.as_nanos() as f64 / c.report.time.as_nanos().max(1) as f64 - 1.0
            })
            .collect();
        let (mean, min, max) = spread(&gains);
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{:+.2}%\t{:+.2}%\t{:+.2}%",
            r.scenario.dataset.abbrev(),
            r.scenario.tag,
            r.seed0().time,
            mean * 100.0,
            min * 100.0,
            max * 100.0
        );
    }
    out
}

/// The three-way comparison over the `three-way` suite — the §II
/// hierarchy of the paper's argument on one SSD model: (1)
/// iteration-synchronous out-of-core (GraphChi / DrunkardMob style) <
/// (2) GraphWalker's asynchronous updating < (3) FlashWalker's in-storage
/// hierarchy. (2) wins over (1) on avoided walk write-backs and graph
/// re-reads; (3) over (2) by keeping graph data off PCIe and the channel
/// buses.
pub fn three_way(res: &SuiteResult) -> String {
    let mut out = String::from(
        "dataset\twalks\titerative\tgraphwalker\tflashwalker\tgw_vs_iter\tfw_vs_gw\tfw_vs_iter\n",
    );
    for fw in res.results.iter().filter(|r| r.scenario.tag == "fw") {
        let (id, walks) = (fw.scenario.dataset, fw.scenario.walks);
        let iter = res.find("iter", id, walks).expect("iter cell").seed0();
        let gw = res.find("gw", id, walks).expect("gw cell").seed0();
        let fw = fw.seed0();
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{:.2}\t{:.2}\t{:.2}",
            id.abbrev(),
            walks,
            iter.time,
            gw.time,
            fw.time,
            gw.speedup_over(iter),
            fw.speedup_over(gw),
            fw.speedup_over(iter)
        );
    }
    out
}

/// The smoke check over a [`Suite::single`](crate::suite::Suite::single)
/// result: speedup (mean and spread over seeds) and traffic of its one
/// fw/gw cell pair.
pub fn smoke(res: &SuiteResult) -> String {
    let cell = |tag: &str| {
        let r = res.results.iter().find(|r| r.scenario.tag == tag);
        r.expect("smoke suites pair one fw and one gw cell")
    };
    let (fw, gw) = (cell("fw"), cell("gw").seed0());
    let s = fw.speedup_stat().expect("paired speedup");
    let (sc, fw) = (&fw.scenario, fw.seed0());
    format!(
        "dataset={} walks={} fw_time={} gw_time={} speedup={:.2}x (min {:.2} max {:.2})\n\
         fw_read={}MB gw_read={}MB fw_bw={:.2}GB/s gw_bw={:.2}GB/s\n",
        sc.dataset.abbrev(),
        sc.walks,
        fw.time,
        gw.time,
        s.mean,
        s.min,
        s.max,
        fw.traffic.flash_read_bytes >> 20,
        gw.traffic.flash_read_bytes >> 20,
        fw.read_bw / 1e9,
        gw.read_bw / 1e9
    )
}

/// Energy comparison — an extension beyond the paper's figures (§I
/// motivates in-storage processing partly by energy; the paper reports
/// none). The component-level model of `flashwalker::energy` over both
/// engines at each dataset's maximum walk count, over all five datasets
/// (run on `threads` workers).
pub fn energy(threads: u32) -> String {
    let mem = default_gw_memory();
    let mut out = String::from(
        "dataset\twalks\tfw_mJ\tgw_mJ\tenergy_ratio\tfw_mJ_per_kwalk\tgw_mJ_per_kwalk\n",
    );
    let pool = WorkerPool::new(threads as usize);
    let rows = pool.map_ordered(DatasetId::ALL.to_vec(), |_, id| {
        let p = prepared(id, DEFAULT_SEED);
        let walks = id.default_walks();
        eprintln!("[{}] {} walks …", id.abbrev(), walks);
        let fw = run_flashwalker(&p, walks, AccelConfig::scaled(), DEFAULT_SEED);
        let gw = run_graphwalker(&p, walks, mem, DEFAULT_SEED);
        let ef = flashwalker_energy(&fw);
        let eg = graphwalker_energy(&GwLike {
            flash_read_bytes: gw.flash_read_bytes,
            flash_write_bytes: gw.flash_write_bytes,
            pcie_bytes: gw.pcie_bytes,
            hops: gw.hops,
            time_secs: gw.time.as_secs_f64(),
        });
        (id, walks, ef, eg)
    });
    for (id, walks, ef, eg) in rows {
        let _ = writeln!(
            out,
            "{}\t{}\t{:.2}\t{:.2}\t{:.2}\t{:.3}\t{:.3}",
            id.abbrev(),
            walks,
            ef.total_mj(),
            eg.total_mj(),
            eg.total_uj() / ef.total_uj().max(1e-12),
            ef.total_mj() / (walks as f64 / 1e3),
            eg.total_mj() / (walks as f64 / 1e3),
        );
    }
    out
}

/// Ablation of the model's design knobs (DESIGN.md §6): one sweep per
/// parameter on dataset `id` at half its default walk count, everything
/// else at defaults. It checks that the documented choices sit on
/// plateaus rather than cliff edges and quantifies each mechanism.
pub fn ablation(id: DatasetId) -> String {
    let p = prepared(id, DEFAULT_SEED);
    let walks = id.default_walks() / 2;
    eprintln!("[{}] {} walks", id.abbrev(), walks);
    let mut out = String::from("knob\tvalue\ttime_ms\tsg_loads\tspill_pages\n");
    let mut row = |knob: &str, value: &dyn std::fmt::Display, f: &dyn Fn(&mut AccelConfig)| {
        let mut cfg = AccelConfig::scaled();
        f(&mut cfg);
        let r = run_flashwalker(&p, walks, cfg, DEFAULT_SEED);
        let t = r.time.as_secs_f64() * 1e3;
        let (l, s) = (r.stats.sg_loads, r.stats.pwb_spill_pages);
        let _ = writeln!(out, "{knob}\t{value}\t{t:.2}\t{l}\t{s}");
    };
    for v in [1u32, 4, 8, 16, 64] {
        row("evict_below", &v, &|c| c.evict_below = v);
    }
    for v in [1u64, 8, 32, 128, 512] {
        row("min_load_walks", &v, &|c| c.min_load_walks = v);
    }
    for v in [16usize, 64, 256, 4096] {
        row("chip_batch_cap", &v, &|c| c.chip_batch_cap = v);
    }
    for v in [1u32, 2, 4, 8, 16] {
        row("mapping_table_ports", &v, &|c| c.mapping_table_ports = v);
    }
    for v in [4u32, 16, 64, 256] {
        row("range_size", &v, &|c| c.range_size = v);
    }
    for v in [64u64, 256, 1024, 4096] {
        row("query_cache_bytes", &v, &|c| c.query_cache_bytes = v);
    }
    let sg_bytes = p.pg.config.subgraph_bytes;
    for v in [2u64, 4, 8, 16] {
        // Scale the chip buffer to hold v subgraphs of this dataset.
        row("chip_slots", &v, &|c| c.chip_subgraph_buf = v * sg_bytes);
    }
    for (label, a) in [("0.4", 0.4), ("1.0", 1.0), ("1.2", 1.2), ("3.0", 3.0)] {
        row("alpha", &label, &|c| c.alpha = a);
    }
    // PE provisioning: what would more silicon buy? (Table II ablations.)
    for v in [1u32, 2, 4] {
        row("chip_updaters", &v, &|c| c.chip_updaters = v);
    }
    for v in [1u32, 4, 16] {
        row("board_updaters", &v, &|c| c.board_updaters = v);
    }
    for v in [32u32, 128, 512] {
        row("board_guiders", &v, &|c| c.board_guiders = v);
    }
    out
}

/// Tables I, II and III: the SSD, accelerator and DRAM configurations
/// as the simulator uses them, paper scale and experiment scale side by
/// side.
pub fn table_configs() -> String {
    let mut out = String::new();
    let o = &mut out;
    let ssd = SsdConfig::paper();
    let ssd_s = SsdConfig::scaled();
    let g = ssd.geometry;
    let _ = writeln!(o, "== Table I / Table III (SSD) ==");
    let _ = writeln!(o, "channels\t{}", g.channels);
    let _ = writeln!(o, "chips/channel\t{}", g.chips_per_channel);
    let _ = writeln!(o, "dies/chip\t{}", g.dies_per_chip);
    let _ = writeln!(o, "planes/die\t{}", g.planes_per_die);
    let _ = writeln!(
        o,
        "blocks/plane\t{} (scaled {})",
        g.blocks_per_plane, ssd_s.geometry.blocks_per_plane
    );
    let _ = writeln!(o, "pages/block\t{}", g.pages_per_block);
    let _ = writeln!(o, "page\t{} B", g.page_bytes);
    let _ = writeln!(o, "read latency\t{}", ssd.read_latency);
    let _ = writeln!(o, "program latency\t{}", ssd.program_latency);
    let _ = writeln!(o, "erase latency\t{}", ssd.erase_latency);
    let _ = writeln!(o, "channel rate\t{} MB/s", ssd.channel_rate / 1_000_000);
    let _ = writeln!(o, "PCIe\t{} GB/s", ssd.pcie_rate / 1_000_000_000);
    let _ = writeln!(
        o,
        "aggregate channel BW\t{:.2} GB/s (the Fig. 8 ceiling)",
        ssd.aggregate_channel_bw() as f64 / 1e9
    );
    let _ = writeln!(
        o,
        "aggregate array read BW\t{:.2} GB/s",
        ssd.aggregate_array_read_bw() as f64 / 1e9
    );

    let d = DramConfig::ddr4_1600();
    let _ = writeln!(o, "\n== Table III (DRAM) ==");
    let _ = writeln!(o, "protocol\tDDR4 @ {} MHz", d.freq_mhz);
    let _ = writeln!(o, "capacity\t{} GB", d.capacity >> 30);
    let _ = writeln!(o, "bus width\t{} bit", d.bus_width_bits);
    let _ = writeln!(o, "BL\t{}", d.burst_length);
    let _ = writeln!(
        o,
        "tCL/tRCD/tRP/tRAS\t{}/{}/{}/{}",
        d.tcl, d.trcd, d.trp, d.tras
    );
    let _ = writeln!(o, "peak BW\t{:.1} GB/s", d.peak_bandwidth() as f64 / 1e9);

    let a = AccelConfig::paper();
    let s = AccelConfig::scaled();
    let _ = writeln!(o, "\n== Table II (accelerators, paper → scaled) ==");
    let _ = writeln!(o, "chip cycle\t{}", a.chip_cycle);
    let _ = writeln!(o, "chan cycle\t{}", a.chan_cycle);
    let _ = writeln!(o, "board cycle\t{}", a.board_cycle);
    let _ = writeln!(
        o,
        "updaters (chip/chan/board)\t{}/{}/{}",
        a.chip_updaters, a.chan_updaters, a.board_updaters
    );
    let _ = writeln!(
        o,
        "guiders (chip/chan/board)\t{}/{}/{}",
        a.chip_guiders, a.chan_guiders, a.board_guiders
    );
    let _ = writeln!(
        o,
        "chip subgraph buf\t{} KB -> {} KB",
        a.chip_subgraph_buf >> 10,
        s.chip_subgraph_buf >> 10
    );
    let _ = writeln!(
        o,
        "chan subgraph buf\t{} KB -> {} KB",
        a.chan_subgraph_buf >> 10,
        s.chan_subgraph_buf >> 10
    );
    let _ = writeln!(
        o,
        "board subgraph buf\t{} KB -> {} KB",
        a.board_subgraph_buf >> 10,
        s.board_subgraph_buf >> 10
    );
    let _ = writeln!(
        o,
        "mapping table\t{} KB -> {} KB ({} entries)",
        a.mapping_table_bytes >> 10,
        s.mapping_table_bytes >> 10,
        s.mapping_table_entries()
    );
    let _ = writeln!(o, "range size\t{} -> {}", a.range_size, s.range_size);
    let _ = writeln!(
        o,
        "query caches\t{} x {} B",
        s.query_caches, s.query_cache_bytes
    );
    let _ = writeln!(o, "alpha/beta\t{}/{}", a.alpha, a.beta);
    out
}

/// The Table II area row from the analytical area model (the
/// substitution for the paper's Chisel + Yosys / FreePDK45 flow —
/// DESIGN.md §1).
pub fn table_area() -> String {
    let r = AreaReport::for_config(&AccelConfig::paper());
    let g = SsdConfig::paper().geometry;
    format!(
        "level\tpaper_mm2\tmodel_mm2\n\
         chip-level\t1.30\t{:.2}\n\
         channel-level\t1.84\t{:.2}\n\
         board-level\t14.31\t{:.2}\n\
         \nwhole-SSD total ({} chips + {} channels + board): {:.1} mm2 @45nm\n",
        r.chip_mm2,
        r.channel_mm2,
        r.board_mm2,
        g.num_chips(),
        g.channels,
        r.total_mm2(g.num_chips(), g.channels)
    )
}

/// Table IV: dataset statistics, paper scale vs experiment scale, plus
/// partitioning facts (subgraphs, dense vertices) for each dataset.
pub fn table_datasets() -> String {
    let mut out = String::from(
        "dataset\tpaper_V\tpaper_E\tscaled_V\tscaled_E\tid_bytes\tsubgraph_KB\tcsr_MB\tsubgraphs\tdense\tpartitions\tmax_outdeg\n",
    );
    for id in DatasetId::ALL {
        let p = prepared(id, DEFAULT_SEED);
        let (pv, pe) = id.paper_size();
        let (_, deg) = p.dataset.csr.max_out_degree();
        let _ = writeln!(
            out,
            "{}\t{:.1}M\t{:.2}B\t{}\t{}\t{}\t{}\t{:.1}\t{}\t{}\t{}\t{}",
            id.abbrev(),
            pv as f64 / 1e6,
            pe as f64 / 1e9,
            p.dataset.csr.num_vertices(),
            p.dataset.csr.num_edges(),
            id.id_bytes(),
            id.subgraph_bytes() >> 10,
            p.dataset.modeled_csr_bytes() as f64 / 1e6,
            p.pg.num_subgraphs(),
            p.pg.dense.len(),
            p.pg.num_partitions(),
            deg,
        );
    }
    out
}
