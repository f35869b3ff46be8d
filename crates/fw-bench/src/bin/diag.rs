//! Diagnostic: run FlashWalker on one dataset under each ablation config
//! and dump the full engine statistics, to attribute where time goes;
//! then run all three engines once with span tracing enabled and print
//! their component utilizations and queue depths side by side.
//!
//! ```text
//! cargo run --release -p fw-bench --bin diag [TT|FS|CW|R2B|R8B] [walks] [--json]
//! ```
//!
//! With `--json` the ablation text dump is skipped and the three-engine
//! utilization/queue-depth comparison is emitted as one machine-readable
//! JSON document on stdout (schema `fwdiag/v1`, wrapping `fw-trace`'s
//! `trace_summary_json` tree per engine).

use flashwalker::OptToggles;
use fw_bench::cli::Args;
use fw_bench::runner::{prepared, run_flashwalker_alpha, DEFAULT_SEED};
use fw_bench::suite::{run_one, Probes, Scenario};
use fw_fault::FaultProfile;
use fw_graph::DatasetId;
use fw_sim::export::trace_summary_json;
use fw_sim::{Json, TraceReport};

/// Print one engine's per-component-group utilization and queue-depth
/// rows, prefixed with the engine tag so the three blocks read side by
/// side under a shared header.
fn print_trace_rows(tag: &str, t: &TraceReport) {
    let mut groups: Vec<&str> = t.components.iter().map(|c| c.name.as_str()).collect();
    groups.dedup(); // components are sorted by (name, lane)
    for name in groups {
        println!(
            "{tag}\t{name}\tutil={:5.1}%\tbusy={}ms\tbytes={}MiB\tops={}",
            t.mean_util_for(name) * 100.0,
            t.busy_ns_for(name) / 1_000_000,
            t.bytes_for(name) >> 20,
            t.utils_for(name).iter().map(|c| c.count).sum::<u64>(),
        );
    }
    for q in &t.queue_depths {
        println!(
            "{tag}\t{}\tmean_depth={:.1}\tpeak_depth={:.1}",
            q.name,
            q.overall_mean(),
            q.peak()
        );
    }
    if let Some((name, util)) = t.bottleneck() {
        println!("{tag}\tbottleneck\t{name}\t{:.1}%", util * 100.0);
    }
}

fn usage() -> ! {
    eprintln!("usage: diag [TT|FS|CW|R2B|R8B] [walks] [--json]");
    std::process::exit(2)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw, 0..=2, &[], &["--json"], &[]).unwrap_or_else(|e| {
        eprintln!("diag: {e}");
        usage()
    });
    let json_out = args.has("--json");
    let id = match args.positional.first() {
        Some(s) => DatasetId::from_abbrev(s).unwrap_or_else(|| usage()),
        None => DatasetId::Twitter,
    };
    let walks: u64 = match args.positional.get(1) {
        Some(s) => s.parse().unwrap_or_else(|_| usage()),
        None => id.default_walks() / 2,
    };
    let p = prepared(id, DEFAULT_SEED);
    eprintln!(
        "{}: subgraphs={} dense={} partitions={}",
        id.abbrev(),
        p.pg.num_subgraphs(),
        p.pg.dense.len(),
        p.pg.num_partitions()
    );

    // Span-traced three-engine comparison: component utilization and
    // queue depths from the fw-trace layer, side by side.
    let mem = 8 << 20;
    let probes = Probes {
        trace: true,
        ..Probes::default()
    };
    let traced = |sc: Scenario| {
        let r = run_one(&p, &sc, DEFAULT_SEED, probes, FaultProfile::none());
        r.trace.expect("traced")
    };
    let traces = [
        ("fw", traced(Scenario::fw(id, walks))),
        ("gw", traced(Scenario::gw(id, walks, mem))),
        ("iter", traced(Scenario::iter(id, walks, mem))),
    ];

    if json_out {
        // Machine-readable three-engine comparison only.
        let engines = traces.iter().map(|(tag, t)| {
            Json::obj(vec![
                ("engine", Json::s(tag)),
                ("trace", trace_summary_json(t)),
            ])
        });
        let doc = Json::obj(vec![
            ("schema", Json::s("fwdiag/v1")),
            ("dataset", Json::s(id.abbrev())),
            ("walks", Json::u(walks)),
            ("engines", Json::Arr(engines.collect())),
        ]);
        print!("{}", doc.render());
        return;
    }

    let configs: Vec<(&str, OptToggles)> = vec![
        ("base", OptToggles::none()),
        (
            "WQ",
            OptToggles {
                walk_query: true,
                hot_subgraphs: false,
                subgraph_scheduling: false,
            },
        ),
        (
            "HS",
            OptToggles {
                walk_query: false,
                hot_subgraphs: true,
                subgraph_scheduling: false,
            },
        ),
        (
            "SS",
            OptToggles {
                walk_query: false,
                hot_subgraphs: false,
                subgraph_scheduling: true,
            },
        ),
        ("all", OptToggles::all()),
    ];
    for (name, opts) in configs {
        let alpha: f64 = std::env::var("FW_ALPHA")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.4);
        let r = run_flashwalker_alpha(&p, walks, opts, alpha, DEFAULT_SEED);
        let s = &r.stats;
        println!(
            "{name}\ttime={}\thops={} (chip {} chan {} board {})\troving={}\tloads={}\tdeliv={}\tprobes={}\tcache={}h/{}m\tpwb_spill={}\tforeign={}\tchan_util={:.2}\tbusy(chip/chan/board)={}/{}/{}ms dram={}ms map={}ms\tbatches(c/ch/b)={}/{}/{}\tfill(noslot/nocand)={}/{}\tload_lat={}us (arr {} fetch {} spill {}) walks/load={:.0}\tchan_wait={}us/xfer",
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
            s.load_latency_ns / s.sg_loads.max(1) / 1000,
            s.load_array_ns / s.sg_loads.max(1) / 1000,
            s.load_fetch_ns / s.sg_loads.max(1) / 1000,
            s.load_spill_ns / s.sg_loads.max(1) / 1000,
            s.load_walks as f64 / s.sg_loads.max(1) as f64,
            r.channel_wait_ns / 1000,
        );
    }

    println!("\nengine\tcomponent\tutilization / queue depth");
    for (tag, t) in &traces {
        print_trace_rows(tag, t);
    }
}
