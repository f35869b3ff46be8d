//! Span-trace diagnostic: run one engine with the `fw-trace` layer
//! enabled, print the derived utilization / latency / queue-depth views,
//! and export a Chrome `trace_event` JSON file loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! ```text
//! cargo run --release -p fw-bench --bin fwtrace \
//!     [fw|gw|iter] [TT|FS|CW|R2B|R8B] [walks] [out.json]
//!     [--journeys] [--critical] [--heatmap]
//! ```
//!
//! Defaults: `fw TT <default_walks/8> fwtrace.json`. A `.csv` sibling
//! with the per-component utilization table is written next to the JSON.
//! `--journeys` additionally records sampled walk journeys (fw/gw only —
//! the iterative baseline has no per-walk event stream): the tail
//! attribution table is printed, per-walk tracks are appended to the
//! Chrome JSON (one Perfetto process per sampled walk), and a
//! `<out>.journeys.csv` sibling carries the raw per-event rows.
//! `--critical` records the happens-before dependency log (fw/gw only)
//! and prints the critical-path share table — the *causal* counterpart
//! to the utilization-ranked "busiest components" list. `--heatmap`
//! (implies `--critical`) additionally writes a `<out>.heatmap.csv`
//! contention heatmap (per-component busy fraction and queue depth per
//! sim-time window) and appends a Perfetto counter track to the JSON.

use std::process::exit;

use flashwalker::{AccelConfig, OptToggles};
use fw_bench::runner::{
    flashwalker_engine, graphwalker_engine, iterative_engine, prepared, DEFAULT_SEED,
};
use fw_graph::DatasetId;
use fw_sim::{
    chrome_trace_json, export, CriticalConfig, CriticalReport, HeatmapReport, JourneyConfig,
    JourneyReport, TraceConfig, TraceReport,
};
use fw_walk::Workload;

/// Host memory for the baseline engines (the scaled mid-range sweep
/// point the comparison binaries use).
const BASELINE_MEMORY: u64 = 8 << 20;

const USAGE: &str = "usage: fwtrace [fw|gw|iter] [TT|FS|CW|R2B|R8B] [walks] [out.json] \
                     [--journeys] [--critical] [--heatmap]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// Write `contents` to `path`, or exit 1 naming it.
fn write(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("fwtrace: cannot write {path}: {e}");
        exit(1)
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().collect();
    // The engine-thread and walk-RNG flags are gone. Refuse them rather
    // than let the positional parse below read them as engine/dataset/out.
    if let Some(flag) = raw
        .iter()
        .skip(1)
        .find(|a| matches!(a.as_str(), "--threads" | "--rng"))
    {
        eprintln!(
            "fwtrace: {flag} was removed: every engine run is one sequential event loop with one walk RNG\n{USAGE}"
        );
        exit(2);
    }
    let journeys = raw.iter().any(|a| a == "--journeys");
    let heatmap = raw.iter().any(|a| a == "--heatmap");
    // The heatmap is derived from the dependency log, so asking for one
    // turns critical recording on.
    let critical = heatmap || raw.iter().any(|a| a == "--critical");
    // Strip the flags before the positional parse.
    let args: Vec<String> = raw
        .into_iter()
        .filter(|a| !matches!(a.as_str(), "--journeys" | "--critical" | "--heatmap"))
        .collect();
    let engine = args.get(1).map_or("fw", String::as_str).to_string();
    if !matches!(engine.as_str(), "fw" | "gw" | "iter") {
        usage();
    }
    let id = match args.get(2) {
        Some(s) => DatasetId::from_abbrev(s).unwrap_or_else(|| usage()),
        None => DatasetId::Twitter,
    };
    let walks: u64 = match args.get(3) {
        Some(s) => s.parse().unwrap_or_else(|_| usage()),
        None => id.default_walks() / 8,
    };
    let out = args.get(4).map_or("fwtrace.json", String::as_str);
    let stem = out.trim_end_matches(".json");
    let csv_path = format!("{stem}.csv");
    // The iterative baseline has no per-walk event stream to journal and
    // no dependency log, so it writes neither sibling CSV.
    let per_walk = engine != "iter";
    let journeys_path = (journeys && per_walk).then(|| format!("{stem}.journeys.csv"));
    let heatmap_path = (heatmap && per_walk).then(|| format!("{stem}.heatmap.csv"));
    // Create every output before the run, so an unwritable path fails in
    // milliseconds instead of after the simulation.
    let sibling_csvs = [journeys_path.as_deref(), heatmap_path.as_deref()];
    for path in [out, &csv_path]
        .into_iter()
        .chain(sibling_csvs.into_iter().flatten())
    {
        write(path, "");
    }

    let p = prepared(id, DEFAULT_SEED);
    let cfg = TraceConfig::default();
    let wl = Workload::paper_default(walks);
    eprintln!(
        "fwtrace: engine={engine} dataset={} walks={walks}",
        id.abbrev()
    );

    let jcfg = JourneyConfig {
        seed: DEFAULT_SEED,
        ..JourneyConfig::default()
    };
    let ccfg = CriticalConfig::default();
    #[allow(clippy::type_complexity)]
    let (trace, journey_report, critical_report): (
        Option<TraceReport>,
        Option<JourneyReport>,
        Option<CriticalReport>,
    ) = match engine.as_str() {
        "gw" => {
            let mut e = graphwalker_engine(&p, BASELINE_MEMORY, DEFAULT_SEED).with_span_trace(cfg);
            if journeys {
                e = e.with_journeys(jcfg);
            }
            if critical {
                e = e.with_critical(ccfg);
            }
            let r = e.run_detailed(wl);
            (r.trace, r.journeys, r.critical)
        }
        // The iteration-synchronous baseline has no per-walk event stream
        // to journal and no dependency log.
        "iter" => {
            if journeys {
                eprintln!("fwtrace: --journeys is a no-op on the iterative baseline");
            }
            if critical {
                eprintln!("fwtrace: --critical is a no-op on the iterative baseline");
            }
            let r = iterative_engine(&p, BASELINE_MEMORY, DEFAULT_SEED)
                .with_span_trace(cfg)
                .run_detailed(wl);
            (r.trace, None, None)
        }
        _ => {
            let mut e = flashwalker_engine(
                &p,
                OptToggles::all(),
                AccelConfig::scaled().alpha,
                DEFAULT_SEED,
            )
            .with_span_trace(cfg);
            if journeys {
                e = e.with_journeys(jcfg);
            }
            if critical {
                e = e.with_critical(ccfg);
            }
            let r = e.run_detailed(wl);
            (r.trace, r.journeys, r.critical)
        }
    };
    let trace = trace.expect("span tracing was enabled");

    println!("{trace}");
    // Utilization ranks who was *busiest* — a correlation signal that
    // often, but not always, coincides with the causal bottleneck the
    // critical-path shares identify.
    let candidates = trace.bottleneck_candidates(3);
    if !candidates.is_empty() {
        println!("busiest components (highest mean utilization — not causal):");
        for (name, util) in &candidates {
            println!("  {name} at {:.1}% mean utilization", util * 100.0);
        }
    }
    if let Some(c) = &critical_report {
        print!("{}", c.render_table());
    }

    let hm = critical_report
        .as_ref()
        .filter(|_| heatmap)
        .map(|c| HeatmapReport::from_critical(c, c.window_ns));
    if let (Some(path), Some(hm)) = (&heatmap_path, &hm) {
        write(path, &hm.csv());
        eprintln!(
            "fwtrace: wrote {path} ({} lanes x {} windows)",
            hm.lanes.len(),
            hm.windows
        );
    }
    write(
        out,
        &chrome_trace_json(&trace, journey_report.as_ref(), hm.as_ref()),
    );
    write(&csv_path, &export::utilization_csv(&trace));
    eprintln!(
        "fwtrace: wrote {out} ({} spans, {} dropped) and {csv_path}",
        trace.spans.len(),
        trace.dropped_spans,
    );
    if let Some(j) = &journey_report {
        print!("{}", j.render_table());
        if let Some(path) = &journeys_path {
            write(path, &j.journeys_csv());
            eprintln!("fwtrace: wrote {path} ({} sampled walks)", j.sampled_walks);
        }
    }
}
