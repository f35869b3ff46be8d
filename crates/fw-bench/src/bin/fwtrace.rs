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

use fw_bench::cli::Args;
use fw_bench::runner::{prepared, DEFAULT_SEED};
use fw_bench::suite::{run_one, Probes, Scenario};
use fw_fault::FaultProfile;
use fw_graph::DatasetId;
use fw_sim::{chrome_trace_json, export, HeatmapReport};

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
    let raw: Vec<String> = std::env::args().skip(1).collect();
    const GONE: &str = "every engine run is one sequential event loop with one walk RNG";
    let args = Args::parse(
        &raw,
        0..=4,
        &[],
        &["--journeys", "--critical", "--heatmap"],
        &[("--threads", GONE), ("--rng", GONE)],
    )
    .unwrap_or_else(|e| {
        eprintln!("fwtrace: {e}");
        usage()
    });
    let journeys = args.has("--journeys");
    let heatmap = args.has("--heatmap");
    // The heatmap is derived from the dependency log, so asking for one
    // turns critical recording on.
    let critical = heatmap || args.has("--critical");
    let engine = args.positional.first().copied().unwrap_or("fw");
    let id = match args.positional.get(1) {
        Some(s) => DatasetId::from_abbrev(s).unwrap_or_else(|| usage()),
        None => DatasetId::Twitter,
    };
    let walks: u64 = match args.positional.get(2) {
        Some(s) => s.parse().unwrap_or_else(|_| usage()),
        None => id.default_walks() / 8,
    };
    let scenario = match engine {
        "fw" => Scenario::fw(id, walks),
        "gw" => Scenario::gw(id, walks, BASELINE_MEMORY),
        "iter" => Scenario::iter(id, walks, BASELINE_MEMORY),
        _ => usage(),
    };
    let out = args.positional.get(3).copied().unwrap_or("fwtrace.json");
    let stem = out.trim_end_matches(".json");
    let csv_path = format!("{stem}.csv");
    // The iterative baseline has no per-walk event stream to journal and
    // no dependency log, so it writes neither sibling CSV.
    let per_walk = engine != "iter";
    if !per_walk {
        for flag in ["--journeys", "--critical", "--heatmap"] {
            if args.has(flag) {
                eprintln!("fwtrace: {flag} is a no-op on the iterative baseline");
            }
        }
    }
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
    eprintln!(
        "fwtrace: engine={engine} dataset={} walks={walks}",
        id.abbrev()
    );
    let probes = Probes {
        trace: true,
        journeys,
        critical,
    };
    let r = run_one(&p, &scenario, DEFAULT_SEED, probes, FaultProfile::none());
    let (journey_report, critical_report) = (r.journeys, r.critical);
    let trace = r.trace.expect("span tracing was enabled");

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
