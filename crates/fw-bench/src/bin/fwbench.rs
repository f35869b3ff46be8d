//! `fwbench` — the one experiment driver: run a declarative suite into a
//! schema-versioned `BENCH_<label>.json` record, gate regressions against
//! a prior record with seed-noise-aware bounds and paper-fidelity
//! verdicts, and regenerate each table and figure of the paper.
//!
//! The subcommands and their flags are listed in the `USAGE` text, which
//! `fwbench` prints when run without arguments.
//!
//! Each subcommand takes exactly the arguments listed; any other `--flag`,
//! a surplus positional or an unknown subcommand exits 2 naming it. DATASET is one of TT, FS, CW, R2B, R8B (default TT);
//! LIST is a comma-separated list of them (default all five).
//!
//! `run` defaults: the `ci` suite, 3 seeds, label = suite name, output
//! `BENCH_<label>.json` in the working directory. Every field is
//! simulated or a run stamp, so output is byte-identical across
//! same-seed runs; host time is measured by the `bench/` package, not
//! here. `--threads N` fans scenario×seed cells over N workers; each cell
//! is one sequential engine run, so the simulated record is identical at
//! any thread count and a non-default count is stamped into the env
//! fingerprint. `run` takes no dataset filter: a record's suite name
//! says which grid ran.
//!
//! `compare` with one path compares it against the newest *other*
//! `BENCH_*.json` in its directory; with two paths the first is the
//! baseline. Exits 1 when the regression gate or a fidelity verdict
//! fails, so CI can gate on it. Thread, worker, journey and critical
//! stamps are observer keys: a mismatch is printed but never refuses the
//! diff. Fault profile, config and scales are model keys that refuse.
//!
//! `run --journeys` records sampled walk journeys on every seed-0 run:
//! the record's scenario rows gain a `journeys` section (walk-latency
//! percentiles, per-walk critical-path decompositions, the tail
//! attribution table) and the env fingerprint is stamped. Journey records
//! default to a `-journeys` label suffix for the same reason fault runs
//! do: the plain `BENCH_<suite>.json` byte-identity baseline stays
//! untouched.
//!
//! `run --critical` records the causal profile on every seed-0 run: the
//! scenario rows gain a `critical` section (per-component critical-path
//! shares plus the contention-heatmap summary) and the env fingerprint
//! is stamped. Like journey runs, the default label gains a `-critical`
//! suffix so the plain byte-identity baseline stays untouched.
//!
//! `why` diffs two `--critical` records: per scenario it attributes the
//! sim-time movement to the components whose critical-path time grew — a
//! causal answer to "what made this slower", where `compare` only says
//! *that* it got slower. Mixed-up records (different fault profile or
//! generator config) are refused like `compare`.
//!
//! `tail` prints each scenario's tail-attribution table from a
//! `--journeys` record, after checking the books: every sampled walk's
//! segment durations must sum exactly to its end-to-end latency (the
//! decomposition invariant), and a walk that doesn't reconcile fails the
//! command.
//!
//! `serve` runs the online-serving suite (`fw-serve`, DESIGN.md §15):
//! capacity-calibrated Poisson and bursty offered-load points through
//! admission control, batching, and the hot-source walk cache, writing a
//! `SERVE_<label>.json` record (schema `fwserve/v1`) plus an optional
//! throughput-vs-p99 CSV (`--csv`). Everything is simulated time, so the
//! record is byte-identical across runs — CI double-runs it and `cmp`s.
//! The `SERVE_` prefix keeps these records out of `compare`'s `BENCH_*`
//! auto-baseline discovery.
//!
//! `fig`, `table`, `energy`, `three-way`, `ablation` and `smoke` print a
//! TSV report to stdout (EXPERIMENTS.md lists what each reproduces).
//! Figures 5, 6, 7 and 9 and `three-way` run the suite of the same name
//! (`fig5`, …) at one seed unless `--seeds` says otherwise; `--datasets`
//! restricts its grid. `smoke` runs fw against gw on one cell (default
//! walks: a quarter of the dataset's default).
//!
//! `trace` runs one engine (default `fw TT`, an eighth of the default
//! walks) with span tracing on, prints the utilization / latency /
//! queue-depth views, and writes a Chrome `trace_event` JSON (default
//! `fwtrace.json`, loadable in Perfetto) plus a `.csv` sibling with the
//! utilization table. `--journeys` records sampled walk journeys (fw/gw
//! only): the tail attribution table is printed, per-walk tracks join the
//! JSON and a `<out>.journeys.csv` sibling carries the raw rows.
//! `--critical` records the dependency log (fw/gw only) and prints the
//! critical-path share table; `--heatmap` (implies `--critical`) also
//! writes a `<out>.heatmap.csv` contention heatmap and a Perfetto counter
//! track. Every output file is created before the run.
//!
//! `diag` (default TT, half the default walks) dumps FlashWalker's engine
//! statistics under each optimization configuration, then the three
//! engines' utilization and queue-depth rows side by side. `--json`
//! skips the dump and prints the comparison as one `fwdiag/v1` document.
//!
//! Exit codes, all subcommands: 0 ok, 1 gate failed or a run could not
//! write its output, 2 usage, 3 record unreadable/malformed, 4 record
//! parsed but an accounting invariant is violated (see EXPERIMENTS.md
//! "Exit codes").

use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use flashwalker::AccelConfig;
use fw_bench::bench_json::{newest_bench_file, BenchReport};
use fw_bench::cli::Args;
use fw_bench::compare::{compare_reports, CompareConfig};
use fw_bench::diag::{
    diag_json, engine_scenario, stats_row, trace_rows, DIAG_ALPHA, DIAG_CONFIGS, ENGINES,
};
use fw_bench::figures;
use fw_bench::record::{load_bench_report, load_serve_record};
use fw_bench::runner::{prepared, run_flashwalker, DEFAULT_SEED};
use fw_bench::serve::{build_serve_record, render_serve_table, run_ci_serve_suite, serve_csv};
use fw_bench::suite::{
    build_bench_report, default_gw_memory, parse_datasets, run_one, run_suite, seed_list, Probes,
    Suite, SuiteResult, SUITE_NAMES,
};
use fw_bench::why::why_reports;
use fw_fault::FaultProfile;
use fw_graph::DatasetId;
use fw_sim::{chrome_trace_json, export, HeatmapReport, Json};

const USAGE: &str = "usage:
  fwbench run [--suite ci|paper|fig5|fig6|fig7|fig9|three-way] [--seeds N] [--label L] [--out PATH] [--no-trace] [--journeys] [--critical] [--faults none|light|heavy] [--threads N]
  fwbench compare [BASELINE] [CURRENT] [--noise-floor F]
  fwbench why BASELINE CURRENT
  fwbench tail RECORD
  fwbench serve [--suite ci] [--seed S] [--queries N] [--label L] [--out PATH] [--csv PATH]
  fwbench fig 1
  fwbench fig 5|6|7|9 [--seeds N] [--threads N] [--datasets LIST]
  fwbench fig 8 [--threads N]
  fwbench table configs|area|datasets
  fwbench energy [--threads N]
  fwbench three-way [--seeds N] [--threads N] [--datasets LIST]
  fwbench ablation [DATASET]
  fwbench smoke [DATASET] [WALKS] [--seeds N]
  fwbench trace [fw|gw|iter] [DATASET] [WALKS] [OUT.json] [--journeys] [--critical] [--heatmap]
  fwbench diag [DATASET] [WALKS] [--json]
DATASET is one of TT, FS, CW, R2B, R8B; LIST is a comma-separated list of them.";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Print a usage error and the usage text (exit 2).
fn usage_error(cmd: &str, msg: &str) -> ExitCode {
    eprintln!("fwbench {cmd}: {msg}");
    usage()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, args)) = args.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "why" => cmd_why(args),
        "tail" => cmd_tail(args),
        "serve" => cmd_serve(args),
        "fig" => print_report(fig(args)),
        "table" => print_report(table(args)),
        "energy" => {
            print_report(grid("energy", args, POOL_FLAGS).map(|g| figures::energy(g.threads)))
        }
        "three-way" => print_report(suite_report(
            "three-way",
            args,
            "three-way",
            figures::three_way,
        )),
        "ablation" => print_report(
            parse_args("ablation", args, 0..=1, &[], &[])
                .and_then(|a| dataset_arg("ablation", &a, 0))
                .map(figures::ablation),
        ),
        "smoke" => print_report(smoke(args)),
        "trace" => print_report(trace(args)),
        "diag" => print_report(diag(args)),
        _ => usage_error(cmd, "unknown subcommand"),
    }
}

/// Load a record through the shared validating loader, mapping the two
/// failure classes to their exit codes (3 parse, 4 invariant).
fn load_record(cmd: &str, path: &Path) -> Result<BenchReport, ExitCode> {
    load_bench_report(path).map_err(|e| {
        eprintln!("fwbench {cmd}: {e}");
        ExitCode::from(e.exit_code())
    })
}

/// Split a subcommand's command line with the shared [`Args`] parser,
/// printing the error and the usage text on a usage error (exit 2).
fn parse_args<'a>(
    cmd: &str,
    args: &'a [String],
    positionals: RangeInclusive<usize>,
    valued: &[&str],
    switches: &[&str],
) -> Result<Args<'a>, ExitCode> {
    Args::parse(args, positionals, valued, switches).map_err(|e| usage_error(cmd, &e))
}

/// The value of flag `flag`, which must be a positive integer, or
/// `default` when it is absent.
fn positive<T: FromStr + Default + PartialOrd>(
    cmd: &str,
    args: &Args,
    flag: &str,
    default: T,
) -> Result<T, ExitCode> {
    match args.value(flag).map(str::parse) {
        None => Ok(default),
        Some(Ok(n)) if n > T::default() => Ok(n),
        Some(_) => Err(usage_error(
            cmd,
            &format!("{flag} wants a positive integer"),
        )),
    }
}

/// Positional `i` as a dataset abbreviation (default TT).
fn dataset_arg(cmd: &str, args: &Args, i: usize) -> Result<DatasetId, ExitCode> {
    match args.positional.get(i) {
        None => Ok(DatasetId::Twitter),
        Some(s) => DatasetId::from_abbrev(s)
            .ok_or_else(|| usage_error(cmd, &format!("unknown dataset '{s}'"))),
    }
}

/// Positional `i` as a positive walk count, or `default`.
fn walks_arg(cmd: &str, args: &Args, i: usize, default: u64) -> Result<u64, ExitCode> {
    match args.positional.get(i).map(|s| (s, s.parse::<u64>())) {
        None => Ok(default),
        Some((_, Ok(n))) if n > 0 => Ok(n),
        Some((s, _)) => Err(usage_error(
            cmd,
            &format!("walk count '{s}' is not a positive integer"),
        )),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let args = match parse_args(
        "run",
        args,
        0..=0,
        &[
            "--suite",
            "--seeds",
            "--label",
            "--out",
            "--faults",
            "--threads",
        ],
        &["--no-trace", "--journeys", "--critical"],
    ) {
        Ok(a) => a,
        Err(c) => return c,
    };
    let suite_name = args.value("--suite").unwrap_or("ci");
    // Three seeds by default, so the record always carries a noise band.
    let (seeds, threads) = match (
        positive("run", &args, "--seeds", 3u64),
        positive("run", &args, "--threads", 1u32),
    ) {
        (Ok(s), Ok(t)) => (s, t),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    let Some(mut suite) = Suite::named(suite_name, seed_list(seeds)) else {
        let known = SUITE_NAMES.join(", ");
        return usage_error(
            "run",
            &format!("unknown suite '{suite_name}' (known: {known})"),
        );
    };
    if args.has("--no-trace") {
        suite.trace = false;
    }
    if args.has("--journeys") {
        suite = suite.with_journeys();
    }
    if args.has("--critical") {
        suite = suite.with_critical();
    }
    if let Some(name) = args.value("--faults") {
        match FaultProfile::parse(name) {
            Ok(p) => suite = suite.with_faults(p),
            Err(e) => {
                eprintln!("fwbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    suite = suite.with_threads(threads);
    // Fault and journey runs default to a suffixed label so they never
    // clobber the plain BENCH_<suite>.json byte-identity
    // baseline.
    let mut default_label = if suite.faults.is_on() {
        format!("{}-{}", suite.name, suite.faults.name)
    } else {
        suite.name.clone()
    };
    if suite.journeys {
        default_label.push_str("-journeys");
    }
    if suite.critical {
        default_label.push_str("-critical");
    }
    let label = args.value("--label").unwrap_or(&default_label).to_string();
    let out: PathBuf = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{label}.json")));

    eprintln!(
        "fwbench: suite={} scenarios={} seeds={:?} faults={} threads={}",
        suite.name,
        suite.scenarios.len(),
        suite.seeds,
        suite.faults.name,
        suite.threads
    );
    let result = match run_suite(&suite) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fwbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One critical recorder bounds a whole run: a log that outgrew its
    // `max_nodes` cap is recorded, but never silently.
    for r in &result.results {
        for c in r.runs.iter().filter_map(|run| run.report.critical.as_ref()) {
            if c.dropped_nodes > 0 {
                eprintln!(
                    "fwbench: warning: {}: critical log dropped {} nodes (truncated: {})",
                    r.scenario.name(),
                    c.dropped_nodes,
                    c.truncated
                );
            }
        }
    }
    if suite.faults.is_on() {
        // A requested fault profile that injects nothing means the model
        // is mis-wired — fail loudly rather than record a silently clean
        // run (CI gates on this).
        let events: u64 = result
            .results
            .iter()
            .flat_map(|r| r.runs.iter())
            .filter_map(|run| run.report.faults.as_ref())
            .map(|f| f.total_events())
            .sum();
        let retries: u64 = result
            .results
            .iter()
            .flat_map(|r| r.runs.iter())
            .filter_map(|run| run.report.faults.as_ref())
            .map(|f| f.read_retries)
            .sum();
        eprintln!(
            "fwbench: fault profile '{}': {events} fault events, {retries} read retries",
            suite.faults.name
        );
        if events == 0 {
            eprintln!(
                "fwbench: fault profile '{}' was requested but injected zero fault events",
                suite.faults.name
            );
            return ExitCode::FAILURE;
        }
    }
    let report = build_bench_report(&label, &result);
    if let Err(e) = std::fs::write(&out, report.render()) {
        eprintln!("fwbench: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }

    println!(
        "{:<28} {:>12} {:>10} {:>9}",
        "scenario", "sim_ms(mean)", "spread", "speedup"
    );
    for s in &report.scenarios {
        println!(
            "{:<28} {:>12.3} {:>9.2}% {:>9}",
            s.name,
            s.sim_time_ns.mean as f64 / 1e6,
            s.sim_time_ns.rel_spread() * 100.0,
            match s.speedup_over_graphwalker {
                Some(sp) => format!("{:.2}x", sp.mean),
                None => "-".to_string(),
            }
        );
    }
    eprintln!("fwbench: wrote {}", out.display());
    ExitCode::SUCCESS
}

fn cmd_tail(args: &[String]) -> ExitCode {
    let path = match parse_args("tail", args, 1..=1, &[], &[]) {
        Ok(a) => PathBuf::from(a.positional[0]),
        Err(c) => return c,
    };
    // The shared loader already enforces the segment-sum invariant (exit
    // 4 on violation); the per-walk reconciliation below re-derives the
    // detail for the human-readable report.
    let rep = match load_record("tail", &path) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let with_journeys: Vec<_> = rep
        .scenarios
        .iter()
        .filter_map(|s| s.journeys.as_ref().map(|j| (s, j)))
        .collect();
    if with_journeys.is_empty() {
        eprintln!(
            "fwbench tail: {} has no journey sections — re-run with `fwbench run --journeys`",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    let mut bad_walks = 0u64;
    for (sc, j) in &with_journeys {
        let lat = |k: &str| {
            j.get("latency")
                .and_then(|l| l.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        println!(
            "== {} — {} sampled walk(s), 1/{} sampling ==",
            sc.name,
            j.get("sampled_walks").and_then(Json::as_u64).unwrap_or(0),
            j.get("sample_period").and_then(Json::as_u64).unwrap_or(0)
        );
        println!(
            "latency ns: p50 {}  p95 {}  p99 {}  max {}  mean {}",
            lat("p50_ns"),
            lat("p95_ns"),
            lat("p99_ns"),
            lat("max_ns"),
            lat("mean_ns")
        );
        println!(
            "{:<14} {:>14} {:>8} {:>14} {:>8}",
            "segment", "median ns/walk", "share", "tail ns/walk", "share"
        );
        for row in j.get("tail").and_then(Json::as_arr).unwrap_or(&[]) {
            let u = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
            let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "{:<14} {:>14} {:>7.1}% {:>14} {:>7.1}%",
                row.get("kind").and_then(Json::as_str).unwrap_or("?"),
                u("median_ns"),
                f("median_share") * 100.0,
                u("tail_ns"),
                f("tail_share") * 100.0
            );
        }
        // The decomposition invariant: per-walk segment durations sum
        // exactly to the walk's end-to-end latency. A mismatch means the
        // record (or the decomposition) is corrupt, so it fails loudly.
        for w in j.get("walks").and_then(Json::as_arr).unwrap_or(&[]) {
            let latency = w.get("latency_ns").and_then(Json::as_u64).unwrap_or(0);
            let sum: u64 = match w.get("segments") {
                Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
                _ => 0,
            };
            if sum != latency {
                bad_walks += 1;
                eprintln!(
                    "fwbench tail: {} walk {}: segments sum to {} ns but latency is {} ns",
                    sc.name,
                    w.get("id").and_then(Json::as_u64).unwrap_or(0),
                    sum,
                    latency
                );
            }
        }
        println!();
    }
    if bad_walks > 0 {
        eprintln!("fwbench tail: {bad_walks} walk(s) failed the segment-sum reconciliation");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Print the observer stamps of both records where they differ. Neither
/// the cell-pool width nor the schedule-neutral journey and critical
/// recorders change a simulated number, so the diff proceeds either way.
fn note_observer_keys(cmd: &str, base: &BenchReport, cur: &BenchReport) {
    let (b, c) = (&base.env, &cur.env);
    if (b.threads, b.workers) != (c.threads, c.workers) {
        eprintln!(
            "fwbench {cmd}: baseline ran {} thread(s) / {} worker(s), current {} / {} \
             (observer keys, not compared)",
            b.threads, b.workers, c.threads, c.workers
        );
    }
    let which = |on: bool| if on { "with" } else { "without" };
    for (flag, bo, co) in [
        ("--journeys", b.journeys, c.journeys),
        ("--critical", b.critical, c.critical),
    ] {
        if bo != co {
            eprintln!(
                "fwbench {cmd}: baseline ran {} {flag}, current {} (observer key, not compared)",
                which(bo),
                which(co)
            );
        }
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let args = match parse_args("compare", args, 1..=2, &["--noise-floor"], &[]) {
        Ok(a) => a,
        Err(c) => return c,
    };
    let mut cfg = CompareConfig::default();
    if let Some(f) = args.value("--noise-floor") {
        match f.parse() {
            Ok(v) => cfg.noise_floor = v,
            Err(_) => {
                eprintln!("--noise-floor wants a number (e.g. 0.02)");
                return ExitCode::from(2);
            }
        }
    }
    let (base_path, cur_path): (PathBuf, PathBuf) = match args.positional.as_slice() {
        [base, cur] => ((*base).into(), (*cur).into()),
        [cur] => {
            let cur_path = PathBuf::from(cur);
            let dir = cur_path.parent().filter(|p| !p.as_os_str().is_empty());
            let dir = dir.unwrap_or(Path::new("."));
            match newest_bench_file(dir, &[cur_path.as_path()]) {
                Some(b) => (b, cur_path),
                None => {
                    eprintln!(
                        "fwbench compare: no prior BENCH_*.json found in {}",
                        dir.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => return usage(),
    };

    let base = match load_record("compare", &base_path) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let cur = match load_record("compare", &cur_path) {
        Ok(r) => r,
        Err(c) => return c,
    };
    eprintln!(
        "fwbench compare: baseline {} (label '{}', rev {}) vs current {} (label '{}', rev {})",
        base_path.display(),
        base.label,
        base.env.git_rev,
        cur_path.display(),
        cur.label,
        cur.env.git_rev
    );
    note_observer_keys("compare", &base, &cur);
    match compare_reports(&base, &cur, &cfg) {
        Ok(res) => {
            print!("{}", res.render());
            if res.failed() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("fwbench compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_why(args: &[String]) -> ExitCode {
    let args = match parse_args("why", args, 2..=2, &[], &[]) {
        Ok(a) => a,
        Err(c) => return c,
    };
    let [base_path, cur_path] = args.positional[..] else {
        return usage();
    };
    let base = match load_record("why", Path::new(base_path)) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let cur = match load_record("why", Path::new(cur_path)) {
        Ok(r) => r,
        Err(c) => return c,
    };
    eprintln!(
        "fwbench why: baseline {base_path} (label '{}', rev {}) vs current {cur_path} (label '{}', rev {})",
        base.label, base.env.git_rev, cur.label, cur.env.git_rev
    );
    match why_reports(&base, &cur) {
        Ok(res) => {
            // After the refusals: `why` requires critical sections on both
            // sides, so only a diff that goes ahead has keys to note.
            note_observer_keys("why", &base, &cur);
            print!("{}", res.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fwbench why: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `fwbench serve` — run the online-serving suite and write the
/// `SERVE_<label>.json` record (schema `fwserve/v1`). The written file
/// is read back through the validating serve-record loader before the
/// command reports success, so a record that doesn't balance its own
/// admission books can never be published with exit 0.
fn cmd_serve(args: &[String]) -> ExitCode {
    let args = match parse_args(
        "serve",
        args,
        0..=0,
        &[
            "--suite",
            "--seed",
            "--queries",
            "--label",
            "--out",
            "--csv",
        ],
        &[],
    ) {
        Ok(a) => a,
        Err(c) => return c,
    };
    let suite_name = args.value("--suite").unwrap_or("ci");
    if suite_name != "ci" {
        eprintln!("unknown serve suite '{suite_name}' (known: ci)");
        return ExitCode::from(2);
    }
    let seed: u64 = match args.value("--seed") {
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--seed wants an integer");
                return ExitCode::from(2);
            }
        },
        None => DEFAULT_SEED,
    };
    let queries = match positive("serve", &args, "--queries", 96u64) {
        Ok(q) => q,
        Err(c) => return c,
    };
    let label = args.value("--label").unwrap_or(suite_name).to_string();
    let out: PathBuf = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("SERVE_{label}.json")));

    eprintln!("fwbench serve: suite={suite_name} seed={seed} queries={queries}/scenario");
    let result = run_ci_serve_suite(&label, seed, queries);
    let doc = build_serve_record(&result);
    if let Err(e) = std::fs::write(&out, doc.render()) {
        eprintln!("fwbench serve: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    // Self-check through the same loader CI and humans use, with the
    // same exit-code contract (3 parse, 4 invariant).
    if let Err(e) = load_serve_record(&out) {
        eprintln!("fwbench serve: written record fails validation: {e}");
        return ExitCode::from(e.exit_code());
    }
    if let Some(csv_path) = args.value("--csv") {
        if let Err(e) = std::fs::write(csv_path, serve_csv(&doc)) {
            eprintln!("fwbench serve: cannot write {csv_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("fwbench serve: wrote {csv_path}");
    }
    print!("{}", render_serve_table(&doc));
    eprintln!("fwbench serve: wrote {}", out.display());
    ExitCode::SUCCESS
}

/// Print a report's stdout, or pass its exit code through.
fn print_report(report: Result<String, ExitCode>) -> ExitCode {
    match report {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(c) => c,
    }
}

/// The grid flags of the figure subcommands: `--seeds N` (default 1),
/// `--threads N` (default 1) and `--datasets LIST` (default all five).
struct Grid {
    seeds: u64,
    threads: u32,
    datasets: Vec<DatasetId>,
}

/// The grid flags of a suite-backed report, and of a report that runs
/// one engine-native job per dataset of `DatasetId::ALL`.
const SUITE_FLAGS: &[&str] = &["--seeds", "--threads", "--datasets"];
const POOL_FLAGS: &[&str] = &["--threads"];

/// Parse a subcommand that takes only the grid flags in `valued`.
fn grid(cmd: &str, args: &[String], valued: &[&str]) -> Result<Grid, ExitCode> {
    let args = parse_args(cmd, args, 0..=0, valued, &[])?;
    let datasets = match args.value("--datasets") {
        Some(list) => parse_datasets(list).map_err(|e| usage_error(cmd, &e))?,
        None => DatasetId::ALL.to_vec(),
    };
    Ok(Grid {
        seeds: positive(cmd, &args, "--seeds", 1)?,
        threads: positive(cmd, &args, "--threads", 1)?,
        datasets,
    })
}

/// Run `suite`, or exit 1 saying why it cannot run.
fn run(cmd: &str, suite: &Suite) -> Result<SuiteResult, ExitCode> {
    run_suite(suite).map_err(|e| {
        eprintln!("fwbench {cmd}: {e}");
        ExitCode::FAILURE
    })
}

/// Run the named suite on a subcommand's grid flags and render its
/// report.
fn suite_report(
    cmd: &str,
    args: &[String],
    name: &str,
    render: fn(&SuiteResult) -> String,
) -> Result<String, ExitCode> {
    let g = grid(cmd, args, SUITE_FLAGS)?;
    let suite = Suite::named(name, seed_list(g.seeds)).expect("figure suites are in the table");
    let res = run(cmd, &suite.on_datasets(&g.datasets).with_threads(g.threads))?;
    Ok(render(&res))
}

fn fig(args: &[String]) -> Result<String, ExitCode> {
    let Some((which, args)) = args.split_first() else {
        return Err(usage_error(
            "fig",
            "wants a figure number (1, 5, 6, 7, 8 or 9)",
        ));
    };
    match which.as_str() {
        "1" => parse_args("fig", args, 0..=0, &[], &[]).map(|_| figures::fig1()),
        "5" => suite_report("fig", args, "fig5", figures::fig5),
        "6" => suite_report("fig", args, "fig6", figures::fig6),
        "7" => suite_report("fig", args, "fig7", figures::fig7),
        "8" => grid("fig", args, POOL_FLAGS).map(|g| figures::fig8(g.threads)),
        "9" => suite_report("fig", args, "fig9", figures::fig9),
        other => Err(usage_error(
            "fig",
            &format!("unknown figure {other} (known: 1, 5, 6, 7, 8, 9)"),
        )),
    }
}

fn table(args: &[String]) -> Result<String, ExitCode> {
    match parse_args("table", args, 1..=1, &[], &[])?.positional[0] {
        "configs" => Ok(figures::table_configs()),
        "area" => Ok(figures::table_area()),
        "datasets" => Ok(figures::table_datasets()),
        other => Err(usage_error(
            "table",
            &format!("unknown table {other} (known: configs, area, datasets)"),
        )),
    }
}

fn smoke(args: &[String]) -> Result<String, ExitCode> {
    let args = parse_args("smoke", args, 0..=2, &["--seeds"], &[])?;
    let id = dataset_arg("smoke", &args, 0)?;
    let walks = walks_arg("smoke", &args, 1, id.default_walks() / 4)?;
    let seeds = seed_list(positive("smoke", &args, "--seeds", 1)?);
    let suite = Suite::single(id, walks, default_gw_memory(), seeds);
    Ok(figures::smoke(&run("smoke", &suite)?))
}

/// Write `contents` to `path`, or exit 1 naming it.
fn write_file(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("fwbench trace: cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

fn trace(args: &[String]) -> Result<String, ExitCode> {
    let args = parse_args(
        "trace",
        args,
        0..=4,
        &[],
        &["--journeys", "--critical", "--heatmap"],
    )?;
    let journeys = args.has("--journeys");
    let heatmap = args.has("--heatmap");
    // The heatmap is derived from the dependency log, so asking for one
    // turns critical recording on.
    let critical = heatmap || args.has("--critical");
    let engine = args.positional.first().copied().unwrap_or("fw");
    let id = dataset_arg("trace", &args, 1)?;
    let walks = walks_arg("trace", &args, 2, id.default_walks() / 8)?;
    let Some(scenario) = engine_scenario(engine, id, walks) else {
        let known = ENGINES.join(", ");
        let msg = format!("unknown engine '{engine}' (known: {known})");
        return Err(usage_error("trace", &msg));
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
                eprintln!("fwbench trace: {flag} is a no-op on the iterative baseline");
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
        write_file(path, "")?;
    }

    let p = prepared(id, DEFAULT_SEED);
    eprintln!(
        "fwbench trace: engine={engine} dataset={} walks={walks}",
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

    let mut report = format!("{trace}\n");
    // Utilization ranks who was *busiest* — a correlation signal that
    // often, but not always, coincides with the causal bottleneck the
    // critical-path shares identify.
    let candidates = trace.bottleneck_candidates(3);
    if !candidates.is_empty() {
        report.push_str("busiest components (highest mean utilization — not causal):\n");
        for (name, util) in &candidates {
            report.push_str(&format!(
                "  {name} at {:.1}% mean utilization\n",
                util * 100.0
            ));
        }
    }
    if let Some(c) = &critical_report {
        report.push_str(&c.render_table());
    }

    let hm = critical_report
        .as_ref()
        .filter(|_| heatmap)
        .map(|c| HeatmapReport::from_critical(c, c.window_ns));
    if let (Some(path), Some(hm)) = (&heatmap_path, &hm) {
        write_file(path, &hm.csv())?;
        eprintln!(
            "fwbench trace: wrote {path} ({} lanes x {} windows)",
            hm.lanes.len(),
            hm.windows
        );
    }
    write_file(
        out,
        &chrome_trace_json(&trace, journey_report.as_ref(), hm.as_ref()),
    )?;
    write_file(&csv_path, &export::utilization_csv(&trace))?;
    eprintln!(
        "fwbench trace: wrote {out} ({} spans, {} dropped) and {csv_path}",
        trace.spans.len(),
        trace.dropped_spans,
    );
    if let Some(j) = &journey_report {
        report.push_str(&j.render_table());
        if let Some(path) = &journeys_path {
            write_file(path, &j.journeys_csv())?;
            eprintln!(
                "fwbench trace: wrote {path} ({} sampled walks)",
                j.sampled_walks
            );
        }
    }
    Ok(report)
}

fn diag(args: &[String]) -> Result<String, ExitCode> {
    let args = parse_args("diag", args, 0..=2, &[], &["--json"])?;
    let id = dataset_arg("diag", &args, 0)?;
    let walks = walks_arg("diag", &args, 1, id.default_walks() / 2)?;
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
    let probes = Probes {
        trace: true,
        ..Probes::default()
    };
    let traces: Vec<_> = ENGINES
        .into_iter()
        .filter_map(|tag| engine_scenario(tag, id, walks).map(|sc| (tag, sc)))
        .map(|(tag, sc)| {
            let r = run_one(&p, &sc, DEFAULT_SEED, probes, FaultProfile::none());
            (tag, r.trace.expect("span tracing was enabled"))
        })
        .collect();
    if args.has("--json") {
        return Ok(diag_json(id, walks, &traces).render());
    }

    let mut out = String::new();
    for (name, opts) in DIAG_CONFIGS {
        let cfg = AccelConfig {
            opts,
            alpha: DIAG_ALPHA,
            ..AccelConfig::scaled()
        };
        let r = run_flashwalker(&p, walks, cfg, DEFAULT_SEED);
        out.push_str(&stats_row(name, &r));
    }
    out.push_str("\nengine\tcomponent\tutilization / queue depth\n");
    for (tag, t) in &traces {
        out.push_str(&trace_rows(tag, t));
    }
    Ok(out)
}
