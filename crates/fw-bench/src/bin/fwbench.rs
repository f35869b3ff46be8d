//! `fwbench` — the structured benchmark driver: run a declarative suite
//! into a schema-versioned `BENCH_<label>.json` record, and gate
//! regressions against a prior record with seed-noise-aware bounds and
//! paper-fidelity verdicts.
//!
//! ```text
//! fwbench run [--suite ci|paper] [--seeds N] [--label L] [--out PATH]
//!             [--wall] [--no-trace] [--journeys] [--critical] [--threads N]
//! fwbench compare [BASELINE] [CURRENT] [--noise-floor F]
//!                 [--allow-journey-mismatch]
//! fwbench why BASELINE CURRENT
//! fwbench hostperf RECORD [BASELINE]
//! fwbench tail RECORD
//! fwbench serve [--suite ci] [--seed S] [--queries N] [--label L]
//!               [--out PATH] [--csv PATH]
//! ```
//!
//! `run` defaults: the `ci` suite, 3 seeds (or `FW_SEEDS`), label = suite
//! name, output `BENCH_<label>.json` in the working directory. Output is
//! byte-identical across same-seed runs; `--wall` adds host wall-clock
//! columns, a suite wall total, and a per-scenario `host` section
//! (informational, not byte-stable, never gated). `--threads N` (or
//! `FW_THREADS`) fans scenario×seed cells over N workers; each cell is
//! one sequential engine run, so the simulated record is identical at
//! any thread count — only wall-clock moves — and a non-default count is
//! stamped into the env fingerprint.
//!
//! `compare` with one path compares it against the newest *other*
//! `BENCH_*.json` in its directory; with two paths the first is the
//! baseline. Exits 1 when the regression gate or a fidelity verdict
//! fails, so CI can gate on it. Thread and worker counts are observer
//! keys: a mismatch is printed but never refuses the diff.
//!
//! `run --journeys` records sampled walk journeys on every seed-0 run:
//! the record's scenario rows gain a `journeys` section (walk-latency
//! percentiles, per-walk critical-path decompositions, the tail
//! attribution table) and the env fingerprint is stamped, so journey and
//! plain records never diff silently. Journey records default to a
//! `-journeys` label suffix for the same reason fault runs do: the plain
//! `BENCH_<suite>.json` byte-identity baseline stays untouched.
//!
//! `hostperf` prints the `host` section of a `--wall` record — wall-clock,
//! host work units, events/sec and events/sec-per-worker per scenario,
//! plus the suite wall total — and, given a second record, the wall-clock
//! speedup of the first over it. Informational only: host performance
//! never gates.
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
//! Exit codes, all subcommands: 0 ok, 1 gate failed, 2 usage, 3 record
//! unreadable/malformed, 4 record parsed but an accounting invariant is
//! violated (see EXPERIMENTS.md "Exit codes").

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fw_bench::bench_json::{newest_bench_file, BenchReport};
use fw_bench::compare::{compare_reports, CompareConfig};
use fw_bench::record::{load_bench_report, load_serve_record};
use fw_bench::runner::DEFAULT_SEED;
use fw_bench::serve::{build_serve_record, render_serve_table, run_ci_serve_suite, serve_csv};
use fw_bench::suite::{build_bench_report, env_seeds, env_threads, run_suite, Suite};
use fw_bench::why::why_reports;
use fw_fault::FaultProfile;
use fw_sim::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fwbench run [--suite ci|paper] [--seeds N] [--label L] [--out PATH] [--wall] [--no-trace] [--journeys] [--critical] [--faults none|light|heavy] [--threads N]\n  fwbench compare [BASELINE] [CURRENT] [--noise-floor F] [--allow-journey-mismatch]\n  fwbench why BASELINE CURRENT\n  fwbench hostperf RECORD [BASELINE]\n  fwbench tail RECORD\n  fwbench serve [--suite ci] [--seed S] [--queries N] [--label L] [--out PATH] [--csv PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("why") => cmd_why(&args[1..]),
        Some("hostperf") => cmd_hostperf(&args[1..]),
        Some("tail") => cmd_tail(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => usage(),
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

/// Refuse a flag this subcommand no longer takes (exit 2). Ignoring it
/// would run a different experiment than the command line asks for.
fn removed_flag(cmd: &str, args: &[String], flag: &str) -> Option<ExitCode> {
    if !args.iter().any(|a| a == flag) {
        return None;
    }
    eprintln!(
        "fwbench {cmd}: {flag} was removed: every engine run is one sequential event loop with one walk RNG"
    );
    Some(usage())
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_run(args: &[String]) -> ExitCode {
    if let Some(code) = removed_flag("run", args, "--rng") {
        return code;
    }
    let suite_name = flag_value(args, "--suite").unwrap_or("ci");
    let seeds = match flag_value(args, "--seeds") {
        Some(n) => {
            let n: u64 = match n.parse() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("--seeds wants a positive integer");
                    return ExitCode::from(2);
                }
            };
            (0..n).map(|i| DEFAULT_SEED + i).collect()
        }
        // FW_SEEDS is the figure binaries' knob; honor it here too, but
        // default to 3 so the record always carries a noise band.
        None if std::env::var("FW_SEEDS").is_ok() => env_seeds(),
        None => (0..3).map(|i| DEFAULT_SEED + i).collect(),
    };
    let mut suite = match suite_name {
        "ci" => Suite::ci_small(seeds),
        "paper" => Suite::paper(seeds),
        other => {
            eprintln!("unknown suite '{other}' (known: ci, paper)");
            return ExitCode::from(2);
        }
    };
    if args.iter().any(|a| a == "--no-trace") {
        suite.trace = false;
    }
    if args.iter().any(|a| a == "--journeys") {
        suite = suite.with_journeys();
    }
    if args.iter().any(|a| a == "--critical") {
        suite = suite.with_critical();
    }
    if let Some(name) = flag_value(args, "--faults") {
        match FaultProfile::parse(name) {
            Ok(p) => suite = suite.with_faults(p),
            Err(e) => {
                eprintln!("fwbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let threads: u32 = match flag_value(args, "--threads") {
        Some(t) => match t.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--threads wants a positive integer");
                return ExitCode::from(2);
            }
        },
        // FW_THREADS is the figure binaries' knob; honor it here too.
        None => env_threads(),
    };
    suite = suite.with_threads(threads);
    let include_wall = args.iter().any(|a| a == "--wall");
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
    let label = flag_value(args, "--label")
        .unwrap_or(&default_label)
        .to_string();
    let out: PathBuf = flag_value(args, "--out")
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
    let report = build_bench_report(&label, &result, include_wall);
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

fn cmd_hostperf(args: &[String]) -> ExitCode {
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let (cur_path, base_path) = match paths.as_slice() {
        [cur] => (PathBuf::from(cur), None),
        [cur, base] => (PathBuf::from(cur), Some(PathBuf::from(base))),
        _ => return usage(),
    };
    let load = |p: &Path| load_record("hostperf", p);
    let cur = match load(&cur_path) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let Some(host) = &cur.host else {
        eprintln!(
            "fwbench hostperf: {} has no 'host' section — re-run with `fwbench run --wall`",
            cur_path.display()
        );
        return ExitCode::FAILURE;
    };
    // Carry the baseline path *with* the loaded record, so every later
    // use of the path is on the proven-Some arm — a missing baseline
    // argument can only reach the shared loader's error path (exit 3),
    // never an unwrap.
    let base: Option<(PathBuf, BenchReport)> = match base_path {
        Some(p) => match load(&p) {
            Ok(r) => Some((p, r)),
            Err(c) => return c,
        },
        None => None,
    };
    // Baseline wall-ns per scenario, resolved through the shared helper
    // (host section first, scenario `wall_time_ms` fallback rounded
    // half-up). A scenario the baseline can't price is *reported*, not
    // silently dropped from the "vs base" column.
    let base_wall_ns = |name: &str| -> Option<u64> {
        let (_, b) = base.as_ref()?;
        match fw_bench::hostperf::baseline_wall_ns(b, name) {
            Ok(ns) => Some(ns),
            Err(why) => {
                eprintln!("fwbench hostperf: no baseline wall for '{name}': {why}");
                None
            }
        }
    };
    if let Some((p, b)) = &base {
        if b.host.is_none() && b.scenarios.iter().all(|s| s.wall_time_ms.mean == 0.0) {
            eprintln!(
                "fwbench hostperf: baseline {} has no wall-clock data — re-run with `fwbench run --wall`",
                p.display()
            );
            return ExitCode::FAILURE;
        }
    }

    // Per-worker figures divide by the *effective* worker count: when the
    // clamp fired (`--threads` wider than the suite), `workers` is what
    // actually ran. Records predating the field parse as workers==threads.
    let workers = cur.env.workers.max(1);
    eprintln!(
        "fwbench hostperf: {} (label '{}', rev {}, {} worker(s))",
        cur_path.display(),
        cur.label,
        cur.env.git_rev,
        workers
    );
    // Ideal-scaling efficiency: this record's ev/s-per-worker as a
    // fraction of the baseline's. Against a 1-worker baseline this is
    // exactly "how much of perfect N× scaling did N workers deliver".
    let base_evs_per_worker = |name: &str| -> Option<f64> {
        let (_, b) = base.as_ref()?;
        let bw = b.env.workers.max(1) as f64;
        b.host
            .as_ref()?
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.events_per_sec.mean / bw)
            .filter(|&e| e > 0.0)
    };
    println!(
        "{:<28} {:>13} {:>12} {:>14} {:>12} {:>9} {:>7}",
        "scenario", "wall_ms(mean)", "host_events", "events/sec", "ev/s/worker", "vs base", "eff"
    );
    let mut total_cur = 0u64;
    let mut total_base = 0u64;
    for h in host {
        let vs = base_wall_ns(&h.name).map(|b| {
            total_cur += h.wall_ns.mean;
            total_base += b;
            b as f64 / h.wall_ns.mean.max(1) as f64
        });
        let per_worker = h.events_per_sec.mean / workers as f64;
        let eff = base_evs_per_worker(&h.name).map(|b| per_worker / b);
        println!(
            "{:<28} {:>13.3} {:>12} {:>14.0} {:>12.0} {:>9} {:>7}",
            h.name,
            h.wall_ns.mean as f64 / 1e6,
            h.host_events.mean,
            h.events_per_sec.mean,
            per_worker,
            match vs {
                Some(s) => format!("{s:.2}x"),
                None => "-".to_string(),
            },
            match eff {
                Some(e) => format!("{:.0}%", e * 100.0),
                None => "-".to_string(),
            }
        );
    }
    if total_base > 0 {
        println!(
            "{:<28} {:>13.3} {:>12} {:>14} {:>12} {:>8.2}x {:>7}",
            "TOTAL",
            total_cur as f64 / 1e6,
            "-",
            "-",
            "-",
            total_base as f64 / total_cur.max(1) as f64,
            "-"
        );
    }
    // Suite wall total: the elapsed time of the whole sweep, the number
    // the thread-scaling experiments compare. Older `--wall` records
    // predate the field (and the `threads` stamp); say so instead of
    // inventing a total from overlapping per-cell times.
    match cur.suite_wall_ns {
        Some(ns) => {
            let base_suite = base.as_ref().and_then(|(_, b)| b.suite_wall_ns);
            match base_suite {
                Some(bns) => {
                    let speedup = bns as f64 / ns.max(1) as f64;
                    let base_workers =
                        base.as_ref().map(|(_, b)| b.env.workers.max(1)).unwrap_or(1);
                    // Suite-level scaling efficiency: measured speedup as
                    // a fraction of the ideal worker-count ratio.
                    let ideal = workers as f64 / base_workers as f64;
                    println!(
                        "suite wall {:.3} ms at {} worker(s) — {:.2}x vs baseline's {:.3} ms at {} worker(s) ({:.0}% of ideal)",
                        ns as f64 / 1e6,
                        workers,
                        speedup,
                        bns as f64 / 1e6,
                        base_workers,
                        speedup / ideal * 100.0
                    );
                }
                None => println!("suite wall {:.3} ms at {} worker(s)", ns as f64 / 1e6, workers),
            }
        }
        None => eprintln!(
            "fwbench hostperf: record predates the suite-wall/threads fields — per-worker numbers assume 1 worker"
        ),
    }
    ExitCode::SUCCESS
}

fn cmd_tail(args: &[String]) -> ExitCode {
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [path] = paths.as_slice() else {
        return usage();
    };
    let path = PathBuf::from(path);
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

/// Print the thread/worker stamps of both records when they differ. They
/// are observer keys: the cell-pool width never changes a simulated
/// number, so the diff proceeds either way.
fn note_observer_keys(cmd: &str, base: &BenchReport, cur: &BenchReport) {
    let (b, c) = (&base.env, &cur.env);
    if (b.threads, b.workers) != (c.threads, c.workers) {
        eprintln!(
            "fwbench {cmd}: baseline ran {} thread(s) / {} worker(s), current {} / {} \
             (observer keys, not compared)",
            b.threads, b.workers, c.threads, c.workers
        );
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut cfg = CompareConfig::default();
    if args.iter().any(|a| a == "--allow-journey-mismatch") {
        cfg.allow_journey_mismatch = true;
    }
    if let Some(f) = flag_value(args, "--noise-floor") {
        match f.parse() {
            Ok(v) => cfg.noise_floor = v,
            Err(_) => {
                eprintln!("--noise-floor wants a number (e.g. 0.02)");
                return ExitCode::from(2);
            }
        }
    }
    let paths: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(args.get(i.wrapping_sub(1)), Some(prev) if prev == "--noise-floor")
        })
        .map(|(_, a)| a)
        .collect();

    let (base_path, cur_path): (PathBuf, PathBuf) = match paths.as_slice() {
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
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [base_path, cur_path] = paths.as_slice() else {
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
    note_observer_keys("why", &base, &cur);
    match why_reports(&base, &cur) {
        Ok(res) => {
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
    if let Some(code) = removed_flag("serve", args, "--threads") {
        return code;
    }
    let suite_name = flag_value(args, "--suite").unwrap_or("ci");
    if suite_name != "ci" {
        eprintln!("unknown serve suite '{suite_name}' (known: ci)");
        return ExitCode::from(2);
    }
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--seed wants an integer");
                return ExitCode::from(2);
            }
        },
        None => DEFAULT_SEED,
    };
    let queries: u64 = match flag_value(args, "--queries") {
        Some(q) => match q.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--queries wants a positive integer");
                return ExitCode::from(2);
            }
        },
        None => 96,
    };
    let label = flag_value(args, "--label")
        .unwrap_or(suite_name)
        .to_string();
    let out: PathBuf = flag_value(args, "--out")
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
    if let Some(csv_path) = flag_value(args, "--csv") {
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
