//! `fwbench` — the structured benchmark driver: run a declarative suite
//! into a schema-versioned `BENCH_<label>.json` record, and gate
//! regressions against a prior record with seed-noise-aware bounds and
//! paper-fidelity verdicts.
//!
//! ```text
//! fwbench run [--suite ci|paper] [--seeds N] [--label L] [--out PATH]
//!             [--no-trace] [--journeys] [--critical] [--threads N]
//!             [--faults none|light|heavy]
//! fwbench compare [BASELINE] [CURRENT] [--noise-floor F]
//! fwbench why BASELINE CURRENT
//! fwbench tail RECORD
//! fwbench serve [--suite ci] [--seed S] [--queries N] [--label L]
//!               [--out PATH] [--csv PATH]
//! ```
//!
//! Each subcommand takes exactly the flags listed; any other `--flag`
//! exits 2 naming it, and a removed flag also says why it went.
//!
//! `run` defaults: the `ci` suite, 3 seeds (or `FW_SEEDS`), label = suite
//! name, output `BENCH_<label>.json` in the working directory. Every
//! field is simulated or a run stamp, so output is byte-identical across
//! same-seed runs; host time is measured by the `bench/` package, not
//! here. `--threads N` (or `FW_THREADS`) fans scenario×seed cells over N
//! workers; each cell is one sequential engine run, so the simulated
//! record is identical at any thread count and a non-default count is
//! stamped into the env fingerprint.
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
//! Exit codes, all subcommands: 0 ok, 1 gate failed, 2 usage, 3 record
//! unreadable/malformed, 4 record parsed but an accounting invariant is
//! violated (see EXPERIMENTS.md "Exit codes").

use std::ops::RangeInclusive;
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
        "usage:\n  fwbench run [--suite ci|paper] [--seeds N] [--label L] [--out PATH] [--no-trace] [--journeys] [--critical] [--faults none|light|heavy] [--threads N]\n  fwbench compare [BASELINE] [CURRENT] [--noise-floor F]\n  fwbench why BASELINE CURRENT\n  fwbench tail RECORD\n  fwbench serve [--suite ci] [--seed S] [--queries N] [--label L] [--out PATH] [--csv PATH]"
    );
    ExitCode::from(2)
}

/// Removed flags, each with the reason it went: `(subcommand, flag,
/// reason)`. The removed `hostperf` subcommand is refused in `main`.
const REMOVED: &[(&str, &str, &str)] = &[
    (
        "run",
        "--rng",
        "every engine run is one sequential event loop with one walk RNG",
    ),
    (
        "run",
        "--wall",
        "records hold only simulated numbers; host time is measured by the bench/ package",
    ),
    (
        "compare",
        "--allow-journey-mismatch",
        "journeys are an observer key: a journey/plain mismatch is printed and never refuses",
    ),
    (
        "serve",
        "--threads",
        "each serving scenario is one sequential simulation with no worker threads to set",
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("why") => cmd_why(&args[1..]),
        Some("tail") => cmd_tail(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("hostperf") => {
            eprintln!(
                "fwbench: hostperf was removed: host time is measured by the bench/ package \
                 (EXPERIMENTS.md \"Host performance\")"
            );
            usage()
        }
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

/// A subcommand's command line, split against the flags it takes.
struct Args<'a> {
    positional: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Split `args` into positionals (their count must lie in
    /// `positionals`), `valued` flags with their values and `switches`.
    /// Any other `--flag` is a usage error (exit 2) naming it: ignoring it
    /// would run a different experiment than the command line asks for.
    /// A removed flag also says why it went.
    fn parse(
        cmd: &str,
        args: &'a [String],
        positionals: RangeInclusive<usize>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Args<'a>, ExitCode> {
        let mut out = Args {
            positional: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                out.positional.push(a);
            } else if valued.contains(&a) {
                let Some(v) = it.next() else {
                    eprintln!("fwbench {cmd}: {a} wants a value");
                    return Err(usage());
                };
                out.values.push((a, v));
            } else if switches.contains(&a) {
                out.switches.push(a);
            } else {
                match REMOVED.iter().find(|(c, f, _)| *c == cmd && *f == a) {
                    Some((_, _, why)) => eprintln!("fwbench {cmd}: {a} was removed: {why}"),
                    None => eprintln!("fwbench {cmd}: unknown flag {a}"),
                }
                return Err(usage());
            }
        }
        if !positionals.contains(&out.positional.len()) {
            return Err(usage());
        }
        Ok(out)
    }

    /// The value of the first occurrence of `flag`.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let args = match Args::parse(
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
    let seeds = match args.value("--seeds") {
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
    let threads: u32 = match args.value("--threads") {
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
    let path = match Args::parse("tail", args, 1..=1, &[], &[]) {
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
    let args = match Args::parse("compare", args, 1..=2, &["--noise-floor"], &[]) {
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
    let args = match Args::parse("why", args, 2..=2, &[], &[]) {
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
    let args = match Args::parse(
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
    let queries: u64 = match args.value("--queries") {
        Some(q) => match q.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--queries wants a positive integer");
                return ExitCode::from(2);
            }
        },
        None => 96,
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
