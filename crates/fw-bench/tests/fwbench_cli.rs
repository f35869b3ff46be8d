//! CLI regression tests for `fwbench hostperf`: the missing-baseline
//! argument/path cases must exit through the usage and shared-loader
//! paths (2 / 3) instead of panicking, and a baseline whose fallback
//! wall-time is zero or sub-microsecond must be visibly warned about or
//! compared — never silently dropped from the "vs base" column. Also the
//! shared loader's refusal of records from the removed per-lane RNG mode,
//! the refusal of the removed engine-thread and RNG flags, and the
//! diagnostic binaries' refusal of unknown datasets and unwritable output
//! paths before any simulation runs.
//!
//! Records are doctored `tests_support::tiny_report` fixtures written to
//! a per-test temp directory; the binary under test comes from
//! `CARGO_BIN_EXE_fwbench`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fw_bench::bench_json::{tests_support::tiny_report, BenchReport, HostScenario, StatF, StatU};

fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fwbench_cli_{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_record(dir: &Path, name: &str, rep: &BenchReport) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, rep.render()).expect("write record");
    path
}

fn hostperf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fwbench"))
        .arg("hostperf")
        .args(args)
        .output()
        .expect("run fwbench")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("fwbench exited without a signal")
}

/// A current record with a `host` section covering the given scenario
/// names at a fixed 600 ns mean wall each.
fn current_with_host(names: &[&str]) -> BenchReport {
    let mut rep = tiny_report();
    let stat_u = |v: u64| StatU {
        mean: v,
        min: v,
        max: v,
    };
    let stat_f = |v: f64| StatF {
        mean: v,
        min: v,
        max: v,
    };
    let template = rep.scenarios[0].clone();
    rep.scenarios = names
        .iter()
        .map(|n| {
            let mut s = template.clone();
            s.name = (*n).to_string();
            s
        })
        .collect();
    rep.host = Some(
        names
            .iter()
            .map(|n| HostScenario {
                name: (*n).to_string(),
                wall_ns: stat_u(600),
                host_events: stat_u(1_000),
                events_per_sec: stat_f(1e6),
            })
            .collect(),
    );
    rep.suite_wall_ns = Some(1_000_000);
    rep
}

/// A baseline with no `host` section whose scenario rows carry the given
/// `wall_time_ms` means (the pre-host-section record shape the fallback
/// path exists for).
fn fallback_baseline(rows: &[(&str, f64)]) -> BenchReport {
    let mut rep = tiny_report();
    let template = rep.scenarios[0].clone();
    rep.scenarios = rows
        .iter()
        .map(|(n, ms)| {
            let mut s = template.clone();
            s.name = (*n).to_string();
            s.wall_time_ms = StatF {
                mean: *ms,
                min: *ms,
                max: *ms,
            };
            s
        })
        .collect();
    rep
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = hostperf(&[]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "stderr should print usage"
    );
}

#[test]
fn missing_baseline_path_exits_through_the_loader_not_a_panic() {
    let dir = tmp_dir("missing_baseline");
    let cur = write_record(&dir, "cur.json", &current_with_host(&["fw/TT/w100"]));
    let out = hostperf(&[cur.to_str().unwrap(), "/nonexistent/baseline.json"]);
    assert_eq!(exit_code(&out), 3, "shared loader's parse exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("fwbench hostperf:"),
        "clean message, got: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn baseline_without_any_wall_data_fails_cleanly() {
    let dir = tmp_dir("no_wall");
    let cur = write_record(&dir, "cur.json", &current_with_host(&["fw/TT/w100"]));
    // tiny_report's wall is StatF::zero() and it has no host section —
    // the "never ran --wall" baseline.
    let base = write_record(&dir, "base.json", &tiny_report());
    let out = hostperf(&[cur.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no wall-clock data"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn sub_microsecond_fallback_wall_is_compared_with_round_half_up() {
    let dir = tmp_dir("submicro");
    let cur = write_record(&dir, "cur.json", &current_with_host(&["fw/TT/w100"]));
    // 0.0003 ms = 300 ns against the current 600 ns: the old floor-cast
    // gave 299 ns (0.49833…x) and anything smaller was dropped entirely.
    let base = write_record(
        &dir,
        "base.json",
        &fallback_baseline(&[("fw/TT/w100", 0.0003)]),
    );
    let out = hostperf(&[cur.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(
        exit_code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0.50x"),
        "300/600 must compare as exactly 0.50x, got:\n{stdout}"
    );
}

#[test]
fn sharded_rng_record_is_refused_with_the_parse_exit_code() {
    let dir = tmp_dir("sharded_rng");
    let base = write_record(&dir, "base.json", &tiny_report());
    // A record from the removed per-lane RNG mode: the env still carries
    // the `rng` stamp. It must not load as an ordinary record.
    let text =
        tiny_report()
            .render()
            .replacen("\"suite\":", "\"rng\": \"sharded\",\n    \"suite\":", 1);
    let cur = dir.join("cur.json");
    std::fs::write(&cur, text).expect("write record");
    let out = Command::new(env!("CARGO_BIN_EXE_fwbench"))
        .args(["compare", base.to_str().unwrap(), cur.to_str().unwrap()])
        .output()
        .expect("run fwbench");
    assert_eq!(exit_code(&out), 3, "shared loader's parse exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no longer supported"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn removed_thread_and_rng_flags_are_usage_errors() {
    // Each must be refused before any run starts, not read as a
    // positional argument or silently ignored.
    let cases: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_fwbench"), &["run", "--rng", "sharded"]),
        (env!("CARGO_BIN_EXE_fwbench"), &["serve", "--threads", "2"]),
        (
            env!("CARGO_BIN_EXE_fwtrace"),
            &["fw", "TT", "400000", "--rng", "sharded"],
        ),
        (
            env!("CARGO_BIN_EXE_fwtrace"),
            &["--threads", "4", "fw", "TT"],
        ),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("run binary");
        assert_eq!(exit_code(&out), 2, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("was removed"), "{args:?}: {err}");
    }
}

#[test]
fn bad_diagnostic_arguments_fail_before_any_run() {
    // Unknown datasets and walk counts used to fall back to TT and exit
    // 0; an unwritable output path used to panic after the whole run.
    let missing = tmp_dir("fwtrace_unwritable").join("missing").join("x.json");
    let missing = missing.to_str().unwrap();
    let (fwtrace, diag) = (env!("CARGO_BIN_EXE_fwtrace"), env!("CARGO_BIN_EXE_diag"));
    let cases: [(&str, &[&str], i32, &str); 4] = [
        (fwtrace, &["fw", "XYZ"], 2, "usage:"),
        (fwtrace, &["fw", "R2B", "many"], 2, "usage:"),
        (diag, &["XYZ"], 2, "usage:"),
        (fwtrace, &["fw", "R2B", "9", missing], 1, "cannot write"),
    ];
    for (bin, args, code, needle) in cases {
        let out = Command::new(bin).args(args).output().expect("run binary");
        assert_eq!(exit_code(&out), code, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        // fwtrace's and diag's run banners: neither may be reached.
        for banner in ["engine=", "subgraphs="] {
            assert!(!err.contains(banner), "{args:?} must not simulate: {err}");
        }
    }
}

#[test]
fn zero_wall_fallback_scenario_warns_visibly_instead_of_silently_dropping() {
    let dir = tmp_dir("zero_wall_row");
    let cur = write_record(
        &dir,
        "cur.json",
        &current_with_host(&["fw/TT/w100", "gw/TT/w100"]),
    );
    // One row has real wall data (so the record passes the global
    // no-wall gate), the other is zero — the shape the old code dropped
    // without a word.
    let base = write_record(
        &dir,
        "base.json",
        &fallback_baseline(&[("fw/TT/w100", 0.0003), ("gw/TT/w100", 0.0)]),
    );
    let out = hostperf(&[cur.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("no baseline wall for 'gw/TT/w100'"),
        "dropped scenario must be named on stderr, got: {err}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0.50x"),
        "the priced row still compares:\n{stdout}"
    );
}
