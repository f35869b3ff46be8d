//! CLI regression tests for `fwbench`: the shared loader's refusal of
//! records this build cannot read (the removed per-lane RNG mode, the
//! `fwbench/v1` layout), the refusal of unknown flags and subcommands, the
//! figure, table and diagnostic subcommands' refusal of unknown datasets,
//! figures, tables and unwritable output paths before any simulation
//! runs.
//!
//! Records are doctored `tests_support::tiny_report` fixtures written to
//! a per-test temp directory; the binary under test comes from
//! `CARGO_BIN_EXE_fwbench`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fw_bench::bench_json::{tests_support::tiny_report, BenchReport};

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

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("fwbench exited without a signal")
}

fn fwbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fwbench"))
        .args(args)
        .output()
        .expect("run fwbench")
}

/// Assert that no simulation started: none of the run banners of `run`,
/// `trace` and `diag`, and no per-dataset progress line (`[TT] …`) of a
/// suite, figure or ablation.
fn assert_nothing_ran(args: &[&str], err: &str) {
    for banner in ["fwbench: suite=", "engine=", "subgraphs="] {
        assert!(!err.contains(banner), "{args:?} must not run: {err}");
    }
    assert!(
        !err.lines().any(|l| l.starts_with('[')),
        "{args:?} must not run: {err}"
    );
}

#[test]
fn sharded_rng_record_is_refused_with_the_parse_exit_code() {
    let dir = tmp_dir("sharded_rng");
    let base = write_record(&dir, "base.json", &tiny_report());
    let current = tiny_report().render();
    let cases = [
        // A record from the removed per-lane RNG mode: the env still
        // carries the `rng` stamp. It must not load as an ordinary record.
        (
            current.replacen("\"suite\":", "\"rng\": \"sharded\",\n    \"suite\":", 1),
            "no longer supported",
        ),
        // A record in the previous layout (it carried wall-clock fields).
        (
            current.replacen("\"fwbench/v2\"", "\"fwbench/v1\"", 1),
            "re-run the suite",
        ),
    ];
    for (text, needle) in cases {
        assert_ne!(text, current, "the fixture must be doctored");
        let cur = dir.join("cur.json");
        std::fs::write(&cur, text).expect("write record");
        let out = fwbench(&["compare", base.to_str().unwrap(), cur.to_str().unwrap()]);
        assert_eq!(exit_code(&out), 3, "shared loader's parse exit code");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "want {needle:?}, got: {err}");
        assert!(!err.contains("panicked"), "must not panic: {err}");
    }
}

#[test]
fn removed_thread_and_rng_flags_are_usage_errors() {
    // Each must be refused before any run starts, naming the argument,
    // not read as a positional argument or silently ignored.
    let cases: [(&[&str], &str); 15] = [
        (&["run", "--rng", "sharded"], "unknown flag --rng"),
        (&["serve", "--threads", "2"], "unknown flag --threads"),
        (&["run", "--wall"], "unknown flag --wall"),
        (
            &["compare", "a.json", "b.json", "--allow-journey-mismatch"],
            "unknown flag --allow-journey-mismatch",
        ),
        (&["hostperf", "a.json"], "hostperf: unknown subcommand"),
        // A typo'd flag used to be dropped with its value, running the
        // default seeds without a word.
        (
            &["run", "--suite", "ci", "--seed", "7"],
            "unknown flag --seed",
        ),
        (&["tail", "a.json", "--journeys"], "unknown flag --journeys"),
        (
            &["trace", "fw", "TT", "400000", "--rng", "sharded"],
            "unknown flag --rng",
        ),
        (
            &["trace", "--threads", "4", "fw", "TT"],
            "unknown flag --threads",
        ),
        // trace and diag used to drop a typo'd switch and run without it,
        // and to ignore surplus positionals.
        (
            &["trace", "fw", "R2B", "500", "t.json", "--jouneys"],
            "unknown flag --jouneys",
        ),
        (
            &["trace", "fw", "R2B", "500", "t.json", "extra"],
            "unexpected argument extra",
        ),
        (&["diag", "R2B", "300", "--jsn"], "unknown flag --jsn"),
        (
            &["diag", "R2B", "300", "extra"],
            "unexpected argument extra",
        ),
        (&["run", "--seeds"], "--seeds wants a value"),
        (&["why", "a.json"], "wants 2 positional argument(s), got 1"),
    ];
    for (args, needle) in cases {
        let out = fwbench(args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(needle),
            "{args:?}: want {needle:?}, got: {err}"
        );
        assert_nothing_ran(args, &err);
    }
}

#[test]
fn figure_subcommands_refuse_bad_arguments_before_any_run() {
    let cases: [(&[&str], &str); 11] = [
        // An unknown dataset used to panic (exit 101) on an empty suite.
        (&["fig", "5", "--datasets", "XYZ"], "unknown dataset 'XYZ'"),
        (
            &["fig", "5", "--datasets", "TT,XYZ"],
            "unknown dataset 'XYZ'",
        ),
        (&["fig", "5", "--seed", "3"], "unknown flag --seed"),
        (
            &["fig", "5", "--seeds", "0"],
            "--seeds wants a positive integer",
        ),
        (&["fig", "4"], "unknown figure 4"),
        (&["fig", "1", "--seeds", "2"], "unknown flag --seeds"),
        // Fig. 8 and energy always run all five datasets.
        (&["fig", "8", "--datasets", "TT"], "unknown flag --datasets"),
        (&["energy", "--datasets", "TT"], "unknown flag --datasets"),
        (&["table", "3"], "unknown table 3"),
        (&["ablation", "TT", "extra"], "unexpected argument extra"),
        // `run` takes no dataset filter: a record stamped with a suite
        // name must hold that suite's whole grid.
        (
            &["run", "--suite", "paper", "--datasets", "TT"],
            "unknown flag --datasets",
        ),
    ];
    for (args, needle) in cases {
        let out = fwbench(args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(needle),
            "{args:?}: want {needle:?}, got: {err}"
        );
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert_nothing_ran(args, &err);
    }
}

#[test]
fn iterative_no_op_notice_names_the_flag_given() {
    // `--heatmap` implies critical recording, but the notice must name
    // the flag on the command line, not the one it implies.
    let out = tmp_dir("fwtrace_iter_notice").join("t.json");
    let o = fwbench(&[
        "trace",
        "iter",
        "R2B",
        "50",
        out.to_str().unwrap(),
        "--heatmap",
    ]);
    assert_eq!(exit_code(&o), 0);
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("--heatmap is a no-op"), "{err}");
    assert!(!err.contains("--critical"), "{err}");
}

#[test]
fn bad_diagnostic_arguments_fail_before_any_run() {
    // Unknown datasets and walk counts used to fall back to TT and exit
    // 0, and a zero walk count ran an empty experiment; an unwritable
    // output path used to panic after the whole run.
    let missing = tmp_dir("fwtrace_unwritable").join("missing").join("x.json");
    let missing = missing.to_str().unwrap();
    let cases: [(&[&str], i32, &str); 9] = [
        (&["trace", "fw", "XYZ"], 2, "usage:"),
        (&["trace", "fw", "R2B", "many"], 2, "usage:"),
        (&["trace", "fw", "TT", "0"], 2, "walk count '0'"),
        (&["diag", "TT", "0"], 2, "walk count '0'"),
        (&["smoke", "TT", "0"], 2, "walk count '0'"),
        (&["trace", "hw", "R2B"], 2, "unknown engine 'hw'"),
        (&["diag", "XYZ"], 2, "usage:"),
        (&["smoke", "TT", "many"], 2, "usage:"),
        (&["trace", "fw", "R2B", "9", missing], 1, "cannot write"),
    ];
    for (args, code, needle) in cases {
        let out = fwbench(args);
        assert_eq!(exit_code(&out), code, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert_nothing_ran(args, &err);
    }
}
