//! CLI regression tests for `fwbench`: the shared loader's refusal of
//! records this build cannot read (the removed per-lane RNG mode, the
//! `fwbench/v1` layout), the refusal of removed and unknown flags, and the
//! diagnostic binaries' refusal of unknown datasets and unwritable output
//! paths before any simulation runs.
//!
//! Records are doctored `tests_support::tiny_report` fixtures written to
//! a per-test temp directory; the binaries under test come from
//! `CARGO_BIN_EXE_*`.

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
        let out = Command::new(env!("CARGO_BIN_EXE_fwbench"))
            .args(["compare", base.to_str().unwrap(), cur.to_str().unwrap()])
            .output()
            .expect("run fwbench");
        assert_eq!(exit_code(&out), 3, "shared loader's parse exit code");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "want {needle:?}, got: {err}");
        assert!(!err.contains("panicked"), "must not panic: {err}");
    }
}

#[test]
fn removed_thread_and_rng_flags_are_usage_errors() {
    // Each must be refused before any run starts, not read as a
    // positional argument or silently ignored, and a removed flag must
    // give its own reason.
    let (fwbench, fwtrace) = (env!("CARGO_BIN_EXE_fwbench"), env!("CARGO_BIN_EXE_fwtrace"));
    let cases: [(&str, &[&str], &str); 9] = [
        (
            fwbench,
            &["run", "--rng", "sharded"],
            "--rng was removed: every engine run",
        ),
        (
            fwbench,
            &["serve", "--threads", "2"],
            "--threads was removed: each serving",
        ),
        (
            fwbench,
            &["run", "--wall"],
            "--wall was removed: records hold only simulated",
        ),
        (
            fwbench,
            &["compare", "a.json", "b.json", "--allow-journey-mismatch"],
            "--allow-journey-mismatch was removed: journeys are an observer key",
        ),
        (fwbench, &["hostperf", "a.json"], "hostperf was removed"),
        // A typo'd flag used to be dropped with its value, running the
        // default seeds without a word.
        (
            fwbench,
            &["run", "--suite", "ci", "--seed", "7"],
            "unknown flag --seed",
        ),
        (
            fwbench,
            &["tail", "a.json", "--journeys"],
            "unknown flag --journeys",
        ),
        (
            fwtrace,
            &["fw", "TT", "400000", "--rng", "sharded"],
            "was removed",
        ),
        (fwtrace, &["--threads", "4", "fw", "TT"], "was removed"),
    ];
    for (bin, args, needle) in cases {
        let out = Command::new(bin).args(args).output().expect("run binary");
        assert_eq!(exit_code(&out), 2, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(needle),
            "{args:?}: want {needle:?}, got: {err}"
        );
        assert!(
            !err.contains("fwbench: suite="),
            "{args:?} must not run: {err}"
        );
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
