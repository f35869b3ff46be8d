//! CLI regression tests for `fwsim`: an `rmat:V:E` graph with fewer than
//! two vertices must exit through usage (2) instead of panicking in the
//! generator, and a valid one must still run. The binary under test comes
//! from `CARGO_BIN_EXE_fwsim`.

use std::process::{Command, Output};

fn fwsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fwsim"))
        .args(args)
        .output()
        .expect("run fwsim")
}

#[test]
fn rmat_with_fewer_than_two_vertices_is_a_usage_error() {
    let out_file = std::env::temp_dir().join("fwsim_cli_one_vertex.txt");
    let _ = std::fs::remove_file(&out_file);
    let cases: [&[&str]; 2] = [
        &["gen", "rmat:1:10", out_file.to_str().unwrap()],
        &["info", "rmat:0:5"],
    ];
    for args in cases {
        let out = fwsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("needs V >= 2"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    assert!(
        !out_file.exists(),
        "a refused gen must not write its output"
    );
}

#[test]
fn two_vertex_rmat_graph_is_accepted() {
    let out = fwsim(&["info", "rmat:2:10"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("vertices      2"));
}
