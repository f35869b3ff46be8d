//! `BENCHMARK.json` must be the rendering of the benchmark's own tables,
//! and those tables must satisfy the benchmark format's limits.
//!
//! Every run additionally refuses to print a result unless the metrics it
//! recorded are exactly the declared ones (`Metrics::select`).

use fw_benchmark::defs::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// How the benchmark is invoked, from the repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];
/// The directories holding the benchmark.
const PATHS: [&str; 1] = ["bench"];
/// Minimum measuring seconds per run.
const RUN_SECONDS: u32 = 10;

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", q.join(", "))
}

fn render() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[test]
fn benchmark_json_renders_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let expected = render();
    assert!(
        on_disk == expected,
        "BENCHMARK.json is out of date with src/defs.rs; expected:\n{expected}"
    );
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn tables_respect_the_format_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert_eq!(PATHS, ["bench"]);
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));

    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(is_name(n), "bad name {n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");

    for w in WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
            "why of {}",
            w.name
        );
    }
    for m in END_TO_END {
        assert!(is_unit(m.unit), "unit of {}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    for m in PER_LAYER {
        assert!(is_unit(m.unit), "unit of {}", m.name);
    }
}

#[test]
fn every_layer_metric_names_what_it_moves_and_where() {
    for m in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} moves unknown end-to-end metric {}",
            m.name,
            m.moves
        );
        assert!(
            WORKLOADS.iter().any(|w| w.name == m.on),
            "{} names unknown workload {}",
            m.name,
            m.on
        );
    }
}
