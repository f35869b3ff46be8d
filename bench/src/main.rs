//! Command line of the benchmark: run one workload and print its metrics.
//!
//! The last line of standard output is the JSON result; the lines before
//! it are the log (notes, checks, metrics, the simulated-results digest
//! and, in trace mode, per-span self times). Exit status: 0 when every
//! check passes, 1 when one fails, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use fw_benchmark::defs::{result_json, workload, WorkloadDef, WORKLOADS};
use fw_benchmark::run::{run, Options};

const USAGE: &str =
    "usage: fw-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--out DIR]";

struct Cli {
    workload: &'static WorkloadDef,
    opts: Options,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut name = None;
    let mut opts = Options {
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds must be 1..=3600, got {v}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    Ok(Cli {
        workload,
        opts,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fw-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (w, opts) = (cli.workload, cli.opts);
    println!(
        "# fw-benchmark {} seed={} seconds={} trace={}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let out = run(w, &opts);
    for note in &out.notes {
        println!("# {note}");
    }
    for line in out.checks.lines() {
        println!("{line}");
    }
    let rows = match out.metrics.select(opts.trace) {
        Ok(rows) => rows,
        Err(e) => {
            println!("error: metrics do not match the declared set: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, value, unit) in &rows {
        println!("metric {name} = {value} {unit}");
    }
    println!("sim_digest {:016x}", out.sim_digest);
    if opts.trace {
        for s in out.spans.self_times() {
            println!(
                "span {:<16} x{:<3} total {:>9.3} s  self {:>9.3} s",
                s.name, s.count, s.total_s, s.self_s
            );
        }
        let path = cli
            .out
            .join(format!("trace-{}-seed{}.json", w.name, opts.seed));
        let written = std::fs::create_dir_all(&cli.out)
            .and_then(|()| std::fs::write(&path, out.spans.chrome_json()));
        match written {
            Ok(()) => println!("# chrome trace: {}", path.display()),
            Err(e) => {
                println!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let correct = out.checks.ok();
    println!("{}", result_json(correct, out.attempted, out.failed, &rows));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
