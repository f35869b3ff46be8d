//! Quick end-to-end sanity: one dataset, one walk count, both engines —
//! a thin wrapper over the shared suite runner (`Suite::single`).
//!
//! ```text
//! cargo run --release -p fw-bench --bin smoke [TT|FS|CW|R2B|R8B] [walks]
//! ```
//!
//! `FW_SEEDS=N` repeats the cell over N seeds and reports the speedup
//! spread.

use fw_bench::suite::{default_gw_memory, env_seeds, run_suite, Suite};
use fw_graph::DatasetId;

fn usage() -> ! {
    eprintln!("usage: smoke [TT|FS|CW|R2B|R8B] [walks]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let id = match args.get(1) {
        Some(s) => DatasetId::from_abbrev(s).unwrap_or_else(|| usage()),
        None => DatasetId::Twitter,
    };
    let walks: u64 = match args.get(2) {
        Some(s) => s.parse().unwrap_or_else(|_| usage()),
        None => id.default_walks() / 4,
    };

    let suite = Suite::single(id, walks, default_gw_memory(), env_seeds());
    let res = run_suite(&suite).expect("suite has seeds and scenarios");
    let fw = res.find("fw", id, walks).expect("fw cell");
    let gw = res.find("gw", id, walks).expect("gw cell");
    let s = fw.speedup_stat().expect("paired speedup");

    println!(
        "dataset={} walks={} fw_time={} gw_time={} speedup={:.2}x (min {:.2} max {:.2})",
        id.abbrev(),
        walks,
        fw.seed0().time,
        gw.seed0().time,
        s.mean,
        s.min,
        s.max
    );
    println!(
        "fw_read={}MB gw_read={}MB fw_bw={:.2}GB/s gw_bw={:.2}GB/s",
        fw.seed0().traffic.flash_read_bytes >> 20,
        gw.seed0().traffic.flash_read_bytes >> 20,
        fw.seed0().read_bw / 1e9,
        gw.seed0().read_bw / 1e9
    );
}
