//! Ablation of the *model's* design knobs (DESIGN.md §6) — one sweep per
//! parameter on one dataset, everything else at defaults. This validates
//! that the documented choices sit on sensible plateaus rather than
//! cliff edges, and quantifies each mechanism's contribution.
//!
//! ```text
//! cargo run --release -p fw-bench --bin ablation_model [TT|FS|CW|R2B|R8B]
//! ```

use flashwalker::{AccelConfig, FlashWalkerSim};
use fw_bench::runner::{prepared, DEFAULT_SEED};
use fw_graph::DatasetId;
use fw_nand::SsdConfig;
use fw_walk::Workload;

fn run_with(p: &fw_bench::Prepared, walks: u64, f: impl Fn(&mut AccelConfig)) -> (f64, u64, u64) {
    let mut cfg = AccelConfig::scaled();
    f(&mut cfg);
    let wl = Workload::paper_default(walks);
    let r = FlashWalkerSim::new(
        &p.dataset.csr,
        &p.pg,
        cfg,
        SsdConfig::scaled(),
        DEFAULT_SEED,
    )
    .run_detailed(wl);
    (
        r.time.as_secs_f64() * 1e3,
        r.stats.sg_loads,
        r.stats.pwb_spill_pages,
    )
}

fn main() {
    let id = match std::env::args().nth(1) {
        Some(s) => DatasetId::from_abbrev(&s).unwrap_or_else(|| {
            eprintln!("usage: ablation_model [TT|FS|CW|R2B|R8B]");
            std::process::exit(2)
        }),
        None => DatasetId::Twitter,
    };
    let p = prepared(id, DEFAULT_SEED);
    let walks = id.default_walks() / 2;
    eprintln!("[{}] {} walks", id.abbrev(), walks);

    println!("knob\tvalue\ttime_ms\tsg_loads\tspill_pages");

    for v in [1u32, 4, 8, 16, 64] {
        let (t, l, s) = run_with(&p, walks, |c| c.evict_below = v);
        println!("evict_below\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for v in [1u64, 8, 32, 128, 512] {
        let (t, l, s) = run_with(&p, walks, |c| c.min_load_walks = v);
        println!("min_load_walks\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for v in [16usize, 64, 256, 4096] {
        let (t, l, s) = run_with(&p, walks, |c| c.chip_batch_cap = v);
        println!("chip_batch_cap\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for v in [1u32, 2, 4, 8, 16] {
        let (t, l, s) = run_with(&p, walks, |c| c.mapping_table_ports = v);
        println!("mapping_table_ports\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for v in [4u32, 16, 64, 256] {
        let (t, l, s) = run_with(&p, walks, |c| c.range_size = v);
        println!("range_size\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for v in [64u64, 256, 1024, 4096] {
        let (t, l, s) = run_with(&p, walks, |c| c.query_cache_bytes = v);
        println!("query_cache_bytes\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for v in [2u32, 4, 8, 16] {
        let (t, l, s) = run_with(&p, walks, |c| {
            // Scale the chip buffer to hold v subgraphs of this dataset.
            c.chip_subgraph_buf = v as u64 * p.pg.config.subgraph_bytes;
        });
        println!("chip_slots\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for (label, a) in [("0.4", 0.4), ("1.0", 1.0), ("1.2", 1.2), ("3.0", 3.0)] {
        let (t, l, s) = run_with(&p, walks, |c| c.alpha = a);
        println!("alpha\t{label}\t{t:.2}\t{l}\t{s}");
    }
    // PE provisioning: what would more silicon buy? (Table II ablations.)
    for v in [1u32, 2, 4] {
        let (t, l, s) = run_with(&p, walks, |c| c.chip_updaters = v);
        println!("chip_updaters\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for v in [1u32, 4, 16] {
        let (t, l, s) = run_with(&p, walks, |c| c.board_updaters = v);
        println!("board_updaters\t{v}\t{t:.2}\t{l}\t{s}");
    }
    for v in [32u32, 128, 512] {
        let (t, l, s) = run_with(&p, walks, |c| c.board_guiders = v);
        println!("board_guiders\t{v}\t{t:.2}\t{l}\t{s}");
    }
}
