//! `fwsim` — command-line front end for the FlashWalker reproduction.
//!
//! ```text
//! fwsim gen <TT|FS|CW|R2B|R8B|rmat:V:E> <out.txt>       # write an edge list
//! fwsim info <graph.txt | dataset>                      # graph statistics
//! fwsim run <graph.txt | dataset> [options]             # run both engines
//!   --walks N          number of walks (default: 4 per vertex)
//!   --len L            walk length (default 6)
//!   --engine fw|gw|both
//!   --no-wq --no-hs --no-ss   disable optimizations
//!   --gw-mem BYTES     GraphWalker memory (default scaled 8 GB)
//!   --seed S
//! fwsim energy <graph.txt | dataset> [--walks N]        # energy compare
//! ```
//!
//! Graph arguments are either a Table IV dataset abbreviation or a path
//! to a whitespace edge-list file.

use std::process::exit;

use flashwalker::energy::{flashwalker_energy, graphwalker_energy, graphwalker_report::GwLike};
use flashwalker::{AccelConfig, FlashWalkerSim, OptToggles};
use fw_bench::suite::default_gw_memory;
use fw_graph::partition::PartitionConfig;
use fw_graph::rmat::{generate_csr, RmatParams};
use fw_graph::{Csr, Dataset, DatasetId, PartitionedGraph};
use fw_nand::SsdConfig;
use fw_walk::Workload;
use graphwalker::{GraphWalkerSim, GwConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  fwsim gen <dataset|rmat:V:E> <out.txt>\n  fwsim info <graph>\n  \
         fwsim run <graph> [--walks N] [--len L] [--engine fw|gw|both] \
         [--no-wq] [--no-hs] [--no-ss] [--gw-mem BYTES] [--seed S]\n  \
         fwsim energy <graph> [--walks N]"
    );
    exit(2)
}

fn load_graph(arg: &str, seed: u64) -> (Csr, u32) {
    if let Some(id) = DatasetId::from_abbrev(arg) {
        eprintln!("generating dataset {} …", id.abbrev());
        let d = Dataset::generate(id, seed);
        return (d.csr, id.id_bytes());
    }
    if let Some(spec) = arg.strip_prefix("rmat:") {
        let mut it = spec.split(':');
        let v: u32 = it
            .next()
            .and_then(|x| x.parse().ok())
            .unwrap_or_else(|| usage());
        let e: u64 = it
            .next()
            .and_then(|x| x.parse().ok())
            .unwrap_or_else(|| usage());
        if v < 2 {
            eprintln!("error: rmat:V:E needs V >= 2, got {v}");
            usage();
        }
        return (generate_csr(RmatParams::graph500(), v, e, seed), 4);
    }
    eprintln!("loading edge list {arg} …");
    match fw_graph::io::load_edge_list(arg, None) {
        Ok(g) => (g, 4),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt_val(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let seed: u64 = opt_val(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    match cmd.as_str() {
        "gen" => {
            let (src, out) = match (args.get(1), args.get(2)) {
                (Some(s), Some(o)) => (s.clone(), o.clone()),
                _ => usage(),
            };
            let (g, _) = load_graph(&src, seed);
            fw_graph::io::save_edge_list(&g, &out).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1)
            });
            println!("wrote {} edges to {}", g.num_edges(), out);
        }
        "info" => {
            let Some(src) = args.get(1) else { usage() };
            let (g, id_bytes) = load_graph(src, seed);
            let (hub, deg) = g.max_out_degree();
            let indeg = g.in_degrees();
            let max_in = indeg.iter().max().copied().unwrap_or(0);
            println!("vertices      {}", g.num_vertices());
            println!("edges         {}", g.num_edges());
            println!(
                "avg degree    {:.2}",
                g.num_edges() as f64 / g.num_vertices() as f64
            );
            println!("max out-deg   {deg} (vertex {hub})");
            println!("max in-deg    {max_in}");
            println!("csr bytes     {}", g.modeled_bytes(id_bytes));
            let accel = AccelConfig::scaled();
            let pg = PartitionedGraph::build(
                &g,
                PartitionConfig {
                    subgraph_bytes: 16 << 10,
                    id_bytes,
                    subgraphs_per_partition: accel.mapping_table_entries(),
                },
            );
            println!("subgraphs     {} (16 KB graph blocks)", pg.num_subgraphs());
            println!("dense         {}", pg.dense.len());
            println!("partitions    {}", pg.num_partitions());
        }
        "run" | "energy" => {
            let Some(src) = args.get(1) else { usage() };
            let (g, id_bytes) = load_graph(src, seed);
            let walks: u64 = opt_val(&args, "--walks")
                .and_then(|s| s.parse().ok())
                .unwrap_or(g.num_vertices() as u64 * 4);
            let len: u16 = opt_val(&args, "--len")
                .and_then(|s| s.parse().ok())
                .unwrap_or(6);
            let engine = opt_val(&args, "--engine").unwrap_or_else(|| "both".into());
            let gw_mem: u64 = opt_val(&args, "--gw-mem")
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(default_gw_memory);
            let mut accel = AccelConfig::scaled();
            accel.opts = OptToggles {
                walk_query: !flag(&args, "--no-wq"),
                hot_subgraphs: !flag(&args, "--no-hs"),
                subgraph_scheduling: !flag(&args, "--no-ss"),
            };
            let wl = Workload::deepwalk(walks, len);
            let pg = PartitionedGraph::build(
                &g,
                PartitionConfig {
                    subgraph_bytes: 16 << 10,
                    id_bytes,
                    subgraphs_per_partition: accel.mapping_table_entries(),
                },
            );

            let fw = (engine != "gw").then(|| {
                FlashWalkerSim::new(&g, &pg, accel, SsdConfig::scaled(), seed).run_detailed(wl)
            });
            let gw = (engine != "fw").then(|| {
                GraphWalkerSim::new(
                    &g,
                    id_bytes,
                    GwConfig::scaled().with_memory(gw_mem),
                    SsdConfig::scaled(),
                    seed,
                )
                .run_detailed(wl)
            });

            if cmd == "run" {
                if let Some(r) = &fw {
                    println!(
                        "flashwalker: time={} hops={} loads={} flash_read={}MB channel_util={:.2}",
                        r.time,
                        r.stats.hops,
                        r.stats.sg_loads,
                        r.flash_read_bytes >> 20,
                        r.channel_util
                    );
                }
                if let Some(r) = &gw {
                    println!(
                        "graphwalker: time={} hops={} block_loads={} flash_read={}MB load_frac={:.0}%",
                        r.time,
                        r.hops,
                        r.block_loads,
                        r.flash_read_bytes >> 20,
                        r.breakdown.load_fraction() * 100.0
                    );
                }
                if let (Some(f), Some(w)) = (&fw, &gw) {
                    println!(
                        "speedup:     {:.2}x",
                        w.time.as_nanos() as f64 / f.time.as_nanos().max(1) as f64
                    );
                }
            } else {
                let fw = fw.expect("energy compares both engines");
                let gw = gw.expect("energy compares both engines");
                let ef = flashwalker_energy(&fw);
                let eg = graphwalker_energy(&GwLike {
                    flash_read_bytes: gw.flash_read_bytes,
                    flash_write_bytes: gw.flash_write_bytes,
                    pcie_bytes: gw.pcie_bytes,
                    hops: gw.hops,
                    time_secs: gw.time.as_secs_f64(),
                });
                println!("component          flashwalker_mJ  graphwalker_mJ");
                let rows = [
                    ("flash read", ef.flash_read_uj, eg.flash_read_uj),
                    ("flash program", ef.flash_program_uj, eg.flash_program_uj),
                    ("channel", ef.channel_uj, eg.channel_uj),
                    ("pcie", ef.pcie_uj, eg.pcie_uj),
                    ("dram", ef.dram_uj, eg.dram_uj),
                    ("compute", ef.compute_uj, eg.compute_uj),
                    ("background", ef.background_uj, eg.background_uj),
                ];
                for (name, a, b) in rows {
                    println!("{name:<18} {:>14.3} {:>15.3}", a / 1e3, b / 1e3);
                }
                println!(
                    "total              {:>14.3} {:>15.3}   ({:.2}x less energy)",
                    ef.total_mj(),
                    eg.total_mj(),
                    eg.total_uj() / ef.total_uj().max(1e-12)
                );
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_and_opt_val_parse() {
        let a = args(&["run", "g.txt", "--no-wq", "--walks", "500"]);
        assert!(flag(&a, "--no-wq"));
        assert!(!flag(&a, "--no-hs"));
        assert_eq!(opt_val(&a, "--walks").as_deref(), Some("500"));
        assert_eq!(opt_val(&a, "--seed"), None);
        // A flag at the end with no value yields None.
        assert_eq!(opt_val(&a, "500"), None);
    }
}
