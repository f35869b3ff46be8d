//! Microbenches for the hot structures of the reproduction: mapping-table
//! binary search (full vs range-narrowed), the walk query cache,
//! unbiased vs ITS sampling, RMAT edge
//! generation, the event queue, DRAM access timing, reservations on a
//! deep and on an engine-like floor-bounded resource timeline, and FTL
//! writes.
//!
//! These are host-performance benches (how fast the *simulator* runs),
//! complementing the `fwbench` figures that measure *simulated* time. The
//! harness is a plain `std::time::Instant` loop (no external deps): each
//! bench warms up briefly, then times a fixed batch and reports ns/op.
//!
//! `cargo bench -p fw-bench --bench micro -- --quick` shrinks every
//! batch ~50× — a CI smoke mode that checks the benches run, not their
//! numbers.

use std::hint::black_box;
use std::time::Instant;

use flashwalker::tables::WalkQueryCache;
use fw_dram::{Dram, DramConfig, DramOp};
use fw_graph::partition::PartitionConfig;
use fw_graph::rmat::{generate_csr, RmatParams};
use fw_graph::{GraphBlocks, PartitionedGraph, RangeTable, SubgraphMappingTable};
use fw_nand::{Ftl, SsdConfig};
use fw_sim::{Duration, EventQueue, HeapEventQueue, SimTime, Timeline, Xoshiro256pp};
use fw_walk::{sample_biased, sample_unbiased};

/// Batch size scaled for the mode: full by default, ~50× smaller under
/// `--quick` (CI smoke).
fn iters(n: u64) -> u64 {
    if std::env::args().any(|a| a == "--quick") {
        (n / 50).max(10)
    } else {
        n
    }
}

/// Time `f` over `iters` calls after a 1/10-size warmup; print ns/op.
fn bench<R>(name: &str, iters: u64, mut f: impl FnMut() -> R) {
    for _ in 0..iters / 10 {
        black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = t0.elapsed();
    let ns = total.as_nanos() as f64 / iters as f64;
    println!("{name:<32} {ns:>12.1} ns/op   ({iters} iters)");
}

fn setup_tables() -> (
    PartitionedGraph,
    GraphBlocks,
    SubgraphMappingTable,
    RangeTable,
) {
    let csr = generate_csr(RmatParams::graph500(), 50_000, 1_000_000, 3);
    let config = PartitionConfig {
        subgraph_bytes: 16 << 10,
        id_bytes: 4,
        subgraphs_per_partition: 10_000,
    };
    let pg = PartitionedGraph::build(&csr, config);
    let blocks = GraphBlocks::pack(&csr, config);
    let table = SubgraphMappingTable::build(&pg);
    let ranges = RangeTable::build(&table, 16);
    (pg, blocks, table, ranges)
}

fn bench_mapping() {
    let (pg, blocks, table, ranges) = setup_tables();
    // FlashWalker's O(1) flat vertex→location table vs the binary search
    // over block low vertices that GraphWalker's engines use (same
    // answers; see partition.rs).
    let mut rngf = Xoshiro256pp::new(1);
    bench("vertex_lookup_flat", iters(200_000), || {
        let v = rngf.next_below(50_000) as u32;
        pg.vloc(black_box(v))
    });
    let mut rngs = Xoshiro256pp::new(1);
    bench("vertex_lookup_search", iters(200_000), || {
        let v = rngs.next_below(50_000) as u32;
        blocks.loc(black_box(v))
    });
    let mut rng = Xoshiro256pp::new(1);
    bench("mapping_table_full_lookup", iters(200_000), || {
        let v = rng.next_below(50_000) as u32;
        table.lookup(black_box(v))
    });
    let mut rng2 = Xoshiro256pp::new(2);
    bench("mapping_table_range_narrowed", iters(200_000), || {
        let v = rng2.next_below(50_000) as u32;
        let r = ranges.lookup(v);
        match r.range_id {
            Some(rid) => {
                let (s, e) = ranges.entry_window(rid);
                table.lookup_in(v, s, e)
            }
            None => table.lookup(v),
        }
    });
}

fn bench_query_cache() {
    let mut cache = WalkQueryCache::new(170);
    for sg in 0..170u32 {
        cache.install(sg);
    }
    let mut rng = Xoshiro256pp::new(3);
    bench("walk_query_cache_probe", iters(500_000), || {
        let sg = rng.next_below(200) as u32;
        cache.probe(black_box(sg))
    });
}

fn bench_samplers() {
    let csr = generate_csr(RmatParams::graph500(), 10_000, 200_000, 6);
    let weighted = csr.clone().with_random_weights(7);
    let mut rng = Xoshiro256pp::new(8);
    bench("sample_unbiased", iters(500_000), || {
        let v = rng.next_below(10_000) as u32;
        sample_unbiased(&csr, v, &mut rng)
    });
    let mut rng2 = Xoshiro256pp::new(9);
    bench("sample_biased_its", iters(500_000), || {
        let v = rng2.next_below(10_000) as u32;
        sample_biased(&weighted, v, &mut rng2)
    });
}

fn bench_rmat() {
    let mut seed = 0u64;
    bench("rmat_generate_10k_edges", iters(200), || {
        seed += 1;
        fw_graph::rmat::generate_edges(RmatParams::graph500(), 4_096, 10_000, seed)
    });
    // Above the lane kernel's threshold: the AVX-512 instance where the
    // CPU has it.
    bench("rmat_generate_1m_edges", iters(50), || {
        seed += 1;
        fw_graph::rmat::generate_edges(RmatParams::graph500(), 1 << 17, 1_000_000, seed)
    });
}

fn bench_event_queue() {
    // Calendar queue (the production EventQueue) vs the binary-heap
    // reference it replaced, on the same schedule stream. The mixed
    // workload interleaves pops with short- and long-horizon schedules,
    // like the engines do, rather than bulk-load-then-drain.
    let mut rng = Xoshiro256pp::new(10);
    bench("event_queue_push_pop_1k", iters(2_000), || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..1_000u64 {
            q.schedule_at(SimTime(rng.next_below(1_000_000)), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        acc
    });
    let mut rngh = Xoshiro256pp::new(10);
    bench("heap_queue_push_pop_1k", iters(2_000), || {
        let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
        for i in 0..1_000u64 {
            q.schedule_at(SimTime(rngh.next_below(1_000_000)), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        acc
    });
    let mut rngm = Xoshiro256pp::new(11);
    bench("event_queue_mixed_10k", iters(200), || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            q.schedule_in(fw_sim::Duration(rngm.next_below(200_000)), i);
            if i % 4 == 0 {
                q.schedule_in(fw_sim::Duration(2_000_000 + rngm.next_below(1_000_000)), i);
            }
            if let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
        }
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        acc
    });
    let mut rngn = Xoshiro256pp::new(11);
    bench("heap_queue_mixed_10k", iters(200), || {
        let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            q.schedule_in(fw_sim::Duration(rngn.next_below(200_000)), i);
            if i % 4 == 0 {
                q.schedule_in(fw_sim::Duration(2_000_000 + rngn.next_below(1_000_000)), i);
            }
            if let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
        }
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        acc
    });
}

fn bench_dram() {
    let mut dram = Dram::new(DramConfig::ddr4_1600());
    let mut t = SimTime::ZERO;
    let mut addr = 0u64;
    bench("dram_access_4k", iters(500_000), || {
        dram.set_floor(t);
        let a = dram.access(t, addr, 4096, DramOp::Read);
        t = a.done;
        addr = (addr + 4096) % (1 << 24);
        a.done
    });
}

fn bench_timeline() {
    // A deep timeline: the floor trails the clock by 7,000 intervals of
    // one every 1,150 ns, as a long lookahead window would keep it. Seven
    // in eight requests land at the tail; the eighth backfills the gap two
    // intervals back.
    const STEP: u64 = 1_150;
    const DEPTH: u64 = 7_000;
    let mut tl = Timeline::new();
    for i in 0..DEPTH {
        tl.reserve(SimTime(i * STEP), Duration::nanos(600), SimTime::ZERO);
    }
    let mut t = DEPTH * STEP;
    let mut i = 0u64;
    bench("timeline_reserve_deep", iters(500_000), || {
        i += 1;
        let floor = SimTime(t - DEPTH * STEP);
        if i.is_multiple_of(8) {
            tl.reserve(SimTime(t - 2 * STEP), Duration::nanos(100), floor)
        } else {
            t += STEP;
            tl.reserve(SimTime(t), Duration::nanos(600), floor)
        }
    });

    // What the engines do: the floor is the event clock, which advances
    // ~1 µs per event. Each event books a 600 ns transfer at the clock and
    // a lookahead one behind a 35 µs flash read, so the deque holds the
    // ~35 µs of bookings still ahead of the clock.
    let mut tl = Timeline::new();
    let mut now = 0u64;
    let mut i = 0u64;
    bench("timeline_reserve_floor", iters(500_000), || {
        i += 1;
        if i.is_multiple_of(2) {
            now += STEP;
            tl.reserve(SimTime(now), Duration::nanos(600), SimTime(now))
        } else {
            tl.reserve(SimTime(now + 35_000), Duration::nanos(600), SimTime(now))
        }
    });
}

fn bench_ftl() {
    let cfg = SsdConfig::tiny();
    let mut ftl = Ftl::new(cfg.geometry, 0, cfg.gc_threshold_blocks);
    let mut lpn = 0u64;
    bench("ftl_overwrite", iters(500_000), || {
        lpn = (lpn + 1) % 200;
        ftl.write(lpn).ppa
    });
}

fn main() {
    bench_mapping();
    bench_query_cache();
    bench_samplers();
    bench_rmat();
    bench_event_queue();
    bench_dram();
    bench_timeline();
    bench_ftl();
}
