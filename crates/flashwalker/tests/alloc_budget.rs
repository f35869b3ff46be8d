//! Heap budgets: allocation counts and peak live heap bytes of one
//! FlashWalker run on a prebuilt [`FlashImage`] and of batches on one
//! reset device, and the bytes the graph,
//! its partitioning, GraphWalker's engines and a run's initial walk
//! distribution hold per vertex, edge and walk. All are deterministic, so
//! this gates host memory with no wall-clock or RSS noise. The test binary
//! installs a global allocator that counts per thread, so the test
//! harness's own threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use flashwalker::{AccelConfig, FlashImage, FlashWalkerSim};
use fw_graph::datasets::{Dataset, DatasetId};
use fw_graph::{DenseVertexMeta, GraphBlocks, PartitionConfig, Subgraph};
use fw_nand::{Ssd, SsdConfig};
use fw_walk::{Walk, WalkEngine, Workload};
use graphwalker::{GraphWalkerSim, GwConfig, IterativeSim};

/// Counts every allocation and reallocation made by the current thread,
/// and tracks the thread's live and peak requested bytes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes allocated minus bytes freed by this thread. Signed:
    /// the thread may free what another thread allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` since the last [`peak_heap`] reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation that changes live bytes by `delta`.
fn bump(delta: i64) {
    // `try_with`: the slots are gone while the thread's TLS is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    live(delta);
}

/// Change this thread's live bytes by `delta`, raising the peak.
fn live(delta: i64) {
    let _ = LIVE.try_with(|l| {
        let now = l.get() + delta;
        l.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping touches only `const` thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Peak live heap bytes this thread held while running `f`, above what it
/// held when `f` started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (u64, T) {
    peak_and_kept(f).0
}

/// [`peak_heap`], plus the live heap bytes `f` left allocated (what its
/// result holds).
fn peak_and_kept<T>(f: impl FnOnce() -> T) -> ((u64, T), u64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let kept = LIVE.with(Cell::get) - base;
    (((PEAK.with(Cell::get) - base) as u64, out), kept as u64)
}

#[test]
fn allocation_budgets() {
    // Ssd::new allocates a fixed number of times, whatever the geometry.
    let counts: Vec<u64> = [SsdConfig::tiny(), SsdConfig::scaled(), SsdConfig::paper()]
        .iter()
        .map(|&cfg| allocs(|| drop(Ssd::new(cfg, 4))).0)
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "Ssd::new allocations depend on geometry: {counts:?}"
    );

    let ds = Dataset::generate(DatasetId::Twitter, 42);
    let pg = ds.partition(AccelConfig::scaled().mapping_table_entries());
    let image = Arc::new(FlashImage::new(
        &pg,
        AccelConfig::scaled(),
        SsdConfig::scaled(),
    ));
    let (n, report) = allocs(|| {
        FlashWalkerSim::from_image(&ds.csr, &pg, Arc::clone(&image), 42)
            .with_walk_log()
            .run(Workload::deepwalk(25, 6))
    });
    assert_eq!(report.walks, 25);
    println!("Ssd::new {counts:?}, one 25-walk run {n}");
    // Before the image split, `FlashWalkerSim::new` + this run made 5,633
    // allocations (4,298 of them in `new`). Budget: 35% of that.
    assert!(n <= 5_633 * 35 / 100, "{n} allocations for a 25-walk run");

    // Batches of this size on one device reset before each, as the
    // serving loop runs them: allocations per batch, by seed.
    let batches = |seeds: &[u64]| -> Vec<u64> {
        let mut device = Some(FlashWalkerSim::from_image(
            &ds.csr,
            &pg,
            Arc::clone(&image),
            0,
        ));
        seeds
            .iter()
            .map(|&seed| {
                let (n, report) = allocs(|| {
                    let mut sim = device.take().expect("device between batches");
                    sim.reset(seed);
                    let mut sim = sim.with_walk_log();
                    let report = sim.run_detailed(Workload::deepwalk(25, 6));
                    device = Some(sim);
                    report
                });
                assert_eq!(report.walk_log.len(), 25);
                n
            })
            .collect()
    };
    // Repeating the batch: from the second on, every queue, deque and
    // pool it needs is sized already, and a batch allocates little more
    // than its report, its initial walks and its walk log. A fresh
    // device per batch made 971 allocations a batch.
    let repeated = batches(&[42; 8]);
    println!("one 25-walk batch repeated on one reset device: {repeated:?}");
    assert!(
        repeated[1..].iter().all(|&n| n <= 32),
        "allocations per repeated batch on a reused device: {repeated:?}"
    );
    // A new seed per batch, as in serving: each batch may touch planes,
    // banks, wheel buckets and PWB entries no earlier batch touched, and
    // their containers are sized on first touch. The device warms within
    // a few dozen batches and then stays under the same budget.
    let seeds: Vec<u64> = (1_000..1_200).collect();
    let varied = batches(&seeds);
    let warm_up: u64 = varied[..60].iter().sum();
    println!(
        "25-walk batches with new seeds: {warm_up} allocations in the first 60, then at most {}",
        varied[60..].iter().max().unwrap()
    );
    assert!(
        varied[60..].iter().all(|&n| n <= 32),
        "allocations per batch on a warm reused device: {:?}",
        &varied[60..]
    );
    assert!(
        warm_up <= 60 * 971 / 10,
        "{warm_up} allocations warming a device over 60 batches"
    );

    // A run long enough that thousands of subgraph loads dominate: each
    // load swaps a PWB entry's walk vector into a chip slot, so the count
    // shows whether those vectors recycle through the pools or regrow.
    let (n, report) = allocs(|| {
        FlashWalkerSim::from_image(&ds.csr, &pg, Arc::clone(&image), 42)
            .run_detailed(Workload::deepwalk(20_000, 6))
    });
    assert_eq!(report.walks, 20_000);
    println!(
        "one 20,000-walk run {n} ({} subgraph loads)",
        report.stats.sg_loads
    );
    // With PWB entries regrowing from empty after every load the run
    // made 21,980 allocations for 5,729 loads. Budget: 60% of that.
    assert!(
        n <= 21_980 * 60 / 100,
        "{n} allocations for a 20,000-walk run"
    );

    // Peak live heap of a 100,000-walk run: the in-flight walk records
    // and the pooled vectors that hold them dominate it.
    let walks = 100_000;
    let (peak, report) = peak_heap(|| {
        FlashWalkerSim::from_image(&ds.csr, &pg, Arc::clone(&image), 42)
            .run_detailed(Workload::deepwalk(walks, 6))
    });
    assert_eq!(report.walks, walks);
    println!(
        "one {walks}-walk run: peak heap {peak} B, {:.1} B/walk",
        peak as f64 / walks as f64
    );
    // With 32-byte in-flight walks and pools that kept every vector's
    // largest capacity, the run peaked at 16,767,344 B. Budget: 70% of
    // that.
    assert!(
        peak <= 16_767_344 * 70 / 100,
        "{peak} B peak heap for a {walks}-walk run"
    );
}

/// Peak heap bytes per walk that `run` holds beyond its fixed cost: the
/// difference of its peaks at `2n` and `n` walks, over `n`.
fn heap_per_walk(n: u64, run: impl Fn(u64) -> u64) -> f64 {
    (run(2 * n) as f64 - run(n) as f64) / n as f64
}

/// Host memory of one graph on an R2B stand-in: the CSR holds 4 B per
/// vertex and per edge, FlashWalker's partitioning adds one `u32` per
/// vertex and no temporary, GraphWalker's engines add nothing per vertex,
/// and a run's initial distribution never holds the walk population
/// twice.
#[test]
fn host_memory_per_vertex_and_walk() {
    let ((peak, ds), kept) = peak_and_kept(|| Dataset::generate(DatasetId::Rmat2B, 42));
    let g = &ds.csr;
    let (nv, ne) = (g.num_vertices() as u64, g.num_edges());
    println!("R2B: {nv} vertices, {ne} edges; generation peak {peak} B, CSR {kept} B");
    assert_eq!(
        kept,
        4 * (nv + 1) + 4 * ne,
        "CSR bytes: u32 offsets and ids"
    );

    // Partitioning: the location table is its only per-vertex array, and
    // it builds nothing per vertex it does not keep.
    let ((peak, pg), kept) =
        peak_and_kept(|| ds.partition(AccelConfig::scaled().mapping_table_entries()));
    // Per-subgraph lists: a subgraph and its in-degree, a dense vertex's
    // metadata, each with room for vector growth.
    let per_subgraph = std::mem::size_of::<Subgraph>() as u64 + 8;
    let lists = 2 * per_subgraph * pg.num_subgraphs() as u64
        + 2 * std::mem::size_of::<DenseVertexMeta>() as u64 * pg.dense.len() as u64;
    println!(
        "PartitionedGraph::build: peak {peak} B, keeps {kept} B ({} subgraphs)",
        pg.num_subgraphs()
    );
    assert!(
        kept <= 4 * nv + lists,
        "partitioned graph keeps {kept} B: more than one u32 per vertex"
    );
    assert!(
        peak - kept < nv,
        "PartitionedGraph::build peaks {} B above what it keeps",
        peak - kept
    );

    // GraphWalker's block packing and both host engines hold nothing per
    // vertex: what they hold beyond the SSD model is per block and per
    // flash page (the blocks' page lists, about 99 KB here), under one
    // byte per vertex on this graph. A location table alone is 4 B per
    // vertex.
    let gw = GwConfig::scaled();
    let (peak, blocks) = peak_heap(|| {
        GraphBlocks::pack(
            g,
            PartitionConfig {
                subgraph_bytes: gw.block_bytes,
                id_bytes: 4,
                subgraphs_per_partition: u32::MAX,
            },
        )
    });
    println!(
        "GraphBlocks::pack: peak {peak} B, {} blocks",
        blocks.num_subgraphs()
    );
    assert!(peak < nv, "GraphBlocks::pack peaks at {peak} B");
    let ssd = SsdConfig::scaled();
    let (ssd_peak, _) = peak_heap(|| Ssd::new(ssd, 4));
    let (gw_peak, _) = peak_heap(|| GraphWalkerSim::new(g, 4, gw, ssd, 42));
    let (iter_peak, _) = peak_heap(|| IterativeSim::new(g, 4, gw, ssd, 42));
    println!("Ssd::new peak {ssd_peak} B, GraphWalkerSim::new {gw_peak} B, IterativeSim::new {iter_peak} B");
    for (engine, peak) in [("GraphWalkerSim", gw_peak), ("IterativeSim", iter_peak)] {
        assert!(
            peak.saturating_sub(ssd_peak) < nv,
            "{engine}::new peaks {peak} B, {ssd_peak} B of it the SSD model"
        );
    }

    // Initial distribution: every walk starts at one regular vertex of the
    // first partition and stops at its first step. A `Walk` is 16 B, so
    // holding the population twice costs 32 B a walk. GraphWalker's
    // engines peak at the distribution, one walk record a walk.
    // FlashWalker peaks at the one subgraph load that gathers every walk,
    // as 20-byte tagged walks, while the last growth of the gathering
    // vector overlaps the spill pages not yet read (about 30 B a walk).
    let walk = std::mem::size_of::<Walk>() as f64;
    let src = (0..g.num_vertices())
        .find(|&v| pg.find_dense(v).is_none() && pg.partition_of(pg.subgraph_of(v).unwrap()) == 0)
        .expect("a regular vertex in partition 0");
    let wl = |n| Workload::ppr(n, src, 1.0, 1);
    let image = Arc::new(FlashImage::new(&pg, AccelConfig::scaled(), ssd));
    let n = 1 << 16;
    let per_walk = [
        (
            "FlashWalker",
            heap_per_walk(n, |n| {
                peak_heap(|| FlashWalkerSim::from_image(g, &pg, Arc::clone(&image), 42).run(wl(n)))
                    .0
            }),
        ),
        (
            "GraphWalker",
            heap_per_walk(n, |n| {
                peak_heap(|| GraphWalkerSim::new(g, 4, gw, ssd, 42).run(wl(n))).0
            }),
        ),
        (
            "iterative",
            heap_per_walk(n, |n| {
                peak_heap(|| IterativeSim::new(g, 4, gw, ssd, 42).run(wl(n))).0
            }),
        ),
    ];
    println!("initial distribution, peak heap per walk: {per_walk:?}");
    for (engine, bytes) in per_walk {
        assert!(
            bytes < 2.0 * walk,
            "{engine}: {bytes:.1} B per walk at peak, the population held twice"
        );
    }
}
