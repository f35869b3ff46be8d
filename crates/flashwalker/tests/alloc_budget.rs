//! Heap-allocation budget of one FlashWalker run on a prebuilt
//! [`FlashImage`]. Allocation counts are deterministic, so this gates the
//! host cost of a run's device state with no wall-clock noise. The test
//! binary installs a global allocator that counts per thread, so the test
//! harness's own threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use flashwalker::{AccelConfig, FlashImage, FlashWalkerSim};
use fw_graph::datasets::{Dataset, DatasetId};
use fw_nand::{Ssd, SsdConfig};
use fw_walk::{WalkEngine, Workload};

/// Counts every allocation and reallocation made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread's TLS is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
}
