//! Heap budgets of one FlashWalker run on a prebuilt [`FlashImage`]:
//! allocation counts and peak live heap bytes. Both are deterministic, so
//! this gates the host cost of a run's device state with no wall-clock
//! noise. The test binary installs a global allocator that counts per
//! thread, so the test harness's own threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use flashwalker::{AccelConfig, FlashImage, FlashWalkerSim};
use fw_graph::datasets::{Dataset, DatasetId};
use fw_nand::{Ssd, SsdConfig};
use fw_walk::{WalkEngine, Workload};

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
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    ((PEAK.with(Cell::get) - base) as u64, out)
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
