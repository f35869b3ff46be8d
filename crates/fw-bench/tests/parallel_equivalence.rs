//! Cell-level parallelism equivalence.
//!
//! `run_suite` fans scenario×seed cells out over a `WorkerPool`; each
//! cell is one sequential engine run, so a suite's `BENCH_*.json` record
//! must be byte-identical at any pool width apart from the env
//! `threads`/`workers` stamps. Cells are small (debug profile); the
//! property checked is exact equality, which does not get stronger with
//! walk count.
//!
//! Also here: the walk-conservation geometry test (every walk injected
//! under a heavy fault profile is completed exactly once, with cross-chip
//! traffic demonstrably present).

use flashwalker::AccelConfig;
use fw_bench::runner::{flashwalker_engine, prepared, DEFAULT_SEED};
use fw_bench::suite::{build_bench_report, default_gw_memory, run_suite, Suite};
use fw_fault::FaultProfile;
use fw_graph::DatasetId;
use fw_walk::Workload;

const WALKS: u64 = 400;

/// Strip the env stamps that legitimately differ between a threads=1 and
/// a threads=4 run of the same suite: the `threads` count and — when the
/// worker clamp fired because the suite is narrower than `--threads` —
/// the effective `workers` count. Each stamp is the trailing env key on
/// its line, so the comma rides the preceding line.
fn unstamp(record: &str) -> String {
    let mut s = record.replace(",\n    \"threads\": 4", "");
    for w in 1..4u32 {
        s = s.replace(&format!(",\n    \"workers\": {w}"), "");
    }
    s
}

/// Walk conservation under the heavy fault profile: every injected walk
/// completes exactly once — no walk is lost or duplicated when it crosses
/// chip/channel boundaries while retries, stalls and degraded reads
/// reorder the pipeline around it — and the run demonstrably exercises
/// those boundaries (roving walks, foreigner pages, multi-channel
/// geometry).
#[test]
fn heavy_fault_run_conserves_walks_across_chips() {
    let p = prepared(DatasetId::Twitter, DEFAULT_SEED);
    let r = flashwalker_engine(&p, AccelConfig::scaled(), DEFAULT_SEED)
        .with_faults(FaultProfile::heavy())
        .with_walk_log()
        .run_detailed(Workload::paper_default(WALKS));

    assert_eq!(r.walks, WALKS, "every injected walk completed");
    assert_eq!(r.walk_log.len() as u64, WALKS, "one log entry per walk");
    assert!(
        r.walk_log.iter().all(|w| w.hop == 0),
        "a completed walk has no hops left"
    );
    // Exactly one completion per injected walk: the workload injects one
    // walk per source vertex draw, so pairing (src, index) multiset-wise
    // is covered by the count + hop checks; duplicates would inflate the
    // count, losses would deflate it, and the engine's own
    // completed-vs-total accounting would have asserted first.
    assert!(
        r.stats.roving > 0,
        "the cell must actually push walks across chip boundaries"
    );
    let f = r.faults.expect("heavy profile reports fault counters");
    assert!(
        f.total_events() > 0,
        "heavy profile must inject observable faults"
    );
}

/// Journey equivalence on the ci scenario grid: the `JourneyReport`
/// sections of a `--journeys` record are byte-identical at threads=1 and
/// threads=4. Each cell records its journeys into the one recorder of
/// its engine run, and cells finish in pool order, so this pins the
/// canonical event sort and the determinism of the seeded sampling — at
/// the record level where CI consumes it. The grid is the `ci` suite's
/// (fw/gw/fw-base on TT and R2B) with walk counts shrunk to
/// debug-profile size.
#[test]
fn journey_sections_are_byte_identical_across_thread_counts() {
    let suite = |threads: u32| {
        let mut s = Suite::named("ci", vec![DEFAULT_SEED]).unwrap();
        for sc in &mut s.scenarios {
            sc.walks = WALKS;
        }
        s.trace = false;
        s.with_threads(threads).with_journeys()
    };
    let seq = build_bench_report("t", &run_suite(&suite(1)).unwrap());
    let par = build_bench_report("t", &run_suite(&suite(4)).unwrap());
    assert!(seq.env.journeys, "journey runs stamp the env fingerprint");
    for (a, b) in seq.scenarios.iter().zip(&par.scenarios) {
        assert_eq!(a.name, b.name);
        let ja = a.journeys.as_ref().expect("journey section present");
        let jb = b.journeys.as_ref().expect("journey section present");
        assert_eq!(
            ja.render(),
            jb.render(),
            "{}: journey section differs across thread counts",
            a.name
        );
        assert!(
            ja.get("sampled_walks")
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
                > 0,
            "{}: journey section must sample at least one walk",
            a.name
        );
    }
    // Full-record equality modulo the env `threads`/`workers` stamps.
    assert_eq!(seq.render(), unstamp(&par.render()));
}

/// Suite-level byte equality: the BENCH record of a threads=4 run must
/// be byte-identical to the threads=1 record except for the `threads`
/// stamp in the env fingerprint (and identical to *itself* across
/// repeated threads=4 runs — the CI double-run gate).
#[test]
fn bench_records_are_byte_stable_across_thread_counts() {
    let suite = |threads: u32| {
        let mut s = Suite::single(
            DatasetId::Twitter,
            WALKS,
            default_gw_memory(),
            vec![DEFAULT_SEED],
        );
        s.trace = true;
        s.with_threads(threads)
    };
    let seq = build_bench_report("t", &run_suite(&suite(1)).unwrap()).render();
    let par = build_bench_report("t", &run_suite(&suite(4)).unwrap()).render();
    let par2 = build_bench_report("t", &run_suite(&suite(4)).unwrap()).render();
    assert_eq!(par, par2, "threads=4 double run must be byte-identical");
    // Strip the legitimate differences — the env `threads` stamp and the
    // clamped effective `workers` count — and require the rest byte-equal.
    let unstamped = unstamp(&par);
    assert_ne!(par, unstamped, "threads=4 record must carry the stamp");
    assert_eq!(
        seq, unstamped,
        "threads=4 record differs from threads=1 beyond the env stamp"
    );
}
