//! Walk-journey tracing: sampled-but-deterministic per-walk lifecycle
//! recording and the derived tail-latency attribution report.
//!
//! The span layer ([`crate::span`]) sees the system by *component* —
//! channel utilization, chip busy, queue depth. This module sees it by
//! *walk*: a [`JourneyRecorder`] collects, for a seeded deterministic
//! sample of walk ids, an ordered sequence of lifecycle events
//! ([`JourneyEvent`]) with simulated-time stamps, and
//! [`JourneyRecorder::finish`] distills them into a [`JourneyReport`]:
//! end-to-end walk latency percentiles, a per-walk critical-path
//! decomposition whose segments sum *exactly* to the walk's latency, and
//! a tail-attribution table comparing where p99 walks spend their time
//! against the median cohort.
//!
//! Determinism contract: sampling is a pure function of (seed, walk id);
//! the report does not depend on the order events were recorded in,
//! because [`JourneyRecorder::finish`] canonicalizes every walk's event
//! list by sorting; and the whole layer is zero-cost when disabled — a
//! disabled recorder rejects every event before touching any state.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::time::SimTime;

/// SplitMix64 finalizer over (seed, id) — the sampling hash. Private to
/// this crate so `fw-trace` stays dependency-free (the simulation crate
/// depends on us, not the reverse).
fn sample_hash(seed: u64, id: u32) -> u64 {
    let mut z = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration for journey sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JourneyConfig {
    /// Sampling seed; `sample_hash(seed, id) % sample_period == 0`
    /// selects a walk. Same seed + same id set → same sample, at any
    /// thread count and any event arrival order.
    pub seed: u64,
    /// Keep roughly one walk in `sample_period` (1 = every walk).
    pub sample_period: u64,
    /// Hard cap on walks kept in the finished report: the `max_walks`
    /// walks with the smallest `(hash, id)` survive, a deterministic
    /// bottom-k reservoir.
    pub max_walks: usize,
}

impl Default for JourneyConfig {
    fn default() -> Self {
        JourneyConfig {
            seed: 0,
            sample_period: 8,
            max_walks: 1024,
        }
    }
}

/// Lifecycle event taxonomy. Variant order is the critical-path
/// decomposition priority: when intervals overlap, the *lowest* variant
/// wins the overlapped nanoseconds (an ECC retry inside a NAND read is
/// attributed to the retry, not the read).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JourneyEventKind {
    /// ECC retry ladder time inside a read (fault injection).
    EccRetry,
    /// Stall: watchdog trips, hard-fail recovery, backoff waits.
    Stall,
    /// Flash array read servicing this walk's subgraph/page.
    NandRead,
    /// Subgraph (or host block) load the walk waited on.
    SubgraphLoad,
    /// PCIe/DMA transfer leg (host engines, walk spill I/O).
    PcieTransfer,
    /// Sampling computation: the walk is in an update/sample batch.
    SampleStep,
    /// Cross-subgraph hop transfer (channel/board routing).
    Hop,
    /// Zero-width marker: the walk entered a queue/buffer.
    Enqueue,
    /// Derived only: uncovered time between recorded events.
    Wait,
    /// Zero-width marker: the walk completed.
    Complete,
}

impl JourneyEventKind {
    /// All kinds in decomposition-priority order.
    pub const ALL: [JourneyEventKind; 10] = [
        JourneyEventKind::EccRetry,
        JourneyEventKind::Stall,
        JourneyEventKind::NandRead,
        JourneyEventKind::SubgraphLoad,
        JourneyEventKind::PcieTransfer,
        JourneyEventKind::SampleStep,
        JourneyEventKind::Hop,
        JourneyEventKind::Enqueue,
        JourneyEventKind::Wait,
        JourneyEventKind::Complete,
    ];

    /// Stable snake_case name (JSON/CSV key).
    pub fn name(self) -> &'static str {
        match self {
            JourneyEventKind::EccRetry => "ecc_retry",
            JourneyEventKind::Stall => "stall",
            JourneyEventKind::NandRead => "nand_read",
            JourneyEventKind::SubgraphLoad => "subgraph_load",
            JourneyEventKind::PcieTransfer => "pcie_transfer",
            JourneyEventKind::SampleStep => "sample_step",
            JourneyEventKind::Hop => "hop",
            JourneyEventKind::Enqueue => "enqueue",
            JourneyEventKind::Wait => "wait",
            JourneyEventKind::Complete => "complete",
        }
    }
}

/// One recorded lifecycle interval of one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JourneyEvent {
    /// What happened.
    pub kind: JourneyEventKind,
    /// Component lane (chip, plane, channel, block…; `u32::MAX` = board/host).
    pub lane: u32,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (== `start` for zero-width markers).
    pub end: SimTime,
}

/// Records lifecycle events for a deterministic sample of walk ids.
///
/// Mirrors the [`crate::span::Tracer`] life-cycle: construct
/// [`disabled`](JourneyRecorder::disabled) (every call is a cheap no-op)
/// or [`enabled`](JourneyRecorder::enabled), record during the run, and
/// [`finish`](JourneyRecorder::finish) into the canonical report. An
/// engine run holds one, inside its [`crate::Probe`].
#[derive(Debug, Clone, Default)]
pub struct JourneyRecorder {
    on: bool,
    cfg: JourneyConfig,
    walks: BTreeMap<u32, Vec<JourneyEvent>>,
}

impl JourneyRecorder {
    /// A recorder that drops everything (the zero-cost default).
    pub fn disabled() -> JourneyRecorder {
        JourneyRecorder::default()
    }

    /// A live recorder sampling per `cfg`.
    pub fn enabled(cfg: JourneyConfig) -> JourneyRecorder {
        JourneyRecorder {
            on: true,
            cfg,
            walks: BTreeMap::new(),
        }
    }

    /// Whether the recorder keeps anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Whether walk `id` is in the deterministic sample. Callers may use
    /// this to skip building event intervals entirely for unsampled
    /// walks.
    #[inline]
    pub fn wants(&self, id: u32) -> bool {
        self.on && sample_hash(self.cfg.seed, id).is_multiple_of(self.cfg.sample_period.max(1))
    }

    /// Record one lifecycle interval for walk `id`. Dropped unless
    /// [`wants`](JourneyRecorder::wants) holds.
    #[inline]
    pub fn event(
        &mut self,
        id: u32,
        kind: JourneyEventKind,
        lane: u32,
        start: SimTime,
        end: SimTime,
    ) {
        if self.wants(id) {
            self.record(id, kind, lane, start, end);
        }
    }

    /// [`event`](JourneyRecorder::event) for a walk the caller has
    /// checked with [`wants`](JourneyRecorder::wants).
    pub(crate) fn record(
        &mut self,
        id: u32,
        kind: JourneyEventKind,
        lane: u32,
        start: SimTime,
        end: SimTime,
    ) {
        self.walks.entry(id).or_default().push(JourneyEvent {
            kind,
            lane,
            start,
            end,
        });
    }

    /// Canonicalize and distill into a [`JourneyReport`]; `None` when
    /// disabled. Each walk's events are sorted by `(start, end, kind,
    /// lane)` so recording order never leaks into the output, then the
    /// bottom-`max_walks` ids by `(hash, id)` survive.
    pub fn finish(self) -> Option<JourneyReport> {
        if !self.on {
            return None;
        }
        let JourneyRecorder { cfg, mut walks, .. } = self;
        for evs in walks.values_mut() {
            evs.sort_by_key(|e| (e.start, e.end, e.kind, e.lane));
            evs.dedup();
        }
        // Deterministic bottom-k: smallest (hash, id) survive the cap.
        let mut ids: Vec<u32> = walks.keys().copied().collect();
        ids.sort_by_key(|&id| (sample_hash(cfg.seed, id), id));
        ids.truncate(cfg.max_walks);
        ids.sort_unstable();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let events = walks.remove(&id).unwrap_or_default();
            if events.is_empty() {
                continue;
            }
            let start = events.iter().map(|e| e.start).min().unwrap();
            let end = events.iter().map(|e| e.end).max().unwrap();
            let segments = decompose(&events, start, end);
            out.push(WalkJourney {
                id,
                start,
                end,
                latency_ns: end.as_nanos() - start.as_nanos(),
                events,
                segments,
            });
        }
        Some(JourneyReport::from_walks(cfg.sample_period, out))
    }
}

/// Critical-path decomposition by priority boundary sweep: every
/// sub-interval between consecutive event boundaries is attributed to
/// the highest-priority (lowest [`JourneyEventKind`]) event covering it;
/// uncovered gaps become [`Wait`](JourneyEventKind::Wait). Because the
/// sub-intervals partition `[start, end]` exactly, segment durations sum
/// to the walk latency with no rounding or overlap loss.
fn decompose(
    events: &[JourneyEvent],
    start: SimTime,
    end: SimTime,
) -> Vec<(JourneyEventKind, u64)> {
    let mut bounds: Vec<u64> = Vec::with_capacity(events.len() * 2 + 2);
    bounds.push(start.as_nanos());
    bounds.push(end.as_nanos());
    for e in events {
        bounds.push(e.start.as_nanos());
        bounds.push(e.end.as_nanos());
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut acc: BTreeMap<JourneyEventKind, u64> = BTreeMap::new();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let kind = events
            .iter()
            .filter(|e| e.start.as_nanos() <= a && e.end.as_nanos() >= b)
            .map(|e| e.kind)
            .min()
            .unwrap_or(JourneyEventKind::Wait);
        *acc.entry(kind).or_insert(0) += b - a;
    }
    acc.into_iter().filter(|&(_, ns)| ns > 0).collect()
}

/// One sampled walk's finished journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkJourney {
    /// Walk id.
    pub id: u32,
    /// First event start.
    pub start: SimTime,
    /// Last event end.
    pub end: SimTime,
    /// `end - start`, nanoseconds.
    pub latency_ns: u64,
    /// Canonically sorted raw events (CSV/Chrome export source).
    pub events: Vec<JourneyEvent>,
    /// Critical-path decomposition; durations sum exactly to
    /// `latency_ns`.
    pub segments: Vec<(JourneyEventKind, u64)>,
}

/// End-to-end walk latency percentiles over the sampled walks. Exact
/// order statistics (nearest-rank on the sorted latency list), not
/// bucketed estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JourneyLatency {
    /// Number of sampled walks.
    pub count: u64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
    /// Mean, ns (integer floor).
    pub mean_ns: u64,
}

/// One row of the tail-attribution table: where the p99 cohort spends
/// its time versus the median cohort, for one event kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailRow {
    /// Event kind.
    pub kind: JourneyEventKind,
    /// Mean ns/walk in the median cohort (latency ≤ p50).
    pub median_ns: u64,
    /// Mean ns/walk in the tail cohort (latency ≥ p99).
    pub tail_ns: u64,
    /// Fraction of median-cohort latency.
    pub median_share: f64,
    /// Fraction of tail-cohort latency.
    pub tail_share: f64,
}

/// The finished journey report: per-walk journeys, latency percentiles
/// and the tail-attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyReport {
    /// Walks that survived sampling and the cap.
    pub sampled_walks: u64,
    /// The sampling period that produced them.
    pub sample_period: u64,
    /// Per-walk journeys, ascending id.
    pub walks: Vec<WalkJourney>,
    /// Latency percentiles over the sample.
    pub latency: JourneyLatency,
    /// Tail attribution rows, descending tail share (ties by kind
    /// priority).
    pub tail: Vec<TailRow>,
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1).min(n);
    sorted[rank - 1]
}

impl JourneyLatency {
    /// Exact nearest-rank percentiles over a latency list (ns). This is
    /// the one percentile derivation shared by walk journeys and by
    /// `fw-serve`'s per-query latency summaries, so both report the same
    /// order statistics for the same data. The input need not be sorted;
    /// an empty list yields the all-zero summary.
    pub fn from_latencies(latencies: &[u64]) -> JourneyLatency {
        let mut lat = latencies.to_vec();
        lat.sort_unstable();
        JourneyLatency {
            count: lat.len() as u64,
            p50_ns: nearest_rank(&lat, 0.50),
            p95_ns: nearest_rank(&lat, 0.95),
            p99_ns: nearest_rank(&lat, 0.99),
            max_ns: lat.last().copied().unwrap_or(0),
            mean_ns: if lat.is_empty() {
                0
            } else {
                lat.iter().sum::<u64>() / lat.len() as u64
            },
        }
    }

    /// The percentiles as a [`Json`] object, keys in field order — the
    /// one serializer for journey and `fw-serve` latency objects alike.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::u(self.count)),
            ("p50_ns", Json::u(self.p50_ns)),
            ("p95_ns", Json::u(self.p95_ns)),
            ("p99_ns", Json::u(self.p99_ns)),
            ("max_ns", Json::u(self.max_ns)),
            ("mean_ns", Json::u(self.mean_ns)),
        ])
    }
}

impl JourneyReport {
    fn from_walks(sample_period: u64, walks: Vec<WalkJourney>) -> JourneyReport {
        let lat: Vec<u64> = walks.iter().map(|w| w.latency_ns).collect();
        let latency = JourneyLatency::from_latencies(&lat);
        let tail = tail_table(&walks, latency.p50_ns, latency.p99_ns);
        JourneyReport {
            sampled_walks: walks.len() as u64,
            sample_period,
            walks,
            latency,
            tail,
        }
    }

    /// The report as a [`crate::json`] tree (fixed key order, shares at
    /// four decimals). Raw events are deliberately excluded — they live
    /// in the CSV/Chrome exports.
    pub fn to_json(&self) -> Json {
        let tail = self
            .tail
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("kind", Json::s(r.kind.name())),
                    ("median_ns", Json::u(r.median_ns)),
                    ("tail_ns", Json::u(r.tail_ns)),
                    ("median_share", Json::f(r.median_share, 4)),
                    ("tail_share", Json::f(r.tail_share, 4)),
                ])
            })
            .collect();
        let walks = self
            .walks
            .iter()
            .map(|w| {
                let segments = w
                    .segments
                    .iter()
                    .map(|(k, ns)| (k.name(), Json::u(*ns)))
                    .collect();
                Json::obj(vec![
                    ("id", Json::u(w.id.into())),
                    ("start_ns", Json::u(w.start.as_nanos())),
                    ("end_ns", Json::u(w.end.as_nanos())),
                    ("latency_ns", Json::u(w.latency_ns)),
                    ("segments", Json::obj(segments)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("sampled_walks", Json::u(self.sampled_walks)),
            ("sample_period", Json::u(self.sample_period)),
            ("latency", self.latency.to_json()),
            ("tail", Json::Arr(tail)),
            ("walks", Json::Arr(walks)),
        ])
    }

    /// Human-readable tail-attribution table (the `fwbench tail` body).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "sampled walks: {} (1/{} sampling)\n",
            self.sampled_walks, self.sample_period
        ));
        s.push_str(&format!(
            "latency ns: p50 {}  p95 {}  p99 {}  max {}  mean {}\n",
            self.latency.p50_ns,
            self.latency.p95_ns,
            self.latency.p99_ns,
            self.latency.max_ns,
            self.latency.mean_ns
        ));
        s.push_str(&format!(
            "{:<14} {:>14} {:>8} {:>14} {:>8}\n",
            "segment", "median ns/walk", "share", "tail ns/walk", "share"
        ));
        for r in &self.tail {
            s.push_str(&format!(
                "{:<14} {:>14} {:>7.1}% {:>14} {:>7.1}%\n",
                r.kind.name(),
                r.median_ns,
                r.median_share * 100.0,
                r.tail_ns,
                r.tail_share * 100.0
            ));
        }
        s
    }

    /// Per-event CSV: `walk_id,kind,lane,start_ns,end_ns,dur_ns`.
    pub fn journeys_csv(&self) -> String {
        let mut s = String::from("walk_id,kind,lane,start_ns,end_ns,dur_ns\n");
        for w in &self.walks {
            for e in &w.events {
                s.push_str(&format!(
                    "{},{},{},{},{},{}\n",
                    w.id,
                    e.kind.name(),
                    e.lane,
                    e.start.as_nanos(),
                    e.end.as_nanos(),
                    e.end.as_nanos() - e.start.as_nanos()
                ));
            }
        }
        s
    }
}

/// Build the tail table: cohort means per kind, rows sorted by
/// descending tail share (ties broken by kind priority so the output is
/// fully deterministic).
fn tail_table(walks: &[WalkJourney], p50: u64, p99: u64) -> Vec<TailRow> {
    let cohort =
        |pred: &dyn Fn(&WalkJourney) -> bool| -> (BTreeMap<JourneyEventKind, u64>, u64, u64) {
            let mut per_kind: BTreeMap<JourneyEventKind, u64> = BTreeMap::new();
            let mut total = 0u64;
            let mut n = 0u64;
            for w in walks.iter().filter(|w| pred(w)) {
                n += 1;
                total += w.latency_ns;
                for &(k, ns) in &w.segments {
                    *per_kind.entry(k).or_insert(0) += ns;
                }
            }
            (per_kind, total, n)
        };
    let (med_kind, med_total, med_n) = cohort(&|w| w.latency_ns <= p50);
    let (tail_kind, tail_total, tail_n) = cohort(&|w| w.latency_ns >= p99);
    let mut rows: Vec<TailRow> = JourneyEventKind::ALL
        .iter()
        .filter_map(|&k| {
            let m = med_kind.get(&k).copied().unwrap_or(0);
            let t = tail_kind.get(&k).copied().unwrap_or(0);
            if m == 0 && t == 0 {
                return None;
            }
            Some(TailRow {
                kind: k,
                median_ns: m.checked_div(med_n).unwrap_or(0),
                tail_ns: t.checked_div(tail_n).unwrap_or(0),
                median_share: if med_total > 0 {
                    m as f64 / med_total as f64
                } else {
                    0.0
                },
                tail_share: if tail_total > 0 {
                    t as f64 / tail_total as f64
                } else {
                    0.0
                },
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.tail_share
            .total_cmp(&a.tail_share)
            .then(a.kind.cmp(&b.kind))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn latency_from_latencies_is_exact_nearest_rank() {
        let lat = JourneyLatency::from_latencies(&[]);
        assert_eq!(lat, JourneyLatency::default());
        // 1..=100 in shuffled order: pX is exactly X.
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        xs.swap(3, 60);
        let lat = JourneyLatency::from_latencies(&xs);
        assert_eq!(lat.count, 100);
        assert_eq!(lat.p50_ns, 50);
        assert_eq!(lat.p95_ns, 95);
        assert_eq!(lat.p99_ns, 99);
        assert_eq!(lat.max_ns, 100);
        assert_eq!(lat.mean_ns, 50); // floor(5050 / 100)
    }

    #[test]
    fn disabled_recorder_drops_everything_and_finishes_to_none() {
        let mut r = JourneyRecorder::disabled();
        assert!(!r.wants(0));
        r.event(0, JourneyEventKind::NandRead, 0, t(0), t(10));
        assert!(r.finish().is_none());
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_id() {
        let cfg = JourneyConfig {
            seed: 7,
            sample_period: 4,
            max_walks: 1024,
        };
        let a = JourneyRecorder::enabled(cfg);
        let b = JourneyRecorder::enabled(cfg);
        let picks: Vec<u32> = (0..1000).filter(|&i| a.wants(i)).collect();
        assert!(!picks.is_empty());
        assert!(picks.len() < 1000);
        for &i in &picks {
            assert!(b.wants(i));
        }
        // A different seed selects a different set.
        let c = JourneyRecorder::enabled(JourneyConfig { seed: 8, ..cfg });
        let picks_c: Vec<u32> = (0..1000).filter(|&i| c.wants(i)).collect();
        assert_ne!(picks, picks_c);
    }

    #[test]
    fn segments_partition_latency_exactly() {
        let cfg = JourneyConfig {
            seed: 0,
            sample_period: 1,
            max_walks: 16,
        };
        let mut r = JourneyRecorder::enabled(cfg);
        // Overlapping + gapped intervals: load covers [0,100], a read
        // inside it [10,40], a retry inside the read [30,40], compute
        // [120,150] with an uncovered gap [100,120].
        r.event(1, JourneyEventKind::SubgraphLoad, 0, t(0), t(100));
        r.event(1, JourneyEventKind::NandRead, 0, t(10), t(40));
        r.event(1, JourneyEventKind::EccRetry, 0, t(30), t(40));
        r.event(1, JourneyEventKind::SampleStep, 0, t(120), t(150));
        r.event(1, JourneyEventKind::Complete, 0, t(150), t(150));
        let rep = r.finish().unwrap();
        let w = &rep.walks[0];
        assert_eq!(w.latency_ns, 150);
        let sum: u64 = w.segments.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum, w.latency_ns);
        let get = |k: JourneyEventKind| {
            w.segments
                .iter()
                .find(|&&(kk, _)| kk == k)
                .map(|&(_, ns)| ns)
                .unwrap_or(0)
        };
        assert_eq!(get(JourneyEventKind::EccRetry), 10);
        assert_eq!(get(JourneyEventKind::NandRead), 20);
        assert_eq!(get(JourneyEventKind::SubgraphLoad), 70);
        assert_eq!(get(JourneyEventKind::Wait), 20);
        assert_eq!(get(JourneyEventKind::SampleStep), 30);
    }

    #[test]
    fn recording_order_does_not_change_the_finished_report() {
        let cfg = JourneyConfig {
            seed: 3,
            sample_period: 1,
            max_walks: 64,
        };
        let finish = |evs: &[(u32, JourneyEventKind, u32, u64, u64)]| {
            let mut r = JourneyRecorder::enabled(cfg);
            for &(id, k, lane, a, b) in evs {
                r.event(id, k, lane, t(a), t(b));
            }
            r.finish().unwrap()
        };
        let evs = [
            (1, JourneyEventKind::SubgraphLoad, 0, 0, 50),
            (2, JourneyEventKind::NandRead, 0, 10, 30),
            (1, JourneyEventKind::SampleStep, 3, 50, 80),
            (2, JourneyEventKind::SampleStep, 1, 30, 44),
            // Same interval, different kind and lane: the sort's
            // (kind, lane) tie-break fixes their order.
            (2, JourneyEventKind::Hop, 2, 44, 60),
            (2, JourneyEventKind::Hop, 1, 44, 60),
            (2, JourneyEventKind::Enqueue, 2, 44, 60),
        ];
        let mut reversed = evs;
        reversed.reverse();
        let (a, b) = (finish(&evs), finish(&reversed));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.journeys_csv(), b.journeys_csv());
    }

    #[test]
    fn bottom_k_cap_is_deterministic() {
        let cfg = JourneyConfig {
            seed: 11,
            sample_period: 1,
            max_walks: 5,
        };
        let mut r = JourneyRecorder::enabled(cfg);
        for id in 0..50u32 {
            r.event(id, JourneyEventKind::SampleStep, 0, t(0), t(10 + id as u64));
        }
        let rep = r.finish().unwrap();
        assert_eq!(rep.sampled_walks, 5);
        let mut expect: Vec<u32> = (0..50).collect();
        expect.sort_by_key(|&id| (sample_hash(cfg.seed, id), id));
        expect.truncate(5);
        expect.sort_unstable();
        let got: Vec<u32> = rep.walks.iter().map(|w| w.id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let cfg = JourneyConfig {
            seed: 0,
            sample_period: 1,
            max_walks: 1024,
        };
        let mut r = JourneyRecorder::enabled(cfg);
        for id in 0..100u32 {
            // Latencies 1..=100 ns.
            r.event(id, JourneyEventKind::SampleStep, 0, t(0), t(id as u64 + 1));
        }
        let rep = r.finish().unwrap();
        assert_eq!(rep.latency.count, 100);
        assert_eq!(rep.latency.p50_ns, 50);
        assert_eq!(rep.latency.p95_ns, 95);
        assert_eq!(rep.latency.p99_ns, 99);
        assert_eq!(rep.latency.max_ns, 100);
    }

    #[test]
    fn tail_table_orders_by_tail_share_and_covers_both_cohorts() {
        let cfg = JourneyConfig {
            seed: 0,
            sample_period: 1,
            max_walks: 1024,
        };
        let mut r = JourneyRecorder::enabled(cfg);
        // 98 fast walks dominated by compute, 2 slow walks dominated by
        // stalls — with n=100 the p99 order statistic lands on the slow
        // latency, so the tail cohort is exactly the stalled pair.
        for id in 0..98u32 {
            r.event(id, JourneyEventKind::SampleStep, 0, t(0), t(100));
        }
        for id in [98u32, 99] {
            r.event(id, JourneyEventKind::SampleStep, 0, t(0), t(100));
            r.event(id, JourneyEventKind::Stall, 0, t(100), t(10_000));
        }
        let rep = r.finish().unwrap();
        assert_eq!(rep.tail[0].kind, JourneyEventKind::Stall);
        assert!(rep.tail[0].tail_share > 0.9);
        let compute = rep
            .tail
            .iter()
            .find(|r| r.kind == JourneyEventKind::SampleStep)
            .unwrap();
        assert!(compute.median_share > 0.99);
    }

    #[test]
    fn json_and_csv_are_stable_across_identical_runs() {
        let run = || {
            let cfg = JourneyConfig {
                seed: 5,
                sample_period: 2,
                max_walks: 100,
            };
            let mut r = JourneyRecorder::enabled(cfg);
            for id in 0..40u32 {
                r.event(
                    id,
                    JourneyEventKind::NandRead,
                    id % 4,
                    t(0),
                    t(100 + id as u64),
                );
                r.event(id, JourneyEventKind::SampleStep, id % 4, t(200), t(300));
            }
            r.finish().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.journeys_csv(), b.journeys_csv());
        assert!(a
            .journeys_csv()
            .starts_with("walk_id,kind,lane,start_ns,end_ns,dur_ns\n"));
    }
}
