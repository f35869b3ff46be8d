//! Span-based sim-time tracing with bounded memory.
//!
//! A [`Tracer`] records *busy intervals* — `(name, lane, start, end)` —
//! for simulated components: flash channels, chips, planes, DRAM banks
//! and the accelerator PEs. Two storage tiers keep memory bounded while
//! keeping derived numbers exact:
//!
//! * **Track aggregates** (always exact): per-`(name, lane)` busy time,
//!   event count, byte count and a duration [`Histogram`]. Utilization
//!   and latency percentiles are derived from these, so they are *never*
//!   affected by sampling.
//! * **Retained span list** (sampled): the spans exported to Chrome
//!   trace JSON. Per-track modular sampling (`sample_every`) plus a hard
//!   `max_spans` cap bound memory; sampling is a deterministic counter,
//!   never randomness or wall-clock, so same-seed runs retain the same
//!   spans.
//!
//! A disabled tracer ([`Tracer::disabled`]) is a no-op sink: every method
//! returns after a single `bool` branch, so engines can call it
//! unconditionally without affecting Tier-1 benchmark numbers.

use std::collections::BTreeMap;

use crate::report::{ComponentUtil, LatencySummary, QueueDepthSeries, TraceReport};
use crate::stats::{Histogram, TimeSeries};
use crate::time::SimTime;

/// Knobs bounding a [`Tracer`]'s memory.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Retain one of every `sample_every` spans per track for export
    /// (aggregates always see every span). `1` retains everything.
    pub sample_every: u64,
    /// Hard cap on the total retained span list; once hit, further spans
    /// only feed aggregates and are counted in `dropped`.
    pub max_spans: usize,
    /// Bucket width for queue-depth / gauge time series, in nanoseconds.
    pub window_ns: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample_every: 1,
            max_spans: 1_000_000,
            window_ns: 100_000,
        }
    }
}

/// One retained span, with interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Index into the tracer's name table.
    pub name: u32,
    /// Component instance within the named group (channel #, chip #, …).
    pub lane: u32,
    /// Span start, simulated time.
    pub start: SimTime,
    /// Span end, simulated time (`end >= start`).
    pub end: SimTime,
    /// Payload bytes moved during the span (0 for pure compute/busy).
    pub bytes: u64,
}

/// Exact per-(name, lane) aggregate.
#[derive(Debug, Clone, Default)]
struct Track {
    busy_ns: u64,
    count: u64,
    bytes: u64,
    durations: Histogram,
    /// Modular sampling counter for the retained list.
    seen: u64,
}

/// Sum + count sampler for a gauge (queue depth) over sim time.
#[derive(Debug, Clone)]
struct GaugeSeries {
    sum: TimeSeries,
    count: TimeSeries,
}

/// Span-based sim-time tracer. See module docs.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    on: bool,
    cfg: TraceConfig,
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
    tracks: BTreeMap<(u32, u32), Track>,
    gauges: BTreeMap<u32, GaugeSeries>,
    values: BTreeMap<u32, Histogram>,
    spans: Vec<SpanRecord>,
    dropped: u64,
}

impl Tracer {
    /// A no-op tracer: every recording method is a single-branch return.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled tracer with the given memory bounds.
    pub fn enabled(cfg: TraceConfig) -> Self {
        let mut t = Self::disabled();
        t.on = true;
        t.cfg = cfg;
        t
    }

    /// Whether this tracer records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Record a busy interval with a byte payload.
    ///
    /// Aggregates (busy time, counts, bytes, duration histogram) are
    /// always exact; the span is retained for export subject to sampling.
    pub fn span_bytes(&mut self, name: &str, lane: u32, start: SimTime, end: SimTime, bytes: u64) {
        if !self.on {
            return;
        }
        debug_assert!(end >= start, "reversed span {name}: [{start}, {end})");
        let id = self.intern(name);
        let track = self.tracks.entry((id, lane)).or_default();
        let dur = end.as_nanos().saturating_sub(start.as_nanos());
        track.busy_ns += dur;
        track.count += 1;
        track.bytes += bytes;
        track.durations.record(dur);
        let retain = track.seen.is_multiple_of(self.cfg.sample_every);
        track.seen += 1;
        if retain && self.spans.len() < self.cfg.max_spans {
            self.spans.push(SpanRecord {
                name: id,
                lane,
                start,
                end,
                bytes,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Record a busy interval with no byte payload.
    pub fn span(&mut self, name: &str, lane: u32, start: SimTime, end: SimTime) {
        self.span_bytes(name, lane, start, end, 0);
    }

    /// Record a busy interval into aggregates only — never retained for
    /// export. Use for very numerous fine-grained components (per-plane,
    /// per-bank) where the Chrome trace would drown in rows.
    pub fn busy(&mut self, name: &str, lane: u32, start: SimTime, end: SimTime) {
        if !self.on {
            return;
        }
        debug_assert!(end >= start, "reversed span {name}: [{start}, {end})");
        let id = self.intern(name);
        let track = self.tracks.entry((id, lane)).or_default();
        let dur = end.as_nanos().saturating_sub(start.as_nanos());
        track.busy_ns += dur;
        track.count += 1;
        track.durations.record(dur);
    }

    /// Sample a gauge (e.g. queue depth) at a point in sim time. The
    /// derived view is the mean sampled value per `window_ns` bucket.
    pub fn gauge(&mut self, name: &str, at: SimTime, value: u64) {
        if !self.on {
            return;
        }
        let window = self.cfg.window_ns;
        let id = self.intern(name);
        let g = self.gauges.entry(id).or_insert_with(|| GaugeSeries {
            sum: TimeSeries::new(window),
            count: TimeSeries::new(window),
        });
        g.sum.add(at, value as f64);
        g.count.add(at, 1.0);
    }

    /// Record a standalone latency/size value into a named histogram
    /// (e.g. walk-step service time), without a busy interval.
    pub fn record(&mut self, name: &str, value: u64) {
        if !self.on {
            return;
        }
        let id = self.intern(name);
        self.values.entry(id).or_default().record(value);
    }

    /// Fold another tracer into this one. Used to collect the tracers
    /// owned by subcomponents (SSD, DRAM) into the engine's tracer at end
    /// of run, avoiding shared mutable state inside the event loop.
    pub fn merge(&mut self, other: &Tracer) {
        if !self.on || !other.on {
            return;
        }
        // Remap the other tracer's name ids into ours.
        let remap: Vec<u32> = other.names.iter().map(|n| self.intern(n)).collect();
        for (&(id, lane), track) in &other.tracks {
            let t = self.tracks.entry((remap[id as usize], lane)).or_default();
            t.busy_ns += track.busy_ns;
            t.count += track.count;
            t.bytes += track.bytes;
            t.durations.merge(&track.durations);
            t.seen += track.seen;
        }
        for (&id, g) in &other.gauges {
            let mine = self
                .gauges
                .entry(remap[id as usize])
                .or_insert_with(|| GaugeSeries {
                    sum: TimeSeries::new(self.cfg.window_ns),
                    count: TimeSeries::new(self.cfg.window_ns),
                });
            mine.sum.merge(&g.sum);
            mine.count.merge(&g.count);
        }
        for (&id, h) in &other.values {
            self.values.entry(remap[id as usize]).or_default().merge(h);
        }
        for s in &other.spans {
            if self.spans.len() < self.cfg.max_spans {
                self.spans.push(SpanRecord {
                    name: remap[s.name as usize],
                    ..*s
                });
            } else {
                self.dropped += 1;
            }
        }
        self.dropped += other.dropped;
    }

    /// Total exact busy nanoseconds recorded under `name` across lanes.
    pub fn busy_ns_for(&self, name: &str) -> u64 {
        let Some(&id) = self.ids.get(name) else {
            return 0;
        };
        self.tracks
            .iter()
            .filter(|((n, _), _)| *n == id)
            .map(|(_, t)| t.busy_ns)
            .sum()
    }

    /// Total exact bytes recorded under `name` across lanes.
    pub fn bytes_for(&self, name: &str) -> u64 {
        let Some(&id) = self.ids.get(name) else {
            return 0;
        };
        self.tracks
            .iter()
            .filter(|((n, _), _)| *n == id)
            .map(|(_, t)| t.bytes)
            .sum()
    }

    /// Resolve this tracer into a [`TraceReport`] at simulation horizon
    /// `horizon` (utilization denominators are `horizon` nanoseconds).
    ///
    /// Returns `None` for a disabled tracer.
    ///
    /// The report is *canonical*: name ids are remapped to sorted-name
    /// order and retained spans are sorted by `(name, lane, start, end,
    /// bytes)` before derivation. Intern order depends on which site
    /// recorded a name first, and [`Tracer::merge`] appends the folded-in
    /// tracer's names and spans after this one's, so canonicalizing here
    /// makes the report (and every exporter downstream) independent of
    /// recording and merge order.
    pub fn finish(self, horizon: SimTime) -> Option<TraceReport> {
        if !self.on {
            return None;
        }
        // Canonicalize: sorted-name id space, sorted span list.
        let mut order: Vec<u32> = (0..self.names.len() as u32).collect();
        order.sort_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
        let mut remap = vec![0u32; self.names.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let names: Vec<String> = order
            .iter()
            .map(|&o| self.names[o as usize].clone())
            .collect();
        let tracks: BTreeMap<(u32, u32), Track> = self
            .tracks
            .into_iter()
            .map(|((id, lane), t)| ((remap[id as usize], lane), t))
            .collect();
        let gauges: BTreeMap<u32, GaugeSeries> = self
            .gauges
            .into_iter()
            .map(|(id, g)| (remap[id as usize], g))
            .collect();
        let values: BTreeMap<u32, Histogram> = self
            .values
            .into_iter()
            .map(|(id, h)| (remap[id as usize], h))
            .collect();
        let mut spans: Vec<SpanRecord> = self
            .spans
            .into_iter()
            .map(|s| SpanRecord {
                name: remap[s.name as usize],
                ..s
            })
            .collect();
        spans.sort_by_key(|s| (s.name, s.lane, s.start, s.end, s.bytes));

        let horizon_ns = horizon.as_nanos().max(1);
        let mut components = Vec::new();
        let mut per_name: BTreeMap<u32, Histogram> = BTreeMap::new();
        let mut per_name_bytes: BTreeMap<u32, u64> = BTreeMap::new();
        let mut per_name_busy: BTreeMap<u32, u64> = BTreeMap::new();
        for (&(id, lane), track) in &tracks {
            components.push(ComponentUtil {
                name: names[id as usize].clone(),
                lane,
                busy_ns: track.busy_ns,
                count: track.count,
                bytes: track.bytes,
                utilization: track.busy_ns as f64 / horizon_ns as f64,
            });
            per_name.entry(id).or_default().merge(&track.durations);
            *per_name_bytes.entry(id).or_insert(0) += track.bytes;
            *per_name_busy.entry(id).or_insert(0) += track.busy_ns;
        }
        let mut latencies = Vec::new();
        for (id, hist) in &per_name {
            latencies.push(LatencySummary::from_histogram(
                names[*id as usize].clone(),
                hist,
            ));
        }
        for (&id, hist) in &values {
            latencies.push(LatencySummary::from_histogram(
                names[id as usize].clone(),
                hist,
            ));
        }
        latencies.sort_by(|a, b| a.name.cmp(&b.name));
        let mut queue_depths = Vec::new();
        for (&id, g) in &gauges {
            let mean: Vec<f64> = g
                .sum
                .windows()
                .iter()
                .zip(g.count.windows().iter())
                .map(|(&s, &c)| if c == 0.0 { 0.0 } else { s / c })
                .collect();
            queue_depths.push(QueueDepthSeries {
                name: names[id as usize].clone(),
                window_ns: self.cfg.window_ns,
                mean,
            });
        }
        let mut name_bytes: BTreeMap<String, u64> = BTreeMap::new();
        for (id, b) in per_name_bytes {
            name_bytes.insert(names[id as usize].clone(), b);
        }
        let mut name_busy: BTreeMap<String, u64> = BTreeMap::new();
        for (id, b) in per_name_busy {
            name_busy.insert(names[id as usize].clone(), b);
        }
        Some(TraceReport {
            horizon_ns: horizon.as_nanos(),
            window_ns: self.cfg.window_ns,
            names,
            spans,
            dropped_spans: self.dropped,
            components,
            latencies,
            queue_depths,
            name_bytes,
            name_busy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn disabled_tracer_is_a_sink() {
        let mut tr = Tracer::disabled();
        tr.span("flash.read", 0, t(0), t(100));
        tr.busy("plane", 3, t(0), t(50));
        tr.gauge("q", t(10), 4);
        tr.record("walk.step_ns", 99);
        assert!(!tr.is_enabled());
        assert_eq!(tr.busy_ns_for("flash.read"), 0);
        assert!(tr.finish(t(1000)).is_none());
    }

    #[test]
    fn aggregates_are_exact_under_sampling() {
        let mut tr = Tracer::enabled(TraceConfig {
            sample_every: 10,
            max_spans: 4,
            ..TraceConfig::default()
        });
        for i in 0..100u64 {
            tr.span_bytes("flash.read", 0, t(i * 100), t(i * 100 + 50), 4096);
        }
        assert_eq!(tr.busy_ns_for("flash.read"), 100 * 50);
        assert_eq!(tr.bytes_for("flash.read"), 100 * 4096);
        let rep = tr.finish(t(10_000)).unwrap();
        assert!(rep.spans.len() <= 4);
        assert!(rep.dropped_spans > 0);
        let c = &rep.components[0];
        assert_eq!(c.busy_ns, 5_000);
        assert!((c.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_tracks_across_tracers() {
        let mut a = Tracer::enabled(TraceConfig::default());
        a.span_bytes("channel.bus", 1, t(0), t(10), 100);
        let mut b = Tracer::enabled(TraceConfig::default());
        b.span_bytes("channel.bus", 1, t(20), t(40), 200);
        b.span("dram.access", 0, t(0), t(5));
        a.merge(&b);
        assert_eq!(a.busy_ns_for("channel.bus"), 30);
        assert_eq!(a.bytes_for("channel.bus"), 300);
        assert_eq!(a.busy_ns_for("dram.access"), 5);
        let rep = a.finish(t(100)).unwrap();
        assert_eq!(rep.spans.len(), 3);
    }

    #[test]
    fn finish_populates_per_lane_components() {
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.span_bytes("channel.bus", 3, t(0), t(250), 512);
        let rep = tr.finish(t(1000)).unwrap();
        let c = rep
            .components
            .iter()
            .find(|c| c.name == "channel.bus" && c.lane == 3)
            .unwrap();
        assert_eq!(c.busy_ns, 250);
        assert_eq!(c.count, 1);
        assert_eq!(c.bytes, 512);
        assert!((c.utilization - 0.25).abs() < 1e-9);
    }

    /// Engines fold their SSD and DRAM tracers into the run's tracer at
    /// run end, and the order of those merges must not leak into the
    /// report. Build tracers with overlapping and disjoint names, merge
    /// them in several shuffled orders, and assert the finished reports —
    /// including both byte-level exporters — are identical.
    #[test]
    fn merge_order_does_not_change_the_finished_report() {
        use crate::export::{chrome_trace_json, trace_summary_json};

        let make_tracers = || {
            let mut s0 = Tracer::enabled(TraceConfig::default());
            s0.span_bytes("chip.read", 0, t(0), t(100), 4096);
            s0.span("chan.bus", 0, t(100), t(130));
            s0.gauge("chip.queue", t(50), 3);
            s0.record("hop_ns", 40);
            let mut s1 = Tracer::enabled(TraceConfig::default());
            s1.span_bytes("chip.read", 1, t(20), t(90), 4096);
            s1.span("board.pe", 0, t(90), t(140));
            s1.gauge("chan.queue", t(60), 7);
            s1.record("hop_ns", 55);
            let mut s2 = Tracer::enabled(TraceConfig::default());
            s2.span("dram.access", 2, t(5), t(25));
            s2.span_bytes("chip.read", 0, t(200), t(260), 8192);
            s2.gauge("chip.queue", t(150), 9);
            vec![s0, s1, s2]
        };

        let finish_in_order = |order: &[usize]| {
            let tracers = make_tracers();
            let mut root = Tracer::enabled(TraceConfig::default());
            for &i in order {
                root.merge(&tracers[i]);
            }
            root.finish(t(1_000)).unwrap()
        };

        let reference = finish_in_order(&[0, 1, 2]);
        for order in [[1, 0, 2], [2, 1, 0], [2, 0, 1], [1, 2, 0]] {
            let shuffled = finish_in_order(&order);
            assert_eq!(reference.names, shuffled.names, "order {order:?}");
            assert_eq!(reference.spans, shuffled.spans, "order {order:?}");
            assert_eq!(
                chrome_trace_json(&reference, None, None),
                chrome_trace_json(&shuffled, None, None),
                "chrome trace diverged for merge order {order:?}"
            );
            assert_eq!(
                trace_summary_json(&reference).render(),
                trace_summary_json(&shuffled).render(),
                "summary diverged for merge order {order:?}"
            );
        }
        // Canonical form: names sorted, spans sorted by (name, lane, start).
        let mut sorted_names = reference.names.clone();
        sorted_names.sort();
        assert_eq!(reference.names, sorted_names);
        let mut sorted_spans = reference.spans.clone();
        sorted_spans.sort_by_key(|s| (s.name, s.lane, s.start, s.end, s.bytes));
        assert_eq!(reference.spans, sorted_spans);
    }

    #[test]
    fn gauge_series_reports_windowed_mean() {
        let mut tr = Tracer::enabled(TraceConfig {
            window_ns: 100,
            ..TraceConfig::default()
        });
        tr.gauge("chan.queue", t(10), 4);
        tr.gauge("chan.queue", t(20), 8);
        tr.gauge("chan.queue", t(150), 2);
        let rep = tr.finish(t(200)).unwrap();
        let q = &rep.queue_depths[0];
        assert_eq!(q.name, "chan.queue");
        assert!((q.mean[0] - 6.0).abs() < 1e-9);
        assert!((q.mean[1] - 2.0).abs() < 1e-9);
    }
}
