//! Derived observability views: the [`TraceReport`] an engine attaches to
//! its `RunReport` once tracing is enabled.

use std::collections::BTreeMap;
use std::fmt;

use crate::span::SpanRecord;
use crate::stats::Histogram;

/// Busy-time summary for one component instance (`(name, lane)` track).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentUtil {
    /// Component group (e.g. `channel.bus`, `flash.read`, `dram.bank`).
    pub name: String,
    /// Instance within the group (channel #, chip #, bank #, …).
    pub lane: u32,
    /// Exact busy nanoseconds accumulated by this instance.
    pub busy_ns: u64,
    /// Number of busy intervals recorded.
    pub count: u64,
    /// Payload bytes moved by this instance.
    pub bytes: u64,
    /// `busy_ns / horizon_ns` — fraction of the run this instance was busy.
    pub utilization: f64,
}

/// p50/p95/p99 summary for one named duration or value distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySummary {
    /// Distribution name (e.g. `flash.read`, `walk.step_ns`).
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Mean sample value, rounded to the nearest integer.
    pub mean: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl LatencySummary {
    /// Summarize a histogram under the given name.
    pub fn from_histogram(name: String, h: &Histogram) -> Self {
        LatencySummary {
            name,
            count: h.count(),
            mean: h.mean().round() as u64,
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            max: h.max(),
        }
    }
}

/// Windowed mean of a sampled gauge (queue depth) over sim time.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueDepthSeries {
    /// Gauge name (e.g. `chan.queue`).
    pub name: String,
    /// Window width in nanoseconds.
    pub window_ns: u64,
    /// Mean sampled value per window (0 for windows with no samples).
    pub mean: Vec<f64>,
}

impl QueueDepthSeries {
    /// Mean over all sampled windows (unweighted; 0 when empty).
    pub fn overall_mean(&self) -> f64 {
        let sampled: Vec<f64> = self.mean.iter().copied().filter(|&m| m > 0.0).collect();
        if sampled.is_empty() {
            0.0
        } else {
            sampled.iter().sum::<f64>() / sampled.len() as f64
        }
    }

    /// Largest windowed mean.
    pub fn peak(&self) -> f64 {
        self.mean.iter().copied().fold(0.0, f64::max)
    }
}

/// Everything the tracing layer derived from one run. Attached to
/// `RunReport` as `trace: Option<TraceReport>` when tracing is enabled.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Simulation end time (utilization denominator), nanoseconds.
    pub horizon_ns: u64,
    /// Window width used for queue-depth series, nanoseconds.
    pub window_ns: u64,
    /// Interned span-name table; `SpanRecord::name` indexes into this.
    pub names: Vec<String>,
    /// Retained spans (subject to sampling; aggregates are exact).
    pub spans: Vec<SpanRecord>,
    /// Spans dropped from the retained list by sampling or the cap.
    pub dropped_spans: u64,
    /// Per-(name, lane) utilization rows, sorted by (name id, lane).
    pub components: Vec<ComponentUtil>,
    /// Per-name latency summaries, sorted by name.
    pub latencies: Vec<LatencySummary>,
    /// Windowed queue-depth series.
    pub queue_depths: Vec<QueueDepthSeries>,
    /// Exact total bytes per span name (all lanes summed).
    pub name_bytes: BTreeMap<String, u64>,
    /// Exact total busy nanoseconds per span name (all lanes summed).
    pub name_busy: BTreeMap<String, u64>,
}

impl TraceReport {
    /// Exact total bytes recorded under `name` (0 if absent).
    pub fn bytes_for(&self, name: &str) -> u64 {
        self.name_bytes.get(name).copied().unwrap_or(0)
    }

    /// Exact total busy nanoseconds recorded under `name` (0 if absent).
    pub fn busy_ns_for(&self, name: &str) -> u64 {
        self.name_busy.get(name).copied().unwrap_or(0)
    }

    /// Utilization rows for one component group, in lane order.
    pub fn utils_for(&self, name: &str) -> Vec<&ComponentUtil> {
        self.components.iter().filter(|c| c.name == name).collect()
    }

    /// Mean utilization across the lanes of one component group
    /// (0 if the group is absent).
    pub fn mean_util_for(&self, name: &str) -> f64 {
        let rows = self.utils_for(name);
        if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(|c| c.utilization).sum::<f64>() / rows.len() as f64
        }
    }

    /// The component group with the **highest mean utilization** — a
    /// *correlation* signal, not causal attribution: a group can be busy
    /// in parallel slack without ever bounding the makespan. For causal
    /// attribution use the critical-path shares
    /// ([`crate::critical::CriticalReport::shares`]). Exact ties break to
    /// the lexicographically first group name (`max_by` would keep the
    /// *last* equal element of the name-sorted iteration, making the
    /// answer depend on iteration order rather than a stated rule).
    pub fn bottleneck(&self) -> Option<(String, f64)> {
        self.bottleneck_candidates(1).into_iter().next()
    }

    /// The top-`n` component groups by mean utilization, highest first
    /// (ties break to the lexicographically first name). Same caveat as
    /// [`Self::bottleneck`]: "most utilized" is not "on the critical
    /// path".
    pub fn bottleneck_candidates(&self, n: usize) -> Vec<(String, f64)> {
        let mut by_name: BTreeMap<&str, (f64, u32)> = BTreeMap::new();
        for c in &self.components {
            let e = by_name.entry(c.name.as_str()).or_insert((0.0, 0));
            e.0 += c.utilization;
            e.1 += 1;
        }
        let mut ranked: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(name, (sum, cnt))| (name.to_string(), sum / cnt as f64))
            .collect();
        // BTreeMap iteration is name-sorted, so the stable sort keeps the
        // lexicographically first name ahead on exact ties.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(n);
        ranked
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: horizon {:.6}s, {} spans retained ({} dropped)",
            self.horizon_ns as f64 / 1e9,
            self.spans.len(),
            self.dropped_spans
        )?;
        writeln!(
            f,
            "-- utilization (group: mean over lanes, busiest lane) --"
        )?;
        let mut group: BTreeMap<&str, Vec<&ComponentUtil>> = BTreeMap::new();
        for c in &self.components {
            group.entry(c.name.as_str()).or_default().push(c);
        }
        for (name, rows) in &group {
            let mean = rows.iter().map(|c| c.utilization).sum::<f64>() / rows.len() as f64;
            let busiest = rows
                .iter()
                .max_by(|a, b| a.utilization.total_cmp(&b.utilization))
                .expect("non-empty group");
            writeln!(
                f,
                "  {name:<16} lanes={:<4} mean={:>6.1}% peak={:>6.1}% (lane {})",
                rows.len(),
                mean * 100.0,
                busiest.utilization * 100.0,
                busiest.lane
            )?;
        }
        writeln!(f, "-- latency (ns) --")?;
        for l in &self.latencies {
            writeln!(
                f,
                "  {:<16} n={:<9} mean={:<9} p50={:<9} p95={:<9} p99={:<9} max={}",
                l.name, l.count, l.mean, l.p50, l.p95, l.p99, l.max
            )?;
        }
        if !self.queue_depths.is_empty() {
            writeln!(f, "-- queue depth (windowed mean) --")?;
            for q in &self.queue_depths {
                writeln!(
                    f,
                    "  {:<16} mean={:.2} peak={:.2} over {} windows of {}us",
                    q.name,
                    q.overall_mean(),
                    q.peak(),
                    q.mean.len(),
                    q.window_ns / 1000
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{TraceConfig, Tracer};
    use crate::time::SimTime;

    fn sample_report() -> TraceReport {
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.span_bytes("channel.bus", 0, SimTime(0), SimTime(400), 4096);
        tr.span_bytes("channel.bus", 1, SimTime(0), SimTime(200), 2048);
        tr.span("flash.read", 0, SimTime(0), SimTime(900));
        tr.gauge("chan.queue", SimTime(50), 3);
        tr.finish(SimTime(1000)).unwrap()
    }

    #[test]
    fn lookup_helpers() {
        let rep = sample_report();
        assert_eq!(rep.bytes_for("channel.bus"), 4096 + 2048);
        assert_eq!(rep.busy_ns_for("channel.bus"), 600);
        assert_eq!(rep.bytes_for("missing"), 0);
        assert_eq!(rep.utils_for("channel.bus").len(), 2);
        assert!((rep.mean_util_for("channel.bus") - 0.3).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_picks_highest_mean_util() {
        let rep = sample_report();
        let (name, util) = rep.bottleneck().unwrap();
        assert_eq!(name, "flash.read");
        assert!((util - 0.9).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_ties_break_to_the_first_name() {
        // Two groups with *identical* mean utilization: the winner must
        // be the lexicographically first name, not whichever the map
        // happened to iterate last.
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.span("b.group", 0, SimTime(0), SimTime(500));
        tr.span("a.group", 0, SimTime(0), SimTime(500));
        let rep = tr.finish(SimTime(1000)).unwrap();
        let (name, util) = rep.bottleneck().unwrap();
        assert_eq!(name, "a.group");
        assert!((util - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_candidates_rank_highest_first() {
        let rep = sample_report();
        let top = rep.bottleneck_candidates(3);
        assert_eq!(top.len(), 2, "only two groups exist");
        assert_eq!(top[0].0, "flash.read");
        assert_eq!(top[1].0, "channel.bus");
        assert!(top[0].1 >= top[1].1);
        assert_eq!(rep.bottleneck_candidates(1).len(), 1);
    }

    #[test]
    fn display_text_report_mentions_all_sections() {
        let rep = sample_report();
        let s = format!("{rep}");
        assert!(s.contains("utilization"));
        assert!(s.contains("channel.bus"));
        assert!(s.contains("latency"));
        assert!(s.contains("queue depth"));
        // Deterministic rendering.
        assert_eq!(s, format!("{rep}"));
    }
}
