//! Trace exporters: Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)), CSV, and the
//! [`trace_summary_json`] record tree.
//!
//! The Chrome trace is an export, not a record, so it is streamed as text
//! in one pass rather than built as a [`Json`] tree; its strings go
//! through the one escape, [`crate::json::esc`]. Output is
//! byte-deterministic: names are interned in first-seen order, spans are
//! emitted in recording order, and the microsecond timestamps Chrome
//! requires are formatted with integer math (never `f64` printing, whose
//! shortest-round-trip digits could differ across platforms).

use std::fmt::Write as _;

use crate::heatmap::HeatmapReport;
use crate::journey::JourneyReport;
use crate::json::{esc, Json};
use crate::report::TraceReport;

/// Nanoseconds rendered as Chrome's microsecond timestamps ("12.345").
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render a [`TraceReport`]'s retained spans as Chrome `trace_event` JSON.
///
/// Each span name becomes a Perfetto *process* (via `process_name`
/// metadata) and each lane a *thread* within it, so channels, chips and
/// banks show up as parallel rows. Spans are "X" (complete) events with
/// `ts`/`dur` in microseconds and byte payloads in `args`.
///
/// With `journeys`, one more process ("walk journeys") follows whose
/// threads are sampled walk ids: every recorded
/// [`crate::journey::JourneyEvent`] becomes an "X" event on its walk's
/// row, so a walk's whole lifecycle (loads, reads, retries, hops,
/// compute) reads left-to-right alongside the component tracks.
///
/// With `heatmap`, a last process ("contention heatmap") holds a Perfetto
/// *counter* track: per-component "C" events whose `args` carry the
/// window's mean busy fraction and summed queue-depth occupancy. Lanes of
/// one component are aggregated so the track count stays bounded on
/// 128-chip geometries.
pub fn chrome_trace_json(
    report: &TraceReport,
    journeys: Option<&JourneyReport>,
    heatmap: Option<&HeatmapReport>,
) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut event = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };
    let process = |out: &mut String, pid: usize, name: &str| {
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        );
    };
    for (pid, name) in report.names.iter().enumerate() {
        event(&mut out);
        process(&mut out, pid, name);
    }
    for s in &report.spans {
        let dur = s.end.as_nanos().saturating_sub(s.start.as_nanos());
        let args = if s.bytes > 0 {
            format!("{{\"bytes\":{}}}", s.bytes)
        } else {
            "{}".to_string()
        };
        event(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{}}}",
            s.name,
            s.lane,
            esc(&report.names[s.name as usize]),
            us(s.start.as_nanos()),
            us(dur),
            args
        );
    }
    let mut pid = report.names.len();
    if let Some(journeys) = journeys {
        event(&mut out);
        process(&mut out, pid, "walk journeys");
        for w in &journeys.walks {
            for e in &w.events {
                let dur = e.end.as_nanos().saturating_sub(e.start.as_nanos());
                event(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":\"{}\",\
                     \"ts\":{},\"dur\":{},\"args\":{{\"lane\":{}}}}}",
                    w.id,
                    e.kind.name(),
                    us(e.start.as_nanos()),
                    us(dur),
                    e.lane
                );
            }
        }
        pid += 1;
    }
    if let Some(heatmap) = heatmap {
        event(&mut out);
        process(&mut out, pid, "contention heatmap");
        for (comp, cells) in heatmap.component_series() {
            for (start, busy, depth) in cells {
                event(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"{}\",\"ts\":{},\
                     \"args\":{{\"busy\":{:.4},\"depth\":{:.4}}}}}",
                    esc(&comp),
                    us(start),
                    busy,
                    depth
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// A [`TraceReport`]'s derived summaries — per-group utilization,
/// latency percentiles, queue depths and the bottleneck pick — as one
/// [`Json`] tree.
///
/// This is the machine-readable companion of the `Display` text report,
/// meant for embedding in benchmark records (`fwbench`'s `BENCH_*.json`).
/// Groups, queues and latencies are emitted in their already-sorted
/// report order and floats use fixed precision, so identical reports
/// serialize byte-identically.
pub fn trace_summary_json(report: &TraceReport) -> Json {
    use std::collections::BTreeMap;

    // Per-group utilization: mean over lanes, plus exact busy/byte totals.
    let mut groups: BTreeMap<&str, Vec<&crate::report::ComponentUtil>> = BTreeMap::new();
    for c in &report.components {
        groups.entry(c.name.as_str()).or_default().push(c);
    }
    let utilization = groups
        .iter()
        .map(|(name, rows)| {
            let mean = rows.iter().map(|c| c.utilization).sum::<f64>() / rows.len() as f64;
            Json::obj(vec![
                ("name", Json::s(name)),
                ("lanes", Json::u(rows.len() as u64)),
                ("mean_util", Json::f(mean, 4)),
                ("busy_ns", Json::u(report.busy_ns_for(name))),
                ("bytes", Json::u(report.bytes_for(name))),
            ])
        })
        .collect();
    let latencies = report
        .latencies
        .iter()
        .map(|l| {
            Json::obj(vec![
                ("name", Json::s(&l.name)),
                ("count", Json::u(l.count)),
                ("mean", Json::u(l.mean)),
                ("p50", Json::u(l.p50)),
                ("p95", Json::u(l.p95)),
                ("p99", Json::u(l.p99)),
                ("max", Json::u(l.max)),
            ])
        })
        .collect();
    let queues = report
        .queue_depths
        .iter()
        .map(|q| {
            Json::obj(vec![
                ("name", Json::s(&q.name)),
                ("mean_depth", Json::f(q.overall_mean(), 3)),
                ("peak_depth", Json::f(q.peak(), 3)),
            ])
        })
        .collect();
    let bottleneck = match report.bottleneck() {
        Some((name, util)) => Json::obj(vec![
            ("name", Json::s(&name)),
            ("mean_util", Json::f(util, 4)),
        ]),
        None => Json::Null,
    };
    Json::obj(vec![
        ("horizon_ns", Json::u(report.horizon_ns)),
        ("utilization", Json::Arr(utilization)),
        ("latencies", Json::Arr(latencies)),
        ("queues", Json::Arr(queues)),
        ("bottleneck", bottleneck),
    ])
}

/// Render the retained spans as CSV: `name,lane,start_ns,end_ns,bytes`.
pub fn spans_csv(report: &TraceReport) -> String {
    let mut out = String::from("name,lane,start_ns,end_ns,bytes\n");
    for s in &report.spans {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            report.names[s.name as usize],
            s.lane,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.bytes
        );
    }
    out
}

/// Render the per-component utilization rows as CSV:
/// `name,lane,busy_ns,count,bytes,utilization`.
pub fn utilization_csv(report: &TraceReport) -> String {
    let mut out = String::from("name,lane,busy_ns,count,bytes,utilization\n");
    for c in &report.components {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6}",
            c.name, c.lane, c.busy_ns, c.count, c.bytes, c.utilization
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{TraceConfig, Tracer};
    use crate::time::SimTime;

    fn report() -> TraceReport {
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.span_bytes("channel.bus", 2, SimTime(1_500), SimTime(13_845), 4096);
        tr.span("flash.read", 0, SimTime(0), SimTime(40_000));
        tr.finish(SimTime(50_000)).unwrap()
    }

    /// Journeys for walk 7 (one NAND read) and a heatmap over a
    /// two-node dependency log — inputs for both optional processes.
    fn journeys_and_heatmap() -> (JourneyReport, HeatmapReport) {
        use crate::critical::{CriticalConfig, CriticalRecorder};
        use crate::journey::{JourneyConfig, JourneyEventKind::*, JourneyRecorder};
        let mut jr = JourneyRecorder::enabled(JourneyConfig {
            seed: 0,
            sample_period: 1,
            max_walks: 16,
        });
        jr.event(7, NandRead, 2, SimTime(1_000), SimTime(3_000));
        jr.event(7, Complete, 2, SimTime(3_000), SimTime(3_000));
        let mut cr = CriticalRecorder::enabled(CriticalConfig::default());
        cr.node(0, "channel.bus", 2, SimTime(0), SimTime(30_000), None);
        cr.node(
            1,
            "chip.batch",
            5,
            SimTime(30_000),
            SimTime(50_000),
            Some(0),
        );
        let crit = cr.finish(SimTime(50_000)).unwrap();
        let heatmap = HeatmapReport::from_critical(&crit, 10_000);
        (jr.finish().unwrap(), heatmap)
    }

    /// The `traceEvents` array of a Chrome trace, which must parse.
    fn events(json: &str) -> Vec<Json> {
        let doc = Json::parse(json).expect("chrome trace is valid JSON");
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec()
    }

    /// The pid of the `process_name` metadata event naming `name`.
    fn pid_of(events: &[Json], name: &str) -> Option<u64> {
        events
            .iter()
            .find(|e| e.get("args").and_then(|a| a.get("name")) == Some(&Json::s(name)))
            .and_then(|e| e.get("pid").and_then(Json::as_u64))
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&report(), None, None);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("\n]}\n"));
        // Metadata names both processes.
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"channel.bus\""));
        // Microsecond timestamps via integer math: 1500 ns -> "1.500".
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":12.345"), "{json}");
        assert!(json.contains("\"bytes\":4096"));
        assert_eq!(events(&json).len(), 4, "two processes, two spans");
    }

    #[test]
    fn chrome_json_is_deterministic() {
        let (j, hm) = journeys_and_heatmap();
        let a = chrome_trace_json(&report(), Some(&j), Some(&hm));
        let b = chrome_trace_json(&report(), Some(&j), Some(&hm));
        assert_eq!(a, b);
    }

    #[test]
    fn chrome_json_adds_walk_and_heatmap_tracks_after_the_components() {
        let rep = report();
        let base = events(&chrome_trace_json(&rep, None, None));
        let (j, hm) = journeys_and_heatmap();
        let n = rep.names.len() as u64;
        for (journeys, heatmap) in [(Some(&j), None), (None, Some(&hm)), (Some(&j), Some(&hm))] {
            let ev = events(&chrome_trace_json(&rep, journeys, heatmap));
            assert_eq!(ev[..base.len()], base[..], "component events come first");
            let jpid = pid_of(&ev, "walk journeys");
            let hpid = pid_of(&ev, "contention heatmap");
            assert_eq!(jpid, journeys.map(|_| n));
            assert_eq!(hpid, heatmap.map(|_| n + u64::from(journeys.is_some())));
            if let Some(jpid) = jpid {
                let on_track = |e: &&Json| e.get("pid").and_then(Json::as_u64) == Some(jpid);
                // The process-name event, then the walk's first event.
                let walk = ev.iter().filter(on_track).nth(1).expect("a walk event");
                assert_eq!(walk.get("tid"), Some(&Json::u(7)));
                assert_eq!(walk.get("name"), Some(&Json::s("nand_read")));
            }
            if let Some(hpid) = hpid {
                let counters = ev.iter().filter(|e| e.get("ph") == Some(&Json::s("C")));
                assert!(counters.clone().count() > 0);
                for c in counters {
                    assert_eq!(c.get("pid").and_then(Json::as_u64), Some(hpid));
                    assert!(c.get("args").and_then(|a| a.get("busy")).is_some());
                }
            }
        }
    }

    #[test]
    fn csv_exports() {
        let rep = report();
        let csv = spans_csv(&rep);
        assert!(csv.starts_with("name,lane,start_ns,end_ns,bytes\n"));
        assert!(csv.contains("channel.bus,2,1500,13845,4096\n"));
        let util = utilization_csv(&rep);
        assert!(util.contains("flash.read,0,40000,1,0,0.800000\n"));
    }

    #[test]
    fn trace_summary_json_covers_all_sections() {
        let rep = report();
        let json = trace_summary_json(&rep);
        assert_eq!(json, trace_summary_json(&rep), "must be deterministic");
        assert_eq!(json.get("horizon_ns"), Some(&Json::u(50_000)));
        let util = json.get("utilization").and_then(Json::as_arr).unwrap();
        assert_eq!(util[0].get("name"), Some(&Json::s("channel.bus")));
        assert_eq!(
            json.get("bottleneck"),
            Some(&Json::obj(vec![
                ("name", Json::s("flash.read")),
                ("mean_util", Json::Num("0.8000".into())),
            ]))
        );
        assert!(json.get("latencies").and_then(Json::as_arr).is_some());
        assert!(json.get("queues").and_then(Json::as_arr).is_some());
    }
}
