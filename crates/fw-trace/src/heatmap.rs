//! Contention heatmaps derived from the critical-path dependency log.
//!
//! Every [`crate::critical::CritNode`] carries a busy interval
//! `[start, end)` for a `(component, lane)` pair — a chip batch, a
//! channel-bus transfer (including its queue wait), a subgraph load. This
//! module buckets those intervals into fixed sim-time windows and derives,
//! per pair and window:
//!
//! * **busy** — union coverage of the window (fraction of the window with
//!   at least one interval active), and
//! * **depth** — total interval-nanoseconds divided by the window width
//!   (the mean number of in-flight operations, i.e. queue-depth
//!   occupancy — overlapping transfers on one bus show up as depth > 1).
//!
//! Exports are a deterministic CSV and a Perfetto counter track (see
//! [`crate::export::chrome_trace_json`]). Long runs coarsen
//! the window deterministically so the heatmap never exceeds
//! [`MAX_WINDOWS`] windows.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::critical::CriticalReport;
use crate::json::Json;

/// Upper bound on heatmap windows: longer runs coarsen the window width
/// by an integer factor instead of growing the export.
pub const MAX_WINDOWS: usize = 512;

/// One heatmap cell: `(window_start_ns, busy fraction, mean depth)`.
pub type HeatCell = (u64, f64, f64);

/// Heatmap cells for one `(component, lane)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapLane {
    /// Component name.
    pub name: String,
    /// Lane within the component.
    pub lane: u32,
    /// Per-window `(window_start_ns, busy, depth)`, every window from 0
    /// to the horizon.
    pub cells: Vec<(u64, f64, f64)>,
}

/// Windowed busy/occupancy view of a run's dependency log.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapReport {
    /// Effective window width (ns), after deterministic coarsening.
    pub window_ns: u64,
    /// Run horizon the windows tile.
    pub horizon_ns: u64,
    /// Number of windows (same for every lane).
    pub windows: usize,
    /// Per-(component, lane) cells, sorted by `(name, lane)`.
    pub lanes: Vec<HeatmapLane>,
}

impl HeatmapReport {
    /// Bucket the report's dependency log into windows of roughly
    /// `window_ns` (coarsened so at most [`MAX_WINDOWS`] windows cover
    /// the horizon). Intervals still in flight at the horizon are clamped
    /// to it.
    pub fn from_critical(rep: &CriticalReport, window_ns: u64) -> Self {
        let horizon_ns = rep.horizon_ns;
        let req = window_ns.max(1);
        let nwin_req = (horizon_ns.div_ceil(req)).max(1);
        let factor = nwin_req.div_ceil(MAX_WINDOWS as u64);
        let window_ns = req * factor.max(1);
        let windows = (horizon_ns.div_ceil(window_ns)).max(1) as usize;

        let mut groups: BTreeMap<(String, u32), Vec<(u64, u64)>> = BTreeMap::new();
        for n in &rep.log {
            let end = n.end_ns.min(horizon_ns);
            if end <= n.start_ns {
                continue;
            }
            groups
                .entry((rep.names[n.name as usize].clone(), n.lane))
                .or_default()
                .push((n.start_ns, end));
        }

        let lanes = groups
            .into_iter()
            .map(|((name, lane), mut ivs)| {
                ivs.sort_unstable();
                let mut busy = vec![0u64; windows];
                let mut depth = vec![0u64; windows];
                // Occupancy: every interval contributes its full overlap.
                for &(s, e) in &ivs {
                    spread(&mut depth, s, e, window_ns);
                }
                // Busy: coalesce first so overlaps count once.
                let mut cur: Option<(u64, u64)> = None;
                for (s, e) in ivs {
                    match &mut cur {
                        Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
                        _ => {
                            if let Some((cs, ce)) = cur.take() {
                                spread(&mut busy, cs, ce, window_ns);
                            }
                            cur = Some((s, e));
                        }
                    }
                }
                if let Some((cs, ce)) = cur {
                    spread(&mut busy, cs, ce, window_ns);
                }
                let w = window_ns as f64;
                let cells = (0..windows)
                    .map(|i| {
                        (
                            i as u64 * window_ns,
                            busy[i] as f64 / w,
                            depth[i] as f64 / w,
                        )
                    })
                    .collect();
                HeatmapLane { name, lane, cells }
            })
            .collect();

        HeatmapReport {
            window_ns,
            horizon_ns,
            windows,
            lanes,
        }
    }

    /// Per-lane mean/peak busy fraction and occupancy, in lane order, as
    /// a [`Json`] tree (fixed key order and float precision) — the
    /// heatmap section embedded in BENCH records.
    pub fn summary_json(&self) -> Json {
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                let n = l.cells.len().max(1) as f64;
                let busy = l.cells.iter().map(|c| c.1);
                let depth = l.cells.iter().map(|c| c.2);
                Json::obj(vec![
                    ("name", Json::s(&l.name)),
                    ("lane", Json::u(l.lane.into())),
                    ("mean_busy", Json::f(busy.clone().sum::<f64>() / n, 4)),
                    ("max_busy", Json::f(busy.fold(0.0, f64::max), 4)),
                    ("mean_depth", Json::f(depth.clone().sum::<f64>() / n, 4)),
                    ("max_depth", Json::f(depth.fold(0.0, f64::max), 4)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("window_ns", Json::u(self.window_ns)),
            ("windows", Json::u(self.windows as u64)),
            ("lanes", Json::Arr(lanes)),
        ])
    }

    /// Deterministic CSV: `comp,lane,window_start_ns,busy,depth`.
    pub fn csv(&self) -> String {
        let mut out = String::from("comp,lane,window_start_ns,busy,depth\n");
        for l in &self.lanes {
            for &(start, busy, depth) in &l.cells {
                let _ = writeln!(
                    out,
                    "{},{},{},{:.4},{:.4}",
                    l.name, l.lane, start, busy, depth
                );
            }
        }
        out
    }

    /// Per-component counter series for the Perfetto track: lanes of one
    /// component aggregate to `(window_start, mean busy, total depth)`.
    pub fn component_series(&self) -> Vec<(String, Vec<HeatCell>)> {
        let mut comps: BTreeMap<&str, (usize, Vec<HeatCell>)> = BTreeMap::new();
        for l in &self.lanes {
            let e = comps
                .entry(l.name.as_str())
                .or_insert_with(|| (0, l.cells.iter().map(|&(s, _, _)| (s, 0.0, 0.0)).collect()));
            e.0 += 1;
            for (acc, c) in e.1.iter_mut().zip(&l.cells) {
                acc.1 += c.1;
                acc.2 += c.2;
            }
        }
        comps
            .into_iter()
            .map(|(name, (lanes, mut cells))| {
                for c in &mut cells {
                    c.1 /= lanes as f64;
                }
                (name.to_string(), cells)
            })
            .collect()
    }
}

/// Add `[s, e)`'s overlap with each window to `acc` (window width `w`).
fn spread(acc: &mut [u64], s: u64, e: u64, w: u64) {
    let first = (s / w) as usize;
    let last = ((e - 1) / w) as usize;
    for (i, slot) in acc
        .iter_mut()
        .enumerate()
        .skip(first)
        .take(last.saturating_sub(first) + 1)
    {
        let ws = i as u64 * w;
        let we = ws + w;
        *slot += e.min(we) - s.max(ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::{CriticalConfig, CriticalRecorder};
    use crate::time::SimTime;

    fn report_with(nodes: &[(u64, &str, u32, u64, u64)], horizon: u64) -> CriticalReport {
        let mut r = CriticalRecorder::enabled(CriticalConfig::default());
        for &(id, comp, lane, s, e) in nodes {
            let cause = id.checked_sub(1);
            r.node(id, comp, lane, SimTime(s), SimTime(e), cause);
        }
        r.finish(SimTime(horizon)).unwrap()
    }

    #[test]
    fn busy_counts_union_and_depth_counts_overlap() {
        // Two overlapping 60 ns transfers inside one 100 ns window:
        // union covers [0, 80) → busy 0.8; total interval-ns 120 → depth 1.2.
        let rep = report_with(&[(0, "bus", 2, 0, 60), (1, "bus", 2, 20, 80)], 100);
        let hm = HeatmapReport::from_critical(&rep, 100);
        assert_eq!(hm.windows, 1);
        let lane = &hm.lanes[0];
        assert_eq!((lane.name.as_str(), lane.lane), ("bus", 2));
        assert!(
            (lane.cells[0].1 - 0.8).abs() < 1e-9,
            "busy {}",
            lane.cells[0].1
        );
        assert!(
            (lane.cells[0].2 - 1.2).abs() < 1e-9,
            "depth {}",
            lane.cells[0].2
        );
    }

    #[test]
    fn intervals_split_across_window_edges() {
        // [50, 150) over 100 ns windows: half in each.
        let rep = report_with(&[(0, "x", 0, 50, 150)], 200);
        let hm = HeatmapReport::from_critical(&rep, 100);
        assert_eq!(hm.windows, 2);
        let c = &hm.lanes[0].cells;
        assert!((c[0].1 - 0.5).abs() < 1e-9);
        assert!((c[1].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn in_flight_intervals_clamp_to_the_horizon() {
        let rep = report_with(&[(0, "x", 0, 0, 1_000)], 100);
        let hm = HeatmapReport::from_critical(&rep, 100);
        assert_eq!(hm.windows, 1);
        assert!((hm.lanes[0].cells[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn long_runs_coarsen_the_window_deterministically() {
        let horizon = 10_000_000u64;
        let rep = report_with(&[(0, "x", 0, 0, horizon)], horizon);
        let hm = HeatmapReport::from_critical(&rep, 1_000);
        assert!(hm.windows <= MAX_WINDOWS, "{} windows", hm.windows);
        assert_eq!(hm.window_ns % 1_000, 0, "integer multiple of the request");
        let again = HeatmapReport::from_critical(&rep, 1_000);
        assert_eq!(hm, again);
    }

    #[test]
    fn csv_and_summary_are_deterministic() {
        let rep = report_with(
            &[
                (0, "bus", 0, 0, 60),
                (1, "chip", 3, 10, 90),
                (2, "bus", 1, 40, 100),
            ],
            100,
        );
        let hm = HeatmapReport::from_critical(&rep, 50);
        let csv = hm.csv();
        assert!(csv.starts_with("comp,lane,window_start_ns,busy,depth\n"));
        assert_eq!(csv, HeatmapReport::from_critical(&rep, 50).csv());
        assert!(csv.contains("bus,0,0,"));
        let j = hm.summary_json();
        assert_eq!(j, hm.summary_json());
        assert_eq!(j.get("window_ns"), Some(&Json::u(50)));
        let rows = j.get("lanes").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 3, "one row per (comp, lane)");
        assert!(rows[0].get("max_busy").and_then(Json::as_f64).unwrap() <= 1.0);
    }

    #[test]
    fn component_series_aggregates_lanes() {
        let rep = report_with(&[(0, "bus", 0, 0, 100), (1, "bus", 1, 0, 50)], 100);
        let hm = HeatmapReport::from_critical(&rep, 100);
        let series = hm.component_series();
        assert_eq!(series.len(), 1);
        let (name, cells) = &series[0];
        assert_eq!(name, "bus");
        assert!((cells[0].1 - 0.75).abs() < 1e-9, "mean busy over 2 lanes");
        assert!((cells[0].2 - 1.5).abs() < 1e-9, "summed depth");
    }
}
