//! Causal critical-path profiling.
//!
//! The span [`crate::Tracer`] answers "how busy was each component"; this
//! module answers the harder question "which component *bounded the
//! makespan*". During a traced run each engine records the happens-before
//! edges it already knows — an event dispatched at time `t` causes every
//! event it schedules; a serial engine phase causes the next phase — into
//! a bounded, deterministic dependency log. [`CriticalRecorder::finish`]
//! then walks the cause chain backwards from the terminal node and
//! telescopes it into the **critical path** of the run.
//!
//! ## Node model and the exact-sum invariant
//!
//! A node is `{id, component, lane, start, end, cause}` where `start` is
//! the sim time the work was issued (the dispatch time of its cause) and
//! `end` the sim time it completed. Per path segment:
//!
//! * `wait_ns   = start − cause.end` (queueing/slack before issue; for the
//!   root, `start − 0`),
//! * `service_ns = end − start`.
//!
//! so `wait + service = end − cause.end` and the whole path telescopes:
//! **the segments sum exactly to the terminal node's end time**, which is
//! the run's end-to-end sim time whenever the log was not truncated. This
//! is asserted by gated tests in both event-driven engines.
//!
//! ## Determinism
//!
//! Node ids are the engine's unique event sequence numbers (or a serial
//! phase counter), and the canonical finish (sort by id, lexicographic
//! name table) makes the report independent of the order nodes were
//! recorded in and of the order component names were first seen.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::time::SimTime;

/// Sentinel for "no cause" (a root node) in the packed node layout.
const NO_CAUSE: u64 = u64::MAX;

/// Configuration for [`CriticalRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalConfig {
    /// Dependency-log bound: nodes recorded past this are counted in
    /// [`CriticalReport::dropped_nodes`] and the extracted path is marked
    /// [`CriticalReport::truncated`] if the walk needs one of them.
    pub max_nodes: usize,
    /// Heatmap window width (ns) for the derived
    /// [`crate::heatmap::HeatmapReport`].
    pub window_ns: u64,
}

impl Default for CriticalConfig {
    fn default() -> Self {
        CriticalConfig {
            max_nodes: 2_000_000,
            window_ns: 1_000_000,
        }
    }
}

/// One dependency-log node: a unit of simulated work with a causal link
/// to the work whose completion issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritNode {
    /// Globally-unique, monotone id (event sequence number).
    pub id: u64,
    /// Component name, an index into [`CriticalReport::names`].
    pub name: u32,
    /// Lane within the component (chip id, channel id, block id, …).
    pub lane: u32,
    /// Sim time the work was issued.
    pub start_ns: u64,
    /// Sim time the work completed.
    pub end_ns: u64,
    cause: u64,
}

impl CritNode {
    /// The id of the node whose dispatch issued this work, if any.
    pub fn cause(&self) -> Option<u64> {
        (self.cause != NO_CAUSE).then_some(self.cause)
    }
}

/// One critical-path segment, in chronological (root → terminal) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritSegment {
    /// Component name, an index into [`CriticalReport::names`].
    pub name: u32,
    /// Lane within the component.
    pub lane: u32,
    /// Issue time of the segment's node.
    pub start_ns: u64,
    /// Completion time of the segment's node.
    pub end_ns: u64,
    /// Queueing/slack time charged to this segment (`start − cause.end`).
    pub wait_ns: u64,
    /// Service time of this segment (`end − start`).
    pub service_ns: u64,
}

/// Aggregated critical time for one `(component, lane)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CritShare {
    /// Component name.
    pub name: String,
    /// Lane within the component.
    pub lane: u32,
    /// Path segments attributed to this pair.
    pub count: u64,
    /// Critical service time (ns).
    pub service_ns: u64,
    /// Critical wait time (ns).
    pub wait_ns: u64,
    /// `(service + wait) / total`: this pair's share of end-to-end time.
    pub share: f64,
}

impl CritShare {
    /// `component.lane`, the attribution key used by `fwbench why`.
    pub fn key(&self) -> String {
        format!("{}.{}", self.name, self.lane)
    }

    /// Total critical nanoseconds attributed to this pair.
    pub fn critical_ns(&self) -> u64 {
        self.service_ns + self.wait_ns
    }
}

#[derive(Debug, Clone)]
struct Inner {
    cfg: CriticalConfig,
    names: Vec<String>,
    nodes: Vec<CritNode>,
    dropped: u64,
}

fn intern(names: &mut Vec<String>, comp: &str) -> u32 {
    match names.iter().position(|n| n == comp) {
        Some(i) => i as u32,
        None => {
            names.push(comp.to_string());
            (names.len() - 1) as u32
        }
    }
}

/// Bounded, deterministic happens-before recorder. Zero-cost when
/// disabled (one branch per call); an engine run holds one, inside its
/// [`crate::Probe`], so `max_nodes` bounds the whole run's log.
#[derive(Debug, Clone, Default)]
pub struct CriticalRecorder {
    inner: Option<Box<Inner>>,
}

impl CriticalRecorder {
    /// A no-op recorder: every call is a single-branch return.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An active recorder bounded by `cfg.max_nodes`.
    pub fn enabled(cfg: CriticalConfig) -> Self {
        CriticalRecorder {
            inner: Some(Box::new(Inner {
                cfg,
                names: Vec::new(),
                nodes: Vec::new(),
                dropped: 0,
            })),
        }
    }

    /// Whether this recorder keeps nodes.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one dependency node. `id` must be unique within the
    /// recorder.
    pub fn node(
        &mut self,
        id: u64,
        comp: &str,
        lane: u32,
        start: SimTime,
        end: SimTime,
        cause: Option<u64>,
    ) {
        let Some(inner) = &mut self.inner else { return };
        if inner.nodes.len() >= inner.cfg.max_nodes {
            inner.dropped += 1;
            return;
        }
        let name = intern(&mut inner.names, comp);
        inner.nodes.push(CritNode {
            id,
            name,
            lane,
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos(),
            cause: cause.unwrap_or(NO_CAUSE),
        });
    }

    /// Derive the [`CriticalReport`]: canonicalize the log, pick the
    /// terminal node (max `(end, id)` among nodes with `end ≤ horizon`),
    /// walk the cause chain and aggregate per-(component, lane) shares.
    /// Returns `None` when disabled.
    pub fn finish(self, horizon: SimTime) -> Option<CriticalReport> {
        let inner = *self.inner?;
        let Inner {
            cfg,
            names,
            nodes: mut log,
            dropped,
        } = inner;

        // Canonical name table: lexicographic, indices remapped.
        let mut canon = names.clone();
        canon.sort();
        canon.dedup();
        let remap: Vec<u32> = names
            .iter()
            .map(|n| canon.binary_search(n).expect("interned name") as u32)
            .collect();
        for n in &mut log {
            n.name = remap[n.name as usize];
        }
        log.sort_unstable_by_key(|n| n.id);
        debug_assert!(
            log.windows(2).all(|w| w[0].id < w[1].id),
            "dependency-log node ids must be globally unique"
        );

        let horizon_ns = horizon.as_nanos();
        let terminal = log
            .iter()
            .filter(|n| n.end_ns <= horizon_ns)
            .max_by_key(|n| (n.end_ns, n.id))
            .map(|n| n.id);

        let mut path: Vec<CritSegment> = Vec::new();
        let mut truncated = false;
        let mut total_ns = 0;
        if let Some(tid) = terminal {
            let mut cur = tid;
            loop {
                let idx = log
                    .binary_search_by_key(&cur, |n| n.id)
                    .expect("cause walk stays inside the sorted log");
                let n = log[idx];
                if path.is_empty() {
                    total_ns = n.end_ns;
                }
                let service_ns = n.end_ns.saturating_sub(n.start_ns);
                let seg = |wait_ns| CritSegment {
                    name: n.name,
                    lane: n.lane,
                    start_ns: n.start_ns,
                    end_ns: n.end_ns,
                    wait_ns,
                    service_ns,
                };
                match n.cause() {
                    // Root: the wait leg runs from sim time zero.
                    None => {
                        path.push(seg(n.start_ns));
                        break;
                    }
                    Some(c) => match log.binary_search_by_key(&c, |x| x.id) {
                        Ok(ci) => {
                            path.push(seg(n.start_ns.saturating_sub(log[ci].end_ns)));
                            cur = c;
                        }
                        // The cause was dropped by the log bound: charge
                        // only this node's own time and stop the walk.
                        Err(_) => {
                            truncated = true;
                            path.push(seg(0));
                            break;
                        }
                    },
                }
            }
            path.reverse();
        }

        let mut agg: BTreeMap<(u32, u32), (u64, u64, u64)> = BTreeMap::new();
        for s in &path {
            let e = agg.entry((s.name, s.lane)).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.service_ns;
            e.2 += s.wait_ns;
        }
        let mut shares: Vec<CritShare> = agg
            .into_iter()
            .map(|((name, lane), (count, service_ns, wait_ns))| CritShare {
                name: canon[name as usize].clone(),
                lane,
                count,
                service_ns,
                wait_ns,
                share: if total_ns == 0 {
                    0.0
                } else {
                    (service_ns + wait_ns) as f64 / total_ns as f64
                },
            })
            .collect();
        shares.sort_by(|a, b| {
            b.critical_ns()
                .cmp(&a.critical_ns())
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.lane.cmp(&b.lane))
        });

        Some(CriticalReport {
            horizon_ns,
            total_ns,
            logged_nodes: log.len() as u64,
            dropped_nodes: dropped,
            truncated,
            window_ns: cfg.window_ns,
            names: canon,
            log,
            path,
            shares,
        })
    }
}

/// Derived critical-path view of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalReport {
    /// End-to-end sim time handed to [`CriticalRecorder::finish`].
    pub horizon_ns: u64,
    /// Terminal-node end time: equals `horizon_ns` whenever the last
    /// dispatched event was logged (always, unless the log overflowed).
    pub total_ns: u64,
    /// Nodes retained in the dependency log.
    pub logged_nodes: u64,
    /// Nodes dropped by the [`CriticalConfig::max_nodes`] bound.
    pub dropped_nodes: u64,
    /// The cause walk hit a dropped node; the path under-covers the run.
    pub truncated: bool,
    /// Heatmap window width carried from the config.
    pub window_ns: u64,
    /// Canonical (sorted) component name table.
    pub names: Vec<String>,
    /// The full dependency log, sorted by node id.
    pub log: Vec<CritNode>,
    /// The critical path, root → terminal.
    pub path: Vec<CritSegment>,
    /// Per-(component, lane) critical-time shares, largest first.
    pub shares: Vec<CritShare>,
}

impl CriticalReport {
    /// Sum of all path segments (`wait + service`). Equals
    /// [`Self::total_ns`] exactly unless [`Self::truncated`].
    pub fn path_total_ns(&self) -> u64 {
        self.path.iter().map(|s| s.wait_ns + s.service_ns).sum()
    }

    /// The report as a [`crate::json`] tree (fixed key order, fixed
    /// float precision). The node log and per-segment path are *not*
    /// embedded — only the bounded shares and the heatmap summary — so
    /// BENCH records stay small.
    pub fn to_json(&self) -> Json {
        let shares = self
            .shares
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::s(&s.name)),
                    ("lane", Json::u(s.lane.into())),
                    ("count", Json::u(s.count)),
                    ("service_ns", Json::u(s.service_ns)),
                    ("wait_ns", Json::u(s.wait_ns)),
                    ("share", Json::f(s.share, 4)),
                ])
            })
            .collect();
        let hm = crate::heatmap::HeatmapReport::from_critical(self, self.window_ns);
        Json::obj(vec![
            ("horizon_ns", Json::u(self.horizon_ns)),
            ("total_ns", Json::u(self.total_ns)),
            ("logged_nodes", Json::u(self.logged_nodes)),
            ("dropped_nodes", Json::u(self.dropped_nodes)),
            ("truncated", Json::Bool(self.truncated)),
            ("path_segments", Json::u(self.path.len() as u64)),
            ("shares", Json::Arr(shares)),
            ("heatmap", hm.summary_json()),
        ])
    }

    /// Human-readable per-(component, lane) critical-time table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {} segments over {} ns ({} nodes logged, {} dropped{})",
            self.path.len(),
            self.total_ns,
            self.logged_nodes,
            self.dropped_nodes,
            if self.truncated { ", TRUNCATED" } else { "" }
        );
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8} {:>14} {:>12} {:>7}",
            "component", "lane", "count", "service_ns", "wait_ns", "share"
        );
        for s in &self.shares {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>8} {:>14} {:>12} {:>6.1}%",
                s.name,
                s.lane,
                s.count,
                s.service_ns,
                s.wait_ns,
                s.share * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> CriticalRecorder {
        CriticalRecorder::enabled(CriticalConfig::default())
    }

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let mut r = CriticalRecorder::disabled();
        r.node(0, "x", 0, t(0), t(10), None);
        assert!(!r.is_enabled());
        assert!(r.finish(t(10)).is_none());
    }

    #[test]
    fn chain_telescopes_to_the_horizon() {
        let mut r = rec();
        r.node(0, "load", 1, t(0), t(10), None);
        r.node(1, "batch", 1, t(10), t(25), Some(0));
        // Issued at the cause's end but only started useful work at 25;
        // wait = 30 − 25 = 5 is modelled by the start gap.
        r.node(2, "bus", 2, t(30), t(40), Some(1));
        let rep = r.finish(t(40)).unwrap();
        assert_eq!(rep.total_ns, 40);
        assert_eq!(rep.path.len(), 3);
        assert!(!rep.truncated);
        assert_eq!(rep.path_total_ns(), 40, "segments telescope exactly");
        assert_eq!(rep.path[2].wait_ns, 5);
        assert_eq!(rep.path[2].service_ns, 10);
        let total: u64 = rep.shares.iter().map(|s| s.critical_ns()).sum();
        assert_eq!(total, rep.total_ns);
    }

    #[test]
    fn terminal_is_the_latest_node_within_the_horizon() {
        let mut r = rec();
        r.node(0, "load", 0, t(0), t(10), None);
        r.node(1, "a", 0, t(10), t(35), Some(0)); // side branch
        r.node(2, "b", 0, t(10), t(40), Some(0)); // terminal
        r.node(3, "pending", 0, t(40), t(90), Some(2)); // beyond horizon
        let rep = r.finish(t(40)).unwrap();
        assert_eq!(rep.total_ns, 40);
        assert_eq!(rep.path.len(), 2);
        assert_eq!(rep.names[rep.path[1].name as usize], "b");
        assert_eq!(rep.path_total_ns(), 40);
    }

    #[test]
    fn end_tie_breaks_on_the_higher_id() {
        let mut r = rec();
        r.node(0, "root", 0, t(0), t(10), None);
        r.node(1, "a", 0, t(10), t(40), Some(0));
        r.node(2, "b", 7, t(10), t(40), Some(0));
        let rep = r.finish(t(40)).unwrap();
        assert_eq!(rep.names[rep.path[1].name as usize], "b");
        assert_eq!(rep.path[1].lane, 7);
    }

    #[test]
    fn recording_order_is_canonicalized() {
        let finish = |ids: &[u64]| {
            let mut r = rec();
            for &i in ids {
                let comp = if i % 2 == 0 { "even" } else { "odd" };
                let cause = i.checked_sub(1);
                r.node(i, comp, i as u32, t(i * 10), t(i * 10 + 10), cause);
            }
            r.finish(t(60)).unwrap()
        };
        // The second order also interns "odd" before "even".
        let r1 = finish(&[0, 2, 4, 1, 3, 5]);
        let r2 = finish(&[5, 3, 1, 4, 2, 0]);
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(r1.names, r2.names);
        assert_eq!(r1.log, r2.log);
        assert_eq!(r1.path, r2.path);
        assert_eq!(r1.path_total_ns(), 60);
        assert!(!r1.truncated);
    }

    #[test]
    fn overflow_drops_and_marks_truncation() {
        let mut r = CriticalRecorder::enabled(CriticalConfig {
            max_nodes: 2,
            window_ns: 1_000_000,
        });
        r.node(0, "root", 0, t(0), t(10), None);
        r.node(1, "mid", 0, t(10), t(20), Some(0));
        r.node(2, "dropped", 0, t(20), t(30), Some(1)); // over the bound
        r.node(3, "tail", 0, t(30), t(40), Some(2));
        // Node 3 was also dropped (bound is 2): terminal is node 1.
        let rep = r.finish(t(40)).unwrap();
        assert_eq!(rep.dropped_nodes, 2);
        assert_eq!(rep.total_ns, 20);
        assert!(!rep.truncated, "walk stayed inside the retained log");

        // A retained node whose cause was dropped truncates the walk.
        let mut r = CriticalRecorder::enabled(CriticalConfig {
            max_nodes: 8,
            window_ns: 1_000_000,
        });
        r.node(5, "tail", 0, t(30), t(40), Some(4)); // cause never logged
        let rep = r.finish(t(40)).unwrap();
        assert!(rep.truncated);
        assert_eq!(rep.path_total_ns(), 10, "only the service leg");
    }

    #[test]
    fn shares_rank_by_critical_time() {
        let mut r = rec();
        r.node(0, "fast", 0, t(0), t(10), None);
        r.node(1, "slow", 3, t(10), t(90), Some(0));
        r.node(2, "fast", 0, t(90), t(100), Some(1));
        let rep = r.finish(t(100)).unwrap();
        assert_eq!(rep.shares[0].name, "slow");
        assert_eq!(rep.shares[0].lane, 3);
        assert_eq!(rep.shares[0].key(), "slow.3");
        assert!((rep.shares[0].share - 0.8).abs() < 1e-9);
        assert_eq!(rep.shares[1].count, 2);
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let mut r = rec();
        r.node(0, "a", 0, t(0), t(10), None);
        r.node(1, "b", 1, t(10), t(30), Some(0));
        let rep = r.finish(t(30)).unwrap();
        let j = rep.to_json();
        assert_eq!(j.render(), rep.to_json().render());
        assert_eq!(j.get("total_ns"), Some(&Json::u(30)));
        assert_eq!(
            j.get("shares").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert!(j.get("heatmap").and_then(|h| h.get("lanes")).is_some());
        let table = rep.render_table();
        assert!(table.contains("critical path: 2 segments"));
    }

    #[test]
    fn empty_log_yields_an_empty_path() {
        let rep = rec().finish(t(0)).unwrap();
        assert_eq!(rep.total_ns, 0);
        assert!(rep.path.is_empty());
        assert!(rep.shares.is_empty());
        assert_eq!(rep.path_total_ns(), 0);
    }
}
