//! The one recording handle of an engine run.
//!
//! A [`Probe`] owns the run's span [`Tracer`], [`JourneyRecorder`] and
//! [`CriticalRecorder`], plus the causal anchor that new dependency nodes
//! link to. Each engine event site makes one interval call —
//! [`work`](Probe::work), [`node`](Probe::node), [`phase`](Probe::phase),
//! [`chain`](Probe::chain) or [`span`](Probe::span) — and the probe
//! records that interval into every sink it concerns.
//!
//! A site learns which walks it serves before it learns when its work
//! ends, so sampled walks ([`walk`](Probe::walk)), zero-width markers
//! ([`mark`](Probe::mark)) and extra intervals such as fault segments
//! ([`segment`](Probe::segment)) wait in the probe until the next
//! interval call stamps them. [`JourneyRecorder::finish`] sorts every
//! walk's events, so stamping order never reaches a report. A recorder
//! that is off costs one branch per call, as it does on its own.

use crate::critical::{CriticalConfig, CriticalRecorder, CriticalReport};
use crate::journey::{JourneyConfig, JourneyEventKind, JourneyRecorder, JourneyReport};
use crate::report::TraceReport;
use crate::span::{TraceConfig, Tracer};
use crate::time::SimTime;

/// The run's recorders and the causal anchor. See the module docs.
#[derive(Debug, Default)]
pub struct Probe {
    tracer: Tracer,
    journeys: JourneyRecorder,
    critical: CriticalRecorder,
    /// The node that causes the next recorded node: the event being
    /// dispatched, or the previous [`chain`](Probe::chain)ed phase.
    cause: Option<u64>,
    /// Id of the next chained phase node.
    next_id: u64,
    /// Sampled walks served by the next interval: `(id, kind, lane)`.
    pending: Vec<(u32, JourneyEventKind, u32)>,
    /// Zero-width markers for the next interval's end: `(id, kind, lane)`.
    marks: Vec<(u32, JourneyEventKind, u32)>,
    /// Intervals every pending walk also gets: `(kind, lane, start, end)`.
    segments: Vec<(JourneyEventKind, u32, SimTime, SimTime)>,
}

impl Probe {
    /// Record spans under `cfg`.
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        self.tracer = Tracer::enabled(cfg);
    }

    /// Record the journeys of the walks `cfg` samples.
    pub fn enable_journeys(&mut self, cfg: JourneyConfig) {
        self.journeys = JourneyRecorder::enabled(cfg);
    }

    /// Record the dependency log under `cfg`.
    pub fn enable_critical(&mut self, cfg: CriticalConfig) {
        self.critical = CriticalRecorder::enabled(cfg);
    }

    /// Set the node that causes every node recorded until the next call:
    /// the sequence number of the event being dispatched.
    #[inline]
    pub fn caused_by(&mut self, cause: Option<u64>) {
        self.cause = cause;
    }

    /// Buffer walk `id`, if sampled, for the next interval: it gets that
    /// interval as a `kind` event on `lane`.
    #[inline]
    pub fn walk(&mut self, id: u32, kind: JourneyEventKind, lane: u32) {
        if self.journeys.wants(id) {
            self.pending.push((id, kind, lane));
        }
    }

    /// [`walk`](Probe::walk) for every id of `ids`.
    #[inline]
    pub fn walks(&mut self, ids: impl IntoIterator<Item = u32>, kind: JourneyEventKind, lane: u32) {
        if self.journeys.is_enabled() {
            for id in ids {
                self.walk(id, kind, lane);
            }
        }
    }

    /// Buffer a zero-width `kind` marker on `lane` for walk `id`, if
    /// sampled, at the next interval's end.
    #[inline]
    pub fn mark(&mut self, id: u32, kind: JourneyEventKind, lane: u32) {
        if self.journeys.wants(id) {
            self.marks.push((id, kind, lane));
        }
    }

    /// Buffer an interval that every walk served by the next interval
    /// also gets (a NAND read inside a load, an ECC retry, a stall).
    #[inline]
    pub fn segment(&mut self, kind: JourneyEventKind, lane: u32, start: SimTime, end: SimTime) {
        if self.journeys.is_enabled() {
            self.segments.push((kind, lane, start, end));
        }
    }

    /// Record a zero-width `kind` event on `lane` at `at` for walk `id`,
    /// if sampled, at once.
    #[inline]
    pub fn event(&mut self, id: u32, kind: JourneyEventKind, lane: u32, at: SimTime) {
        self.journeys.event(id, kind, lane, at, at);
    }

    /// Scheduled work on `(comp, lane)` over `[start, end]`: a span, the
    /// dependency node `id` caused by the anchor, and the buffered
    /// journeys.
    #[inline]
    pub fn work(&mut self, id: u64, comp: &str, lane: u32, start: SimTime, end: SimTime) {
        self.tracer.span(comp, lane, start, end);
        self.node(id, comp, lane, start, end);
    }

    /// [`work`](Probe::work) without the span, for work another tracer
    /// already spans (a channel transfer in the SSD's own tracer).
    #[inline]
    pub fn node(&mut self, id: u64, comp: &str, lane: u32, start: SimTime, end: SimTime) {
        self.critical.node(id, comp, lane, start, end, self.cause);
        self.stamp(start, end);
    }

    /// A serial phase on `(comp, lane)` over `[start, end]` moving
    /// `bytes`: a span, a [`chain`](Probe::chain)ed node and the buffered
    /// journeys.
    #[inline]
    pub fn phase(&mut self, comp: &str, lane: u32, start: SimTime, end: SimTime, bytes: u64) {
        self.chain(comp, lane, start, end);
        self.span(comp, lane, start, end, bytes);
    }

    /// A serial phase recorded only as a dependency node. Nodes are
    /// numbered in recording order, each caused by the one before.
    /// Zero-length phases are skipped: the next phase starts where the
    /// last recorded one ended, so the chain stays unbroken.
    #[inline]
    pub fn chain(&mut self, comp: &str, lane: u32, start: SimTime, end: SimTime) {
        if end <= start || !self.critical.is_enabled() {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.critical.node(id, comp, lane, start, end, self.cause);
        self.cause = Some(id);
    }

    /// A span moving `bytes` and the buffered journeys, with no node.
    #[inline]
    pub fn span(&mut self, comp: &str, lane: u32, start: SimTime, end: SimTime, bytes: u64) {
        self.tracer.span_bytes(comp, lane, start, end, bytes);
        self.stamp(start, end);
    }

    /// Sample gauge `name` at `at`; `value` is only computed when spans
    /// are recorded.
    #[inline]
    pub fn gauge(&mut self, name: &str, at: SimTime, value: impl FnOnce() -> u64) {
        if self.tracer.is_enabled() {
            self.tracer.gauge(name, at, value());
        }
    }

    /// Record `value` into the span tracer's histogram `name`.
    #[inline]
    pub fn record(&mut self, name: &str, value: u64) {
        self.tracer.record(name, value);
    }

    /// Stamp the buffered walks, markers and segments with `[start, end]`.
    #[inline]
    fn stamp(&mut self, start: SimTime, end: SimTime) {
        if !self.journeys.is_enabled() {
            return;
        }
        for &(id, kind, lane) in &self.pending {
            self.journeys.record(id, kind, lane, start, end);
            for &(kind, lane, s, e) in &self.segments {
                self.journeys.record(id, kind, lane, s, e);
            }
        }
        for &(id, kind, lane) in &self.marks {
            self.journeys.record(id, kind, lane, end, end);
        }
        self.pending.clear();
        self.marks.clear();
        self.segments.clear();
    }

    /// Fold the device tracers into the run's own and derive the three
    /// reports at simulation horizon `horizon`; a recorder that was never
    /// enabled yields `None`.
    pub fn finish(
        mut self,
        horizon: SimTime,
        devices: &[Tracer],
    ) -> (
        Option<TraceReport>,
        Option<JourneyReport>,
        Option<CriticalReport>,
    ) {
        debug_assert!(
            self.pending.is_empty() && self.marks.is_empty() && self.segments.is_empty(),
            "journey events buffered but never stamped"
        );
        for d in devices {
            self.tracer.merge(d);
        }
        (
            self.tracer.finish(horizon),
            self.journeys.finish(),
            self.critical.finish(horizon),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use JourneyEventKind::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    fn all_on() -> Probe {
        let mut p = Probe::default();
        p.enable_trace(TraceConfig::default());
        p.enable_journeys(JourneyConfig {
            seed: 0,
            sample_period: 1,
            max_walks: 64,
        });
        p.enable_critical(CriticalConfig::default());
        p
    }

    #[test]
    fn a_probe_never_enabled_finishes_to_nothing() {
        let mut p = Probe::default();
        p.walk(1, SampleStep, 0);
        p.segment(EccRetry, 0, t(0), t(5));
        p.work(0, "x", 0, t(0), t(10));
        p.phase("y", 0, t(10), t(20), 8);
        let (trace, journeys, critical) = p.finish(t(20), &[]);
        assert!(trace.is_none() && journeys.is_none() && critical.is_none());
    }

    #[test]
    fn one_work_call_records_span_node_and_buffered_journeys() {
        let mut p = all_on();
        p.caused_by(Some(7));
        p.walk(1, SampleStep, 3);
        p.walk(2, SampleStep, 3);
        p.mark(2, Complete, 3);
        p.segment(EccRetry, 9, t(12), t(14));
        p.work(8, "chip.batch", 3, t(10), t(20));
        // Nothing is left buffered: a later interval stamps nobody.
        p.node(9, "chan.bus", 1, t(20), t(30));
        let (trace, journeys, critical) = p.finish(t(30), &[]);
        let trace = trace.unwrap();
        assert_eq!(trace.busy_ns_for("chip.batch"), 10);
        assert_eq!(trace.busy_ns_for("chan.bus"), 0, "node only");
        let critical = critical.unwrap();
        assert_eq!(critical.logged_nodes, 2);
        assert_eq!(critical.log[0].cause(), Some(7));
        let journeys = journeys.unwrap();
        let events = |id: u32| {
            let w = journeys.walks.iter().find(|w| w.id == id).unwrap();
            w.events
                .iter()
                .map(|e| (e.kind, e.lane, e.start.0, e.end.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(events(1), [(SampleStep, 3, 10, 20), (EccRetry, 9, 12, 14)]);
        assert_eq!(
            events(2),
            [
                (SampleStep, 3, 10, 20),
                (EccRetry, 9, 12, 14),
                (Complete, 3, 20, 20)
            ]
        );
    }

    #[test]
    fn chained_phases_number_serially_and_skip_zero_length() {
        let mut p = all_on();
        p.chain("sched", 0, t(0), t(2));
        p.phase("load", 0, t(2), t(2), 0); // zero-length: no node
        p.phase("load", 1, t(2), t(9), 64);
        p.chain("spill", 0, t(9), t(12));
        let (trace, _, critical) = p.finish(t(12), &[]);
        assert_eq!(trace.unwrap().bytes_for("load"), 64);
        let c = critical.unwrap();
        let chain: Vec<(u64, Option<u64>)> = c.log.iter().map(|n| (n.id, n.cause())).collect();
        assert_eq!(chain, [(0, None), (1, Some(0)), (2, Some(1))]);
        assert_eq!(c.path_total_ns(), 12);
    }

    #[test]
    fn finish_folds_device_tracers_into_the_trace() {
        let mut p = all_on();
        p.span("iter.load", 0, t(0), t(4), 0);
        let mut dev = Tracer::enabled(TraceConfig::default());
        dev.span("channel.bus", 2, t(1), t(3));
        let (trace, _, _) = p.finish(t(4), &[dev]);
        let trace = trace.unwrap();
        assert_eq!(trace.busy_ns_for("iter.load"), 4);
        assert_eq!(trace.busy_ns_for("channel.bus"), 2);
    }
}
