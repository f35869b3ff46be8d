//! A deterministic time-ordered event queue.
//!
//! Each engine (the FlashWalker hierarchy, the GraphWalker baseline, the
//! NAND back-end) defines its own event payload type `E` and drives a
//! `EventQueue<E>` in a classic discrete-event loop:
//!
//! ```
//! use fw_sim::{EventQueue, SimTime, Duration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime(5), Ev::Tick(1));
//! q.schedule_at(SimTime(2), Ev::Tick(0));
//! let mut seen = vec![];
//! while let Some((t, ev)) = q.pop() {
//!     seen.push((t.as_nanos(), ev));
//! }
//! assert_eq!(seen, vec![(2, Ev::Tick(0)), (5, Ev::Tick(1))]);
//! ```
//!
//! Ties are broken by insertion order (a monotonically increasing sequence
//! number), so simulations are bit-reproducible regardless of the payload
//! type — a property a heap alone would not give us.
//!
//! # Implementation: a two-level calendar queue
//!
//! [`EventQueue`] is a calendar (timing-wheel) queue rather than a single
//! binary heap. Simulated events cluster tightly around `now` — device
//! latencies are microseconds, not seconds — so keying on coarse time
//! buckets removes almost all heap comparisons from the hot path:
//!
//! * **current** — a small binary heap holding only the events of the
//!   bucket being drained. `pop` is a pop from this heap.
//! * **wheel** — [`NUM_BUCKETS`] unsorted `Vec` buckets, each covering
//!   [`BUCKET_WIDTH_NS`] of future time. `schedule_*` into the wheel is an
//!   O(1) push. When `current` drains, the next nonempty bucket is
//!   heapified into it in O(bucket) — cheap because buckets are small.
//! * **overflow** — a binary heap for events beyond the wheel horizon
//!   (`NUM_BUCKETS × BUCKET_WIDTH_NS` past the current bucket). Entries
//!   migrate into the wheel as the horizon advances, so far-future bursts
//!   cost O(log n) twice instead of polluting every near-term operation.
//!
//! Ordering is preserved exactly: every entry carries its (time, seq) key,
//! buckets partition time coarsely, and the per-bucket heap restores the
//! fine order, so the pop stream is identical to the reference
//! [`HeapEventQueue`] (a property the test suite asserts over randomized
//! schedules). Bucket `Vec`s and the `current` buffer are recycled across
//! promotions, so a warmed-up queue schedules and delivers without
//! allocating.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Duration, SimTime};

/// Buckets in the calendar wheel (one window of near-future time).
const NUM_BUCKETS: usize = 256;

/// Width of one wheel bucket in simulated nanoseconds. With 256 buckets
/// the wheel covers ~1 ms of simulated future, comfortably past the
/// longest single device latency the NAND/DRAM models schedule.
const BUCKET_WIDTH_NS: u64 = 4096;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Time-ordered, insertion-stable event queue (two-level calendar queue,
/// see the module docs for the layout).
///
/// `pop` also advances [`EventQueue::now`], so the queue doubles as the
/// simulation clock.
pub struct EventQueue<E> {
    /// Events of the bucket currently being drained (absolute bucket
    /// number `cur_bucket`), plus any same-bucket late arrivals.
    current: BinaryHeap<Reverse<Entry<E>>>,
    /// Unsorted buckets for events within the wheel horizon. Slot
    /// `b % NUM_BUCKETS` holds only entries of one absolute bucket `b` at
    /// a time because the live range spans fewer than `NUM_BUCKETS`
    /// buckets.
    wheel: Vec<Vec<Reverse<Entry<E>>>>,
    /// Total entries across all wheel buckets.
    wheel_len: usize,
    /// Events at or beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Absolute bucket number (`time / BUCKET_WIDTH_NS`) of `current`.
    cur_bucket: u64,
    seq: u64,
    now: SimTime,
    popped: u64,
    /// Sequence number of the most recently popped event.
    last_seq: Option<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            wheel: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            cur_bucket: 0,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            last_seq: None,
        }
    }

    /// Drop every pending event and rewind the clock, the sequence
    /// counter and the delivery count to [`Self::new`]'s, keeping the
    /// buckets' allocations: a reset queue numbers and delivers events
    /// exactly as a new one does.
    pub fn reset(&mut self) {
        self.current.clear();
        self.wheel.iter_mut().for_each(Vec::clear);
        self.wheel_len = 0;
        self.overflow.clear();
        self.cur_bucket = 0;
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.popped = 0;
        self.last_seq = None;
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or `t = 0` before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far (simulator progress metric).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending, across every tier of the queue
    /// (current bucket, wheel buckets, and the far-future overflow heap).
    /// `events_processed() + len()` always equals the total number of
    /// events ever scheduled — no tier can strand events.
    #[inline]
    pub fn len(&self) -> usize {
        self.current.len() + self.wheel_len + self.overflow.len()
    }

    /// True if no events are pending in any tier — the simulation has
    /// quiesced.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` at absolute time `at`. Returns the event's
    /// sequence number: unique, monotone, counted from 0 over every
    /// schedule, so it doubles as a deterministic node id for dependency
    /// logs.
    ///
    /// # Panics
    /// In debug builds, panics if `at` is in the past: delivering an event
    /// before `now` would make the simulation non-causal.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let entry = Reverse(Entry {
            time: at,
            seq,
            event,
        });
        let b = at.0 / BUCKET_WIDTH_NS;
        if b <= self.cur_bucket {
            self.current.push(entry);
        } else if b - self.cur_bucket < NUM_BUCKETS as u64 {
            self.wheel[(b % NUM_BUCKETS as u64) as usize].push(entry);
            self.wheel_len += 1;
        } else {
            self.overflow.push(entry);
        }
        seq
    }

    /// Schedule `event` `delay` after the current time. Returns its
    /// sequence number (see [`Self::schedule_at`]).
    #[inline]
    pub fn schedule_in(&mut self, delay: Duration, event: E) -> u64 {
        self.schedule_at(self.now + delay, event)
    }

    /// Sequence number of the most recently delivered event (`None`
    /// before the first pop). Handlers use it as the *cause* of every
    /// event they schedule while dispatching.
    #[inline]
    pub fn last_popped_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(Reverse(e)) = self.current.peek() {
            return Some(e.time);
        }
        // `current` is empty: the next event is in the earliest pending
        // bucket — either a wheel slot or the overflow heap (which can
        // hold earlier buckets than the wheel once the horizon advanced).
        let overflow_time = self.overflow.peek().map(|Reverse(e)| e.time);
        let wheel_time = if self.wheel_len > 0 {
            (1..NUM_BUCKETS as u64)
                .map(|k| self.cur_bucket + k)
                .find_map(|b| {
                    let slot = &self.wheel[(b % NUM_BUCKETS as u64) as usize];
                    slot.iter().map(|Reverse(e)| e.time).min()
                })
        } else {
            None
        };
        match (wheel_time, overflow_time) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (Some(w), None) => Some(w),
            (None, o) => o,
        }
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() {
            self.refill_current();
        }
        let Reverse(entry) = self.current.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.popped += 1;
        self.last_seq = Some(entry.seq);
        Some((entry.time, entry.event))
    }

    /// Timestamp and payload of the next pending event without delivering
    /// it. Needs `&mut self` because the head may have to be promoted out
    /// of the wheel/overflow tiers first; the delivery order is unchanged.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        if self.current.is_empty() {
            self.refill_current();
        }
        self.current.peek().map(|Reverse(e)| (e.time, &e.event))
    }

    /// Promote the earliest pending bucket into the (empty) `current`
    /// heap and migrate any overflow entries that the advanced horizon
    /// now covers.
    fn refill_current(&mut self) {
        debug_assert!(self.current.is_empty());
        // Earliest nonempty wheel bucket past the current one, if any.
        let wheel_bucket = if self.wheel_len > 0 {
            (1..NUM_BUCKETS as u64)
                .map(|k| self.cur_bucket + k)
                .find(|b| !self.wheel[(b % NUM_BUCKETS as u64) as usize].is_empty())
        } else {
            None
        };
        let overflow_bucket = self
            .overflow
            .peek()
            .map(|Reverse(e)| e.time.0 / BUCKET_WIDTH_NS);
        // The overflow heap can hold buckets *earlier* than the earliest
        // wheel bucket (its entries were beyond the horizon when
        // scheduled, and the horizon has advanced since), so the target
        // is the minimum over both tiers.
        let target = match (wheel_bucket, overflow_bucket) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        // Heapify the target wheel bucket into `current`, recycling both
        // the heap's buffer and the bucket's.
        let mut buf = std::mem::take(&mut self.current).into_vec();
        buf.clear();
        if wheel_bucket == Some(target) {
            let slot = &mut self.wheel[(target % NUM_BUCKETS as u64) as usize];
            self.wheel_len -= slot.len();
            buf.append(slot);
        }
        self.cur_bucket = target;
        self.current = BinaryHeap::from(buf);
        // Pull overflow entries under the new horizon into place. A
        // same-bucket split across wheel and overflow is possible (the
        // entries were scheduled under different horizons), so this also
        // merges overflow entries of the target bucket into `current`.
        let horizon_ns = (target + NUM_BUCKETS as u64).saturating_mul(BUCKET_WIDTH_NS);
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.time.0 >= horizon_ns {
                break;
            }
            let entry = self.overflow.pop().unwrap();
            let b = entry.0.time.0 / BUCKET_WIDTH_NS;
            if b <= target {
                self.current.push(entry);
            } else {
                self.wheel[(b % NUM_BUCKETS as u64) as usize].push(entry);
                self.wheel_len += 1;
            }
        }
    }
}

/// The reference single-`BinaryHeap` event queue.
///
/// Same API and exact same delivery order as [`EventQueue`]; kept as the
/// obviously-correct baseline for the equivalence tests and the
/// `benches/micro.rs` queue comparison. Not used by the engines.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    popped: u64,
    last_seq: Option<u64>,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            last_seq: None,
        }
    }

    /// Current simulated time (see [`EventQueue::now`]).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`; returns its sequence
    /// number (see [`EventQueue::schedule_at`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            event,
        }));
        seq
    }

    /// Schedule `event` `delay` after the current time; returns its
    /// sequence number.
    #[inline]
    pub fn schedule_in(&mut self, delay: Duration, event: E) -> u64 {
        self.schedule_at(self.now + delay, event)
    }

    /// Sequence number of the most recently delivered event (see
    /// [`EventQueue::last_popped_seq`]).
    #[inline]
    pub fn last_popped_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Timestamp and payload of the next pending event (see
    /// [`EventQueue::peek`]; `&mut` for API parity).
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|Reverse(e)| (e.time, &e.event))
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.popped += 1;
        self.last_seq = Some(entry.seq);
        Some((entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// `schedule_*` hands out 0, 1, 2, … and `last_popped_seq` reports
    /// the id of the event just delivered — the contract critical-path
    /// node ids rest on. Checked on both queue implementations.
    macro_rules! schedule_returns_monotone_seq_and_pop_exposes_it {
        ($q:expr) => {{
            let mut q = $q;
            assert_eq!(q.last_popped_seq(), None);
            let a = q.schedule_at(SimTime(10), "a");
            let b = q.schedule_at(SimTime(20), "b");
            let c = q.schedule_in(Duration::nanos(5), "c");
            assert_eq!((a, b, c), (0, 1, 2));
            q.pop().unwrap(); // "c" at t=5
            assert_eq!(q.last_popped_seq(), Some(c));
            q.pop().unwrap(); // "a" at t=10
            assert_eq!(q.last_popped_seq(), Some(a));
            q.pop().unwrap(); // "b" at t=20
            assert_eq!(q.last_popped_seq(), Some(b));
            // Drained: the anchor keeps the last delivered event's id.
            assert!(q.pop().is_none());
            assert_eq!(q.last_popped_seq(), Some(b));
        }};
    }

    #[test]
    fn schedule_returns_monotone_seq_and_pop_exposes_it() {
        schedule_returns_monotone_seq_and_pop_exposes_it!(EventQueue::new());
        schedule_returns_monotone_seq_and_pop_exposes_it!(HeapEventQueue::new());
    }

    /// A reset queue, left mid-run with events in every tier, schedules
    /// and delivers a second run exactly as a new queue does: the same
    /// events in the same order at the same times, numbered from 0.
    #[test]
    fn reset_queue_replays_like_a_new_one() {
        let horizon = BUCKET_WIDTH_NS * NUM_BUCKETS as u64;
        let run = |q: &mut EventQueue<u32>| {
            let mut rng = Xoshiro256pp::new(3);
            let mut out = Vec::new();
            for i in 0..200 {
                let at = q.now().0 + rng.next_below(3 * horizon);
                out.push((u64::from(i), q.schedule_at(SimTime(at), i)));
                if i % 3 == 0 {
                    let (t, e) = q.pop().unwrap();
                    out.push((t.0, u64::from(e)));
                    out.push((q.last_popped_seq().unwrap(), q.events_processed()));
                }
            }
            out
        };
        let want = run(&mut EventQueue::new());
        let mut q = EventQueue::new();
        run(&mut q);
        assert!(!q.is_empty() && q.now() > SimTime::ZERO);
        q.reset();
        assert!(q.is_empty() && q.last_popped_seq().is_none());
        assert_eq!((q.now(), q.events_processed()), (SimTime::ZERO, 0));
        assert_eq!(run(&mut q), want);
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(5));
        // schedule_in is relative to the advanced clock
        q.schedule_in(Duration(3), ());
        assert_eq!(q.peek_time(), Some(SimTime(8)));
    }

    #[test]
    fn counts_and_emptiness() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime(1), ());
        q.schedule_at(SimTime(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), 2);
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // One event per tier: current bucket, mid-wheel, far overflow.
        let mut q = EventQueue::new();
        let horizon = BUCKET_WIDTH_NS * NUM_BUCKETS as u64;
        q.schedule_at(SimTime(horizon * 10), "overflow");
        q.schedule_at(SimTime(BUCKET_WIDTH_NS * 3), "wheel");
        q.schedule_at(SimTime(1), "current");
        assert_eq!(q.peek_time(), Some(SimTime(1)));
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["current", "wheel", "overflow"]);
        assert_eq!(q.now(), SimTime(horizon * 10));
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn overflow_bucket_earlier_than_wheel_bucket_wins() {
        // Schedule an overflow entry, advance far enough that its bucket
        // falls inside the wheel range, then add a *later* wheel entry.
        // The promotion must take the overflow entry first.
        let mut q = EventQueue::new();
        let horizon = BUCKET_WIDTH_NS * NUM_BUCKETS as u64;
        q.schedule_at(SimTime(1), "start");
        q.schedule_at(SimTime(horizon + 5), "was_overflow");
        assert_eq!(q.pop().map(|(_, e)| e), Some("start"));
        // Popping "start" did not advance the horizon (same bucket), so
        // "was_overflow" still sits in the overflow heap; a fresh event
        // after it in time but inside the wheel range of *its* bucket
        // must not jump ahead of it.
        q.schedule_at(SimTime(horizon + BUCKET_WIDTH_NS * 7), "wheel_later");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["was_overflow", "wheel_later"]);
    }

    /// Drive the calendar queue and the reference heap queue through an
    /// identical randomized schedule — mixed `schedule_at`/`schedule_in`,
    /// heavy ties, far-future bursts, interleaved pops — and assert the
    /// (time, event) pop streams match exactly. Payloads are unique
    /// insertion indices, so this also pins the (time, seq) tie-break.
    /// Checks the drain invariant `events_processed + len == scheduled`
    /// on both queues at every step.
    #[test]
    fn matches_reference_heap_on_random_schedules() {
        for seed in 0..8u64 {
            let mut rng = Xoshiro256pp::new(0xE57 + seed);
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
            let mut scheduled = 0u64;
            let mut next_id = 0u64;
            for _round in 0..2_000 {
                match rng.next_below(10) {
                    // schedule_at: near future, coarse times for ties
                    0..=3 => {
                        let t = SimTime(cal.now().0 + rng.next_below(20_000) / 64 * 64);
                        assert_eq!(cal.schedule_at(t, next_id), next_id);
                        assert_eq!(heap.schedule_at(t, next_id), next_id);
                        next_id += 1;
                        scheduled += 1;
                    }
                    // schedule_in: relative delays
                    4..=5 => {
                        let d = Duration(rng.next_below(100_000));
                        assert_eq!(cal.schedule_in(d, next_id), next_id);
                        assert_eq!(heap.schedule_in(d, next_id), next_id);
                        next_id += 1;
                        scheduled += 1;
                    }
                    // far-future burst past the wheel horizon
                    6 => {
                        let base = cal.now().0
                            + BUCKET_WIDTH_NS * NUM_BUCKETS as u64
                            + rng.next_below(1 << 22);
                        for _ in 0..4 {
                            let t = SimTime(base + rng.next_below(1 << 20));
                            cal.schedule_at(t, next_id);
                            heap.schedule_at(t, next_id);
                            next_id += 1;
                            scheduled += 1;
                        }
                    }
                    // pop a few
                    _ => {
                        for _ in 0..=rng.next_below(3) {
                            assert_eq!(cal.peek_time(), heap.peek_time());
                            let a = cal.pop();
                            let b = heap.pop();
                            assert_eq!(a, b, "pop streams diverged (seed {seed})");
                            // Payloads are insertion ids, so the popped
                            // seq is the payload itself.
                            if let Some((_, id)) = a {
                                assert_eq!(cal.last_popped_seq(), Some(id));
                                assert_eq!(heap.last_popped_seq(), Some(id));
                            }
                        }
                    }
                }
                assert_eq!(
                    cal.events_processed() + cal.len() as u64,
                    scheduled,
                    "calendar queue stranded events (seed {seed})"
                );
                assert_eq!(heap.events_processed() + heap.len() as u64, scheduled);
                assert_eq!(cal.now(), heap.now());
            }
            // Full drain: remaining streams identical, nothing stranded.
            loop {
                assert_eq!(cal.peek_time(), heap.peek_time());
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "drain diverged (seed {seed})");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(cal.events_processed(), scheduled);
            assert!(cal.is_empty());
        }
    }
}
