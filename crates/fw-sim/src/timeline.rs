//! Busy-until resource models.
//!
//! The serialization effects the paper is about — the "narrow channel data
//! bus inside SSD", the 4-lane PCIe link, a flash plane that can only serve
//! one read at a time — are all modeled the same way: a resource owns a
//! `next_free` watermark, and a request arriving at `t` is served during
//! `[max(t, next_free), max(t, next_free) + duration)`. The requester then
//! schedules its completion event at the returned end time. Queueing delay
//! and saturation fall out naturally with no explicit queues.

use crate::{Duration, SimTime};

/// A single-server resource (one flash plane, one die command port, one
/// channel bus, one DRAM bank, the PCIe link).
///
/// Reservations are **backfilling**: a request for `[at, at+dur)` takes
/// the earliest gap at or after `at`, not the end of the queue. This
/// matters because engines eagerly reserve resources at *future* ready
/// times (a channel transfer is booked for when its flash read will
/// finish); without backfill those lookahead bookings would block
/// later-issued requests wanting service *earlier*, which no real
/// transaction scheduler does.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Busy intervals `(start, end)` in ns, sorted and disjoint.
    intervals: std::collections::VecDeque<(u64, u64)>,
    /// High-water mark of request times; intervals far behind it are
    /// pruned to keep the deque small.
    high_water: u64,
    busy: Duration,
    served: u64,
}

/// How far behind the request high-water mark an interval may linger
/// before being pruned. Lookahead reservations never exceed a few
/// milliseconds (one erase, 2 ms, is the longest primitive), so 8 ms of
/// slack keeps pruning safe.
const PRUNE_SLACK_NS: u64 = 8_000_000;

/// The outcome of a reservation: when service starts and when it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource actually started serving the request.
    pub start: SimTime,
    /// When the resource becomes free again — schedule completion here.
    pub end: SimTime,
}

impl Reservation {
    /// Queueing delay experienced by a request issued at `issued`.
    pub fn wait_since(&self, issued: SimTime) -> Duration {
        self.start.saturating_since(issued)
    }
}

impl Timeline {
    /// A resource that is free from `t = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// When the resource's last booked interval ends (an upper bound on
    /// queueing delay for a request issued now; gaps before it may still
    /// be backfilled).
    #[inline]
    pub fn next_free(&self) -> SimTime {
        SimTime(self.intervals.back().map(|&(_, e)| e).unwrap_or(0))
    }

    /// Reserve the resource for `dur`, starting no earlier than `at`,
    /// taking the earliest gap that fits.
    pub fn reserve(&mut self, at: SimTime, dur: Duration) -> Reservation {
        self.prune(at.0);
        let first = self.first_ending_after(at.0);
        self.book(first, at.0, dur)
    }

    /// [`Self::reserve`] with the plain binary search over the whole
    /// deque: the reference the tail-first search is tested against.
    #[cfg(test)]
    fn reserve_reference(&mut self, at: SimTime, dur: Duration) -> Reservation {
        self.prune(at.0);
        let first = self.intervals.partition_point(|&(_, e)| e <= at.0);
        self.book(first, at.0, dur)
    }

    /// Index of the first interval ending after `t`. Intervals are sorted
    /// and disjoint, so their ends are sorted too. Runs shorter than
    /// `PRUNE_SLACK_NS` never prune, so the deque can hold thousands of
    /// intervals while nearly every request lands at its tail: gallop
    /// back from the tail to bracket the answer, then binary-search the
    /// bracket.
    fn first_ending_after(&self, t: u64) -> usize {
        let ends_after = |i: usize| self.intervals[i].1 > t;
        // Invariant: every interval at or past `hi` ends after `t`.
        let mut hi = self.intervals.len();
        let mut step = 1;
        let mut lo = loop {
            if hi == 0 {
                break 0;
            }
            let probe = hi.saturating_sub(step);
            if !ends_after(probe) {
                break probe + 1;
            }
            hi = probe;
            step *= 2;
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if ends_after(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Book `[start, start + dur)` in the earliest gap at or after `t`,
    /// scanning from interval `first` (the first ending after `t`).
    fn book(&mut self, first: usize, t: u64, dur: Duration) -> Reservation {
        let d = dur.as_nanos();
        let mut start = t;
        let mut insert_at = self.intervals.len();
        for i in first..self.intervals.len() {
            let (s, e) = self.intervals[i];
            if start + d <= s {
                insert_at = i;
                break;
            }
            if e > start {
                start = e;
            }
        }
        let end = start + d;
        if d > 0 {
            self.insert_merged(insert_at, start, end);
        }
        self.busy += dur;
        self.served += 1;
        Reservation {
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    fn insert_merged(&mut self, mut idx: usize, start: u64, end: u64) {
        // Merge with the predecessor if adjacent, else insert.
        if idx > 0 && self.intervals[idx - 1].1 == start {
            self.intervals[idx - 1].1 = end;
            idx -= 1;
        } else {
            self.intervals.insert(idx, (start, end));
        }
        // Merge with the successor if now adjacent.
        if idx + 1 < self.intervals.len() && self.intervals[idx].1 == self.intervals[idx + 1].0 {
            let succ_end = self.intervals[idx + 1].1;
            self.intervals[idx].1 = succ_end;
            self.intervals.remove(idx + 1);
        }
    }

    /// Raise the request high-water mark to `t` and prune the intervals
    /// that end more than `PRUNE_SLACK_NS` behind it.
    fn prune(&mut self, t: u64) {
        self.high_water = self.high_water.max(t);
        let cutoff = self.high_water.saturating_sub(PRUNE_SLACK_NS);
        while let Some(&(_, e)) = self.intervals.front() {
            if e < cutoff && self.intervals.len() > 1 {
                self.intervals.pop_front();
            } else {
                break;
            }
        }
    }

    /// Total time the resource has spent serving requests.
    #[inline]
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Number of requests served.
    #[inline]
    pub fn requests_served(&self) -> u64 {
        self.served
    }

    /// Utilization in `[0, 1]` over the window `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }
}

/// `banks` independent pools of `n` identical single-server resources,
/// each with pick-the-earliest-free dispatch (e.g. the four array ports of
/// every flash chip). All servers live in one flat array, so a bank per
/// chip costs one allocation rather than one per chip.
#[derive(Debug, Clone)]
pub struct ServerBank {
    /// Bank `b`'s servers are `servers[b * n .. (b + 1) * n]`.
    servers: Vec<Timeline>,
    n: usize,
}

impl ServerBank {
    /// `banks` banks of `n` servers each, all free at `t = 0`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(banks: usize, n: usize) -> Self {
        assert!(n > 0, "empty server bank");
        ServerBank {
            servers: std::iter::repeat_with(Timeline::new)
                .take(banks * n)
                .collect(),
            n,
        }
    }

    /// Reserve bank `bank`'s earliest-available server for `dur` starting
    /// no earlier than `at`. Ties pick the lowest-index server,
    /// deterministically.
    pub fn reserve(&mut self, bank: usize, at: SimTime, dur: Duration) -> Reservation {
        let servers = &mut self.servers[bank * self.n..(bank + 1) * self.n];
        let idx = servers
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.next_free(), *i))
            .map(|(i, _)| i)
            .expect("bank is non-empty");
        servers[idx].reserve(at, dur)
    }

    /// Aggregate busy time across all servers of all banks.
    pub fn busy_time(&self) -> Duration {
        self.servers.iter().map(|s| s.busy_time()).sum()
    }

    /// Aggregate requests served across all banks.
    pub fn requests_served(&self) -> u64 {
        self.servers.iter().map(|s| s.requests_served()).sum()
    }
}

/// A bandwidth-limited link (channel bus, PCIe, DRAM data bus): a
/// [`Timeline`] plus a byte rate. Its callers count the bytes they move.
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    timeline: Timeline,
    bytes_per_sec: u64,
}

impl BandwidthLink {
    /// A link sustaining `bytes_per_sec`.
    ///
    /// # Panics
    /// Panics if the rate is zero.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "zero-bandwidth link");
        BandwidthLink {
            timeline: Timeline::new(),
            bytes_per_sec,
        }
    }

    /// Transfer `bytes` starting no earlier than `at`; returns when the
    /// transfer completes.
    pub fn transfer(&mut self, at: SimTime, bytes: u64) -> Reservation {
        let dur = Duration::for_bytes(bytes, self.bytes_per_sec);
        self.timeline.reserve(at, dur)
    }

    /// Time the link has spent transferring.
    #[inline]
    pub fn busy_time(&self) -> Duration {
        self.timeline.busy_time()
    }

    /// When the link next becomes idle.
    #[inline]
    pub fn next_free(&self) -> SimTime {
        self.timeline.next_free()
    }

    /// Utilization in `[0, 1]` over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.timeline.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_requests_serialize() {
        let mut t = Timeline::new();
        let a = t.reserve(SimTime(0), Duration(100));
        let b = t.reserve(SimTime(0), Duration(50));
        assert_eq!(
            a,
            Reservation {
                start: SimTime(0),
                end: SimTime(100)
            }
        );
        assert_eq!(
            b,
            Reservation {
                start: SimTime(100),
                end: SimTime(150)
            }
        );
        assert_eq!(b.wait_since(SimTime(0)), Duration(100));
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), Duration(10));
        t.reserve(SimTime(100), Duration(10));
        assert_eq!(t.busy_time(), Duration(20));
        assert_eq!(t.requests_served(), 2);
        assert!((t.utilization(SimTime(200)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn server_bank_spreads_load() {
        let mut bank = ServerBank::new(2, 4);
        // Four simultaneous unit jobs: all start at t=0 on distinct servers.
        for _ in 0..4 {
            let r = bank.reserve(1, SimTime(0), Duration(10));
            assert_eq!(r.start, SimTime(0));
        }
        // Fifth queues behind the earliest-free (all free at 10).
        let r = bank.reserve(1, SimTime(0), Duration(10));
        assert_eq!(r.start, SimTime(10));
        // The other bank is untouched.
        let r = bank.reserve(0, SimTime(0), Duration(10));
        assert_eq!(r.start, SimTime(0));
        assert_eq!(bank.requests_served(), 6);
        assert_eq!(bank.busy_time(), Duration(60));
    }

    #[test]
    fn server_bank_conserves_work_under_random_load() {
        let mut rng = crate::rng::Xoshiro256pp::new(23);
        let mut bank = ServerBank::new(1, 4);
        let mut total = 0u64;
        let mut clock = 0u64;
        for _ in 0..2_000 {
            clock += rng.next_below(500);
            let dur = rng.next_below(1_000);
            bank.reserve(0, SimTime(clock), Duration(dur));
            total += dur;
        }
        assert_eq!(bank.busy_time().as_nanos(), total);
        assert_eq!(bank.requests_served(), 2_000);
    }

    #[test]
    fn bandwidth_link_queues_transfers_at_its_rate() {
        // The paper's channel bus: 333 MB/s.
        let mut link = BandwidthLink::new(333_000_000);
        let r = link.transfer(SimTime(0), 4096);
        assert!(r.end.as_nanos() > 12_000 && r.end.as_nanos() < 12_500);
        let r2 = link.transfer(SimTime(0), 4096);
        assert_eq!(r2.start, r.end, "second page queues behind the first");
        // Back-to-back transfers keep the link busy over its whole window.
        assert_eq!(link.utilization(link.next_free()), 1.0);
    }

    #[test]
    fn backfills_gaps_before_future_reservations() {
        let mut t = Timeline::new();
        // A lookahead booking far in the future (e.g. a channel transfer
        // scheduled for when a 35 us flash read completes)…
        let future = t.reserve(SimTime(35_000), Duration(1_000));
        assert_eq!(future.start, SimTime(35_000));
        // …must NOT delay a request wanting service right now.
        let nowreq = t.reserve(SimTime(0), Duration(10_000));
        assert_eq!(nowreq.start, SimTime(0), "backfilled into the gap");
        // And a request that does not fit in the gap goes after.
        let big = t.reserve(SimTime(0), Duration(30_000));
        assert_eq!(big.start, SimTime(36_000));
    }

    #[test]
    fn exact_fit_gap_is_used_and_merged() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), Duration(10)); // [0,10)
        t.reserve(SimTime(20), Duration(10)); // [20,30)
        let mid = t.reserve(SimTime(10), Duration(10)); // exactly [10,20)
        assert_eq!(mid.start, SimTime(10));
        assert_eq!(mid.end, SimTime(20));
        // All merged into one interval; the next request queues at 30.
        let next = t.reserve(SimTime(0), Duration(5));
        assert_eq!(next.start, SimTime(30));
    }

    #[test]
    fn zero_duration_reservation_is_free() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), Duration(100));
        let z = t.reserve(SimTime(50), Duration(0));
        assert_eq!(z.start, z.end);
        assert_eq!(t.requests_served(), 2);
    }

    #[test]
    fn long_runs_stay_bounded_by_pruning() {
        let mut t = Timeline::new();
        for i in 0..100_000u64 {
            // Alternating now/future requests over a long horizon.
            let at = i * 1_000;
            t.reserve(SimTime(at), Duration(100));
            t.reserve(SimTime(at + 50_000), Duration(100));
        }
        // The deque is bounded by the prune-slack window (~8 ms of 1 us
        // spaced disjoint intervals, two per step), not by run length.
        let bound = 2 * (super::PRUNE_SLACK_NS + 100_000) as usize / 1_000;
        assert!(
            t.intervals.len() < bound,
            "pruning keeps the deque small: {} >= {}",
            t.intervals.len(),
            bound
        );
    }

    #[test]
    fn reservations_never_overlap_under_random_load() {
        // The core invariant of the backfilling resource: across any
        // request sequence (past requests, lookahead requests, odd
        // durations), granted intervals are pairwise disjoint.
        let mut rng = crate::rng::Xoshiro256pp::new(17);
        let mut t = Timeline::new();
        let mut granted: Vec<(u64, u64)> = Vec::new();
        let mut clock = 0u64;
        for _ in 0..5_000 {
            clock += rng.next_below(2_000);
            let lookahead = rng.next_below(100_000);
            let dur = rng.next_below(5_000);
            let r = t.reserve(SimTime(clock + lookahead), Duration(dur));
            assert!(r.start >= SimTime(clock + lookahead));
            assert_eq!((r.end - r.start).as_nanos(), dur);
            if dur > 0 {
                granted.push((r.start.as_nanos(), r.end.as_nanos()));
            }
        }
        granted.sort_unstable();
        for w in granted.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
        // Busy time equals the sum of granted durations.
        let total: u64 = granted.iter().map(|(s, e)| e - s).sum();
        assert_eq!(t.busy_time().as_nanos(), total);
    }

    #[test]
    fn tail_first_search_matches_reference_search() {
        // Drive the tail-first search and the reference binary search
        // through the same random mix — requests now, behind now and far
        // ahead, zero durations, exact-fit gaps — over a horizon past
        // PRUNE_SLACK_NS so pruning runs, and compare every grant.
        for seed in 0..4u64 {
            let mut rng = crate::rng::Xoshiro256pp::new(0x7A11 + seed);
            let mut fast = Timeline::new();
            let mut reference = Timeline::new();
            let mut clock = 0u64;
            for step in 0..20_000 {
                clock += rng.next_below(1_500);
                let (at, dur) = match rng.next_below(8) {
                    // Lookahead booking.
                    0 | 1 => (clock + rng.next_below(200_000), rng.next_below(3_000)),
                    // A request behind the clock, backfilling old gaps.
                    2 => (
                        clock.saturating_sub(rng.next_below(50_000)),
                        1 + rng.next_below(500),
                    ),
                    3 => (clock + rng.next_below(20_000), 0),
                    // Exactly the gap between two booked intervals.
                    4 if reference.intervals.len() > 1 => {
                        let i = rng.next_below(reference.intervals.len() as u64 - 1) as usize;
                        let gap_start = reference.intervals[i].1;
                        (gap_start, reference.intervals[i + 1].0 - gap_start)
                    }
                    _ => (clock, rng.next_below(3_000)),
                };
                assert_eq!(
                    fast.first_ending_after(at),
                    fast.intervals.partition_point(|&(_, e)| e <= at),
                    "seed {seed} step {step}: search at {at}"
                );
                let got = fast.reserve(SimTime(at), Duration(dur));
                let want = reference.reserve_reference(SimTime(at), Duration(dur));
                assert_eq!(got, want, "seed {seed} step {step}: reserve({at}, {dur})");
            }
            assert_eq!(fast.intervals, reference.intervals);
            assert_eq!(fast.busy_time(), reference.busy_time());
            let front_end = fast.intervals.front().expect("booked").1;
            assert!(
                front_end >= clock - PRUNE_SLACK_NS,
                "seed {seed}: pruning never ran (front ends at {front_end}, clock {clock})"
            );
        }
    }

    #[test]
    fn utilization_clamps_and_handles_zero_horizon() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), Duration(100));
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
        assert_eq!(t.utilization(SimTime(50)), 1.0);
    }
}
