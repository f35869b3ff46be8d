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
///
/// Every request also names a **floor**: the earliest time any request
/// to this timeline may still name, itself included. An interval ending
/// at or before the floor can never delay a request again, so it is
/// dropped; the deque holds only intervals a future request can reach.
/// The device models derive the floor from the engine's clock (see
/// `fw_nand::Ssd::set_floor`).
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Busy intervals `(start, end)` in ns, sorted and disjoint, each
    /// ending after the last floor named.
    intervals: std::collections::VecDeque<(u64, u64)>,
    /// End of the latest interval ever booked: what [`Self::next_free`]
    /// reports, also once pruning has emptied the deque.
    last_end: u64,
    busy: Duration,
    served: u64,
}

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

    /// Forget every booking and the busy/served counts: the resource is
    /// [`Self::new`]'s again, keeping the deque's allocation.
    pub fn reset(&mut self) {
        self.intervals.clear();
        self.last_end = 0;
        self.busy = Duration::ZERO;
        self.served = 0;
    }

    /// When the resource's last booked interval ends (an upper bound on
    /// queueing delay for a request issued now; gaps before it may still
    /// be backfilled).
    #[inline]
    pub fn next_free(&self) -> SimTime {
        SimTime(self.last_end)
    }

    /// Reserve the resource for `dur`, starting no earlier than `at`,
    /// taking the earliest gap that fits. `floor` is the earliest time
    /// this or any later request may name; the intervals ending at or
    /// before it are dropped first.
    pub fn reserve(&mut self, at: SimTime, dur: Duration, floor: SimTime) -> Reservation {
        debug_assert!(at >= floor, "request at {at:?} before the floor {floor:?}");
        while self.intervals.front().is_some_and(|&(_, e)| e <= floor.0) {
            self.intervals.pop_front();
        }
        let first = self.first_ending_after(at.0);
        self.book(first, at.0, dur)
    }

    /// Index of the first interval ending after `t`. Intervals are sorted
    /// and disjoint, so their ends are sorted too. Nearly every request
    /// lands at the deque's tail, and a DRAM bank's floor trails the
    /// clock by one refresh interval, so under a stream of accesses its
    /// deque holds hundreds of bursts: gallop back from the tail to
    /// bracket the answer, then binary-search the bracket.
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
            self.last_end = self.last_end.max(end);
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

    /// Forget every server's bookings (see [`Timeline::reset`]).
    pub fn reset(&mut self) {
        self.servers.iter_mut().for_each(Timeline::reset);
    }

    /// Reserve bank `bank`'s earliest-available server for `dur` starting
    /// no earlier than `at`, under `floor` (see [`Timeline::reserve`]).
    /// Ties pick the lowest-index server, deterministically.
    pub fn reserve(
        &mut self,
        bank: usize,
        at: SimTime,
        dur: Duration,
        floor: SimTime,
    ) -> Reservation {
        let servers = &mut self.servers[bank * self.n..(bank + 1) * self.n];
        let idx = servers
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.next_free(), *i))
            .map(|(i, _)| i)
            .expect("bank is non-empty");
        servers[idx].reserve(at, dur, floor)
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

    /// Forget every transfer (see [`Timeline::reset`]).
    pub fn reset(&mut self) {
        self.timeline.reset();
    }

    /// Transfer `bytes` starting no earlier than `at`, under `floor` (see
    /// [`Timeline::reserve`]); returns when the transfer completes.
    pub fn transfer(&mut self, at: SimTime, bytes: u64, floor: SimTime) -> Reservation {
        let dur = Duration::for_bytes(bytes, self.bytes_per_sec);
        self.timeline.reserve(at, dur, floor)
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

    /// The floor of a request stream that never prunes.
    const F0: SimTime = SimTime::ZERO;

    #[test]
    fn back_to_back_requests_serialize() {
        let mut t = Timeline::new();
        let a = t.reserve(SimTime(0), Duration(100), F0);
        let b = t.reserve(SimTime(0), Duration(50), F0);
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
        t.reserve(SimTime(0), Duration(10), F0);
        t.reserve(SimTime(100), Duration(10), F0);
        assert_eq!(t.busy_time(), Duration(20));
        assert_eq!(t.requests_served(), 2);
        assert!((t.utilization(SimTime(200)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn server_bank_spreads_load() {
        let mut bank = ServerBank::new(2, 4);
        // Four simultaneous unit jobs: all start at t=0 on distinct servers.
        for _ in 0..4 {
            let r = bank.reserve(1, SimTime(0), Duration(10), F0);
            assert_eq!(r.start, SimTime(0));
        }
        // Fifth queues behind the earliest-free (all free at 10).
        let r = bank.reserve(1, SimTime(0), Duration(10), F0);
        assert_eq!(r.start, SimTime(10));
        // The other bank is untouched.
        let r = bank.reserve(0, SimTime(0), Duration(10), F0);
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
            bank.reserve(0, SimTime(clock), Duration(dur), F0);
            total += dur;
        }
        assert_eq!(bank.busy_time().as_nanos(), total);
        assert_eq!(bank.requests_served(), 2_000);
    }

    #[test]
    fn reset_resources_book_like_new_ones() {
        let book = |t: &mut Timeline, bank: &mut ServerBank, link: &mut BandwidthLink| {
            let mut rng = crate::rng::Xoshiro256pp::new(5);
            (0..300)
                .map(|_| {
                    let at = SimTime(rng.next_below(10_000));
                    let dur = Duration(rng.next_below(500));
                    (
                        t.reserve(at, dur, F0),
                        bank.reserve(1, at, dur, F0),
                        link.transfer(at, dur.0, F0),
                    )
                })
                .collect::<Vec<_>>()
        };
        let fresh = || {
            (
                Timeline::new(),
                ServerBank::new(2, 3),
                BandwidthLink::new(1 << 30),
            )
        };
        let (mut t, mut bank, mut link) = fresh();
        let want = book(&mut t, &mut bank, &mut link);
        t.reset();
        bank.reset();
        link.reset();
        assert_eq!(t.next_free(), SimTime::ZERO);
        assert_eq!((t.busy_time(), t.requests_served()), (Duration::ZERO, 0));
        assert_eq!(
            (bank.busy_time(), bank.requests_served()),
            (Duration::ZERO, 0)
        );
        assert_eq!(link.next_free(), SimTime::ZERO);
        assert_eq!(book(&mut t, &mut bank, &mut link), want);
    }

    #[test]
    fn bandwidth_link_queues_transfers_at_its_rate() {
        // The paper's channel bus: 333 MB/s.
        let mut link = BandwidthLink::new(333_000_000);
        let r = link.transfer(SimTime(0), 4096, F0);
        assert!(r.end.as_nanos() > 12_000 && r.end.as_nanos() < 12_500);
        let r2 = link.transfer(SimTime(0), 4096, F0);
        assert_eq!(r2.start, r.end, "second page queues behind the first");
        // Back-to-back transfers keep the link busy over its whole window.
        assert_eq!(link.utilization(link.next_free()), 1.0);
    }

    #[test]
    fn backfills_gaps_before_future_reservations() {
        let mut t = Timeline::new();
        // A lookahead booking far in the future (e.g. a channel transfer
        // scheduled for when a 35 us flash read completes)…
        let future = t.reserve(SimTime(35_000), Duration(1_000), F0);
        assert_eq!(future.start, SimTime(35_000));
        // …must NOT delay a request wanting service right now.
        let nowreq = t.reserve(SimTime(0), Duration(10_000), F0);
        assert_eq!(nowreq.start, SimTime(0), "backfilled into the gap");
        // And a request that does not fit in the gap goes after.
        let big = t.reserve(SimTime(0), Duration(30_000), F0);
        assert_eq!(big.start, SimTime(36_000));
    }

    #[test]
    fn exact_fit_gap_is_used_and_merged() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), Duration(10), F0); // [0,10)
        t.reserve(SimTime(20), Duration(10), F0); // [20,30)
        let mid = t.reserve(SimTime(10), Duration(10), F0); // exactly [10,20)
        assert_eq!(mid.start, SimTime(10));
        assert_eq!(mid.end, SimTime(20));
        // All merged into one interval; the next request queues at 30.
        let next = t.reserve(SimTime(0), Duration(5), F0);
        assert_eq!(next.start, SimTime(30));
    }

    #[test]
    fn zero_duration_reservation_is_free() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), Duration(100), F0);
        let z = t.reserve(SimTime(50), Duration(0), F0);
        assert_eq!(z.start, z.end);
        assert_eq!(t.requests_served(), 2);
    }

    #[test]
    fn long_runs_stay_bounded_by_pruning() {
        // Alternating now/future requests over a long horizon, the floor
        // trailing the clock by one DRAM refresh interval: the deque keeps
        // no interval ending at or before the floor, so it stays as short
        // as the lookahead window, whatever the run length.
        let mut t = Timeline::new();
        for i in 0..100_000u64 {
            let at = i * 1_000;
            let floor = SimTime(at.saturating_sub(TREFI));
            t.reserve(SimTime(at), Duration(100), floor);
            t.reserve(SimTime(at + 50_000), Duration(100), floor);
            assert!(t.intervals.iter().all(|&(_, e)| e > floor.0), "step {i}");
        }
        assert!(t.intervals.len() <= 2 * (50_000 + TREFI as usize) / 1_000);
        assert_eq!(t.next_free(), SimTime(99_999 * 1_000 + 50_100));
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
            let r = t.reserve(SimTime(clock + lookahead), Duration(dur), F0);
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

    /// A backfilling timeline that never prunes: every interval ever
    /// granted, adjacent ones merged (a zero-length request inside a
    /// merged run waits for its end). It shares no code with
    /// [`Timeline`].
    #[derive(Default)]
    struct NeverPruned {
        granted: Vec<(u64, u64)>,
    }

    impl NeverPruned {
        fn reserve(&mut self, at: u64, dur: u64) -> Reservation {
            // Granted intervals are disjoint, so their ends ascend too:
            // skip those ending at or before `at`, then scan.
            let mut start = at;
            let first = self.granted.partition_point(|&(_, e)| e <= at);
            for &(s, e) in &self.granted[first..] {
                if start + dur <= s {
                    break;
                }
                start = start.max(e);
            }
            if dur > 0 {
                let mut i = self.granted.partition_point(|&(s, _)| s < start);
                self.granted.insert(i, (start, start + dur));
                if i > 0 && self.granted[i - 1].1 == start {
                    self.granted[i - 1].1 = self.granted.remove(i).1;
                    i -= 1;
                }
                if i + 1 < self.granted.len() && self.granted[i + 1].0 == self.granted[i].1 {
                    self.granted[i].1 = self.granted.remove(i + 1).1;
                }
            }
            Reservation {
                start: SimTime(start),
                end: SimTime(start + dur),
            }
        }

        fn next_free(&self) -> u64 {
            self.granted.last().map_or(0, |&(_, e)| e)
        }

        /// One ns before the end of the first interval ending after
        /// `floor + 1`, if that is no later than `now`.
        fn boundary(&self, floor: u64, now: u64) -> Option<u64> {
            let i = self.granted.partition_point(|&(_, e)| e - 1 <= floor);
            self.granted
                .get(i)
                .map(|&(_, e)| e - 1)
                .filter(|&b| b <= now)
        }
    }

    /// A DRAM refresh interval (tREFI): how far behind the engine clock a
    /// DRAM bank's floor sits.
    const TREFI: u64 = 7_800;

    /// A seeded request stream that respects an advancing floor, fed to
    /// `reserve(at, dur, floor)`; `boundary(floor, now)` names an
    /// interval end (less one ns) in `(floor, now]`. The floor trails a clock by one tREFI
    /// and now and then jumps to one ns before the end of an interval the
    /// reference holds, so requests land exactly on the interval pruning
    /// must keep; requests name the floor itself, times back-dated from
    /// the clock by up to one tREFI, the clock, or lookahead times. Now
    /// and then the clock jumps past every booking.
    fn drive_floor_stream(
        seed: u64,
        steps: u32,
        boundary: &dyn Fn(u64, u64) -> Option<u64>,
        reserve: &mut dyn FnMut(u64, u64, u64),
    ) {
        let mut rng = crate::rng::Xoshiro256pp::new(seed);
        let (mut now, mut floor) = (0u64, 0u64);
        for _ in 0..steps {
            now += rng.next_below(1_500);
            if rng.next_below(64) == 0 {
                // An idle spell past every booking: pruning empties the
                // deque, and `next_free` must still report the last end.
                now += 400_000;
            }
            floor = floor.max(now.saturating_sub(TREFI));
            if rng.next_below(8) == 0 {
                floor = boundary(floor, now).unwrap_or(floor);
            }
            let at = match rng.next_below(6) {
                0 => floor,
                1 => floor + rng.next_below(now - floor + 1),
                2 | 3 => now + rng.next_below(200_000),
                _ => now,
            };
            let dur = match rng.next_below(10) {
                0 => 0,
                _ => 1 + rng.next_below(3_000),
            };
            reserve(at, dur, floor);
        }
    }

    #[test]
    fn floor_pruned_grants_equal_a_timeline_that_never_prunes() {
        for seed in 0..4u64 {
            let reference = std::cell::RefCell::new(NeverPruned::default());
            let mut t = Timeline::new();
            let mut step = 0;
            drive_floor_stream(
                0xF100 + seed,
                20_000,
                &|floor, now| reference.borrow().boundary(floor, now),
                &mut |at, dur, floor| {
                    let got = t.reserve(SimTime(at), Duration(dur), SimTime(floor));
                    let want = reference.borrow_mut().reserve(at, dur);
                    assert_eq!(
                        got, want,
                        "seed {seed} step {step}: reserve({at}, {dur}) under {floor}"
                    );
                    assert!(t.intervals.iter().all(|&(_, e)| e > floor));
                    assert_eq!(t.next_free().as_nanos(), reference.borrow().next_free());
                    step += 1;
                },
            );
            let (kept, all) = (t.intervals.len(), reference.borrow().granted.len());
            assert!(kept * 10 < all, "seed {seed}: pruning kept {kept} of {all}");
        }
    }

    #[test]
    fn floor_pruned_server_bank_matches_one_that_never_prunes() {
        // Server choice reads each server's `next_free`, which pruning
        // must leave alone even when it empties a server's deque.
        for seed in 0..4u64 {
            let reference = std::cell::RefCell::new(
                std::iter::repeat_with(NeverPruned::default)
                    .take(3)
                    .collect::<Vec<_>>(),
            );
            let mut bank = ServerBank::new(1, 3);
            let mut step = 0;
            drive_floor_stream(
                0xBA4C + seed,
                20_000,
                &|floor, now| {
                    let servers = reference.borrow();
                    servers.iter().filter_map(|r| r.boundary(floor, now)).min()
                },
                &mut |at, dur, floor| {
                    let got = bank.reserve(0, SimTime(at), Duration(dur), SimTime(floor));
                    let mut servers = reference.borrow_mut();
                    let idx = (0..servers.len())
                        .min_by_key(|&i| (servers[i].next_free(), i))
                        .unwrap();
                    let want = servers[idx].reserve(at, dur);
                    assert_eq!(
                        got, want,
                        "seed {seed} step {step}: reserve({at}, {dur}) under {floor}"
                    );
                    step += 1;
                },
            );
        }
    }

    #[test]
    fn tail_first_search_matches_reference_search() {
        // Along the floor streams, the tail-first search finds the index
        // the plain binary search over the whole deque finds.
        for seed in 0..4u64 {
            let t = std::cell::RefCell::new(Timeline::new());
            drive_floor_stream(
                0x7A11 + seed,
                20_000,
                &|floor, now| {
                    let t = t.borrow();
                    let i = t.intervals.partition_point(|&(_, e)| e - 1 <= floor);
                    t.intervals
                        .get(i)
                        .map(|&(_, e)| e - 1)
                        .filter(|&b| b <= now)
                },
                &mut |at, dur, floor| {
                    let mut t = t.borrow_mut();
                    t.reserve(SimTime(at), Duration(dur), SimTime(floor));
                    for probe in [at, floor, at + dur, at + 50_000] {
                        assert_eq!(
                            t.first_ending_after(probe),
                            t.intervals.partition_point(|&(_, e)| e <= probe),
                            "seed {seed}: search at {probe}"
                        );
                    }
                },
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the floor")]
    fn a_request_before_the_floor_is_caught() {
        Timeline::new().reserve(SimTime(99), Duration(1), SimTime(100));
    }

    #[test]
    fn utilization_clamps_and_handles_zero_horizon() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), Duration(100), F0);
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
        assert_eq!(t.utilization(SimTime(50)), 1.0);
    }
}
