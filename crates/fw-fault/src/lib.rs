#![warn(missing_docs)]

//! `fw-fault` — deterministic, seeded fault injection for the NAND layer
//! and the recovery policy knobs shared by both engines.
//!
//! The paper's feasibility story assumes flash reads always succeed; a
//! production in-storage system must survive raw bit errors, ECC read
//! retries and slow chips. This crate models those effects without
//! sacrificing the repo's core invariant — *bit-determinism from a single
//! `u64` seed*:
//!
//! * every fault decision is drawn from a dedicated *per-lane* (per-chip
//!   / per-channel) xoshiro256++ stream, derived from the engine seed via
//!   [`derive_stream_seed`], so injected faults never perturb walk-path
//!   randomness — and a lane's fault schedule depends only on that lane's
//!   own op sequence, never on how other lanes interleave (so reordering
//!   one lane's work cannot shift another lane's faults);
//! * all probabilities are integers (parts-per-million) and all latency
//!   scaling uses integer percent multipliers, so two platforms replay the
//!   exact same fault schedule;
//! * a disabled injector ([`FaultProfile::none`]) draws **zero** random
//!   numbers and adds **zero** latency, which is what keeps fault-free
//!   runs byte-identical to runs made without the fault subsystem.
//!
//! The device-level model (raw bit errors, the ECC read-retry ladder,
//! chip/channel stalls) lives in [`FaultInjector`] and is wired into
//! `fw_nand::Ssd`; the engine-level recovery policy (load timeout,
//! requeue backoff, degradation after N attempts) travels in the same
//! [`FaultProfile`] so one `--faults <profile>` flag configures the whole
//! stack.

use fw_sim::{Duration, Xoshiro256pp};

pub use fw_sim::rng::derive_stream_seed;

/// Stream tag for the NAND fault injector (see [`derive_stream_seed`]).
/// Both engines derive the injector's stream as
/// `derive_stream_seed(seed, FAULT_STREAM)`: a pure function of the
/// engine seed, but statistically independent of the walk RNG
/// (`Xoshiro256pp::new(seed)`), so enabling faults never changes which
/// neighbors walkers sample.
pub const FAULT_STREAM: u64 = 0xFA017;

/// Escalating sense-latency ladder, as integer percent multipliers of the
/// base read latency. Step `k` of an ECC read retry charges
/// `base * LADDER_PCT[k] / 100` extra nanoseconds: real devices re-sense
/// with progressively shifted reference voltages and longer sense times.
pub const LADDER_PCT: [u64; 8] = [100, 130, 170, 220, 300, 400, 550, 750];

/// A fault-injection + recovery configuration. All-zero probabilities
/// ([`FaultProfile::none`], the default) make injection free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// Profile name, as written by `--faults <name>` and recorded in the
    /// benchmark env fingerprint.
    pub name: &'static str,
    /// Probability (parts per million) that a read of a fresh block fails
    /// the default sense and enters the retry ladder.
    pub read_error_ppm: u32,
    /// Additional read-error ppm per erase the block has absorbed (wear
    /// dependence: worn blocks fail more often).
    pub wear_ppm_per_erase: u32,
    /// Probability (percent) that each ladder step recovers the read.
    pub retry_success_pct: u32,
    /// Ladder steps before the read hard-fails (≤ [`LADDER_PCT`] len).
    pub max_read_retries: u32,
    /// Probability (ppm) that a program needs one extra program pulse.
    pub program_error_ppm: u32,
    /// Probability (ppm) that an array op hits a stalled chip.
    pub chip_stall_ppm: u32,
    /// How long a stalled chip delays the op.
    pub chip_stall: Duration,
    /// Probability (ppm) that a channel transfer hits a busy/stalled bus.
    pub channel_stall_ppm: u32,
    /// How long a stalled channel delays the transfer.
    pub channel_stall: Duration,
    /// Engine policy: loads slower than this count as stalled and are
    /// requeued (timeout + requeue-with-backoff).
    pub load_timeout: Duration,
    /// Engine policy: backoff before a requeued load re-issues.
    pub retry_backoff: Duration,
    /// Engine policy: re-issue attempts before degrading to the fallback
    /// path (controller / host re-read from the mapping table).
    pub max_load_attempts: u32,
}

impl FaultProfile {
    /// The default: no injection at all. Costs zero RNG draws and zero
    /// latency everywhere it is consulted.
    pub const fn none() -> FaultProfile {
        FaultProfile {
            name: "none",
            read_error_ppm: 0,
            wear_ppm_per_erase: 0,
            retry_success_pct: 100,
            max_read_retries: 0,
            program_error_ppm: 0,
            chip_stall_ppm: 0,
            chip_stall: Duration::ZERO,
            channel_stall_ppm: 0,
            channel_stall: Duration::ZERO,
            load_timeout: Duration::ZERO,
            retry_backoff: Duration::ZERO,
            max_load_attempts: 0,
        }
    }

    /// A mildly unhealthy device: ~2% of reads retry once or twice, rare
    /// chip/channel stalls. Meant for CI smoke runs — every walk completes
    /// with visibly nonzero retry metrics but little slowdown.
    pub const fn light() -> FaultProfile {
        FaultProfile {
            name: "light",
            read_error_ppm: 20_000,
            wear_ppm_per_erase: 500,
            retry_success_pct: 90,
            max_read_retries: 4,
            program_error_ppm: 5_000,
            chip_stall_ppm: 2_000,
            chip_stall: Duration::micros(200),
            channel_stall_ppm: 2_000,
            channel_stall: Duration::micros(50),
            load_timeout: Duration::millis(2),
            retry_backoff: Duration::micros(100),
            max_load_attempts: 3,
        }
    }

    /// An end-of-life device: 15% raw read errors, weaker per-step
    /// recovery (so ladders run deep and hard-fails actually happen),
    /// frequent stalls. Exercises the full degradation path.
    pub const fn heavy() -> FaultProfile {
        FaultProfile {
            name: "heavy",
            read_error_ppm: 150_000,
            wear_ppm_per_erase: 2_000,
            retry_success_pct: 60,
            max_read_retries: 6,
            program_error_ppm: 30_000,
            chip_stall_ppm: 10_000,
            chip_stall: Duration::micros(500),
            channel_stall_ppm: 10_000,
            channel_stall: Duration::micros(100),
            load_timeout: Duration::millis(1),
            retry_backoff: Duration::micros(200),
            max_load_attempts: 3,
        }
    }

    /// Parse a profile name (`none`, `light`, `heavy`).
    pub fn parse(name: &str) -> Result<FaultProfile, String> {
        match name {
            "none" => Ok(FaultProfile::none()),
            "light" => Ok(FaultProfile::light()),
            "heavy" => Ok(FaultProfile::heavy()),
            other => Err(format!(
                "unknown fault profile '{other}' (expected none, light or heavy)"
            )),
        }
    }

    /// Whether this profile injects anything at all.
    pub fn is_on(&self) -> bool {
        self.read_error_ppm != 0
            || self.program_error_ppm != 0
            || self.chip_stall_ppm != 0
            || self.channel_stall_ppm != 0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// What the injector decided about one array read.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadFault {
    /// Ladder steps taken (0 = clean first sense).
    pub retries: u32,
    /// True when the ladder was exhausted without recovering: the caller
    /// must re-issue or take its degradation path.
    pub hard_fail: bool,
    /// Extra sense latency charged by the ladder (sum of the escalating
    /// steps taken), to be added to the base read latency.
    pub extra: Duration,
}

/// Injection counters, summed into the run report's fault section.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// ECC ladder steps taken across all reads.
    pub read_retries: u64,
    /// Reads that entered the ladder and recovered.
    pub recovered_reads: u64,
    /// Reads that exhausted the ladder (caller degraded or re-issued).
    pub hard_read_fails: u64,
    /// Programs that needed an extra pulse.
    pub program_retries: u64,
    /// Array ops delayed by a stalled chip.
    pub chip_stalls: u64,
    /// Channel transfers delayed by a stalled bus.
    pub channel_stalls: u64,
    /// Total injected stall time (chip + channel), ns.
    pub stall_ns: u64,
    /// Total extra sense/program time charged by retries, ns.
    pub retry_ns: u64,
}

/// Lane-tag space for per-chip fault streams (see
/// [`FaultInjector::chip_rng`]): chip lane `i` draws from
/// `derive_stream_seed(stream_seed, CHIP_LANE_TAG + i)`.
const CHIP_LANE_TAG: u64 = 0x1C_0000;

/// Lane-tag space for per-channel fault streams; disjoint from
/// [`CHIP_LANE_TAG`] so chip `i` and channel `i` never share a stream.
const CHANNEL_LANE_TAG: u64 = 0x2C_0000;

/// The device-level fault injector owned by `fw_nand::Ssd`.
///
/// Holds one RNG stream *per lane* — a lane is a chip (array ops) or a
/// channel (bus transfers) — plus the per-block wear table. Every
/// decision is a pure function of (profile, stream seed, lane, that
/// lane's call sequence): a lane's fault schedule is independent of how
/// ops on *other* lanes interleave with it, so a model change that
/// reorders one chip's or channel's work leaves every other lane's
/// schedule untouched.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    stream_seed: u64,
    /// Per-chip streams, grown lazily; slot `i` seeds from
    /// `derive_stream_seed(stream_seed, CHIP_LANE_TAG + i)`.
    chip_streams: Vec<Option<Xoshiro256pp>>,
    /// Per-channel streams, tag space [`CHANNEL_LANE_TAG`].
    channel_streams: Vec<Option<Xoshiro256pp>>,
    /// Erase count per global block index, grown lazily.
    wear: Vec<u32>,
    stats: FaultStats,
}

const PPM: u64 = 1_000_000;

impl FaultInjector {
    /// An injector that never fires (the default device state).
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultProfile::none(), 0)
    }

    /// Build an injector for `profile`, seeded with a stream seed (derive
    /// it from the engine seed via [`derive_stream_seed`]).
    pub fn new(profile: FaultProfile, stream_seed: u64) -> FaultInjector {
        assert!(
            profile.max_read_retries as usize <= LADDER_PCT.len(),
            "retry ladder has {} steps, profile wants {}",
            LADDER_PCT.len(),
            profile.max_read_retries
        );
        FaultInjector {
            profile,
            stream_seed,
            chip_streams: Vec::new(),
            channel_streams: Vec::new(),
            wear: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// The chip lane's private stream, created on first use.
    fn chip_rng(&mut self, lane: u32) -> &mut Xoshiro256pp {
        let i = lane as usize;
        if i >= self.chip_streams.len() {
            self.chip_streams.resize(i + 1, None);
        }
        self.chip_streams[i].get_or_insert_with(|| {
            Xoshiro256pp::new(derive_stream_seed(
                self.stream_seed,
                CHIP_LANE_TAG + lane as u64,
            ))
        })
    }

    /// The channel lane's private stream, created on first use.
    fn channel_rng(&mut self, lane: u32) -> &mut Xoshiro256pp {
        let i = lane as usize;
        if i >= self.channel_streams.len() {
            self.channel_streams.resize(i + 1, None);
        }
        self.channel_streams[i].get_or_insert_with(|| {
            Xoshiro256pp::new(derive_stream_seed(
                self.stream_seed,
                CHANNEL_LANE_TAG + lane as u64,
            ))
        })
    }

    /// Whether any injection is configured.
    pub fn is_on(&self) -> bool {
        self.profile.is_on()
    }

    /// The active profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decide the fate of an array read of `block` (a global block index,
    /// see `Ppa::block_index`) on chip lane `lane`, whose clean sense
    /// takes `base`.
    pub fn on_read(&mut self, lane: u32, block: usize, base: Duration) -> ReadFault {
        if self.profile.read_error_ppm == 0 {
            return ReadFault::default();
        }
        let wear = self.wear.get(block).copied().unwrap_or(0) as u64;
        let p = (self.profile.read_error_ppm as u64
            + wear * self.profile.wear_ppm_per_erase as u64)
            .min(PPM);
        let retry_success_pct = self.profile.retry_success_pct as u64;
        let max_read_retries = self.profile.max_read_retries;
        let rng = self.chip_rng(lane);
        if rng.next_below(PPM) >= p {
            return ReadFault::default();
        }
        // The default sense failed ECC: climb the retry ladder.
        let mut fault = ReadFault::default();
        let mut recovered = false;
        for step in 0..max_read_retries {
            fault.retries += 1;
            fault.extra += Duration::nanos(base.as_nanos() * LADDER_PCT[step as usize] / 100);
            if rng.next_below(100) < retry_success_pct {
                recovered = true;
                break;
            }
        }
        self.stats.read_retries += fault.retries as u64;
        self.stats.retry_ns += fault.extra.as_nanos();
        if recovered {
            self.stats.recovered_reads += 1;
        } else {
            fault.hard_fail = true;
            self.stats.hard_read_fails += 1;
        }
        fault
    }

    /// Extra latency for a program of `block` on chip lane `lane` whose
    /// clean pulse takes `base` (a failed verify costs one full extra
    /// pulse).
    pub fn on_program(&mut self, lane: u32, block: usize, base: Duration) -> Duration {
        if self.profile.program_error_ppm == 0 {
            return Duration::ZERO;
        }
        let wear = self.wear.get(block).copied().unwrap_or(0) as u64;
        let p = (self.profile.program_error_ppm as u64
            + wear * self.profile.wear_ppm_per_erase as u64)
            .min(PPM);
        if self.chip_rng(lane).next_below(PPM) >= p {
            return Duration::ZERO;
        }
        self.stats.program_retries += 1;
        self.stats.retry_ns += base.as_nanos();
        base
    }

    /// Account an erase of `block` in the wear table.
    pub fn on_erase(&mut self, block: usize) {
        if !self.profile.is_on() {
            return;
        }
        if block >= self.wear.len() {
            self.wear.resize(block + 1, 0);
        }
        self.wear[block] += 1;
    }

    /// Draw a chip stall for one array op on chip lane `lane`.
    pub fn chip_stall(&mut self, lane: u32) -> Option<Duration> {
        if self.profile.chip_stall_ppm == 0 {
            return None;
        }
        let ppm = self.profile.chip_stall_ppm as u64;
        if self.chip_rng(lane).next_below(PPM) >= ppm {
            return None;
        }
        self.stats.chip_stalls += 1;
        self.stats.stall_ns += self.profile.chip_stall.as_nanos();
        Some(self.profile.chip_stall)
    }

    /// Draw a channel stall for one bus transfer on channel lane `lane`.
    pub fn channel_stall(&mut self, lane: u32) -> Option<Duration> {
        if self.profile.channel_stall_ppm == 0 {
            return None;
        }
        let ppm = self.profile.channel_stall_ppm as u64;
        if self.channel_rng(lane).next_below(PPM) >= ppm {
            return None;
        }
        self.stats.channel_stalls += 1;
        self.stats.stall_ns += self.profile.channel_stall.as_nanos();
        Some(self.profile.channel_stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A profile where every read errors and no ladder step ever
    /// recovers: the deterministic way to exercise hard-fail paths.
    fn always_fail() -> FaultProfile {
        FaultProfile {
            name: "always-fail",
            read_error_ppm: PPM as u32,
            retry_success_pct: 0,
            max_read_retries: 3,
            ..FaultProfile::none()
        }
    }

    #[test]
    fn disabled_injector_is_free_and_stateless() {
        let mut a = FaultInjector::disabled();
        for b in 0..100 {
            let f = a.on_read(b as u32 % 4, b, Duration::micros(35));
            assert_eq!(f.retries, 0);
            assert!(!f.hard_fail);
            assert_eq!(f.extra, Duration::ZERO);
            assert_eq!(
                a.on_program(b as u32 % 4, b, Duration::micros(350)),
                Duration::ZERO
            );
            assert!(a.chip_stall(b as u32 % 4).is_none());
            assert!(a.channel_stall(b as u32 % 2).is_none());
            a.on_erase(b);
        }
        // No RNG draws at all: no lane stream was even created, which is
        // the property that keeps fault-free runs byte-identical.
        assert!(a.chip_streams.iter().all(Option::is_none));
        assert!(a.channel_streams.iter().all(Option::is_none));
        assert_eq!(a.stats().read_retries, 0);
    }

    #[test]
    fn same_seed_replays_identical_fault_schedule() {
        let mut a = FaultInjector::new(FaultProfile::heavy(), 99);
        let mut b = FaultInjector::new(FaultProfile::heavy(), 99);
        for blk in 0..2000usize {
            let lane = (blk % 5) as u32;
            let fa = a.on_read(lane, blk % 7, Duration::micros(35));
            let fb = b.on_read(lane, blk % 7, Duration::micros(35));
            assert_eq!(fa.retries, fb.retries);
            assert_eq!(fa.hard_fail, fb.hard_fail);
            assert_eq!(fa.extra, fb.extra);
            assert_eq!(a.chip_stall(lane), b.chip_stall(lane));
        }
        assert_eq!(a.stats().read_retries, b.stats().read_retries);
        assert!(a.stats().read_retries > 0, "heavy profile must retry");
    }

    /// The lane-independence property: a lane's fault schedule is a function of
    /// that lane's own op sequence only. Replaying the same per-lane op
    /// sequences under a *different cross-lane interleave* must produce
    /// the exact same per-lane verdicts.
    #[test]
    fn lane_schedules_are_invariant_under_cross_lane_interleave() {
        let run = |interleaved: bool| {
            let mut inj = FaultInjector::new(FaultProfile::heavy(), 7);
            let mut per_lane: Vec<Vec<(u32, bool, Duration)>> = vec![Vec::new(); 3];
            if interleaved {
                // Round-robin across lanes: lane k sees ops 0..200 in order.
                for op in 0..200usize {
                    for lane in 0..3u32 {
                        let f = inj.on_read(lane, op % 11, Duration::micros(35));
                        per_lane[lane as usize].push((f.retries, f.hard_fail, f.extra));
                        let _ = inj.chip_stall(lane);
                        let _ = inj.channel_stall(lane);
                    }
                }
            } else {
                // Lane-major: each lane runs its whole sequence back to back.
                for lane in 0..3u32 {
                    for op in 0..200usize {
                        let f = inj.on_read(lane, op % 11, Duration::micros(35));
                        per_lane[lane as usize].push((f.retries, f.hard_fail, f.extra));
                        let _ = inj.chip_stall(lane);
                        let _ = inj.channel_stall(lane);
                    }
                }
            }
            per_lane
        };
        assert_eq!(run(true), run(false));
    }

    /// Distinct lanes (and the chip vs channel tag spaces) draw from
    /// statistically independent streams, not a shared one.
    #[test]
    fn lanes_draw_from_distinct_streams() {
        let mut inj = FaultInjector::new(FaultProfile::heavy(), 13);
        let seq = |inj: &mut FaultInjector, lane: u32| -> Vec<u32> {
            (0..500)
                .map(|op| inj.on_read(lane, op % 11, Duration::micros(35)).retries)
                .collect()
        };
        let lane0 = seq(&mut inj, 0);
        let lane1 = seq(&mut inj, 1);
        assert_ne!(lane0, lane1, "per-chip streams must differ");
    }

    #[test]
    fn ladder_escalates_and_hard_fails_after_max_steps() {
        let mut inj = FaultInjector::new(always_fail(), 1);
        let base = Duration::micros(35);
        let f = inj.on_read(0, 0, base);
        assert_eq!(f.retries, 3);
        assert!(f.hard_fail);
        // Extra = base * (100 + 130 + 170) / 100.
        assert_eq!(f.extra, Duration::nanos(35_000 * 400 / 100));
        assert_eq!(inj.stats().hard_read_fails, 1);
        assert_eq!(inj.stats().read_retries, 3);
        assert_eq!(inj.stats().recovered_reads, 0);
    }

    #[test]
    fn wear_raises_read_error_rate() {
        let profile = FaultProfile {
            name: "wear-test",
            read_error_ppm: 1_000,
            wear_ppm_per_erase: 50_000,
            retry_success_pct: 100,
            max_read_retries: 1,
            ..FaultProfile::none()
        };
        let trials = 20_000;
        let mut fresh = FaultInjector::new(profile, 7);
        let fresh_errs: u64 = (0..trials)
            .map(|_| fresh.on_read(0, 0, Duration::micros(35)).retries as u64)
            .sum();
        let mut worn = FaultInjector::new(profile, 7);
        for _ in 0..10 {
            worn.on_erase(0);
        }
        let worn_errs: u64 = (0..trials)
            .map(|_| worn.on_read(0, 0, Duration::micros(35)).retries as u64)
            .sum();
        // 0.1% base vs 50.1% after ten erases.
        assert!(
            worn_errs > fresh_errs * 20,
            "worn {worn_errs} vs fresh {fresh_errs}"
        );
    }

    #[test]
    fn error_probability_saturates_at_certainty() {
        let profile = FaultProfile {
            name: "saturate",
            read_error_ppm: 900_000,
            wear_ppm_per_erase: 900_000,
            retry_success_pct: 100,
            max_read_retries: 1,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 3);
        for _ in 0..5 {
            inj.on_erase(0);
        }
        for _ in 0..100 {
            assert_eq!(inj.on_read(0, 0, Duration::micros(35)).retries, 1);
        }
    }

    #[test]
    fn profile_parse_round_trips_presets() {
        for name in ["none", "light", "heavy"] {
            let p = FaultProfile::parse(name).unwrap();
            assert_eq!(p.name, name);
        }
        assert!(FaultProfile::parse("ruinous").is_err());
        assert!(!FaultProfile::none().is_on());
        assert!(FaultProfile::light().is_on());
        assert!(FaultProfile::heavy().is_on());
    }

    #[test]
    fn fault_stream_diverges_from_walk_rng() {
        // The injector stream must not replay the walk RNG's sequence.
        let mut walk = Xoshiro256pp::new(42);
        let mut inj = Xoshiro256pp::new(derive_stream_seed(42, FAULT_STREAM));
        let w: Vec<u64> = (0..8).map(|_| walk.next_u64()).collect();
        let i: Vec<u64> = (0..8).map(|_| inj.next_u64()).collect();
        assert_ne!(w, i);
    }

    #[test]
    fn stall_draws_follow_configured_rates() {
        let mut inj = FaultInjector::new(FaultProfile::heavy(), 11);
        let n = 100_000;
        let stalls = (0..n).filter(|_| inj.chip_stall(0).is_some()).count();
        // 1% ppm rate: expect ~1000, accept a loose band.
        assert!((500..2000).contains(&stalls), "{stalls} stalls");
        assert_eq!(inj.stats().chip_stalls as usize, stalls);
        assert_eq!(
            inj.stats().stall_ns,
            stalls as u64 * Duration::micros(500).as_nanos()
        );
    }
}
