#![warn(missing_docs)]

//! `fw-dram` — a DDR4 timing model for the SSD's on-board DRAM.
//!
//! The paper models the on-board DRAM with DRAMSim3 using the Table III
//! parameters: DDR4 at 1600 MHz (3200 MT/s), 4 GB, one channel, 16-bit
//! chips on a 64-bit bus, burst length 8, tCL/tRCD/tRP = 22 and tRAS = 52
//! DRAM clocks. FlashWalker keeps the partition walk buffer and spilled
//! mapping state in this DRAM, so its latency and bus occupancy gate how
//! fast the board-level accelerator can absorb roving walks.
//!
//! The model is a bank-state machine: each bank remembers its open row, a
//! request decomposes into 64-byte bursts, and every burst pays
//!
//! * **row hit** — tCL,
//! * **row closed** — tRCD + tCL,
//! * **row conflict** — tRP + tRCD + tCL (respecting tRAS since the
//!   previous activate),
//!
//! then occupies the shared data bus for BL/2 clocks. Banks prepare rows in
//! parallel; the 64-bit data bus is the serialization point, exactly the
//! structure DRAMSim3 enforces.

pub mod config;

pub use config::DramConfig;

use fw_sim::{BandwidthLink, Duration, SimTime, Timeline, TraceConfig, Tracer};

/// Read or write — writes additionally hold the bank to model write
/// recovery; reads dominate in every FlashWalker workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramOp {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    ready: Timeline,
    /// Earliest time the open row may be precharged (activate + tRAS).
    precharge_ok: SimTime,
    /// Refresh windows already charged to this bank (monotone counter of
    /// tREFI periods).
    refreshed_through: u64,
}

/// Completion summary of one DRAM access.
#[derive(Debug, Clone, Copy)]
pub struct DramAccess {
    /// When the last burst's data finished on the bus.
    pub done: SimTime,
    /// Bursts that hit an open row.
    pub row_hits: u32,
    /// Bursts that needed an activate (closed or conflicting row).
    pub row_misses: u32,
}

/// One channel of DDR4 with per-bank row state and a shared data bus.
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus: BandwidthLink,
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
    refreshes: u64,
    tracer: Tracer,
    /// The earliest time any later access may name (see
    /// [`Dram::set_floor`]).
    floor: SimTime,
}

impl Dram {
    /// Build a DRAM channel from a configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let banks = vec![Bank::default(); cfg.banks as usize];
        let bus = BandwidthLink::new(cfg.peak_bandwidth());
        let mut dram = Dram {
            cfg,
            banks,
            bus,
            reads: 0,
            writes: 0,
            read_bytes: 0,
            write_bytes: 0,
            refreshes: 0,
            tracer: Tracer::disabled(),
            floor: SimTime::ZERO,
        };
        dram.reset();
        dram
    }

    /// Return the channel to the state [`Self::new`] builds, keeping the
    /// banks' and the bus's allocations: every bank closed, idle and
    /// unrefreshed, the bus idle, the counters zero, the span tracer off
    /// and the floor back at `t = 0`.
    pub fn reset(&mut self) {
        for bank in &mut self.banks {
            bank.open_row = None;
            bank.ready.reset();
            bank.precharge_ok = SimTime::ZERO;
            bank.refreshed_through = 0;
        }
        self.bus.reset();
        self.reads = 0;
        self.writes = 0;
        self.read_bytes = 0;
        self.write_bytes = 0;
        self.refreshes = 0;
        self.tracer = Tracer::disabled();
        self.floor = SimTime::ZERO;
    }

    /// Promise that no later access starts before `floor`, so the bank
    /// and bus timelines drop the intervals that end by the earliest time
    /// they can still be asked for (see [`fw_sim::Timeline::reserve`]).
    /// The bus is booked at or after the access time. A bank is also
    /// booked for the refresh window of the access's tREFI period, which
    /// starts up to one tREFI before the access, so a bank's floor is
    /// `floor` minus one tREFI. The floor never moves back.
    pub fn set_floor(&mut self, floor: SimTime) {
        debug_assert!(floor >= self.floor, "floor moved back to {floor:?}");
        self.floor = floor;
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Enable span-based tracing. Span names: `dram.access` (lane = 0,
    /// request issue to last data beat, with bytes) and `dram.bank`
    /// (aggregate-only per-bank occupancy, lane = bank).
    pub fn enable_span_trace(&mut self, cfg: TraceConfig) {
        self.tracer = Tracer::enabled(cfg);
    }

    /// Take the DRAM's tracer (leaving a disabled one behind) so the
    /// engine can fold it into its own tracer at end of run.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.tracer, Tracer::disabled())
    }

    /// Perform an access of `bytes` at `addr`, starting no earlier than
    /// `at`. Returns when the data has fully crossed the bus.
    pub fn access(&mut self, at: SimTime, addr: u64, bytes: u32, op: DramOp) -> DramAccess {
        debug_assert!(bytes > 0, "zero-length DRAM access");
        match op {
            DramOp::Read => {
                self.reads += 1;
                self.read_bytes += bytes as u64;
            }
            DramOp::Write => {
                self.writes += 1;
                self.write_bytes += bytes as u64;
            }
        }

        debug_assert!(at >= self.floor, "access at {at:?} before the floor");
        let bank_floor = SimTime(self.floor.as_nanos().saturating_sub(self.cfg.trefi_ns));
        let burst = self.cfg.burst_bytes();
        let mut cursor = addr;
        let mut remaining = bytes as u64;
        let mut done = at;
        let mut row_hits = 0;
        let mut row_misses = 0;

        while remaining > 0 {
            let chunk = remaining.min(burst - (cursor % burst));
            let (bank_idx, row) = self.cfg.map(cursor);
            let bank = &mut self.banks[bank_idx];

            // Refresh: all-bank refresh fires every tREFI and holds the
            // bank for tRFC; charge any periods that elapsed since this
            // bank's last charged window (closing its row).
            let period = at.as_nanos() / self.cfg.trefi_ns;
            if period > bank.refreshed_through {
                let start = period * self.cfg.trefi_ns;
                bank.ready.reserve(
                    SimTime(start),
                    Duration::nanos(self.cfg.trfc_ns),
                    bank_floor,
                );
                bank.refreshed_through = period;
                bank.open_row = None;
                self.refreshes += 1;
            }

            // Bank occupancy for this burst. CAS latency (tCL) is a
            // pipelined delay, not occupancy: consecutive hits to an open
            // row issue back-to-back every tCCD (one burst gap) while their
            // data arrives tCL later — this is what lets DDR4 stream at the
            // bus rate. Activates and precharges do occupy the bank.
            let (occupancy, hit) = match bank.open_row {
                Some(r) if r == row => (self.cfg.t_ccd(), true),
                Some(_) => {
                    // Must precharge (after tRAS) then activate.
                    (self.cfg.t_rp() + self.cfg.t_rcd() + self.cfg.t_ccd(), false)
                }
                None => (self.cfg.t_rcd() + self.cfg.t_ccd(), false),
            };
            if hit {
                row_hits += 1;
            } else {
                row_misses += 1;
            }

            // The bank may not start the precharge before tRAS expires.
            let earliest = if hit { at } else { at.max(bank.precharge_ok) };
            let bank_res = bank.ready.reserve(earliest, occupancy, bank_floor);
            if !hit {
                bank.open_row = Some(row);
                bank.precharge_ok = bank_res.end + self.cfg.t_ras();
            }
            self.tracer
                .busy("dram.bank", bank_idx as u32, bank_res.start, bank_res.end);

            // Data crosses the shared bus tCL after the column command.
            let bus_res = self
                .bus
                .transfer(bank_res.end + self.cfg.t_cl(), chunk, self.floor);
            done = done.max(bus_res.end);

            cursor += chunk;
            remaining -= chunk;
        }

        self.tracer
            .span_bytes("dram.access", 0, at, done.max(at), bytes as u64);

        DramAccess {
            done,
            row_hits,
            row_misses,
        }
    }

    /// Total bytes read since construction.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Total bytes written since construction.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Number of read and write requests served.
    pub fn requests(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Refresh windows charged so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::ddr4_1600())
    }

    #[test]
    fn paper_config_latencies() {
        let cfg = DramConfig::ddr4_1600();
        // tCK = 0.625 ns at 1600 MHz clock; tCL = 22 clocks = 13.75 ns,
        // floored to 13 ns at the simulator's 1 ns resolution.
        assert_eq!(cfg.t_cl().as_nanos(), 13);
        assert_eq!(cfg.t_ras().as_nanos(), 32);
        // Peak bandwidth: 3200 MT/s * 8 B = 25.6 GB/s
        assert_eq!(cfg.peak_bandwidth(), 25_600_000_000);
        assert_eq!(cfg.burst_bytes(), 64);
    }

    #[test]
    fn first_access_misses_then_hits_same_row() {
        let mut d = dram();
        let a = d.access(SimTime::ZERO, 0, 64, DramOp::Read);
        assert_eq!(a.row_misses, 1);
        let b = d.access(a.done, 64, 64, DramOp::Read);
        assert_eq!(b.row_hits, 1);
        assert!(b.done > a.done);
    }

    #[test]
    fn row_conflict_costs_more_than_hit() {
        let mut d = dram();
        let cfg = *d.config();
        // Two rows in the same bank: bank stride is one row.
        let same_bank_other_row = cfg.row_bytes() * cfg.banks as u64;
        let a = d.access(SimTime::ZERO, 0, 64, DramOp::Read);
        let hit_start = a.done;
        let b = d.access(hit_start, 64, 64, DramOp::Read); // hit
        let hit_lat = b.done - hit_start;
        let conf_start = b.done;
        let c = d.access(conf_start, same_bank_other_row, 64, DramOp::Read); // conflict
        let conf_lat = c.done - conf_start;
        assert!(
            conf_lat > hit_lat,
            "conflict {conf_lat:?} <= hit {hit_lat:?}"
        );
    }

    #[test]
    fn large_access_spans_bursts_and_accounts_bytes() {
        let mut d = dram();
        let a = d.access(SimTime::ZERO, 0, 4096, DramOp::Write);
        assert_eq!(a.row_hits + a.row_misses, 64); // 4096/64 bursts
        assert_eq!(d.write_bytes(), 4096);
        assert_eq!(d.requests(), (0, 1));
    }

    #[test]
    fn streaming_read_approaches_peak_bandwidth() {
        let mut d = dram();
        let total: u64 = 1 << 20; // 1 MiB sequential
        let mut t = SimTime::ZERO;
        let mut addr = 0u64;
        while addr < total {
            let a = d.access(t, addr, 4096, DramOp::Read);
            t = a.done;
            addr += 4096;
        }
        let achieved = total as f64 / t.as_secs_f64();
        let peak = d.config().peak_bandwidth() as f64;
        // Sequential streaming with row hits should land within 2x of peak.
        assert!(
            achieved > peak * 0.5,
            "achieved {achieved:.2e} vs peak {peak:.2e}"
        );
    }

    #[test]
    fn refresh_closes_rows_and_charges_trfc() {
        let mut d = dram();
        // Open a row in bank 0, then access the same row after a tREFI
        // boundary: the refresh must have closed it (miss, not hit).
        let a = d.access(SimTime::ZERO, 0, 64, DramOp::Read);
        assert_eq!(a.row_misses, 1);
        let late = SimTime(d.config().trefi_ns * 3 + 100);
        let b = d.access(late, 0, 64, DramOp::Read);
        assert_eq!(b.row_misses, 1, "refresh closed the open row");
        assert!(d.refreshes() >= 1);
    }

    #[test]
    fn span_trace_accounts_bytes_and_banks() {
        let mut d = dram();
        d.enable_span_trace(TraceConfig::default());
        d.access(SimTime::ZERO, 0, 4096, DramOp::Read);
        d.access(SimTime(10_000), 4096, 256, DramOp::Write);
        let tr = d.take_tracer();
        assert_eq!(
            tr.bytes_for("dram.access"),
            d.read_bytes() + d.write_bytes()
        );
        assert!(tr.busy_ns_for("dram.bank") > 0);
        // Disabled after take: further accesses record nothing.
        d.access(SimTime(20_000), 0, 64, DramOp::Read);
        assert_eq!(d.take_tracer().bytes_for("dram.access"), 0);
    }

    #[test]
    fn a_floor_at_the_clock_leaves_every_access_unchanged() {
        // One DRAM told the clock at every step, one never told: the
        // first prunes its bank and bus timelines down to what the floor
        // (less one tREFI for banks) can still reach, and every access
        // must come out the same. The clock crosses hundreds of refresh
        // periods, so refresh windows are booked up to one tREFI behind
        // the floor.
        let mut pruned = dram();
        let mut reference = dram();
        let mut rng = fw_sim::Xoshiro256pp::new(31);
        let mut now = SimTime::ZERO;
        for step in 0..20_000 {
            now += Duration::nanos(rng.next_below(400));
            pruned.set_floor(now);
            let at = now + Duration::nanos(rng.next_below(2_000));
            let addr = rng.next_below(1 << 24);
            let bytes = 1 + rng.next_below(4096) as u32;
            let op = if rng.next_below(2) == 0 {
                DramOp::Read
            } else {
                DramOp::Write
            };
            let (a, b) = (
                pruned.access(at, addr, bytes, op),
                reference.access(at, addr, bytes, op),
            );
            assert_eq!(
                (a.done, a.row_hits, a.row_misses),
                (b.done, b.row_hits, b.row_misses),
                "step {step}"
            );
        }
        assert!(now.as_nanos() > 500 * pruned.config().trefi_ns);
        assert_eq!(pruned.refreshes(), reference.refreshes());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the floor")]
    fn an_access_before_the_floor_is_caught() {
        let mut d = dram();
        d.set_floor(SimTime(1_000));
        d.access(SimTime(999), 0, 64, DramOp::Read);
    }

    #[test]
    fn bank_mapping_interleaves() {
        let cfg = DramConfig::ddr4_1600();
        let (b0, _) = cfg.map(0);
        let (b1, _) = cfg.map(cfg.row_bytes());
        assert_ne!(b0, b1, "adjacent rows land in different banks");
    }
}
