//! The SSD device model: flash array resources, channel buses, the PCIe
//! host link, and the timing of every operation both engines issue.
//!
//! All methods take the requester's current simulated time and return when
//! the operation completes, reserving the underlying resources in the
//! process (see [`fw_sim::Timeline`] for the queueing semantics). The
//! device never runs its own event loop — the engines drive it — which
//! keeps cross-engine comparisons exact: identical requests contend for
//! identical resources.

use fw_fault::{FaultInjector, FaultProfile, FaultStats, ReadFault};
use fw_sim::timeline::Reservation;
use fw_sim::JourneyEventKind::EccRetry;
use fw_sim::{BandwidthLink, Duration, Probe, ServerBank, SimTime, Timeline, TraceConfig, Tracer};

use crate::address::Ppa;
use crate::config::SsdConfig;
use crate::ftl::{Ftl, GcOp, Lpn};
use crate::trace::SsdTrace;

/// Aggregate operation counters, used for the Figure 6 traffic numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsdStats {
    /// Pages read from the flash arrays.
    pub array_reads: u64,
    /// Pages programmed.
    pub array_programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Bytes moved over channel buses (both directions).
    pub channel_bytes: u64,
    /// Bytes moved over the PCIe host link (both directions).
    pub pcie_bytes: u64,
    /// Channel transfers issued.
    pub channel_transfers: u64,
    /// Cumulative queueing delay experienced by channel transfers (ns).
    pub channel_wait_ns: u64,
}

impl SsdStats {
    /// Bytes read from the flash arrays.
    pub fn array_read_bytes(&self, cfg: &SsdConfig) -> u64 {
        self.array_reads * cfg.geometry.page_bytes
    }

    /// Bytes programmed into the flash arrays.
    pub fn array_write_bytes(&self, cfg: &SsdConfig) -> u64 {
        self.array_programs * cfg.geometry.page_bytes
    }
}

/// The device: geometry-indexed resource timelines plus the FTL.
pub struct Ssd {
    cfg: SsdConfig,
    /// One timeline per plane: serializes array ops on that plane.
    planes: Vec<Timeline>,
    /// Four array ports per chip (one bank per chip): caps concurrent
    /// plane ops per chip.
    chip_ports: ServerBank,
    /// One ONFI bus per channel.
    channels: Vec<BandwidthLink>,
    /// The host link.
    pcie: BandwidthLink,
    ftl: Ftl,
    stats: SsdStats,
    trace: Option<SsdTrace>,
    tracer: Tracer,
    /// Fault injector; disabled by default, in which case it draws no
    /// randomness and adds no latency anywhere.
    fault: FaultInjector,
    /// The earliest time any later request may name (see
    /// [`Ssd::set_floor`]).
    floor: SimTime,
}

impl Ssd {
    /// Build a device, reserving the first `static_blocks_per_plane`
    /// blocks of every plane for the preconditioned graph region (the FTL
    /// only allocates above them).
    ///
    /// # Panics
    /// Panics if the static region leaves fewer than 2 dynamic blocks per
    /// plane.
    pub fn new(cfg: SsdConfig, static_blocks_per_plane: u32) -> Self {
        let g = cfg.geometry;
        let ftl = Ftl::new(g, static_blocks_per_plane, cfg.gc_threshold_blocks);
        let mut ssd = Ssd {
            cfg,
            // Built element by element: cloning a template runs the
            // `VecDeque` clone once per plane, several times slower.
            planes: std::iter::repeat_with(Timeline::new)
                .take(g.num_planes() as usize)
                .collect(),
            chip_ports: ServerBank::new(g.num_chips() as usize, cfg.array_ports_per_chip as usize),
            channels: std::iter::repeat_with(|| BandwidthLink::new(cfg.channel_rate))
                .take(g.channels as usize)
                .collect(),
            pcie: BandwidthLink::new(cfg.pcie_rate),
            ftl,
            stats: SsdStats::default(),
            trace: None,
            tracer: Tracer::disabled(),
            fault: FaultInjector::disabled(),
            floor: SimTime::ZERO,
        };
        ssd.reset();
        ssd
    }

    /// Return the device to the state [`Self::new`] builds, keeping
    /// every allocation of its resource timelines and FTL: every
    /// resource idle from `t = 0`, the dynamic region unmapped, the
    /// counters zero, the window trace, span tracer and fault injector
    /// off, and the floor back at `t = 0`.
    pub fn reset(&mut self) {
        self.planes.iter_mut().for_each(Timeline::reset);
        self.chip_ports.reset();
        self.channels.iter_mut().for_each(BandwidthLink::reset);
        self.pcie.reset();
        self.ftl.reset();
        self.stats = SsdStats::default();
        self.trace = None;
        self.tracer = Tracer::disabled();
        self.fault = FaultInjector::disabled();
        self.floor = SimTime::ZERO;
    }

    /// Promise that no later request names a time before `floor`. Every
    /// resource timeline then drops the intervals that end by it (see
    /// [`fw_sim::Timeline::reserve`]), which keeps each one as short as
    /// the bookings still ahead of the engine. Engines call this with
    /// their clock at every event: every operation starts at or after the
    /// time it is issued, and its internal steps (the channel transfer
    /// after a read, a GC copy) only later. The floor never moves back.
    pub fn set_floor(&mut self, floor: SimTime) {
        debug_assert!(floor >= self.floor, "floor moved back to {floor:?}");
        self.floor = floor;
    }

    /// Enable fault injection under `profile`, seeded with an independent
    /// stream seed (engines derive it from their run seed via
    /// [`fw_fault::derive_stream_seed`]). Enabling the all-off
    /// [`FaultProfile::none`] profile is equivalent to the default.
    pub fn enable_faults(&mut self, profile: FaultProfile, stream_seed: u64) {
        self.fault = FaultInjector::new(profile, stream_seed);
    }

    /// The active fault profile.
    pub fn fault_profile(&self) -> &FaultProfile {
        self.fault.profile()
    }

    /// Fault-injection counters accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.stats()
    }

    /// Enable windowed bandwidth tracing (Figure 8).
    pub fn enable_trace(&mut self, window_ns: u64) {
        self.trace = Some(SsdTrace::new(window_ns));
    }

    /// The trace collected so far, if tracing was enabled.
    pub fn trace(&self) -> Option<&SsdTrace> {
        self.trace.as_ref()
    }

    /// Enable span-based tracing of every flash, channel and PCIe
    /// operation. Span names: `flash.read` / `flash.program` /
    /// `flash.erase` (lane = chip), `plane` (aggregate-only, lane =
    /// plane), `channel.bus` (lane = channel), `pcie` (lane = 0).
    pub fn enable_span_trace(&mut self, cfg: TraceConfig) {
        self.tracer = Tracer::enabled(cfg);
    }

    /// Take the device's tracer (leaving a disabled one behind) so the
    /// engine can fold it into its own tracer at end of run.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.tracer, Tracer::disabled())
    }

    /// Device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// The FTL (for write-amplification reporting and trims).
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Read one page from the array into its plane's page register: the
    /// one NAND sense behind every read path of both engines.
    ///
    /// This occupies only the plane and a chip array port — **not** the
    /// channel bus. It is the chip-level accelerator's private access path.
    ///
    /// Under fault injection the ECC retry ladder's escalating sense
    /// latencies are charged into the reservation, and the injector's
    /// verdict comes back with it: a read that ran its ladder dry is the
    /// caller's to re-issue or degrade ([`Ssd::recover_read`]).
    #[must_use]
    pub fn read_page(&mut self, at: SimTime, ppa: Ppa) -> (Reservation, ReadFault) {
        let fault = self.fault.on_read(
            ppa.chip_index(&self.cfg.geometry) as u32,
            ppa.block_index(&self.cfg.geometry),
            self.cfg.read_latency,
        );
        let res = self.array_op(
            at,
            ppa,
            self.cfg.read_latency + fault.extra,
            ArrayOpKind::Read,
        );
        if fault.retries > 0 {
            self.tracer
                .record("fault.read_retries", fault.retries as u64);
        }
        (res, fault)
    }

    /// [`Ssd::read_page`] for a read a walk waits on: the read's
    /// retry-ladder time also goes to `probe` as an ECC-retry segment on
    /// the page's plane lane ([`Ppa::plane_index`]), so two same-timed
    /// reads on different planes stay distinct segments.
    #[must_use]
    pub fn read_page_recorded(
        &mut self,
        at: SimTime,
        ppa: Ppa,
        probe: &mut Probe,
    ) -> (Reservation, ReadFault) {
        let (r, fault) = self.read_page(at, ppa);
        if fault.extra > Duration::ZERO {
            let lane = ppa.plane_index(&self.cfg.geometry) as u32;
            probe.segment(EccRetry, lane, r.end - fault.extra, r.end);
        }
        (r, fault)
    }

    /// The recovery loop for a walk's page read whose ECC ladder ran dry
    /// at `failed_at`: re-read with backoff `retry_backoff << attempt` up
    /// to the fault profile's `max_load_attempts`, then take one degraded
    /// read whose stronger decode always recovers. Every read is recorded
    /// as [`Ssd::read_page_recorded`] records it. Returns when the last
    /// read ended, the re-reads issued and whether the page degraded.
    #[must_use]
    pub fn recover_read(
        &mut self,
        ppa: Ppa,
        failed_at: SimTime,
        probe: &mut Probe,
    ) -> (SimTime, u32, bool) {
        let profile = *self.fault.profile();
        let budget = profile.max_load_attempts.saturating_sub(1);
        let mut end = failed_at;
        for attempt in 0..budget {
            let backoff = Duration::nanos(profile.retry_backoff.as_nanos() << attempt);
            let (r, fault) = self.read_page_recorded(end + backoff, ppa, probe);
            end = r.end;
            if !fault.hard_fail {
                return (end, attempt + 1, false);
            }
        }
        // The degraded read's verdict is absorbed by its stronger decode.
        let (r, _) = self.read_page_recorded(end, ppa, probe);
        (r.end, budget, true)
    }

    /// Program one page from its plane's register into the array.
    pub fn array_program(&mut self, at: SimTime, ppa: Ppa) -> Reservation {
        let extra = self.fault.on_program(
            ppa.chip_index(&self.cfg.geometry) as u32,
            ppa.block_index(&self.cfg.geometry),
            self.cfg.program_latency,
        );
        self.array_op(
            at,
            ppa,
            self.cfg.program_latency + extra,
            ArrayOpKind::Program,
        )
    }

    /// Erase the block containing `ppa`.
    pub fn array_erase(&mut self, at: SimTime, ppa: Ppa) -> Reservation {
        self.fault.on_erase(ppa.block_index(&self.cfg.geometry));
        self.array_op(at, ppa, self.cfg.erase_latency, ArrayOpKind::Erase)
    }

    /// Move `bytes` over `channel`'s bus (either direction), starting no
    /// earlier than `at`. Used for register→controller page transfers,
    /// accelerator command/walk traffic, and controller→register writes.
    pub fn channel_transfer(&mut self, at: SimTime, channel: u32, bytes: u64) -> Reservation {
        let at = match self.fault.channel_stall(channel) {
            Some(stall) => {
                self.tracer
                    .span("fault.channel_stall", channel, at, at + stall);
                at + stall
            }
            None => at,
        };
        let res = self.channels[channel as usize].transfer(
            at + self.cfg.channel_cmd_overhead,
            bytes,
            self.floor,
        );
        self.stats.channel_bytes += bytes;
        self.stats.channel_transfers += 1;
        self.stats.channel_wait_ns += res
            .wait_since(at + self.cfg.channel_cmd_overhead)
            .as_nanos();
        if let Some(t) = &mut self.trace {
            t.record_channel(res.start, res.end, bytes);
        }
        self.tracer
            .span_bytes("channel.bus", channel, res.start, res.end, bytes);
        res
    }

    /// Move `bytes` over the PCIe link (either direction).
    pub fn pcie_transfer(&mut self, at: SimTime, bytes: u64) -> Reservation {
        let res = self.pcie.transfer(at, bytes, self.floor);
        self.stats.pcie_bytes += bytes;
        self.tracer.span_bytes("pcie", 0, res.start, res.end, bytes);
        res
    }

    /// Full conventional read path for one page: array read, then channel
    /// transfer of the page to the controller. Returns when the page is in
    /// controller DRAM, and the array read's fault.
    #[must_use]
    pub fn read_page_to_controller(&mut self, at: SimTime, ppa: Ppa) -> (Reservation, ReadFault) {
        let (rd, fault) = self.read_page(at, ppa);
        let ch = self.channel_transfer(rd.end, ppa.channel, self.cfg.geometry.page_bytes);
        (Reservation { end: ch.end, ..rd }, fault)
    }

    /// Full conventional write path for one page: channel transfer of the
    /// page to the chip's register, then program.
    pub fn write_page_from_controller(&mut self, at: SimTime, ppa: Ppa) -> Reservation {
        let ch = self.channel_transfer(at, ppa.channel, self.cfg.geometry.page_bytes);
        let pg = self.array_program(ch.end, ppa);
        Reservation { end: pg.end, ..ch }
    }

    /// Host read of `pages` physical pages (NVMe command → array reads →
    /// channel transfers → PCIe DMA). Pages proceed in parallel across
    /// their planes/channels; the PCIe DMA of each page is issued as soon
    /// as that page reaches the controller. Returns when the last byte
    /// lands in host memory, and the pages' faults summed: every ladder
    /// step and its sense time, hard-failed if any page's ladder ran dry.
    #[must_use]
    pub fn host_read_pages(&mut self, at: SimTime, pages: &[Ppa]) -> (SimTime, ReadFault) {
        let start = at + self.cfg.nvme_cmd_overhead;
        let mut done = start;
        let mut sum = ReadFault::default();
        for &ppa in pages {
            let (in_controller, fault) = self.read_page_to_controller(start, ppa);
            let dma = self.pcie_transfer(in_controller.end, self.cfg.geometry.page_bytes);
            done = done.max(dma.end);
            sum.retries += fault.retries;
            sum.hard_fail |= fault.hard_fail;
            sum.extra += fault.extra;
        }
        (done, sum)
    }

    /// Host write of `lpns` logical pages through the FTL (NVMe command →
    /// PCIe DMA in → channel transfers → programs, plus any GC work).
    /// Returns when the last program (including GC) finishes.
    pub fn host_write_lpns(&mut self, at: SimTime, lpns: &[Lpn]) -> SimTime {
        let start = at + self.cfg.nvme_cmd_overhead;
        let mut done = start;
        for &lpn in lpns {
            let dma = self.pcie_transfer(start, self.cfg.geometry.page_bytes);
            let end = self.ftl_write_page(dma.end, lpn);
            done = done.max(end);
        }
        done
    }

    /// Controller-side write of one logical page (no PCIe): the path the
    /// board-level accelerator uses to spill overflow / completed /
    /// foreigner walks to flash. Returns when the program (and GC work)
    /// finishes.
    pub fn ftl_write_page(&mut self, at: SimTime, lpn: Lpn) -> SimTime {
        let out = self.ftl.write(lpn);
        let res = self.write_page_from_controller(at, out.ppa);
        let mut done = res.end;
        for op in out.gc {
            done = done.max(self.execute_gc(at, op));
        }
        done
    }

    /// Chip-local write of one logical page: the data is already inside an
    /// accelerator next to the planes, so only the program (and GC work)
    /// is charged — no channel transfer. This is how chip-level
    /// accelerators flush completed-walk pages.
    pub fn local_write_page(&mut self, at: SimTime, lpn: Lpn) -> SimTime {
        let out = self.ftl.write(lpn);
        let res = self.array_program(at, out.ppa);
        let mut done = res.end;
        for op in out.gc {
            done = done.max(self.execute_gc(at, op));
        }
        done
    }

    /// Controller-side read of one logical page (no PCIe), with its
    /// fault. Returns `None` if the page was never written.
    #[must_use]
    pub fn ftl_read_page(&mut self, at: SimTime, lpn: Lpn) -> Option<(Reservation, ReadFault)> {
        let ppa = self.ftl.translate(lpn)?;
        Some(self.read_page_to_controller(at, ppa))
    }

    /// Apply one GC operation's timing. Migrations are in-plane copies
    /// (array read + program through the register, no channel traffic).
    fn execute_gc(&mut self, at: SimTime, op: GcOp) -> SimTime {
        match op {
            GcOp::Migrate { from, to } => {
                // No walk waits on a migration: its fault is charged
                // into the copy's time and goes no further.
                let (rd, _) = self.read_page(at, from);
                self.array_program(rd.end, to).end
            }
            GcOp::Erase { block } => self.array_erase(at, block).end,
        }
    }

    /// Channel-bus busy time summed over all channels.
    pub fn channel_busy(&self) -> Duration {
        self.channels.iter().map(|c| c.busy_time()).sum()
    }

    /// Mean channel utilization over `[0, horizon]`.
    pub fn channel_utilization(&self, horizon: SimTime) -> f64 {
        let sum: f64 = self.channels.iter().map(|c| c.utilization(horizon)).sum();
        sum / self.channels.len() as f64
    }

    fn array_op(
        &mut self,
        at: SimTime,
        ppa: Ppa,
        latency: Duration,
        kind: ArrayOpKind,
    ) -> Reservation {
        let g = self.cfg.geometry;
        let plane = ppa.plane_index(&g);
        let chip = ppa.chip_index(&g);
        // A stalled chip delays the op's earliest start; the plane/port
        // reservations below then queue behind whatever else is pending.
        let at = match self.fault.chip_stall(chip as u32) {
            Some(stall) => {
                self.tracer
                    .span("fault.chip_stall", chip as u32, at, at + stall);
                at + stall
            }
            None => at,
        };
        // The op must hold both its plane and one of the chip's array
        // ports for the whole latency. The plane reservation (with
        // backfill) fixes the schedule; the port bank then accounts the
        // chip-level concurrency cap from that start. The two may drift
        // slightly under backfill, but total port occupancy — what caps
        // per-chip throughput — stays exact.
        let plane_res = self.planes[plane].reserve(at, latency, self.floor);
        let port_res = self
            .chip_ports
            .reserve(chip, plane_res.start, latency, self.floor);
        let res = Reservation {
            start: plane_res.start.max(port_res.start),
            end: plane_res.end.max(port_res.end),
        };
        match kind {
            ArrayOpKind::Read => {
                self.stats.array_reads += 1;
                if let Some(t) = &mut self.trace {
                    t.record_read(res.start, res.end, g.page_bytes);
                }
                self.tracer
                    .span_bytes("flash.read", chip as u32, res.start, res.end, g.page_bytes);
            }
            ArrayOpKind::Program => {
                self.stats.array_programs += 1;
                if let Some(t) = &mut self.trace {
                    t.record_write(res.start, res.end, g.page_bytes);
                }
                self.tracer.span_bytes(
                    "flash.program",
                    chip as u32,
                    res.start,
                    res.end,
                    g.page_bytes,
                );
            }
            ArrayOpKind::Erase => {
                self.stats.erases += 1;
                self.tracer
                    .span("flash.erase", chip as u32, res.start, res.end);
            }
        }
        // Per-plane occupancy feeds aggregates only: with thousands of
        // planes, span rows would drown the Chrome trace.
        self.tracer.busy("plane", plane as u32, res.start, res.end);
        res
    }
}

#[derive(Clone, Copy)]
enum ArrayOpKind {
    Read,
    Program,
    Erase,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Geometry;

    fn ssd() -> Ssd {
        Ssd::new(SsdConfig::tiny(), 4)
    }

    fn ppa(channel: u32, chip: u32, die: u32, plane: u32, block: u32, page: u32) -> Ppa {
        Ppa {
            channel,
            chip,
            die,
            plane,
            block,
            page,
        }
    }

    #[test]
    fn array_read_takes_read_latency() {
        let mut s = ssd();
        let (r, fault) = s.read_page(SimTime::ZERO, ppa(0, 0, 0, 0, 0, 0));
        assert_eq!(r.end - r.start, Duration::micros(35));
        assert_eq!(fault.retries, 0);
        assert_eq!(s.stats().array_reads, 1);
    }

    #[test]
    fn same_plane_reads_serialize_different_planes_overlap() {
        let mut s = ssd();
        let (a, _) = s.read_page(SimTime::ZERO, ppa(0, 0, 0, 0, 0, 0));
        let (b, _) = s.read_page(SimTime::ZERO, ppa(0, 0, 0, 0, 0, 1)); // same plane
        let (c, _) = s.read_page(SimTime::ZERO, ppa(0, 0, 1, 0, 0, 0)); // other die
        assert_eq!(b.start, a.end, "same plane serializes");
        assert_eq!(c.start, SimTime::ZERO, "other plane starts immediately");
    }

    #[test]
    fn read_to_controller_adds_channel_time() {
        let mut s = ssd();
        let (r, _) = s.read_page_to_controller(SimTime::ZERO, ppa(0, 0, 0, 0, 0, 0));
        let read_only = Duration::micros(35);
        assert!(r.end - r.start > read_only, "channel transfer adds time");
        assert_eq!(s.stats().channel_bytes, 4096);
    }

    #[test]
    fn channel_is_shared_across_chips_of_one_channel() {
        let mut s = ssd();
        // Two chips on channel 0 finish their array reads simultaneously;
        // their page transfers must serialize on the single channel bus.
        let (a, _) = s.read_page_to_controller(SimTime::ZERO, ppa(0, 0, 0, 0, 0, 0));
        let (b, _) = s.read_page_to_controller(SimTime::ZERO, ppa(0, 1, 0, 0, 0, 0));
        let xfer = Duration::for_bytes(4096, 333_000_000);
        assert!(
            b.end >= a.end + xfer || a.end >= b.end + xfer,
            "bus serialization"
        );
        // Different channel: no interference.
        let (c, _) = s.read_page_to_controller(SimTime::ZERO, ppa(1, 0, 0, 0, 0, 0));
        assert!(c.end < a.end.max(b.end));
    }

    #[test]
    fn host_read_pays_pcie_and_nvme() {
        let mut s = ssd();
        let (t, _) = s.host_read_pages(SimTime::ZERO, &[ppa(0, 0, 0, 0, 0, 0)]);
        let floor = Duration::micros(35) + Duration::micros(2);
        assert!(t > SimTime::ZERO + floor);
        assert_eq!(s.stats().pcie_bytes, 4096);
    }

    #[test]
    fn host_reads_scale_with_parallelism() {
        let mut s = ssd();
        // 8 pages all on one plane vs 8 pages spread over 8 planes.
        let serial: Vec<Ppa> = (0..8).map(|p| ppa(0, 0, 0, 0, 0, p)).collect();
        let (t_serial, _) = s.host_read_pages(SimTime::ZERO, &serial);

        let mut s2 = ssd();
        let parallel: Vec<Ppa> = (0..8)
            .map(|i| ppa(i % 2, (i / 2) % 2, (i / 4) % 2, 0, 0, 0))
            .collect();
        let (t_parallel, _) = s2.host_read_pages(SimTime::ZERO, &parallel);
        assert!(
            t_parallel.as_nanos() * 3 < t_serial.as_nanos(),
            "parallel {t_parallel:?} vs serial {t_serial:?}"
        );
    }

    #[test]
    fn ftl_write_and_read_back() {
        let mut s = ssd();
        let done = s.host_write_lpns(SimTime::ZERO, &[5, 6]);
        assert!(done > SimTime::ZERO + Duration::micros(350));
        let (r, fault) = s.ftl_read_page(done, 5).expect("page 5 was written");
        assert!(r.start >= done && fault.retries == 0);
        assert!(s.ftl_read_page(done, 99).is_none());
        assert_eq!(s.stats().array_programs, 2);
    }

    #[test]
    fn gc_timing_is_charged() {
        let cfg = SsdConfig::tiny();
        let mut s = Ssd::new(cfg, 4);
        // Dynamic region: blocks 4..8 = 4 blocks/plane × 16 planes × 8 pages
        // = 512 pages. Overwrite a 128-page live set repeatedly.
        let mut t = SimTime::ZERO;
        for round in 0..12 {
            for lpn in 0..128u64 {
                t = s.ftl_write_page(t, lpn);
                let _ = round;
            }
        }
        assert!(s.ftl_mut().gc_erases() > 0, "GC ran");
        assert!(s.stats().erases > 0, "erase timing charged");
    }

    #[test]
    fn chip_array_ports_cap_concurrency() {
        // Paper geometry: 8 planes per chip but only 4 array ports — 8
        // simultaneous reads to distinct planes of one chip run as two
        // waves of four.
        let mut s = Ssd::new(SsdConfig::scaled(), 16);
        let mut ends = vec![];
        for die in 0..2 {
            for plane in 0..4 {
                ends.push(
                    s.read_page(SimTime::ZERO, ppa(0, 0, die, plane, 0, 0))
                        .0
                        .end,
                );
            }
        }
        let first_wave = ends.iter().filter(|e| e.as_nanos() == 35_000).count();
        let second_wave = ends.iter().filter(|e| e.as_nanos() == 70_000).count();
        assert_eq!(first_wave, 4, "{ends:?}");
        assert_eq!(second_wave, 4, "{ends:?}");
    }

    #[test]
    fn span_trace_is_consistent_with_counters() {
        let mut s = ssd();
        s.enable_span_trace(TraceConfig::default());
        let pages: Vec<Ppa> = (0..8)
            .map(|p| ppa(p % 2, (p / 2) % 2, 0, 0, 0, p))
            .collect();
        let (done, _) = s.host_read_pages(SimTime::ZERO, &pages);
        let tracer = s.take_tracer();
        // Span byte totals equal the counter-derived totals exactly.
        assert_eq!(
            tracer.bytes_for("flash.read"),
            s.stats().array_read_bytes(s.config())
        );
        assert_eq!(tracer.bytes_for("channel.bus"), s.stats().channel_bytes);
        assert_eq!(tracer.bytes_for("pcie"), s.stats().pcie_bytes);
        // Span busy time equals the BandwidthLink busy time exactly.
        assert_eq!(
            tracer.busy_ns_for("channel.bus"),
            s.channel_busy().as_nanos()
        );
        // Derived mean channel utilization matches the existing one.
        let rep = tracer.finish(done).unwrap();
        let legacy = s.channel_utilization(done);
        assert!((rep.mean_util_for("channel.bus") - legacy).abs() < 1e-9);
    }

    #[test]
    fn fault_free_device_matches_default_device_exactly() {
        // Enabling the all-off profile must not change a single
        // reservation: the injector draws no randomness when disabled.
        let mut plain = ssd();
        let mut faulted = ssd();
        faulted.enable_faults(FaultProfile::none(), 12345);
        for i in 0..32u32 {
            let p = ppa(i % 2, (i / 2) % 2, 0, 0, i % 8, i % 8);
            assert_eq!(
                plain.read_page_to_controller(SimTime::ZERO, p).0,
                faulted.read_page_to_controller(SimTime::ZERO, p).0
            );
        }
        let a = plain.host_write_lpns(SimTime::ZERO, &[1, 2, 3]);
        let b = faulted.host_write_lpns(SimTime::ZERO, &[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(faulted.fault_stats().read_retries, 0);
    }

    #[test]
    fn injected_read_retries_extend_latency_deterministically() {
        let run = |seed: u64| {
            let mut s = ssd();
            s.enable_faults(FaultProfile::heavy(), seed);
            let mut total = 0u64;
            for i in 0..400u32 {
                let p = ppa(i % 2, (i / 2) % 2, (i / 4) % 2, (i / 8) % 2, i % 8, i % 8);
                let (r, _) = s.read_page(SimTime(i as u64 * 1_000_000), p);
                total += (r.end - r.start).as_nanos();
            }
            (total, s.fault_stats())
        };
        let (t1, f1) = run(7);
        let (t2, f2) = run(7);
        assert_eq!(t1, t2, "same stream seed replays the fault schedule");
        assert_eq!(f1.read_retries, f2.read_retries);
        assert!(f1.read_retries > 0, "heavy profile must retry");
        // A clean run is strictly faster in total array time.
        let mut clean = ssd();
        let mut clean_total = 0u64;
        for i in 0..400u32 {
            let p = ppa(i % 2, (i / 2) % 2, (i / 4) % 2, (i / 8) % 2, i % 8, i % 8);
            let (r, _) = clean.read_page(SimTime(i as u64 * 1_000_000), p);
            clean_total += (r.end - r.start).as_nanos();
        }
        assert!(
            t1 > clean_total,
            "retries add sense time: {t1} vs {clean_total}"
        );
    }

    #[test]
    fn checked_read_surfaces_hard_fail() {
        let mut s = ssd();
        // Every read errors, no ladder step recovers.
        s.enable_faults(
            FaultProfile {
                name: "always-fail",
                read_error_ppm: 1_000_000,
                retry_success_pct: 0,
                max_read_retries: 2,
                max_load_attempts: 2,
                retry_backoff: Duration::micros(1),
                ..FaultProfile::none()
            },
            1,
        );
        let (r, fault) = s.read_page(SimTime::ZERO, ppa(0, 0, 0, 0, 0, 0));
        assert!(fault.hard_fail);
        assert_eq!(fault.retries, 2);
        // Base 35 µs + ladder steps at 100% and 130%.
        let read_ns = 35_000 + 35_000 + 35_000 * 130 / 100;
        assert_eq!((r.end - r.start).as_nanos(), read_ns);
        assert_eq!(s.fault_stats().hard_read_fails, 1);
        // One re-read after a 1 µs backoff fails too; the degraded read
        // follows it at once.
        let rec = s.recover_read(ppa(0, 0, 0, 0, 0, 0), r.end, &mut Probe::default());
        assert_eq!(rec, (r.end + Duration::nanos(1_000 + 2 * read_ns), 1, true));
        assert_eq!(s.fault_stats().retry_ns, 3 * (read_ns - 35_000));
    }

    #[test]
    fn erases_age_blocks_into_higher_error_rates() {
        let profile = FaultProfile {
            name: "wear",
            read_error_ppm: 1_000,
            wear_ppm_per_erase: 200_000,
            retry_success_pct: 100,
            max_read_retries: 1,
            ..FaultProfile::none()
        };
        let mut s = ssd();
        s.enable_faults(profile, 9);
        let worn = ppa(0, 0, 0, 0, 0, 0);
        for _ in 0..4 {
            s.array_erase(SimTime::ZERO, worn);
        }
        for i in 0..200u32 {
            let _ = s.read_page(SimTime(i as u64 * 10_000_000), worn);
        }
        let retries_worn = s.fault_stats().read_retries;
        assert!(
            retries_worn > 100,
            "80.1% error rate after 4 erases: {retries_worn}"
        );
    }

    #[test]
    fn stalls_delay_ops_and_are_counted() {
        let mut s = ssd();
        s.enable_faults(
            FaultProfile {
                name: "stall-always",
                chip_stall_ppm: 1_000_000,
                chip_stall: Duration::micros(200),
                channel_stall_ppm: 1_000_000,
                channel_stall: Duration::micros(50),
                // Keep is_on() true without read/program noise.
                ..FaultProfile::none()
            },
            2,
        );
        let (r, _) = s.read_page(SimTime::ZERO, ppa(0, 0, 0, 0, 0, 0));
        assert_eq!(r.start, SimTime::ZERO + Duration::micros(200));
        let c = s.channel_transfer(SimTime::ZERO, 0, 4096);
        assert!(c.start >= SimTime::ZERO + Duration::micros(50));
        let f = s.fault_stats();
        assert_eq!(f.chip_stalls, 1);
        assert_eq!(f.channel_stalls, 1);
        assert_eq!(f.stall_ns, 250_000);
    }

    #[test]
    fn tiny_geometry_resource_counts() {
        let mut s = ssd();
        let g: Geometry = s.config().geometry;
        assert_eq!(s.planes.len(), g.num_planes() as usize);
        // One port bank per chip: the last chip's bank exists.
        let last = g.num_chips() as usize - 1;
        s.chip_ports
            .reserve(last, SimTime::ZERO, Duration::micros(1), SimTime::ZERO);
        assert_eq!(s.channels.len(), g.channels as usize);
    }
}
