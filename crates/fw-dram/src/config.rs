//! DDR4 configuration — Table III, right-hand column.

use fw_sim::Duration;

/// Parameters of one DDR4 channel.
///
/// Timing fields are in DRAM clocks of the I/O clock (`freq_mhz`); data is
/// transferred on both edges, so the transfer rate is `2 × freq_mhz` MT/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// I/O clock frequency in MHz (paper: 1600).
    pub freq_mhz: u32,
    /// Total capacity in bytes (paper: 4 GB).
    pub capacity: u64,
    /// Data bus width in bits (paper: 64).
    pub bus_width_bits: u32,
    /// Burst length in beats (paper: 8).
    pub burst_length: u32,
    /// CAS latency in clocks (paper: 22).
    pub tcl: u32,
    /// RAS-to-CAS delay in clocks (paper: 22).
    pub trcd: u32,
    /// Row precharge time in clocks (paper: 22).
    pub trp: u32,
    /// Row active time in clocks (paper: 52).
    pub tras: u32,
    /// Number of banks (DDR4 x16 devices expose 8 banks).
    pub banks: u32,
    /// Row (page) size in bytes per bank.
    pub row_bytes: u64,
    /// Average refresh command interval in ns (JEDEC tREFI: 7.8 µs).
    pub trefi_ns: u64,
    /// Refresh cycle time in ns (tRFC for 8 Gb devices: 350 ns).
    pub trfc_ns: u64,
}

impl DramConfig {
    /// The exact Table III DRAM configuration.
    pub fn ddr4_1600() -> Self {
        DramConfig {
            freq_mhz: 1600,
            capacity: 4 << 30,
            bus_width_bits: 64,
            burst_length: 8,
            tcl: 22,
            trcd: 22,
            trp: 22,
            tras: 52,
            banks: 8,
            row_bytes: 8192,
            trefi_ns: 7_800,
            trfc_ns: 350,
        }
    }

    /// One DRAM clock, in nanoseconds (floored; 1600 MHz → 0.625 ns ≈ 0).
    /// We therefore convert multi-clock latencies directly instead of
    /// multiplying a rounded tCK.
    fn clocks(&self, n: u32) -> Duration {
        // ns = n * 1000 / freq_mhz
        Duration::nanos(n as u64 * 1000 / self.freq_mhz as u64)
    }

    /// CAS latency.
    pub fn t_cl(&self) -> Duration {
        self.clocks(self.tcl)
    }

    /// RAS-to-CAS delay.
    pub fn t_rcd(&self) -> Duration {
        self.clocks(self.trcd)
    }

    /// Precharge latency.
    pub fn t_rp(&self) -> Duration {
        self.clocks(self.trp)
    }

    /// Minimum row-active time.
    pub fn t_ras(&self) -> Duration {
        self.clocks(self.tras)
    }

    /// Column-to-column (burst-to-burst) gap: BL/2 clocks — back-to-back
    /// reads of an open row issue this far apart, letting the device
    /// stream at the full bus rate while CAS latency is pipelined.
    pub fn t_ccd(&self) -> Duration {
        self.clocks(self.burst_length / 2)
    }

    /// Bytes moved by one burst: bus width × burst length.
    pub fn burst_bytes(&self) -> u64 {
        (self.bus_width_bits as u64 / 8) * self.burst_length as u64
    }

    /// Peak data rate in bytes/s: both clock edges × bus width.
    pub fn peak_bandwidth(&self) -> u64 {
        2 * self.freq_mhz as u64 * 1_000_000 * (self.bus_width_bits as u64 / 8)
    }

    /// Row size in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Map a byte address to `(bank index, row number)`.
    ///
    /// Rows are interleaved across banks at row granularity so sequential
    /// streams activate all banks in turn.
    pub fn map(&self, addr: u64) -> (usize, u64) {
        let row_global = addr / self.row_bytes;
        let bank = (row_global % self.banks as u64) as usize;
        let row = row_global / self.banks as u64;
        (bank, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values() {
        let c = DramConfig::ddr4_1600();
        assert_eq!(c.freq_mhz, 1600);
        assert_eq!(c.capacity, 4 << 30);
        assert_eq!(c.bus_width_bits, 64);
        assert_eq!(c.burst_length, 8);
        assert_eq!((c.tcl, c.trcd, c.trp, c.tras), (22, 22, 22, 52));
        // JEDEC refresh: tRFC every tREFI, ~4.5% of device time.
        assert_eq!((c.trefi_ns, c.trfc_ns), (7_800, 350));
    }

    #[test]
    fn mapping_round_trips_within_capacity() {
        let c = DramConfig::ddr4_1600();
        let mut last = None;
        for addr in (0..(1u64 << 20)).step_by(c.row_bytes as usize) {
            let (bank, row) = c.map(addr);
            assert!(bank < c.banks as usize);
            // Sequential rows cycle banks: same row repeats every `banks` rows.
            if let Some((pb, pr)) = last {
                assert!(bank != pb || row != pr);
            }
            last = Some((bank, row));
        }
    }
}
