//! DRAM device specifications and timing parameters.

use serde::{Deserialize, Serialize};

/// A DRAM configuration: topology plus timing in memory-clock cycles.
///
/// Presets: [`DramSpec::hbm2e_16gb`] (the paper's simulated RAG memory)
/// and [`DramSpec::ddr4_apu`] (the APU's native device DRAM).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramSpec {
    /// Human-readable name.
    pub name: String,
    /// Independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Row (page) size in bytes.
    pub row_bytes: usize,
    /// Data bus width per channel in bits.
    pub bus_bits: usize,
    /// Burst length in beats.
    pub burst_len: usize,
    /// Memory clock in MHz (command clock; data rate is 2× for DDR).
    pub clock_mhz: f64,

    // ---- timing constraints, in memory-clock cycles ----
    /// ACT → RD/WR to the same bank.
    pub t_rcd: u64,
    /// PRE → ACT to the same bank.
    pub t_rp: u64,
    /// ACT → PRE minimum (row must stay open this long).
    pub t_ras: u64,
    /// RD command → first data beat.
    pub t_cl: u64,
    /// WR command → first data beat.
    pub t_cwl: u64,
    /// Spacing between two column commands to the same bank. Applied per
    /// bank, not per bank group: commands to different banks are spaced
    /// only by the channel's data bus, one burst
    /// ([`DramSpec::burst_cycles`]) apart, which equals JEDEC tCCD_S on
    /// both presets.
    pub t_ccd_l: u64,
    /// ACT→ACT to different banks, same rank.
    pub t_rrd: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Average refresh interval.
    pub t_refi: u64,
    /// Refresh cycle time (rank blocked).
    pub t_rfc: u64,
}

impl DramSpec {
    /// The paper's simulated HBM2e: 16 GB, 8 channels, 2 ranks
    /// (pseudo-channels folded in), 1.6 GHz command clock (3.2 Gbps/pin),
    /// 128-bit channels. Peak bandwidth 8 × 16 B × 3.2 G = 409.6 GB/s,
    /// inside the paper's 380–420 GB/s band.
    pub fn hbm2e_16gb() -> Self {
        DramSpec {
            name: "HBM2e-16GB".into(),
            channels: 8,
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 32768,
            row_bytes: 1024,
            bus_bits: 128,
            burst_len: 4,
            clock_mhz: 1600.0,
            t_rcd: 23,
            t_rp: 23,
            t_ras: 52,
            t_cl: 23,
            t_cwl: 12,
            t_ccd_l: 4,
            t_rrd: 6,
            t_faw: 24,
            t_refi: 6240,
            t_rfc: 560,
        }
    }

    /// The APU's native device DRAM: single-channel 64-bit DDR4-2933-ish,
    /// ~23.4 GB/s peak (the paper reports 23.8 GB/s).
    pub fn ddr4_apu() -> Self {
        DramSpec {
            name: "DDR4-APU".into(),
            channels: 1,
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 65536,
            row_bytes: 8192,
            bus_bits: 64,
            burst_len: 8,
            clock_mhz: 1466.0,
            t_rcd: 21,
            t_rp: 21,
            t_ras: 47,
            t_cl: 21,
            t_cwl: 16,
            t_ccd_l: 8,
            t_rrd: 8,
            t_faw: 34,
            t_refi: 11437,
            t_rfc: 512,
        }
    }

    /// Total banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Bytes transferred by one burst on one channel
    /// (DDR: `bus_bits/8 × burst_len × 2` beats per clock... burst_len is
    /// counted in beats, so bytes = `bus_bits/8 × burst_len`).
    pub fn access_bytes(&self) -> usize {
        (self.bus_bits / 8) * self.burst_len
    }

    /// Channel-clock period in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        1e3 / self.clock_mhz
    }

    /// Cycles the data bus is occupied per burst (DDR moves two beats per
    /// clock).
    pub fn burst_cycles(&self) -> u64 {
        (self.burst_len as u64).div_ceil(2)
    }

    /// Theoretical peak bandwidth in GB/s across all channels.
    pub fn peak_gbps(&self) -> f64 {
        let bytes_per_cycle_per_chan = self.access_bytes() as f64 / self.burst_cycles() as f64;
        bytes_per_cycle_per_chan * self.channels as f64 * self.clock_mhz * 1e6 / 1e9
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized topology fields (presets are always valid).
    pub fn assert_valid(&self) {
        assert!(self.channels > 0 && self.ranks > 0);
        assert!(self.bank_groups > 0 && self.banks_per_group > 0);
        assert!(self.rows > 0 && self.row_bytes > 0);
        assert!(self.bus_bits >= 8 && self.burst_len > 0);
        assert!(self.clock_mhz > 0.0);
        assert!(self.access_bytes() <= self.row_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2e_peak_matches_paper_band() {
        let s = DramSpec::hbm2e_16gb();
        s.assert_valid();
        let peak = s.peak_gbps();
        assert!((380.0..=420.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn ddr4_peak_matches_device() {
        let s = DramSpec::ddr4_apu();
        s.assert_valid();
        let peak = s.peak_gbps();
        assert!((22.0..=25.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn access_granularity() {
        assert_eq!(DramSpec::hbm2e_16gb().access_bytes(), 64);
        assert_eq!(DramSpec::ddr4_apu().access_bytes(), 64);
        assert_eq!(DramSpec::hbm2e_16gb().burst_cycles(), 2);
        assert_eq!(DramSpec::ddr4_apu().burst_cycles(), 4);
    }

    #[test]
    fn clock_period() {
        assert!((DramSpec::hbm2e_16gb().clock_ns() - 0.625).abs() < 1e-9);
    }
}
