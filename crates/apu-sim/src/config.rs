//! Simulator configuration.

use serde::{Deserialize, Serialize};

use crate::clock::Frequency;
use crate::timing::DeviceTiming;

/// How the simulator executes device programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Data is really moved and computed. Used by tests, examples, and
    /// small-scale experiment runs; results are bit-exact.
    #[default]
    Functional,
    /// Only the command stream and cycle accounting run; bulk data movement
    /// and element-wise arithmetic are elided. Used for paper-scale sweeps
    /// (e.g. a 200 GB RAG corpus) where functional simulation would take
    /// hours. By construction the charged cycles are identical to
    /// [`ExecMode::Functional`]; `tests/mode_equivalence.rs` asserts this.
    TimingOnly,
}

impl ExecMode {
    /// Whether data should actually be computed/moved.
    pub fn is_functional(self) -> bool {
        matches!(self, ExecMode::Functional)
    }

    /// Resolves the mode from the `APU_SIM_TEST_MODE` environment
    /// variable (`functional` or `timing`/`timing-only`), falling back to
    /// `default` when unset or unrecognized. The CI matrix uses this to
    /// run the same test suites in both simulator modes.
    pub fn from_env(default: ExecMode) -> ExecMode {
        match std::env::var("APU_SIM_TEST_MODE").as_deref() {
            Ok("functional") => ExecMode::Functional,
            Ok("timing") | Ok("timing-only") | Ok("timing_only") => ExecMode::TimingOnly,
            _ => default,
        }
    }
}

/// Static configuration of a simulated APU platform.
///
/// The default matches the GSI Leda-E used in the paper: 4 cores,
/// 32,768-element VRs of 16-bit data, 24 VRs + 48 VMRs per core, 64 KB L2,
/// 1 MB L3, and a 500 MHz clock. `l4_bytes` defaults to 256 MiB rather than
/// the device's 16 GB so that unit tests do not allocate gigabytes; scale
/// it up (or use [`ExecMode::TimingOnly`]) for paper-scale experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Execution mode (functional vs timing-only).
    pub exec_mode: ExecMode,
    /// Number of APU cores (vector engines).
    pub cores: usize,
    /// Elements per vector register (the paper's `l` = 32,768).
    pub vr_len: usize,
    /// Computation-enabled vector registers per core.
    pub num_vrs: usize,
    /// L1 "background" vector memory registers per core.
    pub num_vmrs: usize,
    /// Per-core L2 DMA scratchpad size in bytes.
    pub l2_bytes: usize,
    /// Control-processor L3 cache size in bytes (shared).
    pub l3_bytes: usize,
    /// Device DRAM (L4) size in bytes.
    pub l4_bytes: usize,
    /// Device core clock.
    pub clock: Frequency,
    /// Latency calibration table.
    pub timing: DeviceTiming,
    /// Opt-in timing fast-forward: lets [`crate::ApuDevice`] replay the
    /// memoized cycle charge of a previously executed kernel signature
    /// instead of re-walking its micro-ops. Only ever consulted in
    /// timing-only mode with no trace sink installed, so it cannot
    /// change any observable output — only wall-clock.
    /// Defaults from the `APU_SIM_FAST_FORWARD` environment variable
    /// (`1`/`true` to enable).
    #[serde(default)]
    pub fast_forward: bool,
}

impl SimConfig {
    /// Configuration of the GSI Leda-E evaluated in the paper, with a
    /// reduced default L4 size (see type-level docs).
    pub fn leda_e() -> Self {
        SimConfig {
            exec_mode: ExecMode::Functional,
            cores: 4,
            vr_len: 32 * 1024,
            num_vrs: 24,
            num_vmrs: 48,
            l2_bytes: 64 * 1024,
            l3_bytes: 1024 * 1024,
            l4_bytes: 256 * 1024 * 1024,
            clock: Frequency::LEDA_E,
            timing: DeviceTiming::leda_e(),
            fast_forward: fast_forward_from_env(),
        }
    }

    /// Builder-style: set the execution mode.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Builder-style: enable or disable timing fast-forward (see the
    /// [`SimConfig::fast_forward`] field).
    pub fn with_fast_forward(mut self, fast_forward: bool) -> Self {
        self.fast_forward = fast_forward;
        self
    }

    /// Builder-style: set the device DRAM capacity in bytes.
    pub fn with_l4_bytes(mut self, bytes: usize) -> Self {
        self.l4_bytes = bytes;
        self
    }

    /// Builder-style: set the core count (a zero count is rejected by
    /// [`SimConfig::validate`]).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Builder-style: replace the latency calibration table (used for
    /// design-space exploration).
    pub fn with_timing(mut self, timing: DeviceTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Bytes occupied by one full vector register (32 K × 16-bit = 64 KB
    /// with default parameters).
    pub fn vr_bytes(&self) -> usize {
        self.vr_len * 2
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidArg`] if any capacity is zero, if the
    /// L2 scratchpad cannot hold a full vector, or if `vr_len` is not a
    /// multiple of the 16-bank organization.
    pub fn validate(&self) -> crate::Result<()> {
        if self.cores == 0 || self.vr_len == 0 || self.num_vrs == 0 || self.num_vmrs == 0 {
            return Err(crate::Error::InvalidArg(
                "core/register counts must be non-zero".into(),
            ));
        }
        if self.l2_bytes < self.vr_bytes() {
            return Err(crate::Error::InvalidArg(format!(
                "L2 ({} B) must hold one full vector ({} B)",
                self.l2_bytes,
                self.vr_bytes()
            )));
        }
        if !self.vr_len.is_multiple_of(crate::core::NUM_BANKS) {
            return Err(crate::Error::InvalidArg(format!(
                "vr_len {} must be a multiple of the {}-bank organization",
                self.vr_len,
                crate::core::NUM_BANKS
            )));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::leda_e()
    }
}

/// Resolves the default for [`SimConfig::fast_forward`] from the
/// `APU_SIM_FAST_FORWARD` environment variable (`1` or `true` enables;
/// anything else — including unset — disables). The CI matrix uses this
/// to run the same suites with and without memoized timing replay.
pub fn fast_forward_from_env() -> bool {
    matches!(
        std::env::var("APU_SIM_FAST_FORWARD").as_deref(),
        Ok("1") | Ok("true")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_leda_e() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.vr_len, 32768);
        assert_eq!(cfg.num_vrs, 24);
        assert_eq!(cfg.num_vmrs, 48);
        assert_eq!(cfg.vr_bytes(), 65536);
        assert_eq!(cfg.l2_bytes, 65536);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_tiny_l2() {
        let cfg = SimConfig {
            l2_bytes: 1024,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_bank_mismatch() {
        let cfg = SimConfig {
            vr_len: 1000, // not a multiple of 16
            l2_bytes: 1_000_000,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builders_chain() {
        let cfg = SimConfig::leda_e()
            .with_exec_mode(ExecMode::TimingOnly)
            .with_l4_bytes(1 << 20);
        assert_eq!(cfg.exec_mode, ExecMode::TimingOnly);
        assert_eq!(cfg.l4_bytes, 1 << 20);
        assert!(!cfg.exec_mode.is_functional());
    }
}
