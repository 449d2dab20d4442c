//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5). One binary per artifact — see DESIGN.md §4 for the
//! experiment index. The root package's `tests/paper_conformance.rs`
//! asserts what the table and figure binaries print, through the same
//! library calls (for Tables 6/7 and Fig 13, [`phoenix_suite::run_app`]).
//!
//! Every binary accepts:
//!
//! * `--scale <f64>` — input-size multiplier relative to the paper's
//!   sizes (default 1/256 for the large inputs);
//! * `--paper-scale` — run the exact paper parameters (timing-only
//!   simulation where functional execution would be impractical);
//! * `--seed <u64>` — workload seed (default 42).

pub mod phoenix_suite;
pub mod table;

use std::env;

/// Parsed harness options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCfg {
    /// Input scale relative to the paper (1.0 = paper size).
    pub scale: f64,
    /// Whether `--paper-scale` was requested.
    pub paper: bool,
    /// Workload seed.
    pub seed: u64,
    /// Device-cluster width for sharded serving studies (`--shards`,
    /// default 1 = single device). Benches that don't shard ignore it.
    pub shards: usize,
    /// Whether `--smoke` was requested: a CI-oriented mode that runs a
    /// dispatch-heavy but fixed-size workload and writes a machine-
    /// readable `BENCH_<name>.json` summary next to the working
    /// directory. Benches without a smoke mode ignore it.
    pub smoke: bool,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            scale: 1.0 / 256.0,
            paper: false,
            seed: 42,
            shards: 1,
            smoke: false,
        }
    }
}

/// Parses command-line options (ignores unknown flags).
pub fn parse_args() -> RunCfg {
    let mut cfg = RunCfg::default();
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                    cfg.scale = v;
                }
            }
            "--paper-scale" => {
                cfg.paper = true;
                cfg.scale = 1.0;
            }
            "--seed" => {
                if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                    cfg.seed = v;
                }
            }
            "--shards" => {
                if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                    cfg.shards = std::cmp::max(v, 1);
                }
            }
            "--smoke" => {
                cfg.smoke = true;
            }
            _ => {}
        }
    }
    cfg
}

/// Formats a byte count ("1.5 GB", "6.0 MB").
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e9 {
        format!("{:.1} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{bytes} B")
    }
}

/// Formats a large count ("4.8 billion", "110.7 million").
pub fn fmt_count(n: u64) -> String {
    let x = n as f64;
    if x >= 1e9 {
        format!("{:.1} billion", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.1} million", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1} thousand", x / 1e3)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(1_500_000_000), "1.5 GB");
        assert_eq!(fmt_bytes(6_000_000), "6.0 MB");
        assert_eq!(fmt_bytes(42), "42 B");
        assert_eq!(fmt_count(4_800_000_000), "4.8 billion");
        assert_eq!(fmt_count(110_700_000), "110.7 million");
        assert_eq!(fmt_count(12), "12");
    }

    #[test]
    fn default_cfg() {
        let c = RunCfg::default();
        assert!(!c.paper);
        assert!((c.scale - 1.0 / 256.0).abs() < 1e-12);
        assert_eq!(c.shards, 1);
    }
}
