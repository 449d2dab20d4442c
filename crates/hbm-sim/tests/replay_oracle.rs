//! Settled-stream replay against the burst-by-burst walk: seeded random
//! sequences of streams, off-horizon transfers and single accesses must
//! give the same end, statistics and horizon as a system driven by
//! `access` alone, after every operation and in the witnesses that read
//! the final state.

use hbm_sim::{AccessKind, DramSpec, MemorySystem};

/// SplitMix64: a tiny seeded generator, so the sequences need no crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The reference: every burst of the range issued through `access`.
fn walk(mem: &mut MemorySystem, kind: AccessKind, start: u64, bytes: u64, arrival: u64) -> u64 {
    if bytes == 0 {
        return arrival;
    }
    let g = mem.spec().access_bytes() as u64;
    let mut end = arrival;
    for b in start / g..=(start + bytes - 1) / g {
        end = end.max(mem.access(kind, b * g, arrival));
    }
    end
}

/// The system under test and the reference, driven in lockstep.
struct Pair {
    fast: MemorySystem,
    slow: MemorySystem,
    /// Arrival of the last stream. A stream at the horizon first applies
    /// the refresh that closes every row, so only operations arriving
    /// this early see the state a stream leaves behind.
    begin: u64,
}

impl Pair {
    fn check(&self, what: &str, fast_end: u64, slow_end: u64) {
        assert_eq!(fast_end, slow_end, "end diverged after {what}");
        assert_eq!(
            self.fast.stats(),
            self.slow.stats(),
            "stats diverged after {what}"
        );
        assert_eq!(
            self.fast.horizon(),
            self.slow.horizon(),
            "horizon diverged after {what}"
        );
    }

    fn transfer(&mut self, kind: AccessKind, start: u64, bytes: u64, arrival: u64) -> u64 {
        let f = self.fast.transfer(kind, start, bytes, arrival);
        let s = walk(&mut self.slow, kind, start, bytes, arrival);
        self.check(&format!("{kind:?} {start}+{bytes} at {arrival}"), f, s);
        f
    }

    fn stream(&mut self, kind: AccessKind, start: u64, bytes: u64) {
        let begin = self.slow.horizon();
        self.begin = begin;
        let f = match kind {
            AccessKind::Read => self.fast.stream_read(start, bytes),
            AccessKind::Write => self.fast.stream_write(start, bytes),
        };
        let s = walk(&mut self.slow, kind, start, bytes, begin);
        self.check(
            &format!("stream {kind:?} {start}+{bytes}"),
            begin + f.cycles,
            s,
        );
    }

    fn access(&mut self, kind: AccessKind, addr: u64, arrival: u64) {
        let f = self.fast.access(kind, addr, arrival);
        let s = self.slow.access(kind, addr, arrival);
        self.check(&format!("access {kind:?} {addr} at {arrival}"), f, s);
    }
}

/// Runs `ops` random operations on `spec` and returns the replays made.
fn run(spec: DramSpec, seed: u64, ops: usize) -> u64 {
    let g = spec.access_bytes() as u64;
    let window = (spec.channels * spec.ranks * spec.bank_groups * spec.banks_per_group) as u64
        * (spec.row_bytes / spec.access_bytes()) as u64
        * g;
    let t_refi = spec.t_refi;
    // Repeated stream keys: exactly one rotation window, several windows
    // (long enough for the steady-state extrapolation), a misaligned
    // start with an odd length, one far into the device that ends a few
    // bursts into a window, and two shorter than a window.
    let keys = [
        (0, window),
        (0, 5 * window),
        (12_345 * g + 7, 3 * window + 133),
        (777 * window, window + 37 * g),
        (999, window / 2),
        (3 * g, 4_096),
    ];
    let mut rng = Rng(seed);
    let mut p = Pair {
        fast: MemorySystem::new(spec.clone()),
        slow: MemorySystem::new(spec),
        begin: 0,
    };
    let kind = |rng: &mut Rng| {
        if rng.below(4) == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    };
    let mut last = 0;
    for _ in 0..ops {
        let k = kind(&mut rng);
        match rng.below(20) {
            // Streams at the horizon, mostly repeating the last key.
            0..=11 => {
                if rng.below(3) == 0 {
                    last = rng.below(keys.len() as u64) as usize;
                }
                let (start, bytes) = keys[last];
                p.stream(k, start, bytes);
            }
            // Row misses in random banks from the last stream's start:
            // each waits on its bank's ready time and tRAS and its rank's
            // tRRD and tFAW windows as the stream left them.
            12..=13 => {
                for _ in 0..16 {
                    let addr = (1 << 32) + rng.below(window);
                    p.access(k, addr, p.begin + rng.below(100));
                }
            }
            // Transfers at the last stream's start, before, at and well
            // after the horizon.
            14..=16 => {
                let (start, bytes) = keys[rng.below(keys.len() as u64) as usize];
                let h = p.slow.horizon();
                let arrival = match rng.below(4) {
                    0 => p.begin,
                    1 => h.saturating_sub(rng.below(4 * t_refi)),
                    2 => h,
                    _ => h + rng.below(8 * t_refi),
                };
                p.transfer(k, start, bytes, arrival);
            }
            // Single bursts, inside a streamed region or anywhere, from
            // the last stream's start or near the horizon.
            _ => {
                let addr = if rng.below(2) == 0 {
                    rng.below(5 * window)
                } else {
                    rng.next() % (1 << 33)
                };
                let arrival = if rng.below(2) == 0 {
                    p.begin + rng.below(400)
                } else {
                    p.slow.horizon().saturating_sub(rng.below(200)) + rng.below(400)
                };
                p.access(k, addr, arrival);
            }
        }
    }
    // Witnesses of the state a last stream leaves: re-read its region
    // from its start (open rows, tRAS, tRRD/tFAW windows, buses), then
    // write elsewhere.
    let (start, bytes) = keys[last];
    p.stream(AccessKind::Read, start, bytes);
    let e = p.transfer(AccessKind::Read, start, bytes, p.begin);
    p.transfer(AccessKind::Write, 1 << 30, window + 64, e + 5);
    p.fast.replays()
}

/// Runs 400 operations at each seed and checks that hundreds of the
/// transfers were replays, not walks.
fn run_seeds(spec: DramSpec, seeds: std::ops::Range<u64>) {
    let replays: u64 = seeds.map(|seed| run(spec.clone(), seed, 400)).sum();
    assert!(replays >= 200, "only {replays} replays on {}", spec.name);
}

#[test]
fn replay_matches_the_burst_walk_on_hbm2e() {
    run_seeds(DramSpec::hbm2e_16gb(), 1..4);
}

#[test]
fn replay_matches_the_burst_walk_on_ddr4() {
    run_seeds(DramSpec::ddr4_apu(), 11..14);
}

/// On both presets the data bus bounds a stream, so the activation state
/// it leaves (each bank's last ACT, each rank's tRRD and tFAW windows)
/// has expired by the time any later burst could be delayed by it. These
/// variants make activations the bound, so the oracle sees that state
/// too: slow ACT rate (tRRD over a quarter of tFAW), then a slow
/// four-activate window.
#[test]
fn replay_matches_the_burst_walk_when_activations_bind() {
    let slow_acts = |t_faw| {
        let mut spec = DramSpec::hbm2e_16gb();
        spec.name = format!("HBM2e, tRAS 300, tRRD 200, tFAW {t_faw}");
        (spec.t_ras, spec.t_rrd, spec.t_faw) = (300, 200, t_faw);
        spec
    };
    run_seeds(slow_acts(300), 21..24);
    run_seeds(slow_acts(1_000), 31..34);
}
