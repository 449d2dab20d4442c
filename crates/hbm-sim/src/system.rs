//! The memory system: an in-order open-page controller over per-bank
//! state, per-channel data buses, and per-rank activation windows and
//! refresh.

use serde::{Deserialize, Serialize};

use crate::address::AddressMap;
use crate::spec::DramSpec;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// DRAM read.
    Read,
    /// DRAM write.
    Write,
}

/// Per-bank state.
#[derive(Debug, Clone, Default)]
struct BankState {
    open_row: Option<u64>,
    /// Earliest cycle the next command to this bank may issue.
    ready_at: u64,
    /// Cycle of the last ACT (for tRAS).
    act_at: u64,
}

/// Per-(channel, rank) state.
#[derive(Debug, Clone)]
struct RankState {
    /// Sliding window of recent ACT times (for tFAW).
    recent_acts: Vec<u64>,
    /// Last ACT time (for tRRD).
    last_act: u64,
    /// Next scheduled refresh boundary.
    next_refresh: u64,
}

/// Aggregate command statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemStats {
    /// Row activations issued.
    pub activates: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

impl SystemStats {
    /// Adds `k` times the counts of `d`.
    fn add(&mut self, d: &SystemStats, k: u64) {
        self.activates += k * d.activates;
        self.reads += k * d.reads;
        self.writes += k * d.writes;
        self.row_hits += k * d.row_hits;
        self.refreshes += k * d.refreshes;
        self.bytes += k * d.bytes;
    }

    /// Row-buffer hit rate over all accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Result of a streamed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamResult {
    /// Bytes moved.
    pub bytes: u64,
    /// Elapsed memory-clock cycles.
    pub cycles: u64,
    /// Elapsed wall time in nanoseconds.
    pub ns: f64,
}

impl StreamResult {
    /// Achieved bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.ns == 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.ns
        }
    }

    /// Elapsed time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.ns / 1e6
    }
}

/// A simulated DRAM system.
#[derive(Debug)]
pub struct MemorySystem {
    map: AddressMap,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    /// Earliest cycle each channel's data bus is free.
    bus_free: Vec<u64>,
    stats: SystemStats,
    /// High-water mark of completion times (the system clock).
    horizon: u64,
    /// Accesses whose command time was clipped by the arrival instant
    /// rather than by bank state. The steady-state stream fast path may
    /// only extrapolate windows where this never fired: an
    /// arrival-clipped bank compares state against a *constant*, and
    /// that comparison can flip as state advances, breaking the
    /// time-translation argument below.
    arrival_clips: u64,
    /// The last long stream walked from a settled start: its key and its
    /// outcome relative to that start. A later settled stream with the
    /// same key is replayed from it instead of walked.
    replay: Option<(StreamKey, StreamSnapshot)>,
    /// Streams answered from `replay`.
    replays: u64,
}

/// What a stream's walk depends on apart from its start: the access kind
/// and its first and last burst.
type StreamKey = (AccessKind, u64, u64);

/// Snapshot of the full timing state at a window boundary of one
/// streamed transfer (all fields the next window's outcome depends on).
///
/// It also holds the replay record of a settled stream: every time as
/// its offset from the settled start `T0`, `stats` as the stream's
/// command-count delta, and zero for what a settled stream never moves
/// (`arrival_clips`, `refreshes` and each rank's `next_refresh`).
#[derive(Debug)]
struct StreamSnapshot {
    end: u64,
    horizon: u64,
    arrival_clips: u64,
    refreshes: u64,
    /// Per bank: (open_row, ready_at, act_at).
    banks: Vec<(Option<u64>, u64, u64)>,
    /// Per rank: (recent_acts, last_act, next_refresh).
    ranks: Vec<(Vec<u64>, u64, u64)>,
    bus_free: Vec<u64>,
    stats: SystemStats,
}

/// The per-window state advance of a steady periodic stream: every
/// time-like field moves by `wall` (or stays put), rows advance by a
/// fixed integer, and the command statistics grow by a fixed amount.
struct WindowDelta {
    /// Uniform time advance per window.
    wall: u64,
    /// Per bank: (row increment, ready_at delta, act_at delta); the time
    /// deltas are each either 0 or `wall`.
    banks: Vec<(u64, u64, u64)>,
    /// Per rank: last_act delta (0 or `wall`); recent_acts entries all
    /// move by `wall`.
    ranks: Vec<u64>,
    /// Per channel bus delta (0 or `wall`).
    bus_free: Vec<u64>,
    /// Command-count growth per window.
    stats: SystemStats,
}

impl MemorySystem {
    /// Creates a memory system for the given device.
    pub fn new(spec: DramSpec) -> Self {
        spec.assert_valid();
        let n_banks = spec.channels * spec.ranks * spec.bank_groups * spec.banks_per_group;
        let n_ranks = spec.channels * spec.ranks;
        let t_refi = spec.t_refi;
        MemorySystem {
            banks: vec![BankState::default(); n_banks],
            ranks: (0..n_ranks)
                .map(|_| RankState {
                    recent_acts: Vec::new(),
                    last_act: 0,
                    next_refresh: t_refi,
                })
                .collect(),
            bus_free: vec![0; spec.channels],
            stats: SystemStats::default(),
            horizon: 0,
            arrival_clips: 0,
            replay: None,
            replays: 0,
            map: AddressMap::new(spec),
        }
    }

    /// The device spec.
    pub fn spec(&self) -> &DramSpec {
        self.map.spec()
    }

    /// Aggregate statistics since creation.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// Current completion horizon in cycles.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Long transfers answered by replaying the last identical settled
    /// stream instead of walking it burst by burst (see
    /// [`MemorySystem::transfer`]).
    pub fn replays(&self) -> u64 {
        self.replays
    }

    fn rank_key(&self, channel: usize, rank: usize) -> usize {
        channel * self.map.spec().ranks + rank
    }

    /// Applies any refreshes scheduled before `t` on the rank with this
    /// key, blocking its banks and closing their rows.
    fn catch_up_refresh(&mut self, key: usize, t: u64) {
        let next = self.ranks[key].next_refresh;
        if next > t {
            return;
        }
        let spec = self.map.spec();
        let (t_refi, per_rank) = (spec.t_refi, spec.banks_per_rank());
        // All elapsed refresh intervals fire at once: boundaries
        // increase monotonically, so only the last interval's recovery
        // window survives the per-bank `max`, and closing the rows is
        // idempotent — batching is state- and stats-identical to firing
        // them one by one.
        let n = (t - next) / t_refi + 1;
        let last = next + (n - 1) * t_refi;
        let end = last + spec.t_rfc;
        for bank in &mut self.banks[key * per_rank..(key + 1) * per_rank] {
            bank.ready_at = bank.ready_at.max(end);
            bank.open_row = None;
        }
        self.ranks[key].next_refresh = last + t_refi;
        self.stats.refreshes += n;
    }

    /// Earliest ACT issue time at or after `t` respecting tRRD and tFAW.
    fn act_constraint(&mut self, channel: usize, rank: usize, t: u64) -> u64 {
        let key = self.rank_key(channel, rank);
        let spec = self.map.spec();
        let t_rrd = spec.t_rrd;
        let t_faw = spec.t_faw;
        let rs = &mut self.ranks[key];
        let mut issue = t.max(rs.last_act + t_rrd);
        rs.recent_acts.retain(|&a| a + t_faw > issue);
        if rs.recent_acts.len() >= 4 {
            let oldest = rs.recent_acts[rs.recent_acts.len() - 4];
            issue = issue.max(oldest + t_faw);
        }
        issue
    }

    fn note_act(&mut self, channel: usize, rank: usize, at: u64) {
        let key = self.rank_key(channel, rank);
        let rs = &mut self.ranks[key];
        rs.last_act = at;
        rs.recent_acts.push(at);
        if rs.recent_acts.len() > 8 {
            rs.recent_acts.remove(0);
        }
        self.stats.activates += 1;
    }

    /// Performs one burst access arriving at cycle `arrival`; returns its
    /// data-completion cycle.
    pub fn access(&mut self, kind: AccessKind, byte_addr: u64, arrival: u64) -> u64 {
        let d = self.map.decode(byte_addr);
        // Copy the timing fields out rather than clone the spec: this runs
        // once per burst.
        let spec = self.map.spec();
        let flat = d.flat_bank(spec);
        let (t_refi, t_ras, t_rp, t_rcd, t_ccd_l) =
            (spec.t_refi, spec.t_ras, spec.t_rp, spec.t_rcd, spec.t_ccd_l);
        let lat = match kind {
            AccessKind::Read => spec.t_cl,
            AccessKind::Write => spec.t_cwl,
        };
        let (burst_cycles, access_bytes) = (spec.burst_cycles(), spec.access_bytes() as u64);
        self.catch_up_refresh(self.rank_key(d.channel, d.rank), arrival + t_refi);

        // Open the right row.
        let hit = self.banks[flat].open_row == Some(d.row);
        if arrival > self.banks[flat].ready_at {
            self.arrival_clips += 1;
        }
        let mut cmd_ready = self.banks[flat].ready_at.max(arrival);
        if !hit {
            if self.banks[flat].open_row.is_some() {
                // PRE: respect tRAS since the ACT that opened the row.
                let pre_at = cmd_ready.max(self.banks[flat].act_at + t_ras);
                cmd_ready = pre_at + t_rp;
            }
            let act_at = self.act_constraint(d.channel, d.rank, cmd_ready);
            self.note_act(d.channel, d.rank, act_at);
            self.banks[flat].open_row = Some(d.row);
            self.banks[flat].act_at = act_at;
            cmd_ready = act_at + t_rcd;
        } else {
            self.stats.row_hits += 1;
        }

        // Column command: wait for the data bus slot.
        let bus = &mut self.bus_free[d.channel];
        let issue = cmd_ready.max(bus.saturating_sub(lat));
        let data_start = (issue + lat).max(*bus);
        let data_end = data_start + burst_cycles;
        *bus = data_end;
        // Same-bank column spacing.
        self.banks[flat].ready_at = issue + t_ccd_l;

        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.stats.bytes += access_bytes;
        self.horizon = self.horizon.max(data_end);
        data_end
    }

    /// Reads (or writes) a contiguous byte range starting at cycle
    /// `arrival`; returns the completion cycle of the last burst, or
    /// `arrival` itself for an empty range, which touches no state.
    ///
    /// A transfer of at least one rotation window that starts settled
    /// (every bank ready at the same cycle `T0` with a closed row, and no
    /// activation window, bus or horizon reaching past `T0`) is a pure
    /// time translation of the last settled stream with the same kind and
    /// bursts: it is replayed from that stream's record in O(banks)
    /// instead of walked. Every other transfer is walked, and a walked
    /// settled stream becomes the record.
    pub fn transfer(&mut self, kind: AccessKind, start_addr: u64, bytes: u64, arrival: u64) -> u64 {
        if bytes == 0 {
            return arrival;
        }
        let g = self.map.spec().access_bytes() as u64;
        let key = (kind, start_addr / g, (start_addr + bytes - 1) / g);
        let settled = if key.2 - key.1 + 1 >= self.rotation_bursts() {
            self.settle(arrival)
        } else {
            None
        };
        let Some(t0) = settled else {
            return self.walk(key, arrival);
        };
        if let Some(end) = self.replay(key, t0) {
            return end;
        }
        let before = self.stats;
        let end = self.walk(key, arrival);
        self.record(key, t0, end, &before);
        end
    }

    /// Applies every rank's refresh due by `arrival + tREFI` and returns
    /// the settled start `T0` of a long transfer arriving at `arrival`, if
    /// it has one.
    ///
    /// The catch-up is exactly the one a long transfer's walk makes at each
    /// rank's first burst (one rotation window visits every rank), and no
    /// burst reads another rank's banks, so applying it up front is state-
    /// and stats-identical. The start is settled when every bank then has
    /// the same `ready_at` (`T0`) and a closed row, every rank's `tRRD`
    /// and `tFAW` windows have closed by `T0`, and no channel bus and not
    /// the horizon reach past `T0`. Every field a burst reads is then
    /// either `T0` or loses every `max` it enters, and since the refresh
    /// puts `T0` after `arrival` no arrival clip fires: the stream's end,
    /// final state and command counts are `T0` plus a function of its key.
    fn settle(&mut self, arrival: u64) -> Option<u64> {
        let spec = self.map.spec();
        let (t_refi, t_rrd, t_faw) = (spec.t_refi, spec.t_rrd, spec.t_faw);
        for key in 0..self.ranks.len() {
            self.catch_up_refresh(key, arrival + t_refi);
        }
        let t0 = self.banks[0].ready_at;
        let settled = self
            .banks
            .iter()
            .all(|b| b.ready_at == t0 && b.open_row.is_none())
            && self.ranks.iter().all(|r| {
                r.last_act + t_rrd <= t0 && r.recent_acts.iter().all(|&a| a + t_faw <= t0)
            })
            && self.bus_free.iter().all(|&b| b <= t0)
            && self.horizon <= t0;
        settled.then_some(t0)
    }

    /// Writes back the record of the last settled stream, translated to
    /// start at `t0`, and returns its end; `None` if the record holds
    /// another stream.
    fn replay(&mut self, key: StreamKey, t0: u64) -> Option<u64> {
        let MemorySystem {
            banks,
            ranks,
            bus_free,
            stats,
            horizon,
            replay,
            replays,
            ..
        } = self;
        let (_, rec) = replay.as_ref().filter(|(k, _)| *k == key)?;
        for (bank, &(open_row, ready_at, act_at)) in banks.iter_mut().zip(&rec.banks) {
            bank.open_row = open_row;
            bank.ready_at = t0 + ready_at;
            bank.act_at = t0 + act_at;
        }
        for (rank, (acts, last_act, _)) in ranks.iter_mut().zip(&rec.ranks) {
            rank.recent_acts.clear();
            rank.recent_acts.extend(acts.iter().map(|a| t0 + a));
            rank.last_act = t0 + last_act;
        }
        for (bus, b) in bus_free.iter_mut().zip(&rec.bus_free) {
            *bus = t0 + b;
        }
        stats.add(&rec.stats, 1);
        *horizon = t0 + rec.horizon;
        *replays += 1;
        Some(t0 + rec.end)
    }

    /// Keeps a just-walked settled stream as the replay record: its end
    /// and its post-stream state relative to `t0`, and its command counts
    /// since `before`. The stream activated every bank and rank and drove
    /// every channel, so each of these times is at least `t0`.
    fn record(&mut self, key: StreamKey, t0: u64, end: u64, before: &SystemStats) {
        let rec = StreamSnapshot {
            end: end - t0,
            horizon: self.horizon - t0,
            arrival_clips: 0,
            refreshes: 0,
            banks: self
                .banks
                .iter()
                .map(|b| (b.open_row, b.ready_at - t0, b.act_at - t0))
                .collect(),
            ranks: self
                .ranks
                .iter()
                .map(|r| {
                    let acts = r.recent_acts.iter().map(|a| a - t0).collect();
                    (acts, r.last_act - t0, 0)
                })
                .collect(),
            bus_free: self.bus_free.iter().map(|b| b - t0).collect(),
            stats: Self::stats_delta(before, &self.stats).expect("command counts only grow"),
        };
        self.replay = Some((key, rec));
    }

    /// Walks the bursts `first..=last` of `key` burst by burst, arriving
    /// at `arrival`, and returns the completion cycle of the last one.
    fn walk(&mut self, (kind, first, last): StreamKey, arrival: u64) -> u64 {
        let g = self.map.spec().access_bytes() as u64;
        // Long contiguous streams are periodic: the address map rotates
        // channel -> bank group -> bank -> column -> rank before the row
        // advances, so after `window` bursts the controller revisits the
        // same banks one row further along. Once the pipeline reaches
        // steady state, consecutive windows are exact time-translated
        // copies of each other — detect that and apply the remaining
        // windows in O(1) instead of burst-by-burst. Bit-exactness: the
        // controller's update rules are maxes of state-plus-constant
        // terms, so shifting every live state field by the observed
        // uniform delta shifts every outcome by the same delta, provided
        // no comparison against a transfer constant (the arrival clip,
        // the refresh bound) fired during the observed windows.
        let window = self.rotation_bursts();
        let mut end = arrival;
        let mut burst = first;
        let mut snaps: Vec<StreamSnapshot> = Vec::new();
        while burst <= last {
            end = end.max(self.access(kind, burst * g, arrival));
            burst += 1;
            let done = burst - first;
            if !done.is_multiple_of(window) || last + 1 - burst < window {
                continue;
            }
            snaps.push(self.snapshot(end));
            if snaps.len() < 3 {
                continue;
            }
            if snaps.len() > 3 {
                snaps.remove(0);
            }
            if let Some(delta) = Self::steady_delta(&snaps) {
                let k = (last + 1 - burst) / window;
                if k > 0 {
                    self.apply_windows(&delta, k);
                    end += k * delta.wall;
                    burst += k * window;
                    snaps.clear();
                }
            }
        }
        end
    }

    /// Bursts per full address-rotation period: one visit to every
    /// (channel, bank group, bank, column, rank) before the row index
    /// advances.
    fn rotation_bursts(&self) -> u64 {
        let s = self.map.spec();
        (s.channels * s.bank_groups * s.banks_per_group * s.ranks) as u64
            * self.map.bursts_per_row()
    }

    fn snapshot(&self, end: u64) -> StreamSnapshot {
        StreamSnapshot {
            end,
            horizon: self.horizon,
            arrival_clips: self.arrival_clips,
            refreshes: self.stats.refreshes,
            banks: self
                .banks
                .iter()
                .map(|b| (b.open_row, b.ready_at, b.act_at))
                .collect(),
            ranks: self
                .ranks
                .iter()
                .map(|r| (r.recent_acts.clone(), r.last_act, r.next_refresh))
                .collect(),
            bus_free: self.bus_free.clone(),
            stats: self.stats,
        }
    }

    /// Checks whether the last three window snapshots describe a steady
    /// periodic stream, and if so returns its per-window delta. Every
    /// time-like field must advance by the same `wall` (or not at all,
    /// consistently), rows must advance by a fixed per-bank increment,
    /// and no refresh or arrival clip may have fired in either window.
    fn steady_delta(snaps: &[StreamSnapshot]) -> Option<WindowDelta> {
        let (a, b, c) = (&snaps[0], &snaps[1], &snaps[2]);
        let wall = b.end.checked_sub(a.end)?;
        if wall == 0 || c.end - b.end != wall {
            return None;
        }
        if b.horizon - a.horizon != wall || c.horizon - b.horizon != wall {
            return None;
        }
        if b.arrival_clips != a.arrival_clips || c.arrival_clips != b.arrival_clips {
            return None;
        }
        if b.refreshes != a.refreshes || c.refreshes != b.refreshes {
            return None;
        }
        // A time-like field may sit still or move by exactly `wall`, and
        // must do the same thing in both observed windows.
        let step = |x: u64, y: u64, z: u64| -> Option<u64> {
            let d = y.checked_sub(x)?;
            if z.checked_sub(y)? != d || (d != 0 && d != wall) {
                return None;
            }
            Some(d)
        };
        let mut banks = Vec::with_capacity(a.banks.len());
        for ((ba, bb), bc) in a.banks.iter().zip(&b.banks).zip(&c.banks) {
            let row_inc = match (ba.0, bb.0, bc.0) {
                (Some(x), Some(y), Some(z)) => {
                    let d = y.checked_sub(x)?;
                    if z.checked_sub(y)? != d {
                        return None;
                    }
                    d
                }
                (None, None, None) => 0,
                _ => return None,
            };
            banks.push((row_inc, step(ba.1, bb.1, bc.1)?, step(ba.2, bb.2, bc.2)?));
        }
        let mut ranks = Vec::with_capacity(a.ranks.len());
        for ((ra, rb), rc) in a.ranks.iter().zip(&b.ranks).zip(&c.ranks) {
            if ra.2 != rb.2 || rb.2 != rc.2 {
                return None; // refresh schedule must be settled
            }
            if ra.0.len() != rb.0.len() || rb.0.len() != rc.0.len() {
                return None;
            }
            for ((&x, &y), &z) in ra.0.iter().zip(&rb.0).zip(&rc.0) {
                if y.checked_sub(x)? != wall || z.checked_sub(y)? != wall {
                    return None;
                }
            }
            ranks.push(step(ra.1, rb.1, rc.1)?);
        }
        let mut bus_free = Vec::with_capacity(a.bus_free.len());
        for ((&x, &y), &z) in a.bus_free.iter().zip(&b.bus_free).zip(&c.bus_free) {
            bus_free.push(step(x, y, z)?);
        }
        let d1 = Self::stats_delta(&a.stats, &b.stats)?;
        let d2 = Self::stats_delta(&b.stats, &c.stats)?;
        if d1 != d2 {
            return None;
        }
        Some(WindowDelta {
            wall,
            banks,
            ranks,
            bus_free,
            stats: d1,
        })
    }

    fn stats_delta(a: &SystemStats, b: &SystemStats) -> Option<SystemStats> {
        Some(SystemStats {
            activates: b.activates.checked_sub(a.activates)?,
            reads: b.reads.checked_sub(a.reads)?,
            writes: b.writes.checked_sub(a.writes)?,
            row_hits: b.row_hits.checked_sub(a.row_hits)?,
            refreshes: b.refreshes.checked_sub(a.refreshes)?,
            bytes: b.bytes.checked_sub(a.bytes)?,
        })
    }

    /// Advances the state by `k` steady windows at once.
    ///
    /// Rows advance modulo the row count: row values influence timing
    /// only through the per-bank `open_row == decoded row` equality,
    /// and decoded rows are themselves a modulo of the linearly
    /// advancing address — shifting both sides by `k * row_inc mod
    /// rows` preserves every equality outcome, so extrapolation runs
    /// straight through address-space wrap-around.
    fn apply_windows(&mut self, d: &WindowDelta, k: u64) {
        let rows = self.map.spec().rows as u64;
        for (bank, &(row_inc, ready_d, act_d)) in self.banks.iter_mut().zip(&d.banks) {
            if row_inc > 0 {
                bank.open_row = bank.open_row.map(|r| (r + k * row_inc % rows) % rows);
            }
            bank.ready_at += k * ready_d;
            bank.act_at += k * act_d;
        }
        for (rank, &last_act_d) in self.ranks.iter_mut().zip(&d.ranks) {
            rank.last_act += k * last_act_d;
            for t in &mut rank.recent_acts {
                *t += k * d.wall;
            }
        }
        for (bus, &bd) in self.bus_free.iter_mut().zip(&d.bus_free) {
            *bus += k * bd;
        }
        self.stats.add(&d.stats, k);
        self.horizon += k * d.wall;
    }

    /// Streams a contiguous read starting now and reports achieved
    /// bandwidth.
    pub fn stream_read(&mut self, start_addr: u64, bytes: u64) -> StreamResult {
        let begin = self.horizon;
        let end = self.transfer(AccessKind::Read, start_addr, bytes, begin);
        let cycles = end - begin;
        StreamResult {
            bytes,
            cycles,
            ns: cycles as f64 * self.map.spec().clock_ns(),
        }
    }

    /// Streams a contiguous write starting now.
    pub fn stream_write(&mut self, start_addr: u64, bytes: u64) -> StreamResult {
        let begin = self.horizon;
        let end = self.transfer(AccessKind::Write, start_addr, bytes, begin);
        let cycles = end - begin;
        StreamResult {
            bytes,
            cycles,
            ns: cycles as f64 * self.map.spec().clock_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_stream_hits_paper_bandwidth_band() {
        let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
        let res = mem.stream_read(0, 64 << 20);
        let bw = res.bandwidth_gbps();
        assert!((380.0..=425.0).contains(&bw), "achieved {bw} GB/s");
        // Streaming opens each 16-burst row once: 15/16 hits, minus
        // refresh-induced reopenings.
        assert!(mem.stats().hit_rate() > 0.90);
    }

    #[test]
    fn ddr4_is_an_order_of_magnitude_slower() {
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let mut ddr = MemorySystem::new(DramSpec::ddr4_apu());
        let h = hbm.stream_read(0, 16 << 20);
        let d = ddr.stream_read(0, 16 << 20);
        assert!(d.ns > h.ns * 10.0);
        let bw = d.bandwidth_gbps();
        assert!((20.0..=24.0).contains(&bw), "DDR4 achieved {bw} GB/s");
    }

    #[test]
    fn random_access_is_much_slower_than_streaming() {
        let spec = DramSpec::hbm2e_16gb();
        let mut mem = MemorySystem::new(spec.clone());
        // Strided accesses that always miss the row buffer: jump a full
        // row-cycling stride each access within one bank.
        let row_stride = (spec.access_bytes()
            * spec.channels
            * spec.bank_groups
            * spec.banks_per_group
            * (spec.row_bytes / spec.access_bytes())
            * spec.ranks) as u64;
        let mut end = 0;
        let n = 2000u64;
        for i in 0..n {
            end = end.max(mem.access(AccessKind::Read, i * row_stride, 0));
        }
        let random_bw = (n * spec.access_bytes() as u64) as f64 / (end as f64 * spec.clock_ns());
        let mut mem2 = MemorySystem::new(spec.clone());
        let stream_bw = mem2
            .stream_read(0, n * spec.access_bytes() as u64)
            .bandwidth_gbps();
        assert!(
            stream_bw > 4.0 * random_bw,
            "stream {stream_bw} vs random {random_bw}"
        );
        assert_eq!(mem.stats().row_hits, 0);
    }

    #[test]
    fn steady_state_fast_path_is_bit_exact() {
        // The windowed extrapolation in `transfer` must be observably
        // identical to the burst-by-burst walk: same completion time,
        // same statistics, same horizon, and the same internal state as
        // witnessed by follow-up transfers that re-read the streamed
        // region (row-buffer state) and then write elsewhere.
        for spec in [DramSpec::hbm2e_16gb(), DramSpec::ddr4_apu()] {
            let g = spec.access_bytes() as u64;
            let mut fast = MemorySystem::new(spec.clone());
            let mut slow = MemorySystem::new(spec.clone());
            // Misaligned start and odd length, long enough for many
            // rotation windows.
            let start = 12_345 * g + 7;
            let bytes = (24 << 20) + 133;
            let arrival = 1_000;
            let end_fast = fast.transfer(AccessKind::Read, start, bytes, arrival);
            let first = start / g;
            let last = (start + bytes - 1) / g;
            let mut end_slow = arrival;
            for b in first..=last {
                end_slow = end_slow.max(slow.access(AccessKind::Read, b * g, arrival));
            }
            assert_eq!(end_fast, end_slow, "stream end diverged for {spec:?}");
            assert_eq!(fast.stats(), slow.stats());
            assert_eq!(fast.horizon(), slow.horizon());
            // Follow-ups exercise the post-stream bank state.
            let f2 = fast.transfer(AccessKind::Read, start, 1 << 16, end_fast + 10);
            let s2 = slow.transfer(AccessKind::Read, start, 1 << 16, end_slow + 10);
            assert_eq!(f2, s2, "post-stream re-read diverged for {spec:?}");
            let f3 = fast.transfer(AccessKind::Write, 999, 4_096, f2 + 5);
            let s3 = slow.transfer(AccessKind::Write, 999, 4_096, s2 + 5);
            assert_eq!(f3, s3, "post-stream write diverged for {spec:?}");
            assert_eq!(fast.stats(), slow.stats());
        }
    }

    #[test]
    fn fast_path_extrapolates_through_address_wraparound() {
        // A stream longer than the device wraps the row index back to
        // zero mid-stream. The extrapolation advances rows modulo the
        // row count, so the wrap must not perturb the timeline; a tiny
        // spec keeps the burst-by-burst oracle affordable while the
        // stream wraps the full address space several times.
        let mut spec = DramSpec::hbm2e_16gb();
        spec.channels = 1;
        spec.ranks = 1;
        spec.bank_groups = 2;
        spec.banks_per_group = 2;
        spec.rows = 16;
        spec.row_bytes = 256;
        // Capacity: 1 ch x 1 rank x 4 banks x 16 rows x 256 B = 16 KB.
        let g = spec.access_bytes() as u64;
        let mut fast = MemorySystem::new(spec.clone());
        let mut slow = MemorySystem::new(spec);
        let start = 3 * g + 1;
        let bytes = (128 << 10) + 57; // wraps the 16 KB device ~8 times
        let arrival = 2_500;
        let end_fast = fast.transfer(AccessKind::Read, start, bytes, arrival);
        let first = start / g;
        let last = (start + bytes - 1) / g;
        let mut end_slow = arrival;
        for b in first..=last {
            end_slow = end_slow.max(slow.access(AccessKind::Read, b * g, arrival));
        }
        assert_eq!(end_fast, end_slow, "stream end diverged across the wrap");
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.horizon(), slow.horizon());
        // Post-stream witnesses: the surviving row-buffer state must
        // carry the wrapped (modular) row values.
        let f2 = fast.transfer(AccessKind::Read, 0, 8 << 10, end_fast + 10);
        let s2 = slow.transfer(AccessKind::Read, 0, 8 << 10, end_slow + 10);
        assert_eq!(f2, s2, "post-wrap re-read diverged");
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    fn back_to_back_fast_path_streams_match_the_slow_walk() {
        // Repeated full-corpus streams are the serving hot path; each
        // must replay the exact slow-walk timeline even though the
        // refresh phase differs from stream to stream. Every stream after
        // the first is a settled-stream replay.
        let spec = DramSpec::hbm2e_16gb();
        let g = spec.access_bytes() as u64;
        let mut fast = MemorySystem::new(spec.clone());
        let mut slow = MemorySystem::new(spec);
        let bytes = 8 << 20;
        for _ in 0..3 {
            let rf = fast.stream_read(0, bytes);
            let begin = slow.horizon();
            let mut end = begin;
            for b in 0..bytes.div_ceil(g) {
                end = end.max(slow.access(AccessKind::Read, b * g, begin));
            }
            assert_eq!(rf.cycles, end - begin);
            assert_eq!(fast.stats(), slow.stats());
            assert_eq!(fast.horizon(), slow.horizon());
        }
        assert_eq!(fast.replays(), 2);
    }

    #[test]
    fn replay_refuses_a_start_with_any_unsettled_field() {
        // Each case breaks one settle condition by hand, after a settle,
        // on two systems with the same history of which only one holds
        // the record: the stream must walk on both and agree.
        type Perturb = fn(&mut MemorySystem, u64);
        const LATE: u64 = 100_000;
        let cases: [(&str, Perturb); 6] = [
            ("ready_at", |m, t0| m.banks[5].ready_at = t0 + LATE),
            ("open row", |m, _| m.banks[5].open_row = Some(0)),
            ("tRRD", |m, t0| m.ranks[0].last_act = t0 + LATE),
            ("tFAW", |m, t0| m.ranks[0].recent_acts = vec![t0 + LATE; 4]),
            ("bus", |m, t0| m.bus_free[2] = t0 + LATE),
            ("horizon", |m, t0| m.horizon = t0 + LATE),
        ];
        for (what, perturb) in cases {
            let run = |recorded: bool| {
                let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
                mem.stream_read(0, 1 << 20);
                if !recorded {
                    mem.replay = None;
                }
                let arrival = mem.horizon();
                let t0 = mem
                    .settle(arrival)
                    .expect("a stream at the horizon is settled");
                perturb(&mut mem, t0);
                let end = mem.transfer(AccessKind::Read, 0, 1 << 20, arrival);
                (end, mem.stats(), mem.horizon(), mem.replays())
            };
            assert_eq!(run(true), run(false), "replayed past an unsettled {what}");
        }
    }

    #[test]
    fn zero_byte_transfer_touches_nothing() {
        let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
        let r = mem.stream_read(0, 0);
        assert_eq!((r.bytes, r.cycles), (0, 0));
        assert_eq!(mem.transfer(AccessKind::Write, 4_096, 0, 777), 777);
        assert_eq!(mem.stats(), SystemStats::default());
        assert_eq!(mem.horizon(), 0);
    }

    #[test]
    fn refresh_happens_on_long_streams() {
        let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
        mem.stream_read(0, 256 << 20);
        assert!(mem.stats().refreshes > 0);
    }

    #[test]
    fn writes_are_tracked_separately() {
        let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
        let r = mem.stream_write(0, 1 << 20);
        assert!(r.bandwidth_gbps() > 100.0);
        assert!(mem.stats().writes > 0);
        assert_eq!(mem.stats().reads, 0);
    }

    #[test]
    fn back_to_back_streams_advance_the_horizon() {
        let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
        let a = mem.stream_read(0, 1 << 20);
        let h1 = mem.horizon();
        let b = mem.stream_read(0, 1 << 20);
        assert!(mem.horizon() > h1);
        // Second pass re-reads the same rows: at least as fast.
        assert!(b.cycles <= a.cycles + 100);
    }

    #[test]
    fn tiny_transfer_is_latency_bound() {
        let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
        let r = mem.stream_read(0, 64);
        // One burst: ACT + tRCD + tCL + burst ≈ 50 cycles, far below peak BW.
        assert!(r.cycles >= 40);
        assert!(r.bandwidth_gbps() < 10.0);
    }
}
