//! Vector Command Unit and serving-queue statistics.
//!
//! The paper's Table 6 reports the number of APU µCode instructions per
//! workload "as reported by the Vector Command Unit"; [`VcuStats`] is the
//! simulator's equivalent counter, plus the per-class cycle attribution
//! consumed by the energy model (`cis-energy`). [`QueueStats`] carries
//! the serving-side counters of the [`crate::DeviceQueue`] dispatcher —
//! wait/service/latency accumulation, occupancy, and continuous-batching
//! batch-size accounting.

use std::collections::BTreeMap;
use std::ops::Sub;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::core::CycleClass;
use crate::timing::VecOp;

/// Cumulative command/cycle statistics for one core.
///
/// Obtained from [`crate::ApuCore::stats`]; task-scoped deltas are
/// reported in [`crate::TaskReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcuStats {
    /// Vector commands issued (GVML-level calls).
    pub commands: u64,
    /// µCode micro-operations executed. Fixed-latency vector commands
    /// decode to approximately one micro-op per busy cycle.
    pub micro_ops: u64,
    /// Cycles spent in bit-processor computation.
    pub compute_cycles: u64,
    /// Cycles the DMA engines were busy.
    pub dma_cycles: u64,
    /// Cycles spent on programmed I/O.
    pub pio_cycles: u64,
    /// Cycles spent on L3 indexed lookups.
    pub lookup_cycles: u64,
    /// Control-processor command issue overhead cycles.
    pub issue_cycles: u64,
    /// Bytes moved over the L4 (device DRAM) interface.
    pub l4_bytes: u64,
    /// Individual PIO element transfers.
    pub pio_elems: u64,
    /// DMA transactions initiated.
    pub dma_transactions: u64,
    /// Per-mnemonic command counts.
    pub per_op: BTreeMap<String, u64>,
}

impl VcuStats {
    /// Records one fixed-latency vector command.
    pub(crate) fn record_op(&mut self, op: VecOp, cost: u64, issue: u64) {
        self.commands += 1;
        self.micro_ops += cost;
        self.compute_cycles += cost;
        self.issue_cycles += issue;
        *self.per_op.entry(op.mnemonic().to_string()).or_insert(0) += 1;
    }

    /// Records a variable-latency operation by class.
    pub(crate) fn record_class(&mut self, class: CycleClass, cycles: u64) {
        match class {
            CycleClass::Compute => {
                self.compute_cycles += cycles;
                self.micro_ops += cycles;
            }
            CycleClass::Dma => self.dma_cycles += cycles,
            CycleClass::Pio => self.pio_cycles += cycles,
            CycleClass::Lookup => self.lookup_cycles += cycles,
            CycleClass::Issue => self.issue_cycles += cycles,
        }
    }

    /// Records one raw micro-op issue.
    pub(crate) fn record_micro(&mut self) {
        self.micro_ops += 1;
        self.compute_cycles += 1;
    }

    /// Records an L4 transfer of `bytes` within one DMA transaction.
    pub(crate) fn record_dma_transaction(&mut self, bytes: u64) {
        self.dma_transactions += 1;
        self.l4_bytes += bytes;
    }

    /// Records `n` PIO element transfers of `bytes_each` bytes.
    pub(crate) fn record_pio_elems(&mut self, n: u64, bytes_each: u64) {
        self.pio_elems += n;
        self.l4_bytes += n * bytes_each;
    }

    /// Total busy cycles across all classes.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles
            + self.dma_cycles
            + self.pio_cycles
            + self.lookup_cycles
            + self.issue_cycles
    }

    /// Merges another statistics block into this one (used when joining
    /// parallel cores).
    pub fn merge(&mut self, other: &VcuStats) {
        self.commands += other.commands;
        self.micro_ops += other.micro_ops;
        self.compute_cycles += other.compute_cycles;
        self.dma_cycles += other.dma_cycles;
        self.pio_cycles += other.pio_cycles;
        self.lookup_cycles += other.lookup_cycles;
        self.issue_cycles += other.issue_cycles;
        self.l4_bytes += other.l4_bytes;
        self.pio_elems += other.pio_elems;
        self.dma_transactions += other.dma_transactions;
        for (k, v) in &other.per_op {
            *self.per_op.entry(k.clone()).or_insert(0) += v;
        }
    }
}

impl Sub for &VcuStats {
    type Output = VcuStats;

    /// Delta between two snapshots (`end - start`). Per-op counts below
    /// the start snapshot are clamped to zero.
    fn sub(self, start: &VcuStats) -> VcuStats {
        let mut per_op = BTreeMap::new();
        for (k, v) in &self.per_op {
            let before = start.per_op.get(k).copied().unwrap_or(0);
            if *v > before {
                per_op.insert(k.clone(), v - before);
            }
        }
        VcuStats {
            commands: self.commands - start.commands,
            micro_ops: self.micro_ops - start.micro_ops,
            compute_cycles: self.compute_cycles - start.compute_cycles,
            dma_cycles: self.dma_cycles - start.dma_cycles,
            pio_cycles: self.pio_cycles - start.pio_cycles,
            lookup_cycles: self.lookup_cycles - start.lookup_cycles,
            issue_cycles: self.issue_cycles - start.issue_cycles,
            l4_bytes: self.l4_bytes - start.l4_bytes,
            pio_elems: self.pio_elems - start.pio_elems,
            dma_transactions: self.dma_transactions - start.dma_transactions,
            per_op,
        }
    }
}

/// Default sample bound of a [`LatencyReservoir`].
pub const DEFAULT_RESERVOIR_CAP: usize = 4096;

/// Bounded, deterministic reservoir of latency samples (Algorithm R).
///
/// The first `cap` samples are kept verbatim, so [`percentile`] over the
/// reservoir is *exact* below the cap; past it, each new sample replaces
/// a uniformly chosen slot with probability `cap / seen`, driven by a
/// fixed-seed SplitMix64 stream so runs are reproducible. Memory stays
/// `O(cap)` no matter how many completions a serving run retires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyReservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    samples: Vec<Duration>,
}

impl Default for LatencyReservoir {
    fn default() -> Self {
        LatencyReservoir::with_capacity(DEFAULT_RESERVOIR_CAP)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl LatencyReservoir {
    /// Creates a reservoir bounded to `cap` samples (clamped to ≥ 1).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        LatencyReservoir {
            cap,
            seen: 0,
            rng: 0x005e_ed1a_7e9c_0ffe,
            samples: Vec::new(),
        }
    }

    /// Offers one sample to the reservoir.
    pub fn push(&mut self, sample: Duration) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(sample);
        } else {
            // Algorithm R: replace a uniform slot in [0, seen) — the
            // sample survives with probability cap / seen.
            let j = (splitmix64(&mut self.rng) % self.seen) as usize;
            if j < self.cap {
                self.samples[j] = sample;
            }
        }
    }

    /// Samples currently held (≤ the cap).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was ever offered.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total samples offered, including evicted ones.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The reservoir bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The retained samples, unordered.
    pub fn as_slice(&self) -> &[Duration] {
        &self.samples
    }
}

/// Per-task latency decomposed into serving stages, in the spirit of the
/// paper's §4–§5 time attribution (DMA vs compute vs queueing).
///
/// The four components always sum *exactly* to the task's end-to-end
/// latency — no lost or double-booked time:
///
/// * `queue_wait` — arrival to dispatch (scheduling delay, batch-window
///   waits, retry backoff),
/// * `dispatch` — the control-processor command-issue share of service,
/// * `dma` — the DMA-engine share of service (stall cycles the CP spent
///   waiting on transfers),
/// * `device` — everything else on the device: compute, PIO, and lookup
///   cycles, plus attribution rounding.
///
/// The service-time split is proportional to the task's [`VcuStats`]
/// cycle classes, computed in integer nanoseconds with the `device`
/// component defined as the remainder, so
/// `queue_wait + dispatch + dma + device == latency` holds bit-exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Arrival → dispatch: scheduling delay on the virtual timeline.
    pub queue_wait: Duration,
    /// Command-issue overhead share of service time.
    pub dispatch: Duration,
    /// DMA share of service time.
    pub dma: Duration,
    /// Remaining device time: compute, PIO, lookup, rounding.
    pub device: Duration,
}

impl StageBreakdown {
    /// Builds a breakdown from a queueing delay, a service time, and the
    /// task's device-cycle attribution.
    pub fn from_parts(queue_wait: Duration, service: Duration, stats: &VcuStats) -> Self {
        let (dispatch, dma, device) = stage_split(service, stats);
        StageBreakdown {
            queue_wait,
            dispatch,
            dma,
            device,
        }
    }

    /// The service-time share (`dispatch + dma + device`), equal to the
    /// task's `finished_at - started_at`.
    pub fn service(&self) -> Duration {
        self.dispatch + self.dma + self.device
    }

    /// Total accounted time, equal to the task's end-to-end latency.
    pub fn total(&self) -> Duration {
        self.queue_wait + self.service()
    }

    /// Accumulates another breakdown (for per-queue stage totals).
    pub fn accumulate(&mut self, other: &StageBreakdown) {
        self.queue_wait += other.queue_wait;
        self.dispatch += other.dispatch;
        self.dma += other.dma;
        self.device += other.device;
    }
}

/// Splits a service time into `(dispatch, dma, device)` proportionally
/// to the cycle classes in `stats`, in integer nanoseconds. `device` is
/// the exact remainder, so the three parts always sum to `service`.
pub fn stage_split(service: Duration, stats: &VcuStats) -> (Duration, Duration, Duration) {
    let total = stats.total_cycles();
    if total == 0 || service.is_zero() {
        return (Duration::ZERO, Duration::ZERO, service);
    }
    let nanos = service.as_nanos();
    let share = |cycles: u64| -> Duration {
        Duration::from_nanos((nanos * cycles as u128 / total as u128) as u64)
    };
    let dispatch = share(stats.issue_cycles);
    let dma = share(stats.dma_cycles);
    // Floor division guarantees dispatch + dma ≤ service; the remainder
    // (compute, PIO, lookup, rounding) is charged to the device stage.
    let device = service - dispatch - dma;
    (dispatch, dma, device)
}

/// Monotone per-queue counters, in the style of [`VcuStats`].
///
/// Tracked by [`crate::DeviceQueue`]: admission and completion counts,
/// accumulated wait/service/latency with a latency reservoir for
/// percentile reporting, core occupancy, failure-containment counters
/// (failed / expired / retried work), and — for the continuous batching
/// dispatcher — per-dispatch batch-size and backlog counters.
///
/// Wait/service/latency accumulators and the latency reservoir cover
/// **successful** completions only; failed and shed tasks are counted in
/// [`QueueStats::failed`] / [`QueueStats::expired`], and the device time
/// a failed job consumed is still booked on the virtual timeline (it
/// shows up in [`QueueStats::busy`], `makespan`, and later tasks' waits).
/// Per-tenant slice of the queue counters, keyed by the raw
/// [`crate::TenantId`] in [`QueueStats::per_tenant`]. Follows the same
/// conventions as the queue-wide block: the wait/latency/stage
/// accumulators cover **successful** completions only, while shed and
/// failed work is visible through its own counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tasks this tenant submitted (accepted by admission).
    pub submitted: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Tasks retired with an error completion (excludes deadline and
    /// admission shedding).
    pub failed: u64,
    /// Tasks shed because their deadline passed before dispatch.
    pub expired: u64,
    /// Tasks shed by cluster-level admission control (backlog over the
    /// watermark; see [`crate::AdmissionControl`]).
    pub shed: u64,
    /// Accumulated queueing delay over successful completions.
    pub total_wait: Duration,
    /// Accumulated end-to-end latency over successful completions.
    pub total_latency: Duration,
    /// Accumulated command-issue stage over successful completions.
    pub stage_dispatch: Duration,
    /// Accumulated DMA stage over successful completions.
    pub stage_dma: Duration,
    /// Accumulated device (compute/PIO/lookup) stage over successful
    /// completions.
    pub stage_device: Duration,
}

impl TenantStats {
    /// Mean end-to-end latency over this tenant's completions.
    ///
    /// Computed in 128-bit nanoseconds: a `u32` divisor cast would wrap
    /// for counts ≥ 2³² (and panic on a wrap to exactly zero).
    pub fn mean_latency(&self) -> Duration {
        duration_mean(self.total_latency, self.completed)
    }

    /// Per-stage latency totals for this tenant (queue wait plus the
    /// three service stages), mirroring [`QueueStats::stage_totals`].
    pub fn stage_totals(&self) -> StageBreakdown {
        StageBreakdown {
            queue_wait: self.total_wait,
            dispatch: self.stage_dispatch,
            dma: self.stage_dma,
            device: self.stage_device,
        }
    }

    /// Folds another tenant block into this one (cluster roll-up).
    pub fn merge(&mut self, other: &TenantStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.expired += other.expired;
        self.shed += other.shed;
        self.total_wait += other.total_wait;
        self.total_latency += other.total_latency;
        self.stage_dispatch += other.stage_dispatch;
        self.stage_dma += other.stage_dma;
        self.stage_device += other.stage_device;
    }
}

/// Aggregate serving statistics of a [`crate::DeviceQueue`]: admission,
/// dispatch, batching, shedding, and latency counters, plus per-tenant
/// slices. Comparable with `==` (the reservoir compares its retained
/// samples), which the API-compat tests use to prove the deprecated
/// `submit_*` shims and the [`crate::TaskSpec`] path book identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueStats {
    /// Tasks accepted by `submit`.
    pub submitted: u64,
    /// Tasks rejected by admission control.
    pub rejected: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Tasks retired with an error completion (failed jobs, failed batch
    /// members, exhausted retries). Excludes deadline-shed tasks.
    pub failed: u64,
    /// Tasks shed because their deadline passed before dispatch.
    pub expired: u64,
    /// Tasks shed by cluster-level admission control (backlog over the
    /// configured watermark; see [`crate::AdmissionControl`]).
    pub shed_admission: u64,
    /// Re-dispatch attempts made by the bounded retry policy.
    pub retries: u64,
    /// Multi-query batch jobs dispatched (submissions with a
    /// [`crate::TaskSpec::weight`] above 1).
    pub batches: u64,
    /// Logical tasks folded into those batch jobs.
    pub batched_tasks: u64,
    /// Device dispatches issued; a coalesced batch counts once.
    pub dispatches: u64,
    /// Logical tasks carried by those dispatches (batch members, plus
    /// the declared weight of weighted jobs).
    pub dispatched_tasks: u64,
    /// Largest batch the continuous-batching dispatcher coalesced.
    pub max_batch_size: u64,
    /// Largest backlog observed at submission time.
    pub peak_pending: usize,
    /// Accumulated queueing delay (start − arrival) over completions.
    pub total_wait: Duration,
    /// Accumulated service time (finish − start) over completions.
    pub total_service: Duration,
    /// Accumulated end-to-end latency (finish − arrival).
    pub total_latency: Duration,
    /// Accumulated command-issue stage over completions (see
    /// [`StageBreakdown::dispatch`]).
    pub stage_dispatch: Duration,
    /// Accumulated DMA stage over completions.
    pub stage_dma: Duration,
    /// Accumulated device (compute/PIO/lookup) stage over completions.
    pub stage_device: Duration,
    /// Bounded reservoir of per-completion end-to-end latencies, for
    /// percentile reporting (exact below the cap).
    pub latency_samples: LatencyReservoir,
    /// Core-seconds of busy time (`cores_used × service`).
    pub busy: Duration,
    /// Virtual time of the latest finish.
    pub makespan: Duration,
    /// Number of device cores the queue schedules over.
    pub cores: usize,
    /// Per-tenant counter slices, keyed by raw [`crate::TenantId`].
    /// Tasks submitted without an explicit tenant land under tenant 0.
    pub per_tenant: BTreeMap<u64, TenantStats>,
    /// Display names for tenants (from `QueueConfig::with_tenant_label`),
    /// rendered — escaped — as the `tenant` label value in Prometheus
    /// exposition. Tenants without a name render as their numeric id.
    pub tenant_names: BTreeMap<u64, String>,
}

impl QueueStats {
    /// Mean end-to-end latency over completions, or zero when idle.
    ///
    /// Computed in 128-bit nanoseconds: a `u32` divisor cast would wrap
    /// for counts ≥ 2³² (and panic on a wrap to exactly zero).
    pub fn mean_latency(&self) -> Duration {
        duration_mean(self.total_latency, self.completed)
    }

    /// Latency percentile `q` in `[0, 1]` over completed tasks (nearest
    /// rank), or zero when no task completed. Exact while completions
    /// fit the reservoir cap, a uniform-sample estimate past it.
    pub fn latency_percentile(&self, q: f64) -> Duration {
        percentile(self.latency_samples.as_slice(), q)
    }

    /// Fraction of core-time spent busy over the queue's makespan.
    pub fn occupancy(&self) -> f64 {
        let wall = self.makespan.as_secs_f64() * self.cores as f64;
        if wall <= 0.0 {
            0.0
        } else {
            self.busy.as_secs_f64() / wall
        }
    }

    /// Sustained completions per second over the makespan.
    pub fn throughput(&self) -> f64 {
        let wall = self.makespan.as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            self.completed as f64 / wall
        }
    }

    /// Accumulated per-stage latency totals over successful completions:
    /// `queue_wait` mirrors [`QueueStats::total_wait`] and the three
    /// service stages sum to [`QueueStats::total_service`], so the
    /// breakdown's total equals [`QueueStats::total_latency`].
    pub fn stage_totals(&self) -> StageBreakdown {
        StageBreakdown {
            queue_wait: self.total_wait,
            dispatch: self.stage_dispatch,
            dma: self.stage_dma,
            device: self.stage_device,
        }
    }

    /// Mean logical tasks per device dispatch (1.0 = no coalescing), or
    /// zero before the first dispatch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.dispatched_tasks as f64 / self.dispatches as f64
        }
    }

    /// Folds another queue's counters into this block — the cluster-level
    /// aggregation used by [`crate::DeviceCluster`] and the sharded
    /// serving report.
    ///
    /// Aggregation semantics per field class:
    ///
    /// * event counters (`submitted`, `completed`, `failed`, …) and the
    ///   wait/service/latency/stage accumulators **sum**;
    /// * `max_batch_size` takes the max; `peak_pending` sums — the
    ///   per-shard peaks need not be simultaneous, so the result is an
    ///   upper bound on the cluster-wide instantaneous backlog;
    /// * `busy` sums and `cores` sums, while `makespan` takes the max
    ///   (shards run concurrently on independent virtual timelines), so
    ///   [`QueueStats::occupancy`] stays a cluster-wide busy fraction;
    /// * the other queue's retained latency samples are re-offered to
    ///   this reservoir — exact while the combined totals fit the cap,
    ///   a deterministic subsample past it.
    pub fn merge(&mut self, other: &QueueStats) {
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.failed += other.failed;
        self.expired += other.expired;
        self.shed_admission += other.shed_admission;
        self.retries += other.retries;
        self.batches += other.batches;
        self.batched_tasks += other.batched_tasks;
        self.dispatches += other.dispatches;
        self.dispatched_tasks += other.dispatched_tasks;
        self.max_batch_size = self.max_batch_size.max(other.max_batch_size);
        self.peak_pending += other.peak_pending;
        self.total_wait += other.total_wait;
        self.total_service += other.total_service;
        self.total_latency += other.total_latency;
        self.stage_dispatch += other.stage_dispatch;
        self.stage_dma += other.stage_dma;
        self.stage_device += other.stage_device;
        for &sample in other.latency_samples.as_slice() {
            self.latency_samples.push(sample);
        }
        self.busy += other.busy;
        self.makespan = self.makespan.max(other.makespan);
        self.cores += other.cores;
        for (tenant, stats) in &other.per_tenant {
            self.per_tenant.entry(*tenant).or_default().merge(stats);
        }
        for (tenant, name) in &other.tenant_names {
            self.tenant_names
                .entry(*tenant)
                .or_insert_with(|| name.clone());
        }
    }
}

/// Mean of an accumulated [`Duration`] over `count` events, safe for any
/// `u64` count. `Duration / u32` is unusable here: truncating a `u64`
/// count to `u32` wraps for counts ≥ 2³² and panics when the wrap lands
/// on zero.
fn duration_mean(total: Duration, count: u64) -> Duration {
    if count == 0 {
        return Duration::ZERO;
    }
    let nanos = total.as_nanos() / count as u128;
    Duration::new(
        (nanos / 1_000_000_000) as u64,
        (nanos % 1_000_000_000) as u32,
    )
}

/// Nearest-rank percentile of a (not necessarily sorted) sample set:
/// the `ceil(q·n)`-th smallest sample (1-indexed), with `q = 0` mapping
/// to the minimum. Always returns an actual sample.
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency_survives_counts_past_u32() {
        // Regression: the old `total / completed as u32` wrapped for
        // counts ≥ 2³²; this count truncates to exactly 1 (not 0, which
        // would have panicked — also covered below via + 0 wrap check).
        let completed = u32::MAX as u64 + 1; // truncates to 0 as u32
        let mut t = TenantStats {
            completed,
            total_latency: Duration::from_secs(completed),
            ..TenantStats::default()
        };
        assert_eq!(t.mean_latency(), Duration::from_secs(1));
        // And the wrap-to-nonzero case: 2³² + 2 would have divided by 2.
        t.completed = u32::MAX as u64 + 2;
        t.total_latency = Duration::from_secs(t.completed);
        assert_eq!(t.mean_latency(), Duration::from_secs(1));

        let q = QueueStats {
            completed,
            total_latency: Duration::from_secs(completed * 3),
            ..QueueStats::default()
        };
        assert_eq!(q.mean_latency(), Duration::from_secs(3));
        assert_eq!(QueueStats::default().mean_latency(), Duration::ZERO);
    }

    #[test]
    fn record_and_total() {
        let mut s = VcuStats::default();
        s.record_op(VecOp::AddU16, 12, 2);
        s.record_class(CycleClass::Dma, 100);
        s.record_micro();
        assert_eq!(s.commands, 1);
        assert_eq!(s.micro_ops, 13);
        assert_eq!(s.total_cycles(), 12 + 2 + 100 + 1);
        assert_eq!(s.per_op["add_u16"], 1);
    }

    #[test]
    fn delta_subtraction() {
        let mut start = VcuStats::default();
        start.record_op(VecOp::Or16, 8, 2);
        let mut end = start.clone();
        end.record_op(VecOp::Or16, 8, 2);
        end.record_op(VecOp::AddU16, 12, 2);
        let d = &end - &start;
        assert_eq!(d.commands, 2);
        assert_eq!(d.per_op["or_16"], 1);
        assert_eq!(d.per_op["add_u16"], 1);
        assert_eq!(d.compute_cycles, 20);
    }

    #[test]
    fn merge_combines() {
        let mut a = VcuStats::default();
        a.record_op(VecOp::AddU16, 12, 2);
        let mut b = VcuStats::default();
        b.record_op(VecOp::AddU16, 12, 2);
        b.record_dma_transaction(512);
        a.merge(&b);
        assert_eq!(a.commands, 2);
        assert_eq!(a.per_op["add_u16"], 2);
        assert_eq!(a.l4_bytes, 512);
        assert_eq!(a.dma_transactions, 1);
    }

    #[test]
    fn pio_accounting() {
        let mut s = VcuStats::default();
        s.record_pio_elems(10, 2);
        assert_eq!(s.pio_elems, 10);
        assert_eq!(s.l4_bytes, 20);
    }

    #[test]
    fn reservoir_is_exact_below_cap_and_bounded_above() {
        let ms = |n: u64| Duration::from_millis(n);
        let mut r = LatencyReservoir::with_capacity(64);
        for i in 1..=64 {
            r.push(ms(i));
        }
        assert_eq!(r.len(), 64);
        assert_eq!(r.seen(), 64);
        // Exact below the cap: every sample retained in order.
        assert_eq!(percentile(r.as_slice(), 1.0), ms(64));
        assert_eq!(percentile(r.as_slice(), 0.0), ms(1));
        for i in 65..=100_000 {
            r.push(ms(i));
        }
        assert_eq!(r.len(), 64, "reservoir must stay bounded");
        assert_eq!(r.seen(), 100_000);
        // Retained samples all come from the offered stream.
        assert!(r.as_slice().iter().all(|&d| d >= ms(1) && d <= ms(100_000)));
    }

    #[test]
    fn reservoir_is_deterministic() {
        let mut a = LatencyReservoir::with_capacity(8);
        let mut b = LatencyReservoir::with_capacity(8);
        for i in 0..1000u64 {
            a.push(Duration::from_micros(i * 7 % 311));
            b.push(Duration::from_micros(i * 7 % 311));
        }
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn reservoir_percentile_matches_brute_force_sort_under_capacity() {
        // Regression (ISSUE 4): on the unsampled path — fewer samples
        // offered than the reservoir cap — `percentile` over the
        // reservoir must agree exactly with a brute-force sort of every
        // offered sample, for every quantile.
        let us = |n: u64| Duration::from_micros(n);
        // An adversarial, unsorted, duplicate-heavy stream.
        let offered: Vec<Duration> = (0..1000u64).map(|i| us(i * 7919 % 131)).collect();
        let mut r = LatencyReservoir::with_capacity(4096);
        for &s in &offered {
            r.push(s);
        }
        assert_eq!(r.len(), offered.len(), "under capacity: nothing evicted");
        let mut sorted = offered.clone();
        sorted.sort_unstable();
        for i in 0..=1000 {
            let q = i as f64 / 1000.0;
            let brute = {
                let rank = (q * sorted.len() as f64).ceil() as usize;
                sorted[rank.clamp(1, sorted.len()) - 1]
            };
            assert_eq!(percentile(r.as_slice(), q), brute, "q = {q}");
        }
    }

    #[test]
    fn stage_split_is_exact_and_proportional() {
        let mut s = VcuStats::default();
        s.record_class(CycleClass::Compute, 600);
        s.record_class(CycleClass::Dma, 300);
        s.record_class(CycleClass::Issue, 100);
        let service = Duration::from_nanos(10_007);
        let (dispatch, dma, device) = stage_split(service, &s);
        assert_eq!(dispatch + dma + device, service, "no lost time");
        assert_eq!(dispatch, Duration::from_nanos(10_007 * 100 / 1000));
        assert_eq!(dma, Duration::from_nanos(10_007 * 300 / 1000));
        // Zero-cycle and zero-service corner cases.
        let (d0, m0, v0) = stage_split(service, &VcuStats::default());
        assert_eq!((d0, m0, v0), (Duration::ZERO, Duration::ZERO, service));
        let (d1, m1, v1) = stage_split(Duration::ZERO, &s);
        assert_eq!(
            (d1, m1, v1),
            (Duration::ZERO, Duration::ZERO, Duration::ZERO)
        );
        let b = StageBreakdown::from_parts(Duration::from_nanos(13), service, &s);
        assert_eq!(b.total(), Duration::from_nanos(13) + service);
        assert_eq!(b.service(), service);
    }

    #[test]
    fn queue_stats_merge_aggregates_per_field_class() {
        let ms = |n: u64| Duration::from_millis(n);
        let mut a = QueueStats {
            submitted: 3,
            completed: 3,
            dispatches: 2,
            dispatched_tasks: 3,
            max_batch_size: 2,
            peak_pending: 4,
            total_latency: ms(30),
            busy: ms(20),
            makespan: ms(25),
            cores: 4,
            ..QueueStats::default()
        };
        for i in 1..=3 {
            a.latency_samples.push(ms(10 * i));
        }
        let mut b = QueueStats {
            submitted: 2,
            completed: 1,
            failed: 1,
            dispatches: 1,
            dispatched_tasks: 1,
            max_batch_size: 5,
            peak_pending: 1,
            total_latency: ms(40),
            busy: ms(10),
            makespan: ms(60),
            cores: 4,
            ..QueueStats::default()
        };
        b.latency_samples.push(ms(40));
        a.merge(&b);
        assert_eq!(a.submitted, 5);
        assert_eq!(a.completed, 4);
        assert_eq!(a.failed, 1);
        assert_eq!(a.max_batch_size, 5, "max, not sum");
        assert_eq!(a.peak_pending, 5, "summed upper bound");
        assert_eq!(a.total_latency, ms(70));
        assert_eq!(a.busy, ms(30));
        assert_eq!(a.makespan, ms(60), "concurrent shards: max");
        assert_eq!(a.cores, 8);
        assert_eq!(a.latency_samples.len(), 4, "samples re-offered");
        assert_eq!(a.latency_percentile(1.0), ms(40));
        // Occupancy stays a fraction of summed core-time over the
        // cluster makespan.
        assert!(a.occupancy() > 0.0 && a.occupancy() <= 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms = |n: u64| Duration::from_millis(n);
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        // Nearest rank: ceil(q·n)-th smallest, 1-indexed.
        assert_eq!(percentile(&samples, 0.5), ms(50));
        assert_eq!(percentile(&samples, 0.501), ms(51));
        assert_eq!(percentile(&samples, 0.99), ms(99));
        let five: Vec<Duration> = (1..=5).map(ms).collect();
        assert_eq!(percentile(&five, 0.5), ms(3));
        assert_eq!(percentile(&five, 0.25), ms(2));
        assert_eq!(percentile(&five, 0.75), ms(4));
    }
}
