//! The APU device and its host–accelerator programming model.
//!
//! Mirrors the paper's Fig. 5 workflow: the host allocates device DRAM
//! (L4), copies inputs in, invokes a device task, and copies outputs out.
//! Device tasks receive an [`ApuContext`] granting access to one core and
//! the shared memories, like a `GAL_TASK_ENTRY_POINT` kernel.

use std::any::Any;
use std::collections::HashMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::clock::Cycles;
use crate::config::SimConfig;
use crate::core::ApuCore;
use crate::error::Error;
use crate::fault::{FaultCounts, FaultPlan, FaultState};
use crate::mem::{bytes_to_pods, pods_to_bytes, u16s_to_bytes, Dram, MemHandle, Pod};
use crate::queue::BatchKey;
use crate::stats::VcuStats;
use crate::timing::DeviceTiming;
use crate::trace::SharedSink;
use crate::Result;

/// Outcome of one device task (kernel invocation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskReport {
    /// Cycles elapsed on the (slowest) participating core.
    pub cycles: Cycles,
    /// `cycles` converted with the device clock.
    pub duration: Duration,
    /// Command statistics delta for the task (merged across cores for
    /// parallel runs).
    pub stats: VcuStats,
    /// Number of cores that participated.
    pub cores_used: usize,
}

impl TaskReport {
    /// Task latency in milliseconds.
    pub fn millis(&self) -> f64 {
        self.duration.as_secs_f64() * 1e3
    }

    /// Task latency in microseconds.
    pub fn micros(&self) -> f64 {
        self.duration.as_secs_f64() * 1e6
    }

    /// Combines two sequential task reports.
    pub fn chain(mut self, other: &TaskReport) -> TaskReport {
        self.cycles += other.cycles;
        self.duration += other.duration;
        self.stats.merge(&other.stats);
        self.cores_used = self.cores_used.max(other.cores_used);
        self
    }

    /// Combines two reports for tasks that ran *concurrently* (e.g. on
    /// disjoint cores): elapsed time is the maximum of the two, not the
    /// sum, while work (statistics) and core counts accumulate.
    ///
    /// Use [`TaskReport::chain`] only for back-to-back phases; chaining
    /// concurrent reports double-counts elapsed time.
    pub fn join_concurrent(mut self, other: &TaskReport) -> TaskReport {
        self.cycles = self.cycles.max(other.cycles);
        self.duration = self.duration.max(other.duration);
        self.stats.merge(&other.stats);
        self.cores_used += other.cores_used;
        self
    }
}

/// A boxed per-core kernel, as submitted to [`ApuDevice::run_parallel`].
pub type CoreTask<'t> = Box<dyn FnOnce(&mut ApuContext<'_>) -> Result<()> + 't>;

/// One memoized kernel invocation: the timing report to replay plus the
/// host-visible payload the kernel returned. Only recorded in timing-only
/// mode, where both are fully determined by the caller's signature key.
struct MemoEntry {
    report: TaskReport,
    payload: Box<dyn Any>,
}

impl std::fmt::Debug for MemoEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoEntry")
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// Replay-cache hit/miss counters (see
/// [`ApuDevice::run_task_memoized`]). Misses count only recordable runs;
/// executions that bypassed the cache (functional mode, faults armed,
/// trace sink installed, DMA in flight) are counted separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Dispatches served by replaying a memoized charge.
    pub hits: u64,
    /// Dispatches executed and recorded for future replay.
    pub misses: u64,
    /// Dispatches that had to execute outside the cache entirely.
    pub bypassed: u64,
}

/// A simulated APU platform: host-visible device DRAM, shared L3, and the
/// APU cores.
#[derive(Debug)]
pub struct ApuDevice {
    cfg: SimConfig,
    l4: Dram,
    l3: Vec<u8>,
    cores: Vec<ApuCore>,
    faults: Option<FaultState>,
    trace: Option<SharedSink>,
    fast_forward: bool,
    memo: HashMap<u64, MemoEntry>,
    memo_counters: MemoCounters,
}

impl ApuDevice {
    /// Creates a device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]); the default configurations are always
    /// valid.
    pub fn new(cfg: SimConfig) -> Self {
        ApuDevice::try_new(cfg).expect("invalid simulator configuration")
    }

    /// Creates a device, reporting configuration errors instead of
    /// panicking — the entry point for serving setups where the
    /// configuration comes from user input.
    ///
    /// # Errors
    ///
    /// Returns the [`SimConfig::validate`] error for an inconsistent
    /// configuration.
    pub fn try_new(cfg: SimConfig) -> Result<Self> {
        cfg.validate()?;
        let cores = (0..cfg.cores)
            .map(|i| ApuCore::new(i, cfg.clone()))
            .collect();
        let l4 = if cfg.exec_mode.is_functional() {
            Dram::new(cfg.l4_bytes)
        } else {
            // Timing-only devices never consume data: skip the backing
            // store so paper-scale (multi-GB) configurations stay cheap.
            Dram::new_virtual(cfg.l4_bytes)
        };
        let fast_forward = cfg.fast_forward;
        Ok(ApuDevice {
            l4,
            l3: vec![0; cfg.l3_bytes],
            cores,
            cfg,
            faults: None,
            trace: None,
            fast_forward,
            memo: HashMap::new(),
            memo_counters: MemoCounters::default(),
        })
    }

    // ---------------- timing fast-forward ----------------

    /// Enables or disables timing fast-forward at runtime (see
    /// [`ApuDevice::run_task_memoized`]). Disabling does not drop
    /// already-recorded entries; they simply stop being replayed.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Whether timing fast-forward is currently enabled.
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// Replay-cache activity so far.
    pub fn memo_counters(&self) -> MemoCounters {
        self.memo_counters
    }

    // ---------------- tracing ----------------

    /// Installs a trace sink (see [`crate::trace`]): subsequent queue
    /// dispatches and DMA transfers emit [`crate::TraceEvent`]s into it,
    /// replacing any previously installed sink. Tracing is an observer —
    /// it never changes simulated time.
    pub fn install_trace_sink(&mut self, sink: SharedSink) {
        self.trace = Some(sink);
    }

    /// Removes the installed trace sink; instrumentation reverts to a
    /// no-op.
    pub fn clear_trace_sink(&mut self) {
        self.trace = None;
    }

    /// The installed sink, for instrumentation sites.
    pub(crate) fn trace(&self) -> Option<&SharedSink> {
        self.trace.as_ref()
    }

    /// Emits one custom instrumentation event into the installed sink —
    /// e.g. the `rag` crate's IVF probe events — stamped at core 0's
    /// current cycle count. A no-op without a sink; like all tracing it
    /// never charges virtual time.
    pub fn emit_trace(&self, kind: crate::trace::TraceEventKind) {
        if let Some(t) = &self.trace {
            t.record(crate::trace::TraceEvent {
                ts: self.cores[0].cycles(),
                kind,
            });
        }
    }

    // ---------------- fault injection ----------------

    /// Arms deterministic fault injection (see [`FaultPlan`]), replacing
    /// any previously armed plan and resetting its counters. Armed faults
    /// surface as [`Error::FaultInjected`] from the [`crate::DeviceQueue`]
    /// dispatch gate and from DMA transfer issue.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultState::new(plan));
    }

    /// Disarms fault injection.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Fault-injection activity so far; all zeroes when disarmed.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults
            .as_ref()
            .map(FaultState::counts)
            .unwrap_or_default()
    }

    /// One task-level fault check, consumed by the queue at dispatch time.
    pub(crate) fn fault_check_task(&mut self, key: Option<BatchKey>) -> Option<Error> {
        self.faults.as_mut().and_then(|f| f.check_task(key))
    }

    /// The device configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The latency calibration in use.
    pub fn timing(&self) -> &DeviceTiming {
        &self.cfg.timing
    }

    /// Read access to a core (e.g. to inspect registers in tests).
    ///
    /// # Errors
    ///
    /// Fails if `id` is out of range.
    pub fn core(&self, id: usize) -> Result<&ApuCore> {
        self.cores.get(id).ok_or(Error::BadVr {
            index: id,
            count: self.cores.len(),
            kind: "core",
        })
    }

    // ---------------- host memory API (GDL equivalent) ----------------

    /// Allocates `bytes` of device DRAM (512-byte aligned, like
    /// `gdl_mem_alloc_aligned`).
    ///
    /// # Errors
    ///
    /// Fails when device memory is exhausted.
    pub fn alloc(&mut self, bytes: usize) -> Result<MemHandle> {
        self.l4.alloc(bytes)
    }

    /// Allocates space for `n` u16 elements.
    ///
    /// # Errors
    ///
    /// Fails when device memory is exhausted.
    pub fn alloc_u16(&mut self, n: usize) -> Result<MemHandle> {
        self.l4.alloc(n * 2)
    }

    /// Frees an allocation.
    ///
    /// # Errors
    ///
    /// Fails on stale handles.
    pub fn free(&mut self, handle: MemHandle) -> Result<()> {
        self.l4.free(handle)
    }

    /// Copies elements of any [`Pod`] type host → device
    /// (`gdl_mem_cpy_to_dev`). Elements are stored little-endian, so
    /// `copy_to_device::<u8>` writes raw bytes and `copy_to_device::<u16>`
    /// matches the device's native 16-bit element layout.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or size overruns.
    pub fn copy_to_device<T: Pod>(&mut self, handle: MemHandle, data: &[T]) -> Result<()> {
        let byte_len = data.len() * T::SIZE;
        if !self.l4.is_backed() {
            // Virtual DRAM: validate without materializing a byte copy
            // (paper-scale uploads would otherwise allocate gigabytes).
            return self.l4.validate(handle.truncated(byte_len)?, byte_len);
        }
        self.l4.write(handle, &pods_to_bytes(data))
    }

    /// Copies elements of any [`Pod`] type device → host
    /// (`gdl_mem_cpy_from_dev`).
    ///
    /// # Errors
    ///
    /// Fails on stale handles or size overruns.
    pub fn copy_from_device<T: Pod>(&self, handle: MemHandle, out: &mut [T]) -> Result<()> {
        let mut bytes = vec![0u8; out.len() * T::SIZE];
        self.l4.read(handle, &mut bytes)?;
        bytes_to_pods(&bytes, out);
        Ok(())
    }

    /// Device DRAM capacity and live bytes, for capacity planning.
    pub fn l4_usage(&self) -> (usize, usize) {
        (self.l4.live_bytes(), self.l4.capacity())
    }

    // ---------------- task execution ----------------

    /// Runs a device kernel on core 0 and reports its latency and
    /// statistics (the `gdl_run_task_timeout` analogue).
    ///
    /// # Errors
    ///
    /// Propagates errors returned by the kernel.
    pub fn run_task<F>(&mut self, task: F) -> Result<TaskReport>
    where
        F: FnOnce(&mut ApuContext<'_>) -> Result<()>,
    {
        self.run_task_on(0, task)
    }

    /// Runs a device kernel on a specific core.
    ///
    /// # Errors
    ///
    /// Fails if `core_id` is out of range, or propagates kernel errors.
    pub fn run_task_on<F>(&mut self, core_id: usize, task: F) -> Result<TaskReport>
    where
        F: FnOnce(&mut ApuContext<'_>) -> Result<()>,
    {
        if core_id >= self.cores.len() {
            return Err(Error::BadVr {
                index: core_id,
                count: self.cores.len(),
                kind: "core",
            });
        }
        let clock = self.cfg.clock;
        let core = &mut self.cores[core_id];
        core.set_l4_contention(1.0);
        let start_cycles = core.cycles();
        let start_stats = core.stats().clone();
        let mut ctx = ApuContext {
            l4: &mut self.l4,
            l3: &mut self.l3,
            core,
            faults: self.faults.as_mut(),
            trace: self.trace.clone(),
        };
        task(&mut ctx)?;
        // A task boundary is a full barrier: any async DMA the kernel
        // never waited on completes (data-wise) before the host observes
        // the result. Data only — the un-waited transfer's cycles overlap
        // the task end, so no latency is charged here.
        crate::dma_async::flush_pending(&mut self.cores[core_id], &mut self.l4);
        let core = &self.cores[core_id];
        let cycles = core.cycles() - start_cycles;
        Ok(TaskReport {
            cycles,
            duration: clock.cycles_to_duration(cycles),
            stats: &core.stats().clone() - &start_stats,
            cores_used: 1,
        })
    }

    /// Runs a device kernel on core 0 with memoized timing replay.
    ///
    /// `key` is the kernel's *signature*: a hash that must capture every
    /// input the kernel's cycle charge (and, in timing-only mode, its
    /// returned payload) depends on — shapes, counts, configuration knobs.
    /// On the first invocation of a signature the kernel executes
    /// normally and its [`TaskReport`] plus payload are recorded; later
    /// invocations *replay* the recorded charge — advancing the core
    /// clock and merging the recorded statistics delta — without
    /// re-walking the kernel, which is observably identical because
    /// timing-only charges are data-independent.
    ///
    /// Replay is gated so it can never change an observable output. The
    /// cache is consulted only when ALL of the following hold; otherwise
    /// the kernel executes exactly like [`ApuDevice::run_task`]:
    ///
    /// - fast-forward is enabled ([`SimConfig::fast_forward`] /
    ///   [`ApuDevice::set_fast_forward`]),
    /// - the device is in timing-only mode (functional payloads may be
    ///   data-dependent, so they are never replayed),
    /// - no fault plan is armed (fault schedules count dispatches),
    /// - no trace sink is installed (a replay emits no events),
    /// - the core's async DMA engines are idle at task start (and entries
    ///   are only recorded when also idle at task end), so overlap with
    ///   in-flight transfers never folds into a recorded charge.
    ///
    /// # Errors
    ///
    /// Propagates errors returned by the kernel.
    pub fn run_task_memoized<T, F>(&mut self, key: u64, task: F) -> Result<(TaskReport, T)>
    where
        T: Clone + 'static,
        F: FnOnce(&mut ApuContext<'_>) -> Result<T>,
    {
        let replay_ok = self.fast_forward
            && !self.cfg.exec_mode.is_functional()
            && self.faults.is_none()
            && self.trace.is_none();
        let dma_idle_at = |core: &ApuCore| {
            let now = core.cycles();
            core.dma_engines_busy_until().iter().all(|&b| b <= now)
        };
        let idle_at_start = replay_ok && dma_idle_at(&self.cores[0]);
        if idle_at_start {
            if let Some(entry) = self.memo.get(&key) {
                if let Some(payload) = entry.payload.downcast_ref::<T>() {
                    let report = entry.report.clone();
                    let payload = payload.clone();
                    self.memo_counters.hits += 1;
                    let core = &mut self.cores[0];
                    let target = core.cycles() + report.cycles;
                    core.sync_to(target);
                    core.stats_mut().merge(&report.stats);
                    return Ok((report, payload));
                }
            }
        }
        let mut out = None;
        let report = self.run_task(|ctx| {
            out = Some(task(ctx)?);
            Ok(())
        })?;
        let out = out.expect("kernel returned Ok without a payload");
        if idle_at_start && dma_idle_at(&self.cores[0]) {
            self.memo_counters.misses += 1;
            self.memo.insert(
                key,
                MemoEntry {
                    report: report.clone(),
                    payload: Box::new(out.clone()),
                },
            );
        } else {
            self.memo_counters.bypassed += 1;
        }
        Ok((report, out))
    }

    /// Runs one kernel per core *logically in parallel*: each kernel is
    /// simulated in turn on its own core with an L4 contention factor
    /// equal to the number of participants (the shared device DRAM
    /// bandwidth is divided), and the reported latency is the maximum
    /// across cores. Afterwards all participating cores are synchronized
    /// to the join point.
    ///
    /// # Errors
    ///
    /// Fails if more tasks than cores are supplied, or propagates the
    /// first kernel error.
    pub fn run_parallel<'t>(&mut self, tasks: Vec<CoreTask<'t>>) -> Result<TaskReport> {
        if tasks.is_empty() {
            return Err(Error::InvalidArg("no tasks supplied".into()));
        }
        if tasks.len() > self.cores.len() {
            return Err(Error::InvalidArg(format!(
                "{} tasks exceed {} cores",
                tasks.len(),
                self.cores.len()
            )));
        }
        let clock = self.cfg.clock;
        let contention = tasks.len() as f64;
        let mut max_delta = Cycles::ZERO;
        let mut stats = VcuStats::default();
        let n_tasks = tasks.len();
        let mut starts = Vec::with_capacity(n_tasks);
        for (core_id, task) in tasks.into_iter().enumerate() {
            let core = &mut self.cores[core_id];
            core.set_l4_contention(contention);
            let start_cycles = core.cycles();
            let start_stats = core.stats().clone();
            starts.push(start_cycles);
            let mut ctx = ApuContext {
                l4: &mut self.l4,
                l3: &mut self.l3,
                core,
                faults: self.faults.as_mut(),
                trace: self.trace.clone(),
            };
            task(&mut ctx)?;
            crate::dma_async::flush_pending(&mut self.cores[core_id], &mut self.l4);
            let core = &mut self.cores[core_id];
            core.set_l4_contention(1.0);
            let delta = core.cycles() - start_cycles;
            max_delta = max_delta.max(delta);
            stats.merge(&(&core.stats().clone() - &start_stats));
        }
        // Join: every participant waits for the slowest.
        for (core_id, start) in starts.iter().enumerate() {
            self.cores[core_id].sync_to(*start + max_delta);
        }
        Ok(TaskReport {
            cycles: max_delta,
            duration: clock.cycles_to_duration(max_delta),
            stats,
            cores_used: n_tasks,
        })
    }

    /// Merged statistics across all cores since device creation.
    pub fn stats_total(&self) -> VcuStats {
        let mut total = VcuStats::default();
        for c in &self.cores {
            total.merge(c.stats());
        }
        total
    }
}

/// Execution context handed to device kernels: one core plus the shared
/// L3 and device DRAM.
///
/// Data-movement methods (DMA, PIO, lookup) are implemented in
/// [`crate::dma`]; compute operations live in the `gvml` crate.
#[derive(Debug)]
pub struct ApuContext<'a> {
    pub(crate) l4: &'a mut Dram,
    pub(crate) l3: &'a mut Vec<u8>,
    pub(crate) core: &'a mut ApuCore,
    pub(crate) faults: Option<&'a mut FaultState>,
    pub(crate) trace: Option<SharedSink>,
}

impl ApuContext<'_> {
    /// The core this kernel runs on.
    pub fn core(&self) -> &ApuCore {
        self.core
    }

    /// Mutable access to the core.
    pub fn core_mut(&mut self) -> &mut ApuCore {
        self.core
    }

    /// The device DRAM.
    pub fn l4(&self) -> &Dram {
        self.l4
    }

    /// Mutable access to the device DRAM.
    pub fn l4_mut(&mut self) -> &mut Dram {
        self.l4
    }

    /// The L3 control-processor cache contents.
    pub fn l3(&self) -> &[u8] {
        self.l3
    }

    /// Mutable access to the L3 cache.
    pub fn l3_mut(&mut self) -> &mut [u8] {
        self.l3
    }

    /// The latency calibration in use.
    pub fn timing(&self) -> &DeviceTiming {
        &self.core.config().timing
    }

    /// Writes u16 values directly into L3 at a byte offset (control
    /// processor store; used to stage lookup tables in tests).
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds L3.
    pub fn l3_write_u16s(&mut self, l3_off: usize, values: &[u16]) -> Result<()> {
        self.check_l3(l3_off, values.len() * 2)?;
        let bytes = u16s_to_bytes(values);
        self.l3[l3_off..l3_off + bytes.len()].copy_from_slice(&bytes);
        Ok(())
    }

    /// One DMA-level fault check, consumed at transfer issue.
    pub(crate) fn dma_fault_check(&mut self) -> Result<()> {
        let hit = match self.faults.as_mut() {
            Some(f) => f.check_dma().map(|e| (e, f.counts().dmas_injected)),
            None => None,
        };
        if let Some((e, seq)) = hit {
            if let Some(t) = self.trace.as_ref() {
                t.record(crate::trace::TraceEvent {
                    ts: self.core.cycles(),
                    kind: crate::trace::TraceEventKind::FaultInjected {
                        scope: crate::trace::FaultScope::Dma,
                        seq,
                    },
                });
            }
            return Err(e);
        }
        Ok(())
    }

    pub(crate) fn stats_dma_transaction(&mut self, bytes: u64) {
        self.core.stats_mut().record_dma_transaction(bytes);
    }

    pub(crate) fn stats_pio(&mut self, elems: u64) {
        self.core.stats_mut().record_pio_elems(elems, 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Vmr;

    #[test]
    fn host_roundtrip_u16() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        let h = dev.alloc_u16(10).unwrap();
        dev.copy_to_device(h, &[1u16, 2, 3, 4, 5, 6, 7, 8, 9, 10])
            .unwrap();
        let mut out = vec![0u16; 10];
        dev.copy_from_device(h, &mut out).unwrap();
        assert_eq!(out[9], 10);
        let (live, cap) = dev.l4_usage();
        assert_eq!(live, 512);
        assert_eq!(cap, 1 << 20);
    }

    #[test]
    fn host_roundtrip_generic_pod() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        let h = dev.alloc(6 * 8).unwrap();
        let vals = [-1i64, 0, 1, i64::MAX, i64::MIN, 42];
        dev.copy_to_device(h, &vals).unwrap();
        let mut out = [0i64; 6];
        dev.copy_from_device(h, &mut out).unwrap();
        assert_eq!(out, vals);
        // Oversized transfers are still rejected.
        assert!(dev.copy_to_device(h, &[0i64; 7]).is_err());

        // The narrow element types round-trip through the same path.
        let h16 = dev.alloc_u16(4).unwrap();
        dev.copy_to_device(h16, &[10u16, 20, 30, 40]).unwrap();
        let mut out16 = [0u16; 4];
        dev.copy_from_device(h16, &mut out16).unwrap();
        assert_eq!(out16, [10, 20, 30, 40]);
        let h8 = dev.alloc(4).unwrap();
        dev.copy_to_device(h8, &[1u8, 2, 3, 4]).unwrap();
        let mut out8 = [0u8; 4];
        dev.copy_from_device(h8, &mut out8).unwrap();
        assert_eq!(out8, [1, 2, 3, 4]);
    }

    #[test]
    fn virtual_dram_validates_without_copying() {
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_exec_mode(crate::config::ExecMode::TimingOnly)
                .with_l4_bytes(1 << 20),
        );
        let h = dev.alloc_u16(8).unwrap();
        dev.copy_to_device(h, &[7u16; 8]).unwrap();
        assert!(dev.copy_to_device(h, &[7u16; 9]).is_err());
        // Reads come back zeroed on the unbacked store.
        let mut out = [1u16; 8];
        dev.copy_from_device(h, &mut out).unwrap();
        assert_eq!(out, [0u16; 8]);
    }

    #[test]
    fn try_new_reports_invalid_configs() {
        let cfg = SimConfig {
            cores: 0,
            ..SimConfig::default()
        };
        assert!(matches!(ApuDevice::try_new(cfg), Err(Error::InvalidArg(_))));
        assert!(ApuDevice::try_new(SimConfig::default().with_l4_bytes(1 << 20)).is_ok());
    }

    #[test]
    fn task_report_chains() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        let a = dev
            .run_task(|ctx| {
                ctx.core_mut().charge(crate::timing::VecOp::AddU16);
                Ok(())
            })
            .unwrap();
        let b = dev
            .run_task(|ctx| {
                ctx.core_mut().charge(crate::timing::VecOp::Or16);
                Ok(())
            })
            .unwrap();
        let c = a.clone().chain(&b);
        assert_eq!(c.cycles, a.cycles + b.cycles);
        assert_eq!(c.stats.commands, 2);
    }

    #[test]
    fn task_report_join_concurrent_takes_max_time() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        let a = dev
            .run_task(|ctx| {
                ctx.core_mut().charge(crate::timing::VecOp::DivS16); // long
                Ok(())
            })
            .unwrap();
        let b = dev
            .run_task_on(1, |ctx| {
                ctx.core_mut().charge(crate::timing::VecOp::Or16); // short
                Ok(())
            })
            .unwrap();
        let j = a.clone().join_concurrent(&b);
        assert_eq!(j.cycles, a.cycles.max(b.cycles));
        assert_eq!(j.duration, a.duration.max(b.duration));
        assert_eq!(j.cores_used, 2);
        assert_eq!(j.stats.commands, 2);
        // Chaining the same two reports double-counts elapsed time.
        assert!(a.clone().chain(&b).cycles > j.cycles);
    }

    #[test]
    fn task_errors_propagate() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        let r = dev.run_task(|_| Err(Error::TaskFailed("boom".into())));
        assert!(matches!(r, Err(Error::TaskFailed(_))));
    }

    #[test]
    fn bad_core_id_is_rejected() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        assert!(dev.run_task_on(99, |_| Ok(())).is_err());
        assert!(dev.core(99).is_err());
        assert!(dev.core(3).is_ok());
    }

    #[test]
    fn parallel_tasks_take_max_and_contend() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20));
        let n = dev.config().vr_len;
        let a = dev.alloc_u16(n).unwrap();
        let b = dev.alloc_u16(n).unwrap();

        // Serial reference: one core, contention 1.
        let serial = dev
            .run_task(|ctx| ctx.dma_l4_to_l1(Vmr::new(0), a))
            .unwrap();

        // Two cores each doing the same DMA: contention 2 doubles the DMA
        // portion; latency = max = one contended DMA.
        let par = dev
            .run_parallel(vec![
                Box::new(move |ctx: &mut ApuContext<'_>| ctx.dma_l4_to_l1(Vmr::new(0), a)),
                Box::new(move |ctx: &mut ApuContext<'_>| ctx.dma_l4_to_l1(Vmr::new(0), b)),
            ])
            .unwrap();
        assert_eq!(par.cores_used, 2);
        assert!(par.cycles > serial.cycles);
        assert!(par.cycles.get() < serial.cycles.get() * 2 + 100);
        assert_eq!(par.stats.dma_transactions, 2);
    }

    #[test]
    fn parallel_rejects_too_many_tasks() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        let tasks: Vec<CoreTask<'_>> = (0..5)
            .map(|_| Box::new(|_: &mut ApuContext<'_>| Ok(())) as _)
            .collect();
        assert!(dev.run_parallel(tasks).is_err());
        assert!(dev.run_parallel(vec![]).is_err());
    }

    #[test]
    fn parallel_cores_synchronize_at_join() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        dev.run_parallel(vec![
            Box::new(|ctx: &mut ApuContext<'_>| {
                ctx.core_mut().charge(crate::timing::VecOp::DivS16); // long
                Ok(())
            }),
            Box::new(|ctx: &mut ApuContext<'_>| {
                ctx.core_mut().charge(crate::timing::VecOp::Or16); // short
                Ok(())
            }),
        ])
        .unwrap();
        assert_eq!(dev.core(0).unwrap().cycles(), dev.core(1).unwrap().cycles());
    }

    fn charge_task(ctx: &mut ApuContext<'_>) -> Result<u64> {
        ctx.core_mut().charge(crate::timing::VecOp::AddU16);
        ctx.core_mut().charge(crate::timing::VecOp::MulS16);
        Ok(42)
    }

    #[test]
    fn memoized_replay_books_identical_cycles_and_stats() {
        let cfg = SimConfig::default()
            .with_exec_mode(crate::ExecMode::TimingOnly)
            .with_l4_bytes(1 << 20)
            .with_fast_forward(true);
        let mut dev = ApuDevice::new(cfg.clone());
        let (r1, p1) = dev.run_task_memoized(7, charge_task).unwrap();
        let (r2, p2) = dev.run_task_memoized(7, charge_task).unwrap();
        assert_eq!(r1, r2);
        assert_eq!((p1, p2), (42, 42));
        assert_eq!(
            dev.memo_counters(),
            MemoCounters {
                hits: 1,
                misses: 1,
                bypassed: 0
            }
        );
        // The replayed run advances the core clock and merges stats
        // exactly like a reference device that executed both times.
        let mut reference = ApuDevice::new(cfg.with_fast_forward(false));
        reference.run_task_memoized(7, charge_task).unwrap();
        reference.run_task_memoized(7, charge_task).unwrap();
        assert_eq!(reference.memo_counters().hits, 0);
        assert_eq!(reference.memo_counters().bypassed, 2);
        assert_eq!(
            dev.core(0).unwrap().cycles(),
            reference.core(0).unwrap().cycles()
        );
        assert_eq!(dev.stats_total(), reference.stats_total());
    }

    #[test]
    fn memoized_replay_never_triggers_in_functional_mode() {
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_l4_bytes(1 << 20)
                .with_fast_forward(true),
        );
        assert!(dev.config().exec_mode.is_functional());
        dev.run_task_memoized(1, charge_task).unwrap();
        dev.run_task_memoized(1, charge_task).unwrap();
        assert_eq!(dev.memo_counters().hits, 0);
        assert_eq!(dev.memo_counters().bypassed, 2);
    }

    #[test]
    fn memoized_replay_respects_trace_and_fault_guards() {
        let cfg = SimConfig::default()
            .with_exec_mode(crate::ExecMode::TimingOnly)
            .with_l4_bytes(1 << 20)
            .with_fast_forward(true);
        // Trace sink installed: every run executes normally.
        let mut dev = ApuDevice::new(cfg.clone());
        let sink = SharedSink::new(crate::trace::TraceRecorder::new());
        dev.install_trace_sink(sink);
        dev.run_task_memoized(1, charge_task).unwrap();
        dev.run_task_memoized(1, charge_task).unwrap();
        assert_eq!(dev.memo_counters().hits, 0);
        // Fault plan armed: same.
        let mut dev = ApuDevice::new(cfg);
        dev.inject_faults(crate::fault::FaultPlan::default());
        dev.run_task_memoized(1, charge_task).unwrap();
        dev.run_task_memoized(1, charge_task).unwrap();
        assert_eq!(dev.memo_counters().hits, 0);
        assert_eq!(dev.memo_counters().bypassed, 2);
    }

    #[test]
    fn memoized_replay_stays_off_until_enabled() {
        // Explicit opt-out rather than `SimConfig::default()`: the
        // default follows APU_SIM_FAST_FORWARD, which the CI matrix
        // sets, so the off-path must be pinned independently of the
        // ambient environment.
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_exec_mode(crate::ExecMode::TimingOnly)
                .with_l4_bytes(1 << 20)
                .with_fast_forward(false),
        );
        dev.run_task_memoized(1, charge_task).unwrap();
        dev.run_task_memoized(1, charge_task).unwrap();
        assert_eq!(dev.memo_counters().hits, 0);
        // ... until enabled at runtime.
        dev.set_fast_forward(true);
        dev.run_task_memoized(1, charge_task).unwrap();
        dev.run_task_memoized(1, charge_task).unwrap();
        assert_eq!(dev.memo_counters().hits, 1);
    }
}
