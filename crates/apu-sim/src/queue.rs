//! Device command queue: a serving engine over the simulated APU.
//!
//! The paper's host runtime drives the APU through a GDL command queue —
//! tasks are enqueued, dispatched to cores, and retired asynchronously.
//! This module provides that layer for the simulator: clients open a
//! [`DeviceQueue`] over an [`ApuDevice`], submit work described by a
//! [`TaskSpec`] — priority class, tenant, arrival timestamp, deadline,
//! batch key — and receive a [`TaskHandle`]. The scheduler
//! replays jobs on the simulated device and places them on a
//! discrete-event *virtual timeline* with per-core availability, so a
//! stream of queries reports realistic queueing delay, service time, and
//! end-to-end latency without wall-clock sleeps.
//!
//! Scheduling model:
//!
//! * jobs become eligible at their arrival time (open-loop streams pass
//!   Poisson timestamps; closed-loop callers omit the arrival, which
//!   means "now"),
//! * among eligible jobs the highest [`Priority`] wins; within a class
//!   the default [`SchedPolicy::Fifo`] serves submission order, while
//!   [`SchedPolicy::SloAware`] serves tenants in weighted fair-share
//!   order (start-time fair queueing) with earliest-deadline-first
//!   tie-breaks,
//! * a job that used `c` cores (see [`TaskReport::cores_used`]) occupies
//!   the `c` earliest-available cores from its start until its finish,
//! * admission control bounds the backlog: submissions beyond
//!   [`QueueConfig::max_pending`] are rejected with [`Error::QueueFull`],
//!   and an optional [`AdmissionControl`] sheds queued low-priority work
//!   once the backlog crosses its watermarks, before it poisons
//!   high-priority tail latency.
//!
//! # Continuous batching
//!
//! Jobs submitted through [`TaskSpec::batch`] declare a
//! [`BatchKey`]: when such a job reaches the head of the line, the
//! dispatcher coalesces it with every pending job of the *same priority
//! and key* — in submission order, up to [`QueueConfig::max_batch`]
//! members — whose arrival falls within [`QueueConfig::max_batch_wait`]
//! of the dispatch opportunity. The members run as **one** device
//! dispatch (the batch runner receives every member's payload), and the
//! completions fan back out individually: each member keeps its own
//! arrival, is charged the batch's start and finish (so early arrivals
//! pay the wait for stragglers), and reports the batch-wide
//! [`TaskReport`]. Batches never mix priority classes or keys, and
//! admission control is unaffected: capacity is consumed per submission,
//! not per dispatch.
//!
//! # Failure containment
//!
//! A failing job must not poison the queue. Every submission retires
//! with a [`Completion`] whose [`BatchOutput`] is either `Ok(value)` or
//! `Err(error)`: job errors, poisoned batch members, injected faults
//! (see [`crate::FaultPlan`]), and deadline-shed tasks all surface as
//! error completions instead of aborting [`DeviceQueue::step`] /
//! [`DeviceQueue::wait`] / [`DeviceQueue::drain`]. A failed job still
//! consumed simulated device time, so its dispatch is booked on the
//! virtual timeline like any other. Tasks submitted with a TTL
//! ([`TaskSpec::ttl`]) are shed *without dispatching*
//! once their deadline passes (`Err(DeadlineExceeded)`, load
//! shedding), and an optional [`RetryPolicy`] re-queues transient
//! **pre-dispatch** failures (the fault-injection gate) with bounded
//! exponential backoff. Post-dispatch failures are never retried — the
//! job closure is consumed by execution.
//!
//! Per-queue counters ([`QueueStats`]) mirror the [`crate::VcuStats`]
//! style: monotone counts plus accumulated wait/service/latency, a
//! bounded latency reservoir for percentile reporting, and batch-size /
//! occupancy accounting for the continuous-batching dispatcher. Wait,
//! service, and latency accumulators cover successful completions only;
//! failed work is visible through [`QueueStats::failed`],
//! [`QueueStats::expired`], and [`QueueStats::retries`], and its device
//! time through `busy` / `makespan`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use crate::clock::Cycles;
use crate::device::{ApuDevice, TaskReport};
use crate::error::Error;
use crate::spec::{AdmissionControl, SchedPolicy, TaskSpec, TenantId};
use crate::stats::{StageBreakdown, VcuStats};
use crate::trace::{TraceEvent, TraceEventKind};
use crate::Result;

pub use crate::stats::{percentile, QueueStats};

/// Fixed-point scale of the fair-share virtual clock: one task at
/// tenant weight 1 advances the tenant's virtual time by this much.
const VT_SCALE: u128 = 1_000_000;

/// Dispatch priority of a queued task. Lower discriminant = served first.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Priority {
    /// Latency-sensitive foreground work (interactive queries).
    High,
    /// Default class.
    Normal,
    /// Throughput-oriented background work (batch analytics).
    Low,
}

/// Identifier of a submitted task, returned by [`DeviceQueue::submit`]
/// and echoed in the matching [`Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskHandle(u64);

impl TaskHandle {
    /// The raw submission sequence number.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Batch-compatibility class of a [`TaskSpec::batch`] submission: jobs
/// may be coalesced into one device dispatch only when
/// they share a key (and a [`Priority`]). Producers derive the key from
/// whatever makes dispatches fungible — e.g. the RAG layer keys on the
/// corpus and `k` so only same-corpus retrievals ever share a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey(u64);

impl BatchKey {
    /// Wraps a caller-chosen class discriminant.
    pub const fn new(v: u64) -> Self {
        BatchKey(v)
    }

    /// The raw class discriminant.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Bounded retry-with-backoff for transient **pre-dispatch** failures
/// (the fault-injection gate). Post-dispatch failures are never retried:
/// the job closure is consumed by execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-dispatch attempts after the first (0 disables retry).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff: Duration,
    /// Multiplier applied to the backoff for each further retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_micros(100),
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before re-dispatching after failed attempt
    /// `attempt` (0-based): `backoff · multiplierᵃᵗᵗᵉᵐᵖᵗ`.
    pub fn delay(&self, attempt: u32) -> Duration {
        self.backoff.mul_f64(self.multiplier.powi(attempt as i32))
    }
}

/// Configuration of a [`DeviceQueue`].
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Maximum number of not-yet-dispatched tasks; submissions beyond
    /// this are rejected with [`Error::QueueFull`] (admission control).
    pub max_pending: usize,
    /// Most batchable jobs coalesced into one device dispatch. The
    /// default of 1 disables coalescing.
    pub max_batch: usize,
    /// How long past a dispatch opportunity the head-of-line batchable
    /// job waits for same-class stragglers (bounds batching-induced
    /// latency). Zero — the default — coalesces only jobs that already
    /// arrived.
    pub max_batch_wait: Duration,
    /// Retry policy for transient pre-dispatch failures; `None` — the
    /// default — retires them immediately as error completions.
    pub retry: Option<RetryPolicy>,
    /// Dispatch-ordering policy. The default [`SchedPolicy::Fifo`] is
    /// byte-exact with the historical scheduler; [`SchedPolicy::SloAware`]
    /// adds weighted fair-share dequeue and deadline awareness.
    pub scheduler: SchedPolicy,
    /// Per-tenant fair-share weights for [`SchedPolicy::SloAware`]
    /// (raw [`TenantId`] → weight; unlisted tenants weigh 1).
    pub tenant_weights: BTreeMap<u64, u64>,
    /// Backlog watermarks for admission shedding; `None` — the default —
    /// never sheds on backlog (only [`QueueConfig::max_pending`] rejects
    /// at submission).
    pub admission: Option<AdmissionControl>,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            max_pending: 1024,
            max_batch: 1,
            max_batch_wait: Duration::ZERO,
            retry: None,
            scheduler: SchedPolicy::default(),
            tenant_weights: BTreeMap::new(),
            admission: None,
        }
    }
}

impl QueueConfig {
    /// Sets the admission-control backlog bound.
    #[must_use]
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Sets the continuous-batching coalescing bound (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets how long a head-of-line batchable job waits for stragglers.
    #[must_use]
    pub fn with_max_batch_wait(mut self, max_batch_wait: Duration) -> Self {
        self.max_batch_wait = max_batch_wait;
        self
    }

    /// Enables bounded retry for transient pre-dispatch failures.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Selects the dispatch-ordering policy.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets one tenant's fair-share weight (clamped to ≥ 1) for
    /// [`SchedPolicy::SloAware`]: a tenant of weight `w` receives `w`
    /// shares of the dispatch bandwidth per share of a weight-1 tenant.
    #[must_use]
    pub fn with_tenant_weight(mut self, tenant: TenantId, weight: u64) -> Self {
        self.tenant_weights.insert(tenant.get(), weight.max(1));
        self
    }

    /// Enables admission shedding at the given backlog watermarks.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = Some(admission);
        self
    }
}

/// A retired task: scheduling timestamps, the device-side [`TaskReport`],
/// and the task's outcome.
#[derive(Debug)]
pub struct Completion {
    /// Handle returned at submission.
    pub handle: TaskHandle,
    /// Priority the task ran at.
    pub priority: Priority,
    /// Tenant the task was submitted on behalf of (see
    /// [`TaskSpec::tenant`]; [`TenantId`] 0 when unspecified).
    pub tenant: TenantId,
    /// Arrival time on the virtual timeline.
    pub submitted_at: Duration,
    /// Dispatch time (arrival + queueing delay). For work that never
    /// reached the device (shed / fault-gated) this is the retire time.
    pub started_at: Duration,
    /// Retire time (`started_at` + service).
    pub finished_at: Duration,
    /// Tasks the carrying dispatch coalesced (1 when unbatched).
    pub batch_size: usize,
    /// Sequence number of the device dispatch that carried this task —
    /// batch members share it, so it identifies who rode together.
    /// `None` when the task never reached a device dispatch (deadline
    /// shed, or failed at the dispatch gate).
    pub dispatch: Option<u64>,
    /// Batch-compatibility key, for tasks submitted via
    /// [`TaskSpec::batch`]; `None` for tasks that dispatch alone.
    pub batch_key: Option<BatchKey>,
    /// Dispatch attempts this task consumed (> 1 after retries; a shed
    /// task reports the attempts made before its deadline passed).
    pub attempts: u32,
    /// Device-side execution report. For a coalesced batch this is the
    /// **batch-wide** report, replicated to every member: device cycles
    /// and stats cover the whole dispatch, not one member's share. For a
    /// failed job it covers the device time consumed before the error;
    /// all-zero for work that never dispatched.
    pub report: TaskReport,
    /// The task's outcome: the job's output, or the error that retired
    /// it — its job failed, its batch member was poisoned, the fault
    /// gate killed it, or its deadline passed before dispatch. Access
    /// through [`Completion::output`], [`Completion::into_output`], or
    /// [`Completion::error`].
    pub outcome: BatchOutput,
}

impl Completion {
    /// Queueing delay before dispatch.
    pub fn wait(&self) -> Duration {
        self.started_at - self.submitted_at
    }

    /// End-to-end latency (arrival to retire).
    pub fn latency(&self) -> Duration {
        self.finished_at - self.submitted_at
    }

    /// Whether the task retired successfully.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Whether the task retired with an error completion.
    pub fn is_failed(&self) -> bool {
        !self.is_ok()
    }

    /// The error that failed the task, if any.
    pub fn error(&self) -> Option<&Error> {
        self.outcome.as_ref().err()
    }

    /// Downcasts the job output to `T`; `None` on type mismatch or when
    /// the task failed.
    pub fn output<T: Any>(&self) -> Option<&T> {
        self.outcome.as_ref().ok()?.downcast_ref::<T>()
    }

    /// Per-stage breakdown of this completion's end-to-end latency (see
    /// [`StageBreakdown`]): the four components sum *exactly* to
    /// [`Completion::latency`]. Work that never reached the device (shed
    /// or gate-failed) has an all-zero service split.
    pub fn stage_breakdown(&self) -> StageBreakdown {
        StageBreakdown::from_parts(
            self.wait(),
            self.finished_at - self.started_at,
            &self.report.stats,
        )
    }

    /// Consumes the completion, returning the job output as `T`.
    ///
    /// # Errors
    ///
    /// Returns the task's own error for a failed completion, or
    /// [`Error::InvalidArg`] when the output has a different type.
    pub fn into_output<T: Any>(self) -> Result<T> {
        self.outcome?
            .downcast::<T>()
            .map(|b| *b)
            .map_err(|_| Error::InvalidArg("completion output has a different type".into()))
    }
}

/// A queued device job: runs kernels on the device and returns the
/// task report plus an arbitrary output value.
pub type Job<'t> = Box<dyn FnOnce(&mut ApuDevice) -> Result<(TaskReport, Box<dyn Any>)> + 't>;

/// One batch member's result: its output value, or the error that failed
/// it *individually* (siblings in the same dispatch are unaffected).
pub type BatchOutput = std::result::Result<Box<dyn Any>, Error>;

/// A batched device job: receives the payloads of every coalesced
/// member (in submission order) and must return exactly one
/// [`BatchOutput`] per payload, in the same order, plus the batch-wide
/// [`TaskReport`]. A top-level `Err` fails every member of the dispatch;
/// a per-member `Err` fails only that member.
pub type BatchRunner<'t> = Box<
    dyn FnOnce(&mut ApuDevice, Vec<Box<dyn Any>>) -> Result<(TaskReport, Vec<BatchOutput>)> + 't,
>;

/// The work a submission carries. Every task is a batch member: a plain
/// job is a runner with one output and no key, so it dispatches alone.
pub(crate) struct Work<'t> {
    /// Batch-compatibility class; keyed work may be coalesced with
    /// same-priority, same-key neighbours, unkeyed work never is.
    pub(crate) key: Option<BatchKey>,
    /// This member's contribution to the runner's payload list.
    pub(crate) payload: Box<dyn Any>,
    /// Executes the whole dispatch. Every member of a batch carries an
    /// equivalent runner; the dispatcher uses the first member's and
    /// drops the rest.
    pub(crate) run: BatchRunner<'t>,
}

struct Pending<'t> {
    handle: TaskHandle,
    priority: Priority,
    tenant: TenantId,
    arrival: Duration,
    /// When the task becomes dispatchable — equals `arrival` until a
    /// retry backoff pushes it later.
    eligible: Duration,
    /// Absolute start deadline on the virtual timeline; the scheduler
    /// sheds the task if it cannot dispatch by this time.
    deadline: Option<Duration>,
    /// Dispatch attempts already consumed by fault-gate retries.
    attempt: u32,
    /// Start-time-fair-queueing tag frozen at admission (see
    /// [`DeviceQueue::submit`]); orders same-priority work under
    /// [`SchedPolicy::SloAware`].
    vstart: u128,
    work: Work<'t>,
}

/// The scheduling attributes of a batch member, captured before its
/// payload is consumed by the batch runner.
#[derive(Clone, Copy)]
struct MemberMeta {
    handle: TaskHandle,
    priority: Priority,
    tenant: TenantId,
    arrival: Duration,
    /// Dispatch attempts already consumed by fault-gate retries.
    attempt: u32,
}

/// A serving queue over a borrowed [`ApuDevice`].
///
/// See the [module documentation](self) for the scheduling model.
///
/// ```
/// use apu_sim::{DeviceQueue, Priority, QueueConfig, ApuDevice, SimConfig, TaskSpec, VecOp};
///
/// # fn main() -> Result<(), apu_sim::Error> {
/// let mut dev = ApuDevice::try_new(SimConfig::default())?;
/// let mut queue = DeviceQueue::new(&mut dev, QueueConfig::default());
/// let h = queue.submit(
///     TaskSpec::kernel(|ctx| {
///         ctx.core_mut().charge(VecOp::AddU16);
///         Ok(())
///     })
///     .priority(Priority::High),
/// )?;
/// let done = queue.wait(h)?;
/// assert!(done.report.cycles.get() > 0);
/// # Ok(())
/// # }
/// ```
pub struct DeviceQueue<'d, 't> {
    dev: &'d mut ApuDevice,
    cfg: QueueConfig,
    /// Submission order preserved for FIFO-within-priority.
    pending: VecDeque<Pending<'t>>,
    completions: Vec<Completion>,
    /// Virtual time each core becomes free.
    core_free_at: Vec<Duration>,
    next_id: u64,
    next_dispatch: u64,
    stats: QueueStats,
    /// Fair-share state for [`SchedPolicy::SloAware`]: the global
    /// virtual clock and each tenant's virtual finish tag.
    vclock: u128,
    tenant_vtime: BTreeMap<u64, u128>,
}

impl<'d, 't> DeviceQueue<'d, 't> {
    /// Opens a queue over a device.
    pub fn new(dev: &'d mut ApuDevice, cfg: QueueConfig) -> Self {
        let cores = dev.config().cores;
        DeviceQueue {
            dev,
            cfg,
            pending: VecDeque::new(),
            completions: Vec::new(),
            core_free_at: vec![Duration::ZERO; cores],
            next_id: 0,
            next_dispatch: 0,
            stats: QueueStats {
                cores,
                ..QueueStats::default()
            },
            vclock: 0,
            tenant_vtime: BTreeMap::new(),
        }
    }

    /// The underlying device (e.g. to allocate task buffers between
    /// dispatches).
    pub fn device_mut(&mut self) -> &mut ApuDevice {
        self.dev
    }

    /// Converts a virtual-timeline instant to device cycles, the trace
    /// clock domain.
    fn trace_ts(&self, at: Duration) -> Cycles {
        self.dev.config().clock.secs_to_cycles(at.as_secs_f64())
    }

    /// Emits one queue-domain trace event stamped at virtual time `at`.
    /// The payload is built lazily so an untraced queue never even
    /// constructs it — with no sink installed this is a branch and
    /// nothing else, and in all cases no virtual time is charged.
    fn emit_with(&self, at: Duration, kind: impl FnOnce() -> TraceEventKind) {
        if let Some(t) = self.dev.trace() {
            t.record(TraceEvent {
                ts: self.trace_ts(at),
                kind: kind(),
            });
        }
    }

    /// Tasks submitted but not yet dispatched.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Per-queue counters so far.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Submits the work described by a [`TaskSpec`] — the single entry
    /// point of the submission API. Build the spec with
    /// [`TaskSpec::job`] / [`TaskSpec::typed`] / [`TaskSpec::kernel`] /
    /// [`TaskSpec::batch`] and compose priority, tenant, arrival and
    /// TTL/deadline freely.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QueueFull`] when the backlog bound is hit.
    pub fn submit(&mut self, spec: TaskSpec<'t>) -> Result<TaskHandle> {
        if self.pending.len() >= self.cfg.max_pending {
            self.stats.rejected += 1;
            return Err(Error::QueueFull {
                pending: self.pending.len(),
                capacity: self.cfg.max_pending,
            });
        }
        let TaskSpec {
            priority,
            arrival,
            tenant,
            deadline,
            work,
        } = spec;
        let handle = TaskHandle(self.next_id);
        self.next_id += 1;
        self.stats.submitted += 1;
        self.stats
            .per_tenant
            .entry(tenant.get())
            .or_default()
            .submitted += 1;
        let batch_key = work.key.map(BatchKey::get);
        // Start-time fair queueing (SFQ): freeze the virtual-time tag at
        // admission. A tenant's tag advances by 1/share per admitted
        // task, so backlogged tenants interleave in proportion to their
        // shares.
        let share = self.tenant_weight(tenant) as u128;
        let vstart = self
            .vclock
            .max(self.tenant_vtime.get(&tenant.get()).copied().unwrap_or(0));
        self.tenant_vtime
            .insert(tenant.get(), vstart + VT_SCALE / share);
        self.pending.push_back(Pending {
            handle,
            priority,
            tenant,
            arrival,
            eligible: arrival,
            deadline,
            attempt: 0,
            vstart,
            work,
        });
        self.stats.peak_pending = self.stats.peak_pending.max(self.pending.len());
        let deadline_cycles = deadline.map(|d| self.trace_ts(d));
        self.emit_with(arrival, || TraceEventKind::TaskSubmitted {
            handle: handle.0,
            priority,
            batch_key,
            deadline: deadline_cycles,
        });
        Ok(handle)
    }

    /// Index (into `pending`) of the next task to dispatch. Under
    /// [`SchedPolicy::Fifo`]: among tasks that have arrived by the time
    /// a core frees up, the highest priority wins, FIFO within a class.
    /// Under [`SchedPolicy::SloAware`]: priority still dominates, then
    /// the smallest admission-time virtual start tag (weighted fair
    /// share), then the earliest deadline, then FIFO. If nothing has
    /// arrived yet, the earliest arrival (then priority, then FIFO) is
    /// chosen and the timeline advances to it (identical under both
    /// policies).
    fn select(&self) -> Option<usize> {
        if self.pending.is_empty() {
            return None;
        }
        let horizon = self.horizon();
        let arrived = match self.cfg.scheduler {
            SchedPolicy::Fifo => self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.eligible <= horizon)
                .min_by_key(|(i, p)| (p.priority, *i))
                .map(|(i, _)| i),
            SchedPolicy::SloAware => self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.eligible <= horizon)
                .min_by_key(|(i, p)| {
                    (
                        p.priority,
                        p.vstart,
                        p.deadline.unwrap_or(Duration::MAX),
                        *i,
                    )
                })
                .map(|(i, _)| i),
        };
        arrived.or_else(|| {
            self.pending
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.eligible, p.priority, *i))
                .map(|(i, _)| i)
        })
    }

    /// The effective fair-share weight of a tenant (default 1; see
    /// [`QueueConfig::with_tenant_weight`]).
    fn tenant_weight(&self, tenant: TenantId) -> u64 {
        self.cfg
            .tenant_weights
            .get(&tenant.get())
            .copied()
            .unwrap_or(1)
            .max(1)
    }

    /// Advances the queue's virtual clock to a dispatched task's start
    /// tag, so tenants that go idle and return re-enter at the current
    /// virtual time instead of catching up on credit they never used.
    fn advance_virtual_clock(&mut self, vstart: u128) {
        self.vclock = self.vclock.max(vstart);
    }

    /// The virtual time the next core frees up — the earliest moment any
    /// pending task could start.
    fn horizon(&self) -> Duration {
        self.core_free_at
            .iter()
            .copied()
            .min()
            .unwrap_or(Duration::ZERO)
    }

    /// An all-zero report for work that never reached the device.
    fn empty_report() -> TaskReport {
        TaskReport {
            cycles: Cycles::ZERO,
            duration: Duration::ZERO,
            stats: VcuStats::default(),
            cores_used: 0,
        }
    }

    /// Per-core cycle counters plus merged device stats, captured before
    /// running a job so a *failed* job's consumed device time can still
    /// be booked on the virtual timeline.
    fn device_snapshot(&self) -> (Vec<Cycles>, VcuStats) {
        (self.dev.core_cycles().collect(), self.dev.stats_total())
    }

    /// Synthesizes the report of a failed job from the device time it
    /// consumed before erroring.
    fn failed_report(&self, snap: (Vec<Cycles>, VcuStats)) -> TaskReport {
        let (start_cycles, start_stats) = snap;
        let mut max_delta = Cycles::ZERO;
        let mut cores_used = 0usize;
        for (now, start) in self.dev.core_cycles().zip(&start_cycles) {
            let delta = now - *start;
            if delta > Cycles::ZERO {
                cores_used += 1;
                max_delta = max_delta.max(delta);
            }
        }
        TaskReport {
            cycles: max_delta,
            duration: self.dev.config().clock.cycles_to_duration(max_delta),
            stats: &self.dev.stats_total() - &start_stats,
            cores_used,
        }
    }

    /// Sheds every pending task whose deadline passes before it could
    /// possibly start, retiring each as `Err(DeadlineExceeded)`
    /// without dispatching. Returns whether anything was shed.
    fn shed_expired(&mut self) -> bool {
        let horizon = self.horizon();
        let mut shed_any = false;
        let mut i = 0;
        while let Some(p) = self.pending.get(i) {
            let deadline = match p.deadline {
                Some(d) if d < p.eligible.max(horizon) => d,
                _ => {
                    i += 1;
                    continue;
                }
            };
            let Some(task) = self.pending.remove(i) else {
                break;
            };
            self.stats.expired += 1;
            self.stats
                .per_tenant
                .entry(task.tenant.get())
                .or_default()
                .expired += 1;
            let attempts = task.attempt;
            self.retire_undispatched(
                task,
                deadline,
                attempts,
                Error::DeadlineExceeded { deadline },
            );
            shed_any = true;
        }
        shed_any
    }

    /// Retires a task that never reached the device as an error
    /// completion at `at` with an all-zero report, and marks it on the
    /// trace: `TaskExpired` for a missed deadline, `TaskFailed`
    /// otherwise.
    fn retire_undispatched(&mut self, task: Pending<'t>, at: Duration, attempts: u32, e: Error) {
        let handle = task.handle.0;
        let expired = match e {
            Error::DeadlineExceeded { deadline } => Some(self.trace_ts(deadline)),
            _ => None,
        };
        self.emit_with(at, || match expired {
            Some(deadline) => TraceEventKind::TaskExpired { handle, deadline },
            None => TraceEventKind::TaskFailed {
                handle,
                error: e.to_string(),
            },
        });
        self.completions.push(Completion {
            handle: task.handle,
            priority: task.priority,
            tenant: task.tenant,
            submitted_at: task.arrival,
            started_at: at,
            finished_at: at,
            batch_size: 1,
            dispatch: None,
            batch_key: task.work.key,
            attempts,
            report: Self::empty_report(),
            outcome: Err(e),
        });
    }

    /// Cluster-level admission control: while the backlog exceeds a
    /// configured watermark (see [`AdmissionControl`]), sheds the
    /// lowest-priority latest-arrived pending task so the queued work
    /// low-priority tenants pile up cannot poison high-priority tail
    /// latency. Shed tasks retire as `Err(`[`Error::AdmissionShed`]`)`
    /// without dispatching. High-priority work is never admission-shed.
    ///
    /// Backlog depth is measured on the **virtual timeline**: only tasks
    /// that have arrived by the queue's current horizon count, and only
    /// those are shed. An open-loop trace submitted up front is load the
    /// device has not seen yet — shedding it at submission time would
    /// act on a queue depth that never exists.
    ///
    /// Returns whether anything was shed.
    fn shed_admission_backlog(&mut self) -> bool {
        let Some(adm) = self.cfg.admission else {
            return false;
        };
        let horizon = self.horizon();
        let mut shed_any = false;
        loop {
            let backlog = self
                .pending
                .iter()
                .filter(|p| p.eligible <= horizon)
                .count();
            let (victim, watermark) = if backlog > adm.shed_normal_above {
                // Over the upper watermark: shed Normal and Low work,
                // lowest class first (Priority orders High < Normal <
                // Low, so `max_by_key` prefers Low), newest first.
                (
                    self.pending
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.eligible <= horizon && p.priority != Priority::High)
                        .max_by_key(|(i, p)| (p.priority, p.arrival, *i))
                        .map(|(i, _)| i),
                    adm.shed_normal_above,
                )
            } else if backlog > adm.shed_low_above {
                (
                    self.pending
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.eligible <= horizon && p.priority == Priority::Low)
                        .max_by_key(|(i, p)| (p.arrival, *i))
                        .map(|(i, _)| i),
                    adm.shed_low_above,
                )
            } else {
                (None, 0)
            };
            let Some(task) = victim.and_then(|i| self.pending.remove(i)) else {
                break;
            };
            let at = task.eligible.max(horizon);
            self.stats.shed_admission += 1;
            self.stats
                .per_tenant
                .entry(task.tenant.get())
                .or_default()
                .shed += 1;
            let attempts = task.attempt;
            let e = Error::AdmissionShed { backlog, watermark };
            self.retire_undispatched(task, at, attempts, e);
            shed_any = true;
        }
        shed_any
    }

    /// Dispatches one device job — a single task, or a coalesced batch
    /// of compatible batchable tasks — and places it on the virtual
    /// timeline, after shedding any deadline-expired backlog. A batch
    /// retires one [`Completion`] per member; the last completion
    /// retired by this step is returned. Returns `Ok(None)` when the
    /// queue is empty or the only action was re-queueing work for retry.
    ///
    /// # Errors
    ///
    /// Job failures do **not** error: they retire as error completions
    /// (counted in [`QueueStats::failed`]). The `Result` is reserved for
    /// queue-level invariant violations.
    pub fn step(&mut self) -> Result<Option<&Completion>> {
        let shed_expired = self.shed_expired();
        let shed = self.shed_admission_backlog() || shed_expired;
        let retired = self.select().is_some_and(|idx| self.dispatch(idx));
        if retired || shed {
            Ok(self.completions.last())
        } else {
            Ok(None)
        }
    }

    /// Occupies the `cores_used` earliest-available cores for
    /// `duration`, starting no earlier than `not_before`. Returns the
    /// dispatch's `(start, finish, occupied_core_indices)`; the indices
    /// identify the dispatch's tracks in an exported trace.
    fn occupy(
        &mut self,
        cores_used: usize,
        not_before: Duration,
        duration: Duration,
    ) -> (Duration, Duration, Vec<usize>) {
        let c = cores_used.clamp(1, self.core_free_at.len());
        let mut order: Vec<usize> = (0..self.core_free_at.len()).collect();
        order.sort_by_key(|&i| self.core_free_at[i]);
        let ready = self.core_free_at[order[c - 1]];
        let start = not_before.max(ready);
        let finish = start + duration;
        order.truncate(c);
        for &i in &order {
            self.core_free_at[i] = finish;
        }
        (start, finish, order)
    }

    /// Emits the [`TraceEventKind::DispatchIssued`] span for a dispatch
    /// just booked via [`DeviceQueue::occupy`].
    fn emit_dispatch(
        &self,
        dispatch: u64,
        start: Duration,
        finish: Duration,
        cores: &[usize],
        members: &[TaskHandle],
        batch_key: Option<BatchKey>,
    ) {
        let (start_cycles, finish_cycles) = (self.trace_ts(start), self.trace_ts(finish));
        self.emit_with(start, || TraceEventKind::DispatchIssued {
            dispatch,
            start: start_cycles,
            finish: finish_cycles,
            cores: cores.to_vec(),
            members: members.iter().map(|h| h.0).collect(),
            batch_key: batch_key.map(BatchKey::get),
        });
    }

    /// Emits the [`TraceEventKind::TaskRetired`] marker for one member of
    /// a dispatch, at the dispatch's finish time.
    fn emit_retire(&self, handle: TaskHandle, dispatch: u64, at: Duration, error: Option<String>) {
        self.emit_with(at, || TraceEventKind::TaskRetired {
            handle: handle.0,
            dispatch,
            ok: error.is_none(),
            error,
        });
    }

    /// Books one successful completion — latency counters, reservoir
    /// sample, and stage breakdown — into both the queue-wide totals
    /// and the submitting tenant's [`crate::TenantStats`].
    fn book_success(
        &mut self,
        tenant: TenantId,
        wait: Duration,
        service: Duration,
        latency: Duration,
        stats: &VcuStats,
    ) {
        self.stats.completed += 1;
        self.stats.total_wait += wait;
        self.stats.total_service += service;
        self.stats.total_latency += latency;
        self.stats.latency_samples.push(latency);
        let stages = StageBreakdown::from_parts(wait, service, stats);
        self.stats.stage_dispatch += stages.dispatch;
        self.stats.stage_dma += stages.dma;
        self.stats.stage_device += stages.device;
        let t = self.stats.per_tenant.entry(tenant.get()).or_default();
        t.completed += 1;
        t.total_wait += wait;
        t.total_latency += latency;
        t.stage_dispatch += stages.dispatch;
        t.stage_dma += stages.dma;
        t.stage_device += stages.device;
    }

    /// Books one failed (never-completed) task into both the queue-wide
    /// and the submitting tenant's `failed` counter.
    fn book_failure(&mut self, tenant: TenantId) {
        self.stats.failed += 1;
        self.stats
            .per_tenant
            .entry(tenant.get())
            .or_default()
            .failed += 1;
    }

    /// Contains a pre-dispatch failure (the fault gate fired before the
    /// task ran): re-queues the task with backoff when the configured
    /// retry policy still has budget, otherwise retires it as an error
    /// completion that never reached the device. A re-queued task goes
    /// back to `slot` — an unkeyed task keeps its place in line — or, for
    /// `None`, to the back of the backlog: a batch member gives up its
    /// FIFO spot. Returns whether a completion was retired.
    fn contain_predispatch_failure(
        &mut self,
        mut task: Pending<'t>,
        slot: Option<usize>,
        e: Error,
        horizon: Duration,
    ) -> bool {
        let at = task.eligible.max(horizon);
        let seq = self.dev.fault_counts().tasks_injected;
        self.emit_with(at, || TraceEventKind::FaultInjected { seq });
        let retry = self
            .cfg
            .retry
            .filter(|policy| e.is_transient() && task.attempt < policy.max_retries);
        if let Some(policy) = retry {
            task.eligible = at + policy.delay(task.attempt);
            task.attempt += 1;
            self.stats.retries += 1;
            let (handle, attempt) = (task.handle.0, task.attempt);
            let eligible_cycles = self.trace_ts(task.eligible);
            self.emit_with(at, || TraceEventKind::TaskRetried {
                handle,
                attempt,
                eligible: eligible_cycles,
            });
            match slot {
                Some(i) => self.pending.insert(i, task),
                None => self.pending.push_back(task),
            }
            return false;
        }
        self.book_failure(task.tenant);
        let attempts = task.attempt + 1;
        self.retire_undispatched(task, at, attempts, e);
        true
    }

    /// Indices (into `pending`) of the batch the keyed head at `idx`
    /// forms: every pending job of the head's (priority, key) class
    /// arriving inside the batching window, `max_batch` of them — FIFO
    /// in submission order under the default policy, earliest deadline
    /// first under [`SchedPolicy::SloAware`] (so a full window sheds
    /// slack from the members that can afford it, not from whoever
    /// happened to submit last).
    fn gather(&self, idx: usize, key: BatchKey, horizon: Duration) -> Vec<usize> {
        let head = &self.pending[idx];
        let (priority, opened) = (head.priority, head.arrival.max(horizon));
        let window_close = opened + self.cfg.max_batch_wait;
        let mut member_idx: Vec<usize> = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.priority == priority && p.work.key == Some(key) && p.arrival <= window_close
            })
            .map(|(i, _)| i)
            .collect();
        if self.cfg.scheduler == SchedPolicy::SloAware {
            member_idx.sort_by_key(|&i| (self.pending[i].deadline.unwrap_or(Duration::MAX), i));
        }
        member_idx.truncate(self.cfg.max_batch.max(1));
        let window_close_cycles = self.trace_ts(window_close);
        self.emit_with(opened, || TraceEventKind::BatchFormed {
            key: key.get(),
            members: member_idx
                .iter()
                .map(|&i| self.pending[i].handle.0)
                .collect(),
            window_close: window_close_cycles,
        });
        member_idx
    }

    /// Dispatches the task at `idx` as one device job: alone when it
    /// carries no batch key, coalesced with its compatible neighbours
    /// (see [`DeviceQueue::gather`]) when it does. Returns whether a
    /// completion retired.
    fn dispatch(&mut self, idx: usize) -> bool {
        let horizon = self.horizon();
        let key = self.pending[idx].work.key;
        let member_idx = match key {
            Some(key) => self.gather(idx, key, horizon),
            None => vec![idx],
        };

        // Take the members out back-to-front, so earlier indices stay
        // valid, each tagged with its rank in the chosen order (which may
        // differ from index order under EDF gathering), then restore
        // that order.
        let mut by_index: Vec<(usize, usize)> = member_idx
            .iter()
            .enumerate()
            .map(|(rank, &i)| (i, rank))
            .collect();
        by_index.sort_unstable();
        let mut members: Vec<(usize, Pending<'t>)> = by_index
            .iter()
            .rev()
            .filter_map(|&(i, rank)| Some((rank, self.pending.remove(i)?)))
            .collect();
        members.sort_unstable_by_key(|&(rank, _)| rank);

        // Fault-gate each member individually: a poisoned member fails
        // (or retries) alone while its healthy siblings still ride
        // together.
        let retry_slot = key.is_none().then_some(idx);
        let mut retired_any = false;
        let mut payloads = Vec::with_capacity(members.len());
        let mut runner: Option<BatchRunner<'t>> = None;
        let mut meta: Vec<MemberMeta> = Vec::with_capacity(members.len());
        let mut latest_eligible = Duration::ZERO;
        for (_, m) in members {
            if let Some(e) = self.dev.fault_check_task(key) {
                retired_any |= self.contain_predispatch_failure(m, retry_slot, e, horizon);
                continue;
            }
            payloads.push(m.work.payload);
            runner.get_or_insert(m.work.run);
            latest_eligible = latest_eligible.max(m.eligible);
            self.advance_virtual_clock(m.vstart);
            meta.push(MemberMeta {
                handle: m.handle,
                priority: m.priority,
                tenant: m.tenant,
                arrival: m.arrival,
                attempt: m.attempt,
            });
        }
        let Some(run) = runner else {
            // Every member was poisoned or re-queued for retry.
            return retired_any;
        };

        // A runner-level failure (or a malformed output arity) fails
        // every member of this dispatch together, booking the device
        // time the dispatch actually consumed.
        let n = meta.len();
        let snap = self.device_snapshot();
        let (report, outputs) = match run(self.dev, payloads) {
            Ok((report, outputs)) if outputs.len() == n => (report, outputs),
            result => {
                let e = match result {
                    Ok((_, outputs)) => Error::TaskFailed(format!(
                        "batch runner returned {} outputs for {n} members",
                        outputs.len()
                    )),
                    Err(e) => e,
                };
                (
                    self.failed_report(snap),
                    (0..n).map(|_| Err(e.clone())).collect(),
                )
            }
        };
        self.book_dispatch(&meta, key, latest_eligible, report, outputs);
        true
    }

    /// Books a dispatch on the timeline and fans its per-member outputs
    /// back out as completions. A member whose [`BatchOutput`] is `Err`
    /// retires as an error completion while its siblings succeed.
    fn book_dispatch(
        &mut self,
        meta: &[MemberMeta],
        key: Option<BatchKey>,
        latest_eligible: Duration,
        report: TaskReport,
        outputs: Vec<BatchOutput>,
    ) {
        // One device dispatch for the whole batch; it cannot start
        // before its last member became eligible.
        let (start, finish, cores) =
            self.occupy(report.cores_used, latest_eligible, report.duration);
        let tasks = meta.len() as u64;
        let dispatch = self.next_dispatch;
        self.next_dispatch += 1;
        self.stats.dispatches += 1;
        self.stats.dispatched_tasks += tasks;
        self.stats.max_batch_size = self.stats.max_batch_size.max(tasks);
        self.stats.busy += report.duration * cores.len() as u32;
        self.stats.makespan = self.stats.makespan.max(finish);
        let handles: Vec<TaskHandle> = meta.iter().map(|m| m.handle).collect();
        self.emit_dispatch(dispatch, start, finish, &cores, &handles, key);

        // Fan the completions back out: each member keeps its own
        // arrival and is charged the shared start/finish.
        for (m, outcome) in meta.iter().zip(outputs) {
            match &outcome {
                Ok(_) => {
                    self.book_success(
                        m.tenant,
                        start - m.arrival,
                        report.duration,
                        finish - m.arrival,
                        &report.stats,
                    );
                    self.emit_retire(m.handle, dispatch, finish, None);
                }
                Err(e) => {
                    self.book_failure(m.tenant);
                    self.emit_retire(m.handle, dispatch, finish, Some(e.to_string()));
                }
            }
            self.completions.push(Completion {
                handle: m.handle,
                priority: m.priority,
                tenant: m.tenant,
                submitted_at: m.arrival,
                started_at: start,
                finished_at: finish,
                batch_size: meta.len(),
                dispatch: Some(dispatch),
                batch_key: key,
                attempts: m.attempt + 1,
                report: report.clone(),
                outcome,
            });
        }
    }

    /// Dispatches until the given task retires and returns its
    /// completion — which may be an error one; failed work retires
    /// with an error completion rather than vanishing from the queue.
    /// Returns immediately if it already retired.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::InvalidArg`] only when the handle was never
    /// submitted to this queue.
    pub fn wait(&mut self, handle: TaskHandle) -> Result<&Completion> {
        // Completions are append-only, so scan by position to keep the
        // borrow checker happy across `step` calls.
        loop {
            if let Some(pos) = self.completions.iter().position(|c| c.handle == handle) {
                return Ok(&self.completions[pos]);
            }
            if self.pending.iter().any(|p| p.handle == handle) {
                self.step()?;
            } else {
                return Err(Error::InvalidArg(format!(
                    "unknown task handle {}",
                    handle.id()
                )));
            }
        }
    }

    /// Dispatches every pending task and returns all completions so far,
    /// ordered by finish time (FIFO for ties), consuming them from the
    /// queue. Job failures do **not** abort the drain: each failed task
    /// retires as an error completion and the drain continues.
    /// Termination is guaranteed — retries are bounded by the policy's
    /// `max_retries`, after which a task retires as failed.
    ///
    /// # Errors
    ///
    /// Reserved for queue-level invariant violations.
    pub fn drain(&mut self) -> Result<Vec<Completion>> {
        while !self.pending.is_empty() {
            self.step()?;
        }
        let mut done = std::mem::take(&mut self.completions);
        done.sort_by_key(|c| (c.finished_at, c.handle.id()));
        Ok(done)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::device::ApuContext;
    use crate::timing::VecOp;

    fn device() -> ApuDevice {
        ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20))
    }

    fn charge_kernel(op: VecOp) -> impl FnOnce(&mut ApuContext<'_>) -> Result<()> {
        move |ctx| {
            ctx.core_mut().charge(op);
            Ok(())
        }
    }

    #[test]
    fn kernel_roundtrip_reports_cycles() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        let h = q
            .submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal))
            .unwrap();
        let done = q.wait(h).unwrap();
        assert!(done.report.cycles.get() > 0);
        assert_eq!(done.submitted_at, Duration::ZERO);
        assert_eq!(done.started_at, Duration::ZERO);
        assert_eq!(done.finished_at, done.report.duration);
        assert!(done.output::<()>().is_some());
        assert_eq!(q.stats().completed, 1);
    }

    #[test]
    fn priorities_jump_the_line() {
        // One core: dispatch order is observable through start times.
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20).with_cores(1));
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        let lo = q
            .submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Low))
            .unwrap();
        let hi = q
            .submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::High))
            .unwrap();
        let done = q.drain().unwrap();
        let pos = |h: TaskHandle| done.iter().position(|c| c.handle == h).unwrap();
        assert!(
            pos(hi) < pos(lo),
            "high-priority task must dispatch before the earlier low-priority one"
        );
        assert!(done[pos(hi)].started_at < done[pos(lo)].started_at);
    }

    #[test]
    fn fifo_within_a_priority_class() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20).with_cores(1));
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        let handles: Vec<TaskHandle> = (0..4)
            .map(|_| {
                q.submit(TaskSpec::kernel(charge_kernel(VecOp::Or16)).priority(Priority::Normal))
                    .unwrap()
            })
            .collect();
        let done = q.drain().unwrap();
        let starts: Vec<Duration> = handles
            .iter()
            .map(|&h| done.iter().find(|c| c.handle == h).unwrap().started_at)
            .collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn arrivals_gate_dispatch_and_waits_accumulate() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20).with_cores(1));
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        // Second task arrives late; the queue idles until its arrival.
        let late = Duration::from_millis(10);
        let a = q
            .submit(TaskSpec::job(Box::new(|dev: &mut ApuDevice| {
                let r = dev.run_task(charge_kernel(VecOp::AddU16))?;
                Ok((r, Box::new(()) as Box<dyn Any>))
            })))
            .unwrap();
        let b = q
            .submit(
                TaskSpec::job(Box::new(|dev: &mut ApuDevice| {
                    let r = dev.run_task(charge_kernel(VecOp::AddU16))?;
                    Ok((r, Box::new(()) as Box<dyn Any>))
                }))
                .at(late),
            )
            .unwrap();
        let done = q.drain().unwrap();
        let first = done.iter().find(|c| c.handle == a).unwrap();
        let second = done.iter().find(|c| c.handle == b).unwrap();
        assert!(first.finished_at < late, "first task fits before arrival");
        assert_eq!(second.started_at, late, "idle queue waits for arrival");
        assert_eq!(second.wait(), Duration::ZERO);
    }

    #[test]
    fn queue_full_rejects_and_counts() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default().with_max_pending(2));
        q.submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal))
            .unwrap();
        q.submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal))
            .unwrap();
        let r = q.submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal));
        assert!(matches!(
            r,
            Err(Error::QueueFull {
                pending: 2,
                capacity: 2
            })
        ));
        assert_eq!(q.stats().rejected, 1);
        // Draining frees capacity.
        q.drain().unwrap();
        assert!(q
            .submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal))
            .is_ok());
    }

    #[test]
    fn failed_jobs_retire_error_completions() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        let h = q
            .submit(TaskSpec::job(Box::new(|_dev| {
                Err(Error::TaskFailed("boom".into()))
            })))
            .unwrap();
        // The failure is contained: waiting on the handle yields an
        // error completion instead of erroring the queue.
        let done = q.wait(h).expect("failed work still retires");
        assert!(done.is_failed());
        assert!(matches!(done.error(), Some(Error::TaskFailed(_))));
        assert!(done.output::<()>().is_none());
        assert_eq!(done.attempts, 1);
        assert_eq!(q.stats().failed, 1);
        assert_eq!(q.stats().completed, 0);
    }

    #[test]
    fn wait_on_failed_handle_is_not_unknown() {
        // Regression: `wait` on a handle whose job failed used to abort
        // with the job error (or later report "unknown task handle").
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        let h = q
            .submit(TaskSpec::job(Box::new(|_dev| {
                Err(Error::TaskFailed("boom".into()))
            })))
            .unwrap();
        q.step().unwrap();
        // Already retired: a second wait still finds the completion.
        assert!(q.wait(h).unwrap().is_failed());
        // A genuinely unknown handle is still rejected.
        let bogus = TaskHandle(u64::MAX);
        assert!(matches!(q.wait(bogus), Err(Error::InvalidArg(_))));
    }

    #[test]
    fn failed_jobs_still_consume_device_time() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        q.submit(TaskSpec::job(Box::new(|dev: &mut ApuDevice| {
            // Burn real device cycles, then fail.
            dev.run_task(charge_kernel(VecOp::AddU16))?;
            Err(Error::TaskFailed("late failure".into()))
        })))
        .unwrap();
        let done = q.drain().unwrap();
        assert_eq!(done.len(), 1);
        assert!(done[0].is_failed());
        assert_eq!(done[0].dispatch, Some(0), "the job reached the device");
        assert!(
            done[0].report.cycles.get() > 0,
            "consumed cycles are booked on the failed completion"
        );
        assert!(done[0].finished_at > done[0].started_at);
        assert!(
            q.stats().busy > Duration::ZERO,
            "failed work still occupies the timeline"
        );
    }

    #[test]
    fn deadline_expired_tasks_shed_without_dispatching() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20).with_cores(1));
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        // A long head job pushes the horizon past the second task's TTL.
        q.submit(TaskSpec::job(Box::new(|dev: &mut ApuDevice| {
            let mut r = dev.run_task(charge_kernel(VecOp::AddU16))?;
            r.duration = Duration::from_millis(50);
            Ok((r, Box::new(()) as Box<dyn Any>))
        })))
        .unwrap();
        let ttl = Duration::from_millis(1);
        let h = q
            .submit(
                TaskSpec::job(Box::new(|_dev: &mut ApuDevice| {
                    panic!("an expired task must never dispatch");
                }))
                .ttl(ttl),
            )
            .unwrap();
        let done = q.drain().unwrap();
        let shed = done.iter().find(|c| c.handle == h).unwrap();
        assert!(shed.is_failed());
        assert!(matches!(
            shed.error(),
            Some(Error::DeadlineExceeded { deadline }) if *deadline == ttl
        ));
        assert_eq!(shed.dispatch, None, "never reached the device");
        assert_eq!(q.stats().expired, 1);
        assert_eq!(q.stats().completed, 1);
    }

    #[test]
    fn retries_are_bounded_and_deterministic() {
        use crate::fault::FaultPlan;
        let policy = RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_micros(100),
            multiplier: 2.0,
        };
        let run = || {
            let mut dev = device();
            dev.inject_faults(FaultPlan::new(7).fail_every_kth_task(1));
            let mut q = DeviceQueue::new(&mut dev, QueueConfig::default().with_retry(policy));
            let h = q
                .submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal))
                .unwrap();
            let done = q.wait(h).unwrap();
            (
                done.attempts,
                done.finished_at,
                q.stats().retries,
                q.stats().failed,
            )
        };
        let (attempts, finished, retries, failed) = run();
        assert_eq!(attempts, 3, "initial attempt plus two retries");
        assert_eq!(retries, 2);
        assert_eq!(failed, 1);
        // Backoff: 100µs then 200µs of delay before the final failure.
        assert_eq!(finished, Duration::from_micros(300));
        assert_eq!(
            run(),
            (attempts, finished, retries, failed),
            "deterministic"
        );
    }

    #[test]
    fn retried_unkeyed_task_keeps_its_queue_slot() {
        use crate::fault::FaultPlan;
        // One core, five 1 ms jobs, every third task check faults: the
        // third job is gated at 2 ms and becomes eligible again at
        // 2.1 ms. At 3 ms both it and the fifth job are eligible; it
        // kept its slot ahead of the fifth, so it dispatches first.
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20).with_cores(1));
        dev.inject_faults(FaultPlan::new(1).fail_every_kth_task(3));
        let mut q = DeviceQueue::new(
            &mut dev,
            QueueConfig::default().with_retry(RetryPolicy::default()),
        );
        let handles: Vec<TaskHandle> = (0..5)
            .map(|_| {
                q.submit(TaskSpec::job(Box::new(|dev: &mut ApuDevice| {
                    let mut r = dev.run_task(charge_kernel(VecOp::AddU16))?;
                    r.duration = Duration::from_millis(1);
                    Ok((r, Box::new(()) as Box<dyn Any>))
                })))
                .unwrap()
            })
            .collect();
        let done = q.drain().unwrap();
        let by_handle = |i: usize| done.iter().find(|c| c.handle == handles[i]).unwrap();
        assert_eq!(by_handle(2).attempts, 2);
        assert_eq!(by_handle(2).started_at, Duration::from_millis(3));
        assert!(by_handle(2).started_at < by_handle(4).started_at);
    }

    #[test]
    fn retry_recovers_a_transient_fault() {
        use crate::fault::FaultPlan;
        let mut dev = device();
        dev.inject_faults(FaultPlan::new(3).fail_task_rate(0.9));
        let mut q = DeviceQueue::new(
            &mut dev,
            QueueConfig::default().with_retry(RetryPolicy {
                max_retries: 32,
                ..RetryPolicy::default()
            }),
        );
        let h = q
            .submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal))
            .unwrap();
        let done = q.wait(h).unwrap();
        // With 32 retries against a 0.9 fault rate, the task eventually
        // lands (the plan is deterministic, so this cannot flake).
        assert!(done.is_ok(), "outcome: {:?}", done.error());
        assert!(done.attempts > 1, "at least one retry happened");
        let attempts = done.attempts;
        assert_eq!(q.stats().completed, 1);
        assert_eq!(q.stats().failed, 0);
        assert_eq!(q.stats().retries, u64::from(attempts) - 1);
    }

    #[test]
    fn multi_core_jobs_occupy_multiple_cores() {
        let mut dev = device();
        let cores = dev.config().cores;
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        q.submit(TaskSpec::typed(move |dev| {
            let tasks: Vec<crate::CoreTask<'_>> = (0..cores)
                .map(|_| {
                    Box::new(|ctx: &mut ApuContext<'_>| {
                        ctx.core_mut().charge(VecOp::AddU16);
                        Ok(())
                    }) as _
                })
                .collect();
            let r = dev.run_parallel(tasks)?;
            Ok((r, ()))
        }))
        .unwrap();
        let done = q.drain().unwrap();
        assert_eq!(done[0].report.cores_used, cores);
        // All cores are busy until the parallel job's finish.
        assert!((q.stats().occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn typed_outputs_downcast() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        let h = q
            .submit(TaskSpec::typed(|dev| {
                let r = dev.run_task(charge_kernel(VecOp::AddU16))?;
                Ok((r, vec![1u32, 2, 3]))
            }))
            .unwrap();
        q.wait(h).unwrap();
        let done = q.drain().unwrap();
        let v: Vec<u32> = done.into_iter().next().unwrap().into_output().unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn unknown_handle_is_an_error() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        let h = q
            .submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal))
            .unwrap();
        q.drain().unwrap();
        // Handle retired and drained away: no longer known.
        assert!(q.wait(h).is_err());
    }

    /// A batch runner that charges one op for the whole dispatch and
    /// echoes every member's payload back as its output.
    fn echo_runner<'t>(op: VecOp) -> BatchRunner<'t> {
        Box::new(move |dev: &mut ApuDevice, payloads: Vec<Box<dyn Any>>| {
            let report = dev.run_task(charge_kernel(op))?;
            Ok((report, payloads.into_iter().map(Ok).collect()))
        })
    }

    fn submit_echo(
        q: &mut DeviceQueue<'_, '_>,
        priority: Priority,
        arrival: Duration,
        key: BatchKey,
        tag: u32,
    ) -> TaskHandle {
        q.submit(
            TaskSpec::batch(key, Box::new(tag), echo_runner(VecOp::AddU16))
                .priority(priority)
                .at(arrival),
        )
        .unwrap()
    }

    #[test]
    fn batchable_jobs_coalesce_up_to_max_batch() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default().with_max_batch(3));
        let key = BatchKey::new(7);
        let handles: Vec<TaskHandle> = (0..5)
            .map(|i| submit_echo(&mut q, Priority::Normal, Duration::ZERO, key, i))
            .collect();
        let done = q.drain().unwrap();
        assert_eq!(done.len(), 5);
        // First dispatch carries three members, the second the rest.
        let by_handle = |h: TaskHandle| done.iter().find(|c| c.handle == h).unwrap();
        for (i, &h) in handles.iter().enumerate() {
            let c = by_handle(h);
            assert_eq!(c.batch_key, Some(key));
            // Payloads fan back out to their own submitters.
            assert_eq!(c.output::<u32>(), Some(&(i as u32)));
            assert_eq!(c.batch_size, if i < 3 { 3 } else { 2 });
            assert_eq!(c.dispatch, Some(if i < 3 { 0 } else { 1 }));
        }
        let s = q.stats();
        assert_eq!(s.dispatches, 2);
        assert_eq!(s.dispatched_tasks, 5);
        assert_eq!(s.max_batch_size, 3);
        assert_eq!(s.completed, 5);
        assert_eq!(s.peak_pending, 5);
        assert!((s.mean_batch_size() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn batches_never_mix_keys_or_priorities() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default().with_max_batch(8));
        let (ka, kb) = (BatchKey::new(1), BatchKey::new(2));
        submit_echo(&mut q, Priority::Normal, Duration::ZERO, ka, 0);
        submit_echo(&mut q, Priority::Normal, Duration::ZERO, kb, 1);
        submit_echo(&mut q, Priority::High, Duration::ZERO, ka, 2);
        submit_echo(&mut q, Priority::Normal, Duration::ZERO, ka, 3);
        let done = q.drain().unwrap();
        for c in &done {
            let peers: Vec<_> = done.iter().filter(|o| o.dispatch == c.dispatch).collect();
            assert!(peers.iter().all(|o| o.batch_key == c.batch_key));
            assert!(peers.iter().all(|o| o.priority == c.priority));
        }
        // Only the two (Normal, ka) jobs could coalesce.
        assert_eq!(q.stats().dispatches, 3);
        assert_eq!(q.stats().max_batch_size, 2);
    }

    #[test]
    fn max_batch_wait_pulls_in_stragglers() {
        let late = Duration::from_millis(1);
        let key = BatchKey::new(3);

        // Without a wait window, the head dispatches alone.
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default().with_max_batch(4));
        submit_echo(&mut q, Priority::Normal, Duration::ZERO, key, 0);
        submit_echo(&mut q, Priority::Normal, late, key, 1);
        let done = q.drain().unwrap();
        assert!(done.iter().all(|c| c.batch_size == 1));

        // With the window open past the straggler's arrival, one batch
        // forms and the early member is charged the wait.
        let mut dev = device();
        let mut q = DeviceQueue::new(
            &mut dev,
            QueueConfig::default()
                .with_max_batch(4)
                .with_max_batch_wait(late),
        );
        submit_echo(&mut q, Priority::Normal, Duration::ZERO, key, 0);
        submit_echo(&mut q, Priority::Normal, late, key, 1);
        let done = q.drain().unwrap();
        assert!(done.iter().all(|c| c.batch_size == 2));
        let early = done
            .iter()
            .find(|c| c.submitted_at == Duration::ZERO)
            .unwrap();
        assert_eq!(early.started_at, late, "batch waits for its last member");
        assert!(early.wait() >= late);
    }

    #[test]
    fn fifo_within_class_is_preserved_under_batching() {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20).with_cores(1));
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default().with_max_batch(2));
        let key = BatchKey::new(9);
        let handles: Vec<TaskHandle> = (0..6)
            .map(|i| submit_echo(&mut q, Priority::Normal, Duration::ZERO, key, i))
            .collect();
        let done = q.drain().unwrap();
        let starts: Vec<Duration> = handles
            .iter()
            .map(|&h| done.iter().find(|c| c.handle == h).unwrap().started_at)
            .collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        // Members ride with their submission neighbours: {0,1} {2,3} {4,5}.
        let dispatch_of = |h: TaskHandle| done.iter().find(|c| c.handle == h).unwrap().dispatch;
        for pair in handles.chunks(2) {
            assert_eq!(dispatch_of(pair[0]), dispatch_of(pair[1]));
        }
    }

    #[test]
    fn queue_full_fires_at_exactly_max_pending_with_batching() {
        let mut dev = device();
        let mut q = DeviceQueue::new(
            &mut dev,
            QueueConfig::default()
                .with_max_pending(3)
                .with_max_batch(12),
        );
        let key = BatchKey::new(4);
        for i in 0..3 {
            submit_echo(&mut q, Priority::Normal, Duration::ZERO, key, i);
        }
        let r = q.submit(TaskSpec::batch(
            key,
            Box::new(3u32),
            echo_runner(VecOp::AddU16),
        ));
        assert!(matches!(
            r,
            Err(Error::QueueFull {
                pending: 3,
                capacity: 3
            })
        ));
        assert_eq!(q.stats().rejected, 1);
        // Draining coalesces the backlog into one dispatch and frees
        // all three admission slots at once.
        q.drain().unwrap();
        assert_eq!(q.stats().dispatches, 1);
        assert_eq!(q.stats().max_batch_size, 3);
        assert!(q
            .submit(TaskSpec::batch(
                key,
                Box::new(4u32),
                echo_runner(VecOp::AddU16)
            ))
            .is_ok());
    }

    #[test]
    fn batch_runner_output_arity_is_validated() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default().with_max_batch(4));
        let key = BatchKey::new(5);
        let bad: BatchRunner<'_> = Box::new(|dev: &mut ApuDevice, _payloads| {
            let report = dev.run_task(charge_kernel(VecOp::AddU16))?;
            Ok((report, Vec::new())) // wrong: drops every output
        });
        q.submit(TaskSpec::batch(key, Box::new(0u32), bad)).unwrap();
        submit_echo(&mut q, Priority::Normal, Duration::ZERO, key, 1);
        // The malformed dispatch is contained: both members retire as
        // failed completions instead of aborting the drain.
        let done = q.drain().unwrap();
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!(matches!(c.error(), Some(Error::TaskFailed(_))));
        }
        assert_eq!(q.stats().failed, 2);
    }

    #[test]
    fn percentile_nearest_rank() {
        let ms = |n: u64| Duration::from_millis(n);
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&samples, 0.0), ms(1));
        // Nearest-rank: the p50 of 1..=100 is the ceil(0.5·100) = 50th
        // order statistic, not the 51st.
        assert_eq!(percentile(&samples, 0.5), ms(50));
        assert_eq!(percentile(&samples, 0.501), ms(51));
        assert_eq!(percentile(&samples, 0.99), ms(99));
        assert_eq!(percentile(&samples, 1.0), ms(100));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        // Single sample: every quantile is that sample.
        assert_eq!(percentile(&[ms(42)], 0.0), ms(42));
        assert_eq!(percentile(&[ms(42)], 1.0), ms(42));
    }

    #[test]
    fn stats_track_throughput_and_occupancy() {
        let mut dev = device();
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        for _ in 0..4 {
            q.submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).priority(Priority::Normal))
                .unwrap();
        }
        q.drain().unwrap();
        let s = q.stats();
        assert_eq!(s.completed, 4);
        assert!(s.throughput() > 0.0);
        assert!(s.occupancy() > 0.0 && s.occupancy() <= 1.0);
        assert!(s.mean_latency() > Duration::ZERO);
        assert!(s.latency_percentile(0.5) <= s.latency_percentile(0.99));
    }

    #[test]
    fn slo_scheduler_interleaves_tenants_by_fair_share_weight() {
        let heavy = TenantId::new(1);
        let light = TenantId::new(2);
        let mut dev = device();
        let mut q = DeviceQueue::new(
            &mut dev,
            QueueConfig::default()
                .with_scheduler(SchedPolicy::SloAware)
                .with_tenant_weight(heavy, 3)
                .with_tenant_weight(light, 1),
        );
        for _ in 0..4 {
            q.submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).tenant(heavy))
                .unwrap();
        }
        for _ in 0..4 {
            q.submit(TaskSpec::kernel(charge_kernel(VecOp::AddU16)).tenant(light))
                .unwrap();
        }
        let done = q.drain().unwrap();
        // Start-time fair queueing: the 3:1 weight ratio shows up in the
        // dispatch order — of the first four dispatches, three go to the
        // heavy tenant and one to the light tenant (not four-and-zero as
        // FIFO-by-submission would give, since all heavy work arrived
        // first).
        let first_four: Vec<u64> = done.iter().take(4).map(|c| c.tenant.get()).collect();
        assert_eq!(
            first_four.iter().filter(|&&t| t == heavy.get()).count(),
            3,
            "heavy tenant should win 3 of the first 4 slots, order {first_four:?}"
        );
        assert_eq!(
            first_four.iter().filter(|&&t| t == light.get()).count(),
            1,
            "light tenant must not be starved out of the first round"
        );
        let s = q.stats();
        assert_eq!(s.per_tenant[&heavy.get()].completed, 4);
        assert_eq!(s.per_tenant[&light.get()].completed, 4);
    }

    #[test]
    fn admission_control_sheds_lowest_class_newest_first() {
        let mut dev = device();
        let mut q = DeviceQueue::new(
            &mut dev,
            QueueConfig::default().with_admission(AdmissionControl::new(1, 2)),
        );
        let spec = |p: Priority, t: u64| {
            TaskSpec::kernel(charge_kernel(VecOp::AddU16))
                .priority(p)
                .tenant(TenantId::new(t))
        };
        q.submit(spec(Priority::Low, 10)).unwrap();
        q.submit(spec(Priority::Low, 10)).unwrap();
        q.submit(spec(Priority::Normal, 20)).unwrap();
        q.submit(spec(Priority::Normal, 20)).unwrap();
        q.submit(spec(Priority::High, 30)).unwrap();
        let done = q.drain().unwrap();
        assert_eq!(done.len(), 5);
        // Backlog of 5 over the upper watermark (2): both Low tasks shed
        // first, then one Normal, leaving a backlog of 2 to dispatch.
        let shed: Vec<_> = done
            .iter()
            .filter(|c| matches!(c.error(), Some(Error::AdmissionShed { .. })))
            .collect();
        assert_eq!(shed.len(), 3);
        assert!(shed.iter().all(|c| c.priority != Priority::High));
        assert_eq!(
            shed.iter().filter(|c| c.priority == Priority::Low).count(),
            2,
            "both Low tasks go before any second Normal is considered"
        );
        let s = q.stats();
        assert_eq!(s.shed_admission, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.per_tenant[&10].shed, 2);
        assert_eq!(s.per_tenant[&20].shed, 1);
        assert_eq!(s.per_tenant[&30].completed, 1);
        // Admission shedding is a terminal load-control decision, not a
        // fault worth retrying.
        assert!(!shed[0].error().unwrap().is_transient());
    }

    #[test]
    fn slo_batches_coalesce_earliest_deadline_first() {
        let ms = Duration::from_millis;
        let mut dev = device();
        let mut q = DeviceQueue::new(
            &mut dev,
            QueueConfig::default()
                .with_scheduler(SchedPolicy::SloAware)
                .with_max_batch(2),
        );
        let key = BatchKey::new(9);
        let submit = |q: &mut DeviceQueue<'_, '_>, tag: u32, deadline: Duration| {
            q.submit(
                TaskSpec::batch(key, Box::new(tag), echo_runner(VecOp::AddU16))
                    .deadline_at(deadline),
            )
            .unwrap()
        };
        let slack = submit(&mut q, 0, ms(30_000));
        let urgent = submit(&mut q, 1, ms(10_000));
        let middling = submit(&mut q, 2, ms(20_000));
        let done = q.drain().unwrap();
        assert_eq!(done.len(), 3);
        // With room for two members, the coalescer takes the two
        // earliest deadlines (urgent + middling) even though the slack
        // task was submitted first; FIFO would have paired slack+urgent.
        let first_dispatch = done.iter().filter_map(|c| c.dispatch).min().unwrap();
        let first_batch: Vec<TaskHandle> = done
            .iter()
            .filter(|c| c.dispatch == Some(first_dispatch))
            .map(|c| c.handle)
            .collect();
        assert_eq!(first_batch.len(), 2);
        assert!(first_batch.contains(&urgent) && first_batch.contains(&middling));
        assert!(!first_batch.contains(&slack));
    }
}
