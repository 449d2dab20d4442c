//! Unified task-submission specification for the serving engine.
//!
//! [`TaskSpec`] is the one way to submit work to a
//! [`crate::DeviceQueue`] or [`crate::DeviceCluster`]: every submission
//! option — [`Priority`] class, tenant, arrival time, TTL/deadline,
//! logical weight, [`BatchKey`], shard pinning — composes freely on one
//! builder. Every spec describes a batch member: a plain job is a
//! runner with one output and no key, so it always dispatches alone.
//!
//! ```
//! use apu_sim::{ApuDevice, DeviceQueue, Priority, QueueConfig, SimConfig, TaskSpec, TenantId};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), apu_sim::Error> {
//! let mut dev = ApuDevice::try_new(SimConfig::default())?;
//! let mut queue = DeviceQueue::new(&mut dev, QueueConfig::default());
//! let h = queue.submit(
//!     TaskSpec::kernel(|ctx| {
//!         ctx.core_mut().charge(apu_sim::VecOp::AddU16);
//!         Ok(())
//!     })
//!     .priority(Priority::High)
//!     .tenant(TenantId::new(7))
//!     .at(Duration::from_micros(50))
//!     .ttl(Duration::from_millis(2)),
//! )?;
//! let done = queue.wait(h)?;
//! assert!(done.report.cycles.get() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! The module also hosts the SLO-aware scheduling knobs that ride on the
//! spec: [`SchedPolicy`] selects between the historical FIFO dispatcher
//! and the weighted-fair-share / earliest-deadline-first scheduler, and
//! [`AdmissionControl`] bounds the backlog low-priority work may build
//! before it is shed to protect high-priority tail latency.

use std::any::Any;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::device::{ApuContext, ApuDevice, TaskReport};
use crate::queue::{BatchKey, BatchRunner, Job, Priority, Work};
use crate::Result;

/// Identity of the tenant (client, customer, traffic class) a task is
/// submitted on behalf of. Tenants are the unit of weighted fair-share
/// scheduling and of the per-tenant counters in
/// [`crate::QueueStats::per_tenant`]. The default tenant is `0`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TenantId(u64);

impl TenantId {
    /// Wraps a caller-chosen tenant discriminant.
    pub const fn new(v: u64) -> Self {
        TenantId(v)
    }

    /// The raw tenant discriminant.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Dispatch-ordering policy of a [`crate::DeviceQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// The historical scheduler: among eligible tasks the highest
    /// [`Priority`] wins, FIFO within a class. The default; byte-exact
    /// with the pre-`TaskSpec` behaviour.
    #[default]
    Fifo,
    /// SLO-aware dispatch: priority classes still dominate, but within a
    /// class tenants are served in weighted fair-share order (start-time
    /// fair queueing over per-tenant virtual time; see
    /// [`crate::QueueConfig::with_tenant_weight`]), deadlines break ties
    /// (earliest first), and continuous batches gather members in
    /// earliest-deadline-first order instead of FIFO.
    SloAware,
}

/// Backlog watermarks for cluster-level admission shedding.
///
/// When the pending backlog exceeds `shed_low_above`, Low-priority tasks
/// are shed (latest arrival first) until the backlog returns to the
/// watermark; past `shed_normal_above`, Normal-priority tasks are shed
/// too. High-priority work is never admission-shed. Shed tasks retire as
/// `Failed(`[`crate::Error::AdmissionShed`]`)` without dispatching and
/// are counted in [`crate::QueueStats::shed_admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionControl {
    /// Backlog size above which Low-priority pending work is shed.
    pub shed_low_above: usize,
    /// Backlog size above which Normal-priority pending work is shed.
    pub shed_normal_above: usize,
}

impl AdmissionControl {
    /// Watermarks shedding Low work above `low` pending tasks and
    /// Normal work above `normal` (clamped so `normal ≥ low`).
    pub fn new(low: usize, normal: usize) -> Self {
        AdmissionControl {
            shed_low_above: low,
            shed_normal_above: normal.max(low),
        }
    }
}

/// A fully described submission for [`crate::DeviceQueue::submit`] /
/// [`crate::DeviceCluster::submit`]: the work itself plus every
/// scheduling attribute, with builder-style setters. See the
/// [module documentation](self) for an example.
pub struct TaskSpec<'t> {
    pub(crate) priority: Priority,
    pub(crate) arrival: Duration,
    pub(crate) tenant: TenantId,
    pub(crate) deadline: Option<Duration>,
    pub(crate) weight: u64,
    pub(crate) shard: Option<usize>,
    pub(crate) work: Work<'t>,
}

impl std::fmt::Debug for TaskSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("priority", &self.priority)
            .field("arrival", &self.arrival)
            .field("tenant", &self.tenant)
            .field("deadline", &self.deadline)
            .field("weight", &self.weight)
            .field("shard", &self.shard)
            .field("batch_key", &self.batch_key())
            .finish_non_exhaustive()
    }
}

impl<'t> TaskSpec<'t> {
    fn with_work(work: Work<'t>) -> Self {
        TaskSpec {
            priority: Priority::Normal,
            arrival: Duration::ZERO,
            tenant: TenantId::default(),
            deadline: None,
            weight: 1,
            shard: None,
            work,
        }
    }

    /// A spec around a boxed raw [`Job`] (defaults: `Normal` priority,
    /// arrival now, tenant 0, no deadline, weight 1, unpinned). The job
    /// runs as a batch of one with no key.
    pub fn job(job: Job<'t>) -> Self {
        Self::with_work(Work {
            key: None,
            payload: Box::new(()),
            run: Box::new(move |dev, _| {
                let (report, value) = job(dev)?;
                Ok((report, vec![Ok(value)]))
            }),
        })
    }

    /// A spec around a job with a typed output, boxing it for the
    /// [`crate::Completion`].
    pub fn typed<T, F>(job: F) -> Self
    where
        T: Any,
        F: FnOnce(&mut ApuDevice) -> Result<(TaskReport, T)> + 't,
    {
        Self::job(Box::new(move |dev| {
            let (report, value) = job(dev)?;
            Ok((report, Box::new(value) as Box<dyn Any>))
        }))
    }

    /// A spec around a single-core kernel (the
    /// [`ApuDevice::run_task`] shape) with unit output.
    pub fn kernel<F>(kernel: F) -> Self
    where
        F: FnOnce(&mut ApuContext<'_>) -> Result<()> + 't,
    {
        Self::typed(move |dev| Ok((dev.run_task(kernel)?, ())))
    }

    /// A spec for **continuous batching**: the dispatcher may coalesce
    /// this submission with others sharing its `key` (and [`Priority`]);
    /// `payload` is the member's contribution and `run` executes the
    /// whole batch.
    pub fn batch(key: BatchKey, payload: Box<dyn Any>, run: BatchRunner<'t>) -> Self {
        Self::with_work(Work {
            key: Some(key),
            payload,
            run,
        })
    }

    /// Sets the [`Priority`] class (default `Normal`).
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the arrival time on the virtual timeline (default now).
    #[must_use]
    pub fn at(mut self, arrival: Duration) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the submitting tenant (default [`TenantId`] 0).
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Attaches a time-to-live: the task is shed without dispatching if
    /// it cannot *start* by `arrival + ttl` (load shedding; the deadline
    /// is evaluated against the arrival set at submission).
    #[must_use]
    pub fn ttl(mut self, ttl: Duration) -> Self {
        self.deadline = Some(self.arrival + ttl);
        self
    }

    /// Attaches an absolute start deadline on the virtual timeline
    /// (the TTL form [`TaskSpec::ttl`] is usually more convenient).
    #[must_use]
    pub fn deadline_at(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Declares the number of logical tasks this submission folds (e.g.
    /// a pre-batched multi-query job; default 1). Counted in
    /// [`crate::QueueStats::batches`] / `batched_tasks` when > 1.
    #[must_use]
    pub fn weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Pins the task to a cluster shard. [`crate::DeviceCluster::submit`]
    /// bypasses its routing policy for pinned specs;
    /// [`crate::DeviceQueue::submit`] ignores the pin (a single queue
    /// has no placement choice).
    #[must_use]
    pub fn on_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The batch-compatibility key, for batchable specs.
    pub fn batch_key(&self) -> Option<BatchKey> {
        self.work.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_setters() {
        let spec = TaskSpec::kernel(|_| Ok(()));
        assert_eq!(spec.priority, Priority::Normal);
        assert_eq!(spec.arrival, Duration::ZERO);
        assert_eq!(spec.tenant, TenantId::default());
        assert_eq!(spec.deadline, None);
        assert_eq!(spec.weight, 1);
        assert_eq!(spec.shard, None);
        assert!(spec.batch_key().is_none());

        let spec = spec
            .priority(Priority::High)
            .at(Duration::from_micros(10))
            .tenant(TenantId::new(3))
            .ttl(Duration::from_micros(5))
            .weight(4)
            .on_shard(2);
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.tenant.get(), 3);
        assert_eq!(spec.deadline, Some(Duration::from_micros(15)));
        assert_eq!(spec.weight, 4);
        assert_eq!(spec.shard, Some(2));
    }

    #[test]
    fn ttl_is_relative_to_the_arrival_set_before_it() {
        let spec = TaskSpec::kernel(|_| Ok(()))
            .at(Duration::from_millis(1))
            .ttl(Duration::from_millis(2));
        assert_eq!(spec.deadline, Some(Duration::from_millis(3)));
        let spec = TaskSpec::kernel(|_| Ok(())).deadline_at(Duration::from_millis(9));
        assert_eq!(spec.deadline, Some(Duration::from_millis(9)));
    }

    #[test]
    fn admission_watermarks_are_ordered() {
        let adm = AdmissionControl::new(8, 2);
        assert_eq!(adm.shed_low_above, 8);
        assert_eq!(adm.shed_normal_above, 8);
    }
}
