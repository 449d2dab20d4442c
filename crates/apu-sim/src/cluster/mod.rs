//! Multi-device scale-out: a cluster of independent simulated APUs.
//!
//! The paper serves every workload from **one** device and §5.3 shows
//! the corpus-scaling wall that follows (10 → 200 GB corpora stream
//! ever-longer embedding scans through one HBM interface). This module
//! is the scale-out answer: [`DeviceCluster`] owns N fully independent
//! [`DeviceQueue`]s — each over its own [`ApuDevice`] with its own
//! virtual clock, fault plan, and trace sink. Every submission names
//! its device ([`DeviceCluster::submit`]): the caller — `rag`'s sharded
//! server, which fans each query out to **every** shard and merges
//! per-shard top-k — decides placement, so the cluster has no router.
//! [`DeviceCluster::drain`] is the fan-in.
//!
//! Devices never share state: a fault plan armed on one device, a
//! retry storm, or a TTL shed on one device cannot perturb another
//! device's virtual timeline.
//!
//! # Replication
//!
//! The devices form logical shards of `replicas` devices each: replica
//! `r` of shard `s` is device `s * replicas + r`. Three primitives
//! implement replicated reads on top of the plain submission API:
//!
//! * [`DeviceCluster::route_replica`] — read load-balancing: pick the
//!   least-outstanding *healthy* member of a shard's replica set
//!   (excluding already-tried devices on the failover path),
//! * [`DeviceCluster::record_outcome`] — feed the [`HealthTracker`]
//!   with device-attributable outcomes; an up→down transition emits a
//!   [`TraceEventKind::ReplicaDown`] event on that device's sink,
//! * [`DeviceCluster::submit_failover`] — resubmit a failed task on
//!   another replica, stamping a [`TraceEventKind::FailoverIssued`]
//!   event on the target's timeline.
//!
//! The cluster never fails over on its own: callers own the retry loop
//! (see `rag`'s `ShardedRagServer`), because only they know which
//! completions belong to one logical request.

mod health;

pub use health::HealthTracker;

use std::time::Duration;

use crate::device::ApuDevice;
use crate::error::Error;
use crate::queue::{Completion, DeviceQueue, QueueConfig, TaskHandle};
use crate::spec::TaskSpec;
use crate::stats::QueueStats;
use crate::trace::{TraceEvent, TraceEventKind};
use crate::Result;

/// A cluster of independent simulated APU devices, grouped into
/// replica sets.
///
/// See the [module documentation](self) for the scale-out model. Every
/// device is a full [`DeviceQueue`] — priorities, admission control,
/// continuous batching, TTL shedding, bounded retry, fault containment,
/// and tracing all work per device exactly as on a single device.
///
/// ```
/// use apu_sim::{ApuDevice, DeviceCluster, QueueConfig, SimConfig, TaskSpec, VecOp};
///
/// # fn main() -> Result<(), apu_sim::Error> {
/// let mut devs: Vec<ApuDevice> = (0..2)
///     .map(|_| ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20)))
///     .collect();
/// let mut cluster = DeviceCluster::new(devs.iter_mut().collect(), QueueConfig::default(), 1)?;
/// for i in 0..4 {
///     let spec = TaskSpec::kernel(|ctx| {
///         ctx.core_mut().charge(VecOp::AddU16);
///         Ok(())
///     });
///     cluster.submit(i % 2, spec)?;
/// }
/// let per_device = cluster.drain()?;
/// assert_eq!(per_device.len(), 2);
/// assert!(per_device.iter().all(|done| done.len() == 2));
/// # Ok(())
/// # }
/// ```
pub struct DeviceCluster<'d, 't> {
    nodes: Vec<DeviceQueue<'d, 't>>,
    replicas: usize,
    health: HealthTracker,
}

impl<'d, 't> DeviceCluster<'d, 't> {
    /// Opens a cluster over the given devices, one [`DeviceQueue`] per
    /// device, each configured with a clone of `cfg`. Consecutive runs
    /// of `replicas` devices form one logical shard's replica set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] for an empty device set, zero
    /// replicas, or a device count that is not a multiple of
    /// `replicas`.
    pub fn new(devices: Vec<&'d mut ApuDevice>, cfg: QueueConfig, replicas: usize) -> Result<Self> {
        if devices.is_empty() {
            return Err(Error::InvalidArg(
                "a device cluster needs at least one device".into(),
            ));
        }
        if replicas == 0 || !devices.len().is_multiple_of(replicas) {
            return Err(Error::InvalidArg(format!(
                "{} devices do not form replica sets of {replicas}",
                devices.len()
            )));
        }
        let nodes: Vec<DeviceQueue<'d, 't>> = devices
            .into_iter()
            .map(|dev| DeviceQueue::new(dev, cfg.clone()))
            .collect();
        let health = HealthTracker::new(nodes.len());
        Ok(DeviceCluster {
            nodes,
            replicas,
            health,
        })
    }

    /// One device's queue counters.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range device index.
    pub fn stats(&self, device: usize) -> &QueueStats {
        self.nodes[device].stats()
    }

    /// The per-device health tracker.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Read load-balancing across a logical shard's replica set
    /// (devices `shard * replicas ..` `(shard + 1) * replicas`): picks
    /// the least-outstanding healthy replica not listed in `exclude`
    /// (ties go to the lowest device index). When every non-excluded
    /// replica is marked down the health filter is dropped — a down
    /// replica might still answer, and guessing beats refusing.
    /// Returns `None` only when every replica is excluded (the failover
    /// path has exhausted the set) or `shard` is out of range.
    pub fn route_replica(&self, shard: usize, exclude: &[usize]) -> Option<usize> {
        let first = shard.checked_mul(self.replicas)?;
        if first >= self.nodes.len() {
            return None;
        }
        let group = first..first + self.replicas;
        let pick = |healthy_only: bool| {
            group
                .clone()
                .filter(|d| !exclude.contains(d))
                .filter(|&d| !healthy_only || self.health.is_up(d))
                .min_by_key(|&d| (self.nodes[d].pending(), d))
        };
        pick(true).or_else(|| pick(false))
    }

    /// Feeds the health tracker with a completion outcome observed at
    /// virtual time `at` on `device`. Callers must only report
    /// *device-attributable* failures (`ok == false` for faults and task
    /// failures, [`Error::is_transient`]); deadline expiry and admission
    /// shedding say nothing about replica health and must not be
    /// recorded. An up→down transition emits a
    /// [`TraceEventKind::ReplicaDown`] event on the device's trace sink.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range device index.
    pub fn record_outcome(&mut self, device: usize, ok: bool, at: Duration) {
        if ok {
            self.health.record_success(device);
        } else if self.health.record_failure(device) {
            let (_, failures) = self.health.totals(device);
            self.emit_on(device, at, TraceEventKind::ReplicaDown { device, failures });
        }
    }

    /// Submits the work described by a [`TaskSpec`] to one device's
    /// queue.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] for a bad device index, or
    /// [`Error::QueueFull`] when the device's backlog bound is hit.
    pub fn submit(&mut self, device: usize, spec: TaskSpec<'t>) -> Result<TaskHandle> {
        self.check_device(device)?;
        self.nodes[device].submit(spec)
    }

    /// Failover resubmission: submits `spec` on `device` (the caller
    /// picks the target replica, typically via
    /// [`DeviceCluster::route_replica`] with the already-tried devices
    /// excluded) and stamps a [`TraceEventKind::FailoverIssued`] event
    /// at virtual time `at` on the target's timeline. Resubmitting with
    /// the **original** arrival keeps stage accounting exact: the
    /// elapsed failover delay lands in the new attempt's queue-wait
    /// stage, so its stage sum still equals the end-to-end latency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] for a bad `device` or
    /// `from_device` index, or [`Error::QueueFull`] when the target's
    /// backlog bound is hit.
    pub fn submit_failover(
        &mut self,
        device: usize,
        spec: TaskSpec<'t>,
        from_device: usize,
        at: Duration,
    ) -> Result<TaskHandle> {
        self.check_device(from_device)?;
        let task = self.submit(device, spec)?;
        self.emit_on(
            device,
            at,
            TraceEventKind::FailoverIssued {
                handle: task.id(),
                from_device,
                to_device: device,
            },
        );
        Ok(task)
    }

    /// Gather: drains every device's queue to completion (each on its
    /// own virtual timeline) and returns each device's retired
    /// completions, in device order. Devices drain independently — one
    /// device's faults, sheds, or retries never block another's
    /// progress.
    ///
    /// # Errors
    ///
    /// Propagates queue-level invariant violations; per-task failures
    /// retire as error completions instead.
    pub fn drain(&mut self) -> Result<Vec<Vec<Completion>>> {
        self.nodes.iter_mut().map(DeviceQueue::drain).collect()
    }

    /// Emits a cluster-level event on one device's trace sink, if any.
    fn emit_on(&mut self, device: usize, at: Duration, kind: TraceEventKind) {
        let dev = self.nodes[device].device_mut();
        if let Some(sink) = dev.trace() {
            let ts = dev.config().clock.secs_to_cycles(at.as_secs_f64());
            sink.record(TraceEvent { ts, kind });
        }
    }

    fn check_device(&self, device: usize) -> Result<()> {
        if device >= self.nodes.len() {
            return Err(Error::InvalidArg(format!(
                "device {device} out of range (cluster has {})",
                self.nodes.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::queue::Job;
    use crate::timing::VecOp;
    use std::any::Any;

    fn devices(n: usize) -> Vec<ApuDevice> {
        (0..n)
            .map(|_| ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20)))
            .collect()
    }

    fn charge_job<'t>(tag: u32) -> TaskSpec<'t> {
        let job: Job<'t> = Box::new(move |dev: &mut ApuDevice| {
            let r = dev.run_task(|ctx| {
                ctx.core_mut().charge(VecOp::AddU16);
                Ok(())
            })?;
            Ok((r, Box::new(tag) as Box<dyn Any>))
        });
        TaskSpec::job(job)
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let cfg = QueueConfig::default;
        assert!(matches!(
            DeviceCluster::new(Vec::new(), cfg(), 1),
            Err(Error::InvalidArg(_))
        ));
        let mut devs = devices(3);
        assert!(matches!(
            DeviceCluster::new(devs.iter_mut().collect(), cfg(), 0),
            Err(Error::InvalidArg(_))
        ));
        assert!(matches!(
            DeviceCluster::new(devs.iter_mut().collect(), cfg(), 2),
            Err(Error::InvalidArg(_))
        ));
        assert!(DeviceCluster::new(devs.iter_mut().collect(), cfg(), 3).is_ok());
    }

    #[test]
    fn submissions_land_on_the_named_device_and_bad_indices_error() {
        let mut devs = devices(3);
        let mut cluster =
            DeviceCluster::new(devs.iter_mut().collect(), QueueConfig::default(), 1).unwrap();
        cluster.submit(2, charge_job(7)).unwrap();
        assert!(matches!(
            cluster.submit(3, charge_job(8)),
            Err(Error::InvalidArg(_))
        ));
        assert!(matches!(
            cluster.submit_failover(3, charge_job(9), 0, Duration::ZERO),
            Err(Error::InvalidArg(_))
        ));
        assert!(matches!(
            cluster.submit_failover(0, charge_job(9), 3, Duration::ZERO),
            Err(Error::InvalidArg(_))
        ));
        let drained = cluster.drain().unwrap();
        assert_eq!(drained.iter().map(Vec::len).collect::<Vec<_>>(), [0, 0, 1]);
        assert_eq!(drained[2][0].output::<u32>(), Some(&7));
        assert_eq!(cluster.stats(2).submitted, 1);
        assert_eq!(cluster.stats(0).submitted, 0);
    }

    #[test]
    fn devices_have_independent_timelines_and_faults() {
        let mut devs = devices(2);
        devs[1].inject_faults(crate::FaultPlan::new(3).fail_every_kth_task(1));
        let mut cluster =
            DeviceCluster::new(devs.iter_mut().collect(), QueueConfig::default(), 1).unwrap();
        for i in 0..4 {
            cluster.submit(i % 2, charge_job(i as u32)).unwrap();
        }
        cluster.drain().unwrap();
        let (clean, faulted) = (cluster.stats(0), cluster.stats(1));
        assert_eq!((clean.completed, clean.failed), (2, 0));
        assert_eq!((faulted.completed, faulted.failed), (0, 2));
        // The faulted device books no device time; the clean one does.
        assert!(clean.busy > Duration::ZERO);
        assert_eq!(faulted.busy, Duration::ZERO);
    }

    #[test]
    fn replica_routing_balances_excludes_and_routes_around_down_devices() {
        let mut devs = devices(4);
        let mut cluster =
            DeviceCluster::new(devs.iter_mut().collect(), QueueConfig::default(), 2).unwrap();
        // Shard 0 lives on devices {0, 1}, shard 1 on {2, 3}: an idle
        // cluster ties to the lowest index, backlog shifts the pick,
        // exclusion walks the set, exhaustion yields None.
        assert_eq!(cluster.route_replica(0, &[]), Some(0));
        assert_eq!(cluster.route_replica(1, &[]), Some(2));
        cluster.submit(0, charge_job(1)).unwrap();
        assert_eq!(cluster.route_replica(0, &[]), Some(1));
        assert_eq!(cluster.route_replica(0, &[1]), Some(0));
        assert_eq!(cluster.route_replica(0, &[0, 1]), None);
        assert_eq!(cluster.route_replica(2, &[]), None);
        assert_eq!(cluster.route_replica(usize::MAX, &[]), None);
        // A down replica is avoided while an up one remains…
        cluster.record_outcome(1, false, Duration::ZERO);
        assert!(!cluster.health().is_up(1));
        cluster.submit(0, charge_job(2)).unwrap();
        assert_eq!(
            cluster.route_replica(0, &[]),
            Some(0),
            "device 0 is busier but device 1 is down"
        );
        // …and the health filter drops when the whole set is down.
        cluster.record_outcome(0, false, Duration::ZERO);
        assert_eq!(cluster.route_replica(0, &[]), Some(1));
        // A success revives.
        cluster.record_outcome(1, true, Duration::ZERO);
        assert!(cluster.health().is_up(1));
        assert_eq!(cluster.health().down_transitions(), 2);
    }

    #[test]
    fn failover_resubmission_retires_on_the_surviving_replica() {
        let mut devs = devices(2);
        devs[0].inject_faults(crate::FaultPlan::new(3).fail_every_kth_task(1));
        let mut cluster =
            DeviceCluster::new(devs.iter_mut().collect(), QueueConfig::default(), 2).unwrap();
        let primary = cluster.route_replica(0, &[]).unwrap();
        assert_eq!(primary, 0);
        let h = cluster.submit(primary, charge_job(7)).unwrap();
        let drained = cluster.drain().unwrap();
        let failed = &drained[primary][0];
        assert!(!failed.is_ok());
        assert_eq!(failed.handle, h);
        let observed = failed.finished_at;
        cluster.record_outcome(primary, false, observed);
        let next = cluster.route_replica(0, &[primary]).unwrap();
        assert_eq!(next, 1);
        let h2 = cluster
            .submit_failover(next, charge_job(7), primary, observed)
            .unwrap();
        let drained = cluster.drain().unwrap();
        assert!(drained[primary].is_empty());
        let done = &drained[next][0];
        assert_eq!(done.handle, h2);
        assert!(done.is_ok());
        assert_eq!(done.output::<u32>(), Some(&7));
    }
}
