//! Multi-device scale-out: a cluster of independent simulated APUs.
//!
//! The paper serves every workload from **one** device and §5.3 shows
//! the corpus-scaling wall that follows (10 → 200 GB corpora stream
//! ever-longer embedding scans through one HBM interface). This module
//! is the scale-out answer sketched in the roadmap: [`DeviceCluster`]
//! owns N fully independent [`DeviceQueue`]s — each over its own
//! [`ApuDevice`] with its own virtual clock, fault plan, and trace sink
//! — and routes submissions across them with a pluggable
//! [`RoutePolicy`]:
//!
//! * [`RoutePolicy::RoundRobin`] — rotate through shards in submission
//!   order (stateless load spreading),
//! * [`RoutePolicy::LeastOutstanding`] — pick the shard with the
//!   smallest not-yet-dispatched backlog (join-the-shortest-queue),
//! * [`RoutePolicy::ConsistentHash`] — map each [`crate::BatchKey`] to a
//!   stable shard with a jump consistent hash, so same-key work always
//!   lands where its batch mates are and continuous batching keeps
//!   coalescing across the cluster.
//!
//! All submissions flow through [`DeviceCluster::submit`] with a
//! [`TaskSpec`]. Explicit placement ([`TaskSpec::on_shard`]) bypasses
//! the router: scatter-gather callers — e.g. `rag`'s sharded server,
//! which fans each query to **every** shard and merges per-shard top-k —
//! address shards directly and use [`DeviceCluster::scatter`] /
//! [`DeviceCluster::drain`] for the fan-out/fan-in.
//!
//! Shards never share state: a fault plan armed on one device, a retry
//! storm, or a TTL shed on one shard cannot perturb another shard's
//! virtual timeline. Cluster-level reporting is therefore pure
//! aggregation — [`ClusterReport`] keeps the per-shard
//! [`QueueStats`] and [`QueueStats::merge`] folds them into one block
//! for fleet-level metrics.
//!
//! # Replication
//!
//! A cluster can optionally carry a [`Placement`]
//! ([`DeviceCluster::set_placement`]) mapping *logical* shards onto
//! replica sets of device queues. Three primitives then implement
//! replicated reads on top of the plain submission API:
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
mod placement;
mod report;
mod routing;

pub use health::HealthTracker;
pub use placement::{key_shard, Placement};
pub use report::{ClusterHandle, ClusterReport, ShardDrain};
pub use routing::RoutePolicy;

use std::time::Duration;

use crate::device::ApuDevice;
use crate::error::Error;
use crate::queue::{BatchKey, Completion, DeviceQueue, Job, Priority, QueueConfig};
use crate::spec::TaskSpec;
use crate::stats::QueueStats;
use crate::trace::{TraceEvent, TraceEventKind};
use crate::Result;

use routing::{jump_hash, mix64};

/// A cluster of independent simulated APU devices behind one router.
///
/// See the [module documentation](self) for the scale-out model. Every
/// shard is a full [`DeviceQueue`] — priorities, admission control,
/// continuous batching, TTL shedding, bounded retry, fault containment,
/// and tracing all work per shard exactly as on a single device.
///
/// ```
/// use apu_sim::{
///     ApuDevice, DeviceCluster, QueueConfig, RoutePolicy, SimConfig, TaskSpec, VecOp,
/// };
///
/// # fn main() -> Result<(), apu_sim::Error> {
/// let mut devs: Vec<ApuDevice> = (0..2)
///     .map(|_| ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20)))
///     .collect();
/// let mut cluster = DeviceCluster::new(
///     devs.iter_mut().collect(),
///     QueueConfig::default(),
///     RoutePolicy::RoundRobin,
/// )?;
/// for _ in 0..4 {
///     cluster.submit(TaskSpec::typed(|dev: &mut ApuDevice| {
///         let r = dev.run_task(|ctx| {
///             ctx.core_mut().charge(VecOp::AddU16);
///             Ok(())
///         })?;
///         Ok((r, ()))
///     }))?;
/// }
/// let report = cluster.drain()?;
/// assert_eq!(report.len(), 4);
/// # Ok(())
/// # }
/// ```
pub struct DeviceCluster<'d, 't> {
    nodes: Vec<DeviceQueue<'d, 't>>,
    policy: RoutePolicy,
    rr_next: usize,
    placement: Option<Placement>,
    health: HealthTracker,
}

impl<'d, 't> DeviceCluster<'d, 't> {
    /// Opens a cluster over the given devices, one [`DeviceQueue`] per
    /// device, each configured with a clone of `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] for an empty device set.
    pub fn new(
        devices: Vec<&'d mut ApuDevice>,
        cfg: QueueConfig,
        policy: RoutePolicy,
    ) -> Result<Self> {
        if devices.is_empty() {
            return Err(Error::InvalidArg(
                "a device cluster needs at least one device".into(),
            ));
        }
        let nodes: Vec<DeviceQueue<'d, 't>> = devices
            .into_iter()
            .map(|dev| DeviceQueue::new(dev, cfg.clone()))
            .collect();
        let health = HealthTracker::new(nodes.len());
        Ok(DeviceCluster {
            nodes,
            policy,
            rr_next: 0,
            placement: None,
            health,
        })
    }

    /// Number of shards (devices) in the cluster.
    pub fn shard_count(&self) -> usize {
        self.nodes.len()
    }

    /// The routing policy in force.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// Replaces the routing policy (placement of *future* submissions).
    pub fn set_policy(&mut self, policy: RoutePolicy) {
        self.policy = policy;
    }

    /// One shard's queue.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard index.
    pub fn node(&self, shard: usize) -> &DeviceQueue<'d, 't> {
        &self.nodes[shard]
    }

    /// One shard's queue, mutably (e.g. to submit through shard-local
    /// APIs not mirrored here).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard index.
    pub fn node_mut(&mut self, shard: usize) -> &mut DeviceQueue<'d, 't> {
        &mut self.nodes[shard]
    }

    /// One shard's device (e.g. to arm a per-shard [`crate::FaultPlan`]
    /// or allocate buffers between dispatches).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard index.
    pub fn device_mut(&mut self, shard: usize) -> &mut ApuDevice {
        self.nodes[shard].device_mut()
    }

    /// Enables or disables timing fast-forward on every shard's device
    /// (see [`ApuDevice::run_task_memoized`]): replayed dispatches charge
    /// a memoized cycle total instead of re-walking their kernels.
    pub fn set_fast_forward(&mut self, on: bool) {
        for n in &mut self.nodes {
            n.set_fast_forward(on);
        }
    }

    /// Total not-yet-dispatched backlog across all shards.
    pub fn pending(&self) -> usize {
        self.nodes.iter().map(DeviceQueue::pending).sum()
    }

    /// One shard's queue counters.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard index.
    pub fn stats(&self, shard: usize) -> &QueueStats {
        self.nodes[shard].stats()
    }

    /// Cluster-wide counters: every shard's [`QueueStats`] folded with
    /// [`QueueStats::merge`].
    pub fn merged_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for n in &self.nodes {
            total.merge(n.stats());
        }
        total
    }

    /// Installs a replica placement mapping logical shards onto device
    /// queues (see the [module documentation](self), *Replication*).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] when the placement was built over a
    /// different device-pool size than this cluster.
    pub fn set_placement(&mut self, placement: Placement) -> Result<()> {
        if placement.devices() != self.nodes.len() {
            return Err(Error::InvalidArg(format!(
                "placement spans {} devices but the cluster has {}",
                placement.devices(),
                self.nodes.len()
            )));
        }
        self.placement = Some(placement);
        Ok(())
    }

    /// The installed replica placement, if any.
    pub fn placement(&self) -> Option<&Placement> {
        self.placement.as_ref()
    }

    /// The per-device health tracker.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The per-device health tracker, mutably (e.g. to
    /// [`HealthTracker::revive`] a repaired device).
    pub fn health_mut(&mut self) -> &mut HealthTracker {
        &mut self.health
    }

    /// Read load-balancing across a logical shard's replica set: picks
    /// the least-outstanding healthy replica of `shard` not listed in
    /// `exclude` (ties go to the lowest device index). When every
    /// non-excluded replica is marked down the health filter is dropped
    /// — a down replica might still answer, and guessing beats refusing.
    /// Returns `None` only when every replica is excluded (the failover
    /// path has exhausted the set) or `shard` is out of range.
    ///
    /// Without a [`Placement`] the replica set of shard `s` is just
    /// device `s`, so the method degenerates to the identity routing the
    /// unreplicated scatter-gather callers already use.
    pub fn route_replica(&self, shard: usize, exclude: &[usize]) -> Option<usize> {
        let identity = [shard];
        let group: &[usize] = match &self.placement {
            Some(p) => {
                if shard >= p.shards() {
                    return None;
                }
                p.replicas(shard)
            }
            None => {
                if shard >= self.nodes.len() {
                    return None;
                }
                &identity
            }
        };
        let pick = |healthy_only: bool| {
            group
                .iter()
                .copied()
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

    /// Failover resubmission: submits a *pinned* spec (the caller picks
    /// the target replica, typically via [`DeviceCluster::route_replica`]
    /// with the already-tried devices excluded) and stamps a
    /// [`TraceEventKind::FailoverIssued`] event at virtual time `at` on
    /// the target's timeline. Resubmitting with the **original** arrival
    /// keeps stage accounting exact: the elapsed failover delay lands in
    /// the new attempt's queue-wait stage, so its stage sum still equals
    /// the end-to-end latency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] for an unpinned spec or a bad
    /// device index, or [`Error::QueueFull`] when the target's backlog
    /// bound is hit.
    pub fn submit_failover(
        &mut self,
        spec: TaskSpec<'t>,
        from_device: usize,
        at: Duration,
    ) -> Result<ClusterHandle> {
        let Some(target) = spec.shard else {
            return Err(Error::InvalidArg(
                "a failover spec must be pinned to its target replica".into(),
            ));
        };
        self.check_shard(target)?;
        self.check_shard(from_device)?;
        let task = self.nodes[target].submit(spec)?;
        self.emit_on(
            target,
            at,
            TraceEventKind::FailoverIssued {
                handle: task.id(),
                from_device,
                to_device: target,
            },
        );
        Ok(ClusterHandle::new(target, task))
    }

    /// Emits a cluster-level event on one device's trace sink, if any.
    fn emit_on(&mut self, device: usize, at: Duration, kind: TraceEventKind) {
        let dev = self.nodes[device].device_mut();
        if let Some(sink) = dev.trace() {
            let ts = dev.config().clock.secs_to_cycles(at.as_secs_f64());
            sink.record(TraceEvent { ts, kind });
        }
    }

    /// Picks the shard for a router-placed submission.
    fn route(&mut self, key: Option<BatchKey>) -> usize {
        match self.policy {
            RoutePolicy::RoundRobin => self.round_robin(),
            RoutePolicy::LeastOutstanding => self
                .nodes
                .iter()
                .enumerate()
                .min_by_key(|(i, n)| (n.pending(), *i))
                .map(|(i, _)| i)
                .expect("cluster is never empty"),
            RoutePolicy::ConsistentHash => match key {
                Some(k) => jump_hash(mix64(k.get()), self.nodes.len()),
                None => self.round_robin(),
            },
        }
    }

    fn round_robin(&mut self) -> usize {
        let s = self.rr_next;
        self.rr_next = (self.rr_next + 1) % self.nodes.len();
        s
    }

    fn check_shard(&self, shard: usize) -> Result<()> {
        if shard >= self.nodes.len() {
            return Err(Error::InvalidArg(format!(
                "shard {shard} out of range (cluster has {})",
                self.nodes.len()
            )));
        }
        Ok(())
    }

    /// Submits the work described by a [`TaskSpec`] — the single entry
    /// point of the cluster submission API. A pinned spec
    /// ([`TaskSpec::on_shard`]) bypasses the router; otherwise the
    /// [`RoutePolicy`] places it (batchable specs route by their key
    /// under [`RoutePolicy::ConsistentHash`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] for a bad shard pin or zero weight,
    /// or [`Error::QueueFull`] when the chosen shard's backlog bound is
    /// hit.
    pub fn submit(&mut self, spec: TaskSpec<'t>) -> Result<ClusterHandle> {
        let shard = match spec.shard {
            Some(s) => {
                self.check_shard(s)?;
                s
            }
            None => self.route(spec.batch_key()),
        };
        let task = self.nodes[shard].submit(spec)?;
        Ok(ClusterHandle::new(shard, task))
    }

    /// Scatter: submits one job per shard (built by `make`, which
    /// receives the shard index), all arriving at the same instant —
    /// the fan-out half of scatter-gather execution. Returns one handle
    /// per shard, in shard order; gather with [`DeviceCluster::drain`]
    /// and [`ClusterReport::take`], or [`DeviceCluster::wait`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::QueueFull`] if any shard rejects its piece;
    /// pieces admitted before the rejection stay queued.
    pub fn scatter<F>(
        &mut self,
        priority: Priority,
        arrival: Duration,
        mut make: F,
    ) -> Result<Vec<ClusterHandle>>
    where
        F: FnMut(usize) -> Job<'t>,
    {
        (0..self.nodes.len())
            .map(|shard| {
                self.submit(
                    TaskSpec::job(make(shard))
                        .priority(priority)
                        .at(arrival)
                        .on_shard(shard),
                )
            })
            .collect()
    }

    /// Runs one shard's queue until the given task retires and returns
    /// its completion (other shards are untouched).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] for a bad shard index or an unknown
    /// handle on that shard.
    pub fn wait(&mut self, handle: ClusterHandle) -> Result<&Completion> {
        self.check_shard(handle.shard())?;
        self.nodes[handle.shard()].wait(handle.task())
    }

    /// Gather: drains every shard's queue to completion (each on its own
    /// virtual timeline) and returns the per-shard completions and
    /// counters. Shards drain independently — one shard's faults, sheds,
    /// or retries never block another's progress.
    ///
    /// # Errors
    ///
    /// Propagates queue-level invariant violations; per-task failures
    /// retire as error completions instead.
    pub fn drain(&mut self) -> Result<ClusterReport> {
        let mut shards = Vec::with_capacity(self.nodes.len());
        for (shard, node) in self.nodes.iter_mut().enumerate() {
            let completions = node.drain()?;
            shards.push(ShardDrain {
                shard,
                completions,
                stats: node.stats().clone(),
            });
        }
        Ok(ClusterReport { shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::queue::BatchRunner;
    use crate::timing::VecOp;
    use std::any::Any;

    fn devices(n: usize) -> Vec<ApuDevice> {
        (0..n)
            .map(|_| ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20)))
            .collect()
    }

    fn charge_job<'t>(tag: u32) -> Job<'t> {
        Box::new(move |dev: &mut ApuDevice| {
            let r = dev.run_task(|ctx| {
                ctx.core_mut().charge(VecOp::AddU16);
                Ok(())
            })?;
            Ok((r, Box::new(tag) as Box<dyn Any>))
        })
    }

    #[test]
    fn empty_cluster_is_rejected() {
        assert!(matches!(
            DeviceCluster::new(Vec::new(), QueueConfig::default(), RoutePolicy::RoundRobin),
            Err(Error::InvalidArg(_))
        ));
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let mut devs = devices(3);
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default(),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
        let handles: Vec<ClusterHandle> = (0..9)
            .map(|i| cluster.submit(TaskSpec::job(charge_job(i))).unwrap())
            .collect();
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.shard(), i % 3);
        }
        let report = cluster.drain().unwrap();
        assert_eq!(report.len(), 9);
        for s in &report.shards {
            assert_eq!(s.completions.len(), 3);
            assert_eq!(s.stats.completed, 3);
        }
    }

    #[test]
    fn least_outstanding_prefers_the_shortest_backlog() {
        let mut devs = devices(2);
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default(),
            RoutePolicy::LeastOutstanding,
        )
        .unwrap();
        // Pre-load shard 0 with explicit placements; the router must
        // then prefer shard 1 until the backlogs level out.
        for i in 0..4 {
            cluster
                .submit(TaskSpec::job(charge_job(i)).on_shard(0))
                .unwrap();
        }
        for i in 0..4 {
            let h = cluster.submit(TaskSpec::job(charge_job(100 + i))).unwrap();
            assert_eq!(h.shard(), 1, "submission {i} must go to the idle shard");
        }
        // Backlogs now equal: ties go to the lowest index.
        let h = cluster.submit(TaskSpec::job(charge_job(200))).unwrap();
        assert_eq!(h.shard(), 0);
    }

    #[test]
    fn consistent_hash_is_stable_and_covers_shards() {
        let mut devs = devices(4);
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default().with_max_batch(8),
            RoutePolicy::ConsistentHash,
        )
        .unwrap();
        let noop_runner = || -> BatchRunner<'static> {
            Box::new(|dev: &mut ApuDevice, payloads: Vec<Box<dyn Any>>| {
                let report = dev.run_task(|ctx| {
                    ctx.core_mut().charge(VecOp::AddU16);
                    Ok(())
                })?;
                Ok((report, payloads.into_iter().map(Ok).collect()))
            })
        };
        let mut seen = std::collections::HashSet::new();
        for key in 0..64u64 {
            let a = cluster
                .submit(TaskSpec::batch(
                    BatchKey::new(key),
                    Box::new(()),
                    noop_runner(),
                ))
                .unwrap();
            let b = cluster
                .submit(TaskSpec::batch(
                    BatchKey::new(key),
                    Box::new(()),
                    noop_runner(),
                ))
                .unwrap();
            assert_eq!(a.shard(), b.shard(), "key {key} must pin one shard");
            seen.insert(a.shard());
        }
        assert_eq!(seen.len(), 4, "64 keys must cover all 4 shards");
        // Same-key members coalesce on their shard.
        let report = cluster.drain().unwrap();
        let merged = report.merged_stats();
        assert_eq!(merged.submitted, 128);
        assert_eq!(merged.completed, 128);
        assert!(merged.max_batch_size >= 2, "pinned keys must batch");
    }

    #[test]
    fn pinned_specs_bypass_the_router_and_bad_pins_error() {
        let mut devs = devices(3);
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default(),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
        // Pins don't advance the round-robin cursor.
        let pinned = cluster
            .submit(TaskSpec::job(charge_job(1)).on_shard(2))
            .unwrap();
        assert_eq!(pinned.shard(), 2);
        let routed = cluster.submit(TaskSpec::job(charge_job(2))).unwrap();
        assert_eq!(routed.shard(), 0, "router starts at shard 0 regardless");
        assert!(matches!(
            cluster.submit(TaskSpec::job(charge_job(3)).on_shard(9)),
            Err(Error::InvalidArg(_))
        ));
    }

    #[test]
    fn scatter_places_one_piece_per_shard() {
        let mut devs = devices(3);
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default(),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
        let handles = cluster
            .scatter(Priority::Normal, Duration::ZERO, |shard| {
                charge_job(shard as u32)
            })
            .unwrap();
        assert_eq!(handles.len(), 3);
        let mut report = cluster.drain().unwrap();
        for (shard, h) in handles.into_iter().enumerate() {
            assert_eq!(h.shard(), shard);
            let c = report.take(h).expect("scattered piece retired");
            assert_eq!(c.output::<u32>(), Some(&(shard as u32)));
            assert!(report.take(h).is_none(), "take is consuming");
        }
    }

    #[test]
    fn shards_have_independent_timelines_and_faults() {
        let mut devs = devices(2);
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default(),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
        cluster
            .device_mut(1)
            .inject_faults(crate::FaultPlan::new(3).fail_every_kth_task(1));
        for i in 0..4 {
            cluster
                .submit(TaskSpec::job(charge_job(i as u32)).on_shard(i % 2))
                .unwrap();
        }
        let report = cluster.drain().unwrap();
        assert_eq!(report.shards[0].stats.completed, 2);
        assert_eq!(report.shards[0].stats.failed, 0);
        assert_eq!(report.shards[1].stats.completed, 0);
        assert_eq!(report.shards[1].stats.failed, 2);
        // The faulted shard books no device time; the clean one does.
        assert!(report.shards[0].stats.busy > Duration::ZERO);
        assert_eq!(report.shards[1].stats.busy, Duration::ZERO);
        let merged = report.merged_stats();
        assert_eq!(merged.completed, 2);
        assert_eq!(merged.failed, 2);
        assert_eq!(merged.cores, report.shards[0].stats.cores * 2);
    }

    #[test]
    fn replica_routing_balances_excludes_and_routes_around_down_devices() {
        let mut devs = devices(4);
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default(),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
        // Mismatched pool size is rejected; the right one installs.
        assert!(cluster
            .set_placement(Placement::new(2, 2, 3).unwrap())
            .is_err());
        cluster
            .set_placement(Placement::new(2, 2, 4).unwrap())
            .unwrap();
        // Shard 0 lives on devices {0, 1}: idle cluster ties to the
        // lowest index, backlog shifts the pick, exclusion walks the
        // set, exhaustion yields None.
        assert_eq!(cluster.route_replica(0, &[]), Some(0));
        cluster
            .submit(TaskSpec::job(charge_job(1)).on_shard(0))
            .unwrap();
        assert_eq!(cluster.route_replica(0, &[]), Some(1));
        assert_eq!(cluster.route_replica(0, &[1]), Some(0));
        assert_eq!(cluster.route_replica(0, &[0, 1]), None);
        assert_eq!(cluster.route_replica(9, &[]), None);
        // A down replica is avoided while an up one remains…
        cluster.record_outcome(1, false, Duration::ZERO);
        assert!(!cluster.health().is_up(1));
        cluster
            .submit(TaskSpec::job(charge_job(2)).on_shard(0))
            .unwrap();
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
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default(),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
        cluster
            .set_placement(Placement::new(1, 2, 2).unwrap())
            .unwrap();
        let primary = cluster.route_replica(0, &[]).unwrap();
        assert_eq!(primary, 0);
        let h = cluster
            .submit(TaskSpec::job(charge_job(7)).on_shard(primary))
            .unwrap();
        let report = cluster.drain().unwrap();
        let failed = &report.shards[0].completions[0];
        assert!(!failed.is_ok());
        assert_eq!(failed.handle, h.task());
        let observed = failed.finished_at;
        cluster.record_outcome(primary, false, observed);
        // Unpinned failover specs are rejected; a pinned one lands on
        // the surviving replica and succeeds.
        assert!(matches!(
            cluster.submit_failover(TaskSpec::job(charge_job(7)), primary, observed),
            Err(Error::InvalidArg(_))
        ));
        let next = cluster.route_replica(0, &[primary]).unwrap();
        assert_eq!(next, 1);
        let h2 = cluster
            .submit_failover(
                TaskSpec::job(charge_job(7)).on_shard(next),
                primary,
                observed,
            )
            .unwrap();
        assert_eq!(h2.shard(), 1);
        let done = cluster.wait(h2).unwrap();
        assert!(done.is_ok());
        assert_eq!(done.output::<u32>(), Some(&7));
    }

    #[test]
    fn wait_retires_one_shard_without_draining_others() {
        let mut devs = devices(2);
        let mut cluster = DeviceCluster::new(
            devs.iter_mut().collect(),
            QueueConfig::default(),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
        let a = cluster
            .submit(TaskSpec::job(charge_job(7)).on_shard(0))
            .unwrap();
        cluster
            .submit(TaskSpec::job(charge_job(8)).on_shard(1))
            .unwrap();
        let done = cluster.wait(a).unwrap();
        assert_eq!(done.output::<u32>(), Some(&7));
        assert_eq!(cluster.node(1).pending(), 1, "shard 1 still holds its job");
        let bad = ClusterHandle::new(9, a.task());
        assert!(cluster.wait(bad).is_err());
    }
}
