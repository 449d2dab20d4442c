//! Golden calibration tests: the simulator's per-op cycle costs must
//! keep matching the **measured** columns of the paper's Tables 4 and 5
//! (GSI Leda-E control-processor cycle counters), and the serving queue
//! must charge exactly those costs on its virtual timeline. This is the
//! regression guard for `timing.rs` against scheduler-layer changes.

use std::collections::HashMap;
use std::time::Duration;

use apu_sim::{
    ApuDevice, BatchKey, Cycles, DeviceCluster, DeviceQueue, DeviceTiming, Error, ExecMode,
    FaultPlan, Priority, QueueConfig, RetryPolicy, SimConfig, TaskSpec, TraceRecorder, VecOp, Vmr,
};

/// Table 5 measured column (cycles per 32K-element vector command).
const TABLE5_GOLDEN: &[(VecOp, u64)] = &[
    (VecOp::And16, 12),
    (VecOp::Or16, 8),
    (VecOp::Not16, 10),
    (VecOp::Xor16, 12),
    (VecOp::AShift, 15),
    (VecOp::AddU16, 12),
    (VecOp::AddS16, 13),
    (VecOp::SubU16, 15),
    (VecOp::SubS16, 16),
    (VecOp::Popcnt16, 23),
    (VecOp::MulU16, 115),
    (VecOp::MulS16, 201),
    (VecOp::MulF16, 77),
    (VecOp::DivU16, 664),
    (VecOp::DivS16, 739),
    (VecOp::Eq16, 13),
    (VecOp::GtU16, 13),
    (VecOp::LtU16, 13),
    (VecOp::LtGf16, 45),
    (VecOp::GeU16, 13),
    (VecOp::LeU16, 13),
    (VecOp::RecipU16, 735),
    (VecOp::ExpF16, 40295),
    (VecOp::SinFx, 761),
    (VecOp::CosFx, 761),
    (VecOp::CountM, 239),
];

/// Table 4 constant rows (movement primitives with fixed cost).
const TABLE4_GOLDEN: &[(VecOp, u64)] = &[
    (VecOp::LdSt, 29),
    (VecOp::Cpy, 29),
    (VecOp::CpySubgrp, 82),
    (VecOp::CpyImm, 13),
];

#[test]
fn table5_measured_column_is_golden() {
    let t = DeviceTiming::leda_e();
    for &(op, cycles) in TABLE5_GOLDEN {
        assert_eq!(
            t.op_cycles(op),
            cycles,
            "{} drifted from the paper's measured column",
            op.mnemonic()
        );
    }
}

#[test]
fn table4_constant_rows_are_golden() {
    let t = DeviceTiming::leda_e();
    for &(op, cycles) in TABLE4_GOLDEN {
        assert_eq!(
            t.op_cycles(op),
            cycles,
            "{} drifted from the paper's measured column",
            op.mnemonic()
        );
    }
    assert_eq!(t.pio_ld(1), Cycles::new(57));
    assert_eq!(t.pio_st(1), Cycles::new(61));
    assert_eq!(t.dma_l2_l1, 386);
    assert_eq!(t.dma_l4_l1, 22272);
    assert_eq!(t.dma_l1_l4, 22186);
}

#[test]
fn table4_formula_rows_are_golden() {
    let t = DeviceTiming::leda_e();
    // DMA: `0.19 d + 41164` (L4→L3) and `0.63 d + 548` (L4→L2).
    assert_eq!(t.dma_l4_l3(0), Cycles::from_f64(41164.0));
    assert_eq!(
        t.dma_l4_l3(1 << 20),
        Cycles::from_f64(0.19 * (1 << 20) as f64 + 41164.0)
    );
    assert_eq!(t.dma_l4_l2(0), Cycles::from_f64(548.0));
    assert_eq!(t.dma_l4_l2(65536), Cycles::from_f64(0.63 * 65536.0 + 548.0));
    // Indexed lookup: `7.15 σ + 629`.
    assert_eq!(t.lookup(1024), Cycles::from_f64(7.15 * 1024.0 + 629.0));
    // Element shift: `373 k`; intra-bank shift: `8 + k`.
    assert_eq!(t.shift_e(9), Cycles::new(373 * 9));
    assert_eq!(t.shift_bank(6), Cycles::new(8 + 6));
}

/// The queue's virtual timeline must charge the calibrated cost plus
/// the per-command issue overhead — no more, no less — for every op,
/// whether the job is dispatched alone or coalesced into a batch.
#[test]
fn queue_dispatch_charges_calibrated_op_costs() {
    let golden: Vec<(VecOp, u64)> = TABLE5_GOLDEN.iter().chain(TABLE4_GOLDEN).copied().collect();
    let t = DeviceTiming::leda_e();
    for (op, cycles) in golden {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        let h = q
            .submit(TaskSpec::kernel(move |ctx| {
                ctx.core_mut().charge(op);
                Ok(())
            }))
            .expect("submission");
        let done = q.wait(h).expect("dispatch");
        assert_eq!(
            done.report.cycles,
            Cycles::new(cycles + t.cmd_issue),
            "queued {} must cost its Table 4/5 cycles plus cmd_issue",
            op.mnemonic()
        );
        assert_eq!(done.report.stats.commands, 1);
    }
}

/// Batch coalescing must not distort per-op accounting: a batched
/// dispatch charging one op reports the same cycles as the same job
/// dispatched alone.
#[test]
fn batched_dispatch_charges_the_same_cycles_as_single() {
    let run = |max_batch: usize| -> (Cycles, Duration) {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default().with_max_batch(max_batch));
        for _ in 0..3 {
            q.submit(TaskSpec::batch(
                apu_sim::BatchKey::new(1),
                Box::new(()),
                Box::new(
                    |dev: &mut ApuDevice, payloads: Vec<Box<dyn std::any::Any>>| {
                        let report = dev.run_task(|ctx| {
                            ctx.core_mut().charge(VecOp::MulS16);
                            Ok(())
                        })?;
                        Ok((report, payloads.into_iter().map(Ok).collect()))
                    },
                ),
            ))
            .expect("submission");
        }
        let done = q.drain().expect("drain");
        (done[0].report.cycles, done[0].report.duration)
    };
    let (single_cycles, _) = run(1);
    let (batched_cycles, _) = run(3);
    assert_eq!(single_cycles, batched_cycles);
    let t = DeviceTiming::leda_e();
    assert_eq!(single_cycles, Cycles::new(t.mul_s16 + t.cmd_issue));
}

/// Cluster width for the determinism workload: the CI shard axis
/// (`APU_SIM_TEST_SHARDS`) when set, otherwise 3.
fn cluster_shards() -> usize {
    std::env::var("APU_SIM_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// Shard of each batch key `1..=5` of the cluster workload, per
/// cluster width 1..=8: a jump consistent hash of the key, fixed here so
/// the workload's placement never changes. Wider clusters use the
/// 8-wide row.
const KEY_SHARDS: [[usize; 5]; 8] = [
    [0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 1, 2, 2],
    [3, 0, 1, 3, 3],
    [3, 0, 4, 3, 3],
    [3, 0, 4, 3, 3],
    [3, 0, 4, 3, 3],
    [3, 0, 4, 7, 3],
];

/// A fixed mixed workload on a [`DeviceCluster`] — batchables pinned by
/// key ([`KEY_SHARDS`]), one high-priority job per shard, a fault plan
/// on one shard, bounded retries — with a [`TraceRecorder`] on every
/// device.
/// Returns per-shard full trace signatures, per-shard timestamp-free
/// kind signatures, and per-shard completion timelines (cycles and
/// queue timestamps).
type ClusterGolden = (
    Vec<String>,
    Vec<Vec<String>>,
    Vec<Vec<(Cycles, Duration, Duration, bool)>>,
);

fn run_cluster_workload(mode: ExecMode) -> ClusterGolden {
    let shards = cluster_shards();
    let mut devices: Vec<ApuDevice> = (0..shards)
        .map(|_| {
            ApuDevice::new(
                SimConfig::default()
                    .with_l4_bytes(1 << 20)
                    .with_exec_mode(mode),
            )
        })
        .collect();
    let recorders: Vec<_> = devices
        .iter_mut()
        .map(|dev| {
            let (sink, rec) = TraceRecorder::shared();
            dev.install_trace_sink(sink);
            rec
        })
        .collect();
    if shards > 1 {
        // One shard faults every third task; its siblings stay clean.
        devices[1].inject_faults(FaultPlan::new(9).fail_every_kth_task(3));
    }

    let cfg = QueueConfig::default()
        .with_max_batch(4)
        .with_max_batch_wait(Duration::from_micros(50))
        .with_retry(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        });
    let mut cluster =
        DeviceCluster::new(devices.iter_mut().collect(), cfg, 1).expect("cluster construction");

    let key_shards = KEY_SHARDS[shards.min(KEY_SHARDS.len()) - 1];
    for i in 0..12u64 {
        let key = i % 5 + 1;
        cluster
            .submit(
                key_shards[key as usize - 1],
                TaskSpec::batch(
                    BatchKey::new(key),
                    Box::new(i),
                    Box::new(
                        |dev: &mut ApuDevice, payloads: Vec<Box<dyn std::any::Any>>| {
                            let report = dev.run_task(|ctx| {
                                ctx.core_mut().charge(VecOp::MulS16);
                                Ok(())
                            })?;
                            Ok((report, payloads.into_iter().map(Ok).collect()))
                        },
                    ),
                )
                .at(Duration::from_micros(10 * i)),
            )
            .expect("submission");
    }
    for shard in 0..shards {
        let job = TaskSpec::job(Box::new(move |dev: &mut ApuDevice| {
            let r = dev.run_task(|ctx| {
                ctx.core_mut().charge(VecOp::AddU16);
                Ok(())
            })?;
            Ok((r, Box::new(shard) as Box<dyn std::any::Any>))
        }));
        cluster
            .submit(
                shard,
                job.priority(Priority::High).at(Duration::from_micros(5)),
            )
            .expect("submission");
    }
    let drained = cluster.drain().expect("drain");

    let signatures = recorders.iter().map(|r| r.borrow().signature()).collect();
    let kinds = recorders
        .iter()
        .map(|r| r.borrow().kind_signatures())
        .collect();
    let timelines = drained
        .iter()
        .map(|done| {
            done.iter()
                .map(|c| (c.report.cycles, c.started_at, c.finished_at, c.is_ok()))
                .collect()
        })
        .collect();
    (signatures, kinds, timelines)
}

/// Same seed + same shard count ⇒ byte-identical per-shard trace
/// signatures (timestamps included) and identical completion timelines:
/// the cluster layer — batching, per-shard faults, retries —
/// adds no nondeterminism on top of the simulator.
#[test]
fn cluster_trace_signatures_are_deterministic_per_shard() {
    let a = run_cluster_workload(ExecMode::Functional);
    let b = run_cluster_workload(ExecMode::Functional);
    assert!(
        a.0.iter().all(|s| !s.is_empty()),
        "every shard must record a timeline"
    );
    for (shard, (sa, sb)) in a.0.iter().zip(&b.0).enumerate() {
        assert_eq!(sa, sb, "shard {shard} trace signature diverged across runs");
    }
    assert_eq!(a.2, b.2, "completion timelines diverged across runs");
}

/// Functional and timing-only execution agree on cluster-level cycle
/// accounting: the workload charges fixed per-op costs, so per-shard
/// event streams (timestamp-free projection), per-completion cycles,
/// and queue timestamps must all be mode-independent.
#[test]
fn cluster_functional_and_timing_modes_agree_on_cycles() {
    let f = run_cluster_workload(ExecMode::Functional);
    let t = run_cluster_workload(ExecMode::TimingOnly);
    assert_eq!(f.1, t.1, "per-shard event kinds diverged across exec modes");
    assert_eq!(
        f.2, t.2,
        "per-completion cycle accounting diverged across exec modes"
    );
}

/// Replication factor for the replicated workload: the CI replica axis
/// (`APU_SIM_TEST_REPLICAS`) when set, otherwise 2.
fn cluster_replicas() -> usize {
    std::env::var("APU_SIM_TEST_REPLICAS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Per-job timeline row of the replicated workload:
/// `(job, device, cycles, started, finished, ok)`.
type ReplicatedGolden = (Vec<String>, Vec<Vec<String>>, ReplicaTimeline);
type ReplicaTimeline = Vec<(u64, usize, Cycles, Duration, Duration, bool)>;

/// A fixed replicated workload on a [`DeviceCluster`]:
/// `APU_SIM_TEST_SHARDS` shard groups × `APU_SIM_TEST_REPLICAS`
/// replicas (replica `r` of shard `s` is device `s * replicas + r`),
/// the first replica of shard 0
/// killed outright (every task faults), two jobs per shard routed to
/// the least-loaded healthy replica, and a manual
/// drain → [`DeviceCluster::record_outcome`] →
/// [`DeviceCluster::submit_failover`] loop re-issuing transient
/// failures on untried replicas. Returns per-device full trace
/// signatures, per-device timestamp-free kind signatures, and the
/// job timeline sorted by (job, device).
fn run_replicated_workload(mode: ExecMode) -> ReplicatedGolden {
    let shards = cluster_shards();
    let replicas = cluster_replicas();
    let n_devices = shards * replicas;
    let mut devices: Vec<ApuDevice> = (0..n_devices)
        .map(|_| {
            ApuDevice::new(
                SimConfig::default()
                    .with_l4_bytes(1 << 20)
                    .with_exec_mode(mode),
            )
        })
        .collect();
    let recorders: Vec<_> = devices
        .iter_mut()
        .map(|dev| {
            let (sink, rec) = TraceRecorder::shared();
            dev.install_trace_sink(sink);
            rec
        })
        .collect();
    devices[0].inject_faults(FaultPlan::new(9).fail_every_kth_task(1));

    let mut cluster = DeviceCluster::new(
        devices.iter_mut().collect(),
        QueueConfig::default(),
        replicas,
    )
    .expect("cluster construction");

    let charge = || {
        TaskSpec::kernel(|ctx| {
            ctx.core_mut().charge(VecOp::MulS16);
            Ok(())
        })
    };
    // (device, handle) → (job, shard, original arrival, replicas tried).
    type Booked = (u64, usize, Duration, Vec<usize>);
    let mut book: HashMap<(usize, apu_sim::TaskHandle), Booked> = HashMap::new();
    let mut job = 0u64;
    for s in 0..shards {
        for _ in 0..2 {
            let at = Duration::from_micros(10 * job);
            let device = cluster.route_replica(s, &[]).expect("a replica exists");
            let handle = cluster.submit(device, charge().at(at)).expect("submission");
            book.insert((device, handle), (job, s, at, vec![device]));
            job += 1;
        }
    }

    let mut timeline: ReplicaTimeline = Vec::new();
    loop {
        let drained = cluster.drain().expect("drain");
        if drained.iter().all(Vec::is_empty) {
            break;
        }
        let mut resubmits = Vec::new();
        let completions = drained
            .iter()
            .enumerate()
            .flat_map(|(device, done)| done.iter().map(move |c| (device, c)));
        for (device, c) in completions {
            let (job, shard, arrival, tried) = book
                .get(&(device, c.handle))
                .cloned()
                .expect("every completion was booked");
            cluster.record_outcome(device, c.is_ok(), c.finished_at);
            timeline.push((
                job,
                device,
                c.report.cycles,
                c.started_at,
                c.finished_at,
                c.is_ok(),
            ));
            if c.error().is_some_and(Error::is_transient) {
                resubmits.push((job, shard, arrival, tried, device, c.finished_at));
            }
        }
        for (job, shard, arrival, mut tried, from, observed) in resubmits {
            let Some(next) = cluster.route_replica(shard, &tried) else {
                continue; // every replica tried — the job fails for good
            };
            let handle = cluster
                .submit_failover(next, charge().at(arrival), from, observed)
                .expect("failover resubmission");
            tried.push(next);
            book.insert((next, handle), (job, shard, arrival, tried));
        }
    }
    timeline.sort_unstable_by_key(|&(job, device, ..)| (job, device));

    let signatures = recorders.iter().map(|r| r.borrow().signature()).collect();
    let kinds = recorders
        .iter()
        .map(|r| r.borrow().kind_signatures())
        .collect();
    (signatures, kinds, timeline)
}

/// The replicated workload is deterministic end to end: same shard and
/// replica counts ⇒ byte-identical per-device trace signatures and the
/// same job timeline, failovers included. With replication every job
/// retires successfully despite the dead replica; without it the dead
/// shard's jobs fail for good.
#[test]
fn replicated_cluster_failover_is_deterministic() {
    let a = run_replicated_workload(ExecMode::Functional);
    let b = run_replicated_workload(ExecMode::Functional);
    for (device, (sa, sb)) in a.0.iter().zip(&b.0).enumerate() {
        assert_eq!(
            sa, sb,
            "device {device} trace signature diverged across runs"
        );
    }
    assert_eq!(a.2, b.2, "job timelines diverged across runs");

    let shards = cluster_shards();
    let replicas = cluster_replicas();
    let jobs = 2 * shards;
    let ok = a.2.iter().filter(|row| row.5).count();
    if replicas >= 2 {
        assert_eq!(ok, jobs, "failover must recover every job");
        assert!(
            a.2.iter().any(|row| !row.5),
            "the dead replica must fail at least one attempt"
        );
        let all_kinds: Vec<String> = a.1.iter().flatten().cloned().collect();
        assert!(
            all_kinds.iter().any(|k| k.starts_with("replica-down")),
            "the dead replica must be marked down"
        );
        assert!(
            all_kinds.iter().any(|k| k.starts_with("failover")),
            "failover re-issues must be traced"
        );
    } else {
        assert_eq!(ok, jobs - 2, "shard 0's jobs have nowhere to go");
    }
}

/// Functional and timing-only execution agree on the replicated
/// workload: identical per-device event narratives and identical job
/// timelines — the failover path charges the same virtual time in both
/// modes.
#[test]
fn replicated_cluster_modes_agree_on_cycles() {
    let f = run_replicated_workload(ExecMode::Functional);
    let t = run_replicated_workload(ExecMode::TimingOnly);
    assert_eq!(
        f.1, t.1,
        "per-device event kinds diverged across exec modes"
    );
    assert_eq!(f.2, t.2, "job timelines diverged across exec modes");
}

/// Tracing is an observer, never a participant: a run with a sink
/// installed charges bit-identical golden cycles to an untraced run —
/// per-task reports, queue timestamps, and the stats block all match.
#[test]
fn tracing_adds_zero_virtual_time() {
    let run = |traced: bool| -> (String, Vec<(Cycles, Duration, Duration)>) {
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(4 << 20));
        let recorder = traced.then(|| {
            let (sink, recorder) = TraceRecorder::shared();
            dev.install_trace_sink(sink);
            recorder
        });
        // Async DMA under the queue: both instrumentation domains
        // (scheduler timeline and core cycle counter) are on the path.
        let n = dev.config().vr_len;
        let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
        for i in 0..4u64 {
            q.submit(
                TaskSpec::typed(move |dev: &mut ApuDevice| {
                    let h = dev.alloc_u16(2 * n)?;
                    let r = dev.run_task(|ctx| {
                        let t0 = ctx.dma_l4_to_l1_async(Vmr::new(0), h)?;
                        let t1 = ctx.dma_l4_to_l1_async(Vmr::new(1), h.offset_by(n * 2)?)?;
                        for _ in 0..50 {
                            ctx.core_mut().charge(VecOp::MulS16);
                        }
                        ctx.dma_wait(t0);
                        ctx.dma_wait(t1);
                        Ok(())
                    })?;
                    Ok((r, i))
                })
                .at(Duration::from_micros(30 * i)),
            )
            .expect("submission");
        }
        let done = q.drain().expect("drain");
        let timeline = done
            .iter()
            .map(|c| (c.report.cycles, c.started_at, c.finished_at))
            .collect();
        let stats = format!("{:?}", q.stats());
        if let Some(r) = &recorder {
            assert!(!r.borrow().is_empty(), "the recorder must observe events");
        }
        (stats, timeline)
    };
    assert_eq!(run(false), run(true));
}
