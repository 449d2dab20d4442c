//! Scheduler-invariant tests for the continuous-batching dispatcher.
//!
//! Continuous batching changes *when* work runs, not *what* runs or in
//! which order peers observe it. These tests pin the four invariants the
//! dispatcher must preserve no matter how batches form:
//!
//! 1. FIFO within a priority class survives coalescing;
//! 2. a batch never mixes priority classes or [`BatchKey`]s;
//! 3. batched retrieval results are bitwise-identical to the per-query
//!    synchronous path;
//! 4. admission control ([`QueueFull`]) triggers at exactly
//!    `max_pending`, independent of batch formation;
//!
//! plus the headline claim: at equal (saturating) offered load the
//! batched drain sustains strictly higher simulated QPS than the same
//! stream served one query per dispatch, with identical hits — and an
//! accounting property over random mixes of plain jobs and batch
//! members, which share one dispatch path.
//!
//! [`QueueFull`]: apu_sim::Error::QueueFull

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

use apu_sim::{
    AdmissionControl, ApuDevice, BatchKey, Completion, DeviceQueue, Error, FaultPlan, Priority,
    QueueConfig, RetryPolicy, SimConfig, TaskHandle, TaskSpec, TenantId, TraceEventKind,
    TraceRecorder, VecOp,
};
use hbm_sim::{DramSpec, MemorySystem};
use proptest::prelude::*;
use rag::{ApuRetriever, CorpusSpec, EmbeddingStore, RagVariant, ServeConfig, ShardedRagServer};

/// Submits a batchable no-output job tagged with `tag` so dispatch
/// composition is observable from the completion stream.
fn submit_echo(
    q: &mut DeviceQueue<'_, '_>,
    priority: Priority,
    arrival: Duration,
    key: u64,
    tag: u32,
) -> apu_sim::TaskHandle {
    q.submit(
        TaskSpec::batch(
            BatchKey::new(key),
            Box::new(tag),
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
        .priority(priority)
        .at(arrival),
    )
    .expect("submission under capacity")
}

fn device() -> ApuDevice {
    ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20))
}

/// Invariant 1: within one (priority, key) class, dispatch start times
/// and batch membership follow submission order — coalescing never lets
/// a later submission overtake an earlier one of its own class.
#[test]
fn fifo_within_class_survives_batching() {
    let mut dev = device();
    let mut q = DeviceQueue::new(
        &mut dev,
        QueueConfig::default()
            .with_max_batch(3)
            .with_max_batch_wait(Duration::from_millis(1)),
    );
    let handles: Vec<_> = (0..10)
        .map(|i| {
            submit_echo(
                &mut q,
                Priority::Normal,
                Duration::from_micros(10 * i),
                7,
                i as u32,
            )
        })
        .collect();
    let done = q.drain().expect("drain");

    // Reconstruct per-handle start times; submission order must imply
    // non-decreasing dispatch order.
    let started: HashMap<_, _> = done.iter().map(|c| (c.handle, c.started_at)).collect();
    for pair in handles.windows(2) {
        assert!(
            started[&pair[0]] <= started[&pair[1]],
            "job submitted earlier must not start later than its successor"
        );
    }
    // And within one dispatch, members are a contiguous run of the
    // submission order (no gaps: job i and i+2 batched while i+1 rides
    // a later dispatch would violate FIFO).
    let mut by_dispatch: HashMap<u64, Vec<usize>> = HashMap::new();
    for c in &done {
        let idx = handles.iter().position(|&h| h == c.handle).unwrap();
        by_dispatch
            .entry(c.dispatch.expect("dispatched"))
            .or_default()
            .push(idx);
    }
    for (dispatch, mut members) in by_dispatch {
        members.sort_unstable();
        for pair in members.windows(2) {
            assert_eq!(
                pair[1],
                pair[0] + 1,
                "dispatch {dispatch} skipped a submission: members {members:?}"
            );
        }
    }
}

/// Invariant 2: grouping completions by dispatch id, every group has a
/// single priority and a single batch key — the dispatcher never forms
/// mixed batches even when compatible-looking work is interleaved.
#[test]
fn batches_never_mix_priorities_or_keys() {
    let mut dev = device();
    let mut q = DeviceQueue::new(
        &mut dev,
        QueueConfig::default()
            .with_max_batch(8)
            .with_max_batch_wait(Duration::from_millis(5)),
    );
    // Interleave two keys and three priorities, all arriving inside one
    // batch window so the dispatcher is maximally tempted to merge.
    for i in 0..24u64 {
        let priority = match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        submit_echo(
            &mut q,
            priority,
            Duration::from_micros(i),
            1 + (i % 2),
            i as u32,
        );
    }
    let done = q.drain().expect("drain");
    assert_eq!(done.len(), 24);

    let mut groups: HashMap<u64, Vec<&Completion>> = HashMap::new();
    for c in &done {
        groups
            .entry(c.dispatch.expect("dispatched"))
            .or_default()
            .push(c);
    }
    assert!(
        groups.len() > 3,
        "expected several distinct dispatches, got {}",
        groups.len()
    );
    for (dispatch, members) in groups {
        let p0 = members[0].priority;
        let k0 = members[0].batch_key;
        assert!(k0.is_some(), "batchable members carry their key");
        for m in &members {
            assert_eq!(m.priority, p0, "dispatch {dispatch} mixed priorities");
            assert_eq!(m.batch_key, k0, "dispatch {dispatch} mixed batch keys");
        }
        assert_eq!(members.len(), members[0].batch_size);
    }
}

/// Invariant 3: every hit list coming out of the batched server is
/// bitwise-identical to a fresh per-query retrieval on a fresh device —
/// batching is a scheduling optimization, not a numerical one.
#[test]
fn batched_hits_are_bitwise_identical_to_per_query_retrieval() {
    let store = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 8_192,
        },
        11,
    );
    let queries: Vec<Vec<i16>> = (0..9).map(|i| store.query(300 + i)).collect();

    let sim = SimConfig::default().with_l4_bytes(8 << 20);
    let mut server = ShardedRagServer::new(&store, 1, sim, ServeConfig::default()).unwrap();
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(20 * i as u64), q.clone())
            .unwrap();
    }
    let report = server.drain().unwrap();
    assert_eq!(report.completions.len(), queries.len());
    assert!(
        report.completions.iter().any(|c| c.batch_size > 1),
        "the stream must actually exercise coalescing"
    );

    let retriever = ApuRetriever::new(RagVariant::AllOpts);
    for done in &report.completions {
        let mut dev2 = ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20));
        let mut hbm2 = MemorySystem::new(DramSpec::hbm2e_16gb());
        let (hits, _, _) = retriever
            .retrieve(
                &mut dev2,
                &mut hbm2,
                &store,
                &queries[done.ticket.id() as usize],
                5,
            )
            .unwrap();
        assert_eq!(
            done.hits().expect("served"),
            hits,
            "query {} diverged from the synchronous path",
            done.ticket.id()
        );
    }
}

/// Invariant 4: admission control counts *pending submissions*, so
/// `QueueFull` fires at exactly `max_pending` no matter how many
/// dispatches the backlog would later coalesce into.
#[test]
fn queue_full_fires_at_exactly_max_pending() {
    let mut dev = device();
    let mut q = DeviceQueue::new(
        &mut dev,
        QueueConfig::default()
            .with_max_pending(4)
            .with_max_batch(8)
            .with_max_batch_wait(Duration::from_millis(1)),
    );
    for i in 0..4 {
        submit_echo(&mut q, Priority::Normal, Duration::ZERO, 1, i);
    }
    // All four pending jobs would fold into ONE dispatch, but admission
    // is by submission count: the fifth submit must be rejected.
    let err = q
        .submit(TaskSpec::batch(
            BatchKey::new(1),
            Box::new(4u32),
            Box::new(
                |dev: &mut ApuDevice, payloads: Vec<Box<dyn std::any::Any>>| {
                    let report = dev.run_task(|_| Ok(()))?;
                    Ok((report, payloads.into_iter().map(Ok).collect()))
                },
            ),
        ))
        .expect_err("fifth submission must be rejected");
    match err {
        Error::QueueFull { pending, capacity } => {
            assert_eq!((pending, capacity), (4, 4));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let done = q.drain().expect("drain");
    assert_eq!(done.len(), 4);
    assert_eq!(
        done[0].batch_size, 4,
        "backlog still coalesces after reject"
    );
}

/// The acceptance bar: at a saturating offered load, the batched drain
/// sustains strictly higher simulated QPS than the unbatched drain of
/// the very same stream, and both produce identical hits per query.
#[test]
fn batched_drain_beats_unbatched_at_equal_offered_load() {
    let store = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 16_384,
        },
        42,
    );
    // Saturating: arrivals far faster than per-query service, and more
    // queries than cores × MAX_BATCH can absorb in one wave.
    let queries: Vec<Vec<i16>> = (0..48).map(|i| store.query(i)).collect();
    let serve = |max_batch: usize| {
        let cfg = ServeConfig {
            max_batch,
            ..ServeConfig::default()
        };
        let sim = SimConfig::default().with_l4_bytes(16 << 20);
        let mut server = ShardedRagServer::new(&store, 1, sim, cfg).unwrap();
        for (i, q) in queries.iter().enumerate() {
            server
                .submit(Duration::from_micros(50 * i as u64), q.clone())
                .unwrap();
        }
        server.drain().unwrap()
    };

    let batched = serve(rag::MAX_BATCH);
    let unbatched = serve(1);

    assert_eq!(batched.completions.len(), queries.len());
    assert_eq!(unbatched.completions.len(), queries.len());

    // Identical hits, query by query.
    let by_ticket = |r: &rag::ServeReport| -> HashMap<u64, Vec<rag::Hit>> {
        r.completions
            .iter()
            .map(|c| (c.ticket.id(), c.hits().expect("served").to_vec()))
            .collect()
    };
    assert_eq!(by_ticket(&batched), by_ticket(&unbatched));

    // Fewer device dispatches, strictly higher sustained throughput.
    assert!(batched.queue.dispatches < unbatched.queue.dispatches);
    assert!(unbatched.completions.iter().all(|c| c.batch_size == 1));
    assert!(
        batched.throughput_qps() > unbatched.throughput_qps(),
        "batched {:.0} QPS must beat unbatched {:.0} QPS",
        batched.throughput_qps(),
        unbatched.throughput_qps()
    );
}

/// One generated submission: `(kind, priority, arrival_us, weight,
/// ttl_us, job_fails)`. Kind 0 is a plain job (no batch key); kinds 1–3
/// are batch members keyed by their kind. A zero TTL means none.
type GenTask = (u8, u8, u64, u64, u64, bool);

/// Submits one generated task, returning its handle, key, and weight on
/// admission.
fn submit_generated(
    q: &mut DeviceQueue<'_, '_>,
    i: usize,
    &(kind, prio, at, weight, ttl_us, fails): &GenTask,
) -> apu_sim::Result<(TaskHandle, Option<BatchKey>, u64)> {
    let key = (kind > 0).then(|| BatchKey::new(u64::from(kind)));
    let mut spec = match key {
        None => TaskSpec::job(Box::new(move |dev: &mut ApuDevice| {
            let r = dev.run_task(|ctx| {
                ctx.core_mut().charge(VecOp::AddU16);
                Ok(())
            })?;
            if fails {
                return Err(Error::TaskFailed("generated job failure".into()));
            }
            Ok((r, Box::new(i) as Box<dyn Any>))
        })),
        Some(key) => TaskSpec::batch(
            key,
            Box::new(i),
            Box::new(|dev: &mut ApuDevice, payloads: Vec<Box<dyn Any>>| {
                let report = dev.run_task(|ctx| {
                    ctx.core_mut().charge(VecOp::MulS16);
                    Ok(())
                })?;
                Ok((report, payloads.into_iter().map(Ok).collect()))
            }),
        ),
    };
    let priority = [Priority::High, Priority::Normal, Priority::Low][usize::from(prio)];
    spec = spec
        .priority(priority)
        .tenant(TenantId::new(i as u64 % 3))
        .at(Duration::from_micros(at))
        .weight(weight);
    if ttl_us > 0 {
        spec = spec.ttl(Duration::from_micros(ttl_us));
    }
    q.submit(spec).map(|h| (h, key, weight))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plain jobs and batch members ride one dispatch path, so one
    /// accounting identity covers both: in weight units, everything
    /// admitted is completed, failed, expired, or shed — under random
    /// task faults, retry on or off, TTLs, admission watermarks, and a
    /// small `max_pending`. Every admitted handle retires exactly once,
    /// a rejected submission never retires, and an unkeyed task retires
    /// alone with no batch key and never joins a `BatchFormed`.
    #[test]
    fn every_admitted_weight_unit_is_accounted_for(
        tasks in proptest::collection::vec(
            (0u8..4, 0u8..3, 0u64..400, 1u64..4, 0u64..600, any::<bool>()),
            1..24,
        ),
        (fault_pct, retry, max_pending, max_batch) in
            (0u32..60, any::<bool>(), 2usize..12, 1usize..5),
        (admit_low, admit_span, seed) in (0usize..8, 0usize..6, 0u64..1_000),
    ) {
        let mut dev = device();
        if fault_pct > 0 {
            dev.inject_faults(FaultPlan::new(seed).fail_task_rate(f64::from(fault_pct) / 100.0));
        }
        let (sink, recorder) = TraceRecorder::shared();
        dev.install_trace_sink(sink);
        let mut cfg = QueueConfig::default()
            .with_max_pending(max_pending)
            .with_max_batch(max_batch)
            .with_max_batch_wait(Duration::from_micros(50));
        if retry {
            cfg = cfg.with_retry(RetryPolicy::default());
        }
        if admit_low > 0 {
            cfg = cfg.with_admission(AdmissionControl::new(admit_low, admit_low + admit_span));
        }
        let mut q = DeviceQueue::new(&mut dev, cfg);

        let mut admitted: HashMap<TaskHandle, (Option<BatchKey>, u64)> = HashMap::new();
        let mut rejected = 0u64;
        for (i, task) in tasks.iter().enumerate() {
            match submit_generated(&mut q, i, task) {
                Ok((h, key, weight)) => {
                    admitted.insert(h, (key, weight));
                }
                Err(Error::QueueFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected submission error: {e}"),
            }
            // Dispatch now and then, so later submissions find room.
            if i % 5 == 4 {
                q.step().expect("step");
            }
        }
        let done = q.drain().expect("drain");
        let stats = q.stats().clone();
        drop(q);
        dev.clear_trace_sink();

        let mut retired = HashSet::new();
        for c in &done {
            let Some(&(key, weight)) = admitted.get(&c.handle) else {
                panic!("handle {} retired but was never admitted", c.handle.id());
            };
            prop_assert!(retired.insert(c.handle), "handle {} retired twice", c.handle.id());
            prop_assert_eq!(c.batch_key, key);
            if key.is_none() {
                prop_assert_eq!(c.batch_size, weight as usize, "an unkeyed task rides alone");
            }
        }
        prop_assert_eq!(retired.len(), admitted.len(), "every admitted handle retires");
        prop_assert_eq!(stats.rejected, rejected);
        prop_assert_eq!(stats.submitted, admitted.len() as u64);

        let admitted_weight: u64 = admitted.values().map(|&(_, w)| w).sum();
        prop_assert_eq!(
            admitted_weight,
            stats.completed + stats.failed + stats.expired + stats.shed_admission
        );
        let ok_weight: u64 = done
            .iter()
            .filter(|c| c.is_ok())
            .map(|c| admitted[&c.handle].1)
            .sum();
        prop_assert_eq!(ok_weight, stats.completed);
        for t in stats.per_tenant.values() {
            prop_assert_eq!(t.submitted, t.completed + t.failed + t.expired + t.shed);
        }

        let unkeyed: HashSet<u64> = admitted
            .iter()
            .filter(|(_, (key, _))| key.is_none())
            .map(|(h, _)| h.id())
            .collect();
        for e in recorder.borrow().events() {
            if let TraceEventKind::BatchFormed { members, .. } = &e.kind {
                prop_assert!(
                    members.iter().all(|m| !unkeyed.contains(m)),
                    "an unkeyed task joined a batch"
                );
            }
        }
    }
}
