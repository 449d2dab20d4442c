//! Failure-containment tests for the DeviceQueue serving engine.
//!
//! The contract under test: a fault — injected, kernel-raised, or a
//! missed deadline — is contained to the task it hits. Every submitted
//! handle retires with a completion (success or error), siblings of a
//! poisoned batch member serve hits bitwise-identical to a fault-free
//! run, deadline-expired tasks never touch the device, and retries are
//! bounded and deterministic.
//!
//! The suite runs in both simulator modes via `APU_SIM_TEST_MODE` (see
//! the CI matrix); data-equality assertions are gated on functional
//! mode, scheduling/accounting assertions hold in both.

use std::collections::HashMap;
use std::time::Duration;

use apu_sim::{
    ApuDevice, DeviceQueue, Error, ExecMode, FaultPlan, QueueConfig, RetryPolicy, SimConfig,
    TaskSpec, VecOp,
};
use rag::{CorpusSpec, EmbeddingStore, Hit, ServeConfig, ServeReport, ShardedRagServer};

fn mode() -> ExecMode {
    ExecMode::from_env(ExecMode::Functional)
}

fn sim() -> SimConfig {
    SimConfig::default()
        .with_exec_mode(mode())
        .with_l4_bytes(8 << 20)
}

fn device() -> ApuDevice {
    ApuDevice::new(sim())
}

/// A one-device server over the whole corpus.
fn single(st: &EmbeddingStore, cfg: ServeConfig) -> ShardedRagServer {
    ShardedRagServer::new(st, 1, sim(), cfg).expect("server construction")
}

fn store(chunks: usize) -> EmbeddingStore {
    EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks,
        },
        77,
    )
}

/// Serves `queries` through a fresh device; `fault_rate > 0` arms a
/// deterministic fault plan with bounded retries.
fn serve(st: &EmbeddingStore, queries: &[Vec<i16>], fault_rate: f64) -> ServeReport {
    let cfg = ServeConfig {
        queue: QueueConfig {
            retry: (fault_rate > 0.0).then(RetryPolicy::default),
            ..QueueConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = single(st, cfg);
    if fault_rate > 0.0 {
        server.inject_faults(0, FaultPlan::new(42).fail_task_rate(fault_rate));
    }
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(20 * i as u64), q.clone())
            .expect("submission under capacity");
    }
    server.drain().expect("drain never aborts on task failure")
}

fn hits_by_ticket(r: &ServeReport) -> HashMap<u64, Vec<Hit>> {
    r.completions
        .iter()
        .filter_map(|c| c.hits().map(|h| (c.ticket.id(), h.to_vec())))
        .collect()
}

/// One failing job in a stream of ten leaves the other nine untouched:
/// the drain does not abort, the failed handle retires with its error,
/// and accounting splits cleanly into completed vs failed.
#[test]
fn single_task_failure_is_isolated() {
    let mut dev = device();
    let mut q = DeviceQueue::new(&mut dev, QueueConfig::default());
    let mut handles = Vec::new();
    for i in 0..10u32 {
        let h = if i == 4 {
            q.submit(TaskSpec::job(Box::new(|_dev: &mut ApuDevice| {
                Err(Error::TaskFailed("injected kernel failure".into()))
            })))
        } else {
            q.submit(TaskSpec::typed(move |dev: &mut ApuDevice| {
                let r = dev.run_task(|ctx| {
                    ctx.core_mut().charge(VecOp::AddU16);
                    Ok(())
                })?;
                Ok((r, i))
            }))
        }
        .expect("submission");
        handles.push(h);
    }
    let done = q.drain().expect("drain must not abort on the failure");
    assert_eq!(done.len(), 10, "no dropped handles");
    for (i, &h) in handles.iter().enumerate() {
        let c = done.iter().find(|c| c.handle == h).expect("handle retired");
        if i == 4 {
            assert!(matches!(c.error(), Some(Error::TaskFailed(_))));
        } else {
            assert_eq!(c.output::<u32>(), Some(&(i as u32)));
        }
    }
    assert_eq!(q.stats().completed, 9);
    assert_eq!(q.stats().failed, 1);
}

/// A 10% injected task-failure rate: every query retires (served or
/// failed, never dropped), and each served query's hits are bitwise
/// identical to the fault-free run of the same stream.
#[test]
fn injected_faults_leave_survivors_bitwise_identical() {
    let st = store(8_192);
    let queries: Vec<Vec<i16>> = (0..24).map(|i| st.query(500 + i)).collect();
    let clean = serve(&st, &queries, 0.0);
    let faulted = serve(&st, &queries, 0.1);

    assert_eq!(clean.completions.len(), queries.len());
    assert_eq!(
        faulted.completions.len(),
        queries.len(),
        "every query must retire, served or failed"
    );
    assert_eq!(faulted.served() + faulted.failed(), queries.len());
    for c in &faulted.completions {
        if let Some(e) = c.error() {
            assert!(
                matches!(e, Error::FaultInjected(_)),
                "unexpected failure cause: {e}"
            );
        }
    }
    if mode().is_functional() {
        let clean_hits = hits_by_ticket(&clean);
        for (ticket, hits) in hits_by_ticket(&faulted) {
            assert_eq!(
                &hits, &clean_hits[&ticket],
                "query {ticket} diverged from the fault-free run"
            );
        }
    }
}

/// A poisoned batch member fails alone: the fault plan targets single
/// members of coalesced dispatches, and their siblings still serve hits
/// identical to an unbatched, fault-free reference.
#[test]
fn poisoned_batch_member_fails_alone() {
    let st = store(8_192);
    let queries: Vec<Vec<i16>> = (0..8).map(|i| st.query(900 + i)).collect();

    // Every second task check fails: with all eight queries arriving
    // together, coalesced dispatches lose alternating members while the
    // rest of the batch proceeds.
    let mut server = single(&st, ServeConfig::default());
    server.inject_faults(0, FaultPlan::new(1).fail_every_kth_task(2));
    for q in &queries {
        server.submit(Duration::ZERO, q.clone()).expect("submit");
    }
    let faulted = server.drain().expect("drain");

    assert_eq!(faulted.completions.len(), queries.len());
    assert_eq!(faulted.failed(), queries.len() / 2);
    assert_eq!(faulted.served(), queries.len() / 2);
    for c in faulted.completions.iter().filter(|c| !c.is_ok()) {
        assert!(matches!(c.error(), Some(Error::FaultInjected(_))));
    }
    // Siblings of poisoned members ride a *smaller* batch but produce
    // the same hits as the fault-free run.
    let clean = serve(&st, &queries, 0.0);
    if mode().is_functional() {
        let clean_hits = hits_by_ticket(&clean);
        for (ticket, hits) in hits_by_ticket(&faulted) {
            assert_eq!(
                &hits, &clean_hits[&ticket],
                "sibling {ticket} diverged after a batch mate was poisoned"
            );
        }
    }
}

/// Deadline-expired queries are shed without ever dispatching: under an
/// overload the TTL'd stream reports `DeadlineExceeded` errors, the
/// survivors serve normally, and shed queries consume no device time.
#[test]
fn deadline_expired_queries_never_dispatch() {
    let st = store(8_192);
    // 32 queries arriving back-to-back against a multi-ms per-dispatch
    // service time: the backlog cannot clear within a 3 ms TTL.
    let queries: Vec<Vec<i16>> = (0..32).map(|i| st.query(i)).collect();
    let cfg = ServeConfig {
        max_batch: 1, // no coalescing: the backlog drains slowly
        ttl: Some(Duration::from_millis(3)),
        ..ServeConfig::default()
    };
    let mut server = single(&st, cfg);
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(i as u64), q.clone())
            .expect("submit");
    }
    let report = server.drain().expect("drain");

    assert_eq!(report.completions.len(), queries.len());
    assert!(
        report.queue.expired > 0,
        "the overloaded stream must shed work"
    );
    assert!(report.served() > 0, "early arrivals still serve");
    assert_eq!(report.failed() as u64, report.queue.expired);
    for c in report.completions.iter().filter(|c| !c.is_ok()) {
        assert!(matches!(c.error(), Some(Error::DeadlineExceeded { .. })));
        assert_eq!(
            c.started_at, c.finished_at,
            "shed queries consume no device time"
        );
    }
    // Shed queries do not inflate dispatch counters.
    assert_eq!(report.queue.dispatches as usize, report.served());
}

/// Runs `queries` through a three-shard cluster; `fault_shard` arms a
/// fail-every-dispatch plan on that one shard.
fn serve_sharded(
    st: &EmbeddingStore,
    queries: &[Vec<i16>],
    fault_shard: Option<usize>,
) -> ServeReport {
    let mut server =
        ShardedRagServer::new(st, 3, sim(), ServeConfig::default()).expect("cluster construction");
    if let Some(shard) = fault_shard {
        server.inject_faults(shard, FaultPlan::new(7).fail_every_kth_task(1));
    }
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(20 * i as u64), q.clone())
            .expect("submission under capacity");
    }
    server.drain().expect("drain never aborts on shard failure")
}

/// A fully faulted shard in a three-shard cluster is contained to that
/// shard: every query still serves (degraded, never failed), the healthy
/// shards' completions are bitwise identical to the fault-free run, and
/// the cluster-level accounting balances — queries split cleanly into
/// served vs failed, shard-task counters into completed vs failed.
#[test]
fn faulted_shard_degrades_queries_and_leaves_other_shards_bitwise_identical() {
    let st = store(9_000);
    let queries: Vec<Vec<i16>> = (0..10).map(|i| st.query(300 + i)).collect();
    let clean = serve_sharded(&st, &queries, None);
    let faulted = serve_sharded(&st, &queries, Some(1));

    // Query-level accounting balances: everything retires, nothing
    // fails — losing one of three shards degrades, it does not fail.
    assert_eq!(faulted.completions.len(), queries.len());
    assert_eq!(faulted.served() + faulted.failed(), queries.len());
    assert_eq!(faulted.served(), queries.len());
    assert_eq!(faulted.failed(), 0);
    assert_eq!(faulted.degraded(), queries.len());
    for c in &faulted.completions {
        assert_eq!((c.shards_ok, c.shards_total), (2, 3));
        assert!(c.is_degraded(), "query {} must be flagged", c.ticket.id());
    }

    // Shard-task accounting: only shard 1 fails, and exactly once per
    // query; the cluster aggregate is the sum of the shard queues.
    assert_eq!(faulted.shards[1].failed as usize, queries.len());
    assert_eq!(faulted.shards[0].failed + faulted.shards[2].failed, 0);
    assert_eq!(faulted.shards[0].completed as usize, queries.len());
    assert_eq!(faulted.shards[2].completed as usize, queries.len());
    assert_eq!(
        faulted.queue.completed + faulted.queue.failed,
        faulted.shards.iter().map(|s| s.completed + s.failed).sum()
    );

    // The healthy shards never see the fault: their queue counters and
    // their hits match the fault-free run exactly.
    for shard in [0usize, 2] {
        assert_eq!(
            faulted.shards[shard].completed, clean.shards[shard].completed,
            "shard {shard} accounting diverged"
        );
    }
    if mode().is_functional() {
        // Degraded hits are exact over the healthy shards: re-rank the
        // fault-free (full-corpus) hits without shard 1's chunk range
        // and the result must match bitwise.
        let shard1 = st.shards(3)[1].range();
        let clean_hits = hits_by_ticket(&clean);
        for c in &faulted.completions {
            let hits = c.hits().expect("served");
            assert!(
                hits.iter().all(|h| !shard1.contains(&h.chunk)),
                "query {} leaked hits from the faulted shard",
                c.ticket.id()
            );
            // Full-corpus hits that already avoid shard 1 must survive
            // unchanged at the head of the degraded ranking.
            let expected_head: Vec<Hit> = clean_hits[&c.ticket.id()]
                .iter()
                .filter(|h| !shard1.contains(&h.chunk))
                .copied()
                .collect();
            assert_eq!(
                &hits[..expected_head.len()],
                &expected_head[..],
                "query {} reordered surviving hits",
                c.ticket.id()
            );
        }
    }
}

/// Retries are bounded by the policy and fully deterministic: the same
/// seed yields the same per-query attempt counts, outcomes, and retry
/// totals on every run.
#[test]
fn retries_are_bounded_and_deterministic() {
    let st = store(4_096);
    let queries: Vec<Vec<i16>> = (0..12).map(|i| st.query(i)).collect();
    let outcomes = |r: &ServeReport| -> Vec<(u64, bool, u32)> {
        let mut v: Vec<_> = r
            .completions
            .iter()
            .map(|c| (c.ticket.id(), c.is_ok(), c.attempts))
            .collect();
        v.sort_unstable();
        v
    };
    let a = serve(&st, &queries, 0.3);
    let b = serve(&st, &queries, 0.3);
    assert_eq!(
        outcomes(&a),
        outcomes(&b),
        "fault plan must be deterministic"
    );
    assert_eq!(a.queue.retries, b.queue.retries);
    let max_attempts = RetryPolicy::default().max_retries + 1;
    for (ticket, _, attempts) in outcomes(&a) {
        assert!(
            attempts <= max_attempts,
            "query {ticket} exceeded the retry budget: {attempts} attempts"
        );
    }
    assert!(
        a.queue.retries > 0,
        "a 30% fault rate must trigger at least one retry"
    );
}
