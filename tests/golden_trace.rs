//! Golden-trace determinism: the recorded device timeline is a pure
//! function of (seed, workload, [`ExecMode`]).
//!
//! Two guarantees are pinned:
//!
//! * **Byte-identical replays** — the same seed and workload produce a
//!   byte-identical [`TraceRecorder::signature`] (timestamps included)
//!   on every run within one mode.
//! * **Mode-independent structure** — `Functional` and `TimingOnly`
//!   runs of the same workload produce identical
//!   [`TraceEvent::kind_signature`] streams: the *narrative* (who was
//!   submitted, batched, dispatched, faulted, retried, retired, and in
//!   what order) never depends on whether payload data is simulated.
//!
//! The suite also runs under `APU_SIM_TEST_MODE` (CI matrix), but the
//! cross-mode assertions construct both modes explicitly so they hold
//! regardless of the ambient mode.

use std::time::Duration;

use apu_sim::{ExecMode, FaultPlan, QueueConfig, RetryPolicy, SimConfig, TraceRecorder};
use rag::{CorpusSpec, EmbeddingStore, ServeConfig, ShardedRagServer};

/// Runs the fixed golden workload — a 32-query open-loop stream with a
/// deterministic 40% task-fault plan, bounded retries, and a tight TTL
/// — in the given mode, returning the recorder.
fn record(mode: ExecMode) -> TraceRecorder {
    let st = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 4_096,
        },
        7,
    );
    let cfg = ServeConfig {
        ttl: Some(Duration::from_millis(2)),
        queue: QueueConfig {
            retry: Some(RetryPolicy::default()),
            ..QueueConfig::default()
        },
        ..ServeConfig::default()
    };
    let sim = SimConfig::default()
        .with_exec_mode(mode)
        .with_l4_bytes(8 << 20);
    let mut server = ShardedRagServer::new(&st, 1, sim, cfg).expect("server construction");
    server.inject_faults(0, FaultPlan::new(13).fail_task_rate(0.4));
    let (sink, recorder) = TraceRecorder::shared();
    server.device_mut(0).install_trace_sink(sink);
    for i in 0..32u64 {
        server
            .submit(Duration::from_micros(20 * i), st.query(i))
            .expect("submit");
    }
    server.drain().expect("drain");
    server.device_mut(0).clear_trace_sink();
    let recorder = std::rc::Rc::try_unwrap(recorder)
        .expect("device handle was cleared")
        .into_inner();
    assert!(!recorder.is_empty(), "the workload must emit events");
    recorder
}

/// Same seed, same workload, same mode → byte-identical trace,
/// timestamps included.
#[test]
fn replays_are_byte_identical() {
    let mode = ExecMode::from_env(ExecMode::Functional);
    let a = record(mode);
    let b = record(mode);
    assert_eq!(a.signature(), b.signature());
    assert_eq!(a.len(), b.len());
}

/// Functional and timing-only runs tell the same story: identical
/// timestamp-free event streams, event for event.
#[test]
fn functional_and_timing_traces_agree_modulo_timestamps() {
    let functional = record(ExecMode::Functional);
    let timing = record(ExecMode::TimingOnly);
    let f = functional.kind_signatures();
    let t = timing.kind_signatures();
    assert_eq!(
        f.len(),
        t.len(),
        "modes must emit the same number of events"
    );
    for (i, (fs, ts)) in f.iter().zip(&t).enumerate() {
        assert_eq!(fs, ts, "event {i} diverges between modes");
    }
}

/// The golden workload exercises every lifecycle event class, so the
/// byte-identity above is a meaningful pin, not a vacuous one.
#[test]
fn golden_workload_covers_the_event_vocabulary() {
    use apu_sim::TraceEventKind::*;
    let rec = record(ExecMode::from_env(ExecMode::Functional));
    let mut saw = [false; 7];
    for e in rec.events() {
        let slot = match &e.kind {
            TaskSubmitted { .. } => 0,
            BatchFormed { .. } => 1,
            DispatchIssued { .. } => 2,
            TaskRetired { .. } => 3,
            TaskRetried { .. } => 4,
            FaultInjected { .. } => 5,
            TaskFailed { .. } | TaskExpired { .. } => 6,
            _ => continue,
        };
        saw[slot] = true;
    }
    const NAMES: [&str; 7] = [
        "TaskSubmitted",
        "BatchFormed",
        "DispatchIssued",
        "TaskRetired",
        "TaskRetried",
        "FaultInjected",
        "TaskFailed/TaskExpired",
    ];
    for (seen, name) in saw.iter().zip(NAMES) {
        assert!(seen, "golden workload never emitted {name}");
    }
}

/// Runs the fixed failover workload — a 2-shard × 2-replica cluster with
/// replica (0,0) killed outright and an 8-query open-loop stream — in
/// the given mode, returning one recorder per device (device order:
/// shard-major, replica-minor).
fn record_failover(mode: ExecMode) -> Vec<TraceRecorder> {
    let st = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 2_048,
        },
        7,
    );
    let mut server = ShardedRagServer::new(
        &st,
        2,
        SimConfig::default()
            .with_exec_mode(mode)
            .with_l4_bytes(8 << 20),
        ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        },
    )
    .expect("cluster construction");
    server.inject_faults_replica(0, 0, FaultPlan::new(11).fail_every_kth_task(1));
    let mut recorders = Vec::new();
    for s in 0..2 {
        for r in 0..2 {
            let (sink, recorder) = TraceRecorder::shared();
            server.replica_device_mut(s, r).install_trace_sink(sink);
            recorders.push(recorder);
        }
    }
    for i in 0..8u64 {
        server
            .submit(Duration::from_micros(20 * i), st.query(i))
            .expect("submit");
    }
    let report = server.drain().expect("drain");
    assert_eq!(report.served(), 8, "failover must keep the stream whole");
    assert_eq!(report.degraded(), 0);
    assert!(report.replica.failovers >= 1);
    for s in 0..2 {
        for r in 0..2 {
            server.replica_device_mut(s, r).clear_trace_sink();
        }
    }
    recorders
        .into_iter()
        .map(|r| {
            let rec = std::rc::Rc::try_unwrap(r)
                .expect("device handle was cleared")
                .into_inner();
            assert!(!rec.is_empty(), "every replica must emit events");
            rec
        })
        .collect()
}

/// The failover scenario replays byte-identically, per device — the
/// fault on the dead replica, the `replica-down` transition, and every
/// `failover` re-issue land at the same cycle on every run — and the
/// replication-specific events actually appear in the stream.
#[test]
fn failover_replays_are_byte_identical() {
    let mode = ExecMode::from_env(ExecMode::Functional);
    let a = record_failover(mode);
    let b = record_failover(mode);
    assert_eq!(a.len(), b.len());
    for (d, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            ra.signature(),
            rb.signature(),
            "device {d} trace diverges between identical runs"
        );
    }
    let all_kinds: Vec<String> = a.iter().flat_map(|r| r.kind_signatures()).collect();
    assert!(
        all_kinds.iter().any(|k| k.starts_with("replica-down")),
        "the dead replica must be marked down in the trace"
    );
    assert!(
        all_kinds.iter().any(|k| k.starts_with("failover")),
        "failover re-issues must be traced"
    );
}

/// Functional and timing-only runs of the failover scenario tell the
/// same story on every device: identical timestamp-free event streams,
/// including the same faults, down transitions, and failover re-issues.
#[test]
fn failover_functional_and_timing_traces_agree() {
    let functional = record_failover(ExecMode::Functional);
    let timing = record_failover(ExecMode::TimingOnly);
    assert_eq!(functional.len(), timing.len());
    for (d, (f, t)) in functional.iter().zip(&timing).enumerate() {
        let fs = f.kind_signatures();
        let ts = t.kind_signatures();
        assert_eq!(
            fs.len(),
            ts.len(),
            "device {d}: modes must emit the same number of events"
        );
        for (i, (a, b)) in fs.iter().zip(&ts).enumerate() {
            assert_eq!(a, b, "device {d} event {i} diverges between modes");
        }
    }
}
