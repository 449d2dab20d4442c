//! Structural invariants of the device-timeline trace stream
//! (`apu_sim::trace`): the recorded events must form a consistent
//! narrative of the run — every dispatch retires all of its members,
//! spans never overlap on a core or DMA-engine track, trace-side task
//! accounting equals [`QueueStats`] accounting, and fault events appear
//! exactly as often as the armed [`FaultPlan`] fired.
//!
//! The suite runs in both simulator modes via `APU_SIM_TEST_MODE` (see
//! the CI matrix); trace structure is mode-independent.

use std::collections::HashMap;
use std::time::Duration;

use apu_sim::{
    ApuDevice, Cycles, DeviceQueue, ExecMode, FaultPlan, Priority, QueueConfig, RetryPolicy,
    SimConfig, TaskSpec, TraceEvent, TraceEventKind, TraceRecorder, VecOp, Vmr,
};
use proptest::prelude::*;
use rag::{CorpusSpec, EmbeddingStore, ServeConfig, ServeReport, ShardedRagServer};

fn sim() -> SimConfig {
    SimConfig::default()
        .with_exec_mode(ExecMode::from_env(ExecMode::Functional))
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

/// Serves an open-loop query stream with a recorder installed, returning
/// the report, the recorded events, and the device's final fault counts.
fn serve_traced(
    queries: usize,
    fault_rate: f64,
    ttl: Option<Duration>,
) -> (ServeReport, Vec<TraceEvent>, u64) {
    let st = store(4_096);
    let cfg = ServeConfig {
        ttl,
        queue: QueueConfig {
            retry: (fault_rate > 0.0).then(RetryPolicy::default),
            ..QueueConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = single(&st, cfg);
    if fault_rate > 0.0 {
        server.inject_faults(0, FaultPlan::new(42).fail_task_rate(fault_rate));
    }
    let (sink, recorder) = TraceRecorder::shared();
    server.device_mut(0).install_trace_sink(sink);
    for i in 0..queries {
        server
            .submit(Duration::from_micros(20 * i as u64), st.query(i as u64))
            .expect("submission under capacity");
    }
    let report = server.drain().expect("drain");
    let dev = server.device_mut(0);
    let injected = dev.fault_counts().tasks_injected;
    dev.clear_trace_sink();
    let events = recorder.borrow().events().to_vec();
    (report, events, injected)
}

/// Every `DispatchIssued` retires each of its members exactly once with
/// a matching dispatch id, every submitted handle reaches exactly one
/// terminal event, and no retire references an unknown dispatch.
#[test]
fn every_dispatch_retires_all_its_members() {
    let (report, events, _) = serve_traced(16, 0.0, None);

    let mut dispatch_members: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut submitted: Vec<u64> = Vec::new();
    let mut retires: Vec<(u64, u64)> = Vec::new(); // (handle, dispatch)
    for e in &events {
        match &e.kind {
            TraceEventKind::TaskSubmitted { handle, .. } => submitted.push(*handle),
            TraceEventKind::DispatchIssued {
                dispatch, members, ..
            } => {
                assert!(
                    !members.is_empty(),
                    "dispatch {dispatch} carries no members"
                );
                assert!(
                    dispatch_members
                        .insert(*dispatch, members.clone())
                        .is_none(),
                    "dispatch id {dispatch} issued twice"
                );
            }
            TraceEventKind::TaskRetired {
                handle, dispatch, ..
            } => retires.push((*handle, *dispatch)),
            _ => {}
        }
    }
    assert_eq!(submitted.len(), 16, "one submission event per query");
    assert_eq!(
        dispatch_members.len() as u64,
        report.queue.dispatches,
        "one DispatchIssued per booked dispatch"
    );

    // Each dispatch's members retire exactly once, under its id.
    let mut retired_per_dispatch: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(h, d) in &retires {
        assert!(
            dispatch_members.contains_key(&d),
            "retire of task {h} references unknown dispatch {d}"
        );
        retired_per_dispatch.entry(d).or_default().push(h);
    }
    for (d, members) in &dispatch_members {
        let mut got = retired_per_dispatch.remove(d).unwrap_or_default();
        let mut want = members.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "dispatch {d} must retire exactly its members");
    }

    // Fault-free, TTL-free: every submitted handle retires exactly once.
    let mut retired: Vec<u64> = retires.iter().map(|&(h, _)| h).collect();
    retired.sort_unstable();
    submitted.sort_unstable();
    assert_eq!(retired, submitted);
}

/// Span timestamps are monotone and non-overlapping per track: dispatch
/// spans on each core, and transfer spans on each DMA engine.
#[test]
fn span_timestamps_are_monotone_per_track() {
    // RAG stream for dispatch spans, plus a hand-rolled double-buffered
    // kernel so both async DMA engines appear in the trace.
    let (_, events, _) = serve_traced(12, 0.0, None);

    let mut core_spans: HashMap<usize, Vec<(Cycles, Cycles)>> = HashMap::new();
    for e in &events {
        if let TraceEventKind::DispatchIssued {
            start,
            finish,
            cores,
            ..
        } = &e.kind
        {
            assert!(*start <= *finish);
            for &c in cores {
                core_spans.entry(c).or_default().push((*start, *finish));
            }
        }
    }
    assert!(!core_spans.is_empty(), "the stream must dispatch");
    for (core, mut spans) in core_spans {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "core {core} runs overlapping dispatches: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    // Async DMA: per-engine bookings never overlap and issue stamps are
    // monotone in emission order.
    let mut dev = device();
    let (sink, recorder) = TraceRecorder::shared();
    dev.install_trace_sink(sink);
    let n = dev.config().vr_len;
    let h = dev.alloc_u16(8 * n).expect("alloc");
    dev.run_task(|ctx| {
        let mut pending = ctx.dma_l4_to_l1_async(Vmr::new(0), h)?;
        for i in 0..8usize {
            ctx.dma_wait(pending);
            if i + 1 < 8 {
                pending = ctx.dma_l4_to_l1_async(
                    Vmr::new(((i + 1) % 2) as u8),
                    h.offset_by((i + 1) * n * 2)?,
                )?;
            }
            for _ in 0..64 {
                ctx.core_mut().charge(VecOp::MulS16);
            }
        }
        ctx.dma_wait_all();
        Ok(())
    })
    .expect("kernel");
    dev.clear_trace_sink();

    let mut engine_spans: HashMap<(usize, usize), Vec<(Cycles, Cycles)>> = HashMap::new();
    let mut last_ts: HashMap<(usize, usize), Cycles> = HashMap::new();
    let mut dma_events = 0;
    for e in recorder.borrow().events() {
        if let TraceEventKind::DmaIssued {
            core,
            engine,
            start,
            completes_at,
            bytes,
        } = &e.kind
        {
            dma_events += 1;
            assert_eq!(*bytes as usize, n * 2, "full-vector transfers");
            assert!(e.ts <= *start, "a transfer cannot start before its issue");
            assert!(*start < *completes_at);
            let track = (*core, *engine);
            if let Some(prev) = last_ts.insert(track, e.ts) {
                assert!(prev <= e.ts, "issue stamps regress on {track:?}");
            }
            engine_spans
                .entry(track)
                .or_default()
                .push((*start, *completes_at));
        }
    }
    assert_eq!(dma_events, 8, "one DmaIssued per async transfer");
    assert!(
        engine_spans.len() >= 2,
        "double buffering must exercise both engines"
    );
    for (track, spans) in engine_spans {
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "engine {track:?} overlaps transfers: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// Trace-side task accounting equals [`QueueStats`] accounting: the
/// summed `DispatchIssued` member counts equal `dispatched_tasks`, and
/// terminal / retry event counts match the failure counters.
#[test]
fn trace_accounting_matches_queue_stats() {
    let (report, events, _) = serve_traced(24, 0.0, None);
    let mut dispatched_tasks = 0u64;
    let mut batch_members = 0u64;
    for e in &events {
        match &e.kind {
            TraceEventKind::DispatchIssued { members, .. } => {
                dispatched_tasks += members.len() as u64
            }
            TraceEventKind::BatchFormed { members, .. } => batch_members += members.len() as u64,
            _ => {}
        }
    }
    assert_eq!(
        dispatched_tasks, report.queue.dispatched_tasks,
        "summed DispatchIssued members must equal QueueStats::dispatched_tasks"
    );
    // Every submission here is batchable and fault-free, so each query
    // is dispatched exactly once by the batch it was formed into.
    assert_eq!(
        batch_members, report.queue.dispatched_tasks,
        "batch membership in the trace must cover every dispatched task"
    );
}

/// A faulted, TTL'd overload emits exactly the injected fault events,
/// one retry event per booked retry, and one expiry event per shed task.
#[test]
fn faulted_runs_emit_exactly_the_injected_fault_events() {
    let (report, events, injected) = serve_traced(32, 0.3, Some(Duration::from_millis(4)));
    let mut faults = 0u64;
    let mut retries = 0u64;
    let mut expired = 0u64;
    let mut failed = 0u64;
    for e in &events {
        match &e.kind {
            TraceEventKind::FaultInjected { .. } => faults += 1,
            TraceEventKind::TaskRetried { .. } => retries += 1,
            TraceEventKind::TaskExpired { .. } => expired += 1,
            TraceEventKind::TaskFailed { .. } => failed += 1,
            _ => {}
        }
    }
    assert!(injected > 0, "a 30% rate must inject");
    assert_eq!(faults, injected, "one FaultInjected event per injection");
    assert_eq!(retries, report.queue.retries, "one TaskRetried per retry");
    assert_eq!(expired, report.queue.expired, "one TaskExpired per shed");
    assert_eq!(
        failed + expired,
        report.failed() as u64,
        "terminal pre-dispatch events must cover every failed completion"
    );
}

/// Installing a sink adds zero virtual time: the served stream's
/// schedule and stats are bit-identical with and without a recorder.
#[test]
fn tracing_is_a_pure_observer() {
    let timeline = |traced: bool| {
        let st = store(4_096);
        let mut server = single(&st, ServeConfig::default());
        let recorder = traced.then(|| {
            let (sink, recorder) = TraceRecorder::shared();
            server.device_mut(0).install_trace_sink(sink);
            recorder
        });
        for i in 0..12u64 {
            server
                .submit(Duration::from_micros(20 * i), st.query(i))
                .expect("submit");
        }
        let report = server.drain().expect("drain");
        if let Some(r) = &recorder {
            assert!(!r.borrow().is_empty(), "the recorder must observe events");
        }
        report
            .completions
            .iter()
            .map(|c| (c.ticket.id(), c.started_at, c.finished_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(timeline(false), timeline(true));
}

type ChargeJob = Box<
    dyn FnOnce(&mut ApuDevice) -> apu_sim::Result<(apu_sim::TaskReport, Box<dyn std::any::Any>)>,
>;

/// Builds a cheap device job charging `ops` vector ops.
fn charge_job(ops: u32) -> ChargeJob {
    Box::new(move |dev| {
        let r = dev.run_task(|ctx| {
            for _ in 0..ops {
                ctx.core_mut().charge(VecOp::AddU16);
            }
            Ok(())
        })?;
        Ok((r, Box::new(()) as Box<dyn std::any::Any>))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary interleavings of plain / TTL'd submissions under an
    /// optional fault plan with retries, every completion's per-stage
    /// latency components sum *exactly* to its end-to-end latency, and
    /// the aggregated stage totals sum to `QueueStats::total_latency`.
    #[test]
    fn stage_latency_components_sum_to_completion_latency(
        tasks in proptest::collection::vec(
            // (arrival µs, has-ttl flag, ttl µs, priority class, op count)
            (0u64..400, 0u8..2, 20u64..4_000, 0u8..3, 1u32..96),
            1..24,
        ),
        faulted in 0u8..2,
    ) {
        let mut dev = device();
        if faulted == 1 {
            dev.inject_faults(FaultPlan::new(9).fail_task_rate(0.25));
        }
        let cfg = QueueConfig::default().with_retry(RetryPolicy::default());
        let mut queue = DeviceQueue::new(&mut dev, cfg);
        let n = tasks.len();
        for &(arrival_us, has_ttl, ttl_us, prio, ops) in &tasks {
            let priority = [Priority::Low, Priority::Normal, Priority::High][prio as usize];
            let arrival = Duration::from_micros(arrival_us);
            let spec = TaskSpec::job(charge_job(ops)).priority(priority).at(arrival);
            let spec = if has_ttl == 1 {
                spec.ttl(Duration::from_micros(ttl_us))
            } else {
                spec
            };
            queue.submit(spec).expect("submission under capacity");
        }
        let done = queue.drain().expect("drain never aborts");
        prop_assert_eq!(done.len(), n, "every handle retires");
        for c in &done {
            let stages = c.stage_breakdown();
            prop_assert_eq!(
                stages.total(),
                c.latency(),
                "stage components must sum to the end-to-end latency of task {:?}",
                c.handle
            );
            prop_assert_eq!(stages.queue_wait, c.wait());
        }
        prop_assert_eq!(queue.stats().stage_totals().total(), queue.stats().total_latency);
    }
}

/// Failover attempts never double-count stage time: a query that first
/// lands on a dead replica and is re-issued elsewhere still satisfies
/// `stages.total() == latency()` exactly — the failed attempt's device
/// time is absorbed into `queue_wait` of the surviving attempt, not
/// added on top — and the report-level stage totals stay consistent
/// with the end-to-end latency sum.
#[test]
fn failover_attempts_do_not_double_count_stage_time() {
    let st = store(2_048);
    let mut server = ShardedRagServer::new(
        &st,
        2,
        SimConfig::default()
            .with_exec_mode(ExecMode::from_env(ExecMode::Functional))
            .with_l4_bytes(8 << 20),
        ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        },
    )
    .expect("cluster construction");
    server.inject_faults_replica(0, 0, FaultPlan::new(11).fail_every_kth_task(1));
    for i in 0..4u64 {
        server
            .submit(Duration::from_micros(15 * i), st.query(i))
            .expect("submit");
    }
    let report = server.drain().expect("drain");

    assert_eq!(report.served(), 4);
    assert_eq!(report.degraded(), 0);
    assert!(
        report.replica.failovers >= 1,
        "the dead replica was never hit"
    );
    let mut failed_over = 0usize;
    for done in &report.completions {
        assert_eq!(
            done.stages.total(),
            done.latency(),
            "query {} stage components must sum exactly to its latency \
             even across {} failover attempt(s)",
            done.ticket.id(),
            done.failovers
        );
        failed_over += (done.failovers > 0) as usize;
    }
    assert!(failed_over >= 1, "some completion must carry a failover");
    // Aggregated: the queue-level stage totals cover exactly the booked
    // end-to-end latency (successful attempts only — failed attempts
    // are never booked, so nothing is counted twice).
    assert_eq!(
        report.queue.stage_totals().total(),
        report.queue.total_latency,
        "report-level stage totals must not double-count failover attempts"
    );
    assert!(report.latency_percentile(0.5) > Duration::ZERO);
}

/// `latency_percentile` over a stream where *every* query failed (the
/// whole cluster is dead — no replica to fail over to): percentiles rank
/// only served completions, so the documented all-failed edge case must
/// return `Duration::ZERO` rather than ranking failed attempts.
#[test]
fn latency_percentile_of_an_all_failed_stream_is_zero() {
    let st = store(1_024);
    let mut server = ShardedRagServer::new(
        &st,
        1,
        SimConfig::default()
            .with_exec_mode(ExecMode::from_env(ExecMode::Functional))
            .with_l4_bytes(8 << 20),
        ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        },
    )
    .expect("cluster construction");
    for r in 0..2 {
        server.inject_faults_replica(0, r, FaultPlan::new(23).fail_every_kth_task(1));
    }
    for i in 0..3u64 {
        server
            .submit(Duration::from_micros(15 * i), st.query(i))
            .expect("submit");
    }
    let report = server.drain().expect("drain");

    assert_eq!(report.served(), 0, "the whole replica set is dead");
    assert_eq!(report.failed(), 3);
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(
            report.latency_percentile(q),
            Duration::ZERO,
            "p{q} of an all-failed stream must be zero, not a ranked failure"
        );
    }
    assert_eq!(
        report.queue.stage_totals().total(),
        report.queue.total_latency
    );
}
