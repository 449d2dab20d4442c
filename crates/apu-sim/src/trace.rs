//! Device-timeline tracing: structured span events for the serving stack.
//!
//! The paper's methodology rests on *attributing* time — Tables 4/5
//! calibrate per-op latencies and §4–§5 decompose workloads into DMA,
//! compute, and queueing components. This module gives the simulator the
//! same capability at the serving layer: a [`TraceRecorder`] installed on
//! an [`crate::ApuDevice`] receives typed [`TraceEvent`]s for the full task
//! lifecycle (submitted → queued → dispatched → retired / failed /
//! expired), continuous-batch formation (key, members, wait window),
//! asynchronous DMA issue/wait on both per-core engines, retry/backoff
//! decisions, and fault injections.
//!
//! Every event is stamped with the **virtual device clock** ([`Cycles`]),
//! never the wall clock, so traces are deterministic: the same seed and
//! workload produce a byte-identical event stream on every run.
//!
//! [`TraceRecorder`] is the in-memory sink: an event log for tests and
//! invariant checking ([`TraceRecorder::signature`] is byte-stable).
//! [`chrome_trace_json`] renders a recorded stream as Chrome
//! `trace_event` JSON loadable in Perfetto or `chrome://tracing`, with
//! one track for the queue, one per core, and one per DMA engine.
//!
//! Tracing is strictly an observer: when no sink is installed every
//! instrumentation site is a no-op (a `None` check — no event is even
//! constructed), and with a sink installed **zero virtual-time cost** is
//! added — no instrumentation path ever charges cycles, so golden-timing
//! numbers are bit-identical with and without a sink
//! (`crates/apu-sim/tests/timing_golden.rs` pins this).
//!
//! A companion [`prometheus_text`] exporter renders [`QueueStats`]
//! counters and the per-stage latency breakdown
//! ([`crate::stats::StageBreakdown`]) in the Prometheus text exposition
//! format for scrape-style metrics collection.

use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::clock::{Cycles, Frequency};
use crate::queue::Priority;
use crate::stats::QueueStats;

/// One structured trace event: a virtual-clock timestamp plus a typed
/// payload.
///
/// Queue-domain events carry timestamps converted from the scheduler's
/// virtual timeline with the device clock; DMA-domain events carry the
/// issuing core's own cycle counter. Both are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp of the event.
    pub ts: Cycles,
    /// The typed payload.
    pub kind: TraceEventKind,
}

/// The typed payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A task was admitted to the queue backlog (submission == enqueue:
    /// admission control either accepts into the backlog or rejects).
    TaskSubmitted {
        /// Submission handle (see [`crate::TaskHandle::id`]).
        handle: u64,
        /// Priority class submitted at.
        priority: Priority,
        /// Batch-compatibility key for batchable submissions.
        batch_key: Option<u64>,
        /// Absolute start deadline, for TTL submissions.
        deadline: Option<Cycles>,
    },
    /// A continuous batch was formed at a dispatch opportunity: the
    /// members that will ride one device dispatch together.
    BatchFormed {
        /// Batch-compatibility key shared by every member.
        key: u64,
        /// Member handles, in submission order.
        members: Vec<u64>,
        /// Close of the straggler wait window on the virtual timeline.
        window_close: Cycles,
    },
    /// A device dispatch was issued and booked on the virtual timeline.
    /// Every dispatch — single task or coalesced batch — emits exactly
    /// one of these.
    DispatchIssued {
        /// Dispatch sequence number (shared by all batch members).
        dispatch: u64,
        /// Dispatch start on the virtual timeline.
        start: Cycles,
        /// Dispatch finish on the virtual timeline.
        finish: Cycles,
        /// Device cores the dispatch occupies.
        cores: Vec<usize>,
        /// Member handles carried by the dispatch, in submission order.
        /// The member count summed over all `DispatchIssued` events
        /// equals [`QueueStats::dispatched_tasks`].
        members: Vec<u64>,
        /// Batch key, for coalesced dispatches.
        batch_key: Option<u64>,
    },
    /// A dispatched task retired — successfully or with an error. Every
    /// member of every dispatch emits exactly one of these.
    TaskRetired {
        /// The retiring task.
        handle: u64,
        /// The dispatch that carried it.
        dispatch: u64,
        /// Whether the task retired successfully.
        ok: bool,
        /// The retirement error, for failed members.
        error: Option<String>,
    },
    /// A task failed *before* reaching the device (fault gate, exhausted
    /// retries) and retired as an error completion without a dispatch.
    TaskFailed {
        /// The failed task.
        handle: u64,
        /// The retirement error.
        error: String,
    },
    /// A task's deadline passed before it could start: shed without
    /// dispatching.
    TaskExpired {
        /// The shed task.
        handle: u64,
        /// The deadline that passed.
        deadline: Cycles,
    },
    /// A transient pre-dispatch failure was re-queued with backoff.
    TaskRetried {
        /// The re-queued task.
        handle: u64,
        /// Dispatch attempts consumed so far (1 after the first retry).
        attempt: u32,
        /// When the task becomes dispatchable again.
        eligible: Cycles,
    },
    /// An asynchronous DMA transfer was booked on an engine.
    DmaIssued {
        /// Issuing core.
        core: usize,
        /// Engine the transfer was booked on (0 or 1).
        engine: usize,
        /// Transfer start (after any queueing behind the engine).
        start: Cycles,
        /// Transfer completion.
        completes_at: Cycles,
        /// Bytes moved.
        bytes: u64,
    },
    /// The control processor waited on a DMA engine.
    DmaWaited {
        /// Waiting core.
        core: usize,
        /// Engine waited on.
        engine: usize,
        /// Cycles the CP actually stalled (zero when compute already
        /// covered the transfer).
        stall: Cycles,
    },
    /// An armed [`crate::FaultPlan`] failed a task at the dispatch gate.
    FaultInjected {
        /// The plan's injection sequence number (matches
        /// [`crate::FaultCounts::tasks_injected`]).
        seq: u64,
    },
    /// A replicated server's health tracking marked this device's
    /// replica down; replica routing steers reads around it until it
    /// serves again (emitted by the `rag` crate via
    /// [`crate::DeviceQueue::emit_with`]).
    ReplicaDown {
        /// Server-wide device index of the downed replica.
        device: usize,
        /// Lifetime device-attributable failures recorded for it.
        failures: u64,
    },
    /// A failed task was transparently resubmitted on another replica
    /// of the same logical shard (emitted by the `rag` crate via
    /// [`crate::DeviceQueue::emit_with`]).
    FailoverIssued {
        /// Submission handle of the new attempt on the target device.
        handle: u64,
        /// Device whose failure triggered the failover.
        from_device: usize,
        /// Device the work was resubmitted on (the event's timeline).
        to_device: usize,
    },
    /// An IVF-indexed retrieval dispatch selected and rescored its
    /// probe set: an on-device centroid scan picked up to `nprobe`
    /// clusters per query, and the union of those selections was
    /// exactly rescored (emitted by the `rag` crate via
    /// [`crate::ApuDevice::emit_trace`]).
    IvfProbe {
        /// Queries in the dispatched batch.
        queries: usize,
        /// Clusters in the index.
        nlist: usize,
        /// Clusters probed per query.
        nprobe: usize,
        /// Distinct clusters the dispatch scanned.
        scanned: usize,
        /// Candidate chunks exactly rescored across (query, cluster)
        /// pairs.
        candidates: u64,
    },
}

impl TraceEvent {
    /// A timestamp-free projection of the event: the variant name plus
    /// its identity fields (handles, dispatch ids, cores, engines,
    /// counts) with every virtual-clock value elided. Two runs of the
    /// same workload in different [`crate::ExecMode`]s produce identical
    /// kind signatures even where cycle stamps could legitimately differ.
    pub fn kind_signature(&self) -> String {
        use TraceEventKind::*;
        match &self.kind {
            TaskSubmitted {
                handle,
                priority,
                batch_key,
                deadline,
            } => format!(
                "submitted h={handle} prio={priority:?} key={batch_key:?} ttl={}",
                deadline.is_some()
            ),
            BatchFormed { key, members, .. } => {
                format!("batch-formed key={key} members={members:?}")
            }
            DispatchIssued {
                dispatch,
                cores,
                members,
                batch_key,
                ..
            } => format!(
                "dispatch d={dispatch} cores={cores:?} members={members:?} key={batch_key:?}"
            ),
            TaskRetired {
                handle,
                dispatch,
                ok,
                error,
            } => format!("retired h={handle} d={dispatch} ok={ok} err={error:?}"),
            TaskFailed { handle, error } => format!("failed h={handle} err={error}"),
            TaskExpired { handle, .. } => format!("expired h={handle}"),
            TaskRetried {
                handle, attempt, ..
            } => format!("retried h={handle} attempt={attempt}"),
            DmaIssued {
                core,
                engine,
                bytes,
                ..
            } => format!("dma-issued core={core} engine={engine} bytes={bytes}"),
            DmaWaited { core, engine, .. } => format!("dma-waited core={core} engine={engine}"),
            FaultInjected { seq } => format!("fault seq={seq}"),
            ReplicaDown { device, failures } => {
                format!("replica-down device={device} failures={failures}")
            }
            FailoverIssued {
                handle,
                from_device,
                to_device,
            } => format!("failover h={handle} from={from_device} to={to_device}"),
            IvfProbe {
                queries,
                nlist,
                nprobe,
                scanned,
                candidates,
            } => format!(
                "ivf-probe q={queries} nlist={nlist} nprobe={nprobe} scanned={scanned} cand={candidates}"
            ),
        }
    }
}

/// A shareable handle to a [`TraceRecorder`] installed on a device.
///
/// Cloning shares the sink, so a caller can keep one handle for reading
/// results while the device holds the other:
///
/// ```
/// use apu_sim::trace::TraceRecorder;
/// use apu_sim::{ApuDevice, SimConfig};
///
/// let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
/// let (sink, recorder) = TraceRecorder::shared();
/// dev.install_trace_sink(sink);
/// // ... run traced work ...
/// assert_eq!(recorder.borrow().len(), 0);
/// ```
#[derive(Clone)]
pub struct SharedSink(Rc<RefCell<TraceRecorder>>);

impl SharedSink {
    /// Wraps an already-shared recorder cell.
    pub fn from_rc(recorder: Rc<RefCell<TraceRecorder>>) -> Self {
        SharedSink(recorder)
    }

    /// Forwards one event to the recorder.
    pub fn record(&self, event: TraceEvent) {
        self.0.borrow_mut().record(event);
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedSink")
    }
}

/// The in-memory trace sink: records every event in order.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// An empty recorder plus an installable handle sharing it: install
    /// the [`SharedSink`] on the device, keep the `Rc` to read the
    /// recorded events afterwards.
    #[allow(clippy::type_complexity)]
    pub fn shared() -> (SharedSink, Rc<RefCell<TraceRecorder>>) {
        let rec = Rc::new(RefCell::new(TraceRecorder::new()));
        (SharedSink::from_rc(rec.clone()), rec)
    }

    /// Appends one event. Called synchronously from the scheduler and
    /// DMA hot paths (only when a sink is installed); recording observes
    /// and never perturbs simulated time.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A byte-stable rendering of the full event stream (timestamps
    /// included): two runs of the same seeded workload must produce
    /// identical signatures, so this is the golden-trace comparator.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(out, "{:?}", e);
        }
        out
    }

    /// The timestamp-free projection of the stream (see
    /// [`TraceEvent::kind_signature`]), for cross-[`crate::ExecMode`]
    /// comparison.
    pub fn kind_signatures(&self) -> Vec<String> {
        self.events.iter().map(TraceEvent::kind_signature).collect()
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Track ids in the exported trace: the queue, then one per core, then
/// one per (core, engine).
const TID_QUEUE: u64 = 0;

fn tid_core(core: usize) -> u64 {
    1 + core as u64
}

fn tid_dma(core: usize, engine: usize) -> u64 {
    1000 + (core as u64) * 2 + engine as u64
}

/// Renders a recorded event stream as Chrome `trace_event` JSON
/// (the `{"traceEvents": [...]}` object form), loadable in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Durations and timestamps are microseconds of *virtual* device time,
/// converted from [`Cycles`] with `clock`. Instant events (`ph: "i"`)
/// carry queue-lifecycle markers; complete events (`ph: "X"`) carry
/// dispatch spans on core tracks and transfer spans on DMA-engine
/// tracks; metadata events name every track.
///
/// Single-device form of [`chrome_trace_json_grouped`]: the whole
/// stream renders as one `"device"` track group.
pub fn chrome_trace_json(events: &[TraceEvent], clock: Frequency) -> String {
    chrome_trace_json_grouped(&[("device", events)], clock)
}

/// Renders several recorded event streams as one Chrome `trace_event`
/// JSON document, one **track group** (Chrome "process") per named
/// stream — the multi-device export used by the sharded serving stack,
/// where each cluster shard's device timeline gets its own group.
///
/// Group `i` renders under `pid = i + 1` with a `process_name` metadata
/// row carrying its name; within each group the track layout matches
/// [`chrome_trace_json`] (queue track, core tracks, DMA-engine tracks).
/// All groups share one clock, so Perfetto aligns the shard timelines
/// on a common virtual-time axis.
pub fn chrome_trace_json_grouped(groups: &[(&str, &[TraceEvent])], clock: Frequency) -> String {
    use TraceEventKind::*;
    let us = |c: Cycles| clock.cycles_to_secs(c) * 1e6;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |row: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&row);
    };
    for (group, (group_name, events)) in groups.iter().enumerate() {
        let pid = group as u64 + 1;
        let mut rows: Vec<String> = Vec::new();
        let mut tracks: Vec<(u64, String)> = vec![(TID_QUEUE, "queue".to_string())];
        let track = |tid: u64, name: String, tracks: &mut Vec<(u64, String)>| {
            if !tracks.iter().any(|(t, _)| *t == tid) {
                tracks.push((tid, name));
            }
            tid
        };
        let instant = |name: &str, ts: f64, tid: u64, args: String| {
            format!(
                r#"{{"name":"{}","ph":"i","s":"t","ts":{:.3},"pid":{},"tid":{},"args":{{{}}}}}"#,
                json_escape(name),
                ts,
                pid,
                tid,
                args
            )
        };
        let span = |name: &str, ts: f64, dur: f64, tid: u64, args: String| {
            format!(
                r#"{{"name":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":{},"tid":{},"args":{{{}}}}}"#,
                json_escape(name),
                ts,
                dur,
                pid,
                tid,
                args
            )
        };
        for e in *events {
            let ts = us(e.ts);
            match &e.kind {
                TaskSubmitted {
                    handle,
                    priority,
                    batch_key,
                    ..
                } => rows.push(instant(
                    &format!("submit #{handle}"),
                    ts,
                    TID_QUEUE,
                    format!(
                        r#""priority":"{priority:?}","batch_key":{}"#,
                        batch_key.map_or("null".into(), |k| k.to_string())
                    ),
                )),
                BatchFormed { key, members, .. } => rows.push(instant(
                    &format!("batch key={key} ×{}", members.len()),
                    ts,
                    TID_QUEUE,
                    format!(r#""key":{key},"members":{members:?}"#),
                )),
                DispatchIssued {
                    dispatch,
                    start,
                    finish,
                    cores,
                    members,
                    batch_key,
                } => {
                    let dur = us(*finish) - us(*start);
                    let tasks = members.len();
                    for &c in cores {
                        let tid = track(tid_core(c), format!("core {c}"), &mut tracks);
                        rows.push(span(
                            &format!(
                                "dispatch {dispatch} ({tasks} task{})",
                                if tasks == 1 { "" } else { "s" }
                            ),
                            us(*start),
                            dur,
                            tid,
                            format!(
                                r#""dispatch":{dispatch},"members":{members:?},"batch_key":{}"#,
                                batch_key.map_or("null".into(), |k| k.to_string())
                            ),
                        ));
                    }
                }
                TaskRetired {
                    handle,
                    dispatch,
                    ok,
                    error,
                } => rows.push(instant(
                    &format!("retire #{handle}"),
                    ts,
                    TID_QUEUE,
                    format!(
                        r#""dispatch":{dispatch},"ok":{ok},"error":{}"#,
                        error
                            .as_deref()
                            .map_or("null".into(), |e| format!("\"{}\"", json_escape(e)))
                    ),
                )),
                TaskFailed { handle, error } => rows.push(instant(
                    &format!("fail #{handle}"),
                    ts,
                    TID_QUEUE,
                    format!(r#""error":"{}""#, json_escape(error)),
                )),
                TaskExpired { handle, .. } => rows.push(instant(
                    &format!("shed #{handle}"),
                    ts,
                    TID_QUEUE,
                    String::new(),
                )),
                TaskRetried {
                    handle, attempt, ..
                } => rows.push(instant(
                    &format!("retry #{handle}"),
                    ts,
                    TID_QUEUE,
                    format!(r#""attempt":{attempt}"#),
                )),
                DmaIssued {
                    core,
                    engine,
                    start,
                    completes_at,
                    bytes,
                } => {
                    let tid = track(
                        tid_dma(*core, *engine),
                        format!("core {core} dma {engine}"),
                        &mut tracks,
                    );
                    rows.push(span(
                        &format!("dma {bytes} B"),
                        us(*start),
                        us(*completes_at) - us(*start),
                        tid,
                        format!(r#""bytes":{bytes}"#),
                    ));
                }
                DmaWaited {
                    core,
                    engine,
                    stall,
                } => {
                    let tid = track(
                        tid_dma(*core, *engine),
                        format!("core {core} dma {engine}"),
                        &mut tracks,
                    );
                    rows.push(instant(
                        "dma wait",
                        ts,
                        tid,
                        format!(r#""stall_cycles":{}"#, stall.get()),
                    ));
                }
                FaultInjected { seq } => rows.push(instant(
                    &format!("fault #{seq}"),
                    ts,
                    TID_QUEUE,
                    format!(r#""seq":{seq}"#),
                )),
                ReplicaDown { device, failures } => rows.push(instant(
                    &format!("replica down d{device}"),
                    ts,
                    TID_QUEUE,
                    format!(r#""device":{device},"failures":{failures}"#),
                )),
                FailoverIssued {
                    handle,
                    from_device,
                    to_device,
                } => rows.push(instant(
                    &format!("failover d{from_device}→d{to_device}"),
                    ts,
                    TID_QUEUE,
                    format!(r#""handle":{handle},"from":{from_device},"to":{to_device}"#),
                )),
                IvfProbe {
                    queries,
                    nlist,
                    nprobe,
                    scanned,
                    candidates,
                } => rows.push(instant(
                    &format!("ivf probe {scanned}/{nlist}"),
                    ts,
                    TID_QUEUE,
                    format!(
                        r#""queries":{queries},"nlist":{nlist},"nprobe":{nprobe},"scanned":{scanned},"candidates":{candidates}"#
                    ),
                )),
            }
        }
        push(
            format!(
                r#"{{"name":"process_name","ph":"M","pid":{},"args":{{"name":"{}"}}}}"#,
                pid,
                json_escape(group_name)
            ),
            &mut out,
        );
        push(
            format!(
                r#"{{"name":"process_sort_index","ph":"M","pid":{pid},"args":{{"sort_index":{pid}}}}}"#
            ),
            &mut out,
        );
        for (tid, name) in &tracks {
            push(
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{},"tid":{},"args":{{"name":"{}"}}}}"#,
                    pid,
                    tid,
                    json_escape(name)
                ),
                &mut out,
            );
        }
        for row in rows {
            push(row, &mut out);
        }
    }
    out.push_str("]}");
    out
}

/// Renders queue counters in the Prometheus text exposition format,
/// including the per-stage latency totals
/// (`queue_wait` / `dispatch` / `dma` / `device`) and latency quantiles
/// from the bounded reservoir.
///
/// Tenant series are labelled with the numeric [`crate::TenantId`], so
/// no label value needs escaping.
pub fn prometheus_text(queue: &QueueStats) -> String {
    let mut out = String::new();
    let counter = |name: &str, help: &str, value: String, out: &mut String| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    };
    counter(
        "apu_queue_submitted_total",
        "Tasks accepted by admission control",
        queue.submitted.to_string(),
        &mut out,
    );
    counter(
        "apu_queue_rejected_total",
        "Tasks rejected by admission control",
        queue.rejected.to_string(),
        &mut out,
    );
    counter(
        "apu_queue_completed_total",
        "Tasks that ran to successful completion",
        queue.completed.to_string(),
        &mut out,
    );
    counter(
        "apu_queue_failed_total",
        "Tasks retired with an error completion",
        queue.failed.to_string(),
        &mut out,
    );
    counter(
        "apu_queue_expired_total",
        "Tasks shed past their deadline without dispatching",
        queue.expired.to_string(),
        &mut out,
    );
    counter(
        "apu_queue_retries_total",
        "Re-dispatch attempts made by the retry policy",
        queue.retries.to_string(),
        &mut out,
    );
    counter(
        "apu_queue_dispatches_total",
        "Device dispatches issued (a coalesced batch counts once)",
        queue.dispatches.to_string(),
        &mut out,
    );
    counter(
        "apu_queue_dispatched_tasks_total",
        "Tasks carried by device dispatches",
        queue.dispatched_tasks.to_string(),
        &mut out,
    );
    let _ = writeln!(
        out,
        "# HELP apu_queue_stage_seconds_total Accumulated per-stage latency over completions"
    );
    let _ = writeln!(out, "# TYPE apu_queue_stage_seconds_total counter");
    let stages = queue.stage_totals();
    for (stage, d) in [
        ("queue_wait", stages.queue_wait),
        ("dispatch", stages.dispatch),
        ("dma", stages.dma),
        ("device", stages.device),
    ] {
        let _ = writeln!(
            out,
            "apu_queue_stage_seconds_total{{stage=\"{stage}\"}} {:.9}",
            d.as_secs_f64()
        );
    }
    let _ = writeln!(
        out,
        "# HELP apu_queue_latency_seconds End-to-end task latency (bounded-reservoir quantiles)"
    );
    let _ = writeln!(out, "# TYPE apu_queue_latency_seconds summary");
    for q in [0.5, 0.9, 0.99] {
        let _ = writeln!(
            out,
            "apu_queue_latency_seconds{{quantile=\"{q}\"}} {:.9}",
            queue.latency_percentile(q).as_secs_f64()
        );
    }
    let _ = writeln!(
        out,
        "apu_queue_latency_seconds_sum {:.9}",
        queue.total_latency.as_secs_f64()
    );
    let _ = writeln!(out, "apu_queue_latency_seconds_count {}", queue.completed);
    let _ = writeln!(
        out,
        "# HELP apu_queue_occupancy_ratio Busy core-time over the makespan\n# TYPE apu_queue_occupancy_ratio gauge\napu_queue_occupancy_ratio {:.9}",
        queue.occupancy()
    );
    let _ = writeln!(
        out,
        "# HELP apu_queue_throughput_tasks_per_second Sustained completions per second\n# TYPE apu_queue_throughput_tasks_per_second gauge\napu_queue_throughput_tasks_per_second {:.6}",
        queue.throughput()
    );
    if !queue.per_tenant.is_empty() {
        let _ = writeln!(
            out,
            "# HELP apu_tenant_tasks_total Tasks by tenant and disposition"
        );
        let _ = writeln!(out, "# TYPE apu_tenant_tasks_total counter");
        for (tenant, t) in &queue.per_tenant {
            for (state, value) in [
                ("submitted", t.submitted),
                ("completed", t.completed),
                ("failed", t.failed),
                ("expired", t.expired),
                ("shed", t.shed),
            ] {
                let _ = writeln!(
                    out,
                    "apu_tenant_tasks_total{{tenant=\"{tenant}\",state=\"{state}\"}} {value}"
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP apu_tenant_stage_seconds_total Accumulated per-stage latency by tenant"
        );
        let _ = writeln!(out, "# TYPE apu_tenant_stage_seconds_total counter");
        for (tenant, t) in &queue.per_tenant {
            let stages = t.stage_totals();
            for (stage, d) in [
                ("queue_wait", stages.queue_wait),
                ("dispatch", stages.dispatch),
                ("dma", stages.dma),
                ("device", stages.device),
            ] {
                let _ = writeln!(
                    out,
                    "apu_tenant_stage_seconds_total{{tenant=\"{tenant}\",stage=\"{stage}\"}} {:.9}",
                    d.as_secs_f64()
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP apu_tenant_latency_seconds_total Accumulated end-to-end latency by tenant"
        );
        let _ = writeln!(out, "# TYPE apu_tenant_latency_seconds_total counter");
        for (tenant, t) in &queue.per_tenant {
            let _ = writeln!(
                out,
                "apu_tenant_latency_seconds_total{{tenant=\"{tenant}\"}} {:.9}",
                t.total_latency.as_secs_f64()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                ts: Cycles::new(0),
                kind: TraceEventKind::TaskSubmitted {
                    handle: 0,
                    priority: Priority::Normal,
                    batch_key: Some(7),
                    deadline: None,
                },
            },
            TraceEvent {
                ts: Cycles::new(10),
                kind: TraceEventKind::DispatchIssued {
                    dispatch: 0,
                    start: Cycles::new(10),
                    finish: Cycles::new(110),
                    cores: vec![0],
                    members: vec![0],
                    batch_key: Some(7),
                },
            },
            TraceEvent {
                ts: Cycles::new(110),
                kind: TraceEventKind::TaskRetired {
                    handle: 0,
                    dispatch: 0,
                    ok: false,
                    error: Some("boom \"quoted\"\npath".into()),
                },
            },
            TraceEvent {
                ts: Cycles::new(42),
                kind: TraceEventKind::DmaIssued {
                    core: 0,
                    engine: 1,
                    start: Cycles::new(42),
                    completes_at: Cycles::new(99),
                    bytes: 65536,
                },
            },
        ]
    }

    #[test]
    fn recorder_signature_is_stable_and_ordered() {
        let mut rec = TraceRecorder::new();
        for e in sample_events() {
            rec.record(e);
        }
        assert_eq!(rec.len(), 4);
        let again = {
            let mut r = TraceRecorder::new();
            for e in sample_events() {
                r.record(e);
            }
            r.signature()
        };
        assert_eq!(rec.signature(), again);
        assert_eq!(rec.kind_signatures().len(), 4);
        // Kind signatures elide the clock: events differing only in ts
        // project identically.
        let mut shifted = sample_events();
        for e in &mut shifted {
            e.ts = Cycles::new(e.ts.get() + 1000);
        }
        let shifted_sigs: Vec<String> = shifted.iter().map(TraceEvent::kind_signature).collect();
        assert_eq!(rec.kind_signatures(), shifted_sigs);
    }

    #[test]
    fn chrome_export_escapes_and_balances() {
        let json = chrome_trace_json(&sample_events(), Frequency::LEDA_E);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("thread_name"));
        // The quoted error string must be escaped, not break the JSON.
        assert!(json.contains(r#"boom \"quoted\"\npath"#));
        // Crude structural check: balanced braces and brackets.
        let depth = json.chars().fold((0i64, 0i64), |(b, s), c| match c {
            '{' => (b + 1, s),
            '}' => (b - 1, s),
            '[' => (b, s + 1),
            ']' => (b, s - 1),
            _ => (b, s),
        });
        assert_eq!(depth, (0, 0));
    }

    #[test]
    fn grouped_chrome_export_gives_each_shard_its_own_track_group() {
        let events = sample_events();
        let groups: Vec<(&str, &[TraceEvent])> =
            vec![("shard 0", &events), ("shard 1", &events), ("shard 2", &[])];
        let json = chrome_trace_json_grouped(&groups, Frequency::LEDA_E);
        // One process per group, named and sorted.
        for (pid, name) in [(1, "shard 0"), (2, "shard 1"), (3, "shard 2")] {
            assert!(
                json.contains(&format!(
                    r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":"{name}"}}}}"#
                )),
                "missing process_name for {name}"
            );
        }
        // Event rows land on their group's pid.
        assert!(json.contains(r#""ph":"i","s":"t","ts":0.000,"pid":1"#));
        assert!(json.contains(r#""ph":"i","s":"t","ts":0.000,"pid":2"#));
        // Balanced structure.
        let depth = json.chars().fold((0i64, 0i64), |(b, s), c| match c {
            '{' => (b + 1, s),
            '}' => (b - 1, s),
            '[' => (b, s + 1),
            ']' => (b, s - 1),
            _ => (b, s),
        });
        assert_eq!(depth, (0, 0));
        // The single-group export is the one-device special case.
        assert_eq!(
            chrome_trace_json(&events, Frequency::LEDA_E),
            chrome_trace_json_grouped(&[("device", events.as_slice())], Frequency::LEDA_E)
        );
    }

    #[test]
    fn prometheus_text_renders_counters_and_stages() {
        let mut stats = QueueStats {
            submitted: 5,
            completed: 4,
            failed: 1,
            ..QueueStats::default()
        };
        let tenant = stats.per_tenant.entry(7).or_default();
        tenant.submitted = 5;
        tenant.completed = 4;
        tenant.shed = 1;
        tenant.total_latency = std::time::Duration::from_millis(250);
        let text = prometheus_text(&stats);
        assert!(text.contains("apu_queue_submitted_total 5"));
        assert!(text.contains("apu_queue_completed_total 4"));
        assert!(text.contains("apu_queue_stage_seconds_total{stage=\"dma\"}"));
        assert!(text.contains("apu_tenant_tasks_total{tenant=\"7\",state=\"completed\"} 4"));
        assert!(text.contains("apu_tenant_tasks_total{tenant=\"7\",state=\"shed\"} 1"));
        assert!(text.contains("apu_tenant_stage_seconds_total{tenant=\"7\",stage=\"queue_wait\"}"));
        assert!(text.contains("apu_tenant_latency_seconds_total{tenant=\"7\"} 0.250000000"));
        // Queues that never saw tenant-tagged work emit no tenant series.
        let untagged = prometheus_text(&QueueStats::default());
        assert!(!untagged.contains("apu_tenant_"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "line: {line}");
        }
    }
}
