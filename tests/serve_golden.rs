//! Stored-value goldens for the sharded server.
//!
//! Six fixed serving workloads each walk their whole [`ServeReport`] —
//! every [`QueryCompletion`] field, every device's [`QueueStats`], the
//! replica, IVF and corpus counters, `rejected` and
//! [`ServeReport::prometheus_text`] — field by field into one canonical
//! text (durations in nanoseconds, errors by `Display`), and pin its
//! 64-bit FNV-1a digest. One traced run pins its
//! [`ShardedRagServer::take_chrome_trace`] document too.
//!
//! The replay goldens (`golden_trace.rs`, `timing_golden.rs`) compare two
//! runs of one build, so they cannot see a drift between commits; these
//! constants can. Every workload builds its [`SimConfig`] explicitly
//! (execution mode, fast-forward, L4 size), so none of CI's environment
//! axes moves them. A digest changed on purpose is re-pinned together with
//! the reason in CHANGES.md; a failing assertion prints the new value.

use std::fmt::{Display, Write};
use std::time::Duration;

use apu_sim::{
    AdmissionControl, ExecMode, FaultPlan, Priority, QueueConfig, QueueStats, SchedPolicy,
    SimConfig, StageBreakdown, TenantId, TenantStats,
};
use rag::{
    ClusteredCorpus, CorpusSpec, CorpusStats, EmbeddingStore, IndexMode, IvfStats, QueryCompletion,
    QuerySpec, ReplicaStats, ServeConfig, ServeReport, ShardedRagServer,
};

/// The canonical text of one or more reports.
#[derive(Default)]
struct Canon(String);

impl Canon {
    fn put(&mut self, name: &str, value: impl Display) {
        // Writing to a String cannot fail.
        let _ = writeln!(self.0, "{name}={value}");
    }

    fn ns(&mut self, name: &str, d: Duration) {
        self.put(name, d.as_nanos());
    }

    fn stages(&mut self, s: &StageBreakdown) {
        let StageBreakdown {
            queue_wait,
            dispatch,
            dma,
            device,
        } = *s;
        self.ns("stage.queue_wait", queue_wait);
        self.ns("stage.dispatch", dispatch);
        self.ns("stage.dma", dma);
        self.ns("stage.device", device);
    }

    fn completion(&mut self, c: &QueryCompletion) {
        let QueryCompletion {
            ticket,
            tenant,
            arrival,
            started_at,
            finished_at,
            batch_size,
            attempts,
            stages,
            shards_ok,
            shards_total,
            hedged,
            failovers,
            outcome,
        } = c;
        self.put("ticket", ticket.id());
        self.put("tenant", tenant.get());
        self.ns("arrival", *arrival);
        self.ns("started_at", *started_at);
        self.ns("finished_at", *finished_at);
        self.put("batch_size", batch_size);
        self.put("attempts", attempts);
        self.stages(stages);
        self.put("shards_ok", shards_ok);
        self.put("shards_total", shards_total);
        self.put("hedged", hedged);
        self.put("failovers", failovers);
        match outcome {
            Ok(hits) => {
                for h in hits {
                    self.put("hit", format_args!("{}:{}", h.chunk, h.score));
                }
            }
            Err(e) => self.put("error", e),
        }
    }

    fn tenant(&mut self, id: u64, t: &TenantStats) {
        let TenantStats {
            submitted,
            completed,
            failed,
            expired,
            shed,
            total_wait,
            total_latency,
            stage_dispatch,
            stage_dma,
            stage_device,
        } = t;
        self.put("tenant", id);
        self.put("t.submitted", submitted);
        self.put("t.completed", completed);
        self.put("t.failed", failed);
        self.put("t.expired", expired);
        self.put("t.shed", shed);
        self.ns("t.total_wait", *total_wait);
        self.ns("t.total_latency", *total_latency);
        self.ns("t.stage_dispatch", *stage_dispatch);
        self.ns("t.stage_dma", *stage_dma);
        self.ns("t.stage_device", *stage_device);
    }

    fn queue(&mut self, q: &QueueStats) {
        let QueueStats {
            submitted,
            rejected,
            completed,
            failed,
            expired,
            shed_admission,
            retries,
            dispatches,
            dispatched_tasks,
            max_batch_size,
            peak_pending,
            total_wait,
            total_service,
            total_latency,
            stage_dispatch,
            stage_dma,
            stage_device,
            latency_samples,
            busy,
            makespan,
            cores,
            per_tenant,
        } = q;
        self.put("q.submitted", submitted);
        self.put("q.rejected", rejected);
        self.put("q.completed", completed);
        self.put("q.failed", failed);
        self.put("q.expired", expired);
        self.put("q.shed_admission", shed_admission);
        self.put("q.retries", retries);
        self.put("q.dispatches", dispatches);
        self.put("q.dispatched_tasks", dispatched_tasks);
        self.put("q.max_batch_size", max_batch_size);
        self.put("q.peak_pending", peak_pending);
        self.ns("q.total_wait", *total_wait);
        self.ns("q.total_service", *total_service);
        self.ns("q.total_latency", *total_latency);
        self.ns("q.stage_dispatch", *stage_dispatch);
        self.ns("q.stage_dma", *stage_dma);
        self.ns("q.stage_device", *stage_device);
        self.put("q.samples_seen", latency_samples.seen());
        self.put("q.samples_cap", latency_samples.cap());
        for s in latency_samples.as_slice() {
            self.ns("q.sample", *s);
        }
        self.ns("q.busy", *busy);
        self.ns("q.makespan", *makespan);
        self.put("q.cores", cores);
        for (id, t) in per_tenant {
            self.tenant(*id, t);
        }
    }

    fn report(&mut self, r: &ServeReport) {
        let ServeReport {
            completions,
            queue,
            shards,
            replica,
            ivf,
            corpus,
            rejected,
        } = r;
        for c in completions {
            self.completion(c);
        }
        self.queue(queue);
        for (d, q) in shards.iter().enumerate() {
            self.put("device", d);
            self.queue(q);
        }
        let ReplicaStats {
            groups,
            per_shard,
            failovers,
            down,
            failover_served,
        } = *replica;
        self.put("r.groups", groups);
        self.put("r.per_shard", per_shard);
        self.put("r.failovers", failovers);
        self.put("r.down", down);
        self.put("r.failover_served", failover_served);
        let IvfStats {
            searches,
            queries,
            probes,
            clusters_scanned,
            candidates,
        } = *ivf;
        self.put("ivf.searches", searches);
        self.put("ivf.queries", queries);
        self.put("ivf.probes", probes);
        self.put("ivf.clusters_scanned", clusters_scanned);
        self.put("ivf.candidates", candidates);
        let CorpusStats {
            live_docs,
            base_docs,
            delta_docs,
            delta_segments,
            delta_bytes,
            tombstones,
            inserts,
            deletes,
            snapshots,
            compactions,
            compaction_failures,
        } = *corpus;
        self.put("c.live_docs", live_docs);
        self.put("c.base_docs", base_docs);
        self.put("c.delta_docs", delta_docs);
        self.put("c.delta_segments", delta_segments);
        self.put("c.delta_bytes", delta_bytes);
        self.put("c.tombstones", tombstones);
        self.put("c.inserts", inserts);
        self.put("c.deletes", deletes);
        self.put("c.snapshots", snapshots);
        self.put("c.compactions", compactions);
        self.put("c.compaction_failures", compaction_failures);
        self.put("rejected", rejected);
        self.0.push_str(&r.prometheus_text());
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the canonical walk over every report of one workload.
fn digest(reports: &[ServeReport]) -> u64 {
    let mut canon = Canon::default();
    for (i, r) in reports.iter().enumerate() {
        canon.put("drain", i);
        canon.report(r);
    }
    fnv1a(&canon.0)
}

/// The device every workload runs on, fixed independently of the
/// environment.
fn sim(mode: ExecMode) -> SimConfig {
    SimConfig::leda_e()
        .with_exec_mode(mode)
        .with_fast_forward(false)
        .with_l4_bytes(8 << 20)
}

fn materialized(chunks: usize, seed: u64) -> EmbeddingStore {
    EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks,
        },
        seed,
    )
}

fn check(name: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{name}: digest {got:#018x} differs from the pinned {pinned:#018x}"
    );
}

/// Three two-core shards batching up to 4 reads, every read hedged 30 µs
/// after its primary, a 20 ms TTL and tracing on. Tickets arrive in a permuted order, so
/// submission order differs from arrival order.
fn hedged_three_shards() -> (ServeReport, String) {
    let st = materialized(3_000, 11);
    let cfg = ServeConfig {
        max_batch: 4,
        hedge: Some(Duration::from_micros(30)),
        ttl: Some(Duration::from_millis(20)),
        ..ServeConfig::default()
    };
    let mut server = ShardedRagServer::new(&st, 3, sim(ExecMode::Functional).with_cores(2), cfg)
        .expect("server");
    server.enable_tracing();
    for i in 0..20u64 {
        let slot = (i * 7) % 20;
        server
            .submit(Duration::from_micros(10 * slot), st.query(i))
            .expect("submit");
    }
    let report = server.drain().expect("drain");
    let trace = server.take_chrome_trace().expect("tracing was enabled");
    (report, trace)
}

/// Two shards × two replicas with shard 0's first replica failing every
/// task: its reads fail over to the surviving replica. Arrivals are
/// permuted against ticket order.
fn killed_replica() -> ServeReport {
    let st = materialized(2_000, 12);
    let cfg = ServeConfig {
        replicas: 2,
        ..ServeConfig::default()
    };
    let mut server = ShardedRagServer::new(&st, 2, sim(ExecMode::Functional), cfg).expect("server");
    server.inject_faults_replica(0, 0, FaultPlan::new(5).fail_every_kth_task(1));
    for i in 0..16u64 {
        let slot = (i * 5) % 16;
        server
            .submit(Duration::from_micros(40 * slot), st.query(i))
            .expect("submit");
    }
    server.drain().expect("drain")
}

/// `SloAware` on one single-core device: two tenants (tenant 1 weighs
/// 3, tenant 0 submits at low priority), admission watermarks that shed
/// the backlog, and tight TTLs that expire queries before they start.
fn slo_two_tenants() -> ServeReport {
    let st = materialized(4_096, 13);
    let cfg = ServeConfig {
        max_batch: 2,
        ttl: Some(Duration::from_millis(2)),
        queue: QueueConfig::default()
            .with_scheduler(SchedPolicy::SloAware)
            .with_tenant_weight(TenantId::new(1), 3)
            .with_admission(AdmissionControl::new(3, 6)),
        ..ServeConfig::default()
    };
    let mut server = ShardedRagServer::new(&st, 1, sim(ExecMode::Functional).with_cores(1), cfg)
        .expect("server");
    for i in 0..36u64 {
        let tenant = i % 2;
        let mut spec = QuerySpec::new(Duration::from_micros(15 * i), st.query(i))
            .tenant(TenantId::new(tenant));
        if tenant == 0 {
            spec = spec.priority(Priority::Low);
        }
        if i % 5 == 0 {
            spec = spec.ttl(Duration::from_micros(200));
        }
        server.submit_query(spec).expect("submit");
    }
    server.drain().expect("drain")
}

/// A mutable two-shard server: inserts and deletes between admissions,
/// one compaction that applies (shard 0) and one that fails on its only
/// attempt (shard 1), then a second drain over the compacted base.
fn mutable_churn() -> Vec<ServeReport> {
    let st = materialized(800, 14);
    let mut server =
        ShardedRagServer::new_mutable(&st, 2, sim(ExecMode::Functional), ServeConfig::default())
            .expect("server");
    for i in 0..4u64 {
        server
            .submit(Duration::from_micros(30 * (3 - i)), st.query(i))
            .expect("submit");
    }
    for i in 0..3u64 {
        server.insert_doc(&st.query(500 + i)).expect("insert");
    }
    assert!(server.delete_doc(7).expect("mutable"));
    assert!(server.delete_doc(650).expect("mutable"));
    for i in 4..8u64 {
        server
            .submit(Duration::from_micros(25 * i), st.query(i))
            .expect("submit");
    }
    server
        .request_compaction(0, Duration::from_micros(40))
        .expect("shard in range")
        .expect("shard 0 has work");
    let doomed = server
        .request_compaction(1, Duration::from_micros(10))
        .expect("shard in range")
        .expect("shard 1 has work");
    server.inject_faults(1, FaultPlan::new(3).fail_batch_key_times(doomed.key, 1));
    let first = server.drain().expect("drain");
    server.insert_doc(&st.query(600)).expect("insert");
    for i in 8..12u64 {
        server
            .submit(Duration::from_micros(500 + 20 * i), st.query(i))
            .expect("submit");
    }
    let second = server.drain().expect("drain");
    vec![first, second]
}

/// A compaction plan at interactive priority arriving at the same
/// instant as a query, on one single-core device that batches nothing:
/// the plan is submitted first, so it dispatches before that query.
fn tied_compaction() -> ServeReport {
    let st = materialized(600, 16);
    let cfg = ServeConfig {
        batch_window: Duration::ZERO,
        compaction_priority: Priority::Normal,
        ..ServeConfig::default()
    };
    let sim = sim(ExecMode::Functional).with_cores(1);
    let mut server = ShardedRagServer::new_mutable(&st, 1, sim, cfg).expect("server");
    server.insert_doc(&st.query(700)).expect("insert");
    server
        .request_compaction(0, Duration::from_micros(50))
        .expect("shard in range")
        .expect("the insert left work");
    for i in 0..3u64 {
        server
            .submit(Duration::from_micros(50 * i), st.query(i))
            .expect("submit");
    }
    server.drain().expect("drain")
}

/// Functional IVF (8 lists, 2 probes) on a clustered two-shard mutable
/// corpus: a first drain builds both base indexes, a compaction replaces
/// shard 0's base, and two more drains serve over the new base.
fn ivf_compaction() -> Vec<ServeReport> {
    let corpus = ClusteredCorpus::new(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 1_200,
        },
        8,
        1,
        15,
    );
    let cfg = ServeConfig {
        index: IndexMode::Ivf {
            nlist: 8,
            nprobe: 2,
        },
        ..ServeConfig::default()
    };
    let mut server =
        ShardedRagServer::new_mutable(&corpus.store, 2, sim(ExecMode::Functional), cfg)
            .expect("server");
    let mut reports = Vec::new();
    for round in 0..3u64 {
        for i in 0..6u64 {
            let q = corpus.query_near((i + round) as usize, 100 * round + i);
            server
                .submit(Duration::from_micros(1_000 * round + 30 * i), q)
                .expect("submit");
        }
        if round == 0 {
            server
                .insert_doc(&corpus.query_near(3, 999))
                .expect("insert");
            assert!(server.delete_doc(4).expect("mutable"));
            server
                .request_compaction(0, Duration::from_micros(50))
                .expect("shard in range")
                .expect("shard 0 has work");
        }
        reports.push(server.drain().expect("drain"));
    }
    reports
}

#[test]
fn hedged_three_shard_report_and_trace_are_pinned() {
    let (report, trace) = hedged_three_shards();
    assert_eq!(report.completions.len(), 20);
    assert!(report.completions.iter().any(|c| c.hedged), "a hedge wins");
    check("hedged report", digest(&[report]), 0xadc7_d625_9e49_15ea);
    check("hedged trace", fnv1a(&trace), 0x9bea_4a9a_acb7_6957);
}

#[test]
fn killed_replica_report_is_pinned() {
    let report = killed_replica();
    assert!(report.replica.failovers > 0, "the dead replica fails over");
    check("killed replica", digest(&[report]), 0x961e_08b1_e170_acd9);
}

#[test]
fn slo_two_tenant_report_is_pinned() {
    let report = slo_two_tenants();
    assert!(report.queue.expired > 0, "some queries outlive their TTL");
    assert!(report.queue.shed_admission > 0, "the backlog is shed");
    check("slo two tenants", digest(&[report]), 0xe1b0_3529_64fe_c107);
}

#[test]
fn mutable_churn_reports_are_pinned() {
    let reports = mutable_churn();
    assert_eq!(reports[0].corpus.compactions, 1);
    assert_eq!(reports[0].corpus.compaction_failures, 1);
    check("mutable churn", digest(&reports), 0x4731_a3e8_566c_0f31);
}

#[test]
fn tied_compaction_report_is_pinned() {
    let report = tied_compaction();
    assert_eq!(report.corpus.compactions, 1);
    check("tied compaction", digest(&[report]), 0x24f9_695f_54bd_cde5);
}

#[test]
fn ivf_compaction_reports_are_pinned() {
    let reports = ivf_compaction();
    assert_eq!(reports[0].corpus.compactions, 1);
    assert!(reports.iter().all(|r| r.ivf.searches > 0));
    check("ivf compaction", digest(&reports), 0x80da_cdb3_1057_b0eb);
}
