//! Per-layer metrics of a traced run: counters the layers already expose
//! for round 0, plus probes — timed calls into one layer's public
//! functions with the shapes the workload produced. A layer the workload
//! bypasses reports 0.

use std::any::Any;
use std::hint::black_box;
use std::time::{Duration, Instant};

use apu_sim::{
    ApuDevice, BatchKey, Cycles, DeviceQueue, ExecMode, MemoCounters, QueueConfig, StageBreakdown,
    TaskReport, TaskSpec, VcuStats,
};
use hbm_sim::{DramSpec, MemorySystem};
use rag::{
    merge_top_k, retrieve_batch, CorpusStats, EmbeddingStore, Hit, IvfIndex, MutableCorpus,
    ServeReport, ShardedRagServer, MAX_BATCH,
};

use crate::trace::Tracer;
use crate::{m, Burst, Corpus, Inputs, Metric, Workload, K, MAX_PENDING, NLIST, NPROBE};

/// Host time a probe spends repeating its call, at least.
const PROBE_BUDGET: Duration = Duration::from_millis(200);

/// What a traced run measured before its probes.
pub struct LayerInputs<'a> {
    pub workload: Workload,
    pub inputs: &'a Inputs,
    pub corpus: &'a Corpus,
    pub server: &'a ShardedRagServer,
    pub round0: &'a ServeReport,
    pub before_drain: CorpusStats,
    /// Device counter deltas over round 0, summed over devices.
    pub memo: MemoCounters,
    pub vcu: VcuStats,
    pub script: &'a [Burst],
    /// Mean recall@10 of the simulated rounds; 0 without a ground truth.
    pub recall: f64,
    /// Medians over rounds, in host seconds.
    pub submit_s: f64,
    pub write_s: f64,
    pub drain_s: f64,
    pub fail_frac: f64,
    pub host_qps_untraced: f64,
    pub host_qps_traced: f64,
}

/// Mean host nanoseconds of `call`, repeated for [`PROBE_BUDGET`] (at
/// least three times).
fn per_call_ns(mut call: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < PROBE_BUDGET {
        call()?;
        calls += 1;
    }
    Ok(start.elapsed().as_nanos() as f64 / f64::from(calls))
}

/// Runs one probe inside a span named `name`.
fn probe(
    tr: &mut Tracer,
    name: &str,
    f: impl FnOnce() -> Result<f64, String>,
) -> Result<f64, String> {
    tr.span(name, None, |_| f()).0
}

fn err(what: &str) -> impl Fn(apu_sim::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Host ns per dispatch of a `DeviceQueue` draining no-op batch tasks:
/// the scheduler's own cost, with no kernel behind it.
fn queue_probe_ns(w: Workload) -> Result<f64, String> {
    const TASKS: u64 = 4096;
    let sim = w.sim_config().with_exec_mode(ExecMode::TimingOnly);
    let mut dev = ApuDevice::try_new(sim).map_err(err("probe device"))?;
    let cfg = QueueConfig::default()
        .with_max_pending(MAX_PENDING)
        .with_max_batch(MAX_BATCH)
        .with_max_batch_wait(Duration::from_millis(2));
    let mut per_dispatch = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let mut queue = DeviceQueue::new(&mut dev, cfg.clone());
        for i in 0..TASKS {
            let run: apu_sim::queue::BatchRunner<'_> =
                Box::new(|_, payloads: Vec<Box<dyn Any>>| {
                    let report = TaskReport {
                        cycles: Cycles::new(500),
                        duration: Duration::from_micros(1),
                        stats: VcuStats::default(),
                        cores_used: 1,
                    };
                    Ok((report, payloads.into_iter().map(Ok).collect()))
                });
            let spec = TaskSpec::batch(BatchKey::new(1), Box::new(()), run)
                .at(Duration::from_micros(50 * i));
            queue.submit(spec).map_err(err("probe submit"))?;
        }
        queue.drain().map_err(err("probe drain"))?;
        let dispatches = queue.stats().dispatches.max(1);
        per_dispatch.push(start.elapsed().as_nanos() as f64 / dispatches as f64);
    }
    Ok(crate::median(&per_dispatch))
}

/// Host ns of one `rag::retrieve_batch` of `MAX_BATCH` queries on
/// `store`; with fast-forward on, after one warming call, so every timed
/// call is a replay.
fn batch_ns(
    sim: apu_sim::SimConfig,
    store: &EmbeddingStore,
    queries: &[Vec<i16>],
) -> Result<f64, String> {
    let ff = sim.fast_forward;
    let mut dev = ApuDevice::try_new(sim).map_err(err("probe device"))?;
    let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let mut call = || {
        retrieve_batch(&mut dev, &mut hbm, store, queries, K)
            .map(|r| {
                black_box(r);
            })
            .map_err(err("probe batch"))
    };
    if ff {
        call()?;
    }
    per_call_ns(call)
}

/// The batch of queries the probes run: round 0's first `MAX_BATCH`.
fn probe_queries(script: &[Burst]) -> Vec<Vec<i16>> {
    script
        .iter()
        .flat_map(|b| &b.queries)
        .take(MAX_BATCH)
        .map(|(_, q)| q.clone())
        .collect()
}

pub fn per_layer(l: &LayerInputs<'_>, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let w = l.workload;
    let r = l.round0;
    let q = &r.queue;
    let served = r.served().max(1) as f64;
    let queries = probe_queries(l.script);
    let shard0 = l.server.shards()[0].store.clone();
    let timing = !w.sim_config().exec_mode.is_functional();

    let queue_ns = probe(tr, "probe.queue", || queue_probe_ns(w))?;
    let (walk_ns, replay_ns) = if timing {
        let sim = w.sim_config();
        (
            probe(tr, "probe.walk", || {
                batch_ns(sim.clone().with_fast_forward(false), &shard0, &queries)
            })?,
            probe(tr, "probe.replay", || {
                batch_ns(sim.clone().with_fast_forward(true), &shard0, &queries)
            })?,
        )
    } else {
        (0.0, 0.0)
    };
    // The gvml interpreter runs only functionally: time one batch kernel
    // on a store the size of one IVF cluster.
    let gvml_ns = match l.corpus {
        Corpus::Clustered(c) => {
            let chunks = l.inputs.chunks / NLIST;
            let data = c.store.raw()[..chunks * rag::corpus::EMBED_DIM].to_vec();
            let cluster = EmbeddingStore::from_embeddings(0, data, c.store.seed());
            probe(tr, "probe.gvml", || {
                batch_ns(w.sim_config(), &cluster, &queries)
            })?
        }
        Corpus::SizeOnly(_) => 0.0,
    };

    // One shard's embedding stream on a fresh memory system.
    let mut stream = None;
    let hbm_ns = probe(tr, "probe.hbm", || {
        per_call_ns(|| {
            let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
            let res = hbm.stream_read(0, shard0.spec().embedding_bytes());
            stream = Some((res, hbm.stats()));
            Ok(())
        })
    })?;
    let (stream, hbm_stats) = stream.expect("the stream probe ran");

    let (ivf_build_s, ivf_search_ns) = match l.corpus {
        Corpus::Clustered(_) => {
            let (index, built) =
                tr.span("probe.ivf_build", None, |_| IvfIndex::build(&shard0, NLIST));
            let search = probe(tr, "probe.ivf_search", || {
                let mut dev = ApuDevice::try_new(w.sim_config()).map_err(err("probe device"))?;
                let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
                per_call_ns(|| {
                    index
                        .search_batch(&mut dev, &mut hbm, &queries, K, NPROBE)
                        .map(|s| {
                            black_box(s);
                        })
                        .map_err(err("probe search"))
                })
            })?;
            (built.as_secs_f64(), search)
        }
        Corpus::SizeOnly(_) => (0.0, 0.0),
    };

    let (snapshot_ns, compaction_ms) = if w == Workload::ChurnFf {
        probe_mutable(l, tr)?
    } else {
        (0.0, 0.0)
    };

    // Top-k merge over the lists one query's answer is merged from: one
    // per shard, or one per probed cluster on IVF.
    let lists = if w == Workload::AnnIvf {
        NPROBE
    } else {
        l.inputs.shards
    };
    let merge_ns = probe(tr, "probe.topk", || {
        let mut rng = crate::Rng::new(7);
        let parts: Vec<Vec<Hit>> = (0..lists)
            .map(|p| {
                let mut hits: Vec<Hit> = (0..K)
                    .map(|i| Hit {
                        chunk: (p * K + i) as u32,
                        score: (rng.next_u64() % 4096) as i32,
                    })
                    .collect();
                hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.chunk.cmp(&b.chunk)));
                hits
            })
            .collect();
        const REPS: usize = 20_000;
        let inputs: Vec<Vec<Vec<Hit>>> = vec![parts; REPS];
        let start = Instant::now();
        for p in inputs {
            black_box(merge_top_k(p, K));
        }
        Ok(start.elapsed().as_nanos() as f64 / REPS as f64)
    })?;

    // Each served query's stages come from its critical shard and sum to
    // its latency.
    let mut stages = StageBreakdown::default();
    for c in r.completions.iter().filter(|c| c.is_ok()) {
        stages.accumulate(&c.stages);
    }
    let per_query_ms = |d: Duration| d.as_secs_f64() * 1e3 / served;
    let memo = l.memo;
    let memo_runs = (memo.hits + memo.misses + memo.bypassed).max(1) as f64;
    let ivf = r.ivf;
    let corpus_chunks = l.corpus.store().spec().chunks as f64;
    Ok(vec![
        m("serve.submit_s", "s", l.submit_s),
        m("serve.drain_s", "s", l.drain_s),
        m("serve.write_s", "s", l.write_s),
        m("serve.fail_frac", "fraction", l.fail_frac),
        m("queue.dispatches", "count", q.dispatches as f64),
        m("queue.mean_batch", "queries", q.mean_batch_size()),
        m("queue.occupancy", "fraction", q.occupancy()),
        m(
            "queue.wait_ms",
            "ms",
            q.total_wait.as_secs_f64() * 1e3 / q.completed.max(1) as f64,
        ),
        m("queue.rejected", "count", q.rejected as f64),
        m("queue.shed", "count", (q.expired + q.shed_admission) as f64),
        m("queue.probe_ns_per_dispatch", "ns", queue_ns),
        m("device.memo_hits", "count", memo.hits as f64),
        m("device.memo_misses", "count", memo.misses as f64),
        m("device.memo_bypassed", "count", memo.bypassed as f64),
        m(
            "device.memo_hit_ratio",
            "fraction",
            memo.hits as f64 / memo_runs,
        ),
        m("device.issue_ms", "ms", per_query_ms(stages.dispatch)),
        m("device.dma_ms", "ms", per_query_ms(stages.dma)),
        m("device.compute_ms", "ms", per_query_ms(stages.device)),
        m("device.commands", "count", l.vcu.commands as f64),
        m(
            "device.compute_cycles",
            "count",
            l.vcu.compute_cycles as f64,
        ),
        m("device.dma_cycles", "count", l.vcu.dma_cycles as f64),
        m("device.walk_ns_per_batch", "ns", walk_ns),
        m("device.replay_ns_per_batch", "ns", replay_ns),
        m("gvml.kernel_ns_per_batch", "ns", gvml_ns),
        m("hbm.stream_ns", "ns", hbm_ns),
        m("hbm.stream_ms", "ms", stream.millis()),
        m("hbm.gbps", "GB/s", stream.bandwidth_gbps()),
        m("hbm.row_hit_rate", "fraction", hbm_stats.hit_rate()),
        m("ivf.build_s", "s", ivf_build_s),
        m(
            "ivf.candidate_frac",
            "fraction",
            ivf.candidates as f64 / (ivf.queries as f64 * corpus_chunks).max(1.0),
        ),
        m(
            "ivf.clusters_per_dispatch",
            "count",
            ivf.clusters_scanned as f64 / ivf.searches.max(1) as f64,
        ),
        m("ivf.search_ns_per_batch", "ns", ivf_search_ns),
        m("ivf.recall_at_10", "fraction", l.recall),
        m("mutable.snapshots", "count", r.corpus.snapshots as f64),
        m(
            "mutable.delta_segments",
            "count",
            l.before_drain.delta_segments as f64,
        ),
        m("mutable.compactions", "count", r.corpus.compactions as f64),
        m(
            "mutable.compaction_failures",
            "count",
            r.corpus.compaction_failures as f64,
        ),
        m("mutable.snapshot_ns", "ns", snapshot_ns),
        m("mutable.compaction_ms", "ms", compaction_ms),
        m("topk.merge_ns", "ns", merge_ns),
        m("trace.host_qps", "queries/s", l.host_qps_traced),
        m(
            "trace.overhead_frac",
            "fraction",
            1.0 - l.host_qps_traced / l.host_qps_untraced,
        ),
    ])
}

/// `churn_ff` only: host ns of publishing a snapshot after one insert,
/// and the simulated service time of one shard's merge after a round's
/// worth of writes.
fn probe_mutable(l: &LayerInputs<'_>, tr: &mut Tracer) -> Result<(f64, f64), String> {
    let store = l.corpus.store();
    let shards = l.inputs.shards;
    let doc = store.query(1 << 40);
    let snapshot_ns = probe(tr, "probe.snapshot", || {
        let mut corpus = MutableCorpus::new(store, shards);
        let mut total = Duration::ZERO;
        let mut calls = 0u32;
        while calls < 3 || total < PROBE_BUDGET {
            corpus.insert(&doc).map_err(err("probe insert"))?;
            let start = Instant::now();
            black_box(corpus.snapshot());
            total += start.elapsed();
            calls += 1;
        }
        Ok(total.as_nanos() as f64 / f64::from(calls))
    })?;
    let compaction_ms = probe(tr, "probe.compaction", || {
        let mut corpus = MutableCorpus::new(store, shards);
        for burst in l.script {
            for e in &burst.inserts {
                corpus.insert(e).map_err(err("probe insert"))?;
            }
            for &d in &burst.deletes {
                corpus.delete(d);
            }
            corpus.snapshot();
        }
        corpus
            .request_compaction(0, Duration::ZERO)
            .map_err(err("probe compaction request"))?
            .ok_or("probe shard had nothing to compact")?;
        let plans = corpus.take_plans();
        let mut dev = ApuDevice::try_new(l.workload.sim_config()).map_err(err("probe device"))?;
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let (report, _) = rag::mutable::run_compaction_task(&mut dev, &mut hbm, &plans[0])
            .map_err(err("probe compaction"))?;
        Ok(report.duration.as_secs_f64() * 1e3)
    })?;
    Ok((snapshot_ns, compaction_ms))
}
