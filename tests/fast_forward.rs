//! Timing fast-forward must be observably invisible: the same workload
//! run with memoized replay enabled and disabled books byte-identical
//! cycles, statistics, and results (DESIGN.md §5i). Only wall-clock may
//! differ.
//!
//! The replay guards (timing-only mode, no trace sink, idle DMA
//! engines) are unit-tested in `apu-sim`; this test pins the end-to-end
//! property on the real RAG batch kernel and on a fault-injected serving
//! stream, the paths `serve_qps --smoke` and `serve_failover` accelerate.
//! An armed fault plan does not bypass the cache: its triggers fire at
//! the queue's dispatch gate, before any kernel runs.

use std::time::Duration;

use apu_sim::{ApuDevice, ExecMode, FaultPlan, QueueConfig, RetryPolicy, SimConfig};
use hbm_sim::{DramSpec, MemorySystem};
use rag::{retrieve_batch, CorpusSpec, EmbeddingStore, ServeConfig, ShardedRagServer};

fn timing_device(fast_forward: bool) -> ApuDevice {
    ApuDevice::new(
        SimConfig::default()
            .with_exec_mode(ExecMode::TimingOnly)
            .with_l4_bytes(1 << 20)
            .with_fast_forward(fast_forward),
    )
}

/// Runs the batched retrieval kernel several times (same signature) and
/// returns the per-call reports plus the final core clock.
fn run_batches(dev: &mut ApuDevice, n_calls: usize) -> (Vec<apu_sim::TaskReport>, u64) {
    let store = EmbeddingStore::size_only(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 100_000,
        },
        7,
    );
    let queries: Vec<Vec<i16>> = (0..4).map(|i| store.query(i)).collect();
    let mut reports = Vec::new();
    for _ in 0..n_calls {
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let r = retrieve_batch(dev, &mut hbm, &store, &queries, 5).unwrap();
        assert!(
            r.hits.iter().all(Vec::is_empty),
            "timing mode returns no hits"
        );
        reports.push(r.report);
    }
    let cycles = dev.core(0).unwrap().cycles().get();
    (reports, cycles)
}

#[test]
fn fast_forward_replays_are_byte_identical_to_normal_runs() {
    let mut normal = timing_device(false);
    let mut ff = timing_device(true);
    let (reports_n, cycles_n) = run_batches(&mut normal, 4);
    let (reports_f, cycles_f) = run_batches(&mut ff, 4);
    assert_eq!(reports_n, reports_f);
    assert_eq!(cycles_n, cycles_f);
    assert_eq!(normal.stats_total(), ff.stats_total());
    // The fast-forward device actually replayed: first call recorded,
    // the rest hit the cache.
    assert_eq!(ff.memo_counters().misses, 1);
    assert_eq!(ff.memo_counters().hits, 3);
    assert_eq!(normal.memo_counters().hits, 0);
}

#[test]
fn fast_forward_reruns_on_signature_change() {
    let mut dev = timing_device(true);
    let store = EmbeddingStore::size_only(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 50_000,
        },
        7,
    );
    let q1: Vec<Vec<i16>> = (0..1).map(|i| store.query(i)).collect();
    let q2: Vec<Vec<i16>> = (0..2).map(|i| store.query(i)).collect();
    let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let a = retrieve_batch(&mut dev, &mut hbm, &store, &q1, 5).unwrap();
    // Different batch size → different signature → fresh execution.
    let b = retrieve_batch(&mut dev, &mut hbm, &store, &q2, 5).unwrap();
    // Different k → different signature as well.
    let c = retrieve_batch(&mut dev, &mut hbm, &store, &q1, 7).unwrap();
    assert_eq!(dev.memo_counters().misses, 3);
    assert_eq!(dev.memo_counters().hits, 0);
    assert_ne!(a.report.cycles, b.report.cycles);
    // And replaying each signature again hits all three entries.
    retrieve_batch(&mut dev, &mut hbm, &store, &q1, 5).unwrap();
    retrieve_batch(&mut dev, &mut hbm, &store, &q2, 5).unwrap();
    retrieve_batch(&mut dev, &mut hbm, &store, &q1, 7).unwrap();
    assert_eq!(dev.memo_counters().hits, 3);
    let _ = c;
}

#[test]
fn fast_forward_memo_keys_include_the_corpus_epoch() {
    // Live-corpus segments carry an epoch ([`EmbeddingStore::epoch`]),
    // bumped whenever compaction produces a new base of possibly
    // identical shape. The memo key must include it: otherwise a
    // fast-forward replay could charge a pre-compaction segment's
    // cycles for a post-compaction scan. Same shape + different epoch
    // must miss; the same epoch scanned again must hit.
    let mut dev = timing_device(true);
    let spec = CorpusSpec {
        corpus_bytes: 0,
        chunks: 50_000,
    };
    let before = EmbeddingStore::size_only(spec, 7);
    let after = EmbeddingStore::size_only(spec, 7).with_epoch(9);
    let queries: Vec<Vec<i16>> = (0..2).map(|i| before.query(i)).collect();
    let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let a = retrieve_batch(&mut dev, &mut hbm, &before, &queries, 5).unwrap();
    let b = retrieve_batch(&mut dev, &mut hbm, &after, &queries, 5).unwrap();
    assert_eq!(
        dev.memo_counters().misses,
        2,
        "a new epoch of the same shape must not replay stale timing"
    );
    assert_eq!(dev.memo_counters().hits, 0);
    // Identical shape ⇒ identical charges; only the memo identity
    // differs.
    assert_eq!(a.report, b.report);
    // Re-scanning each epoch replays its own entry.
    retrieve_batch(&mut dev, &mut hbm, &before, &queries, 5).unwrap();
    retrieve_batch(&mut dev, &mut hbm, &after, &queries, 5).unwrap();
    assert_eq!(dev.memo_counters().hits, 2);
    assert_eq!(dev.memo_counters().misses, 2);
}

#[test]
fn functional_mode_ignores_fast_forward_and_stays_correct() {
    // In functional mode the fast-forward flag must change nothing: hits
    // are data-dependent, so every run executes.
    let mk = |ff: bool| {
        ApuDevice::new(
            SimConfig::default()
                .with_l4_bytes(8 << 20)
                .with_fast_forward(ff),
        )
    };
    let store = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 40_000,
        },
        77,
    );
    let queries: Vec<Vec<i16>> = (0..3).map(|i| store.query(i)).collect();
    let run = |dev: &mut ApuDevice| {
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        retrieve_batch(dev, &mut hbm, &store, &queries, 5).unwrap()
    };
    let mut dev_off = mk(false);
    let mut dev_on = mk(true);
    let off1 = run(&mut dev_off);
    let on1 = run(&mut dev_on);
    let on2 = run(&mut dev_on);
    assert_eq!(off1.hits, on1.hits);
    assert_eq!(on1.hits, on2.hits);
    assert!(!on1.hits[0].is_empty());
    assert_eq!(off1.report, on1.report);
    assert_eq!(dev_on.memo_counters().hits, 0);
}

#[test]
fn fault_injected_stream_replays_and_stays_byte_identical() {
    // A timing-only stream with a 20% task-fault rate and bounded
    // retries: the faults fire at the queue's dispatch gate, so the
    // replay cache stays in play and changes nothing observable.
    let store = EmbeddingStore::size_only(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 50_000,
        },
        7,
    );
    let serve = |ff: bool| {
        let cfg = ServeConfig {
            queue: QueueConfig {
                retry: Some(RetryPolicy::default()),
                ..QueueConfig::default()
            },
            ..ServeConfig::default()
        };
        let sim = SimConfig::default()
            .with_exec_mode(ExecMode::TimingOnly)
            .with_l4_bytes(1 << 20)
            .with_fast_forward(ff);
        let mut server = ShardedRagServer::new(&store, 1, sim, cfg).unwrap();
        server.inject_faults(0, FaultPlan::new(42).fail_task_rate(0.2));
        for i in 0..96u64 {
            server
                .submit(Duration::from_micros(50 * i), store.query(i))
                .unwrap();
        }
        let report = server.drain().unwrap();
        let dev = server.device_mut(0);
        (report, dev.memo_counters(), dev.fault_counts())
    };
    let (off, off_memo, off_faults) = serve(false);
    let (on, on_memo, on_faults) = serve(true);
    assert!(on.failed() > 0 || on.queue.retries > 0, "faults must fire");
    assert_eq!(off_faults, on_faults);
    assert_eq!(
        format!("{:?}", off.completions),
        format!("{:?}", on.completions)
    );
    assert_eq!(format!("{:?}", off.queue), format!("{:?}", on.queue));
    assert_eq!(off_memo.hits, 0);
    assert!(
        on_memo.hits > 0,
        "an armed fault plan must not bypass the replay cache: {on_memo:?}"
    );
}
