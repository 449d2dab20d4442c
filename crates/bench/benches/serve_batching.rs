//! Continuous batching vs one-query-per-dispatch serving at equal
//! offered load (DESIGN.md §6). Replays the same open-loop RAG query
//! stream through a one-device [`rag::ShardedRagServer`] twice — once
//! with the VR-limited continuous-batching dispatcher, once with
//! `max_batch = 1` — and
//! reports sustained QPS, tail latency, and dispatch counts on the
//! simulated timeline. Batched hits are asserted identical to the
//! unbatched hits before any number is printed.
//!
//! A second sweep re-serves the same stream with a deterministic
//! injected task-fault rate and retries enabled: every query that
//! still serves is asserted bitwise-identical to the fault-free run,
//! and failures surface as error completions rather than lost work.
//!
//! Plain `main` (no harness): simulated time is deterministic, so a
//! single replay per configuration is exact.
//!
//! Run with: `cargo bench -p cis-bench --bench serve_batching`

use std::collections::HashMap;
use std::time::Duration;

use apu_sim::{FaultPlan, RetryPolicy, SimConfig};
use rag::{CorpusSpec, EmbeddingStore, Hit, ServeConfig, ServeReport, ShardedRagServer};

/// One serving scenario: `queries` arrive `gap` apart on the virtual
/// timeline and drain through a fresh device. A non-zero `fault_rate`
/// arms a deterministic task-fault plan and bounded retries.
fn serve(
    store: &EmbeddingStore,
    queries: &[Vec<i16>],
    gap: Duration,
    max_batch: usize,
    fault_rate: f64,
) -> ServeReport {
    let cfg = ServeConfig {
        max_batch,
        retry: (fault_rate > 0.0).then(RetryPolicy::default),
        ..ServeConfig::default()
    };
    let sim = SimConfig::default().with_l4_bytes(16 << 20);
    let mut server = ShardedRagServer::new(store, 1, sim, cfg).expect("valid config");
    if fault_rate > 0.0 {
        server.inject_faults(0, FaultPlan::new(42).fail_task_rate(fault_rate));
    }
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(gap * i as u32, q.clone())
            .expect("submission under capacity");
    }
    server.drain().expect("drain")
}

fn hits_by_ticket(r: &ServeReport) -> HashMap<u64, Vec<Hit>> {
    r.completions
        .iter()
        .filter_map(|c| c.hits().map(|h| (c.ticket.id(), h.to_vec())))
        .collect()
}

fn main() {
    let store = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 16_384,
        },
        42,
    );

    println!("serve_batching: 16,384-chunk corpus, open-loop arrivals, k = 5");
    println!(
        "{:>8}  {:>8}  {:>10}  {:>10}  {:>9}  {:>10}  {:>10}",
        "queries", "gap_us", "mode", "QPS", "p50_ms", "p99_ms", "dispatches"
    );

    // Sweep offered load from comfortable to saturating. At light load
    // batching trades latency and throughput for nothing (one batch
    // under-fills the core pipeline); once arrivals outrun per-query
    // service the coalesced embedding stream wins on both axes.
    for &(n, gap_us) in &[(24usize, 200u64), (48, 50), (96, 50)] {
        let queries: Vec<Vec<i16>> = (0..n as u64).map(|i| store.query(i)).collect();
        let gap = Duration::from_micros(gap_us);

        let batched = serve(&store, &queries, gap, rag::MAX_BATCH, 0.0);
        let unbatched = serve(&store, &queries, gap, 1, 0.0);
        assert_eq!(
            hits_by_ticket(&batched),
            hits_by_ticket(&unbatched),
            "batched hits must be identical to per-query hits"
        );

        for (mode, report) in [("batched", &batched), ("unbatched", &unbatched)] {
            // Per-stage attribution of the total latency budget: queue
            // wait vs command issue vs DMA vs device compute. The four
            // shares sum to 100% by construction.
            let stages = report.stage_totals();
            let total = stages.total().as_secs_f64().max(f64::MIN_POSITIVE);
            let share = |d: Duration| 100.0 * d.as_secs_f64() / total;
            println!(
                "{:>8}  {:>8}  {:>10}  {:>10.0}  {:>9.2}  {:>10.2}  {:>10}  \
                 wait {:.0}% / dispatch {:.0}% / dma {:.0}% / device {:.0}%",
                n,
                gap_us,
                mode,
                report.throughput_qps(),
                report.latency_percentile(0.50).as_secs_f64() * 1e3,
                report.latency_percentile(0.99).as_secs_f64() * 1e3,
                report.queue.dispatches,
                share(stages.queue_wait),
                share(stages.dispatch),
                share(stages.dma),
                share(stages.device),
            );
        }
        println!(
            "{:>8}  {:>8}  {:>10}  speedup {:.2}x, mean batch {:.1}",
            "",
            "",
            "",
            batched.throughput_qps() / unbatched.throughput_qps(),
            batched.queue.mean_batch_size(),
        );
    }

    // ---- fault-rate sweep: failure containment under injection ----
    println!();
    println!("fault sweep: 48 queries, 50 µs gap, batched, bounded retries");
    println!(
        "{:>10}  {:>8}  {:>8}  {:>8}  {:>10}  {:>10}",
        "fault_rate", "served", "failed", "retries", "QPS", "p99_ms"
    );
    let queries: Vec<Vec<i16>> = (0..48u64).map(|i| store.query(i)).collect();
    let gap = Duration::from_micros(50);
    let clean = serve(&store, &queries, gap, rag::MAX_BATCH, 0.0);
    let clean_hits = hits_by_ticket(&clean);
    for &rate in &[0.0, 0.1, 0.3] {
        let faulted = serve(&store, &queries, gap, rag::MAX_BATCH, rate);
        assert_eq!(
            faulted.completions.len(),
            queries.len(),
            "every query must retire — served or failed, never dropped"
        );
        // Every query that survives the fault plan serves hits bitwise
        // identical to the fault-free run.
        for (ticket, hits) in hits_by_ticket(&faulted) {
            assert_eq!(
                &hits, &clean_hits[&ticket],
                "query {ticket} diverged from the fault-free run"
            );
        }
        println!(
            "{:>10.2}  {:>8}  {:>8}  {:>8}  {:>10.0}  {:>10.2}",
            rate,
            faulted.served(),
            faulted.failed(),
            faulted.queue.retries,
            faulted.throughput_qps(),
            faulted.latency_percentile(0.99).as_secs_f64() * 1e3,
        );
    }
}
