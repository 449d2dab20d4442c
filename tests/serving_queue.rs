//! Integration tests for the device command-queue serving engine:
//! mixed RAG + Phoenix traffic through one [`DeviceQueue`], priority
//! ordering, stats accounting against the device totals, and
//! byte-identical results between the queued and synchronous paths.

use std::time::Duration;

use apu_sim::{ApuDevice, DeviceQueue, Priority, QueueConfig, SimConfig, TaskSpec, VcuStats};
use hbm_sim::{DramSpec, MemorySystem};
use phoenix::{histogram, OptConfig};
use rag::{retrieve_batch, CorpusSpec, EmbeddingStore, Hit, ServeConfig, ShardedRagServer};

fn store(chunks: usize) -> EmbeddingStore {
    EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks,
        },
        7,
    )
}

#[test]
fn mixed_rag_and_phoenix_tasks_share_the_queue() {
    let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(16 << 20));
    let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let store = store(8192);
    let stats_before = dev.stats_total();

    let pixels = histogram::generate(30_000, 3);
    let queries: Vec<Vec<i16>> = (0..3).map(|i| store.query(i)).collect();

    let (hist_out, rag_hits, completion_stats) = {
        let hbm_cell = std::cell::RefCell::new(&mut hbm);
        let mut queue = DeviceQueue::new(&mut dev, QueueConfig::default());

        // Background analytics at low priority...
        let h_hist = histogram::enqueue(&mut queue, Priority::Low, &pixels, OptConfig::all())
            .expect("histogram submission");
        // ...and a latency-sensitive retrieval batch at high priority.
        let q = queries.clone();
        let st = &store;
        let h_rag = queue
            .submit(
                TaskSpec::typed(move |dev: &mut ApuDevice| {
                    let mut hbm = hbm_cell.borrow_mut();
                    let r = retrieve_batch(dev, &mut hbm, st, &q, 5)?;
                    Ok((r.report.clone(), r.hits))
                })
                .priority(Priority::High),
            )
            .expect("rag submission");

        let done = queue.drain().expect("mixed drain");
        assert_eq!(done.len(), 2);
        // The high-priority retrieval dispatches first even though the
        // histogram was submitted first (finish order may differ: the
        // short histogram can retire before the long retrieval).
        let by_handle = |h| done.iter().find(|c| c.handle == h).unwrap();
        assert!(by_handle(h_rag).started_at <= by_handle(h_hist).started_at);

        // Completion-report stats must sum to the device's own totals.
        let mut sum = VcuStats::default();
        for c in &done {
            sum.merge(&c.report.stats);
        }

        let mut hist = None;
        let mut hits = None;
        for c in done {
            if c.handle == h_hist {
                hist = Some(c.into_output::<histogram::Histogram>().unwrap());
            } else {
                hits = Some(c.into_output::<Vec<Vec<Hit>>>().unwrap());
            }
        }
        (hist.unwrap(), hits.unwrap(), sum)
    };

    let delta = &dev.stats_total() - &stats_before;
    assert_eq!(
        delta, completion_stats,
        "queue completion stats must equal the device stats delta"
    );

    // Functional results are correct for both workload families.
    assert_eq!(hist_out, histogram::cpu(&pixels));
    let mut hbm2 = MemorySystem::new(DramSpec::hbm2e_16gb());
    let mut dev2 = ApuDevice::new(SimConfig::default().with_l4_bytes(16 << 20));
    let sync = retrieve_batch(&mut dev2, &mut hbm2, &store, &queries, 5).unwrap();
    assert_eq!(rag_hits, sync.hits);
}

#[test]
fn priority_order_is_respected_on_a_single_core() {
    // One core makes dispatch order fully observable: everything queued
    // at time zero must retire in strict priority order.
    let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(16 << 20).with_cores(1));
    let pixels = histogram::generate(8_192, 1);
    let mut queue = DeviceQueue::new(&mut dev, QueueConfig::default());
    let order = [
        Priority::Low,
        Priority::Normal,
        Priority::High,
        Priority::Normal,
        Priority::Low,
    ];
    let handles: Vec<_> = order
        .iter()
        .map(|&p| histogram::enqueue(&mut queue, p, &pixels, OptConfig::none()).unwrap())
        .collect();
    let done = queue.drain().unwrap();
    let finish_rank = |i: usize| {
        done.iter()
            .position(|c| c.handle == handles[i])
            .expect("every handle retires")
    };
    // High (index 2) first; then the Normals FIFO (1 then 3); then the
    // Lows FIFO (0 then 4).
    let ranks: Vec<usize> = (0..order.len()).map(finish_rank).collect();
    assert_eq!(ranks, vec![3, 1, 0, 2, 4]);
}

#[test]
fn served_queries_match_synchronous_batches_bytewise() {
    let st = store(10_000);
    let queries: Vec<Vec<i16>> = (0..8).map(|i| st.query(100 + i)).collect();

    let sim = SimConfig::default().with_l4_bytes(8 << 20);
    let mut server = ShardedRagServer::new(&st, 1, sim, ServeConfig::default()).unwrap();
    for q in &queries {
        server.submit(Duration::ZERO, q.clone()).unwrap();
    }
    let report = server.drain().unwrap();

    let mut dev2 = ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20));
    let mut hbm2 = MemorySystem::new(DramSpec::hbm2e_16gb());
    let sync = retrieve_batch(&mut dev2, &mut hbm2, &st, &queries, 5).unwrap();

    assert_eq!(report.completions.len(), queries.len());
    for done in &report.completions {
        assert_eq!(
            done.hits().expect("served"),
            sync.hits[done.ticket.id() as usize]
        );
    }
}
