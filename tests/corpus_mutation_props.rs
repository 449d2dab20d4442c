//! Snapshot-consistency differential harness for the live corpus
//! ([`rag::MutableCorpus`], DESIGN.md §5k).
//!
//! A mutable corpus serves queries while ingest, deletes, and background
//! compaction mutate it. The contract under test: **every query is
//! answered against exactly the immutable snapshot it captured at
//! admission** — base + sealed deltas minus tombstones — no matter how
//! writes, drains, and compactions interleave around it. The oracle is a
//! CPU flat scan ([`rag::flat_scan`]) of the query's own pinned
//! snapshot; equality is element-identical (ids AND scores).
//!
//! * **interleaving property** (headline): arbitrary op sequences —
//!   insert / delete / query / compact / drain — across shard counts
//!   1..=4, replicas 1..=2, flat and full-probe IVF serving; each
//!   query's top-k must equal the flat scan of its snapshot;
//! * **IVF candidate invariant**: partial-probe IVF over a mutated
//!   corpus (uncompacted deltas included) returns only live snapshot
//!   documents with exact scores, in tie-break order, never beating the
//!   snapshot flat scan rank-for-rank;
//! * **compaction fault paths**: a transient fault on the compaction
//!   task's (unique) batch key is outlasted by the queue's bounded
//!   retry; an unrecoverable fault abandons the compaction — counted,
//!   re-requestable — while every query keeps serving exact results
//!   from its snapshot;
//! * **determinism**: same seed, same churn stream → byte-identical
//!   hits, corpus counters, and Prometheus text, across the CI axes.
//!
//! The end-to-end case serves a frozen and a churning corpus on every CI
//! matrix point, composing with the `APU_SIM_TEST_MODE` /
//! `APU_SIM_TEST_SHARDS` / `APU_SIM_TEST_REPLICAS` /
//! `APU_SIM_TEST_INDEX` axes and with `APU_SIM_FAST_FORWARD` (memo keys
//! carry the segment epoch, pinned by `tests/fast_forward.rs`).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use apu_sim::{ExecMode, FaultPlan, QueueConfig, RetryPolicy, SimConfig};
use proptest::prelude::*;
use rag::cpu::dot;
use rag::{
    flat_scan, CorpusSpec, EmbeddingStore, Hit, IndexMode, QueryTicket, ServeConfig,
    ShardedRagServer, Snapshot,
};

fn store(chunks: usize, seed: u64) -> EmbeddingStore {
    EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks,
        },
        seed,
    )
}

fn sim(mode: ExecMode) -> SimConfig {
    SimConfig::default()
        .with_exec_mode(mode)
        .with_l4_bytes(8 << 20)
}

fn axis(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

/// A query in flight: the ticket, the snapshot it pinned at admission,
/// and its vector — everything the flat-scan oracle needs.
type PinnedQuery = (QueryTicket, Arc<Snapshot>, Vec<i16>);

/// Drains the server and checks every completion against the CPU flat
/// scan of exactly the snapshot that query captured.
fn drain_and_check(server: &mut ShardedRagServer, pending: &mut Vec<PinnedQuery>, k: usize) {
    let report = server.drain().expect("drain");
    assert_eq!(report.completions.len(), pending.len());
    assert_eq!(report.served(), pending.len());
    assert_eq!(report.degraded(), 0);
    for done in &report.completions {
        let (_, snap, q) = pending
            .iter()
            .find(|(tk, _, _)| *tk == done.ticket)
            .expect("completion for a submitted query");
        let want = flat_scan(snap, q, k);
        assert_eq!(
            done.hits().expect("served"),
            &want[..],
            "query {:?} diverged from the flat scan of snapshot {}",
            done.ticket,
            snap.id
        );
    }
    pending.clear();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Headline interleaving property: for ANY sequence of inserts,
    /// deletes, queries, compaction requests, and drains — across shard
    /// counts, replica counts, and flat vs full-probe IVF serving —
    /// each query's top-k is element-identical to a CPU flat scan of
    /// exactly the snapshot it captured at admission.
    #[test]
    fn any_interleaving_serves_each_query_exactly_its_snapshot(
        chunks in 24usize..160,
        seed in 0u64..300,
        shards in 1usize..=4,
        replicas in 1usize..=2,
        k in 1usize..=6,
        use_ivf in any::<bool>(),
        nlist in 2usize..=5,
        ops in proptest::collection::vec((0u8..5, 0u64..1_000), 1..48),
    ) {
        let st = store(chunks, seed);
        // Full probe makes IVF pruning vacuous, so the flat-scan oracle
        // applies verbatim; partial probe has its own invariant below.
        let index = if use_ivf {
            IndexMode::Ivf { nlist, nprobe: nlist }
        } else {
            IndexMode::Flat
        };
        let mut server = ShardedRagServer::new_mutable(
            &st,
            shards,
            sim(ExecMode::Functional),
            ServeConfig {
                k,
                replicas,
                index,
                ..ServeConfig::default()
            },
        )
        .expect("server construction");
        let n_shards = server.shard_count();

        let mut t = 0u64;
        let mut live_ids: Vec<u32> = (0..chunks as u32).collect();
        let mut pending: Vec<PinnedQuery> = Vec::new();
        for (op, arg) in ops {
            t += 7;
            match op {
                0 => {
                    let id = server
                        .insert_doc(&st.query(10_000 + arg))
                        .expect("insert on a mutable server");
                    live_ids.push(id);
                }
                1 => {
                    if !live_ids.is_empty() {
                        let doc = live_ids.swap_remove(arg as usize % live_ids.len());
                        prop_assert!(server.delete_doc(doc).expect("mutable server"));
                    }
                }
                2 => {
                    let q = st.query(arg);
                    let snap = server.corpus_snapshot().expect("mutable server");
                    let ticket = server
                        .submit(Duration::from_micros(t), q.clone())
                        .expect("submit");
                    pending.push((ticket, snap, q));
                }
                3 => {
                    // May be None (nothing to merge / already in
                    // flight) — both are legitimate outcomes.
                    let _ = server
                        .request_compaction(arg as usize % n_shards, Duration::from_micros(t))
                        .expect("shard in range");
                }
                _ => drain_and_check(&mut server, &mut pending, k),
            }
        }
        drain_and_check(&mut server, &mut pending, k);

        // The model's view of the live set matches the corpus.
        prop_assert_eq!(server.corpus_stats().live_docs as usize, live_ids.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// IVF candidate invariant over a mutated corpus, uncompacted
    /// deltas included: with partial probing every hit is a live
    /// document of the query's snapshot (no tombstone or unborn-doc
    /// leak), carries the exact inner-product score, the list obeys the
    /// global tie-break, and rank-for-rank never beats the snapshot's
    /// flat scan — pruning can lose candidates, never invent them.
    #[test]
    fn partial_probe_ivf_over_a_mutated_corpus_keeps_candidates_exact(
        chunks in 48usize..200,
        seed in 0u64..200,
        shards in 1usize..=3,
        k in 1usize..=6,
        nlist in 3usize..=8,
        nprobe in 1usize..=2,
        inserts in 1usize..=6,
        deletes in 0usize..=4,
        nq in 1usize..=3,
    ) {
        let st = store(chunks, seed);
        let mut server = ShardedRagServer::new_mutable(
            &st,
            shards,
            sim(ExecMode::Functional),
            ServeConfig {
                k,
                index: IndexMode::Ivf { nlist, nprobe },
                ..ServeConfig::default()
            },
        )
        .expect("server construction");

        let mut embeddings: HashMap<u32, Vec<i16>> = HashMap::new();
        for i in 0..inserts {
            let emb = st.query(20_000 + i as u64);
            let id = server.insert_doc(&emb).expect("insert");
            embeddings.insert(id, emb);
        }
        for d in 0..deletes {
            // Deterministic spread over the base docs.
            let _ = server.delete_doc((d * 17 % chunks) as u32).expect("mutable");
        }

        let snap = server.corpus_snapshot().expect("mutable");
        let live: HashSet<u32> = snap
            .shards
            .iter()
            .flat_map(|sh| {
                sh.segments
                    .iter()
                    .flat_map(|seg| seg.ids.iter())
                    .filter(|doc| sh.tombstones.binary_search(doc).is_err())
            })
            .collect();

        let queries: Vec<Vec<i16>> = (0..nq as u64).map(|i| st.query(i)).collect();
        for (i, q) in queries.iter().enumerate() {
            server
                .submit(Duration::from_micros(10 * i as u64), q.clone())
                .expect("submit");
        }
        let report = server.drain().expect("drain");
        prop_assert_eq!(report.served(), nq);
        prop_assert!(report.ivf.searches >= 1, "no IVF dispatch recorded");
        for done in &report.completions {
            let q = &queries[done.ticket.id() as usize];
            let hits = done.hits().expect("served");
            let flat = flat_scan(&snap, q, k);
            prop_assert!(hits.len() <= flat.len());
            for h in hits {
                prop_assert!(
                    live.contains(&h.chunk),
                    "hit {} is deleted or unborn in snapshot {}", h.chunk, snap.id
                );
                let emb = embeddings
                    .get(&h.chunk)
                    .map(Vec::as_slice)
                    .unwrap_or_else(|| st.embedding(h.chunk as usize));
                prop_assert_eq!(h.score, dot(q, emb), "chunk {} score not exact", h.chunk);
            }
            for w in hits.windows(2) {
                prop_assert!(
                    w[0].score > w[1].score
                        || (w[0].score == w[1].score && w[0].chunk < w[1].chunk),
                    "tie-break violated: {:?} before {:?}", w[0], w[1]
                );
            }
            for (rank, h) in hits.iter().enumerate() {
                prop_assert!(
                    h.score <= flat[rank].score,
                    "rank {rank}: ivf {} beats the snapshot flat scan {}",
                    h.score, flat[rank].score
                );
            }
        }
    }
}

/// A transient fault on the compaction task — armed on its unique batch
/// key, firing twice — is outlasted by the queue's bounded retry: the
/// compaction completes on the third attempt, no failure is counted,
/// and every query riding the same drain still serves exact results
/// from its snapshot.
#[test]
fn bounded_retry_outlasts_a_transient_compaction_fault() {
    let st = store(300, 11);
    let k = 5;
    let mut server = ShardedRagServer::new_mutable(
        &st,
        2,
        sim(ExecMode::Functional),
        ServeConfig {
            k,
            queue: QueueConfig {
                retry: Some(RetryPolicy {
                    max_retries: 3,
                    backoff: Duration::from_micros(50),
                    multiplier: 2.0,
                }),
                ..QueueConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("server construction");

    let doc = server.insert_doc(&st.query(900)).expect("insert");
    let shard = doc as usize % 2;
    let ticket = server
        .request_compaction(shard, Duration::from_micros(5))
        .expect("shard in range")
        .expect("the insert left a delta to merge");
    server.inject_faults(shard, FaultPlan::new(3).fail_batch_key_times(ticket.key, 2));

    let snap = server.corpus_snapshot().expect("mutable");
    let queries: Vec<Vec<i16>> = (0..4u64).map(|i| st.query(i)).collect();
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(10 + 20 * i as u64), q.clone())
            .expect("submit");
    }
    let report = server.drain().expect("drain");
    assert_eq!(report.served(), 4);
    assert_eq!(report.degraded(), 0);
    assert_eq!(
        report.corpus.compactions, 1,
        "retry must complete the merge"
    );
    assert_eq!(report.corpus.compaction_failures, 0);
    for done in &report.completions {
        let q = &queries[done.ticket.id() as usize];
        assert_eq!(done.hits().expect("served"), &flat_scan(&snap, q, k)[..]);
    }
    // The merged base serves the next query bit-identically.
    let snap2 = server.corpus_snapshot().expect("mutable");
    assert_eq!(snap2.live_docs(), 301);
    let q = st.query(900);
    server
        .submit(Duration::from_micros(900), q.clone())
        .expect("submit");
    let report2 = server.drain().expect("drain");
    let done = &report2.completions[0];
    assert_eq!(done.hits().expect("served"), &flat_scan(&snap2, &q, k)[..]);
    assert!(done.hits().unwrap().iter().any(|h| h.chunk == doc));
}

/// An unrecoverable compaction fault is contained: the compaction is
/// abandoned (counted, corpus untouched), queries keep serving exact
/// results from their snapshots, and the compaction can be re-requested
/// — with a fresh unique key — and completes once the fault clears.
#[test]
fn a_failed_compaction_never_degrades_queries_and_is_rerequestable() {
    let st = store(240, 29);
    let k = 4;
    let mut server = ShardedRagServer::new_mutable(
        &st,
        2,
        sim(ExecMode::Functional),
        ServeConfig {
            k,
            queue: QueueConfig {
                retry: Some(RetryPolicy {
                    max_retries: 1,
                    backoff: Duration::from_micros(40),
                    multiplier: 2.0,
                }),
                ..QueueConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("server construction");

    let doc = server.insert_doc(&st.query(700)).expect("insert");
    let shard = doc as usize % 2;
    assert!(server.delete_doc(1).expect("mutable"));
    let ticket = server
        .request_compaction(shard, Duration::from_micros(5))
        .expect("shard in range")
        .expect("pending work to merge");
    // Permanent trigger: the retry budget cannot outlast it.
    server.inject_faults(shard, FaultPlan::new(7).fail_batch_key(ticket.key));

    let snap = server.corpus_snapshot().expect("mutable");
    let queries: Vec<Vec<i16>> = (0..4u64).map(|i| st.query(i)).collect();
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(10 + 20 * i as u64), q.clone())
            .expect("submit");
    }
    let report = server.drain().expect("drain");
    assert_eq!(
        report.served(),
        4,
        "a failed compaction must not fail queries"
    );
    assert_eq!(
        report.degraded(),
        0,
        "a failed compaction must not degrade queries"
    );
    assert_eq!(report.corpus.compactions, 0);
    assert_eq!(report.corpus.compaction_failures, 1);
    for done in &report.completions {
        let q = &queries[done.ticket.id() as usize];
        assert_eq!(done.hits().expect("served"), &flat_scan(&snap, q, k)[..]);
    }
    // The uncompacted state is fully intact…
    let snap2 = server.corpus_snapshot().expect("mutable");
    assert_eq!(snap2.live_docs(), 240);
    assert!(snap2.shards[shard].segments.len() > 1, "delta not merged");

    // …and compaction is re-requestable under a fresh key, succeeding
    // once the fault clears.
    server.inject_faults(shard, FaultPlan::new(7));
    let ticket2 = server
        .request_compaction(shard, Duration::from_micros(500))
        .expect("shard in range")
        .expect("the delta is still pending");
    assert_ne!(ticket2.key, ticket.key, "every plan carries a unique key");
    let q = st.query(700);
    server
        .submit(Duration::from_micros(510), q.clone())
        .expect("submit");
    let report2 = server.drain().expect("drain");
    assert_eq!(report2.corpus.compactions, 1);
    assert_eq!(
        report2.corpus.compaction_failures, 1,
        "counter is cumulative"
    );
    let done = &report2.completions[0];
    assert_eq!(done.hits().expect("served"), &flat_scan(&snap2, &q, k)[..]);
}

/// Everything observable from one churn run: per-ticket hits, corpus
/// counters, Prometheus text.
type ChurnObservables = (Vec<(u64, Option<Vec<Hit>>)>, rag::CorpusStats, String);

/// Runs one fixed churn stream — interleaved queries, inserts, deletes,
/// a mid-stream compaction, across two drains.
fn churn_run(shards: usize, replicas: usize, mode: ExecMode, index: IndexMode) -> ChurnObservables {
    let st = store(1_024, 42);
    let mut server = ShardedRagServer::new_mutable(
        &st,
        shards,
        sim(mode),
        ServeConfig {
            k: 8,
            replicas,
            index,
            ..ServeConfig::default()
        },
    )
    .expect("server construction");
    let mut hits: Vec<(u64, Option<Vec<Hit>>)> = Vec::new();
    let mut pinned: Vec<(QueryTicket, Arc<Snapshot>, Vec<i16>)> = Vec::new();
    let drain = |server: &mut ShardedRagServer,
                 pinned: &mut Vec<(QueryTicket, Arc<Snapshot>, Vec<i16>)>,
                 hits: &mut Vec<(u64, Option<Vec<Hit>>)>| {
        let report = server.drain().expect("drain");
        assert_eq!(report.completions.len(), pinned.len());
        assert_eq!(report.served(), pinned.len());
        if mode.is_functional() {
            for done in &report.completions {
                let (_, snap, q) = pinned
                    .iter()
                    .find(|(tk, _, _)| *tk == done.ticket)
                    .expect("known ticket");
                if !index.is_ivf() {
                    assert_eq!(done.hits().expect("served"), &flat_scan(snap, q, 8)[..]);
                }
            }
        }
        hits.extend(
            report
                .completions
                .iter()
                .map(|c| (c.ticket.id(), c.hits().map(<[Hit]>::to_vec))),
        );
        pinned.clear();
        report
    };
    for i in 0..12u64 {
        if i % 3 == 0 {
            server.insert_doc(&st.query(5_000 + i)).expect("insert");
        }
        if i % 4 == 1 {
            server.delete_doc(i as u32 * 13).expect("mutable");
        }
        let q = st.query(i);
        let snap = server.corpus_snapshot().expect("mutable");
        let ticket = server
            .submit(Duration::from_micros(25 * i), q.clone())
            .expect("submit");
        pinned.push((ticket, snap, q));
        if i == 5 {
            server
                .request_compaction(0, Duration::from_micros(25 * i + 5))
                .expect("shard in range");
        }
    }
    drain(&mut server, &mut pinned, &mut hits);
    // Post-compaction churn: the second drain serves snapshots over the
    // merged base (and, under fast-forward, fresh epoch-keyed memos).
    for i in 12..18u64 {
        if i % 2 == 0 {
            server.insert_doc(&st.query(5_000 + i)).expect("insert");
        }
        let q = st.query(i);
        let snap = server.corpus_snapshot().expect("mutable");
        let ticket = server
            .submit(Duration::from_micros(25 * i), q.clone())
            .expect("submit");
        pinned.push((ticket, snap, q));
    }
    let report = drain(&mut server, &mut pinned, &mut hits);
    (hits, report.corpus, report.prometheus_text())
}

/// Same-seed determinism under churn on the CI axes: two identical
/// mutation streams must produce byte-identical hits, corpus counters,
/// and Prometheus text — in both simulation modes, any shard/replica
/// shape, flat or IVF, with or without fast-forward.
#[test]
fn same_seed_churn_serves_are_byte_identical() {
    let shards = axis("APU_SIM_TEST_SHARDS", 2);
    let replicas = axis("APU_SIM_TEST_REPLICAS", 1);
    let mode = ExecMode::from_env(ExecMode::Functional);
    let index = match std::env::var("APU_SIM_TEST_INDEX").as_deref() {
        Ok("ivf") => IndexMode::ivf_default(),
        _ => IndexMode::Flat,
    };
    let first = churn_run(shards, replicas, mode, index);
    let second = churn_run(shards, replicas, mode, index);
    assert_eq!(first.0, second.0, "hit lists diverged run-to-run");
    assert_eq!(first.1, second.1, "corpus counters diverged run-to-run");
    assert_eq!(first.2, second.2, "prometheus text diverged run-to-run");
}

/// End-to-end check on every CI matrix point: a static corpus (which
/// refuses writes and exports all-zero corpus counters) and the churn
/// stream (live ingest + deletes + mid-stream compaction, with the
/// `apu_corpus_*` series populated) must both stay fully served,
/// composing with the mode, shard, replica, index, and fast-forward
/// axes.
#[test]
fn static_and_churning_corpora_serve_the_full_stream() {
    let shards = axis("APU_SIM_TEST_SHARDS", 2);
    let replicas = axis("APU_SIM_TEST_REPLICAS", 1);
    let mode = ExecMode::from_env(ExecMode::Functional);
    let index = match std::env::var("APU_SIM_TEST_INDEX").as_deref() {
        Ok("ivf") => IndexMode::ivf_default(),
        _ => IndexMode::Flat,
    };
    let (hits, corpus, text) = churn_run(shards, replicas, mode, index);
    assert_eq!(hits.len(), 18);
    assert!(corpus.inserts >= 4);
    assert!(corpus.deletes >= 1);
    assert_eq!(corpus.compactions + corpus.compaction_failures, 1);
    assert!(corpus.snapshots >= 2);
    assert!(text.contains("apu_corpus_inserts_total"));
    assert!(text.contains("apu_corpus_compactions_total"));

    let st = store(1_024, 42);
    let mut server = ShardedRagServer::new(
        &st,
        shards,
        sim(mode),
        ServeConfig {
            k: 8,
            replicas,
            index,
            ..ServeConfig::default()
        },
    )
    .expect("server construction");
    assert!(!server.is_mutable());
    assert!(server.insert_doc(&st.query(99)).is_err());
    assert!(server.delete_doc(0).is_err());
    assert!(server.corpus_snapshot().is_none());
    for i in 0..12u64 {
        server
            .submit(Duration::from_micros(25 * i), st.query(i))
            .expect("submit");
    }
    let report = server.drain().expect("drain");
    assert_eq!(report.served(), 12);
    assert_eq!(report.corpus, rag::CorpusStats::default());
    assert_eq!(server.corpus_stats(), rag::CorpusStats::default());
    assert!(report
        .prometheus_text()
        .contains("apu_corpus_compactions_total 0"));
}
