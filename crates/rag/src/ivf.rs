//! IVF (inverted-file) approximate retrieval on the simulated device
//! (ROADMAP item 3).
//!
//! The paper's RAG workload scans the whole corpus per query (exact
//! flat search), which caps the servable corpus per device. An IVF
//! index trades a bounded amount of recall for a large scan reduction:
//!
//! 1. **Train** — the corpus is partitioned into `nlist` clusters with
//!    the paper's own k-means ([`phoenix::kmeans`], the Phoenix
//!    workload) fitted on a subsample and swept over the full corpus;
//!    each cluster's embeddings are copied into a *contiguous* slice so
//!    the existing batch kernel can stream it unchanged.
//! 2. **Probe** — at query time the `nlist` centroids form a miniature
//!    corpus that is scanned **on-device** with the very same batched
//!    top-k kernel ([`crate::batch::retrieve_batch`]); the top-`nprobe`
//!    centroids per query select the clusters to search.
//! 3. **Rescore** — each probed cluster is scanned exactly (again the
//!    batch kernel, over the cluster's contiguous slice), hits are
//!    mapped back to original chunk ids, and a [`crate::topk`] merge
//!    yields the final top-k.
//!
//! Because the rescore is exact, every returned hit carries the same
//! score the flat scan would give it: IVF results are always a *subset*
//! of flat results, and `nprobe == nlist` degenerates to an
//! element-identical flat search (`tests/ann_recall_props.rs` pins both
//! properties). Routing every stage through the batch kernel means
//! continuous batching, sharding/replication, SLO scheduling, tracing,
//! and fast-forward all compose with IVF for free.
//!
//! **Timing-only mode.** The functional kernel's top-k is what selects
//! the probe set; in timing-only mode the kernel returns no hits (by
//! design — there is no data), so probe selection falls back to a
//! deterministic, data-independent probe set (the first `nprobe`
//! clusters) while still charging the centroid-scan kernel. The cost
//! model is therefore data-independent (like the rest of the stack) and
//! IVF makes **no** functional-vs-timing cycle-equivalence claim: the
//! scanned-cluster set, and hence the charge, legitimately depends on
//! the data in functional mode.

use apu_sim::{ApuDevice, TaskReport, TraceEventKind};
use hbm_sim::MemorySystem;
use phoenix::kmeans::{self, KmeansInput};
use serde::{Deserialize, Serialize};

use crate::apu::RetrievalBreakdown;
use crate::batch::retrieve_batch;
use crate::corpus::{CorpusSpec, EmbeddingStore, EMBED_DIM, EMBED_MAX};
use crate::topk::merge_top_k;
use crate::{Hit, Result};

/// Default cluster count for IVF indexes (the `serve_ann` bench and the
/// serving layer's [`IndexMode::ivf_default`]).
pub const DEFAULT_NLIST: usize = 64;

/// Default probed-cluster count: the `serve_ann` bench's recall@10 ≥
/// 0.9 / ≥ 5× QPS operating point on its clustered corpus.
pub const DEFAULT_NPROBE: usize = 2;

/// Training subsample cap: k-means is fitted on at most this many
/// chunks (deterministic stride sample), then swept over the full
/// corpus for the final partition.
const TRAIN_SUBSAMPLE: usize = 16 * 1024;

/// Lloyd iterations for the trainer.
const TRAIN_ITERS: usize = 4;

/// How a retrieval is executed: exact flat scan (the paper's path) or
/// IVF cluster-pruned search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexMode {
    /// Exact scan of the full corpus (no recall loss).
    #[default]
    Flat,
    /// IVF search: probe the top-`nprobe` of `nlist` clusters.
    Ivf {
        /// Clusters in the index.
        nlist: usize,
        /// Clusters scanned per query.
        nprobe: usize,
    },
}

impl IndexMode {
    /// The default IVF operating point
    /// ([`DEFAULT_NLIST`]/[`DEFAULT_NPROBE`]).
    pub fn ivf_default() -> Self {
        IndexMode::Ivf {
            nlist: DEFAULT_NLIST,
            nprobe: DEFAULT_NPROBE,
        }
    }

    /// Whether this mode prunes clusters (i.e. is not the exact scan).
    pub fn is_ivf(&self) -> bool {
        matches!(self, IndexMode::Ivf { .. })
    }
}

/// Aggregate IVF probe statistics: one search = one batched dispatch
/// (centroid scan + cluster rescores). Exposed per-dispatch by
/// [`IvfIndex::search_batch`] and accumulated per serve window by the
/// serving layer (→ `apu_ivf_*` Prometheus series).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvfStats {
    /// Batched IVF dispatches executed.
    pub searches: u64,
    /// Queries served across those dispatches.
    pub queries: u64,
    /// Probed clusters summed over queries (≤ `queries × nprobe`).
    pub probes: u64,
    /// Distinct clusters scanned, summed over dispatches (the batch
    /// scans the union of its members' probe sets once).
    pub clusters_scanned: u64,
    /// Candidate chunks exactly rescored, summed over (query, cluster)
    /// pairs — the work a flat scan would have spent on `queries ×
    /// corpus_chunks`.
    pub candidates: u64,
}

impl IvfStats {
    /// Folds another stats block into this one.
    pub fn absorb(&mut self, other: &IvfStats) {
        self.searches += other.searches;
        self.queries += other.queries;
        self.probes += other.probes;
        self.clusters_scanned += other.clusters_scanned;
        self.candidates += other.candidates;
    }
}

/// Result of one batched IVF search.
#[derive(Debug, Clone)]
pub struct IvfSearch {
    /// Per-query top-k hits, in input order, with **original** chunk
    /// ids (cluster-local ids are remapped before the merge).
    pub hits: Vec<Vec<Hit>>,
    /// Latency breakdown summed over the centroid scan and every
    /// cluster rescore.
    pub breakdown: RetrievalBreakdown,
    /// Chained device report for all stages.
    pub report: TaskReport,
    /// Probe statistics for this dispatch (`searches == 1`).
    pub stats: IvfStats,
}

/// One inverted list: the cluster's embeddings as a contiguous store
/// (cluster-local 0-based ids) plus the map back to original ids.
#[derive(Debug, Clone)]
struct Cluster {
    store: EmbeddingStore,
    /// `ids[local]` = original chunk id in the indexed store.
    ids: Vec<u32>,
}

/// An IVF index over one [`EmbeddingStore`] (a whole corpus or a single
/// shard's slice — sharded serving builds one per shard and keeps its
/// exact global merge unchanged).
#[derive(Debug, Clone)]
pub struct IvfIndex {
    /// The `nlist` centroids as a miniature corpus for the on-device
    /// probe scan.
    centroids: EmbeddingStore,
    clusters: Vec<Cluster>,
    /// Chunk count of the indexed store.
    source_chunks: usize,
}

impl IvfIndex {
    /// Builds an index with (up to) `nlist` clusters. Materialized
    /// stores are trained with k-means; size-only stores (timing-only
    /// paper-scale runs) get a synthetic even partition with identical
    /// shape, so the data-independent cost model still holds.
    ///
    /// `nlist` is clamped to `1..=chunks` (an empty store gets one
    /// empty cluster), mirroring the degenerate-input contract of
    /// [`EmbeddingStore::shards`].
    pub fn build(store: &EmbeddingStore, nlist: usize) -> Self {
        let chunks = store.spec().chunks;
        let nlist = nlist.clamp(1, chunks.max(1));
        if store.is_materialized() {
            Self::train(store, nlist)
        } else {
            Self::synthetic(store, nlist)
        }
    }

    /// Cluster count (after clamping).
    pub fn nlist(&self) -> usize {
        self.clusters.len()
    }

    /// Chunk count of the indexed store.
    pub fn source_chunks(&self) -> usize {
        self.source_chunks
    }

    /// Chunk count of cluster `c`.
    pub fn cluster_len(&self, c: usize) -> usize {
        self.clusters[c].store.spec().chunks
    }

    /// The centroid probe corpus (one "chunk" per cluster).
    pub fn centroid_store(&self) -> &EmbeddingStore {
        &self.centroids
    }

    fn train(store: &EmbeddingStore, nlist: usize) -> Self {
        let chunks = store.spec().chunks;
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);

        // Full corpus, dimension-major, shifted into u16 (−6..=6 → 0..=12);
        // squared-Euclidean assignment is shift-invariant, so the partition
        // is the same one the raw embeddings would produce.
        let mut coords = vec![vec![0u16; chunks]; EMBED_DIM];
        for c in 0..chunks {
            let e = store.embedding(c);
            for (d, col) in coords.iter_mut().enumerate() {
                col[c] = (e[d] + EMBED_MAX) as u16;
            }
        }
        let full = KmeansInput {
            coords,
            k: nlist,
            iters: 0,
        };

        // Fit on a deterministic stride subsample, sweep the full corpus.
        let take = chunks.clamp(1, TRAIN_SUBSAMPLE);
        let sample: Vec<usize> = (0..take).map(|i| i * chunks / take).collect();
        let train_input = KmeansInput {
            coords: full
                .coords
                .iter()
                .map(|col| sample.iter().map(|&p| col[p]).collect())
                .collect(),
            k: nlist,
            iters: TRAIN_ITERS,
        };
        let fitted = kmeans::cpu_mt(&train_input, threads);
        let assignments = kmeans::assign_points(&full, &fitted.centroids, threads);

        // Gather each cluster's embeddings into a contiguous slice.
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (c, &a) in assignments.iter().enumerate() {
            ids[a as usize].push(c as u32);
        }
        let clusters = ids
            .into_iter()
            .map(|ids| {
                let mut data = Vec::with_capacity(ids.len() * EMBED_DIM);
                for &c in &ids {
                    data.extend_from_slice(store.embedding(c as usize));
                }
                let corpus_bytes = proportional_bytes(store.spec(), ids.len());
                Cluster {
                    store: EmbeddingStore::from_embeddings(corpus_bytes, data, store.seed()),
                    ids,
                }
            })
            .collect();

        // Centroid means of in-band coordinates stay in band, so the
        // probe scan's device scores are exact 16-bit inner products.
        let mut cdata = Vec::with_capacity(nlist * EMBED_DIM);
        for cent in &fitted.centroids {
            cdata.extend(cent.iter().map(|&v| v as i16 - EMBED_MAX));
        }
        IvfIndex {
            centroids: EmbeddingStore::from_embeddings(0, cdata, store.seed()),
            clusters,
            source_chunks: chunks,
        }
    }

    fn synthetic(store: &EmbeddingStore, nlist: usize) -> Self {
        let chunks = store.spec().chunks;
        let mut base = 0usize;
        let clusters = (0..nlist)
            .map(|i| {
                let len = chunks / nlist + usize::from(i < chunks % nlist);
                let spec = CorpusSpec {
                    corpus_bytes: proportional_bytes(store.spec(), len),
                    chunks: len,
                };
                let cl = Cluster {
                    store: EmbeddingStore::size_only(spec, store.seed()),
                    ids: (base as u32..(base + len) as u32).collect(),
                };
                base += len;
                cl
            })
            .collect();
        let centroid_spec = CorpusSpec {
            corpus_bytes: 0,
            chunks: nlist,
        };
        IvfIndex {
            centroids: EmbeddingStore::size_only(centroid_spec, store.seed()),
            clusters,
            source_chunks: chunks,
        }
    }

    /// Runs one batched IVF search: on-device centroid scan, top-
    /// `nprobe` cluster selection per query, exact rescore of the
    /// probed clusters' union, per-query top-k merge. Emits an
    /// [`TraceEventKind::IvfProbe`] event when a trace sink is
    /// installed.
    ///
    /// `nprobe` is clamped to `1..=nlist`; `nprobe == nlist` is
    /// element-identical to the flat scan.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`retrieve_batch`] (empty/oversized batch,
    /// wrong query dimension, device errors).
    pub fn search_batch(
        &self,
        dev: &mut ApuDevice,
        hbm: &mut MemorySystem,
        queries: &[Vec<i16>],
        k: usize,
        nprobe: usize,
    ) -> Result<IvfSearch> {
        let nq = queries.len();
        let nlist = self.nlist();
        let nprobe = nprobe.clamp(1, nlist);

        // Stage 1: on-device centroid scan selects the probe sets.
        let probe_scan = retrieve_batch(dev, hbm, &self.centroids, queries, nprobe)?;
        let functional = dev.config().exec_mode.is_functional();
        let probes: Vec<Vec<u32>> = if functional {
            probe_scan
                .hits
                .iter()
                .map(|hs| hs.iter().map(|h| h.chunk).collect())
                .collect()
        } else {
            // Timing-only: the kernel yields no hits, so fall back to a
            // deterministic data-independent probe set (see module docs).
            (0..nq).map(|_| (0..nprobe as u32).collect()).collect()
        };

        let mut report = probe_scan.report;
        let mut breakdown = probe_scan.breakdown;
        let mut stats = IvfStats {
            searches: 1,
            queries: nq as u64,
            probes: probes.iter().map(|p| p.len() as u64).sum(),
            ..IvfStats::default()
        };

        // Stage 2: scan the union of probed clusters, each exactly once
        // with the subset of queries that probed it.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); nlist];
        for (q, ps) in probes.iter().enumerate() {
            for &c in ps {
                members[c as usize].push(q);
            }
        }
        let mut parts: Vec<Vec<Vec<Hit>>> = vec![Vec::new(); nq];
        for (c, qs) in members.iter().enumerate() {
            let cluster = &self.clusters[c];
            if qs.is_empty() || cluster.store.spec().chunks == 0 {
                continue;
            }
            stats.clusters_scanned += 1;
            stats.candidates += (cluster.store.spec().chunks * qs.len()) as u64;
            let sub: Vec<Vec<i16>> = qs.iter().map(|&q| queries[q].clone()).collect();
            let scan = retrieve_batch(dev, hbm, &cluster.store, &sub, k)?;
            report = report.chain(&scan.report);
            breakdown.accumulate(&scan.breakdown);
            for (i, &q) in qs.iter().enumerate() {
                parts[q].push(
                    scan.hits[i]
                        .iter()
                        .map(|h| Hit {
                            chunk: cluster.ids[h.chunk as usize],
                            score: h.score,
                        })
                        .collect(),
                );
            }
        }

        // Stage 3: exact per-query merge across the probed clusters.
        let hits = parts
            .into_iter()
            .map(|p| merge_top_k(p, k))
            .collect::<Vec<_>>();

        dev.emit_trace(TraceEventKind::IvfProbe {
            queries: nq,
            nlist,
            nprobe,
            scanned: stats.clusters_scanned as usize,
            candidates: stats.candidates,
        });

        Ok(IvfSearch {
            hits,
            breakdown,
            report,
            stats,
        })
    }
}

/// Corpus bytes attributed to a `len`-chunk slice of `spec`,
/// proportional like [`EmbeddingStore::shards`].
fn proportional_bytes(spec: &CorpusSpec, len: usize) -> u64 {
    if spec.chunks == 0 {
        0
    } else {
        spec.corpus_bytes * len as u64 / spec.chunks as u64
    }
}

/// Flat-scan reference (`top_k` of exact dot products) used by the
/// recall harness and inline tests.
#[cfg(test)]
fn flat_reference(store: &EmbeddingStore, query: &[i16], k: usize) -> Vec<Hit> {
    let (hits, _) = crate::cpu::cpu_retrieve(store, query, k, 4);
    crate::topk::top_k(hits, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::ClusteredCorpus;
    use apu_sim::{Cycles, SimConfig};
    use hbm_sim::{DramSpec, MemorySystem};

    fn setup() -> (ApuDevice, MemorySystem) {
        (
            ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20)),
            MemorySystem::new(DramSpec::hbm2e_16gb()),
        )
    }

    fn clustered(chunks: usize, topics: usize, seed: u64) -> ClusteredCorpus {
        ClusteredCorpus::new(
            CorpusSpec {
                corpus_bytes: 0,
                chunks,
            },
            topics,
            1,
            seed,
        )
    }

    #[test]
    fn index_partitions_every_chunk_exactly_once() {
        let corpus = clustered(4096, 8, 11);
        let index = IvfIndex::build(&corpus.store, 8);
        let mut seen = vec![false; 4096];
        for c in 0..index.nlist() {
            for local in 0..index.cluster_len(c) {
                let id = index.clusters[c].ids[local] as usize;
                assert!(!seen[id], "chunk {id} in two clusters");
                seen[id] = true;
                assert_eq!(
                    index.clusters[c].store.embedding(local),
                    corpus.store.embedding(id)
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "some chunk not indexed");
    }

    #[test]
    fn full_probe_matches_flat_scan_exactly() {
        let corpus = clustered(3000, 4, 5);
        let index = IvfIndex::build(&corpus.store, 4);
        let (mut dev, mut hbm) = setup();
        let queries: Vec<Vec<i16>> = (0..3).map(|i| corpus.store.query(i)).collect();
        let search = index
            .search_batch(&mut dev, &mut hbm, &queries, 7, index.nlist())
            .unwrap();
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(search.hits[q], flat_reference(&corpus.store, query, 7));
        }
    }

    #[test]
    fn ivf_hits_are_a_subset_of_flat_with_identical_scores() {
        let corpus = clustered(4096, 8, 23);
        let index = IvfIndex::build(&corpus.store, 8);
        let (mut dev, mut hbm) = setup();
        let q = corpus.query_near(3, 0);
        let search = index
            .search_batch(&mut dev, &mut hbm, std::slice::from_ref(&q), 10, 2)
            .unwrap();
        for h in &search.hits[0] {
            assert_eq!(
                h.score,
                crate::cpu::dot(corpus.store.embedding(h.chunk as usize), &q),
                "rescore must be exact"
            );
        }
        assert!(search.stats.clusters_scanned <= 2);
        assert!(search.stats.candidates < corpus.store.spec().chunks as u64);
    }

    #[test]
    fn timing_mode_charges_without_hits() {
        let corpus = clustered(2048, 4, 9);
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_l4_bytes(8 << 20)
                .with_exec_mode(apu_sim::ExecMode::TimingOnly),
        );
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let index = IvfIndex::build(&corpus.store, 4);
        let q = corpus.store.query(0);
        let search = index
            .search_batch(&mut dev, &mut hbm, std::slice::from_ref(&q), 5, 2)
            .unwrap();
        assert!(search.hits[0].is_empty());
        assert_eq!(search.stats.clusters_scanned, 2);
        assert!(search.report.cycles > Cycles::ZERO);
    }

    #[test]
    fn nlist_is_clamped_to_chunk_count() {
        let corpus = clustered(16, 2, 3);
        let index = IvfIndex::build(&corpus.store, 1000);
        assert_eq!(index.nlist(), 16);
        assert_eq!(
            (0..index.nlist())
                .map(|c| index.cluster_len(c))
                .sum::<usize>(),
            16
        );
    }
}
