//! Live corpus mutation (ROADMAP item 5): streaming ingest, delta
//! segments, tombstones, and background compaction over the serving
//! stack — with snapshot isolation as the correctness contract.
//!
//! The paper serves an immutable [`EmbeddingStore`]; production
//! retrieval indexes mutate continuously. [`MutableCorpus`] makes the
//! corpus writable without touching the kernel:
//!
//! * **Base + deltas.** Each shard keeps its base store plus
//!   append-only *delta segments* of inserted vectors. Every segment is
//!   an ordinary [`EmbeddingStore`] (stamped with a fresh content
//!   epoch), so the existing batched kernel scans it unchanged.
//! * **Tombstones.** A delete records the document id in the shard's
//!   tombstone set; an update is delete + insert of a fresh id. A
//!   segment is scanned for `k + tombstones_in_segment` candidates and
//!   tombstoned hits are dropped post-scan
//!   ([`crate::topk::drop_tombstoned`]), which provably leaves the
//!   exact top-k of the segment's live documents.
//! * **Snapshots.** [`MutableCorpus::snapshot`] seals the open delta
//!   and returns an immutable, monotonically-numbered [`Snapshot`]
//!   (`Arc`-shared segment list + tombstone set per shard). A query
//!   captures the snapshot at admission and scans exactly that state,
//!   no matter how many writes or compactions land while it waits in
//!   the queue — `tests/corpus_mutation_props.rs` differentially pins
//!   this against a CPU flat scan of the same snapshot.
//! * **Compaction.** [`MutableCorpus::request_compaction`] seals the
//!   shard's deltas into a [`CompactionPlan`]; the serving layer
//!   submits it as ordinary (default low-priority) [`apu_sim::TaskSpec`]
//!   work on the same device queue, where [`run_compaction_task`]
//!   merges base + deltas minus tombstones into a fresh-epoch base and
//!   charges the device for the merge traffic. Old snapshots keep their
//!   `Arc`s to the pre-compaction segments, so in-flight queries are
//!   untouched; a failed compaction (fault injection, see
//!   `FaultPlan::fail_batch_key_times`) leaves the corpus exactly as it
//!   was.
//!
//! IVF composes: the base segment (the bulk of the data) is searched
//! through its per-epoch [`IvfIndex`] while deltas are scanned flat
//! until the next compaction folds them into a retrained index —
//! the classic main-index-plus-memtable layout.
//!
//! This is the serving stack's only corpus representation: every
//! [`crate::ShardedRagServer`] holds one `MutableCorpus`, and a server
//! built with [`crate::ShardedRagServer::new`] simply refuses writes.
//! Base segments are views of the caller's [`EmbeddingStore`] buffer,
//! so wrapping a store copies no embeddings.

use std::any::Any;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use apu_sim::core::CycleClass;
use apu_sim::{ApuDevice, BatchKey, Cycles, Error, TaskReport};
use hbm_sim::MemorySystem;
use serde::{Deserialize, Serialize};

use crate::batch::retrieve_batch;
use crate::corpus::{CorpusShard, CorpusSpec, EmbeddingStore, EMBED_DIM, EMBED_MAX};
use crate::ivf::{IndexMode, IvfIndex, IvfStats};
use crate::topk::{drop_tombstoned, merge_top_k, top_k};
use crate::{fnv1a, Hit, Result};

/// One immutable run of documents: an [`EmbeddingStore`] with
/// segment-local 0-based chunk ids plus the map back to document ids.
/// The base segment and every delta segment share this shape, so the
/// batch kernel scans either without knowing which it is.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The segment's embeddings (`store.spec().chunks` documents).
    pub store: EmbeddingStore,
    /// `ids.get(local)` = document id of the segment's `local`-th vector.
    pub ids: SegmentIds,
}

/// The document ids of a segment's vectors in `local` order, strictly
/// ascending (document ids are allocated monotonically and segments
/// seal in order). A build-time base segment covers a contiguous run of
/// ids and keeps only its bounds, so wrapping a store costs no memory per
/// document; delta and merged segments list their ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentIds {
    /// The contiguous ids `start..end`.
    Run(Range<u32>),
    /// Strictly ascending ids.
    List(Vec<u32>),
}

impl SegmentIds {
    /// Number of ids.
    pub fn len(&self) -> usize {
        match self {
            SegmentIds::Run(run) => run.len(),
            SegmentIds::List(ids) => ids.len(),
        }
    }

    /// Whether there are no ids.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The document id of the segment's `local`-th vector.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn get(&self, local: usize) -> u32 {
        match self {
            SegmentIds::Run(run) => {
                assert!(local < run.len(), "local id {local} out of range");
                run.start + local as u32
            }
            SegmentIds::List(ids) => ids[local],
        }
    }

    /// Whether `doc` is one of the ids: a range check for a run, a
    /// binary search for a list.
    pub fn contains(&self, doc: u32) -> bool {
        match self {
            SegmentIds::Run(run) => run.contains(&doc),
            SegmentIds::List(ids) => ids.binary_search(&doc).is_ok(),
        }
    }

    /// The ids in `local` order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|local| self.get(local))
    }
}

impl Segment {
    /// Documents in the segment.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the segment holds no documents.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// One shard's frozen view: base segment first, then deltas in seal
/// order, plus the tombstone set at snapshot time (sorted doc ids).
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// `segments[0]` is the base; the rest are delta segments.
    pub segments: Vec<Arc<Segment>>,
    /// Sorted document ids deleted as of this snapshot.
    pub tombstones: Arc<Vec<u32>>,
}

impl ShardSnapshot {
    /// Live documents in this shard view (segment docs minus tombstones).
    pub fn live_docs(&self) -> usize {
        let total: usize = self.segments.iter().map(|s| s.len()).sum();
        total - self.tombstones.len()
    }
}

/// An immutable, monotonically-numbered view of the whole corpus. A
/// query admitted against snapshot `n` scans exactly snapshot `n`,
/// regardless of later writes or compactions.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Snapshot number (1-based; strictly increasing across mutations).
    pub id: u64,
    /// Per-shard frozen views.
    pub shards: Vec<ShardSnapshot>,
}

impl Snapshot {
    /// Live documents across all shards.
    pub fn live_docs(&self) -> usize {
        self.shards.iter().map(ShardSnapshot::live_docs).sum()
    }
}

/// Corpus mutation counters and gauges, exported as the `apu_corpus_*`
/// Prometheus series by the serving layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Live (non-tombstoned) documents.
    pub live_docs: u64,
    /// Documents in base segments.
    pub base_docs: u64,
    /// Documents in delta segments (sealed + open).
    pub delta_docs: u64,
    /// Sealed + open delta segments across shards.
    pub delta_segments: u64,
    /// Embedding bytes held in delta segments.
    pub delta_bytes: u64,
    /// Outstanding tombstones across shards.
    pub tombstones: u64,
    /// Documents ever inserted.
    pub inserts: u64,
    /// Documents ever deleted (updates count one delete + one insert).
    pub deletes: u64,
    /// Snapshots published (equals the newest snapshot id).
    pub snapshots: u64,
    /// Compactions applied.
    pub compactions: u64,
    /// Compactions that failed (the corpus was left untouched).
    pub compaction_failures: u64,
}

/// Handle returned by [`MutableCorpus::request_compaction`]: identifies
/// the captured plan and the unique batch key its device task carries
/// (the hook for targeted fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionTicket {
    /// Plan sequence number (monotone across the corpus).
    pub seq: u64,
    /// Shard being compacted.
    pub shard: usize,
    /// The unique batch key of the compaction's device task.
    pub key: BatchKey,
}

/// A sealed compaction request: the exact segments and tombstones to
/// merge, captured at request time. Writes that land after the request
/// are untouched — the merge replaces precisely the captured segments
/// with one fresh-epoch base and retires precisely the captured
/// tombstones, so post-request deletes keep filtering correctly.
#[derive(Debug, Clone)]
pub struct CompactionPlan {
    pub(crate) seq: u64,
    pub(crate) shard: usize,
    pub(crate) key: BatchKey,
    /// Virtual arrival time for the device task.
    pub(crate) at: Duration,
    /// Base + sealed deltas at request time.
    pub(crate) segments: Vec<Arc<Segment>>,
    /// Sorted tombstones at request time.
    pub(crate) tombstones: Vec<u32>,
    /// Epoch pre-allocated for the merged base (so the result is
    /// deterministic regardless of when the task actually runs).
    merged_epoch: u64,
    /// Nominal corpus bytes per chunk, for the merged store's spec.
    bytes_per_chunk: u64,
    materialized: bool,
}

impl CompactionPlan {
    /// The plan's ticket.
    pub fn ticket(&self) -> CompactionTicket {
        CompactionTicket {
            seq: self.seq,
            shard: self.shard,
            key: self.key,
        }
    }

    /// Virtual arrival time the serving layer submits the task at.
    pub fn arrival(&self) -> Duration {
        self.at
    }

    /// Merges the captured segments minus the captured tombstones into
    /// one fresh base segment (document ids stay ascending). Pure and
    /// deterministic — callable on the host or inside the device task.
    pub fn merge(&self) -> Segment {
        let mut ids = Vec::new();
        let mut data = Vec::new();
        for seg in &self.segments {
            for (local, doc) in seg.ids.iter().enumerate() {
                if self.tombstones.binary_search(&doc).is_ok() {
                    continue;
                }
                ids.push(doc);
                if self.materialized {
                    data.extend_from_slice(seg.store.embedding(local));
                }
            }
        }
        let corpus_bytes = self.bytes_per_chunk * ids.len() as u64;
        let store = if self.materialized {
            EmbeddingStore::from_embeddings(corpus_bytes, data, self.seed())
        } else {
            EmbeddingStore::size_only(
                CorpusSpec {
                    corpus_bytes,
                    chunks: ids.len(),
                },
                self.seed(),
            )
        };
        Segment {
            store: store.with_epoch(self.merged_epoch),
            ids: SegmentIds::List(ids),
        }
    }

    fn seed(&self) -> u64 {
        self.segments[0].store.seed()
    }

    /// Source documents the merge streams through (for cost charging).
    fn source_docs(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }
}

/// Per-shard mutable state.
#[derive(Debug)]
struct ShardState {
    base: Arc<Segment>,
    deltas: Vec<Arc<Segment>>,
    /// Open (unsealed) delta being appended to.
    open_ids: Vec<u32>,
    open_data: Vec<i16>,
    tombstones: BTreeSet<u32>,
    /// A compaction plan for this shard is outstanding.
    compacting: bool,
}

impl ShardState {
    fn seal_open(&mut self, seed: u64, bytes_per_chunk: u64, materialized: bool, epoch: u64) {
        if self.open_ids.is_empty() {
            return;
        }
        let ids = std::mem::take(&mut self.open_ids);
        let data = std::mem::take(&mut self.open_data);
        let corpus_bytes = bytes_per_chunk * ids.len() as u64;
        let store = if materialized {
            EmbeddingStore::from_embeddings(corpus_bytes, data, seed)
        } else {
            EmbeddingStore::size_only(
                CorpusSpec {
                    corpus_bytes,
                    chunks: ids.len(),
                },
                seed,
            )
        };
        self.deltas.push(Arc::new(Segment {
            store: store.with_epoch(epoch),
            ids: SegmentIds::List(ids),
        }));
    }

    /// Whether one of the shard's segments, sealed or open, holds `doc`.
    /// Ids are sorted, so each lookup is a range check or a binary search.
    fn holds(&self, doc: u32) -> bool {
        self.open_ids.binary_search(&doc).is_ok()
            || std::iter::once(&self.base)
                .chain(&self.deltas)
                .any(|seg| seg.ids.contains(doc))
    }
}

/// A mutable corpus: per-shard base [`EmbeddingStore`]s wrapped with
/// append-only delta segments, tombstones, and immutable snapshots.
/// See the [module docs](self) for the full model.
///
/// The corpus keeps no per-document state beyond the id lists of delta
/// and merged segments (a build-time base keeps only its id run): a base
/// document's shard comes from the build-time partition, an inserted
/// document's from the round-robin insert rule, and a document is alive
/// while one of its shard's segments holds it and no tombstone masks it.
#[derive(Debug)]
pub struct MutableCorpus {
    /// The build-time partition of the base store: views of the
    /// caller's buffer, in shard order.
    partition: Vec<CorpusShard>,
    shards: Vec<ShardState>,
    seed: u64,
    materialized: bool,
    bytes_per_chunk: u64,
    live: u64,
    inserts: u64,
    deletes: u64,
    compactions: u64,
    compaction_failures: u64,
    next_epoch: u64,
    next_snapshot: u64,
    next_plan: u64,
    /// Cached newest snapshot; cleared by any mutation.
    cached: Option<Arc<Snapshot>>,
    /// Plans captured but not yet handed to the serving layer.
    plans: Vec<Arc<CompactionPlan>>,
}

impl MutableCorpus {
    /// Wraps `store`, partitioned into `n_shards` via
    /// [`EmbeddingStore::shards`] (same clamping contract), as the base
    /// generation. Base documents keep their global chunk ids
    /// (`0..chunks`); inserted documents get fresh ids beyond them.
    pub fn new(store: &EmbeddingStore, n_shards: usize) -> Self {
        let partition = store.shards(n_shards);
        let spec = store.spec();
        let bytes_per_chunk = if spec.chunks == 0 {
            0
        } else {
            spec.corpus_bytes / spec.chunks as u64
        };
        let mut next_epoch = 1u64;
        let shards = partition
            .iter()
            .map(|part| {
                let epoch = next_epoch;
                next_epoch += 1;
                ShardState {
                    base: Arc::new(Segment {
                        store: part.store.clone().with_epoch(epoch),
                        ids: SegmentIds::Run(part.range()),
                    }),
                    deltas: Vec::new(),
                    open_ids: Vec::new(),
                    open_data: Vec::new(),
                    tombstones: BTreeSet::new(),
                    compacting: false,
                }
            })
            .collect();
        MutableCorpus {
            partition,
            shards,
            live: spec.chunks as u64,
            seed: store.seed(),
            materialized: store.is_materialized(),
            bytes_per_chunk,
            inserts: 0,
            deletes: 0,
            compactions: 0,
            compaction_failures: 0,
            next_epoch,
            next_snapshot: 1,
            next_plan: 1,
            cached: None,
            plans: Vec::new(),
        }
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The build-time partition of the base store
    /// ([`EmbeddingStore::shards`]), in shard order: views of the buffer
    /// the corpus was built from. It places base documents and stays
    /// fixed while compaction replaces base segments.
    pub fn partition(&self) -> &[CorpusShard] {
        &self.partition
    }

    /// Documents the base store held at build time (ids `0..base_docs`).
    fn base_docs(&self) -> u32 {
        self.partition.last().map_or(0, |p| p.range().end)
    }

    /// The shard a document id was placed in, or `None` for an id never
    /// allocated.
    fn shard_of(&self, doc: u32) -> Option<usize> {
        if doc < self.base_docs() {
            Some(self.partition.partition_point(|p| p.base <= doc) - 1)
        } else if u64::from(doc) < u64::from(self.base_docs()) + self.inserts {
            Some(doc as usize % self.shards.len())
        } else {
            None
        }
    }

    /// Live (non-tombstoned) documents.
    pub fn live_docs(&self) -> u64 {
        self.live
    }

    /// Inserts a document, returning its id. The vector is appended to
    /// the open delta of a deterministically chosen shard (round-robin
    /// by document id) and becomes visible from the next snapshot.
    ///
    /// # Errors
    ///
    /// Rejects vectors of the wrong dimension or outside the
    /// `−EMBED_MAX..=EMBED_MAX` band (the device's 16-bit lanes only
    /// hold in-band dot products exactly).
    pub fn insert(&mut self, embedding: &[i16]) -> Result<u32> {
        if embedding.len() != EMBED_DIM {
            return Err(Error::InvalidArg(format!(
                "insert dimension {} != {EMBED_DIM}",
                embedding.len()
            )));
        }
        if embedding
            .iter()
            .any(|v| !(-EMBED_MAX..=EMBED_MAX).contains(v))
        {
            return Err(Error::InvalidArg(format!(
                "insert values outside the ±{EMBED_MAX} embedding band"
            )));
        }
        let doc = u32::try_from(u64::from(self.base_docs()) + self.inserts)
            .map_err(|_| Error::InvalidArg("document id space exhausted".into()))?;
        let shard = doc as usize % self.shards.len();
        let st = &mut self.shards[shard];
        st.open_ids.push(doc);
        if self.materialized {
            st.open_data.extend_from_slice(embedding);
        }
        self.live += 1;
        self.inserts += 1;
        self.cached = None;
        Ok(doc)
    }

    /// Deletes a document. Returns `false` (and changes nothing) if the
    /// id is unknown or already deleted.
    pub fn delete(&mut self, doc: u32) -> bool {
        let Some(shard) = self.shard_of(doc) else {
            return false;
        };
        let st = &mut self.shards[shard];
        // A compacted-away document is in no segment; a deleted but not
        // yet compacted one already has its tombstone.
        if !st.holds(doc) || !st.tombstones.insert(doc) {
            return false;
        }
        self.live -= 1;
        self.deletes += 1;
        self.cached = None;
        true
    }

    /// Updates a document: tombstones the old id, inserts the new
    /// vector, returns the fresh id.
    ///
    /// # Errors
    ///
    /// Fails if `doc` is unknown/deleted or the vector is invalid (in
    /// which case nothing changes — validation precedes the delete).
    pub fn update(&mut self, doc: u32, embedding: &[i16]) -> Result<u32> {
        if embedding.len() != EMBED_DIM
            || embedding
                .iter()
                .any(|v| !(-EMBED_MAX..=EMBED_MAX).contains(v))
        {
            return Err(Error::InvalidArg("invalid replacement vector".into()));
        }
        if !self.delete(doc) {
            return Err(Error::InvalidArg(format!(
                "update of unknown or deleted document {doc}"
            )));
        }
        self.insert(embedding)
    }

    /// Publishes the current state as an immutable snapshot (sealing
    /// any open delta). Repeated calls without intervening mutations
    /// return the *same* `Arc` with the same id; each mutation batch
    /// costs exactly one snapshot number.
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        if let Some(snap) = &self.cached {
            return Arc::clone(snap);
        }
        for s in 0..self.shards.len() {
            let epoch = self.next_epoch;
            let sealed = !self.shards[s].open_ids.is_empty();
            self.shards[s].seal_open(self.seed, self.bytes_per_chunk, self.materialized, epoch);
            if sealed {
                self.next_epoch += 1;
            }
        }
        let shards = self
            .shards
            .iter()
            .map(|st| {
                let mut segments = Vec::with_capacity(1 + st.deltas.len());
                segments.push(Arc::clone(&st.base));
                segments.extend(st.deltas.iter().cloned());
                ShardSnapshot {
                    segments,
                    tombstones: Arc::new(st.tombstones.iter().copied().collect()),
                }
            })
            .collect();
        let snap = Arc::new(Snapshot {
            id: self.next_snapshot,
            shards,
        });
        self.next_snapshot += 1;
        self.cached = Some(Arc::clone(&snap));
        snap
    }

    /// Captures a compaction plan for `shard` (sealing its open delta):
    /// merge base + deltas minus tombstones into a fresh base. Returns
    /// `None` when there is nothing to compact or a plan for the shard
    /// is already outstanding. The plan is queued for the serving layer
    /// ([`MutableCorpus::take_plans`]); `at` is the virtual time the
    /// device task will be submitted at.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range shard.
    pub fn request_compaction(
        &mut self,
        shard: usize,
        at: Duration,
    ) -> Result<Option<CompactionTicket>> {
        if shard >= self.shards.len() {
            return Err(Error::InvalidArg(format!(
                "compaction shard {shard} out of range 0..{}",
                self.shards.len()
            )));
        }
        if self.shards[shard].compacting {
            return Ok(None);
        }
        {
            let epoch = self.next_epoch;
            let sealed = !self.shards[shard].open_ids.is_empty();
            self.shards[shard].seal_open(self.seed, self.bytes_per_chunk, self.materialized, epoch);
            if sealed {
                self.next_epoch += 1;
                self.cached = None;
            }
        }
        let st = &mut self.shards[shard];
        if st.deltas.is_empty() && st.tombstones.is_empty() {
            return Ok(None);
        }
        let seq = self.next_plan;
        self.next_plan += 1;
        let merged_epoch = self.next_epoch;
        self.next_epoch += 1;
        // A plan-unique key: compactions never batch with queries or
        // with each other.
        let key = BatchKey::new(fnv1a(&[
            u64::from_le_bytes(*b"compact\0"),
            seq,
            shard as u64,
        ]));
        let mut segments = Vec::with_capacity(1 + st.deltas.len());
        segments.push(Arc::clone(&st.base));
        segments.extend(st.deltas.iter().cloned());
        let plan = Arc::new(CompactionPlan {
            seq,
            shard,
            key,
            at,
            segments,
            tombstones: st.tombstones.iter().copied().collect(),
            merged_epoch,
            bytes_per_chunk: self.bytes_per_chunk,
            materialized: self.materialized,
        });
        st.compacting = true;
        let ticket = plan.ticket();
        self.plans.push(plan);
        Ok(Some(ticket))
    }

    /// Drains the captured plans for submission (serving layer only).
    pub fn take_plans(&mut self) -> Vec<Arc<CompactionPlan>> {
        std::mem::take(&mut self.plans)
    }

    /// Current base-segment epoch of each shard, in shard order. Unlike
    /// [`MutableCorpus::snapshot`] this has no side effects (nothing is
    /// sealed); the serving layer uses it to prune per-epoch index
    /// caches after compaction.
    pub fn base_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.base.store.epoch()).collect()
    }

    /// Installs a completed compaction: the merged segment replaces
    /// exactly the plan's captured segments, and the plan's captured
    /// tombstones are retired. Deltas sealed and tombstones added after
    /// the plan was captured survive untouched.
    pub fn apply_compaction(&mut self, plan: &CompactionPlan, merged: Segment) {
        let st = &mut self.shards[plan.shard];
        let planned: BTreeSet<u64> = plan.segments.iter().map(|s| s.store.epoch()).collect();
        st.deltas.retain(|d| !planned.contains(&d.store.epoch()));
        st.base = Arc::new(merged);
        for t in &plan.tombstones {
            st.tombstones.remove(t);
        }
        st.compacting = false;
        self.compactions += 1;
        self.cached = None;
    }

    /// Records a failed compaction: the corpus is left exactly as it
    /// was (the shard may be re-requested later).
    pub fn fail_compaction(&mut self, plan: &CompactionPlan) {
        self.shards[plan.shard].compacting = false;
        self.compaction_failures += 1;
    }

    /// Current mutation counters and gauges.
    pub fn stats(&self) -> CorpusStats {
        let mut s = CorpusStats {
            live_docs: self.live,
            inserts: self.inserts,
            deletes: self.deletes,
            snapshots: self.next_snapshot - 1,
            compactions: self.compactions,
            compaction_failures: self.compaction_failures,
            ..CorpusStats::default()
        };
        for st in &self.shards {
            s.base_docs += st.base.len() as u64;
            s.tombstones += st.tombstones.len() as u64;
            let delta_docs: u64 =
                st.deltas.iter().map(|d| d.len() as u64).sum::<u64>() + st.open_ids.len() as u64;
            s.delta_docs += delta_docs;
            s.delta_segments += st.deltas.len() as u64 + u64::from(!st.open_ids.is_empty());
            s.delta_bytes += delta_docs * EMBED_DIM as u64 * 2;
        }
        s
    }
}

/// CPU reference for the differential harness: exact top-`k` of one
/// shard-snapshot's live documents (every segment, minus tombstones),
/// by full-precision dot product with the shared tie-break.
pub fn flat_scan_shard(shard: &ShardSnapshot, query: &[i16], k: usize) -> Vec<Hit> {
    let mut hits = Vec::new();
    for seg in &shard.segments {
        for (local, doc) in seg.ids.iter().enumerate() {
            if shard.tombstones.binary_search(&doc).is_ok() {
                continue;
            }
            hits.push(Hit {
                chunk: doc,
                score: crate::cpu::dot(seg.store.embedding(local), query),
            });
        }
    }
    top_k(hits, k)
}

/// CPU reference over a whole [`Snapshot`]: the exact top-`k` of every
/// live document the snapshot contains. What a query admitted against
/// this snapshot must return, element-identically.
pub fn flat_scan(snapshot: &Snapshot, query: &[i16], k: usize) -> Vec<Hit> {
    let parts = snapshot
        .shards
        .iter()
        .map(|sh| flat_scan_shard(sh, query, k))
        .collect();
    merge_top_k(parts, k)
}

/// Batch-compatibility key for snapshot scans: two queries may share a
/// dispatch only when they scan the same shard of the same snapshot
/// with the same `k` and index mode. Snapshot ids are stable values, so
/// queries admitted against the same snapshot batch across drain calls
/// while queries straddling a mutation never coalesce.
pub fn snapshot_batch_key(shard: usize, snapshot_id: u64, k: usize, mode: IndexMode) -> BatchKey {
    let (tag, nlist, nprobe) = match mode {
        IndexMode::Flat => (0u64, 0u64, 0u64),
        IndexMode::Ivf { nlist, nprobe } => (1, nlist as u64, nprobe as u64),
    };
    BatchKey::new(fnv1a(&[
        u64::from_le_bytes(*b"mutsnap\0"),
        shard as u64,
        snapshot_id,
        k as u64,
        tag,
        nlist,
        nprobe,
    ]))
}

fn zero_report() -> TaskReport {
    TaskReport {
        cycles: Cycles::ZERO,
        duration: Duration::ZERO,
        stats: Default::default(),
        cores_used: 0,
    }
}

/// Scans one shard of a snapshot for a batch of queries: every segment
/// of `shard` goes through the batch kernel — the base through `ivf`
/// when given (deltas always flat) — requesting `k +
/// tombstones_in_segment` candidates per segment, tombstoned hits are
/// dropped, and the parts merge to the per-query top-`k` over the
/// snapshot's live documents. Hits carry document ids. The report's
/// service time includes every segment's off-chip stream. Also returns
/// the IVF counters of the base search.
///
/// Serving runs this inside [`crate::batch::run_boxed`].
///
/// # Errors
///
/// Propagates kernel failures.
pub fn snapshot_scan(
    dev: &mut ApuDevice,
    hbm: &mut MemorySystem,
    shard: &ShardSnapshot,
    ivf: Option<(&IvfIndex, usize)>,
    queries: &[Vec<i16>],
    k: usize,
) -> Result<(TaskReport, Vec<Vec<Hit>>, IvfStats)> {
    let nq = queries.len();
    let tomb = shard.tombstones.as_slice();
    let mut report = zero_report();
    let mut stream_ms = 0.0;
    let mut ivf_stats = IvfStats::default();
    let mut parts: Vec<Vec<Vec<Hit>>> = vec![Vec::new(); nq];

    for (si, seg) in shard.segments.iter().enumerate() {
        let chunks = seg.store.spec().chunks;
        if chunks == 0 || k == 0 {
            continue;
        }
        // Tombstones in this segment: both id sets are sorted and free
        // of duplicates, so one lookup in `ids` per tombstone counts the
        // overlap.
        let tomb_in = tomb.iter().filter(|&&t| seg.ids.contains(t)).count();
        // k + tombstones candidates guarantee ≥ k live survivors (or
        // every live document when the segment is smaller than that).
        let k_eff = (k + tomb_in).min(chunks);
        let remap = |hits: Vec<Hit>| -> Vec<Hit> {
            let mapped = hits
                .into_iter()
                .map(|h| Hit {
                    chunk: seg.ids.get(h.chunk as usize),
                    score: h.score,
                })
                .collect();
            drop_tombstoned(mapped, tomb)
        };
        if si == 0 {
            if let Some((index, nprobe)) = ivf {
                let search = index.search_batch(dev, hbm, queries, k_eff, nprobe)?;
                report = report.chain(&search.report);
                stream_ms += search.breakdown.load_embedding_ms;
                ivf_stats.absorb(&search.stats);
                for (q, hs) in search.hits.into_iter().enumerate() {
                    parts[q].push(remap(hs));
                }
                continue;
            }
        }
        let scan = retrieve_batch(dev, hbm, &seg.store, queries, k_eff)?;
        report = report.chain(&scan.report);
        stream_ms += scan.breakdown.load_embedding_ms;
        for (q, hs) in scan.hits.into_iter().enumerate() {
            parts[q].push(remap(hs));
        }
    }

    report.duration += Duration::from_secs_f64(stream_ms / 1e3);
    let hits = parts.into_iter().map(|p| merge_top_k(p, k)).collect();
    Ok((report, hits, ivf_stats))
}

/// The compaction device task: merges the plan on the host (the merge
/// result must be available to the serving layer either way) and
/// charges the device for the pass — one DMA + unpack charge per source
/// document, exactly the per-plane movement the scan kernel pays, plus
/// the off-chip stream of all source and merged bytes. The returned
/// batch output is the merged [`Segment`], boxed.
///
/// The charge is a pure function of the plan's shape, so functional and
/// timing-only runs book identical service time.
///
/// # Errors
///
/// Propagates device errors (including injected faults at dispatch).
pub fn run_compaction_task(
    dev: &mut ApuDevice,
    hbm: &mut MemorySystem,
    plan: &CompactionPlan,
) -> Result<(TaskReport, Vec<apu_sim::BatchOutput>)> {
    let merged = plan.merge();
    let src_docs = plan.source_docs() as u64;
    let read_bytes: u64 = plan
        .segments
        .iter()
        .map(|s| s.store.spec().embedding_bytes())
        .sum();
    let write_bytes = merged.store.spec().embedding_bytes();
    let mut report = dev.run_task(|ctx| {
        let per_dma = ctx.timing().dma_l4_l2(EMBED_DIM * 2);
        let per_pio = Cycles::new(ctx.timing().pio_ld_per_elem * EMBED_DIM as u64);
        ctx.core_mut()
            .charge_cycles(CycleClass::Dma, Cycles::new(per_dma.get() * src_docs));
        ctx.core_mut()
            .charge_cycles(CycleClass::Pio, Cycles::new(per_pio.get() * src_docs));
        Ok(())
    })?;
    let stream = hbm.stream_read(0, read_bytes + write_bytes);
    report.duration += Duration::from_secs_f64(stream.millis() / 1e3);
    Ok((report, vec![Ok(Box::new(merged) as Box<dyn Any>)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::SimConfig;
    use hbm_sim::DramSpec;

    fn store(chunks: usize, seed: u64) -> EmbeddingStore {
        EmbeddingStore::materialized(
            CorpusSpec {
                corpus_bytes: (chunks * 64) as u64,
                chunks,
            },
            seed,
        )
    }

    fn device() -> (ApuDevice, MemorySystem) {
        (
            ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20)),
            MemorySystem::new(DramSpec::hbm2e_16gb()),
        )
    }

    fn vec_of(v: i16) -> Vec<i16> {
        vec![v.clamp(-EMBED_MAX, EMBED_MAX); EMBED_DIM]
    }

    #[test]
    fn snapshots_are_immutable_and_monotone() {
        let mut c = MutableCorpus::new(&store(10, 1), 2);
        let s1 = c.snapshot();
        assert_eq!(s1.id, 1);
        assert_eq!(s1.live_docs(), 10);
        // No mutation → same snapshot, same id.
        assert!(Arc::ptr_eq(&s1, &c.snapshot()));
        let d = c.insert(&vec_of(3)).unwrap();
        assert_eq!(d, 10);
        assert!(c.delete(2));
        let s2 = c.snapshot();
        assert_eq!(s2.id, 2);
        assert_eq!(s2.live_docs(), 10);
        // The old snapshot still sees the old state.
        assert_eq!(s1.live_docs(), 10);
        assert!(s1.shards.iter().all(|sh| sh.tombstones.is_empty()));
        assert!(s2
            .shards
            .iter()
            .any(|sh| sh.tombstones.binary_search(&2).is_ok()));
    }

    #[test]
    fn delete_and_update_edge_cases() {
        let mut c = MutableCorpus::new(&store(4, 2), 1);
        assert!(!c.delete(99), "unknown id");
        assert!(c.delete(1));
        assert!(!c.delete(1), "double delete");
        assert!(c.update(1, &vec_of(1)).is_err(), "update of deleted doc");
        let fresh = c.update(0, &vec_of(2)).unwrap();
        assert_eq!(fresh, 4);
        assert!(!c.delete(0), "the updated document is dead");
        assert!(!c.delete(5), "an id never allocated is unknown");
        assert_eq!(c.live_docs(), 3);
        assert!(c.insert(&vec![7i16; EMBED_DIM]).is_err(), "out of band");
        assert!(c.insert(&[0i16; 3]).is_err(), "wrong dimension");
        let st = c.stats();
        assert_eq!(st.inserts, 1);
        assert_eq!(st.deletes, 2);
    }

    #[test]
    fn compaction_merges_exactly_the_captured_state() {
        let base = store(6, 3);
        let mut c = MutableCorpus::new(&base, 1);
        let a = c.insert(&vec_of(1)).unwrap();
        c.delete(0);
        c.delete(a);
        let ticket = c
            .request_compaction(0, Duration::ZERO)
            .unwrap()
            .expect("work exists");
        // A second request while one is outstanding is refused.
        assert!(c.request_compaction(0, Duration::ZERO).unwrap().is_none());
        // Post-plan writes must survive the merge.
        let late = c.insert(&vec_of(2)).unwrap();
        c.delete(1);
        let plans = c.take_plans();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].ticket(), ticket);
        let merged = plans[0].merge();
        // Merged = base docs 0..6 minus {0, a} (doc 1's delete came
        // after the plan, so it stays physically present).
        assert_eq!(merged.ids, SegmentIds::List(vec![1, 2, 3, 4, 5]));
        assert_eq!(merged.store.spec().chunks, 5);
        for (local, doc) in merged.ids.iter().enumerate() {
            assert_eq!(merged.store.embedding(local), base.embedding(doc as usize));
        }
        c.apply_compaction(&plans[0], merged);
        // Doc 0 was merged away with its tombstone: no segment holds it,
        // so it stays dead.
        assert!(!c.delete(0), "a compacted-away document is dead");
        let snap = c.snapshot();
        // Live = 5 base survivors − late delete of doc 1 + late insert.
        assert_eq!(snap.live_docs(), 5);
        let st = c.stats();
        assert_eq!(st.compactions, 1);
        assert_eq!(st.tombstones, 1, "only the post-plan tombstone remains");
        // The post-plan delta segment is still there.
        assert!(snap.shards[0].segments.iter().any(|s| s.ids.contains(late)));
        // Nothing to compact right after compacting + sealing? The
        // post-plan delta still exists, so a new plan is allowed.
        assert!(c.request_compaction(0, Duration::ZERO).unwrap().is_some());
        assert!(c.request_compaction(9, Duration::ZERO).is_err());
    }

    #[test]
    fn failed_compaction_leaves_the_corpus_untouched() {
        let mut c = MutableCorpus::new(&store(5, 4), 1);
        c.delete(3);
        let before = c.snapshot();
        let t = c.request_compaction(0, Duration::ZERO).unwrap().unwrap();
        let plans = c.take_plans();
        c.fail_compaction(&plans[0]);
        let st = c.stats();
        assert_eq!(st.compaction_failures, 1);
        assert_eq!(st.compactions, 0);
        let after = c.snapshot();
        assert!(Arc::ptr_eq(&before, &after), "no state change on failure");
        // The shard can be re-requested after the failure.
        let t2 = c.request_compaction(0, Duration::ZERO).unwrap().unwrap();
        assert_ne!(t.key, t2.key, "each plan gets a unique batch key");
    }

    #[test]
    fn snapshot_scan_matches_cpu_flat_scan() {
        let base = store(600, 5);
        let mut c = MutableCorpus::new(&base, 2);
        for i in 0..40 {
            c.insert(&base.query(1000 + i)).unwrap();
        }
        for doc in [0u32, 5, 17, 300, 610] {
            assert!(c.delete(doc));
        }
        let snap = c.snapshot();
        let (mut dev, mut hbm) = device();
        let queries: Vec<Vec<i16>> = (0..3).map(|i| base.query(i)).collect();
        for q in &queries {
            let mut parts = Vec::new();
            for sh in &snap.shards {
                let (_, mut hits, _) =
                    snapshot_scan(&mut dev, &mut hbm, sh, None, std::slice::from_ref(q), 7)
                        .unwrap();
                parts.push(hits.remove(0));
            }
            let device_hits = merge_top_k(parts, 7);
            assert_eq!(device_hits, flat_scan(&snap, q, 7));
            assert!(device_hits
                .iter()
                .all(|h| ![0u32, 5, 17, 300, 610].contains(&h.chunk)));
        }
    }

    #[test]
    fn snapshot_scan_with_full_probe_ivf_is_element_identical() {
        let base = store(500, 6);
        let mut c = MutableCorpus::new(&base, 1);
        for i in 0..20 {
            c.insert(&base.query(2000 + i)).unwrap();
        }
        c.delete(2);
        c.delete(501);
        let snap = c.snapshot();
        let sh = &snap.shards[0];
        let index = IvfIndex::build(&sh.segments[0].store, 8);
        let (mut dev, mut hbm) = device();
        let q = base.query(0);
        let (_, hits, stats) = snapshot_scan(
            &mut dev,
            &mut hbm,
            sh,
            Some((&index, index.nlist())),
            std::slice::from_ref(&q),
            9,
        )
        .unwrap();
        assert_eq!(hits[0], flat_scan(&snap, &q, 9));
        assert_eq!(stats.searches, 1);
    }

    #[test]
    fn all_tombstoned_and_empty_shard_scans_return_empty() {
        let mut c = MutableCorpus::new(&store(3, 7), 1);
        for d in 0..3 {
            assert!(c.delete(d));
        }
        let snap = c.snapshot();
        let (mut dev, mut hbm) = device();
        let queries = [store(3, 7).query(0)];
        let (_, hits, _) =
            snapshot_scan(&mut dev, &mut hbm, &snap.shards[0], None, &queries, 5).unwrap();
        assert!(hits[0].is_empty(), "every document is tombstoned");
        assert!(flat_scan(&snap, &store(3, 7).query(0), 5).is_empty());
    }

    #[test]
    fn compaction_task_charges_and_returns_the_merge() {
        let mut c = MutableCorpus::new(&store(50, 8), 1);
        c.insert(&vec_of(1)).unwrap();
        c.delete(10);
        c.request_compaction(0, Duration::ZERO).unwrap().unwrap();
        let plans = c.take_plans();
        let (mut dev, mut hbm) = device();
        let (report, mut outs) = run_compaction_task(&mut dev, &mut hbm, &plans[0]).unwrap();
        assert!(report.cycles > Cycles::ZERO);
        assert!(report.duration > Duration::ZERO);
        let merged = *outs.remove(0).unwrap().downcast::<Segment>().unwrap();
        assert_eq!(merged.len(), 50, "50 base + 1 insert − 1 tombstone");
        assert_eq!(merged.store.epoch(), plans[0].merged_epoch);
        c.apply_compaction(&plans[0], merged);
        let snap = c.snapshot();
        assert_eq!(snap.shards[0].segments.len(), 1, "deltas folded in");
        assert!(snap.shards[0].tombstones.is_empty());
    }

    #[test]
    fn size_only_corpus_mutates_by_shape() {
        let dry = EmbeddingStore::size_only(
            CorpusSpec {
                corpus_bytes: 4096,
                chunks: 64,
            },
            9,
        );
        let mut c = MutableCorpus::new(&dry, 2);
        for _ in 0..6 {
            c.insert(&vec_of(0)).unwrap();
        }
        c.delete(0);
        let snap = c.snapshot();
        assert_eq!(snap.live_docs(), 69);
        c.request_compaction(0, Duration::ZERO).unwrap().unwrap();
        let plans = c.take_plans();
        let merged = plans[0].merge();
        assert!(!merged.store.is_materialized());
        let expect = plans[0].source_docs() - 1;
        assert_eq!(merged.len(), expect);
        c.apply_compaction(&plans[0], merged);
        assert_eq!(c.stats().compactions, 1);
    }

    #[test]
    fn batch_and_compaction_keys_are_stable_values() {
        // Keys hash values only, so they repeat run to run and traces
        // carry them; pinned so a change to the hash cannot slip by.
        assert_eq!(
            snapshot_batch_key(0, 1, 5, IndexMode::Flat).get(),
            0x4685_144f_ceeb_7fae
        );
        assert_eq!(
            snapshot_batch_key(3, 42, 10, IndexMode::ivf_default()).get(),
            0x0ee9_9351_ac75_a5e6
        );
        let dry = CorpusSpec {
            corpus_bytes: 640,
            chunks: 10,
        };
        let mut c = MutableCorpus::new(&EmbeddingStore::size_only(dry, 1), 2);
        c.delete(3);
        let ticket = c.request_compaction(0, Duration::ZERO).unwrap().unwrap();
        assert_eq!(ticket.key.get(), 0x3243_4f9f_c9d2_49eb);
    }

    #[test]
    fn segment_epochs_are_unique_across_generations() {
        let mut c = MutableCorpus::new(&store(20, 10), 2);
        c.insert(&vec_of(1)).unwrap();
        c.insert(&vec_of(2)).unwrap();
        let s1 = c.snapshot();
        c.request_compaction(0, Duration::ZERO).unwrap().unwrap();
        let plans = c.take_plans();
        let merged = plans[0].merge();
        c.apply_compaction(&plans[0], merged);
        let s2 = c.snapshot();
        let mut seen = BTreeSet::new();
        for snap in [&s1, &s2] {
            for sh in &snap.shards {
                for seg in &sh.segments {
                    seen.insert(seg.store.epoch());
                }
            }
        }
        // Old base, new base, and every delta are distinct epochs: a
        // fast-forward memo recorded against one generation can never
        // replay against another.
        assert!(seen.len() >= 4, "epochs {seen:?}");
        assert!(!seen.contains(&0), "epoch 0 is reserved for static stores");
    }
}
