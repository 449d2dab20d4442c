#![warn(missing_docs)]

//! Retrieval-augmented generation (RAG) with exact nearest-neighbour
//! search (ENNS) on CPU, a GPU model, and the simulated compute-in-SRAM
//! device (paper §5.3).
//!
//! The pipeline embeds a query, scores it against every corpus chunk by
//! inner product (ENNS — no approximate index, no recall loss), gathers
//! the top-k chunks, and hands them to the generation model. The paper
//! shows the compute-in-SRAM device accelerating the retrieval stage by
//! 4.8×–6.6× over an optimized CPU baseline while using a small fraction
//! of a GPU's energy.
//!
//! Following the paper's methodology:
//!
//! * corpus embeddings live in a **simulated HBM2e** off-chip memory
//!   ([`hbm_sim`]); everything else is charged on the simulated APU;
//! * embeddings are low-precision (values in −6..=6) so dot products fit
//!   the device's 16-bit lanes; CPU and device produce bit-identical
//!   scores;
//! * corpus sizes are parameterized — the paper's 10/50/200 GB points
//!   run timing-only, tests run functionally at small scale.

pub mod apu;
pub mod batch;
pub mod corpus;
pub mod cpu;
pub mod gpu;
pub mod ivf;
pub mod mutable;
pub mod pipeline;
pub mod serve;
pub mod topk;

pub use apu::{ApuRetriever, RagVariant, RetrievalBreakdown};
pub use batch::{retrieve_batch, run_boxed, BatchResult, MAX_BATCH};
pub use corpus::{ClusteredCorpus, CorpusShard, CorpusSpec, EmbeddingStore};
pub use cpu::{cpu_model_retrieval_ms, cpu_retrieve, CpuRetrievalModel};
pub use gpu::{GenerationModel, GpuRetrievalModel};
pub use ivf::{IndexMode, IvfIndex, IvfStats, DEFAULT_NLIST, DEFAULT_NPROBE};
pub use mutable::{
    flat_scan, CompactionPlan, CompactionTicket, CorpusStats, MutableCorpus, Segment, SegmentIds,
    ShardSnapshot, Snapshot,
};
pub use pipeline::{EndToEnd, Platform, RagPipeline};
pub use serve::{
    QueryCompletion, QuerySpec, QueryTicket, ReplicaStats, ServeConfig, ServeReport,
    ShardedRagServer,
};
pub use topk::{drop_tombstoned, merge_top_k, top_k};

pub(crate) use apu::{inject_l2 as apu_inject_l2, tile_top_k as apu_tile_top_k};

/// FNV-1a over whole `u64` words: the stable hash behind the batch
/// kernel's memo key, snapshot batch keys and compaction keys. It hashes
/// values only, never addresses, so a workload reproduces its keys, and
/// byte-identical traces, on every run.
pub(crate) fn fnv1a(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Crate-wide result alias (errors are [`apu_sim::Error`]).
pub type Result<T> = apu_sim::Result<T>;

/// A retrieval hit: chunk id and (unbiased) inner-product score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Corpus chunk index.
    pub chunk: u32,
    /// Inner-product score.
    pub score: i32,
}
