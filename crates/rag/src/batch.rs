//! Extension beyond the paper: **query batching**.
//!
//! The paper serves queries one at a time; every retrieval re-streams
//! the corpus embeddings from off-chip memory and re-pays the on-chip
//! ingress. Because the distance kernel is movement-dominated, serving
//! a batch of queries against each embedding plane amortizes both: one
//! HBM stream and one L2→L1 ingress per plane feed up to 12 per-query
//! accumulators held resident in the vector registers.
//!
//! The batch kernel reuses the all-opts temporal mapping (packed planes,
//! immediate query broadcasts) and produces exactly the same top-k per
//! query as the single-query path.

use std::any::Any;
use std::time::Duration;

use apu_sim::{ApuDevice, BatchKey, Cycles, Error, TaskReport, Vmr, Vr};
use gvml::prelude::*;
use hbm_sim::MemorySystem;

use crate::apu::RetrievalBreakdown;
use crate::corpus::{EmbeddingStore, EMBED_DIM};
use crate::ivf::IndexMode;
use crate::topk::top_k;
use crate::{Hit, Result};

/// Maximum queries per batch: accumulators live in VR 12..24.
pub const MAX_BATCH: usize = 12;

const VR_PLANE: Vr = Vr::new(0);
const VR_Q: Vr = Vr::new(2);
const VR_Q2: Vr = Vr::new(3);
const VR_ACC: Vr = Vr::new(4);
const VR_T: Vr = Vr::new(5);
const VR_T2: Vr = Vr::new(6);
const VR_IDX: Vr = Vr::new(7);
const VR_LO: Vr = Vr::new(8);
const VR_HI: Vr = Vr::new(9);
const VR_CONST: Vr = Vr::new(10);
const VR_ACC0: u8 = 12;
const M0: Marker = Marker::new(0);
const SCORE_BIAS: u16 = 16384;

/// Result of a batched retrieval.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query top-k hits, in input order.
    pub hits: Vec<Vec<Hit>>,
    /// Whole-batch latency breakdown (one embedding stream for all).
    pub breakdown: RetrievalBreakdown,
    /// Device report for the batch.
    pub report: TaskReport,
}

impl BatchResult {
    /// Amortized per-query retrieval latency in milliseconds.
    pub fn per_query_ms(&self) -> f64 {
        self.breakdown.total_ms() / self.hits.len().max(1) as f64
    }
}

/// Batch-compatibility key for continuous batching on an
/// [`apu_sim::DeviceQueue`]: two retrievals may share a device dispatch
/// only when they scan the same corpus shard with the same `k` and
/// [`IndexMode`]. A flat scan and an IVF search answer different
/// questions (exact vs approximate) with different kernels, so they
/// never coalesce, and neither do IVF searches with different `nlist` /
/// `nprobe`. The key hashes stable values only — the shard index, not a
/// store's address — so the same workload reproduces the same keys, and
/// byte-identical traces, on every run.
pub fn retrieval_batch_key_for(shard: usize, k: usize, mode: IndexMode) -> BatchKey {
    let (tag, nlist, nprobe) = match mode {
        IndexMode::Flat => (0u64, 0u64, 0u64),
        IndexMode::Ivf { nlist, nprobe } => (1, nlist as u64, nprobe as u64),
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        u64::from_le_bytes(*b"ragshard"),
        shard as u64,
        k as u64,
        tag,
        nlist,
        nprobe,
    ] {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    BatchKey::new(h)
}

/// The type-erased glue of every retrieval [`apu_sim::queue::BatchRunner`]:
/// downcasts each member payload to its query vector (`Vec<i16>`), runs
/// `scan` once over the valid queries, and re-boxes the per-query hits
/// (`Vec<Hit>`) in member order. `scan` returns the dispatch's report
/// and one hit list per query it was given.
///
/// A payload that is not a query vector poisons only its own slot: it
/// comes back as a per-member `Err` while the valid members still run
/// (and batch) normally. A dispatch with no valid member at all returns
/// a zero-cost report and all-`Err` outputs without calling `scan`, so
/// malformed submissions never take down their batch mates.
///
/// # Errors
///
/// Propagates `scan` failures, which fail the whole dispatch.
pub fn run_boxed<F>(
    payloads: Vec<Box<dyn Any>>,
    scan: F,
) -> Result<(TaskReport, Vec<apu_sim::BatchOutput>)>
where
    F: FnOnce(&[Vec<i16>]) -> Result<(TaskReport, Vec<Vec<Hit>>)>,
{
    let n = payloads.len();
    let mut queries: Vec<Vec<i16>> = Vec::with_capacity(n);
    // Slot of each valid member in `queries`, or None for poisoned ones.
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(n);
    for p in payloads {
        match p.downcast::<Vec<i16>>() {
            Ok(q) => {
                slots.push(Some(queries.len()));
                queries.push(*q);
            }
            Err(_) => slots.push(None),
        }
    }

    let (report, hits) = if queries.is_empty() {
        let report = TaskReport {
            cycles: Cycles::ZERO,
            duration: Duration::ZERO,
            stats: Default::default(),
            cores_used: 0,
        };
        (report, Vec::new())
    } else {
        scan(&queries)?
    };
    let mut hits: Vec<Option<Vec<Hit>>> = hits.into_iter().map(Some).collect();
    let outputs = slots
        .into_iter()
        .map(|slot| match slot {
            Some(i) => {
                Ok(Box::new(hits[i].take().expect("each slot is taken once")) as Box<dyn Any>)
            }
            None => Err(Error::InvalidArg(
                "batch payload is not a query vector".into(),
            )),
        })
        .collect();
    Ok((report, outputs))
}

/// Runs one batched top-k retrieval with the all-opts kernel.
///
/// # Errors
///
/// Fails on empty or oversized batches, wrong query dimensions, device
/// errors, or a size-only store in functional mode.
pub fn retrieve_batch(
    dev: &mut ApuDevice,
    hbm: &mut MemorySystem,
    store: &EmbeddingStore,
    queries: &[Vec<i16>],
    k: usize,
) -> Result<BatchResult> {
    if queries.is_empty() || queries.len() > MAX_BATCH {
        return Err(Error::InvalidArg(format!(
            "batch size {} outside 1..={MAX_BATCH}",
            queries.len()
        )));
    }
    for q in queries {
        if q.len() != EMBED_DIM {
            return Err(Error::InvalidArg(format!(
                "query dimension {} != {EMBED_DIM}",
                q.len()
            )));
        }
    }
    let functional = dev.config().exec_mode.is_functional();
    if functional && !store.is_materialized() {
        return Err(Error::InvalidArg(
            "functional retrieval needs a materialized store".into(),
        ));
    }
    let l = dev.config().vr_len;
    let n_chunks = store.spec().chunks;
    let n_tiles = n_chunks.div_ceil(l);
    let clock = dev.config().clock;
    let nq = queries.len();

    let mut breakdown = RetrievalBreakdown::default();
    // One embedding stream serves the whole batch.
    let stream = hbm.stream_read(0, store.spec().embedding_bytes());
    breakdown.load_embedding_ms = stream.millis();

    let make_plane = |tile: usize, dim_pair: usize| -> Vec<u16> {
        let mut out = vec![0u16; l];
        for (lane, slot) in out.iter_mut().enumerate() {
            let c = tile * l + lane;
            if c >= n_chunks {
                break;
            }
            let e = store.embedding(c);
            let lo = (e[2 * dim_pair] + 6) as u16;
            let hi = (e[2 * dim_pair + 1] + 6) as u16;
            *slot = lo | (hi << 8);
        }
        out
    };

    // Kernel signature for memoized timing replay (see
    // [`ApuDevice::run_task_memoized`]): in timing-only mode — the only
    // mode that ever replays — both the cycle charge and the (empty)
    // hit payload depend exactly on the corpus tiling and batch shape,
    // so the key hashes those and nothing else. Functional runs always
    // execute, so data-dependence is irrelevant to the key. The store's
    // content epoch is folded in so a mutable corpus never replays a
    // cycle charge recorded against a different snapshot generation —
    // compaction swaps in a fresh-epoch base, invalidating stale memos
    // even when the chunk count happens to coincide.
    let key = {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            u64::from_le_bytes(*b"ragbatch"),
            n_chunks as u64,
            nq as u64,
            k as u64,
            l as u64,
            store.epoch(),
        ] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    };
    let make_plane = &make_plane;
    let (report, (all_hits, query_cycles, dist_cycles, topk_cycles)) =
        dev.run_task_memoized(key, move |ctx| {
            let mut all_hits: Vec<Vec<Hit>> = vec![Vec::new(); nq];
            let mut dist = Cycles::ZERO;
            let mut topk = Cycles::ZERO;
            // query staging: one broadcast-friendly prep per query
            let t0 = ctx.core().cycles();
            for _ in 0..nq {
                let cost = ctx.timing().dma_l4_l2(EMBED_DIM * 2);
                ctx.core_mut()
                    .charge_cycles(apu_sim::core::CycleClass::Dma, cost);
                let t = ctx.timing();
                let prep = Cycles::new((t.pio_ld_per_elem + t.cpy_imm) * EMBED_DIM as u64);
                ctx.core_mut()
                    .charge_cycles(apu_sim::core::CycleClass::Pio, prep);
            }
            let qc = ctx.core().cycles() - t0;

            for tile in 0..n_tiles {
                let t1 = ctx.core().cycles();
                for q in 0..nq {
                    ctx.core_mut().cpy_imm_16(Vr::new(VR_ACC0 + q as u8), 0)?;
                }
                for d in 0..EMBED_DIM / 2 {
                    crate::apu_inject_l2(ctx, || make_plane(tile, d))?;
                    ctx.dma_l2_to_l1(Vmr::new(47))?;
                    ctx.load(VR_PLANE, Vmr::new(47))?;
                    // shared unpack
                    {
                        let core = ctx.core_mut();
                        core.cpy_imm_16(VR_CONST, 0x00FF)?;
                        core.and_16(VR_LO, VR_PLANE, VR_CONST)?;
                        core.sr_imm_u16(VR_HI, VR_PLANE, 8)?;
                        core.cpy_imm_16(VR_CONST, 6)?;
                        core.sub_s16(VR_LO, VR_LO, VR_CONST)?;
                        core.sub_s16(VR_HI, VR_HI, VR_CONST)?;
                    }
                    for (q, query) in queries.iter().enumerate() {
                        let acc = Vr::new(VR_ACC0 + q as u8);
                        let core = ctx.core_mut();
                        core.cpy_imm_16(VR_Q, query[2 * d] as u16)?;
                        core.cpy_imm_16(VR_Q2, query[2 * d + 1] as u16)?;
                        core.mul_s16(VR_T, VR_LO, VR_Q)?;
                        core.mul_s16(VR_T2, VR_HI, VR_Q2)?;
                        core.add_s16(acc, acc, VR_T)?;
                        core.add_s16(acc, acc, VR_T2)?;
                    }
                }
                dist += ctx.core().cycles() - t1;

                // per-query top-k on this tile
                let t2 = ctx.core().cycles();
                let valid = (n_chunks - tile * l).min(l);
                for (q, slot) in all_hits.iter_mut().enumerate() {
                    let acc = Vr::new(VR_ACC0 + q as u8);
                    {
                        let core = ctx.core_mut();
                        core.cpy_16(VR_ACC, acc)?;
                        core.cpy_imm_16(VR_CONST, SCORE_BIAS)?;
                        core.add_u16(VR_ACC, VR_ACC, VR_CONST)?;
                        if valid < l {
                            core.create_index_u16(VR_IDX)?;
                            core.cpy_imm_16(VR_T, valid as u16)?;
                            core.ge_u16(M0, VR_IDX, VR_T)?;
                            core.cpy_imm_16_msk(VR_ACC, 0, M0)?;
                        }
                        core.create_index_u16(VR_IDX)?;
                    }
                    for (tag, biased) in crate::apu_tile_top_k(ctx, k)? {
                        let c = tile * l + tag as usize;
                        if c < n_chunks && biased > 0 {
                            slot.push(Hit {
                                chunk: c as u32,
                                score: biased as i32 - SCORE_BIAS as i32,
                            });
                        }
                    }
                    *slot = top_k(std::mem::take(slot), k);
                }
                topk += ctx.core().cycles() - t2;
            }
            Ok((all_hits, qc, dist, topk))
        })?;
    breakdown.load_query_us = clock.cycles_to_secs(query_cycles) * 1e6;
    breakdown.calc_distance_ms = clock.cycles_to_secs(dist_cycles) * 1e3;
    breakdown.topk_ms = clock.cycles_to_secs(topk_cycles) * 1e3;
    breakdown.return_us = nq as f64 * (k as f64 * 61.0 + 7_500.0) / clock.hz() * 1e6;
    Ok(BatchResult {
        hits: all_hits,
        breakdown,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apu::{ApuRetriever, RagVariant};
    use crate::corpus::CorpusSpec;
    use crate::cpu::cpu_retrieve;
    use apu_sim::SimConfig;
    use hbm_sim::DramSpec;

    fn setup(chunks: usize) -> (ApuDevice, MemorySystem, EmbeddingStore) {
        (
            ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20)),
            MemorySystem::new(DramSpec::hbm2e_16gb()),
            EmbeddingStore::materialized(
                CorpusSpec {
                    corpus_bytes: 0,
                    chunks,
                },
                77,
            ),
        )
    }

    #[test]
    fn batched_results_match_per_query_cpu() {
        let (mut dev, mut hbm, store) = setup(40_000);
        let queries: Vec<Vec<i16>> = (0..4).map(|i| store.query(i)).collect();
        let batch = retrieve_batch(&mut dev, &mut hbm, &store, &queries, 5).unwrap();
        for (q, hits) in batch.hits.iter().enumerate() {
            let (expected, _) = cpu_retrieve(&store, &queries[q], 5, 4);
            assert_eq!(hits, &expected, "query {q}");
        }
    }

    #[test]
    fn batching_amortizes_per_query_latency() {
        let (mut dev, mut hbm, store) = setup(65_536);
        let q1 = vec![store.query(0)];
        let single = retrieve_batch(&mut dev, &mut hbm, &store, &q1, 5).unwrap();
        let q8: Vec<Vec<i16>> = (0..8).map(|i| store.query(i)).collect();
        let mut hbm2 = MemorySystem::new(DramSpec::hbm2e_16gb());
        let batch = retrieve_batch(&mut dev, &mut hbm2, &store, &q8, 5).unwrap();
        assert!(
            batch.per_query_ms() < single.per_query_ms() * 0.75,
            "batch {:.3} ms/q vs single {:.3} ms/q",
            batch.per_query_ms(),
            single.per_query_ms()
        );
    }

    #[test]
    fn batch_of_one_matches_single_query_path() {
        let (mut dev, mut hbm, store) = setup(20_000);
        let q = store.query(3);
        let batch =
            retrieve_batch(&mut dev, &mut hbm, &store, std::slice::from_ref(&q), 5).unwrap();
        let mut hbm2 = MemorySystem::new(DramSpec::hbm2e_16gb());
        let (hits, _, _) = ApuRetriever::new(RagVariant::AllOpts)
            .retrieve(&mut dev, &mut hbm2, &store, &q, 5)
            .unwrap();
        assert_eq!(batch.hits[0], hits);
    }

    #[test]
    fn batch_size_is_validated() {
        let (mut dev, mut hbm, store) = setup(1000);
        assert!(retrieve_batch(&mut dev, &mut hbm, &store, &[], 5).is_err());
        let too_many: Vec<Vec<i16>> = (0..13).map(|i| store.query(i)).collect();
        assert!(retrieve_batch(&mut dev, &mut hbm, &store, &too_many, 5).is_err());
        let wrong_dim = vec![vec![1i16; 3]];
        assert!(retrieve_batch(&mut dev, &mut hbm, &store, &wrong_dim, 5).is_err());
    }
}
