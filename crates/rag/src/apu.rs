//! ENNS retrieval on the simulated compute-in-SRAM device.
//!
//! Scores are inner products of the query against every chunk embedding.
//! Two mappings mirror the paper's optimization story:
//!
//! * **spatial** (no-opt): embeddings stay chunk-major; each VR pass
//!   holds `l / 512` chunks as 512-lane groups (384 dims zero-padded),
//!   multiplies against a query pattern, reduces every group with an
//!   intra-VR subgroup sum, and extracts the scattered scores one PIO
//!   element at a time.
//! * **temporal** (opt1): embeddings are dimension-major; one chunk per
//!   lane, dimensions iterate in time with element-wise
//!   multiply-accumulate, and per-tile top-k candidates leave through a
//!   short extraction phase. Opt2 byte-packs dimension pairs (halving
//!   the on-chip ingress), opt3 pre-stages the query in a
//!   broadcast-friendly form so each dimension broadcast is a single
//!   immediate copy instead of a PIO fetch.
//!
//! Off-chip embedding residency follows the paper: the matrix streams
//! from the *simulated HBM2e* ([`hbm_sim`]); the simulator injects the
//! streamed data directly into each core's L2 (zero APU-side charge) and
//! the APU pays the on-chip L2→L1→VR movement and all compute.

use apu_sim::{ApuContext, ApuDevice, Cycles, Error, TaskReport, Vmr, Vr};
use gvml::prelude::*;
use hbm_sim::MemorySystem;
use serde::{Deserialize, Serialize};

use crate::corpus::{EmbeddingStore, EMBED_DIM};
use crate::cpu::top_k;
use crate::{Hit, Result};

/// Padded per-chunk group width for the spatial mapping (384 → 512).
const PAD_DIM: usize = 512;
/// Score bias making i16 inner products non-negative for unsigned
/// reductions.
const SCORE_BIAS: u16 = 16384;
/// Subgroup width for the per-tile top-k candidate reduction.
const TOPK_SG: usize = 2048;

const VR_PLANE: Vr = Vr::new(0);
const VR_Q: Vr = Vr::new(2);
const VR_Q2: Vr = Vr::new(3);
const VR_ACC: Vr = Vr::new(4);
const VR_T: Vr = Vr::new(5);
const VR_T2: Vr = Vr::new(6);
const VR_IDX: Vr = Vr::new(7);
const VR_MAXV: Vr = Vr::new(8);
const VR_MAXT: Vr = Vr::new(9);
const VR_CONST: Vr = Vr::new(10);
const M0: Marker = Marker::new(0);

/// The Fig. 14 optimization variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RagVariant {
    /// Spatial mapping, no optimizations.
    NoOpt,
    /// Communication-aware reduction mapping only.
    Opt1,
    /// DMA coalescing (byte packing) only, on the spatial mapping.
    Opt2,
    /// Broadcast-friendly query layout only, on the spatial mapping.
    Opt3,
    /// All three.
    AllOpts,
}

impl RagVariant {
    /// All variants in Fig. 14 order.
    pub const ALL: [RagVariant; 5] = [
        RagVariant::NoOpt,
        RagVariant::Opt1,
        RagVariant::Opt2,
        RagVariant::Opt3,
        RagVariant::AllOpts,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            RagVariant::NoOpt => "no opt",
            RagVariant::Opt1 => "opt1",
            RagVariant::Opt2 => "opt2",
            RagVariant::Opt3 => "opt3",
            RagVariant::AllOpts => "all opts",
        }
    }

    fn temporal(&self) -> bool {
        matches!(self, RagVariant::Opt1 | RagVariant::AllOpts)
    }

    fn packed(&self) -> bool {
        matches!(self, RagVariant::Opt2 | RagVariant::AllOpts)
    }

    fn imm_broadcast(&self) -> bool {
        matches!(self, RagVariant::Opt3 | RagVariant::AllOpts)
    }
}

/// Per-stage retrieval latency (the paper's Table 8 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RetrievalBreakdown {
    /// Embedding stream from the simulated HBM2e (ms).
    pub load_embedding_ms: f64,
    /// Query staging (µs).
    pub load_query_us: f64,
    /// Distance computation (ms).
    pub calc_distance_ms: f64,
    /// Per-tile top-k extraction and merge (ms).
    pub topk_ms: f64,
    /// Result return to the host (µs).
    pub return_us: f64,
}

impl RetrievalBreakdown {
    /// Total retrieval latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.load_embedding_ms
            + self.load_query_us / 1e3
            + self.calc_distance_ms
            + self.topk_ms
            + self.return_us / 1e3
    }

    /// Adds another breakdown stage-by-stage — a multi-kernel retrieval
    /// (e.g. an IVF centroid scan followed by cluster rescores) reports
    /// the summed per-stage latency of its sequential parts.
    pub fn accumulate(&mut self, other: &RetrievalBreakdown) {
        self.load_embedding_ms += other.load_embedding_ms;
        self.load_query_us += other.load_query_us;
        self.calc_distance_ms += other.calc_distance_ms;
        self.topk_ms += other.topk_ms;
        self.return_us += other.return_us;
    }
}

/// ENNS retriever bound to one optimization variant.
#[derive(Debug, Clone, Copy)]
pub struct ApuRetriever {
    /// The optimization variant to run.
    pub variant: RagVariant,
}

impl ApuRetriever {
    /// Creates a retriever.
    pub fn new(variant: RagVariant) -> Self {
        ApuRetriever { variant }
    }

    /// Runs one top-k retrieval.
    ///
    /// # Errors
    ///
    /// Fails on device errors, or if a functional run is requested on a
    /// size-only store.
    pub fn retrieve(
        &self,
        dev: &mut ApuDevice,
        hbm: &mut MemorySystem,
        store: &EmbeddingStore,
        query: &[i16],
        k: usize,
    ) -> Result<(Vec<Hit>, RetrievalBreakdown, TaskReport)> {
        if query.len() != EMBED_DIM {
            return Err(Error::InvalidArg(format!(
                "query dimension {} != {EMBED_DIM}",
                query.len()
            )));
        }
        let functional = dev.config().exec_mode.is_functional();
        if functional && !store.is_materialized() {
            return Err(Error::InvalidArg(
                "functional retrieval needs a materialized store".into(),
            ));
        }
        let mut breakdown = RetrievalBreakdown::default();

        // ---- 1. embedding stream from the simulated HBM2e ----
        let stream = hbm.stream_read(0, store.spec().embedding_bytes());
        // The paper: the optimized (dimension-major) layout improves
        // access alignment (8.2 ms → 6.1 ms at 200 GB).
        let layout_eff = if self.variant.temporal() { 1.0 } else { 0.75 };
        breakdown.load_embedding_ms = stream.millis() / layout_eff;

        // ---- 2..4. on-device stages ----
        let (hits, report) = if self.variant.temporal() {
            self.run_temporal(dev, store, query, k, &mut breakdown)?
        } else {
            self.run_spatial(dev, store, query, k, &mut breakdown)?
        };

        // ---- 5. return top-k to the host ----
        breakdown.return_us = (k as f64 * 61.0 + 7_500.0) / dev.config().clock.hz() * 1e6;
        Ok((hits, breakdown, report))
    }

    fn run_spatial(
        &self,
        dev: &mut ApuDevice,
        store: &EmbeddingStore,
        query: &[i16],
        k: usize,
        breakdown: &mut RetrievalBreakdown,
    ) -> Result<(Vec<Hit>, TaskReport)> {
        let l = dev.config().vr_len;
        let packed = self.variant.packed();
        // chunks per pass: 512-lane groups, halved width when packed
        let group = if packed { PAD_DIM / 2 } else { PAD_DIM };
        let chunks_per_pass = l / group;
        let n_chunks = store.spec().chunks;
        let n_passes = n_chunks.div_ceil(chunks_per_pass);
        let clock = dev.config().clock;

        // Host-side staging of pass data (the simulated-HBM content).
        let make_pass = |pass: usize| -> Vec<u16> {
            let mut out = vec![0u16; l];
            for s in 0..chunks_per_pass {
                let c = pass * chunks_per_pass + s;
                if c >= n_chunks {
                    break;
                }
                let e = store.embedding(c);
                if packed {
                    for j in 0..EMBED_DIM / 2 {
                        let lo = (e[2 * j] + 6) as u16;
                        let hi = (e[2 * j + 1] + 6) as u16;
                        out[s * group + j] = lo | (hi << 8);
                    }
                } else {
                    for (j, &v) in e.iter().enumerate() {
                        out[s * group + j] = v as u16;
                    }
                }
            }
            out
        };

        // The paper's retrieval kernel issues one vector-command stream
        // (its no-opt 200 GB distance time matches a single-core issue
        // rate almost exactly); mirror that.
        let mut hits: Vec<Hit> = Vec::new();
        let mut query_cycles = Cycles::ZERO;
        let mut dist_cycles = Cycles::ZERO;
        let report = dev.run_task(|ctx| {
            let t0 = ctx.core().cycles();
            // query staging: small DMA-class transfer + pattern lookup
            // tables in L3
            stage_query_spatial(ctx, query, packed, self.variant.imm_broadcast())?;
            query_cycles = ctx.core().cycles() - t0;
            let t1 = ctx.core().cycles();
            for pass in 0..n_passes {
                inject_l2(ctx, || make_pass(pass))?;
                ctx.dma_l2_to_l1(Vmr::new(47))?;
                ctx.load(VR_PLANE, Vmr::new(47))?;
                let core = ctx.core_mut();
                if packed {
                    // unpack biased bytes and form partial products
                    core.cpy_imm_16(VR_CONST, 0x00FF)?;
                    core.and_16(VR_T, VR_PLANE, VR_CONST)?;
                    core.sr_imm_u16(VR_T2, VR_PLANE, 8)?;
                    core.cpy_imm_16(VR_CONST, 6)?;
                    core.sub_s16(VR_T, VR_T, VR_CONST)?;
                    core.sub_s16(VR_T2, VR_T2, VR_CONST)?;
                    core.mul_s16(VR_T, VR_T, VR_Q)?;
                    core.mul_s16(VR_T2, VR_T2, VR_Q2)?;
                    core.add_s16(VR_T, VR_T, VR_T2)?;
                } else {
                    core.mul_s16(VR_T, VR_PLANE, VR_Q)?;
                }
                core.add_subgrp_s16(VR_T, VR_T, group, group)?;
                // scattered score extraction
                for s in 0..chunks_per_pass {
                    let v = ctx.pio_get(VR_T, s * group)?;
                    let c = pass * chunks_per_pass + s;
                    if c < n_chunks {
                        hits.push(Hit {
                            chunk: c as u32,
                            score: (v as i16) as i32,
                        });
                    }
                }
                hits = top_k(std::mem::take(&mut hits), k);
            }
            dist_cycles = ctx.core().cycles() - t1;
            Ok(())
        })?;
        breakdown.load_query_us = clock.cycles_to_secs(query_cycles) * 1e6;
        breakdown.calc_distance_ms = clock.cycles_to_secs(dist_cycles) * 1e3;
        breakdown.topk_ms = 0.0; // merged on the CP during extraction
        Ok((hits, report))
    }

    fn run_temporal(
        &self,
        dev: &mut ApuDevice,
        store: &EmbeddingStore,
        query: &[i16],
        k: usize,
        breakdown: &mut RetrievalBreakdown,
    ) -> Result<(Vec<Hit>, TaskReport)> {
        let l = dev.config().vr_len;
        let packed = self.variant.packed();
        let imm = self.variant.imm_broadcast();
        let n_chunks = store.spec().chunks;
        let n_tiles = n_chunks.div_ceil(l);
        let clock = dev.config().clock;

        // Host staging of one dimension plane (or packed pair plane).
        let make_plane = |tile: usize, dim_pair: usize| -> Vec<u16> {
            let mut out = vec![0u16; l];
            for (lane, slot) in out.iter_mut().enumerate() {
                let c = tile * l + lane;
                if c >= n_chunks {
                    break;
                }
                let e = store.embedding(c);
                *slot = if packed {
                    let lo = (e[2 * dim_pair] + 6) as u16;
                    let hi = (e[2 * dim_pair + 1] + 6) as u16;
                    lo | (hi << 8)
                } else {
                    e[dim_pair] as u16
                };
            }
            out
        };

        // Single command stream, as in the paper (see run_spatial).
        let mut hits: Vec<Hit> = Vec::new();
        let mut query_cycles = Cycles::ZERO;
        let mut dist_cycles = Cycles::ZERO;
        let mut topk_cycles = Cycles::ZERO;
        let report = dev.run_task(|ctx| {
            let t0 = ctx.core().cycles();
            stage_query_temporal(ctx, query, imm)?;
            query_cycles = ctx.core().cycles() - t0;
            for tile in 0..n_tiles {
                let t1 = ctx.core().cycles();
                ctx.core_mut().cpy_imm_16(VR_ACC, 0)?;
                let dims = if packed { EMBED_DIM / 2 } else { EMBED_DIM };
                for d in 0..dims {
                    inject_l2(ctx, || make_plane(tile, d))?;
                    ctx.dma_l2_to_l1(Vmr::new(47))?;
                    ctx.load(VR_PLANE, Vmr::new(47))?;
                    if packed {
                        broadcast_q(ctx, query[2 * d], imm, VR_Q)?;
                        broadcast_q(ctx, query[2 * d + 1], imm, VR_Q2)?;
                        let core = ctx.core_mut();
                        core.cpy_imm_16(VR_CONST, 0x00FF)?;
                        core.and_16(VR_T, VR_PLANE, VR_CONST)?;
                        core.sr_imm_u16(VR_T2, VR_PLANE, 8)?;
                        core.cpy_imm_16(VR_CONST, 6)?;
                        core.sub_s16(VR_T, VR_T, VR_CONST)?;
                        core.sub_s16(VR_T2, VR_T2, VR_CONST)?;
                        core.mul_s16(VR_T, VR_T, VR_Q)?;
                        core.mul_s16(VR_T2, VR_T2, VR_Q2)?;
                        core.add_s16(VR_ACC, VR_ACC, VR_T)?;
                        core.add_s16(VR_ACC, VR_ACC, VR_T2)?;
                    } else {
                        broadcast_q(ctx, query[d], imm, VR_Q)?;
                        let core = ctx.core_mut();
                        core.mul_s16(VR_T, VR_PLANE, VR_Q)?;
                        core.add_s16(VR_ACC, VR_ACC, VR_T)?;
                    }
                }
                dist_cycles += ctx.core().cycles() - t1;

                // ---- per-tile top-k ----
                let t2 = ctx.core().cycles();
                let core = ctx.core_mut();
                core.cpy_imm_16(VR_CONST, SCORE_BIAS)?;
                core.add_u16(VR_ACC, VR_ACC, VR_CONST)?;
                // zero out lanes past the corpus on the last tile
                let valid = (n_chunks - tile * l).min(l);
                if valid < l {
                    core.create_index_u16(VR_IDX)?;
                    core.cpy_imm_16(VR_T, valid as u16)?;
                    core.ge_u16(M0, VR_IDX, VR_T)?;
                    core.cpy_imm_16_msk(VR_ACC, 0, M0)?;
                }
                core.create_index_u16(VR_IDX)?;
                let cands = tile_top_k(ctx, k)?;
                for (tag, biased) in cands {
                    let c = tile * l + tag as usize;
                    if c < n_chunks && biased > 0 {
                        hits.push(Hit {
                            chunk: c as u32,
                            score: biased as i32 - SCORE_BIAS as i32,
                        });
                    }
                }
                hits = top_k(std::mem::take(&mut hits), k);
                topk_cycles += ctx.core().cycles() - t2;
            }
            Ok(())
        })?;
        breakdown.load_query_us = clock.cycles_to_secs(query_cycles) * 1e6;
        breakdown.calc_distance_ms = clock.cycles_to_secs(dist_cycles) * 1e3;
        breakdown.topk_ms = clock.cycles_to_secs(topk_cycles) * 1e3;
        Ok((hits, report))
    }
}

/// Injects simulated-HBM data directly into the core's L2 (the paper
/// charges off-chip time to the HBM model, not the device DMA tables).
/// Timing-only kernels read no data, so `stage` — the host-side staging
/// of the words — runs in functional mode only.
pub(crate) fn inject_l2(ctx: &mut ApuContext<'_>, stage: impl FnOnce() -> Vec<u16>) -> Result<()> {
    if ctx.core().is_functional() {
        let words = stage();
        let l2 = &mut ctx.core_mut().l2_mut()[..2 * words.len()];
        for (dst, w) in l2.chunks_exact_mut(2).zip(&words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }
    Ok(())
}

/// Stages the query for the spatial mapping: a small DMA-class transfer
/// plus L3 pattern tables, then one-time lookups building the repeated
/// query pattern VR(s).
fn stage_query_spatial(
    ctx: &mut ApuContext<'_>,
    query: &[i16],
    packed: bool,
    friendly: bool,
) -> Result<()> {
    // query upload: one small transfer (charged at DMA-class cost)
    let cost = ctx.timing().dma_l4_l2(EMBED_DIM * 2);
    ctx.core_mut()
        .charge_cycles(apu_sim::core::CycleClass::Dma, cost);
    if friendly {
        // broadcast-friendly prep: per-dimension reformatting by the CP
        let t = ctx.timing();
        let prep = Cycles::new((t.pio_ld_per_elem + t.cpy_imm) * EMBED_DIM as u64);
        ctx.core_mut()
            .charge_cycles(apu_sim::core::CycleClass::Pio, prep);
    }
    // stage the pattern table in L3 and build the repeated query pattern
    let group = if packed { PAD_DIM / 2 } else { PAD_DIM };
    let mut even = vec![0u16; group];
    let mut odd = vec![0u16; group];
    for j in 0..EMBED_DIM {
        if packed {
            if j % 2 == 0 {
                even[j / 2] = query[j] as u16;
            } else {
                odd[j / 2] = query[j] as u16;
            }
        } else {
            even[j] = query[j] as u16;
        }
    }
    ctx.l3_write_u16s(0, &even)?;
    ctx.core_mut().create_grp_index_u16(VR_IDX, group)?;
    ctx.lookup(VR_Q, VR_IDX, 0, group)?;
    if packed {
        ctx.l3_write_u16s(group * 2, &odd)?;
        ctx.lookup(VR_Q2, VR_IDX, group * 2, group)?;
    }
    Ok(())
}

/// Stages the query for the temporal mapping.
fn stage_query_temporal(ctx: &mut ApuContext<'_>, _query: &[i16], friendly: bool) -> Result<()> {
    let cost = ctx.timing().dma_l4_l2(EMBED_DIM * 2);
    ctx.core_mut()
        .charge_cycles(apu_sim::core::CycleClass::Dma, cost);
    if friendly {
        let t = ctx.timing();
        let prep = Cycles::new((t.pio_ld_per_elem + t.cpy_imm) * EMBED_DIM as u64);
        ctx.core_mut()
            .charge_cycles(apu_sim::core::CycleClass::Pio, prep);
    }
    Ok(())
}

/// Broadcasts one query scalar across the VR: a PIO fetch plus masked
/// immediate (opt1) or a direct immediate from the broadcast-friendly
/// staged form (opt3).
fn broadcast_q(ctx: &mut ApuContext<'_>, value: i16, friendly: bool, dst: Vr) -> Result<()> {
    if !friendly {
        let cost = ctx.timing().pio_ld(1);
        ctx.core_mut()
            .charge_cycles(apu_sim::core::CycleClass::Pio, cost);
    }
    ctx.core_mut().cpy_imm_16(dst, value as u16)?;
    Ok(())
}

/// Exact per-tile top-k over the biased scores in `VR_ACC` with lane
/// indices in `VR_IDX`: one subgroup-max pass produces `l / TOPK_SG`
/// candidates; each selection masks the winner out and refreshes only
/// its subgroup's candidate. Destroys `VR_ACC`.
pub(crate) fn tile_top_k(ctx: &mut ApuContext<'_>, k: usize) -> Result<Vec<(u16, u16)>> {
    let l = ctx.core().vr_len();
    let sg = TOPK_SG.min(l);
    let n_sub = l / sg;
    ctx.core_mut()
        .max_subgrp_u16(VR_MAXV, VR_ACC, sg, sg, Some((VR_MAXT, VR_IDX)))?;
    let mut cands: Vec<(usize, u16, u16)> = Vec::with_capacity(n_sub); // (head, score, tag)
    for s in 0..n_sub {
        let head = s * sg;
        let v = ctx.pio_get(VR_MAXV, head)?;
        let t = ctx.pio_get(VR_MAXT, head)?;
        cands.push((head, v, t));
    }
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        // best candidate; ties toward the lower tag (lower chunk id)
        let Some(best_i) = cands
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
            .map(|(i, _)| i)
        else {
            break;
        };
        let (head, v, t) = cands[best_i];
        out.push((t, v));
        // mask the winner out and refresh its subgroup's candidate
        {
            let core = ctx.core_mut();
            core.eq_imm_16(M0, VR_IDX, t)?;
            core.cpy_imm_16_msk(VR_ACC, 0, M0)?;
            core.max_subgrp_u16(VR_MAXV, VR_ACC, sg, sg, Some((VR_MAXT, VR_IDX)))?;
        }
        let v2 = ctx.pio_get(VR_MAXV, head)?;
        let t2 = ctx.pio_get(VR_MAXT, head)?;
        cands[best_i] = (head, v2, t2);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;
    use crate::cpu::cpu_retrieve;
    use apu_sim::{ExecMode, SimConfig};
    use hbm_sim::DramSpec;

    fn setup(chunks: usize) -> (ApuDevice, MemorySystem, EmbeddingStore) {
        let dev = ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20));
        let hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let store = EmbeddingStore::materialized(
            CorpusSpec {
                corpus_bytes: 0,
                chunks,
            },
            42,
        );
        (dev, hbm, store)
    }

    fn check_variant(variant: RagVariant, chunks: usize) {
        let (mut dev, mut hbm, store) = setup(chunks);
        let q = store.query(1);
        let (expected, _) = cpu_retrieve(&store, &q, 5, 4);
        let r = ApuRetriever::new(variant);
        let (hits, breakdown, report) = r.retrieve(&mut dev, &mut hbm, &store, &q, 5).unwrap();
        assert_eq!(hits, expected, "{} top-5 mismatch", variant.label());
        assert!(breakdown.total_ms() > 0.0);
        assert!(report.cycles.get() > 0);
    }

    #[test]
    fn no_opt_matches_cpu() {
        check_variant(RagVariant::NoOpt, 5000);
    }

    #[test]
    fn opt1_matches_cpu() {
        check_variant(RagVariant::Opt1, 5000);
    }

    #[test]
    fn opt2_matches_cpu() {
        check_variant(RagVariant::Opt2, 5000);
    }

    #[test]
    fn opt3_matches_cpu() {
        check_variant(RagVariant::Opt3, 5000);
    }

    #[test]
    fn all_opts_matches_cpu() {
        check_variant(RagVariant::AllOpts, 5000);
    }

    #[test]
    fn multi_tile_temporal_matches_cpu() {
        // more chunks than one VR: exercises cross-tile merging and the
        // last-tile padding mask
        check_variant(RagVariant::AllOpts, 40_000);
    }

    #[test]
    fn opt1_is_the_big_win() {
        let (mut dev, mut hbm, store) = setup(65_536);
        let q = store.query(2);
        let run = |v: RagVariant, dev: &mut ApuDevice, hbm: &mut MemorySystem| {
            let (_, b, _) = ApuRetriever::new(v)
                .retrieve(dev, hbm, &store, &q, 5)
                .unwrap();
            b
        };
        let base = run(RagVariant::NoOpt, &mut dev, &mut hbm);
        let o1 = run(RagVariant::Opt1, &mut dev, &mut hbm);
        let all = run(RagVariant::AllOpts, &mut dev, &mut hbm);
        assert!(
            o1.calc_distance_ms * 3.0 < base.calc_distance_ms,
            "opt1 {} vs base {}",
            o1.calc_distance_ms,
            base.calc_distance_ms
        );
        assert!(all.calc_distance_ms <= o1.calc_distance_ms);
        assert!(all.total_ms() < base.total_ms());
    }

    #[test]
    fn timing_only_runs_at_paper_scale() {
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_l4_bytes(1 << 20)
                .with_exec_mode(ExecMode::TimingOnly),
        );
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let spec = CorpusSpec::from_corpus_bytes(10_000_000_000);
        let store = EmbeddingStore::size_only(spec, 0);
        let q = vec![1i16; EMBED_DIM];
        let (_, b, _) = ApuRetriever::new(RagVariant::AllOpts)
            .retrieve(&mut dev, &mut hbm, &store, &q, 5)
            .unwrap();
        // Paper Table 8 at 10 GB: ~3.9 ms total, ~0.3 ms embedding load.
        assert!(
            (0.15..0.6).contains(&b.load_embedding_ms),
            "embedding load {} ms",
            b.load_embedding_ms
        );
        assert!(
            (1.0..12.0).contains(&b.total_ms()),
            "total {} ms",
            b.total_ms()
        );
    }
}
