//! Timing-only mode must charge exactly the cycles functional mode
//! charges — the property that makes paper-scale timing-only sweeps
//! trustworthy (DESIGN.md §1).
//!
//! The one sanctioned exception is data-dependent control flow (e.g. the
//! histogram occupied-bin scan), which timing-only resolves to the
//! worst case.

use apu_sim::{ApuDevice, ExecMode, SimConfig, Vmr, Vr};
use binmm::{ApuMatmul, BinMatrix};
use cis_core::MatmulVariant;
use gvml::prelude::*;
use hbm_sim::{DramSpec, MemorySystem};
use rag::{retrieve_batch, ApuRetriever, CorpusSpec, EmbeddingStore, RagVariant};

fn devices(l4: usize) -> (ApuDevice, ApuDevice) {
    (
        ApuDevice::new(SimConfig::default().with_l4_bytes(l4)),
        ApuDevice::new(
            SimConfig::default()
                .with_l4_bytes(l4)
                .with_exec_mode(ExecMode::TimingOnly),
        ),
    )
}

#[test]
fn gvml_sequence_is_mode_equivalent() {
    let (mut f, mut t) = devices(8 << 20);
    let kernel = |dev: &mut ApuDevice| {
        let h = dev.alloc_u16(32 * 1024).unwrap();
        dev.run_task(|ctx| {
            ctx.dma_l4_to_l1(Vmr::new(0), h)?;
            ctx.load(Vr::new(0), Vmr::new(0))?;
            let core = ctx.core_mut();
            core.cpy_imm_16(Vr::new(1), 3)?;
            core.mul_s16(Vr::new(2), Vr::new(0), Vr::new(1))?;
            core.add_subgrp_s16(Vr::new(3), Vr::new(2), 256, 1024)?;
            core.eq_imm_16(Marker::new(0), Vr::new(3), 0)?;
            core.count_m(Marker::new(0))?;
            ctx.store(Vmr::new(1), Vr::new(3))?;
            ctx.dma_l1_to_l4(h, Vmr::new(1))
        })
        .unwrap()
    };
    let rf = kernel(&mut f);
    let rt = kernel(&mut t);
    assert_eq!(rf.cycles, rt.cycles);
    assert_eq!(rf.stats.commands, rt.stats.commands);
    assert_eq!(rf.stats.micro_ops, rt.stats.micro_ops);
}

#[test]
fn binmm_variants_are_mode_equivalent() {
    let problem = ApuMatmul::new(
        BinMatrix::random(32, 2048, 1),
        BinMatrix::random(2048, 2048, 2),
    )
    .unwrap();
    let (mut f, mut t) = devices(64 << 20);
    for v in MatmulVariant::ALL {
        let rf = problem.run(&mut f, v).unwrap();
        let rt = problem.run(&mut t, v).unwrap();
        assert_eq!(
            rf.report.cycles,
            rt.report.cycles,
            "{} diverges between modes",
            v.label()
        );
        assert!(rt.c.is_empty() && !rf.c.is_empty());
    }
}

/// The whole report must agree: cycles, duration, cores and every
/// `VcuStats` field down to the per-op counts. Timing-only mode skips
/// staging the data planes, and that must not change a single charge.
#[test]
fn rag_retrieval_is_mode_equivalent() {
    // Two 32K-lane tiles, the second one partial.
    let spec = CorpusSpec {
        corpus_bytes: 0,
        chunks: 40_000,
    };
    let store_f = EmbeddingStore::materialized(spec, 5);
    let store_t = EmbeddingStore::size_only(spec, 5);
    let q = store_f.query(0);
    let (mut f, mut t) = devices(8 << 20);
    for variant in [RagVariant::NoOpt, RagVariant::Opt1, RagVariant::AllOpts] {
        let mut hbm_f = MemorySystem::new(DramSpec::hbm2e_16gb());
        let mut hbm_t = MemorySystem::new(DramSpec::hbm2e_16gb());
        let (_, bf, rf) = ApuRetriever::new(variant)
            .retrieve(&mut f, &mut hbm_f, &store_f, &q, 5)
            .unwrap();
        let (_, bt, rt) = ApuRetriever::new(variant)
            .retrieve(&mut t, &mut hbm_t, &store_t, &q, 5)
            .unwrap();
        assert_eq!(rf, rt, "{} diverges", variant.label());
        assert!((bf.total_ms() - bt.total_ms()).abs() < 1e-9);
    }
    for nq in [1, 5, 12] {
        let queries: Vec<Vec<i16>> = (0..nq).map(|i| store_f.query(i)).collect();
        let mut hbm_f = MemorySystem::new(DramSpec::hbm2e_16gb());
        let mut hbm_t = MemorySystem::new(DramSpec::hbm2e_16gb());
        let bf = retrieve_batch(&mut f, &mut hbm_f, &store_f, &queries, 5).unwrap();
        let bt = retrieve_batch(&mut t, &mut hbm_t, &store_t, &queries, 5).unwrap();
        assert_eq!(bf.report, bt.report, "batch of {nq} diverges");
        assert_eq!(bf.breakdown, bt.breakdown, "batch of {nq} diverges");
    }
}

#[test]
fn phoenix_wordcount_is_mode_equivalent() {
    let text = phoenix::wordcount::generate(60_000, 3);
    let (mut f, mut t) = devices(16 << 20);
    for o in [phoenix::OptConfig::none(), phoenix::OptConfig::all()] {
        // Baseline extraction volume is data-dependent; timing-only uses
        // the expectation hint, so compare only the optimized config
        // exactly and the baseline loosely.
        let (_, rf) = phoenix::wordcount::apu(&mut f, &text, o).unwrap();
        let (_, rt) = phoenix::wordcount::apu(&mut t, &text, o).unwrap();
        if o.reduction_mapping {
            assert_eq!(rf.cycles, rt.cycles);
        } else {
            let ratio = rf.cycles.get() as f64 / rt.cycles.get() as f64;
            assert!((0.5..2.0).contains(&ratio), "baseline ratio {ratio}");
        }
    }
}
