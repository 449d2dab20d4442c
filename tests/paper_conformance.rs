//! Paper conformance: the anchors the `cis-bench` table and figure
//! binaries print, asserted, plus the DESIGN.md §5 ablations as asserted
//! orderings and ratios.
//!
//! Every anchor runs through the library entry point its binary calls,
//! with that binary's parameters (`run_app`, `ApuRetriever`,
//! `RagPipeline`, `SgAddModel::fit`, `matmul_model::cost`,
//! `ApuMatmul::run`), so nothing here recomputes a number by a second
//! formula. Each pinned value is *ours* — a deterministic simulated or
//! model number — held to ±1% so any drift fails. A failure names the
//! paper's value and the EXPERIMENTS.md "Known deviations" entry that
//! explains the gap between the two. Host wall-clock is never asserted.

use std::collections::HashMap;
use std::time::Duration;

use apu_sim::dma::ChunkCopy;
use apu_sim::{ApuDevice, Cycles, DeviceTiming, ExecMode, SimConfig, VecOp, Vmr, Vr};
use binmm::{ApuMatmul, BinMatrix};
use cis_bench::phoenix_suite::run_app;
use cis_bench::RunCfg;
use cis_core::{matmul_model, MatmulShape, MatmulVariant, Roofline};
use cis_model::{ModelParams, SgAddModel};
use gvml::prelude::*;
use gvml::reduce::sg_add_cycles;
use hbm_sim::{DramSpec, MemorySystem};
use phoenix::{App, OptConfig};
use rag::{
    ApuRetriever, CorpusSpec, EmbeddingStore, EndToEnd, Hit, Platform, RagPipeline, RagVariant,
    ServeConfig, ServeReport, ShardedRagServer,
};

/// Relative band around each pinned value.
const TOL: f64 = 0.01;

/// The EXPERIMENTS.md "Known deviations" entry behind an anchor's gap to
/// the paper.
#[derive(Debug, Clone, Copy)]
enum Gap {
    /// EXPERIMENTS.md reports agreement with the paper.
    Agrees,
    /// Entry 1: kernels leaner (optimized paths) or heavier (histogram,
    /// text µcode) than the silicon.
    Kernels,
    /// Entry 3: the GPU and generation sides are analytical models.
    Models,
    /// Entry 4: the per-bin mark-and-count histogram kernel.
    Histogram,
    /// Entry 6: the simulator charges the model's per-op costs plus
    /// issue and set-up overheads, and nothing else.
    Overheads,
}

impl Gap {
    /// The entry, as the failure message cites it.
    fn entry(self) -> &'static str {
        match self {
            Gap::Agrees => "none, the values agree",
            Gap::Kernels => "1, kernels leaner/heavier than the silicon",
            Gap::Models => "3, GPU and generation are analytical models",
            Gap::Histogram => "4, the histogram device algorithm",
            Gap::Overheads => "6, the model omits only issue/set-up overheads",
        }
    }
}

/// Anchors that left their band. A test checks all of its anchors and
/// then reports every miss at once.
#[derive(Default)]
struct Misses(Vec<String>);

impl Misses {
    /// `ours` must lie within ±[`TOL`] of `pinned`, our value when the
    /// anchor was pinned.
    fn near(&mut self, anchor: &str, ours: f64, pinned: f64, paper: &str, gap: Gap) {
        if (ours - pinned).abs() > TOL * pinned.abs() {
            self.0.push(format!(
                "{anchor}: ours {ours:.6}, pinned {pinned} ±1% \
                 (paper: {paper}; EXPERIMENTS.md Known deviations: {})",
                gap.entry()
            ));
        }
    }

    /// An ordering or threshold that must hold.
    fn holds(&mut self, anchor: &str, ok: bool, ours: String, paper: &str, gap: Gap) {
        if !ok {
            self.0.push(format!(
                "{anchor}: {ours} (paper: {paper}; EXPERIMENTS.md Known deviations: {})",
                gap.entry()
            ));
        }
    }

    fn check(self) {
        assert!(
            self.0.is_empty(),
            "{} anchor(s) off:\n{}",
            self.0.len(),
            self.0.join("\n")
        );
    }
}

fn timing_device(l4_bytes: usize) -> ApuDevice {
    ApuDevice::new(
        SimConfig::default()
            .with_l4_bytes(l4_bytes)
            .with_exec_mode(ExecMode::TimingOnly),
    )
}

// ---------------- Table 7 and Fig. 13 (Phoenix) ----------------

#[test]
fn table7_model_error_per_app() {
    // (app, measured ms, error %, paper error %); `tab07_model_validation`.
    let pinned = [
        (App::Histogram, 15.60159, -2.597167, "+0.32%"),
        (App::LinearRegression, 2.241996, -0.644801, "+2.3%"),
        (App::MatrixMultiply, 5.312654, -0.494139, "-4.5%"),
        (App::Kmeans, 2.978124, -0.305353, "-6.2%"),
        (App::ReverseIndex, 3.454458, -1.393129, "-0.49%"),
        (App::StringMatch, 3.139164, -0.920469, "+1.8%"),
        (App::WordCount, 2.27388, -2.362165, "-3.1%"),
    ];
    let mut m = Misses::default();
    let mut errors = Vec::new();
    for (app, measured, err, paper) in pinned {
        let run = run_app(app, RunCfg::default(), &[OptConfig::all()]);
        let ours = run.all_opts_ms().expect("all-opts variant");
        let ours_err = (run.predicted_ms - ours) / ours * 100.0;
        let gap = if app == App::Histogram {
            Gap::Histogram
        } else {
            Gap::Kernels
        };
        m.near(
            &format!("Table 7 {} measured (ms)", app.name()),
            ours,
            measured,
            "n/a at 1/256 of its inputs",
            gap,
        );
        m.near(
            &format!("Table 7 {} error (%)", app.name()),
            ours_err,
            err,
            paper,
            Gap::Overheads,
        );
        errors.push(ours_err.abs());
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    let max = errors.iter().copied().fold(0.0, f64::max);
    m.near(
        "Table 7 mean |error| (%)",
        mean,
        1.245318,
        "2.7%",
        Gap::Overheads,
    );
    m.near(
        "Table 7 max |error| (%)",
        max,
        2.597167,
        "6.2%",
        Gap::Overheads,
    );
    m.check();
}

#[test]
fn fig13_all_opts_beat_the_baseline_at_reduced_scale() {
    // `fig13_phoenix_latency`'s base and all-opts columns at 1/65536 of
    // the paper's inputs (every app at its input-size floor). The CPU
    // columns are host wall-clock and stay unasserted.
    let cfg = RunCfg {
        scale: 1.0 / 65536.0,
        ..RunCfg::default()
    };
    // (app, base ms ÷ all-opts ms)
    let pinned = [
        (App::Histogram, 1.388834),
        (App::LinearRegression, 2.831059),
        (App::MatrixMultiply, 6.846549),
        (App::Kmeans, 7.681604),
        (App::ReverseIndex, 2.717222),
        (App::StringMatch, 2.237150),
        (App::WordCount, 4.478743),
    ];
    let mut m = Misses::default();
    for (app, speedup) in pinned {
        let run = run_app(app, cfg, &[OptConfig::none(), OptConfig::all()]);
        let (base, all) = (run.apu[0].ms, run.apu[1].ms);
        let gap = if app == App::Histogram {
            Gap::Histogram
        } else {
            Gap::Kernels
        };
        m.holds(
            &format!("Fig 13 {} all opts < base", app.name()),
            all < base,
            format!("all {all:.3} ms vs base {base:.3} ms"),
            "all opts beat the baseline for every app",
            gap,
        );
        m.near(
            &format!("Fig 13 {} base / all opts", app.name()),
            base / all,
            speedup,
            "n/a at 1/65536 of its inputs",
            gap,
        );
    }
    m.check();
}

// ---------------- Table 8, Fig. 14, Fig. 15 (RAG) ----------------

#[test]
fn table8_retrieval_breakdown_cell_by_cell() {
    // `tab08_retrieval_breakdown`: (load embedding ms, load query µs,
    // calc distance ms, top-k ms, return µs, total ms) per corpus point.
    let no_opt = [
        [0.413255, 10.706, 27.257994, 0.0, 15.61, 27.697565],
        [2.043255, 10.706, 136.28997, 0.0, 15.61, 138.359541],
        [8.155755, 10.706, 545.138476, 0.0, 15.61, 553.320547],
    ];
    let all_opts = [
        [0.309941, 55.824, 1.90287, 0.152528, 15.61, 2.436773],
        [1.532441, 55.824, 9.51435, 0.762048, 15.61, 11.880273],
        [6.116816, 55.824, 38.0574, 3.047748, 15.61, 47.293398],
    ];
    let cells = [
        "load embedding (ms)",
        "load query (us)",
        "calc distance (ms)",
        "top-k (ms)",
        "return (us)",
        "total (ms)",
    ];
    let mut m = Misses::default();
    for (variant, pinned, paper) in [
        (RagVariant::NoOpt, no_opt, ["21.8", "129.5", "539.2"]),
        (RagVariant::AllOpts, all_opts, ["3.9", "20.6", "84.2"]),
    ] {
        for (i, spec) in CorpusSpec::paper_points().iter().enumerate() {
            let mut dev = timing_device(1 << 20);
            let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
            let store = EmbeddingStore::size_only(*spec, RunCfg::default().seed);
            let q = vec![1i16; rag::corpus::EMBED_DIM];
            let (_, b, _) = ApuRetriever::new(variant)
                .retrieve(&mut dev, &mut hbm, &store, &q, 5)
                .expect("retrieval");
            let ours = [
                b.load_embedding_ms,
                b.load_query_us,
                b.calc_distance_ms,
                b.topk_ms,
                b.return_us,
                b.total_ms(),
            ];
            for ((cell, ours), pinned) in cells.iter().zip(ours).zip(pinned[i]) {
                m.near(
                    &format!("Table 8 {} {} {cell}", variant.label(), spec.label()),
                    ours,
                    pinned,
                    &format!("total {} ms", paper[i]),
                    Gap::Kernels,
                );
            }
        }
    }
    m.check();
}

/// `fig14_rag_e2e`'s loop at one corpus point: every platform in print
/// order on one device, each with a fresh HBM.
fn fig14_point(spec: CorpusSpec) -> Vec<EndToEnd> {
    let pipeline = RagPipeline::paper();
    let mut dev = timing_device(1 << 20);
    let store = EmbeddingStore::size_only(spec, RunCfg::default().seed);
    let q = vec![1i16; rag::corpus::EMBED_DIM];
    let mut platforms = vec![Platform::CpuModel, Platform::Gpu];
    platforms.extend(RagVariant::ALL.into_iter().map(Platform::Apu));
    platforms
        .into_iter()
        .map(|p| {
            let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
            pipeline
                .run(p, &store, &q, &mut dev, &mut hbm)
                .expect("pipeline")
        })
        .collect()
}

#[test]
fn fig14_speedups_and_variant_ordering() {
    // (retrieval speedup, end-to-end speedup) of CIS all opts over CPU,
    // with the paper's.
    let pinned = [
        (12.275479, 1.050086, "6.3x", "1.05x"),
        (12.319817, 1.241002, "4.8x", "1.15x"),
        (12.328384, 1.902820, "6.6x", "1.75x"),
    ];
    let mut m = Misses::default();
    for (spec, (retrieval, e2e, paper_r, paper_e)) in
        CorpusSpec::paper_points().into_iter().zip(pinned)
    {
        let runs = fig14_point(spec);
        let [cpu, _gpu, no_opt, opt1, opt2, opt3, all] = &runs[..] else {
            panic!("seven platforms");
        };
        let point = spec.label();
        m.near(
            &format!("Fig 14 {point} retrieval speedup"),
            cpu.retrieval_ms / all.retrieval_ms,
            retrieval,
            paper_r,
            Gap::Kernels,
        );
        m.near(
            &format!("Fig 14 {point} end-to-end speedup"),
            cpu.total_ms() / all.total_ms(),
            e2e,
            paper_e,
            Gap::Models,
        );
        let r = |e: &EndToEnd| e.retrieval_ms;
        m.holds(
            &format!("Fig 14 {point} all opts < opt1 < opt2 < no opt"),
            r(all) < r(opt1) && r(opt1) < r(opt2) && r(opt2) < r(no_opt),
            format!(
                "all {:.2}, opt1 {:.2}, opt2 {:.2}, no opt {:.2} ms",
                r(all),
                r(opt1),
                r(opt2),
                r(no_opt)
            ),
            "opt1 is the decisive standalone optimization; all opts is fastest",
            Gap::Kernels,
        );
        m.holds(
            &format!("Fig 14 {point} opt3 alone within 1% of no opt"),
            (r(opt3) / r(no_opt) - 1.0).abs() < TOL,
            format!("opt3 {:.3} vs no opt {:.3} ms", r(opt3), r(no_opt)),
            "opt3 pays off only on top of the others",
            Gap::Kernels,
        );
    }
    m.check();
}

#[test]
fn fig15_energy_ratios_and_static_share() {
    // (GPU ÷ APU all-opts energy, APU static-rail share) per point.
    let pinned = [
        (57.656579, 0.766216),
        (99.229092, 0.762037),
        (114.741488, 0.761235),
    ];
    let pipeline = RagPipeline::paper();
    let mut m = Misses::default();
    for (spec, (ratio, static_share)) in CorpusSpec::paper_points().into_iter().zip(pinned) {
        // `fig15_energy`'s loop: APU then GPU on one device, fresh HBMs.
        let mut dev = timing_device(1 << 20);
        let store = EmbeddingStore::size_only(spec, RunCfg::default().seed);
        let q = vec![1i16; rag::corpus::EMBED_DIM];
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let apu = pipeline
            .run(
                Platform::Apu(RagVariant::AllOpts),
                &store,
                &q,
                &mut dev,
                &mut hbm,
            )
            .expect("apu");
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let gpu = pipeline
            .run(Platform::Gpu, &store, &q, &mut dev, &mut hbm)
            .expect("gpu");
        let e_apu = apu.retrieval_energy_j.expect("APU energy");
        let e_gpu = gpu.retrieval_energy_j.expect("GPU energy");
        let fractions = apu.apu_energy_fractions.expect("APU rails");
        m.near(
            &format!("Fig 15 {} GPU/APU energy", spec.label()),
            e_gpu / e_apu,
            ratio,
            "54.4x - 117.9x",
            Gap::Models,
        );
        m.near(
            &format!("Fig 15 {} APU static share", spec.label()),
            fractions[0],
            static_share,
            "71.4% at 200 GB",
            Gap::Kernels,
        );
    }
    m.check();
}

// ---------------- Fig. 2, Fig. 12, Eq. 1 (models and matmul) ----------------

#[test]
fn fig02_operational_intensity_and_bound() {
    // `fig02_roofline`: (OI ops/B, memory bound, roofline efficiency).
    let pinned = [
        (MatmulVariant::Baseline, 30.971645, true, 0.050293),
        (MatmulVariant::Opt1, 334.367347, false, 0.112490),
        (MatmulVariant::Opt2, 910.222222, false, 0.015892),
        (MatmulVariant::Opt3, 30.971645, true, 0.050423),
        (MatmulVariant::AllOpts, 910.222222, false, 0.357877),
    ];
    let params = ModelParams::leda_e();
    let roof = Roofline::from_params(&params, 4);
    let shape = MatmulShape::paper_1024();
    let mut m = Misses::default();
    for (v, oi, memory_bound, efficiency) in pinned {
        let c = matmul_model::cost(&params, &shape, v);
        let point = roof.place(v.label(), c.oi, c.achieved_gops(&shape, &params));
        let name = v.label();
        m.near(
            &format!("Fig 2 {name} OI"),
            c.oi,
            oi,
            "31 (baseline) -> 910 (all opts)",
            Gap::Agrees,
        );
        m.holds(
            &format!("Fig 2 {name} bound"),
            point.memory_bound == memory_bound,
            format!("memory bound = {}", point.memory_bound),
            "baseline memory-bound, all opts compute-bound",
            Gap::Agrees,
        );
        m.near(
            &format!("Fig 2 {name} roofline efficiency"),
            point.efficiency(),
            efficiency,
            "plotted, no value given",
            Gap::Kernels,
        );
    }
    m.check();
}

#[test]
fn fig12_simulated_and_modeled_matmul_totals() {
    // `fig12_matmul_breakdown`: the reduced 128 x 2048 x 2048-bit shape,
    // every variant in order on one functional device, then the
    // closed-form model at 1024^3. (simulated ms, model ms)
    let pinned = [
        (MatmulVariant::Baseline, 34.063024, 217.141171),
        (MatmulVariant::Opt1, 13.776734, 18.497367),
        (MatmulVariant::Opt2, 33.781594, 130.928195),
        (MatmulVariant::Opt3, 33.945904, 216.580019),
        (MatmulVariant::AllOpts, 2.719466, 5.814196),
    ];
    let seed = RunCfg::default().seed;
    let problem = ApuMatmul::new(
        BinMatrix::random(128, 2048, seed),
        BinMatrix::random(2048, 2048, seed + 1),
    )
    .expect("shape");
    let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(256 << 20));
    let params = ModelParams::leda_e();
    let shape = MatmulShape::paper_1024();
    let mut m = Misses::default();
    let mut simulated = Vec::new();
    let mut modeled = Vec::new();
    for (v, sim_ms, model_ms) in pinned {
        let run = problem.run(&mut dev, v).expect("kernel");
        let cost = matmul_model::cost(&params, &shape, v);
        m.near(
            &format!("Fig 12 {} simulated total (ms)", v.label()),
            run.report.millis(),
            sim_ms,
            "226.3 -> 12.0 ms at 1024^3",
            Gap::Kernels,
        );
        m.near(
            &format!("Fig 12 {} model total at 1024^3 (ms)", v.label()),
            cost.total_ms(&params),
            model_ms,
            "226.3 -> 12.0 ms",
            Gap::Kernels,
        );
        simulated.push(run.report.millis());
        modeled.push(cost.total_ms(&params));
    }
    m.near(
        "Fig 12 simulated baseline / all opts",
        simulated[0] / simulated[4],
        12.525630,
        "18.9x",
        Gap::Kernels,
    );
    m.near(
        "Fig 12 model baseline / all opts",
        modeled[0] / modeled[4],
        37.346727,
        "18.9x",
        Gap::Kernels,
    );
    m.check();
}

#[test]
fn eq1_fit_quality() {
    let mut m = Misses::default();
    let fit = SgAddModel::fit(&DeviceTiming::leda_e());
    m.near("Eq. 1 R^2", fit.r_squared, 0.969911, "0.97", Gap::Agrees);
    m.check();
}

// ---------------- DESIGN.md §5 ablations ----------------

#[test]
fn ablation_temporal_mapping_beats_spatial() {
    // §5.1: baseline (spatial) vs opt1 (temporal) at m x 1024 x 2048 bits.
    let pinned = [(64, 2.667324), (256, 7.569979)];
    let mut m = Misses::default();
    for (rows, speedup) in pinned {
        let problem = ApuMatmul::new(
            BinMatrix::random(rows, 1024, 1),
            BinMatrix::random(2048, 1024, 2),
        )
        .expect("shape");
        let run = |v| {
            let mut dev = timing_device(256 << 20);
            problem.run(&mut dev, v).expect("kernel").report.millis()
        };
        let spatial = run(MatmulVariant::Baseline);
        let temporal = run(MatmulVariant::Opt1);
        m.holds(
            &format!("§5.1 m={rows} temporal < spatial"),
            temporal < spatial,
            format!("temporal {temporal:.3} ms vs spatial {spatial:.3} ms"),
            "opt1 removes the scattered PIO write-back",
            Gap::Kernels,
        );
        m.near(
            &format!("§5.1 m={rows} spatial / temporal"),
            spatial / temporal,
            speedup,
            "ablation, no paper value",
            Gap::Kernels,
        );
    }
    m.check();
}

#[test]
fn ablation_dma_coalescing_and_its_knee() {
    // §5.2: 64 KB moved L4 -> L2 as `txns` separate transfers vs one
    // programmed chunk list. Coalescing saves one set-up per extra
    // transaction: under 5% through 4 transactions (16 KB chunks), past
    // 20% from 16 on (4 KB chunks), where set-up starts to rival payload.
    let pinned = [(1, 1.0), (4, 1.040075), (16, 1.200182), (64, 1.841375)];
    let total = 64 * 1024;
    let mut m = Misses::default();
    for (txns, ratio) in pinned {
        let mut dev = timing_device(8 << 20);
        let h = dev.alloc(total).expect("alloc");
        let chunk = total / txns;
        let separate = dev
            .run_task(|ctx| {
                for i in 0..txns {
                    ctx.dma_l4_to_l2(0, h.offset_by(i * chunk)?, chunk)?;
                }
                Ok(())
            })
            .expect("dma")
            .cycles;
        let chunks: Vec<ChunkCopy> = (0..txns)
            .map(|i| ChunkCopy::new(i * chunk, i * chunk, chunk))
            .collect();
        let coalesced = dev
            .run_task(|ctx| ctx.dma_l4_to_l2_chunks(h, &chunks))
            .expect("dma")
            .cycles;
        m.holds(
            &format!("§5.2 {txns} transactions coalesced <= separate"),
            coalesced <= separate,
            format!("coalesced {coalesced:?} vs separate {separate:?}"),
            "coalescing never costs more",
            Gap::Agrees,
        );
        m.near(
            &format!("§5.2 {txns} transactions separate / coalesced"),
            separate.get() as f64 / coalesced.get() as f64,
            ratio,
            "Table 4: dma_l4_l2 = 0.63 d + 548",
            Gap::Overheads,
        );
    }
    m.check();
}

#[test]
fn ablation_lookup_cost_is_monotone_in_table_size() {
    // §5.3: a scalar broadcast through L3 lookups as the table grows.
    let mut m = Misses::default();
    let mut last = Cycles::new(0);
    for sigma in [32usize, 512, 4096, 32768] {
        let mut dev = timing_device(4 << 20);
        let cost = dev
            .run_task(|ctx| {
                ctx.core_mut().create_grp_index_u16(Vr::new(1), sigma)?;
                ctx.lookup(Vr::new(0), Vr::new(1), 0, sigma)
            })
            .expect("lookup")
            .cycles;
        m.holds(
            &format!("§5.3 lookup sigma={sigma} costs more than the smaller table"),
            cost > last,
            format!("{cost:?} after {last:?}"),
            "Table 4: lookup = 7.15 sigma + 629",
            Gap::Overheads,
        );
        last = cost;
    }
    m.check();
}

#[test]
fn ablation_subgroup_reduction_cost() {
    // §5.4: `add_subgrp_s16` across subgroup sizes (group = subgroup)
    // charges exactly the staged cost Eq. 1 is fitted to, rising in s.
    let timing = DeviceTiming::leda_e();
    let mut m = Misses::default();
    let mut last = Cycles::new(0);
    for s in [16usize, 128, 1024, 8192, 32768] {
        let mut dev = timing_device(2 << 20);
        let cost = dev
            .run_task(|ctx| ctx.core_mut().add_subgrp_s16(Vr::new(1), Vr::new(0), s, s))
            .expect("reduce")
            .cycles;
        m.holds(
            &format!("§5.4 s={s} charges sg_add_cycles"),
            cost.get() == sg_add_cycles(&timing, s, s),
            format!("{cost:?} vs {}", sg_add_cycles(&timing, s, s)),
            "Eq. 1 fits the staged reduction",
            Gap::Agrees,
        );
        m.holds(
            &format!("§5.4 s={s} costs more than the smaller subgroup"),
            cost > last,
            format!("{cost:?} after {last:?}"),
            "cost grows with log2(s)",
            Gap::Agrees,
        );
        last = cost;
    }
    m.check();
}

#[test]
fn ablation_hbm2e_streams_faster_than_ddr4() {
    // §5.5: one sequential stream of 8 and 64 MB on each memory.
    let pinned = [(8u64, 14.754492), (64, 17.063164)];
    let mut m = Misses::default();
    for (mb, ratio) in pinned {
        let bytes = mb << 20;
        let hbm = MemorySystem::new(DramSpec::hbm2e_16gb()).stream_read(0, bytes);
        let ddr = MemorySystem::new(DramSpec::ddr4_apu()).stream_read(0, bytes);
        m.holds(
            &format!("§5.5 {mb} MB HBM2e < DDR4"),
            hbm.ns < ddr.ns,
            format!("HBM2e {} ns vs DDR4 {} ns", hbm.ns, ddr.ns),
            "HBM2e for the embedding stream (§5.3.1)",
            Gap::Agrees,
        );
        m.near(
            &format!("§5.5 {mb} MB DDR4 / HBM2e time"),
            ddr.ns / hbm.ns,
            ratio,
            "ablation, no paper value",
            Gap::Agrees,
        );
    }
    m.check();
}

/// Cycles to stream `tiles` VR-sized tiles L4 -> L1 with `cmds` `mul_s16`
/// commands of compute per tile, blocking or double-buffered across the
/// core's two DMA engines.
fn stream_tiles(tiles: usize, cmds: usize, overlapped: bool) -> Cycles {
    let mut dev = timing_device(64 << 20);
    let n = dev.config().vr_len;
    let h = dev.alloc_u16(tiles * n).expect("alloc");
    dev.run_task(|ctx| {
        if overlapped {
            let mut pending = ctx.dma_l4_to_l1_async(Vmr::new(0), h)?;
            for i in 0..tiles {
                ctx.dma_wait(pending);
                if i + 1 < tiles {
                    pending = ctx.dma_l4_to_l1_async(
                        Vmr::new(((i + 1) % 2) as u8),
                        h.offset_by((i + 1) * n * 2)?,
                    )?;
                }
                for _ in 0..cmds {
                    ctx.core_mut().charge(VecOp::MulS16);
                }
            }
            ctx.dma_wait_all();
        } else {
            for i in 0..tiles {
                ctx.dma_l4_to_l1(Vmr::new(0), h.offset_by(i * n * 2)?)?;
                for _ in 0..cmds {
                    ctx.core_mut().charge(VecOp::MulS16);
                }
            }
        }
        Ok(())
    })
    .expect("kernel")
    .cycles
}

#[test]
fn ablation_double_buffering_hides_the_transfer() {
    // §5.6: 16 tiles; 110 `mul_s16` per tile matches the ~22 K-cycle
    // tile transfer. Hidden share = (blocking - overlapped) / transfer
    // time, the transfer time being the compute-free blocking run.
    let tiles = 16;
    let transfer = stream_tiles(tiles, 0, false).get() as f64;
    let mut m = Misses::default();
    for (cmds, hidden_pin) in [(10, 0.085407), (60, 0.512442), (110, 0.937037)] {
        let blocking = stream_tiles(tiles, cmds, false).get() as f64;
        let overlapped = stream_tiles(tiles, cmds, true).get() as f64;
        let hidden = (blocking - overlapped) / transfer;
        m.near(
            &format!("§5.6 {cmds} cmds/tile hidden transfer share"),
            hidden,
            hidden_pin,
            "two per-core DMA engines (Fig. 3b)",
            Gap::Agrees,
        );
        if cmds == 110 {
            m.holds(
                "§5.6 matched compute hides >= 90% of the transfer",
                hidden >= 0.90,
                format!("{:.1}% hidden", hidden * 100.0),
                "DESIGN §5b: ~94%",
                Gap::Agrees,
            );
        }
    }
    m.check();
}

/// One serving scenario: queries `0..n` arrive `gap` apart and drain
/// through a fresh one-device server at `max_batch`.
fn serve(
    store: &EmbeddingStore,
    mode: ExecMode,
    n: u64,
    gap: Duration,
    max_batch: usize,
) -> ServeReport {
    let cfg = ServeConfig {
        max_batch,
        ..ServeConfig::default()
    };
    let sim = SimConfig::default()
        .with_l4_bytes(16 << 20)
        .with_exec_mode(mode);
    let mut server = ShardedRagServer::new(store, 1, sim, cfg).expect("valid config");
    for i in 0..n {
        server
            .submit(gap * i as u32, store.query(i))
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

#[test]
fn ablation_batching_crossover() {
    // Continuous batching vs one query per dispatch on a 16,384-chunk
    // corpus, k = 5. Timing-only, whose simulated timeline equals the
    // functional one (`tests/mode_equivalence.rs`): a light stream
    // under-fills the batch pipeline and loses; past saturation the
    // coalesced embedding stream wins.
    let spec = CorpusSpec {
        corpus_bytes: 0,
        chunks: 16_384,
    };
    let sized = EmbeddingStore::size_only(spec, 42);
    // (queries, gap µs, batched QPS ÷ unbatched QPS, batching wins)
    let pinned = [
        (24, 200, 0.693349, false),
        (48, 50, 1.062545, true),
        (96, 50, 1.318007, true),
    ];
    let mut m = Misses::default();
    for (n, gap_us, ratio, wins) in pinned {
        let gap = Duration::from_micros(gap_us);
        let batched = serve(&sized, ExecMode::TimingOnly, n, gap, rag::MAX_BATCH);
        let unbatched = serve(&sized, ExecMode::TimingOnly, n, gap, 1);
        let ours = batched.throughput_qps() / unbatched.throughput_qps();
        m.near(
            &format!("batching {n} queries {gap_us} us apart: batched / unbatched QPS"),
            ours,
            ratio,
            "extension, no paper value",
            Gap::Agrees,
        );
        m.holds(
            &format!("batching {n} queries {gap_us} us apart: batched wins = {wins}"),
            (ours >= 1.0) == wins,
            format!("batched / unbatched QPS {ours:.3}"),
            "extension, no paper value",
            Gap::Agrees,
        );
    }
    // Identical hits, functionally, on the saturated stream's first 24
    // queries; its timeline matches the timing-only run's.
    let real = EmbeddingStore::materialized(spec, 42);
    let gap = Duration::from_micros(50);
    let batched = serve(&real, ExecMode::Functional, 24, gap, rag::MAX_BATCH);
    let unbatched = serve(&real, ExecMode::Functional, 24, gap, 1);
    let timing = serve(&sized, ExecMode::TimingOnly, 24, gap, rag::MAX_BATCH);
    m.holds(
        "batching: batched hits equal per-query hits",
        hits_by_ticket(&batched) == hits_by_ticket(&unbatched) && batched.served() == 24,
        format!("{} of 24 served", batched.served()),
        "extension, no paper value",
        Gap::Agrees,
    );
    m.holds(
        "batching: functional timeline equals timing-only",
        batched.throughput_qps() == timing.throughput_qps(),
        format!(
            "{:.1} vs {:.1} QPS",
            batched.throughput_qps(),
            timing.throughput_qps()
        ),
        "extension, no paper value",
        Gap::Agrees,
    );
    m.check();
}
