//! End-to-end RAG: retrieval on a chosen platform plus the (platform
//! independent) generation stage, with energy accounting (paper Figs.
//! 14–15).

use serde::{Deserialize, Serialize};

use apu_sim::{ApuDevice, DeviceQueue, Frequency, Priority, QueueConfig, TaskReport};
use cis_energy::{ApuPowerModel, CpuPowerModel};
use hbm_sim::{DramEnergy, EnergyParams, MemorySystem};

use crate::apu::{ApuRetriever, RagVariant, RetrievalBreakdown};
use crate::corpus::EmbeddingStore;
use crate::cpu::CpuRetrievalModel;
use crate::gpu::{GenerationModel, GpuRetrievalModel};
use crate::{Hit, Result};

/// Fixed per-query host-interface energy on the APU board (invocation,
/// PCIe, host driver). Calibrated alongside the rail model so the
/// APU:GPU energy ratio reproduces the paper's 54×–118× band at the
/// small-corpus end.
const APU_QUERY_OVERHEAD_J: f64 = 0.1;

/// Retrieval platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// Modeled Xeon Gold 6230R (FAISS flat, calibrated).
    CpuModel,
    /// Modeled NVIDIA A6000.
    Gpu,
    /// Simulated compute-in-SRAM device with the given variant.
    Apu(RagVariant),
}

impl Platform {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Platform::CpuModel => "CPU".into(),
            Platform::Gpu => "GPU".into(),
            Platform::Apu(v) => format!("CIS {}", v.label()),
        }
    }
}

/// One end-to-end measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEnd {
    /// Platform label.
    pub platform: String,
    /// Retrieval latency (ms).
    pub retrieval_ms: f64,
    /// Generation TTFT (ms).
    pub generation_ms: f64,
    /// Retrieval energy (J), when the platform models it.
    pub retrieval_energy_j: Option<f64>,
    /// APU energy fractions [static, compute, dram, other, cache], when
    /// applicable.
    pub apu_energy_fractions: Option<[f64; 5]>,
}

impl EndToEnd {
    /// Total time-to-interactive latency (ms).
    pub fn total_ms(&self) -> f64 {
        self.retrieval_ms + self.generation_ms
    }
}

/// The end-to-end pipeline evaluator.
#[derive(Debug, Clone)]
pub struct RagPipeline {
    /// Generation model (shared by every platform).
    pub generation: GenerationModel,
    /// CPU retrieval model.
    pub cpu: CpuRetrievalModel,
    /// GPU retrieval model.
    pub gpu: GpuRetrievalModel,
    /// APU rail power model.
    pub apu_power: ApuPowerModel,
    /// Retrieved chunks per query.
    pub k: usize,
}

impl RagPipeline {
    /// Paper-calibrated pipeline.
    pub fn paper() -> Self {
        RagPipeline {
            generation: GenerationModel::llama31_8b_a6000(),
            cpu: CpuRetrievalModel::xeon_6230r(),
            gpu: GpuRetrievalModel::a6000(),
            apu_power: ApuPowerModel::leda_e(),
            k: 5,
        }
    }

    /// Evaluates one platform at one corpus point. APU platforms run the
    /// simulator (`dev`/`hbm` supplied by the caller so state persists
    /// across points).
    ///
    /// # Errors
    ///
    /// Propagates device errors for APU platforms.
    pub fn run(
        &self,
        platform: Platform,
        store: &EmbeddingStore,
        query: &[i16],
        dev: &mut ApuDevice,
        hbm: &mut MemorySystem,
    ) -> Result<EndToEnd> {
        let generation_ms = self.generation.ttft_ms();
        let bytes = store.spec().embedding_bytes();
        match platform {
            Platform::CpuModel => {
                let ms = self.cpu.retrieval_ms(bytes);
                let energy = CpuPowerModel::xeon_6230r().busy_energy_j(ms / 1e3);
                Ok(EndToEnd {
                    platform: platform.label(),
                    retrieval_ms: ms,
                    generation_ms,
                    retrieval_energy_j: Some(energy),
                    apu_energy_fractions: None,
                })
            }
            Platform::Gpu => Ok(EndToEnd {
                platform: platform.label(),
                retrieval_ms: self.gpu.retrieval_ms(bytes),
                generation_ms,
                retrieval_energy_j: Some(self.gpu.retrieval_energy_j(bytes)),
                apu_energy_fractions: None,
            }),
            Platform::Apu(variant) => {
                let retriever = ApuRetriever::new(variant);
                let hbm_stats_before = hbm.stats();
                let horizon_before = hbm.horizon();
                // Retrieval goes through the device command queue (one
                // closed-loop client): same kernel, identical results,
                // with dispatch accounted like production serving.
                let (_hits, breakdown, report) = {
                    let k = self.k;
                    let hbm_cell = std::cell::RefCell::new(&mut *hbm);
                    let mut queue = DeviceQueue::new(&mut *dev, QueueConfig::default());
                    let handle = queue.submit(
                        apu_sim::TaskSpec::typed(|dev: &mut ApuDevice| {
                            let mut hbm = hbm_cell.borrow_mut();
                            let (hits, breakdown, report) =
                                retriever.retrieve(dev, &mut hbm, store, query, k)?;
                            Ok((report.clone(), (hits, breakdown, report)))
                        })
                        .priority(Priority::High),
                    )?;
                    queue.wait(handle)?;
                    let done = queue
                        .drain()?
                        .into_iter()
                        .next()
                        .expect("one submitted task retires");
                    done.into_output::<(Vec<Hit>, RetrievalBreakdown, TaskReport)>()?
                };
                // DRAM energy from the HBM model for this stream.
                let mut delta = hbm.stats();
                delta.activates -= hbm_stats_before.activates;
                delta.reads -= hbm_stats_before.reads;
                delta.writes -= hbm_stats_before.writes;
                delta.refreshes -= hbm_stats_before.refreshes;
                delta.row_hits -= hbm_stats_before.row_hits;
                delta.bytes -= hbm_stats_before.bytes;
                let dram = DramEnergy::from_stats(
                    hbm.spec(),
                    &EnergyParams::for_spec(hbm.spec()),
                    &delta,
                    hbm.horizon() - horizon_before,
                );
                // APU rail energy over the whole retrieval window.
                let mut window = report.clone();
                window.duration = std::time::Duration::from_secs_f64(breakdown.total_ms() / 1e3);
                let apu_e = self
                    .apu_power
                    .breakdown(&window, Frequency::LEDA_E, dram.total_j());
                let total_e = apu_e.total_j() + APU_QUERY_OVERHEAD_J;
                Ok(EndToEnd {
                    platform: platform.label(),
                    retrieval_ms: breakdown.total_ms(),
                    generation_ms,
                    retrieval_energy_j: Some(total_e),
                    apu_energy_fractions: Some(apu_e.fractions()),
                })
            }
        }
    }
}

impl Default for RagPipeline {
    fn default() -> Self {
        RagPipeline::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusSpec, EMBED_DIM};
    use apu_sim::{ExecMode, SimConfig};
    use hbm_sim::DramSpec;

    fn paper_run(platform: Platform, spec: CorpusSpec) -> EndToEnd {
        let pipeline = RagPipeline::paper();
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_l4_bytes(1 << 20)
                .with_exec_mode(ExecMode::TimingOnly),
        );
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let store = EmbeddingStore::size_only(spec, 0);
        let q = vec![1i16; EMBED_DIM];
        pipeline
            .run(platform, &store, &q, &mut dev, &mut hbm)
            .unwrap()
    }

    #[test]
    fn retrieval_share_grows_with_corpus_on_cpu() {
        // Paper: CPU retrieval share 4.3% at 10 GB → 50.5% at 200 GB.
        let pts = CorpusSpec::paper_points();
        let small = paper_run(Platform::CpuModel, pts[0]);
        let large = paper_run(Platform::CpuModel, pts[2]);
        let share_small = small.retrieval_ms / small.total_ms();
        let share_large = large.retrieval_ms / large.total_ms();
        assert!(share_small < 0.12, "share at 10 GB: {share_small}");
        assert!(
            (0.35..0.65).contains(&share_large),
            "share at 200 GB: {share_large}"
        );
    }

    #[test]
    fn apu_matches_gpu_end_to_end_and_beats_cpu() {
        let pts = CorpusSpec::paper_points();
        let cpu = paper_run(Platform::CpuModel, pts[2]);
        let gpu = paper_run(Platform::Gpu, pts[2]);
        let apu = paper_run(Platform::Apu(RagVariant::AllOpts), pts[2]);
        // Paper: 1.75× end-to-end over CPU at 200 GB, GPU-level latency.
        let speedup = cpu.total_ms() / apu.total_ms();
        assert!((1.2..2.5).contains(&speedup), "e2e speedup {speedup}");
        let vs_gpu = apu.total_ms() / gpu.total_ms();
        assert!((0.8..1.4).contains(&vs_gpu), "APU/GPU e2e ratio {vs_gpu}");
    }

    #[test]
    fn apu_energy_is_static_dominated() {
        let apu = paper_run(
            Platform::Apu(RagVariant::AllOpts),
            CorpusSpec::paper_points()[2],
        );
        let f = apu.apu_energy_fractions.unwrap();
        assert!(f[0] > 0.5, "static fraction {}", f[0]);
        assert!(f[2] < 0.15, "dram fraction {}", f[2]);
    }
}
