#![warn(missing_docs)]

//! Cycle-approximate functional simulator of a general-purpose
//! compute-in-SRAM device, modeled after the GSI APU (Gemini / Leda-E).
//!
//! The simulator follows the system abstraction of the paper
//! *"Characterizing and Optimizing Realistic Workloads on a Commercial
//! Compute-in-SRAM Device"* (MICRO 2025):
//!
//! * a PCIe-attached accelerator sharing a device DRAM (**L4**) with an
//!   x86 host,
//! * a 1 MB control-processor cache (**L3**),
//! * per-core 64 KB DMA scratchpads (**L2**),
//! * per-core 3 MB vector-memory register files (**L1**, 48 "background"
//!   registers), and
//! * per-core computation-enabled SRAM arrays exposed as 24 **vector
//!   registers** (VRs) of 32,768 × 16-bit elements each.
//!
//! Each VR column integrates a *bit processor* with a 1-bit read latch
//! (RL); bit processors share a global horizontal line/latch (GHL, wired-OR)
//! and a global vertical line/latch (GVL, wired-AND). The micro-operations
//! of the paper's Table 2 are implemented in [`micro`].
//!
//! Latency is charged from a calibration table ([`timing::DeviceTiming`])
//! whose constants are the *measured* columns of the paper's Tables 4 and 5,
//! plus second-order effects (per-command VCU issue overhead, DMA engine
//! queueing) that the paper's analytical framework deliberately omits.
//!
//! # Example
//!
//! ```rust
//! use apu_sim::{ApuDevice, SimConfig, Vr, Vmr};
//!
//! # fn main() -> Result<(), apu_sim::Error> {
//! let mut dev = ApuDevice::new(SimConfig::default());
//! let n = dev.config().vr_len;
//!
//! // Host side: allocate device DRAM and upload two operand vectors.
//! let a = dev.alloc_u16(n)?;
//! let b = dev.alloc_u16(n)?;
//! let out = dev.alloc_u16(n)?;
//! dev.copy_to_device(a, &vec![3u16; n])?;
//! dev.copy_to_device(b, &vec![4u16; n])?;
//!
//! // Device side: DMA both vectors to L1, load to VRs, add, store back.
//! let report = dev.run_task(|ctx| {
//!     ctx.dma_l4_to_l1(Vmr::new(0), a)?;
//!     ctx.dma_l4_to_l1(Vmr::new(1), b)?;
//!     ctx.load(Vr::new(0), Vmr::new(0))?;
//!     ctx.load(Vr::new(1), Vmr::new(1))?;
//!     let (x, y) = ctx.core_mut().vr_pair_mut(Vr::new(0), Vr::new(1))?;
//!     for (xe, ye) in x.iter_mut().zip(y.iter()) {
//!         *xe = xe.wrapping_add(*ye);
//!     }
//!     ctx.core_mut().charge(apu_sim::VecOp::AddU16);
//!     ctx.store(Vmr::new(2), Vr::new(0))?;
//!     ctx.dma_l1_to_l4(out, Vmr::new(2))?;
//!     Ok(())
//! })?;
//!
//! let mut result = vec![0u16; n];
//! dev.copy_from_device(out, &mut result)?;
//! assert!(result.iter().all(|&v| v == 7));
//! assert!(report.cycles.get() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! Higher-level vector operations (the GVML-equivalent layer) live in the
//! companion `gvml` crate.

pub mod clock;
pub mod cluster;
pub mod config;
pub mod core;
pub mod device;
pub mod dma;
pub mod dma_async;
pub mod error;
pub mod fault;
pub mod mem;
pub mod micro;
pub mod queue;
pub mod spec;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod workload;

pub use clock::{Cycles, Frequency};
pub use cluster::{DeviceCluster, HealthTracker};
pub use config::{fast_forward_from_env, ExecMode, SimConfig};
pub use core::{ApuCore, Marker, Vmr, Vr};
pub use device::{ApuContext, ApuDevice, CoreTask, MemoCounters, TaskReport};
pub use dma_async::DmaTicket;
pub use error::Error;
pub use fault::{FaultCounts, FaultPlan};
pub use mem::{MemHandle, Pod};
pub use micro::{BitOp, LatchSrc, MicroOp, SliceMask, WriteSrc};
pub use queue::{
    BatchKey, BatchOutput, Completion, DeviceQueue, Priority, QueueConfig, QueueStats, RetryPolicy,
    TaskHandle,
};
pub use spec::{AdmissionControl, SchedPolicy, TaskSpec, TenantId};
pub use stats::{LatencyReservoir, OpCounts, StageBreakdown, TenantStats, VcuStats};
pub use timing::{DeviceTiming, VecOp};
pub use trace::{
    chrome_trace_json_grouped, SharedSink, TraceEvent, TraceEventKind, TraceRecorder, TraceSink,
};
pub use workload::{ArrivalEvent, ArrivalProcess, TenantTraffic, TrafficSpec, WorkloadTrace};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, Error>;
