//! One APU core: 24 computation-enabled vector registers backed by bit
//! processors, 48 L1 vector-memory registers, a 64 KB L2 scratchpad, the
//! micro-op state, marker registers, and the core's cycle/statistics
//! accounting.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::clock::Cycles;
use crate::config::SimConfig;
use crate::dma_async::PendingDma;
use crate::error::Error;
use crate::micro::{MicroOp, MicroState};
use crate::stats::VcuStats;
use crate::timing::VecOp;
use crate::Result;

/// Number of physical banks a VR is striped across (Fig. 4a).
pub const NUM_BANKS: usize = 16;

/// Number of marker registers modeled per core.
///
/// GVML exposes boolean "marks" produced by comparison operations; four
/// registers are ample for every kernel in this repository.
pub const NUM_MARKERS: usize = 4;

/// Index of a computation-enabled vector register (0..24).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Vr(u8);

impl Vr {
    /// Creates a VR index.
    pub const fn new(index: u8) -> Self {
        Vr(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Vr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VR{}", self.0)
    }
}

/// Index of an L1 vector-memory ("background") register (0..48).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Vmr(u8);

impl Vmr {
    /// Creates a VMR index.
    pub const fn new(index: u8) -> Self {
        Vmr(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Vmr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VMR{}", self.0)
    }
}

/// Index of a marker register (0..4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Marker(u8);

impl Marker {
    /// Creates a marker-register index.
    pub const fn new(index: u8) -> Self {
        Marker(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Marker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MRK{}", self.0)
    }
}

/// Broad command classes for cycle attribution (consumed by the energy
/// model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CycleClass {
    /// Vector arithmetic / logic executing in the bit processors.
    Compute,
    /// DMA engine busy time.
    Dma,
    /// Programmed I/O through the RSP FIFO.
    Pio,
    /// L3 indexed lookup.
    Lookup,
    /// Command issue/decode overhead on the control processor.
    Issue,
}

/// One APU core.
///
/// Created by [`crate::ApuDevice`]; device kernels receive access through
/// [`crate::ApuContext`].
#[derive(Debug)]
pub struct ApuCore {
    id: usize,
    cfg: SimConfig,
    vrs: Vec<Vec<u16>>,
    vmrs: Vec<Vec<u16>>,
    l2: Vec<u8>,
    micro: MicroState,
    markers: Vec<Vec<bool>>,
    cycles: Cycles,
    stats: VcuStats,
    /// Busy-until timestamps of the two parallel DMA engines (for the
    /// asynchronous transfer API).
    dma_engines: [Cycles; 2],
    /// Functional copies deferred until the in-flight transfer on each
    /// engine is waited on (see [`crate::dma_async`]); always `None` in
    /// timing-only mode.
    pending_dma: [Option<PendingDma>; 2],
    /// Multiplier on L4-touching DMA latency while other cores contend
    /// for the shared device DRAM (set by the device for parallel runs).
    l4_contention: f64,
}

/// Splits distinct in-bounds indices `d != s` of `regs` into a mutable
/// and a shared register.
fn split_pair(regs: &mut [Vec<u16>], d: usize, s: usize) -> (&mut [u16], &[u16]) {
    if d < s {
        let (lo, hi) = regs.split_at_mut(s);
        (&mut lo[d], &hi[0])
    } else {
        let (lo, hi) = regs.split_at_mut(d);
        (&mut hi[0], &lo[s])
    }
}

impl ApuCore {
    /// Creates a core with zeroed registers.
    pub(crate) fn new(id: usize, cfg: SimConfig) -> Self {
        let n = cfg.vr_len;
        ApuCore {
            id,
            vrs: vec![vec![0; n]; cfg.num_vrs],
            vmrs: vec![vec![0; n]; cfg.num_vmrs],
            l2: vec![0; cfg.l2_bytes],
            micro: MicroState::new(n),
            markers: vec![vec![false; n]; NUM_MARKERS],
            cycles: Cycles::ZERO,
            stats: VcuStats::default(),
            dma_engines: [Cycles::ZERO; 2],
            pending_dma: [None, None],
            l4_contention: 1.0,
            cfg,
        }
    }

    /// This core's index within the device.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Elements per vector register.
    pub fn vr_len(&self) -> usize {
        self.cfg.vr_len
    }

    /// Whether data is actually computed (vs timing-only).
    pub fn is_functional(&self) -> bool {
        self.cfg.exec_mode.is_functional()
    }

    /// Current cycle count of this core's control processor.
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }

    /// Cumulative command statistics.
    pub fn stats(&self) -> &VcuStats {
        &self.stats
    }

    /// Crate-internal mutable access for the data-movement layer.
    pub(crate) fn stats_mut(&mut self) -> &mut VcuStats {
        &mut self.stats
    }

    /// Current L4 contention multiplier (1.0 when running alone).
    pub fn l4_contention(&self) -> f64 {
        self.l4_contention
    }

    pub(crate) fn set_l4_contention(&mut self, factor: f64) {
        self.l4_contention = factor;
    }

    pub(crate) fn sync_to(&mut self, cycles: Cycles) {
        self.cycles = self.cycles.max(cycles);
    }

    fn check_vr(&self, vr: Vr) -> Result<usize> {
        if vr.index() < self.vrs.len() {
            Ok(vr.index())
        } else {
            Err(Error::BadVr {
                index: vr.index(),
                count: self.vrs.len(),
                kind: "VR",
            })
        }
    }

    fn check_vmr(&self, vmr: Vmr) -> Result<usize> {
        if vmr.index() < self.vmrs.len() {
            Ok(vmr.index())
        } else {
            Err(Error::BadVr {
                index: vmr.index(),
                count: self.vmrs.len(),
                kind: "VMR",
            })
        }
    }

    fn check_marker(&self, m: Marker) -> Result<usize> {
        if m.index() < self.markers.len() {
            Ok(m.index())
        } else {
            Err(Error::BadVr {
                index: m.index(),
                count: self.markers.len(),
                kind: "MRK",
            })
        }
    }

    /// Read access to a VR's elements.
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range.
    pub fn vr(&self, vr: Vr) -> Result<&[u16]> {
        Ok(&self.vrs[self.check_vr(vr)?])
    }

    /// Mutable access to a VR's elements.
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range.
    pub fn vr_mut(&mut self, vr: Vr) -> Result<&mut [u16]> {
        let i = self.check_vr(vr)?;
        Ok(&mut self.vrs[i])
    }

    /// Disjoint (mutable destination, shared source) access to two VRs.
    ///
    /// # Errors
    ///
    /// Fails on bad indices or when `dst == src` (callers handle aliasing
    /// with an in-place code path).
    pub fn vr_pair_mut(&mut self, dst: Vr, src: Vr) -> Result<(&mut [u16], &[u16])> {
        let (d, s) = self.check_vr_pair(dst, src)?;
        Ok(split_pair(&mut self.vrs, d, s))
    }

    /// [`ApuCore::vr_pair_mut`] plus a shared marker register (for
    /// masked copies).
    ///
    /// # Errors
    ///
    /// Fails on bad indices or when `dst == src`.
    pub fn masked_vr_pair_mut(
        &mut self,
        dst: Vr,
        src: Vr,
        m: Marker,
    ) -> Result<(&mut [u16], &[u16], &[bool])> {
        let (d, s) = self.check_vr_pair(dst, src)?;
        let mi = self.check_marker(m)?;
        let (dst, src) = split_pair(&mut self.vrs, d, s);
        Ok((dst, src, &self.markers[mi]))
    }

    /// Mutable access to a VR plus a shared marker register (for masked
    /// writes).
    ///
    /// # Errors
    ///
    /// Fails if either index is out of range.
    pub fn masked_vr_mut(&mut self, dst: Vr, m: Marker) -> Result<(&mut [u16], &[bool])> {
        let d = self.check_vr(dst)?;
        let mi = self.check_marker(m)?;
        Ok((&mut self.vrs[d], &self.markers[mi]))
    }

    fn check_vr_pair(&self, dst: Vr, src: Vr) -> Result<(usize, usize)> {
        let d = self.check_vr(dst)?;
        let s = self.check_vr(src)?;
        if d == s {
            return Err(Error::InvalidArg(format!("aliased VR operands: {dst}")));
        }
        Ok((d, s))
    }

    /// Disjoint access to three VRs: mutable `dst`, shared `a` and `b`.
    ///
    /// # Errors
    ///
    /// Fails on bad indices or when `dst` aliases a source (`a == b` is
    /// allowed).
    pub fn vr3_mut(&mut self, dst: Vr, a: Vr, b: Vr) -> Result<(&mut [u16], &[u16], &[u16])> {
        let d = self.check_vr(dst)?;
        let ai = self.check_vr(a)?;
        let bi = self.check_vr(b)?;
        if d == ai || d == bi {
            return Err(Error::InvalidArg(format!(
                "destination {dst} aliases a source operand"
            )));
        }
        let ptr = self.vrs.as_mut_ptr();
        // SAFETY: d, ai, bi are in-bounds; d is distinct from ai and bi, so
        // the mutable borrow does not alias the shared ones. `a == b`
        // yields two shared borrows of the same element, which is fine.
        unsafe {
            let dst_ref: &mut Vec<u16> = &mut *ptr.add(d);
            let a_ref: &Vec<u16> = &*ptr.add(ai);
            let b_ref: &Vec<u16> = &*ptr.add(bi);
            Ok((dst_ref.as_mut_slice(), a_ref.as_slice(), b_ref.as_slice()))
        }
    }

    /// A VR and an L1 vector-memory register, both mutable (for
    /// VR ↔ L1 moves in either direction).
    pub(crate) fn vr_vmr_mut(&mut self, vr: Vr, vmr: Vmr) -> Result<(&mut [u16], &mut [u16])> {
        let v = self.check_vr(vr)?;
        let m = self.check_vmr(vmr)?;
        Ok((&mut self.vrs[v], &mut self.vmrs[m]))
    }

    /// The L2 scratchpad and an L1 vector-memory register, both mutable
    /// (for L2 ↔ L1 DMA in either direction).
    pub(crate) fn l2_vmr_mut(&mut self, vmr: Vmr) -> Result<(&mut [u8], &mut [u16])> {
        let m = self.check_vmr(vmr)?;
        Ok((&mut self.l2, &mut self.vmrs[m]))
    }

    /// Read access to an L1 vector-memory register.
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range.
    pub fn vmr(&self, vmr: Vmr) -> Result<&[u16]> {
        Ok(&self.vmrs[self.check_vmr(vmr)?])
    }

    /// Mutable access to an L1 vector-memory register.
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range.
    pub fn vmr_mut(&mut self, vmr: Vmr) -> Result<&mut [u16]> {
        let i = self.check_vmr(vmr)?;
        Ok(&mut self.vmrs[i])
    }

    /// Read access to a marker register.
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range.
    pub fn marker(&self, m: Marker) -> Result<&[bool]> {
        Ok(&self.markers[self.check_marker(m)?])
    }

    /// Mutable access to a marker register.
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range.
    pub fn marker_mut(&mut self, m: Marker) -> Result<&mut [bool]> {
        let i = self.check_marker(m)?;
        Ok(&mut self.markers[i])
    }

    /// Mutable marker plus two shared VR operands (for compare ops).
    ///
    /// # Errors
    ///
    /// Fails if any index is out of range.
    pub fn marker_with_vrs(
        &mut self,
        m: Marker,
        a: Vr,
        b: Vr,
    ) -> Result<(&mut [bool], &[u16], &[u16])> {
        let mi = self.check_marker(m)?;
        let ai = self.check_vr(a)?;
        let bi = self.check_vr(b)?;
        let mrk = self.markers.as_mut_ptr();
        // SAFETY: markers and vrs are distinct fields; indices in-bounds.
        unsafe {
            Ok((
                (*mrk.add(mi)).as_mut_slice(),
                self.vrs[ai].as_slice(),
                self.vrs[bi].as_slice(),
            ))
        }
    }

    /// The per-core L2 DMA scratchpad.
    pub fn l2(&self) -> &[u8] {
        &self.l2
    }

    /// Mutable access to the L2 scratchpad.
    pub fn l2_mut(&mut self) -> &mut [u8] {
        &mut self.l2
    }

    /// The micro-op state (read latches and global latches).
    pub fn micro(&self) -> &MicroState {
        &self.micro
    }

    // ---- cycle & statistics accounting ------------------------------

    /// Charges one fixed-latency vector command (Table 4/5 constant rows),
    /// including the VCU issue overhead, and updates statistics.
    pub fn charge(&mut self, op: VecOp) {
        let t = &self.cfg.timing;
        let cost = t.op_cycles(op);
        self.cycles += Cycles::new(cost + t.cmd_issue);
        self.stats.record_op(op, cost, t.cmd_issue);
    }

    /// Charges a variable-latency operation (DMA, PIO, lookup, shift).
    pub fn charge_cycles(&mut self, class: CycleClass, cycles: Cycles) {
        self.cycles += cycles;
        self.stats.record_class(class, cycles.get());
    }

    /// Records `elems` serial RSP-FIFO element transfers in the VCU
    /// statistics. Library layers that move elements through the FIFO
    /// (e.g. marked-entry extraction) call this alongside
    /// [`ApuCore::charge_cycles`] so PIO traffic is visible in reports.
    pub fn note_pio_transfer(&mut self, elems: u64) {
        self.stats.record_pio_elems(elems, 2);
    }

    /// Records DMA-engine busy time in the statistics without advancing
    /// the control-processor clock (asynchronous transfers overlap with
    /// compute; see [`crate::dma_async`]).
    pub fn note_dma_busy(&mut self, cycles: Cycles) {
        self.stats.dma_cycles += cycles.get();
    }

    /// The earliest-free DMA engine and the cycle it becomes free.
    pub fn earliest_dma_engine(&self) -> (usize, Cycles) {
        if self.dma_engines[0] <= self.dma_engines[1] {
            (0, self.dma_engines[0])
        } else {
            (1, self.dma_engines[1])
        }
    }

    /// Books a DMA engine as busy until `until`.
    pub fn book_dma_engine(&mut self, engine: usize, until: Cycles) {
        self.dma_engines[engine.min(1)] = until;
    }

    /// Busy-until timestamps of both DMA engines.
    pub fn dma_engines_busy_until(&self) -> [Cycles; 2] {
        self.dma_engines
    }

    /// Stashes the deferred functional copy of an engine's in-flight
    /// transfer, returning the copy previously pending there (the engine
    /// serializes its transfers, so a displaced copy completed earlier
    /// and must be applied before the new transfer's data could land).
    pub(crate) fn stash_pending_dma(
        &mut self,
        engine: usize,
        pending: PendingDma,
    ) -> Option<PendingDma> {
        self.pending_dma[engine.min(1)].replace(pending)
    }

    /// Takes the pending copy on `engine` if it completes at or before
    /// `by` (a wait on a ticket must not apply a *newer* transfer's data).
    pub(crate) fn take_pending_dma(&mut self, engine: usize, by: Cycles) -> Option<PendingDma> {
        let slot = &mut self.pending_dma[engine.min(1)];
        if slot.as_ref().is_some_and(|p| p.completes_at <= by) {
            slot.take()
        } else {
            None
        }
    }

    /// Takes whatever copy is pending on `engine`, regardless of time
    /// (full-barrier waits and task-end flushes).
    pub(crate) fn take_pending_dma_any(&mut self, engine: usize) -> Option<PendingDma> {
        self.pending_dma[engine.min(1)].take()
    }

    /// Issues one micro-operation: executes it (in functional mode) and
    /// charges one cycle.
    ///
    /// # Errors
    ///
    /// Fails if the micro-op references a VR index out of range.
    pub fn issue_micro(&mut self, op: &MicroOp) -> Result<()> {
        // Validate VR indices up-front so MicroState::execute cannot panic.
        let max = self.vrs.len();
        let check = |i: &usize| -> Result<()> {
            if *i < max {
                Ok(())
            } else {
                Err(Error::BadVr {
                    index: *i,
                    count: max,
                    kind: "VR",
                })
            }
        };
        match op {
            MicroOp::ReadVr { vrs, .. } => vrs.iter().try_for_each(check)?,
            MicroOp::ReadVrOpLatch { vr, .. }
            | MicroOp::OpVr { vr, .. }
            | MicroOp::OpVrOpLatch { vr, .. }
            | MicroOp::WriteVr { vr, .. } => check(vr)?,
            _ => {}
        }
        if self.is_functional() {
            self.micro.execute(&mut self.vrs, op);
        }
        self.cycles += Cycles::new(1);
        self.stats.record_micro();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{SliceMask, WriteSrc};

    fn small_core() -> ApuCore {
        let cfg = SimConfig {
            vr_len: 64,
            l2_bytes: 128,
            ..SimConfig::default()
        };
        ApuCore::new(0, cfg)
    }

    #[test]
    fn vr_indexing_and_bounds() {
        let mut c = small_core();
        assert!(c.vr(Vr::new(23)).is_ok());
        assert!(c.vr(Vr::new(24)).is_err());
        assert!(c.vmr(Vmr::new(47)).is_ok());
        assert!(c.vmr(Vmr::new(48)).is_err());
        assert!(c.marker(Marker::new(3)).is_ok());
        assert!(c.marker(Marker::new(4)).is_err());
        c.vr_mut(Vr::new(0)).unwrap()[5] = 42;
        assert_eq!(c.vr(Vr::new(0)).unwrap()[5], 42);
    }

    #[test]
    fn vr_pair_rejects_alias_and_splits() {
        let mut c = small_core();
        assert!(c.vr_pair_mut(Vr::new(1), Vr::new(1)).is_err());
        c.vr_mut(Vr::new(2)).unwrap()[0] = 9;
        let (d, s) = c.vr_pair_mut(Vr::new(1), Vr::new(2)).unwrap();
        d[0] = s[0] + 1;
        assert_eq!(c.vr(Vr::new(1)).unwrap()[0], 10);
    }

    #[test]
    fn vr3_allows_equal_sources() {
        let mut c = small_core();
        c.vr_mut(Vr::new(5)).unwrap().fill(3);
        let (d, a, b) = c.vr3_mut(Vr::new(0), Vr::new(5), Vr::new(5)).unwrap();
        for i in 0..d.len() {
            d[i] = a[i] + b[i];
        }
        assert!(c.vr(Vr::new(0)).unwrap().iter().all(|&v| v == 6));
        assert!(c.vr3_mut(Vr::new(5), Vr::new(5), Vr::new(1)).is_err());
    }

    #[test]
    fn charge_accumulates_cycles_and_stats() {
        let mut c = small_core();
        c.charge(VecOp::AddU16); // 12 + 2 issue
        c.charge(VecOp::Or16); // 8 + 2 issue
        assert_eq!(c.cycles().get(), 24);
        assert_eq!(c.stats().commands, 2);
        assert_eq!(c.stats().micro_ops, 20); // ≈ one µop per busy cycle
    }

    #[test]
    fn charge_cycles_classifies() {
        let mut c = small_core();
        c.charge_cycles(CycleClass::Dma, Cycles::new(100));
        c.charge_cycles(CycleClass::Pio, Cycles::new(50));
        assert_eq!(c.cycles().get(), 150);
        assert_eq!(c.stats().dma_cycles, 100);
        assert_eq!(c.stats().pio_cycles, 50);
    }

    #[test]
    fn issue_micro_validates_and_executes() {
        let mut c = small_core();
        c.vr_mut(Vr::new(0)).unwrap().fill(0xF0F0);
        c.issue_micro(&MicroOp::ReadVr {
            mask: SliceMask::FULL,
            vrs: vec![0],
        })
        .unwrap();
        c.issue_micro(&MicroOp::WriteVr {
            mask: SliceMask::FULL,
            vr: 1,
            src: WriteSrc::RlNeg,
        })
        .unwrap();
        assert!(c.vr(Vr::new(1)).unwrap().iter().all(|&v| v == 0x0F0F));
        assert_eq!(c.cycles().get(), 2);
        assert!(c
            .issue_micro(&MicroOp::ReadVr {
                mask: SliceMask::FULL,
                vrs: vec![99],
            })
            .is_err());
    }

    #[test]
    fn timing_only_mode_skips_data_but_charges() {
        let cfg = SimConfig {
            vr_len: 64,
            l2_bytes: 128,
            exec_mode: crate::config::ExecMode::TimingOnly,
            ..SimConfig::default()
        };
        let mut c = ApuCore::new(0, cfg);
        c.vr_mut(Vr::new(0)).unwrap().fill(0xFFFF);
        c.issue_micro(&MicroOp::ReadVr {
            mask: SliceMask::FULL,
            vrs: vec![0],
        })
        .unwrap();
        // Data untouched in timing-only mode...
        assert!(c.micro().rl.iter().all(|&r| r == 0));
        // ...but the cycle was charged.
        assert_eq!(c.cycles().get(), 1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Vr::new(3).to_string(), "VR3");
        assert_eq!(Vmr::new(7).to_string(), "VMR7");
        assert_eq!(Marker::new(1).to_string(), "MRK1");
    }
}
