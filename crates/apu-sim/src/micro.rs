//! Bit-processor micro-operations (the paper's Table 2).
//!
//! Each column of each bit-slice integrates a bit processor with a 1-bit
//! **read latch** (RL). Bit processors in the same row share a **global
//! horizontal line** (wired-OR into the GHL latch); processors in the same
//! column share a **global vertical line** (wired-AND into the GVL latch).
//! The read logic can combine the read bit-line of one or more VRs, a
//! latch, and a neighbour's RL with AND/OR/XOR; the write logic drives the
//! SRAM cells from the write bit-line (RL) or its negation.
//!
//! The simulator stores a VR element-major (`Vec<u16>`): element `i`'s 16
//! bit processors hold the 16 RL bits packed into `rl[i]`. A
//! [`SliceMask`] selects which of the 16 bit-slices participate in a
//! micro-operation, exactly like the device's 16-mask.
//!
//! One simplification is documented here: the hardware has one GHL per
//! physical row segment; we model a single 16-bit GHL per core (one bit
//! per slice, OR-reduced across all columns). Workload kernels in this
//! repository only use the GHL for "any column set?" style queries, for
//! which the granularities coincide.

use serde::{Deserialize, Serialize};

/// Selects which of the 16 bit-slices a micro-operation applies to.
///
/// Bit `b` set means slice `b` (the `b`-th bit of every element)
/// participates.
///
/// ```
/// use apu_sim::SliceMask;
/// assert_eq!(SliceMask::FULL.bits(), 0xFFFF);
/// assert_eq!(SliceMask::single(3).bits(), 0b1000);
/// assert!(SliceMask::single(3).contains(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SliceMask(u16);

impl SliceMask {
    /// All 16 slices.
    pub const FULL: SliceMask = SliceMask(0xFFFF);

    /// No slices (a no-op mask; permitted, occasionally useful in codegen).
    pub const EMPTY: SliceMask = SliceMask(0);

    /// Creates a mask from raw bits.
    pub const fn new(bits: u16) -> Self {
        SliceMask(bits)
    }

    /// A mask with only slice `bit` set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 16`.
    pub fn single(bit: usize) -> Self {
        assert!(bit < 16, "slice index {bit} out of range");
        SliceMask(1 << bit)
    }

    /// A mask of the low `n` slices.
    ///
    /// # Panics
    ///
    /// Panics if `n > 16`.
    pub fn low(n: usize) -> Self {
        assert!(n <= 16, "slice count {n} out of range");
        if n == 16 {
            SliceMask::FULL
        } else {
            SliceMask(((1u32 << n) - 1) as u16)
        }
    }

    /// The raw bits.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Whether slice `bit` participates.
    pub const fn contains(self, bit: usize) -> bool {
        self.0 & (1 << bit) != 0
    }
}

impl Default for SliceMask {
    fn default() -> Self {
        SliceMask::FULL
    }
}

/// Boolean operations supported by the bit-processor read logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitOp {
    /// Wired-AND.
    And,
    /// Wired-OR.
    Or,
    /// XOR.
    Xor,
}

impl BitOp {
    /// Applies the operation to two packed 16-bit slices.
    pub fn apply(self, a: u16, b: u16) -> u16 {
        match self {
            BitOp::And => a & b,
            BitOp::Or => a | b,
            BitOp::Xor => a ^ b,
        }
    }
}

/// Latch sources readable by a bit processor (the `L` of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatchSrc {
    /// Global horizontal latch (one bit per slice, OR-combined on load).
    Ghl,
    /// Global vertical latch (one bit per column, AND-combined on load).
    Gvl,
    /// RL of the processor to the north: slice `b` reads slice `b + 1`.
    RlNorth,
    /// RL of the processor to the south: slice `b` reads slice `b - 1`.
    RlSouth,
    /// RL of the processor to the east: column `i` reads column `i + 1`.
    RlEast,
    /// RL of the processor to the west: column `i` reads column `i - 1`.
    RlWest,
}

/// Sources the write logic can drive into the SRAM cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteSrc {
    /// Write bit-line driven from RL (WBL).
    Rl,
    /// Negated write bit-line (WBLB): writes `!RL`.
    RlNeg,
    /// Broadcast the GHL bit of each slice to every column.
    Ghl,
    /// Broadcast each column's GVL bit to every masked slice.
    Gvl,
}

/// One micro-operation on the microarchitectural state of Table 2.
///
/// `vrs` lists source VR indices; a multi-operand read wired-ANDs the
/// bit-lines, exactly as on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MicroOp {
    /// `RL = VR[vrs0]` / `RL = VR[vrs0, vrs1]` (multi-read is an AND).
    ReadVr {
        /// Participating bit-slices.
        mask: SliceMask,
        /// Source VRs; their bit-lines are wired-AND combined.
        vrs: Vec<usize>,
    },
    /// `RL = L`.
    ReadLatch {
        /// Participating bit-slices.
        mask: SliceMask,
        /// Latch source.
        src: LatchSrc,
    },
    /// `RL = VR[vrs0] op L`.
    ReadVrOpLatch {
        /// Participating bit-slices.
        mask: SliceMask,
        /// Source VR.
        vr: usize,
        /// Combining operation.
        op: BitOp,
        /// Latch source.
        src: LatchSrc,
    },
    /// `RL op= VR[vrs0]`.
    OpVr {
        /// Participating bit-slices.
        mask: SliceMask,
        /// Combining operation.
        op: BitOp,
        /// Source VR.
        vr: usize,
    },
    /// `RL op= L`.
    OpLatch {
        /// Participating bit-slices.
        mask: SliceMask,
        /// Combining operation.
        op: BitOp,
        /// Latch source.
        src: LatchSrc,
    },
    /// `RL op= VR[vrs0] op L` (one op symbol, applied to both combines,
    /// as written in Table 2).
    OpVrOpLatch {
        /// Participating bit-slices.
        mask: SliceMask,
        /// Combining operation.
        op: BitOp,
        /// Source VR.
        vr: usize,
        /// Latch source.
        src: LatchSrc,
    },
    /// `VR[vrs0] = I`: write to a VR from a source latch.
    WriteVr {
        /// Participating bit-slices.
        mask: SliceMask,
        /// Destination VR.
        vr: usize,
        /// Write source (WBL / WBLB / global latches).
        src: WriteSrc,
    },
    /// Load the GHL: per masked slice, OR of RL across all columns.
    LoadGhl {
        /// Participating bit-slices.
        mask: SliceMask,
    },
    /// Load the GVL: per column, AND of RL across masked slices.
    LoadGvl {
        /// Participating bit-slices.
        mask: SliceMask,
    },
}

/// The microarchitectural state manipulated by micro-operations.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroState {
    /// Read latches, element-major: `rl[i]` packs the 16 RL bits of
    /// column `i`.
    pub rl: Vec<u16>,
    /// Global horizontal latch: bit `b` belongs to slice `b`.
    pub ghl: u16,
    /// Global vertical latch: one bit per column.
    pub gvl: Vec<bool>,
}

impl MicroState {
    /// Creates zeroed state for `columns` element columns.
    pub fn new(columns: usize) -> Self {
        MicroState {
            rl: vec![0; columns],
            ghl: 0,
            gvl: vec![false; columns],
        }
    }

    /// Number of element columns.
    pub fn columns(&self) -> usize {
        self.rl.len()
    }

    /// The value a bit processor at column `i` observes when reading
    /// latch source `src`, as a packed 16-bit slice word. Retained as
    /// the scalar reference for the differential tests pinning the
    /// vectorized [`MicroState::execute`] arms.
    #[cfg(test)]
    fn latch_view(&self, src: LatchSrc, i: usize) -> u16 {
        match src {
            LatchSrc::Ghl => self.ghl,
            LatchSrc::Gvl => {
                if self.gvl[i] {
                    0xFFFF
                } else {
                    0
                }
            }
            // Slice b reads slice b+1: shift the packed word right.
            LatchSrc::RlNorth => self.rl[i] >> 1,
            // Slice b reads slice b-1: shift left.
            LatchSrc::RlSouth => self.rl[i] << 1,
            LatchSrc::RlEast => {
                if i + 1 < self.rl.len() {
                    self.rl[i + 1]
                } else {
                    0
                }
            }
            LatchSrc::RlWest => {
                if i > 0 {
                    self.rl[i - 1]
                } else {
                    0
                }
            }
        }
    }

    /// Executes one micro-operation against the VR file `vrs`.
    ///
    /// # Panics
    ///
    /// Panics if a referenced VR index is out of range or a VR length does
    /// not match the column count; the callers in [`crate::core`] validate
    /// indices before issue.
    ///
    /// Every arm runs over slices/zips the compiler can autovectorize.
    /// The one true loop-carried case is a `RlWest` latch read: column
    /// `i` observes its west neighbour's *already updated* RL, so a
    /// value propagates eastward across the whole register within one
    /// micro-op. That arm keeps a documented sequential loop
    /// (`latch_west`); `RlEast` reads the *old* neighbour value
    /// (the sweep has not reached it yet), which an in-place forward
    /// pass preserves.
    pub fn execute(&mut self, vrs: &mut [Vec<u16>], op: &MicroOp) {
        match op {
            MicroOp::ReadVr { mask, vrs: srcs } => {
                let m = mask.bits();
                match srcs.as_slice() {
                    // An empty multi-read drives 0 onto the read latch.
                    [] => {
                        for r in &mut self.rl {
                            *r &= !m;
                        }
                    }
                    [s] => {
                        for (r, &v) in self.rl.iter_mut().zip(&vrs[*s]) {
                            *r = (*r & !m) | (v & m);
                        }
                    }
                    [a, b] => {
                        let (x, y) = (&vrs[*a], &vrs[*b]);
                        for ((r, &xv), &yv) in self.rl.iter_mut().zip(x).zip(y) {
                            *r = (*r & !m) | (xv & yv & m);
                        }
                    }
                    srcs => {
                        for (i, r) in self.rl.iter_mut().enumerate() {
                            let mut v: u16 = 0xFFFF;
                            for &s in srcs {
                                v &= vrs[s][i];
                            }
                            *r = (*r & !m) | (v & m);
                        }
                    }
                }
            }
            MicroOp::ReadLatch { mask, src } => {
                self.combine_latch(mask.bits(), *src, |_cur, l| l);
            }
            MicroOp::ReadVrOpLatch { mask, vr, op, src } => {
                let op = *op;
                self.combine_vr_latch(mask.bits(), &vrs[*vr], *src, move |_cur, x, l| {
                    op.apply(x, l)
                });
            }
            MicroOp::OpVr { mask, op, vr } => {
                let m = mask.bits();
                let op = *op;
                for (r, &v) in self.rl.iter_mut().zip(&vrs[*vr]) {
                    *r = (*r & !m) | (op.apply(*r, v) & m);
                }
            }
            MicroOp::OpLatch { mask, op, src } => {
                let op = *op;
                self.combine_latch(mask.bits(), *src, move |cur, l| op.apply(cur, l));
            }
            MicroOp::OpVrOpLatch { mask, op, vr, src } => {
                let op = *op;
                self.combine_vr_latch(mask.bits(), &vrs[*vr], *src, move |cur, x, l| {
                    op.apply(cur, op.apply(x, l))
                });
            }
            MicroOp::WriteVr { mask, vr, src } => {
                let m = mask.bits();
                let dst = &mut vrs[*vr];
                match src {
                    WriteSrc::Rl => {
                        for (cell, &r) in dst.iter_mut().zip(&self.rl) {
                            *cell = (*cell & !m) | (r & m);
                        }
                    }
                    WriteSrc::RlNeg => {
                        for (cell, &r) in dst.iter_mut().zip(&self.rl) {
                            *cell = (*cell & !m) | (!r & m);
                        }
                    }
                    WriteSrc::Ghl => {
                        let set = self.ghl & m;
                        for cell in dst.iter_mut() {
                            *cell = (*cell & !m) | set;
                        }
                    }
                    WriteSrc::Gvl => {
                        for (cell, &g) in dst.iter_mut().zip(&self.gvl) {
                            let v = if g { m } else { 0 };
                            *cell = (*cell & !m) | v;
                        }
                    }
                }
            }
            MicroOp::LoadGhl { mask } => {
                // The wired-OR spans every column regardless of the mask;
                // the mask only gates which GHL slices latch the result.
                let m = mask.bits();
                let acc = self.rl.iter().fold(0u16, |a, &r| a | r);
                self.ghl = (self.ghl & !m) | (acc & m);
            }
            MicroOp::LoadGvl { mask } => {
                let m = mask.bits();
                for (g, &r) in self.gvl.iter_mut().zip(&self.rl) {
                    // AND across the masked slices of the column.
                    *g = (r & m) == m;
                }
            }
        }
    }

    /// Applies `f(current_rl, latch_view)` under slice mask `m` across
    /// all columns, preserving the per-source neighbour semantics of the
    /// scalar interpreter (see [`Self::latch_view`]).
    fn combine_latch<F: Fn(u16, u16) -> u16>(&mut self, m: u16, src: LatchSrc, f: F) {
        match src {
            LatchSrc::Ghl => {
                let g = self.ghl;
                for r in &mut self.rl {
                    *r = (*r & !m) | (f(*r, g) & m);
                }
            }
            LatchSrc::Gvl => {
                for (r, &g) in self.rl.iter_mut().zip(&self.gvl) {
                    let l = if g { 0xFFFF } else { 0 };
                    *r = (*r & !m) | (f(*r, l) & m);
                }
            }
            LatchSrc::RlNorth => {
                for r in &mut self.rl {
                    *r = (*r & !m) | (f(*r, *r >> 1) & m);
                }
            }
            LatchSrc::RlSouth => {
                for r in &mut self.rl {
                    *r = (*r & !m) | (f(*r, *r << 1) & m);
                }
            }
            LatchSrc::RlEast => {
                // Column i reads its east neighbour's OLD value: the
                // forward pass writes rl[i] strictly before reading
                // rl[i+1], so in-place iteration preserves it (only
                // anti-dependences remain — autovectorizable).
                let n = self.rl.len();
                for i in 0..n.saturating_sub(1) {
                    let l = self.rl[i + 1];
                    self.rl[i] = (self.rl[i] & !m) | (f(self.rl[i], l) & m);
                }
                if let Some(last) = self.rl.last_mut() {
                    *last = (*last & !m) | (f(*last, 0) & m);
                }
            }
            LatchSrc::RlWest => self.latch_west(m, f),
        }
    }

    /// [`Self::combine_latch`] with a VR operand:
    /// `f(current_rl, vr_value, latch_view)` under slice mask `m`.
    fn combine_vr_latch<F: Fn(u16, u16, u16) -> u16>(
        &mut self,
        m: u16,
        vr: &[u16],
        src: LatchSrc,
        f: F,
    ) {
        match src {
            LatchSrc::Ghl => {
                let g = self.ghl;
                for (r, &x) in self.rl.iter_mut().zip(vr) {
                    *r = (*r & !m) | (f(*r, x, g) & m);
                }
            }
            LatchSrc::Gvl => {
                for ((r, &x), &g) in self.rl.iter_mut().zip(vr).zip(&self.gvl) {
                    let l = if g { 0xFFFF } else { 0 };
                    *r = (*r & !m) | (f(*r, x, l) & m);
                }
            }
            LatchSrc::RlNorth => {
                for (r, &x) in self.rl.iter_mut().zip(vr) {
                    *r = (*r & !m) | (f(*r, x, *r >> 1) & m);
                }
            }
            LatchSrc::RlSouth => {
                for (r, &x) in self.rl.iter_mut().zip(vr) {
                    *r = (*r & !m) | (f(*r, x, *r << 1) & m);
                }
            }
            LatchSrc::RlEast => {
                let n = self.rl.len();
                // Neighbour access (`rl[i + 1]`) keeps this loop
                // index-based.
                #[allow(clippy::needless_range_loop)]
                for i in 0..n.saturating_sub(1) {
                    let l = self.rl[i + 1];
                    self.rl[i] = (self.rl[i] & !m) | (f(self.rl[i], vr[i], l) & m);
                }
                if let Some(i) = n.checked_sub(1) {
                    self.rl[i] = (self.rl[i] & !m) | (f(self.rl[i], vr[i], 0) & m);
                }
            }
            LatchSrc::RlWest => {
                // Loop-carried like `latch_west`, but the combine also
                // needs the VR operand for the same column.
                let mut west: u16 = 0;
                for (r, &x) in self.rl.iter_mut().zip(vr) {
                    let v = f(*r, x, west);
                    *r = (*r & !m) | (v & m);
                    west = *r;
                }
            }
        }
    }

    /// The genuinely loop-carried case: each column reads the *already
    /// updated* RL of its west neighbour, so a full-mask read sweeps the
    /// boundary value across the whole register within one micro-op.
    /// This must stay a sequential scalar loop.
    fn latch_west<F: Fn(u16, u16) -> u16>(&mut self, m: u16, f: F) {
        let mut west: u16 = 0;
        for r in &mut self.rl {
            let v = f(*r, west);
            *r = (*r & !m) | (v & m);
            west = *r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_and_vrs(n: usize, k: usize) -> (MicroState, Vec<Vec<u16>>) {
        (MicroState::new(n), vec![vec![0u16; n]; k])
    }

    #[test]
    fn slice_mask_constructors() {
        assert_eq!(SliceMask::low(0), SliceMask::EMPTY);
        assert_eq!(SliceMask::low(16), SliceMask::FULL);
        assert_eq!(SliceMask::low(4).bits(), 0x000F);
        assert!(!SliceMask::low(4).contains(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_mask_single_rejects_16() {
        let _ = SliceMask::single(16);
    }

    #[test]
    fn read_vr_is_multi_operand_and() {
        let (mut st, mut vrs) = state_and_vrs(4, 2);
        vrs[0] = vec![0b1100; 4];
        vrs[1] = vec![0b1010; 4];
        st.execute(
            &mut vrs,
            &MicroOp::ReadVr {
                mask: SliceMask::FULL,
                vrs: vec![0, 1],
            },
        );
        assert!(st.rl.iter().all(|&r| r == 0b1000));
    }

    #[test]
    fn masked_read_preserves_other_slices() {
        let (mut st, mut vrs) = state_and_vrs(2, 1);
        st.rl = vec![0xFFFF; 2];
        vrs[0] = vec![0x0000; 2];
        st.execute(
            &mut vrs,
            &MicroOp::ReadVr {
                mask: SliceMask::single(0),
                vrs: vec![0],
            },
        );
        // Only bit 0 was overwritten with 0.
        assert_eq!(st.rl[0], 0xFFFE);
    }

    #[test]
    fn xor_through_op_vr() {
        let (mut st, mut vrs) = state_and_vrs(3, 2);
        vrs[0] = vec![0b0110; 3];
        vrs[1] = vec![0b0101; 3];
        st.execute(
            &mut vrs,
            &MicroOp::ReadVr {
                mask: SliceMask::FULL,
                vrs: vec![0],
            },
        );
        st.execute(
            &mut vrs,
            &MicroOp::OpVr {
                mask: SliceMask::FULL,
                op: BitOp::Xor,
                vr: 1,
            },
        );
        assert!(st.rl.iter().all(|&r| r == 0b0011));
    }

    #[test]
    fn write_vr_and_negated_write() {
        let (mut st, mut vrs) = state_and_vrs(2, 1);
        st.rl = vec![0x00F0; 2];
        st.execute(
            &mut vrs,
            &MicroOp::WriteVr {
                mask: SliceMask::FULL,
                vr: 0,
                src: WriteSrc::Rl,
            },
        );
        assert_eq!(vrs[0][0], 0x00F0);
        st.execute(
            &mut vrs,
            &MicroOp::WriteVr {
                mask: SliceMask::FULL,
                vr: 0,
                src: WriteSrc::RlNeg,
            },
        );
        assert_eq!(vrs[0][0], 0xFF0F);
    }

    #[test]
    fn ghl_is_wired_or_across_columns() {
        let (mut st, mut vrs) = state_and_vrs(4, 1);
        st.rl = vec![0b0001, 0b0010, 0b0100, 0b0000];
        st.execute(
            &mut vrs,
            &MicroOp::LoadGhl {
                mask: SliceMask::FULL,
            },
        );
        assert_eq!(st.ghl, 0b0111);
        // Broadcast GHL back to a VR.
        st.execute(
            &mut vrs,
            &MicroOp::WriteVr {
                mask: SliceMask::FULL,
                vr: 0,
                src: WriteSrc::Ghl,
            },
        );
        assert!(vrs[0].iter().all(|&v| v == 0b0111));
    }

    #[test]
    fn gvl_is_wired_and_across_slices() {
        let (mut st, mut vrs) = state_and_vrs(2, 1);
        st.rl = vec![0b0011, 0b0001];
        st.execute(
            &mut vrs,
            &MicroOp::LoadGvl {
                mask: SliceMask::low(2),
            },
        );
        assert_eq!(st.gvl, vec![true, false]);
    }

    #[test]
    fn neighbour_views_shift_correctly() {
        let (mut st, mut vrs) = state_and_vrs(3, 1);
        st.rl = vec![0b0010, 0b1000, 0b0001];
        // North: slice b reads slice b+1 -> packed >> 1.
        st.execute(
            &mut vrs,
            &MicroOp::ReadLatch {
                mask: SliceMask::FULL,
                src: LatchSrc::RlNorth,
            },
        );
        assert_eq!(st.rl, vec![0b0001, 0b0100, 0b0000]);
        // East: column i reads column i+1; boundary reads 0.
        st.rl = vec![0b01, 0b10, 0b11];
        st.execute(
            &mut vrs,
            &MicroOp::ReadLatch {
                mask: SliceMask::FULL,
                src: LatchSrc::RlEast,
            },
        );
        assert_eq!(st.rl, vec![0b10, 0b11, 0b00]);
    }

    #[test]
    fn read_vr_op_latch_combines() {
        let (mut st, mut vrs) = state_and_vrs(2, 1);
        vrs[0] = vec![0b1100; 2];
        st.ghl = 0b1010;
        st.execute(
            &mut vrs,
            &MicroOp::ReadVrOpLatch {
                mask: SliceMask::FULL,
                vr: 0,
                op: BitOp::Or,
                src: LatchSrc::Ghl,
            },
        );
        assert!(st.rl.iter().all(|&r| r == 0b1110));
    }

    #[test]
    fn bitserial_full_adder_built_from_micro_ops() {
        // Build a 16-bit ripple-carry adder from Table 2 micro-ops alone,
        // demonstrating that the micro-op layer is computationally complete
        // for bit-serial arithmetic. VR2 holds the carry, VR3 scratch.
        let n = 8;
        let (mut st, mut vrs) = state_and_vrs(n, 4);
        let a: Vec<u16> = (0..n as u16).map(|i| i * 1000 + 17).collect();
        let b: Vec<u16> = (0..n as u16).map(|i| 40000 - i * 321).collect();
        vrs[0] = a.clone();
        vrs[1] = b.clone();

        for bit in 0..16 {
            let m = SliceMask::single(bit);
            // sum_b = a ^ b ^ c  (into VR3 slice b)
            st.execute(
                &mut vrs,
                &MicroOp::ReadVr {
                    mask: m,
                    vrs: vec![0],
                },
            );
            st.execute(
                &mut vrs,
                &MicroOp::OpVr {
                    mask: m,
                    op: BitOp::Xor,
                    vr: 1,
                },
            );
            st.execute(
                &mut vrs,
                &MicroOp::OpVr {
                    mask: m,
                    op: BitOp::Xor,
                    vr: 2,
                },
            );
            st.execute(
                &mut vrs,
                &MicroOp::WriteVr {
                    mask: m,
                    vr: 3,
                    src: WriteSrc::Rl,
                },
            );
            // carry' = (a & b) | (c & (a ^ b)), placed in slice b+1 of VR2.
            if bit < 15 {
                let m_next = SliceMask::single(bit + 1);
                // t = a ^ b
                st.execute(
                    &mut vrs,
                    &MicroOp::ReadVr {
                        mask: m,
                        vrs: vec![0],
                    },
                );
                st.execute(
                    &mut vrs,
                    &MicroOp::OpVr {
                        mask: m,
                        op: BitOp::Xor,
                        vr: 1,
                    },
                );
                // t &= c  -> c & (a^b)
                st.execute(
                    &mut vrs,
                    &MicroOp::OpVr {
                        mask: m,
                        op: BitOp::And,
                        vr: 2,
                    },
                );
                // t |= a & b (multi-operand read is an AND; OR-combine via OpVrOpLatch
                // is not needed — use scratch write + OpVr)
                st.execute(
                    &mut vrs,
                    &MicroOp::WriteVr {
                        mask: m,
                        vr: 2,
                        src: WriteSrc::Rl,
                    },
                );
                st.execute(
                    &mut vrs,
                    &MicroOp::ReadVr {
                        mask: m,
                        vrs: vec![0, 1],
                    },
                );
                st.execute(
                    &mut vrs,
                    &MicroOp::OpVr {
                        mask: m,
                        op: BitOp::Or,
                        vr: 2,
                    },
                );
                // move carry to slice b+1: write via south-neighbour view.
                st.execute(
                    &mut vrs,
                    &MicroOp::WriteVr {
                        mask: m,
                        vr: 2,
                        src: WriteSrc::Rl,
                    },
                );
                st.execute(
                    &mut vrs,
                    &MicroOp::ReadVrOpLatch {
                        mask: m_next,
                        vr: 2,
                        op: BitOp::Or,
                        src: LatchSrc::RlSouth,
                    },
                );
                // RL(slice b+1) now holds carry (VR2 slice b+1 is 0 | south RL).
                st.execute(
                    &mut vrs,
                    &MicroOp::WriteVr {
                        mask: m_next,
                        vr: 2,
                        src: WriteSrc::Rl,
                    },
                );
            }
        }
        for i in 0..n {
            assert_eq!(vrs[3][i], a[i].wrapping_add(b[i]), "column {i}");
        }
    }

    /// The pre-vectorization per-element interpreter, kept verbatim as
    /// the reference oracle: every arm indexes `latch_view` column by
    /// column, including the in-place neighbour semantics (`RlWest`
    /// observes updated state, `RlEast` pre-update state).
    // The oracle is deliberately scalar and index-based — it mirrors
    // the pre-vectorization per-column walk, not idiomatic iterators.
    #[allow(clippy::needless_range_loop)]
    fn execute_reference(st: &mut MicroState, vrs: &mut [Vec<u16>], op: &MicroOp) {
        let n = st.columns();
        match op {
            MicroOp::ReadVr { mask, vrs: srcs } => {
                let m = mask.bits();
                for i in 0..n {
                    let mut v: u16 = 0xFFFF;
                    for &s in srcs {
                        v &= vrs[s][i];
                    }
                    if srcs.is_empty() {
                        v = 0;
                    }
                    st.rl[i] = (st.rl[i] & !m) | (v & m);
                }
            }
            MicroOp::ReadLatch { mask, src } => {
                let m = mask.bits();
                for i in 0..n {
                    let v = st.latch_view(*src, i);
                    st.rl[i] = (st.rl[i] & !m) | (v & m);
                }
            }
            MicroOp::ReadVrOpLatch { mask, vr, op, src } => {
                let m = mask.bits();
                for i in 0..n {
                    let v = op.apply(vrs[*vr][i], st.latch_view(*src, i));
                    st.rl[i] = (st.rl[i] & !m) | (v & m);
                }
            }
            MicroOp::OpVr { mask, op, vr } => {
                let m = mask.bits();
                for i in 0..n {
                    let v = op.apply(st.rl[i], vrs[*vr][i]);
                    st.rl[i] = (st.rl[i] & !m) | (v & m);
                }
            }
            MicroOp::OpLatch { mask, op, src } => {
                let m = mask.bits();
                for i in 0..n {
                    let v = op.apply(st.rl[i], st.latch_view(*src, i));
                    st.rl[i] = (st.rl[i] & !m) | (v & m);
                }
            }
            MicroOp::OpVrOpLatch { mask, op, vr, src } => {
                let m = mask.bits();
                for i in 0..n {
                    let v = op.apply(st.rl[i], op.apply(vrs[*vr][i], st.latch_view(*src, i)));
                    st.rl[i] = (st.rl[i] & !m) | (v & m);
                }
            }
            MicroOp::WriteVr { mask, vr, src } => {
                let m = mask.bits();
                for i in 0..n {
                    let v = match src {
                        WriteSrc::Rl => st.rl[i],
                        WriteSrc::RlNeg => !st.rl[i],
                        WriteSrc::Ghl => st.ghl,
                        WriteSrc::Gvl => {
                            if st.gvl[i] {
                                0xFFFF
                            } else {
                                0
                            }
                        }
                    };
                    let cell = &mut vrs[*vr][i];
                    *cell = (*cell & !m) | (v & m);
                }
            }
            MicroOp::LoadGhl { mask } => {
                let m = mask.bits();
                let mut acc: u16 = 0;
                for i in 0..n {
                    acc |= st.rl[i];
                }
                st.ghl = (st.ghl & !m) | (acc & m);
            }
            MicroOp::LoadGvl { mask } => {
                let m = mask.bits();
                for i in 0..n {
                    st.gvl[i] = (st.rl[i] & m) == m;
                }
            }
        }
    }

    /// A cheap deterministic PRNG so the differential sweep needs no
    /// external crates.
    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn vectorized_execute_matches_scalar_reference() {
        let n = 67; // odd, non-power-of-two: exercises boundary columns
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let latches = [
            LatchSrc::Ghl,
            LatchSrc::Gvl,
            LatchSrc::RlNorth,
            LatchSrc::RlSouth,
            LatchSrc::RlEast,
            LatchSrc::RlWest,
        ];
        let bitops = [BitOp::And, BitOp::Or, BitOp::Xor];
        let masks = [
            SliceMask::FULL,
            SliceMask::low(4),
            SliceMask::single(15),
            SliceMask::single(0),
        ];
        let mut ops: Vec<MicroOp> = Vec::new();
        for &mask in &masks {
            ops.push(MicroOp::ReadVr { mask, vrs: vec![] });
            ops.push(MicroOp::ReadVr { mask, vrs: vec![1] });
            ops.push(MicroOp::ReadVr {
                mask,
                vrs: vec![0, 2],
            });
            ops.push(MicroOp::ReadVr {
                mask,
                vrs: vec![0, 1, 2],
            });
            ops.push(MicroOp::LoadGhl { mask });
            ops.push(MicroOp::LoadGvl { mask });
            for src in [WriteSrc::Rl, WriteSrc::RlNeg, WriteSrc::Ghl, WriteSrc::Gvl] {
                ops.push(MicroOp::WriteVr { mask, vr: 3, src });
            }
            for &src in &latches {
                ops.push(MicroOp::ReadLatch { mask, src });
                for &op in &bitops {
                    ops.push(MicroOp::OpLatch { mask, op, src });
                    ops.push(MicroOp::ReadVrOpLatch {
                        mask,
                        vr: 1,
                        op,
                        src,
                    });
                    ops.push(MicroOp::OpVrOpLatch {
                        mask,
                        op,
                        vr: 2,
                        src,
                    });
                }
            }
            for &op in &bitops {
                ops.push(MicroOp::OpVr { mask, op, vr: 0 });
            }
        }
        // Run the same randomized op stream through both interpreters,
        // comparing complete machine state after every step.
        let mut st_v = MicroState::new(n);
        let mut st_r = MicroState::new(n);
        let mut vrs_v: Vec<Vec<u16>> = (0..4)
            .map(|_| (0..n).map(|_| xorshift(&mut seed) as u16).collect())
            .collect();
        let mut vrs_r = vrs_v.clone();
        st_v.rl = (0..n).map(|_| xorshift(&mut seed) as u16).collect();
        st_r.rl.copy_from_slice(&st_v.rl);
        st_v.ghl = xorshift(&mut seed) as u16;
        st_r.ghl = st_v.ghl;
        for i in 0..n {
            let b = xorshift(&mut seed) & 1 == 1;
            st_v.gvl[i] = b;
            st_r.gvl[i] = b;
        }
        for (step, op) in ops.iter().enumerate() {
            st_v.execute(&mut vrs_v, op);
            execute_reference(&mut st_r, &mut vrs_r, op);
            assert_eq!(st_v.rl, st_r.rl, "RL diverged at step {step}: {op:?}");
            assert_eq!(st_v.ghl, st_r.ghl, "GHL diverged at step {step}: {op:?}");
            assert_eq!(st_v.gvl, st_r.gvl, "GVL diverged at step {step}: {op:?}");
            assert_eq!(vrs_v, vrs_r, "VRs diverged at step {step}: {op:?}");
        }
    }

    #[test]
    fn west_read_propagates_sequentially_across_all_columns() {
        // Reading RlWest with OR over the full mask must sweep column
        // 0's value across the entire register in ONE micro-op: column i
        // sees its west neighbour's already-updated RL. A parallel
        // implementation would only shift by one column.
        let (mut st, mut vrs) = state_and_vrs(5, 1);
        st.rl = vec![0b1000, 0, 0, 0, 0];
        st.execute(
            &mut vrs,
            &MicroOp::OpLatch {
                mask: SliceMask::FULL,
                op: BitOp::Or,
                src: LatchSrc::RlWest,
            },
        );
        assert_eq!(st.rl, vec![0b1000; 5]);
    }
}
