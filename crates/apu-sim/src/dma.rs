//! Data movement: DMA engines, programmed I/O (PIO), and indexed lookup.
//!
//! Latency models follow the paper's Table 4; see
//! [`crate::timing::DeviceTiming`] for the constants. All L4-touching
//! transfers are additionally scaled by the core's current contention
//! factor (the device DRAM is shared by the four cores).
//!
//! The DMA engines transfer data in 512-byte chunks whose source and
//! target addresses can be programmed, enabling contiguous, strided, and
//! duplicated layout transformations (paper §2.1.2). The chunked API
//! ([`ApuContext::dma_l4_to_l2_chunks`]) models a *single* programmed
//! transaction: it pays the initialization cost once, which is exactly the
//! mechanism the paper's *DMA coalescing* optimization exploits.

use crate::clock::Cycles;
use crate::core::CycleClass;
use crate::core::{Vmr, Vr};
use crate::device::ApuContext;
use crate::error::Error;
use crate::mem::{bounds_check, MemHandle};
use crate::Result;

/// DMA chunk granularity in bytes.
pub const DMA_CHUNK: usize = 512;

/// One programmed chunk copy within a DMA transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkCopy {
    /// Byte offset within the source region.
    pub src_off: usize,
    /// Byte offset within the destination region.
    pub dst_off: usize,
    /// Bytes to copy. Charged in 512-byte granules.
    pub bytes: usize,
}

impl ChunkCopy {
    /// Creates a chunk descriptor.
    pub fn new(src_off: usize, dst_off: usize, bytes: usize) -> Self {
        ChunkCopy {
            src_off,
            dst_off,
            bytes,
        }
    }
}

fn granules(bytes: usize) -> usize {
    bytes.div_ceil(DMA_CHUNK) * DMA_CHUNK
}

impl ApuContext<'_> {
    fn contended(&self, c: Cycles) -> Cycles {
        Cycles::from_f64(c.as_f64() * self.core().l4_contention())
    }

    fn dma_extra(&self) -> Cycles {
        Cycles::new(self.timing().dma_setup_extra)
    }

    // ---------------- L4 <-> L3 ----------------

    /// DMA `len` bytes from device DRAM into the L3 cache at `l3_off`.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-range destinations.
    pub fn dma_l4_to_l3(&mut self, l3_off: usize, src: MemHandle, len: usize) -> Result<()> {
        let cost = self.contended(self.timing().dma_l4_l3(len)) + self.dma_extra();
        self.check_l3(l3_off, len)?;
        if self.core().is_functional() {
            let data = self.l4().slice(src, len)?.to_vec();
            self.l3_mut()[l3_off..l3_off + len].copy_from_slice(&data);
        } else {
            // Validate the handle even when data movement is elided.
            self.l4().validate(src, len.min(src.len()))?;
        }
        self.core_mut().charge_cycles(CycleClass::Dma, cost);
        self.stats_dma_transaction(len as u64);
        Ok(())
    }

    /// DMA `len` bytes from the L3 cache back to device DRAM.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-range sources.
    pub fn dma_l3_to_l4(&mut self, dst: MemHandle, l3_off: usize, len: usize) -> Result<()> {
        let cost = self.contended(self.timing().dma_l4_l3(len)) + self.dma_extra();
        self.check_l3(l3_off, len)?;
        if self.core().is_functional() {
            let data = self.l3()[l3_off..l3_off + len].to_vec();
            self.l4_mut().write(dst.truncated(len)?, &data)?;
        }
        self.core_mut().charge_cycles(CycleClass::Dma, cost);
        self.stats_dma_transaction(len as u64);
        Ok(())
    }

    // ---------------- L4 <-> L2 ----------------

    /// DMA `len` contiguous bytes from device DRAM into the L2 scratchpad.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-range destinations.
    pub fn dma_l4_to_l2(&mut self, l2_off: usize, src: MemHandle, len: usize) -> Result<()> {
        self.dma_l4_to_l2_chunks(src, &[ChunkCopy::new(0, l2_off, len)])
    }

    /// One programmed DMA transaction copying several 512-byte-granular
    /// chunks from device DRAM into L2, paying the initialization cost
    /// once (the paper's *coalesced DMA*).
    ///
    /// # Errors
    ///
    /// Fails if `chunks` is empty, any chunk has zero length, or any range
    /// is out of bounds.
    pub fn dma_l4_to_l2_chunks(&mut self, src: MemHandle, chunks: &[ChunkCopy]) -> Result<()> {
        if chunks.is_empty() {
            return Err(Error::InvalidArg("empty DMA chunk list".into()));
        }
        let mut billed = 0usize;
        for c in chunks {
            if c.bytes == 0 {
                return Err(Error::InvalidArg("zero-length DMA chunk".into()));
            }
            billed += granules(c.bytes);
        }
        let cost = self.contended(self.timing().dma_l4_l2(billed)) + self.dma_extra();
        for c in chunks {
            self.check_l2(c.dst_off, c.bytes)?;
            if self.core().is_functional() {
                let sub = src.offset_by(c.src_off)?;
                let data = self.l4().slice(sub, c.bytes)?.to_vec();
                self.core_mut().l2_mut()[c.dst_off..c.dst_off + c.bytes].copy_from_slice(&data);
            }
        }
        self.core_mut().charge_cycles(CycleClass::Dma, cost);
        self.stats_dma_transaction(billed as u64);
        Ok(())
    }

    /// DMA `len` bytes from the L2 scratchpad back to device DRAM.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-range sources.
    pub fn dma_l2_to_l4(&mut self, dst: MemHandle, l2_off: usize, len: usize) -> Result<()> {
        let billed = granules(len);
        let cost = self.contended(self.timing().dma_l4_l2(billed)) + self.dma_extra();
        self.check_l2(l2_off, len)?;
        if self.core().is_functional() {
            let data = self.core().l2()[l2_off..l2_off + len].to_vec();
            self.l4_mut().write(dst.truncated(len)?, &data)?;
        }
        self.core_mut().charge_cycles(CycleClass::Dma, cost);
        self.stats_dma_transaction(billed as u64);
        Ok(())
    }

    // ---------------- L2 <-> L1 (full vector only) ----------------

    /// DMA the entire L2 scratchpad (one full vector) into a VMR.
    ///
    /// Per the paper, L2↔L1 transfers support no layout transformation and
    /// move a full 32 K × 16-bit vector.
    ///
    /// # Errors
    ///
    /// Fails if the VMR index is out of range.
    pub fn dma_l2_to_l1(&mut self, dst: Vmr) -> Result<()> {
        let cost = Cycles::new(self.timing().dma_l2_l1) + self.dma_extra();
        if self.core().is_functional() {
            let (l2, vmr) = self.core_mut().l2_vmr_mut(dst)?;
            l2_to_l1(l2, vmr);
        } else {
            self.core().vmr(dst)?;
        }
        self.core_mut().charge_cycles(CycleClass::Dma, cost);
        Ok(())
    }

    /// DMA a VMR (one full vector) into the L2 scratchpad.
    ///
    /// # Errors
    ///
    /// Fails if the VMR index is out of range.
    pub fn dma_l1_to_l2(&mut self, src: Vmr) -> Result<()> {
        let cost = Cycles::new(self.timing().dma_l2_l1) + self.dma_extra();
        if self.core().is_functional() {
            let (l2, vmr) = self.core_mut().l2_vmr_mut(src)?;
            l1_to_l2(vmr, l2);
        } else {
            self.core().vmr(src)?;
        }
        self.core_mut().charge_cycles(CycleClass::Dma, cost);
        Ok(())
    }

    // ---------------- L4 <-> L1 (full vector) ----------------

    /// Direct DMA of one full vector from device DRAM into a VMR
    /// (`direct_dma_l4_to_l1_32k` in the paper's device code).
    ///
    /// # Errors
    ///
    /// Fails if `src` cannot supply a full vector or the VMR is invalid.
    pub fn dma_l4_to_l1(&mut self, dst: Vmr, src: MemHandle) -> Result<()> {
        let bytes = self.core().config().vr_bytes();
        let cost = self.contended(Cycles::new(self.timing().dma_l4_l1)) + self.dma_extra();
        if self.core().is_functional() {
            let data = self.l4().slice(src, bytes)?.to_vec();
            let vals: Vec<u16> = data
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            self.core_mut().vmr_mut(dst)?.copy_from_slice(&vals);
        } else {
            self.core().vmr(dst)?;
            if src.len() < bytes {
                return Err(Error::SizeMismatch {
                    got: src.len(),
                    expected: bytes,
                });
            }
        }
        self.core_mut().charge_cycles(CycleClass::Dma, cost);
        self.stats_dma_transaction(bytes as u64);
        Ok(())
    }

    /// Direct DMA of one full vector from a VMR back to device DRAM
    /// (`direct_dma_l1_to_l4_32k`).
    ///
    /// # Errors
    ///
    /// Fails if `dst` cannot hold a full vector or the VMR is invalid.
    pub fn dma_l1_to_l4(&mut self, dst: MemHandle, src: Vmr) -> Result<()> {
        let bytes = self.core().config().vr_bytes();
        let cost = self.contended(Cycles::new(self.timing().dma_l1_l4)) + self.dma_extra();
        if self.core().is_functional() {
            let data: Vec<u8> = self
                .core()
                .vmr(src)?
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            self.l4_mut().write(dst.truncated(bytes)?, &data)?;
        } else {
            self.core().vmr(src)?;
            if dst.len() < bytes {
                return Err(Error::SizeMismatch {
                    got: dst.len(),
                    expected: bytes,
                });
            }
        }
        self.core_mut().charge_cycles(CycleClass::Dma, cost);
        self.stats_dma_transaction(bytes as u64);
        Ok(())
    }

    /// Gathers programmed chunks from device DRAM into a VMR by staging
    /// them through L2 (chunked L4→L2 transaction, then a full-vector
    /// L2→L1 DMA). Chunk destination offsets are in bytes within the
    /// staged vector.
    ///
    /// # Errors
    ///
    /// Propagates errors from the two underlying transfers.
    pub fn gather_l4_to_l1(
        &mut self,
        dst: Vmr,
        src: MemHandle,
        chunks: &[ChunkCopy],
    ) -> Result<()> {
        self.dma_l4_to_l2_chunks(src, chunks)?;
        self.dma_l2_to_l1(dst)
    }

    // ---------------- PIO ----------------

    /// PIO-loads elements from device DRAM into a VR:
    /// `vr[dst_idx] = src[src_idx]` for each pair, at 57 cycles/element.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range element indices.
    pub fn pio_load(&mut self, vr: Vr, src: MemHandle, pairs: &[(usize, usize)]) -> Result<()> {
        let n = pairs.len();
        let cost = self.contended(self.timing().pio_ld(n));
        if self.core().is_functional() {
            let vr_len = self.core().vr_len();
            let mut vals = Vec::with_capacity(n);
            for &(dst_idx, src_idx) in pairs {
                if dst_idx >= vr_len {
                    return Err(Error::InvalidArg(format!(
                        "PIO destination index {dst_idx} exceeds VR length {vr_len}"
                    )));
                }
                let sub = src.offset_by(src_idx * 2)?;
                let mut b = [0u8; 2];
                self.l4().read(sub.truncated(2)?, &mut b)?;
                vals.push((dst_idx, u16::from_le_bytes(b)));
            }
            let reg = self.core_mut().vr_mut(vr)?;
            for (i, v) in vals {
                reg[i] = v;
            }
        } else {
            self.core().vr(vr)?;
        }
        self.core_mut().charge_cycles(CycleClass::Pio, cost);
        self.stats_pio(n as u64);
        Ok(())
    }

    /// PIO-stores elements from a VR to device DRAM:
    /// `dst[dst_idx] = vr[src_idx]` for each pair, at 61 cycles/element.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range element indices.
    pub fn pio_store(&mut self, dst: MemHandle, vr: Vr, pairs: &[(usize, usize)]) -> Result<()> {
        let n = pairs.len();
        let cost = self.contended(self.timing().pio_st(n));
        if self.core().is_functional() {
            let vr_len = self.core().vr_len();
            let mut writes = Vec::with_capacity(n);
            for &(dst_idx, src_idx) in pairs {
                if src_idx >= vr_len {
                    return Err(Error::InvalidArg(format!(
                        "PIO source index {src_idx} exceeds VR length {vr_len}"
                    )));
                }
                let v = self.core().vr(vr)?[src_idx];
                writes.push((dst_idx, v));
            }
            for (dst_idx, v) in writes {
                let sub = dst.offset_by(dst_idx * 2)?;
                self.l4_mut().write(sub.truncated(2)?, &v.to_le_bytes())?;
            }
        } else {
            self.core().vr(vr)?;
        }
        self.core_mut().charge_cycles(CycleClass::Pio, cost);
        self.stats_pio(n as u64);
        Ok(())
    }

    /// Serially retrieves one VR element through the RSP FIFO.
    ///
    /// The paper: "retrieval from VR is limited to one element at a time".
    /// Returns 0 in timing-only mode.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range index.
    pub fn pio_get(&mut self, vr: Vr, index: usize) -> Result<u16> {
        if index >= self.core().vr_len() {
            return Err(Error::InvalidArg(format!(
                "PIO get index {index} exceeds VR length {}",
                self.core().vr_len()
            )));
        }
        let cost = self.timing().pio_st(1);
        self.core_mut().charge_cycles(CycleClass::Pio, cost);
        if self.core().is_functional() {
            Ok(self.core().vr(vr)?[index])
        } else {
            self.core().vr(vr)?;
            Ok(0)
        }
    }

    /// Inserts one element into a VR through the RSP FIFO.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range index.
    pub fn pio_set(&mut self, vr: Vr, index: usize, value: u16) -> Result<()> {
        if index >= self.core().vr_len() {
            return Err(Error::InvalidArg(format!(
                "PIO set index {index} exceeds VR length {}",
                self.core().vr_len()
            )));
        }
        let cost = self.timing().pio_ld(1);
        if self.core().is_functional() {
            self.core_mut().vr_mut(vr)?[index] = value;
        } else {
            self.core().vr(vr)?;
        }
        self.core_mut().charge_cycles(CycleClass::Pio, cost);
        Ok(())
    }

    // ---------------- Indexed lookup ----------------

    /// Indexed lookup from an L3-resident table of `sigma` u16 entries:
    /// `dst[i] = table[idx[i]]` for every element, at `7.15 σ + 629`
    /// cycles (paper Table 4).
    ///
    /// # Errors
    ///
    /// Fails if the table exceeds L3, or (in functional mode) if an index
    /// is ≥ `sigma`.
    pub fn lookup(&mut self, dst: Vr, idx: Vr, l3_off: usize, sigma: usize) -> Result<()> {
        self.check_l3(l3_off, sigma * 2)?;
        let cost = Cycles::new(self.timing().lookup(sigma).get() + self.timing().cmd_issue);
        if self.core().is_functional() {
            let table: Vec<u16> = self.l3()[l3_off..l3_off + sigma * 2]
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            let indices = self.core().vr(idx)?.to_vec();
            let out = self.core_mut().vr_mut(dst)?;
            for (o, &ix) in out.iter_mut().zip(indices.iter()) {
                let ix = ix as usize;
                if ix >= sigma {
                    return Err(Error::InvalidArg(format!(
                        "lookup index {ix} exceeds table size {sigma}"
                    )));
                }
                *o = table[ix];
            }
        } else {
            self.core().vr(dst)?;
            self.core().vr(idx)?;
        }
        self.core_mut().charge_cycles(CycleClass::Lookup, cost);
        Ok(())
    }

    // ---------------- VR <-> L1 ----------------

    /// Loads a VR from an L1 vector-memory register (29 cycles).
    ///
    /// # Errors
    ///
    /// Fails on bad indices.
    pub fn load(&mut self, dst: Vr, src: Vmr) -> Result<()> {
        if self.core().is_functional() {
            let (vr, vmr) = self.core_mut().vr_vmr_mut(dst, src)?;
            vr.copy_from_slice(vmr);
        } else {
            self.core().vmr(src)?;
            self.core().vr(dst)?;
        }
        self.core_mut().charge(crate::timing::VecOp::LdSt);
        Ok(())
    }

    /// Stores a VR to an L1 vector-memory register (29 cycles).
    ///
    /// # Errors
    ///
    /// Fails on bad indices.
    pub fn store(&mut self, dst: Vmr, src: Vr) -> Result<()> {
        if self.core().is_functional() {
            let (vr, vmr) = self.core_mut().vr_vmr_mut(src, dst)?;
            vmr.copy_from_slice(vr);
        } else {
            self.core().vr(src)?;
            self.core().vmr(dst)?;
        }
        self.core_mut().charge(crate::timing::VecOp::LdSt);
        Ok(())
    }

    // ---------------- helpers ----------------

    fn check_l2(&self, off: usize, len: usize) -> Result<()> {
        let cap = self.core().l2().len();
        bounds_check(cap, off, len).map_err(|_| Error::ScratchOutOfBounds {
            level: "L2",
            offset: off,
            len,
            capacity: cap,
        })
    }

    pub(crate) fn check_l3(&self, off: usize, len: usize) -> Result<()> {
        let cap = self.l3().len();
        bounds_check(cap, off, len).map_err(|_| Error::ScratchOutOfBounds {
            level: "L3",
            offset: off,
            len,
            capacity: cap,
        })
    }
}

/// Copies the first `2 × vmr.len()` bytes of L2 into `vmr`
/// (little-endian). Kept out of line, with [`l1_to_l2`], so that the
/// timing-only DMA path, which skips the copy, does not carry the
/// inlined loop: a timing-only batch measured ~10% slower with it
/// inlined.
#[inline(never)]
fn l2_to_l1(l2: &[u8], vmr: &mut [u16]) {
    let bytes = &l2[..vmr.len() * 2];
    for (v, c) in vmr.iter_mut().zip(bytes.chunks_exact(2)) {
        *v = u16::from_le_bytes([c[0], c[1]]);
    }
}

/// Copies `vmr` into the first `2 × vmr.len()` bytes of L2
/// (little-endian).
#[inline(never)]
fn l1_to_l2(vmr: &[u16], l2: &mut [u8]) {
    let bytes = &mut l2[..vmr.len() * 2];
    for (c, v) in bytes.chunks_exact_mut(2).zip(vmr.iter()) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::device::ApuDevice;

    fn device() -> ApuDevice {
        ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20))
    }

    #[test]
    fn full_vector_l4_l1_roundtrip() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let src = dev.alloc_u16(n).unwrap();
        let dst = dev.alloc_u16(n).unwrap();
        let data: Vec<u16> = (0..n as u32).map(|i| (i % 65536) as u16).collect();
        dev.copy_to_device(src, &data).unwrap();
        dev.run_task(|ctx| {
            ctx.dma_l4_to_l1(Vmr::new(0), src)?;
            ctx.dma_l1_to_l4(dst, Vmr::new(0))
        })
        .unwrap();
        let mut out = vec![0u16; n];
        dev.copy_from_device(dst, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn l4_l1_charges_calibrated_cycles() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let src = dev.alloc_u16(n).unwrap();
        let report = dev
            .run_task(|ctx| ctx.dma_l4_to_l1(Vmr::new(0), src))
            .unwrap();
        // 22272 (table) + 11 (setup extra)
        assert_eq!(report.cycles.get(), 22272 + 11);
        assert_eq!(report.stats.dma_transactions, 1);
        assert_eq!(report.stats.l4_bytes, 65536);
    }

    #[test]
    fn chunked_dma_pays_init_once() {
        let mut dev = device();
        let src = dev.alloc(1 << 20).unwrap();
        // Two separate transactions vs one coalesced with same total bytes.
        let two = dev
            .run_task(|ctx| {
                ctx.dma_l4_to_l2(0, src, 512)?;
                ctx.dma_l4_to_l2(512, src.offset_by(512)?, 512)
            })
            .unwrap();
        let one = dev
            .run_task(|ctx| {
                ctx.dma_l4_to_l2_chunks(
                    src,
                    &[ChunkCopy::new(0, 0, 512), ChunkCopy::new(512, 512, 512)],
                )
            })
            .unwrap();
        assert!(one.cycles < two.cycles);
        // One init (548) + one setup-extra (11) saved, ± rounding.
        let saved = two.cycles.get() - one.cycles.get();
        assert!((548..=548 + 11 + 2).contains(&saved), "saved {saved}");
    }

    #[test]
    fn small_chunks_billed_at_512_granularity() {
        let mut dev = device();
        let src = dev.alloc(4096).unwrap();
        let a = dev.run_task(|ctx| ctx.dma_l4_to_l2(0, src, 10)).unwrap();
        let b = dev.run_task(|ctx| ctx.dma_l4_to_l2(0, src, 512)).unwrap();
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn duplicating_gather_broadcasts_a_row() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let src = dev.alloc_u16(256).unwrap();
        let row: Vec<u16> = (0..256).map(|i| i as u16).collect();
        dev.copy_to_device(src, &row).unwrap();
        // Duplicate the 512-byte row across the whole staged vector.
        let chunks: Vec<ChunkCopy> = (0..n * 2 / 512)
            .map(|i| ChunkCopy::new(0, i * 512, 512))
            .collect();
        dev.run_task(|ctx| ctx.gather_l4_to_l1(Vmr::new(3), src, &chunks))
            .unwrap();
        let core = dev.core(0).unwrap();
        let vmr = core.vmr(Vmr::new(3)).unwrap();
        for (i, &v) in vmr.iter().enumerate() {
            assert_eq!(v, (i % 256) as u16);
        }
    }

    #[test]
    fn pio_scatter_gather() {
        let mut dev = device();
        let src = dev.alloc_u16(16).unwrap();
        let dst = dev.alloc_u16(16).unwrap();
        dev.copy_to_device(src, &(0..16).map(|i| 100 + i as u16).collect::<Vec<_>>())
            .unwrap();
        let report = dev
            .run_task(|ctx| {
                ctx.pio_load(Vr::new(0), src, &[(5, 2), (6, 3)])?;
                ctx.pio_store(dst, Vr::new(0), &[(0, 5), (1, 6)])
            })
            .unwrap();
        let mut out = vec![0u16; 16];
        dev.copy_from_device(dst, &mut out).unwrap();
        assert_eq!(&out[..2], &[102, 103]);
        // 2×57 + 2×61
        assert_eq!(report.cycles.get(), 2 * 57 + 2 * 61);
        assert_eq!(report.stats.pio_elems, 4);
    }

    #[test]
    fn pio_get_set_roundtrip() {
        let mut dev = device();
        dev.run_task(|ctx| {
            ctx.pio_set(Vr::new(2), 100, 0xABCD)?;
            assert_eq!(ctx.pio_get(Vr::new(2), 100)?, 0xABCD);
            assert!(ctx.pio_get(Vr::new(2), usize::MAX).is_err());
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn lookup_gathers_from_l3_with_table_cost() {
        let mut dev = device();
        let table: Vec<u16> = (0..100).map(|i| 1000 + i as u16).collect();
        let src = dev.alloc_u16(100).unwrap();
        dev.copy_to_device(src, &table).unwrap();
        let report = dev
            .run_task(|ctx| {
                ctx.dma_l4_to_l3(0, src, 200)?;
                let n = ctx.core().vr_len();
                let idx = ctx.core_mut().vr_mut(Vr::new(1))?;
                for (i, v) in idx.iter_mut().enumerate() {
                    *v = (i % 100) as u16;
                }
                ctx.lookup(Vr::new(0), Vr::new(1), 0, 100)?;
                assert_eq!(ctx.core().vr(Vr::new(0))?[42], 1042);
                assert_eq!(
                    ctx.core().vr(Vr::new(0))?[n - 1],
                    1000 + ((n - 1) % 100) as u16
                );
                Ok(())
            })
            .unwrap();
        // lookup portion: 7.15*100 + 629 = 1344 (+2 issue)
        assert_eq!(report.stats.lookup_cycles, 1344 + 2);
    }

    #[test]
    fn lookup_rejects_out_of_table_index() {
        let mut dev = device();
        let r = dev.run_task(|ctx| {
            ctx.core_mut().vr_mut(Vr::new(1))?.fill(50);
            ctx.lookup(Vr::new(0), Vr::new(1), 0, 10)
        });
        assert!(r.is_err());
    }

    #[test]
    fn l2_bounds_are_enforced() {
        let mut dev = device();
        let src = dev.alloc(1 << 20).unwrap();
        let r = dev.run_task(|ctx| ctx.dma_l4_to_l2(65536 - 10, src, 100));
        assert!(matches!(
            r,
            Err(Error::ScratchOutOfBounds { level: "L2", .. })
        ));
    }

    #[test]
    fn load_store_cycle_cost() {
        let mut dev = device();
        let report = dev
            .run_task(|ctx| {
                ctx.load(Vr::new(0), Vmr::new(0))?;
                ctx.store(Vmr::new(1), Vr::new(0))
            })
            .unwrap();
        assert_eq!(report.cycles.get(), 2 * (29 + 2));
    }
}
