//! Asynchronous DMA: overlapping data movement with computation.
//!
//! Each APU core has **two parallel DMA engines** (paper §2.1.2,
//! Fig. 3b). The blocking transfers in [`crate::dma`] model the simple
//! `direct_dma_*` calls of the vendor API; this module adds the
//! double-buffering pattern real device code uses to hide transfer
//! latency: issue a transfer on a free engine, compute on the previous
//! buffer, then wait.
//!
//! Semantics: issuing charges only the descriptor-setup overhead on the
//! control processor and books the transfer on the earliest-free engine;
//! [`ApuContext::dma_wait`] advances the CP clock to the transfer's
//! completion (a no-op if compute already covered it). In functional
//! mode the source data is *captured* at issue but the destination is
//! only written when the transfer is waited on (or displaced by a later
//! transfer on the same engine, or at the task-end barrier) — so a
//! kernel that reads the destination before waiting sees **stale data**,
//! matching the read-before-wait hazard of the real device. Every issue
//! returns a [`DmaTicket`] the caller must consume.

use serde::{Deserialize, Serialize};

use crate::clock::Cycles;
use crate::core::CycleClass;
use crate::core::{ApuCore, Vmr};
use crate::device::ApuContext;
use crate::mem::{Dram, MemHandle};
use crate::trace::{TraceEvent, TraceEventKind};
use crate::Result;

/// A functional-mode copy whose destination write is deferred until the
/// transfer is waited on.
#[derive(Debug)]
pub(crate) enum PendingDmaCopy {
    /// L4 → L1: bytes captured from L4 at issue, landing in a VMR.
    L4ToL1 {
        /// Destination vector-memory register (validated at issue).
        dst: Vmr,
        /// Element values captured from the source at issue time.
        data: Vec<u16>,
    },
    /// L1 → L4: bytes captured from the VMR at issue, landing in L4.
    L1ToL4 {
        /// Destination handle, already truncated to the transfer size and
        /// validated at issue.
        dst: MemHandle,
        /// Byte image captured from the source at issue time.
        data: Vec<u8>,
    },
}

/// A deferred copy plus the cycle its transfer completes, stashed on the
/// engine slot that carries it.
#[derive(Debug)]
pub(crate) struct PendingDma {
    pub(crate) completes_at: Cycles,
    pub(crate) copy: PendingDmaCopy,
}

fn apply_copy(core: &mut ApuCore, l4: &mut Dram, copy: PendingDmaCopy) {
    match copy {
        PendingDmaCopy::L4ToL1 { dst, data } => core
            .vmr_mut(dst)
            .expect("destination VMR validated at issue")
            .copy_from_slice(&data),
        PendingDmaCopy::L1ToL4 { dst, data } => l4
            .write(dst, &data)
            .expect("destination handle validated at issue"),
    }
}

/// Applies any still-pending functional copies on both engines. The task
/// boundary is a full barrier, so [`crate::ApuDevice`] calls this when a
/// kernel returns. Data only — no cycles are charged.
pub(crate) fn flush_pending(core: &mut ApuCore, l4: &mut Dram) {
    for engine in 0..2 {
        if let Some(p) = core.take_pending_dma_any(engine) {
            apply_copy(core, l4, p.copy);
        }
    }
}

/// Handle to an in-flight asynchronous DMA transfer.
///
/// Returned by the `*_async` transfer methods; consume it with
/// [`ApuContext::dma_wait`] before using the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[must_use = "wait on the ticket before using the transfer's destination"]
pub struct DmaTicket {
    /// Engine the transfer was booked on (0 or 1).
    pub engine: usize,
    /// Absolute core cycle at which the data is complete.
    pub completes_at: Cycles,
}

impl ApuContext<'_> {
    /// Books `cost` cycles of transfer time on the earliest-free DMA
    /// engine, charging only the setup overhead on the CP.
    fn schedule_dma(&mut self, cost: Cycles, bytes: u64) -> DmaTicket {
        let setup = Cycles::new(self.timing().dma_setup_extra);
        self.core_mut().charge_cycles(CycleClass::Issue, setup);
        let now = self.core().cycles();
        let (engine, free_at) = self.core().earliest_dma_engine();
        let start = now.max(free_at);
        let completes_at = start + cost;
        self.core_mut().book_dma_engine(engine, completes_at);
        // Engine busy time is DMA time even though the CP keeps running.
        self.core_mut().note_dma_busy(cost);
        if let Some(t) = self.trace.as_ref() {
            t.record(TraceEvent {
                ts: now,
                kind: TraceEventKind::DmaIssued {
                    core: self.core.id(),
                    engine,
                    start,
                    completes_at,
                    bytes,
                },
            });
        }
        DmaTicket {
            engine,
            completes_at,
        }
    }

    /// Emits a [`TraceEventKind::DmaWaited`] marker for a wait that
    /// stalled the CP by `stall` cycles (after the stall was charged).
    fn trace_dma_wait(&self, engine: usize, stall: Cycles) {
        if let Some(t) = self.trace.as_ref() {
            t.record(TraceEvent {
                ts: self.core.cycles(),
                kind: TraceEventKind::DmaWaited {
                    core: self.core.id(),
                    engine,
                    stall,
                },
            });
        }
    }

    /// Asynchronous full-vector L4→L1 DMA (see
    /// [`ApuContext::dma_l4_to_l1`] for the blocking semantics).
    ///
    /// # Errors
    ///
    /// Fails like the blocking variant (bad handle / VMR).
    pub fn dma_l4_to_l1_async(&mut self, dst: Vmr, src: MemHandle) -> Result<DmaTicket> {
        let bytes = self.core().config().vr_bytes();
        let cost = Cycles::from_f64(self.timing().dma_l4_l1 as f64 * self.core().l4_contention());
        // Capture the source now; the destination write is deferred to the
        // wait so read-before-wait races surface as stale data.
        let copy = if self.core().is_functional() {
            let data = self.l4().slice(src, bytes)?.to_vec();
            let vals: Vec<u16> = data
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            self.core().vmr(dst)?;
            Some(PendingDmaCopy::L4ToL1 { dst, data: vals })
        } else {
            self.core().vmr(dst)?;
            if src.len() < bytes {
                return Err(crate::Error::SizeMismatch {
                    got: src.len(),
                    expected: bytes,
                });
            }
            None
        };
        self.stats_dma_transaction(bytes as u64);
        let ticket = self.schedule_dma(cost, bytes as u64);
        if let Some(copy) = copy {
            self.stash_pending(ticket, copy);
        }
        Ok(ticket)
    }

    /// Asynchronous full-vector L1→L4 DMA.
    ///
    /// # Errors
    ///
    /// Fails like the blocking variant.
    pub fn dma_l1_to_l4_async(&mut self, dst: MemHandle, src: Vmr) -> Result<DmaTicket> {
        let bytes = self.core().config().vr_bytes();
        let cost = Cycles::from_f64(self.timing().dma_l1_l4 as f64 * self.core().l4_contention());
        let copy = if self.core().is_functional() {
            let data: Vec<u8> = self
                .core()
                .vmr(src)?
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let dst = dst.truncated(bytes)?;
            // Validate the destination range now; the write happens at
            // wait time.
            self.l4().slice(dst, bytes)?;
            Some(PendingDmaCopy::L1ToL4 { dst, data })
        } else {
            self.core().vmr(src)?;
            if dst.len() < bytes {
                return Err(crate::Error::SizeMismatch {
                    got: dst.len(),
                    expected: bytes,
                });
            }
            None
        };
        self.stats_dma_transaction(bytes as u64);
        let ticket = self.schedule_dma(cost, bytes as u64);
        if let Some(copy) = copy {
            self.stash_pending(ticket, copy);
        }
        Ok(ticket)
    }

    /// Stashes a deferred copy on its engine slot. A displaced copy
    /// belongs to an earlier transfer on the same (serializing) engine,
    /// so its data has already landed by the time the new transfer runs —
    /// apply it immediately.
    fn stash_pending(&mut self, ticket: DmaTicket, copy: PendingDmaCopy) {
        let pending = PendingDma {
            completes_at: ticket.completes_at,
            copy,
        };
        if let Some(prev) = self.core_mut().stash_pending_dma(ticket.engine, pending) {
            self.apply_pending(prev);
        }
    }

    fn apply_pending(&mut self, pending: PendingDma) {
        apply_copy(self.core, self.l4, pending.copy);
    }

    /// Blocks the control processor until the transfer completes.
    /// Returns the stall cycles actually spent waiting (zero when the
    /// compute stream already covered the transfer).
    pub fn dma_wait(&mut self, ticket: DmaTicket) -> Cycles {
        // The engine serializes, so waiting on this ticket also completes
        // any copy still pending from it or an earlier transfer on the
        // same engine (a *newer* transfer's copy stays pending).
        if let Some(p) = self
            .core_mut()
            .take_pending_dma(ticket.engine, ticket.completes_at)
        {
            self.apply_pending(p);
        }
        let now = self.core().cycles();
        let stall = ticket.completes_at.saturating_sub(now);
        if stall > Cycles::ZERO {
            self.core_mut().charge_cycles(CycleClass::Dma, stall);
        }
        self.trace_dma_wait(ticket.engine, stall);
        stall
    }

    /// Blocks until both DMA engines are idle.
    pub fn dma_wait_all(&mut self) -> Cycles {
        for engine in 0..2 {
            if let Some(p) = self.core_mut().take_pending_dma_any(engine) {
                self.apply_pending(p);
            }
        }
        let busy = self.core().dma_engines_busy_until();
        let latest = busy[0].max(busy[1]);
        let now = self.core().cycles();
        let stall = latest.saturating_sub(now);
        if stall > Cycles::ZERO {
            self.core_mut().charge_cycles(CycleClass::Dma, stall);
        }
        for (engine, &engine_busy) in busy.iter().enumerate() {
            self.trace_dma_wait(engine, engine_busy.saturating_sub(now));
        }
        stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::device::ApuDevice;
    use crate::timing::VecOp;

    fn device() -> ApuDevice {
        ApuDevice::new(SimConfig::default().with_l4_bytes(16 << 20))
    }

    #[test]
    fn overlap_hides_transfer_behind_compute() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let h = dev.alloc_u16(4 * n).unwrap();

        // Blocking: DMA then compute, serialized.
        let blocking = dev
            .run_task(|ctx| {
                for i in 0..4 {
                    ctx.dma_l4_to_l1(Vmr::new(0), h.offset_by(i * n * 2)?)?;
                    for _ in 0..30 {
                        ctx.core_mut().charge(VecOp::MulS16); // ~6k cycles of compute
                    }
                }
                Ok(())
            })
            .unwrap();

        // Double-buffered: next tile's DMA overlaps this tile's compute.
        let mut dev2 = device();
        let h2 = dev2.alloc_u16(4 * n).unwrap();
        let overlapped = dev2
            .run_task(|ctx| {
                let mut pending = ctx.dma_l4_to_l1_async(Vmr::new(0), h2)?;
                for i in 0..4 {
                    ctx.dma_wait(pending);
                    if i + 1 < 4 {
                        pending = ctx.dma_l4_to_l1_async(
                            Vmr::new((i as u8 + 1) % 2),
                            h2.offset_by((i + 1) * n * 2)?,
                        )?;
                    }
                    for _ in 0..30 {
                        ctx.core_mut().charge(VecOp::MulS16);
                    }
                }
                ctx.dma_wait_all();
                Ok(())
            })
            .unwrap();
        assert!(
            overlapped.cycles.get() < blocking.cycles.get(),
            "overlap {} !< blocking {}",
            overlapped.cycles,
            blocking.cycles
        );
        // Compute (4 × ~6k) partially hides the four 22k-cycle transfers:
        // the saving should be most of the compute time.
        let saved = blocking.cycles.get() - overlapped.cycles.get();
        assert!(saved > 3 * 6000, "saved only {saved}");
    }

    #[test]
    fn wait_is_free_when_compute_covers_the_transfer() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let h = dev.alloc_u16(n).unwrap();
        dev.run_task(|ctx| {
            let t = ctx.dma_l4_to_l1_async(Vmr::new(0), h)?;
            // 23k+ cycles of compute, longer than the 22.3k transfer
            for _ in 0..120 {
                ctx.core_mut().charge(VecOp::MulS16);
            }
            let stall = ctx.dma_wait(t);
            assert_eq!(stall, crate::Cycles::ZERO);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn two_engines_three_transfers_serialize_the_third() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let h = dev.alloc_u16(3 * n).unwrap();
        dev.run_task(|ctx| {
            let a = ctx.dma_l4_to_l1_async(Vmr::new(0), h)?;
            let b = ctx.dma_l4_to_l1_async(Vmr::new(1), h.offset_by(n * 2)?)?;
            let c = ctx.dma_l4_to_l1_async(Vmr::new(2), h.offset_by(2 * n * 2)?)?;
            assert_ne!(a.engine, b.engine);
            // third transfer queues behind the first
            assert_eq!(c.engine, a.engine);
            assert!(c.completes_at > b.completes_at);
            ctx.dma_wait_all();
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn read_before_wait_sees_stale_data() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let h = dev.alloc_u16(n).unwrap();
        dev.copy_to_device(h, &vec![0x1234u16; n]).unwrap();
        dev.run_task(|ctx| {
            let t = ctx.dma_l4_to_l1_async(Vmr::new(3), h)?;
            // Reading the destination before the wait is a hazard on the
            // real device; the simulator surfaces it as stale data.
            assert_eq!(ctx.core().vmr(Vmr::new(3))?[0], 0);
            ctx.dma_wait(t);
            assert_eq!(ctx.core().vmr(Vmr::new(3))?[0], 0x1234);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn unwaited_transfer_lands_at_task_end() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let h = dev.alloc_u16(n).unwrap();
        dev.run_task(|ctx| {
            ctx.core_mut().vmr_mut(Vmr::new(0))?.fill(7);
            let _unwaited = ctx.dma_l1_to_l4_async(h, Vmr::new(0))?;
            Ok(())
        })
        .unwrap();
        // The kernel never waited, but the task boundary is a barrier:
        // the host still observes the transferred data.
        let mut out = vec![0u16; n];
        dev.copy_from_device(h, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 7));
    }

    #[test]
    fn displaced_engine_slot_applies_the_older_copy() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let h = dev.alloc_u16(3 * n).unwrap();
        let mut img = vec![1u16; n];
        img.extend(vec![2u16; n]);
        img.extend(vec![3u16; n]);
        dev.copy_to_device(h, &img).unwrap();
        dev.run_task(|ctx| {
            let a = ctx.dma_l4_to_l1_async(Vmr::new(0), h)?;
            let b = ctx.dma_l4_to_l1_async(Vmr::new(1), h.offset_by(n * 2)?)?;
            // Third transfer reuses engine 0: transfer `a`'s copy is
            // displaced from the slot and must land despite never being
            // waited on directly.
            let c = ctx.dma_l4_to_l1_async(Vmr::new(2), h.offset_by(2 * n * 2)?)?;
            assert_eq!(c.engine, a.engine);
            assert_eq!(ctx.core().vmr(Vmr::new(0))?[0], 1);
            // `b` and `c` are still in flight.
            assert_eq!(ctx.core().vmr(Vmr::new(1))?[0], 0);
            assert_eq!(ctx.core().vmr(Vmr::new(2))?[0], 0);
            // Waiting on `b` must not apply `c`'s (newer) copy on engine 0.
            ctx.dma_wait(b);
            assert_eq!(ctx.core().vmr(Vmr::new(1))?[0], 2);
            assert_eq!(ctx.core().vmr(Vmr::new(2))?[0], 0);
            ctx.dma_wait_all();
            assert_eq!(ctx.core().vmr(Vmr::new(2))?[0], 3);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn async_moves_real_data() {
        let mut dev = device();
        let n = dev.config().vr_len;
        let h = dev.alloc_u16(n).unwrap();
        dev.copy_to_device(h, &vec![0xABCDu16; n]).unwrap();
        dev.run_task(|ctx| {
            let t = ctx.dma_l4_to_l1_async(Vmr::new(5), h)?;
            ctx.dma_wait(t);
            assert_eq!(ctx.core().vmr(Vmr::new(5))?[123], 0xABCD);
            // and back out
            let t = ctx.dma_l1_to_l4_async(h, Vmr::new(5))?;
            ctx.dma_wait(t);
            Ok(())
        })
        .unwrap();
    }
}
