//! Comparison operations and marker-register manipulation.
//!
//! Comparisons write boolean *marks* into a marker register; marked
//! entries can then be counted (`count_m`), used to mask copies, or
//! serially extracted through the RSP FIFO. This mirrors GVML's
//! mark-based programming style (`gvml_eq_16`, `gvml_cnt_m`,
//! `gvml_cpy_16_msk`, ...).

use apu_sim::{ApuCore, Marker, VecOp, Vr};

use crate::float::gf16_to_f32;
use crate::Result;

/// Comparison and marker operations.
pub trait CmpOps {
    /// `eq_16`: mark elements where `a == b`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range register indices.
    fn eq_16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()>;

    /// Mark elements equal to an immediate.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range register indices.
    fn eq_imm_16(&mut self, mrk: Marker, a: Vr, imm: u16) -> Result<()>;

    /// `gt_u16`: mark elements where `a > b` (unsigned).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range register indices.
    fn gt_u16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()>;

    /// `lt_u16`: mark elements where `a < b` (unsigned).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range register indices.
    fn lt_u16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()>;

    /// `ge_u16`: mark elements where `a >= b` (unsigned).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range register indices.
    fn ge_u16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()>;

    /// `le_u16`: mark elements where `a <= b` (unsigned).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range register indices.
    fn le_u16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()>;

    /// Signed `a < b` comparison (GVML `lt_s16`; charged like `lt_u16`).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range register indices.
    fn lt_s16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()>;

    /// `lt_gf16`: mark elements where `a < b` in GSI float16 ordering.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range register indices.
    fn lt_gf16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()>;

    /// `count_m`: number of marked entries (239 cycles).
    ///
    /// Returns 0 in timing-only mode.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range marker index.
    fn count_m(&mut self, mrk: Marker) -> Result<u32>;

    /// Inverts every mark.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range marker index.
    fn not_m(&mut self, mrk: Marker) -> Result<()>;

    /// ANDs marker `b` into marker `a`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range marker indices.
    fn and_m(&mut self, a: Marker, b: Marker) -> Result<()>;

    /// `cpy_16_msk`: copies `src` into `dst` only at marked positions.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range indices or aliased `dst`/`src`.
    fn cpy_16_msk(&mut self, dst: Vr, src: Vr, mrk: Marker) -> Result<()>;

    /// Broadcasts an immediate into `dst` only at marked positions
    /// (`cpy_imm_16_msk`).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range indices.
    fn cpy_imm_16_msk(&mut self, dst: Vr, imm: u16, mrk: Marker) -> Result<()>;

    /// Serially extracts the values of marked entries (paired with their
    /// element indices) through the RSP FIFO — the expensive intra-VR
    /// gather Phoenix-style workloads must pay for scattered results.
    /// Costs one `count_m` plus one PIO store per marked element.
    ///
    /// Returns an empty vector in timing-only mode (the count is still
    /// charged as if `expected_marked` entries were extracted; pass the
    /// workload's expectation so timing matches functional mode).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range indices.
    fn extract_marked(
        &mut self,
        src: Vr,
        mrk: Marker,
        expected_marked: usize,
    ) -> Result<Vec<(usize, u16)>>;
}

fn compare<F>(core: &mut ApuCore, mrk: Marker, a: Vr, b: Vr, f: F) -> Result<()>
where
    F: Fn(u16, u16) -> bool,
{
    core.marker(mrk)?;
    core.vr(a)?;
    core.vr(b)?;
    if !core.is_functional() {
        return Ok(());
    }
    let (m, x, y) = core.marker_with_vrs(mrk, a, b)?;
    for ((o, &xv), &yv) in m.iter_mut().zip(x.iter()).zip(y.iter()) {
        *o = f(xv, yv);
    }
    Ok(())
}

impl CmpOps for ApuCore {
    fn eq_16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()> {
        self.charge(VecOp::Eq16);
        compare(self, mrk, a, b, |x, y| x == y)
    }

    fn eq_imm_16(&mut self, mrk: Marker, a: Vr, imm: u16) -> Result<()> {
        self.charge(VecOp::Eq16);
        self.marker(mrk)?;
        self.vr(a)?;
        if !self.is_functional() {
            return Ok(());
        }
        let (m, x, _) = self.marker_with_vrs(mrk, a, a)?;
        for (o, &xv) in m.iter_mut().zip(x.iter()) {
            *o = xv == imm;
        }
        Ok(())
    }

    fn gt_u16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()> {
        self.charge(VecOp::GtU16);
        compare(self, mrk, a, b, |x, y| x > y)
    }

    fn lt_u16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()> {
        self.charge(VecOp::LtU16);
        compare(self, mrk, a, b, |x, y| x < y)
    }

    fn ge_u16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()> {
        self.charge(VecOp::GeU16);
        compare(self, mrk, a, b, |x, y| x >= y)
    }

    fn le_u16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()> {
        self.charge(VecOp::LeU16);
        compare(self, mrk, a, b, |x, y| x <= y)
    }

    fn lt_s16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()> {
        self.charge(VecOp::LtU16);
        compare(self, mrk, a, b, |x, y| (x as i16) < (y as i16))
    }

    fn lt_gf16(&mut self, mrk: Marker, a: Vr, b: Vr) -> Result<()> {
        self.charge(VecOp::LtGf16);
        compare(self, mrk, a, b, |x, y| gf16_to_f32(x) < gf16_to_f32(y))
    }

    fn count_m(&mut self, mrk: Marker) -> Result<u32> {
        self.charge(VecOp::CountM);
        self.marker(mrk)?;
        if !self.is_functional() {
            return Ok(0);
        }
        Ok(self.marker(mrk)?.iter().filter(|&&m| m).count() as u32)
    }

    fn not_m(&mut self, mrk: Marker) -> Result<()> {
        self.charge(VecOp::Not16);
        if !self.is_functional() {
            self.marker(mrk)?;
            return Ok(());
        }
        for m in self.marker_mut(mrk)?.iter_mut() {
            *m = !*m;
        }
        Ok(())
    }

    fn and_m(&mut self, a: Marker, b: Marker) -> Result<()> {
        self.charge(VecOp::And16);
        self.marker(a)?;
        self.marker(b)?;
        if !self.is_functional() {
            return Ok(());
        }
        if a == b {
            return Ok(());
        }
        let other = self.marker(b)?.to_vec();
        for (m, o) in self.marker_mut(a)?.iter_mut().zip(other) {
            *m &= o;
        }
        Ok(())
    }

    fn cpy_16_msk(&mut self, dst: Vr, src: Vr, mrk: Marker) -> Result<()> {
        self.charge(VecOp::Cpy);
        self.vr(dst)?;
        self.vr(src)?;
        self.marker(mrk)?;
        if !self.is_functional() {
            return Ok(());
        }
        let (d, s, marks) = self.masked_vr_pair_mut(dst, src, mrk)?;
        for ((o, &v), &mk) in d.iter_mut().zip(s.iter()).zip(marks.iter()) {
            if mk {
                *o = v;
            }
        }
        Ok(())
    }

    fn cpy_imm_16_msk(&mut self, dst: Vr, imm: u16, mrk: Marker) -> Result<()> {
        self.charge(VecOp::CpyImm);
        self.vr(dst)?;
        self.marker(mrk)?;
        if !self.is_functional() {
            return Ok(());
        }
        let (d, marks) = self.masked_vr_mut(dst, mrk)?;
        for (o, &mk) in d.iter_mut().zip(marks.iter()) {
            if mk {
                *o = imm;
            }
        }
        Ok(())
    }

    fn extract_marked(
        &mut self,
        src: Vr,
        mrk: Marker,
        expected_marked: usize,
    ) -> Result<Vec<(usize, u16)>> {
        self.vr(src)?;
        self.marker(mrk)?;
        let n = if self.is_functional() {
            self.marker(mrk)?.iter().filter(|&&m| m).count()
        } else {
            expected_marked
        };
        self.charge(VecOp::CountM);
        let fifo_cost = apu_sim::Cycles::new(self.config().timing.pio_st_per_elem * n as u64);
        self.charge_cycles(apu_sim::core::CycleClass::Pio, fifo_cost);
        self.note_pio_transfer(n as u64);
        if !self.is_functional() {
            return Ok(Vec::new());
        }
        let marks = self.marker(mrk)?.to_vec();
        let vals = self.vr(src)?;
        Ok(marks
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| (i, vals[i]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops_util::test_util::{fill, with_core};

    #[test]
    fn comparisons_set_marks() {
        with_core(|core| {
            fill(core, Vr::new(0), |i| i as u16 % 10);
            fill(core, Vr::new(1), |_| 5);
            core.lt_u16(Marker::new(0), Vr::new(0), Vr::new(1))?;
            let m = core.marker(Marker::new(0))?;
            assert!(m[4] && !m[5] && !m[7]);
            core.ge_u16(Marker::new(1), Vr::new(0), Vr::new(1))?;
            assert!(core.marker(Marker::new(1))?[5]);
            core.eq_16(Marker::new(2), Vr::new(0), Vr::new(1))?;
            assert!(core.marker(Marker::new(2))?[5]);
            assert!(!core.marker(Marker::new(2))?[6]);
            Ok(())
        });
    }

    #[test]
    fn signed_compare_differs_from_unsigned() {
        with_core(|core| {
            fill(core, Vr::new(0), |_| (-1i16) as u16);
            fill(core, Vr::new(1), |_| 1);
            core.lt_u16(Marker::new(0), Vr::new(0), Vr::new(1))?;
            assert!(!core.marker(Marker::new(0))?[0]); // 0xFFFF > 1 unsigned
            core.lt_s16(Marker::new(0), Vr::new(0), Vr::new(1))?;
            assert!(core.marker(Marker::new(0))?[0]); // -1 < 1 signed
            Ok(())
        });
    }

    #[test]
    fn gf16_compare_orders_by_value() {
        use crate::float::gf16_from_f32;
        with_core(|core| {
            fill(core, Vr::new(0), |_| gf16_from_f32(2.0));
            fill(core, Vr::new(1), |_| gf16_from_f32(1000.0));
            core.lt_gf16(Marker::new(0), Vr::new(0), Vr::new(1))?;
            assert!(core.marker(Marker::new(0))?[0]);
            Ok(())
        });
    }

    #[test]
    fn count_and_logic_on_marks() {
        with_core(|core| {
            let n = core.vr_len();
            fill(core, Vr::new(0), |i| (i % 4) as u16);
            core.eq_imm_16(Marker::new(0), Vr::new(0), 1)?;
            assert_eq!(core.count_m(Marker::new(0))?, n as u32 / 4);
            core.not_m(Marker::new(0))?;
            assert_eq!(core.count_m(Marker::new(0))?, 3 * n as u32 / 4);
            core.eq_imm_16(Marker::new(1), Vr::new(0), 2)?;
            core.and_m(Marker::new(0), Marker::new(1))?;
            assert_eq!(core.count_m(Marker::new(0))?, n as u32 / 4);
            Ok(())
        });
    }

    #[test]
    fn masked_copies() {
        with_core(|core| {
            fill(core, Vr::new(0), |i| i as u16);
            fill(core, Vr::new(1), |_| 999);
            core.eq_imm_16(Marker::new(0), Vr::new(0), 3)?;
            core.cpy_16_msk(Vr::new(1), Vr::new(0), Marker::new(0))?;
            assert_eq!(core.vr(Vr::new(1))?[3], 3);
            assert_eq!(core.vr(Vr::new(1))?[4], 999);
            core.cpy_imm_16_msk(Vr::new(1), 0, Marker::new(0))?;
            assert_eq!(core.vr(Vr::new(1))?[3], 0);
            Ok(())
        });
    }

    #[test]
    fn extract_marked_returns_pairs_and_charges_per_element() {
        let ((pairs, delta), n) = with_core(|core| {
            let n = core.vr_len();
            fill(core, Vr::new(0), |i| i as u16);
            core.eq_imm_16(Marker::new(0), Vr::new(0), 7)?;
            // indices 7, 65543 % 65536 == 7... with vr_len 32768 only i=7
            let t0 = core.cycles();
            let pairs = core.extract_marked(Vr::new(0), Marker::new(0), 0)?;
            let delta = (core.cycles() - t0).get();
            Ok(((pairs, delta), n))
        });
        assert_eq!(pairs, vec![(7, 7)]);
        assert_eq!(delta, 239 + 2 + 61);
        assert!(n > 7);
    }
}
