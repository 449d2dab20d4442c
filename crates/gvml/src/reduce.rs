//! Subgroup-based hierarchical reductions.
//!
//! Reductions aggregate elements *within* a vector register, which the
//! bit-processor array cannot do in one step: data must be moved across
//! columns with intra-VR shifts between element-wise adds. The device
//! therefore reduces a subgroup of `s` elements in `log₂ s` stages,
//! halving the span each time. Stage costs are *not* uniform — a shift by
//! a multiple of 4 elements stays inside a physical bank (cheap,
//! `8 + k/4` cycles), while the final 1- and 2-element moves go through
//! neighbour read-latch paths (microcoded, ~40 cycles per element) — so
//! the total grows non-linearly in `log₂ s`, with coefficients that drift
//! with the group size `r` because of per-stage group-boundary masking.
//! This emergent behaviour is what Eq. 1 of the paper models as a cubic
//! polynomial in `log₂ s` with `log₂ r`-dependent coefficients.
//!
//! [`sg_add_cycles`] exposes the exact cost the simulator charges, so the
//! analytical framework (`cis-model`) can fit Eq. 1 against it.

use apu_sim::{ApuCore, DeviceTiming, Error, Vr};

use crate::Result;

/// Cycles per element for the microcoded neighbour-path shift used by the
/// final (non-bank-aligned) reduction stages: 16 bit-slices × 2 micro-ops
/// plus command overhead.
const NEIGHBOUR_SHIFT_PER_ELEM: u64 = 40;

/// Fixed per-stage alignment/bookkeeping cost.
const STAGE_ALIGN_BASE: u64 = 15;

/// Additional per-stage masking cost per `log₂ r` (group-boundary masks
/// get deeper as groups grow).
const STAGE_ALIGN_PER_LOG_R: u64 = 3;

fn log2_exact(x: usize) -> Option<u32> {
    if x.is_power_of_two() {
        Some(x.trailing_zeros())
    } else {
        None
    }
}

/// The intra-VR shift cost for one reduction stage of span `m`.
fn stage_shift_cycles(t: &DeviceTiming, m: usize) -> u64 {
    if m.is_multiple_of(4) {
        t.shift_bank(m / 4).get()
    } else {
        NEIGHBOUR_SHIFT_PER_ELEM * m as u64
    }
}

/// Total cycles the simulator charges for `add_subgrp_s16` with subgroup
/// size `s` inside groups of size `r` (both powers of two, `s ≤ r`).
///
/// This is the ground truth that the analytical framework's Eq. 1
/// polynomial is fitted against.
pub fn sg_add_cycles(t: &DeviceTiming, r: usize, s: usize) -> u64 {
    if s <= 1 {
        // Degenerate subgroup: a plain element-wise copy.
        return t.cpy + t.cmd_issue;
    }
    let log_r = log2_exact(r).unwrap_or(0) as u64;
    let mut total = 0u64;
    let mut m = s / 2;
    while m >= 1 {
        total += stage_shift_cycles(t, m);
        total += t.add_s16 + t.cmd_issue;
        total += STAGE_ALIGN_BASE + STAGE_ALIGN_PER_LOG_R * log_r;
        if m == 1 {
            break;
        }
        m /= 2;
    }
    total
}

/// Total cycles for the max/min subgroup reductions (adds a compare and a
/// masked select per stage instead of an add).
pub fn sg_minmax_cycles(t: &DeviceTiming, r: usize, s: usize) -> u64 {
    if s <= 1 {
        return t.cpy + t.cmd_issue;
    }
    let log_r = log2_exact(r).unwrap_or(0) as u64;
    let mut total = 0u64;
    let mut m = s / 2;
    while m >= 1 {
        total += stage_shift_cycles(t, m);
        total += t.gt_u16 + t.cpy + 2 * t.cmd_issue;
        total += STAGE_ALIGN_BASE + STAGE_ALIGN_PER_LOG_R * log_r;
        if m == 1 {
            break;
        }
        m /= 2;
    }
    total
}

fn validate(n: usize, s: usize, r: usize) -> Result<()> {
    if log2_exact(s).is_none() || log2_exact(r).is_none() {
        return Err(Error::InvalidArg(format!(
            "subgroup {s} and group {r} must be powers of two"
        )));
    }
    if s > r || r > n || !n.is_multiple_of(r) {
        return Err(Error::InvalidArg(format!(
            "need subgroup {s} <= group {r} <= VR length {n} with group dividing length"
        )));
    }
    Ok(())
}

/// Hierarchical subgroup reductions.
pub trait ReduceOps {
    /// `add_subgrp_s16`: within each `grp_len`-element group, sums every
    /// aligned subgroup of `subgrp_len` elements (wrapping i16
    /// arithmetic). Each subgroup's sum lands at its head element; the
    /// remaining lanes are zeroed.
    ///
    /// Both sizes must be powers of two with
    /// `subgrp_len <= grp_len <= vr_len()`.
    ///
    /// # Errors
    ///
    /// Fails on invalid sizes or register indices.
    fn add_subgrp_s16(&mut self, dst: Vr, src: Vr, subgrp_len: usize, grp_len: usize)
        -> Result<()>;

    /// Maximum over each aligned subgroup (unsigned). The max lands at
    /// each subgroup's head; remaining lanes are zeroed. An optional
    /// `tag` register is permuted alongside the values, so the head of
    /// `tag` ends up holding the tag of the maximal element — the
    /// building block for arg-max / top-k.
    ///
    /// # Errors
    ///
    /// Fails on invalid sizes, register indices, or when `tag` aliases
    /// `dst`/`src`.
    fn max_subgrp_u16(
        &mut self,
        dst: Vr,
        src: Vr,
        subgrp_len: usize,
        grp_len: usize,
        tag: Option<(Vr, Vr)>,
    ) -> Result<()>;

    /// Minimum over each aligned subgroup (unsigned); same contract as
    /// [`ReduceOps::max_subgrp_u16`].
    ///
    /// # Errors
    ///
    /// Fails on invalid sizes, register indices, or when `tag` aliases
    /// `dst`/`src`.
    fn min_subgrp_u16(
        &mut self,
        dst: Vr,
        src: Vr,
        subgrp_len: usize,
        grp_len: usize,
        tag: Option<(Vr, Vr)>,
    ) -> Result<()>;
}

impl ReduceOps for ApuCore {
    fn add_subgrp_s16(
        &mut self,
        dst: Vr,
        src: Vr,
        subgrp_len: usize,
        grp_len: usize,
    ) -> Result<()> {
        validate(self.vr_len(), subgrp_len, grp_len)?;
        self.vr(dst)?;
        self.vr(src)?;
        let cost = sg_add_cycles(&self.config().timing, grp_len, subgrp_len);
        self.charge_cycles(
            apu_sim::core::CycleClass::Compute,
            apu_sim::Cycles::new(cost),
        );
        if !self.is_functional() {
            return Ok(());
        }
        fold_subgroups(self, dst, src, subgrp_len, |sg| {
            sg.iter().fold(0i16, |acc, &e| acc.wrapping_add(e as i16)) as u16
        })
    }

    fn max_subgrp_u16(
        &mut self,
        dst: Vr,
        src: Vr,
        subgrp_len: usize,
        grp_len: usize,
        tag: Option<(Vr, Vr)>,
    ) -> Result<()> {
        minmax(self, dst, src, subgrp_len, grp_len, tag, true)
    }

    fn min_subgrp_u16(
        &mut self,
        dst: Vr,
        src: Vr,
        subgrp_len: usize,
        grp_len: usize,
        tag: Option<(Vr, Vr)>,
    ) -> Result<()> {
        minmax(self, dst, src, subgrp_len, grp_len, tag, false)
    }
}

fn minmax(
    core: &mut ApuCore,
    dst: Vr,
    src: Vr,
    subgrp_len: usize,
    grp_len: usize,
    tag: Option<(Vr, Vr)>,
    want_max: bool,
) -> Result<()> {
    validate(core.vr_len(), subgrp_len, grp_len)?;
    core.vr(dst)?;
    core.vr(src)?;
    if let Some((tag_dst, tag_src)) = tag {
        core.vr(tag_dst)?;
        core.vr(tag_src)?;
        if tag_dst == dst || tag_dst == src || tag_src == dst {
            return Err(Error::InvalidArg(
                "tag registers must not alias the value registers".into(),
            ));
        }
    }
    let mut cost = sg_minmax_cycles(&core.config().timing, grp_len, subgrp_len);
    if tag.is_some() {
        // Tags ride along with one extra masked copy per stage.
        let stages = subgrp_len.trailing_zeros() as u64;
        cost += stages * (core.config().timing.cpy + core.config().timing.cmd_issue);
    }
    core.charge_cycles(
        apu_sim::core::CycleClass::Compute,
        apu_sim::Cycles::new(cost),
    );
    if !core.is_functional() {
        return Ok(());
    }
    let extremum = |sg: &[u16]| {
        if want_max {
            sg.iter().fold(0, |m, &v| m.max(v))
        } else {
            sg.iter().fold(u16::MAX, |m, &v| m.min(v))
        }
    };
    // The first lane holding the extremum wins ties, matching the staged
    // hardware fold which keeps the earlier lane on equality.
    let first_extremal = |sg: &[u16]| {
        let e = extremum(sg);
        sg.iter()
            .position(|&v| v == e)
            .expect("a subgroup holds its extremum")
    };
    // Tags first: the value pass may overwrite `src` in place, while
    // `tag_dst` never aliases `src` or `dst`.
    if let Some((tag_dst, tag_src)) = tag {
        if tag_dst == tag_src {
            let (t, s) = core.vr_pair_mut(tag_dst, src)?;
            for (tg, sg) in t
                .chunks_exact_mut(subgrp_len)
                .zip(s.chunks_exact(subgrp_len))
            {
                tg[0] = tg[first_extremal(sg)];
                tg[1..].fill(0);
            }
        } else {
            let (t, s, ts) = core.vr3_mut(tag_dst, src, tag_src)?;
            for ((tg, sg), tsg) in t
                .chunks_exact_mut(subgrp_len)
                .zip(s.chunks_exact(subgrp_len))
                .zip(ts.chunks_exact(subgrp_len))
            {
                tg.fill(0);
                tg[0] = tsg[first_extremal(sg)];
            }
        }
    }
    fold_subgroups(core, dst, src, subgrp_len, extremum)
}

/// Writes `head(subgroup)` of `src` at the head of each aligned
/// `subgrp_len`-element subgroup of `dst` and zeroes the other lanes;
/// `dst == src` reduces in place.
fn fold_subgroups(
    core: &mut ApuCore,
    dst: Vr,
    src: Vr,
    subgrp_len: usize,
    head: impl Fn(&[u16]) -> u16,
) -> Result<()> {
    if dst == src {
        for sg in core.vr_mut(dst)?.chunks_exact_mut(subgrp_len) {
            sg[0] = head(sg);
            sg[1..].fill(0);
        }
    } else {
        let (d, s) = core.vr_pair_mut(dst, src)?;
        for (dg, sg) in d
            .chunks_exact_mut(subgrp_len)
            .zip(s.chunks_exact(subgrp_len))
        {
            dg.fill(0);
            dg[0] = head(sg);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops_util::test_util::{fill, with_core};

    #[test]
    fn subgroup_sums_land_at_heads() {
        with_core(|core| {
            fill(core, Vr::new(0), |_| 1);
            core.add_subgrp_s16(Vr::new(1), Vr::new(0), 64, 1024)?;
            let v = core.vr(Vr::new(1))?;
            assert_eq!(v[0], 64);
            assert_eq!(v[1], 0);
            assert_eq!(v[64], 64);
            assert_eq!(v[63], 0);
            Ok(())
        });
    }

    #[test]
    fn signed_sums_wrap() {
        with_core(|core| {
            fill(
                core,
                Vr::new(0),
                |i| {
                    if i % 2 == 0 {
                        30000u16
                    } else {
                        10000
                    }
                },
            );
            core.add_subgrp_s16(Vr::new(1), Vr::new(0), 2, 2)?;
            // 30000 + 10000 = 40000 wraps to -25536 in i16
            assert_eq!(core.vr(Vr::new(1))?[0] as i16, (40000u32 as u16) as i16);
            Ok(())
        });
    }

    #[test]
    fn in_place_reduction_allowed() {
        with_core(|core| {
            fill(core, Vr::new(0), |i| (i % 4) as u16);
            core.add_subgrp_s16(Vr::new(0), Vr::new(0), 4, 4)?;
            assert_eq!(core.vr(Vr::new(0))?[0], 6);
            assert_eq!(core.vr(Vr::new(0))?[1], 0);
            Ok(())
        });
    }

    #[test]
    fn validation_rejects_bad_sizes() {
        with_core(|core| {
            assert!(core.add_subgrp_s16(Vr::new(1), Vr::new(0), 3, 8).is_err());
            assert!(core.add_subgrp_s16(Vr::new(1), Vr::new(0), 16, 8).is_err());
            assert!(core
                .add_subgrp_s16(Vr::new(1), Vr::new(0), 8, core.vr_len() * 2)
                .is_err());
            Ok(())
        });
    }

    #[test]
    fn cost_grows_with_subgroup_size() {
        let t = apu_sim::DeviceTiming::leda_e();
        let c16 = sg_add_cycles(&t, 1024, 16);
        let c256 = sg_add_cycles(&t, 1024, 256);
        let c1024 = sg_add_cycles(&t, 1024, 1024);
        assert!(c16 < c256 && c256 < c1024);
        // and mildly with group size at fixed subgroup size
        assert!(sg_add_cycles(&t, 4096, 64) > sg_add_cycles(&t, 64, 64));
    }

    #[test]
    fn reduction_is_much_slower_than_elementwise() {
        // The paper: intra-VR group ops are about 10x slower than
        // inter-VR ops.
        let t = apu_sim::DeviceTiming::leda_e();
        let reduction = sg_add_cycles(&t, 1024, 1024);
        assert!(reduction > 10 * t.add_s16);
    }

    #[test]
    fn charged_cycles_match_cost_function() {
        let (charged, expected) = with_core(|core| {
            let expected = sg_add_cycles(&core.config().timing, 512, 128);
            let t0 = core.cycles();
            core.add_subgrp_s16(Vr::new(1), Vr::new(0), 128, 512)?;
            Ok(((core.cycles() - t0).get(), expected))
        });
        assert_eq!(charged, expected);
    }

    #[test]
    fn max_subgroup_with_tags_finds_argmax() {
        with_core(|core| {
            let n = core.vr_len();
            fill(core, Vr::new(0), |i| ((i * 37) % 251) as u16);
            // tag register: global index
            fill(core, Vr::new(1), |i| i as u16);
            core.max_subgrp_u16(
                Vr::new(2),
                Vr::new(0),
                64,
                64,
                Some((Vr::new(3), Vr::new(1))),
            )?;
            let vals = core.vr(Vr::new(0))?.to_vec();
            let maxes = core.vr(Vr::new(2))?.to_vec();
            let tags = core.vr(Vr::new(3))?.to_vec();
            for head in (0..n.min(4096)).step_by(64) {
                let slice = &vals[head..head + 64];
                let m = *slice.iter().max().unwrap();
                assert_eq!(maxes[head], m);
                let argmax = tags[head] as usize;
                assert_eq!(vals[argmax], m);
            }
            Ok(())
        });
    }

    #[test]
    fn min_subgroup() {
        with_core(|core| {
            fill(core, Vr::new(0), |i| 100 + (i % 32) as u16);
            core.min_subgrp_u16(Vr::new(1), Vr::new(0), 32, 32, None)?;
            assert_eq!(core.vr(Vr::new(1))?[0], 100);
            assert_eq!(core.vr(Vr::new(1))?[32], 100);
            Ok(())
        });
    }

    #[test]
    fn min_max_tag_the_first_extremal_lane_in_place_or_not() {
        // Many ties, so the first-occurrence rule decides most tags.
        let vals = |i: usize| ((i * 37) % 13) as u16;
        let tags = |i: usize| (i % 4096) as u16 + 1;
        with_core(|core| {
            let n = core.vr_len();
            for want_max in [true, false] {
                let mut heads = vec![0u16; n];
                let mut head_tags = vec![0u16; n];
                for h in (0..n).step_by(16) {
                    let sg: Vec<u16> = (h..h + 16).map(vals).collect();
                    let e = if want_max {
                        sg.iter().max()
                    } else {
                        sg.iter().min()
                    };
                    let first = sg.iter().position(|v| Some(v) == e).unwrap();
                    heads[h] = sg[first];
                    head_tags[h] = tags(h + first);
                }
                let reduce = |core: &mut ApuCore, dst, src, tag| {
                    if want_max {
                        core.max_subgrp_u16(dst, src, 16, 64, tag)
                    } else {
                        core.min_subgrp_u16(dst, src, 16, 64, tag)
                    }
                };
                let (v0, v1, v2, v3) = (Vr::new(0), Vr::new(1), Vr::new(2), Vr::new(3));
                fill(core, v0, vals);
                fill(core, v1, tags);
                reduce(core, v2, v0, Some((v3, v1)))?;
                assert_eq!(core.vr(v2)?, &heads[..]);
                assert_eq!(core.vr(v3)?, &head_tags[..]);
                reduce(core, v0, v0, Some((v1, v1)))?;
                assert_eq!(core.vr(v0)?, &heads[..]);
                assert_eq!(core.vr(v1)?, &head_tags[..]);
                // Tagging by the values themselves tags each head with
                // its own extremum.
                fill(core, v0, vals);
                reduce(core, v2, v0, Some((v3, v0)))?;
                assert_eq!(core.vr(v3)?, &heads[..]);
            }
            Ok(())
        });
    }

    #[test]
    fn tag_aliasing_rejected() {
        with_core(|core| {
            assert!(core
                .max_subgrp_u16(Vr::new(2), Vr::new(0), 4, 4, Some((Vr::new(2), Vr::new(1))))
                .is_err());
            Ok(())
        });
    }
}
