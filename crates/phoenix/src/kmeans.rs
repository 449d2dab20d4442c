//! Phoenix **Kmeans**: Lloyd's algorithm over low-dimensional integer
//! points.
//!
//! Optimization mapping (kmeans is the paper's showcase for opt1 + opt3):
//!
//! * **opt1** (reduction mapping): the naive port lays each point's `k`
//!   candidate distances *spatially* across the VR (one lane per
//!   (point, cluster) pair, only `l/k` points per pass), expands point
//!   coordinates with L3 lookups, arg-mins each group with an intra-VR
//!   subgroup reduction, and extracts the scattered assignments one PIO
//!   element at a time. The temporal mapping keeps one point per lane,
//!   iterates clusters over time with element-wise compare/select, and
//!   writes contiguous assignments back with DMA.
//! * **opt2** (coalesced DMA): the `d` per-dimension tile streams arrive
//!   in one programmed transaction instead of `d`.
//! * **opt3** (broadcast layout): centroid scalars are broadcast by L3
//!   lookup; storing centroids dimension-major shrinks the contiguous
//!   lookup window from `k·d` to `k` entries (Fig. 11's transformation).
//!
//! Centroid updates run on-device as masked subgroup sums whose 64
//! partial heads return through the RSP FIFO; the control processor
//! accumulates in 64-bit and computes the new centroids (Phoenix's
//! reduce step).

use apu_sim::{ApuDevice, Error, TaskReport, Vmr, Vr};
use gvml::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{map_reduce, parallel_tiles, OptConfig};
use crate::Result;

/// Maximum coordinate value (6-bit coordinates).
pub const COORD_MAX: u16 = 63;
/// Subgroup size for the masked coordinate sums: 63 × 512 < i16::MAX.
const SG_SUM: usize = 512;

/// A k-means problem instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmeansInput {
    /// Point coordinates, dimension-major: `coords[dim][point]`.
    pub coords: Vec<Vec<u16>>,
    /// Cluster count (power of two).
    pub k: usize,
    /// Lloyd iterations to run.
    pub iters: usize,
}

impl KmeansInput {
    /// Number of points.
    pub fn n_points(&self) -> usize {
        self.coords[0].len()
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// Initial centroids: the first `k` points (deterministic). When
    /// `k` exceeds the point count the points are cycled — duplicated
    /// seeds collapse into empty clusters on the first update, which
    /// keep their (stale) centroid rather than panicking, so a trainer
    /// asking for more clusters than it has points degrades gracefully.
    /// A zero-point input yields all-zero centroids.
    pub fn initial_centroids(&self) -> Vec<Vec<u16>> {
        let n = self.n_points();
        (0..self.k)
            .map(|c| {
                self.coords
                    .iter()
                    .map(|dim| if n == 0 { 0 } else { dim[c % n] })
                    .collect()
            })
            .collect()
    }
}

/// Result: final centroids (`k × d`) and the final assignment pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmeansOutput {
    /// Centroids after the last update.
    pub centroids: Vec<Vec<u16>>,
    /// Cluster id per point from the last assignment pass.
    pub assignments: Vec<u16>,
}

/// Generates a clustered point set. `n_points` is rounded up to a
/// multiple of the 32 K tile size (a device-friendliness constraint the
/// kernels validate).
pub fn generate(n_points: usize, k: usize, dims: usize, iters: usize, seed: u64) -> KmeansInput {
    let l = 32 * 1024;
    let n = n_points.div_ceil(l).max(1) * l;
    let mut rng = StdRng::seed_from_u64(seed);
    // true cluster centers
    let centers: Vec<Vec<i32>> = (0..k)
        .map(|_| (0..dims).map(|_| rng.gen_range(8..56)).collect())
        .collect();
    let mut coords = vec![vec![0u16; n]; dims];
    for p in 0..n {
        let c = rng.gen_range(0..k);
        for (dim, coord) in coords.iter_mut().enumerate() {
            let v = centers[c][dim] + rng.gen_range(-6..=6);
            coord[p] = v.clamp(0, COORD_MAX as i32) as u16;
        }
    }
    KmeansInput { coords, k, iters }
}

/// Points copied into one point-major scratch tile by
/// [`assign_points`]: 64 points of the IVF trainer's 384 dimensions are
/// a 48 KiB tile, which stays cache-resident while every centroid is
/// swept against it.
const BLOCK: usize = 64;

/// Assigns every point of `input` to its nearest centroid (squared
/// Euclidean distance, ties toward the lower cluster id), parallelized
/// over `threads`. This is the assignment step of
/// [`cpu`] / [`cpu_mt`], exposed so other trainers — e.g. the IVF
/// index builder in the `rag` crate — can partition a full dataset
/// against centroids fitted on a subsample.
///
/// The points are stored dimension-major, so each worker copies 64
/// points at a time into a point-major scratch tile and scores them
/// against the centroids flattened once per call: every distance runs
/// over two contiguous slices. Distances are exact `u64` sums for any
/// `u16` coordinates.
pub fn assign_points(input: &KmeansInput, centroids: &[Vec<u16>], threads: usize) -> Vec<u16> {
    let n = input.n_points();
    let dims = input.dims();
    let flat: Vec<u16> = centroids.iter().flatten().copied().collect();
    let blocks: Vec<usize> = (0..n).step_by(BLOCK).collect();
    // `map_reduce` hands each worker a contiguous run of blocks and
    // folds the partials in order, so appending them yields the
    // assignments in point order.
    map_reduce(
        &blocks,
        threads.max(1),
        |starts| {
            let mut tile = vec![0u16; BLOCK * dims];
            let mut out = Vec::with_capacity(starts.len() * BLOCK);
            for &start in starts {
                let len = BLOCK.min(n - start);
                for (dim, col) in input.coords.iter().enumerate() {
                    for (i, &v) in col[start..start + len].iter().enumerate() {
                        tile[i * dims + dim] = v;
                    }
                }
                out.extend(
                    tile.chunks_exact(dims)
                        .take(len)
                        .map(|point| nearest(point, &flat, dims)),
                );
            }
            out
        },
        |mut a: Vec<u16>, mut b| {
            a.append(&mut b);
            a
        },
    )
}

/// The first centroid of `centroids` (`dims` values each) at the least
/// squared distance from `point`.
fn nearest(point: &[u16], centroids: &[u16], dims: usize) -> u16 {
    let mut best = u64::MAX;
    let mut best_c = 0u16;
    for (c, cent) in centroids.chunks_exact(dims).enumerate() {
        let dist = squared_distance(point, cent);
        if dist < best {
            best = dist;
            best_c = c as u16;
        }
    }
    best_c
}

/// Exact squared Euclidean distance: each `u16` difference squares into
/// a `u32` without overflow and the sum runs in `u64`.
#[inline]
fn squared_distance(a: &[u16], b: &[u16]) -> u64 {
    // Eight independent lane sums let the compiler keep the widening
    // accumulation in vector registers; one sum is about half as fast.
    const LANES: usize = 8;
    let mut lanes = [0u64; LANES];
    let mut a8 = a.chunks_exact(LANES);
    let mut b8 = b.chunks_exact(LANES);
    for (x, y) in (&mut a8).zip(&mut b8) {
        for i in 0..LANES {
            let d = u32::from(x[i].abs_diff(y[i]));
            lanes[i] += u64::from(d * d);
        }
    }
    let mut sum: u64 = lanes.iter().sum();
    for (&x, &y) in a8.remainder().iter().zip(b8.remainder()) {
        let d = u32::from(x.abs_diff(y));
        sum += u64::from(d * d);
    }
    sum
}

/// Single-threaded CPU reference.
pub fn cpu(input: &KmeansInput) -> KmeansOutput {
    cpu_with_threads(input, 1)
}

/// Multi-threaded CPU implementation (assignment parallelized).
pub fn cpu_mt(input: &KmeansInput, threads: usize) -> KmeansOutput {
    cpu_with_threads(input, threads)
}

fn cpu_with_threads(input: &KmeansInput, threads: usize) -> KmeansOutput {
    let n = input.n_points();
    let mut centroids = input.initial_centroids();
    let mut assignments = vec![0u16; n];
    let mut counts = vec![0u64; input.k];
    let mut sums = vec![0u64; input.k];
    for _ in 0..input.iters {
        assignments = assign_points(input, &centroids, threads);
        // update: one pass over each coordinate column
        counts.fill(0);
        for &a in &assignments {
            counts[a as usize] += 1;
        }
        for (dim, coord) in input.coords.iter().enumerate() {
            sums.fill(0);
            for (&a, &v) in assignments.iter().zip(coord) {
                sums[a as usize] += u64::from(v);
            }
            for (c, cent) in centroids.iter_mut().enumerate() {
                if let Some(mean) = sums[c].checked_div(counts[c]) {
                    cent[dim] = mean as u16;
                }
            }
        }
    }
    KmeansOutput {
        centroids,
        assignments,
    }
}

/// Estimated retired CPU instructions for Table 6 (paper: 0.4 G for
/// 128 k points; with k=16, d=3-ish defaults that is ≈ 20 per
/// point-cluster-dim-iteration).
pub fn cpu_inst_estimate(input: &KmeansInput) -> u64 {
    (input.n_points() * input.k * input.dims() * input.iters * 20) as u64
}

const VR_COORD0: u8 = 0; // d coordinate registers (d <= 6)
const VR_DIST: Vr = Vr::new(8);
const VR_BEST: Vr = Vr::new(9);
const VR_BESTC: Vr = Vr::new(10);
const VR_T: Vr = Vr::new(11);
const VR_T2: Vr = Vr::new(12);
const VR_IDX: Vr = Vr::new(13);
const VR_CENT: Vr = Vr::new(14);
const VR_TAG: Vr = Vr::new(15);
const M0: Marker = Marker::new(0);
const M1: Marker = Marker::new(1);
const M_HEADS: Marker = Marker::new(2);

/// Device implementation.
///
/// # Errors
///
/// Fails unless the point count is a multiple of the VR length, `k` is a
/// power of two ≤ 64, and `d ≤ 6`.
pub fn apu(
    dev: &mut ApuDevice,
    input: &KmeansInput,
    opts: OptConfig,
) -> Result<(KmeansOutput, TaskReport)> {
    let l = dev.config().vr_len;
    let n = input.n_points();
    let dims = input.dims();
    let k = input.k;
    if !n.is_multiple_of(l) {
        return Err(Error::InvalidArg(format!(
            "point count {n} must be a multiple of the VR length {l}"
        )));
    }
    if !k.is_power_of_two() || k > 64 {
        return Err(Error::InvalidArg(format!(
            "cluster count {k} must be a power of two <= 64"
        )));
    }
    if dims > 6 {
        return Err(Error::InvalidArg(format!(
            "at most 6 dimensions, got {dims}"
        )));
    }
    let n_tiles = n / l;

    // Upload coordinates dimension-major. With opt2 the 6-bit
    // coordinates of dimension pairs are byte-packed into one plane,
    // halving off-chip traffic.
    let packed = opts.coalesced_dma;
    let n_planes = if packed { dims.div_ceil(2) } else { dims };
    let h_coords = dev.alloc_u16(n_planes * n)?;
    if packed {
        for pair in 0..n_planes {
            let lo = &input.coords[2 * pair];
            let hi = input.coords.get(2 * pair + 1);
            let plane: Vec<u16> = (0..n)
                .map(|p| lo[p] | (hi.map_or(0, |h| h[p]) << 8))
                .collect();
            dev.copy_to_device(h_coords.offset_by(pair * n * 2)?.truncated(n * 2)?, &plane)?;
        }
    } else {
        for (dim, coord) in input.coords.iter().enumerate() {
            dev.copy_to_device(h_coords.offset_by(dim * n * 2)?.truncated(n * 2)?, coord)?;
        }
    }
    let h_assign = dev.alloc_u16(n)?;

    let mut centroids = input.initial_centroids();
    let mut total_report: Option<TaskReport> = None;

    for _iter in 0..input.iters {
        // Stage centroids for lookup: row-major (k × d) for the baseline
        // layout, dimension-major (d × k) when broadcast-friendly.
        let cent_table: Vec<u16> = if opts.broadcast_layout {
            (0..dims)
                .flat_map(|dim| centroids.iter().map(move |c| c[dim]))
                .collect()
        } else {
            centroids.iter().flatten().copied().collect()
        };
        let sigma_all = cent_table.len();
        let o = opts;

        let (partials, report) = parallel_tiles(dev, n_tiles, |ctx, start, end| {
            let mut sums = vec![vec![0u64; dims]; k];
            let mut counts = vec![0u64; k];
            // CP writes the centroid table into L3 (command-parameter
            // style; the table is tiny).
            ctx.l3_write_u16s(0, &cent_table)?;
            ctx.core_mut().create_grp_index_u16(VR_IDX, SG_SUM)?;
            ctx.core_mut().cpy_imm_16(VR_T, 0)?;
            ctx.core_mut().eq_16(M_HEADS, VR_IDX, VR_T)?;

            for tile in start..end {
                // ---- load the coordinate planes ----
                if o.coalesced_dma {
                    // byte-packed dimension pairs: half the planes
                    for pair in 0..n_planes {
                        let src = h_coords.offset_by((pair * n + tile * l) * 2)?;
                        ctx.dma_l4_to_l2(0, src, 2 * l)?;
                        ctx.dma_l2_to_l1(Vmr::new(47))?;
                        ctx.load(VR_T2, Vmr::new(47))?;
                        let core = ctx.core_mut();
                        core.cpy_imm_16(VR_T, 0x00FF)?;
                        core.and_16(Vr::new(VR_COORD0 + (2 * pair) as u8), VR_T2, VR_T)?;
                        if 2 * pair + 1 < dims {
                            core.sr_imm_u16(Vr::new(VR_COORD0 + (2 * pair + 1) as u8), VR_T2, 8)?;
                        }
                    }
                } else {
                    for dim in 0..dims {
                        let src = h_coords.offset_by((dim * n + tile * l) * 2)?;
                        ctx.dma_l4_to_l2(0, src, 2 * l)?;
                        ctx.dma_l2_to_l1(Vmr::new(47))?;
                        ctx.load(Vr::new(VR_COORD0 + dim as u8), Vmr::new(47))?;
                    }
                }

                // ---- assignment ----
                if o.reduction_mapping {
                    assign_temporal(ctx, k, dims, sigma_all, o)?;
                } else {
                    assign_spatial(ctx, k, dims, sigma_all, o, h_assign, tile)?;
                }

                // ---- write assignments / reload for update ----
                if o.reduction_mapping {
                    ctx.store(Vmr::new(46), VR_BESTC)?;
                    ctx.dma_l1_to_l4(h_assign.offset_by(tile * l * 2)?, Vmr::new(46))?;
                } else {
                    // spatial path already PIO-stored them; reload for
                    // the update phase
                    ctx.dma_l4_to_l1(Vmr::new(46), h_assign.offset_by(tile * l * 2)?)?;
                    ctx.load(VR_BESTC, Vmr::new(46))?;
                }

                // ---- update sums ----
                for c in 0..k {
                    ctx.core_mut().eq_imm_16(M1, VR_BESTC, c as u16)?;
                    let cnt = ctx.core_mut().count_m(M1)?;
                    counts[c] += cnt as u64;
                    for (dim, sum) in sums[c].iter_mut().enumerate() {
                        {
                            let core = ctx.core_mut();
                            core.cpy_imm_16(VR_T, 0)?;
                            core.cpy_16_msk(VR_T, Vr::new(VR_COORD0 + dim as u8), M1)?;
                            core.add_subgrp_s16(VR_T, VR_T, SG_SUM, SG_SUM)?;
                        }
                        let heads = ctx.core_mut().extract_marked(VR_T, M_HEADS, l / SG_SUM)?;
                        *sum += heads.iter().map(|&(_, v)| v as u64).sum::<u64>();
                    }
                }
            }
            Ok((sums, counts))
        })?;

        // Host/CP reduce: fold partials, compute new centroids.
        let mut sums = vec![vec![0u64; dims]; k];
        let mut counts = vec![0u64; k];
        for (ps, pc) in &partials {
            for c in 0..k {
                counts[c] += pc[c];
                for dim in 0..dims {
                    sums[c][dim] += ps[c][dim];
                }
            }
        }
        if dev.config().exec_mode.is_functional() {
            for c in 0..k {
                for dim in 0..dims {
                    if let Some(mean) = sums[c][dim].checked_div(counts[c]) {
                        centroids[c][dim] = mean as u16;
                    }
                }
            }
        }
        total_report = Some(match total_report {
            Some(t) => t.chain(&report),
            None => report,
        });
    }

    // Read back the final assignments.
    let assignments = if dev.config().exec_mode.is_functional() {
        let mut a = vec![0u16; n];
        dev.copy_from_device(h_assign, &mut a)?;
        a
    } else {
        Vec::new()
    };
    dev.free(h_coords)?;
    dev.free(h_assign)?;
    Ok((
        KmeansOutput {
            centroids,
            assignments,
        },
        total_report.expect("at least one iteration"),
    ))
}

/// Temporal assignment: one point per lane, clusters iterated in time.
fn assign_temporal(
    ctx: &mut apu_sim::ApuContext<'_>,
    k: usize,
    dims: usize,
    sigma_all: usize,
    opts: OptConfig,
) -> Result<()> {
    for c in 0..k {
        // distance to centroid c
        ctx.core_mut().cpy_imm_16(VR_DIST, 0)?;
        for dim in 0..dims {
            broadcast_centroid(ctx, c, dim, k, sigma_all, opts)?;
            let core = ctx.core_mut();
            core.sub_s16(VR_T, Vr::new(VR_COORD0 + dim as u8), VR_CENT)?;
            core.mul_s16(VR_T, VR_T, VR_T)?;
            core.add_u16(VR_DIST, VR_DIST, VR_T)?;
        }
        let core = ctx.core_mut();
        if c == 0 {
            core.cpy_16(VR_BEST, VR_DIST)?;
            core.cpy_imm_16(VR_BESTC, 0)?;
        } else {
            core.lt_u16(M0, VR_DIST, VR_BEST)?;
            core.cpy_16_msk(VR_BEST, VR_DIST, M0)?;
            core.cpy_imm_16_msk(VR_BESTC, c as u16, M0)?;
        }
    }
    Ok(())
}

/// Spatial assignment: lanes hold (point, cluster) pairs, `l/k` points
/// per pass, expanded via L3 lookups and reduced with subgroup arg-min.
fn assign_spatial(
    ctx: &mut apu_sim::ApuContext<'_>,
    k: usize,
    dims: usize,
    sigma_all: usize,
    opts: OptConfig,
    h_assign: apu_sim::MemHandle,
    tile: usize,
) -> Result<()> {
    let l = ctx.core().vr_len();
    let points_per_pass = l / k;
    // Stage this tile's coordinate planes into L3 for expansion
    // (after the centroid table).
    let cent_bytes = sigma_all * 2;
    for dim in 0..dims {
        ctx.store(Vmr::new(45), Vr::new(VR_COORD0 + dim as u8))?;
        ctx.dma_l1_to_l2(Vmr::new(45))?;
        // L2 → L3 staging is charged as an L4-class transfer into the CP
        // cache (the cache is filled through the same fabric).
        let data: Vec<u16> = if ctx.core().is_functional() {
            ctx.core().vr(Vr::new(VR_COORD0 + dim as u8))?.to_vec()
        } else {
            vec![0; l]
        };
        ctx.l3_write_u16s(cent_bytes + dim * l * 2, &data)?;
        let cost = ctx.timing().dma_l4_l3(l * 2);
        ctx.core_mut()
            .charge_cycles(apu_sim::core::CycleClass::Dma, cost);
    }
    // expansion index: lane -> point-within-pass (lane / k)
    ctx.core_mut().create_grp_num_u16(VR_IDX, k)?;
    // cluster tag pattern: lane -> cluster (lane % k)
    ctx.core_mut().create_grp_index_u16(VR_TAG, k)?;

    for pass in 0..k {
        // Expand the pass's point coordinates: lookup over the staged
        // window of `points_per_pass` entries.
        ctx.core_mut().cpy_imm_16(VR_DIST, 0)?;
        for dim in 0..dims {
            let window_off = cent_bytes + (dim * l + pass * points_per_pass) * 2;
            ctx.lookup(VR_T2, VR_IDX, window_off, points_per_pass)?;
            // centroid per lane: lookup by cluster tag
            let (idx_vr, sigma, table_off) = if opts.broadcast_layout {
                (VR_TAG, k, dim * k * 2)
            } else {
                // row-major: entry index = tag*dims + dim; build it
                let core = ctx.core_mut();
                core.cpy_imm_16(VR_T, dims as u16)?;
                core.mul_u16(VR_CENT, VR_TAG, VR_T)?;
                core.cpy_imm_16(VR_T, dim as u16)?;
                core.add_u16(VR_CENT, VR_CENT, VR_T)?;
                (VR_CENT, sigma_all, 0)
            };
            ctx.lookup(VR_T, idx_vr, table_off, sigma)?;
            let core = ctx.core_mut();
            core.sub_s16(VR_T, VR_T2, VR_T)?;
            core.mul_s16(VR_T, VR_T, VR_T)?;
            core.add_u16(VR_DIST, VR_DIST, VR_T)?;
        }
        // arg-min within each k-lane group
        ctx.core_mut()
            .min_subgrp_u16(VR_BEST, VR_DIST, k, k, Some((VR_BESTC, VR_TAG)))?;
        // scattered assignments leave one element at a time
        let pairs: Vec<(usize, usize)> = (0..points_per_pass)
            .map(|p| (tile * l + pass * points_per_pass + p, p * k))
            .collect();
        ctx.pio_store(h_assign, VR_BESTC, &pairs)?;
    }
    Ok(())
}

fn broadcast_centroid(
    ctx: &mut apu_sim::ApuContext<'_>,
    c: usize,
    dim: usize,
    k: usize,
    sigma_all: usize,
    opts: OptConfig,
) -> Result<()> {
    let dims = sigma_all / k;
    // Index VR: constant entry index within the contiguous window.
    let (entry, sigma, table_off) = if opts.broadcast_layout {
        (c, k, dim * k * 2) // dimension-major: window of k entries
    } else {
        (c * dims + dim, sigma_all, 0) // row-major: whole-table window
    };
    ctx.core_mut().cpy_imm_16(VR_T2, entry as u16)?;
    ctx.lookup(VR_CENT, VR_T2, table_off, sigma)?;
    Ok(())
}

/// Analytical-framework twin (models the all-opts kernel).
pub fn model(est: &mut cis_model::LatencyEstimator, input: &KmeansInput, opts: OptConfig) {
    let l = 32 * 1024;
    let n = input.n_points();
    let (k, dims) = (input.k, input.dims());
    let n_tiles = (n / l).max(1);
    let cores = 4usize.min(n_tiles);
    let tiles_per_core = n_tiles.div_ceil(cores);
    let n_planes = if opts.coalesced_dma {
        dims.div_ceil(2)
    } else {
        dims
    };
    for _ in 0..input.iters {
        // per-core, per-iteration setup
        est.section("setup");
        est.gvml_create_grp_index_u16();
        est.gvml_cpy_imm_16();
        est.gvml_eq_16();
        for _ in 0..tiles_per_core {
            est.section("load");
            for _ in 0..n_planes {
                est.record(cis_model::TraceOp::DmaL4L2(2 * l * cores));
                est.direct_dma_l2_to_l1_32k();
                est.gvml_load_16();
                if opts.coalesced_dma {
                    est.gvml_cpy_imm_16();
                    est.record(cis_model::TraceOp::Op(apu_sim::VecOp::And16));
                    est.gvml_shift_imm_16();
                }
            }
            est.section("assign");
            for c in 0..k {
                est.gvml_cpy_imm_16();
                for _ in 0..dims {
                    est.gvml_cpy_imm_16();
                    est.lookup(if opts.broadcast_layout { k } else { k * dims });
                    est.gvml_sub_s16();
                    est.gvml_mul_s16();
                    est.gvml_add_u16();
                }
                if c > 0 {
                    est.gvml_lt_u16();
                    est.gvml_cpy_16_msk();
                    est.gvml_cpy_imm_16();
                }
            }
            est.section("writeback");
            est.gvml_store_16();
            for _ in 0..cores {
                est.direct_dma_l1_to_l4_32k();
            }
            est.section("update");
            for _ in 0..k {
                est.gvml_eq_16();
                est.gvml_count_m();
                for _ in 0..dims {
                    est.gvml_cpy_imm_16();
                    est.gvml_cpy_16_msk();
                    est.gvml_add_subgrp_s16(SG_SUM, SG_SUM);
                    est.gvml_cpy_from_mrk_16_msk(l / SG_SUM);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::SimConfig;

    fn device() -> ApuDevice {
        ApuDevice::new(SimConfig::default().with_l4_bytes(64 << 20))
    }

    fn small_input() -> KmeansInput {
        generate(32 * 1024, 8, 4, 2, 11)
    }

    // ---- the scalar dimension-major trainer, kept as the oracle ----

    fn oracle_assign_point(input: &KmeansInput, centroids: &[Vec<u16>], p: usize) -> u16 {
        let mut best = u32::MAX;
        let mut best_c = 0u16;
        for (c, cent) in centroids.iter().enumerate() {
            let mut dist = 0u32;
            for (dim, coord) in input.coords.iter().enumerate() {
                let d = coord[p] as i32 - cent[dim] as i32;
                dist += (d * d) as u32;
            }
            if dist < best {
                best = dist;
                best_c = c as u16;
            }
        }
        best_c
    }

    fn oracle_assign_points(input: &KmeansInput, centroids: &[Vec<u16>]) -> Vec<u16> {
        (0..input.n_points())
            .map(|p| oracle_assign_point(input, centroids, p))
            .collect()
    }

    fn oracle_cpu(input: &KmeansInput) -> KmeansOutput {
        let n = input.n_points();
        let dims = input.dims();
        let mut centroids = input.initial_centroids();
        let mut assignments = vec![0u16; n];
        for _ in 0..input.iters {
            assignments = oracle_assign_points(input, &centroids);
            // update
            let mut sums = vec![vec![0u64; dims]; input.k];
            let mut counts = vec![0u64; input.k];
            for p in 0..n {
                let c = assignments[p] as usize;
                counts[c] += 1;
                for (dim, coord) in input.coords.iter().enumerate() {
                    sums[c][dim] += coord[p] as u64;
                }
            }
            for c in 0..input.k {
                for dim in 0..dims {
                    if let Some(mean) = sums[c][dim].checked_div(counts[c]) {
                        centroids[c][dim] = mean as u16;
                    }
                }
            }
        }
        KmeansOutput {
            centroids,
            assignments,
        }
    }

    #[test]
    fn distances_are_exact_at_the_top_of_the_u16_range() {
        // (65535, 363) lies 4,294,967,994 from (0, 0), past u32::MAX, and
        // 417,994 from (65000, 0): a wrapping u32 sum would pick 0.
        let input = KmeansInput {
            coords: vec![vec![65535], vec![363]],
            k: 2,
            iters: 0,
        };
        let centroids = [vec![0, 0], vec![65000, 0]];
        assert_eq!(assign_points(&input, &centroids, 1), vec![1]);
    }

    #[test]
    fn cpu_mt_matches_single() {
        let input = small_input();
        let a = cpu(&input);
        let b = cpu_mt(&input, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn cpu_converges_to_centers() {
        // Enough Lloyd iterations to converge: the stability check below
        // compares against one *additional* iteration, which is only
        // meaningful once the assignment has settled.
        let input = generate(32 * 1024, 4, 2, 16, 3);
        let out = cpu(&input);
        // every centroid should sit inside the coordinate range
        for c in &out.centroids {
            for &v in c {
                assert!(v <= COORD_MAX);
            }
        }
        // assignment should be stable under one more iteration
        let mut more = input.clone();
        more.iters += 1;
        let out2 = cpu(&more);
        let same = out
            .assignments
            .iter()
            .zip(&out2.assignments)
            .filter(|(a, b)| a == b)
            .count();
        assert!(same as f64 / out.assignments.len() as f64 > 0.95);
    }

    #[test]
    fn apu_temporal_matches_cpu() {
        let input = small_input();
        let mut dev = device();
        let (out, _) = apu(&mut dev, &input, OptConfig::all()).unwrap();
        let expected = cpu(&input);
        assert_eq!(out.centroids, expected.centroids);
        assert_eq!(out.assignments, expected.assignments);
    }

    #[test]
    fn apu_spatial_baseline_matches_cpu() {
        let input = small_input();
        let mut dev = device();
        let (out, _) = apu(&mut dev, &input, OptConfig::none()).unwrap();
        let expected = cpu(&input);
        assert_eq!(out.centroids, expected.centroids);
        assert_eq!(out.assignments, expected.assignments);
    }

    #[test]
    fn apu_variants_match_cpu() {
        let input = small_input();
        let expected = cpu(&input);
        let mut dev = device();
        for o in OptConfig::fig13_variants() {
            let (out, _) = apu(&mut dev, &input, o).unwrap();
            assert_eq!(out.centroids, expected.centroids, "{}", o.label());
        }
    }

    #[test]
    fn opt1_gives_the_large_gain() {
        let input = small_input();
        let mut dev = device();
        let (_, base) = apu(&mut dev, &input, OptConfig::none()).unwrap();
        let (_, o1) = apu(&mut dev, &input, OptConfig::only_opt1()).unwrap();
        let (_, o3) = apu(&mut dev, &input, OptConfig::only_opt3()).unwrap();
        let (_, all) = apu(&mut dev, &input, OptConfig::all()).unwrap();
        assert!(
            o1.cycles.get() * 3 < base.cycles.get(),
            "opt1 {} vs base {}",
            o1.cycles,
            base.cycles
        );
        assert!(o3.cycles < base.cycles);
        assert!(all.cycles <= o1.cycles);
    }

    #[test]
    fn input_validation() {
        let mut dev = device();
        let mut bad = small_input();
        bad.coords[0].truncate(1000);
        bad.coords[1].truncate(1000);
        bad.coords[2].truncate(1000);
        bad.coords[3].truncate(1000);
        assert!(apu(&mut dev, &bad, OptConfig::all()).is_err());
        let mut bad_k = small_input();
        bad_k.k = 7;
        assert!(apu(&mut dev, &bad_k, OptConfig::all()).is_err());
    }

    // ---- edge cases the IVF trainer hits (rag::ivf) ----

    #[test]
    fn k_larger_than_point_count_degrades_gracefully() {
        // 3 points, 8 requested clusters: seeds cycle, duplicated seeds
        // collapse to empty clusters that keep their stale centroid.
        let input = KmeansInput {
            coords: vec![vec![1, 20, 50], vec![5, 30, 60]],
            k: 8,
            iters: 3,
        };
        let out = cpu(&input);
        assert_eq!(out.centroids.len(), 8);
        assert_eq!(out.assignments.len(), 3);
        // Ties break toward the lower cluster id, so only the first
        // copy of each duplicated seed ever owns points.
        for &a in &out.assignments {
            assert!((a as usize) < 3, "assignment {a} beyond distinct seeds");
        }
        for c in &out.centroids {
            for &v in c {
                assert!(v <= COORD_MAX);
            }
        }
    }

    #[test]
    fn zero_points_yield_zero_centroids_without_panicking() {
        let input = KmeansInput {
            coords: vec![Vec::new(), Vec::new()],
            k: 4,
            iters: 2,
        };
        let out = cpu(&input);
        assert_eq!(out.centroids, vec![vec![0, 0]; 4]);
        assert!(out.assignments.is_empty());
    }

    #[test]
    fn all_duplicate_points_collapse_to_one_cluster() {
        let input = KmeansInput {
            coords: vec![vec![17; 256], vec![42; 256]],
            k: 4,
            iters: 3,
        };
        let out = cpu(&input);
        // Identical distances everywhere: ties go to cluster 0, and the
        // empty clusters keep the (identical) seed centroid.
        assert!(out.assignments.iter().all(|&a| a == 0));
        assert_eq!(out.centroids, vec![vec![17, 42]; 4]);
    }

    #[test]
    fn empty_clusters_keep_their_stale_centroid() {
        // Two tight groups, four clusters: at least two clusters go
        // empty on the first update and must keep their seed centroid
        // instead of dividing by zero.
        let mut coords = vec![Vec::new(), Vec::new()];
        for i in 0..128 {
            let (x, y) = if i % 2 == 0 { (2, 3) } else { (60, 61) };
            coords[0].push(x);
            coords[1].push(y);
        }
        let input = KmeansInput {
            coords,
            k: 4,
            iters: 4,
        };
        let seeds = input.initial_centroids();
        let out = cpu(&input);
        let mut counts = [0usize; 4];
        for &a in &out.assignments {
            counts[a as usize] += 1;
        }
        for c in 0..4 {
            if counts[c] == 0 {
                assert_eq!(out.centroids[c], seeds[c], "empty cluster {c} moved");
            }
        }
        assert!(counts.iter().filter(|&&n| n == 0).count() >= 2);
    }

    #[test]
    fn assign_points_matches_the_next_assignment_pass() {
        // `cpu` assigns against the centroids from the *previous*
        // update, so partitioning with `assign_points` against a run's
        // final centroids reproduces the assignments of a run with one
        // extra iteration — the contract the IVF builder relies on.
        let input = small_input();
        let out = cpu(&input);
        let longer = cpu(&KmeansInput {
            coords: input.coords.clone(),
            k: input.k,
            iters: input.iters + 1,
        });
        assert_eq!(longer.assignments, assign_points(&input, &out.centroids, 8));
    }

    mod props {
        use super::{
            apu, assign_points, cpu, cpu_mt, device, oracle_assign_points, oracle_cpu, KmeansInput,
            OptConfig, BLOCK, COORD_MAX,
        };
        use proptest::prelude::*;

        /// `n` points of `dims` coordinates drawn from `palette`.
        fn drawn_input(n: usize, dims: usize, k: usize, palette: &[u16], seed: u64) -> KmeansInput {
            let mut state = seed;
            let coords = (0..dims)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            palette[(state >> 33) as usize % palette.len()]
                        })
                        .collect()
                })
                .collect();
            KmeansInput {
                coords,
                k,
                iters: 2,
            }
        }

        /// Duplicate-heavy device-shaped input: coordinates drawn from
        /// a small palette force duplicate points and empty clusters —
        /// exactly what an IVF trainer produces on clustered corpora.
        fn palette_input(
            dims: usize,
            k: usize,
            iters: usize,
            palette: &[u16],
            seed: u64,
        ) -> KmeansInput {
            let n = 32 * 1024;
            let mut state = seed;
            let mut coords = vec![vec![0u16; n]; dims];
            for p in 0..n {
                for coord in coords.iter_mut() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let idx = (state >> 33) as usize % palette.len();
                    coord[p] = palette[idx];
                }
            }
            KmeansInput { coords, k, iters }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The blocked point-major sweep and the column update return
            /// the scalar oracle's assignments and centroids: 0 or 1
            /// point or a count that is not a multiple of the block, any
            /// thread count, and coordinates from the IVF band (0..=12),
            /// the 6-bit range, or a duplicate-heavy palette.
            #[test]
            fn blocked_trainer_matches_the_scalar_oracle(
                dims in 1usize..=400,
                k in 1usize..=64,
                shape in (0usize..=5, 1usize..BLOCK),
                threads in 1usize..=8,
                range in 0u8..3,
                picks in (proptest::collection::vec(0u16..=COORD_MAX, 1..=4), any::<u64>()),
            ) {
                let n = match shape.0 {
                    0 => 0,
                    1 => 1,
                    blocks => (blocks - 2) * BLOCK + shape.1,
                };
                let palette: Vec<u16> = match range {
                    0 => (0..=12).collect(),
                    1 => (0..=COORD_MAX).collect(),
                    _ => picks.0,
                };
                let input = drawn_input(n, dims, k, &palette, picks.1);
                let expected = oracle_cpu(&input);
                prop_assert_eq!(&cpu_mt(&input, threads), &expected);
                for centroids in [input.initial_centroids(), expected.centroids.clone()] {
                    prop_assert_eq!(
                        assign_points(&input, &centroids, threads),
                        oracle_assign_points(&input, &centroids)
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            /// The device kernel agrees with the CPU reference bit-for-
            /// bit even on degenerate inputs (duplicates, empty
            /// clusters) — the agreement the IVF trainer relies on.
            #[test]
            fn apu_functional_matches_cpu_on_degenerate_inputs(
                dims in 2usize..=4,
                kexp in 1u32..=3,
                iters in 1usize..=2,
                palette in proptest::collection::vec(0u16..=COORD_MAX, 3..=6),
                seed in any::<u64>(),
            ) {
                let input = palette_input(dims, 1usize << kexp, iters, &palette, seed);
                let expected = cpu(&input);
                let mut dev = device();
                let (out, _) = apu(&mut dev, &input, OptConfig::all()).unwrap();
                prop_assert_eq!(out.centroids, expected.centroids);
                prop_assert_eq!(out.assignments, expected.assignments);
            }
        }
    }
}
