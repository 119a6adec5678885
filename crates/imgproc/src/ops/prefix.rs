//! The CPU-placed prefix of a preprocessing plan, compiled once per source
//! geometry.
//!
//! §5.2/§6.2: once the DNN is fast, resize/normalize is the bottleneck, and
//! natively low-resolution data should reach the accelerator with as little
//! CPU work as possible. Interpreting the op list per item pays for fresh
//! axis maps, an intermediate image per geometric op, and a second pass to
//! normalize. [`CompiledPrefix`] does that work once: every geometric chain
//! the planner emits (`ResizeExact`, `ResizeShortEdge` + `CenterCrop`,
//! `FusedCropResize`, bare `CenterCrop`) collapses to a source window plus
//! per-axis sample maps, and execution is one of two paths, both writing
//! straight into the caller's staging slot:
//!
//! * **identity** — the window is the whole image and nothing resamples:
//!   only the fused convert/normalize/split pass runs;
//! * **resample** — horizontally interpolated source rows are cached and
//!   reused across output rows; the vertical blend, u8 rounding,
//!   normalization, and planar write happen in the same loop. The
//!   horizontal pass walks the x map as segments cut at compile time
//!   (`SegmentedMap`): a *run*, where both taps advance one source pixel
//!   per output pixel, reads two contiguous slices of the source row; the
//!   other pixels (an upscale's repeated taps, clamped edge columns) gather
//!   their taps one by one. Near-unity resizes (215×161 → 224², the 63-px
//!   window of 128×72 → 64²) are nearly all runs.
//!
//! Both use the f32 operation order of [`resize_bilinear_u8`] followed by
//! [`fused_convert_normalize_split_into`], so the staged tensor is
//! bit-identical to [`crate::dag::execute_plan`], which stays the reference
//! the property tests compare against.
//!
//! What is staged follows the plan's §6.3 placement. With the elementwise
//! tail on the CPU the slot holds the normalized planar f32 tensor
//! ([`CompiledPrefix::run_into`]). With the tail on the accelerator the CPU
//! stops at the u8 intermediate and stages *that* — interleaved bytes, a
//! quarter of the tensor ([`CompiledPrefix::run_into_bytes`]): the identity
//! path is one `copy_from_slice`, and the resample path caches its rows
//! interleaved, so the vertical blend of an output row is one contiguous
//! pass straight into the slot. The tensor path interpolates into the same
//! layout and splits each cached row into planes once, so its blend reads
//! and writes contiguous planes too.
//!
//! Both entry points run their pixel loops as [`crate::tier`] kernels, so
//! on a host with AVX2 the blend, normalization and u8 truncation run 8
//! lanes wide. Every loop of a kernel body is a method or function marked
//! `#[inline(always)]` — no closure, since a closure does not inherit its
//! caller's target features unless it happens to be inlined.
//!
//! [`resize_bilinear_u8`]: crate::ops::resize::resize_bilinear_u8

use crate::dag::{plan_op_costs, OpSpec, Placement, PreprocPlan};
use crate::error::{Error, Result};
use crate::image::{ImageU8, Rect};
use crate::ops::fused::fused_convert_normalize_split_into;
use crate::ops::normalize::Normalization;
use crate::ops::resize::{axis_map, scaled_dims, AxisMap};
use crate::tier::{Kernel, Tier};
use std::cell::RefCell;

thread_local! {
    /// Two horizontally interpolated source rows (`3 × out_w` each; planar
    /// when staging tensors, interleaved when staging bytes), then one spare
    /// row the tensor path interpolates into before splitting it into planes.
    /// Grows to the widest output a thread has produced and is then reused,
    /// so steady-state execution allocates nothing.
    static ROW_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// What the prefix leaves in the staging buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Staging {
    /// The elementwise tail runs on the CPU: normalized planar (CHW) f32.
    Tensor,
    /// The tail is accelerator-placed (or the plan has none): the u8
    /// intermediate's interleaved bytes.
    Bytes,
}

/// A geometric chain collapsed so far, in source-image coordinates.
enum Geom {
    /// Only crops so far: a window of the source, nothing resampled.
    Window(Rect),
    /// One bilinear resample (possibly cropped before and after).
    Sampled { x: AxisMap, y: AxisMap },
}

impl Geom {
    fn dims(&self) -> (usize, usize) {
        match self {
            Geom::Window(r) => (r.w, r.h),
            Geom::Sampled { x, y } => (x.lo.len(), y.lo.len()),
        }
    }

    fn resize(self, w: usize, h: usize) -> Result<Geom> {
        if w == 0 || h == 0 {
            return Err(Error::EmptyDimension {
                op: "resize_bilinear_u8",
            });
        }
        // A same-size bilinear resize samples every pixel at weight 0: it
        // reproduces its input exactly, so it compiles to nothing.
        if self.dims() == (w, h) {
            return Ok(self);
        }
        match self {
            Geom::Window(r) => Ok(Geom::Sampled {
                x: shifted(axis_map(r.w, w), r.x),
                y: shifted(axis_map(r.h, h), r.y),
            }),
            // Each resample rounds to u8, so two of them do not compose into
            // one set of sample maps. No planner-emitted chain does this.
            Geom::Sampled { .. } => Err(Error::InvalidPlan(
                "CPU prefix resamples twice; it cannot be compiled into one pass".into(),
            )),
        }
    }

    fn center_crop(self, w: usize, h: usize) -> Result<Geom> {
        let (cur_w, cur_h) = self.dims();
        let r = Rect::centered(cur_w, cur_h, w, h);
        if r.w == 0 || r.h == 0 {
            return Err(Error::EmptyDimension { op: "crop_u8" });
        }
        Ok(match self {
            Geom::Window(win) => Geom::Window(Rect::new(win.x + r.x, win.y + r.y, r.w, r.h)),
            Geom::Sampled { x, y } => Geom::Sampled {
                x: sliced(&x, r.x, r.w),
                y: sliced(&y, r.y, r.h),
            },
        })
    }
}

fn shifted(mut map: AxisMap, by: usize) -> AxisMap {
    for v in map.lo.iter_mut().chain(map.hi.iter_mut()) {
        *v += by as u32;
    }
    map
}

fn sliced(map: &AxisMap, start: usize, len: usize) -> AxisMap {
    AxisMap {
        lo: map.lo[start..start + len].to_vec(),
        hi: map.hi[start..start + len].to_vec(),
        frac: map.frac[start..start + len].to_vec(),
    }
}

/// The sample maps of a pure window: every output pixel is one source pixel.
fn unit_map(start: usize, len: usize) -> AxisMap {
    let idx: Vec<u32> = (start..start + len).map(|i| i as u32).collect();
    AxisMap {
        lo: idx.clone(),
        hi: idx,
        frac: vec![0.0; len],
    }
}

/// Shortest stretch of output pixels the segment builder makes a
/// [`Segment::Run`]. An upscale's x map advances both taps by one only where
/// `lo` steps to the next source pixel, in stretches of one or two pixels,
/// and walking those as runs costs more than it saves: at 2 the 80 → 224
/// prefix ran 1.26–1.37× slower than the per-pixel walk; at 8, 180 → 224
/// (stretches of four or five) lost most of its gain.
const MIN_RUN: usize = 4;

/// One stretch of a [`SegmentedMap`], in output order.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// `len` output pixels whose taps both advance one source pixel per
    /// output pixel: they blend source pixels `lo..lo + len` with
    /// `hi..hi + len`, two contiguous slices of the source row.
    Run { lo: usize, hi: usize, len: usize },
    /// `len` output pixels interpolated one by one from the map's taps.
    Taps { len: usize },
}

impl Segment {
    fn len(self) -> usize {
        match self {
            Segment::Run { len, .. } | Segment::Taps { len } => len,
        }
    }
}

/// The x sample map cut into [`Segment`]s, so the horizontal pass reads
/// runs as slices and gathers pixel by pixel only where the taps repeat or
/// jump (upscales, downscales and clamped edge columns).
#[derive(Debug)]
struct SegmentedMap {
    map: AxisMap,
    segments: Vec<Segment>,
    /// `map.frac[d]` at every element `3d + c` of an interleaved row: a
    /// run's fractions are one contiguous slice, like its pixels.
    fx: Vec<f32>,
}

impl SegmentedMap {
    fn new(map: AxisMap) -> Self {
        let n = map.lo.len();
        let advances = |d: usize| map.lo[d] == map.lo[d - 1] + 1 && map.hi[d] == map.hi[d - 1] + 1;
        let mut segments = Vec::new();
        let (mut d, mut taps) = (0, 0);
        while d < n {
            let len = 1 + (d + 1..n).take_while(|&e| advances(e)).count();
            if len >= MIN_RUN {
                if taps > 0 {
                    segments.push(Segment::Taps { len: taps });
                    taps = 0;
                }
                let (lo, hi) = (map.lo[d] as usize, map.hi[d] as usize);
                segments.push(Segment::Run { lo, hi, len });
            } else {
                taps += len;
            }
            d += len;
        }
        if taps > 0 {
            segments.push(Segment::Taps { len: taps });
        }
        let fx = map.frac.iter().flat_map(|&f| [f; 3]).collect();
        SegmentedMap { map, segments, fx }
    }

    /// Horizontally interpolates one interleaved RGB source row into
    /// interleaved `dst` (`3 × out_w`), in `resize_bilinear_u8`'s operation
    /// order: every element is `p0 + (p1 − p0)·fx`, whichever segment it is
    /// in.
    #[inline(always)]
    fn hlerp_row(&self, srow: &[u8], dst: &mut [f32]) {
        let mut d = 0;
        for &seg in &self.segments {
            let len = seg.len();
            let out = &mut dst[3 * d..3 * (d + len)];
            match seg {
                Segment::Run { lo, hi, .. } => {
                    let (p0, p1) = (&srow[3 * lo..][..3 * len], &srow[3 * hi..][..3 * len]);
                    let fx = &self.fx[3 * d..3 * (d + len)];
                    for (((o, &a), &b), &f) in out.iter_mut().zip(p0).zip(p1).zip(fx) {
                        *o = a as f32 + (b as f32 - a as f32) * f;
                    }
                }
                Segment::Taps { .. } => {
                    let m = &self.map;
                    let taps = (&m.lo[d..d + len], &m.hi[d..d + len], &m.frac[d..d + len]);
                    lerp_taps(taps, srow, out);
                }
            }
            d += len;
        }
    }
}

/// The per-pixel arm of [`SegmentedMap::hlerp_row`]: each output pixel
/// gathers its two taps. A function of its own: written inline in the
/// walker's `match`, the loop compiled to code that ran the all-taps
/// 80 → 224 byte-staging prefix ≈ 9 % slower.
#[inline(always)]
fn lerp_taps((lo, hi, frac): (&[u32], &[u32], &[f32]), srow: &[u8], dst: &mut [f32]) {
    let taps = lo.iter().zip(hi).zip(frac);
    for (o, ((&x0, &x1), &fx)) in dst.chunks_exact_mut(3).zip(taps) {
        let (p0, p1) = (&srow[x0 as usize * 3..][..3], &srow[x1 as usize * 3..][..3]);
        o[0] = p0[0] as f32 + (p1[0] as f32 - p0[0] as f32) * fx;
        o[1] = p0[1] as f32 + (p1[1] as f32 - p0[1] as f32) * fx;
        o[2] = p0[2] as f32 + (p1[2] as f32 - p0[2] as f32) * fx;
    }
}

/// `(x as u8) as f32` for `0 ≤ x < 256`, without the saturating float→int
/// cast (which does not vectorize): adding and subtracting 2²³ rounds `x`
/// to the nearest integer in f32 arithmetic, and stepping back when that
/// rounded up gives the truncation the cast performs.
#[inline(always)]
fn trunc_u8_range(x: f32) -> f32 {
    let r = (x + TWO_POW_23) - TWO_POW_23;
    if r > x {
        r - 1.0
    } else {
        r
    }
}

const TWO_POW_23: f32 = 8_388_608.0;

/// `x as u8` for `0 ≤ x < 256`, again without the saturating cast: `x + 2²³`
/// holds `x` rounded to the nearest integer in its low mantissa bits, one
/// above the truncation exactly when the rounding went up.
#[inline(always)]
fn to_u8_range(x: f32) -> u8 {
    let s = x + TWO_POW_23;
    let rounded_up = s - TWO_POW_23 > x;
    s.to_bits().wrapping_sub(rounded_up as u32) as u8
}

/// The CPU-placed prefix of a [`PreprocPlan`], compiled for one source
/// geometry: a source window and its sample maps, the x map already cut
/// into runs and taps. Immutable after [`CompiledPrefix::compile`], so one
/// instance is shared by every producer thread of a plan.
#[derive(Debug)]
pub struct CompiledPrefix {
    src_w: usize,
    src_h: usize,
    out_w: usize,
    out_h: usize,
    /// The x map cut into segments and the y sample map, in source pixels;
    /// `None` on the identity path.
    maps: Option<(SegmentedMap, AxisMap)>,
    staging: Staging,
    norm: Normalization,
    accel_ops: f64,
}

impl CompiledPrefix {
    /// Compiles the operators of `plan` that precede its first
    /// accelerator-placed one, for `src_w × src_h` RGB sources.
    pub fn compile(
        plan: &PreprocPlan,
        src_w: usize,
        src_h: usize,
        norm: &Normalization,
    ) -> Result<Self> {
        if src_w == 0 || src_h == 0 {
            return Err(Error::EmptyDimension {
                op: "CompiledPrefix::compile",
            });
        }
        let split = plan
            .ops
            .iter()
            .position(|o| o.placement == Placement::Accel)
            .unwrap_or(plan.ops.len());
        let accel_ops = plan_op_costs(plan, src_w, src_h)[split..]
            .iter()
            .map(|c| c.weighted_ops)
            .sum();

        let mut geom = Geom::Window(Rect::new(0, 0, src_w, src_h));
        let mut staging = Staging::Bytes;
        for op in &plan.ops[..split] {
            let (w, h) = geom.dims();
            geom = match &op.spec {
                OpSpec::ResizeShortEdge { short } => {
                    let (tw, th) = scaled_dims(w, h, *short as usize);
                    geom.resize(tw, th)?
                }
                OpSpec::ResizeExact { w: tw, h: th } => geom.resize(*tw as usize, *th as usize)?,
                OpSpec::CenterCrop { w: cw, h: ch } => {
                    geom.center_crop(*cw as usize, *ch as usize)?
                }
                OpSpec::FusedCropResize {
                    short,
                    w: tw,
                    h: th,
                } => {
                    // The source window whose image under
                    // resize-short-edge(short) is the centered tw×th crop.
                    let scale = w.min(h) as f64 / (*short as f64).max(1.0);
                    let cw = (((*tw as f64) * scale).round() as usize).clamp(1, w);
                    let ch = (((*th as f64) * scale).round() as usize).clamp(1, h);
                    geom.center_crop(cw, ch)?
                        .resize(*tw as usize, *th as usize)?
                }
                OpSpec::ConvertF32
                | OpSpec::Normalize
                | OpSpec::ChannelSplit
                | OpSpec::Fused(_) => {
                    // Elementwise tail on the CPU: one fused write. Any
                    // further CPU elementwise ops are part of the same pass.
                    staging = Staging::Tensor;
                    break;
                }
            };
        }

        let (out_w, out_h) = geom.dims();
        let maps = match geom {
            Geom::Window(r) if (r.w, r.h) == (src_w, src_h) => None,
            Geom::Window(r) => Some((unit_map(r.x, r.w), unit_map(r.y, r.h))),
            Geom::Sampled { x, y } => Some((x, y)),
        }
        .map(|(x, y)| (SegmentedMap::new(x), y));
        Ok(CompiledPrefix {
            src_w,
            src_h,
            out_w,
            out_h,
            maps,
            staging,
            norm: *norm,
            accel_ops,
        })
    }

    /// Source geometry this prefix was compiled for.
    pub fn src_dims(&self) -> (usize, usize) {
        (self.src_w, self.src_h)
    }

    /// Geometry of the staged output.
    pub fn out_dims(&self) -> (usize, usize) {
        (self.out_w, self.out_h)
    }

    /// Elements the staging slot holds (`out_w × out_h × 3`): f32 values for
    /// [`CompiledPrefix::run_into`], bytes for
    /// [`CompiledPrefix::run_into_bytes`].
    pub fn out_elems(&self) -> usize {
        self.out_w * self.out_h * 3
    }

    /// True when no geometric work runs: the source already has the output
    /// geometry and only the elementwise pass touches the pixels.
    pub fn is_identity(&self) -> bool {
        self.maps.is_none()
    }

    /// True when the prefix stages the u8 intermediate
    /// ([`CompiledPrefix::run_into_bytes`]) because the plan's elementwise
    /// tail is accelerator-placed (or absent); false when it stages the
    /// normalized tensor ([`CompiledPrefix::run_into`]).
    pub fn stages_bytes(&self) -> bool {
        self.staging == Staging::Bytes
    }

    /// Bytes the staging slot holds and the consumer copies to the device:
    /// f32 tensors, or the 4× smaller u8 intermediate when the elementwise
    /// tail is accelerator-placed.
    pub fn transfer_bytes(&self) -> usize {
        match self.staging {
            Staging::Tensor => self.out_elems() * std::mem::size_of::<f32>(),
            Staging::Bytes => self.out_elems(),
        }
    }

    /// Weighted-op cost of the accelerator-placed remainder of the plan.
    pub fn accel_ops(&self) -> f64 {
        self.accel_ops
    }

    /// Runs a tensor-staging prefix on `img`, filling `out` completely.
    /// `img` must have the compiled source geometry and `out` exactly
    /// [`CompiledPrefix::out_elems`] elements — a staging buffer sized for a
    /// different geometry is a [`Error::ShapeMismatch`], never a partial
    /// write.
    pub fn run_into(&self, img: &ImageU8, out: &mut [f32]) -> Result<()> {
        self.check(img, out.len(), Staging::Tensor)?;
        let tier = Tier::detect();
        let Some((x, y)) = &self.maps else {
            return tier.run(FusedTail {
                img,
                norm: &self.norm,
                out,
            });
        };
        let (scale, bias) = self.norm.affine();
        let (ow, plane) = (self.out_w, self.out_w * self.out_h);
        let rows = TensorRows {
            out,
            ow,
            plane,
            scale,
            bias,
        };
        tier.run(Resample {
            prefix: self,
            x,
            y,
            img,
            rows,
        });
        Ok(())
    }

    /// [`CompiledPrefix::run_into`] for a byte-staging prefix: fills `out`
    /// with the interleaved u8 intermediate the accelerator-side tail reads.
    pub fn run_into_bytes(&self, img: &ImageU8, out: &mut [u8]) -> Result<()> {
        self.check(img, out.len(), Staging::Bytes)?;
        let Some((x, y)) = &self.maps else {
            out.copy_from_slice(img.data());
            return Ok(());
        };
        let rows = ByteRows {
            out,
            row_len: 3 * self.out_w,
        };
        Tier::detect().run(Resample {
            prefix: self,
            x,
            y,
            img,
            rows,
        });
        Ok(())
    }

    /// The preconditions both entry points share; `asked` is the staging the
    /// caller's slot is for.
    fn check(&self, img: &ImageU8, out_len: usize, asked: Staging) -> Result<()> {
        if asked != self.staging {
            return Err(Error::InvalidPlan(format!(
                "the prefix stages {:?}, the slot is for {asked:?}",
                self.staging
            )));
        }
        if img.channels() != 3 {
            return Err(Error::UnsupportedChannels {
                channels: img.channels(),
                op: "CompiledPrefix::run_into",
            });
        }
        if (img.width(), img.height()) != (self.src_w, self.src_h) {
            return Err(Error::ShapeMismatch {
                expected: self.src_w * self.src_h * 3,
                actual: img.data().len(),
                context: "CompiledPrefix::run_into (source geometry)",
            });
        }
        if out_len != self.out_elems() {
            return Err(Error::ShapeMismatch {
                expected: self.out_elems(),
                actual: out_len,
                context: "CompiledPrefix::run_into (staging buffer)",
            });
        }
        Ok(())
    }

    /// The resample path. Output row `dy` blends the horizontally
    /// interpolated source rows `y.lo[dy]` and `y.hi[dy]`; consecutive output
    /// rows mostly share them, so the two most recent are kept.
    /// `rows.write_row(dy, fy, top, bot)` does the blend: the truncation of
    /// `t + (b − t)·fy + 0.5` is the u8 image the reference resize
    /// materializes (blends of u8 values stay in 0..=255).
    #[inline(always)]
    fn resample<R: RowWriter>(&self, x: &SegmentedMap, y: &AxisMap, img: &ImageU8, rows: &mut R) {
        let row_len = 3 * self.out_w;
        let src = img.data();
        let stride = self.src_w * 3;
        let mut scratch = ROW_SCRATCH.take();
        if scratch.len() < 3 * row_len {
            scratch.resize(3 * row_len, 0.0);
        }
        let (cache, spare) = scratch.split_at_mut(2 * row_len);
        let spare = &mut spare[..row_len];
        // Source row held by each scratch slot.
        let mut held = [usize::MAX; 2];
        for dy in 0..self.out_h {
            let (y0, y1, fy) = (y.lo[dy] as usize, y.hi[dy] as usize, y.frac[dy]);
            // The slot holding each interpolated row, filling the slot that
            // does not hold the other one when it is not cached.
            let mut slots = [0usize; 2];
            for (slot, (row, keep)) in slots.iter_mut().zip([(y0, y1), (y1, y0)]) {
                *slot = match held.iter().position(|&r| r == row) {
                    Some(s) => s,
                    None => {
                        let s = usize::from(held[0] == keep);
                        let srow = &src[row * stride..(row + 1) * stride];
                        let dst = &mut cache[s * row_len..(s + 1) * row_len];
                        R::cache_row(x, srow, dst, spare);
                        held[s] = row;
                        s
                    }
                };
            }
            let top = &cache[slots[0] * row_len..(slots[0] + 1) * row_len];
            let bot = &cache[slots[1] * row_len..(slots[1] + 1) * row_len];
            rows.write_row(dy, fy, top, bot);
        }
        ROW_SCRATCH.set(scratch);
    }
}

/// The two passes of the resample path, per staging kind.
trait RowWriter {
    /// Horizontally interpolates source row `srow` into the cache slot
    /// `dst`, in the layout [`RowWriter::write_row`] reads; `spare` is one
    /// more row of scratch.
    fn cache_row(x: &SegmentedMap, srow: &[u8], dst: &mut [f32], spare: &mut [f32]);
    /// Blends `top` and `bot` at `fy` into output row `dy`. Implementations
    /// are `#[inline(always)]`, so the blend compiles for the kernel's tier.
    fn write_row(&mut self, dy: usize, fy: f32, top: &[f32], bot: &[f32]);
}

/// Tensor staging: normalized planar f32.
struct TensorRows<'a> {
    out: &'a mut [f32],
    ow: usize,
    plane: usize,
    scale: [f32; 3],
    bias: [f32; 3],
}

impl RowWriter for TensorRows<'_> {
    /// Interpolates interleaved into `spare`, then splits that into the
    /// planar slot: once per source row, so the blend of every output row
    /// reads and writes each plane contiguously.
    #[inline(always)]
    fn cache_row(x: &SegmentedMap, srow: &[u8], dst: &mut [f32], spare: &mut [f32]) {
        x.hlerp_row(srow, spare);
        let ow = dst.len() / 3;
        let (h0, rest) = dst.split_at_mut(ow);
        let (h1, h2) = rest.split_at_mut(ow);
        let planes = h0.iter_mut().zip(h1).zip(h2);
        for (((o0, o1), o2), p) in planes.zip(spare.chunks_exact(3)) {
            (*o0, *o1, *o2) = (p[0], p[1], p[2]);
        }
    }

    #[inline(always)]
    fn write_row(&mut self, dy: usize, fy: f32, top: &[f32], bot: &[f32]) {
        let (ow, plane) = (self.ow, self.plane);
        for c in 0..3 {
            let dst = &mut self.out[c * plane + dy * ow..c * plane + (dy + 1) * ow];
            let rows = top[c * ow..(c + 1) * ow]
                .iter()
                .zip(&bot[c * ow..(c + 1) * ow]);
            // The multiply-add is the fused kernel's.
            let (s, k) = (self.scale[c], self.bias[c]);
            for (o, (&t, &b)) in dst.iter_mut().zip(rows) {
                *o = trunc_u8_range(t + (b - t) * fy + 0.5) * s + k;
            }
        }
    }
}

/// Byte staging: the interleaved u8 intermediate.
struct ByteRows<'a> {
    out: &'a mut [u8],
    row_len: usize,
}

impl RowWriter for ByteRows<'_> {
    #[inline(always)]
    fn cache_row(x: &SegmentedMap, srow: &[u8], dst: &mut [f32], _spare: &mut [f32]) {
        x.hlerp_row(srow, dst);
    }

    #[inline(always)]
    fn write_row(&mut self, dy: usize, fy: f32, top: &[f32], bot: &[f32]) {
        let dst = &mut self.out[dy * self.row_len..(dy + 1) * self.row_len];
        for ((o, &t), &b) in dst.iter_mut().zip(top).zip(bot) {
            *o = to_u8_range(t + (b - t) * fy + 0.5);
        }
    }
}

/// The resample path as a [`Kernel`].
struct Resample<'a, R> {
    prefix: &'a CompiledPrefix,
    x: &'a SegmentedMap,
    y: &'a AxisMap,
    img: &'a ImageU8,
    rows: R,
}

impl<R: RowWriter> Kernel for Resample<'_, R> {
    type Output = ();

    #[inline(always)]
    fn run(mut self) {
        self.prefix
            .resample(self.x, self.y, self.img, &mut self.rows);
    }
}

/// The identity path of a tensor-staging prefix as a [`Kernel`]: the fused
/// convert/normalize/split pass alone.
struct FusedTail<'a> {
    img: &'a ImageU8,
    norm: &'a Normalization,
    out: &'a mut [f32],
}

impl Kernel for FusedTail<'_> {
    type Output = Result<()>;

    #[inline(always)]
    fn run(self) -> Result<()> {
        fused_convert_normalize_split_into(self.img, self.norm, self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i * 31 % 251) as u8;
        }
        img
    }

    // Bit identity with the reference interpreter over shapes, placements
    // and geometries is the workspace's `tests/prefix_properties.rs`.

    /// Every output pixel is in exactly one segment, in order; a run holds
    /// only pixels whose taps both advance by one, and is never shorter than
    /// [`MIN_RUN`]; a taps segment holds no such stretch of that length.
    #[test]
    fn segments_cover_the_map_once_in_order_and_runs_only_advance() {
        let maps = [
            ("215->224", axis_map(215, 224), 0.9),
            ("63->64", axis_map(63, 64), 0.9),
            ("80->224", axis_map(80, 224), 0.0),
            ("1->224", axis_map(1, 224), 0.0),
            ("224->7", axis_map(224, 7), 0.0),
            ("crop", unit_map(5, 64), 1.0),
            (
                "cropped resize",
                sliced(&shifted(axis_map(100, 90), 3), 10, 70),
                0.9,
            ),
        ];
        for (name, map, min_run_share) in maps {
            let (lo, hi) = (map.lo.clone(), map.hi.clone());
            let advances = |d: usize| lo[d] == lo[d - 1] + 1 && hi[d] == hi[d - 1] + 1;
            let segmented = SegmentedMap::new(map);
            let (mut d, mut in_runs) = (0, 0);
            for &seg in &segmented.segments {
                let len = seg.len();
                assert!(len > 0, "{name}: empty segment");
                match seg {
                    Segment::Run { lo: l, hi: h, len } => {
                        assert!(len >= MIN_RUN, "{name}: run of {len} at {d}");
                        for i in 0..len {
                            assert_eq!(
                                (lo[d + i], hi[d + i]),
                                ((l + i) as u32, (h + i) as u32),
                                "{name}: pixel {} is not on the run at {d}",
                                d + i
                            );
                        }
                        in_runs += len;
                    }
                    Segment::Taps { len } => {
                        let mut stretch = 1;
                        for e in d + 1..d + len {
                            stretch = if advances(e) { stretch + 1 } else { 1 };
                            assert!(stretch < MIN_RUN, "{name}: taps at {d} hide a run");
                        }
                    }
                }
                d += len;
            }
            assert_eq!(d, lo.len(), "{name}: segments cover {d} pixels");
            assert!(
                !segmented
                    .segments
                    .windows(2)
                    .any(|w| matches!(w, [Segment::Taps { .. }, Segment::Taps { .. }])),
                "{name}: adjacent taps segments are one segment"
            );
            let share = in_runs as f64 / lo.len() as f64;
            assert!(
                share >= min_run_share && (min_run_share > 0.0 || share == 0.0),
                "{name}: {share:.2} of the row in runs"
            );
            assert_eq!(segmented.fx.len(), 3 * lo.len());
        }
    }

    #[test]
    fn wrong_source_or_buffer_geometry_is_a_shape_mismatch() {
        let plan = PreprocPlan::thumbnail(32, 32);
        let prefix = CompiledPrefix::compile(&plan, 48, 40, &Normalization::UNIT).unwrap();
        let mut out = vec![0.0; prefix.out_elems()];
        assert!(matches!(
            prefix.run_into(&patterned(40, 48), &mut out),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(matches!(
            prefix.run_into(&patterned(48, 40), &mut out[1..]),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(prefix.run_into(&patterned(48, 40), &mut out).is_ok());
    }

    #[test]
    fn a_slot_of_the_other_kind_is_an_invalid_plan_not_a_conversion() {
        let cpu_tail = PreprocPlan::thumbnail(32, 32);
        let accel_tail = cpu_tail.clone().split_at(cpu_tail.tail_start());
        let img = patterned(48, 40);
        let (mut tensor, mut bytes) = (vec![0.0; 32 * 32 * 3], vec![0u8; 32 * 32 * 3]);

        let prefix = CompiledPrefix::compile(&cpu_tail, 48, 40, &Normalization::UNIT).unwrap();
        assert!(!prefix.stages_bytes());
        assert_eq!(
            (prefix.transfer_bytes(), prefix.accel_ops()),
            (4 * 3072, 0.0)
        );
        assert!(matches!(
            prefix.run_into_bytes(&img, &mut bytes),
            Err(Error::InvalidPlan(_))
        ));
        assert!(prefix.run_into(&img, &mut tensor).is_ok());

        let prefix = CompiledPrefix::compile(&accel_tail, 48, 40, &Normalization::UNIT).unwrap();
        assert!(prefix.stages_bytes());
        assert_eq!(prefix.transfer_bytes(), 3072);
        assert!(prefix.accel_ops() > 0.0);
        assert!(matches!(
            prefix.run_into(&img, &mut tensor),
            Err(Error::InvalidPlan(_))
        ));
        assert!(prefix.run_into_bytes(&img, &mut bytes).is_ok());
    }
}
