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
//! straight into the caller's staging buffer:
//!
//! * **identity** — the window is the whole image and nothing resamples:
//!   only the fused convert/normalize/split pass runs;
//! * **resample** — horizontally interpolated source rows are cached and
//!   reused across output rows; the vertical blend, u8 rounding,
//!   normalization, and planar write happen in the same loop.
//!
//! Both use the f32 operation order of [`resize_bilinear_u8`] followed by
//! [`fused_convert_normalize_split_into`], so the staged tensor is
//! bit-identical to [`crate::dag::execute_plan`], which stays the reference
//! the property tests compare against.
//!
//! [`resize_bilinear_u8`]: crate::ops::resize::resize_bilinear_u8

use crate::dag::{plan_op_costs, OpSpec, Placement, PreprocPlan};
use crate::error::{Error, Result};
use crate::image::{ImageU8, Rect};
use crate::ops::fused::fused_convert_normalize_split_into;
use crate::ops::normalize::Normalization;
use crate::ops::resize::{axis_map, scaled_dims, AxisMap};
use std::cell::RefCell;

thread_local! {
    /// Two horizontally interpolated source rows (planar, `3 × out_w` each).
    /// Grows to the widest output a thread has produced and is then reused,
    /// so steady-state execution allocates nothing.
    static ROW_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// What the prefix leaves in the staging buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Staging {
    /// The elementwise tail runs on the CPU: normalized planar (CHW) f32.
    Tensor,
    /// The tail is accelerator-placed: the u8 intermediate's interleaved
    /// bytes, carried as f32 values (the *transfer* is charged at u8 width).
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

/// Horizontally interpolates one interleaved RGB source row into planar
/// `dst` (`3 × out_w`), in `resize_bilinear_u8`'s operation order.
fn hlerp_row(x: &AxisMap, srow: &[u8], dst: &mut [f32]) {
    let ow = x.lo.len();
    let (h0, rest) = dst.split_at_mut(ow);
    let (h1, h2) = rest.split_at_mut(ow);
    let taps = x.lo.iter().zip(&x.hi).zip(&x.frac);
    let planes = h0.iter_mut().zip(h1).zip(h2);
    for (((o0, o1), o2), ((&x0, &x1), &fx)) in planes.zip(taps) {
        let (p0, p1) = (&srow[x0 as usize * 3..][..3], &srow[x1 as usize * 3..][..3]);
        *o0 = p0[0] as f32 + (p1[0] as f32 - p0[0] as f32) * fx;
        *o1 = p0[1] as f32 + (p1[1] as f32 - p0[1] as f32) * fx;
        *o2 = p0[2] as f32 + (p1[2] as f32 - p0[2] as f32) * fx;
    }
}

/// `(x as u8) as f32` for `0 ≤ x < 256`, without the saturating float→int
/// cast (which does not vectorize): adding and subtracting 2²³ rounds `x`
/// to the nearest integer in f32 arithmetic, and stepping back when that
/// rounded up gives the truncation the cast performs.
#[inline(always)]
fn trunc_u8_range(x: f32) -> f32 {
    const TWO_POW_23: f32 = 8_388_608.0;
    let r = (x + TWO_POW_23) - TWO_POW_23;
    if r > x {
        r - 1.0
    } else {
        r
    }
}

/// The CPU-placed prefix of a [`PreprocPlan`], compiled for one source
/// geometry. Immutable after [`CompiledPrefix::compile`], so one instance
/// is shared by every producer thread of a plan.
#[derive(Debug)]
pub struct CompiledPrefix {
    src_w: usize,
    src_h: usize,
    out_w: usize,
    out_h: usize,
    /// The x and y sample maps, in source pixels; `None` on the identity path.
    maps: Option<(AxisMap, AxisMap)>,
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
        };
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

    /// Elements [`CompiledPrefix::run_into`] writes (`out_w × out_h × 3`).
    pub fn out_elems(&self) -> usize {
        self.out_w * self.out_h * 3
    }

    /// True when no geometric work runs: the source already has the output
    /// geometry and only the elementwise pass touches the pixels.
    pub fn is_identity(&self) -> bool {
        self.maps.is_none()
    }

    /// Bytes the consumer must copy to the device: f32 tensors, or u8-width
    /// intermediates when the elementwise tail is accelerator-placed.
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

    /// Runs the prefix on `img`, filling `out` completely. `img` must have
    /// the compiled source geometry and `out` exactly
    /// [`CompiledPrefix::out_elems`] elements — a staging buffer sized for a
    /// different geometry is a [`Error::ShapeMismatch`], never a partial
    /// write.
    pub fn run_into(&self, img: &ImageU8, out: &mut [f32]) -> Result<()> {
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
        if out.len() != self.out_elems() {
            return Err(Error::ShapeMismatch {
                expected: self.out_elems(),
                actual: out.len(),
                context: "CompiledPrefix::run_into (staging buffer)",
            });
        }
        match (&self.maps, self.staging) {
            (None, Staging::Tensor) => fused_convert_normalize_split_into(img, &self.norm, out),
            (None, Staging::Bytes) => {
                for (o, v) in out.iter_mut().zip(img.data()) {
                    *o = *v as f32;
                }
                Ok(())
            }
            (Some((x, y)), _) => {
                ROW_SCRATCH
                    .with(|scratch| self.resample(x, y, img, &mut scratch.borrow_mut(), out));
                Ok(())
            }
        }
    }

    /// The resample path. Output row `dy` blends the horizontally
    /// interpolated source rows `y.lo[dy]` and `y.hi[dy]`; consecutive
    /// output rows mostly share them, so the two most recent are kept.
    fn resample(
        &self,
        x: &AxisMap,
        y: &AxisMap,
        img: &ImageU8,
        scratch: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let ow = self.out_w;
        let row_len = 3 * ow;
        if scratch.len() < 2 * row_len {
            scratch.resize(2 * row_len, 0.0);
        }
        let src = img.data();
        let stride = self.src_w * 3;
        // Source row held by each scratch slot.
        let mut held = [usize::MAX; 2];
        // Returns the slot holding the interpolated `row`, filling the slot
        // that does not hold `keep` when it is not cached.
        let hold = |row: usize, keep: usize, held: &mut [usize; 2], scratch: &mut [f32]| {
            if let Some(slot) = held.iter().position(|&r| r == row) {
                return slot;
            }
            let slot = usize::from(held[0] == keep);
            let srow = &src[row * stride..(row + 1) * stride];
            hlerp_row(x, srow, &mut scratch[slot * row_len..(slot + 1) * row_len]);
            held[slot] = row;
            slot
        };
        let (scale, bias) = self.norm.affine();
        let plane = ow * self.out_h;
        for dy in 0..self.out_h {
            let (y0, y1, fy) = (y.lo[dy] as usize, y.hi[dy] as usize, y.frac[dy]);
            let s0 = hold(y0, y1, &mut held, scratch);
            let s1 = hold(y1, y0, &mut held, scratch);
            let top = &scratch[s0 * row_len..(s0 + 1) * row_len];
            let bot = &scratch[s1 * row_len..(s1 + 1) * row_len];
            for c in 0..3 {
                let rows = top[c * ow..(c + 1) * ow]
                    .iter()
                    .zip(&bot[c * ow..(c + 1) * ow]);
                // The truncation of `v + 0.5` is the u8 image the reference
                // resize materializes (blends of u8 values stay in 0..=255);
                // the multiply-add below is the fused kernel's.
                let blend = |(&t, &b): (&f32, &f32)| trunc_u8_range(t + (b - t) * fy + 0.5);
                match self.staging {
                    Staging::Tensor => {
                        let dst = &mut out[c * plane + dy * ow..c * plane + (dy + 1) * ow];
                        let (s, k) = (scale[c], bias[c]);
                        for (o, tb) in dst.iter_mut().zip(rows) {
                            *o = blend(tb) * s + k;
                        }
                    }
                    Staging::Bytes => {
                        let dst = &mut out[dy * row_len..(dy + 1) * row_len];
                        for (o, tb) in dst.iter_mut().skip(c).step_by(3).zip(rows) {
                            *o = blend(tb);
                        }
                    }
                }
            }
        }
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
}
