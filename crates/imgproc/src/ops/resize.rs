//! Bilinear resize kernels (u8 and f32) and the aspect-preserving
//! short-edge resize used by the standard ResNet preprocessing pipeline.

use crate::error::{Error, Result};
use crate::image::{ImageU8, Layout, TensorF32};

/// Output dimensions of an aspect-preserving resize where the short edge
/// becomes `short`.
///
/// Matches the convention in §2 step (2): "resize ... such that the short
/// edge of the image is 256 pixels".
pub fn scaled_dims(width: usize, height: usize, short: usize) -> (usize, usize) {
    if width <= height {
        let h = (height * short).div_ceil(width.max(1));
        (short, h)
    } else {
        let w = (width * short).div_ceil(height.max(1));
        (w, short)
    }
}

/// Precomputed sampling positions for one output axis: output index `d`
/// blends source indices `lo[d]` and `hi[d]` with weight `frac[d]`.
#[derive(Debug)]
pub(crate) struct AxisMap {
    pub(crate) lo: Vec<u32>,
    pub(crate) hi: Vec<u32>,
    pub(crate) frac: Vec<f32>,
}

pub(crate) fn axis_map(src: usize, dst: usize) -> AxisMap {
    // Half-pixel-centered mapping (the OpenCV / standard convention).
    let scale = src as f32 / dst as f32;
    let mut lo = Vec::with_capacity(dst);
    let mut hi = Vec::with_capacity(dst);
    let mut frac = Vec::with_capacity(dst);
    for d in 0..dst {
        let s = ((d as f32 + 0.5) * scale - 0.5).max(0.0);
        let l = (s as usize).min(src - 1);
        let h = (l + 1).min(src - 1);
        lo.push(l as u32);
        hi.push(h as u32);
        frac.push(s - l as f32);
    }
    AxisMap { lo, hi, frac }
}

/// Bilinear resize of an interleaved u8 image to `dst_w × dst_h`.
pub fn resize_bilinear_u8(img: &ImageU8, dst_w: usize, dst_h: usize) -> Result<ImageU8> {
    if dst_w == 0 || dst_h == 0 || img.width() == 0 || img.height() == 0 {
        return Err(Error::EmptyDimension {
            op: "resize_bilinear_u8",
        });
    }
    let c = img.channels();
    let (sw, _sh) = (img.width(), img.height());
    let xmap = axis_map(img.width(), dst_w);
    let ymap = axis_map(img.height(), dst_h);
    let mut out = ImageU8::zeros(dst_w, dst_h, c);
    let src = img.data();
    let dst = out.data_mut();
    let src_stride = sw * c;
    for dy in 0..dst_h {
        let y0 = ymap.lo[dy] as usize;
        let y1 = ymap.hi[dy] as usize;
        let fy = ymap.frac[dy];
        let row0 = &src[y0 * src_stride..y0 * src_stride + src_stride];
        let row1 = &src[y1 * src_stride..y1 * src_stride + src_stride];
        let drow = &mut dst[dy * dst_w * c..(dy + 1) * dst_w * c];
        for dx in 0..dst_w {
            let x0 = xmap.lo[dx] as usize * c;
            let x1 = xmap.hi[dx] as usize * c;
            let fx = xmap.frac[dx];
            for ch in 0..c {
                let p00 = row0[x0 + ch] as f32;
                let p01 = row0[x1 + ch] as f32;
                let p10 = row1[x0 + ch] as f32;
                let p11 = row1[x1 + ch] as f32;
                let top = p00 + (p01 - p00) * fx;
                let bot = p10 + (p11 - p10) * fx;
                let v = top + (bot - top) * fy;
                drow[dx * c + ch] = (v + 0.5) as u8;
            }
        }
    }
    Ok(out)
}

/// Bilinear resize of an HWC float tensor to `dst_w × dst_h`.
///
/// Present so the DAG optimizer can *cost* the (pruned-away) plan variant
/// that resizes after `f32` conversion; rule (2) of §6.2 says INT8 resizing
/// is cheaper, so optimized plans never pick this, but correctness tests
/// compare both orderings.
pub fn resize_bilinear_f32(t: &TensorF32, dst_w: usize, dst_h: usize) -> Result<TensorF32> {
    if t.layout() != Layout::Hwc {
        return Err(Error::InvalidPlan(
            "resize_bilinear_f32 requires HWC layout".into(),
        ));
    }
    if dst_w == 0 || dst_h == 0 || t.width() == 0 || t.height() == 0 {
        return Err(Error::EmptyDimension {
            op: "resize_bilinear_f32",
        });
    }
    let c = t.channels();
    let xmap = axis_map(t.width(), dst_w);
    let ymap = axis_map(t.height(), dst_h);
    let mut out = TensorF32::zeros(dst_w, dst_h, c, Layout::Hwc);
    let src = t.data();
    let src_stride = t.width() * c;
    let dst = out.data_mut();
    for dy in 0..dst_h {
        let y0 = ymap.lo[dy] as usize;
        let y1 = ymap.hi[dy] as usize;
        let fy = ymap.frac[dy];
        let row0 = &src[y0 * src_stride..y0 * src_stride + src_stride];
        let row1 = &src[y1 * src_stride..y1 * src_stride + src_stride];
        let drow = &mut dst[dy * dst_w * c..(dy + 1) * dst_w * c];
        for dx in 0..dst_w {
            let x0 = xmap.lo[dx] as usize * c;
            let x1 = xmap.hi[dx] as usize * c;
            let fx = xmap.frac[dx];
            for ch in 0..c {
                let top = row0[x0 + ch] + (row0[x1 + ch] - row0[x0 + ch]) * fx;
                let bot = row1[x0 + ch] + (row1[x1 + ch] - row1[x0 + ch]) * fx;
                drow[dx * c + ch] = top + (bot - top) * fy;
            }
        }
    }
    Ok(out)
}

/// Aspect-preserving resize so that the short edge equals `short`.
pub fn resize_short_edge_u8(img: &ImageU8, short: usize) -> Result<ImageU8> {
    let (w, h) = scaled_dims(img.width(), img.height(), short);
    resize_bilinear_u8(img, w, h)
}

/// Box (average-pooling) downsample by an integer `factor`; output is
/// `ceil(w/factor) × ceil(h/factor)`, edge cells averaging only in-bounds
/// pixels. This is the post-decode reference a fused reduced-resolution
/// decode (scaled IDCT, `smol_codec::sjpg::decode_scaled`) is judged
/// against, and the fallback for codecs without multi-resolution decoding.
pub fn box_downsample_u8(img: &ImageU8, factor: usize) -> Result<ImageU8> {
    if factor == 0 || img.width() == 0 || img.height() == 0 {
        return Err(Error::EmptyDimension {
            op: "box_downsample_u8",
        });
    }
    if factor == 1 {
        return Ok(img.clone());
    }
    let c = img.channels();
    let (ow, oh) = (img.width().div_ceil(factor), img.height().div_ceil(factor));
    let mut out = ImageU8::zeros(ow, oh, c);
    for y in 0..oh {
        let y0 = y * factor;
        let y1 = (y0 + factor).min(img.height());
        for x in 0..ow {
            let x0 = x * factor;
            let x1 = (x0 + factor).min(img.width());
            let count = ((y1 - y0) * (x1 - x0)) as u32;
            for ch in 0..c {
                let mut acc = 0u32;
                for sy in y0..y1 {
                    for sx in x0..x1 {
                        acc += img.at(sx, sy, ch) as u32;
                    }
                }
                out.set(x, y, ch, ((acc + count / 2) / count) as u8);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, 0, (x * 255 / w.max(1)) as u8);
                img.set(x, y, 1, (y * 255 / h.max(1)) as u8);
                img.set(x, y, 2, 128);
            }
        }
        img
    }

    #[test]
    fn scaled_dims_short_edge_becomes_target() {
        assert_eq!(scaled_dims(640, 480, 256), (342, 256));
        assert_eq!(scaled_dims(480, 640, 256), (256, 342));
        assert_eq!(scaled_dims(256, 256, 161), (161, 161));
    }

    #[test]
    fn identity_resize_is_exact() {
        let img = gradient(16, 12);
        let out = resize_bilinear_u8(&img, 16, 12).unwrap();
        assert_eq!(img.data(), out.data());
    }

    #[test]
    fn constant_image_stays_constant() {
        let img = ImageU8::from_vec(9, 7, 3, vec![200; 9 * 7 * 3]).unwrap();
        let out = resize_bilinear_u8(&img, 23, 5).unwrap();
        assert!(out.data().iter().all(|&v| v == 200));
    }

    #[test]
    fn downscale_preserves_gradient_direction() {
        let img = gradient(64, 64);
        let out = resize_bilinear_u8(&img, 16, 16).unwrap();
        for y in 0..16 {
            for x in 1..16 {
                assert!(out.at(x, y, 0) >= out.at(x - 1, y, 0));
            }
        }
    }

    #[test]
    fn zero_target_rejected() {
        let img = gradient(8, 8);
        assert!(resize_bilinear_u8(&img, 0, 4).is_err());
    }

    #[test]
    fn f32_resize_matches_u8_resize_closely() {
        let img = gradient(32, 24);
        let as_f32 = crate::ops::layout::to_f32(&img);
        let a = resize_bilinear_u8(&img, 10, 9).unwrap();
        let b = resize_bilinear_f32(&as_f32, 10, 9).unwrap();
        for y in 0..9 {
            for x in 0..10 {
                for c in 0..3 {
                    let d = (a.at(x, y, c) as f32 - b.at(x, y, c)).abs();
                    assert!(d <= 1.0, "x={x} y={y} c={c} d={d}");
                }
            }
        }
    }

    #[test]
    fn short_edge_resize_hits_target() {
        let img = gradient(100, 80);
        let out = resize_short_edge_u8(&img, 40).unwrap();
        assert_eq!(out.height(), 40);
        assert_eq!(out.width(), 50);
    }

    #[test]
    fn box_downsample_dims_and_averaging() {
        let img = gradient(64, 48);
        let out = box_downsample_u8(&img, 4).unwrap();
        assert_eq!((out.width(), out.height()), (16, 12));
        // Cell (0,0) averages x in 0..4 → red mean of (0+1+2+3)*255/64 / 4.
        let expect: u32 = (0..4).map(|x| (x * 255 / 64) as u32).sum::<u32>() / 4;
        assert!((out.at(0, 0, 0) as i32 - expect as i32).abs() <= 1);
        // Constant channel stays constant.
        assert!(out.data().iter().skip(2).step_by(3).all(|&v| v == 128));
    }

    #[test]
    fn box_downsample_clips_edge_cells() {
        let img = gradient(10, 7);
        let out = box_downsample_u8(&img, 4).unwrap();
        assert_eq!((out.width(), out.height()), (3, 2));
    }

    #[test]
    fn box_downsample_factor_one_is_identity() {
        let img = gradient(9, 5);
        let out = box_downsample_u8(&img, 1).unwrap();
        assert_eq!(img.data(), out.data());
    }

    #[test]
    fn box_downsample_rejects_zero_factor() {
        assert!(box_downsample_u8(&gradient(8, 8), 0).is_err());
    }
}
