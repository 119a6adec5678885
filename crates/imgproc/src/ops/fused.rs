//! Fused convert+normalize+split kernel.
//!
//! §6.2 rule (2): "normalization, data type conversion, and channel
//! reordering can be fused", and rule "fusion always improves performance".
//! This kernel reads the u8 HWC image once and writes the normalized f32 CHW
//! tensor once, eliminating two intermediate materializations. It can also
//! write into a caller-provided buffer so the runtime's buffer pool can reuse
//! pinned staging memory (§6.1).

use crate::error::{Error, Result};
use crate::image::{ImageU8, Layout, TensorF32};
use crate::ops::normalize::Normalization;

/// Fused u8-HWC → normalized f32-CHW kernel, allocating the output.
pub fn fused_convert_normalize_split(img: &ImageU8, n: &Normalization) -> Result<TensorF32> {
    let mut out = TensorF32::zeros(img.width(), img.height(), img.channels(), Layout::Chw);
    fused_convert_normalize_split_into(img, n, out.data_mut())?;
    Ok(out)
}

/// Fused kernel writing into `dst`, which must hold `w*h*c` floats.
///
/// `dst` is interpreted as CHW. This is the entry point used by the runtime
/// engine: `dst` typically aliases a reused (pinned) staging buffer. Always
/// inlined, so inside a [`crate::tier`] kernel (the compiled prefix's
/// identity path) it compiles for that kernel's tier.
#[inline(always)]
pub fn fused_convert_normalize_split_into(
    img: &ImageU8,
    n: &Normalization,
    dst: &mut [f32],
) -> Result<()> {
    if img.channels() != 3 {
        return Err(Error::UnsupportedChannels {
            channels: img.channels(),
            op: "fused_convert_normalize_split",
        });
    }
    let (w, h) = (img.width(), img.height());
    let plane = w * h;
    if dst.len() != plane * 3 {
        return Err(Error::ShapeMismatch {
            expected: plane * 3,
            actual: dst.len(),
            context: "fused_convert_normalize_split_into",
        });
    }
    let (scale, bias) = n.affine();
    let src = img.data();
    // Split dst into three planes so the inner loop is bounds-check friendly.
    let (p0, rest) = dst.split_at_mut(plane);
    let (p1, p2) = rest.split_at_mut(plane);
    for (i, px) in src.chunks_exact(3).enumerate() {
        p0[i] = px[0] as f32 * scale[0] + bias[0];
        p1[i] = px[1] as f32 * scale[1] + bias[1];
        p2[i] = px[2] as f32 * scale[2] + bias[2];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::layout::{hwc_to_chw, to_f32};
    use crate::ops::normalize::normalize_chw;

    fn patterned(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i * 31 % 251) as u8;
        }
        img
    }

    #[test]
    fn fused_matches_unfused_reference() {
        let img = patterned(17, 9);
        let n = Normalization::IMAGENET;
        let fused = fused_convert_normalize_split(&img, &n).unwrap();
        // Reference: convert, split, normalize as separate passes.
        let mut reference = hwc_to_chw(&to_f32(&img));
        normalize_chw(&mut reference, &n).unwrap();
        assert!(fused.mean_abs_diff(&reference).unwrap() < 1e-6);
    }

    #[test]
    fn fused_into_respects_buffer_length() {
        let img = patterned(4, 4);
        let mut short = vec![0.0; 47];
        assert!(
            fused_convert_normalize_split_into(&img, &Normalization::UNIT, &mut short).is_err()
        );
        let mut exact = vec![0.0; 48];
        assert!(fused_convert_normalize_split_into(&img, &Normalization::UNIT, &mut exact).is_ok());
    }

    #[test]
    fn fused_rejects_non_rgb() {
        let img = ImageU8::zeros(4, 4, 1);
        assert!(fused_convert_normalize_split(&img, &Normalization::UNIT).is_err());
    }

    #[test]
    fn fused_reuses_buffer_contents_fully_overwritten() {
        let img = patterned(6, 5);
        let mut buf = vec![f32::NAN; 6 * 5 * 3];
        fused_convert_normalize_split_into(&img, &Normalization::UNIT, &mut buf).unwrap();
        assert!(buf.iter().all(|v| v.is_finite()));
    }
}
