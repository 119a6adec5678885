//! Image and tensor containers.
//!
//! `ImageU8` is the interleaved (HWC) byte image produced by the decoders.
//! `TensorF32` is the float tensor handed to the DNN, in either interleaved
//! (HWC) or planar (CHW) layout — the paper's "split" preprocessing step is
//! the HWC→CHW conversion.

use crate::error::{Error, Result};

/// Memory layout of a float tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Interleaved: `data[(y*W + x)*C + c]`.
    Hwc,
    /// Planar (channels-first): `data[(c*H + y)*W + x]`.
    Chw,
}

/// A rectangular region of interest, in pixel coordinates.
///
/// `x`/`y` are the top-left corner; the region spans `[x, x+w) × [y, y+h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    pub x: usize,
    pub y: usize,
    pub w: usize,
    pub h: usize,
}

impl Rect {
    /// Creates a rect; `w`/`h` may be zero (an empty region).
    pub const fn new(x: usize, y: usize, w: usize, h: usize) -> Self {
        Rect { x, y, w, h }
    }

    /// The centered `w × h` crop of a `width × height` image.
    ///
    /// If the crop is larger than the image it is clamped to the image.
    pub fn centered(width: usize, height: usize, w: usize, h: usize) -> Self {
        let w = w.min(width);
        let h = h.min(height);
        Rect {
            x: (width - w) / 2,
            y: (height - h) / 2,
            w,
            h,
        }
    }

    /// Right edge (exclusive).
    pub const fn x_end(&self) -> usize {
        self.x + self.w
    }

    /// Bottom edge (exclusive).
    pub const fn y_end(&self) -> usize {
        self.y + self.h
    }

    /// Whether the region lies fully inside a `width × height` image.
    pub const fn fits_in(&self, width: usize, height: usize) -> bool {
        self.x_end() <= width && self.y_end() <= height
    }

    /// Expands the region outward to align with a block grid of size `b`
    /// (used for macroblock-aligned partial decoding, Algorithm 1).
    pub fn align_to_blocks(&self, b: usize, width: usize, height: usize) -> Rect {
        let x0 = (self.x / b) * b;
        let y0 = (self.y / b) * b;
        let x1 = self.x_end().div_ceil(b) * b;
        let y1 = self.y_end().div_ceil(b) * b;
        Rect {
            x: x0,
            y: y0,
            w: x1.min(width) - x0,
            h: y1.min(height) - y0,
        }
    }
}

/// An 8-bit image in interleaved (HWC) layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageU8 {
    width: usize,
    height: usize,
    channels: usize,
    data: Vec<u8>,
}

impl ImageU8 {
    /// Wraps an existing buffer. The buffer length must equal `w*h*c`.
    pub fn from_vec(width: usize, height: usize, channels: usize, data: Vec<u8>) -> Result<Self> {
        let expected = width * height * channels;
        if data.len() != expected {
            return Err(Error::ShapeMismatch {
                expected,
                actual: data.len(),
                context: "ImageU8::from_vec",
            });
        }
        Ok(ImageU8 {
            width,
            height,
            channels,
            data,
        })
    }

    /// Allocates a zero-filled image.
    pub fn zeros(width: usize, height: usize, channels: usize) -> Self {
        ImageU8 {
            width,
            height,
            channels,
            data: vec![0; width * height * channels],
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The shorter of width/height (used by aspect-preserving resize).
    pub fn short_edge(&self) -> usize {
        self.width.min(self.height)
    }

    pub fn data(&self) -> &[u8] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consumes the image, returning the raw buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// Pixel accessor (bounds-checked in debug builds only on the hot path;
    /// this variant is fully checked).
    pub fn get(&self, x: usize, y: usize, c: usize) -> Option<u8> {
        if x < self.width && y < self.height && c < self.channels {
            Some(self.data[(y * self.width + x) * self.channels + c])
        } else {
            None
        }
    }

    /// Unchecked-index pixel accessor for hot loops (still safe; relies on
    /// slice bounds checks which the optimizer commonly elides).
    #[inline]
    pub fn at(&self, x: usize, y: usize, c: usize) -> u8 {
        self.data[(y * self.width + x) * self.channels + c]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: u8) {
        self.data[(y * self.width + x) * self.channels + c] = v;
    }

    /// One row of pixels as a byte slice.
    pub fn row(&self, y: usize) -> &[u8] {
        let stride = self.width * self.channels;
        &self.data[y * stride..(y + 1) * stride]
    }

    /// Total number of pixels (not bytes).
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }
}

/// Peak signal-to-noise ratio of `b` against `a` in dB, over every byte
/// of two equally sized images; infinite when they are identical.
pub fn psnr(a: &ImageU8, b: &ImageU8) -> f64 {
    assert_eq!(
        a.data.len(),
        b.data.len(),
        "psnr of differently sized images"
    );
    let sse: f64 = a
        .data
        .iter()
        .zip(&b.data)
        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
        .sum();
    let mse = sse / a.data.len().max(1) as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

/// A float tensor in HWC or CHW layout with shape `(channels, height, width)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorF32 {
    width: usize,
    height: usize,
    channels: usize,
    layout: Layout,
    data: Vec<f32>,
}

impl TensorF32 {
    /// Wraps an existing buffer. The buffer length must equal `w*h*c`.
    pub fn from_vec(
        width: usize,
        height: usize,
        channels: usize,
        layout: Layout,
        data: Vec<f32>,
    ) -> Result<Self> {
        let expected = width * height * channels;
        if data.len() != expected {
            return Err(Error::ShapeMismatch {
                expected,
                actual: data.len(),
                context: "TensorF32::from_vec",
            });
        }
        Ok(TensorF32 {
            width,
            height,
            channels,
            layout,
            data,
        })
    }

    /// Allocates a zero-filled tensor.
    pub fn zeros(width: usize, height: usize, channels: usize, layout: Layout) -> Self {
        TensorF32 {
            width,
            height,
            channels,
            layout,
            data: vec![0.0; width * height * channels],
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn channels(&self) -> usize {
        self.channels
    }

    pub fn layout(&self) -> Layout {
        self.layout
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor respecting the tensor's layout.
    #[inline]
    pub fn at(&self, x: usize, y: usize, c: usize) -> f32 {
        match self.layout {
            Layout::Hwc => self.data[(y * self.width + x) * self.channels + c],
            Layout::Chw => self.data[(c * self.height + y) * self.width + x],
        }
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: f32) {
        match self.layout {
            Layout::Hwc => self.data[(y * self.width + x) * self.channels + c] = v,
            Layout::Chw => self.data[(c * self.height + y) * self.width + x] = v,
        }
    }

    /// Mean absolute difference against another tensor of identical shape and
    /// layout; used by tests to check approximate semantic equivalence of
    /// optimized plans.
    pub fn mean_abs_diff(&self, other: &TensorF32) -> Result<f32> {
        if self.data.len() != other.data.len()
            || self.layout != other.layout
            || self.width != other.width
            || self.height != other.height
        {
            return Err(Error::ShapeMismatch {
                expected: self.data.len(),
                actual: other.data.len(),
                context: "TensorF32::mean_abs_diff",
            });
        }
        let sum: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .sum();
        Ok(sum / self.data.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_centered_is_centered() {
        let r = Rect::centered(256, 320, 224, 224);
        assert_eq!(r, Rect::new(16, 48, 224, 224));
    }

    #[test]
    fn rect_centered_clamps_oversized_crop() {
        let r = Rect::centered(100, 100, 224, 224);
        assert_eq!(r, Rect::new(0, 0, 100, 100));
    }

    #[test]
    fn rect_block_alignment_expands_outward() {
        let r = Rect::new(13, 9, 30, 30).align_to_blocks(8, 64, 64);
        assert_eq!(r, Rect::new(8, 8, 40, 32));
        assert!(r.fits_in(64, 64));
    }

    #[test]
    fn rect_block_alignment_clamps_to_image() {
        let r = Rect::new(60, 60, 10, 10).align_to_blocks(8, 64, 64);
        assert_eq!(r.x_end(), 64);
        assert_eq!(r.y_end(), 64);
    }

    #[test]
    fn image_from_vec_rejects_bad_length() {
        assert!(ImageU8::from_vec(4, 4, 3, vec![0; 47]).is_err());
        assert!(ImageU8::from_vec(4, 4, 3, vec![0; 48]).is_ok());
    }

    #[test]
    fn image_get_set_roundtrip() {
        let mut img = ImageU8::zeros(5, 4, 3);
        img.set(2, 3, 1, 77);
        assert_eq!(img.get(2, 3, 1), Some(77));
        assert_eq!(img.at(2, 3, 1), 77);
        assert_eq!(img.get(5, 0, 0), None);
    }

    #[test]
    fn tensor_layout_accessors_agree() {
        let mut hwc = TensorF32::zeros(3, 2, 3, Layout::Hwc);
        let mut chw = TensorF32::zeros(3, 2, 3, Layout::Chw);
        hwc.set(1, 1, 2, 0.5);
        chw.set(1, 1, 2, 0.5);
        assert_eq!(hwc.at(1, 1, 2), 0.5);
        assert_eq!(chw.at(1, 1, 2), 0.5);
        // Backing offsets differ between layouts.
        assert_ne!(hwc.data(), chw.data());
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let t = TensorF32::zeros(4, 4, 3, Layout::Chw);
        assert_eq!(t.mean_abs_diff(&t).unwrap(), 0.0);
    }
}
