//! Preprocessing operator kernels.
//!
//! Each operator is a standalone function over [`ImageU8`]/[`TensorF32`];
//! `fused` provides the single-pass convert+normalize+split kernel the DAG
//! optimizer emits when fusion is profitable (§6.2, rule "fusion always
//! improves performance").

pub mod colorspace;
pub mod crop;
pub mod fused;
pub mod layout;
pub mod normalize;
pub mod prefix;
pub mod resize;

pub use crop::{center_crop_u8, crop_u8};
pub use fused::fused_convert_normalize_split;
pub use layout::{hwc_to_chw, to_f32};
pub use normalize::{normalize_chw, normalize_hwc, Normalization};
pub use prefix::CompiledPrefix;
pub use resize::{
    box_downsample_u8, resize_bilinear_f32, resize_bilinear_u8, resize_short_edge_u8, scaled_dims,
};

#[allow(unused_imports)]
use crate::image::{ImageU8, TensorF32};
