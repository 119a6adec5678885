//! # smol-nn
//!
//! A small, real, from-scratch neural-network library powering the
//! reproduction's **empirical accuracy track** (docs/PAPER_SHAPES.md):
//! every accuracy number in the harnesses comes from actually training
//! these models with SGD on synthetic data — only *throughput* is simulated
//! (see `smol-accel`).
//!
//! * [`dense`] — fully-connected layers, ReLU, softmax cross-entropy, SGD
//!   with momentum (gradient-checked);
//! * [`backbone`] — fixed random convolutional feature banks whose capacity
//!   tiers stand in for ResNet depth (§5.1);
//! * [`mlp`] — trainable heads;
//! * [`augment`] — input-format simulation (full-res / PNG / JPEG
//!   thumbnails) with *real* codec artifacts, used for evaluation and for
//!   the paper's low-resolution-aware training (§5.3);
//! * [`classifier`] — the end-to-end trainable classifier.
#![deny(unsafe_code)]

pub mod augment;
pub mod backbone;
pub mod classifier;
pub mod dense;
pub mod mlp;

pub use augment::{InputFormat, ThumbCodec};
pub use backbone::RandomConvBackbone;
pub use classifier::{ClassifierConfig, SmolClassifier, Tier};
pub use mlp::{argmax, Mlp, TrainParams};
