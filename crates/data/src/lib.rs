//! # smol-data
//!
//! Synthetic visual datasets for the reproduction (Table 6 and §8.1 of the
//! paper). All generation is deterministic given a seed.
//!
//! * [`catalog`] — the four still datasets (bike-bird, animals-10,
//!   birds-200, imagenet-sim) and four video scenes (night-street, taipei,
//!   amsterdam, rialto) with paper-reference columns and difficulty knobs;
//! * [`registry`] — named encoded serving variants: the §5.2
//!   natively-present storage layout (full-res + thumbnails, several
//!   codecs) materialized for dataset registration;
//! * [`stills`] — the class-image generator with controlled frequency
//!   content (the mechanism behind the §5.2/§5.3 accuracy shapes);
//! * [`store`] — the persistent physical-representation store: serving
//!   ladders materialized ahead of time under a content-addressed layout
//!   (objects named by content fingerprint + a plain-text manifest), so
//!   repeat sessions read variants instead of re-encoding;
//! * [`video`] — traffic scenes with ground-truth per-frame counts and
//!   temporally autocorrelated count series (the mechanism behind §8.4);
//! * [`gops`] — the traffic scenes encoded through the real `smol_video`
//!   codec and split into per-GOP serving items, for registration through
//!   the declarative video query path;
//! * [`stream`] — the same corpora behind a wall-clock arrival schedule
//!   ([`stream::StreamFeed`]), the registration unit of live-stream
//!   queries (`Dataset::stream`);
//! * [`fixtures`] — the textured images and pixel fingerprint the serving
//!   gates and integration tests share.
#![deny(unsafe_code)]

pub mod catalog;
pub mod fixtures;
pub mod gops;
pub mod registry;
pub mod stills;
pub mod store;
pub mod stream;
pub mod video;

pub use catalog::{
    still_catalog, video_catalog, StillDatasetId, StillSpec, VideoDatasetId, VideoSpec,
};
pub use fixtures::{fingerprint, textured};
pub use gops::{gop_corpus, GopCorpus};
pub use registry::{encode_variant, serving_variants, EncodedVariant};
pub use stills::{generate_stills, throughput_images, StillDataset};
pub use store::{MaterializeReport, VariantStore};
pub use stream::{timed_stream, StreamFeed};
pub use video::{generate_video, SyntheticVideo};
