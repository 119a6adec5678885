//! Pins what the seeded generator builds: a still from every catalog
//! entry, a GOP, an MLP's initial weights and an aggregation sample
//! order, each as a content-key digest. The shapes tests would pass on a
//! different but well-formed stream; these fail on any change to the
//! bits, so every corpus, model zoo and accuracy reading stays the one
//! the paper-shape readings were taken from.

use smol::analytics::{naive_mean, AggregationConfig};
use smol::codec::hash::content_key;
use smol::data::catalog::video_catalog;
use smol::data::{gop_corpus, still_catalog, throughput_images};
use smol::nn::Mlp;

fn floats_key(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    content_key(&[values.len() as u64], &bytes)
}

#[test]
fn first_throughput_image_of_each_still_is_pinned() {
    let want = [
        ("bike-bird", 0x553b99c57c7aae1a),
        ("animals-10", 0x4c35781daaae9c42),
        ("birds-200", 0x303c1b2532709542),
        ("imagenet-sim", 0xac14f85116d1876b),
    ];
    let specs = still_catalog();
    assert_eq!(specs.len(), want.len());
    for (spec, (name, key)) in specs.iter().zip(want) {
        let img = throughput_images(spec, 1, 1).pop().expect("one image");
        let header = [img.width() as u64, img.height() as u64];
        assert_eq!(spec.name, name);
        assert_eq!(content_key(&header, img.data()), key, "{name}");
    }
}

#[test]
fn a_gop_corpus_gop_is_pinned() {
    let corpus = gop_corpus(&video_catalog()[1], 42, 1, 6);
    let gop = &corpus.gops[0];
    let payload: Vec<u8> = (0..gop.n_frames())
        .flat_map(|pos| gop.frame_payload(pos).1.to_vec())
        .collect();
    assert_eq!(corpus.counts, [0, 1, 1, 1, 1, 1]);
    // The keyframe is an sjpg v4 stream: the v3 stream of the same frame
    // (key 0x66e8c2b1b38a3cea) with version byte 4 and an empty seek table
    // — two zero bytes after the row count — and nothing else changed.
    assert_eq!(
        content_key(&[gop.n_frames() as u64], &payload),
        0x76ac7d6260598a47
    );
}

#[test]
fn mlp_initial_weights_are_pinned() {
    // A linear head with zero biases maps the i-th basis vector to the
    // i-th column of its weights, so this reads back every weight.
    let linear = Mlp::new(&[16, 4], 3);
    let weights: Vec<f32> = (0..16)
        .flat_map(|i| {
            let mut x = [0.0; 16];
            x[i] = 1.0;
            linear.forward(&x)
        })
        .collect();
    assert_eq!(
        weights[..4],
        [-0.54935765, -0.3684017, 0.28175142, 0.09999621]
    );
    assert_eq!(floats_key(&weights), 0xeaee3605b135ea9b);
    // A second layer draws on from where the first stopped.
    let deep = Mlp::new(&[16, 8, 4], 3);
    assert_eq!(floats_key(&deep.forward(&[1.0; 16])), 0xacb026d5d40b8d17);
}

#[test]
fn an_aggregation_sample_order_is_pinned() {
    // Frame i counts 2^i objects, so the sum of the first k samples (the
    // estimate over k) is the set of frames drawn so far, as a bitmask.
    let truth: Vec<u32> = (0..24).map(|i| 1 << i).collect();
    let drawn: Vec<u64> = (2..=truth.len())
        .map(|k| {
            let cfg = AggregationConfig {
                error_target: 0.0,
                min_samples: 2,
                max_samples: k,
                seed: 5,
                ..Default::default()
            };
            let outcome = naive_mean(&truth, &cfg);
            assert_eq!(outcome.samples, k);
            (outcome.estimate * k as f64).round() as u64
        })
        .collect();
    assert_eq!(drawn[0], 1 << 18 | 1 << 2);
    assert_eq!(*drawn.last().unwrap(), (1 << 24) - 1);
    let bytes: Vec<u8> = drawn.iter().flat_map(|m| m.to_le_bytes()).collect();
    assert_eq!(content_key(&[], &bytes), 0x496bfa24866fe8d5);
}
