//! The per-layer metric registry: every name a traced run reports, with its
//! unit and which direction is better. `BENCHMARK.json` lists the same names
//! (a unit test compares the two); README.md says which end-to-end metric
//! each should move. A metric that does not apply to a workload (no video in
//! a stills workload) is reported as 0 there.

use std::collections::BTreeMap;

pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // smol_codec — per replayed item, microseconds, probe-normalised.
    ("codec.sjpg_full_us", "us", "lower"),
    ("codec.sjpg_roi_us", "us", "lower"),
    ("codec.sjpg_scaled_us", "us", "lower"),
    ("codec.signal_us", "us", "lower"),
    ("codec.spng_us", "us", "lower"),
    ("codec.idct_ns_per_block", "ns", "lower"),
    // Exact work counts from `DecodeStats` under the workload's own decode
    // mode; bit-for-bit repeatable for a seed.
    ("codec.symbols_per_item", "count", "lower"),
    ("codec.idct_macs_per_item", "count", "lower"),
    ("codec.pixels_per_item", "count", "lower"),
    ("codec.encoded_bytes_per_item", "count", "lower"),
    // smol_video — per replayed GOP.
    ("video.gop_all_us", "us", "lower"),
    ("video.gop_nodeblock_us", "us", "lower"),
    ("video.gop_keyframes_us", "us", "lower"),
    ("video.mc_blocks_per_gop", "count", "lower"),
    ("video.frames_decoded", "count", "lower"),
    // smol_imgproc — the ops the workload's rewritten plan keeps.
    ("imgproc.resize_us", "us", "lower"),
    ("imgproc.normalize_us", "us", "lower"),
    // smol_runtime.
    ("runtime.produce_uncached_self_us", "us", "lower"),
    ("runtime.produce_hit_us", "us", "lower"),
    ("runtime.produce_miss_us", "us", "lower"),
    ("runtime.cache_hit_ns", "ns", "lower"),
    ("runtime.cache_fill_evict_us", "us", "lower"),
    ("runtime.cache_hit_share", "ratio", "higher"),
    ("runtime.cache_evictions", "count", "lower"),
    ("runtime.pool_acquire_ns", "ns", "lower"),
    ("runtime.pool_reuse_share", "ratio", "higher"),
    ("runtime.route_us", "us", "lower"),
    ("runtime.exec_batch_ms", "ms", "lower"),
    ("runtime.profile_s", "s", "lower"),
    // smol_core.
    ("core.enumerate_us", "us", "lower"),
    ("core.candidates", "count", "lower"),
    ("core.estimate_error_pct", "%", "lower"),
    // smol_data.
    ("data.store_load_s", "s", "lower"),
    ("data.store_load_mbps", "MB/s", "higher"),
    // smol_serve.
    ("serve.register_s", "s", "lower"),
    ("serve.explain_cold_s", "s", "lower"),
    ("serve.explain_warm_us", "us", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.former_push_ns", "ns", "lower"),
    ("serve.overhead_us_per_item", "us", "lower"),
    ("serve.batch_fill_share", "ratio", "higher"),
    ("serve.cross_query_batch_share", "ratio", "higher"),
    ("serve.steal_share", "ratio", "lower"),
    ("serve.degradations", "count", "lower"),
    ("serve.item_latency_p50_ms", "ms", "lower"),
    ("serve.item_latency_p95_ms", "ms", "lower"),
    ("serve.latency_p95_ms", "ms", "lower"),
    ("serve.tenant_finish_gap_pct", "%", "lower"),
    ("serve.escalated_share", "ratio", "lower"),
    // smol_accel.
    ("accel.occupancy", "ratio", "higher"),
    // smol_stream.
    ("stream.lag_p50_ms", "ms", "lower"),
    ("stream.output_lag_p95_ms", "ms", "lower"),
    ("stream.coverage", "ratio", "higher"),
    ("stream.max_rung", "count", "lower"),
    ("stream.gops_dropped", "count", "lower"),
    ("stream.generator_late_p95_ms", "ms", "lower"),
    // smol_analytics.
    ("analytics.window_push_ns", "ns", "lower"),
    // Validity of the run itself.
    ("bench.host_speed", "ratio", "higher"),
    ("bench.slice_spread_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
];

/// Values of a traced run, keyed by registry name.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Records `value` under `name`, which must be in the registry: a typo
    /// is a bug in the benchmark, not a condition to tolerate.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| *n == name),
            "{name} is not a registered per-layer metric"
        );
        assert!(value.is_finite(), "{name} = {value} is not a number");
        self.0.insert(name, value);
    }

    /// The value recorded for `name`; 0 when the workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in PER_LAYER {
            assert!(matches!(*better, "lower" | "higher"));
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let crate::json::Value::Arr(listed) = doc.get("per_layer").expect("per_layer key") else {
            panic!("per_layer is not an array");
        };
        let listed: Vec<(String, String, String)> = listed
            .iter()
            .map(|m| {
                let field = |k: &str| match m.get(k) {
                    Some(crate::json::Value::Str(s)) => s.clone(),
                    other => panic!("per_layer entry field {k}: {other:?}"),
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let registry: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, registry);
    }
}
