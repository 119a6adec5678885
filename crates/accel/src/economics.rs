//! Dollar-cost and power accounting (§7 and Table 8).
//!
//! Reproduces the paper's arithmetic: the per-core price is a linear
//! interpolation over the g4dn instance family assuming a fixed T4 price,
//! and preprocessing cost/power follow from how many cores are needed to
//! match the accelerator's DNN throughput.

/// One cloud instance offering.
#[derive(Debug, Clone, Copy)]
pub struct InstanceType {
    pub name: &'static str,
    pub vcpus: u32,
    pub gpus: u32,
    pub price_per_hour: f64,
}

/// The AWS g4dn family as priced at publication time (us-east-1,
/// on-demand). Each carries one T4 except the metal/12xl variants, which
/// the paper's fit excludes.
pub fn g4dn_family() -> Vec<InstanceType> {
    vec![
        InstanceType {
            name: "g4dn.xlarge",
            vcpus: 4,
            gpus: 1,
            price_per_hour: 0.526,
        },
        InstanceType {
            name: "g4dn.2xlarge",
            vcpus: 8,
            gpus: 1,
            price_per_hour: 0.752,
        },
        InstanceType {
            name: "g4dn.4xlarge",
            vcpus: 16,
            gpus: 1,
            price_per_hour: 1.204,
        },
        InstanceType {
            name: "g4dn.8xlarge",
            vcpus: 32,
            gpus: 1,
            price_per_hour: 2.176,
        },
        InstanceType {
            name: "g4dn.16xlarge",
            vcpus: 64,
            gpus: 1,
            price_per_hour: 4.352,
        },
    ]
}

/// CPU power per vCPU core (§7: 210 W Xeon 8259CL / 48 vCPUs ≈ 4.375 W).
const WATTS_PER_VCPU: f64 = 4.375;
/// T4 board power (§7).
const T4_WATTS: f64 = 70.0;

/// Result of the linear price fit `price = gpu_price + vcpus · core_price`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceFit {
    pub gpu_price_per_hour: f64,
    pub core_price_per_hour: f64,
    pub r_squared: f64,
}

/// Least-squares fit of per-core price across an instance family with a
/// shared single-GPU price (the paper's method; expected ≈ $0.218 for the
/// T4 and ≈ $0.0639 per vCPU, R² ≈ 0.999).
pub fn fit_core_price(instances: &[InstanceType]) -> PriceFit {
    let n = instances.len() as f64;
    let mean_x: f64 = instances.iter().map(|i| i.vcpus as f64).sum::<f64>() / n;
    let mean_y: f64 = instances.iter().map(|i| i.price_per_hour).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for i in instances {
        let dx = i.vcpus as f64 - mean_x;
        let dy = i.price_per_hour - mean_y;
        sxy += dx * dy;
        sxx += dx * dx;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    // R².
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for i in instances {
        let pred = intercept + slope * i.vcpus as f64;
        ss_res += (i.price_per_hour - pred).powi(2);
        ss_tot += (i.price_per_hour - mean_y).powi(2);
    }
    PriceFit {
        gpu_price_per_hour: intercept,
        core_price_per_hour: slope,
        r_squared: 1.0 - ss_res / ss_tot,
    }
}

/// Hourly cost and power of preprocessing vs DNN execution for a model that
/// executes at `dnn_throughput` im/s while one CPU core preprocesses
/// `preproc_per_core` im/s: the cores needed to *feed* the accelerator
/// define the preprocessing side (§7's comparison).
#[derive(Debug, Clone, Copy)]
pub struct CostBreakdown {
    pub cores_needed: f64,
    pub preproc_price_per_hour: f64,
    pub dnn_price_per_hour: f64,
    pub preproc_watts: f64,
    pub dnn_watts: f64,
}

impl CostBreakdown {
    pub fn price_ratio(&self) -> f64 {
        self.preproc_price_per_hour / self.dnn_price_per_hour
    }

    pub fn power_ratio(&self) -> f64 {
        self.preproc_watts / self.dnn_watts
    }
}

/// Computes the §7 breakdown from throughput anchors and a price fit.
pub fn cost_breakdown(dnn_throughput: f64, preproc_per_core: f64, fit: &PriceFit) -> CostBreakdown {
    let cores = dnn_throughput / preproc_per_core;
    CostBreakdown {
        cores_needed: cores,
        preproc_price_per_hour: cores * fit.core_price_per_hour,
        dnn_price_per_hour: fit.gpu_price_per_hour,
        preproc_watts: cores * WATTS_PER_VCPU,
        dnn_watts: T4_WATTS,
    }
}

/// Cost in cents per million images at a measured throughput on a given
/// instance (Table 8's cost column).
pub fn cents_per_million_images(throughput_im_s: f64, instance_price_per_hour: f64) -> f64 {
    let hours_per_million = 1e6 / throughput_im_s / 3600.0;
    hours_per_million * instance_price_per_hour * 100.0
}

/// Paper-calibrated full-resolution ImageNet decode throughput per vCPU
/// core, implied by §7's $2.37 / 161 W figures for ResNet-50 (≈ 123 im/s).
pub const PAPER_PREPROC_PER_CORE: f64 = 123.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_fit_matches_paper_constants() {
        let fit = fit_core_price(&g4dn_family());
        assert!(
            (fit.gpu_price_per_hour - 0.218).abs() < 0.02,
            "gpu={}",
            fit.gpu_price_per_hour
        );
        assert!(
            (fit.core_price_per_hour - 0.0639).abs() < 0.003,
            "core={}",
            fit.core_price_per_hour
        );
        // The paper reports R² = 0.999; the public price list yields 0.9986.
        assert!(fit.r_squared > 0.998, "r2={}", fit.r_squared);
    }

    #[test]
    fn about_3_4_cores_equal_one_t4() {
        let fit = fit_core_price(&g4dn_family());
        let cores = fit.gpu_price_per_hour / fit.core_price_per_hour;
        assert!((cores - 3.4).abs() < 0.3, "cores={cores}");
    }

    #[test]
    fn resnet50_preproc_costs_11x_dnn() {
        let fit = fit_core_price(&g4dn_family());
        let b = cost_breakdown(4513.0, PAPER_PREPROC_PER_CORE, &fit);
        assert!(
            b.price_ratio() > 9.0 && b.price_ratio() < 13.0,
            "ratio={}",
            b.price_ratio()
        );
        assert!(
            (b.preproc_price_per_hour - 2.37).abs() < 0.3,
            "preproc $/h = {}",
            b.preproc_price_per_hour
        );
    }

    #[test]
    fn resnet50_preproc_power_about_2_3x() {
        let fit = fit_core_price(&g4dn_family());
        let b = cost_breakdown(4513.0, PAPER_PREPROC_PER_CORE, &fit);
        assert!(
            b.power_ratio() > 2.0 && b.power_ratio() < 2.6,
            "power ratio={}",
            b.power_ratio()
        );
        assert!((b.preproc_watts - 161.0).abs() < 10.0);
    }

    #[test]
    fn resnet18_imbalance_is_larger() {
        let fit = fit_core_price(&g4dn_family());
        let rn50 = cost_breakdown(4513.0, PAPER_PREPROC_PER_CORE, &fit);
        let rn18 = cost_breakdown(12592.0, PAPER_PREPROC_PER_CORE, &fit);
        assert!(rn18.price_ratio() > rn50.price_ratio() * 2.0);
        assert!((rn18.preproc_watts - 444.0).abs() < 15.0);
    }

    #[test]
    fn cents_per_million_sane() {
        // 1927 im/s on g4dn.xlarge ($0.526/h) ≈ 7.6 ¢/M (Table 8, row 1).
        let c = cents_per_million_images(1927.0, 0.526);
        assert!((c - 7.58).abs() < 0.2, "c={c}");
    }
}
