//! Runtime-selected instruction tiers for the pixel kernels.
//!
//! The build targets baseline x86-64 (SSE2), so the lane-batched kernels of
//! the decode hot path — dequantisation, the IDCT, u8 conversion, colour
//! conversion — and the compiled CPU prefix run 4 `f32` lanes wide. A host
//! with AVX2 runs the same source 8 lanes wide once it is compiled for it.
//! This module compiles each dispatched kernel twice and picks the copy at
//! runtime:
//!
//! * a kernel is a type implementing [`Kernel`], whose
//!   [`run`](Kernel::run) is one `#[inline(always)]` body (and everything
//!   it calls that matters is `#[inline(always)]` too — an out-of-line
//!   callee stays baseline code, whatever its caller was compiled for);
//! * [`Tier::run`] calls that body through one of two thin entries: a
//!   baseline entry, or a `#[target_feature(enable = "avx2")]` entry when
//!   [`Tier::detect`] found AVX2 on the running CPU (`is_x86_feature_detected!`).
//!
//! The AVX2 entry does not enable `fma`. Rust never contracts `a * b + c`
//! into a fused multiply-add on its own, so each lane performs the same
//! IEEE operations in the same order under both tiers and the outputs are
//! bit-identical; the decoders' tests pin both tiers to the scalar oracle.
//!
//! This is the one module of the workspace that contains `unsafe` code:
//! the call into the AVX2 entry. There is no knob — no config field,
//! environment variable or build flag selects a tier; a [`Tier`] holding
//! AVX2 can only come out of [`Tier::detect`] / [`Tier::avx2`].
#![allow(unsafe_code)]

/// One kernel the tiers dispatch: its inputs as fields, its body as
/// [`Kernel::run`].
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// The kernel body. Implementations must be `#[inline(always)]`, so the
    /// body is compiled into each tier's entry rather than called out of
    /// line as baseline code.
    fn run(self) -> Self::Output;
}

/// An instruction tier the running CPU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The build's own target: SSE2 on x86-64, whatever the target is
    /// elsewhere. Always available.
    pub const BASELINE: Tier = Tier(Level::Baseline);

    /// The widest tier the running CPU supports.
    #[inline]
    pub fn detect() -> Tier {
        Tier::avx2().unwrap_or(Tier::BASELINE)
    }

    /// The AVX2 tier, if the running CPU supports it (`None` on other
    /// architectures and on x86-64 hosts without AVX2).
    #[inline]
    pub fn avx2() -> Option<Tier> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Tier(Level::Avx2));
        }
        None
    }

    /// `"baseline"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => "avx2",
        }
    }

    /// Runs `kernel` through this tier's entry.
    #[inline]
    pub fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self.0 {
            Level::Baseline => baseline(kernel),
            // SAFETY: a `Tier` holds `Level::Avx2` only when `Tier::avx2`
            // found AVX2 on the running CPU (the field is private), which is
            // the one precondition of calling a `#[target_feature(enable =
            // "avx2")]` function.
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => unsafe { avx2(kernel) },
        }
    }
}

/// The baseline entry. Out of line, like the AVX2 entry, so a kernel body
/// is one function under both tiers.
#[inline(never)]
fn baseline<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// The AVX2 entry: the same body, compiled with AVX2 (and no FMA). Calling
/// it on a CPU without AVX2 is undefined behaviour, so it is only called
/// from [`Tier::run`], for a `Tier` that [`Tier::avx2`] returned.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lane-batched multiply-add the AVX2 entry compiles 8 lanes wide.
    struct Axpy<'a> {
        a: f32,
        x: &'a [f32],
        y: &'a mut [f32],
    }

    impl Kernel for Axpy<'_> {
        type Output = ();
        #[inline(always)]
        fn run(self) {
            for (y, &x) in self.y.iter_mut().zip(self.x) {
                *y += self.a * x;
            }
        }
    }

    #[test]
    fn every_available_tier_computes_the_same_bits() {
        let x: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin() * 1e3).collect();
        let run = |tier: Tier| {
            let mut y: Vec<f32> = (0..1000).map(|i| (i as f32 * 1.1).cos()).collect();
            tier.run(Axpy {
                a: 1.0 / 3.0,
                x: &x,
                y: &mut y,
            });
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let want = run(Tier::BASELINE);
        // Skipped, not failed, on a host without AVX2.
        if let Some(avx2) = Tier::avx2() {
            assert_eq!(run(avx2), want);
        }
        assert_eq!(run(Tier::detect()), want);
    }

    #[test]
    fn detect_picks_the_widest_available_tier() {
        assert_eq!(Tier::detect(), Tier::avx2().unwrap_or(Tier::BASELINE));
        assert_eq!(Tier::BASELINE.name(), "baseline");
    }
}
