//! Host-speed probe: a fixed amount of arithmetic that calls no code of the
//! repository, so no optimisation of that code can be normalised away.
//!
//! Why it exists. The sandbox this benchmark is sized for changes speed
//! under the benchmark's feet: over minutes the same single-threaded decode
//! loop moves by 30–45 % in wall *and* CPU time. What drifts is not the
//! clock — a serially dependent integer loop moves by 6 % — but how much of
//! a shared core a wide instruction mix gets: the more independent work per
//! cycle a loop can issue, the more it loses. Candidate kernels were run
//! beside the repository's stage functions for tens of minutes across such
//! changes (see README.md): a vector multiply-add loop over cache-resident
//! arrays tracked sjpg decode, scaled decode and resize + normalise to
//! within 7–9 % peak to peak (raw: 57–64 %), a separable 8×8 transform
//! tracked spng and GOP decode; three parts of the first to one of the
//! second is the blend whose worst residual over all five was smallest.
//!
//! The probe runs immediately before and after every measured slice, on as
//! many threads as the workload has producers, and the slice's timings are
//! reported at the speed of a reference host:
//! `speed = PROBE_REF_MS / probe_cpu_ms`. The probe's *CPU* time is used,
//! not its wall time: a probe thread the hypervisor descheduled for a while
//! took longer on the wall but says nothing about how fast the host runs.
//!
//! Changing this kernel or [`PROBE_REF_MS`] changes every normalised number
//! the benchmark has ever reported; it needs its own PR.

use crate::os::thread_cpu_s;
use std::time::Instant;

/// Milliseconds one probe takes on the reference host (this sandbox in its
/// fast state). Only ratios to it are used.
pub const PROBE_REF_MS: f64 = 20.0;

const LANES: usize = 2048;
const AXPY_ROUNDS: u64 = 44_000;
const TRANSFORMS: u64 = 44_000;

/// Floating-point operations one call of [`kernel`] executes: four per lane
/// and round in the multiply-add phase, 2·8³ multiply-adds per transform.
pub const PROBE_FLOPS: u64 = AXPY_ROUNDS * LANES as u64 * 4 + TRANSFORMS * 2 * 512 * 2;

/// The fixed-work kernel. Returns `(checksum, operations executed)`; both
/// are the same on every call.
pub fn kernel() -> (u32, u64) {
    let mut flops = 0u64;
    // Phase 1, three quarters of the time: independent multiply-adds over
    // two L1-resident arrays — as many operations per cycle as the core
    // will issue.
    let mut a = [0.0f32; LANES];
    let mut b = [0.0f32; LANES];
    for i in 0..LANES {
        a[i] = i as f32 * 0.001;
        b[i] = 1.0 - i as f32 * 0.0003;
    }
    for round in 0..AXPY_ROUNDS {
        let k = 0.999 + (round & 3) as f32 * 0.0001;
        for i in 0..LANES {
            a[i] = a[i] * k + b[i];
            b[i] = b[i] * 0.5 + 0.25;
        }
        flops += LANES as u64 * 4;
    }
    // Phase 2: separable 8×8 transforms, each fed by the one before — the
    // shape of an inverse DCT.
    let mut basis = [[0.0f32; 8]; 8];
    for (u, row) in basis.iter_mut().enumerate() {
        for (x, c) in row.iter_mut().enumerate() {
            *c = (((2 * x + 1) * u) as f32 * std::f32::consts::PI / 16.0).cos() * 0.5;
        }
    }
    let mut block = [0.0f32; 64];
    for (i, c) in block.iter_mut().enumerate() {
        *c = (i as f32 * 0.37).sin() * 64.0;
    }
    let mut sum = 0.0f32;
    for round in 0..TRANSFORMS {
        let mut tmp = [0.0f32; 64];
        for y in 0..8 {
            for (v, bv) in basis.iter().enumerate() {
                let c = bv[y];
                for u in 0..8 {
                    tmp[y * 8 + u] += block[v * 8 + u] * c;
                }
            }
        }
        let mut out = [0.0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                let mut s = 0.0f32;
                for u in 0..8 {
                    s += tmp[y * 8 + u] * basis[u][x];
                }
                out[y * 8 + x] = s;
            }
        }
        sum += out[(round % 64) as usize];
        block[(round % 64) as usize] = out[((round + 1) % 64) as usize] * 0.5 + 1.0;
        flops += 2 * 512 * 2;
    }
    ((a[7] + b[9] + sum).to_bits(), flops)
}

/// One probe reading: how long the kernel took, in wall and in CPU time,
/// averaged over the threads that ran it concurrently.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl Reading {
    /// Speed of the host relative to the reference host, from the probe's
    /// CPU time: a probe thread the hypervisor descheduled for a while took
    /// longer on the wall but did not run slower.
    pub fn cpu_speed(&self) -> f64 {
        PROBE_REF_MS / self.cpu_ms
    }

    /// The reading halfway between two probes that bracket a slice.
    pub fn between(a: Reading, b: Reading) -> Reading {
        Reading {
            wall_ms: (a.wall_ms + b.wall_ms) / 2.0,
            cpu_ms: (a.cpu_ms + b.cpu_ms) / 2.0,
        }
    }
}

/// Runs the kernel on `threads` threads at once and averages their times.
pub fn measure(threads: usize) -> Reading {
    let threads = threads.max(1);
    let per_thread: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let (w0, c0) = (Instant::now(), thread_cpu_s());
                    std::hint::black_box(kernel());
                    (w0.elapsed().as_secs_f64(), thread_cpu_s() - c0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let n = per_thread.len() as f64;
    Reading {
        wall_ms: per_thread.iter().map(|t| t.0).sum::<f64>() / n * 1e3,
        cpu_ms: per_thread.iter().map(|t| t.1).sum::<f64>() / n * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_executes_a_fixed_operation_count() {
        let (sum_a, flops_a) = kernel();
        let (sum_b, flops_b) = kernel();
        assert_eq!(flops_a, PROBE_FLOPS);
        assert_eq!(flops_b, PROBE_FLOPS);
        assert_eq!(sum_a, sum_b, "the kernel is a pure function");
        assert!(
            f32::from_bits(sum_a).is_finite(),
            "the arithmetic must not overflow"
        );
    }

    #[test]
    fn readings_average_and_invert() {
        let r = Reading::between(
            Reading {
                wall_ms: 10.0,
                cpu_ms: 30.0,
            },
            Reading {
                wall_ms: 30.0,
                cpu_ms: 50.0,
            },
        );
        assert_eq!(r.wall_ms, 20.0);
        assert_eq!(r.cpu_ms, 40.0);
        assert_eq!(r.cpu_speed(), 0.5);
    }
}
