//! Host-speed calibration for the end-to-end timings.
//!
//! The reference host is a two-vCPU virtual machine whose throughput moves
//! by 20-50% for seconds to minutes at a time as other tenants load the
//! physical cores it shares. Those phases moved whole runs, and so the
//! medians of ten runs, by more than any bound the benchmark can set. So
//! every timed op is bracketed by a short fixed calibration (three kernels:
//! floating-point, integer and an L2-resident matrix product), and its wall
//! time is scaled by how much slower than usual the calibrations around it
//! ran. Over twelve minutes of a noisy phase, the relative spread of
//! 12-second medians went from 0.22 to 0.07 for the width-128 RL
//! `simulate`, 0.16 to 0.02 for `serve`, 0.07 to 0.04 for `train` and 0.06
//! to 0.05 for the greedy `simulate`.
//!
//! The kernels are the benchmark's own code, so a change to the library
//! moves an op's time and not the calibration's.

use std::hint::black_box;
use std::time::Instant;

/// Wall ms one [`calibration_ms`] took on the reference host (two KVM
/// vCPUs of an Intel Xeon, family 6 model 207) in a quiet phase. Normalized times read
/// as wall ms on that host at that speed.
pub const REFERENCE_MS: f64 = 12.0;

/// Fused multiply-adds over a 16 KB array that stays in L1.
fn fma_kernel(reps: usize) -> f32 {
    let data: Vec<f32> = (0..4096u16).map(|i| f32::from(i) * 1e-4).collect();
    let data = black_box(data);
    let mut acc = [0f32; 16];
    for _ in 0..reps {
        for chunk in data.chunks_exact(16) {
            for (a, &x) in acc.iter_mut().zip(chunk) {
                *a = a.mul_add(x, 1.0001);
            }
        }
    }
    acc.iter().sum()
}

/// A 64×128 by 128×128 `f32` matrix product held in L2: the shape of the
/// RL actor's dense layers, which slow more than scalar code when the
/// host is busy.
fn matmul_kernel(reps: usize) -> f32 {
    let a: Vec<f32> = (0..64 * 128).map(|i| (i % 97) as f32 * 1e-3).collect();
    let b: Vec<f32> = (0..128 * 128).map(|i| (i % 89) as f32 * 1e-3).collect();
    let (a, b) = (black_box(a), black_box(b));
    let mut c = vec![0f32; 64 * 128];
    for _ in 0..reps {
        for (a_row, c_row) in a.chunks_exact(128).zip(c.chunks_exact_mut(128)) {
            for (&x, b_row) in a_row.iter().zip(b.chunks_exact(128)) {
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += x * bv;
                }
            }
        }
    }
    c.iter().sum()
}

/// Four independent integer dependency chains: issue-width bound.
fn ilp_kernel(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..n {
        a = a.wrapping_add(i ^ b);
        b = b.wrapping_mul(3) ^ c;
        c = c.rotate_left(5).wrapping_add(d);
        d ^= a >> 3;
    }
    a ^ b ^ c ^ d
}

/// Wall ms of one calibration: about [`REFERENCE_MS`] on a quiet host.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    black_box(fma_kernel(black_box(400)));
    black_box(ilp_kernel(black_box(3_000_000)));
    black_box(matmul_kernel(black_box(24)));
    start.elapsed().as_secs_f64() * 1e3
}

/// One timed op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Wall ms.
    pub wall_ms: f64,
    /// Wall ms scaled to the reference speed: `wall_ms × REFERENCE_MS ÷`
    /// the mean of the calibrations just before and just after the op.
    pub ms: f64,
}

/// Times ops back to back, calibrating between them.
pub struct HostClock {
    /// The calibration that ended just before the next op starts.
    before_ms: f64,
}

impl HostClock {
    /// Calibrates once, ready to time the first op.
    pub fn new() -> HostClock {
        HostClock { before_ms: calibration_ms() }
    }

    /// Times `f`, then calibrates. The calibration after one op is the
    /// calibration before the next, so nothing may run between two timed
    /// ops that is not itself timed.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (Timed, R) {
        let start = Instant::now();
        let out = f();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let after_ms = calibration_ms();
        let ms = normalize(wall_ms, self.before_ms, after_ms);
        self.before_ms = after_ms;
        (Timed { wall_ms, ms }, out)
    }
}

/// `wall_ms` scaled by the reference speed over the mean calibration.
fn normalize(wall_ms: f64, before_ms: f64, after_ms: f64) -> f64 {
    wall_ms * REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_by_the_mean_calibration() {
        // Kernels at the reference speed leave the wall time as it is.
        assert_eq!(normalize(100.0, REFERENCE_MS, REFERENCE_MS), 100.0);
        // Calibrations 4/3 as long on average: the op is scaled by 3/4.
        let slow = REFERENCE_MS * 4.0 / 3.0;
        assert!((normalize(100.0, REFERENCE_MS, slow + slow - REFERENCE_MS) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn clock_chains_calibrations_between_ops() {
        let mut clock = HostClock::new();
        let (t, x) = clock.time(|| 7);
        assert_eq!(x, 7);
        assert!(t.wall_ms >= 0.0 && t.ms >= 0.0 && t.ms.is_finite());
        assert!(clock.before_ms > 0.0);
    }
}
