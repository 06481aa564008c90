//! Host-speed normalisation. A shared host runs this process at speeds
//! that differ by up to 1.7× from one minute to the next, and that
//! drift moves every timing far more than a real program change of a
//! few percent. The benchmark therefore times a fixed piece of its own
//! work throughout each run, and expresses every gated timing at a
//! reference speed: a sample is scaled by
//! `REFERENCE_MS / (the reference work's median time around it)`.
//!
//! The reference work is small f32 matrix products, the kind of work
//! the host's slow spells slow down: they contend for the vector units
//! and the core's caches, and a scalar latency-bound loop barely
//! sees them. Two things keep the program from moving it:
//! - its arithmetic is written as explicit 4-lane SSE instructions, so
//!   the build's `target-cpu` (set by the repository's
//!   `.cargo/config.toml`) or a new toolchain cannot widen it;
//! - it is only timed while the program is idle: between iterations of
//!   a closed loop, and when serving only at moments when every request
//!   sent so far has been answered, never while the program's threads
//!   compete for the cores.
//!
//! End-to-end runs pin the process to one CPU (`perfbench/run.py`), so
//! the reference work and every thread of the program share one CPU's
//! speed.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// What the reference work takes on the host at its fast speed.
pub const REFERENCE_MS: f64 = 0.15;

/// Side of the reference work's square matrices (a multiple of 4).
const SIDE: usize = 24;

/// Reference-work timings nearest in time to a sample that scale it.
const NEAREST: usize = 9;

/// Times one unit of reference work, in ms: 40 products of two
/// `SIDE`×`SIDE` f32 matrices held in L1, accumulated four lanes at a
/// time. Each lane group goes through `black_box`, so neither the
/// optimiser nor a wider `target-cpu` can merge, widen or drop them.
pub fn reference_work() -> f64 {
    let a: Vec<f32> = (0..SIDE * SIDE).map(|i| (i % 7) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..SIDE * SIDE).map(|i| ((i * 3) % 5) as f32 * 0.2).collect();
    let mut c = vec![0.0f32; SIDE * SIDE];
    let t = Instant::now();
    for _ in 0..40 {
        for i in 0..SIDE {
            for k in 0..SIDE {
                let aik = a[i * SIDE + k];
                for j in (0..SIDE).step_by(4) {
                    mul_add4(&mut c[i * SIDE + j..][..4], aik, &b[k * SIDE + j..][..4]);
                }
            }
        }
    }
    black_box(&c);
    t.elapsed().as_secs_f64() * 1e3
}

/// `out += a * b` over four lanes: one SSE multiply and one add, the
/// x86-64 baseline, whatever `target-cpu` the build uses.
#[cfg(target_arch = "x86_64")]
fn mul_add4(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps};
    assert!(out.len() == 4 && b.len() == 4);
    // SAFETY: SSE is part of the x86-64 baseline, and both slices hold
    // exactly the four lanes read and written.
    unsafe {
        let v = _mm_add_ps(
            _mm_loadu_ps(out.as_ptr()),
            _mm_mul_ps(_mm_set1_ps(a), _mm_loadu_ps(b.as_ptr())),
        );
        _mm_storeu_ps(out.as_mut_ptr(), black_box(v));
    }
}

/// `out += a * b` over four lanes, each through `black_box`.
#[cfg(not(target_arch = "x86_64"))]
fn mul_add4(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, b) in out.iter_mut().zip(b) {
        *o = black_box(*o + a * b);
    }
}

/// Reference-work timings over a run, by time.
#[derive(Debug)]
pub struct HostSpeed {
    origin: Instant,
    samples: std::sync::Mutex<Vec<(f64, f64)>>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed { origin: Instant::now(), samples: std::sync::Mutex::new(Vec::new()) }
    }

    /// Seconds since the run started.
    pub fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Times one unit of reference work now. Call it only while the
    /// program under test is idle.
    pub fn sample(&self) {
        let at = self.secs(Instant::now());
        let ms = reference_work();
        self.samples.lock().expect("host-speed samples poisoned").push((at, ms));
    }

    /// The factor that scales a timing taken at run time `t` to the
    /// reference speed: `REFERENCE_MS` over the median of the
    /// [`NEAREST`] reference timings closest in time to `t`.
    pub fn factor(&self, t: f64) -> f64 {
        let mut samples = self.samples.lock().expect("host-speed samples poisoned").clone();
        samples.sort_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()));
        samples.truncate(NEAREST);
        median(&samples.iter().map(|s| s.1).collect::<Vec<_>>()).map_or(1.0, |ms| REFERENCE_MS / ms)
    }

    /// The run's median reference-work time, ms.
    pub fn median_ms(&self) -> f64 {
        let samples = self.samples.lock().expect("host-speed samples poisoned");
        median(&samples.iter().map(|s| s.1).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    }

    /// `(t, value)` samples at the reference speed.
    pub fn normalize(&self, samples: &[(f64, f64)]) -> Vec<(f64, f64)> {
        samples.iter().map(|&(t, v)| (t, v * self.factor(t))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_by_the_nearest_reference_timings() {
        let host = HostSpeed::new();
        {
            let mut s = host.samples.lock().unwrap();
            // A host at half the reference speed for the first second,
            // at the reference speed after.
            s.extend((0..10).map(|i| (f64::from(i) * 0.1, 2.0 * REFERENCE_MS)));
            s.extend((10..20).map(|i| (f64::from(i) * 0.1, REFERENCE_MS)));
        }
        assert!((host.factor(0.2) - 0.5).abs() < 1e-12);
        assert!((host.factor(1.8) - 1.0).abs() < 1e-12);
        assert_eq!(host.normalize(&[(0.2, 30.0)]), vec![(0.2, 15.0)]);
        // Far from every sample: the nearest ones still decide.
        assert!((host.factor(50.0) - 1.0).abs() < 1e-12);
        assert_eq!(HostSpeed::new().factor(1.0), 1.0, "no samples, no scaling");
    }

    #[test]
    fn reference_work_takes_time() {
        assert!(reference_work() > 0.0);
    }
}
