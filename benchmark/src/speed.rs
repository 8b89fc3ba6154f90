//! The machine-speed reference that end-to-end times are scaled by.
//!
//! The shared two-vCPU host the benchmark was tuned on runs the same code
//! up to 1.6× slower in one stretch of seconds or minutes than in the
//! next, so two sets of runs of the same code landed up to 40 % apart. A
//! fixed floating-point kernel that lives in this file follows those
//! stretches: it took 2.38 ms in a slow stretch and 1.50 ms in a fast one
//! (×1.59, at ten times the length used here), and the same eight `park`
//! episodes took ×1.57 to ×1.60 as long. Over 150 s of repeated `park`
//! set-ups (model parsing, scenario building), scaling each by the
//! kernel cut their coefficient of variation from 0.087 to 0.048.
//!
//! A workload samples the kernel while its own work is paused, and scales
//! the times of a phase by `NOMINAL_MS / median kernel time` of the
//! samples taken in that phase. The scaled times read as if the machine
//! ran at the speed at which the kernel takes `NOMINAL_MS`. The kernel
//! does not call into the program, so a change to the program moves the
//! scaled times in proportion to the raw ones; only the machine's speed
//! cancels, as far as the program's time follows the kernel's. The raw
//! times go to standard error next to the scaled ones.

use crate::stats;
use std::time::Instant;

/// Kernel time, in milliseconds, that the scaled times are expressed at:
/// about the kernel's median on the reference machine (a 2-vCPU x86-64
/// KVM guest), so scaled and raw times are of the same size there.
pub const NOMINAL_MS: f64 = 0.2;

/// Samples taken after each set-up, for the scale of `setup_s`.
pub const SAMPLES_PER_SETUP: usize = 4;

/// Side of the kernel's square matrix (18 KiB of `f64`, inside L1/L2).
const N: usize = 48;

/// Matrix-vector products per kernel run.
const PRODUCTS: usize = 150;

/// A fixed floating-point kernel and the times it took.
pub struct Reference {
    matrix: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    samples_ms: Vec<f64>,
    spent_s: f64,
}

impl Reference {
    /// A reference with no samples.
    pub fn new() -> Reference {
        let matrix = (0..N * N)
            .map(|i| ((i * 7919) % 101) as f64 / 101.0 - 0.5)
            .collect();
        Reference {
            matrix,
            x: vec![1.0; N],
            y: vec![0.0; N],
            samples_ms: Vec::with_capacity(4096),
            spent_s: 0.0,
        }
    }

    /// Runs the kernel once and records its time: a power iteration of
    /// the matrix, each product summed in order so that every run does
    /// the same floating-point work.
    pub fn sample(&mut self) {
        let start = Instant::now();
        for _ in 0..PRODUCTS {
            for (row, y) in self.matrix.chunks_exact(N).zip(self.y.iter_mut()) {
                *y = row.iter().zip(&self.x).map(|(a, x)| a * x).sum();
            }
            let scale = self.y.iter().fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = y / scale;
            }
            std::hint::black_box(&mut self.x);
        }
        let elapsed = start.elapsed().as_secs_f64();
        self.samples_ms.push(elapsed * 1e3);
        self.spent_s += elapsed;
    }

    /// Wall time spent in [`Reference::sample`] so far, in seconds, so
    /// that a caller can take it out of a span that held samples.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Median kernel time in milliseconds (NaN without samples).
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.samples_ms)
    }

    /// What a time measured alongside these samples is multiplied by to
    /// read at the nominal speed (NaN without samples).
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_median_sample() {
        let mut r = Reference::new();
        assert!(r.scale().is_nan(), "no samples, no scale");
        r.samples_ms = vec![0.3, 0.1, 0.2, 10.0, 0.2];
        assert_eq!(r.median_ms(), 0.2);
        assert_eq!(r.scale(), NOMINAL_MS / 0.2);
    }

    #[test]
    fn sampling_records_time_and_keeps_the_iterate_finite() {
        let mut r = Reference::new();
        for _ in 0..3 {
            r.sample();
        }
        assert_eq!(r.samples_ms.len(), 3);
        assert!(r.median_ms() > 0.0 && r.spent_s() > 0.0);
        assert!(r.x.iter().all(|v| v.is_finite()));
    }
}
