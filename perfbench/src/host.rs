//! Host-speed calibration of every timing this benchmark reports.
//!
//! The shared host this benchmark was written on runs the same code at
//! two speeds, switching every few seconds to a minute as its other
//! load comes and goes: the kernel below takes ~1.7× longer in the slow
//! state, and a 30 s run lands in a different mix of the two each time.
//! So every run times [`kernel`] between its ops, and reports each op's
//! time as it would be on a host where the kernel takes [`NOMINAL_MS`]:
//!
//! ```text
//! calibrated = measured · NOMINAL_MS / k
//! ```
//!
//! `k` is the mean kernel time of the samples taken right before and
//! right after the op. Over a run, every workload's op time moved in
//! proportion to `k` (NOTES.md). The kernel is the benchmark's own
//! code, so a change to the program moves the calibrated figures
//! exactly as it moves the measured ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time, ms, every timing is scaled to.
pub const NOMINAL_MS: f64 = 2.5;
/// Kernel iterations per run: ~1.7 ms in the host's fast state.
const KERNEL_ITERS: usize = 200_000;
/// The kernel's working set: 256 KiB of random read-modify-writes.
const KERNEL_WORDS: usize = 32 * 1024;

/// A fixed mix of integer hashing, random read-modify-writes over a
/// 256 KiB table and floating-point `ln`/`sqrt`/division. Of the
/// kernels tried, this one's slowdown tracked the paper workload's best.
fn kernel(table: &mut [u64]) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0;
    for _ in 0..KERNEL_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x % table.len() as u64) as usize;
        table[j] = table[j].wrapping_add(x);
        let f = (x >> 11) as f64 / (1u64 << 53) as f64 + 1e-3;
        acc += f.ln() * f.sqrt() / (1.0 + f);
    }
    acc
}

/// Kernel samples of one run, in the order they were taken.
#[derive(Debug)]
pub struct HostClock {
    table: Vec<u64>,
    samples_ms: Vec<f64>,
    spent: Duration,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            table: vec![1; KERNEL_WORDS],
            samples_ms: Vec::new(),
            spent: Duration::ZERO,
        }
    }
}

impl HostClock {
    /// Times `reps` kernel runs and records their mean as one sample.
    /// Returns the sample's index.
    pub fn sample(&mut self, reps: usize) -> usize {
        assert!(reps >= 1, "a sample runs the kernel at least once");
        let started = Instant::now();
        for _ in 0..reps {
            black_box(kernel(&mut self.table));
        }
        let took = started.elapsed();
        self.spent += took;
        self.samples_ms.push(took.as_secs_f64() * 1e3 / reps as f64);
        self.samples_ms.len() - 1
    }

    /// Index of the latest sample.
    pub fn latest(&self) -> usize {
        self.samples_ms.len().checked_sub(1).expect("no sample yet")
    }

    /// Takes a sample and returns the factor that calibrates a time
    /// measured since the previous one.
    pub fn scale_to_sample(&mut self, reps: usize) -> f64 {
        let after = self.sample(reps);
        assert!(after >= 1, "no sample before this one");
        self.scale(after - 1, after)
    }

    /// The factor that calibrates a time measured between samples
    /// `before` and `after`.
    pub fn scale(&self, before: usize, after: usize) -> f64 {
        NOMINAL_MS * 2.0 / (self.samples_ms[before] + self.samples_ms[after])
    }

    /// Wall time spent in the kernel so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scale_follows_the_samples() {
        let mut a = vec![1; KERNEL_WORDS];
        let mut b = vec![1; KERNEL_WORDS];
        assert_eq!(kernel(&mut a).to_bits(), kernel(&mut b).to_bits());

        let mut clock = HostClock::default();
        let (i, j) = (clock.sample(1), clock.sample(2));
        assert_eq!((i, j, clock.latest()), (0, 1, 1));
        assert!(clock.scale_to_sample(1) > 0.0);
        assert!(clock.spent() > Duration::ZERO);
        // A slower host (longer kernel) shrinks the factor in proportion.
        clock.samples_ms = vec![NOMINAL_MS, NOMINAL_MS, 4.0 * NOMINAL_MS];
        assert_eq!(clock.scale(0, 1), 1.0);
        assert_eq!(clock.scale(1, 2), 0.4);
    }
}
