//! Timing helpers shared by every workload: repeated set-up with a
//! median, the closed measurement loop, calibrated busy time,
//! percentiles that refuse thin tails, and process CPU / memory
//! readings.

use crate::host::HostClock;
use std::time::{Duration, Instant};

/// Fewest samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Runs `setup` `reps` times and returns the median calibrated time of
/// one set-up together with the value the last repetition built. Each
/// repetition must include the workload's discarded warm-up, so the
/// timed loop that follows starts warm. The previous repetition's value
/// is dropped (a pool joins its workers) before the next timer starts.
/// `clock` samples the host before the first repetition and after each.
pub fn repeated_setup<T>(
    reps: usize,
    clock: &mut HostClock,
    mut setup: impl FnMut() -> T,
) -> (Duration, T) {
    assert!(reps >= 1, "need at least one set-up");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    clock.sample(1);
    for _ in 0..reps {
        drop(last.take());
        let started = Instant::now();
        let value = setup();
        let took = started.elapsed();
        times.push(took.mul_f64(clock.scale_to_sample(1)));
        last = Some(value);
    }
    times.sort_unstable();
    (times[reps / 2], last.expect("reps >= 1"))
}

/// Time the ops of one loop ran, measured and calibrated, s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub measured: f64,
    pub calibrated: f64,
}

impl Busy {
    /// Adds `measured` seconds that calibrate by `scale`.
    pub fn add(&mut self, measured: f64, scale: f64) {
        self.measured += measured;
        self.calibrated += measured * scale;
    }

    /// The loop's overall calibration factor.
    pub fn scale(&self) -> f64 {
        self.calibrated / self.measured
    }
}

impl std::ops::AddAssign for Busy {
    fn add_assign(&mut self, other: Busy) {
        self.measured += other.measured;
        self.calibrated += other.calibrated;
    }
}

/// What a measurement loop observed.
#[derive(Debug, Clone, Copy)]
pub struct LoopStats {
    /// Units the loop ran (ops, or replay passes).
    pub units: usize,
    /// Wall time of the whole loop.
    pub wall: Duration,
    /// Process CPU time spent during the loop (all threads).
    pub cpu: Duration,
}

/// Runs `unit(k)` for `k = 0, 1, …` until `budget` has elapsed and at
/// least `min_units` units ran, stopping early once `max_units` ran.
/// Nothing before the first call is timed.
pub fn closed_loop(
    budget: Duration,
    min_units: usize,
    max_units: usize,
    mut unit: impl FnMut(usize),
) -> LoopStats {
    let cpu0 = process_cpu();
    let started = Instant::now();
    let mut units = 0;
    while units < max_units && (units < min_units || started.elapsed() < budget) {
        unit(units);
        units += 1;
    }
    LoopStats {
        units,
        wall: started.elapsed(),
        cpu: process_cpu().saturating_sub(cpu0),
    }
}

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or an
/// error when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
    let n = samples.len();
    // Nearest rank: the value at 1-based rank ⌈q·n⌉; everything after
    // it in sorted order lies beyond the percentile.
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "{n} latency samples leave fewer than {MIN_BEYOND} beyond p{}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// User plus system CPU time of this process so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime) of proc(5); `fields[0]` is field 3.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    fcr_telemetry::peak_rss_kb() as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_refuses_percentiles_with_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 has exactly ten beyond it, p99 only one.
        assert_eq!(tail(&samples, 0.90), Ok(90.0));
        assert!(tail(&samples, 0.99).is_err());
        assert!(tail(&samples[..99], 0.90).is_err());
        // 1000 samples carry a p99 with ten beyond.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99), Ok(990.0));
        assert!(tail(&many[..999], 0.99).is_err());
        assert!(tail(&[], 0.5).is_err());
    }

    #[test]
    fn timing_starts_only_after_the_warm_up() {
        let warm_up = Duration::from_millis(30);
        let mut clock = HostClock::default();
        let (setup, warmed_at) = repeated_setup(3, &mut clock, || {
            std::thread::sleep(warm_up);
            Instant::now()
        });
        // Each set-up is calibrated by the samples around it.
        let slowest = (0..3)
            .map(|i| clock.scale(i, i + 1))
            .fold(f64::MAX, f64::min);
        assert!(
            setup >= warm_up.mul_f64(slowest),
            "set-up time must include the warm-up"
        );
        let mut starts = Vec::new();
        let mut latencies = Vec::new();
        let stats = closed_loop(Duration::ZERO, 5, usize::MAX, |_| {
            let t = Instant::now();
            starts.push(t);
            std::thread::sleep(Duration::from_millis(1));
            latencies.push(t.elapsed());
        });
        assert_eq!(stats.units, 5);
        assert!(
            starts[0] >= warmed_at,
            "first op timed before the warm-up ended"
        );
        assert!(latencies.iter().all(|l| *l < warm_up));
        assert!(stats.wall < warm_up * 5, "loop wall must exclude set-up");
    }

    #[test]
    fn set_up_time_excludes_dropping_the_previous_repetition() {
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let mut clock = HostClock::default();
        let (setup, _last) = repeated_setup(3, &mut clock, || SlowDrop);
        let fastest = (0..3).map(|i| clock.scale(i, i + 1)).fold(0.0, f64::max);
        assert!(
            setup < Duration::from_millis(50).mul_f64(fastest),
            "{setup:?}"
        );
    }

    #[test]
    fn closed_loop_honours_min_and_max_units() {
        assert_eq!(closed_loop(Duration::ZERO, 3, usize::MAX, |_| {}).units, 3);
        assert_eq!(closed_loop(Duration::from_secs(60), 1, 4, |_| {}).units, 4);
    }
}
