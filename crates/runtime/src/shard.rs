//! Intra-run sharding policy.
//!
//! The paper's per-slot decomposition (problems (11)/(12)) makes each
//! slot window an independently schedulable unit once the RNG streams
//! are derived at a fixed granularity. [`ShardPolicy`] decides how a
//! multi-GOP run is cut into windows.

/// How a multi-GOP simulation run is split into independently
/// schedulable slot-window shards.
///
/// The policy only **groups** GOPs into jobs; it never changes how RNG
/// substreams are derived (those are fixed per `(run, gop)`), so every
/// choice here yields bit-identical results — only the parallelism
/// changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardPolicy {
    /// Pick a window size automatically from the run length and the
    /// pool width (targets ~2 shards per worker, window ≥ 1 GOP).
    #[default]
    Auto,
    /// One shard per run — the pre-sharding behaviour; a long run
    /// occupies a single worker.
    WholeRun,
    /// Fixed window of `n` GOPs per shard (values of 0 are treated
    /// as 1).
    Windows(u32),
}

impl ShardPolicy {
    /// Resolves to a concrete window size in GOPs for a run of
    /// `total_gops` scheduled on a pool `workers` wide. Always ≥ 1;
    /// never exceeds `total_gops` (for `total_gops ≥ 1`).
    pub fn window_gops(self, total_gops: u64, workers: usize) -> u64 {
        let total = total_gops.max(1);
        match self {
            ShardPolicy::WholeRun => total,
            ShardPolicy::Windows(n) => u64::from(n).clamp(1, total),
            ShardPolicy::Auto => {
                let target_shards = (workers.max(1) as u64) * 2;
                total.div_ceil(target_shards).clamp(1, total)
            }
        }
    }

    /// Number of windows the policy produces for a run of
    /// `total_gops`.
    pub fn windows(self, total_gops: u64, workers: usize) -> u64 {
        let total = total_gops.max(1);
        total.div_ceil(self.window_gops(total, workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_run_is_one_window() {
        assert_eq!(ShardPolicy::WholeRun.window_gops(40, 4), 40);
        assert_eq!(ShardPolicy::WholeRun.windows(40, 4), 1);
    }

    #[test]
    fn fixed_windows_clamp_to_run_length_and_one() {
        assert_eq!(ShardPolicy::Windows(3).window_gops(10, 4), 3);
        assert_eq!(ShardPolicy::Windows(3).windows(10, 4), 4); // 3+3+3+1
        assert_eq!(ShardPolicy::Windows(0).window_gops(10, 4), 1);
        assert_eq!(ShardPolicy::Windows(99).window_gops(10, 4), 10);
        assert_eq!(ShardPolicy::Windows(99).windows(10, 4), 1);
    }

    #[test]
    fn auto_targets_about_two_shards_per_worker() {
        // 40 GOPs on 4 workers → 8 target shards → 5-GOP windows.
        assert_eq!(ShardPolicy::Auto.window_gops(40, 4), 5);
        assert_eq!(ShardPolicy::Auto.windows(40, 4), 8);
        // Short runs never produce empty windows.
        assert_eq!(ShardPolicy::Auto.window_gops(1, 8), 1);
        assert_eq!(ShardPolicy::Auto.windows(1, 8), 1);
        // Degenerate worker counts are treated as 1.
        assert!(ShardPolicy::Auto.window_gops(10, 0) >= 1);
    }

    #[test]
    fn windows_cover_the_whole_run_exactly() {
        for policy in [
            ShardPolicy::Auto,
            ShardPolicy::WholeRun,
            ShardPolicy::Windows(1),
            ShardPolicy::Windows(3),
            ShardPolicy::Windows(7),
        ] {
            for gops in 1..=25u64 {
                for workers in 1..=6usize {
                    let w = policy.window_gops(gops, workers);
                    let n = policy.windows(gops, workers);
                    assert!(w >= 1 && w <= gops);
                    assert!(n * w >= gops, "{policy:?} {gops} {workers}");
                    assert!((n - 1) * w < gops, "{policy:?} {gops} {workers}");
                }
            }
        }
    }
}
