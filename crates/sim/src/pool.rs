//! The process-wide simulation pool: the shared
//! [`fcr_runtime::Runtime`] every [`crate::session::SimSession`]
//! submits its window jobs to, and the domain counters those windows
//! feed.
//!
//! Sharing **one** elastic worker pool gives the whole process a hard
//! concurrency cap, replacing the seed's unbounded per-run thread
//! spawning. The shared pool runs the always-on background autoscaler
//! ([`fcr_runtime::AutoscaleConfig`]) so it sizes itself to the
//! workload without callers doing anything; resizes never change
//! results, only parallelism.

use fcr_runtime::{AutoscaleConfig, MetricsSnapshot, Runtime, RuntimeConfig};
use std::sync::OnceLock;

/// Name of the domain counter tracking simulated channel slots.
pub const SLOTS_COUNTER: &str = "slots_simulated";
/// Name of the domain counter tracking per-slot allocator invocations.
pub const SOLVER_COUNTER: &str = "solver_invocations";
/// Name of the domain counter tracking executed intra-run shard jobs
/// (GOP-aligned slot windows scheduled by [`crate::session::SimSession`]).
pub const SHARDS_COUNTER: &str = "shards_executed";

/// The process-wide runtime, built on first use and shared by every
/// experiment in the process. Sized by
/// [`std::thread::available_parallelism`], with the always-on
/// background autoscaler started (self-managing between `min_workers`
/// and the parallelism ceiling; a no-op on 1-core hosts).
pub fn shared() -> &'static Runtime {
    static POOL: OnceLock<Runtime> = OnceLock::new();
    POOL.get_or_init(|| {
        Runtime::with_config(RuntimeConfig {
            autoscale: Some(AutoscaleConfig::default()),
            ..RuntimeConfig::default()
        })
    })
}

/// A live snapshot of the shared pool's metrics (jobs, queue depth,
/// wall-time histogram, slots simulated, solver invocations).
pub fn snapshot() -> MetricsSnapshot {
    shared().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = shared() as *const Runtime;
        let b = shared() as *const Runtime;
        assert_eq!(a, b);
        assert!(shared().active_workers() >= 1);
        assert!(
            shared().autoscaler_running(),
            "shared pool must be self-managing"
        );
    }
}
