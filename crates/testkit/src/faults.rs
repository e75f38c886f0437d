//! Deterministic fault-injection harness.
//!
//! A [`FaultCase`] names a seeded [`FaultPlan`] scenario (worker
//! panics, execution delays, or both). The verifiers run one
//! simulation twice — once on the process-wide clean pool, once on a
//! dedicated faulted [`Runtime`] — and prove the paper's numbers are
//! *fault-invariant*:
//!
//! * **no job loss**: every submitted window job completes;
//! * **no duplication**: completions equal user submissions exactly;
//! * **containment**: the only failed jobs are the injected chaos
//!   panics, counted one for one;
//! * **bit-identical results**: per-run results and the PSNR sum
//!   match the clean pool bit for bit.
//!
//! Every panic message carries the case name and seed, so a red run
//! replays exactly.

use std::sync::Arc;
use std::time::Duration;

use fcr_runtime::{FaultPlan, FaultReport, FaultSpec, Runtime, RuntimeConfig, ShardPolicy};
use fcr_sim::{config::SimConfig, Scenario, Scheme, SimSession};

/// One named, seeded fault scenario.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// Human-readable scenario name (appears in failure messages).
    pub name: &'static str,
    /// Seed expanded into the concrete fault schedule.
    pub seed: u64,
    /// Shape of the schedule (how many of each fault, over how many
    /// jobs).
    pub spec: FaultSpec,
}

impl FaultCase {
    /// Expands this case into a concrete [`FaultPlan`].
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::seeded(self.seed, &self.spec)
    }

    /// A fresh dedicated 2-worker runtime with this case's plan
    /// installed.
    pub fn runtime(&self) -> Runtime {
        let config = RuntimeConfig {
            workers: 2,
            queue_capacity: 64,
            ..RuntimeConfig::default()
        };
        Runtime::with_faults(config, self.plan())
    }
}

/// The standard chaos corpus: two single-fault storms plus a mixed
/// plan, all derived from `base_seed` so a whole suite replays from
/// one number.
pub fn standard_cases(base_seed: u64) -> Vec<FaultCase> {
    let over = |panics, delays| FaultSpec {
        jobs: 12,
        panics,
        delays,
        max_delay: Duration::from_millis(2),
    };
    vec![
        FaultCase {
            name: "panic-storm",
            seed: base_seed ^ 0x01,
            spec: over(4, 0),
        },
        FaultCase {
            name: "delay-storm",
            seed: base_seed ^ 0x02,
            spec: over(0, 6),
        },
        FaultCase {
            name: "mixed-chaos",
            seed: base_seed ^ 0x04,
            spec: over(3, 3),
        },
    ]
}

/// Keeps the default panic hook for *real* panics but silences the
/// injected chaos panics, which would otherwise flood stderr with
/// thousands of expected backtraces. Idempotent enough for test use:
/// installing it twice only nests the filter.
pub fn install_quiet_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg_is_chaos = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected chaos panic"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected chaos panic"))
            })
            .unwrap_or(false);
        if !msg_is_chaos {
            default_hook(info);
        }
    }));
}

/// What a verifier observed on the faulted pool.
#[derive(Debug, Clone)]
pub struct FaultVerdict {
    /// The case that ran.
    pub case_name: &'static str,
    /// Its seed (replay key).
    pub seed: u64,
    /// The plan's own accounting after the run.
    pub report: FaultReport,
    /// User window jobs the session submitted.
    pub user_jobs: u64,
    /// Jobs the faulted pool completed.
    pub jobs_completed: u64,
    /// Jobs the faulted pool contained a panic from.
    pub jobs_failed: u64,
}

fn psnr_sum_bits(psnrs: impl Iterator<Item = f64>) -> u64 {
    let sum: f64 = psnrs.sum();
    sum.to_bits()
}

macro_rules! case_assert {
    ($case:expr, $cond:expr, $($msg:tt)+) => {
        assert!(
            $cond,
            "[fault case {} seed {:#x}] {}",
            $case.name,
            $case.seed,
            format!($($msg)+),
        )
    };
}

/// Waits until every accepted job has been accounted for (completed
/// or contained): sessions only join *their* handles, so an injected
/// chaos job submitted near the end may still be in flight when the
/// session returns.
fn drain(runtime: &Runtime) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let m = runtime.metrics().snapshot();
        if m.queue_depth == 0
            && m.jobs_in_flight == 0
            && m.jobs_submitted == m.jobs_completed + m.jobs_failed
        {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "faulted pool failed to drain: {m:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn verify_invariants(
    case: &FaultCase,
    runtime: &Runtime,
    user_jobs: u64,
    baseline_bits: u64,
    injected_bits: u64,
    results_equal: bool,
) -> FaultVerdict {
    drain(runtime);
    let report = runtime
        .fault_report()
        .expect("faulted runtime reports its plan");
    let m = runtime.metrics().snapshot();
    case_assert!(
        case,
        results_equal,
        "per-run results diverged from the clean pool"
    );
    case_assert!(
        case,
        injected_bits == baseline_bits,
        "PSNR sum not bit-identical: clean {baseline_bits:#x} vs faulted {injected_bits:#x}"
    );
    case_assert!(
        case,
        m.jobs_failed == report.panics_injected,
        "containment leak: {} failed jobs vs {} injected panics",
        m.jobs_failed,
        report.panics_injected
    );
    case_assert!(
        case,
        m.jobs_submitted == user_jobs + report.panics_injected,
        "submission accounting: {} submitted vs {} user + {} chaos",
        m.jobs_submitted,
        user_jobs,
        report.panics_injected
    );
    case_assert!(
        case,
        m.jobs_completed == user_jobs,
        "job loss or duplication: {} completed vs {} submitted windows",
        m.jobs_completed,
        user_jobs
    );
    case_assert!(
        case,
        m.queue_depth == 0 && m.jobs_in_flight == 0,
        "pool not quiescent after session: depth {} in-flight {}",
        m.queue_depth,
        m.jobs_in_flight
    );
    case_assert!(
        case,
        report.pending == 0,
        "{} planned faults never fired (size the spec to the workload)",
        report.pending
    );
    FaultVerdict {
        case_name: case.name,
        seed: case.seed,
        report,
        user_jobs,
        jobs_completed: m.jobs_completed,
        jobs_failed: m.jobs_failed,
    }
}

/// Runs `scheme` on the fluid engine with and without `case`'s faults
/// and asserts the invariance contract. Shards one GOP per window so
/// the workload (and thus the fault schedule coverage) is independent
/// of pool width.
pub fn verify_fluid_under_faults(
    case: &FaultCase,
    cfg: &SimConfig,
    scenario: &Scenario,
    scheme: Scheme,
    master_seed: u64,
    runs: u64,
) -> FaultVerdict {
    let base = SimSession::new(scenario.clone())
        .config(*cfg)
        .seed(master_seed)
        .runs(runs)
        .shards(ShardPolicy::Windows(1));
    let baseline = base.run(scheme).results();

    let runtime = Arc::new(case.runtime());
    let injected = SimSession::new(scenario.clone())
        .config(*cfg)
        .seed(master_seed)
        .runs(runs)
        .shards(ShardPolicy::Windows(1))
        .on_runtime(Arc::clone(&runtime))
        .run(scheme)
        .results();

    verify_invariants(
        case,
        &runtime,
        runs * u64::from(cfg.gops),
        psnr_sum_bits(
            baseline
                .iter()
                .flat_map(|r| r.per_user_psnr.iter().copied()),
        ),
        psnr_sum_bits(
            injected
                .iter()
                .flat_map(|r| r.per_user_psnr.iter().copied()),
        ),
        injected == baseline,
    )
}

/// Packet-engine counterpart of [`verify_fluid_under_faults`]: same
/// invariance contract on the NAL-unit-granular engine.
pub fn verify_packet_under_faults(
    case: &FaultCase,
    cfg: &SimConfig,
    scenario: &Scenario,
    scheme: Scheme,
    master_seed: u64,
    runs: u64,
) -> FaultVerdict {
    let base = SimSession::new(scenario.clone())
        .config(*cfg)
        .seed(master_seed)
        .runs(runs)
        .shards(ShardPolicy::Windows(1));
    let baseline = base.run_packet(scheme).results();

    let runtime = Arc::new(case.runtime());
    let injected = SimSession::new(scenario.clone())
        .config(*cfg)
        .seed(master_seed)
        .runs(runs)
        .shards(ShardPolicy::Windows(1))
        .on_runtime(Arc::clone(&runtime))
        .run_packet(scheme)
        .results();

    verify_invariants(
        case,
        &runtime,
        runs * u64::from(cfg.gops),
        psnr_sum_bits(
            baseline
                .iter()
                .flat_map(|r| r.per_user_psnr.iter().copied()),
        ),
        psnr_sum_bits(
            injected
                .iter()
                .flat_map(|r| r.per_user_psnr.iter().copied()),
        ),
        injected == baseline,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_standard_corpus_is_replayable_and_distinct() {
        let a = standard_cases(7);
        let b = standard_cases(7);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.plan().report(), y.plan().report());
        }
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 3, "cases must not share seeds");
    }

    #[test]
    fn each_storm_actually_schedules_its_fault_kind() {
        let cases = standard_cases(11);
        let pending: Vec<u64> = cases.iter().map(|c| c.plan().report().pending).collect();
        // Panics never merge, so the panic storm schedules exactly its
        // spec count; colliding delay keys accumulate into one firing,
        // so a delay storm may schedule fewer (but never zero) pending
        // entries.
        assert_eq!(pending[0], 4, "panic storm");
        assert!(pending[1] >= 1 && pending[1] <= 6, "delay storm");
        assert!(pending[2] >= 4 && pending[2] <= 6, "mixed chaos");
    }
}
