//! Deterministic fault injection for the worker pool.
//!
//! A [`FaultPlan`] is a seeded, fully-precomputed schedule of faults
//! that a [`Runtime`](crate::Runtime) built via
//! [`Runtime::with_faults`](crate::Runtime::with_faults) replays at
//! well-defined seams:
//!
//! * **Worker panics** ([`FaultKind::WorkerPanic`]) are injected as
//!   separate *chaos jobs* enqueued immediately before the `at`-th user
//!   submission. A chaos job travels the entire normal path — bounded
//!   run queue, execution, `catch_unwind` containment — and then
//!   panics, so the pool's panic-containment machinery is
//!   exercised for real while user jobs stay untouched. Test suites can
//!   therefore assert *zero job loss or duplication* and bit-identical
//!   results against an uninjected run.
//! * **Delays** ([`FaultKind::Delay`]) stall a worker for a bounded
//!   duration immediately before it executes the `at`-th task
//!   (counting every execution, chaos jobs included). This perturbs
//!   execution/completion interleavings without altering any job's
//!   output.
//!
//! Faults fire **exactly once**: each is keyed by a monotone sequence
//! number (submission order for panics, execution order for delays)
//! and removed from the plan when consumed. The plan keeps counters so
//! tests can assert via [`FaultPlan::report`] that every scheduled
//! fault actually fired.
//!
//! Plans are either hand-built ([`FaultPlan::new`]) or derived
//! deterministically from a seed ([`FaultPlan::seeded`]) using an
//! inline SplitMix64 generator — this crate deliberately has no
//! dependencies, see `Cargo.toml`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What a single fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Enqueue a chaos job that panics inside the pool's containment.
    WorkerPanic,
    /// Stall the executing worker for the given duration.
    Delay(Duration),
}

/// A fault scheduled at a specific point in the pool's lifetime.
///
/// `at` counts *user submissions* for `WorkerPanic` faults and *task
/// executions* for `Delay` faults, both starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Sequence number at which the fault fires (see type docs).
    pub at: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// Shape parameters for [`FaultPlan::seeded`].
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Number of user submissions the plan should cover; fault
    /// positions are drawn uniformly from `0..jobs`.
    pub jobs: u64,
    /// How many chaos-panic jobs to schedule.
    pub panics: u32,
    /// How many execution delays to schedule.
    pub delays: u32,
    /// Upper bound (exclusive cap) for each random delay.
    pub max_delay: Duration,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            jobs: 64,
            panics: 3,
            delays: 4,
            max_delay: Duration::from_millis(5),
        }
    }
}

/// Summary of a plan's progress, from [`FaultPlan::report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// Seed the plan was built from (0 for hand-built plans).
    pub seed: u64,
    /// Chaos-panic jobs injected so far.
    pub panics_injected: u64,
    /// Execution delays applied so far.
    pub delays_injected: u64,
    /// Faults still scheduled but not yet fired.
    pub pending: u64,
}

impl FaultReport {
    /// Total faults fired so far.
    pub fn total_injected(&self) -> u64 {
        self.panics_injected + self.delays_injected
    }
}

/// A precomputed, exactly-once fault schedule (see module docs).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Chaos panics to inject, counted per user-submission sequence.
    panics: Mutex<BTreeMap<u64, u64>>,
    /// Execution delays, keyed by task-execution sequence.
    delays: Mutex<BTreeMap<u64, Duration>>,
    submitted: AtomicU64,
    executed: AtomicU64,
    panics_injected: AtomicU64,
    delays_injected: AtomicU64,
}

impl FaultPlan {
    /// Builds a plan from an explicit list of events.
    pub fn new(events: &[FaultEvent]) -> Self {
        Self::from_events(0, events)
    }

    /// Derives a plan deterministically from `seed` and `spec`: the
    /// same pair always yields the same schedule, so any failing run
    /// is replayable from its seed alone.
    pub fn seeded(seed: u64, spec: &FaultSpec) -> Self {
        let mut state = seed;
        let mut next = move || splitmix64(&mut state);
        let jobs = spec.jobs.max(1);
        let mut events = Vec::new();
        for _ in 0..spec.panics {
            events.push(FaultEvent {
                at: next() % jobs,
                kind: FaultKind::WorkerPanic,
            });
        }
        for _ in 0..spec.delays {
            let span = spec.max_delay.as_micros().max(1) as u64;
            events.push(FaultEvent {
                at: next() % jobs,
                kind: FaultKind::Delay(Duration::from_micros(next() % span + 1)),
            });
        }
        Self::from_events(seed, &events)
    }

    fn from_events(seed: u64, events: &[FaultEvent]) -> Self {
        let mut panics: BTreeMap<u64, u64> = BTreeMap::new();
        let mut delays: BTreeMap<u64, Duration> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                FaultKind::WorkerPanic => *panics.entry(ev.at).or_default() += 1,
                FaultKind::Delay(d) => {
                    // Collapse colliding delay keys by accumulation so
                    // no scheduled delay is silently lost.
                    let slot = delays.entry(ev.at).or_insert(Duration::ZERO);
                    *slot = slot.saturating_add(d);
                }
            }
        }
        FaultPlan {
            seed,
            panics: Mutex::new(panics),
            delays: Mutex::new(delays),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            panics_injected: AtomicU64::new(0),
            delays_injected: AtomicU64::new(0),
        }
    }

    /// Seed the plan was derived from (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Progress snapshot: what fired, what is still pending.
    pub fn report(&self) -> FaultReport {
        let pending_panics: u64 = self
            .panics
            .lock()
            .expect("fault plan poisoned")
            .values()
            .sum();
        let pending_del = self.delays.lock().expect("fault plan poisoned").len() as u64;
        FaultReport {
            seed: self.seed,
            panics_injected: self.panics_injected.load(Ordering::Relaxed),
            delays_injected: self.delays_injected.load(Ordering::Relaxed),
            pending: pending_panics + pending_del,
        }
    }

    /// Called by the pool once per *user* submission; returns how many
    /// chaos panics are scheduled at this submission index (each fires
    /// exactly once).
    pub(crate) fn take_submission_panics(&self) -> u64 {
        let seq = self.submitted.fetch_add(1, Ordering::Relaxed);
        let mut map = self.panics.lock().expect("fault plan poisoned");
        map.remove(&seq).unwrap_or_default()
    }

    /// Called by a worker once per task execution; returns the delay
    /// scheduled at this execution index, if any (exactly once).
    pub(crate) fn next_execution_delay(&self) -> Option<Duration> {
        let seq = self.executed.fetch_add(1, Ordering::Relaxed);
        let delay = {
            let mut map = self.delays.lock().expect("fault plan poisoned");
            map.remove(&seq)
        };
        if delay.is_some() {
            self.delays_injected.fetch_add(1, Ordering::Relaxed);
        }
        delay
    }

    pub(crate) fn note_panic_injected(&self) {
        self.panics_injected.fetch_add(1, Ordering::Relaxed);
    }
}

/// SplitMix64 step — tiny, dependency-free, and the same generator
/// family the vendored `rand` stand-in uses for seeding.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let spec = FaultSpec::default();
        let a = FaultPlan::seeded(42, &spec);
        let b = FaultPlan::seeded(42, &spec);
        assert_eq!(*a.panics.lock().unwrap(), *b.panics.lock().unwrap());
        let del_a: Vec<_> = a
            .delays
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        let del_b: Vec<_> = b
            .delays
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        assert_eq!(del_a, del_b);
        assert_eq!(a.seed(), 42);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = FaultSpec {
            jobs: 1_000_000,
            panics: 8,
            delays: 8,
            ..FaultSpec::default()
        };
        let a = FaultPlan::seeded(1, &spec);
        let b = FaultPlan::seeded(2, &spec);
        let keys_a: Vec<u64> = a.panics.lock().unwrap().keys().copied().collect();
        let keys_b: Vec<u64> = b.panics.lock().unwrap().keys().copied().collect();
        assert_ne!(keys_a, keys_b);
    }

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::new(&[
            FaultEvent {
                at: 1,
                kind: FaultKind::WorkerPanic,
            },
            FaultEvent {
                at: 1,
                kind: FaultKind::WorkerPanic,
            },
            FaultEvent {
                at: 0,
                kind: FaultKind::Delay(Duration::from_micros(10)),
            },
        ]);
        assert_eq!(plan.report().pending, 3);
        assert_eq!(plan.take_submission_panics(), 0); // submission 0
        assert_eq!(plan.take_submission_panics(), 2); // submission 1
        assert_eq!(plan.take_submission_panics(), 0); // submission 2
        assert_eq!(plan.next_execution_delay(), Some(Duration::from_micros(10))); // execution 0
        assert_eq!(plan.next_execution_delay(), None); // execution 1
        let report = plan.report();
        assert_eq!(report.delays_injected, 1);
        assert_eq!(report.pending, 0);
    }

    #[test]
    fn colliding_delays_accumulate() {
        let plan = FaultPlan::new(&[
            FaultEvent {
                at: 5,
                kind: FaultKind::Delay(Duration::from_micros(3)),
            },
            FaultEvent {
                at: 5,
                kind: FaultKind::Delay(Duration::from_micros(4)),
            },
        ]);
        let total: Duration = plan.delays.lock().unwrap().values().copied().sum();
        assert_eq!(total, Duration::from_micros(7));
    }

    #[test]
    fn report_tracks_pending() {
        let spec = FaultSpec::default();
        let plan = FaultPlan::seeded(7, &spec);
        let report = plan.report();
        assert_eq!(report.seed, 7);
        assert_eq!(report.total_injected(), 0);
        assert!(report.pending > 0);
    }
}
