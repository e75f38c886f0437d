//! Job priorities: service classes and earliest-deadline-first
//! ordering.
//!
//! Video delivery is deadline work — the paper's per-slot decomposition
//! (problems (11)/(12)) is exactly what makes GOP-window shards
//! independently schedulable, and once they are independent the *order*
//! they run in is a free policy knob. A [`Priority`] attaches a service
//! class ([`PriorityClass::Urgent`] / [`PriorityClass::Normal`] /
//! [`PriorityClass::Bulk`]) and an optional absolute deadline to every
//! submitted job; the pool's run queue keeps one small deque per class,
//! ordered earliest-deadline-first (EDF) within the class, and every
//! pop takes the highest-class-earliest-deadline job first.
//!
//! Priorities change **only execution order** — never results. Every
//! simulation job derives its RNG streams from `(master seed, run,
//! gop)`, so a mixed Urgent/Bulk workload produces bit-identical
//! numbers to a FIFO one (pinned by `tests/determinism.rs`).

use std::time::{Duration, Instant};

/// The service class of a job: which run-queue deque it waits in.
///
/// Classes are strict: a worker never starts a Bulk job while an
/// Urgent or Normal job is queued (every pop scans the classes in this
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityClass {
    /// Latency-sensitive work (interactive trace runs, live probes):
    /// always dequeued before the other classes.
    Urgent,
    /// The default class; ordinary batch work.
    #[default]
    Normal,
    /// Throughput work that may wait (parameter sweeps, backfill):
    /// dequeued only when no Urgent/Normal job is visible.
    Bulk,
}

impl PriorityClass {
    /// Number of classes (= run-queue deque count).
    pub const COUNT: usize = 3;

    /// Every class, in dequeue order (highest first).
    pub const ALL: [PriorityClass; PriorityClass::COUNT] = [
        PriorityClass::Urgent,
        PriorityClass::Normal,
        PriorityClass::Bulk,
    ];

    /// Dequeue rank: 0 is served first.
    pub(crate) fn rank(self) -> usize {
        match self {
            PriorityClass::Urgent => 0,
            PriorityClass::Normal => 1,
            PriorityClass::Bulk => 2,
        }
    }

    /// Lower-case name for telemetry and tables.
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Urgent => "urgent",
            PriorityClass::Normal => "normal",
            PriorityClass::Bulk => "bulk",
        }
    }
}

/// A job's scheduling priority: its class plus an optional absolute
/// deadline.
///
/// Within a class, jobs with deadlines run earliest-deadline-first;
/// jobs without a deadline run after every deadlined sibling, in FIFO
/// submission order. `Priority::default()` is
/// `(PriorityClass::Normal, no deadline)` — exactly the pre-priority
/// FIFO behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Priority {
    /// The service class.
    pub class: PriorityClass,
    /// Optional absolute deadline for EDF ordering inside the class.
    /// Purely advisory: a missed deadline never cancels the job, it
    /// only stops boosting it ahead of its siblings.
    pub deadline: Option<Instant>,
}

impl Priority {
    /// An [`PriorityClass::Urgent`] priority without a deadline.
    pub fn urgent() -> Self {
        Priority {
            class: PriorityClass::Urgent,
            deadline: None,
        }
    }

    /// The default [`PriorityClass::Normal`] priority.
    pub fn normal() -> Self {
        Priority::default()
    }

    /// A [`PriorityClass::Bulk`] priority without a deadline.
    pub fn bulk() -> Self {
        Priority {
            class: PriorityClass::Bulk,
            deadline: None,
        }
    }

    /// Returns a copy carrying an absolute EDF deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy whose deadline is `from_now` in the future.
    pub fn deadline_in(self, from_now: Duration) -> Self {
        self.with_deadline(Instant::now() + from_now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_normal_without_deadline() {
        let p = Priority::default();
        assert_eq!(p.class, PriorityClass::Normal);
        assert_eq!(p.deadline, None);
        assert_eq!(p, Priority::normal());
    }

    #[test]
    fn ranks_follow_dequeue_order() {
        assert_eq!(PriorityClass::Urgent.rank(), 0);
        assert_eq!(PriorityClass::Normal.rank(), 1);
        assert_eq!(PriorityClass::Bulk.rank(), 2);
        for (i, class) in PriorityClass::ALL.iter().enumerate() {
            assert_eq!(class.rank(), i);
        }
        assert_eq!(PriorityClass::ALL.len(), PriorityClass::COUNT);
    }

    #[test]
    fn builders_set_class_and_deadline() {
        let t = Instant::now() + Duration::from_millis(5);
        let p = Priority::urgent().with_deadline(t);
        assert_eq!(p.class, PriorityClass::Urgent);
        assert_eq!(p.deadline, Some(t));
        let q = Priority::bulk().deadline_in(Duration::from_millis(1));
        assert_eq!(q.class, PriorityClass::Bulk);
        assert!(q.deadline.expect("set") > Instant::now() - Duration::from_secs(1));
        assert_eq!(PriorityClass::Urgent.name(), "urgent");
        assert_eq!(PriorityClass::Normal.name(), "normal");
        assert_eq!(PriorityClass::Bulk.name(), "bulk");
    }
}
