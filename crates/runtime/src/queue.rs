//! The run queue: one bounded priority queue shared by every worker.
//!
//! [`RunQueue`] holds one small deque per [`PriorityClass`], ordered
//! earliest-deadline-first (EDF) within the class (deadline-less jobs
//! keep FIFO submission order behind every deadlined sibling). A pop
//! takes the highest class first, earliest deadline first inside it,
//! so whichever worker frees up next runs the most urgent queued job.
//! The pool keeps the queue inside its state mutex; it has no lock of
//! its own.

use crate::job::Task;
use crate::priority::{Priority, PriorityClass};
use std::collections::VecDeque;
use std::time::Instant;

/// One queued job: its EDF key plus the work itself. `seq` is the
/// queue-wide admission number breaking deadline ties FIFO.
struct Entry {
    deadline: Option<Instant>,
    seq: u64,
    task: Task,
}

impl Entry {
    /// EDF ordering inside one class: earlier deadlines first, then
    /// admission order; deadline-less entries sort after every
    /// deadlined one.
    fn precedes(&self, other: &Entry) -> bool {
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => (a, self.seq) < (b, other.seq),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => self.seq < other.seq,
        }
    }
}

/// The pool's queued jobs, one EDF deque per class.
#[derive(Default)]
pub(crate) struct RunQueue {
    /// One EDF deque per class, indexed by [`PriorityClass::rank`].
    classes: [VecDeque<Entry>; PriorityClass::COUNT],
    /// Total queued entries across the classes.
    len: usize,
    /// Next admission number.
    next_seq: u64,
}

impl RunQueue {
    /// Jobs queued across every class.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Enqueues `task` under `priority` unless `capacity` jobs (summed
    /// over all classes) are already queued, in which case the task is
    /// handed back (backpressure).
    pub(crate) fn try_push(
        &mut self,
        capacity: usize,
        priority: Priority,
        task: Task,
    ) -> Result<(), Task> {
        if self.len >= capacity {
            return Err(task);
        }
        let entry = Entry {
            deadline: priority.deadline,
            seq: self.next_seq,
            task,
        };
        self.next_seq += 1;
        let queue = &mut self.classes[priority.class.rank()];
        // EDF insertion point. Deadline-less entries carry the largest
        // admission number, so they always land at the back — pushing
        // without a deadline stays O(1) FIFO.
        let at = queue.partition_point(|existing| existing.precedes(&entry));
        queue.insert(at, entry);
        self.len += 1;
        Ok(())
    }

    /// Takes the highest-class earliest-deadline job, if any.
    pub(crate) fn pop(&mut self) -> Option<Task> {
        let entry = self.classes.iter_mut().find_map(VecDeque::pop_front)?;
        self.len -= 1;
        Some(entry.task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    fn noop() -> Task {
        Box::new(|| {})
    }

    /// A task that appends `tag` to a shared order log when executed.
    fn tagged(log: &Arc<Mutex<Vec<u32>>>, tag: u32) -> Task {
        let log = Arc::clone(log);
        Box::new(move || log.lock().unwrap().push(tag))
    }

    /// `try_push` with room to spare, asserting admission (`Task` isn't
    /// `Debug`, so plain `unwrap` doesn't compile).
    fn push(queue: &mut RunQueue, priority: Priority, task: Task) {
        assert!(queue.try_push(16, priority, task).is_ok(), "queue full");
    }

    fn drain(queue: &mut RunQueue) {
        while let Some(task) = queue.pop() {
            task();
        }
    }

    #[test]
    fn bounded_push_and_fifo_pop_within_a_class() {
        let order = Arc::new(AtomicU32::new(0));
        let mut queue = RunQueue::default();
        for tag in [10u32, 20] {
            let order = Arc::clone(&order);
            assert!(queue
                .try_push(
                    2,
                    Priority::normal(),
                    Box::new(move || {
                        order.store(tag, Ordering::SeqCst);
                    })
                )
                .is_ok());
        }
        // Full: the task comes back.
        assert!(queue.try_push(2, Priority::normal(), noop()).is_err());
        assert_eq!(queue.len(), 2);
        // A larger bound (the pool grew) admits it.
        assert!(queue.try_push(3, Priority::normal(), noop()).is_ok());
        // FIFO within the class.
        queue.pop().expect("first")();
        assert_eq!(order.load(Ordering::SeqCst), 10);
        queue.pop().expect("second")();
        assert_eq!(order.load(Ordering::SeqCst), 20);
        queue.pop().expect("third")();
        assert!(queue.pop().is_none());
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn classes_dequeue_urgent_before_normal_before_bulk() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut queue = RunQueue::default();
        // Submit in the *worst* order: bulk, normal, urgent.
        push(&mut queue, Priority::bulk(), tagged(&log, 3));
        push(&mut queue, Priority::normal(), tagged(&log, 2));
        push(&mut queue, Priority::urgent(), tagged(&log, 1));
        push(&mut queue, Priority::bulk(), tagged(&log, 4));
        drain(&mut queue);
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn edf_orders_within_a_class_and_capacity_spans_classes() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut queue = RunQueue::default();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        // Out-of-order deadlines plus one deadline-less straggler.
        push(
            &mut queue,
            Priority::normal().with_deadline(at(300)),
            tagged(&log, 30),
        );
        push(&mut queue, Priority::normal(), tagged(&log, 99));
        push(
            &mut queue,
            Priority::normal().with_deadline(at(100)),
            tagged(&log, 10),
        );
        push(
            &mut queue,
            Priority::normal().with_deadline(at(200)),
            tagged(&log, 20),
        );
        // Capacity counts across classes: a 5th push into a 4-job
        // queue bounces even in a different (higher) class.
        assert!(queue.try_push(4, Priority::urgent(), noop()).is_err());
        drain(&mut queue);
        assert_eq!(*log.lock().unwrap(), vec![10, 20, 30, 99]);
    }

    #[test]
    fn urgent_deadlines_beat_urgent_without() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut queue = RunQueue::default();
        push(&mut queue, Priority::urgent(), tagged(&log, 2));
        push(
            &mut queue,
            Priority::urgent().with_deadline(Instant::now()),
            tagged(&log, 1),
        );
        drain(&mut queue);
        assert_eq!(*log.lock().unwrap(), vec![1, 2]);
    }

    #[test]
    fn zero_capacity_admits_nothing() {
        let mut queue = RunQueue::default();
        assert!(queue.try_push(0, Priority::urgent(), noop()).is_err());
        assert_eq!(queue.len(), 0);
    }
}
