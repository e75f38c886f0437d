//! Jobs, handles, and outcomes.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobError {
    /// The job panicked; the payload (if it was a string) is preserved.
    /// The worker that ran the job survives.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// What a finished job yielded: its value, or why it failed.
pub type JobOutcome<T> = Result<T, JobError>;

/// Renders a panic payload for [`JobError::Panicked`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Shared completion slot between a [`JobHandle`] and the worker
/// executing the job.
pub(crate) struct CompletionSlot<T> {
    result: Mutex<Option<JobOutcome<T>>>,
    done: Condvar,
}

impl<T> CompletionSlot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(CompletionSlot {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    pub(crate) fn fulfill(&self, outcome: JobOutcome<T>) {
        let mut slot = self.result.lock().expect("completion slot poisoned");
        *slot = Some(outcome);
        self.done.notify_all();
    }
}

/// An owner's view of one submitted job; [`JobHandle::join`] blocks
/// until the worker fulfils it.
pub struct JobHandle<T> {
    slot: Arc<CompletionSlot<T>>,
}

impl<T> fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JobHandle<T> {
    pub(crate) fn new(slot: Arc<CompletionSlot<T>>) -> Self {
        JobHandle { slot }
    }

    /// Whether the job has finished (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.slot
            .result
            .lock()
            .expect("completion slot poisoned")
            .is_some()
    }

    /// Blocks until the job finishes and returns its outcome.
    ///
    /// A panicking job yields `Err(JobError::Panicked(..))` rather than
    /// propagating the panic.
    pub fn join(self) -> JobOutcome<T> {
        let mut guard = self.slot.result.lock().expect("completion slot poisoned");
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self
                .slot
                .done
                .wait(guard)
                .expect("completion slot poisoned");
        }
    }
}

/// Type-erased unit of work as stored in the run queue. The closure
/// already wraps panic catching, metrics recording, and result
/// delivery, so workers simply invoke it.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_reports_and_delivers() {
        let slot = CompletionSlot::new();
        let handle = JobHandle::new(Arc::clone(&slot));
        assert!(!handle.is_finished());
        slot.fulfill(Ok(7u32));
        assert!(handle.is_finished());
        assert_eq!(handle.join(), Ok(7));
    }

    #[test]
    fn join_blocks_until_fulfilled_from_another_thread() {
        let slot = CompletionSlot::<u8>::new();
        let handle = JobHandle::new(Arc::clone(&slot));
        let fulfiller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            slot.fulfill(Err(JobError::Panicked("late".into())));
        });
        assert_eq!(handle.join(), Err(JobError::Panicked("late".into())));
        fulfiller.join().unwrap();
    }

    #[test]
    fn panic_messages_render() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(boxed.as_ref()), "static str");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "<non-string panic payload>");
        assert_eq!(
            JobError::Panicked("boom".into()).to_string(),
            "job panicked: boom"
        );
    }
}
