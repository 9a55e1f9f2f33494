//! The bounded job queue under the compile service.
//!
//! A `Mutex<VecDeque>` with two condition variables (`not_empty` for
//! workers, `not_full` for submitters) and an explicit close bit. The
//! capacity bound is what makes the service's memory footprint
//! independent of how fast clients submit: under [`Backpressure::Block`]
//! a saturated queue stalls the submitting thread (for `ecmasd` that
//! stalls the stdin reader, which stalls the pipe, which stalls the
//! producer — backpressure all the way out), and under
//! [`Backpressure::Reject`] the submitter gets the job back immediately
//! and decides for itself.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// What a submission does when the job queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Backpressure {
    /// Block the submitting thread until a worker frees a slot.
    Block,
    /// Refuse the job immediately; the caller gets it back and can retry,
    /// shed load, or report saturation upstream.
    Reject,
}

/// Why a push did not enqueue; the rejected item is handed back.
#[derive(Debug)]
pub(crate) enum PushError<T> {
    /// At capacity under [`Backpressure::Reject`].
    Full(T),
    /// The queue was closed (the service is shutting down).
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: blocking pop, close-to-drain semantics.
pub(crate) struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        JobQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item`, applying `backpressure` when at capacity.
    pub(crate) fn push(&self, item: T, backpressure: Backpressure) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(PushError::Closed(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            match backpressure {
                Backpressure::Reject => return Err(PushError::Full(item)),
                Backpressure::Block => {
                    inner = self.not_full.wait(inner).expect("queue lock");
                }
            }
        }
    }

    /// Dequeues the next job, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed *and* drained — the worker
    /// exit signal.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: no further pushes; pops drain what is left.
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Jobs currently waiting (not yet picked up by a worker).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = JobQueue::new(4);
        for i in 0..4 {
            q.push(i, Backpressure::Reject).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn reject_hands_the_item_back_when_full() {
        let q = JobQueue::new(1);
        q.push(1, Backpressure::Reject).unwrap();
        match q.push(2, Backpressure::Reject) {
            Err(PushError::Full(item)) => assert_eq!(item, 2),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = JobQueue::new(2);
        q.push(7, Backpressure::Block).unwrap();
        q.close();
        match q.push(8, Backpressure::Block) {
            Err(PushError::Closed(item)) => assert_eq!(item, 8),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn block_backpressure_waits_for_a_consumer() {
        let q = Arc::new(JobQueue::new(1));
        q.push(0u64, Backpressure::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                // Full: this blocks until the main thread pops.
                q.push(1, Backpressure::Block).unwrap();
            })
        };
        // Give the producer a chance to park, then unblock it.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(q.pop(), Some(0));
        producer.join().unwrap();
        assert_eq!(q.pop(), Some(1));
    }
}
