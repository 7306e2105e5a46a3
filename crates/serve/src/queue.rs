//! The bounded submission queue feeding the persistent worker pool.
//!
//! A deliberately boring MPMC queue — `Mutex<VecDeque>` plus two
//! condvars — because the jobs it carries are compiles that cost
//! microseconds to milliseconds each: queue overhead is noise, but the
//! *bound* is load-bearing. A full queue is the service's backpressure
//! signal: a submitter blocks on `not_full` in [`BoundedQueue::push`]
//! until a worker frees a slot, so overload pushes back on whoever is
//! submitting.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer FIFO.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity >= 1` items.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items queued right now (the stats queue-depth gauge).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue mutex").items.len()
    }

    /// Blocking enqueue: waits for space while the queue is full
    /// (backpressure propagates to the submitter's thread). Returns the
    /// item back if the queue closed while waiting.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue mutex");
        while state.items.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("queue condvar");
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking dequeue: waits for an item; `None` once the queue is
    /// closed *and* drained (workers exit on `None`).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue mutex");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue condvar");
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// every blocked waiter wakes.
    pub fn close(&self) {
        self.state.lock().expect("queue mutex").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2).is_ok());
        // The producer is blocked on a full queue; popping frees it.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_wakes_blocked_producers_with_their_item() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(2));
        assert_eq!(q.push(3), Err(3), "a closed queue refuses pushes");
        // Close drains pending items before ending the consumers.
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }
}
