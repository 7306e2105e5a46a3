//! Singleflight miss deduplication.
//!
//! Under a duplicate storm — M threads missing the cache on the same key
//! at once — the old service let every one of them compile and race to
//! refresh the cache entry (benign for correctness, byte-identical
//! artifacts, but M − 1 compiles of pure waste). Now the first thread to
//! miss a key becomes the **leader**: it publishes an in-flight slot,
//! compiles exactly once, and broadcasts the outcome; every duplicate
//! requester that arrives while the slot is live becomes a **follower**
//! and blocks on the slot's condvar instead of compiling, receiving the
//! same `Arc<CompileResult>` (pointer-shared, not re-serialized). The
//! contract the tests and the `stack` bench pin down: a storm of N
//! identical concurrent requests performs exactly 1 compile.
//!
//! Failures broadcast too: if the leader's compile errors, every
//! follower receives the same [`crate::ServeError`] — errors are never
//! cached, so the *next* request for that key starts a fresh flight.

use crate::types::ServeError;
use qft_core::CompileResult;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// What a flight broadcasts to its followers: the cached-ready artifact
/// plus the cold compile cost, or the leader's error.
pub(crate) type FlightOutcome = Result<(Arc<CompileResult>, f64), ServeError>;

/// One in-flight compile: followers wait on `done` flipping to `Some`.
#[derive(Debug, Default)]
pub(crate) struct FlightSlot {
    done: Mutex<Option<FlightOutcome>>,
    cv: Condvar,
}

impl FlightSlot {
    /// Blocks until the leader publishes, then returns a clone of the
    /// outcome (`Arc` bump, no deep copy).
    pub fn wait(&self) -> FlightOutcome {
        let mut done = self.done.lock().expect("flight mutex");
        while done.is_none() {
            done = self.cv.wait(done).expect("flight condvar");
        }
        done.clone().expect("flight published")
    }
}

/// How a thread entered a flight.
pub(crate) enum FlightRole {
    /// First thread in: must compile and then [`Singleflight::publish`].
    Leader(Arc<FlightSlot>),
    /// A duplicate: waits on the leader's slot.
    Follower(Arc<FlightSlot>),
}

/// The in-flight table, keyed by the same 128-bit digest as the cache.
///
/// The table mutex is held only for the membership probe/insert/remove —
/// never across a compile or a wait — so it is not a contention point
/// even under a storm.
#[derive(Debug, Default)]
pub(crate) struct Singleflight {
    flights: Mutex<HashMap<u128, Arc<FlightSlot>>>,
}

impl Singleflight {
    pub fn new() -> Self {
        Self::default()
    }

    /// Joins the flight for `key`: the first caller becomes the leader
    /// (a fresh slot is published in the table), later callers become
    /// followers of that slot.
    pub fn join(&self, key: u128) -> FlightRole {
        let mut flights = self.flights.lock().expect("flight table mutex");
        match flights.get(&key) {
            Some(slot) => FlightRole::Follower(Arc::clone(slot)),
            None => {
                let slot = Arc::new(FlightSlot::default());
                flights.insert(key, Arc::clone(&slot));
                FlightRole::Leader(slot)
            }
        }
    }

    /// Leader-only: broadcasts the outcome to every follower and retires
    /// the flight, so the next miss on `key` starts a new one. The cache
    /// insert must happen *before* this call — a follower woken here may
    /// immediately re-request and must hit the cache, not start a new
    /// compile.
    pub fn publish(&self, key: u128, slot: &FlightSlot, outcome: FlightOutcome) {
        self.flights
            .lock()
            .expect("flight table mutex")
            .remove(&key);
        *slot.done.lock().expect("flight mutex") = Some(outcome);
        slot.cv.notify_all();
    }

    /// In-flight compiles right now (stats snapshot).
    pub fn len(&self) -> usize {
        self.flights.lock().expect("flight table mutex").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_leader_many_followers_single_publish() {
        let flights = Arc::new(Singleflight::new());
        let key = 42u128;
        let FlightRole::Leader(slot) = flights.join(key) else {
            panic!("first join must lead");
        };
        assert_eq!(flights.len(), 1);
        let followers: Vec<_> = (0..4)
            .map(|_| match flights.join(key) {
                FlightRole::Follower(s) => s,
                FlightRole::Leader(_) => panic!("duplicate join must follow"),
            })
            .collect();
        let waiters: Vec<_> = followers
            .into_iter()
            .map(|s| std::thread::spawn(move || s.wait()))
            .collect();
        let err = ServeError::bad_request("boom");
        flights.publish(key, &slot, Err(err.clone()));
        for w in waiters {
            assert_eq!(w.join().unwrap().unwrap_err(), err);
        }
        // The flight is retired: the next join leads again.
        assert_eq!(flights.len(), 0);
        assert!(matches!(flights.join(key), FlightRole::Leader(_)));
    }
}
