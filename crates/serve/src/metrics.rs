//! Lock-free admission metrics.
//!
//! Every counter the service maintains lives here as an `AtomicU64`, so
//! recording a hit, miss, dedup join, eviction, or error never
//! takes a lock — and reading [`crate::ServeStats`] never contends with
//! the hit path. (The old service already kept its counters atomic, but
//! eviction counts were derived under the cache lock and stats reads
//! locked the cache for occupancy; both are lock-free now — occupancy is
//! summed from per-shard lengths with each shard locked only for its
//! `len()`.)
//!
//! Latency percentiles come from a fixed-size **reservoir**: a ring of
//! `AtomicU64` slots (f64 seconds as bits) written at a
//! `fetch_add`-claimed position, wrapping. Writers never block; a stats
//! read snapshots the ring and sorts a copy. With 4096 slots the
//! snapshot always reflects the most recent ~4096 requests — exactly the
//! window a p50/p99 gauge should describe on a service whose load shifts.
//!
//! Claiming a slot and storing its value are two separate atomic steps,
//! so a snapshot can race a writer that claimed but has not stored yet.
//! Unwritten slots hold a NaN sentinel ([`EMPTY_SLOT`]) that no finite
//! latency ever bit-matches, and `percentiles` skips them — an
//! in-progress write is simply absent from the sample instead of
//! appearing as a phantom `0.0` that drags p50 toward the floor.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots in the latency ring (a power of two keeps the wrap cheap).
const RESERVOIR_SLOTS: usize = 4096;

/// The bit pattern of a slot no writer has stored yet: a quiet NaN.
/// `f64::to_bits` of a finite latency can never equal it, so "empty" and
/// "recorded" are distinguishable without a second bookkeeping array.
const EMPTY_SLOT: u64 = u64::MAX;

/// A lock-free sliding-window latency sample.
#[derive(Debug)]
pub(crate) struct LatencyReservoir {
    slots: Box<[AtomicU64]>,
    next: AtomicUsize,
}

impl LatencyReservoir {
    pub fn new() -> Self {
        LatencyReservoir {
            slots: (0..RESERVOIR_SLOTS)
                .map(|_| AtomicU64::new(EMPTY_SLOT))
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Records one request's service-side wall time.
    pub fn record(&self, secs: f64) {
        self.commit(self.claim(), secs);
    }

    /// Claims the next ring slot. Until [`LatencyReservoir::commit`]
    /// stores into it, the slot keeps whatever it held before — the empty
    /// sentinel on a fresh ring, the previous generation's value after a
    /// wrap — and `percentiles` samples that, never a phantom zero.
    fn claim(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) & (RESERVOIR_SLOTS - 1)
    }

    /// Stores a claimed slot's value, completing the record.
    fn commit(&self, slot: usize, secs: f64) {
        // A finite latency never bit-matches the NaN sentinel; guard the
        // impossible anyway so a poisoned input cannot fake an empty slot.
        let bits = secs.to_bits();
        let bits = if bits == EMPTY_SLOT { 0 } else { bits };
        self.slots[slot].store(bits, Ordering::Relaxed);
    }

    /// (p50, p99) over the window, in seconds; zeros before any traffic.
    pub fn percentiles(&self) -> (f64, f64) {
        let mut sample: Vec<f64> = self
            .slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&bits| bits != EMPTY_SLOT)
            .map(f64::from_bits)
            .collect();
        if sample.is_empty() {
            return (0.0, 0.0);
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let at = |p: f64| sample[((p * (sample.len() - 1) as f64).round()) as usize];
        (at(0.50), at(0.99))
    }
}

/// The service's counter set. Field meanings match [`crate::ServeStats`];
/// `requests = hits + misses + dedup_joins` always holds (errors are the
/// subset of misses whose compile failed, plus the followers that
/// received that failure — followers count as dedup joins either way).
#[derive(Debug)]
pub(crate) struct Metrics {
    pub requests: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub dedup_joins: AtomicU64,
    pub evictions: AtomicU64,
    pub errors: AtomicU64,
    pub latency: LatencyReservoir,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dedup_joins: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: LatencyReservoir::new(),
        }
    }

    /// Relaxed increment — every counter is monotonic and independent.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Connection-level counters for the network front end, one
/// `AtomicU64` per event class — same lock-free discipline as
/// [`Metrics`]. The serve-path counters above count *requests*; these
/// count *connections and frames*, so a fault-injection storm (garbage
/// bytes, slowloris stalls, mid-stream disconnects) is visible even
/// though none of it ever becomes a request.
#[derive(Debug, Default)]
pub(crate) struct NetCounters {
    /// Connections the accept loop admitted.
    pub accepted: AtomicU64,
    /// Connections turned away at accept time because the server was
    /// draining (each got a goodbye frame, not a bare reset).
    pub denied: AtomicU64,
    /// Connections closed by a protocol violation (bad magic/version/
    /// kind, oversize length, malformed frame stream).
    pub proto_errors: AtomicU64,
    /// Connections closed because a frame sat incomplete past the
    /// per-frame read deadline (slow or stalled clients).
    pub slow_timeouts: AtomicU64,
    /// Connections whose peer vanished (clean or mid-frame EOF) without
    /// a goodbye handshake.
    pub disconnects: AtomicU64,
    /// Connections closed gracefully with a server goodbye frame.
    pub goodbyes: AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_percentiles_track_the_sample() {
        let r = LatencyReservoir::new();
        assert_eq!(r.percentiles(), (0.0, 0.0));
        for i in 1..=100 {
            r.record(i as f64 * 1e-3);
        }
        let (p50, p99) = r.percentiles();
        assert!((p50 - 0.050).abs() < 2e-3, "p50 {p50}");
        assert!((p99 - 0.099).abs() < 2e-3, "p99 {p99}");
    }

    #[test]
    fn reservoir_wraps_to_the_most_recent_window() {
        let r = LatencyReservoir::new();
        // Overfill: a first generation of slow samples, then a full ring
        // of fast ones. The slow generation must age out entirely.
        for _ in 0..RESERVOIR_SLOTS {
            r.record(1.0);
        }
        for _ in 0..RESERVOIR_SLOTS {
            r.record(1e-6);
        }
        let (p50, p99) = r.percentiles();
        assert_eq!((p50, p99), (1e-6, 1e-6));
    }

    #[test]
    fn percentiles_skip_claimed_but_unwritten_slots() {
        // The race this pins: `record` is claim-then-store, so a stats
        // snapshot can land between a writer's two steps. Simulate eleven
        // in-progress writers (slots claimed, values not yet stored)
        // around ten committed 1.0 s samples: the unwritten slots must be
        // invisible, not sampled as 0.0 (which would drag p50 to the
        // floor).
        let r = LatencyReservoir::new();
        for _ in 0..10 {
            r.record(1.0);
        }
        for _ in 0..11 {
            let _ = r.claim();
        }
        assert_eq!(r.percentiles(), (1.0, 1.0));
        // A late commit into a claimed slot joins the sample normally.
        r.commit(r.claim(), 3.0);
        let (p50, p99) = r.percentiles();
        assert_eq!((p50, p99), (1.0, 3.0));
    }

    #[test]
    fn concurrent_records_never_lose_the_window_shape() {
        let r = std::sync::Arc::new(LatencyReservoir::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.record(5e-4);
                    }
                });
            }
        });
        let (p50, p99) = r.percentiles();
        assert_eq!((p50, p99), (5e-4, 5e-4));
    }
}
