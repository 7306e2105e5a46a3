//! The keyed LRU cache over compiled artifacts, the one admission
//! decision (hit, follow or lead), and the counts of those decisions.
//!
//! * **O(1) recency** — entries are threaded on an intrusive
//!   doubly-linked recency list over a slab: lookup/insert/evict are all
//!   O(1) pointer splices, no allocation on the hot path beyond the slab
//!   slot itself. The cache is one exact LRU at every capacity.
//! * **Singleflight in the cache** — the cache holds each key's in-flight
//!   compile beside its resident entries, so one call under the service's
//!   one cache lock ([`Cache::lookup`]) answers a hit, joins the key's
//!   [`Flight`] as a follower, or registers a new flight for the caller
//!   to lead. The leader's [`Cache::publish`] inserts a successful entry
//!   and retires the flight in one critical section, then
//!   [`Flight::finish`] wakes the followers, so no lookup finds the key
//!   between its flight and its entry: a storm of N identical concurrent
//!   requests performs exactly one compile.
//!   Errors reach the followers but are never cached, so the next
//!   request for the key leads a fresh flight.
//! * **Counted where decided** — [`Cache::lookup`] counts the hit, dedup
//!   join or miss it answers (a leader is a miss when it leads, not after
//!   its compile), and [`Cache::insert`] counts its evictions. The counts
//!   are plain fields written only under the lock, so a snapshot taken
//!   under the same lock always reads `requests = hits + misses +
//!   dedup_joins`, with or without compiles in flight.
//!
//! Map entries are keyed by the 16-byte digest, not the JSON string; the
//! JSON pre-image is retained in the entry and verified on every hit in
//! debug builds (the collision audit — see [`crate::digest`]).

use crate::digest::fnv1a_128;
use crate::types::ServeError;
use qft_core::CompileResult;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Condvar, Mutex};

/// Sentinel for "no node" in the intrusive recency list.
const NIL: usize = usize::MAX;

/// What one cache slot remembers: the byte-deterministic artifact (wall
/// times stripped, shared by `Arc` so a hit never deep-copies the mapped
/// circuit), the cold compile's wall-clock cost, and the canonical
/// request JSON the key digest was computed from (collision audit).
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub result: Arc<CompileResult>,
    pub cold_compile_s: f64,
    pub key_json: Arc<str>,
}

/// What a flight hands its followers: the entry its leader cached, or
/// the leader's error.
pub(crate) type FlightOutcome = Result<CacheEntry, ServeError>;

/// One in-flight compile: followers wait on `done` flipping to `Some`.
#[derive(Debug, Default)]
pub(crate) struct Flight {
    done: Mutex<Option<FlightOutcome>>,
    cv: Condvar,
}

impl Flight {
    /// Blocks until the leader finishes, then returns a clone of the
    /// outcome (`Arc` bumps, no deep copy).
    pub fn wait(&self) -> FlightOutcome {
        let mut done = self.done.lock().expect("flight mutex");
        while done.is_none() {
            done = self.cv.wait(done).expect("flight condvar");
        }
        done.clone().expect("flight finished")
    }

    /// Leader-only, after [`Cache::publish`]: hands `outcome` to every
    /// follower and wakes them.
    pub fn finish(&self, outcome: FlightOutcome) {
        *self.done.lock().expect("flight mutex") = Some(outcome);
        self.cv.notify_all();
    }
}

/// What [`Cache::lookup`] decided for one request.
pub(crate) enum Lookup {
    /// The key is resident (recency bumped).
    Hit(CacheEntry),
    /// Another request is compiling the key: wait on its flight.
    Follow(Arc<Flight>),
    /// Nobody is: compile, [`Cache::publish`], then finish this flight.
    Lead(Arc<Flight>),
}

/// One slab node: the digest it is filed under, the entry, and its
/// neighbours on the recency list (head = most recent, tail = stalest).
#[derive(Debug)]
struct Node {
    key: u128,
    entry: CacheEntry,
    prev: usize,
    next: usize,
}

/// The service's result cache: an LRU with O(1) get/insert/evict, the
/// flights of its keys that are being compiled, and the counts of every
/// admission decision. The service keeps it behind one `Mutex`.
#[derive(Debug)]
pub(crate) struct Cache {
    capacity: usize,
    map: HashMap<u128, usize>,
    flights: HashMap<u128, Arc<Flight>>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that registered a flight to lead.
    pub misses: u64,
    /// Lookups that followed another request's flight.
    pub dedup_joins: u64,
    /// Entries dropped to make room for an insert.
    pub evictions: u64,
}

impl Cache {
    /// An empty cache holding at most `capacity >= 1` entries.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Cache {
            capacity,
            map: HashMap::with_capacity(capacity),
            flights: HashMap::new(),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            dedup_joins: 0,
            evictions: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Flights, one per key being compiled.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// Splices node `i` out of the recency list (it must be linked).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Links node `i` at the head (most-recent end) of the recency list.
    fn link_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h].prev = i,
        }
        self.head = i;
    }

    /// Moves linked node `i` to the head of the recency list.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// The admission decision for the digest `key` of `key_json`, counted:
    /// a hit (recency bumped), else the key's flight to follow, else a
    /// new flight registered here for the caller to lead. Debug builds
    /// verify `key_json` against a hit's stored pre-image, so a 128-bit
    /// collision can never silently serve the wrong artifact.
    pub fn lookup(&mut self, key: u128, key_json: &str) -> Lookup {
        if let Some(&i) = self.map.get(&key) {
            debug_assert_eq!(
                &*self.slab[i].entry.key_json, key_json,
                "128-bit cache-key digest collision: {key:#034x}"
            );
            self.touch(i);
            self.hits += 1;
            return Lookup::Hit(self.slab[i].entry.clone());
        }
        match self.flights.entry(key) {
            Entry::Occupied(flight) => {
                self.dedup_joins += 1;
                Lookup::Follow(Arc::clone(flight.get()))
            }
            Entry::Vacant(slot) => {
                self.misses += 1;
                Lookup::Lead(Arc::clone(slot.insert(Arc::default())))
            }
        }
    }

    /// Leader-only: caches a successful `outcome` (refreshing any entry
    /// imported while the flight compiled) and retires the key's flight.
    /// The leader then hands the outcome to its followers through
    /// [`Flight::finish`].
    pub fn publish(&mut self, key: u128, outcome: &FlightOutcome) {
        self.flights.remove(&key);
        if let Ok(entry) = outcome {
            self.insert(key, entry.clone());
        }
    }

    /// Inserts (or refreshes) `key`, evicting (and counting) the stalest
    /// entry first if the cache is full. Refreshing an existing key never
    /// evicts.
    fn insert(&mut self, key: u128, entry: CacheEntry) {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].entry = entry;
            self.touch(i);
            return;
        }
        while self.map.len() >= self.capacity {
            let stalest = self.tail;
            debug_assert_ne!(stalest, NIL, "a full cache has a stalest entry");
            self.unlink(stalest);
            self.map.remove(&self.slab[stalest].key);
            self.free.push(stalest);
            self.evictions += 1;
        }
        let node = Node {
            key,
            entry,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = node;
                i
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
    }

    /// Inserts `key` only if it is not already resident (evicting the
    /// stalest entry first if the cache is full). Returns `false` when
    /// the key was already present — the resident entry wins, which is
    /// the warm-up import's "local/fresher entry wins" rule.
    pub fn insert_if_absent(&mut self, key: u128, entry: CacheEntry) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        self.insert(key, entry);
        true
    }

    /// Clones every resident entry whose digest satisfies `keep`,
    /// without bumping any recency (an export is an observation, not a
    /// use). Order is map-iteration order — callers must not rely on it.
    pub fn export_if(&self, keep: &dyn Fn(u128) -> bool) -> Vec<CacheEntry> {
        self.map
            .iter()
            .filter(|(&key, _)| keep(key))
            .map(|(_, &i)| self.slab[i].entry.clone())
            .collect()
    }

    /// Whether `key` is currently resident (no recency bump).
    pub fn contains(&self, key: u128) -> bool {
        self.map.contains_key(&key)
    }

    /// Resident keys from most- to least-recently used (test support).
    #[cfg(test)]
    fn recency_order(&self) -> Vec<u128> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            keys.push(self.slab[i].key);
            i = self.slab[i].next;
        }
        keys
    }
}

/// The digest a canonical request JSON is cached under.
pub(crate) fn key_digest(key_json: &str) -> u128 {
    fnv1a_128(key_json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_core::{CompileOptions, QftCompiler, Target};

    fn entry(tag: &str) -> CacheEntry {
        // A real artifact so the Arc sharing is representative; the tag
        // only distinguishes pre-images.
        static RESULT: std::sync::OnceLock<Arc<CompileResult>> = std::sync::OnceLock::new();
        let result = RESULT.get_or_init(|| {
            let target = Target::lnn(4).unwrap();
            let r = qft_core::LnnMapper
                .compile(&target, &CompileOptions::default())
                .unwrap();
            Arc::new(r)
        });
        CacheEntry {
            result: Arc::clone(result),
            cold_compile_s: 0.0,
            key_json: tag.into(),
        }
    }

    #[test]
    fn get_insert_evict_preserve_lru_order() {
        let mut cache = Cache::new(3);
        for k in [1u128, 2, 3] {
            cache.insert(k, entry(&k.to_string()));
        }
        assert_eq!(cache.evictions, 0);
        assert_eq!(cache.recency_order(), vec![3, 2, 1]);
        // A hit moves the entry to the front…
        assert!(matches!(cache.lookup(1, "1"), Lookup::Hit(_)));
        assert_eq!(cache.recency_order(), vec![1, 3, 2]);
        // …so the next eviction falls on 2, the stalest.
        cache.insert(4, entry("4"));
        assert_eq!(cache.evictions, 1);
        assert!(!cache.contains(2));
        assert_eq!(cache.recency_order(), vec![4, 1, 3]);
        // Refreshing an existing key never evicts, only re-ranks.
        cache.insert(3, entry("3"));
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.recency_order(), vec![3, 4, 1]);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut cache = Cache::new(2);
        for k in 0u128..100 {
            cache.insert(k, entry(&k.to_string()));
        }
        assert_eq!(cache.len(), 2);
        // 100 inserts through capacity 2 must not grow the slab past
        // capacity + 1 (the transient slot before an eviction recycles).
        assert!(
            cache.slab.len() <= 3,
            "slab grew to {} slots",
            cache.slab.len()
        );
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity() {
        let mut cache = Cache::new(32);
        for k in 0..200u32 {
            let json = format!("req-{k}");
            let key = key_digest(&json);
            let Lookup::Lead(_) = cache.lookup(key, &json) else {
                panic!("a new key leads");
            };
            cache.publish(key, &Ok(entry(&json)));
        }
        assert!(cache.len() <= 32);
        assert_eq!(cache.len() as u64 + cache.evictions, 200);
        assert_eq!((cache.misses, cache.in_flight()), (200, 0));
        // Everything resident is retrievable through the digest path.
        let json = "req-199";
        assert!(matches!(
            cache.lookup(key_digest(json), json),
            Lookup::Hit(_)
        ));
        assert_eq!(cache.hits, 1);
    }

    #[test]
    fn a_lookup_leads_follows_or_hits_and_errors_are_never_cached() {
        let mut cache = Cache::new(4);
        let (key, json) = (key_digest("k"), "k");
        let Lookup::Lead(flight) = cache.lookup(key, json) else {
            panic!("the first lookup leads");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| match cache.lookup(key, json) {
                Lookup::Follow(f) => std::thread::spawn(move || f.wait()),
                _ => panic!("a lookup during the flight follows"),
            })
            .collect();
        assert_eq!(cache.in_flight(), 1);
        assert_eq!((cache.misses, cache.dedup_joins), (1, 4));
        let err = ServeError::bad_request("boom");
        cache.publish(key, &Err(err.clone()));
        flight.finish(Err(err.clone()));
        for f in followers {
            assert_eq!(f.join().unwrap().unwrap_err(), err);
        }
        assert_eq!((cache.in_flight(), cache.len(), cache.evictions), (0, 0, 0));
        // The failure is not cached: the next lookup leads a fresh flight,
        // and its success is.
        let Lookup::Lead(_) = cache.lookup(key, json) else {
            panic!("a failed flight leaves the key absent");
        };
        cache.publish(key, &Ok(entry(json)));
        assert!(matches!(cache.lookup(key, json), Lookup::Hit(_)));
        assert_eq!((cache.in_flight(), cache.len()), (0, 1));
        assert_eq!((cache.hits, cache.misses, cache.dedup_joins), (1, 2, 4));
    }
}
