//! The sharded keyed LRU cache over compiled artifacts, and the one
//! admission decision: hit, follow or lead.
//!
//! * **O(1) recency** — each shard threads its entries on an intrusive
//!   doubly-linked recency list over a slab: lookup/insert/evict are all
//!   O(1) pointer splices, no allocation on the hot path beyond the slab
//!   slot itself.
//! * **Sharding** — the cache is N independently-locked shards; a key's
//!   shard is picked from the high bits of its 128-bit digest
//!   ([`crate::digest::fnv1a_128`] of the canonical request JSON), so M
//!   threads hitting distinct keys convoy only when their keys land on
//!   the same shard (1/N of the time for random keys).
//! * **Singleflight in the shard** — a shard holds each key's in-flight
//!   compile beside its resident entry, under the same lock, so one
//!   critical section ([`ShardedCache::lookup`]) answers a hit, joins
//!   the key's [`Flight`] as a follower, or registers a new flight for
//!   the caller to lead. The leader's [`ShardedCache::publish`] inserts
//!   a successful entry and retires the flight in one critical section,
//!   so no lookup finds the key between its flight and its entry: a
//!   storm of N identical concurrent requests performs exactly one
//!   compile.
//!   Errors reach the followers but are never cached, so the next
//!   request for the key leads a fresh flight.
//!
//! Map entries are keyed by the 16-byte digest, not the JSON string; the
//! JSON pre-image is retained in the entry and verified on every hit in
//! debug builds (the collision audit — see [`crate::digest`]).

use crate::digest::fnv1a_128;
use crate::types::ServeError;
use qft_core::CompileResult;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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
    /// Blocks until the leader publishes, then returns a clone of the
    /// outcome (`Arc` bumps, no deep copy).
    pub fn wait(&self) -> FlightOutcome {
        let mut done = self.done.lock().expect("flight mutex");
        while done.is_none() {
            done = self.cv.wait(done).expect("flight condvar");
        }
        done.clone().expect("flight published")
    }
}

/// What [`ShardedCache::lookup`] decided for one request.
pub(crate) enum Lookup {
    /// The key is resident (recency bumped).
    Hit(CacheEntry),
    /// Another request is compiling the key: wait on its flight.
    Follow(Arc<Flight>),
    /// Nobody is: compile, then [`ShardedCache::publish`] this flight.
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

/// One independently-locked LRU shard with O(1) get/insert/evict, and
/// the flights of its keys that are being compiled.
#[derive(Debug)]
pub(crate) struct LruShard {
    capacity: usize,
    map: HashMap<u128, usize>,
    flights: HashMap<u128, Arc<Flight>>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruShard {
    /// An empty shard holding at most `capacity >= 1` entries.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruShard {
            capacity,
            map: HashMap::with_capacity(capacity),
            flights: HashMap::new(),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// This shard's entry budget (test support; the service reports the
    /// sharded total).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
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

    /// Looks up `key`, bumping its recency on a hit. `key_json` is the
    /// canonical pre-image of the digest; debug builds verify it against
    /// the stored pre-image so a 128-bit collision can never silently
    /// serve the wrong artifact.
    fn get(&mut self, key: u128, key_json: &str) -> Option<&CacheEntry> {
        let i = *self.map.get(&key)?;
        debug_assert_eq!(
            &*self.slab[i].entry.key_json, key_json,
            "128-bit cache-key digest collision: {key:#034x}"
        );
        let _ = key_json;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(&self.slab[i].entry)
    }

    /// The admission decision for `key`: a hit, else the key's flight to
    /// follow, else a new flight registered here for the caller to lead.
    fn lookup(&mut self, key: u128, key_json: &str) -> Lookup {
        if let Some(entry) = self.get(key, key_json) {
            return Lookup::Hit(entry.clone());
        }
        match self.flights.entry(key) {
            Entry::Occupied(flight) => Lookup::Follow(Arc::clone(flight.get())),
            Entry::Vacant(slot) => Lookup::Lead(Arc::clone(slot.insert(Arc::default()))),
        }
    }

    /// Inserts (or refreshes) `key`, evicting the stalest entry first if
    /// the shard is full. Returns how many entries were evicted (0 or 1;
    /// refreshing an existing key never evicts).
    fn insert(&mut self, key: u128, entry: CacheEntry) -> u64 {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].entry = entry;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= self.capacity {
            let stalest = self.tail;
            debug_assert_ne!(stalest, NIL, "a full shard has a stalest entry");
            self.unlink(stalest);
            self.map.remove(&self.slab[stalest].key);
            self.free.push(stalest);
            evicted += 1;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Node {
                    key,
                    entry,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Node {
                    key,
                    entry,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
        evicted
    }

    /// Inserts `key` only if it is not already resident (evicting the
    /// stalest entry first if the shard is full). Returns `None` when
    /// the key was already present — the resident entry wins, which is
    /// the warm-up import's "local/fresher entry wins" rule — otherwise
    /// `Some(evictions)`.
    pub fn insert_if_absent(&mut self, key: u128, entry: CacheEntry) -> Option<u64> {
        if self.map.contains_key(&key) {
            return None;
        }
        Some(self.insert(key, entry))
    }

    /// Clones every resident entry whose digest satisfies `keep`,
    /// without bumping any recency (an export is an observation, not a
    /// use). Order is map-iteration order — callers must not rely on it.
    pub fn export_if(&self, keep: &dyn Fn(u128) -> bool) -> Vec<(u128, CacheEntry)> {
        self.map
            .iter()
            .filter(|(&key, _)| keep(key))
            .map(|(&key, &i)| (key, self.slab[i].entry.clone()))
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

/// The service-facing cache: N independently-locked [`LruShard`]s.
///
/// The shard count adapts to the requested capacity (small caches stay
/// single-shard, so their global LRU order is exact — pinned by the
/// capacity/recency tests); the default serving capacity of 256 entries
/// spreads over [`ShardedCache::MAX_SHARDS`] shards. Total capacity
/// is distributed exactly: the per-shard capacities sum to the requested
/// capacity.
#[derive(Debug)]
pub(crate) struct ShardedCache {
    shards: Box<[Mutex<LruShard>]>,
    capacity: usize,
}

impl ShardedCache {
    /// Upper bound on the shard count (a power of two, so the shard pick
    /// is a mask over the digest's high bits).
    pub const MAX_SHARDS: usize = 16;

    /// A cache of `capacity >= 1` total entries over up to
    /// [`ShardedCache::MAX_SHARDS`] shards (fewer so every shard holds at
    /// least 4 entries — tiny caches degenerate to a single shard with
    /// exact global LRU order).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        // At least 4 entries per shard, rounded down to a power of two so
        // the shard pick is a mask; tiny caches degrade to one shard.
        let shards = (capacity / 4).clamp(1, Self::MAX_SHARDS);
        let shards = 1 << (usize::BITS - 1 - shards.leading_zeros());
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards: Vec<Mutex<LruShard>> = (0..shards)
            .map(|i| Mutex::new(LruShard::new(base + usize::from(i < extra))))
            .collect();
        ShardedCache {
            shards: shards.into_boxed_slice(),
            capacity,
        }
    }

    /// The digest's shard, locked: high bits pick it, so the low bits keep
    /// their entropy for the shard-local `HashMap`.
    fn shard(&self, key: u128) -> MutexGuard<'_, LruShard> {
        let idx = ((key >> 96) as usize) & (self.shards.len() - 1);
        self.shards[idx].lock().expect("cache shard mutex")
    }

    /// Sums `count` over the shards, locking each briefly, in order.
    fn sum(&self, count: impl Fn(&LruShard) -> usize) -> usize {
        self.shards
            .iter()
            .map(|s| count(&s.lock().expect("cache shard mutex")))
            .sum()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total resident entries.
    pub fn len(&self) -> usize {
        self.sum(LruShard::len)
    }

    /// Total flights, one per key being compiled.
    pub fn in_flight(&self) -> usize {
        self.sum(|s| s.flights.len())
    }

    /// Decides, under the owning shard's lock, whether the request for
    /// the digest of `key_json` is a hit, follows the key's flight, or
    /// leads a new one.
    pub fn lookup(&self, key: u128, key_json: &str) -> Lookup {
        self.shard(key).lookup(key, key_json)
    }

    /// Leader-only: caches a successful `outcome` (refreshing any entry
    /// imported while the flight compiled) and retires the flight in one
    /// critical section, then wakes the followers. Returns how many
    /// entries the owning shard evicted.
    pub fn publish(&self, key: u128, flight: &Flight, outcome: FlightOutcome) -> u64 {
        let evicted = {
            let mut shard = self.shard(key);
            shard.flights.remove(&key);
            outcome
                .as_ref()
                .map_or(0, |entry| shard.insert(key, entry.clone()))
        };
        *flight.done.lock().expect("flight mutex") = Some(outcome);
        flight.cv.notify_all();
        evicted
    }

    /// Whether `key` is resident (no recency bump).
    pub fn contains(&self, key: u128) -> bool {
        self.shard(key).contains(key)
    }

    /// Inserts under `key` only if absent. `None` when the key was
    /// already resident (the resident entry wins), else the owning
    /// shard's eviction count.
    pub fn insert_if_absent(&self, key: u128, entry: CacheEntry) -> Option<u64> {
        self.shard(key).insert_if_absent(key, entry)
    }

    /// Snapshot of every resident entry whose digest satisfies `keep`,
    /// shard by shard (each shard locked briefly; the snapshot is not a
    /// consistent cut across shards, which is fine for warm-up — a miss
    /// just recompiles).
    pub fn export_if(&self, keep: &dyn Fn(u128) -> bool) -> Vec<(u128, CacheEntry)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.lock().expect("cache shard mutex").export_if(keep));
        }
        out
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
    fn shard_get_insert_evict_preserve_lru_order() {
        let mut shard = LruShard::new(3);
        for k in [1u128, 2, 3] {
            assert_eq!(shard.insert(k, entry(&k.to_string())), 0);
        }
        assert_eq!(shard.recency_order(), vec![3, 2, 1]);
        // A hit moves the entry to the front…
        assert!(shard.get(1, "1").is_some());
        assert_eq!(shard.recency_order(), vec![1, 3, 2]);
        // …so the next eviction falls on 2, the stalest.
        assert_eq!(shard.insert(4, entry("4")), 1);
        assert!(!shard.contains(2));
        assert_eq!(shard.recency_order(), vec![4, 1, 3]);
        // Refreshing an existing key never evicts, only re-ranks.
        assert_eq!(shard.insert(3, entry("3")), 0);
        assert_eq!(shard.recency_order(), vec![3, 4, 1]);
        assert_eq!(shard.len(), 3);
    }

    #[test]
    fn shard_slab_slots_are_recycled() {
        let mut shard = LruShard::new(2);
        for k in 0u128..100 {
            shard.insert(k, entry(&k.to_string()));
        }
        assert_eq!(shard.len(), 2);
        // 100 inserts through capacity 2 must not grow the slab past
        // capacity + 1 (the transient slot before an eviction recycles).
        assert!(
            shard.slab.len() <= 3,
            "slab grew to {} slots",
            shard.slab.len()
        );
    }

    #[test]
    fn tiny_capacities_stay_single_shard_and_exact() {
        for capacity in 1..8 {
            let cache = ShardedCache::new(capacity);
            assert_eq!(cache.shard_count(), 1, "capacity {capacity}");
            assert_eq!(cache.capacity(), capacity);
        }
    }

    #[test]
    fn shard_capacities_sum_to_the_requested_capacity() {
        for capacity in [16usize, 64, 100, 256, 1000] {
            let cache = ShardedCache::new(capacity);
            assert!(cache.shard_count().is_power_of_two());
            assert!(cache.shard_count() <= ShardedCache::MAX_SHARDS);
            let total: usize = cache
                .shards
                .iter()
                .map(|s| s.lock().unwrap().capacity())
                .sum();
            assert_eq!(total, capacity, "capacity {capacity}");
        }
        assert_eq!(
            ShardedCache::new(256).shard_count(),
            ShardedCache::MAX_SHARDS
        );
    }

    #[test]
    fn sharded_cache_total_occupancy_never_exceeds_capacity() {
        let cache = ShardedCache::new(32);
        let mut evicted = 0;
        for k in 0..200u32 {
            let json = format!("req-{k}");
            let key = key_digest(&json);
            let Lookup::Lead(flight) = cache.lookup(key, &json) else {
                panic!("a new key leads");
            };
            evicted += cache.publish(key, &flight, Ok(entry(&json)));
        }
        assert!(cache.len() <= 32);
        assert_eq!(cache.len() as u64 + evicted, 200);
        assert_eq!(cache.in_flight(), 0);
        // Everything resident is retrievable through the digest path.
        let json = "req-199";
        assert!(matches!(
            cache.lookup(key_digest(json), json),
            Lookup::Hit(_)
        ));
    }

    #[test]
    fn a_lookup_leads_follows_or_hits_and_errors_are_never_cached() {
        let cache = ShardedCache::new(4);
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
        let err = ServeError::bad_request("boom");
        assert_eq!(cache.publish(key, &flight, Err(err.clone())), 0);
        for f in followers {
            assert_eq!(f.join().unwrap().unwrap_err(), err);
        }
        assert_eq!((cache.in_flight(), cache.len()), (0, 0));
        // The failure is not cached: the next lookup leads a fresh flight,
        // and its success is.
        let Lookup::Lead(flight) = cache.lookup(key, json) else {
            panic!("a failed flight leaves the key absent");
        };
        cache.publish(key, &flight, Ok(entry(json)));
        assert!(matches!(cache.lookup(key, json), Lookup::Hit(_)));
        assert_eq!((cache.in_flight(), cache.len()), (0, 1));
    }
}
