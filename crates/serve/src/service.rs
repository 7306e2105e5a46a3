//! The compile service: shared registry + persistent worker pool +
//! one result cache whose lock decides, deduplicates and counts every
//! request.

use crate::cache::{self, Cache, CacheEntry, Lookup};
use crate::metrics::Metrics;
use crate::queue::BoundedQueue;
use crate::types::{CompileRequest, CompileResponse, ServeError, ServeStats};
use crate::warmup::{OwnedPredicate, WarmupEntry, WarmupImport};
use qft_core::Registry;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default result-cache capacity (entries).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Admission-queue capacity (jobs waiting for a worker). A full queue
/// blocks the submitter until a worker frees a slot.
pub const QUEUE_CAPACITY: usize = 64;

/// Worker threads a fresh service owns: the machine's parallelism,
/// capped so a service never monopolizes a large host.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8)
}

/// One compile outcome on a reply channel, tagged with the seq its
/// submitter chose (see [`CompileService::submit`]).
pub type Reply = (u64, Result<CompileResponse, ServeError>);

/// One queued compile job: the request, the submitter's sequence number,
/// and how its response goes back (a send on the submitter's channel).
struct Job {
    req: CompileRequest,
    seq: u64,
    reply: Box<dyn FnOnce(Reply) + Send>,
}

impl Job {
    /// A job whose outcome the serving worker converts into `T` and
    /// sends on `reply`. A receiver that hung up stops caring about its
    /// replies; that is not a worker error.
    fn new<T>(req: CompileRequest, seq: u64, reply: &mpsc::Sender<T>) -> Job
    where
        T: From<Reply> + Send + 'static,
    {
        let reply = reply.clone();
        Job {
            req,
            seq,
            reply: Box::new(move |outcome| drop(reply.send(T::from(outcome)))),
        }
    }
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("req", &self.req)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

/// Everything the worker threads share with the service handle.
#[derive(Debug)]
struct ServiceInner {
    registry: &'static Registry,
    cache: Mutex<Cache>,
    metrics: Metrics,
}

impl ServiceInner {
    /// The cache, locked.
    fn cache(&self) -> MutexGuard<'_, Cache> {
        self.cache.lock().expect("cache mutex")
    }

    /// The full serve path: one counted lookup under the cache lock
    /// decides hit, follow or lead; the leader validates, compiles,
    /// publishes and finishes its flight. Runs on whichever thread calls
    /// it — a pool worker for queued traffic, the caller for
    /// [`CompileService::compile`].
    fn serve(&self, req: &CompileRequest) -> Result<CompileResponse, ServeError> {
        let t0 = Instant::now();
        let key_json = req.cache_key();
        let key = cache::key_digest(&key_json);
        // Bound first, so the guard drops before a follower waits or a
        // leader compiles.
        let lookup = self.cache().lookup(key, &key_json);
        let (outcome, cached, deduped) = match lookup {
            Lookup::Hit(entry) => (Ok(entry), true, false),
            Lookup::Follow(flight) => (flight.wait(), true, true),
            Lookup::Lead(flight) => {
                // A compile that panics must still publish, or its
                // followers wait forever and the pool loses a worker.
                // Unwind-safe: the closure reads only the request and the
                // immutable registry; the service's own state is touched
                // after it returns.
                let outcome = match panic::catch_unwind(AssertUnwindSafe(|| {
                    req.validate(self.registry)
                        .and_then(|(compiler, target)| compiler.compile(&target, &req.options))
                })) {
                    Ok(compiled) => compiled.map_err(ServeError::from),
                    Err(payload) => Err(ServeError::internal(payload.as_ref())),
                };
                let outcome = outcome.map(|mut result| {
                    let cold_compile_s = result.compile_s;
                    result.strip_wall_times();
                    CacheEntry {
                        result: Arc::new(result),
                        cold_compile_s,
                        key_json: Arc::from(key_json.as_str()),
                    }
                });
                self.cache().publish(key, &outcome);
                flight.finish(outcome.clone());
                (outcome, false, false)
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        self.metrics.latency.record(wall_s);
        match outcome {
            Ok(entry) => Ok(CompileResponse {
                cached,
                deduped,
                cache_key: key_json,
                wall_s,
                compile_s: entry.cold_compile_s,
                result: entry.result,
            }),
            Err(e) => {
                Metrics::bump(&self.metrics.errors);
                Err(e)
            }
        }
    }
}

/// A thread-safe compile service over one shared [`Registry`].
///
/// Two tiers of admission, from hottest to coldest:
///
/// 1. **One cache lock** — results live in one LRU keyed by the 128-bit
///    digest of the canonical request JSON, behind one mutex. One
///    lookup under it decides, and counts, each request: a hit, a
///    follower of the key's in-flight compile, or the leader of a new
///    one. Concurrent misses on one key perform exactly one compile —
///    the first request leads its flight, duplicates follow it and
///    receive the same `Arc<CompileResult>`.
/// 2. **Persistent worker pool** — `workers` threads spawned once at
///    construction drain a bounded admission queue fed by
///    [`CompileService::submit`]; a full queue blocks the submitter
///    until a worker frees a slot.
///
/// Artifacts are byte-deterministic: wall times are stripped before an
/// entry is cached, so every response for a given request — cold miss,
/// cache hit, or joined flight, on any thread, from any service —
/// serializes identically. [`ServeStats`] surfaces the admission
/// metrics (hits/misses/dedup-joins/evictions, queue depth, p50/p99
/// latency); the admission counts are read in the same critical
/// section as the occupancy they describe.
#[derive(Debug)]
pub struct CompileService {
    inner: Arc<ServiceInner>,
    queue: Arc<BoundedQueue<Job>>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

/// Configures and builds a [`CompileService`].
///
/// ```
/// use qft_serve::CompileService;
///
/// let service = CompileService::builder()
///     .cache_capacity(512)
///     .workers(4)
///     .build();
/// assert_eq!(service.workers(), 4);
/// ```
#[derive(Debug)]
pub struct ServiceBuilder {
    registry: &'static Registry,
    cache_capacity: usize,
    workers: usize,
}

impl ServiceBuilder {
    /// Resolve compiler names through a caller-supplied registry (e.g.
    /// one extended with custom compilers). Must be `'static` because
    /// worker threads and cached artifacts outlive any one call.
    pub fn registry(mut self, registry: &'static Registry) -> Self {
        self.registry = registry;
        self
    }

    /// Result-cache entries (clamped to ≥ 1).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Persistent worker threads (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builds the service and spawns its worker pool.
    pub fn build(self) -> CompileService {
        let inner = Arc::new(ServiceInner {
            registry: self.registry,
            cache: Mutex::new(Cache::new(self.cache_capacity)),
            metrics: Metrics::new(),
        });
        let queue = Arc::new(BoundedQueue::<Job>::new(QUEUE_CAPACITY));
        let handles = (0..self.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("qft-serve-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let response = inner.serve(&job.req);
                            (job.reply)((job.seq, response));
                        }
                    })
                    .expect("spawn qft-serve worker")
            })
            .collect();
        CompileService {
            inner,
            queue,
            workers: self.workers,
            handles,
        }
    }
}

impl CompileService {
    /// A builder with the defaults: shared registry, capacity
    /// [`DEFAULT_CACHE_CAPACITY`], machine-sized workers.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder {
            registry: crate::shared_registry(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            workers: default_workers(),
        }
    }

    /// A service over the process-wide [`crate::shared_registry`] with
    /// every default.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// A service over the process-wide registry with an explicit cache
    /// capacity (clamped to ≥ 1) and worker count (clamped to ≥ 1).
    pub fn with_config(cache_capacity: usize, workers: usize) -> Self {
        Self::builder()
            .cache_capacity(cache_capacity)
            .workers(workers)
            .build()
    }

    /// The registry this service resolves compiler names through.
    pub fn registry(&self) -> &'static Registry {
        self.inner.registry
    }

    /// Persistent worker threads draining the admission queue.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Serves one request synchronously **on the caller's thread** —
    /// the lowest-latency path, bypassing the admission queue (the
    /// caller's thread *is* the capacity being spent). Still goes
    /// through the cache and its flights, so concurrent callers
    /// deduplicate exactly like queued traffic.
    pub fn compile(&self, req: &CompileRequest) -> Result<CompileResponse, ServeError> {
        self.inner.serve(req)
    }

    /// Queues one request for the worker pool — the service's one queued
    /// entry point. Its outcome is sent on `reply` tagged with `seq`, in
    /// completion order, so one thread can submit while another
    /// receives. The worker that served it converts the [`Reply`] into
    /// the channel's type, so a receiver can have outcomes arrive
    /// already in the form it ships (`T = Reply` sends them as they
    /// are). A full admission queue blocks the caller until a worker
    /// frees a slot.
    ///
    /// ```
    /// use qft_serve::{CompileRequest, CompileService, Reply};
    /// use std::sync::mpsc;
    ///
    /// let service = CompileService::new();
    /// let (tx, rx) = mpsc::channel::<Reply>();
    /// for n in [4u64, 5, 6] {
    ///     service.submit(n, CompileRequest::new("lnn", format!("lnn:{n}")), &tx).unwrap();
    /// }
    /// drop(tx);
    /// for (seq, resp) in rx {
    ///     assert_eq!(resp.unwrap().result.n as u64, seq);
    /// }
    /// ```
    pub fn submit<T>(
        &self,
        seq: u64,
        req: CompileRequest,
        reply: &mpsc::Sender<T>,
    ) -> Result<(), ServeError>
    where
        T: From<Reply> + Send + 'static,
    {
        self.queue
            .push(Job::new(req, seq, reply))
            .map_err(|_| ServeError::bad_request("service is shutting down"))
    }

    /// Counts a request the server answered with an error after the
    /// service served it (a response too large to send), so `errors`
    /// covers every request that ended in a [`ServeError`].
    pub(crate) fn count_error(&self) {
        Metrics::bump(&self.inner.metrics.errors);
    }

    /// Exports every cache entry whose key digest the predicate claims,
    /// as verifiable [`WarmupEntry`] records (digests stamped at export,
    /// re-checked at import). Reads only the cache — the worker pool and
    /// admission queue are never touched, so a donor answers warm-up
    /// traffic at zero compile cost. The lock is held only to clone the
    /// claimed entries (`Arc` bumps); they are serialized and digested
    /// after it is released. Entries compiled mid-export arrive on the
    /// next probe or recompile.
    pub fn export_warmup(&self, predicate: &OwnedPredicate) -> Vec<WarmupEntry> {
        let entries = self.inner.cache().export_if(&|key| predicate.owns(key));
        entries.iter().map(WarmupEntry::from_cache).collect()
    }

    /// Bulk-imports replayed entries from a donor, idempotently.
    ///
    /// Every entry is re-verified against its embedded digests before it
    /// can touch the cache ([`WarmupEntry::verify`]): a corrupt or
    /// tampered entry is counted in [`WarmupImport::rejected`] and
    /// dropped, never inserted — a lying donor cannot poison this cache.
    /// Wall-clock timings are stripped on import (they measured the
    /// *donor's* machine), and insertion is insert-if-absent: an entry
    /// this service already holds — including one it compiled itself
    /// while the transfer was in flight — wins over the replayed copy,
    /// so double-importing the same batch is a no-op.
    pub fn import_warmup(&self, entries: &[WarmupEntry]) -> WarmupImport {
        let mut report = WarmupImport::default();
        for entry in entries {
            let key = match entry.verify() {
                Ok(key) => key,
                Err(_) => {
                    report.rejected += 1;
                    continue;
                }
            };
            let mut result = (*entry.result).clone();
            result.strip_wall_times();
            let cached = CacheEntry {
                result: Arc::new(result),
                cold_compile_s: entry.cold_compile_s,
                key_json: Arc::from(entry.key_json.as_str()),
            };
            if self.inner.cache().insert_if_absent(key, cached) {
                report.imported += 1;
            } else {
                report.already_present += 1;
            }
        }
        report
    }

    /// A snapshot of the admission metrics. Occupancy, flights and the
    /// four admission counts are read in one critical section of the
    /// cache lock, so `requests = hits + misses + dedup_joins` holds in
    /// every snapshot; `errors` is an atomic and the latency window a
    /// lock-free reservoir, both read outside it.
    pub fn stats(&self) -> ServeStats {
        let m = &self.inner.metrics;
        let (p50_s, p99_s) = m.latency.percentiles();
        let queue_depth = self.queue.len() as u64;
        let cache = self.inner.cache();
        ServeStats {
            workers: self.workers,
            cache_capacity: cache.capacity(),
            cache_entries: cache.len(),
            queue_capacity: self.queue.capacity(),
            queue_depth,
            in_flight: cache.in_flight() as u64,
            requests: cache.hits + cache.misses + cache.dedup_joins,
            hits: cache.hits,
            misses: cache.misses,
            dedup_joins: cache.dedup_joins,
            evictions: cache.evictions,
            errors: m.errors.load(Ordering::Relaxed),
            p50_ms: p50_s * 1e3,
            p99_ms: p99_s * 1e3,
        }
    }

    /// Whether a request is currently resident in the cache (no recency
    /// bump — a pure inspection for tests and dashboards).
    pub fn is_cached(&self, req: &CompileRequest) -> bool {
        let key = req.key_digest();
        self.inner.cache().contains(key)
    }
}

impl Default for CompileService {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CompileService {
    /// Closes the admission queue (pending jobs still drain) and joins
    /// the worker pool.
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_core::CompileOptions;
    use std::sync::Barrier;

    #[test]
    fn cold_then_hot_roundtrip() {
        let service = CompileService::with_config(4, 2);
        let req = CompileRequest::new("lnn", "lnn:8");
        let cold = service.compile(&req).unwrap();
        assert!(!cold.cached && !cold.deduped);
        assert!(cold.compile_s > 0.0, "cold compile cost is preserved");
        assert_eq!(cold.result.compile_s, 0.0, "artifact wall times stripped");
        let hot = service.compile(&req).unwrap();
        assert!(hot.cached);
        assert_eq!(hot.compile_s, cold.compile_s);
        let stats = service.stats();
        assert_eq!((stats.requests, stats.hits, stats.misses), (2, 1, 1));
        assert_eq!(stats.cache_entries, 1);
        assert!(stats.p50_ms > 0.0, "latency reservoir saw both requests");
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn one_bad_request_never_poisons_the_next() {
        let service = CompileService::new();
        let reqs = [
            CompileRequest::new("lnn", "lnn:6"),
            CompileRequest::new("nope", "lnn:6"),
            CompileRequest::new("sycamore", "sycamore:3"),
            CompileRequest::new("lnn", "lnn:7")
                .with_options(CompileOptions::default().with_approximation(0)),
            CompileRequest::new("lnn", "lnn:8"),
        ];
        let responses: Vec<_> = reqs.iter().map(|req| service.compile(req)).collect();
        assert!(responses[0].is_ok() && responses[4].is_ok());
        assert_eq!(responses[1].as_ref().unwrap_err().kind, "unknown-compiler");
        assert_eq!(responses[2].as_ref().unwrap_err().kind, "invalid-target");
        assert_eq!(
            responses[3].as_ref().unwrap_err().kind,
            "unsupported-option"
        );
        assert_eq!(service.stats().errors, 3);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let service = CompileService::with_config(3, 1);
        for n in 4..9 {
            service
                .compile(&CompileRequest::new("lnn", format!("lnn:{n}")))
                .unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.cache_entries, 3);
        assert_eq!(stats.evictions, 2);
        // The two oldest entries are gone; the three newest are resident.
        assert!(!service.is_cached(&CompileRequest::new("lnn", "lnn:4")));
        assert!(!service.is_cached(&CompileRequest::new("lnn", "lnn:5")));
        for n in 6..9 {
            assert!(service.is_cached(&CompileRequest::new("lnn", format!("lnn:{n}"))));
        }
    }

    #[test]
    fn duplicate_storm_performs_exactly_one_compile() {
        let service = CompileService::new();
        let req = CompileRequest::new("heavyhex", "heavyhex:3");
        let n_threads = 16;
        let barrier = Barrier::new(n_threads);
        let results: Vec<Arc<qft_core::CompileResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    let (service, req, barrier) = (&service, &req, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        service.compile(req).expect("storm compile").result
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = service.stats();
        assert_eq!(stats.misses, 1, "exactly one compile under the storm");
        assert_eq!(stats.hits + stats.dedup_joins, n_threads as u64 - 1);
        assert_eq!(stats.requests, n_threads as u64);
        // Every response shares the one cached artifact — pointer-equal,
        // not merely byte-equal.
        for r in &results[1..] {
            assert!(Arc::ptr_eq(r, &results[0]), "storm responses must share");
        }
    }

    #[test]
    fn submit_tags_replies_with_the_callers_seq_across_threads() {
        let service = CompileService::with_config(16, 2);
        let (tx, rx) = mpsc::channel::<Reply>();
        // One thread submits under caller-chosen seqs while this one
        // receives: seq 100 + k carried lnn:(4 + k).
        let mut seen: Vec<u64> = std::thread::scope(|scope| {
            scope.spawn(|| {
                for k in 0..6u64 {
                    let req = CompileRequest::new("lnn", format!("lnn:{}", 4 + k));
                    service.submit(100 + k, req, &tx).unwrap();
                }
                drop(tx);
            });
            rx.iter()
                .map(|(seq, resp)| {
                    assert_eq!(resp.unwrap().result.n as u64, 4 + seq - 100);
                    seq
                })
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, (100..106).collect::<Vec<u64>>());
    }
}
