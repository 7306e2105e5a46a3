//! The compile service: shared registry + persistent worker pool +
//! sharded result cache + singleflight miss deduplication.

use crate::cache::{self, CacheEntry, ShardedCache};
use crate::flight::{FlightRole, Singleflight};
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};
use crate::types::{CompileRequest, CompileResponse, ServeError, ServeStats};
use crate::warmup::{OwnedPredicate, WarmupEntry, WarmupImport};
use qft_core::Registry;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default result-cache capacity (entries, summed across shards).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Default admission-queue capacity (jobs waiting for a worker).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Worker threads a fresh service owns: the machine's parallelism,
/// capped so a service never monopolizes a large host.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8)
}

/// What the service does when a submission finds the admission queue
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// The submitter's thread blocks until a worker frees queue space —
    /// backpressure propagates upstream. The default, and always the
    /// policy for [`CompileService::compile_batch`] (a batch is one
    /// explicit unit of work; shedding half of it helps nobody).
    #[default]
    Block,
    /// The submission is rejected immediately with a descriptive
    /// [`ServeError::overloaded`] (`kind = "overloaded"`) and counted in
    /// [`ServeStats::shed`]. For latency-sensitive front ends that would
    /// rather fail fast and retry elsewhere than queue behind a spike.
    Shed,
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
    cache: ShardedCache,
    flights: Singleflight,
    metrics: Metrics,
}

impl ServiceInner {
    /// The full serve path: sharded-cache probe → singleflight join →
    /// (leader only) validate + compile + publish. Runs on whichever
    /// thread calls it — a pool worker for queued traffic, the caller
    /// for [`CompileService::compile`].
    fn serve(&self, req: &CompileRequest) -> Result<CompileResponse, ServeError> {
        let t0 = Instant::now();
        Metrics::bump(&self.metrics.requests);
        let key_json = req.cache_key();
        let key = cache::key_digest(&key_json);

        // Hot path: one shard lock, O(1) recency bump, Arc clone out.
        if let Some(entry) = self.cache.get(key, &key_json) {
            Metrics::bump(&self.metrics.hits);
            return Ok(self.respond(
                t0,
                key_json,
                entry.cold_compile_s,
                entry.result,
                true,
                false,
            ));
        }

        match self.flights.join(key) {
            FlightRole::Follower(slot) => {
                // Someone is already compiling this key: wait for their
                // broadcast instead of recompiling.
                Metrics::bump(&self.metrics.dedup_joins);
                match slot.wait() {
                    Ok((result, cold_s)) => {
                        Ok(self.respond(t0, key_json, cold_s, result, true, true))
                    }
                    Err(e) => {
                        Metrics::bump(&self.metrics.errors);
                        self.metrics.latency.record(t0.elapsed().as_secs_f64());
                        Err(e)
                    }
                }
            }
            FlightRole::Leader(slot) => {
                // Double-check: the previous leader retires its flight
                // only *after* inserting into the cache, so a key that
                // landed between our miss and our join is found here —
                // this is what makes "exactly one compile per distinct
                // key" exact rather than probabilistic.
                if let Some(entry) = self.cache.get(key, &key_json) {
                    self.flights.publish(
                        key,
                        &slot,
                        Ok((Arc::clone(&entry.result), entry.cold_compile_s)),
                    );
                    Metrics::bump(&self.metrics.hits);
                    return Ok(self.respond(
                        t0,
                        key_json,
                        entry.cold_compile_s,
                        entry.result,
                        true,
                        false,
                    ));
                }
                let outcome = req
                    .validate(self.registry)
                    .and_then(|(compiler, target)| compiler.compile(&target, &req.options));
                Metrics::bump(&self.metrics.misses);
                match outcome {
                    Err(e) => {
                        // Broadcast the failure so followers fail the
                        // same way; errors are never cached, so the next
                        // request for this key starts a fresh flight.
                        let e = ServeError::from(e);
                        self.flights.publish(key, &slot, Err(e.clone()));
                        Metrics::bump(&self.metrics.errors);
                        self.metrics.latency.record(t0.elapsed().as_secs_f64());
                        Err(e)
                    }
                    Ok(mut result) => {
                        let cold_s = result.compile_s;
                        result.strip_wall_times();
                        let result = Arc::new(result);
                        let evicted = self.cache.insert(
                            key,
                            CacheEntry {
                                result: Arc::clone(&result),
                                cold_compile_s: cold_s,
                                key_json: Arc::from(key_json.as_str()),
                            },
                        );
                        self.metrics.evictions.fetch_add(evicted, Ordering::Relaxed);
                        // Cache first, then retire the flight (see the
                        // double-check above for why this order matters).
                        self.flights
                            .publish(key, &slot, Ok((Arc::clone(&result), cold_s)));
                        Ok(self.respond(t0, key_json, cold_s, result, false, false))
                    }
                }
            }
        }
    }

    fn respond(
        &self,
        t0: Instant,
        cache_key: String,
        cold_compile_s: f64,
        result: Arc<qft_core::CompileResult>,
        cached: bool,
        deduped: bool,
    ) -> CompileResponse {
        let wall_s = t0.elapsed().as_secs_f64();
        self.metrics.latency.record(wall_s);
        CompileResponse {
            cached,
            deduped,
            cache_key,
            wall_s,
            compile_s: cold_compile_s,
            result,
        }
    }
}

/// A thread-safe compile service over one shared [`Registry`].
///
/// Three tiers of admission, from hottest to coldest:
///
/// 1. **Sharded cache** — results live in N independently-locked LRU
///    shards keyed by the 128-bit digest of the canonical request JSON,
///    so cached hits from M threads convoy only on same-shard keys
///    instead of one global mutex.
/// 2. **Singleflight** — concurrent misses on the same key perform
///    exactly one compile: the first thread leads, duplicates block on
///    the in-flight slot and receive the same `Arc<CompileResult>`.
/// 3. **Persistent worker pool** — `workers` threads spawned once at
///    construction (not per batch) drain a bounded admission queue fed
///    by [`CompileService::submit`] and
///    [`CompileService::compile_batch`]; a full queue either blocks the
///    submitter or sheds with `kind = "overloaded"` per the service's
///    [`Backpressure`] policy.
///
/// Artifacts are byte-deterministic: wall times are stripped before an
/// entry is cached, so every response for a given request — cold miss,
/// cache hit, or singleflight join, on any thread, from any service —
/// serializes identically. [`ServeStats`] surfaces the admission
/// metrics (hits/misses/dedup-joins/evictions/shed, queue depth, p50/p99
/// latency) from lock-free counters.
#[derive(Debug)]
pub struct CompileService {
    inner: Arc<ServiceInner>,
    queue: Arc<BoundedQueue<Job>>,
    backpressure: Backpressure,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

/// Configures and builds a [`CompileService`].
///
/// ```
/// use qft_serve::{Backpressure, CompileService};
///
/// let service = CompileService::builder()
///     .cache_capacity(512)
///     .workers(4)
///     .queue_capacity(128)
///     .backpressure(Backpressure::Shed)
///     .build();
/// assert_eq!(service.workers(), 4);
/// ```
#[derive(Debug)]
pub struct ServiceBuilder {
    registry: &'static Registry,
    cache_capacity: usize,
    cache_shards: usize,
    workers: usize,
    queue_capacity: usize,
    backpressure: Backpressure,
}

impl ServiceBuilder {
    /// Resolve compiler names through a caller-supplied registry (e.g.
    /// one extended with custom compilers). Must be `'static` because
    /// worker threads and cached artifacts outlive any one call.
    pub fn registry(mut self, registry: &'static Registry) -> Self {
        self.registry = registry;
        self
    }

    /// Total result-cache entries across all shards (clamped to ≥ 1).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Upper bound on cache shards (clamped to a power of two ≤ 16 and
    /// to one shard per 4 entries of capacity, so small caches keep one
    /// shard and exact global LRU order).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Persistent worker threads (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Admission-queue capacity (clamped to ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// What a submission does when the admission queue is full.
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// Builds the service and spawns its worker pool.
    pub fn build(self) -> CompileService {
        let inner = Arc::new(ServiceInner {
            registry: self.registry,
            cache: ShardedCache::new(self.cache_capacity, self.cache_shards),
            flights: Singleflight::new(),
            metrics: Metrics::new(),
        });
        let queue = Arc::new(BoundedQueue::<Job>::new(self.queue_capacity));
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
            backpressure: self.backpressure,
            workers: self.workers,
            handles,
        }
    }
}

impl CompileService {
    /// A builder with the defaults: shared registry, capacity
    /// [`DEFAULT_CACHE_CAPACITY`], machine-sized workers, queue capacity
    /// [`DEFAULT_QUEUE_CAPACITY`], [`Backpressure::Block`].
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder {
            registry: crate::shared_registry(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache_shards: ShardedCache::DEFAULT_SHARDS,
            workers: default_workers(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            backpressure: Backpressure::Block,
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

    /// A service over a caller-supplied registry (e.g. one extended with
    /// custom compilers).
    pub fn with_registry(
        registry: &'static Registry,
        cache_capacity: usize,
        workers: usize,
    ) -> Self {
        Self::builder()
            .registry(registry)
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

    /// The service's backpressure policy for queued submissions.
    pub fn backpressure(&self) -> Backpressure {
        self.backpressure
    }

    /// Serves one request synchronously **on the caller's thread** —
    /// the lowest-latency path, bypassing the admission queue (the
    /// caller's thread *is* the capacity being spent). Still goes
    /// through the sharded cache and singleflight, so concurrent callers
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
    /// are). Under [`Backpressure::Shed`] a full queue rejects with
    /// `kind = "overloaded"` instead of blocking; nothing is sent on
    /// `reply` for a rejected submission.
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
        self.enqueue(Job::new(req, seq, reply), self.backpressure)
    }

    /// Applies a backpressure policy to one enqueue.
    fn enqueue(&self, job: Job, policy: Backpressure) -> Result<(), ServeError> {
        match policy {
            Backpressure::Block => self
                .queue
                .push(job)
                .map_err(|_| ServeError::bad_request("service is shutting down")),
            Backpressure::Shed => match self.queue.try_push(job) {
                Ok(()) => Ok(()),
                Err(PushError::Full(_)) => {
                    Metrics::bump(&self.inner.metrics.shed);
                    Err(ServeError::overloaded(
                        self.queue.len(),
                        self.queue.capacity(),
                    ))
                }
                Err(PushError::Closed(_)) => {
                    Err(ServeError::bad_request("service is shutting down"))
                }
            },
        }
    }

    /// Serves a batch through the persistent pool: every request is
    /// enqueued (blocking for space regardless of the shed policy — a
    /// batch is one explicit unit of work) and the responses come back
    /// in request order; per-request errors stay per-request.
    pub fn compile_batch(
        &self,
        reqs: &[CompileRequest],
    ) -> Vec<Result<CompileResponse, ServeError>> {
        let mut out: Vec<Option<Result<CompileResponse, ServeError>>> =
            (0..reqs.len()).map(|_| None).collect();
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        for (seq, req) in reqs.iter().enumerate() {
            let job = Job::new(req.clone(), seq as u64, &reply_tx);
            if let Err(e) = self.enqueue(job, Backpressure::Block) {
                // Shutdown mid-batch: answer what we must, not panic.
                out[seq] = Some(Err(e));
            }
        }
        drop(reply_tx);
        for (seq, response) in reply_rx {
            out[seq as usize] = Some(response);
        }
        out.into_iter()
            .map(|slot| slot.expect("every batch job is answered exactly once"))
            .collect()
    }

    /// Exports every cache entry whose key digest the predicate claims,
    /// as verifiable [`WarmupEntry`] records (digests stamped at export,
    /// re-checked at import). Reads only the cache — the worker pool and
    /// admission queue are never touched, so a donor answers warm-up
    /// traffic at zero compile cost. Shards are locked one at a time;
    /// the export is a best-effort snapshot, not a consistent cut, which
    /// is exactly what a warm-up wants (entries compiled mid-export just
    /// arrive on the next probe or recompile).
    pub fn export_warmup(&self, predicate: &OwnedPredicate) -> Vec<WarmupEntry> {
        self.inner
            .cache
            .export_if(&|key| predicate.owns(key))
            .into_iter()
            .map(|(_, entry)| WarmupEntry::from_cache(&entry))
            .collect()
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
            match self.inner.cache.insert_if_absent(key, cached) {
                None => report.already_present += 1,
                Some(evicted) => {
                    report.imported += 1;
                    self.inner
                        .metrics
                        .evictions
                        .fetch_add(evicted, Ordering::Relaxed);
                }
            }
        }
        report
    }

    /// A snapshot of the admission metrics. Lock-free: counters are
    /// atomics and the latency window is a reservoir — only the cache
    /// occupancy sum briefly takes each shard lock in turn.
    pub fn stats(&self) -> ServeStats {
        let m = &self.inner.metrics;
        let (p50_s, p99_s) = m.latency.percentiles();
        ServeStats {
            workers: self.workers,
            cache_capacity: self.inner.cache.capacity(),
            cache_entries: self.inner.cache.len(),
            cache_shards: self.inner.cache.shard_count(),
            queue_capacity: self.queue.capacity(),
            queue_depth: self.queue.len() as u64,
            in_flight: self.inner.flights.len() as u64,
            requests: m.requests.load(Ordering::Relaxed),
            hits: m.hits.load(Ordering::Relaxed),
            misses: m.misses.load(Ordering::Relaxed),
            dedup_joins: m.dedup_joins.load(Ordering::Relaxed),
            evictions: m.evictions.load(Ordering::Relaxed),
            shed: m.shed.load(Ordering::Relaxed),
            errors: m.errors.load(Ordering::Relaxed),
            p50_ms: p50_s * 1e3,
            p99_ms: p99_s * 1e3,
        }
    }

    /// Whether a request is currently resident in the cache (no recency
    /// bump — a pure inspection for tests and dashboards).
    pub fn is_cached(&self, req: &CompileRequest) -> bool {
        self.inner.cache.contains(req.key_digest())
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
    fn batch_preserves_request_order() {
        let service = CompileService::with_config(16, 4);
        let reqs: Vec<CompileRequest> = (4..12)
            .map(|n| CompileRequest::new("lnn", format!("lnn:{n}")))
            .collect();
        let responses = service.compile_batch(&reqs);
        assert_eq!(responses.len(), reqs.len());
        for (n, resp) in (4..12).zip(&responses) {
            assert_eq!(resp.as_ref().unwrap().result.n, n);
        }
    }

    #[test]
    fn one_bad_request_never_poisons_a_batch() {
        let service = CompileService::new();
        let reqs = vec![
            CompileRequest::new("lnn", "lnn:6"),
            CompileRequest::new("nope", "lnn:6"),
            CompileRequest::new("sycamore", "sycamore:3"),
            CompileRequest::new("lnn", "lnn:7")
                .with_options(CompileOptions::default().with_approximation(0)),
            CompileRequest::new("lnn", "lnn:8"),
        ];
        let responses = service.compile_batch(&reqs);
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
        assert_eq!(stats.cache_shards, 1, "tiny caches stay single-shard");
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
