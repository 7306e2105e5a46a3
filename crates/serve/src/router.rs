//! The front tier: consistent-hash routing across N backend servers.
//!
//! One [`NetServer`][crate::NetServer] serves one process; the scale-out
//! story is many backend processes behind one [`Router`]. The router
//! consistent-hashes [`CompileRequest::key_digest`] — the same 128-bit
//! FNV-1a digest the result cache is keyed by, stable across processes —
//! onto a ring of virtual points, so:
//!
//! * **digest affinity** — a given request key always lands on the same
//!   live backend, which concentrates that key's cache entry (and its
//!   singleflight dedup) in one process instead of recompiling it N
//!   times across the fleet;
//! * **minimal remap on failure** — when a backend dies, only the keys
//!   it owned move (each to the next backend on the ring); every other
//!   key keeps its warm cache.
//!
//! Each backend gets a [`PoolClient`] (bounded connection pool, so one
//! blocked read never starves concurrent requests) and health state:
//! a transport or framing failure — connect refused, mid-stream close,
//! a `draining` refusal — marks the backend **down**, drops its pooled
//! sockets, and *replays the request on the next distinct backend along
//! the ring*. Replay is safe by construction: compiles are deterministic
//! and cached, so re-asking another backend returns byte-identical
//! artifacts. A downed backend is re-probed (fresh connection, full
//! stats round-trip) at most once per [`RouterConfig::probe_interval`],
//! and rejoins the ring the moment a probe answers.
//!
//! Request-level failures — unknown compiler, invalid target — are *not*
//! failover events: every backend would answer the same, so they pass
//! through verbatim.
//!
//! # Elastic membership
//!
//! The ring is no longer fixed at construction: [`Router::add_backend`]
//! and [`Router::remove_backend`] resize it on a live router under a
//! versioned, RwLock'd ring state. Because each backend's virtual
//! points depend only on its own address, adding or removing a node
//! moves exactly the keys whose nearest ring point changes hands — the
//! same minimal-remap property the failure path has always had, now
//! asserted numerically by the membership tests. Removal *drains*: the
//! node leaves the ring immediately (no new keys route to it), requests
//! already in flight finish, and only then is its connection pool
//! dropped. The backend registry itself is append-only, so the indices
//! reported by [`Routed::backend`] and [`Router::backend_states`]
//! remain stable across membership changes; a re-added address revives
//! its original slot. [`Router::warmup_predicate`] derives the
//! owned-key predicate a prospective joiner ships to donors over the
//! warm-up replay protocol (see [`crate::warmup`]).

use crate::client::{ClientConfig, ClientError};
use crate::digest::fnv1a_128;
use crate::pool::PoolClient;
use crate::types::{BackendStats, CompileRequest, CompileResponse, ServeError};
use crate::warmup::OwnedPredicate;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Virtual points per backend on the hash ring. More points smooth the
/// key distribution; 64 keeps the largest/smallest backend share within
/// a few tens of percent even at small fleet sizes.
const RING_REPLICAS: usize = 64;

/// How long [`Router::remove_backend`] waits for the removed backend's
/// in-flight requests to finish before dropping its pool anyway. The
/// node leaves the ring immediately either way; this bounds only the
/// tail of the drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning for one [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The client configuration every pooled connection dials with
    /// (its socket timeouts).
    pub client: ClientConfig,
    /// Connections each backend's [`PoolClient`] may have checked out at
    /// once.
    pub connections_per_backend: usize,
    /// Minimum time between liveness probes of a downed backend. The
    /// probe runs inline on the first request to consider that backend
    /// after the interval elapses (connect-refused fails in
    /// microseconds on a dead local backend, so the inline cost is
    /// negligible next to a compile).
    pub probe_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            client: ClientConfig::default(),
            connections_per_backend: 4,
            probe_interval: Duration::from_secs(1),
        }
    }
}

#[derive(Debug)]
struct Health {
    up: bool,
    /// When the backend was last probed (or marked down — mark-down
    /// starts the probe clock so the very next request does not pay an
    /// immediate, certainly-futile re-dial).
    last_probe: Option<Instant>,
}

#[derive(Debug)]
struct Backend {
    addr: SocketAddr,
    pool: PoolClient,
    health: Mutex<Health>,
    /// Whether the backend is currently a ring member. Removal flips
    /// this instead of deleting the registry slot, so indices stay
    /// stable and a re-added address revives its history.
    member: AtomicBool,
    /// Requests currently executing against this backend through this
    /// router — the drain condition for [`Router::remove_backend`].
    inflight: AtomicU64,
    served: AtomicU64,
    failovers: AtomicU64,
    downs: AtomicU64,
}

/// A serde-able snapshot of one backend's routing state, from
/// [`Router::backend_states`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendState {
    /// The backend's address, as text.
    pub addr: String,
    /// Whether the backend is currently a ring member (false once
    /// removed; its slot is retained for index stability).
    pub member: bool,
    /// Whether the router currently considers the backend live.
    pub healthy: bool,
    /// Requests this router had answered by this backend.
    pub served: u64,
    /// Requests this router replayed *away* from this backend after it
    /// failed mid-request.
    pub failovers: u64,
    /// Times this backend transitioned live → down.
    pub downs: u64,
}

/// A routed response: which backend answered, plus the response itself.
#[derive(Debug, Clone)]
pub struct Routed {
    /// Index of the answering backend (position in the router's
    /// append-only registry: construction order, then join order).
    pub backend: usize,
    /// The answering backend's address.
    pub addr: SocketAddr,
    /// Backends that failed over during *this* request before the
    /// answer (0 on the happy path).
    pub failovers: u32,
    /// The response, exactly the in-process serde type.
    pub response: CompileResponse,
}

/// The membership + ring snapshot guarded by the router's RwLock.
#[derive(Debug)]
struct RingState {
    /// Append-only backend registry; removed members stay (with
    /// `member == false`) so indices remain stable.
    backends: Vec<Arc<Backend>>,
    /// The consistent-hash ring: (point, backend index), sorted by
    /// point, rebuilt from the *member* backends on every membership
    /// change.
    ring: Vec<(u64, usize)>,
    /// Bumped on every membership change. Lets observers detect a
    /// resize without diffing address lists.
    version: u64,
}

impl RingState {
    /// Rebuilds the ring from the current member set.
    fn rebuild(&mut self) {
        self.ring.clear();
        for (index, backend) in self.backends.iter().enumerate() {
            if !backend.member.load(Ordering::Relaxed) {
                continue;
            }
            for point in ring_points(backend.addr) {
                self.ring.push((point, index));
            }
        }
        self.ring.sort_unstable();
    }

    fn member_count(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.member.load(Ordering::Relaxed))
            .count()
    }
}

/// The front-tier router. See the module docs for the routing,
/// failover, and elastic-membership contracts.
///
/// All methods take `&self`; the router is `Sync` and meant to be
/// shared across request threads.
#[derive(Debug)]
pub struct Router {
    state: RwLock<RingState>,
    config: RouterConfig,
}

impl Router {
    /// A router over `addrs` with the default [`RouterConfig`].
    ///
    /// # Errors
    /// [`ClientError::Server`] with kind `invalid-config` if `addrs` is
    /// empty or contains a duplicate address.
    pub fn new(addrs: Vec<SocketAddr>) -> Result<Router, ClientError> {
        Router::with_config(addrs, RouterConfig::default())
    }

    /// [`Router::new`] with explicit tuning.
    pub fn with_config(
        addrs: Vec<SocketAddr>,
        config: RouterConfig,
    ) -> Result<Router, ClientError> {
        if addrs.is_empty() {
            return Err(invalid_config(
                "a Router needs at least one backend address",
            ));
        }
        for (i, addr) in addrs.iter().enumerate() {
            if addrs[..i].contains(addr) {
                return Err(invalid_config(format!(
                    "duplicate backend address {addr}: each backend may appear on the ring once"
                )));
            }
        }
        let backends: Vec<Arc<Backend>> = addrs
            .into_iter()
            .map(|addr| Arc::new(new_backend(addr, &config)))
            .collect();
        let mut state = RingState {
            backends,
            ring: Vec::new(),
            version: 0,
        };
        state.rebuild();
        Ok(Router {
            state: RwLock::new(state),
            config,
        })
    }

    /// How many backends the registry holds (members and removed).
    pub fn backend_count(&self) -> usize {
        self.read().backends.len()
    }

    /// The registry addresses, in registry order (the indices
    /// [`Routed::backend`] and [`Router::route`] refer to). Includes
    /// removed backends; see [`Router::backend_states`] for membership.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.read().backends.iter().map(|b| b.addr).collect()
    }

    /// The current ring version: 0 at construction, bumped by every
    /// [`Router::add_backend`] / [`Router::remove_backend`].
    pub fn version(&self) -> u64 {
        self.read().version
    }

    /// Adds `addr` to the ring on the live router. A previously removed
    /// `addr` revives its registry slot (keeping its counters); a new
    /// address appends one. Only keys whose nearest ring point now
    /// belongs to `addr` change owner — every other key keeps its warm
    /// backend. Returns the backend's registry index.
    ///
    /// # Errors
    /// Kind `invalid-config` if `addr` is already a ring member.
    pub fn add_backend(&self, addr: SocketAddr) -> Result<usize, ClientError> {
        let mut state = self.state.write().expect("ring state lock");
        let index = match state.backends.iter().position(|b| b.addr == addr) {
            Some(i) if state.backends[i].member.load(Ordering::Relaxed) => {
                return Err(invalid_config(format!(
                    "backend {addr} is already a ring member"
                )));
            }
            Some(i) => {
                // Revive the removed slot: fresh health, old counters.
                let backend = &state.backends[i];
                let mut health = backend.health.lock().expect("health mutex");
                health.up = true;
                health.last_probe = None;
                drop(health);
                backend.member.store(true, Ordering::Relaxed);
                i
            }
            None => {
                state
                    .backends
                    .push(Arc::new(new_backend(addr, &self.config)));
                state.backends.len() - 1
            }
        };
        state.version += 1;
        state.rebuild();
        Ok(index)
    }

    /// Removes `addr` from the ring on the live router, draining it:
    /// the node stops receiving new keys immediately, requests already
    /// in flight are given up to ten seconds (`DRAIN_TIMEOUT`) to
    /// finish, and only then are its pooled connections dropped. The
    /// registry slot is retained (indices stay stable) and the address
    /// may be re-added later.
    ///
    /// # Errors
    /// Kind `invalid-config` if `addr` is not a current ring member, or
    /// if it is the *last* member — a router must keep at least one.
    pub fn remove_backend(&self, addr: SocketAddr) -> Result<(), ClientError> {
        let backend = {
            let mut state = self.state.write().expect("ring state lock");
            let index = state
                .backends
                .iter()
                .position(|b| b.addr == addr && b.member.load(Ordering::Relaxed))
                .ok_or_else(|| invalid_config(format!("backend {addr} is not a ring member")))?;
            if state.member_count() == 1 {
                return Err(invalid_config(format!(
                    "cannot remove {addr}: it is the last ring member"
                )));
            }
            state.backends[index].member.store(false, Ordering::Relaxed);
            state.version += 1;
            state.rebuild();
            Arc::clone(&state.backends[index])
        };
        // Drain outside the lock: new requests already cannot pick this
        // backend (it left the ring above); wait for in-flight ones.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while backend.inflight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        backend.pool.clear_idle();
        Ok(())
    }

    /// The owned-key predicate a prospective joiner at `addr` would
    /// ship to warm-up donors: "the keys whose nearest ring point is
    /// mine, against the ring formed by the *current* members plus me".
    /// Computed against the pre-join ring on purpose — the donors are
    /// the keys' previous owners. Also correct for a probe-recovered
    /// member refreshing entries it may have lost: its own points are
    /// excluded from the "others" side.
    pub fn warmup_predicate(&self, addr: SocketAddr) -> OwnedPredicate {
        let state = self.read();
        let member_points = ring_points(addr);
        let mut other_points = Vec::new();
        for backend in &state.backends {
            if backend.addr != addr && backend.member.load(Ordering::Relaxed) {
                other_points.extend(ring_points(backend.addr));
            }
        }
        OwnedPredicate {
            member_points,
            other_points,
        }
    }

    /// The backend [`Router::request`] would try first for `req` right
    /// now: the first member on the ring from the request's digest
    /// point that is not currently marked down. `None` if every member
    /// is marked down. Side-effect-free (no probes, no dials) — this is
    /// the observability/affinity view, not the request path.
    pub fn route(&self, req: &CompileRequest) -> Option<usize> {
        self.candidates(req.key_digest())
            .into_iter()
            .find(|(_, b)| b.health.lock().expect("health mutex").up)
            .map(|(index, _)| index)
    }

    /// Submit-and-wait through the ring: try the request's candidate
    /// backends in ring order, failing over (and marking down) on
    /// transport-shaped failures, passing request-shaped failures
    /// through verbatim. Exhausting every backend returns a
    /// [`ClientError::Server`] with kind `unavailable` naming what was
    /// tried.
    pub fn request(&self, req: &CompileRequest) -> Result<Routed, ClientError> {
        let mut tried: Vec<String> = Vec::new();
        let mut failovers = 0u32;
        for (index, backend) in self.candidates(req.key_digest()) {
            if !self.usable(&backend) {
                tried.push(format!("{} is marked down", backend.addr));
                continue;
            }
            backend.inflight.fetch_add(1, Ordering::AcqRel);
            let outcome = backend.pool.request(req);
            backend.inflight.fetch_sub(1, Ordering::AcqRel);
            match outcome {
                Ok(response) => {
                    backend.served.fetch_add(1, Ordering::Relaxed);
                    return Ok(Routed {
                        backend: index,
                        addr: backend.addr,
                        failovers,
                        response,
                    });
                }
                Err(e) if failover_worthy(&e) => {
                    self.mark_down(&backend);
                    backend.failovers.fetch_add(1, Ordering::Relaxed);
                    failovers += 1;
                    tried.push(format!("{} failed over ({e})", backend.addr));
                }
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::Server(ServeError::unavailable(
            tried.join("; "),
        )))
    }

    /// A routing-state snapshot per backend, in registry order.
    pub fn backend_states(&self) -> Vec<BackendState> {
        self.read()
            .backends
            .iter()
            .map(|b| BackendState {
                addr: b.addr.to_string(),
                member: b.member.load(Ordering::Relaxed),
                healthy: b.health.lock().expect("health mutex").up,
                served: b.served.load(Ordering::Relaxed),
                failovers: b.failovers.load(Ordering::Relaxed),
                downs: b.downs.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Wire-level stats from every *member* backend (a fresh
    /// identity-tagged snapshot each), in registry order. Per-backend
    /// errors are returned in place, not short-circuited — a fleet with
    /// one dead backend still reports the other N−1.
    pub fn backend_stats(&self) -> Vec<Result<BackendStats, ClientError>> {
        let backends: Vec<Arc<Backend>> = self
            .read()
            .backends
            .iter()
            .filter(|b| b.member.load(Ordering::Relaxed))
            .map(Arc::clone)
            .collect();
        backends.iter().map(|b| b.pool.backend_stats()).collect()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, RingState> {
        self.state.read().expect("ring state lock")
    }

    /// The request's candidate backends: every current member exactly
    /// once, in ring order starting from the digest's point. The
    /// snapshot is taken under the read lock and released before any
    /// dialing, so a slow backend never blocks membership changes.
    fn candidates(&self, digest: u128) -> Vec<(usize, Arc<Backend>)> {
        let state = self.read();
        let members = state.member_count();
        let point = fold(digest);
        let start = state.ring.partition_point(|&(p, _)| p < point);
        let mut order: Vec<(usize, Arc<Backend>)> = Vec::with_capacity(members);
        for i in 0..state.ring.len() {
            let (_, index) = state.ring[(start + i) % state.ring.len()];
            if !order.iter().any(|&(seen, _)| seen == index) {
                order.push((index, Arc::clone(&state.backends[index])));
                if order.len() == members {
                    break;
                }
            }
        }
        order
    }

    /// Whether `backend` may be tried right now. Live backends: yes.
    /// Downed backends: only by probing — at most one probe per
    /// [`RouterConfig::probe_interval`] (the claim happens under the
    /// health lock, so concurrent requests cannot stampede a dead
    /// backend with dials), and the backend is usable again only once a
    /// probe completes a full stats round-trip.
    fn usable(&self, backend: &Backend) -> bool {
        {
            let mut health = backend.health.lock().expect("health mutex");
            if health.up {
                return true;
            }
            let due = health
                .last_probe
                .is_none_or(|at| at.elapsed() >= self.config.probe_interval);
            if !due {
                return false;
            }
            health.last_probe = Some(Instant::now());
        }
        match backend.pool.probe() {
            Ok(_) => {
                backend.health.lock().expect("health mutex").up = true;
                true
            }
            Err(_) => false,
        }
    }

    /// Marks a backend down after a transport-shaped failure: flips
    /// health (counting the transition once, however many threads saw
    /// the failure), starts the probe clock, and drops the pool's idle
    /// sockets — they predate the failure and prove nothing.
    fn mark_down(&self, backend: &Backend) {
        let mut health = backend.health.lock().expect("health mutex");
        if health.up {
            health.up = false;
            backend.downs.fetch_add(1, Ordering::Relaxed);
        }
        health.last_probe = Some(Instant::now());
        drop(health);
        backend.pool.clear_idle();
    }
}

fn new_backend(addr: SocketAddr, config: &RouterConfig) -> Backend {
    Backend {
        addr,
        pool: PoolClient::new(addr, config.client.clone(), config.connections_per_backend),
        health: Mutex::new(Health {
            up: true,
            last_probe: None,
        }),
        member: AtomicBool::new(true),
        inflight: AtomicU64::new(0),
        served: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        downs: AtomicU64::new(0),
    }
}

fn invalid_config(reason: impl std::fmt::Display) -> ClientError {
    ClientError::Server(ServeError::invalid_config(reason))
}

/// The virtual ring points one backend address owns: `RING_REPLICAS`
/// folds of `fnv1a_128("{addr}#{replica}")`. Shared between ring
/// construction and [`Router::warmup_predicate`], so the predicate a
/// joiner ships is by construction the same geometry the router will
/// route by.
pub(crate) fn ring_points(addr: SocketAddr) -> Vec<u64> {
    (0..RING_REPLICAS)
        .map(|replica| fold(fnv1a_128(format!("{addr}#{replica}").as_bytes())))
        .collect()
}

/// Folds the 128-bit request digest onto the 64-bit ring with a
/// splitmix64-style avalanche. FNV-1a diffuses weakly for short, similar
/// inputs (ring point pre-images differ by a few characters), so a plain
/// XOR/truncation fold clusters points and can starve a backend of ring
/// share entirely; the avalanche makes every input bit load-bearing.
pub(crate) fn fold(digest: u128) -> u64 {
    let lo = digest as u64;
    let hi = (digest >> 64) as u64;
    let mut z = hi.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = z.wrapping_add(lo);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether an error says "this *backend* failed" (failover, replay on
/// the next ring candidate) rather than "this *request* failed" (pass
/// through — every backend would answer the same).
///
/// `draining` counts as backend-shaped: the server announced it is going
/// away, and the request was refused unserved, so replaying it elsewhere
/// is exactly the zero-loss drain story.
fn failover_worthy(e: &ClientError) -> bool {
    match e {
        ClientError::Io { .. } | ClientError::Proto(_) | ClientError::Closed { .. } => true,
        ClientError::Server(serve) => serve.kind == "draining",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        // Fixed fake addresses: ring construction never dials.
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 4000 + i).parse().unwrap())
            .collect()
    }

    fn owners(router: &Router, digest: u128) -> Vec<usize> {
        router
            .candidates(digest)
            .into_iter()
            .map(|(index, _)| index)
            .collect()
    }

    #[test]
    fn ring_is_deterministic_and_candidates_cover_every_backend_once() {
        let a = Router::new(addrs(3)).unwrap();
        let b = Router::new(addrs(3)).unwrap();
        assert_eq!(a.read().ring, b.read().ring);
        for digest in (0..200u128).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let order = owners(&a, digest);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "order {order:?}");
            assert_eq!(order, owners(&b, digest));
        }
    }

    #[test]
    fn virtual_points_spread_first_choice_across_backends() {
        let router = Router::new(addrs(4)).unwrap();
        let mut first = [0usize; 4];
        for digest in (0..4000u128).map(|i| fnv1a_128(&i.to_le_bytes())) {
            first[owners(&router, digest)[0]] += 1;
        }
        for (index, &count) in first.iter().enumerate() {
            // With 64 replicas each of 4 backends owns roughly a quarter
            // of the ring; a backend owning under 5% would mean the
            // virtual points failed to spread.
            assert!(count > 200, "backend {index} owns only {count}/4000 keys");
        }
    }

    #[test]
    fn killing_a_backend_remaps_only_its_own_keys() {
        let router = Router::new(addrs(3)).unwrap();
        let digests: Vec<u128> = (0..500u128).map(|i| fnv1a_128(&i.to_le_bytes())).collect();
        let before: Vec<usize> = digests.iter().map(|&d| owners(&router, d)[0]).collect();
        // Simulate backend 1 dying: its keys move to the next ring
        // candidate; keys owned by 0 and 2 must not move at all.
        for (&digest, &owner) in digests.iter().zip(&before) {
            let order = owners(&router, digest);
            let survivor = order.iter().copied().find(|&b| b != 1).unwrap();
            if owner != 1 {
                assert_eq!(survivor, owner, "a live backend's key moved");
            }
        }
    }

    #[test]
    fn constructors_reject_empty_and_duplicate_address_lists() {
        let err = Router::new(Vec::new()).unwrap_err();
        match err {
            ClientError::Server(e) => {
                assert_eq!(e.kind, "invalid-config");
                assert!(e.error.contains("at least one"), "{}", e.error);
            }
            other => panic!("expected invalid-config, got {other:?}"),
        }
        let mut list = addrs(3);
        list.push(list[1]);
        let err = Router::new(list).unwrap_err();
        match err {
            ClientError::Server(e) => {
                assert_eq!(e.kind, "invalid-config");
                assert!(e.error.contains("duplicate"), "{}", e.error);
                assert!(e.error.contains("127.0.0.1:4001"), "{}", e.error);
            }
            other => panic!("expected invalid-config, got {other:?}"),
        }
    }

    #[test]
    fn add_backend_moves_only_keys_the_joiner_now_owns() {
        let router = Router::new(addrs(3)).unwrap();
        let digests: Vec<u128> = (0..2000u128).map(|i| fnv1a_128(&i.to_le_bytes())).collect();
        let before: Vec<usize> = digests.iter().map(|&d| owners(&router, d)[0]).collect();
        let joiner: SocketAddr = "127.0.0.1:4999".parse().unwrap();
        let predicate = router.warmup_predicate(joiner);
        let joiner_index = router.add_backend(joiner).unwrap();
        assert_eq!(joiner_index, 3);
        assert_eq!(router.version(), 1);
        let mut moved = 0usize;
        for (&digest, &owner) in digests.iter().zip(&before) {
            let now = owners(&router, digest)[0];
            if now != owner {
                // Every key that changed owner moved *to the joiner*…
                assert_eq!(now, joiner_index, "key moved to a non-joiner backend");
                // …and the pre-join predicate agreed it would.
                assert!(predicate.owns(digest), "predicate missed a moved key");
                moved += 1;
            } else {
                assert!(!predicate.owns(digest), "predicate claimed an unmoved key");
            }
        }
        // The joiner owns roughly 1/4 of the keyspace; far outside
        // [5%, 50%] would mean the ring geometry broke.
        assert!(
            (100..1000).contains(&moved),
            "joiner took {moved}/2000 keys"
        );
    }

    #[test]
    fn remove_backend_moves_only_the_removed_nodes_keys() {
        let router = Router::new(addrs(4)).unwrap();
        let digests: Vec<u128> = (0..2000u128).map(|i| fnv1a_128(&i.to_le_bytes())).collect();
        let before: Vec<usize> = digests.iter().map(|&d| owners(&router, d)[0]).collect();
        let victim = router.addrs()[2];
        router.remove_backend(victim).unwrap();
        assert_eq!(router.version(), 1);
        for (&digest, &owner) in digests.iter().zip(&before) {
            let now = owners(&router, digest)[0];
            if owner == 2 {
                assert_ne!(now, 2, "a key stayed on the removed backend");
            } else {
                assert_eq!(now, owner, "a surviving backend's key moved");
            }
        }
        // The registry keeps the slot; the ring does not.
        assert_eq!(router.backend_count(), 4);
        let states = router.backend_states();
        assert!(!states[2].member);
        assert!(states.iter().enumerate().all(|(i, s)| s.member || i == 2));
    }

    #[test]
    fn membership_edge_cases_are_refused() {
        let router = Router::new(addrs(2)).unwrap();
        // Duplicate add.
        let err = router.add_backend(router.addrs()[0]).unwrap_err();
        assert!(matches!(err, ClientError::Server(ref e) if e.kind == "invalid-config"));
        // Unknown remove.
        let unknown: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        let err = router.remove_backend(unknown).unwrap_err();
        assert!(matches!(err, ClientError::Server(ref e) if e.kind == "invalid-config"));
        // Removing down to one member is fine; removing the last is not.
        router.remove_backend(router.addrs()[1]).unwrap();
        let err = router.remove_backend(router.addrs()[0]).unwrap_err();
        assert!(matches!(err, ClientError::Server(ref e) if e.kind == "invalid-config"));
        assert_eq!(router.version(), 1);
    }

    #[test]
    fn readding_a_removed_backend_revives_its_slot_and_keys() {
        let router = Router::new(addrs(3)).unwrap();
        let digests: Vec<u128> = (0..500u128).map(|i| fnv1a_128(&i.to_le_bytes())).collect();
        let before: Vec<usize> = digests.iter().map(|&d| owners(&router, d)[0]).collect();
        let addr = router.addrs()[1];
        router.remove_backend(addr).unwrap();
        assert_eq!(router.add_backend(addr).unwrap(), 1);
        assert_eq!(
            router.backend_count(),
            3,
            "revival must not grow the registry"
        );
        assert_eq!(router.version(), 2);
        let after: Vec<usize> = digests.iter().map(|&d| owners(&router, d)[0]).collect();
        assert_eq!(
            before, after,
            "a remove/re-add round trip must restore ownership"
        );
    }

    #[test]
    fn fold_distinguishes_the_digest_halves() {
        // A plain XOR fold maps (lo, hi) and (hi, lo) to the same ring
        // point; the avalanche must not.
        assert_ne!(fold(1), fold(1 << 64));
        assert_ne!(fold(0), fold(u128::MAX));
    }
}
