//! A connection pool over one backend address.
//!
//! [`NetClient`] is deliberately a single blocking socket, which makes a
//! front-tier router's problem obvious: while one request waits on its
//! response read, every other request to the same backend would queue
//! behind that socket. [`PoolClient`] multiplexes a *set* of
//! `NetClient`s to one address so concurrent requests each get their own
//! connection — one blocked read never starves the others — while
//! bounding how many sockets one backend is asked to carry:
//!
//! * **checkout/checkin** — a request pops an idle connection or dials a
//!   new one; at most [`PoolClient::capacity`] connections are checked
//!   out at once, and further checkouts block until one is returned
//!   (the same discipline a backend's admission queue applies to work,
//!   applied here to sockets);
//! * **health-aware recycling** — a connection that answered cleanly
//!   (including server-side request errors, which leave the stream
//!   perfectly framed) goes back to the idle set; a
//!   connection that failed at the transport or framing layer is
//!   discarded, never handed to the next caller;
//! * **probing** — [`PoolClient::probe`] dials a *fresh* connection and
//!   completes a stats round-trip, which is the router's liveness check:
//!   it proves accept loop, framing, and service are all answering, not
//!   merely that the TCP handshake completed.

use crate::client::{ClientConfig, ClientError, NetClient};
use crate::types::{BackendStats, CompileRequest, CompileResponse};
use std::net::SocketAddr;
use std::sync::{Condvar, Mutex};

#[derive(Debug, Default)]
struct PoolState {
    /// Connections not currently checked out, newest last (LIFO reuse
    /// keeps the working set warm and lets excess sockets idle out of
    /// rotation).
    idle: Vec<NetClient>,
    /// Connections currently checked out.
    active: usize,
}

/// A bounded pool of [`NetClient`]s to one backend address. See the
/// module docs for the discipline; [`PoolClient::request`] is the
/// checkout → call → recycle cycle pre-assembled.
#[derive(Debug)]
pub struct PoolClient {
    addr: SocketAddr,
    config: ClientConfig,
    cap: usize,
    state: Mutex<PoolState>,
    freed: Condvar,
}

impl PoolClient {
    /// A pool for `addr`, dialing lazily with `config`, with at most
    /// `cap` connections checked out at once (`cap` is clamped to ≥ 1 —
    /// a pool that can never lend a connection is not a pool).
    pub fn new(addr: SocketAddr, config: ClientConfig, cap: usize) -> PoolClient {
        PoolClient {
            addr,
            config,
            cap: cap.max(1),
            state: Mutex::new(PoolState::default()),
            freed: Condvar::new(),
        }
    }

    /// The backend address this pool dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The checkout bound: the most connections this pool will have
    /// lent out at any moment.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Idle (pooled, reusable) connections right now.
    pub fn idle_connections(&self) -> usize {
        self.state.lock().expect("pool mutex").idle.len()
    }

    /// Borrows a connection: an idle one if available, a freshly dialed
    /// one if under capacity, otherwise blocks until a checkout returns.
    /// Every successful checkout must be paired with
    /// [`PoolClient::checkin`] or [`PoolClient::discard`].
    pub fn checkout(&self) -> Result<NetClient, ClientError> {
        let mut state = self.state.lock().expect("pool mutex");
        loop {
            if let Some(client) = state.idle.pop() {
                state.active += 1;
                return Ok(client);
            }
            if state.active < self.cap {
                state.active += 1;
                drop(state);
                // Dial outside the lock: a slow connect must not block
                // checkins (or other checkouts of idle connections).
                return match NetClient::connect_with(self.addr, self.config.clone()) {
                    Ok(client) => Ok(client),
                    Err(e) => {
                        self.state.lock().expect("pool mutex").active -= 1;
                        self.freed.notify_one();
                        Err(e)
                    }
                };
            }
            state = self.freed.wait(state).expect("pool mutex");
        }
    }

    /// Returns a healthy connection to the idle set for reuse.
    pub fn checkin(&self, client: NetClient) {
        let mut state = self.state.lock().expect("pool mutex");
        state.active -= 1;
        if state.idle.len() < self.cap {
            state.idle.push(client);
        }
        drop(state);
        self.freed.notify_one();
    }

    /// Releases a checkout *without* recycling the connection — the
    /// caller saw a transport or framing failure, so the socket's state
    /// is unknown and nobody else should inherit it.
    ///
    /// Accounting audit: every path that increments `active` pairs with
    /// exactly one decrement — [`PoolClient::checkin`], this method, or
    /// the connect-error arm inside [`PoolClient::checkout`] (which also
    /// notifies, so a waiter blocked at the cap is not stranded by a
    /// failed dial). A request cycle that discards therefore frees its
    /// permit just like one that checks in; repeated transport failures
    /// can never leak permits until the pool wedges at `cap`. Pinned by
    /// the `discard_path_never_leaks_checkout_permits` regression test.
    pub fn discard(&self) {
        self.state.lock().expect("pool mutex").active -= 1;
        self.freed.notify_one();
    }

    /// Drops every idle connection. The router calls this when it marks
    /// the backend down: sockets pooled before the failure are presumed
    /// dead, and a recovered backend deserves fresh dials, not leftovers.
    pub fn clear_idle(&self) {
        self.state.lock().expect("pool mutex").idle.clear();
    }

    /// Checkout → [`NetClient::request`] → recycle. Server-level answers
    /// (success, request errors) leave the stream framed and recycle the
    /// connection; transport/framing failures and server goodbyes
    /// discard it.
    pub fn request(&self, req: &CompileRequest) -> Result<CompileResponse, ClientError> {
        let mut client = self.checkout()?;
        let outcome = client.request(req);
        match &outcome {
            Ok(_) | Err(ClientError::Server(_)) => self.checkin(client),
            Err(ClientError::Io { .. })
            | Err(ClientError::Proto(_))
            | Err(ClientError::Closed { .. }) => self.discard(),
        }
        outcome
    }

    /// Checkout → [`NetClient::backend_stats`] → recycle, same
    /// discipline as [`PoolClient::request`].
    pub fn backend_stats(&self) -> Result<BackendStats, ClientError> {
        let mut client = self.checkout()?;
        let outcome = client.backend_stats();
        match &outcome {
            Ok(_) => self.checkin(client),
            Err(_) => self.discard(),
        }
        outcome
    }

    /// The liveness probe: dial a *fresh* connection (pooled idle
    /// sockets prove nothing about a backend that restarted) and
    /// complete a stats round-trip. On success the new connection joins
    /// the idle set — a recovering backend's first real request reuses
    /// it instead of dialing again.
    pub fn probe(&self) -> Result<BackendStats, ClientError> {
        let mut client = NetClient::connect_with(self.addr, self.config.clone())?;
        let tagged = client.backend_stats()?;
        let mut state = self.state.lock().expect("pool mutex");
        if state.idle.len() < self.cap {
            state.idle.push(client);
            drop(state);
        } else {
            drop(state);
            let _ = client.goodbye();
        }
        Ok(tagged)
    }
}
