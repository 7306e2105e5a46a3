//! The cache warm-up replay protocol: zero-loss hand-off for elastic
//! ring membership.
//!
//! A backend that joins (or probe-recovers into) the ring starts
//! stone-cold: every key it now owns would recompile from scratch even
//! though the previous owner holds the finished artifact. This module is
//! the hand-off. The joiner derives an [`OwnedPredicate`] from the
//! router's ring geometry ([`crate::Router::warmup_predicate`]) — "the
//! keys whose nearest ring point is mine" — ships it to each donor in a
//! `warmup-request` frame, and the donor answers with chunked
//! `warmup-batch` frames exported straight from its cache snapshot,
//! never touching its worker pool. The joiner verifies and bulk-imports
//! the entries before taking traffic, so its first pass over its owned
//! keys serves cache hits, not recompiles.
//!
//! Robustness is the contract, not an afterthought:
//!
//! * **Per-entry integrity** — every [`WarmupEntry`] carries the hex
//!   digests of its key JSON *and* its serialized artifact;
//!   [`WarmupEntry::verify`] recomputes both on import and rejects
//!   mismatches entry-by-entry, so a corrupt or tampered batch can never
//!   poison the cache (the rejected keys simply stay cold).
//! * **Idempotent import** — entries land via insert-if-absent: a
//!   double-import is a no-op and the importer's own (fresher) entry
//!   always wins over a replayed one.
//! * **Graceful degradation** — a donor that dies mid-transfer or stalls
//!   costs three attempts with doubling backoff, and on
//!   final failure the joiner just runs cold for those keys: correctness
//!   never depends on the transfer succeeding.

use crate::cache::{key_digest, CacheEntry};
use crate::client::{ClientConfig, ClientError, NetClient};
use crate::digest::fnv1a_128;
use crate::router::fold;
use crate::service::CompileService;
use qft_core::CompileResult;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Soft byte budget for one `warmup-batch` frame's entry list (2 MiB —
/// comfortably under the wire layer's 16 MiB hard cap even after JSON
/// envelope overhead). Chunking is greedy by serialized entry size; an
/// oversized single entry still travels alone rather than being dropped.
pub const WARMUP_CHUNK_BUDGET: usize = 2 << 20;

/// Fetch attempts against one donor before its keys are left cold.
const WARMUP_ATTEMPTS: u32 = 3;

/// First backoff sleep after a transport-shaped warm-up failure; doubles
/// per retry, so a donor that keeps failing costs 50 + 100 ms of sleep
/// across its three attempts.
const WARMUP_BACKOFF: Duration = Duration::from_millis(50);

/// The joiner's owned-key predicate, in ring geometry: its own virtual
/// points and everyone else's. A digest is *owned* iff its nearest ring
/// successor is one of [`OwnedPredicate::member_points`] — exactly the
/// consistent-hash ownership rule the router routes by, evaluated
/// against the donor-side ring without shipping any key material.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnedPredicate {
    /// The claiming backend's virtual ring points.
    pub member_points: Vec<u64>,
    /// Every other ring member's virtual points.
    pub other_points: Vec<u64>,
}

impl OwnedPredicate {
    /// Whether the claiming backend owns `digest` on the predicate's
    /// ring: its nearest clockwise point is strictly closer than every
    /// other member's (ties conservatively yield to the others — the
    /// key stays with its current owner and simply recompiles if the
    /// router disagrees). No member points claims nothing; no *other*
    /// points claims everything (a sole member owns the whole ring).
    pub fn owns(&self, digest: u128) -> bool {
        let p = fold(digest);
        // Clockwise distance to the nearest successor point: wrapping
        // subtraction is exactly the ring metric, no sorting needed.
        let nearest = |points: &[u64]| points.iter().map(|&pt| pt.wrapping_sub(p)).min();
        match (nearest(&self.member_points), nearest(&self.other_points)) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(mine), Some(theirs)) => mine < theirs,
        }
    }
}

/// One cache entry in transit: the canonical key JSON, both integrity
/// digests, the cold-compile cost, and the artifact itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WarmupEntry {
    /// The canonical request JSON the cache key digest was computed
    /// from (the cache's collision-audit pre-image).
    pub key_json: String,
    /// Hex (32 chars) of the 128-bit FNV-1a digest of `key_json`.
    /// Recomputed on import; a mismatch rejects the entry.
    pub key_digest: String,
    /// Hex (32 chars) of the 128-bit FNV-1a digest of the artifact's
    /// canonical JSON serialization. Recomputed on import; a mismatch —
    /// truncation, corruption, tampering — rejects the entry.
    pub artifact_digest: String,
    /// The original cold compile's wall-clock cost (response metadata;
    /// the artifact itself is wall-time-stripped).
    pub cold_compile_s: f64,
    /// The byte-deterministic artifact.
    pub result: Arc<CompileResult>,
}

impl WarmupEntry {
    /// An entry exported from a donor's cache slot, digests stamped
    /// from the actual bytes being shipped.
    pub(crate) fn from_cache(entry: &CacheEntry) -> WarmupEntry {
        let artifact_json =
            serde_json::to_string(&*entry.result).expect("artifacts always serialize");
        WarmupEntry {
            key_json: entry.key_json.to_string(),
            key_digest: digest_hex(key_digest(&entry.key_json)),
            artifact_digest: digest_hex(fnv1a_128(artifact_json.as_bytes())),
            cold_compile_s: entry.cold_compile_s,
            result: Arc::clone(&entry.result),
        }
    }

    /// The import-side integrity check: both digests are *recomputed*
    /// from the entry's own bytes and compared against its claims, so a
    /// flipped byte anywhere — key, artifact, or digest field — fails
    /// closed. Returns the verified 128-bit cache key.
    pub fn verify(&self) -> Result<u128, String> {
        let claimed_key = parse_digest_hex(&self.key_digest).ok_or_else(|| {
            format!(
                "key digest {:?} is not 32 lowercase hex characters",
                self.key_digest
            )
        })?;
        let actual_key = key_digest(&self.key_json);
        if actual_key != claimed_key {
            return Err(format!(
                "key digest mismatch: entry claims {}, re-digest of its key JSON is {}",
                self.key_digest,
                digest_hex(actual_key)
            ));
        }
        let claimed_artifact = parse_digest_hex(&self.artifact_digest).ok_or_else(|| {
            format!(
                "artifact digest {:?} is not 32 lowercase hex characters",
                self.artifact_digest
            )
        })?;
        let artifact_json = serde_json::to_string(&*self.result)
            .map_err(|e| format!("artifact failed to re-serialize: {e}"))?;
        let actual_artifact = fnv1a_128(artifact_json.as_bytes());
        if actual_artifact != claimed_artifact {
            return Err(format!(
                "artifact digest mismatch for key {}: entry claims {}, re-digest is {} — \
                 corrupt or truncated in transit",
                self.key_digest,
                self.artifact_digest,
                digest_hex(actual_artifact)
            ));
        }
        if !self.cold_compile_s.is_finite() || self.cold_compile_s < 0.0 {
            return Err(format!(
                "cold compile cost {} is not a finite non-negative number",
                self.cold_compile_s
            ));
        }
        Ok(actual_key)
    }
}

/// What one bulk import did, entry by entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmupImport {
    /// Entries verified and inserted.
    pub imported: u64,
    /// Entries skipped because the key was already resident — the
    /// local (fresher) entry wins; a double-import is a no-op.
    pub already_present: u64,
    /// Entries rejected by [`WarmupEntry::verify`]; their keys stay
    /// cold and recompile on first use.
    pub rejected: u64,
}

impl WarmupImport {
    /// Folds another import's tallies into this one.
    pub fn absorb(&mut self, other: WarmupImport) {
        self.imported += other.imported;
        self.already_present += other.already_present;
        self.rejected += other.rejected;
    }
}

/// One donor's contribution to a [`WarmupReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DonorOutcome {
    /// The donor's address, as text.
    pub addr: String,
    /// Connection/fetch attempts made against this donor.
    pub attempts: u32,
    /// Entries the donor shipped (pre-verification).
    pub fetched: u64,
    /// Why the fetch ultimately failed, if it did. A failed donor is
    /// degradation, not an error: its keys run cold.
    pub error: Option<String>,
}

/// What a full [`replay_into`] warm-up accomplished.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmupReport {
    /// Per-donor fetch outcomes, in the order the donors were tried.
    pub donors: Vec<DonorOutcome>,
    /// The combined import tally across every successful fetch.
    pub import: WarmupImport,
}

/// Splits entries into `warmup-batch`-sized chunks: greedy packing by
/// serialized entry size against `budget` bytes. Always returns at
/// least one chunk (an empty final chunk carries `done = true` when the
/// donor had nothing to ship); a single entry larger than the budget
/// still travels, alone in its chunk.
pub fn chunk_entries(entries: Vec<WarmupEntry>, budget: usize) -> Vec<Vec<WarmupEntry>> {
    let budget = budget.max(1);
    let mut chunks: Vec<Vec<WarmupEntry>> = Vec::new();
    let mut current: Vec<WarmupEntry> = Vec::new();
    let mut current_bytes = 0usize;
    for entry in entries {
        let cost = serde_json::to_string(&entry)
            .map(|s| s.len())
            .unwrap_or(budget);
        if !current.is_empty() && current_bytes + cost > budget {
            chunks.push(std::mem::take(&mut current));
            current_bytes = 0;
        }
        current_bytes += cost;
        current.push(entry);
    }
    chunks.push(current);
    chunks
}

/// Fetches the predicate's entries from one donor: a fresh connection
/// per attempt, transport-shaped failures tried three times in all with
/// a 50 ms backoff that doubles, request-shaped refusals returned
/// immediately (every retry would answer the same). Returns the attempt
/// count alongside the outcome so reports stay honest about the cost.
pub fn fetch_from_donor(
    addr: SocketAddr,
    config: &ClientConfig,
    predicate: &OwnedPredicate,
) -> (u32, Result<Vec<WarmupEntry>, ClientError>) {
    let mut attempts = 0u32;
    let mut backoff = WARMUP_BACKOFF;
    loop {
        attempts += 1;
        let outcome = NetClient::connect_with(addr, config.clone())
            .and_then(|mut client| client.warm_up(predicate));
        match outcome {
            Ok(entries) => return (attempts, Ok(entries)),
            Err(e @ ClientError::Server(_)) => return (attempts, Err(e)),
            Err(e) if attempts >= WARMUP_ATTEMPTS => return (attempts, Err(e)),
            Err(_) => {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
        }
    }
}

/// The whole joiner-side warm-up: fetch the predicate's entries from
/// each donor in turn and bulk-import them into `service`'s cache,
/// verified entry by entry. Donors fail independently — a dead or
/// refusing donor is recorded in the report and skipped, never fatal;
/// the corresponding keys simply run cold. Import is idempotent, so
/// overlapping donor populations (or a re-run) cost nothing.
pub fn replay_into(
    service: &CompileService,
    donors: &[SocketAddr],
    predicate: &OwnedPredicate,
    config: &ClientConfig,
) -> WarmupReport {
    let mut report = WarmupReport {
        donors: Vec::with_capacity(donors.len()),
        import: WarmupImport::default(),
    };
    for &addr in donors {
        let (attempts, outcome) = fetch_from_donor(addr, config, predicate);
        match outcome {
            Ok(entries) => {
                let fetched = entries.len() as u64;
                report.import.absorb(service.import_warmup(&entries));
                report.donors.push(DonorOutcome {
                    addr: addr.to_string(),
                    attempts,
                    fetched,
                    error: None,
                });
            }
            Err(e) => report.donors.push(DonorOutcome {
                addr: addr.to_string(),
                attempts,
                fetched: 0,
                error: Some(e.to_string()),
            }),
        }
    }
    report
}

/// `digest` as 32 lowercase hex characters — the wire rendering of a
/// 128-bit cache key (JSON numbers cannot carry 128 bits losslessly).
pub fn digest_hex(digest: u128) -> String {
    format!("{digest:032x}")
}

/// Parses [`digest_hex`]'s output, strictly: exactly 32 lowercase hex
/// characters. Truncated, padded, or mixed-case digests are refused —
/// integrity fields have one canonical spelling.
pub fn parse_digest_hex(text: &str) -> Option<u128> {
    if text.len() != 32
        || !text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u128::from_str_radix(text, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_core::{CompileOptions, QftCompiler, Target};

    fn entry_for(n: usize) -> WarmupEntry {
        let target = Target::lnn(n).unwrap();
        let mut result = qft_core::LnnMapper
            .compile(&target, &CompileOptions::default())
            .unwrap();
        result.strip_wall_times();
        let key_json = format!("{{\"compiler\":\"lnn\",\"target\":\"lnn:{n}\"}}");
        WarmupEntry::from_cache(&CacheEntry {
            result: Arc::new(result),
            cold_compile_s: 0.125,
            key_json: Arc::from(key_json.as_str()),
        })
    }

    #[test]
    fn digest_hex_roundtrips_and_rejects_sloppy_spellings() {
        for digest in [0u128, 1, u128::MAX, 0xdead_beef] {
            let hex = digest_hex(digest);
            assert_eq!(hex.len(), 32);
            assert_eq!(parse_digest_hex(&hex), Some(digest));
        }
        assert_eq!(parse_digest_hex(""), None);
        assert_eq!(parse_digest_hex(&digest_hex(7)[..31]), None, "truncated");
        // A digest whose spelling contains letters, so uppercasing
        // actually changes it.
        assert_eq!(
            parse_digest_hex(&digest_hex(0xdead_beef).to_uppercase()),
            None
        );
        assert_eq!(
            parse_digest_hex(&format!("+{}", &digest_hex(7)[..31])),
            None
        );
    }

    #[test]
    fn verify_accepts_honest_entries_and_rejects_every_tamper() {
        let entry = entry_for(6);
        let key = entry.verify().expect("honest entry verifies");
        assert_eq!(key, key_digest(&entry.key_json));

        // Tampered key JSON: the key digest no longer matches.
        let mut bad = entry.clone();
        bad.key_json.push(' ');
        assert!(bad.verify().unwrap_err().contains("key digest mismatch"));

        // Tampered artifact: the artifact digest no longer matches.
        let mut bad = entry.clone();
        let mut result = (*bad.result).clone();
        result.n += 1;
        bad.result = Arc::new(result);
        assert!(bad
            .verify()
            .unwrap_err()
            .contains("artifact digest mismatch"));

        // Truncated digest field: rejected before any digesting.
        let mut bad = entry.clone();
        bad.artifact_digest.truncate(16);
        assert!(bad.verify().unwrap_err().contains("32 lowercase hex"));

        // Absurd metadata: rejected.
        let mut bad = entry.clone();
        bad.cold_compile_s = f64::NAN;
        assert!(bad.verify().unwrap_err().contains("finite"));
    }

    #[test]
    fn predicate_ownership_matches_the_ring_rule() {
        // One member point at a third of the ring, one other point at
        // two thirds: the other's arc is (1/3, 2/3] — a third of the
        // ring — so 512 folded digests land on both sides.
        let (member, other) = (u64::MAX / 3, 2 * (u64::MAX / 3));
        let predicate = OwnedPredicate {
            member_points: vec![member],
            other_points: vec![other],
        };
        // Scan digests and cross-check against the clockwise-distance
        // rule written out longhand.
        let (mut saw_owned, mut saw_other) = (false, false);
        for i in 0..512u128 {
            let digest = fnv1a_128(&i.to_le_bytes());
            let p = fold(digest);
            let mine = member.wrapping_sub(p);
            let theirs = other.wrapping_sub(p);
            assert_eq!(predicate.owns(digest), mine < theirs, "digest {i}");
            if predicate.owns(digest) {
                saw_owned = true;
            } else {
                saw_other = true;
            }
        }
        assert!(saw_owned && saw_other, "the scan must exercise both sides");
        // Degenerate shapes.
        let nobody = OwnedPredicate {
            member_points: vec![],
            other_points: vec![1, 2, 3],
        };
        assert!(!nobody.owns(42));
        let sole = OwnedPredicate {
            member_points: vec![7],
            other_points: vec![],
        };
        assert!(sole.owns(42), "a sole member owns the whole ring");
    }

    #[test]
    fn chunking_respects_the_budget_and_never_strands_entries() {
        let entries: Vec<WarmupEntry> = (4..10).map(entry_for).collect();
        let one_size = serde_json::to_string(&entries[0]).unwrap().len();

        // A generous budget: one chunk.
        let chunks = chunk_entries(entries.clone(), one_size * 100);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 6);

        // A budget of ~two entries forces multiple chunks, none empty
        // except never, and the concatenation preserves order.
        let chunks = chunk_entries(entries.clone(), one_size * 2);
        assert!(chunks.len() >= 2, "got {} chunks", chunks.len());
        let flat: Vec<String> = chunks
            .iter()
            .flatten()
            .map(|e| e.key_json.clone())
            .collect();
        let want: Vec<String> = entries.iter().map(|e| e.key_json.clone()).collect();
        assert_eq!(flat, want);

        // A budget smaller than any entry: every entry travels alone.
        let chunks = chunk_entries(entries.clone(), 1);
        assert_eq!(chunks.len(), 6);

        // No entries: exactly one empty chunk (the done marker rides it).
        let chunks = chunk_entries(Vec::new(), one_size);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].is_empty());
    }
}
