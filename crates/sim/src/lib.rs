//! # qft-sim — simulation and verification
//!
//! The paper verifies its compiler outputs with an open-source simulator;
//! this crate is that component:
//!
//! * [`complex`] / [`state`] — complex amplitudes and the normalized
//!   [`StateVector`] every engine reads and writes;
//! * [`batch`] — the fast dense engine for the QFT gate set: a
//!   structure-of-arrays batch of states (one state is a batch of one)
//!   driven by one decoded gate stream, with branch-free stride-pair
//!   kernels (H/X/CNOT), diagonal fast paths (RZ/CPHASE), lazy O(1) SWAPs
//!   resolved by a table-driven gather at readout, diagonal-run and
//!   radix-4 fusion, and row-chunk thread parallelism above a size
//!   threshold;
//! * [`naive`] — the retained scan-everything kernels, kept as the
//!   differential oracle the batch engine is property-tested (and
//!   benchmarked — `BENCH_sim.json` enforces a ≥ 5× aggregate speedup)
//!   against;
//! * [`mod@reference`] — the exact DFT and the textbook-circuit ↔ DFT relation
//!   (bit-reversed outputs), pinning down gate conventions;
//! * [`sparse`] — the hash-map amplitude engine for n = 24–63: sparse
//!   states keyed by basis index, plus the projected matrix-element
//!   evaluator that keeps QFT equivalence probes at polynomial density;
//! * [`equiv`] — unitary equivalence for mapped circuits, one checker per
//!   tier (the dense [`ReferenceChecker`], batched over the probe states,
//!   logically or by full physical-op-stream replay; the sparse
//!   `SparseChecker`), plus the engine-selection layer that routes each
//!   job to a tier by qubit count and estimated peak density;
//! * [`error`] — the engine capacity caps and the descriptive
//!   [`SimError`] the tiers refuse oversized jobs with;
//! * [`symbolic`] — the scalable verifier (adjacency, SWAP-replay layout
//!   consistency, QFT interaction semantics) that works at thousands of
//!   qubits.

#![warn(missing_docs)]

pub mod batch;
pub mod complex;
pub mod equiv;
pub mod error;
pub mod naive;
pub mod reference;
pub mod sparse;
pub mod state;
pub mod symbolic;

pub use batch::StateBatch;
pub use complex::Complex64;
pub use equiv::{mapped_equals_aqft, mapped_equals_qft, probe_states, ReferenceChecker};
pub use error::{SimError, DENSE_QUBIT_CAP, SPARSE_DENSITY_CAP};
pub use naive::NaiveStateVector;
pub use reference::{bit_reverse, dft, qft_circuit_reference};
pub use sparse::{SparseProbe, SparseRun, SparseState};
pub use state::{phase_angle, StateVector};
pub use symbolic::{verify_qft_mapping, VerifyError, VerifyReport};
