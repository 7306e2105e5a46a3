//! Simulation errors and the engine capacity limits.
//!
//! Before this module existed, every engine guarded its `2^n` allocation
//! with a hard-coded `assert!(n <= 26)` — a panic with no routing story.
//! The limits are now named constants, reported as descriptive
//! [`SimError`] values by the `try_*` constructors and the
//! `qft_sim::equiv` engine-selection layer, so a caller that outgrows the
//! dense planes is told *which* tier refused the job and why instead of
//! OOMing on a `2^n` vector.

use std::fmt;

/// Hard ceiling of the sparse engine: basis indices are packed into a
/// `u64` key (one bit per qubit, one bit of headroom for masks).
pub const SPARSE_MAX_QUBITS: usize = 63;

/// The dense-engine qubit cap (`2^26` amplitudes ≈ 1 GiB per state).
/// [`crate::StateVector`], [`crate::StateBatch`] and the `naive` oracle
/// refuse registers above this size with a descriptive
/// [`SimError::RegisterTooLarge`] instead of attempting the `2^n`
/// allocation.
pub const DENSE_QUBIT_CAP: usize = 26;

/// The sparse-engine density cap: the evaluators stop with
/// [`SimError::DensityExceeded`] once the amplitude map holds more than
/// this many nonzeros (`2^20` entries ≈ 24 MiB of map payload); the
/// `equiv` router then falls back to a dense plane when the register is
/// small enough to afford one.
pub const SPARSE_DENSITY_CAP: usize = 1 << 20;

const _: () = assert!(DENSE_QUBIT_CAP < SPARSE_MAX_QUBITS);

/// Why a simulation job was refused (or abandoned mid-run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A dense engine was asked for more qubits than its cap:
    /// the `2^n` amplitude allocation would be refused rather than
    /// attempted.
    RegisterTooLarge {
        /// The engine that refused (`"state vector"`, `"state batch"`,
        /// `"physical replay"`, …).
        engine: &'static str,
        /// Requested register width.
        n: usize,
        /// The cap ([`DENSE_QUBIT_CAP`]).
        cap: usize,
    },
    /// The register is too wide even for the sparse engine's `u64` keys.
    SparseWidthExceeded {
        /// Requested register width.
        n: usize,
    },
    /// The sparse amplitude map crossed the density watchdog threshold
    /// mid-run (the circuit/probe combination is not sparse enough).
    DensityExceeded {
        /// Register width of the failed run.
        n: usize,
        /// Map occupancy when the watchdog tripped.
        nonzeros: usize,
        /// The cap ([`SPARSE_DENSITY_CAP`]).
        cap: usize,
    },
    /// No engine tier can take the job: too many qubits for the dense
    /// planes and an estimated peak density beyond the sparse cap.
    NoEngine {
        /// Logical register width.
        n: usize,
        /// The dense cap that ruled out the dense planes.
        dense_cap: usize,
        /// Estimated peak nonzeros of the sparse run (saturating).
        estimated_nonzeros: u64,
        /// The sparse density cap the estimate exceeds.
        density_cap: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RegisterTooLarge { engine, n, cap } => write!(
                f,
                "dense {engine} on {n} qubits exceeds the {cap}-qubit cap \
                 (2^{n} amplitudes; route the job to the sparse tier)"
            ),
            SimError::SparseWidthExceeded { n } => write!(
                f,
                "sparse engine keys are u64 basis indices: {n} qubits \
                 exceeds the {SPARSE_MAX_QUBITS}-qubit ceiling"
            ),
            SimError::DensityExceeded { n, nonzeros, cap } => write!(
                f,
                "sparse amplitude map on {n} qubits reached {nonzeros} \
                 nonzeros (cap {cap}): the state is not sparse enough for \
                 this tier (use a dense engine)"
            ),
            SimError::NoEngine {
                n,
                dense_cap,
                estimated_nonzeros,
                density_cap,
            } => write!(
                f,
                "no simulation tier can take this job: {n} qubits is over \
                 the {dense_cap}-qubit dense cap and the estimated sparse \
                 peak density ({estimated_nonzeros} nonzeros) is over the \
                 {density_cap}-entry map cap"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_descriptively() {
        let e = SimError::RegisterTooLarge {
            engine: "state vector",
            n: 30,
            cap: 26,
        };
        let msg = e.to_string();
        assert!(msg.contains("30 qubits"));
        assert!(msg.contains("26-qubit cap"));
        assert!(msg.contains("sparse tier"));
        let e = SimError::DensityExceeded {
            n: 30,
            nonzeros: SPARSE_DENSITY_CAP + 1,
            cap: SPARSE_DENSITY_CAP,
        };
        let msg = e.to_string();
        assert!(msg.contains("cap 1048576") && msg.contains("dense engine"));
        let e = SimError::NoEngine {
            n: 40,
            dense_cap: 26,
            estimated_nonzeros: u64::MAX,
            density_cap: 1 << 20,
        };
        assert!(e.to_string().contains("no simulation tier"));
    }
}
