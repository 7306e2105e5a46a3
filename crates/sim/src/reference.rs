//! Ground-truth references: the discrete Fourier transform applied to a
//! state vector, and the relation between the textbook QFT circuit and the
//! DFT (the circuit computes the DFT with *bit-reversed* output qubits).

use crate::complex::Complex64;
use crate::state::StateVector;
use std::f64::consts::PI;

/// Applies the exact DFT to the amplitude vector:
/// `out[k] = (1/√M) Σ_x in[x]·e^{2πi·xk/M}` with `M = 2^n`.
///
/// O(4^n) — fine for the ≤ ~12-qubit cross-checks this crate performs.
pub fn dft(state: &StateVector) -> StateVector {
    let n = state.n_qubits();
    let m = 1usize << n;
    let scale = 1.0 / (m as f64).sqrt();
    let amps = state.amplitudes();
    let mut out = vec![Complex64::ZERO; m];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (x, &a) in amps.iter().enumerate() {
            // e^{2 pi i x k / M}; reduce the exponent mod M to keep the
            // angle small and exact.
            let e = (x * k) % m;
            acc += a * Complex64::from_angle(2.0 * PI * e as f64 / m as f64);
        }
        *o = acc.scale(scale);
    }
    StateVector::from_amplitudes(n, out)
}

/// The bit-reversal qubit permutation `q ↦ n-1-q` applied to a state:
/// amplitude `b` moves to the index with `b`'s `n` bits reversed (an
/// involution, so the gather and the scatter coincide).
pub fn bit_reverse(state: &StateVector) -> StateVector {
    let n = state.n_qubits();
    let amps = state.amplitudes();
    // A 0-qubit state has the single index 0 (and a full-width shift).
    let shift = usize::BITS - n as u32;
    let out = (0..amps.len())
        .map(|b| amps[b.reverse_bits().checked_shr(shift).unwrap_or(0)])
        .collect();
    StateVector::from_amplitudes(n, out)
}

/// The state the *textbook QFT circuit* (Fig. 2, no final swaps) produces
/// from `input`.
///
/// Our basis convention is little-endian (qubit `q` = bit `q`), while the
/// textbook circuit treats the first qubit it Hadamards (`q0`) as the *most
/// significant* digit. Under little-endian labels the circuit therefore
/// equals the DFT applied to the bit-reversed input register:
/// `C = DFT ∘ R` (verified by hand on 1- and 2-qubit cases and by the
/// property test below for n ≤ 6).
pub fn qft_circuit_reference(input: &StateVector) -> StateVector {
    dft(&bit_reverse(input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::StateBatch;
    use qft_ir::qft::qft_circuit;

    const EPS: f64 = 1e-9;

    #[test]
    fn dft_of_basis_zero_is_uniform() {
        let s = StateVector::basis(3, 0);
        let f = dft(&s);
        for a in f.amplitudes() {
            assert!((a.re - 1.0 / (8f64).sqrt()).abs() < EPS);
            assert!(a.im.abs() < EPS);
        }
    }

    #[test]
    fn bit_reverse_mirrors_basis_indices() {
        let s = bit_reverse(&StateVector::basis(4, 0b0011));
        assert_eq!(s.amplitudes()[0b1100], Complex64::ONE);
        assert_eq!(
            bit_reverse(&StateVector::zero(0)).amplitudes(),
            &[Complex64::ONE]
        );
    }

    #[test]
    fn dft_is_unitary_on_random_states() {
        let s = StateVector::random(4, 3);
        let f = dft(&s);
        assert!((f.norm2() - 1.0).abs() < EPS);
    }

    #[test]
    fn textbook_circuit_equals_dft_with_bit_reversal() {
        // This pins down our gate conventions: H-then-controlled-phases
        // produces the DFT up to the bit-reversal output permutation.
        // Runs to n = 10 so the circuit-based references the equivalence
        // harness uses at n = 7..14 stay anchored to the analytic DFT
        // well past the small-n regime.
        for n in 1..=10 {
            for seed in [1u64, 2, 3] {
                let input = StateVector::random(n, seed);
                let mut circuit_out = StateBatch::from_states(std::slice::from_ref(&input));
                circuit_out.apply_circuit(&qft_circuit(n));
                let expected = qft_circuit_reference(&input);
                let f = circuit_out.to_states()[0].fidelity(&expected);
                assert!((f - 1.0).abs() < EPS, "n={n} seed={seed} fidelity={f}");
            }
        }
    }

    #[test]
    fn dft_on_basis_one_has_linear_phases() {
        // DFT|1> amplitudes: (1/sqrt M) e^{2 pi i k / M}.
        let m = 8;
        let f = dft(&StateVector::basis(3, 1));
        for (k, a) in f.amplitudes().iter().enumerate() {
            let expect = Complex64::from_angle(2.0 * PI * k as f64 / m as f64)
                .scale(1.0 / (m as f64).sqrt());
            assert!((a.re - expect.re).abs() < EPS && (a.im - expect.im).abs() < EPS);
        }
    }
}
