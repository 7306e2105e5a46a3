//! Quantum phase estimation (QPE) on IBM heavy-hex — one of the QFT-kernel
//! applications the paper's introduction motivates (Fig. 1).
//!
//! We estimate the eigenphase `φ = j / 2^n` of a diagonal unitary using an
//! `n`-qubit counting register:
//!
//! 1. phase kick-back prepares `Σ_k e^{2πiφk} |k⟩ / √M` — exactly
//!    `DFT|j⟩`;
//! 2. the *inverse* QFT maps it back to a computational basis state.
//!
//! The inverse QFT is obtained by running our hardware-compiled heavy-hex
//! kernel backwards (every gate inverted). Because the forward circuit
//! equals `DFT ∘ bit-reverse`, the measurement outcome is the bit-reversed
//! counting value — the standard QPE read-out convention.
//!
//! ```sh
//! cargo run --release --example qpe_heavyhex
//! ```

use qft_kernels::sim::complex::Complex64;
use qft_kernels::sim::{StateBatch, StateVector};
use qft_kernels::{registry, CompileOptions, Target};
use std::f64::consts::PI;

fn main() {
    // 2 heavy-hex groups = 10 counting qubits => 1024 phase bins.
    let t = Target::heavy_hex_groups(2).unwrap();
    let n = t.n_qubits();
    let opts = CompileOptions::verified();
    let r = registry()
        .compile("heavyhex", &t, &opts)
        .expect("kernel must verify");
    let mc = r.circuit;
    println!(
        "compiled inverse-QFT kernel on {}: depth {} / {} SWAPs",
        r.target, r.metrics.depth, r.metrics.swaps
    );

    let m = 1usize << n;
    for true_j in [1usize, 137, 512, 1000] {
        let phi = true_j as f64 / m as f64;

        // Step 1: phase kick-back. Counting qubit q accumulates
        // e^{2πi φ 2^q} on its |1> component; the register state becomes
        // Σ_k e^{2πi φ k} |k⟩ / sqrt(M) = DFT|j⟩.
        let mut state = StateBatch::from_states(&[uniform_with_phase_kicks(n, phi)]);

        // Step 2: inverse QFT = the compiled kernel run backwards.
        let gates: Vec<_> = mc.logical_interactions().collect();
        for g in gates.iter().rev() {
            state.apply_gate_inverse(g);
        }

        // Read-out: C = DFT ∘ R, so C⁻¹ · DFT|j⟩ = R|j⟩ = |bitrev(j)⟩.
        let (best, prob) = state.to_states()[0]
            .amplitudes()
            .iter()
            .enumerate()
            .map(|(b, a)| (b, a.abs2()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap();
        let estimate = bitrev(best, n);
        println!(
            "true phase {true_j:>4}/{m}  ->  estimated {estimate:>4}/{m}  (peak prob {prob:.4})"
        );
        assert_eq!(estimate, true_j, "QPE must recover the exact dyadic phase");
        assert!(prob > 0.99);
    }
    println!("QPE recovered every dyadic eigenphase exactly.");
}

/// `H^{⊗n}` followed by the controlled-U^{2^q} phase kicks, computed
/// directly on the amplitudes (the eigenstate qubit factors out): the
/// uniform superposition, with `|k⟩` carrying `e^{2πi φ k}`.
fn uniform_with_phase_kicks(n: usize, phi: f64) -> StateVector {
    let m = 1usize << n;
    let amps = (0..m)
        .map(|k| Complex64::from_angle(2.0 * PI * phi * k as f64).scale(1.0 / (m as f64).sqrt()))
        .collect();
    StateVector::from_amplitudes(n, amps)
}

fn bitrev(x: usize, n: usize) -> usize {
    let mut out = 0;
    for q in 0..n {
        if x & (1 << q) != 0 {
            out |= 1 << (n - 1 - q);
        }
    }
    out
}
