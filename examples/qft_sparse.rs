//! Sparse-tier verification at n = 28: cross-check four compilers against
//! the closed-form AQFT matrix elements in milliseconds, on a register
//! where a dense state vector would need 2^28 amplitudes (4 GiB).
//!
//! The sparse checker never builds a reference state. It evaluates a
//! handful of matrix elements ⟨y|C|ψ⟩ with a hash-map state and a
//! projection schedule that post-selects each qubit right after its last
//! non-diagonal op, so the live amplitude map never exceeds 2 × the probe
//! ket size — independent of n. The `mapped_equals_aqft_auto` router picks
//! this tier automatically above the dense cutoff.
//!
//! ```sh
//! cargo run --release --example qft_sparse
//! ```

use qft_kernels::sim::equiv::{mapped_equals_aqft_auto, plan_tier, EngineTier, SparseChecker};
use qft_kernels::{registry, CompileOptions, Target};
use std::time::Instant;

fn main() {
    let n = 28;
    let degree = 3;
    let target = Target::lnn(n).unwrap();
    println!(
        "verifying degree-{degree} AQFT kernels on {} (n = {n}; dense plane would be 2^{n} amps)\n",
        target.name()
    );

    println!("compiler     #SWAP  compile(ms)  verify(ms)  peak-amps  equivalent");
    for compiler in ["lnn", "sabre", "lnn-path", "optimal"] {
        // The exact A* search only closes at this size for degree 2 (the
        // degree-2 AQFT needs zero SWAPs on a line); the heuristics take
        // the paper's degree-3 truncation.
        let d = if compiler == "optimal" { 2 } else { degree };
        let t0 = Instant::now();
        let r = registry()
            .compile(
                compiler,
                &target,
                &CompileOptions::default().with_approximation(d),
            )
            .expect("compile");
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

        // The router inspects size and content: at n = 28 every kernel
        // lands on the sparse tier.
        let tier = plan_tier(&r.circuit).expect("a tier must exist");
        assert_eq!(tier, EngineTier::Sparse);

        let mut checker = SparseChecker::for_aqft(n, d, 4).expect("checker");
        let t1 = Instant::now();
        let ok = checker.matches_physically(&r.circuit).expect("run")
            && checker.matches_logical(&r.circuit).expect("run");
        let verify_ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<12} {:>5} {:>12.2} {:>11.2} {:>10} {:>11}",
            compiler,
            r.metrics.swaps,
            compile_ms,
            verify_ms,
            checker.peak_nonzeros(),
            if ok { "yes" } else { "NO" }
        );
        assert!(ok, "{compiler} diverged from the closed-form AQFT");

        // The one-call router does the same thing end to end.
        assert!(mapped_equals_aqft_auto(&r.circuit, d, 2).expect("auto"));
    }

    // The checker is a real discriminator, not a rubber stamp: a degree-3
    // kernel must NOT pass as the exact QFT.
    let r = registry()
        .compile(
            "lnn",
            &target,
            &CompileOptions::default().with_approximation(degree),
        )
        .unwrap();
    assert!(!mapped_equals_aqft_auto(&r.circuit, n as u32, 2).expect("auto"));
    println!(
        "\ndegree-{degree} kernel correctly rejected as exact QFT; all checks in milliseconds"
    );
}
