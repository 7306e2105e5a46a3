//! AQFT truncation sweep: the approximation/depth trade-off of the paper's
//! kernels, per compiler, per degree.
//!
//! For every compiler on a representative target, compiles the
//! degree-`d` approximate QFT across a descending degree sweep (from the
//! exact kernel at `d = n` down to the Hadamard-only `d = 1`), prints the
//! depth/SWAP/dropped-rotation table, and writes `BENCH_aqft.json` in the
//! working directory (next to `BENCH_passes.json`).
//!
//! The analytical mappers' rows double as an executable acceptance check:
//! their depth must be monotonically non-increasing as the degree
//! decreases (truncation only ever removes work). A monotonicity
//! regression or any compile error is a named failed cell, and the binary
//! exits 1 after writing the report.
//!
//! `--fast` shrinks the targets (used by CI).

use qft_kernels::{registry, CompileOptions, CompileResult, Target};
use serde::Serialize;

/// One compiler × target × degree measurement.
#[derive(Debug, Serialize)]
struct Entry {
    compiler: String,
    target: String,
    n: usize,
    /// AQFT degree this row was compiled at (`n` = the exact QFT).
    degree: u32,
    depth: u64,
    two_qubit_depth: u64,
    swaps: usize,
    cphases: usize,
    total_ops: usize,
    /// Rotations the `aqft-truncate` pass dropped. 0 for `sabre` and
    /// `optimal`, which route a pre-truncated logical circuit; non-zero
    /// for the analytical mappers and `lnn-path`, which construct the
    /// full kernel and truncate post-mapping.
    dropped_rotations: usize,
    compile_s: f64,
    pass_s: f64,
}

impl Entry {
    fn from_result(r: &CompileResult, degree: u32) -> Entry {
        Entry {
            compiler: r.compiler.clone(),
            target: r.target.clone(),
            n: r.n,
            degree,
            depth: r.metrics.depth,
            two_qubit_depth: r.metrics.two_qubit_depth,
            swaps: r.metrics.swaps,
            cphases: r.metrics.cphases,
            total_ops: r.metrics.total_ops,
            dropped_rotations: r.passes.iter().map(|p| p.dropped_rotations).sum(),
            compile_s: r.compile_s,
            pass_s: r.pass_s(),
        }
    }
}

/// Descending degree sweep for an `n`-qubit kernel: the exact QFT (`n`),
/// then halvings down to the paper's shallow truncations 4, 3, 2, 1.
fn degree_sweep(n: usize) -> Vec<u32> {
    let mut degrees = vec![n as u32];
    let mut d = n as u32 / 2;
    while d > 4 {
        degrees.push(d);
        d /= 2;
    }
    for d in [4u32, 3, 2, 1] {
        if (d as usize) < n {
            degrees.push(d);
        }
    }
    degrees
}

fn main() {
    let fast = qft_bench::has_flag("--fast");
    // (compiler, target, depth must be monotone in the degree): the
    // analytical mappers are deterministic, so their sweep is an
    // acceptance check; the searches re-route per degree and only get
    // reported.
    let cases: Vec<(&str, Target, bool)> = if fast {
        vec![
            ("lnn", Target::lnn(16).unwrap(), true),
            ("sycamore", Target::sycamore(4).unwrap(), true),
            ("heavyhex", Target::heavy_hex_groups(3).unwrap(), true),
            ("lattice", Target::lattice_surgery(4).unwrap(), true),
            ("sabre", Target::lnn(16).unwrap(), false),
            ("optimal", Target::lnn(5).unwrap(), false),
            ("lnn-path", Target::lattice_surgery(4).unwrap(), false),
        ]
    } else {
        vec![
            ("lnn", Target::lnn(32).unwrap(), true),
            ("sycamore", Target::sycamore(6).unwrap(), true),
            ("heavyhex", Target::heavy_hex_groups(6).unwrap(), true),
            ("lattice", Target::lattice_surgery(6).unwrap(), true),
            ("sabre", Target::lnn(32).unwrap(), false),
            ("optimal", Target::lnn(5).unwrap(), false),
            ("lnn-path", Target::lattice_surgery(6).unwrap(), false),
        ]
    };

    let mut entries = Vec::new();
    let mut failures = Vec::new();
    println!(
        "{:<10} {:<18} {:>3} {:>6} {:>7} {:>8} {:>7} {:>9} {:>8}",
        "compiler", "target", "N", "degree", "depth", "2q-depth", "#SWAP", "#dropped", "CT(ms)"
    );
    for (compiler, target, monotone) in &cases {
        let mut prev_depth: Option<u64> = None;
        for degree in degree_sweep(target.n_qubits()) {
            let opts = CompileOptions::default().with_approximation(degree);
            let r = match registry().compile(compiler, target, &opts) {
                Ok(r) => r,
                Err(e) => {
                    let cell = format!("{compiler} on {} at degree {degree}", target.name());
                    eprintln!("COMPILE FAILED {cell}: {e}");
                    failures.push(format!("{cell}: {e}"));
                    continue;
                }
            };
            let e = Entry::from_result(&r, degree);
            println!(
                "{:<10} {:<18} {:>3} {:>6} {:>7} {:>8} {:>7} {:>9} {:>8.2}",
                e.compiler,
                e.target,
                e.n,
                e.degree,
                e.depth,
                e.two_qubit_depth,
                e.swaps,
                e.dropped_rotations,
                e.compile_s * 1e3
            );
            if *monotone {
                if let Some(prev) = prev_depth {
                    if e.depth > prev {
                        let cell = format!(
                            "{compiler} on {} at degree {degree}: depth rose {prev} -> {}",
                            target.name(),
                            e.depth
                        );
                        eprintln!("MONOTONICITY VIOLATION: {cell}");
                        failures.push(cell);
                    }
                }
                prev_depth = Some(e.depth);
            }
            entries.push(e);
        }
    }

    let json = serde_json::to_string_pretty(&entries).expect("serialize entries");
    std::fs::write("BENCH_aqft.json", &json).expect("write BENCH_aqft.json");
    println!("\n[wrote BENCH_aqft.json: {} entries]", entries.len());
    qft_bench::exit_on_failures(&failures);
}
