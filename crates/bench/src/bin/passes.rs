//! Per-pass timing/depth report across every registered compiler: the
//! perf trajectory of the pass pipeline.
//!
//! For each compiler on a representative target, compiles at `opt_level`
//! 1 (the byte-identical default tail) and 2 (aggressive: CPHASE+SWAP
//! fusion + ASAP re-layering), prints the per-pass breakdown, and writes
//! the whole thing to `BENCH_passes.json` in the working directory.
//! Every kernel is compiled under the symbolic verifier, so a kernel that
//! fails it — or any other compile error — is a named failed cell, and
//! the binary exits 1 after writing the report.
//!
//! `--fast` shrinks the targets (used by CI).

use qft_kernels::{registry, CompileOptions, CompileResult, PassReport, Target, VerifyLevel};
use serde::Serialize;

/// One compiler × target × opt_level measurement.
#[derive(Debug, Serialize)]
struct Entry {
    compiler: String,
    target: String,
    n: usize,
    opt_level: u8,
    depth: u64,
    two_qubit_depth: u64,
    swaps: usize,
    compile_s: f64,
    pass_s: f64,
    passes: Vec<PassReport>,
}

impl Entry {
    fn from_result(r: &CompileResult, opt_level: u8) -> Entry {
        Entry {
            compiler: r.compiler.clone(),
            target: r.target.clone(),
            n: r.n,
            opt_level,
            depth: r.metrics.depth,
            two_qubit_depth: r.metrics.two_qubit_depth,
            swaps: r.metrics.swaps,
            compile_s: r.compile_s,
            pass_s: r.pass_s(),
            passes: r.passes.clone(),
        }
    }
}

fn main() {
    let fast = qft_bench::has_flag("--fast");
    let cases: Vec<(&str, Target)> = if fast {
        vec![
            ("lnn", Target::lnn(16).unwrap()),
            ("sycamore", Target::sycamore(4).unwrap()),
            ("heavyhex", Target::heavy_hex_groups(3).unwrap()),
            ("lattice", Target::lattice_surgery(4).unwrap()),
            ("sabre", Target::sycamore(4).unwrap()),
            ("optimal", Target::lnn(4).unwrap()),
            ("lnn-path", Target::lattice_surgery(4).unwrap()),
        ]
    } else {
        vec![
            ("lnn", Target::lnn(64).unwrap()),
            ("sycamore", Target::sycamore(6).unwrap()),
            ("heavyhex", Target::heavy_hex_groups(6).unwrap()),
            ("lattice", Target::lattice_surgery(10).unwrap()),
            ("sabre", Target::sycamore(6).unwrap()),
            ("optimal", Target::lnn(5).unwrap()),
            ("lnn-path", Target::lattice_surgery(10).unwrap()),
        ]
    };

    let mut entries = Vec::new();
    let mut failures = Vec::new();
    println!(
        "{:<10} {:<18} {:>3} {:>4} {:>7} {:>7} {:>9}  per-pass (rewrites, ms)",
        "compiler", "target", "N", "opt", "depth", "#SWAP", "pass(ms)"
    );
    for (compiler, target) in &cases {
        for opt_level in [1u8, 2] {
            // Verify every optimized kernel: the pass tail must preserve
            // the QFT contract at every level.
            let opts = CompileOptions::default()
                .with_opt_level(opt_level)
                .with_verify(VerifyLevel::Symbolic);
            let r = match registry().compile(compiler, target, &opts) {
                Ok(r) => r,
                Err(e) => {
                    let cell = format!("{compiler} on {} at opt_level {opt_level}", target.name());
                    eprintln!("COMPILE FAILED {cell}: {e}");
                    failures.push(format!("{cell}: {e}"));
                    continue;
                }
            };
            let breakdown: Vec<String> = r
                .passes
                .iter()
                .map(|p| format!("{}({}, {:.3})", p.pass, p.rewrites, p.wall_s * 1e3))
                .collect();
            println!(
                "{:<10} {:<18} {:>3} {:>4} {:>7} {:>7} {:>9.3}  {}",
                r.compiler,
                r.target,
                r.n,
                opt_level,
                r.metrics.depth,
                r.metrics.swaps,
                r.pass_s() * 1e3,
                breakdown.join(" ")
            );
            entries.push(Entry::from_result(&r, opt_level));
        }
    }

    let json = serde_json::to_string_pretty(&entries).expect("serialize entries");
    std::fs::write("BENCH_passes.json", &json).expect("write BENCH_passes.json");
    println!("\n[wrote BENCH_passes.json: {} entries]", entries.len());
    qft_bench::exit_on_failures(&failures);
}
