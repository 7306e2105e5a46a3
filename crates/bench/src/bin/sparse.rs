//! Sparse-tier benchmark: the large-n cross-compiler equivalence matrix
//! (n = 24–36) that no dense plane could attempt, with per-cell wall
//! times and the measured peak amplitude-map occupancy.
//!
//! Every cell compiles one (compiler × target × degree) kernel, prepares
//! a [`qft_sim::equiv::SparseChecker`] from the closed-form AQFT matrix
//! elements (no `2^n` reference state), and verifies the kernel twice —
//! the logical interaction stream and the full physical op-stream replay
//! (SWAP routing, fused interactions, spare qubits). The committed
//! `BENCH_sparse.json` records wall times and the peak nonzeros per cell;
//! the binary exits non-zero if any equivalence check fails **or** if any
//! cell's peak occupancy exceeds the library's documented [`PEAK_BOUND`]
//! — the sparsity invariant (2 × the largest probe ket) that makes the
//! tier O(gates · |ket|) instead of O(gates · 2^n). `--fast` shrinks the
//! probe count (used by CI).

use qft_kernels::sim::equiv::SparseChecker;
use qft_kernels::sim::sparse::PEAK_BOUND;
use qft_kernels::{registry, CompileOptions, Target};
use serde::Serialize;
use std::time::Instant;

/// One (compiler × target × degree) cell of the matrix.
#[derive(Debug, Serialize)]
struct Cell {
    compiler: String,
    target: String,
    n: usize,
    degree: u32,
    /// Probe matrix elements per check (3 canonical + random pairs).
    probes: usize,
    compile_s: f64,
    /// Wall time of the logical interaction-stream check.
    logical_s: f64,
    /// Wall time of the full physical op-stream replay check.
    physical_s: f64,
    /// Peak amplitude-map occupancy across every probe run of the cell.
    peak_nonzeros: usize,
    /// Both checks returned equivalent.
    ok: bool,
}

/// The whole committed report.
#[derive(Debug, Serialize)]
struct Report {
    peak_bound: usize,
    total_check_s: f64,
    cells: Vec<Cell>,
}

/// The matrix: LNN-family compilers (including the deadline-bounded exact
/// search) at n ∈ {24, 28, 32}; the other device families at their
/// nearest feasible sizes (sycamore tiles even square grids, heavy-hex
/// grows in 5-qubit groups, lattice surgery tiles squares).
fn matrix() -> Vec<(&'static str, Target)> {
    let mut cells: Vec<(&'static str, Target)> = Vec::new();
    for n in [24, 28, 32] {
        cells.push(("lnn", Target::lnn(n).unwrap()));
        cells.push(("sabre", Target::lnn(n).unwrap()));
        cells.push(("lnn-path", Target::lnn(n).unwrap()));
        cells.push(("optimal", Target::lnn(n).unwrap()));
    }
    cells.push(("sycamore", Target::sycamore(6).unwrap())); // 36 qubits
    cells.push(("heavyhex", Target::heavy_hex_groups(5).unwrap())); // 25
    cells.push(("heavyhex", Target::heavy_hex_groups(6).unwrap())); // 30
    cells.push(("lattice", Target::lattice_surgery(5).unwrap())); // 25
    cells.push(("sabre", Target::heavy_hex_groups(5).unwrap()));
    cells.push(("sabre", Target::lattice_surgery(5).unwrap()));
    cells
}

/// Degrees per cell: the paper's shallow truncations plus the exact QFT.
/// `optimal` runs at degree 2 only — the degree-2 AQFT needs zero SWAPs
/// on a line, so the A* search closes instantly at any n, while deeper
/// degrees at n = 24+ would exhaust its node budget.
fn degrees(compiler: &str, n: usize) -> Vec<u32> {
    if compiler == "optimal" {
        vec![2]
    } else {
        vec![2, 3, n as u32]
    }
}

fn main() {
    let fast_mode = qft_bench::has_flag("--fast");
    let n_random = if fast_mode { 2 } else { 4 };

    let mut cells: Vec<Cell> = Vec::new();
    println!(
        "{:<10} {:<20} {:>3} {:>6} {:>11} {:>11} {:>11} {:>6}  ok",
        "compiler", "target", "N", "degree", "compile(ms)", "logical(ms)", "physical(ms)", "peak"
    );
    for (compiler, target) in matrix() {
        let n = target.n_qubits();
        for degree in degrees(compiler, n) {
            let t0 = Instant::now();
            let r = registry()
                .compile(
                    compiler,
                    &target,
                    &CompileOptions::default().with_approximation(degree),
                )
                .unwrap_or_else(|e| panic!("{compiler} on {}: {e}", target.name()));
            let compile_s = t0.elapsed().as_secs_f64();

            let mut checker = SparseChecker::for_aqft(n, degree, n_random)
                .unwrap_or_else(|e| panic!("{compiler} on {}: {e}", target.name()));
            let t1 = Instant::now();
            let logical_ok = checker
                .matches_logical(&r.circuit)
                .unwrap_or_else(|e| panic!("{compiler} on {}: {e}", target.name()));
            let logical_s = t1.elapsed().as_secs_f64();
            let t2 = Instant::now();
            let physical_ok = checker
                .matches_physically(&r.circuit)
                .unwrap_or_else(|e| panic!("{compiler} on {}: {e}", target.name()));
            let physical_s = t2.elapsed().as_secs_f64();

            let cell = Cell {
                compiler: compiler.to_string(),
                target: target.name().to_string(),
                n,
                degree,
                probes: checker.probes().len(),
                compile_s,
                logical_s,
                physical_s,
                peak_nonzeros: checker.peak_nonzeros(),
                ok: logical_ok && physical_ok,
            };
            println!(
                "{:<10} {:<20} {:>3} {:>6} {:>11.3} {:>11.3} {:>11.3} {:>6}  {}",
                cell.compiler,
                cell.target,
                cell.n,
                cell.degree,
                cell.compile_s * 1e3,
                cell.logical_s * 1e3,
                cell.physical_s * 1e3,
                cell.peak_nonzeros,
                if cell.ok { "yes" } else { "NO" }
            );
            cells.push(cell);
        }
    }

    let total_check_s: f64 = cells.iter().map(|c| c.logical_s + c.physical_s).sum();
    let all_ok = cells.iter().all(|c| c.ok);
    let peak_ok = cells.iter().all(|c| c.peak_nonzeros <= PEAK_BOUND);
    let worst_peak = cells.iter().map(|c| c.peak_nonzeros).max().unwrap_or(0);
    let report = Report {
        peak_bound: PEAK_BOUND,
        total_check_s,
        cells,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_sparse.json", &json).expect("write BENCH_sparse.json");
    println!(
        "\n[wrote BENCH_sparse.json: {} cells, total check {:.1}ms, peak nonzeros {worst_peak} \
         (bound {PEAK_BOUND})]",
        report.cells.len(),
        total_check_s * 1e3
    );
    if !all_ok {
        eprintln!("sparse equivalence check FAILED on at least one cell");
        std::process::exit(1);
    }
    if !peak_ok {
        eprintln!("peak nonzeros {worst_peak} exceeded the documented bound {PEAK_BOUND}");
        std::process::exit(1);
    }
}
