//! Complexity claims (§4, §5, §6, Appendices 2–3): measured depth against
//! the paper's closed forms —
//!
//! * LNN:            4N − 6 two-qubit cycles (exact);
//! * heavy-hex 4+1:  5N + O(1);
//! * heavy-hex any:  ≤ 6N + O(1);
//! * Sycamore:       7N + O(√N);
//! * lattice:        c·N (ours is row-granular; the paper's fused variant
//!   reaches c = 5 — see the `qft_core::lattice` module docs).

use qft_bench::{print_table, write_json, Row};
use qft_kernels::{registry, CompileOptions, Target};

fn main() {
    let opts = CompileOptions::default();
    let mut rows = Vec::new();

    println!("## LNN: two-qubit depth vs 4N-6");
    for n in [8usize, 32, 128, 512] {
        let t = Target::lnn(n).unwrap();
        let r = registry().compile("lnn", &t, &opts).unwrap();
        let d = r.circuit.two_qubit_depth();
        println!("N={n:>5}: depth={d:>6}  4N-6={}", 4 * n - 6);
        assert_eq!(d, (4 * n - 6) as u64);
        let mut row = Row::from_result(&r);
        (row.compiler, row.depth) = ("ours".into(), d);
        row.note = format!("formula 4N-6 = {}", 4 * n - 6);
        rows.push(row);
    }

    println!("\n## Heavy-hex (4+1 groups): two-qubit depth vs 5N");
    for g in [4usize, 10, 20, 40] {
        let t = Target::heavy_hex_groups(g).unwrap();
        let n = t.n_qubits();
        let r = registry().compile("heavyhex", &t, &opts).unwrap();
        let d = r.circuit.two_qubit_depth();
        println!(
            "N={n:>5}: depth={d:>6}  5N={}  ratio={:.3}",
            5 * n,
            d as f64 / n as f64
        );
        let mut row = Row::from_result(&r);
        (row.compiler, row.depth) = ("ours".into(), d);
        row.note = format!("5N = {}", 5 * n);
        rows.push(row);
    }

    println!("\n## Sycamore: depth vs 7N + O(sqrt N)");
    for m in [4usize, 8, 12, 16] {
        let t = Target::sycamore(m).unwrap();
        let n = t.n_qubits();
        let r = registry().compile("sycamore", &t, &opts).unwrap();
        let d = r.metrics.depth;
        println!(
            "N={n:>5}: depth={d:>6}  7N={}  ratio={:.3}",
            7 * n,
            d as f64 / n as f64
        );
        let mut row = Row::from_result(&r);
        row.compiler = "ours".into();
        row.note = format!("7N = {}", 7 * n);
        rows.push(row);
    }

    println!("\n## Lattice surgery: weighted depth / N (linearity)");
    for m in [8usize, 12, 16, 24] {
        let t = Target::lattice_surgery(m).unwrap();
        let n = t.n_qubits();
        let r = registry().compile("lattice", &t, &opts).unwrap();
        let d = r.metrics.depth;
        println!("N={n:>5}: depth={d:>7}  depth/N={:.2}", d as f64 / n as f64);
        let mut row = Row::from_result(&r);
        row.compiler = "ours".into();
        row.note = format!("depth/N = {:.2}", d as f64 / n as f64);
        rows.push(row);
    }

    print_table("Complexity summary", &rows);
    write_json("complexity", &rows);
}
