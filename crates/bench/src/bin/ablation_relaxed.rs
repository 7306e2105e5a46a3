//! Ablations of three design choices the paper leaves to the implementer:
//!
//! 1. relaxed vs strict inter-unit ordering on lattice surgery (§3.3's
//!    "2× speedup in QFT-IE") — via `CompileOptions::ie_mode`;
//! 2. SABRE fed the strict (Type I+II) vs relaxed (Type II only) QFT DAG —
//!    via `CompileOptions::dag_mode`;
//! 3. heavy-hex dangler density: the 4+1 special case (5N) vs sparser
//!    danglers (toward the 6N general bound) — via `Target::heavy_hex`.

use qft_arch::heavyhex::HeavyHex;
use qft_bench::{print_table, write_json, Row};
use qft_core::IeMode;
use qft_ir::dag::DagMode;
use qft_kernels::{registry, CompileOptions, Target};

fn main() {
    let verified = CompileOptions::verified();
    let mut rows = Vec::new();

    println!("## Ablation 1: relaxed vs strict QFT-IE (lattice surgery)");
    for m in [8usize, 12, 16] {
        let t = Target::lattice_surgery(m).unwrap();
        for (mode, name) in [
            (IeMode::Relaxed, "ie-relaxed"),
            (IeMode::Strict, "ie-strict"),
        ] {
            let opts = CompileOptions {
                ie_mode: mode,
                ..verified.clone()
            };
            let r = registry()
                .compile("lattice", &t, &opts)
                .expect("must verify");
            let mut row = Row::from_result(&r);
            row.compiler = name.into();
            rows.push(row);
        }
        let d_rel = rows[rows.len() - 2].depth as f64;
        let d_str = rows[rows.len() - 1].depth as f64;
        println!("m={m}: strict/relaxed depth ratio = {:.2}", d_str / d_rel);
    }

    println!("\n## Ablation 2: SABRE with strict vs relaxed QFT DAG (heavy-hex)");
    for g in [4usize, 8, 12] {
        let t = Target::heavy_hex_groups(g).unwrap();
        for (mode, name) in [
            (DagMode::Strict, "sabre-strict"),
            (DagMode::Relaxed, "sabre-relaxed"),
        ] {
            let opts = CompileOptions {
                dag_mode: mode,
                ..verified.clone()
            };
            let r = registry().compile("sabre", &t, &opts).expect("must verify");
            let mut row = Row::from_result(&r);
            row.compiler = name.into();
            rows.push(row);
        }
        let r = registry()
            .compile("heavyhex", &t, &verified)
            .expect("must verify");
        let mut row = Row::from_result(&r);
        row.compiler = "ours".into();
        rows.push(row);
    }

    println!("\n## Ablation 3: heavy-hex dangler density (two-qubit depth / N)");
    for (name, hh) in [
        ("dense-4+1", HeavyHex::groups(8)),
        ("sparse-8+1", {
            let positions: Vec<usize> = (0..4).map(|k| 8 * k + 7).collect();
            HeavyHex::with_danglers(32, &positions)
        }),
        ("no-danglers", HeavyHex::with_danglers(40, &[])),
    ] {
        let t = Target::heavy_hex(hh);
        let n = t.n_qubits();
        let r = registry()
            .compile("heavyhex", &t, &verified)
            .expect("must verify");
        let d = r.circuit.two_qubit_depth();
        println!(
            "{name}: N={n}, depth={d}, depth/N = {:.2}",
            d as f64 / n as f64
        );
        let mut row = Row::from_result(&r);
        (row.arch, row.compiler, row.depth) = (name.into(), "ours".into(), d);
        row.note = format!("depth/N = {:.2}", d as f64 / n as f64);
        rows.push(row);
    }

    println!("\n## Ablation 5: Appendix-1 simplification — SABRE gets the FULL heavy-hex lattice");
    {
        // Does deleting links (Appendix 1) hand our compiler an unfair
        // simpler graph? Give SABRE the full lattice (more routing options)
        // and compare against ours on the simplified graph.
        use qft_arch::heavyhex::HeavyHexLattice;
        let lat = HeavyHexLattice::new(3, 9);
        let (hh, deleted) = lat.simplify();
        let t = Target::heavy_hex(hh);
        let n = t.n_qubits();
        let ours = registry()
            .compile("heavyhex", &t, &verified)
            .expect("must verify");
        let mut row = Row::from_result(&ours);
        row.compiler = "ours".into();
        rows.push(row);
        let full = Target::custom(lat.graph().clone()).expect("full lattice target");
        let sabre = registry()
            .compile("sabre", &full, &verified)
            .expect("must verify");
        let mut row = Row::from_result(&sabre);
        row.compiler = "sabre-full".into();
        rows.push(row);
        println!(
            "N={n}: ours (simplified, {deleted} links deleted) depth={} swaps={} | \
             SABRE (full lattice) depth={} swaps={}",
            ours.metrics.depth, ours.metrics.swaps, sabre.metrics.depth, sabre.metrics.swaps
        );
    }

    println!("\n## Ablation 4: 2xN pattern — path-based vs time-optimal interleaved");
    for cols in [8usize, 16, 24] {
        let n = 2 * cols;
        let snake = qft_core::compile_two_row(cols);
        let inter = qft_core::compile_two_row_interleaved(cols);
        println!(
            "n={n}: snake 2q-depth = {} (4n-6 = {}), interleaved = {} (3n-5 = {})",
            snake.two_qubit_depth(),
            4 * n - 6,
            inter.two_qubit_depth(),
            3 * n - 5
        );
        rows.push(Row {
            arch: format!("grid-2x{cols}"),
            compiler: "2xN-interleaved".into(),
            n,
            depth: inter.two_qubit_depth(),
            swaps: inter.swap_count(),
            compile_s: 0.0,
            pass_s: 0.0,
            note: format!("vs snake {}", snake.two_qubit_depth()),
        });
    }

    print_table("Ablation summary", &rows);
    write_json("ablation_relaxed", &rows);
}
