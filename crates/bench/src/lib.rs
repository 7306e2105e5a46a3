//! # qft-bench — the experiment harness
//!
//! One binary per table, figure or complexity claim of the paper:
//! `table1`, `fig17`, `fig18`, `fig19`, `fig27`, `complexity`,
//! `ablation_relaxed`, `synth_patterns`. Each prints the paper's
//! rows/series and writes machine-readable JSON under
//! `target/experiments/`. Five health binaries ride along, each writing
//! a committed report in the working directory: `passes` (per-pass
//! timing, `BENCH_passes.json`), `aqft` (the AQFT degree sweep,
//! `BENCH_aqft.json`), `sim` (the fast simulation engine against the
//! naive oracle, `BENCH_sim.json`), `sparse` (the large-n sparse tier,
//! `BENCH_sparse.json`) and `stack` (the serving stack in-process, over
//! one socket and through the router, `BENCH_stack.json`).
//!
//! Every binary drives compilers through the pipeline API: targets are
//! validated [`qft_core::Target`]s, compilers are resolved by name from
//! [`qft_kernels::registry`], and rows are built from
//! [`CompileResult`]s via [`Row::from_result`].

#![warn(missing_docs)]

use qft_core::{CompileError, CompileResult};
use serde::Serialize;
use std::time::Instant;

/// One measured configuration: the columns the paper reports.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Architecture name (e.g. `sycamore-6x6`).
    pub arch: String,
    /// Compiler name (`lnn`, `sycamore`, `heavyhex`, `lattice`, `sabre`,
    /// `optimal`, `lnn-path`).
    pub compiler: String,
    /// Number of logical qubits.
    pub n: usize,
    /// Depth in cycles (weighted by link latencies where heterogeneous).
    pub depth: u64,
    /// Inserted SWAP count.
    pub swaps: usize,
    /// Compile time in seconds.
    pub compile_s: f64,
    /// Seconds of `compile_s` spent in the pass tail.
    pub pass_s: f64,
    /// Notes (e.g. `TLE`).
    pub note: String,
}

impl Row {
    /// Builds a row from a pipeline [`CompileResult`].
    pub fn from_result(r: &CompileResult) -> Row {
        Row {
            arch: r.target.clone(),
            compiler: r.compiler.clone(),
            n: r.n,
            depth: r.metrics.depth,
            swaps: r.metrics.swaps,
            compile_s: r.compile_s,
            pass_s: r.pass_s(),
            note: r.note.clone(),
        }
    }

    /// A row for a failed compile: timeouts become the paper's "TLE" rows
    /// (recording the wall-clock actually spent, as the seed harness did),
    /// everything else records the error message as the note.
    pub fn from_error(arch: &str, compiler: &str, n: usize, err: &CompileError) -> Row {
        match *err {
            CompileError::Timeout { elapsed_s, .. } => Row::tle(arch, compiler, n, elapsed_s),
            ref other => Row {
                arch: arch.to_string(),
                compiler: compiler.to_string(),
                n,
                depth: 0,
                swaps: 0,
                compile_s: 0.0,
                pass_s: 0.0,
                note: other.to_string(),
            },
        }
    }

    /// A timeout row (the paper's "TLE").
    pub fn tle(arch: &str, compiler: &str, n: usize, budget_s: f64) -> Row {
        Row {
            arch: arch.to_string(),
            compiler: compiler.to_string(),
            n,
            depth: 0,
            swaps: 0,
            compile_s: budget_s,
            pass_s: 0.0,
            note: "TLE".to_string(),
        }
    }
}

/// Pretty-prints rows as a fixed-width table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n## {title}");
    println!(
        "{:<24} {:<10} {:>6} {:>10} {:>10} {:>10}  note",
        "architecture", "compiler", "N", "depth", "#SWAP", "CT(s)"
    );
    for r in rows {
        if r.note == "TLE" {
            println!(
                "{:<24} {:<10} {:>6} {:>10} {:>10} {:>10.2}  TLE",
                r.arch, r.compiler, r.n, "-", "-", r.compile_s
            );
        } else {
            println!(
                "{:<24} {:<10} {:>6} {:>10} {:>10} {:>10.4}  {}",
                r.arch, r.compiler, r.n, r.depth, r.swaps, r.compile_s, r.note
            );
        }
    }
}

/// Writes rows as JSON to `target/experiments/<name>.json`.
pub fn write_json(name: &str, rows: &[Row]) {
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(rows).expect("serialize rows");
    std::fs::write(&path, json).expect("write json");
    println!("[wrote {}]", path.display());
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Latency distribution of one pass over a workload, as the `stack` bin
/// reports it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseStats {
    /// Median request time (milliseconds).
    pub p50_ms: f64,
    /// 95th-percentile request time (milliseconds).
    pub p95_ms: f64,
    /// Wall-clock seconds for the whole pass.
    pub total_s: f64,
    /// Requests completed per second of the pass.
    pub throughput_rps: f64,
}

impl PhaseStats {
    /// The stats of one pass: per-request walls (seconds, any order)
    /// and the pass's total wall time.
    pub fn from_walls(walls_s: &[f64], total_s: f64) -> PhaseStats {
        PhaseStats {
            p50_ms: percentile(walls_s, 50.0) * 1e3,
            p95_ms: percentile(walls_s, 95.0) * 1e3,
            total_s,
            throughput_rps: walls_s.len() as f64 / total_s,
        }
    }
}

/// Percentile (0..=100) of an unsorted sample, in the sample's unit: the
/// value at rank `p / 100 × (len − 1)`, rounded to the nearest rank. An
/// empty sample (every request failed) reports 0; the bins count such
/// failures as violations on their own.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    match sorted.len() {
        0 => 0.0,
        len => sorted[((p / 100.0) * (len - 1) as f64).round() as usize],
    }
}

/// Parses a `--flag` style argument from the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The serving benches' mixed workload, replayed by every leg of the
/// `stack` bin and read by `perfbench`'s wire workloads:
/// every compiler on its representative targets, crossed with
/// `opt_level` ∈ {1, 2} and degree ∈ {exact, 3, 2}; the lattice mapper
/// additionally sweeps both IE modes. All requests are distinct, so a
/// cold pass is all misses. `fast` shrinks the target sizes (CI).
pub fn serve_workload(fast: bool) -> Vec<qft_serve::CompileRequest> {
    use qft_core::{CompileOptions, IeMode};
    use qft_serve::CompileRequest;

    let cases: Vec<(&str, Vec<String>)> = if fast {
        vec![
            ("lnn", vec!["lnn:12".into(), "lnn:16".into()]),
            ("sycamore", vec!["sycamore:2".into(), "sycamore:4".into()]),
            ("heavyhex", vec!["heavyhex:2".into(), "heavyhex:3".into()]),
            ("lattice", vec!["lattice:3".into(), "lattice:4".into()]),
            ("sabre", vec!["lnn:10".into(), "lattice:3".into()]),
            ("optimal", vec!["lnn:5".into()]),
            ("lnn-path", vec!["lattice:3".into()]),
        ]
    } else {
        vec![
            ("lnn", vec!["lnn:48".into(), "lnn:96".into()]),
            ("sycamore", vec!["sycamore:6".into(), "sycamore:8".into()]),
            ("heavyhex", vec!["heavyhex:6".into(), "heavyhex:10".into()]),
            ("lattice", vec!["lattice:6".into(), "lattice:8".into()]),
            ("sabre", vec!["lnn:24".into(), "lattice:5".into()]),
            ("optimal", vec!["lnn:5".into()]),
            ("lnn-path", vec!["lattice:6".into(), "lattice:8".into()]),
        ]
    };
    let mut reqs = Vec::new();
    for (compiler, targets) in cases {
        for target in targets {
            for opt_level in [1u8, 2] {
                for degree in [None, Some(3u32), Some(2)] {
                    let mut options = CompileOptions::default().with_opt_level(opt_level);
                    options.approximation = degree;
                    if compiler == "lattice" {
                        let strict = options.clone().with_ie_mode(IeMode::Strict);
                        reqs.push(
                            CompileRequest::new(compiler, target.clone()).with_options(strict),
                        );
                    }
                    reqs.push(CompileRequest::new(compiler, target.clone()).with_options(options));
                }
            }
        }
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_core::{CompileOptions, Registry, Target};

    #[test]
    fn timed_measures_something() {
        let (v, s) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn percentile_rounds_to_the_nearest_rank_and_empty_is_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let sample = [4.0, 1.0, 5.0, 2.0, 3.0];
        // Ranks over 5 values: p × 4 / 100, rounded.
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 30.0), 2.0); // rank 1.2 → 1
        assert_eq!(percentile(&sample, 40.0), 3.0); // rank 1.6 → 2
        assert_eq!(percentile(&sample, 50.0), 3.0);
        assert_eq!(percentile(&sample, 95.0), 5.0); // rank 3.8 → 4
        assert_eq!(percentile(&sample, 100.0), 5.0);
        let stats = PhaseStats::from_walls(&[0.002, 0.001, 0.003, 0.004], 2.0);
        assert_eq!(stats.p50_ms, 3.0); // rank 1.5 → 2
        assert_eq!(stats.p95_ms, 4.0);
        assert_eq!(stats.throughput_rps, 2.0);
        let empty = PhaseStats::from_walls(&[], 1.0);
        assert_eq!(
            (empty.p50_ms, empty.p95_ms, empty.throughput_rps),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn tle_row_has_note() {
        let r = Row::tle("x", "optimal", 10, 2.0);
        assert_eq!(r.note, "TLE");
    }

    #[test]
    fn row_from_result_copies_the_paper_columns() {
        let t = Target::lnn(8).unwrap();
        let res = Registry::with_core()
            .compile("lnn", &t, &CompileOptions::default())
            .unwrap();
        let row = Row::from_result(&res);
        assert_eq!(row.arch, "lnn-8");
        assert_eq!(row.compiler, "lnn");
        assert_eq!(row.n, 8);
        assert_eq!(row.depth, res.metrics.depth);
        assert_eq!(row.swaps, res.metrics.swaps);
    }

    #[test]
    fn row_from_error_maps_timeouts_to_tle() {
        let err = CompileError::Timeout {
            compiler: "optimal".into(),
            budget_s: 2.0,
            elapsed_s: 1.7,
            nodes: 123,
        };
        let row = Row::from_error("x", "optimal", 10, &err);
        assert_eq!(row.note, "TLE");
        assert_eq!(row.compile_s, 1.7, "TLE rows record elapsed, not budget");
    }
}
