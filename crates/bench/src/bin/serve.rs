//! Serving bench: replays a mixed workload — all 7 compilers × target
//! sizes × `opt_level`s × AQFT degrees (and both lattice IE modes) —
//! through the [`CompileService`] worker pool twice: a cold pass (every
//! request compiles) and a cached pass (every request hits the LRU), then
//! writes `BENCH_serve.json` in the working directory (next to
//! `BENCH_passes.json` / `BENCH_aqft.json`) with cold-vs-cached p50/p95
//! latencies, throughput, and the service counters.
//!
//! The run doubles as an executable acceptance check; the binary exits
//! non-zero if any of these regress:
//!
//! * every workload request must compile (the mixed workload is the
//!   supported surface, not a fuzz corpus);
//! * the cached pass must hit on every request, and each hit must return
//!   bytes identical to its cold miss (the determinism contract);
//! * cached p50 must be strictly below cold p50 — and, outside `--fast`
//!   (CI machines are noisy), at least 10× below.
//!
//! `--fast` shrinks the target sizes (used by CI).

use qft_bench::{percentile, PhaseStats};
use qft_serve::{CompileService, ServeStats};
use serde::Serialize;
use std::time::Instant;

/// One workload request's cold-vs-cached comparison.
#[derive(Debug, Serialize)]
struct RequestRow {
    compiler: String,
    target: String,
    opt_level: u8,
    degree: Option<u32>,
    cold_ms: f64,
    cached_ms: f64,
    speedup: f64,
}

/// The committed artifact.
#[derive(Debug, Serialize)]
struct ServeBench {
    requests: usize,
    workers: usize,
    cold: PhaseStats,
    cached: PhaseStats,
    speedup_p50: f64,
    stats: ServeStats,
    rows: Vec<RequestRow>,
}

fn main() {
    let fast = qft_bench::has_flag("--fast");
    let reqs = qft_bench::serve_workload(fast);
    let service = CompileService::with_config(reqs.len() * 2, 4);
    let mut violations = 0usize;

    let t0 = Instant::now();
    let cold = service.compile_batch(&reqs);
    let cold_total_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let cached = service.compile_batch(&reqs);
    let cached_total_s = t0.elapsed().as_secs_f64();

    let mut rows = Vec::new();
    let mut cold_walls = Vec::new();
    let mut cached_walls = Vec::new();
    println!(
        "{:<10} {:<14} {:>3} {:>6} {:>10} {:>10} {:>9}",
        "compiler", "target", "opt", "degree", "cold(ms)", "hit(ms)", "speedup"
    );
    for (req, (cold_r, cached_r)) in reqs.iter().zip(cold.iter().zip(&cached)) {
        let (cold_r, cached_r) = match (cold_r, cached_r) {
            (Ok(c), Ok(h)) => (c, h),
            (c, h) => {
                let e = c
                    .as_ref()
                    .err()
                    .or(h.as_ref().err())
                    .expect("one pass failed");
                eprintln!("WORKLOAD FAILURE: {} on {}: {e}", req.compiler, req.target);
                violations += 1;
                continue;
            }
        };
        if cold_r.cached || !cached_r.cached {
            eprintln!(
                "CACHE-DISCIPLINE VIOLATION: {} on {} (cold pass cached={}, \
                 second pass cached={})",
                req.compiler, req.target, cold_r.cached, cached_r.cached
            );
            violations += 1;
        }
        let cold_bytes = serde_json::to_string(&cold_r.result).expect("serialize result");
        let cached_bytes = serde_json::to_string(&cached_r.result).expect("serialize result");
        if cold_bytes != cached_bytes {
            eprintln!(
                "DETERMINISM VIOLATION: {} on {}: cache hit bytes differ from cold miss",
                req.compiler, req.target
            );
            violations += 1;
        }
        cold_walls.push(cold_r.wall_s);
        cached_walls.push(cached_r.wall_s);
        let row = RequestRow {
            compiler: req.compiler.clone(),
            target: req.target.clone(),
            opt_level: req.options.opt_level,
            degree: req.options.approximation,
            cold_ms: cold_r.wall_s * 1e3,
            cached_ms: cached_r.wall_s * 1e3,
            speedup: cold_r.wall_s / cached_r.wall_s.max(f64::EPSILON),
        };
        println!(
            "{:<10} {:<14} {:>3} {:>6} {:>10.3} {:>10.4} {:>8.0}x",
            row.compiler,
            row.target,
            row.opt_level,
            row.degree.map_or("exact".to_string(), |d| d.to_string()),
            row.cold_ms,
            row.cached_ms,
            row.speedup
        );
        rows.push(row);
    }

    let bench = ServeBench {
        requests: reqs.len(),
        workers: service.workers(),
        cold: PhaseStats::from_walls(&cold_walls, cold_total_s),
        cached: PhaseStats::from_walls(&cached_walls, cached_total_s),
        speedup_p50: percentile(&cold_walls, 50.0)
            / percentile(&cached_walls, 50.0).max(f64::EPSILON),
        stats: service.stats(),
        rows,
    };
    println!(
        "\n{} requests × {} workers: cold p50 {:.3}ms p95 {:.3}ms ({:.0} req/s), \
         cached p50 {:.4}ms p95 {:.4}ms ({:.0} req/s), p50 speedup {:.0}x",
        bench.requests,
        bench.workers,
        bench.cold.p50_ms,
        bench.cold.p95_ms,
        bench.cold.throughput_rps,
        bench.cached.p50_ms,
        bench.cached.p95_ms,
        bench.cached.throughput_rps,
        bench.speedup_p50
    );

    if bench.cached.p50_ms >= bench.cold.p50_ms {
        eprintln!(
            "LATENCY VIOLATION: cached p50 ({:.4}ms) is not strictly below cold p50 ({:.4}ms)",
            bench.cached.p50_ms, bench.cold.p50_ms
        );
        violations += 1;
    }
    if !fast && bench.speedup_p50 < 10.0 {
        eprintln!(
            "LATENCY VIOLATION: cached p50 must be at least 10x below cold p50, got {:.1}x",
            bench.speedup_p50
        );
        violations += 1;
    }

    let json = serde_json::to_string_pretty(&bench).expect("serialize bench");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("[wrote BENCH_serve.json: {} rows]", bench.rows.len());
    if violations > 0 {
        eprintln!("{violations} serving violation(s)");
        std::process::exit(1);
    }
}
