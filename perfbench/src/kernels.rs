//! `kernels`: the paper's own use. One thread compiles and verifies the
//! paper's kernels in-process, in a closed loop, through the registry.
//! Serve, serde_json and the wire are never touched.
//!
//! A round runs every catalog cell once, in an order drawn from the seed;
//! a window measures whole rounds, so every run measures the same cells.
//!
//! Cell and set-up times are in reference milliseconds: each cell's wall
//! time divided by the wall time of a fixed reference computation run just
//! before it, times 1 ms (about what the reference takes on a quiet host,
//! see [`REFERENCE_LEN`]). On a shared host the CPU's speed drifts by up
//! to 70% for tens of seconds at a time, and the drift slows both alike, so
//! their ratio holds still. The reference is this file's own code, so a
//! change to the library moves the cells and not the reference. The wall
//! times are noted beside the result.

use crate::stats::{median, Block, RequestMetrics, Summary};
use crate::trace::Tracer;
use crate::{paper, Args, Report, Rng, Window, COMPILERS, SETUP_REPS};
use qft_kernels::{registry, CompileOptions, Target};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Integers the reference computation sorts and tallies: about 1 ms on one
/// 2.1 GHz Xeon vCPU when the host is quiet.
const REFERENCE_LEN: usize = 32_768;

/// Runs the reference computation and checks that it gives the same answer
/// every time.
struct RefClock {
    checksum: Option<u64>,
    /// Every reference wall time, in ms.
    ms: Vec<f64>,
}

impl RefClock {
    fn new() -> RefClock {
        RefClock {
            checksum: None,
            ms: Vec::new(),
        }
    }

    /// The reference's wall ms: sort a fixed array of seeded integers and
    /// tally it into a hash table, a compiler's mix of allocation,
    /// comparison and table lookups. The table's hasher has fixed keys, so
    /// every run probes the same slots.
    fn tick(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        let mut rng = Rng::new(0x5eed);
        let mut values: Vec<u64> = (0..REFERENCE_LEN).map(|_| rng.next_u64()).collect();
        values.sort_unstable();
        let mut tally: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for v in values.iter().step_by(2) {
            *tally.entry(v % 4096).or_default() += v >> 40;
        }
        let checksum = std::hint::black_box(tally.values().fold(0, |a, b| a ^ b));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if *self.checksum.get_or_insert(checksum) != checksum {
            return Err("the reference computation changed its answer".into());
        }
        self.ms.push(ms);
        Ok(ms)
    }
}

/// Compiler × target instances on size ladders up to paper scale: LNN
/// to 1024 qubits, Sycamore, heavy-hex, lattice surgery to 32×32, the
/// LNN-path baseline, SABRE at 100–196 qubits (Fig. 19) and the exact
/// search on instances it closes. Widths ≤ 12 and 24–36 also exercise
/// the dense and sparse simulator tiers. The ladders spread cell times
/// from microseconds to a second.
const INSTANCES: [(&str, &str); 37] = [
    ("lnn", "lnn:12"),
    ("lnn", "lnn:32"),
    ("lnn", "lnn:64"),
    ("lnn", "lnn:128"),
    ("lnn", "lnn:256"),
    ("lnn", "lnn:1024"),
    ("sycamore", "sycamore:6"),
    ("sycamore", "sycamore:8"),
    ("sycamore", "sycamore:10"),
    ("sycamore", "sycamore:12"),
    ("sycamore", "sycamore:16"),
    ("heavyhex", "heavyhex:2"),
    ("heavyhex", "heavyhex:6"),
    ("heavyhex", "heavyhex:12"),
    ("heavyhex", "heavyhex:18"),
    ("heavyhex", "heavyhex:24"),
    ("heavyhex", "heavyhex:40"),
    ("lattice", "lattice:3"),
    ("lattice", "lattice:6"),
    ("lattice", "lattice:8"),
    ("lattice", "lattice:12"),
    ("lattice", "lattice:16"),
    ("lattice", "lattice:32"),
    ("lnn-path", "lattice:3"),
    ("lnn-path", "lattice:5"),
    ("lnn-path", "lattice:8"),
    ("lnn-path", "lattice:12"),
    ("lnn-path", "lattice:16"),
    ("lnn-path", "lattice:32"),
    ("sabre", "lattice:10"),
    ("sabre", "lattice:12"),
    ("sabre", "lattice:14"),
    ("optimal", "lnn:5"),
    ("optimal", "lnn:6"),
    ("optimal", "sycamore:2"),
    ("optimal", "heavyhex:1"),
    ("optimal", "lattice:2"),
];

/// Every instance crossed with opt_level {1, 2} and degree {exact, 3}.
fn catalog() -> Vec<(&'static str, &'static str, u8, Option<u32>)> {
    let mut cells = Vec::new();
    for (compiler, target) in INSTANCES {
        for opt_level in [1u8, 2] {
            for degree in [None, Some(3)] {
                cells.push((compiler, target, opt_level, degree));
            }
        }
    }
    cells
}

/// The exact counts one cell produces; they must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    depth: u64,
    swaps: usize,
    ops_out: usize,
    artifact_bytes: usize,
    /// (pass, ops removed) in pipeline order.
    pass_ops_delta: Vec<(String, i64)>,
}

/// One measured cell.
struct CellRun {
    ms: f64,
    counts: Counts,
    /// (pass, wall ms) from the compile's `PassReport`s.
    pass_ms: Vec<(String, f64)>,
    peak_nonzeros: Option<usize>,
}

fn run_cell(
    (compiler, spec, opt_level, degree): (&str, &str, u8, Option<u32>),
    tr: &mut Tracer,
    req: u64,
) -> Result<CellRun, String> {
    let t0 = Instant::now();
    let root = tr.begin("kernels.cell", None, req);
    let s = tr.begin("arch.target", Some(root), req);
    let target = Target::parse(spec);
    tr.end(s);
    let target = target.map_err(|e| e.to_string())?;
    let mut options = CompileOptions::default().with_opt_level(opt_level);
    options.approximation = degree;
    let s = tr.begin(format!("core.registry.compile.{compiler}"), Some(root), req);
    let result = registry().compile(compiler, &target, &options);
    tr.end(s);
    let mut result = result.map_err(|e| e.to_string())?;
    let peak_nonzeros = paper::check(
        &mut result,
        &target,
        compiler,
        degree,
        opt_level,
        tr,
        Some(root),
        req,
    )?;
    tr.end(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let ops_out = result.circuit.ops().len();
    Ok(CellRun {
        ms,
        counts: Counts {
            depth: result.metrics.depth,
            swaps: result.metrics.swaps,
            ops_out,
            artifact_bytes: std::mem::size_of_val(result.circuit.ops()),
            pass_ops_delta: result
                .passes
                .iter()
                .map(|p| (p.pass.clone(), p.ops_before as i64 - p.ops_after as i64))
                .collect(),
        },
        pass_ms: result
            .passes
            .iter()
            .map(|p| (p.pass.clone(), p.wall_s * 1e3))
            .collect(),
        peak_nonzeros,
    })
}

/// What one window measured.
struct WindowRun {
    /// One block per round.
    rounds: Vec<Block>,
    /// Per catalog cell, its time in every round, in reference ms.
    cell_ms: Vec<Vec<f64>>,
    /// Every cell's wall ms, pooled.
    wall_ms: Vec<f64>,
    clock: RefClock,
    failed: u64,
    /// Per catalog cell, the counts of the window's first round.
    counts: Vec<Option<Counts>>,
    tracer: Tracer,
    /// Per-round sums of PassReport wall ms, by pass.
    pass_ms: BTreeMap<String, f64>,
    peak_nonzeros: usize,
}

fn run_window(args: &Args, window: &Window, epoch: Instant) -> Result<WindowRun, String> {
    let cells = catalog();
    let mut rng = Rng::new(args.seed);
    let mut run = WindowRun {
        rounds: Vec::new(),
        cell_ms: vec![Vec::new(); cells.len()],
        wall_ms: Vec::new(),
        clock: RefClock::new(),
        failed: 0,
        counts: vec![None; cells.len()],
        tracer: Tracer::new(epoch, window.traced),
        pass_ms: BTreeMap::new(),
        peak_nonzeros: 0,
    };
    let t0 = Instant::now();
    let mut req = 0;
    while run.rounds.is_empty() || t0.elapsed().as_secs_f64() < window.seconds {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        rng.shuffle(&mut order);
        let mut ms = Vec::with_capacity(cells.len());
        for i in order {
            req += 1;
            let ref_ms = run.clock.tick()?;
            match run_cell(cells[i], &mut run.tracer, req) {
                Ok(cell) => {
                    match &run.counts[i] {
                        None => run.counts[i] = Some(cell.counts),
                        Some(first) if *first != cell.counts => {
                            return Err(format!(
                                "determinism: {:?} gave {:?}, then {:?}",
                                cells[i], first, cell.counts
                            ));
                        }
                        Some(_) => {}
                    }
                    for (pass, ms) in cell.pass_ms {
                        *run.pass_ms.entry(pass).or_default() += ms;
                    }
                    run.peak_nonzeros = run.peak_nonzeros.max(cell.peak_nonzeros.unwrap_or(0));
                    run.wall_ms.push(cell.ms);
                    run.cell_ms[i].push(cell.ms / ref_ms);
                    ms.push(cell.ms / ref_ms);
                }
                Err(e) => {
                    eprintln!("cell {:?} failed: {e}", cells[i]);
                    run.failed += 1;
                }
            }
        }
        let seconds = ms.iter().sum::<f64>() / 1e3;
        run.rounds.push(Block { ms, seconds });
    }
    for ms in run.pass_ms.values_mut() {
        *ms /= run.rounds.len() as f64;
    }
    Ok(run)
}

/// Set-up: registry, targets, and one compile + check of every instance
/// at default options, so lazy initialisation and allocator warm-up happen
/// before the window. Returns reference seconds and wall seconds.
fn setup(clock: &mut RefClock) -> Result<(f64, f64), String> {
    let (mut scaled, mut wall) = (0.0, 0.0);
    for (compiler, spec) in INSTANCES {
        let ref_ms = clock.tick()?;
        let t0 = Instant::now();
        run_cell((compiler, spec, 1, None), &mut Tracer::off(), 0)?;
        let seconds = t0.elapsed().as_secs_f64();
        scaled += seconds / ref_ms;
        wall += seconds;
    }
    Ok((scaled, wall))
}

/// Sums of the first round's exact counts: depth, SWAPs, ops out, and
/// ops removed per pass.
fn count_sums(counts: &[Option<Counts>]) -> (u64, u64, u64, BTreeMap<String, i64>, f64) {
    let (mut depth, mut swaps, mut ops, mut bytes) = (0u64, 0u64, 0u64, 0usize);
    let mut deltas: BTreeMap<String, i64> = BTreeMap::new();
    let cells = counts.iter().flatten();
    let n = cells.clone().count().max(1);
    for c in cells {
        depth += c.depth;
        swaps += c.swaps as u64;
        ops += c.ops_out as u64;
        bytes += c.artifact_bytes;
        for (pass, d) in &c.pass_ops_delta {
            *deltas.entry(pass.clone()).or_default() += d;
        }
    }
    (depth, swaps, ops, deltas, bytes as f64 / n as f64)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut clock = RefClock::new();
    let (mut setups, mut setups_wall) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (scaled, wall) = setup(&mut clock)?;
        setups.push(scaled);
        setups_wall.push(wall);
    }
    let epoch = Instant::now();
    let windows = Window::plan(args);
    let mut runs = Vec::new();
    for w in &windows {
        runs.push(run_window(args, w, epoch)?);
    }
    // Determinism across two same-seed runs: both windows of a traced
    // invocation must give the same exact counts, cell by cell.
    if let [a, b] = &runs[..] {
        if a.counts != b.counts {
            return Err("determinism: the two same-seed windows disagree on exact counts".into());
        }
    }
    let plain = &runs[0];
    let measured =
        RequestMetrics::per_cell(&plain.cell_ms, &plain.rounds).ok_or("too few cells for a p90")?;
    let attempted: usize = plain.rounds.iter().map(|r| r.ms.len()).sum();
    let mut report = Report::new(attempted as u64 + plain.failed, plain.failed);
    report.note(format!(
        "kernels: {} cells x {} rounds, 1 client thread, closed loop",
        catalog().len(),
        plain.rounds.len(),
    ));
    let (depth, swaps, ops_out, deltas, bytes_mean) = count_sums(&plain.counts);

    if !args.trace {
        report.timing("setup_s", median(&setups), "s", setups.len());
        report.measured(&measured);
        let wall = Summary::of(&plain.wall_ms).ok_or("too few cells for a p90")?;
        report.note(format!(
            "wall: set-up {:.4} s (median of {}), request p50 {:.4} ms, p90 {:.4} ms (n={}); \
             reference {:.4} ms (median of {})",
            median(&setups_wall),
            setups_wall.len(),
            wall.p50,
            wall.p90,
            wall.n,
            median(&plain.clock.ms),
            plain.clock.ms.len()
        ));
        report.metric("depth_sum", depth as f64, "count");
        report.metric("swap_sum", swaps as f64, "count");
        report.metric("resp_bytes_mean", bytes_mean, "bytes");
        return Ok(report);
    }

    let traced = &runs[1];
    let rounds = traced.rounds.len() as f64;
    report.note(format!(
        "traced: {rounds} rounds of {} cells; per-layer ms and counts are per round",
        catalog().len()
    ));
    let by_name = traced.tracer.self_ms_by_name();
    let per_round = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / rounds)
    };
    report.metric("arch.target_ms", per_round("arch.target"), "ms");
    for compiler in COMPILERS {
        let name = format!("core.registry.compile.{compiler}");
        report.metric(
            &format!("core.registry.compile_ms.{compiler}"),
            per_round(&name),
            "ms",
        );
    }
    for (pass, ms) in &traced.pass_ms {
        report.metric(&format!("ir.passes.{pass}.ms"), *ms, "ms");
    }
    for (pass, delta) in &deltas {
        report.metric(
            &format!("ir.passes.{pass}.ops_delta"),
            *delta as f64,
            "count",
        );
    }
    report.metric("ir.ops_out", ops_out as f64, "count");
    report.metric("ir.check_layout_ms", per_round("ir.check_layout"), "ms");
    report.metric(
        "sim.symbolic.verify_ms",
        per_round("sim.symbolic.verify"),
        "ms",
    );
    report.metric("sim.equiv.dense_ms", per_round("sim.equiv.dense"), "ms");
    report.metric("sim.equiv.sparse_ms", per_round("sim.equiv.sparse"), "ms");
    report.metric(
        "sim.sparse.peak_nonzeros",
        traced.peak_nonzeros as f64,
        "count",
    );
    let traced_p50 = RequestMetrics::per_cell(&traced.cell_ms, &traced.rounds)
        .ok_or("too few traced cells")?
        .p50;
    report.metric("trace.overhead_ms", traced_p50 - measured.p50, "ms");
    report.write_spans(args, &traced.tracer);
    Ok(report)
}
