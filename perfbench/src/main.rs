//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels|wire-hot|wire-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! it runs an untraced and a traced window of `seconds / 2` each and
//! prints every per-layer metric. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and metrics.

mod kernels;
mod paper;
mod stats;
mod trace;
mod wire;

use stats::RequestMetrics;
use std::collections::BTreeMap;

/// Every block of a run holds at least this many requests, so its p90
/// has at least [`stats::MIN_BEYOND`] samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Every end-to-end metric a `--trace 0` run prints, with its unit.
fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("req_ms_p50", "ms"),
        ("req_ms_p90", "ms"),
        ("req_per_s", "1/s"),
        ("peak_rss_mb", "MB"),
        ("cell_ms_geomean", "ms"),
        ("depth_sum", "count"),
        ("swap_sum", "count"),
        ("resp_bytes_mean", "bytes"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_string(), unit))
    .collect()
}

/// The compilers of the shared registry.
const COMPILERS: [&str; 7] = [
    "lnn", "sycamore", "heavyhex", "lattice", "sabre", "optimal", "lnn-path",
];

/// The passes `pass_manager_for` can schedule at opt_level 1–2.
const PASSES: [&str; 6] = [
    "aqft-truncate",
    "cancel-adjacent-swaps",
    "prune-dead-swap-chains",
    "merge-swap-cphase",
    "asap-layering",
    "check-layout",
];

/// Every per-layer metric a `--trace 1` run prints, with its unit. A
/// layer the workload does not cross reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &str)> = vec![("arch.target_ms".into(), "ms")];
    for c in COMPILERS {
        names.push((format!("core.registry.compile_ms.{c}"), "ms"));
    }
    for p in PASSES {
        names.push((format!("ir.passes.{p}.ms"), "ms"));
        names.push((format!("ir.passes.{p}.ops_delta"), "count"));
    }
    for (name, unit) in [
        ("ir.ops_out", "count"),
        ("ir.check_layout_ms", "ms"),
        ("sim.symbolic.verify_ms", "ms"),
        ("sim.equiv.dense_ms", "ms"),
        ("sim.equiv.sparse_ms", "ms"),
        ("sim.sparse.peak_nonzeros", "count"),
        ("serve.digest.key_us", "us"),
        ("serve.service.hit_us", "us"),
        ("serve.service.miss_ms", "ms"),
        ("serve.service.hit_ratio", "ratio"),
        ("serve.service.requests", "count"),
        ("serve.service.evictions", "count"),
        ("serve.service.dedup_joins", "count"),
        ("serde_json.encode_ms", "ms"),
        ("serde_json.decode_ms", "ms"),
        ("serde_json.bytes", "bytes"),
        ("serve.proto.encode_ms", "ms"),
        ("serve.proto.decode_ms", "ms"),
        ("serve.client.rtt_ms", "ms"),
        ("serve.server.turnaround_ms", "ms"),
        ("serve.router.rtt_ms", "ms"),
        ("serve.router.overhead_ms", "ms"),
        ("serve.server.proto_errors", "count"),
        ("trace.overhead_ms", "ms"),
        ("trace.stage_overruns", "count"),
    ] {
        names.push((name.into(), unit));
    }
    names
}

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
        let args = Args {
            workload: take("--workload")?,
            seed: take("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds: take("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            trace: match take("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other}")),
            },
        };
        match flags.keys().next() {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None if args.seconds > 0.0 => Ok(args),
            None => Err("--seconds must be positive".into()),
        }
    }
}

/// One measurement window. A traced run measures an untraced window and
/// then a traced one on the same seed, half the time each.
pub struct Window {
    pub traced: bool,
    pub seconds: f64,
}

impl Window {
    pub fn plan(args: &Args) -> Vec<Window> {
        if args.trace {
            let seconds = args.seconds / 2.0;
            vec![
                Window {
                    traced: false,
                    seconds,
                },
                Window {
                    traced: true,
                    seconds,
                },
            ]
        } else {
            vec![Window {
                traced: false,
                seconds: args.seconds,
            }]
        }
    }
}

/// SplitMix64: the seeded draw behind every workload's order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A run's result: the counts, the metrics, and notes for the reader.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// A timing, noted with the number of samples behind it.
    pub fn timing(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric(name, value, unit);
        self.note(format!("{name} = {value:.6} {unit} (n={samples})"));
    }

    /// The request metrics: `req_ms_p50`, `req_ms_p90`, `req_per_s`,
    /// `peak_rss_mb` and `cell_ms_geomean`, noted with the sample count and
    /// the highest percentile the sample supports.
    pub fn measured(&mut self, m: &RequestMetrics) {
        self.metric("req_ms_p50", m.p50, "ms");
        self.metric("req_ms_p90", m.p90, "ms");
        self.metric("req_per_s", m.per_s, "1/s");
        self.metric("cell_ms_geomean", m.geomean, "ms");
        self.peak_rss();
        let s = &m.sample;
        self.note(format!(
            "request ms ({}): p50 {:.4}, p90 {:.4}, geomean {:.4}, {:.3}/s; \
             n={}, {} beyond p90, nearest-rank p{} {:.4}",
            m.basis,
            m.p50,
            m.p90,
            m.geomean,
            m.per_s,
            s.n,
            stats::beyond(s.n, 90.0),
            s.tail_p,
            s.tail
        ));
    }

    /// The process's peak resident set, from `/proc/self/status`.
    fn peak_rss(&mut self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        self.metric("peak_rss_mb", kb / 1024.0, "MB");
    }

    /// Writes the traced window's spans under `perfbench/out/`.
    pub fn write_spans(&mut self, args: &Args, tracer: &trace::Tracer) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => self.note(format!("spans: {}", path.display())),
            Err(e) => self.note(format!("spans not written: {e}")),
        }
    }

    /// Prints the notes, a table, and the JSON result line. `names` is the
    /// metric list this mode must print; layers the workload did not
    /// cross read 0.
    fn print(mut self, names: &[(String, &'static str)]) {
        for (name, unit) in names {
            self.metrics.entry(name.clone()).or_insert((0.0, unit));
        }
        for line in &self.notes {
            println!("# {line}");
        }
        let mut json = Vec::new();
        for (name, _) in names {
            let (value, unit) = self.metrics[name];
            println!("{name:<42} {value:>18.6} {unit}");
            let value = if value.is_finite() { value } else { 0.0 };
            json.push(format!(
                r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
            ));
        }
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <kernels|wire-hot|wire-churn> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = stats::self_test() {
        eprintln!("perfbench: statistics self-test failed: {e}");
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "kernels" => kernels::run(&args),
        "wire-hot" => wire::run(&args, wire::Mix::Hot),
        "wire-churn" => wire::run(&args, wire::Mix::Churn),
        other => Err(format!("unknown workload {other}")),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    report.print(&if args.trace {
        per_layer()
    } else {
        end_to_end()
    });
}

#[cfg(test)]
mod tests {
    use serde::Value;

    fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
        let entries = spec.as_object().expect("BENCHMARK.json is an object");
        let metrics = serde::field(entries, key)
            .as_array()
            .expect("a metric list");
        metrics
            .iter()
            .map(|m| {
                let m = m.as_object().expect("a metric object");
                let text = |k| serde::field(m, k).as_str().expect("a string").to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn owned(names: Vec<(String, &str)>) -> Vec<(String, String)> {
        names.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(listed(&spec, "end_to_end"), owned(super::end_to_end()));
        assert_eq!(listed(&spec, "per_layer"), owned(super::per_layer()));
    }
}
