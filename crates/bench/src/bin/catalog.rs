//! Byte-identity gate for the benchmark catalog: the artifacts of every
//! cell the repository benchmark compiles must not change by one byte.
//!
//! Compiles the 37 instances below × opt_level {1, 2} × degree {exact, 3},
//! in that order, each through the registry from
//! `CompileOptions::default().with_opt_level(o)` with `approximation` set.
//! Each artifact has its wall times stripped and is serialized with
//! `serde_json::to_string`; one running FNV-1a 64 covers every JSON
//! string. Prints one line per cell (its own hash, to find the cell that
//! moved) and exits 1 unless the running hash and byte count equal the
//! pinned ones and the peak resident set is within [`PEAK_RSS_BOUND_MB`].
//!
//! ```text
//! cargo run --release -p qft-bench --bin catalog
//! ```
//!
//! An intended change of artifact bytes re-pins [`PINNED_HASH`] and
//! [`PINNED_BYTES`] and says why.

use qft_kernels::{registry, CompileOptions, Target};
use std::process::ExitCode;

/// The benchmark's compiler × target instances, in its catalog order.
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

/// The running FNV-1a 64 over all 148 artifacts' JSON.
const PINNED_HASH: u64 = 0x0eac_cde3_7477_a15e;

/// The artifacts' JSON bytes in all.
const PINNED_BYTES: usize = 551_695_276;

/// The bound on the peak resident set (`VmHWM`): writing each artifact's
/// JSON from its types peaks near 104 MB; an encoder that first builds a
/// `Value` tree of the 1,048,576-op artifacts peaks near 950 MB.
const PEAK_RSS_BOUND_MB: u64 = 256;

/// FNV-1a 64, continued from `hash` over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn main() -> ExitCode {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut hash, mut bytes) = (FNV_OFFSET, 0usize);
    for (compiler, spec) in INSTANCES {
        let target = Target::parse(spec).expect("catalog targets parse");
        for opt_level in [1u8, 2] {
            for degree in [None, Some(3)] {
                let mut options = CompileOptions::default().with_opt_level(opt_level);
                options.approximation = degree;
                let mut result = match registry().compile(compiler, &target, &options) {
                    Ok(result) => result,
                    Err(e) => {
                        eprintln!("GATE FAILED {compiler} {spec}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                result.strip_wall_times();
                let json = serde_json::to_string(&result).expect("artifacts serialize");
                hash = fnv1a(hash, json.as_bytes());
                bytes += json.len();
                println!(
                    "{compiler:>8} {spec:<12} opt {opt_level} degree {:>5}: {:>11} B  {:#018x}",
                    degree.map_or("exact".to_string(), |d| d.to_string()),
                    json.len(),
                    fnv1a(FNV_OFFSET, json.as_bytes()),
                );
            }
        }
    }
    println!("catalog: FNV-1a 64 {hash:#018x} over {bytes} bytes");
    if (hash, bytes) != (PINNED_HASH, PINNED_BYTES) {
        eprintln!(
            "GATE FAILED catalog: expected {PINNED_HASH:#018x} over {PINNED_BYTES} bytes, \
             got {hash:#018x} over {bytes}"
        );
        return ExitCode::FAILURE;
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let vm_hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let Some(Ok(kb)) = vm_hwm.map(|kb| kb.trim_end_matches("kB").trim().parse::<u64>()) else {
        println!("catalog: no VmHWM in /proc/self/status; peak RSS bound not checked");
        return ExitCode::SUCCESS;
    };
    let mb = kb / 1024;
    println!("catalog: peak RSS {mb} MB (bound {PEAK_RSS_BOUND_MB} MB)");
    if mb > PEAK_RSS_BOUND_MB {
        eprintln!("GATE FAILED catalog: peak RSS {mb} MB is above {PEAK_RSS_BOUND_MB} MB");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
