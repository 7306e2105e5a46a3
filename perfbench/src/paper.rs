//! The paper's invariants, checked on every artifact the benchmark gets,
//! whether it was compiled in-process or received over the wire. The
//! references are the paper's formulas and the simulator, never the
//! compiler under test.

use crate::trace::Tracer;
use qft_kernels::ir::passes::{CheckLayout, Pass, PassCtx};
use qft_kernels::sim::equiv::{mapped_equals_aqft_auto, SparseChecker};
use qft_kernels::sim::verify_qft_mapping;
use qft_kernels::{CompileResult, Target};

/// Random probes per equivalence check (besides the fixed ones).
const PROBES: u64 = 4;

/// Registers up to this width are checked on the dense tier.
const DENSE_MAX: usize = 12;

/// Registers in this range are checked on the sparse tier.
const SPARSE_RANGE: std::ops::RangeInclusive<usize> = 24..=36;

/// The number of controlled rotations the degree-`degree` AQFT keeps on
/// `n` qubits: the pairs closer than `degree` (all pairs when exact).
pub fn rotation_count(n: usize, degree: Option<u32>) -> usize {
    let reach = degree.map_or(n, |d| (d as usize).min(n)).max(1) - 1;
    (0..n).map(|i| reach.min(n - 1 - i)).sum()
}

/// A two-qubit depth the paper predicts: exactly, or as an upper bound.
pub enum DepthLaw {
    Exact(u64),
    AtMost(u64),
}

/// The paper's two-qubit depth law for `compiler` at `opt_level` on `n`
/// qubits: an exact closed form for the exact QFT on the LNN families
/// (4N−6, and 2N−3 once CPHASE+SWAP pairs are fused), which bounds their
/// truncated kernels from above, and linear upper bounds for the rest
/// (heavy-hex 5N, Sycamore 7N + O(√N), lattice surgery c·N with c = 8
/// covering both IE modes). `None` for the search-based baselines, which
/// have no closed form.
pub fn depth_law(compiler: &str, n: usize, opt_level: u8, exact: bool) -> Option<DepthLaw> {
    let n = n as u64;
    let line = if opt_level >= 2 { 2 * n - 3 } else { 4 * n - 6 };
    match compiler {
        "lnn" | "lnn-path" if exact => Some(DepthLaw::Exact(line)),
        "lnn" | "lnn-path" => Some(DepthLaw::AtMost(line)),
        "heavyhex" => Some(DepthLaw::AtMost(5 * n)),
        "sycamore" => Some(DepthLaw::AtMost(7 * n)),
        "lattice" => Some(DepthLaw::AtMost(8 * n)),
        _ => None,
    }
}

/// Checks one artifact compiled by `compiler` for `target` with AQFT
/// `degree` at `opt_level`. Exact kernels go through the symbolic
/// verifier; truncated ones through the layout replay. Either kind gets
/// state equivalence where a simulator tier admits its width, and the
/// depth law where the paper gives one. Returns the sparse tier's peak
/// occupancy when that tier ran.
#[allow(clippy::too_many_arguments)]
pub fn check(
    result: &mut CompileResult,
    target: &Target,
    compiler: &str,
    degree: Option<u32>,
    opt_level: u8,
    tr: &mut Tracer,
    parent: Option<usize>,
    req: u64,
) -> Result<Option<usize>, String> {
    let n = result.n;
    let exact = degree.is_none_or(|d| d as usize >= n);
    let circuit = &mut result.circuit;
    if exact {
        let s = tr.begin("sim.symbolic.verify", parent, req);
        let verdict = verify_qft_mapping(circuit, target.graph());
        tr.end(s);
        verdict.map_err(|e| format!("symbolic verifier: {e}"))?;
    } else {
        let graph = target.graph();
        let adjacent = |a, b| graph.are_adjacent(a, b);
        let s = tr.begin("ir.check_layout", parent, req);
        let verdict = CheckLayout.run(circuit, &PassCtx::with_adjacency(&adjacent));
        tr.end(s);
        verdict.map_err(|e| format!("layout replay: {e}"))?;
    }

    let degree_or_n = degree.unwrap_or(n as u32);
    let mut peak = None;
    if n <= DENSE_MAX {
        let s = tr.begin("sim.equiv.dense", parent, req);
        let verdict = mapped_equals_aqft_auto(circuit, degree_or_n, PROBES);
        tr.end(s);
        if !verdict.map_err(|e| format!("dense tier: {e}"))? {
            return Err("dense state equivalence failed".into());
        }
    } else if SPARSE_RANGE.contains(&n) {
        let s = tr.begin("sim.equiv.sparse", parent, req);
        let verdict = SparseChecker::for_aqft(n, degree_or_n, PROBES as usize).and_then(|mut c| {
            c.matches_physically(circuit)
                .map(|ok| (ok, c.peak_nonzeros()))
        });
        tr.end(s);
        let (ok, p) = verdict.map_err(|e| format!("sparse tier: {e}"))?;
        if !ok {
            return Err("sparse state equivalence failed".into());
        }
        peak = Some(p);
    }

    let rotations = rotation_count(n, degree);
    let m = &result.metrics;
    if m.cphases != rotations || m.hadamards != n {
        return Err(format!(
            "{} rotations and {} Hadamards, the AQFT needs {rotations} and {n}",
            m.cphases, m.hadamards
        ));
    }
    if m.swaps != circuit.swap_count() || m.total_ops != circuit.ops().len() {
        return Err("reported metrics disagree with the op stream".into());
    }
    let depth = circuit.two_qubit_depth();
    match depth_law(compiler, n, opt_level, exact) {
        Some(DepthLaw::Exact(want)) if depth != want => Err(format!(
            "two-qubit depth {depth}, the closed form gives {want}"
        )),
        Some(DepthLaw::AtMost(bound)) if depth > bound => Err(format!(
            "two-qubit depth {depth} exceeds the linear bound {bound}"
        )),
        _ => Ok(peak),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_count_matches_the_aqft_pair_count() {
        assert_eq!(rotation_count(16, None), 120);
        assert_eq!(rotation_count(16, Some(16)), 120);
        assert_eq!(rotation_count(16, Some(99)), 120);
        assert_eq!(rotation_count(16, Some(3)), 29);
        assert_eq!(rotation_count(16, Some(2)), 15);
        assert_eq!(rotation_count(16, Some(1)), 0);
    }

    #[test]
    fn lnn_closed_forms() {
        assert!(matches!(
            depth_law("lnn", 16, 1, true),
            Some(DepthLaw::Exact(58))
        ));
        assert!(matches!(
            depth_law("lnn-path", 16, 2, true),
            Some(DepthLaw::Exact(29))
        ));
        assert!(matches!(
            depth_law("lnn", 16, 1, false),
            Some(DepthLaw::AtMost(58))
        ));
        assert!(depth_law("sabre", 16, 1, true).is_none());
    }
}
