//! The LNN QFT schedule (§2.2, Fig. 3) as an *abstract* line program,
//! streamed as the greedy wavefront makes it.
//!
//! The generator below produces the activation-wavefront schedule for `n`
//! items on a line. "Item" is deliberately abstract: at qubit level an item
//! is a logical qubit and the ops are H/CPHASE/SWAP
//! ([`crate::lnn::run_line_qft`]); at *unit* level (Fig. 14) an item is a
//! whole unit and the ops become QFT-IA, QFT-IE and a unit SWAP
//! ([`crate::lnn::run_unit_qft`], which Sycamore (§5) and lattice surgery
//! (§6) instantiate). This one generator is the paper's sub-kernel
//! reduction to the low-dimensional base case.
//!
//! ## The schedule
//!
//! Items `0..n` start at positions `0..n` (ascending). Repeatedly, in
//! parallel layers scanned left→right:
//!
//! * adjacent items that still need their pairwise interaction run it as
//!   soon as the smaller item is *active* (its `H` has fired);
//! * adjacent items that already interacted and sit in ascending order swap
//!   (driving the line toward full reversal);
//! * an idle item whose lower-indexed interactions are all done fires its
//!   `H`.
//!
//! The eligibility gating (`H(i)` before `CP(i,j)` before `H(j)`) is exactly
//! Type II of §3.1, tracked by [`QftProgress`], and is what staggers the
//! wavefront into the familiar 4N−6 two-qubit-layer triangle rather than a
//! 2N sorting network. Nothing in it needs search state (Maslov,
//! quant-ph/0703211), so each op goes to the caller as soon as it is made
//! and no schedule is ever stored.

use crate::progress::QftProgress;

/// One abstract operation on the line. Items are labeled by their *initial*
/// position (`0..n`); `pos_*` fields give current positions at execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOp {
    /// The single-item op (H at qubit level, QFT-IA at unit level).
    Activate {
        /// Item label.
        item: usize,
        /// Position at execution time.
        pos: usize,
    },
    /// The pairwise interaction (CPHASE / QFT-IE). `lo < hi` as labels.
    Interact {
        /// Smaller item label.
        lo: usize,
        /// Larger item label.
        hi: usize,
        /// Current position of `lo`.
        pos_lo: usize,
        /// Current position of `hi`.
        pos_hi: usize,
    },
    /// Exchange of two adjacent items (SWAP / unit SWAP).
    Swap {
        /// Item moving right.
        a: usize,
        /// Item moving left.
        b: usize,
        /// Left position of the pair.
        pos_left: usize,
        /// Right position (= `pos_left + 1`).
        pos_right: usize,
    },
}

/// Runs the LNN QFT schedule for `n` items, handing each op to `emit` with
/// the index of its parallel layer (ops of one layer touch disjoint
/// positions). Layers arrive in time order; within a layer the two-item
/// ops come left→right, then the activations. The items end reversed:
/// position `p` holds item `n-1-p`. `n = 0` emits nothing.
///
/// # Panics
/// Panics (a structural bug) if the greedy wavefront ever stalls — by
/// construction it cannot for `n ≥ 1`.
pub fn line_qft_schedule(n: usize, mut emit: impl FnMut(usize, LineOp)) {
    if n == 0 {
        return;
    }
    // at[pos] = item.
    let mut at: Vec<usize> = (0..n).collect();
    let mut prog = QftProgress::new(n);
    let mut busy = vec![false; n];
    let mut layer = 0;
    while !prog.complete() {
        busy.fill(false);
        let mut emitted = false;
        let mut i = 0;
        while i + 1 < n {
            let (a, b) = (at[i], at[i + 1]);
            let op = if prog.try_pair(a as u32, b as u32).is_some() {
                let (lo, hi, pos_lo, pos_hi) = if a < b {
                    (a, b, i, i + 1)
                } else {
                    (b, a, i + 1, i)
                };
                LineOp::Interact {
                    lo,
                    hi,
                    pos_lo,
                    pos_hi,
                }
            } else if a < b && prog.pair_done(a as u32, b as u32) {
                at.swap(i, i + 1);
                LineOp::Swap {
                    a,
                    b,
                    pos_left: i,
                    pos_right: i + 1,
                }
            } else {
                i += 1;
                continue;
            };
            emit(layer, op);
            emitted = true;
            busy[i] = true;
            busy[i + 1] = true;
            i += 2;
        }
        // Activation (H) on idle, eligible items.
        for (pos, &item) in at.iter().enumerate() {
            if !busy[pos] && prog.h_eligible(item as u32) {
                prog.mark_h(item as u32);
                emit(layer, LineOp::Activate { item, pos });
                emitted = true;
            }
        }
        assert!(emitted, "LNN schedule stalled: {:?}", prog.status());
        layer += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule for `n` items, collected into its parallel layers.
    fn layers(n: usize) -> Vec<Vec<LineOp>> {
        let mut layers: Vec<Vec<LineOp>> = Vec::new();
        line_qft_schedule(n, |layer, op| {
            if layer == layers.len() {
                layers.push(Vec::new());
            }
            layers[layer].push(op);
        });
        layers
    }

    /// Replays a schedule, checking structural invariants and Type-II
    /// order with a tracker of its own; returns the final item order.
    fn replay(n: usize, layers: &[Vec<LineOp>]) -> Vec<usize> {
        let mut at: Vec<usize> = (0..n).collect();
        let mut act = vec![false; n];
        let mut done = vec![false; n * n];
        for layer in layers {
            let mut used = vec![false; n];
            let claim = |pos: usize, used: &mut Vec<bool>| {
                assert!(!used[pos], "position {pos} used twice in a layer");
                used[pos] = true;
            };
            for op in layer {
                match *op {
                    LineOp::Activate { item, pos } => {
                        assert_eq!(at[pos], item);
                        claim(pos, &mut used);
                        // Type II: all lower pairs done.
                        for k in 0..item {
                            assert!(done[k * n + item], "H({item}) before pair ({k},{item})");
                        }
                        assert!(!act[item]);
                        act[item] = true;
                    }
                    LineOp::Interact {
                        lo,
                        hi,
                        pos_lo,
                        pos_hi,
                    } => {
                        assert_eq!(at[pos_lo], lo);
                        assert_eq!(at[pos_hi], hi);
                        assert_eq!(pos_lo.abs_diff(pos_hi), 1, "non-adjacent interaction");
                        claim(pos_lo, &mut used);
                        claim(pos_hi, &mut used);
                        assert!(act[lo], "CP({lo},{hi}) before H({lo})");
                        assert!(!act[hi], "CP({lo},{hi}) after H({hi})");
                        assert!(!done[lo * n + hi], "duplicate pair");
                        done[lo * n + hi] = true;
                    }
                    LineOp::Swap {
                        a,
                        b,
                        pos_left,
                        pos_right,
                    } => {
                        assert_eq!(pos_right, pos_left + 1);
                        assert_eq!(at[pos_left], a);
                        assert_eq!(at[pos_right], b);
                        claim(pos_left, &mut used);
                        claim(pos_right, &mut used);
                        at.swap(pos_left, pos_right);
                    }
                }
            }
        }
        // Coverage.
        for (lo, &active) in act.iter().enumerate() {
            assert!(active, "item {lo} never activated");
            for hi in lo + 1..n {
                assert!(done[lo * n + hi], "pair ({lo},{hi}) missing");
            }
        }
        at
    }

    #[test]
    fn schedules_are_valid_and_reverse_the_line() {
        for n in 1..=40 {
            let layers = layers(n);
            let fin = replay(n, &layers);
            let expect: Vec<usize> = (0..n).rev().collect();
            assert_eq!(fin, expect, "n={n}");
            let count = |f: fn(&LineOp) -> bool| layers.iter().flatten().filter(|op| f(op)).count();
            assert_eq!(
                count(|op| matches!(op, LineOp::Swap { .. })),
                n * (n - 1) / 2
            );
            assert_eq!(
                count(|op| matches!(op, LineOp::Interact { .. })),
                n * (n - 1) / 2
            );
        }
    }

    #[test]
    fn two_item_depth_is_4n_minus_6_in_4n_minus_4_layers() {
        // The paper's LNN cycle count (Appendix 3 Part I): 2N-3 interaction
        // layers + 2N-3 swap layers. Activation-only layers add exactly 2
        // (the first H and the last H).
        for n in 2..=40 {
            let layers = layers(n);
            let two_item = layers
                .iter()
                .filter(|l| l.iter().any(|op| !matches!(op, LineOp::Activate { .. })))
                .count();
            assert_eq!(two_item, 4 * n - 6, "n={n}");
            assert_eq!(layers.len(), 4 * n - 4, "n={n}");
        }
    }

    #[test]
    fn n0_is_empty_and_n1_is_single_activation() {
        assert!(layers(0).is_empty());
        assert_eq!(layers(1), vec![vec![LineOp::Activate { item: 0, pos: 0 }]]);
    }

    #[test]
    fn activations_happen_at_position_zero_for_all_but_item0() {
        // Paper: "Each qubit moves to the top first ... When a qubit is at
        // the top, it stops for one time step" — every H (except possibly
        // q0's, also at the top initially) fires at position 0.
        for n in 2..=12 {
            line_qft_schedule(n, |_, op| {
                if let LineOp::Activate { pos, .. } = op {
                    assert_eq!(pos, 0, "n={n}");
                }
            });
        }
    }
}
