//! Bidirectional logical↔physical qubit maps.

use crate::gate::{LogicalQubit, PhysicalQubit};
use serde::{Deserialize, Serialize, Value};

/// A bijection between logical qubits and (a subset of) physical qubits.
///
/// `phys_of[l]` is where logical qubit `l` currently sits; `log_of[p]` is the
/// logical qubit occupying physical location `p` (or `None` for a spare
/// physical qubit when the chip is larger than the program).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Layout {
    phys_of: Vec<PhysicalQubit>,
    log_of: Vec<Option<LogicalQubit>>,
}

impl Layout {
    /// The identity layout on `n` qubits mapping `q_i → Q_i`, on a device
    /// with `n_phys ≥ n` physical qubits.
    pub fn identity(n: usize, n_phys: usize) -> Self {
        assert!(n_phys >= n, "device smaller than program ({n_phys} < {n})");
        let phys_of = (0..n as u32).map(PhysicalQubit).collect();
        let mut log_of = vec![None; n_phys];
        for (i, slot) in log_of.iter_mut().enumerate().take(n) {
            *slot = Some(LogicalQubit(i as u32));
        }
        Layout { phys_of, log_of }
    }

    /// Builds a layout from an explicit `logical → physical` assignment.
    ///
    /// # Panics
    /// Panics if the assignment is not injective or indexes past `n_phys`.
    pub fn from_assignment(phys_of: Vec<PhysicalQubit>, n_phys: usize) -> Self {
        let mut log_of: Vec<Option<LogicalQubit>> = vec![None; n_phys];
        for (l, &p) in phys_of.iter().enumerate() {
            let slot = &mut log_of[p.index()];
            assert!(slot.is_none(), "two logical qubits mapped to {p}");
            *slot = Some(LogicalQubit(l as u32));
        }
        Layout { phys_of, log_of }
    }

    /// Number of logical qubits.
    #[inline]
    pub fn n_logical(&self) -> usize {
        self.phys_of.len()
    }

    /// Number of physical qubits on the device.
    #[inline]
    pub fn n_physical(&self) -> usize {
        self.log_of.len()
    }

    /// Where logical qubit `l` currently sits.
    #[inline]
    pub fn phys(&self, l: LogicalQubit) -> PhysicalQubit {
        self.phys_of[l.index()]
    }

    /// Which logical qubit occupies physical location `p`, if any.
    #[inline]
    pub fn logical(&self, p: PhysicalQubit) -> Option<LogicalQubit> {
        self.log_of[p.index()]
    }

    /// Applies a SWAP between two physical locations, updating both maps.
    ///
    /// Either location may be a spare (unoccupied) qubit.
    pub fn swap_phys(&mut self, p1: PhysicalQubit, p2: PhysicalQubit) {
        let l1 = self.log_of[p1.index()];
        let l2 = self.log_of[p2.index()];
        self.log_of[p1.index()] = l2;
        self.log_of[p2.index()] = l1;
        if let Some(l) = l1 {
            self.phys_of[l.index()] = p2;
        }
        if let Some(l) = l2 {
            self.phys_of[l.index()] = p1;
        }
    }

    /// The assignment vector `logical → physical` (a copy).
    pub fn assignment(&self) -> Vec<PhysicalQubit> {
        self.phys_of.clone()
    }

    /// Internal consistency check: every index is in range and the two
    /// directions agree, so the layout is a bijection between the logical
    /// qubits and a subset of the physical ones.
    pub fn is_consistent(&self) -> bool {
        self.phys_of
            .iter()
            .enumerate()
            .all(|(l, &p)| self.log_of.get(p.index()) == Some(&Some(LogicalQubit(l as u32))))
            && self.log_of.iter().enumerate().all(|(p, lo)| {
                lo.is_none_or(|l| self.phys_of.get(l.index()).is_some_and(|q| q.index() == p))
            })
    }
}

/// Decodes a layout, refusing one that fails [`Layout::is_consistent`],
/// so no lookup through it can index out of range.
impl Deserialize for Layout {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let o = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for Layout"))?;
        let layout = Layout {
            phys_of: Deserialize::from_value(serde::field(o, "phys_of"))?,
            log_of: Deserialize::from_value(serde::field(o, "log_of"))?,
        };
        if !layout.is_consistent() {
            return Err(serde::Error::msg("layout's two maps are not a bijection"));
        }
        Ok(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let lay = Layout::identity(4, 6);
        for i in 0..4u32 {
            assert_eq!(lay.phys(LogicalQubit(i)), PhysicalQubit(i));
            assert_eq!(lay.logical(PhysicalQubit(i)), Some(LogicalQubit(i)));
        }
        assert_eq!(lay.logical(PhysicalQubit(5)), None);
        assert!(lay.is_consistent());
    }

    #[test]
    fn swap_updates_both_directions() {
        let mut lay = Layout::identity(3, 3);
        lay.swap_phys(PhysicalQubit(0), PhysicalQubit(2));
        assert_eq!(lay.phys(LogicalQubit(0)), PhysicalQubit(2));
        assert_eq!(lay.phys(LogicalQubit(2)), PhysicalQubit(0));
        assert_eq!(lay.logical(PhysicalQubit(0)), Some(LogicalQubit(2)));
        assert!(lay.is_consistent());
    }

    #[test]
    fn swap_with_spare_slot() {
        let mut lay = Layout::identity(2, 3);
        lay.swap_phys(PhysicalQubit(1), PhysicalQubit(2));
        assert_eq!(lay.phys(LogicalQubit(1)), PhysicalQubit(2));
        assert_eq!(lay.logical(PhysicalQubit(1)), None);
        assert!(lay.is_consistent());
    }

    #[test]
    #[should_panic(expected = "two logical qubits")]
    fn non_injective_assignment_panics() {
        Layout::from_assignment(vec![PhysicalQubit(0), PhysicalQubit(0)], 2);
    }

    #[test]
    fn double_swap_is_identity() {
        let mut lay = Layout::identity(5, 5);
        lay.swap_phys(PhysicalQubit(1), PhysicalQubit(3));
        lay.swap_phys(PhysicalQubit(1), PhysicalQubit(3));
        assert_eq!(lay, Layout::identity(5, 5));
    }
}
