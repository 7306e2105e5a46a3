//! # qft-ir — circuit intermediate representation
//!
//! The shared vocabulary of the QFT-kernel compiler stack:
//!
//! * [`gate`] — gates and logical/physical qubit newtypes;
//! * [`circuit`] — logical circuits and hardware-mapped circuits (with
//!   layout-tracking builder);
//! * [`layout`] — bidirectional logical↔physical maps;
//! * [`dag`] — strict (Type I+II) and relaxed (Type II only) dependency DAGs
//!   implementing the commutativity insight of §3.1 of the paper;
//! * [`qft`] — textbook and k-partitioned logical QFT builders (§3.2) plus
//!   the semantic checker every compiled kernel must pass;
//! * [`latency`] — heterogeneous link latency classes (§2.3);
//! * [`metrics`] — depth / SWAP-count accounting;
//! * [`passes`] — the pass subsystem: [`Pass`]/[`PassManager`] plus the
//!   shared peephole/scheduling/verify passes every compiler's tail runs;
//! * [`qasm`] — OpenQASM 2.0 export.

#![warn(missing_docs)]

pub mod circuit;
pub mod dag;
pub mod gate;
pub mod latency;
pub mod layout;
pub mod metrics;
pub mod passes;
pub mod qasm;
pub mod qft;
pub mod render;

pub use circuit::{AnnotatedOp, Circuit, MappedCircuit, MappedCircuitBuilder, PhysOp, Replay};
pub use dag::{CircuitDag, DagMode, Frontier};
pub use gate::{Gate, GateKind, LogicalQubit, PhysicalQubit};
pub use latency::LinkClass;
pub use layout::Layout;
pub use metrics::Metrics;
pub use passes::{Pass, PassCtx, PassError, PassManager, PassReport};
pub use qft::{check_qft_circuit, check_qft_order, qft_circuit, qft_pair_count, Partition};
