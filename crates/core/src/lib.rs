//! # qft-core — linear-depth QFT kernel compilers
//!
//! The paper's contribution: analytical, search-free QFT mapping for LNN,
//! IBM heavy-hex, Google Sycamore, and the lattice-surgery FT backend —
//! exposed through the open pipeline API ([`Target`], [`QftCompiler`],
//! [`CompileOptions`] → [`CompileResult`]) and a string-addressable
//! [`Registry`]. The search-based baselines in `qft-baselines` implement
//! the same trait, so every compiler is driven identically.
//!
//! Compilation is construct → optimize → verify: each compiler's
//! *construct* stage emits a raw schedule, then [`finish_result`] runs the
//! shared `qft_ir::passes` tail (assembled by [`pass_manager_for`] from
//! [`CompileOptions::opt_level`] / `extra_passes`), optional symbolic
//! verification, and metrics.

#![warn(missing_docs)]

pub mod heavyhex;
pub mod lattice;
pub mod line;
pub mod lnn;
pub mod pipeline;
pub mod progress;
pub mod registry;
pub mod sycamore;
pub mod target;
pub mod two_row;

pub use heavyhex::compile_heavyhex;
pub use lattice::{compile_lattice, compile_lattice_with, IeMode};
pub use line::{line_qft_schedule, LineOp, LineSchedule};
pub use lnn::{compile_lnn, run_line_qft, PathOrder};
pub use pipeline::{
    finish_result, pass_manager_for, validate_approximation, CompileError, CompileOptions,
    CompileResult, HeavyHexMapper, LatencyModel, LatticeMapper, LnnMapper, QftCompiler,
    SycamoreMapper, VerifyLevel,
};
pub use progress::QftProgress;
pub use registry::Registry;
pub use sycamore::compile_sycamore;
pub use target::{Target, TargetSpec};
pub use two_row::{column_snake, compile_two_row, compile_two_row_interleaved};
