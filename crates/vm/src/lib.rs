//! # vm — a profiling interpreter standing in for the paper's iPAQ
//!
//! Part of the `compreuse` workspace (a reproduction of Ding & Li,
//! *A Compiler Scheme for Reusing Intermediate Computation Results*,
//! CGO 2004). The paper compiles C with GCC and measures wall-clock time
//! and battery current on a Compaq iPAQ 3650; this crate replaces that
//! testbed with a deterministic interpreter:
//!
//! - [`mod@lower`] turns a checked MiniC program into a resolved VM IR;
//! - [`run`] executes it under a [`cost::CostModel`] (`O0`/`O3` stand-ins,
//!   206 MHz SA-1110 clock) and an [`energy::EnergyModel`] (the paper's
//!   `E = V·I·t` with a DRAM term for table traffic), on one of two
//!   [`Engine`]s with identical modelled results: the tree walker in
//!   [`interp`] (the executable spec) or the default bytecode dispatch
//!   loop, which is faster on the host ([`precompile`] compiles a module
//!   once for many runs);
//! - `Profile` statements collect value-set profiles ([`profile`]);
//! - `Memo` statements execute against `memo-runtime` tables, charging the
//!   paper's hashing overhead on hit and miss alike.
//!
//! ```
//! let checked = minic::compile("int main() { print(1 + 2); return 0; }").unwrap();
//! let module = vm::lower::lower(&checked);
//! let out = vm::run(&module, vm::RunConfig::default())?;
//! assert_eq!(out.output_text(), "3");
//! assert!(out.cycles > 0);
//! # Ok::<(), vm::value::Trap>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bytecode;
pub mod cost;
pub mod deps_rt;
pub mod energy;
pub mod interp;
mod interp_bc;
pub mod lower;
pub mod profile;
pub mod tables;
pub mod value;

pub use cost::{CostModel, OptLevel};
pub use energy::EnergyModel;
pub use interp::{run, Engine, Outcome, RunConfig};
pub use lower::{lower, Module};
pub use profile::{ProfileData, SegProfile};
pub use tables::TableHandles;
pub use value::{PrintVal, Trap, Value};

/// The specialization plan of the retired specialized engine. It has no
/// values, so the `spec_plan` fields that still carry it (on
/// `compreuse::ReuseOutcome` and `service::ServiceProgram`) are always
/// `None`. Retired: kept only until those fields are dropped.
#[derive(Debug, Clone)]
pub enum SpecPlan {}

/// A module compiled to bytecode once, reusable across many runs.
///
/// [`run`] compiles the bytecode on every call; a request-serving worker
/// instead compiles each program once with [`precompile`] and executes
/// requests with [`run_precompiled`], keeping the per-request path free
/// of compilation work.
#[derive(Debug)]
pub struct Precompiled<'m>(bytecode::BcModule<'m>);

/// Compiles `module` to bytecode under `cost` (cycle charges are baked in
/// as immediates, so later runs must use the same cost model).
pub fn precompile<'m>(module: &'m Module, cost: &CostModel) -> Precompiled<'m> {
    Precompiled(bytecode::compile(module, cost))
}

/// Runs a precompiled module on the bytecode engine (`config.engine` is
/// ignored). `config.cost` must be the model the bytecode was compiled
/// under, or cycle accounting will mix two models.
///
/// # Errors
///
/// Returns a [`Trap`] if the program faults, as [`run`] does.
pub fn run_precompiled(
    module: &Module,
    pre: &Precompiled<'_>,
    config: RunConfig,
) -> Result<Outcome, Trap> {
    interp_bc::run_bc(module, &pre.0, config)
}

/// Compiles MiniC source and runs it in one step (convenience for tests
/// and examples).
///
/// # Errors
///
/// Returns front-end diagnostics or a runtime [`Trap`] as a rendered
/// string.
///
/// # Examples
///
/// ```
/// let out = vm::compile_and_run(
///     "int main() { print(6 * 7); return 0; }",
///     vm::RunConfig::default(),
/// )?;
/// assert_eq!(out.output_text(), "42");
/// # Ok::<(), String>(())
/// ```
pub fn compile_and_run(source: &str, config: RunConfig) -> Result<Outcome, String> {
    let checked = minic::compile(source)?;
    let module = lower(&checked);
    run(&module, config).map_err(|t| format!("runtime trap: {t}"))
}
