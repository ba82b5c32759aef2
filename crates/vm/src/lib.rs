//! # vm — a profiling interpreter standing in for the paper's iPAQ
//!
//! Part of the `compreuse` workspace (a reproduction of Ding & Li,
//! *A Compiler Scheme for Reusing Intermediate Computation Results*,
//! CGO 2004). The paper compiles C with GCC and measures wall-clock time
//! and battery current on a Compaq iPAQ 3650; this crate replaces that
//! testbed with a deterministic interpreter:
//!
//! - [`mod@lower`] turns a checked MiniC program into a resolved VM IR;
//! - [`interp`] executes it under a [`cost::CostModel`] (`O0`/`O3` stand-ins,
//!   206 MHz SA-1110 clock) and an [`energy::EnergyModel`] (the paper's
//!   `E = V·I·t` with a DRAM term for table traffic);
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
mod interp_spec;
pub mod lower;
pub mod profile;
pub mod specialize;
pub mod tables;
pub mod value;

pub use cost::{CostModel, OptLevel};
pub use energy::EnergyModel;
pub use interp::{run, Engine, Outcome, RunConfig};
pub use lower::{lower, Module};
pub use memo_runtime::L1Cache;
pub use profile::{ProfileData, SegProfile};
pub use specialize::{DispatchTrace, DominantKey, SpecPlan, SpecStats};
pub use tables::TableHandles;
pub use value::{PrintVal, Trap, Value};

/// A module compiled to bytecode once, reusable across many runs.
///
/// [`run`] compiles the bytecode on every call; a request-serving worker
/// instead compiles each program once with [`precompile`] (or
/// [`precompile_spec`] for the specialized tier) and executes requests
/// with [`run_precompiled`], keeping the per-request path free of
/// compilation work.
#[derive(Debug)]
pub struct Precompiled<'m>(PreInner<'m>);

#[derive(Debug)]
enum PreInner<'m> {
    /// Generic bytecode: runs on the bytecode dispatch loop.
    Bc(bytecode::BcModule<'m>),
    /// Plan-specialized code: runs on the specialized dispatch loop.
    Spec(specialize::SpecCode<'m>),
}

/// Compiles `module` to bytecode under `cost` (cycle charges are baked in
/// as immediates, so later runs must use the same cost model).
pub fn precompile<'m>(module: &'m Module, cost: &CostModel) -> Precompiled<'m> {
    Precompiled(PreInner::Bc(bytecode::compile(module, cost)))
}

/// Compiles `module` to bytecode and applies the specialization `plan`
/// (mined by the pipeline; see [`specialize::SpecPlan`]). The result runs
/// on the specialized tier, with observables identical to [`precompile`]'s.
pub fn precompile_spec<'m>(
    module: &'m Module,
    cost: &CostModel,
    plan: &specialize::SpecPlan,
) -> Precompiled<'m> {
    let bc = bytecode::compile(module, cost);
    Precompiled(PreInner::Spec(specialize::build(&bc, plan, cost)))
}

/// Runs a precompiled module on the engine it was compiled for
/// (`config.engine` is ignored). `config.cost` must be the model the
/// bytecode was compiled under, or cycle accounting will mix two models.
///
/// # Errors
///
/// Returns a [`Trap`] if the program faults, as [`run`] does.
pub fn run_precompiled(
    module: &Module,
    pre: &Precompiled<'_>,
    config: RunConfig,
) -> Result<Outcome, Trap> {
    match &pre.0 {
        PreInner::Bc(bc) => interp_bc::run_bc(module, bc, config),
        PreInner::Spec(spec) => interp_spec::run_spec(module, spec, config),
    }
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
