//! Shared measurement machinery: run the pipeline once per (workload,
//! opt-level), then execute baseline and transformed programs on chosen
//! inputs. Independent workloads run in parallel with scoped threads.

use compreuse::{PipelineConfig, ReuseOutcome};
use memo_runtime::MemoTable;
use vm::{CostModel, OptLevel, RunConfig};
use workloads::Workload;

/// Which input family to execute with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// The default inputs (profiling always uses these, as in the paper).
    Default,
    /// The alternate inputs of Table 10.
    Alt,
}

/// A prepared workload: pipeline ran, both programs lowered.
#[derive(Debug)]
pub struct Prepared {
    /// Workload name.
    pub name: &'static str,
    /// Pipeline product.
    pub outcome: ReuseOutcome,
    /// Lowered baseline module.
    pub base_module: vm::Module,
    /// Lowered transformed module.
    pub memo_module: vm::Module,
    /// The opt level decisions were made for.
    pub opt: OptLevel,
    /// The execution engine used for profiling and measurement runs.
    pub engine: vm::Engine,
}

/// Extra preparation options.
#[derive(Debug, Clone, Default)]
pub struct PrepareOpts {
    /// Per-table byte cap (Figures 14/15).
    pub bytes_cap: Option<usize>,
    /// Disable §2.5 merging (Table 5 models per-segment hardware buffers).
    pub disable_merging: bool,
    /// Execution engine (modelled cycles are engine-independent; this
    /// only picks the host-speed implementation).
    pub engine: vm::Engine,
    /// Plan with dependency-tracked key reduction (DESIGN.md §8g). Off by
    /// default: the paper tables reproduce the static exact-match scheme,
    /// so only the serve harness (which measures the incremental-reuse
    /// extension) opts in.
    pub validate: bool,
}

/// Runs the reuse pipeline for `w` at `opt`, profiling on default inputs
/// scaled by `profile_scale`.
///
/// # Panics
///
/// Panics if the bundled workload fails the pipeline (covered by tests).
pub fn prepare(w: &Workload, opt: OptLevel, profile_scale: f64) -> Prepared {
    prepare_with(w, opt, profile_scale, &PrepareOpts::default())
}

/// Like [`prepare`] with extra [`PrepareOpts`].
pub fn prepare_with(
    w: &Workload,
    opt: OptLevel,
    profile_scale: f64,
    opts: &PrepareOpts,
) -> Prepared {
    let program =
        minic::parse(&w.source).unwrap_or_else(|e| panic!("{}: parse failed: {e}", w.name));
    let config = PipelineConfig {
        cost: CostModel::for_level(opt),
        profile_input: (w.default_input)(profile_scale),
        bytes_cap: opts.bytes_cap,
        enable_merging: !opts.disable_merging,
        engine: opts.engine,
        enable_validation: opts.validate,
        ..PipelineConfig::default()
    };
    let outcome = compreuse::run_pipeline(&program, &config)
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", w.name));
    let base_module = vm::lower(&outcome.baseline);
    let memo_module = vm::lower(&outcome.transformed);
    Prepared {
        name: w.name,
        outcome,
        base_module,
        memo_module,
        opt,
        engine: opts.engine,
    }
}

/// One baseline-vs-memoized comparison.
#[derive(Debug)]
pub struct Measurement {
    /// Workload name.
    pub name: &'static str,
    /// Baseline modelled cycles / seconds / joules.
    pub orig_cycles: u64,
    /// Memoized modelled cycles.
    pub memo_cycles: u64,
    /// Baseline modelled seconds.
    pub orig_seconds: f64,
    /// Memoized modelled seconds.
    pub memo_seconds: f64,
    /// Baseline modelled energy (J).
    pub orig_energy: f64,
    /// Memoized modelled energy (J).
    pub memo_energy: f64,
    /// Whether both versions printed identical output (must be true).
    pub output_match: bool,
    /// The memo tables after the run (stats + access histograms).
    pub tables: Vec<MemoTable>,
}

impl Measurement {
    /// Speedup = orig time / memoized time.
    pub fn speedup(&self) -> f64 {
        self.orig_seconds / self.memo_seconds
    }

    /// Energy saving fraction (paper prints percent).
    pub fn energy_saving(&self) -> f64 {
        1.0 - self.memo_energy / self.orig_energy
    }
}

/// Executes baseline and transformed programs on `input` inputs at
/// `run_scale`.
///
/// # Panics
///
/// Panics on a trap (workloads are trap-free by construction and tests).
pub fn execute(p: &Prepared, w: &Workload, input: InputKind, run_scale: f64) -> Measurement {
    execute_with_tables(p, w, input, run_scale, p.outcome.make_tables())
}

/// Like [`execute`] but with caller-provided memo tables (Table 5 swaps in
/// small LRU buffers to model the hardware proposals).
///
/// # Panics
///
/// Panics on a trap.
pub fn execute_with_tables(
    p: &Prepared,
    w: &Workload,
    input: InputKind,
    run_scale: f64,
    tables: Vec<MemoTable>,
) -> Measurement {
    let data = match input {
        InputKind::Default => (w.default_input)(run_scale),
        InputKind::Alt => (w.alt_input)(run_scale),
    };
    let cost = CostModel::for_level(p.opt);
    let orig = vm::run(
        &p.base_module,
        RunConfig {
            cost: cost.clone(),
            input: data.clone(),
            engine: p.engine,
            ..RunConfig::default()
        },
    )
    .unwrap_or_else(|t| panic!("{}: baseline trapped: {t}", p.name));
    let memo = vm::run(
        &p.memo_module,
        RunConfig {
            cost,
            input: data,
            tables,
            engine: p.engine,
            ..RunConfig::default()
        },
    )
    .unwrap_or_else(|t| panic!("{}: memoized trapped: {t}", p.name));
    Measurement {
        name: p.name,
        orig_cycles: orig.cycles,
        memo_cycles: memo.cycles,
        orig_seconds: orig.seconds,
        memo_seconds: memo.seconds,
        orig_energy: orig.energy_joules,
        memo_energy: memo.energy_joules,
        output_match: orig.output_text() == memo.output_text(),
        tables: memo.tables,
    }
}

/// Prepares and executes many workloads in parallel (one thread each).
pub fn measure_all(
    workloads: &[Workload],
    opt: OptLevel,
    scale: f64,
    input: InputKind,
) -> Vec<Measurement> {
    measure_all_with_engine(workloads, opt, scale, input, vm::Engine::default())
}

/// Like [`measure_all`] but on an explicit execution engine (modelled
/// results are engine-independent; wall-clock is not).
pub fn measure_all_with_engine(
    workloads: &[Workload],
    opt: OptLevel,
    scale: f64,
    input: InputKind,
    engine: vm::Engine,
) -> Vec<Measurement> {
    let opts = PrepareOpts {
        engine,
        ..PrepareOpts::default()
    };
    let mut results: Vec<Option<Measurement>> = Vec::new();
    results.resize_with(workloads.len(), || None);
    std::thread::scope(|s| {
        for (slot, w) in results.iter_mut().zip(workloads) {
            let opts = &opts;
            s.spawn(move || {
                let p = prepare_with(w, opt, scale, opts);
                let m = execute(&p, w, input, scale);
                assert!(m.output_match, "{}: outputs diverged", w.name);
                *slot = Some(m);
            });
        }
    });
    results.into_iter().map(|m| m.expect("filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_execute_unepic() {
        let w = workloads::unepic::unepic();
        let p = prepare(&w, OptLevel::O0, 0.05);
        assert!(p.outcome.report.transformed >= 1);
        let m = execute(&p, &w, InputKind::Default, 0.05);
        assert!(m.output_match);
        assert!(m.speedup() > 1.0, "UNEPIC should win: {}", m.speedup());
        assert!(m.energy_saving() > 0.0);
    }

    #[test]
    fn alt_input_executes_against_default_profile() {
        let w = workloads::unepic::unepic();
        let p = prepare(&w, OptLevel::O3, 0.05);
        let m = execute(&p, &w, InputKind::Alt, 0.02);
        assert!(m.output_match);
    }

    #[test]
    fn measure_all_runs_in_parallel() {
        let ws = vec![workloads::unepic::unepic(), workloads::rasta::rasta()];
        let ms = measure_all(&ws, OptLevel::O0, 0.05, InputKind::Default);
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m.output_match));
    }
}
