//! Everything made before timing starts: inputs, pipeline configurations
//! and the independent output check.
//!
//! Every operation's output is compared with the tree walker (the
//! executable spec) running the *untransformed* source program on the
//! same input, through `service::fingerprint_outcome`. The reference
//! never touches the reuse pipeline, so a wrong memoization shows up as a
//! fingerprint mismatch. Its modelled cycles are the numerator of
//! `speedup_modelled`.

use compreuse::{PipelineConfig, ReuseOutcome};
use service::fingerprint_outcome;
use vm::{CostModel, Engine, RunConfig};

use crate::measure::cpus;
use crate::plan::{programs, Plan};
use crate::trace::Tracer;

/// What the tree walker observed for one (program, input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Outcome fingerprint (printed output and return value).
    pub fingerprint: u64,
    /// Modelled cycles of the untransformed program.
    pub cycles: u64,
}

/// Runs the tree walker on each `(program, input)` job, on up to two
/// threads, and returns the references in job order.
///
/// # Panics
///
/// Panics if a bundled program fails the front end.
pub fn references(jobs: &[(usize, &[i64])]) -> Vec<Reference> {
    let modules: Vec<Option<vm::Module>> = programs()
        .iter()
        .enumerate()
        .map(|(p, w)| {
            jobs.iter()
                .any(|&(q, _)| q == p)
                .then(|| vm::lower(&w.checked()))
        })
        .collect();
    let threads = cpus().clamp(1, 2);
    let mut out = vec![
        Reference {
            fingerprint: 0,
            cycles: 0,
        };
        jobs.len()
    ];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let modules = &modules;
                s.spawn(move || {
                    (t..jobs.len())
                        .step_by(threads)
                        .map(|j| {
                            let (program, input) = jobs[j];
                            let module = modules[program].as_ref().expect("module compiled");
                            let result = vm::run(
                                module,
                                RunConfig {
                                    cost: CostModel::o0(),
                                    input: input.to_vec(),
                                    engine: Engine::Tree,
                                    ..RunConfig::default()
                                },
                            );
                            let reference = Reference {
                                fingerprint: fingerprint_outcome(&result),
                                cycles: result.as_ref().map_or(0, |o| o.cycles),
                            };
                            (j, reference)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (j, r) in h.join().expect("reference thread panicked") {
                out[j] = r;
            }
        }
    });
    out
}

/// The programs, inputs and references of a workload that runs
/// memoized programs (`run_private`, `serve_*`).
#[derive(Debug)]
pub struct Prepared {
    /// Indices into [`programs`] of the programs the run uses.
    pub programs: Vec<usize>,
    configs: Vec<PipelineConfig>,
    /// Generated input of each spec (empty for specs the run skips).
    pub inputs: Vec<Vec<i64>>,
    /// Reference of each spec the run uses.
    pub refs: Vec<Option<Reference>>,
}

impl Prepared {
    /// Generates every input and runs the references. The pipeline
    /// profiles on the default input at the plan's profile scale, with
    /// dependency validation on or off.
    pub fn new(plan: &Plan, validation: bool) -> Prepared {
        let used_programs = plan.used_programs();
        let configs = used_programs
            .iter()
            .map(|&p| PipelineConfig {
                profile_input: (programs()[p].default_input)(plan.profile_scale()),
                enable_validation: validation,
                ..PipelineConfig::default()
            })
            .collect();
        let used = plan.used_specs();
        let inputs: Vec<Vec<i64>> = plan
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                if used.contains(&i) {
                    spec.input()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let jobs: Vec<(usize, &[i64])> = used
            .iter()
            .map(|&i| (plan.specs[i].program, inputs[i].as_slice()))
            .collect();
        let mut refs = vec![None; plan.specs.len()];
        for (&i, r) in used.iter().zip(references(&jobs)) {
            refs[i] = Some(r);
        }
        Prepared {
            programs: used_programs,
            configs,
            inputs,
            refs,
        }
    }

    /// Position of `program` in [`Prepared::programs`].
    ///
    /// # Panics
    ///
    /// Panics if the run does not use `program`.
    pub fn slot(&self, program: usize) -> usize {
        self.programs
            .iter()
            .position(|&p| p == program)
            .unwrap_or_else(|| panic!("{} is not prepared", programs()[program].name))
    }

    /// Parses, plans and lowers the transformed program of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if a bundled program fails the front end or the pipeline.
    pub fn build(&self, slot: usize, tr: &mut Tracer) -> (ReuseOutcome, vm::Module) {
        let (w, p) = (&programs()[self.programs[slot]], Some(self.programs[slot]));
        let parsed = tr
            .span("minic::parse", p, None, |_| minic::parse(&w.source))
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", w.name));
        let outcome = tr
            .span("compreuse::run_pipeline", p, None, |_| {
                compreuse::run_pipeline(&parsed, &self.configs[slot])
            })
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", w.name));
        let module = tr.span("vm::lower", p, None, |_| vm::lower(&outcome.transformed));
        (outcome, module)
    }
}
