//! The end-to-end compiler scheme (paper Fig. 1):
//!
//! ```text
//! source → [specialize §2.4] → enumerate segments → structural screen
//!        → input/output analysis (§2.1) → static O/C < 1 pre-filter
//!        → one instrumented profiling run
//!            ├ execution counts → frequency filter
//!            └ value-set profiles → survivors only
//!        → cost-benefit selection (formula 3) → nesting resolution (§2.3)
//!        → table merging (§2.5) → memoization transform (Fig. 2(b))
//! ```
//!
//! [`run_pipeline`] drives all stages and returns the transformed program,
//! the table specs to instantiate at run time, the profiling data (the
//! harness regenerates the paper's histogram figures from it), and a
//! [`Report`] with every decision (Tables 3 and 4).

use crate::costben::CostBenefit;
use crate::merge::{plan_tables, TableAssignment, TablePlan};
use crate::nesting;
use crate::specialize::{specialize, Specialization};
use crate::transform::{insert_memos, insert_probes, MemoSpec, ProbeSpec};
use analysis::deps::{plan_deps, shared_region_edges, DepEdge, DepPlan};
use analysis::granularity::{function_costs, seg_granularity, SegCost};
use analysis::inout::{seg_io, SegIo};
use analysis::segments::{self, Reject};
use analysis::{Analyses, SegKind, Segment};
use memo_runtime::TableSpec;
use minic::ast::{NodeId, Program};
use minic::sema::Checked;
use std::fmt;
use vm::{CostModel, ProfileData, RunConfig};

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Cost model the decisions are made for (the paper profiles the same
    /// binary it measures).
    pub cost: CostModel,
    /// Input stream for the profiling run, which yields both the
    /// execution counts and the value-set profiles.
    pub profile_input: Vec<i64>,
    /// Segments executed fewer times than this are dropped before
    /// cost-benefit (the paper's first stage: "filter out code segments
    /// which are executed infrequently").
    pub min_exec: u64,
    /// Optional per-table byte cap (Figures 14/15 sweep).
    pub bytes_cap: Option<usize>,
    /// Apply the §3.1 clean-up normalization (call splitting) before
    /// anything else. Off by default: the analyses here handle nested
    /// calls directly, so clean-up only changes the program shape, but it
    /// is available for fidelity with the paper's module list.
    pub enable_cleanup: bool,
    /// Expose sub-segments (the paper's stated future work): statement
    /// ranges inside bodies whose whole-body segment is illegal (I/O,
    /// escaping control) are wrapped into bare blocks and become
    /// candidates of their own. Off by default for paper fidelity.
    pub enable_subsegments: bool,
    /// Apply the §2.4 specialization pass.
    pub enable_specialization: bool,
    /// Apply the §2.5 table merging (ablation toggle).
    pub enable_merging: bool,
    /// Apply the §2.3 nesting resolution (ablation toggle; when off, every
    /// profitable segment is transformed).
    pub enable_nesting: bool,
    /// Cycle budget for the profiling run.
    pub max_profile_cycles: u64,
    /// Execution engine for the profiling run. All engines charge
    /// identical modelled cycles, so this only affects host wall-clock;
    /// the default ([`vm::Engine::Bytecode`]) is the fast one.
    pub engine: vm::Engine,
    /// Plan validated dependencies (red/green incremental reuse): large
    /// mutable global arrays read by ret-only segments move out of the
    /// hash key into fingerprinted dependency regions, and invariant
    /// global reads that some instruction writes are fingerprinted as a
    /// guard. When off, every segment keeps its full §2.1 exact-match key
    /// and no fingerprints are planned.
    pub enable_validation: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            cost: CostModel::o0(),
            profile_input: Vec::new(),
            min_exec: 32,
            bytes_cap: None,
            enable_cleanup: false,
            enable_subsegments: false,
            enable_specialization: true,
            enable_merging: true,
            enable_nesting: true,
            max_profile_cycles: u64::MAX,
            engine: vm::Engine::default(),
            enable_validation: true,
        }
    }
}

/// Why the pipeline failed.
#[derive(Debug)]
pub enum PipelineError {
    /// The program (or an intermediate transform) failed the front end.
    FrontEnd(String),
    /// The profiling run trapped.
    Trap(vm::Trap),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::FrontEnd(e) => write!(f, "front-end error: {e}"),
            PipelineError::Trap(t) => write!(f, "profiling run trapped: {t}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Everything known about one value-profiled segment.
#[derive(Debug, Clone)]
pub struct SegDecision {
    /// Segment name.
    pub name: String,
    /// Executions counted by the profiling run's call, loop and branch
    /// counters (the frequency filter's input).
    pub exec_count: u64,
    /// Static granularity estimate (cycles).
    pub static_c: f64,
    /// Static overhead bound (cycles).
    pub static_o: f64,
    /// Profiled execution instances `N`.
    pub n: u64,
    /// Distinct input patterns `N_ds`.
    pub dip: usize,
    /// Raw reuse rate `R = 1 − N_ds/N`.
    pub reuse_rate: f64,
    /// Reuse rate after collision deduction at the planned table size.
    pub effective_rate: f64,
    /// Measured granularity `C` (cycles/execution).
    pub measured_c: f64,
    /// Hashing overhead `O` (cycles/probe).
    pub overhead_o: f64,
    /// Expected gain per execution, `R·C − O`.
    pub gain: f64,
    /// Formula 3 verdict.
    pub profitable: bool,
    /// Survived nesting resolution and was transformed.
    pub chosen: bool,
    /// Table placement, when chosen.
    pub assignment: Option<TableAssignment>,
    /// Key width in words (after dependency-driven key reduction).
    pub key_words: usize,
    /// Output width in words.
    pub out_words: usize,
    /// Fingerprint words stored per entry (0 when the segment has no
    /// validated dependencies).
    pub fp_words: usize,
    /// Whether the segment depends on mutable regions outside its key: its
    /// validated hits are ones exact matching would have recomputed
    /// (counted as green hits).
    pub green: bool,
}

/// Pipeline statistics (the paper's Table 4 row for a program).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Segments enumerated ("Analyzed CS").
    pub analyzed: usize,
    /// Segments passing structure + interface + pre-filter + frequency,
    /// with a key readable on every execution ("Profiled CS").
    pub profiled: usize,
    /// Segments transformed ("Transformed CS").
    pub transformed: usize,
    /// Per-segment rejection log.
    pub rejects: Vec<(String, Reject)>,
    /// Specializations applied.
    pub specializations: Vec<Specialization>,
    /// Decisions for every profiled segment.
    pub decisions: Vec<SegDecision>,
    /// Number of merged (multi-segment) tables.
    pub merged_tables: usize,
    /// Total planned table bytes.
    pub total_table_bytes: usize,
    /// Shared-region edges of the segment dependency graph: pairs of
    /// transformed segments whose stored results depend on the same
    /// tracked global region (a write there can invalidate both).
    pub dep_edges: Vec<DepEdge>,
}

/// The pipeline's product.
#[derive(Debug)]
pub struct ReuseOutcome {
    /// The (possibly specialized) but untransformed program — the exact
    /// baseline the transformation was derived from.
    pub baseline: Checked,
    /// The memoized program.
    pub transformed: Checked,
    /// Table specs to instantiate for [`vm::RunConfig::tables`].
    pub specs: Vec<TableSpec>,
    /// Value-set profiles of every profiled segment (drives the paper's
    /// histogram figures).
    pub profile: ProfileData,
    /// Retired: the policies of the deleted run-time adaptive guard.
    /// Always empty ([`memo_runtime::GuardPolicy`] has no values); kept
    /// only so existing readers of the field still build.
    pub policies: Vec<memo_runtime::GuardPolicy>,
    /// Fingerprint words per table and slot (`table_deps[t][s]`, 0 for
    /// exact-match slots): instantiated tables get their per-slot
    /// fingerprint widths declared before traffic.
    pub table_deps: Vec<Vec<usize>>,
    /// Decision log.
    pub report: Report,
    /// Retired: the plan of the deleted specialized engine. Always
    /// `None` ([`vm::SpecPlan`] has no values); kept only so existing
    /// readers of the field still build.
    pub spec_plan: Option<vm::SpecPlan>,
}

impl ReuseOutcome {
    /// Instantiates the planned memo tables (see
    /// [`memo_runtime::MemoTable::try_from_plan`]).
    ///
    /// # Errors
    ///
    /// Returns [`memo_runtime::SpecError`] when a planned spec is
    /// structurally invalid.
    pub fn try_make_tables(&self) -> Result<Vec<memo_runtime::MemoTable>, memo_runtime::SpecError> {
        self.specs
            .iter()
            .enumerate()
            .map(|(t, spec)| memo_runtime::MemoTable::try_from_plan(spec, &self.table_deps[t]))
            .collect()
    }

    /// Instantiates the planned tables as a shareable, sharded store
    /// (`shards` lock shards per table, rounded up to a power of two) for
    /// concurrent probing through [`vm::RunConfig::shared_tables`].
    ///
    /// # Errors
    ///
    /// Returns [`memo_runtime::SpecError`] when a planned spec is
    /// structurally invalid.
    pub fn try_make_shared_tables(
        &self,
        shards: usize,
    ) -> Result<Vec<memo_runtime::ShardedTable>, memo_runtime::SpecError> {
        self.specs
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                memo_runtime::ShardedTable::try_from_plan(spec, &self.table_deps[t], shards)
            })
            .collect()
    }

    /// Instantiates the planned memo tables, panicking on an invalid spec.
    ///
    /// # Panics
    ///
    /// Panics if a planned spec is structurally invalid (the pipeline
    /// never plans one); binaries use [`ReuseOutcome::try_make_tables`]
    /// and surface the error instead.
    pub fn make_tables(&self) -> Vec<memo_runtime::MemoTable> {
        self.try_make_tables()
            .unwrap_or_else(|e| panic!("pipeline planned an invalid table spec: {e}"))
    }
}

/// Runs the complete computation-reuse pipeline on `program`.
///
/// # Errors
///
/// Returns [`PipelineError`] if the program fails the front end or the
/// profiling run traps. A probe's own key read never traps the run: the
/// segment is rejected with [`Reject::KeyReadTrap`] instead.
pub fn run_pipeline(
    program: &Program,
    config: &PipelineConfig,
) -> Result<ReuseOutcome, PipelineError> {
    let mut checked0 =
        minic::check(program.clone()).map_err(|e| PipelineError::FrontEnd(e.to_string()))?;

    // Stage −1: clean-up normalization (§3.1), when requested.
    if config.enable_cleanup {
        let (cleaned, _splits) = crate::cleanup::cleanup(&checked0);
        checked0 = minic::check(cleaned).map_err(|e| PipelineError::FrontEnd(e.to_string()))?;
    }

    // Stage 0: specialization (§2.4).
    let (checked, specializations) = if config.enable_specialization {
        let an0 = Analyses::build(&checked0);
        let (prog, reports) = specialize(&checked0, &an0);
        if reports.is_empty() {
            (checked0, reports)
        } else {
            let rechecked =
                minic::check(prog).map_err(|e| PipelineError::FrontEnd(e.to_string()))?;
            (rechecked, reports)
        }
    } else {
        (checked0, Vec::new())
    };

    // Stage 0.5: sub-segment exposure (paper §5 future work), optional.
    let checked = if config.enable_subsegments {
        let an_pre = Analyses::build(&checked);
        let (prog, wrapped) = crate::subsegment::expose(&checked, &an_pre);
        if wrapped > 0 {
            minic::check(prog).map_err(|e| PipelineError::FrontEnd(e.to_string()))?
        } else {
            checked
        }
    } else {
        checked
    };

    let an = Analyses::build(&checked);
    let mut report = Report {
        specializations,
        ..Report::default()
    };

    // Stage 1: enumerate and screen.
    let segs = segments::enumerate(&checked);
    report.analyzed = segs.len();
    let func_costs = function_costs(&checked, &an);
    let mut candidates: Vec<(Segment, SegIo, SegCost, DepPlan)> = Vec::new();
    for seg in segs {
        if let Err(r) = segments::check_structure(&checked, &an.cg, &an.io, &seg) {
            report.rejects.push((seg.name.clone(), r));
            continue;
        }
        let mut io = match seg_io(&checked, &an, &seg) {
            Ok(io) => io,
            Err(r) => {
                report.rejects.push((seg.name.clone(), r));
                continue;
            }
        };
        // Dependency planning: move qualifying mutable reads out of the
        // key and fingerprint written invariant reads. The reduced
        // interface is substituted into `io` so every later stage —
        // granularity, probes, value profiling, cost-benefit, and table
        // planning — sees the key the transformed program will hash.
        let plan = if config.enable_validation {
            let plan = plan_deps(&io);
            io.inputs = plan.key_inputs.clone();
            io.key_words = plan.key_words;
            plan
        } else {
            DepPlan {
                key_inputs: io.inputs.clone(),
                deps: Vec::new(),
                key_words: io.key_words,
            }
        };
        let cost = seg_granularity(&checked, &func_costs, &seg, io.key_words, io.out_words);
        if !cost.passes_prefilter() {
            report
                .rejects
                .push((seg.name.clone(), Reject::OverheadDominates));
            continue;
        }
        candidates.push((seg, io, cost, plan));
    }

    // Stage 2: one instrumented run does the paper's two profiling stages.
    // Every candidate is probed, and the run's own call/loop/branch
    // counters give the execution counts for the frequency filter. Probes
    // charge no modelled cycles and lower to no loops or branches, so the
    // counters, and each survivor's profile once the cold candidates are
    // dropped, equal what separate frequency and value-set runs measure.
    let module = vm::lower(&checked);
    let probes: Vec<ProbeSpec> = candidates
        .iter()
        .enumerate()
        .map(|(i, (seg, io, _, _))| ProbeSpec::for_segment(seg, i, io.inputs.clone()))
        .collect();
    let instrumented = minic::check(insert_probes(&checked.program, &probes))
        .map_err(|e| PipelineError::FrontEnd(e.to_string()))?;
    let imodule = vm::lower(&instrumented);
    assert_eq!(
        (imodule.loop_origins.len(), imodule.branch_origins.len()),
        (module.loop_origins.len(), module.branch_origins.len()),
        "probes must not add loops or branches"
    );
    let mut run = vm::run(
        &imodule,
        RunConfig {
            cost: config.cost.clone(),
            input: config.profile_input.clone(),
            max_cycles: config.max_profile_cycles,
            engine: config.engine,
            ..RunConfig::default()
        },
    )
    .map_err(PipelineError::Trap)?;
    let mut probed = run.profile.take().unwrap_or_default().segs;
    let counter = |origins: &[NodeId], id| origins.iter().position(|&o| o == id);
    let loop_count = |id| counter(&module.loop_origins, id).map_or(0, |i| run.loop_counts[i]);
    let exec_count = |seg: &Segment| -> u64 {
        match seg.kind {
            SegKind::FuncBody => run.func_calls[seg.func],
            SegKind::LoopBody(id) => loop_count(id),
            SegKind::IfBranch(id, then) => counter(&module.branch_origins, id)
                .map_or(0, |i| run.branch_counts[i * 2 + usize::from(!then)]),
            // A bare block runs as often as its innermost enclosing loop
            // iterates (or as often as the function is called).
            SegKind::BareBlock(id) => {
                crate::subsegment::enclosing_loop(&checked.program.funcs[seg.func].body, id)
                    .map_or(run.func_calls[seg.func], loop_count)
            }
        }
    };

    // The frequency filter, then the key-trap screen; the survivors'
    // profiles are renumbered densely and lose their nesting counts under
    // segments that were filtered out.
    let mut renumber: Vec<Option<u32>> = vec![None; candidates.len()];
    let mut survivors: Vec<(Segment, SegIo, SegCost, DepPlan, u64)> = Vec::new();
    let mut profile = ProfileData::default();
    for (i, (seg, io, cost, plan)) in candidates.into_iter().enumerate() {
        let count = exec_count(&seg);
        let sp = std::mem::take(&mut probed[i]);
        let reject = if count < config.min_exec {
            Reject::ColdCode
        } else if sp.key_traps > 0 {
            Reject::KeyReadTrap
        } else {
            renumber[i] = Some(survivors.len() as u32);
            survivors.push((seg, io, cost, plan, count));
            profile.segs.push(sp);
            continue;
        };
        report.rejects.push((seg.name, reject));
    }
    for sp in &mut profile.segs {
        sp.within = sp
            .within
            .drain()
            .filter_map(|(outer, c)| renumber[outer as usize].map(|o| (o, c)))
            .collect();
    }
    report.profiled = survivors.len();

    // Stage 4: cost-benefit selection (formula 3).
    let mut decisions: Vec<SegDecision> = Vec::new();
    let mut gains: Vec<f64> = Vec::new();
    let mut profitable: Vec<usize> = Vec::new();
    for (i, (seg, io, cost, plan, count)) in survivors.iter().enumerate() {
        let sp = &profile.segs[i];
        let mut planned_slots = TableSpec::recommended_slots(sp.dip());
        if let Some(cap) = config.bytes_cap {
            // The largest power of two that fits the cap (at least one).
            let per = memo_runtime::DirectTable::entry_bytes(io.key_words, io.out_words);
            planned_slots = planned_slots.min(1 << (cap / per).max(1).ilog2());
        }
        let effective = sp.effective_reuse_rate(planned_slots);
        let measured_c = sp.avg_cycles();
        // A validated segment pays the fingerprint probe on every access
        // (plus the record cost on misses, folded in as a probe-side
        // pessimism since formula 3 charges overhead per execution).
        let fp_overhead = if plan.fp_words() > 0 {
            (config.cost.fp_probe_cost(plan.fp_words())
                + config.cost.fp_record_cost(plan.fp_words())) as f64
        } else {
            0.0
        };
        let overhead_o = config.cost.memo_overhead(io.key_words, io.out_words) as f64 + fp_overhead;
        let cb = CostBenefit::new(measured_c, overhead_o, effective.clamp(0.0, 1.0));
        let gain = cb.gain();
        let is_profitable = cb.profitable();
        if is_profitable {
            profitable.push(i);
        }
        gains.push(gain);
        decisions.push(SegDecision {
            name: seg.name.clone(),
            exec_count: *count,
            static_c: cost.granularity_cycles,
            static_o: cost.overhead_cycles,
            n: sp.n,
            dip: sp.dip(),
            reuse_rate: sp.reuse_rate(),
            effective_rate: effective,
            measured_c,
            overhead_o,
            gain,
            profitable: is_profitable,
            chosen: false,
            assignment: None,
            key_words: io.key_words,
            out_words: io.out_words,
            fp_words: plan.fp_words(),
            green: plan.green(),
        });
    }

    // Stage 5: nesting resolution (§2.3).
    let chosen: Vec<usize> = if config.enable_nesting {
        nesting::resolve(&profile, &gains, &profitable).chosen
    } else {
        profitable.clone()
    };

    // Stage 6: table planning with merging (§2.5).
    let chosen_ios: Vec<&SegIo> = chosen.iter().map(|&i| &survivors[i].1).collect();
    let chosen_dips: Vec<usize> = chosen.iter().map(|&i| profile.segs[i].dip()).collect();
    let plan: TablePlan = if config.enable_merging {
        plan_tables(&chosen_ios, &chosen_dips, config.bytes_cap)
    } else {
        // Ablation: one table per segment.
        let mut specs = Vec::new();
        let mut assignments = Vec::new();
        for (io, &dip) in chosen_ios.iter().zip(&chosen_dips) {
            let single = plan_tables(&[io], &[dip], config.bytes_cap);
            assignments.push(TableAssignment {
                table: specs.len(),
                slot: 0,
            });
            specs.extend(single.specs);
        }
        TablePlan {
            specs,
            assignments,
            merged_tables: 0,
        }
    };

    // Stage 7: the memoization transform.
    let mut table_deps: Vec<Vec<usize>> = plan
        .specs
        .iter()
        .map(|spec| vec![0; spec.out_words.len()])
        .collect();
    let memos: Vec<MemoSpec> = chosen
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let (seg, io, _, dep_plan, _) = &survivors[i];
            let a = plan.assignments[k];
            decisions[i].chosen = true;
            decisions[i].assignment = Some(a);
            table_deps[a.table][a.slot] = dep_plan.fp_words();
            MemoSpec {
                func: seg.func,
                kind: seg.kind,
                name: seg.name.clone(),
                table: a.table,
                slot: a.slot,
                inputs: io.inputs.clone(),
                outputs: io.outputs.clone(),
                deps: dep_plan.deps.clone(),
                ret: io.ret,
            }
        })
        .collect();
    report.transformed = memos.len();
    report.merged_tables = plan.merged_tables;
    report.total_table_bytes = plan.total_bytes();
    report.dep_edges = shared_region_edges(
        &chosen
            .iter()
            .map(|&i| (survivors[i].0.name.clone(), survivors[i].3.clone()))
            .collect::<Vec<_>>(),
    );
    report.decisions = decisions;

    let transformed_prog = insert_memos(&checked.program, &memos);
    let transformed =
        minic::check(transformed_prog).map_err(|e| PipelineError::FrontEnd(e.to_string()))?;

    Ok(ReuseOutcome {
        baseline: checked,
        transformed,
        specs: plan.specs,
        profile,
        policies: Vec::new(),
        table_deps,
        report,
        spec_plan: None,
    })
}
