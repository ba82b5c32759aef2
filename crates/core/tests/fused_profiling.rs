//! Fused-profiling equivalence (release-gated): the pipeline measures
//! the paper's two profiling stages in one instrumented run. That run
//! must report exactly what the two stages measure on their own:
//!
//! 1. every execution count (decisions and `ColdCode` rejects) equals the
//!    call/loop/branch counters of an uninstrumented run of the baseline;
//! 2. every survivor's `n`, distinct key counts, body cycles and nesting
//!    counts equal a run that probes the survivors alone.
//!
//! The matrix covers the seven main workloads × {default, alt} profile
//! inputs × validation on/off × {tree, bytecode}, plus sub-segment
//! exposure on one workload and the O3 cost model on bytecode.

use analysis::deps::plan_deps;
use analysis::{Analyses, Reject, SegKind, Segment};
use compreuse::transform::{insert_probes, ProbeSpec};
use compreuse::{run_pipeline, PipelineConfig, ReuseOutcome};
use std::collections::HashMap;
use vm::{CostModel, Engine, OptLevel, RunConfig};
use workloads::Workload;

const SCALE: f64 = 0.05;

/// Deterministic text of one segment profile (hash maps sorted).
fn seg_fingerprint(seg: &vm::SegProfile) -> String {
    let mut distinct: Vec<(&[u64], u64)> = seg.distinct.iter().map(|(k, &c)| (&**k, c)).collect();
    distinct.sort();
    let mut within: Vec<(u32, u64)> = seg.within.iter().map(|(&k, &c)| (k, c)).collect();
    within.sort();
    format!(
        "{} n={} body_cycles={} key_traps={} distinct={distinct:?} within={within:?}",
        seg.name, seg.n, seg.body_cycles, seg.key_traps
    )
}

fn run_config(config: &PipelineConfig) -> RunConfig {
    RunConfig {
        cost: config.cost.clone(),
        input: config.profile_input.clone(),
        engine: config.engine,
        ..RunConfig::default()
    }
}

/// Execution count of `seg` from the counters of an uninstrumented run.
fn exec_count(
    outcome: &ReuseOutcome,
    module: &vm::Module,
    run: &vm::Outcome,
    seg: &Segment,
) -> u64 {
    let loop_count = |id| {
        module
            .loop_origins
            .iter()
            .position(|&o| o == id)
            .map_or(0, |i| run.loop_counts[i])
    };
    match seg.kind {
        SegKind::FuncBody => run.func_calls[seg.func],
        SegKind::LoopBody(id) => loop_count(id),
        SegKind::IfBranch(id, then) => module
            .branch_origins
            .iter()
            .position(|&o| o == id)
            .map_or(0, |i| run.branch_counts[i * 2 + usize::from(!then)]),
        SegKind::BareBlock(id) => compreuse::subsegment::enclosing_loop(
            &outcome.baseline.program.funcs[seg.func].body,
            id,
        )
        .map_or(run.func_calls[seg.func], loop_count),
    }
}

/// Runs the pipeline once under `config` and checks it against separate
/// frequency and survivors-only value-set runs.
fn check(label: &str, program: &minic::ast::Program, config: &PipelineConfig) -> ReuseOutcome {
    let outcome = run_pipeline(program, config).unwrap_or_else(|e| panic!("{label}: {e}"));
    let base = &outcome.baseline;
    let module = vm::lower(base);
    let freq = vm::run(&module, run_config(config)).expect("baseline run");
    let segs: HashMap<String, Segment> = analysis::segments::enumerate(base)
        .into_iter()
        .map(|s| (s.name.clone(), s))
        .collect();

    // 1. Execution counts against the uninstrumented counters.
    let report = &outcome.report;
    for d in &report.decisions {
        let expected = exec_count(&outcome, &module, &freq, &segs[&d.name]);
        assert_eq!(d.exec_count, expected, "{label}: {} exec_count", d.name);
        assert!(
            d.exec_count >= config.min_exec,
            "{label}: {} is cold",
            d.name
        );
    }
    for (name, r) in &report.rejects {
        if *r == Reject::ColdCode {
            let count = exec_count(&outcome, &module, &freq, &segs[name]);
            assert!(count < config.min_exec, "{label}: {name} ran {count} times");
        }
    }

    // 2. Survivor profiles against a survivors-only probed run.
    let an = Analyses::build(base);
    let probes: Vec<ProbeSpec> = report
        .decisions
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let seg = &segs[&d.name];
            let io = analysis::inout::seg_io(base, &an, seg).expect("survivor has an interface");
            let inputs = if config.enable_validation {
                plan_deps(&io).key_inputs
            } else {
                io.inputs
            };
            ProbeSpec::for_segment(seg, i, inputs)
        })
        .collect();
    let reference = if probes.is_empty() {
        vm::ProfileData::default()
    } else {
        let ichecked = minic::check(insert_probes(&base.program, &probes)).expect("probes check");
        vm::run(&vm::lower(&ichecked), run_config(config))
            .expect("reference run")
            .profile
            .expect("reference profile")
    };
    assert_eq!(
        outcome.profile.segs.len(),
        reference.segs.len(),
        "{label}: survivor count"
    );
    for (got, want) in outcome.profile.segs.iter().zip(&reference.segs) {
        assert_eq!(seg_fingerprint(got), seg_fingerprint(want), "{label}");
    }

    outcome
}

fn check_workload(w: &Workload) {
    let program = minic::parse(&w.source).expect("parse");
    for (family, input) in [
        ("default", (w.default_input)(SCALE)),
        ("alt", (w.alt_input)(SCALE)),
    ] {
        for validate in [false, true] {
            for engine in [Engine::Tree, Engine::Bytecode] {
                let config = PipelineConfig {
                    profile_input: input.clone(),
                    enable_validation: validate,
                    engine,
                    ..PipelineConfig::default()
                };
                let label = format!("{} {family} validate={validate} {engine}", w.name);
                check(&label, &program, &config);
            }
        }
    }
    let config = PipelineConfig {
        cost: CostModel::for_level(OptLevel::O3),
        profile_input: (w.default_input)(SCALE),
        ..PipelineConfig::default()
    };
    check(&format!("{} bytecode O3", w.name), &program, &config);
}

#[test]
fn one_profiling_run_measures_what_two_runs_measure() {
    if cfg!(debug_assertions) {
        // Dozens of interpreted profiling runs; a debug build would take
        // many minutes. CI runs this test with --release.
        return;
    }
    let ws = workloads::main_seven();
    std::thread::scope(|s| {
        for chunk in ws.chunks(ws.len().div_ceil(2)) {
            s.spawn(move || chunk.iter().for_each(check_workload));
        }
    });
}

#[test]
fn sub_segments_profile_in_the_same_run() {
    if cfg!(debug_assertions) {
        return;
    }
    let w = workloads::mpeg2::decode();
    let config = PipelineConfig {
        profile_input: (w.default_input)(SCALE),
        enable_subsegments: true,
        ..PipelineConfig::default()
    };
    let outcome = check(
        "MPEG2_decode subsegments",
        &minic::parse(&w.source).expect("parse"),
        &config,
    );
    assert!(
        outcome
            .report
            .decisions
            .iter()
            .any(|d| d.name.contains(":block#")),
        "no exposed sub-segment survived to be profiled"
    );
}

#[test]
fn cold_outer_segments_drop_out_of_nesting_counts() {
    // The outer loop body runs 5 times (cold) around a hot inner loop
    // that calls `f`; `rare` runs twice. The fused run probes all of
    // them, and the cold ones must vanish from `f`'s nesting counts.
    let src = "
        int f(int x) {
            int acc = 0;
            for (int i = 0; i < 20; i++) acc += x * i;
            return acc;
        }
        int rare(int x) {
            int acc = 0;
            for (int i = 0; i < 50; i++) acc += x * i;
            return acc;
        }
        int main() {
            int s = rare(1) + rare(2);
            for (int k = 0; k < 5; k++) {
                for (int j = 0; j < 100; j++) s += f(j % 7 + k);
            }
            print(s);
            return 0;
        }";
    let program = minic::parse(src).expect("parse");
    for engine in [Engine::Tree, Engine::Bytecode] {
        let config = PipelineConfig {
            engine,
            ..PipelineConfig::default()
        };
        let outcome = check(&format!("cold nesting {engine}"), &program, &config);
        let cold: Vec<&str> = outcome
            .report
            .rejects
            .iter()
            .filter(|(_, r)| *r == Reject::ColdCode)
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(cold.contains(&"rare:body"), "{cold:?}");
        assert_eq!(
            cold.len(),
            2,
            "rare's body and the outer loop body: {cold:?}"
        );
        let f = outcome
            .profile
            .segs
            .iter()
            .find(|s| s.name == "f:body")
            .expect("f is hot");
        assert_eq!(f.n, 500);
        assert_eq!(f.within.len(), 1, "only the hot inner loop encloses f");
    }
}
