//! `compile`: the seven programs through `minic::parse`,
//! `compreuse::run_pipeline` (default configuration), `vm::lower` of the
//! baseline and the transformed program, and `vm::precompile` of both,
//! in a seeded order. One operation is one program; one cycle (a sweep)
//! is all seven.
//!
//! The front end, the analyses, cost-benefit and the two profiling runs
//! do the work here; the memo tables and the service sit idle, so a store
//! or service change should not move this workload.
//!
//! Set-up makes the profiling and check inputs and runs the tree-walker
//! references on the check inputs. Making the inputs alone takes about a
//! millisecond, too short for `setup_s` to be timed steadily.
//!
//! Every sweep must reproduce the first sweep's decisions and
//! pretty-printed programs exactly. After the timed phase, each program
//! the last sweep produced runs once with private tables on a small
//! default input and must match the tree-walker reference; those runs
//! give `speedup_modelled` and the private-table counters.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use compreuse::{PipelineConfig, ReuseOutcome};
use memo_runtime::TableStats;
use service::fingerprint_outcome;
use vm::{CostModel, RunConfig};

use crate::measure::{median, Gate, Tally, Timed};
use crate::plan::{programs, Plan, Schedule, CHECK_SCALE, SMOKE_SCALE};
use crate::prepare::references;
use crate::report::Sheet;
use crate::trace::Tracer;

/// One program to compile and its pipeline configuration.
struct Unit {
    program: usize,
    config: PipelineConfig,
}

/// What a compile keeps for the check run.
struct Product {
    outcome: ReuseOutcome,
    memo: vm::Module,
}

/// Runs the workload; returns its metrics and correctness tally.
pub fn run(plan: &Plan, seconds: f64, tr: &mut Tracer) -> (Sheet, Tally) {
    let cost = CostModel::o0();
    let mut sheet = Sheet::default();
    let mut tally = Tally::default();
    let mut gate = Gate::new(1);

    // Set-up: make the profiling and check inputs, and run the tree
    // walker on the check inputs for the references.
    let check_scale = if plan.smoke { SMOKE_SCALE } else { CHECK_SCALE };
    let mut setup_s = Vec::new();
    let (mut units, mut check_inputs, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..plan.setup_repeats() {
        gate.wait();
        let t0 = Instant::now();
        units = plan
            .specs
            .iter()
            .map(|spec| Unit {
                program: spec.program,
                config: PipelineConfig {
                    profile_input: spec.input(),
                    ..PipelineConfig::default()
                },
            })
            .collect();
        check_inputs = units
            .iter()
            .map(|u| (programs()[u.program].default_input)(check_scale))
            .collect();
        let jobs: Vec<(usize, &[i64])> = units
            .iter()
            .zip(&check_inputs)
            .map(|(u, input)| (u.program, input.as_slice()))
            .collect();
        refs = references(&jobs);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    sheet.set("setup_s", median(&setup_s), setup_s.len());

    let mut timed = Timed::default();
    let mut first_digest: Vec<Option<u64>> = vec![None; units.len()];
    let mut last: Vec<Option<Product>> = units.iter().map(|_| None).collect();
    let mut schedule = Schedule::new(plan, seconds, tr.enabled());
    let mut op = 0u64;
    while let Some((k, traced)) = schedule.next_cycle() {
        tr.set_recording(traced);
        let cycle = timed.start_cycle(traced);
        for i in plan.cycle(k) {
            let unit = &units[i];
            gate.wait();
            let t0 = Instant::now();
            let product = tr.span("op", Some(unit.program), Some(op), |tr| {
                compile_one(unit, &cost, op, tr)
            });
            let dt = t0.elapsed().as_secs_f64();
            cycle.latencies_ms.push(dt * 1e3);
            cycle.ops += 1;
            cycle.busy_s += dt;
            op += 1;
            let name = programs()[unit.program].name;
            match product {
                Ok(p) => {
                    let d = digest(&p.outcome);
                    let expected = *first_digest[i].get_or_insert(d);
                    tally.check(d == expected, || {
                        format!("{name}: sweep {k} made other decisions or code than sweep 0")
                    });
                    last[i] = Some(p);
                }
                Err(e) => tally.check(false, || format!("{name}: {e}")),
            }
        }
    }
    tr.set_recording(true);
    sheet.timed(&timed);
    let sweeps = timed.primary();
    sheet.set(
        "compile_s",
        sweeps.median_by(|c| c.busy_s),
        sweeps.cycles.len(),
    );

    let products: Vec<(usize, &Product)> = last
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.as_ref().map(|p| (i, p)))
        .collect();
    sheet.code_size(products.iter().map(|(_, p)| &p.outcome));
    sheet.pipeline_counts(products.iter().map(|(_, p)| &p.outcome));

    let mut stats = TableStats::default();
    let mut speedups = Vec::new();
    let (mut memo_cycles, mut ref_cycles) = (0.0, 0.0);
    for &(i, p) in &products {
        let program = Some(units[i].program);
        let pre = vm::precompile(&p.memo, &cost);
        let tables = tr.span("ReuseOutcome::make_tables", program, None, |_| {
            p.outcome.make_tables()
        });
        let result = tr.span("vm::run_precompiled", program, None, |_| {
            vm::run_precompiled(
                &p.memo,
                &pre,
                RunConfig {
                    cost: cost.clone(),
                    input: check_inputs[i].clone(),
                    tables,
                    ..RunConfig::default()
                },
            )
        });
        tally.check(fingerprint_outcome(&result) == refs[i].fingerprint, || {
            format!(
                "{}: compiled program differs from the reference",
                programs()[units[i].program].name
            )
        });
        if let Ok(out) = &result {
            for t in &out.tables {
                stats.merge(t.stats());
            }
            speedups.push(refs[i].cycles as f64 / out.cycles as f64);
            memo_cycles += out.cycles as f64;
            ref_cycles += refs[i].cycles as f64;
        }
    }
    let runs = speedups.len();
    sheet.set("speedup_modelled", bench::harmonic_mean(&speedups), runs);
    sheet.set("vm.cycles_memo", memo_cycles / runs.max(1) as f64, runs);
    sheet.set("vm.cycles_ref", ref_cycles / runs.max(1) as f64, runs);
    sheet.private_tables(&stats, runs);
    sheet.set("host.quiet_wait_s", gate.waited_s(), 1);
    (sheet, tally)
}

/// One operation: parse, pipeline, lower both programs, precompile both.
fn compile_one(unit: &Unit, cost: &CostModel, op: u64, tr: &mut Tracer) -> Result<Product, String> {
    let (p, op) = (Some(unit.program), Some(op));
    let program = tr
        .span("minic::parse", p, op, |_| {
            minic::parse(&programs()[unit.program].source)
        })
        .map_err(|e| format!("parse failed: {e}"))?;
    let outcome = tr
        .span("compreuse::run_pipeline", p, op, |_| {
            compreuse::run_pipeline(&program, &unit.config)
        })
        .map_err(|e| format!("pipeline failed: {e}"))?;
    let base = tr.span("vm::lower", p, op, |_| vm::lower(&outcome.baseline));
    let memo = tr.span("vm::lower", p, op, |_| vm::lower(&outcome.transformed));
    tr.span("vm::precompile", p, op, |_| {
        black_box(vm::precompile(&base, cost));
    });
    tr.span("vm::precompile", p, op, |_| {
        black_box(vm::precompile(&memo, cost));
    });
    Ok(Product { outcome, memo })
}

/// Hash of the decisions and both pretty-printed programs.
fn digest(o: &ReuseOutcome) -> u64 {
    let r = &o.report;
    let mut h = DefaultHasher::new();
    // A reject is compared by segment and kind only: the text of an
    // unsupported-operand reject names whichever offending local the
    // analysis meets first, and that changes from run to run.
    for (segment, reason) in &r.rejects {
        segment.hash(&mut h);
        std::mem::discriminant(reason).hash(&mut h);
    }
    format!(
        "{:?} {:?} {:?} {} {} {} {} {}",
        r.decisions,
        r.specializations,
        r.dep_edges,
        r.analyzed,
        r.profiled,
        r.transformed,
        r.merged_tables,
        r.total_table_bytes
    )
    .hash(&mut h);
    minic::pretty::print_program(&o.baseline.program).hash(&mut h);
    minic::pretty::print_program(&o.transformed.program).hash(&mut h);
    h.finish()
}
