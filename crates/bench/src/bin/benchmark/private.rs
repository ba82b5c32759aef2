//! `run_private`: the paper's deployment. One operation is one run of a
//! memoized program with fresh private tables (`make_tables`, then
//! `vm::run_precompiled`) on one thread, with no shards, locks or queue.
//! Programs are planned with validation off, as the paper does. A cycle
//! is all seven programs × {default, alt} inputs × scale {0.02, 0.05};
//! the alternate inputs are Table 10's case, where live reuse differs
//! from the profile.

use std::hint::black_box;
use std::time::Instant;

use memo_runtime::TableStats;
use service::fingerprint_outcome;
use vm::{CostModel, RunConfig};

use crate::measure::{median, Gate, Tally, Timed};
use crate::plan::{programs, Plan, Schedule};
use crate::prepare::Prepared;
use crate::report::Sheet;
use crate::trace::Tracer;

/// Runs the workload; returns its metrics and correctness tally.
pub fn run(plan: &Plan, seconds: f64, tr: &mut Tracer) -> (Sheet, Tally) {
    let cost = CostModel::o0();
    let mut sheet = Sheet::default();
    let mut tally = Tally::default();
    let prep = Prepared::new(plan, false);
    let mut gate = Gate::new(1);

    // Set-up: parse, pipeline, lower and precompile every program.
    let mut setup_s = Vec::new();
    let mut built = Vec::new();
    for _ in 0..plan.setup_repeats() {
        gate.wait();
        let t0 = Instant::now();
        built = (0..prep.programs.len())
            .map(|slot| prep.build(slot, tr))
            .collect();
        for (slot, (_, module)) in built.iter().enumerate() {
            tr.span("vm::precompile", Some(prep.programs[slot]), None, |_| {
                black_box(vm::precompile(module, &cost));
            });
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    sheet.set("setup_s", median(&setup_s), setup_s.len());
    sheet.code_size(built.iter().map(|(o, _)| o));
    sheet.pipeline_counts(built.iter().map(|(o, _)| o));
    let pre: Vec<vm::Precompiled<'_>> = built
        .iter()
        .map(|(_, module)| vm::precompile(module, &cost))
        .collect();

    let mut timed = Timed::default();
    // Private tables start empty, so every run of a spec must charge the
    // same modelled cycles.
    let mut memo_cycles: Vec<Option<u64>> = vec![None; plan.specs.len()];
    let mut stats = TableStats::default();
    let mut schedule = Schedule::new(plan, seconds, tr.enabled());
    let mut op = 0u64;
    while let Some((k, traced)) = schedule.next_cycle() {
        tr.set_recording(traced);
        let cycle = timed.start_cycle(traced);
        let order = plan.cycle(k);
        let inputs: Vec<Vec<i64>> = order.iter().map(|&i| prep.inputs[i].clone()).collect();
        for (&i, input) in order.iter().zip(inputs) {
            let spec = plan.specs[i];
            let slot = prep.slot(spec.program);
            let (outcome, module) = &built[slot];
            let (p, id) = (Some(spec.program), Some(op));
            gate.wait();
            let t0 = Instant::now();
            let result = tr.span("op", p, id, |tr| {
                let tables = tr.span("ReuseOutcome::make_tables", p, id, |_| {
                    outcome.make_tables()
                });
                tr.span("vm::run_precompiled", p, id, |_| {
                    vm::run_precompiled(
                        module,
                        &pre[slot],
                        RunConfig {
                            cost: cost.clone(),
                            input,
                            tables,
                            ..RunConfig::default()
                        },
                    )
                })
            });
            let dt = t0.elapsed().as_secs_f64();
            cycle.latencies_ms.push(dt * 1e3);
            cycle.ops += 1;
            cycle.busy_s += dt;
            op += 1;

            let reference = prep.refs[i].expect("reference computed");
            let name = programs()[spec.program].name;
            tally.check(
                fingerprint_outcome(&result) == reference.fingerprint,
                || {
                    format!(
                        "{name} {:?} x{}: output differs from the reference",
                        spec.family, spec.scale
                    )
                },
            );
            if let Ok(out) = &result {
                let first = *memo_cycles[i].get_or_insert(out.cycles);
                if first != out.cycles {
                    tally.check(false, || {
                        format!(
                            "{name}: modelled cycles changed between runs ({first} vs {})",
                            out.cycles
                        )
                    });
                }
                if k < plan.counted_cycles() {
                    for t in &out.tables {
                        stats.merge(t.stats());
                    }
                }
            }
        }
    }
    tr.set_recording(true);
    sheet.timed(&timed);

    // Per-spec figures are deterministic; summarise them in spec order.
    let (mut speedups, mut memo_sum, mut ref_sum) = (Vec::new(), 0.0, 0.0);
    for (cycles, reference) in memo_cycles.iter().zip(&prep.refs) {
        if let (Some(memo), Some(r)) = (cycles, reference) {
            speedups.push(r.cycles as f64 / *memo as f64);
            memo_sum += *memo as f64;
            ref_sum += r.cycles as f64;
        }
    }
    let n = speedups.len();
    sheet.set("speedup_modelled", bench::harmonic_mean(&speedups), n);
    sheet.set("vm.cycles_memo", memo_sum / n.max(1) as f64, n);
    sheet.set("vm.cycles_ref", ref_sum / n.max(1) as f64, n);
    sheet.private_tables(&stats, plan.cycle(0).len());
    sheet.set("host.quiet_wait_s", gate.waited_s(), 1);
    (sheet, tally)
}
