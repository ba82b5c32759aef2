//! `serve_shared` and `serve_light`: the reuse service with two workers,
//! eight shards and otherwise the default `ServiceConfig`, driven in a
//! closed loop: one caller submits a batch and waits for it before
//! sending the next. One untimed warm-up batch runs in set-up.
//!
//! `serve_shared` draws on G721_encode, G721_decode and GNUGO, which
//! probe the shared store tens of thousands of times per request, so the
//! sharded store's reads, writes and L1 do their work there.
//! `serve_light` draws on MPEG2_encode, MPEG2_decode, RASTA and UNEPIC,
//! which probe it a few thousand times per request: time goes to
//! interpreter compute and service dispatch, and a store change should
//! not move it.
//!
//! Throughput and latency cover the whole timed phase. The shared store
//! stays warm from cycle to cycle, so `speedup_modelled`, the modelled
//! cycles and the store and service counters are taken over the counted
//! cycles ([`Plan::counted_cycles`]), which every run serves in the same
//! order after the same warm-up.

use std::time::Instant;

use memo_runtime::TableStats;
use service::{Request, RequestStatus, ReuseService, ServiceConfig, ServiceProgram, ServiceReport};

use crate::measure::{median, ratio, Gate, Tally, Timed};
use crate::plan::{programs, Plan, Schedule, SERVE_SHARDS, SERVE_WORKERS};
use crate::prepare::Prepared;
use crate::report::Sheet;
use crate::trace::Tracer;

/// Runs the workload; returns its metrics and correctness tally.
pub fn run(plan: &Plan, seconds: f64, tr: &mut Tracer) -> (Sheet, Tally) {
    let mut sheet = Sheet::default();
    let mut tally = Tally::default();
    let prep = Prepared::new(plan, true);
    let mut gate = Gate::new(SERVE_WORKERS);
    let config = ServiceConfig {
        workers: SERVE_WORKERS,
        shards: SERVE_SHARDS,
        ..ServiceConfig::default()
    };
    let requests = |order: &[usize]| -> Vec<Request> {
        order
            .iter()
            .map(|&i| Request::new(prep.slot(plan.specs[i].program), prep.inputs[i].clone()))
            .collect()
    };

    // Set-up: parse, pipeline and lower every program, start the
    // service, and serve the warm-up batch.
    let warmup = plan.warmup();
    let mut setup_s = Vec::new();
    let mut svc = None;
    let mut outcomes = Vec::new();
    for _ in 0..plan.setup_repeats() {
        let batch = requests(&warmup);
        gate.wait();
        let t0 = Instant::now();
        outcomes.clear();
        let mut service_programs = Vec::new();
        for slot in 0..prep.programs.len() {
            let (outcome, module) = prep.build(slot, tr);
            service_programs.push(ServiceProgram {
                name: programs()[prep.programs[slot]].name.to_string(),
                module,
                specs: outcome.specs.clone(),
                policies: outcome.policies.clone(),
                table_deps: outcome.table_deps.clone(),
                spec_plan: outcome.spec_plan.clone(),
            });
            outcomes.push(outcome);
        }
        let service = tr
            .span("ReuseService::new", None, None, |_| {
                ReuseService::new(service_programs, config.clone())
            })
            .unwrap_or_else(|e| panic!("pipeline planned an invalid table spec: {e}"));
        let report = tr.span("ReuseService::run", None, None, |_| service.run(&batch));
        setup_s.push(t0.elapsed().as_secs_f64());
        check_batch(plan, &prep, &warmup, &report, &mut tally);
        svc = Some(service);
    }
    let svc = svc.expect("at least one set-up");
    sheet.set("setup_s", median(&setup_s), setup_s.len());
    sheet.code_size(outcomes.iter());
    sheet.pipeline_counts(outcomes.iter());

    let mut timed = Timed::default();
    let mut store = TableStats::default();
    let mut per_program = vec![TableStats::default(); prep.programs.len()];
    let mut latency_by_program: Vec<Vec<f64>> = vec![Vec::new(); programs().len()];
    let mut per_worker = [0u64; SERVE_WORKERS];
    let (mut retries, mut not_ok, mut exec_ns, mut batch_s) = (0u64, 0usize, 0u64, 0.0);
    let mut first_batches = 0usize;
    let (mut speedups, mut memo_sum, mut ref_sum) = (Vec::new(), 0.0, 0.0);
    let mut schedule = Schedule::new(plan, seconds, tr.enabled());
    let mut batch_id = 0u64;
    while let Some((k, traced)) = schedule.next_cycle() {
        tr.set_recording(traced);
        let cycle = timed.start_cycle(traced);
        let order = plan.cycle(k);
        for chunk in order.chunks(plan.batch_len()) {
            let batch = requests(chunk);
            gate.wait();
            let t0 = Instant::now();
            let report = tr.span("ReuseService::run", None, Some(batch_id), |_| {
                svc.run(&batch)
            });
            let dt = t0.elapsed().as_secs_f64();
            batch_id += 1;
            check_batch(plan, &prep, chunk, &report, &mut tally);

            cycle.ops += batch.len();
            cycle.busy_s += dt;
            for (r, &i) in report.results.iter().zip(chunk) {
                let latency_ms = r.latency_ns as f64 / 1e6;
                cycle.latencies_ms.push(latency_ms);
                latency_by_program[plan.specs[i].program].push(latency_ms);
            }
            if k >= plan.counted_cycles() {
                continue;
            }
            batch_s += dt;
            for (r, &i) in report.results.iter().zip(chunk) {
                exec_ns += r.latency_ns;
                if r.status == RequestStatus::Ok && r.cycles > 0 {
                    let reference = prep.refs[i].expect("reference computed");
                    speedups.push(reference.cycles as f64 / r.cycles as f64);
                    memo_sum += r.cycles as f64;
                    ref_sum += reference.cycles as f64;
                }
            }
            store.merge(&report.store_delta);
            for (total, delta) in per_program.iter_mut().zip(&report.per_program_delta) {
                total.merge(delta);
            }
            for (total, n) in per_worker.iter_mut().zip(&report.per_worker) {
                *total += n;
            }
            retries += report.retries;
            not_ok += report
                .results
                .iter()
                .filter(|r| r.status != RequestStatus::Ok)
                .count();
            first_batches += 1;
        }
    }
    tr.set_recording(true);
    sheet.timed(&timed);

    let requests_served = speedups.len();
    sheet.set(
        "speedup_modelled",
        bench::harmonic_mean(&speedups),
        requests_served,
    );
    let per_request = |x: f64| ratio(x, requests_served as f64);
    sheet.set("vm.cycles_memo", per_request(memo_sum), requests_served);
    sheet.set("vm.cycles_ref", per_request(ref_sum), requests_served);
    for (p, latencies) in latency_by_program.iter().enumerate() {
        if !latencies.is_empty() {
            sheet.set(
                format!("vm.run_ms_p50.{}", programs()[p].name),
                median(latencies),
                latencies.len(),
            );
        }
    }

    let n = requests_served;
    let s = &store;
    for (what, value) in [
        ("accesses", s.accesses as f64),
        ("hits", s.hits as f64),
        ("insertions", s.insertions as f64),
        ("evictions", s.evictions as f64),
        ("hit_ratio", s.hit_ratio()),
        (
            "insert_share",
            ratio(s.insertions as f64, s.accesses as f64),
        ),
        ("optimistic_hits", s.optimistic_hits as f64),
        ("optimistic_retries", s.optimistic_retries as f64),
        (
            "optimistic_share",
            ratio(s.optimistic_hits as f64, s.hits as f64),
        ),
        ("l1_hits", s.l1_hits as f64),
        ("l1_promotions", s.promotions as f64),
        ("l1_hit_share", ratio(s.l1_hits as f64, s.hits as f64)),
        ("admission_rejects", s.admission_rejects as f64),
        ("green_hits", s.green_hits as f64),
        ("stale_reds", s.stale_reds as f64),
        ("bytes", svc.store_bytes() as f64),
        ("accesses_per_request", per_request(s.accesses as f64)),
    ] {
        sheet.set(format!("memo_runtime.store.{what}"), value, n);
    }
    for (slot, stats) in per_program.iter().enumerate() {
        sheet.set(
            format!(
                "memo_runtime.store.hit_ratio.{}",
                programs()[prep.programs[slot]].name
            ),
            stats.hit_ratio(),
            n,
        );
    }

    let exec_s = exec_ns as f64 / 1e9;
    let served: u64 = per_worker.iter().sum();
    sheet.set("service.exec_ms_sum", exec_s * 1e3, n);
    sheet.set(
        "service.worker_idle_share",
        1.0 - ratio(exec_s, SERVE_WORKERS as f64 * batch_s),
        first_batches,
    );
    sheet.set(
        "service.per_worker_max_share",
        ratio(
            per_worker.iter().copied().max().unwrap_or(0) as f64,
            served as f64,
        ),
        n,
    );
    sheet.set("service.retries", retries as f64, n);
    sheet.set("service.not_ok", not_ok as f64, n);
    sheet.set("host.quiet_wait_s", gate.waited_s(), 1);
    (sheet, tally)
}

/// Checks every request of a batch: status `Ok` and the reference's
/// fingerprint.
fn check_batch(
    plan: &Plan,
    prep: &Prepared,
    order: &[usize],
    report: &ServiceReport,
    tally: &mut Tally,
) {
    for (r, &i) in report.results.iter().zip(order) {
        let spec = plan.specs[i];
        let reference = prep.refs[i].expect("reference computed");
        tally.check(
            r.status == RequestStatus::Ok && !r.trapped && r.fingerprint == reference.fingerprint,
            || {
                format!(
                    "{} {:?} x{}: status {}, output {} the reference",
                    programs()[spec.program].name,
                    spec.family,
                    spec.scale,
                    r.status.name(),
                    if r.fingerprint == reference.fingerprint {
                        "matches"
                    } else {
                        "differs from"
                    }
                )
            },
        );
    }
    if report.results.len() != order.len() {
        tally.check(false, || "the service lost requests".to_string());
    }
}
