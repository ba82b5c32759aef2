//! Chaos/soak layer for the reuse service (DESIGN.md §8f).
//!
//! Sweeps seeded fault plans × worker counts over the seven-workload
//! request mix and holds the service to the §8f contract under every
//! plan: no panic escapes, the four terminal statuses account for the
//! whole batch, and every request that *executes* — even one that blew
//! its deadline or retried through poisoned shards and queue rejections
//! — fingerprints identically to the fault-free sequential baseline.
//! Faults may cost latency and hit ratio; they may never change an
//! answer. The sweep must also bite: across it some request retries and
//! some shared-store probe is forced to miss, and a plan with a high
//! watermark sheds some request.
//!
//! CI runs this in release (debug runs shrink the scale and the plan
//! sweep, like `serve_determinism`).

use std::sync::Arc;

use bench::serve::{build_service, executed_matches, run_serve, ServeOpts};
use memo_runtime::{FailPoint, FaultPlan};

fn scale() -> f64 {
    if cfg!(debug_assertions) {
        0.03
    } else {
        0.1
    }
}

/// One fault plan of the sweep: seed, fire rate at every fail point,
/// and the queue's high watermark (`None`: no load shedding).
type Plan = (u64, f64, Option<usize>);

/// Plans for the sweep. Each seed drives an independent SplitMix64
/// stream, so the batch meets a different fault interleaving per seed.
/// The last plan is the harshest: seed 42 at rate 0.25 behind an 8-deep
/// high watermark, so faults and load shedding meet in one batch.
fn plans() -> Vec<Plan> {
    let seeds: &[u64] = if cfg!(debug_assertions) {
        &[3, 77]
    } else {
        &[3, 13, 42, 77, 1001, 0xC0FFEE]
    };
    let mut plans: Vec<Plan> = seeds.iter().map(|&seed| (seed, 0.15, None)).collect();
    plans.push((42, 0.25, Some(8)));
    plans
}

#[test]
fn seeded_fault_plans_never_change_an_executed_answer() {
    let ws = workloads::main_seven();
    let mut retries = 0;
    let mut probe_misses = 0;
    for (seed, rate, high_watermark) in plans() {
        let opts = ServeOpts {
            scale: scale(),
            requests_per_workload: 2,
            fault_seed: Some(seed),
            fault_rate: rate,
            high_watermark,
            ..ServeOpts::default()
        };
        let summary = run_serve(&ws, &opts, &[1, 2, 4]);
        let expected = summary.baseline.fingerprints();
        let mut shed_total = 0;
        for p in &summary.points {
            for (round, r) in [("cold", &p.cold), ("warm", &p.warm)] {
                assert!(
                    executed_matches(r, &expected),
                    "seed {seed}: {round} round at {} workers served a wrong answer",
                    p.workers
                );
                assert!(
                    r.accounting_holds(summary.requests),
                    "seed {seed}: {round} round at {} workers lost a request: \
                     statuses {:?} vs {} submitted",
                    p.workers,
                    r.status_counts(),
                    summary.requests
                );
                let faults = r.faults.as_ref().expect("plan installed");
                assert!(
                    faults.total_fired() > 0,
                    "seed {seed}: a {rate} plan fired nothing over {} requests",
                    summary.requests
                );
                let [_, shed, _, _] = r.status_counts();
                shed_total += shed;
                retries += r.retries;
                probe_misses += faults.fired_at(FailPoint::ProbeMiss);
            }
            assert!(p.matches_baseline && p.accounting_ok);
        }
        if let Some(high) = high_watermark {
            assert!(
                shed_total > 0,
                "seed {seed}: a {high}-deep watermark shed nothing"
            );
        }
    }
    // The plans must reach every recovery path, not only fire: a retry
    // (queue rejection or poisoned shard) and a forced probe miss on the
    // shared stores.
    assert!(retries > 0, "no request ever retried across the sweep");
    assert!(
        probe_misses > 0,
        "no probe-miss fault fired on the shared stores across the sweep"
    );
}

#[test]
fn deadlines_mark_requests_without_changing_their_outputs() {
    let ws = workloads::main_seven();
    let opts = ServeOpts {
        scale: scale(),
        requests_per_workload: 2,
        // Every workload costs far more than one modelled cycle, so the
        // whole batch blows this deadline — and must still compute the
        // baseline answers.
        deadline_cycles: Some(1),
        ..ServeOpts::default()
    };
    let summary = run_serve(&ws, &opts, &[2]);
    let expected = summary.baseline.fingerprints();
    let p = &summary.points[0];
    for r in [&p.cold, &p.warm] {
        let [ok, shed, deadline, exhausted] = r.status_counts();
        assert_eq!(ok, 0, "a one-cycle deadline let a request finish Ok");
        assert_eq!(shed + exhausted, 0, "no faults were installed");
        assert_eq!(deadline as usize, summary.requests);
        assert!(executed_matches(r, &expected));
        // The whole batch appears in the deadline-exceeded histogram.
        assert_eq!(
            r.latency_by_status[service::RequestStatus::DeadlineExceeded.index()].count(),
            summary.requests as u64
        );
    }
}

#[test]
fn watermark_shedding_accounts_for_every_request() {
    // One slow worker behind a tiny queue with a low high-watermark: the
    // producer must shed part of the batch, flip the stores to bypass,
    // and re-arm them once the queue drains — without touching any
    // executed answer.
    let ws = vec![workloads::unepic::unepic(), workloads::rasta::rasta()];
    let opts = ServeOpts {
        scale: scale(),
        requests_per_workload: 24,
        queue_capacity: 4,
        high_watermark: Some(2),
        ..ServeOpts::default()
    };
    let summary = run_serve(&ws, &opts, &[1]);
    let expected = summary.baseline.fingerprints();
    let p = &summary.points[0];
    let mut shed_total = 0;
    for r in [&p.cold, &p.warm] {
        assert!(executed_matches(r, &expected));
        assert!(r.accounting_holds(summary.requests));
        let [_, shed, _, _] = r.status_counts();
        shed_total += shed;
        assert_eq!(
            r.latency_by_status[service::RequestStatus::Shed.index()].count(),
            shed,
            "shed histogram disagrees with the shed count"
        );
    }
    assert!(
        shed_total > 0,
        "a 2-deep watermark over {} requests never shed",
        summary.requests
    );
    assert!(
        p.cold.degraded_flips + p.warm.degraded_flips > 0,
        "shedding never degraded the stores"
    );
}

#[test]
fn probe_miss_storm_only_costs_hit_ratio() {
    // Forcing *every* shared-store probe to miss makes the service
    // recompute everything — the worst cache weather possible. Outcomes
    // must not move. The plan is probe-only (rate 1.0 on the other fail
    // points would poison or reject the whole batch instead).
    let ws = workloads::main_seven();
    let opts = ServeOpts {
        scale: scale(),
        requests_per_workload: 2,
        ..ServeOpts::default()
    };
    let (mut svc, requests) = build_service(&ws, &opts, 2);
    let expected = svc.run_private_sequential(&requests).fingerprints();
    let plan = Arc::new(FaultPlan::new(9).with_rate(FailPoint::ProbeMiss, 1.0));
    svc.set_fault_plan(Some(plan.clone()));
    svc.reset_stores().expect("specs already built once");
    let cold = svc.run(&requests);
    let warm = svc.run(&requests);
    for r in [&cold, &warm] {
        assert!(executed_matches(r, &expected));
        assert!(r.accounting_holds(requests.len()));
        let [ok, ..] = r.status_counts();
        assert_eq!(ok as usize, requests.len(), "probe misses are not failures");
    }
    assert!(plan.fired(FailPoint::ProbeMiss) > 0);
    // With every probe skipped before it touches a shard, the warm round
    // cannot have registered a single store hit.
    assert_eq!(
        warm.store_delta.hits, 0,
        "a skipped probe still recorded a store hit"
    );
}
