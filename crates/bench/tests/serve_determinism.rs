//! Determinism of the concurrent reuse service (DESIGN.md §8e).
//!
//! Runs the seven-workload request mix through the service at 1, 2 and 4
//! workers — cold and warm store each — and asserts every request's
//! outcome fingerprint equals the sequential private-table baseline's.
//! Program results must be store-independent; only throughput, cycles
//! and hit rates may differ. A second check serves one batch under both
//! planning modes and requires red/green validation to cost fewer
//! modelled cycles than exact matching. CI runs this in release alongside
//! the engine differential test (debug runs of the determinism checks use
//! a smaller scale).

use bench::runner::{prepare_with, PrepareOpts};
use bench::serve::{run_serve, ServeOpts};
use service::{Request, ReuseService, ServiceConfig, ServiceProgram, ServiceReport};
use vm::OptLevel;
use workloads::Workload;

fn scale() -> f64 {
    if cfg!(debug_assertions) {
        0.03
    } else {
        0.1
    }
}

#[test]
fn seven_workload_mix_fingerprints_match_sequential_baseline() {
    let ws = workloads::main_seven();
    let opts = ServeOpts {
        scale: scale(),
        requests_per_workload: 2,
        ..ServeOpts::default()
    };
    let summary = run_serve(&ws, &opts, &[1, 2, 4]);
    assert_eq!(summary.requests, 14);
    let expected = summary.baseline.fingerprints();
    for p in &summary.points {
        assert_eq!(
            p.cold.fingerprints(),
            expected,
            "cold round diverged at {} workers",
            p.workers
        );
        assert_eq!(
            p.warm.fingerprints(),
            expected,
            "warm round diverged at {} workers",
            p.workers
        );
        assert!(p.matches_baseline);
        // Every request was served exactly once, by some worker.
        assert_eq!(p.cold.per_worker.iter().sum::<u64>(), 14);
        assert_eq!(p.warm.executed_fingerprints().len(), 14);
    }
}

#[test]
fn warm_shared_store_beats_private_tables_on_hit_rate() {
    let ws = workloads::main_seven();
    let opts = ServeOpts {
        scale: scale(),
        requests_per_workload: 2,
        ..ServeOpts::default()
    };
    let summary = run_serve(&ws, &opts, &[2]);
    assert!(summary.all_match());
    let point = &summary.points[0];
    // The baseline gives every request fresh private tables, so nothing
    // carries over between requests. The warm shared store has already
    // seen this exact batch once: every probe the cold round recorded is
    // now a hit, on top of the within-request reuse the baseline gets.
    assert!(
        point.warm.hit_ratio() > summary.baseline.hit_ratio(),
        "warm shared store {} <= private baseline {}",
        point.warm.hit_ratio(),
        summary.baseline.hit_ratio()
    );
    // And warming never lowers the hit rate relative to the same store
    // cold.
    assert!(point.warm.hit_ratio() >= point.cold.hit_ratio());
}

/// Total modelled cycles of a served round.
fn total_cycles(r: &ServiceReport) -> u64 {
    r.results.iter().map(|x| x.cycles).sum()
}

/// Input scale of the planning A/B, the same in debug and release builds
/// because which arm wins depends on it: at 0.1, fingerprinting G721's
/// constant tables on every probe would cost more than GNU Go's key
/// reduction saves, while at 0.05 it would not.
const AB_SCALE: f64 = 0.1;

/// Plans `ws` with or without validated dependencies, serves the
/// perturbed batch (default and alternate inputs in turn) cold then warm
/// on one worker, and returns (cold, warm, sequential baseline).
fn serve_planned(ws: &[Workload], validate: bool) -> (ServiceReport, ServiceReport, ServiceReport) {
    let programs = ws
        .iter()
        .map(|w| {
            let p = prepare_with(
                w,
                OptLevel::O0,
                AB_SCALE,
                &PrepareOpts {
                    validate,
                    ..PrepareOpts::default()
                },
            );
            ServiceProgram {
                name: w.name.to_string(),
                module: p.memo_module,
                specs: p.outcome.specs,
                policies: p.outcome.policies,
                table_deps: p.outcome.table_deps,
                spec_plan: p.outcome.spec_plan,
            }
        })
        .collect();
    let mut requests = Vec::new();
    for round in 0..4 {
        for (i, w) in ws.iter().enumerate() {
            let input = if round % 2 == 0 {
                (w.default_input)(AB_SCALE)
            } else {
                (w.alt_input)(AB_SCALE)
            };
            requests.push(Request::new(i, input));
        }
    }
    let svc = ReuseService::new(
        programs,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("planned specs are valid");
    let baseline = svc.run_private_sequential(&requests);
    let cold = svc.run(&requests);
    let warm = svc.run(&requests);
    (cold, warm, baseline)
}

/// Red/green validation must pay for itself in the paper's metric: on
/// the perturbed G721 + GNU Go batch, planning with validated
/// dependencies (GNU Go's board moves out of the key) must cost fewer
/// total modelled cycles than exact-match planning, with at least one
/// green hit and no answer changed. One worker keeps the store order,
/// and so every cycle count, deterministic.
#[test]
fn validation_beats_exact_match_planning_in_modelled_cycles() {
    let ws: Vec<Workload> = ["G721_encode", "G721_decode", "GNUGO"]
        .iter()
        .map(|n| workloads::by_name(n).expect("workload exists"))
        .collect();
    let ((exact_cold, exact_warm, exact_base), (valid_cold, valid_warm, valid_base)) =
        std::thread::scope(|s| {
            let exact = s.spawn(|| serve_planned(&ws, false));
            let valid = serve_planned(&ws, true);
            (exact.join().expect("exact-match arm"), valid)
        });
    let expected = exact_base.fingerprints();
    assert_eq!(
        valid_base.fingerprints(),
        expected,
        "plans changed an answer"
    );
    for (label, r) in [
        ("exact-match cold", &exact_cold),
        ("exact-match warm", &exact_warm),
        ("validated cold", &valid_cold),
        ("validated warm", &valid_warm),
    ] {
        assert_eq!(r.fingerprints(), expected, "{label} round diverged");
    }
    let green = valid_cold.store_delta.green_hits + valid_warm.store_delta.green_hits;
    assert!(green > 0, "validation promoted no green hit");
    let exact = total_cycles(&exact_cold) + total_cycles(&exact_warm);
    let valid = total_cycles(&valid_cold) + total_cycles(&valid_warm);
    assert!(
        valid < exact,
        "validation cost {valid} modelled cycles against exact matching's {exact}"
    );
}
