//! Emits the JSON runtime-table metrics report for one workload: per-table
//! and per-segment accesses, hits, misses, collisions and evictions, the
//! table's forced-bypass counts (`bypassed_lookups`, `dropped_records`),
//! and the bytes the value-set profile's input patterns take
//! (`profile.raw_bytes` at 8 bytes a word, `profile.packed_bytes` as
//! held).
//!
//! ```text
//! cargo run --release -p bench --bin metrics -- [workload] [--scale f]
//!     [--opt o0|o3] [--alt] [--engine tree|bytecode]
//!     [--bench-engines] [--assert-faster]
//! ```
//!
//! `--alt` executes on the Table 10 alternate inputs (profiling always
//! uses the defaults), the scenario where live rates diverge from the
//! profile's predictions. It applies to the single-workload report only,
//! and `--serve --alt` is refused: every `--serve` batch already
//! alternates default and alternate inputs.
//!
//! Defaults: `G721_encode`, scale 0.25, O0, bytecode engine.
//!
//! `--bench-engines` replaces the metrics report with a host wall-clock
//! comparison of the two execution engines: the full `run_pipeline` +
//! measurement cycle is timed per workload under each engine (workload
//! name `all` sweeps the seven main programs). Modelled cycles and
//! energy are engine-independent — only host speed differs. With
//! `--assert-faster` the process exits nonzero if the bytecode engine is
//! not faster overall, which CI runs on `G721_encode`.
//!
//! `--serve` replaces the report with the request-serving benchmark: a
//! `service::ReuseService` over the seven main workloads (or the named
//! one), swept over `--sweep-workers` worker counts (default: just
//! `--workers N`), each from a cold shared store with a warm second
//! round. Extra flags: `--shards S` (lock shards per table),
//! `--requests R` (requests per workload per batch),
//! `--assert-serve-speedup` (exit nonzero unless the sweep's highest
//! worker count beats its lowest on warm wall-clock, or any fingerprint
//! diverges from the sequential baseline). A parallel speedup is only
//! measurable when the host grants at least as many CPUs as the highest
//! swept worker count; with fewer, the gate exits with the distinct
//! *inconclusive* status 3 — not success — so CI can tell "proved" from
//! "could not be measured here".
//!
//! ```text
//! cargo run --release -p bench --bin metrics -- --serve --workers 4
//! cargo run --release -p bench --bin metrics -- --serve \
//!     --sweep-workers 1,2,4 --shards 8 --assert-serve-speedup
//! ```
//!
//! Chaos flags (with `--serve`): `--fault-plan <seed>` installs a
//! deterministic fault plan firing every fail point at `--fault-rate`
//! (default 0.1); `--deadline-cycles N` and `--high-watermark N` set the
//! per-request cycle budget and the load-shedding queue depth.
//! `--assert-fault-equivalence` is the CI gate for DESIGN.md §8f: it
//! requires a fault plan, checks that every *executed* request
//! fingerprinted identically to the fault-free sequential baseline, that
//! the four terminal statuses account for the whole batch, that the plan
//! actually bit (faults fired, retries happened), and that the emitted
//! report round-trips through the `bench::json` parser; any failure
//! exits nonzero.
//!
//! ```text
//! cargo run --release -p bench --bin metrics -- --serve --fault-plan 42 \
//!     --fault-rate 0.15 --sweep-workers 1,4 --assert-fault-equivalence
//! ```
//!
//! Persistence flags (with `--serve`, DESIGN.md §8i): `--snapshot-out
//! <path>` writes the warm store snapshot there; `--snapshot-in <path>`
//! restores the restarted service from that file instead of the one just
//! written; either flag (or `--assert-warm-restart`) switches to the
//! warm-restart suite — a cold round, a warm round, a snapshot, a
//! simulated restart + restore, and a restored round, each reported as a
//! decile hit-ratio curve alongside the deterministic TinyLFU admission
//! A/B microbench. `--admission` enables sketch-gated admission in the
//! service itself. `--assert-warm-restart` is the CI gate: exit
//! nonzero unless the snapshot restored, every request fingerprinted
//! identically to the sequential baseline, the restored service reached
//! the warm first-decile hit ratio within its first 10% of requests, the
//! admission A/B was conclusive, and the report round-trips through the
//! `bench::json` parser.
//!
//! ```text
//! cargo run --release -p bench --bin metrics -- --serve \
//!     --snapshot-out store.snap --assert-warm-restart --admission
//! ```

use std::path::PathBuf;

use bench::reports::EngineBenchRow;
use bench::runner::{execute, execute_with_tables, prepare_with, InputKind, PrepareOpts};
use bench::serve::{run_serve, run_warm_restart, ServeOpts};
use workloads::Workload;

/// Exit status for a speedup gate that could not be measured on this
/// host (fewer CPUs than the highest swept worker count). Distinct from
/// success (0) and failure (1) so CI treats "unproven here" differently
/// from "disproven".
const EXIT_INCONCLUSIVE: i32 = 3;

/// Times one full prepare + execute cycle on `engine`, in milliseconds.
fn time_workload(w: &Workload, opt: vm::OptLevel, scale: f64, engine: vm::Engine) -> f64 {
    let opts = PrepareOpts {
        engine,
        ..PrepareOpts::default()
    };
    let start = std::time::Instant::now();
    let p = prepare_with(w, opt, scale, &opts);
    let m = execute(&p, w, InputKind::Default, scale);
    assert!(m.output_match, "{}: outputs diverged", w.name);
    start.elapsed().as_secs_f64() * 1e3
}

fn bench_engines(ws: &[Workload], opt: vm::OptLevel, scale: f64, assert_faster: bool) {
    let engines = [vm::Engine::Tree, vm::Engine::Bytecode];
    let rows: Vec<EngineBenchRow> = ws
        .iter()
        .map(|w| EngineBenchRow {
            name: w.name,
            engine_ms: engines
                .iter()
                .map(|&e| (e, time_workload(w, opt, scale, e)))
                .collect(),
        })
        .collect();
    println!("{}", bench::reports::engine_bench_json(scale, opt, &rows));
    if !assert_faster {
        return;
    }
    let totals = bench::reports::engine_totals(&rows);
    let (tree, bc) = (totals[0].1, totals[1].1);
    if bc >= tree {
        eprintln!("bytecode engine not faster: {bc:.1} ms vs tree {tree:.1} ms");
        std::process::exit(1);
    }
}

/// The `--assert-fault-equivalence` gate: executed-fingerprint
/// equivalence under an active fault plan, whole-batch status
/// accounting, proof the plan actually bit, and a JSON round-trip of the
/// emitted report.
fn assert_fault_equivalence(summary: &bench::serve::ServeSummary, report: &str) {
    let fail = |msg: &str| -> ! {
        eprintln!("serve: fault-equivalence gate failed: {msg}");
        std::process::exit(1);
    };
    if summary.opts.fault_seed.is_none() {
        fail("--assert-fault-equivalence requires --fault-plan <seed>");
    }
    if !summary.all_accounted() {
        fail("status counts do not sum to the submitted batch");
    }
    let mut retries = 0u64;
    let mut unserved = 0u64;
    let mut probe_misses = 0u64;
    let mut total_fired = 0u64;
    for p in &summary.points {
        for r in [&p.cold, &p.warm] {
            let [_, shed, _, exhausted] = r.status_counts();
            retries += r.retries;
            unserved += shed + exhausted;
            let c = r.faults.as_ref().unwrap_or_else(|| {
                fail("a sweep point ran without fault counters despite the plan")
            });
            probe_misses += c.fired_at(memo_runtime::FailPoint::ProbeMiss);
            total_fired += c.total_fired();
        }
    }
    if total_fired == 0 {
        fail("the fault plan never fired — rate too low for this batch");
    }
    if probe_misses == 0 {
        fail("no probe-miss faults fired on the shared stores");
    }
    if retries == 0 {
        fail("no request ever retried — queue/poison faults never bit");
    }
    // Without a watermark nothing is ever shed (retries absorb the queue
    // faults), so only hold the shed/exhausted counter to nonzero when
    // the degradation ladder is actually configured.
    if summary.opts.high_watermark.is_some() && unserved == 0 {
        fail("a high watermark was set but nothing was shed or exhausted");
    }
    let parsed = bench::json::parse(report)
        .unwrap_or_else(|e| fail(&format!("emitted report is not valid JSON: {e}")));
    let round_trip_ok = parsed.get("all_match").and_then(|v| v.as_bool()) == Some(true)
        && parsed.get("all_accounted").and_then(|v| v.as_bool()) == Some(true)
        && parsed
            .get("fault_plan")
            .and_then(|v| v.get("seed"))
            .and_then(|v| v.as_u64())
            == summary.opts.fault_seed
        && parsed
            .get("sweep")
            .and_then(|v| v.as_array())
            .map(<[_]>::len)
            == Some(summary.points.len());
    if !round_trip_ok {
        fail("round-tripped report disagrees with the in-memory summary");
    }
}

/// The `--serve` warm-restart mode (triggered by `--assert-warm-restart`,
/// `--snapshot-out`, or `--snapshot-in`): cold and warm decile rounds, a
/// snapshot, a simulated restart + restore, and a restored round —
/// bundled with the deterministic TinyLFU admission A/B microbench into
/// one JSON report (DESIGN.md §8i). With `--assert-warm-restart` the
/// process exits nonzero unless the snapshot restored, every answer
/// matched the sequential baseline, the restored service reached the
/// warm first-decile hit ratio within its first 10% of requests, the
/// admission A/B was conclusive (fewer evictions at equal memory), and
/// the emitted report round-trips through the JSON parser.
fn warm_restart_mode(
    ws: &[Workload],
    opts: &ServeOpts,
    workers: usize,
    snapshot_out: Option<&PathBuf>,
    snapshot_in: Option<&PathBuf>,
    assert_gate: bool,
) {
    let summary = run_warm_restart(
        ws,
        opts,
        workers,
        snapshot_out.map(PathBuf::as_path),
        snapshot_in.map(PathBuf::as_path),
    );
    let ab = bench::admission::default_admission_ab();
    let report = format!(
        "{{\"bench\":\"warm_restart_suite\",\"warm_restart\":{},\"admission\":{}}}",
        bench::reports::warm_restart_json(&summary),
        bench::reports::admission_ab_json(&ab),
    );
    println!("{report}");
    if !summary.matches_baseline {
        eprintln!("warm-restart: fingerprints diverged from the sequential baseline");
        std::process::exit(1);
    }
    if assert_gate {
        let fail = |msg: &str| -> ! {
            eprintln!("warm-restart: gate failed: {msg}");
            std::process::exit(1);
        };
        if !summary.restore_ok {
            fail("the snapshot did not restore (service cold-started)");
        }
        if !summary.gate_holds() {
            fail(&format!(
                "restored first decile {:.4} below warm first decile {:.4} (tolerance {})",
                summary.restored.first_decile(),
                summary.warm.first_decile(),
                summary.tolerance
            ));
        }
        if !ab.conclusive() {
            fail(&format!(
                "admission A/B inconclusive: on {} evictions / {} rejects, off {} evictions",
                ab.on.evictions, ab.on.admission_rejects, ab.off.evictions
            ));
        }
        let parsed = bench::json::parse(&report)
            .unwrap_or_else(|e| fail(&format!("emitted report is not valid JSON: {e}")));
        let round_trip_ok = parsed
            .get("warm_restart")
            .and_then(|v| v.get("gate_holds"))
            .and_then(|v| v.as_bool())
            == Some(true)
            && parsed
                .get("admission")
                .and_then(|v| v.get("conclusive"))
                .and_then(|v| v.as_bool())
                == Some(true);
        if !round_trip_ok {
            fail("round-tripped report disagrees with the in-memory summary");
        }
    }
}

/// Runs the serving benchmark and applies the optional CI gates.
fn serve_mode(
    ws: &[Workload],
    opts: &ServeOpts,
    sweep: &[usize],
    assert_speedup: bool,
    assert_faults: bool,
) {
    let summary = run_serve(ws, opts, sweep);
    let report = bench::reports::serve_report_json(&summary);
    println!("{report}");
    if !summary.all_match() {
        eprintln!("serve: fingerprints diverged from the sequential baseline");
        std::process::exit(1);
    }
    if assert_faults {
        assert_fault_equivalence(&summary, &report);
    }
    if assert_speedup {
        let lo = summary
            .points
            .iter()
            .min_by_key(|p| p.workers)
            .expect("at least one sweep point");
        let hi = summary
            .points
            .iter()
            .max_by_key(|p| p.workers)
            .expect("at least one sweep point");
        if hi.workers == lo.workers {
            eprintln!("--assert-serve-speedup needs a sweep with at least two worker counts");
            std::process::exit(1);
        }
        if summary.cpus < hi.workers {
            // The host cannot run hi.workers threads in parallel, so the
            // comparison proves nothing either way (determinism was still
            // checked above). Report the distinct inconclusive status.
            eprintln!(
                "serve: speedup gate inconclusive: {} cpus < {} workers",
                summary.cpus, hi.workers
            );
            std::process::exit(EXIT_INCONCLUSIVE);
        }
        if hi.warm.wall_seconds >= lo.warm.wall_seconds {
            eprintln!(
                "serve: {} workers not faster than {}: {:.4}s vs {:.4}s ({} cpus)",
                hi.workers, lo.workers, hi.warm.wall_seconds, lo.warm.wall_seconds, summary.cpus
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut name = "G721_encode".to_string();
    let mut name_set = false;
    let mut scale = 0.25f64;
    let mut opt = vm::OptLevel::O0;
    let mut input = InputKind::Default;
    let mut engine = vm::Engine::default();
    let mut bench_mode = false;
    let mut assert_faster = false;
    let mut serve = false;
    let mut workers = 4usize;
    let mut shards = 8usize;
    let mut requests_per_workload = 4usize;
    let mut sweep_workers: Option<Vec<usize>> = None;
    let mut assert_serve_speedup = false;
    let mut fault_seed: Option<u64> = None;
    let mut fault_rate = 0.1f64;
    let mut deadline_cycles: Option<u64> = None;
    let mut high_watermark: Option<usize> = None;
    let mut assert_fault_equiv = false;
    let mut snapshot_out: Option<PathBuf> = None;
    let mut snapshot_in: Option<PathBuf> = None;
    let mut assert_warm_restart = false;
    let mut admission = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--serve" => serve = true,
            "--workers" => {
                i += 1;
                workers = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--workers needs a positive integer"));
            }
            "--shards" => {
                i += 1;
                shards = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--shards needs a positive integer"));
            }
            "--requests" => {
                i += 1;
                requests_per_workload = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--requests needs a positive integer"));
            }
            "--sweep-workers" => {
                i += 1;
                let list = argv
                    .get(i)
                    .map(|s| {
                        s.split(',')
                            .map(|t| {
                                t.trim()
                                    .parse::<usize>()
                                    .unwrap_or_else(|_| panic!("--sweep-workers: bad count {t:?}"))
                            })
                            .collect::<Vec<usize>>()
                    })
                    .filter(|l| !l.is_empty())
                    .unwrap_or_else(|| panic!("--sweep-workers needs a comma-separated list"));
                sweep_workers = Some(list);
            }
            "--assert-serve-speedup" => assert_serve_speedup = true,
            "--fault-plan" => {
                i += 1;
                fault_seed = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--fault-plan needs a seed (u64)")),
                );
            }
            "--fault-rate" => {
                i += 1;
                fault_rate = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| panic!("--fault-rate needs a number in [0, 1]"));
            }
            "--deadline-cycles" => {
                i += 1;
                deadline_cycles = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--deadline-cycles needs a positive integer")),
                );
            }
            "--high-watermark" => {
                i += 1;
                high_watermark = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--high-watermark needs a positive integer")),
                );
            }
            "--assert-fault-equivalence" => assert_fault_equiv = true,
            "--snapshot-out" => {
                i += 1;
                snapshot_out = Some(PathBuf::from(
                    argv.get(i)
                        .unwrap_or_else(|| panic!("--snapshot-out needs a path")),
                ));
            }
            "--snapshot-in" => {
                i += 1;
                snapshot_in = Some(PathBuf::from(
                    argv.get(i)
                        .unwrap_or_else(|| panic!("--snapshot-in needs a path")),
                ));
            }
            "--assert-warm-restart" => assert_warm_restart = true,
            "--admission" => admission = true,
            "--scale" => {
                i += 1;
                scale = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--scale needs a number"));
            }
            "--opt" => {
                i += 1;
                opt = match argv.get(i).map(String::as_str) {
                    Some("o0") | Some("O0") => vm::OptLevel::O0,
                    Some("o3") | Some("O3") => vm::OptLevel::O3,
                    other => panic!("--opt needs o0 or o3, got {other:?}"),
                };
            }
            "--engine" => {
                i += 1;
                engine = match argv.get(i).map(String::as_str) {
                    Some("tree") => vm::Engine::Tree,
                    Some("bytecode") => vm::Engine::Bytecode,
                    other => panic!("--engine needs tree or bytecode, got {other:?}"),
                };
            }
            "--alt" => input = InputKind::Alt,
            "--bench-engines" => bench_mode = true,
            "--assert-faster" => assert_faster = true,
            w if !w.starts_with('-') => {
                name = w.to_string();
                name_set = true;
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    if serve {
        assert!(
            input == InputKind::Default,
            "--alt does not apply to --serve: every serve batch alternates input families"
        );
        let ws = if !name_set || name == "all" {
            // --serve defaults to the full seven-workload mix; a named
            // workload restricts the batch to it.
            workloads::main_seven()
        } else {
            vec![workloads::by_name(&name).unwrap_or_else(|| panic!("unknown workload {name}"))]
        };
        let opts = ServeOpts {
            scale,
            opt,
            shards,
            requests_per_workload,
            fault_seed,
            fault_rate,
            deadline_cycles,
            high_watermark,
            admission,
            ..ServeOpts::default()
        };
        let sweep = sweep_workers.unwrap_or_else(|| vec![workers]);
        if assert_warm_restart || snapshot_out.is_some() || snapshot_in.is_some() {
            // --serve with snapshot flags: the warm-restart suite — cold
            // vs warm vs snapshot-restored decile curves plus the TinyLFU
            // admission A/B, with the CI gate behind --assert-warm-restart.
            warm_restart_mode(
                &ws,
                &opts,
                workers,
                snapshot_out.as_ref(),
                snapshot_in.as_ref(),
                assert_warm_restart,
            );
        } else {
            serve_mode(&ws, &opts, &sweep, assert_serve_speedup, assert_fault_equiv);
        }
        return;
    }

    if bench_mode {
        let ws = if name == "all" {
            workloads::main_seven()
        } else {
            vec![workloads::by_name(&name).unwrap_or_else(|| panic!("unknown workload {name}"))]
        };
        bench_engines(&ws, opt, scale, assert_faster);
        return;
    }

    let w = workloads::by_name(&name).unwrap_or_else(|| {
        let names: Vec<&str> = workloads::all_eleven().iter().map(|w| w.name).collect();
        panic!("unknown workload {name}; one of: {}", names.join(", "))
    });
    let p = prepare_with(
        &w,
        opt,
        scale,
        &PrepareOpts {
            engine,
            ..PrepareOpts::default()
        },
    );
    let tables = p.outcome.try_make_tables().unwrap_or_else(|e| {
        eprintln!("metrics: invalid table spec: {e}");
        std::process::exit(1);
    });
    let m = execute_with_tables(&p, &w, input, scale, tables);
    assert!(m.output_match, "{name}: outputs diverged");
    println!("{}", bench::reports::metrics_report_json(&p, &m));
}
