//! Engine equivalence contract: the tree-walker (the executable spec)
//! and the flat bytecode engine must be observationally identical: same
//! output text, same return value, same modelled cycles/energy, same
//! table statistics, and same profiler counts. Host wall-clock is the
//! only permitted difference. The matrix covers all seven main workloads
//! × both opt levels × both input families × validation on/off.

use bench::runner::{prepare_with, InputKind, PrepareOpts, Prepared};
use vm::{CostModel, Engine, OptLevel, RunConfig};
use workloads::Workload;

const SCALE: f64 = 0.05;

const ENGINES: [Engine; 2] = [Engine::Tree, Engine::Bytecode];

/// Deterministic fingerprint of a profiler state (hash maps are sorted
/// so iteration order cannot leak in).
fn profile_fingerprint(p: &vm::ProfileData) -> String {
    let mut s = String::new();
    for seg in &p.segs {
        let mut distinct: Vec<(Vec<u64>, u64)> = seg.patterns().collect();
        distinct.sort();
        let mut within: Vec<(u32, u64)> = seg.within.iter().map(|(&k, &c)| (k, c)).collect();
        within.sort();
        s.push_str(&format!(
            "{} n={} dip={} body_cycles={} distinct={distinct:?} within={within:?}\n",
            seg.name,
            seg.n,
            seg.dip(),
            seg.body_cycles
        ));
    }
    s
}

/// Deterministic fingerprint of everything a run observes.
fn outcome_fingerprint(o: &vm::Outcome) -> String {
    let stats: Vec<_> = o.tables.iter().map(|t| *t.stats()).collect();
    format!(
        "out={:?} ret={} cycles={} seconds={} energy={} table_words={} \
         calls={:?} loops={:?} branches={:?} tables={stats:?} profile={}",
        o.output_text(),
        o.ret,
        o.cycles,
        o.seconds.to_bits(),
        o.energy_joules.to_bits(),
        o.table_words,
        o.func_calls,
        o.loop_counts,
        o.branch_counts,
        o.profile
            .as_ref()
            .map(profile_fingerprint)
            .unwrap_or_default()
    )
}

fn run_engine(p: &Prepared, module: &vm::Module, input: &[i64], engine: Engine) -> vm::Outcome {
    vm::run(
        module,
        RunConfig {
            cost: CostModel::for_level(p.opt),
            input: input.to_vec(),
            tables: p.outcome.make_tables(),
            engine,
            ..RunConfig::default()
        },
    )
    .unwrap_or_else(|t| panic!("{} ({engine}): trapped: {t}", p.name))
}

/// Pipeline + baseline + memoized runs for one (workload, opt, validate)
/// cell: the engines must agree at every observation point. A cell whose
/// pipeline transformed a segment must also hit its tables on the
/// default inputs, so the agreement covers the memo hit path. Returns
/// whether the cell transformed anything.
fn check_workload(w: &Workload, opt: OptLevel, validate: bool) -> bool {
    let prep = |engine| {
        prepare_with(
            w,
            opt,
            SCALE,
            &PrepareOpts {
                engine,
                validate,
                ..PrepareOpts::default()
            },
        )
    };
    let preps: Vec<Prepared> = ENGINES.iter().map(|&e| prep(e)).collect();

    // The profiling runs inside the pipeline must have produced the same
    // value-set profiles, hence the same decisions and table plan —
    // across the engines.
    for pair in preps.windows(2) {
        assert_eq!(
            profile_fingerprint(&pair[0].outcome.profile),
            profile_fingerprint(&pair[1].outcome.profile),
            "{} {opt:?} validate={validate} ({}/{}): pipeline profiles diverged",
            w.name,
            pair[0].engine,
            pair[1].engine,
        );
        assert_eq!(
            pair[0].outcome.report.transformed, pair[1].outcome.report.transformed,
            "{} {opt:?} validate={validate}: decision counts diverged",
            w.name
        );
    }

    // Both engines run the same modules.
    let ps = &preps[1];
    let transformed = ps.outcome.report.transformed > 0;
    for kind in [InputKind::Default, InputKind::Alt] {
        let input = match kind {
            InputKind::Default => (w.default_input)(SCALE),
            InputKind::Alt => (w.alt_input)(SCALE),
        };
        for (label, module) in [("base", &ps.base_module), ("memo", &ps.memo_module)] {
            let outs: Vec<vm::Outcome> = ENGINES
                .iter()
                .map(|&e| run_engine(ps, module, &input, e))
                .collect();
            for (i, a) in outs.iter().enumerate() {
                for b in &outs[i + 1..] {
                    assert_eq!(
                        outcome_fingerprint(a),
                        outcome_fingerprint(b),
                        "{} {opt:?} {kind:?} validate={validate} {label}: engines diverged",
                        w.name
                    );
                }
            }
            if transformed && label == "memo" && kind == InputKind::Default {
                let hits: u64 = outs[0].tables.iter().map(|t| t.stats().hits).sum();
                assert!(
                    hits > 0,
                    "{} {opt:?} validate={validate}: transformed {} segments but the \
                     default-input run never hit a table",
                    w.name,
                    ps.outcome.report.transformed
                );
            }
        }
    }
    transformed
}

/// Green-promotion parity (§8g): plan with dependency validation, then
/// chain a cold run (default inputs, fresh tables) into a warm run
/// (alternate inputs, reusing the populated tables). The warm run probes
/// dependency-fingerprinted entries recorded cold — the configuration
/// where try-mark-green promotes entries — and both engines must
/// agree on every observable of both runs, green/stale statistics
/// included.
#[test]
fn engines_agree_on_green_promoted_hits() {
    let ws = [
        workloads::gnugo::gnugo(),
        workloads::unepic::unepic(),
        workloads::g721::encode(),
    ];
    let green_total = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in &ws {
            let green_total = &green_total;
            s.spawn(move || {
                let p = prepare_with(
                    w,
                    OptLevel::O0,
                    SCALE,
                    &PrepareOpts {
                        validate: true,
                        ..PrepareOpts::default()
                    },
                );
                let cold_input = (w.default_input)(SCALE);
                let warm_input = (w.alt_input)(SCALE);
                let chain = |engine| {
                    let cold = run_engine(&p, &p.memo_module, &cold_input, engine);
                    let warm = vm::run(
                        &p.memo_module,
                        RunConfig {
                            cost: CostModel::for_level(p.opt),
                            input: warm_input.clone(),
                            tables: cold.tables.clone(),
                            engine,
                            ..RunConfig::default()
                        },
                    )
                    .unwrap_or_else(|t| panic!("{} ({engine}): warm trapped: {t}", p.name));
                    (cold, warm)
                };
                let chains: Vec<(vm::Outcome, vm::Outcome)> =
                    ENGINES.iter().map(|&e| chain(e)).collect();
                for pair in chains.windows(2) {
                    assert_eq!(
                        outcome_fingerprint(&pair[0].0),
                        outcome_fingerprint(&pair[1].0),
                        "{}: engines diverged on the cold validated run",
                        w.name
                    );
                    assert_eq!(
                        outcome_fingerprint(&pair[0].1),
                        outcome_fingerprint(&pair[1].1),
                        "{}: engines diverged on the green-promoted warm run",
                        w.name
                    );
                }
                let (tree_cold, tree_warm) = &chains[0];
                let green: u64 = tree_cold
                    .tables
                    .iter()
                    .chain(&tree_warm.tables)
                    .map(|t| t.stats().green_hits)
                    .sum();
                green_total.fetch_add(green, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    assert!(
        green_total.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no workload promoted a single entry green"
    );
}

#[test]
fn engines_agree_on_all_workloads_both_opt_levels() {
    let ws = [
        workloads::g721::encode(),
        workloads::g721::decode(),
        workloads::mpeg2::encode(),
        workloads::mpeg2::decode(),
        workloads::rasta::rasta(),
        workloads::unepic::unepic(),
        workloads::gnugo::gnugo(),
    ];
    let transformed_cells = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in &ws {
            let transformed_cells = &transformed_cells;
            s.spawn(move || {
                for opt in [OptLevel::O0, OptLevel::O3] {
                    for validate in [false, true] {
                        if check_workload(w, opt, validate) {
                            transformed_cells.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    // Each transformed cell asserted its own table hits; at least one
    // cell must have transformed something for that to mean anything.
    assert!(
        transformed_cells.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no cell of the matrix transformed a segment"
    );
}
