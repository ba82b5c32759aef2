//! Cross-crate end-to-end tests: source text → pipeline → execution,
//! asserting semantic preservation on adversarial programs and the
//! paper-level invariants on the bundled workloads.

use compreuse::{run_pipeline, PipelineConfig};
use vm::{CostModel, OptLevel, RunConfig};

/// Runs the pipeline and both program versions; asserts identical output;
/// returns (baseline cycles, memo cycles, transformed count).
fn roundtrip(src: &str, input: Vec<i64>) -> (u64, u64, usize) {
    let program = minic::parse(src).expect("parse");
    let outcome = run_pipeline(
        &program,
        &PipelineConfig {
            profile_input: input.clone(),
            ..PipelineConfig::default()
        },
    )
    .expect("pipeline");
    let base = vm::run(
        &vm::lower(&outcome.baseline),
        RunConfig {
            input: input.clone(),
            ..RunConfig::default()
        },
    )
    .expect("baseline");
    let memo = vm::run(
        &vm::lower(&outcome.transformed),
        RunConfig {
            input,
            tables: outcome.make_tables(),
            ..RunConfig::default()
        },
    )
    .expect("memoized");
    assert_eq!(
        base.output_text(),
        memo.output_text(),
        "transformation must preserve semantics:\n{src}"
    );
    (base.cycles, memo.cycles, outcome.report.transformed)
}

#[test]
fn memoized_function_with_internal_control_flow() {
    // Multiple returns, breaks, nested loops inside the reused body.
    let src = "
        int classify(int x) {
            if (x < 0) return -1;
            int acc = 0;
            for (int i = 0; i < 30; i++) {
                acc += (x + i) % 7;
                if (acc > 50) break;
            }
            while (acc > 9) acc -= 9;
            return acc;
        }
        int main() {
            int s = 0;
            while (!eof()) s = (s + classify(input() % 40 - 5)) & 65535;
            print(s);
            return 0;
        }";
    let input: Vec<i64> = (0..20_000).map(|i| i % 37).collect();
    let (b, m, t) = roundtrip(src, input);
    assert!(t >= 1);
    assert!(m < b);
}

#[test]
fn segment_reading_and_writing_same_global() {
    // An accumulator-style global is both input and output of the segment.
    let src = "
        int state = 3;
        int crank(int x) {
            int t = state;
            for (int i = 0; i < 25; i++) t = (t * 31 + x) % 65536;
            state = t;
            return t & 255;
        }
        int main() {
            int s = 0;
            while (!eof()) s = (s + crank(input() % 4)) & 1048575;
            print(s);
            print(state);
            return 0;
        }";
    // state varies, so (x, state) pairs rarely repeat → likely no
    // transform; semantics must hold regardless.
    let input: Vec<i64> = (0..5_000).map(|i| i % 4).collect();
    roundtrip(src, input);
}

#[test]
fn float_segment_bit_exact_replay() {
    // Float outputs must be restored bit-exactly from the table.
    let src = "
        float lut(int x) {
            float acc = 0.5;
            for (int i = 0; i < 40; i++) {
                acc = acc * 1.0009765625 + (float)x * 0.015625;
            }
            return acc;
        }
        int main() {
            float total = 0.0;
            while (!eof()) total = total + lut(input() % 12);
            print(total);
            return 0;
        }";
    let input: Vec<i64> = (0..30_000).map(|i| (i * 5) % 12).collect();
    let (b, m, t) = roundtrip(src, input);
    assert!(t >= 1, "12 DIPs over 30k calls must be memoized");
    assert!(m < b);
}

#[test]
fn recursive_function_memoizes_safely() {
    let src = "
        int weird(int n) {
            if (n < 2) return n + 1;
            int acc = 0;
            for (int i = 0; i < 12; i++) acc += (n + i) % 9;
            return acc + weird(n - 3) % 16;
        }
        int main() {
            int s = 0;
            while (!eof()) s = (s + weird(input() % 30)) & 1048575;
            print(s);
            return 0;
        }";
    let input: Vec<i64> = (0..8_000).map(|i| i % 30).collect();
    let (b, m, _) = roundtrip(src, input);
    assert!(m <= b, "memoized recursion must not slow down: {m} vs {b}");
}

#[test]
fn block_in_block_out_through_pointers() {
    let src = "
        int buf[16];
        int mix[16];
        void stir(int *p) {
            for (int r = 0; r < 6; r++) {
                for (int i = 0; i < 16; i++) {
                    p[i] = (p[i] * 5 + p[(i + 1) % 16]) % 4096;
                }
            }
        }
        int main() {
            int s = 0;
            while (!eof()) {
                for (int i = 0; i < 16; i++) buf[i] = input() % 8;
                stir(buf);
                for (int i = 0; i < 16; i++) s = (s + buf[i]) & 1048575;
            }
            print(s);
            return 0;
        }";
    // Blocks drawn from a tiny alphabet repeat heavily.
    let input: Vec<i64> = (0..3_000 * 16).map(|i| (i / 16) % 5).collect();
    let (b, m, t) = roundtrip(src, input);
    assert_eq!(t, 1, "stir's body is the reused block segment");
    assert!(m < b);
    // `mix` exists to ensure unrelated globals are untouched by analysis.
    let _ = ();
}

#[test]
fn workloads_preserve_semantics_under_both_cost_models() {
    for w in workloads::all_eleven() {
        let input = (w.default_input)(0.01);
        let program = minic::parse(&w.source).expect("parse");
        for opt in [OptLevel::O0, OptLevel::O3] {
            let outcome = run_pipeline(
                &program,
                &PipelineConfig {
                    cost: CostModel::for_level(opt),
                    profile_input: input.clone(),
                    ..PipelineConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("{} pipeline failed: {e}", w.name));
            let base = vm::run(
                &vm::lower(&outcome.baseline),
                RunConfig {
                    cost: CostModel::for_level(opt),
                    input: input.clone(),
                    ..RunConfig::default()
                },
            )
            .expect("baseline");
            let memo = vm::run(
                &vm::lower(&outcome.transformed),
                RunConfig {
                    cost: CostModel::for_level(opt),
                    input: input.clone(),
                    tables: outcome.make_tables(),
                    ..RunConfig::default()
                },
            )
            .expect("memoized");
            assert_eq!(
                base.output_text(),
                memo.output_text(),
                "{} diverged under {opt}",
                w.name
            );
        }
    }
}

#[test]
fn transformation_decided_on_one_input_is_safe_on_another() {
    // Profile on default inputs, run on alternates (the Table 10
    // scenario) — decisions may be stale but never unsound.
    for w in workloads::main_seven() {
        let profile_input = (w.default_input)(0.01);
        let run_input = (w.alt_input)(0.01);
        let program = minic::parse(&w.source).expect("parse");
        let outcome = run_pipeline(
            &program,
            &PipelineConfig {
                profile_input,
                ..PipelineConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{} pipeline failed: {e}", w.name));
        let base = vm::run(
            &vm::lower(&outcome.baseline),
            RunConfig {
                input: run_input.clone(),
                ..RunConfig::default()
            },
        )
        .expect("baseline");
        let memo = vm::run(
            &vm::lower(&outcome.transformed),
            RunConfig {
                input: run_input,
                tables: outcome.make_tables(),
                ..RunConfig::default()
            },
        )
        .expect("memoized");
        assert_eq!(
            base.output_text(),
            memo.output_text(),
            "{} diverged on alternate inputs",
            w.name
        );
    }
}

#[test]
fn tiny_tables_change_performance_not_semantics() {
    // A 1-slot table thrashes but must stay correct.
    let w = workloads::unepic::unepic();
    let input = (w.default_input)(0.02);
    let program = minic::parse(&w.source).expect("parse");
    let outcome = run_pipeline(
        &program,
        &PipelineConfig {
            profile_input: input.clone(),
            bytes_cap: Some(1),
            ..PipelineConfig::default()
        },
    )
    .expect("pipeline");
    let base = vm::run(
        &vm::lower(&outcome.baseline),
        RunConfig {
            input: input.clone(),
            ..RunConfig::default()
        },
    )
    .expect("baseline");
    let memo = vm::run(
        &vm::lower(&outcome.transformed),
        RunConfig {
            input,
            tables: outcome.make_tables(),
            ..RunConfig::default()
        },
    )
    .expect("memoized");
    assert_eq!(base.output_text(), memo.output_text());
    if let Some(t) = memo.tables.first() {
        assert!(t.bytes() < 256, "cap respected: {}", t.bytes());
    }
}

/// A table `main` fills from input is invariant for `score` (so §2.1
/// drops it from the key) but differs between runs. Validation guards
/// it: a warm run over shared tables recorded by a run with other table
/// contents must recompute (stale reds) and print what a run from
/// scratch prints.
#[test]
fn input_filled_table_guard_fires_on_a_warm_run_with_new_contents() {
    let src = "
        int tab[16];
        int score(int x) {
            int i; int s; s = 0;
            for (i = 0; i < 16; i++) { s = s + tab[i] * (x + i); }
            return s;
        }
        int main() {
            int i; int total; total = 0;
            for (i = 0; i < 16; i++) { tab[i] = input(); }
            while (!eof()) { total = total + score(input() % 8); }
            print(total);
            return 0;
        }";
    let input = |tab_base: i64| -> Vec<i64> {
        let mut v: Vec<i64> = (0..16).map(|i| tab_base + 3 * i).collect();
        v.extend((0..400).map(|i| i * 7));
        v
    };
    let (cold_input, warm_input) = (input(1), input(40));
    let program = minic::parse(src).expect("parse");
    let outcome = run_pipeline(
        &program,
        &PipelineConfig {
            profile_input: cold_input.clone(),
            enable_validation: true,
            ..PipelineConfig::default()
        },
    )
    .expect("pipeline");
    let score = outcome
        .report
        .decisions
        .iter()
        .find(|d| d.name == "score:body")
        .expect("score is a candidate");
    assert!(score.chosen, "score must be memoized");
    assert_eq!(score.fp_words, 2, "tab is guarded by one fingerprint");
    assert!(!score.green, "tab is invariant, not a mutable dependency");

    let module = vm::lower(&outcome.transformed);
    let shared = std::sync::Arc::new(outcome.try_make_shared_tables(4).expect("valid specs"));
    let run_shared = |input: Vec<i64>| {
        vm::run(
            &module,
            RunConfig {
                input,
                shared_tables: Some(std::sync::Arc::clone(&shared)),
                ..RunConfig::default()
            },
        )
        .expect("memoized run")
    };
    run_shared(cold_input);
    let warm = run_shared(warm_input.clone());
    let scratch = vm::run(
        &vm::lower(&outcome.baseline),
        RunConfig {
            input: warm_input,
            ..RunConfig::default()
        },
    )
    .expect("baseline run");
    assert_eq!(warm.output_text(), scratch.output_text());
    let stale_reds: u64 = shared.iter().map(|t| t.stats().stale_reds).sum();
    assert!(stale_reds > 0, "the warm run's guard never fired");
}
