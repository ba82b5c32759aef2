//! End-to-end pipeline tests: profile → select → transform → execute,
//! asserting semantic preservation and the paper's decision behaviour.

use compreuse::{run_pipeline, PipelineConfig, ReuseOutcome};
use vm::{CostModel, RunConfig};

/// Runs the pipeline and both program versions; returns (outcome,
/// baseline run, memoized run).
fn full(
    src: &str,
    config: &PipelineConfig,
    input: Vec<i64>,
) -> (ReuseOutcome, vm::Outcome, vm::Outcome) {
    let program = minic::parse(src).expect("parse");
    let outcome = run_pipeline(&program, config).expect("pipeline");
    let base = vm::run(
        &vm::lower(&outcome.baseline),
        RunConfig {
            cost: config.cost.clone(),
            input: input.clone(),
            ..RunConfig::default()
        },
    )
    .expect("baseline run");
    let memo = vm::run(
        &vm::lower(&outcome.transformed),
        RunConfig {
            cost: config.cost.clone(),
            input,
            tables: outcome.make_tables(),
            ..RunConfig::default()
        },
    )
    .expect("memoized run");
    (outcome, base, memo)
}

const QUAN_G721: &str = "
    int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
    int quan(int val, int *table, int size) {
        int i;
        for (i = 0; i < size; i++)
            if (val < table[i])
                break;
        return i;
    }
    int main() {
        int s = 0;
        while (!eof()) {
            int sample = input();
            s += quan(sample, power2, 15);
        }
        print(s);
        return 0;
    }";

fn repeating_input(n: usize, distinct: i64) -> Vec<i64> {
    (0..n).map(|i| (i as i64 * 7919) % distinct * 13).collect()
}

#[test]
fn g721_shape_specializes_and_wins() {
    let input = repeating_input(3000, 40);
    let config = PipelineConfig {
        profile_input: input.clone(),
        ..PipelineConfig::default()
    };
    let (outcome, base, memo) = full(QUAN_G721, &config, input);
    // Specialization fired (table/size bound away)...
    assert_eq!(outcome.report.specializations.len(), 1);
    assert_eq!(
        outcome.report.specializations[0].bound_params,
        vec!["table", "size"]
    );
    // ...and the specialized quan body got memoized.
    assert!(outcome.report.transformed >= 1);
    let quan_dec = outcome
        .report
        .decisions
        .iter()
        .find(|d| d.name.contains("quan__spec"))
        .expect("specialized quan was profiled");
    assert!(quan_dec.chosen, "{quan_dec:?}");
    assert!(quan_dec.reuse_rate > 0.95);
    assert_eq!(quan_dec.key_words, 1);

    assert_eq!(base.output_text(), memo.output_text());
    assert!(
        memo.cycles < base.cycles,
        "speedup expected: {} vs {}",
        memo.cycles,
        base.cycles
    );
}

#[test]
fn low_reuse_input_is_not_transformed() {
    // Every sample distinct → R ≈ 0 → formula 3 rejects.
    let input: Vec<i64> = (0..2000).map(|i| i * 3 + 1).collect();
    let config = PipelineConfig {
        profile_input: input.clone(),
        ..PipelineConfig::default()
    };
    let (outcome, base, memo) = full(QUAN_G721, &config, input);
    let quan_dec = outcome
        .report
        .decisions
        .iter()
        .find(|d| d.name.contains("quan"))
        .expect("profiled");
    assert!(!quan_dec.profitable, "all-distinct input cannot profit");
    assert!(!quan_dec.chosen);
    // With nothing (or little) transformed, costs stay comparable.
    assert_eq!(base.output_text(), memo.output_text());
}

#[test]
fn nesting_prefers_the_better_segment() {
    // An outer driver loop in a helper function encloses a hot inner
    // function; the inner has high reuse, the outer sees distinct inputs
    // (loop counter) → pipeline must memoize inner, not outer.
    let src = "
        int helper(int x) {
            int acc = 0;
            for (int i = 0; i < 30; i++) acc += x * i;
            return acc;
        }
        int wrapper(int k, int x) {
            int s = 0;
            for (int i = 0; i < 8; i++) s += helper(x);
            return s + k;
        }
        int main() {
            int s = 0;
            for (int k = 0; k < 300; k++) {
                s += wrapper(k, k % 5);
            }
            print(s);
            return 0;
        }";
    let config = PipelineConfig::default();
    let (outcome, base, memo) = full(src, &config, vec![]);
    let helper_dec = outcome
        .report
        .decisions
        .iter()
        .find(|d| d.name == "helper:body")
        .expect("helper profiled");
    let wrapper_dec = outcome
        .report
        .decisions
        .iter()
        .find(|d| d.name == "wrapper:body");
    assert!(helper_dec.chosen, "helper has 5 DIPs over 2400 calls");
    if let Some(w) = wrapper_dec {
        assert!(
            !w.chosen,
            "wrapper must lose to 8×helper per formula 4: {w:?}"
        );
    }
    assert_eq!(base.output_text(), memo.output_text());
    assert!(memo.cycles < base.cycles);
}

#[test]
fn merging_groups_identical_inputs() {
    // Two segments keyed on the same variables: one merged table.
    let src = "
        int out_a; int out_b;
        void fa(int x, int y) {
            int t = 0;
            for (int i = 0; i < 40; i++) t += x * i + y;
            out_a = t;
        }
        void fb(int x, int y) {
            int t = 1;
            for (int i = 0; i < 40; i++) t += x * i - y;
            out_b = t;
        }
        int main() {
            int s = 0;
            for (int k = 0; k < 500; k++) {
                int x = k % 4;
                int y = k % 3;
                fa(x, y);
                fb(x, y);
                s += out_a + out_b;
            }
            print(s);
            return 0;
        }";
    let config = PipelineConfig::default();
    let (outcome, base, memo) = full(src, &config, vec![]);
    assert_eq!(
        outcome.report.merged_tables, 1,
        "{:?}",
        outcome.report.decisions
    );
    assert_eq!(outcome.specs.len(), 1);
    assert_eq!(outcome.specs[0].out_words.len(), 2);
    assert_eq!(base.output_text(), memo.output_text());
    assert!(memo.cycles < base.cycles);

    // Ablation: merging off → two tables, more bytes.
    let config_off = PipelineConfig {
        enable_merging: false,
        ..PipelineConfig::default()
    };
    let program = minic::parse(src).unwrap();
    let unmerged = run_pipeline(&program, &config_off).unwrap();
    assert_eq!(unmerged.specs.len(), 2);
    assert!(unmerged.report.total_table_bytes > outcome.report.total_table_bytes);
}

#[test]
fn cold_code_is_not_profiled() {
    let src = "
        int rare(int x) {
            int acc = 0;
            for (int i = 0; i < 50; i++) acc += x * i;
            return acc;
        }
        int main() {
            int s = rare(1) + rare(1);
            for (int i = 0; i < 100; i++) s += i;
            print(s);
            return 0;
        }";
    let config = PipelineConfig {
        min_exec: 32,
        ..PipelineConfig::default()
    };
    let program = minic::parse(src).unwrap();
    let outcome = run_pipeline(&program, &config).unwrap();
    assert!(
        outcome
            .report
            .rejects
            .iter()
            .any(|(name, r)| name == "rare:body" && matches!(r, analysis::Reject::ColdCode)),
        "{:?}",
        outcome.report.rejects
    );
    assert!(!outcome
        .report
        .decisions
        .iter()
        .any(|d| d.name == "rare:body"));
}

#[test]
fn report_counts_are_consistent() {
    let input = repeating_input(2000, 25);
    let config = PipelineConfig {
        profile_input: input.clone(),
        ..PipelineConfig::default()
    };
    let program = minic::parse(QUAN_G721).unwrap();
    let outcome = run_pipeline(&program, &config).unwrap();
    let r = &outcome.report;
    assert!(r.analyzed >= r.profiled);
    assert!(r.profiled >= r.transformed);
    assert_eq!(r.decisions.len(), r.profiled);
    assert_eq!(
        r.decisions.iter().filter(|d| d.chosen).count(),
        r.transformed
    );
    assert_eq!(r.analyzed, r.profiled + r.rejects.len());
    // Chosen segments have assignments; others do not.
    for d in &r.decisions {
        assert_eq!(d.chosen, d.assignment.is_some());
    }
}

#[test]
fn o3_decisions_can_differ_from_o0() {
    // A segment profitable at O0 can become unprofitable at O3 (smaller
    // C, same O). Construct a borderline segment.
    let src = "
        int f(int x) {
            int acc = 0;
            for (int i = 0; i < 4; i++) acc += x + i;
            return acc;
        }
        int main() {
            int s = 0;
            for (int k = 0; k < 2000; k++) s += f(k % 8);
            print(s);
            return 0;
        }";
    let program = minic::parse(src).unwrap();
    let o0 = run_pipeline(
        &program,
        &PipelineConfig {
            cost: CostModel::o0(),
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let o3 = run_pipeline(
        &program,
        &PipelineConfig {
            cost: CostModel::o3(),
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let g0 = o0.report.decisions.iter().find(|d| d.name == "f:body");
    let g3 = o3.report.decisions.iter().find(|d| d.name == "f:body");
    if let (Some(g0), Some(g3)) = (g0, g3) {
        assert!(
            g0.measured_c > g3.measured_c,
            "O3 shrinks the measured granularity"
        );
        assert!((g0.overhead_o - g3.overhead_o).abs() < 1e-9);
    }
}

#[test]
fn transformed_program_pretty_prints_check_hash() {
    let input = repeating_input(2000, 25);
    let config = PipelineConfig {
        profile_input: input,
        ..PipelineConfig::default()
    };
    let program = minic::parse(QUAN_G721).unwrap();
    let outcome = run_pipeline(&program, &config).unwrap();
    let text = minic::pretty::print_program(&outcome.transformed.program);
    assert!(text.contains("check_hash("), "{text}");
    assert!(text.contains("computation reuse"), "{text}");
}

#[test]
fn bytes_cap_shrinks_tables() {
    let input = repeating_input(4000, 512);
    let base_cfg = PipelineConfig {
        profile_input: input.clone(),
        ..PipelineConfig::default()
    };
    let capped_cfg = PipelineConfig {
        profile_input: input,
        bytes_cap: Some(1024),
        ..PipelineConfig::default()
    };
    let program = minic::parse(QUAN_G721).unwrap();
    let full_size = run_pipeline(&program, &base_cfg).unwrap();
    let capped = run_pipeline(&program, &capped_cfg).unwrap();
    if !capped.specs.is_empty() && !full_size.specs.is_empty() {
        assert!(capped.specs[0].bytes() <= 1024);
        assert!(capped.specs[0].slots < full_size.specs[0].slots);
    }
}

/// `t` is written at the end of every iteration and read only from the
/// second one on. The program never reads it uninitialised, but the loop
/// body's key includes `t`, and reading that key traps on iteration 0.
fn late_init_src(iterations: u32) -> String {
    format!(
        "int main() {{
            int s = 0;
            int t;
            for (int i = 0; i < {iterations}; i++) {{
                if (i > 0) {{
                    for (int j = 0; j < 20; j++) s += t * j;
                }}
                t = i % 4;
            }}
            print(s);
            return 0;
        }}"
    )
}

/// Runs the pipeline on every engine; all must agree on the report.
fn key_trap_rejects(iterations: u32) -> Vec<(String, analysis::Reject)> {
    let mut reports = Vec::new();
    for engine in [vm::Engine::Tree, vm::Engine::Bytecode] {
        let config = PipelineConfig {
            engine,
            ..PipelineConfig::default()
        };
        let (outcome, base, memo) = full(&late_init_src(iterations), &config, vec![]);
        assert_eq!(base.output_text(), memo.output_text(), "{engine}");
        let decisions: Vec<(String, bool)> = outcome
            .report
            .decisions
            .iter()
            .map(|d| (d.name.clone(), d.chosen))
            .collect();
        reports.push((outcome.report.rejects, decisions));
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]), "{reports:?}");
    reports.swap_remove(0).0
}

#[test]
fn hot_segment_whose_key_read_traps_is_rejected_not_fatal() {
    let rejects = key_trap_rejects(100);
    let trapped: Vec<&str> = rejects
        .iter()
        .filter(|(_, r)| *r == analysis::Reject::KeyReadTrap)
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(trapped.len(), 1, "{rejects:?}");
    assert!(trapped[0].starts_with("main:loop#"), "{trapped:?}");
}

#[test]
fn cold_segment_whose_key_read_traps_is_rejected_as_cold() {
    let rejects = key_trap_rejects(10);
    assert!(
        !rejects
            .iter()
            .any(|(_, r)| *r == analysis::Reject::KeyReadTrap),
        "{rejects:?}"
    );
    assert!(
        rejects
            .iter()
            .any(|(n, r)| n.starts_with("main:loop#") && *r == analysis::Reject::ColdCode),
        "{rejects:?}"
    );
}
