//! Property test: the tree-walking and bytecode engines produce
//! identical [`vm::Outcome`]s — output, return value, modelled
//! cycles/energy, table statistics — on randomized MiniC programs,
//! including trap parity when the program faults.

use compreuse::{run_pipeline, PipelineConfig};
use proptest::prelude::*;
use vm::{Engine, RunConfig};

const ENGINES: [Engine; 2] = [Engine::Tree, Engine::Bytecode];

/// A random integer expression over `x`, `i`, and `acc`, plus the
/// operand shapes the bytecode engine's `Int × Int` fast paths must hand
/// to the shared slow path: float arithmetic and compares (`fx`, `fy`),
/// pointer compares (`p`, `q` and `buf + k`, fused and unfused), calls
/// to `mix` in argument position, `&&`/`||`/`?:` inside arguments, and
/// the recursive `walk`. Nested calls and ternaries also drive the
/// operand stack to the depth `bytecode::compile` bounds statically.
fn arb_body_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("x".to_string()),
        Just("i".to_string()),
        Just("acc".to_string()),
        (1i64..100).prop_map(|v| v.to_string()),
        Just("(int)(fx * fy)".to_string()),
        Just("(fx < fy)".to_string()),
        (1i64..9).prop_map(|v| format!("(int)(fx * {v}.5 - fy)")),
        Just("(p < q)".to_string()),
        Just("(p == q)".to_string()),
        Just("(buf + (i & 7) >= q)".to_string()),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                prop_oneof![
                    Just("+"),
                    Just("-"),
                    Just("*"),
                    Just("^"),
                    Just("&"),
                    Just("|"),
                    Just("&&"),
                    Just("||"),
                    Just("<")
                ],
                inner.clone(),
            )
                .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, a, b)| format!("({c} ? {a} : {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("mix({a}, {b})")),
            inner.prop_map(|a| format!("walk(x & 7, {a})")),
        ]
    })
}

/// A statement of a shape the bytecode compiler fuses, run once per
/// iteration of `hot`'s loop: an `if` over `buf[k]` or a local array
/// element with a local index `k` (`BranchIfIdxCmp`), a `while` over a
/// leaf compare, and a `for` that counts down with a `continue` (both
/// `LoopHeadCmp`, the `for` also `LoopStep`). Every loop ends within a
/// few iterations whatever the operator.
fn arb_fused_stmt() -> impl Strategy<Value = String> {
    let op = prop_oneof![
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">="),
        Just("=="),
        Just("!="),
        Just("-"),
        Just("&")
    ];
    let leaf = prop_oneof![
        Just("x".to_string()),
        Just("i".to_string()),
        Just("acc".to_string()),
        (0i64..12).prop_map(|v| v.to_string()),
    ];
    prop_oneof![
        Just(String::new()),
        (op.clone(), leaf.clone()).prop_map(|(op, l)| format!(
            "int k = (x + i) & 7;
                buf[k] = buf[k] + i;
                if (buf[k] {op} {l}) acc = acc + k; else acc = acc ^ 5;"
        )),
        (op.clone(), leaf.clone()).prop_map(|(op, l)| format!(
            "int lb[4];
                int k = i & 3;
                lb[0] = x; lb[1] = i; lb[2] = acc & 255; lb[3] = 7;
                if (lb[k] {op} {l}) acc = acc + 3;"
        )),
        (op.clone(), leaf.clone()).prop_map(|(op, l)| format!(
            "int j = 0;
                while (j {op} {l}) {{ acc = (acc + j) & 65535; j = j + 1; if (j > 5) break; }}"
        )),
        (op, leaf, 0i64..6).prop_map(|(op, l, c)| format!(
            "int j;
                for (j = (x & 7) + 1; j {op} {l}; j--) {{
                    if (j == {c}) continue;
                    acc = acc ^ j;
                    if (j < -3) break;
                }}"
        )),
    ]
}

/// The helpers [`arb_body_expr`] calls: a two-argument mixer and a
/// recursion at most eight calls deep.
const HELPERS: &str = "
        int buf[8];
        int mix(int a, int b) { return (a * 31 + b) & 1023; }
        int walk(int n, int a) { return n <= 0 ? a : walk(n - 1, (a * 3 + n) & 4095); }";

/// The locals of `hot` that [`arb_body_expr`] reads: two floats and two
/// pointers into `buf`, all derived from the argument `x`.
const HOT_LOCALS: &str = "
            float fx = (float)x * 0.5;
            float fy = (float)(x & 7) + 0.25;
            int *p = buf + (x & 7);
            int *q = buf + 3;";

/// The `hot`/`main` template around a generated step expression and a
/// fused-shape statement from [`arb_fused_stmt`]. With `div_by` set, a
/// division by `(x - div_by)` is injected so specific inputs trap.
fn program_with(
    body_expr: &str,
    fused: &str,
    iters: u8,
    modulus: u32,
    div_by: Option<i64>,
) -> String {
    let step = match div_by {
        Some(k) => format!("acc = (acc + {body_expr}) % {modulus} + x / (x - {k});"),
        None => format!("acc = (acc + {body_expr}) % {modulus};"),
    };
    format!(
        "{HELPERS}
        int hot(int x) {{{HOT_LOCALS}
            int acc = 1;
            for (int i = 0; i < {iters}; i++) {{
                {step}
                {fused}
                acc = acc < 0 ? -acc : acc;
            }}
            return acc;
        }}
        int main() {{
            int s = 0;
            while (!eof()) s = (s + hot(input())) & 1048575;
            print(s);
            return 0;
        }}"
    )
}

/// Everything an [`vm::Outcome`] observes, as a deterministic string.
fn fingerprint(o: &vm::Outcome) -> String {
    let stats: Vec<_> = o.tables.iter().map(|t| *t.stats()).collect();
    format!(
        "out={:?} ret={} cycles={} energy={} words={} calls={:?} loops={:?} branches={:?} \
         tables={stats:?}",
        o.output_text(),
        o.ret,
        o.cycles,
        o.energy_joules.to_bits(),
        o.table_words,
        o.func_calls,
        o.loop_counts,
        o.branch_counts,
    )
}

/// Runs `module` under one engine.
fn run_one(
    module: &vm::Module,
    input: &[i64],
    tables: Vec<memo_runtime::MemoTable>,
    engine: Engine,
) -> Result<vm::Outcome, vm::Trap> {
    vm::run(
        module,
        RunConfig {
            input: input.to_vec(),
            tables,
            engine,
            ..RunConfig::default()
        },
    )
}

/// Both engines on both program versions must agree bit-for-bit (or
/// trap identically).
fn assert_engines_agree(outcome: &compreuse::ReuseOutcome, input: &[i64]) {
    for module in [
        vm::lower(&outcome.baseline),
        vm::lower(&outcome.transformed),
    ] {
        let runs: Vec<Result<vm::Outcome, vm::Trap>> = ENGINES
            .iter()
            .map(|&e| run_one(&module, input, outcome.make_tables(), e))
            .collect();
        for pair in runs.windows(2) {
            match (&pair[0], &pair[1]) {
                (Ok(a), Ok(b)) => assert_eq!(fingerprint(a), fingerprint(b)),
                (Err(a), Err(b)) => assert_eq!(a, b, "engines trapped differently"),
                (a, b) => panic!(
                    "engines diverged: {:?} vs {:?}",
                    a.as_ref().map(|o| o.output_text()),
                    b.as_ref().map(|o| o.output_text())
                ),
            }
        }
    }
}

/// Like [`program_with`] but with a 32-word global array the hot
/// function reads and the driver loop occasionally mutates: large enough
/// for §8g key reduction and written between `hot` calls, so `hot`'s
/// memo key drops the array and its entries carry *mutable* dependency
/// fingerprints — probes must validate them against the chunk epochs,
/// promoting still-valid entries green and forcing stale ones red.
fn dep_program_with(body_expr: &str, iters: u8, modulus: u32) -> String {
    format!(
        "{HELPERS}
        int lut[32];
        int hot(int x) {{{HOT_LOCALS}
            int acc = 1;
            for (int i = 0; i < {iters}; i++) {{
                acc = (acc + lut[(x + i) % 32] + {body_expr}) % {modulus};
                acc = acc < 0 ? -acc : acc;
            }}
            return acc;
        }}
        int main() {{
            for (int i = 0; i < 32; i++) lut[i] = i * 3 + 1;
            int s = 0;
            int t = 0;
            while (!eof()) {{
                s = (s + hot(input())) & 1048575;
                t = t + 1;
                if (t % 64 == 0) lut[t % 32] = lut[t % 32] + 1;
            }}
            print(s);
            return 0;
        }}"
    )
}

/// Chains two runs of `module` under one engine: a cold run on `input_a`
/// populating fresh tables, then a warm run on `input_b` reusing them —
/// the configuration where dependency validation promotes entries green.
fn run_chained(
    module: &vm::Module,
    outcome: &compreuse::ReuseOutcome,
    input_a: &[i64],
    input_b: &[i64],
    engine: Engine,
) -> (vm::Outcome, vm::Outcome) {
    let cold = run_one(module, input_a, outcome.make_tables(), engine).expect("cold run");
    let warm = run_one(module, input_b, cold.tables.clone(), engine).expect("warm run");
    (cold, warm)
}

/// A fixed instance of the dependency-keyed template, deterministic
/// enough to assert green hits actually happen: the warm run re-probes
/// keys recorded cold, the `lut` fingerprints still hold (main rebuilds
/// the array identically), so entries promote green — and the answers
/// must equal the from-scratch baseline bit for bit on both engines.
#[test]
fn green_promoted_warm_run_matches_from_scratch() {
    let src = dep_program_with("(x * 7 + i)", 12, 7919);
    let input_a: Vec<i64> = (0..600).map(|i| (i * 13) % 40).collect();
    // Perturbed rerun: overlapping key set, shifted mix.
    let input_b: Vec<i64> = (0..600).map(|i| (i * 11) % 40).collect();
    let program = minic::parse(&src).expect("template parses");
    let outcome = run_pipeline(
        &program,
        &PipelineConfig {
            profile_input: input_a.clone(),
            min_exec: 8,
            ..PipelineConfig::default()
        },
    )
    .expect("pipeline");
    assert!(
        outcome.table_deps.iter().flatten().any(|&fpw| fpw > 0),
        "template should plan at least one dependency-keyed segment"
    );
    let base = vm::lower(&outcome.baseline);
    let memo = vm::lower(&outcome.transformed);
    let base_b = run_one(&base, &input_b, vec![], Engine::Tree).expect("baseline");
    let chains: Vec<(vm::Outcome, vm::Outcome)> = ENGINES
        .iter()
        .map(|&e| run_chained(&memo, &outcome, &input_a, &input_b, e))
        .collect();
    let (tree_cold, tree_warm) = &chains[0];
    // §8e: the warm, green-promoted run computes the from-scratch answer.
    assert_eq!(tree_warm.output_text(), base_b.output_text());
    assert_eq!(tree_warm.ret, base_b.ret);
    // Engine parity holds for the whole chain, green stats included.
    for (cold, warm) in &chains[1..] {
        assert_eq!(fingerprint(tree_cold), fingerprint(cold));
        assert_eq!(fingerprint(tree_warm), fingerprint(warm));
    }
    let green: u64 = tree_warm.tables.iter().map(|t| t.stats().green_hits).sum();
    assert!(green > 0, "warm run promoted no entries green");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engines_agree_on_random_programs(
        body in arb_body_expr(),
        fused in arb_fused_stmt(),
        iters in 4u8..24,
        modulus in 17u32..50_000,
        distinct in 3i64..120,
        n in 300usize..1_500,
    ) {
        let src = program_with(&body, &fused, iters, modulus, None);
        let input: Vec<i64> = (0..n).map(|i| (i as i64 * 13) % distinct).collect();
        let program = minic::parse(&src).expect("template parses");
        let outcome = run_pipeline(
            &program,
            &PipelineConfig {
                profile_input: input.clone(),
                min_exec: 8,
                    ..PipelineConfig::default()
            },
        )
        .expect("pipeline");
        assert_engines_agree(&outcome, &input);
    }

    #[test]
    fn green_validated_equals_from_scratch(
        body in arb_body_expr(),
        iters in 4u8..16,
        modulus in 17u32..10_000,
        distinct in 3i64..60,
        n in 200usize..800,
        shift in 1i64..13,
    ) {
        // Cold run on input_a records dependency-fingerprinted entries;
        // the warm run on a perturbed input_b revalidates them. Whatever
        // mix of green hits and red recomputes results, the output must
        // equal a from-scratch baseline on input_b, and both engines
        // must agree on every observable (§8e/§8g).
        let src = dep_program_with(&body, iters, modulus);
        let input_a: Vec<i64> = (0..n).map(|i| (i as i64 * 13) % distinct).collect();
        let input_b: Vec<i64> = (0..n).map(|i| (i as i64 * shift) % distinct).collect();
        let program = minic::parse(&src).expect("template parses");
        let outcome = run_pipeline(
            &program,
            &PipelineConfig {
                profile_input: input_a.clone(),
                min_exec: 8,
                    ..PipelineConfig::default()
            },
        )
        .expect("pipeline");
        let base = vm::lower(&outcome.baseline);
        let memo = vm::lower(&outcome.transformed);
        let base_b = run_one(&base, &input_b, vec![], Engine::Tree).expect("baseline");
        let chains: Vec<(vm::Outcome, vm::Outcome)> = ENGINES
            .iter()
            .map(|&e| run_chained(&memo, &outcome, &input_a, &input_b, e))
            .collect();
        let (tree_cold, tree_warm) = &chains[0];
        prop_assert_eq!(tree_warm.output_text(), base_b.output_text());
        prop_assert_eq!(tree_warm.ret, base_b.ret);
        for (cold, warm) in &chains[1..] {
            prop_assert_eq!(fingerprint(tree_cold), fingerprint(cold));
            prop_assert_eq!(fingerprint(tree_warm), fingerprint(warm));
        }
    }

    #[test]
    fn engines_trap_identically(
        body in arb_body_expr(),
        fused in arb_fused_stmt(),
        iters in 4u8..16,
        modulus in 17u32..10_000,
        distinct in 3i64..40,
        trap_at in 0usize..400,
    ) {
        // hot() divides by (x - 7); profiling avoids 7, the run input
        // injects it at a random position, so both engines must trap at
        // exactly the same point with exactly the same trap.
        let src = program_with(&body, &fused, iters, modulus, Some(7));
        let profile: Vec<i64> =
            (0..1_000).map(|i| 8 + (i as i64 * 13) % distinct).collect();
        let program = minic::parse(&src).expect("template parses");
        let outcome = run_pipeline(
            &program,
            &PipelineConfig {
                profile_input: profile.clone(),
                min_exec: 8,
                    ..PipelineConfig::default()
            },
        )
        .expect("pipeline (profile input is trap-free)");
        let mut run = profile;
        run.insert(trap_at.min(run.len()), 7); // div-by-zero here
        assert_engines_agree(&outcome, &run);
    }
}
