//! Failure injection: when the baseline program traps, the memoized
//! program must trap the same way (memoization may only skip *pure*
//! recomputation, never mask or introduce a fault).

use compreuse::{run_pipeline, PipelineConfig};
use vm::RunConfig;

/// Runs both versions; returns (baseline result, memoized result).
fn both(
    src: &str,
    profile_input: Vec<i64>,
    run_input: Vec<i64>,
) -> (Result<vm::Outcome, vm::Trap>, Result<vm::Outcome, vm::Trap>) {
    let program = minic::parse(src).expect("parse");
    let outcome = run_pipeline(
        &program,
        &PipelineConfig {
            profile_input,
            ..PipelineConfig::default()
        },
    )
    .expect("pipeline (profiling input must be trap-free)");
    let base = vm::run(
        &vm::lower(&outcome.baseline),
        RunConfig {
            input: run_input.clone(),
            ..RunConfig::default()
        },
    );
    let memo = vm::run(
        &vm::lower(&outcome.transformed),
        RunConfig {
            input: run_input,
            tables: outcome.make_tables(),
            ..RunConfig::default()
        },
    );
    (base, memo)
}

#[test]
fn division_trap_reproduces_in_memoized_version() {
    // hot() divides by (x - 13); profiling avoids 13, the real run hits it.
    let src = "
        int hot(int x) {
            int acc = 0;
            for (int i = 1; i < 20; i++) acc += (x * i) / (x - 13);
            return acc;
        }
        int main() {
            int s = 0;
            while (!eof()) s = (s + hot(input())) & 65535;
            print(s);
            return 0;
        }";
    let profile: Vec<i64> = (0..3000).map(|i| i % 10).collect(); // never 13
    let mut run: Vec<i64> = (0..500).map(|i| i % 10).collect();
    run.push(13); // trap here
    let (base, memo) = both(src, profile, run);
    let bt = base.expect_err("baseline must trap");
    let mt = memo.expect_err("memoized must trap identically");
    assert_eq!(bt, mt);
    assert_eq!(bt, vm::Trap::DivByZero);
}

#[test]
fn trap_free_prefix_outputs_agree() {
    // Before the trap, both versions must have produced the same printed
    // prefix — check by running the trap-free prefix separately.
    let src = "
        int hot(int x) {
            int acc = 1;
            for (int i = 1; i < 15; i++) acc = (acc + x * i) % 1000;
            return acc;
        }
        int main() {
            while (!eof()) print(hot(input()) % (input() + 1));
            return 0;
        }";
    // Pairs (x, d); d = -1 divides by zero.
    let profile: Vec<i64> = (0..2000).flat_map(|i| [i % 6, 3]).collect();
    let good: Vec<i64> = (0..100).flat_map(|i| [i % 6, 3]).collect();
    let (b1, m1) = both(src, profile.clone(), good);
    let (b1, m1) = (b1.unwrap(), m1.unwrap());
    assert_eq!(b1.output_text(), m1.output_text());

    let mut bad: Vec<i64> = (0..100).flat_map(|i| [i % 6, 3]).collect();
    bad.extend([2, -1]); // second input makes the modulus zero
    let (b2, m2) = both(src, profile, bad);
    assert_eq!(b2.unwrap_err(), m2.unwrap_err());
}

#[test]
fn assert_outside_segments_still_fires() {
    // assert() makes a segment illegal (I/O-like), so it stays outside
    // memoized regions and must fire identically.
    let src = "
        int hot(int x) {
            int acc = 0;
            for (int i = 0; i < 25; i++) acc += (x + i) % 97;
            return acc;
        }
        int main() {
            int s = 0;
            while (!eof()) {
                int v = input();
                s = (s + hot(v % 8)) & 65535;
                assert(s >= 0 && v < 1000);
            }
            print(s);
            return 0;
        }";
    let profile: Vec<i64> = (0..2000).map(|i| i % 8).collect();
    let mut run: Vec<i64> = (0..200).map(|i| i % 8).collect();
    run.push(5000); // assertion fails
    let (base, memo) = both(src, profile, run);
    assert_eq!(base.unwrap_err(), vm::Trap::AssertFailed);
    assert_eq!(memo.unwrap_err(), vm::Trap::AssertFailed);
}

#[test]
fn cycle_limit_applies_to_both() {
    let src = "
        int hot(int x) {
            int acc = 0;
            for (int i = 0; i < 50; i++) acc += x * i;
            return acc;
        }
        int main() {
            int s = 0;
            while (!eof()) s = (s + hot(input() % 4)) & 65535;
            print(s);
            return 0;
        }";
    let profile: Vec<i64> = (0..2000).map(|i| i % 4).collect();
    let program = minic::parse(src).unwrap();
    let outcome = run_pipeline(
        &program,
        &PipelineConfig {
            profile_input: profile.clone(),
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let tiny_budget = RunConfig {
        input: profile.clone(),
        max_cycles: 10_000,
        ..RunConfig::default()
    };
    let base = vm::run(&vm::lower(&outcome.baseline), tiny_budget);
    assert_eq!(base.unwrap_err(), vm::Trap::CycleLimit);
    let memo = vm::run(
        &vm::lower(&outcome.transformed),
        RunConfig {
            input: profile,
            tables: outcome.make_tables(),
            max_cycles: 10_000,
            ..RunConfig::default()
        },
    );
    assert_eq!(memo.unwrap_err(), vm::Trap::CycleLimit);
}

/// Runs `src` under both engines with the given input and cycle budget.
fn engines(src: &str, input: &[i64], max_cycles: u64) -> [Result<vm::Outcome, vm::Trap>; 2] {
    let module = vm::lower(&minic::compile(src).expect("compiles"));
    [vm::Engine::Tree, vm::Engine::Bytecode].map(|engine| {
        vm::run(
            &module,
            RunConfig {
                input: input.to_vec(),
                max_cycles,
                engine,
                ..RunConfig::default()
            },
        )
    })
}

/// Both engines succeed with the same observables or trap the same way.
fn assert_same(runs: &[Result<vm::Outcome, vm::Trap>; 2], what: &str) {
    match (&runs[0], &runs[1]) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.output_text(), b.output_text(), "{what}: output");
            assert_eq!(a.ret, b.ret, "{what}: return value");
            assert_eq!(a.cycles, b.cycles, "{what}: cycles");
            assert_eq!(a.loop_counts, b.loop_counts, "{what}: loop counts");
            assert_eq!(a.branch_counts, b.branch_counts, "{what}: branch counts");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: trap"),
        (a, b) => panic!(
            "{what}: engines diverged: tree {:?}, bytecode {:?}",
            a.as_ref().map(|o| o.cycles),
            b.as_ref().map(|o| o.cycles)
        ),
    }
}

/// Loops whose heads fuse (`for` with `++`, `for` with `--` and a
/// `continue`, `while`), each the last thing the program runs, so the
/// largest budget that traps is the cycle count at the loop's final head
/// check — in the `for` loops, the head that `LoopStep` runs inline.
const FUSED_LOOPS: [&str; 3] = [
    "int a[16];
     int main() { int n = input(); int s = 0; int i;
         for (i = 0; i < 16; i++) a[i] = i % 3;
         s = input();
         for (i = 0; i < n; i++) if (a[i] != 0) s++;
         return s; }",
    "int main() { int n = input(); int s = 0; int j;
         for (j = n; j > 0; j--) { if (j == 3) continue; s = s + j; }
         return s; }",
    "int main() { int n = input(); int s = 0; int j = 0;
         while (j < n) { s = s ^ j; j = j + 1; }
         return s; }",
];

#[test]
fn fused_loop_budget_sweep_agrees() {
    for src in FUSED_LOOPS {
        for n in [1, 2, 5, 9] {
            let input = [n, 7];
            let full = engines(src, &input, u64::MAX);
            assert_same(&full, "unlimited budget");
            let total = full[0].as_ref().expect("runs without a budget").cycles;
            // Every budget from a few iterations short of the end up
            // past it. The run completes once the budget covers the last
            // head check, and from then on at every larger budget.
            let window = total.saturating_sub(200)..=total;
            let ok: Vec<bool> = window
                .clone()
                .map(|max| {
                    let runs = engines(src, &input, max);
                    assert_same(&runs, &format!("n={n} max_cycles={max}"));
                    runs[0].is_ok()
                })
                .collect();
            assert!(!ok[0], "n={n}: the window starts past the last check");
            assert!(ok[ok.len() - 1], "n={n}: the full budget traps");
            assert!(
                ok.windows(2).all(|w| w[0] <= w[1]),
                "n={n}: success is not monotone in the budget"
            );
        }
    }
}

#[test]
fn fused_loop_traps_at_every_iteration_alike() {
    // Each budget below the total stops the loop at a different head
    // check; both engines must trap at all of them and complete beyond.
    let src = FUSED_LOOPS[0];
    let input = [12, 0];
    let total = engines(src, &input, u64::MAX)[0]
        .as_ref()
        .expect("runs")
        .cycles;
    for max in 0..=total {
        assert_same(&engines(src, &input, max), &format!("max_cycles={max}"));
    }
}

#[test]
fn indexed_if_out_of_range_traps_alike() {
    let src = "
        int a[8];
        int main() {
            int k = input();
            int s = 0;
            if (a[k] != 0) s = 1;
            return s;
        }";
    for k in [1_000_000, -1_000_000] {
        let runs = engines(src, &[k], u64::MAX);
        assert_same(&runs, &format!("k={k}"));
        assert!(
            matches!(runs[1], Err(vm::Trap::OutOfBounds(_))),
            "k={k}: {:?}",
            runs[1].as_ref().map(|o| o.ret)
        );
    }
    // In range, both engines take the same branch.
    assert_same(&engines(src, &[3], u64::MAX), "k=3");
}

#[test]
fn indexed_if_on_uninitialised_local_traps_alike() {
    let src = "
        int main() {
            int b[4];
            int k = input();
            b[0] = 5;
            b[1] = 0;
            if (b[k] > 1) return 1;
            return 0;
        }";
    assert_same(&engines(src, &[0], u64::MAX), "initialised element");
    let runs = engines(src, &[2], u64::MAX);
    assert_same(&runs, "uninitialised element");
    assert_eq!(runs[1].as_ref().err(), Some(&vm::Trap::UninitRead));
}
