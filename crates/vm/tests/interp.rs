//! Interpreter integration tests: language semantics, cost accounting,
//! frequency counters, and memoized/profiled segment execution.

use memo_runtime::{MemoTable, TableSpec};
use minic::ast::{MemoOperand, MemoStmt, ProfileStmt, ScalarKind, Stmt, StmtKind};
use vm::cost::CostModel;
use vm::{compile_and_run, run, RunConfig};

fn run_ok(src: &str) -> vm::Outcome {
    compile_and_run(src, RunConfig::default()).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
}

fn output_of(src: &str) -> String {
    run_ok(src).output_text()
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(
        output_of("int main() { print(2 + 3 * 4); return 0; }"),
        "14"
    );
    assert_eq!(
        output_of("int main() { print((2 + 3) * 4); return 0; }"),
        "20"
    );
    assert_eq!(
        output_of("int main() { print(7 / 2); print(7 % 2); return 0; }"),
        "3\n1"
    );
    assert_eq!(output_of("int main() { print(-7 / 2); return 0; }"), "-3");
    assert_eq!(
        output_of("int main() { print(1 << 10); print(1024 >> 3); return 0; }"),
        "1024\n128"
    );
    assert_eq!(
        output_of("int main() { print(6 & 3); print(6 | 3); print(6 ^ 3); print(~0); return 0; }"),
        "2\n7\n5\n-1"
    );
}

#[test]
fn float_arithmetic_and_promotion() {
    assert_eq!(
        output_of("int main() { print(1.5 + 2.25); return 0; }"),
        "3.75"
    );
    assert_eq!(output_of("int main() { print(3 * 1.5); return 0; }"), "4.5");
    assert_eq!(
        output_of("int main() { print((int)(7.9)); return 0; }"),
        "7"
    );
    assert_eq!(
        output_of("int main() { float f = 3; print(f / 2); return 0; }"),
        "1.5"
    );
    // Assignment truncates (C semantics).
    assert_eq!(
        output_of("int main() { int x = 2.9; print(x); return 0; }"),
        "2"
    );
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(
        output_of(
            "int main() { print(1 < 2); print(2 <= 1); print(1 == 1); print(1 != 1); return 0; }"
        ),
        "1\n0\n1\n0"
    );
    // Short circuit: the divide by zero on the right must not run.
    assert_eq!(
        output_of("int main() { int x = 0; print(x != 0 && 10 / x > 0); return 0; }"),
        "0"
    );
    assert_eq!(
        output_of("int main() { int x = 1; print(x == 1 || 10 / 0); return 0; }"),
        "1"
    );
    assert_eq!(
        output_of("int main() { print(!5); print(!0); return 0; }"),
        "0\n1"
    );
}

#[test]
fn control_flow() {
    assert_eq!(
        output_of(
            "int main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
                print(s);
                int j = 0;
                while (1) { j++; if (j == 7) break; }
                print(j);
                int k = 0;
                do { k++; } while (k < 3);
                print(k);
                return 0;
            }"
        ),
        "25\n7\n3"
    );
}

#[test]
fn ternary_and_nested_calls() {
    assert_eq!(
        output_of(
            "int max(int a, int b) { return a > b ? a : b; }
             int main() { print(max(max(1, 5), 3)); return 0; }"
        ),
        "5"
    );
}

#[test]
fn recursion() {
    assert_eq!(
        output_of(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
             int main() { print(fib(15)); return 0; }"
        ),
        "610"
    );
}

#[test]
fn arrays_and_pointers() {
    assert_eq!(
        output_of(
            "int arr[5] = {10, 20, 30, 40, 50};
             int main() {
                 int *p = arr;
                 print(*p);
                 print(*(p + 3));
                 p++;
                 print(*p);
                 print(p - arr);
                 int local[3];
                 local[0] = 7; local[1] = 8; local[2] = 9;
                 print(local[2] - local[0]);
                 return 0;
             }"
        ),
        "10\n40\n20\n1\n2"
    );
}

#[test]
fn two_dimensional_arrays() {
    assert_eq!(
        output_of(
            "int g[3][4];
             int main() {
                 for (int i = 0; i < 3; i++)
                     for (int j = 0; j < 4; j++)
                         g[i][j] = i * 10 + j;
                 print(g[2][3]);
                 print(g[0][1]);
                 return 0;
             }"
        ),
        "23\n1"
    );
}

#[test]
fn structs_members_and_arrows() {
    assert_eq!(
        output_of(
            "struct point { int x; int y; };
             struct rect { struct point lo; struct point hi; };
             struct rect r;
             int area(struct rect *p) {
                 return (p->hi.x - p->lo.x) * (p->hi.y - p->lo.y);
             }
             int main() {
                 r.lo.x = 1; r.lo.y = 2; r.hi.x = 5; r.hi.y = 10;
                 print(area(&r));
                 return 0;
             }"
        ),
        "32"
    );
}

#[test]
fn function_pointers() {
    assert_eq!(
        output_of(
            "int add(int a, int b) { return a + b; }
             int mul(int a, int b) { return a * b; }
             int apply(int (*op)(int, int), int x, int y) { return op(x, y); }
             int main() {
                 int (*f)(int, int);
                 f = add;
                 print(apply(f, 3, 4));
                 f = mul;
                 print(apply(f, 3, 4));
                 print((*f)(5, 6));
                 return 0;
             }"
        ),
        "7\n12\n30"
    );
}

#[test]
fn globals_initialized_and_mutable() {
    assert_eq!(
        output_of(
            "int counter = 100;
             float scale = 2.5;
             void bump() { counter++; }
             int main() { bump(); bump(); print(counter); print(scale * 2); return 0; }"
        ),
        "102\n5"
    );
}

#[test]
fn quan_from_the_paper() {
    // Figure 2(a), driven over a few values.
    let out = output_of(
        "int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
         int quan(int val) {
             int i;
             for (i = 0; i < 15; i++)
                 if (val < power2[i])
                     break;
             return (i);
         }
         int main() {
             print(quan(0));
             print(quan(1));
             print(quan(100));
             print(quan(20000));
             return 0;
         }",
    );
    assert_eq!(out, "0\n1\n7\n15");
}

#[test]
fn input_and_eof_builtins() {
    let cfg = RunConfig {
        input: vec![5, 10, 15],
        ..RunConfig::default()
    };
    let out = compile_and_run(
        "int main() {
             int s = 0;
             while (!eof()) { s += input(); }
             print(s);
             return 0;
         }",
        cfg,
    )
    .unwrap();
    assert_eq!(out.output_text(), "30");
}

#[test]
fn traps_are_reported() {
    let err = |src: &str| compile_and_run(src, RunConfig::default()).unwrap_err();
    assert!(err("int main() { return 1 / 0; }").contains("division by zero"));
    assert!(err("int main() { int x; return x + 1; }").contains("uninitialized"));
    assert!(err("int main() { int *p; p = 0; return *p; }").contains("null pointer"));
    assert!(err("int main() { assert(1 == 2); return 0; }").contains("assertion failed"));
}

#[test]
fn deep_recursion_traps_cleanly() {
    let err = compile_and_run(
        "int f(int n) { return f(n + 1); }
         int main() { return f(0); }",
        RunConfig::default(),
    )
    .unwrap_err();
    assert!(err.contains("stack overflow"), "{err}");
}

#[test]
fn cycle_limit_guards_infinite_loops() {
    let cfg = RunConfig {
        max_cycles: 100_000,
        ..RunConfig::default()
    };
    let err = compile_and_run("int main() { while (1) {} return 0; }", cfg).unwrap_err();
    assert!(err.contains("cycle limit"), "{err}");
}

#[test]
fn o3_is_faster_than_o0_on_scalar_code() {
    let src = "int main() {
        int s = 0;
        for (int i = 0; i < 10000; i++) s += i * 3 + 1;
        print(s);
        return 0;
    }";
    let o0 = compile_and_run(src, RunConfig::default()).unwrap();
    let o3 = compile_and_run(
        src,
        RunConfig {
            cost: CostModel::o3(),
            ..RunConfig::default()
        },
    )
    .unwrap();
    assert_eq!(o0.output_text(), o3.output_text());
    assert!(
        o3.cycles * 2 < o0.cycles,
        "O3 ({}) should be well under half of O0 ({})",
        o3.cycles,
        o0.cycles
    );
}

#[test]
fn frequency_counters_count() {
    let src = "int helper(int x) { return x + 1; }
        int main() {
            int s = 0;
            for (int i = 0; i < 25; i++) s = helper(s);
            if (s > 0) { s += 1; } else { s -= 1; }
            print(s);
            return 0;
        }";
    let out = run_ok(src);
    // helper called 25 times, main once.
    assert!(out.func_calls.contains(&25));
    assert!(out.loop_counts.contains(&25));
    // Branch: then taken once, else zero.
    assert!(out.branch_counts.contains(&1));
    assert_eq!(out.output_text(), "26");
}

#[test]
fn energy_scales_with_cycles() {
    let short = run_ok("int main() { return 0; }");
    let long = run_ok(
        "int main() { int s = 0; for (int i = 0; i < 100000; i++) s += i; print(s); return 0; }",
    );
    assert!(long.cycles > short.cycles * 100);
    assert!(long.energy_joules > short.energy_joules * 100.0);
    assert!(long.seconds > 0.0);
}

// ---------------------------------------------------------------------
// Memoized segments (inserted by hand here; the compreuse crate inserts
// them automatically).
// ---------------------------------------------------------------------

/// Wraps the body of `func` in a Memo statement with the given operands.
fn memoize_function(
    src: &str,
    func: &str,
    inputs: Vec<MemoOperand>,
    outputs: Vec<MemoOperand>,
    ret: Option<ScalarKind>,
    table: usize,
) -> minic::Checked {
    let mut prog = minic::parse(src).expect("parse");
    let f = prog.func_mut(func).expect("function exists");
    let body = std::mem::take(&mut f.body);
    f.body = minic::ast::Block::new(vec![Stmt::synth(StmtKind::Memo(MemoStmt {
        segment: format!("{func}:body"),
        table,
        slot: 0,
        inputs,
        outputs,
        deps: vec![],
        ret,
        body,
    }))]);
    minic::check(prog).expect("memoized program checks")
}

const QUAN_SRC: &str = "
    int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
    int quan(int val) {
        int i;
        for (i = 0; i < 15; i++)
            if (val < power2[i])
                break;
        return (i);
    }
    int main() {
        int s = 0;
        for (int round = 0; round < 50; round++)
            for (int v = 0; v < 20; v++)
                s += quan(v * 100);
        print(s);
        return 0;
    }";

fn quan_table() -> MemoTable {
    // Keys are multiples of 100 below 2000; 2048 slots keep `key mod size`
    // injective so the test sees zero collisions.
    MemoTable::try_direct(&TableSpec {
        slots: 2048,
        key_words: 1,
        out_words: vec![1], // the return value
    })
    .expect("valid spec")
}

#[test]
fn memoized_quan_preserves_semantics_and_saves_cycles() {
    // Original.
    let orig = run_ok(QUAN_SRC);

    // Memoized: input = val, outputs = (return value only).
    let checked = memoize_function(
        QUAN_SRC,
        "quan",
        vec![MemoOperand::scalar("val", ScalarKind::Int)],
        vec![],
        Some(ScalarKind::Int),
        0,
    );
    let module = vm::lower(&checked);
    let cfg = RunConfig {
        tables: vec![quan_table()],
        ..RunConfig::default()
    };
    let memo = run(&module, cfg).expect("memoized run");

    assert_eq!(
        orig.output_text(),
        memo.output_text(),
        "semantics preserved"
    );
    assert!(
        memo.cycles < orig.cycles,
        "memoized ({}) must beat original ({}) at 98% reuse",
        memo.cycles,
        orig.cycles
    );
    let stats = memo.tables[0].stats();
    assert_eq!(stats.accesses, 1000);
    assert_eq!(stats.misses, 20, "one miss per distinct value");
    assert_eq!(stats.hits, 980);
}

#[test]
fn memoized_segment_with_scalar_outputs() {
    // A void-ish segment writing two outputs derived from one input.
    let src = "
        int out_a; int out_b;
        void compute(int x) {
            int t = 0;
            for (int i = 0; i < 50; i++) t += x * i;
            out_a = t;
            out_b = t * 2;
        }
        int main() {
            int s = 0;
            for (int r = 0; r < 30; r++) {
                for (int v = 0; v < 3; v++) {
                    compute(v);
                    s += out_a + out_b;
                }
            }
            print(s);
            return 0;
        }";
    let orig = run_ok(src);
    let checked = memoize_function(
        src,
        "compute",
        vec![MemoOperand::scalar("x", ScalarKind::Int)],
        vec![
            MemoOperand::scalar("out_a", ScalarKind::Int),
            MemoOperand::scalar("out_b", ScalarKind::Int),
        ],
        None,
        0,
    );
    let module = vm::lower(&checked);
    let cfg = RunConfig {
        tables: vec![MemoTable::try_direct(&TableSpec {
            slots: 16,
            key_words: 1,
            out_words: vec![2],
        })
        .expect("valid spec")],
        ..RunConfig::default()
    };
    let memo = run(&module, cfg).expect("memoized run");
    assert_eq!(orig.output_text(), memo.output_text());
    assert_eq!(memo.tables[0].stats().misses, 3);
    assert_eq!(memo.tables[0].stats().hits, 87);
    assert!(memo.cycles < orig.cycles);
}

#[test]
fn memoization_hurts_when_reuse_rate_is_low() {
    // Unique input every call: all misses, pure overhead — the case the
    // paper's cost-benefit analysis exists to filter out.
    let src = "
        int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
        int quan(int val) {
            int i;
            for (i = 0; i < 15; i++)
                if (val < power2[i])
                    break;
            return (i);
        }
        int main() {
            int s = 0;
            for (int v = 0; v < 1000; v++)
                s += quan(v * 17);
            print(s);
            return 0;
        }";
    let orig = run_ok(src);
    let checked = memoize_function(
        src,
        "quan",
        vec![MemoOperand::scalar("val", ScalarKind::Int)],
        vec![],
        Some(ScalarKind::Int),
        0,
    );
    let module = vm::lower(&checked);
    let cfg = RunConfig {
        tables: vec![MemoTable::try_direct(&TableSpec {
            slots: 2048,
            key_words: 1,
            out_words: vec![1],
        })
        .expect("valid spec")],
        ..RunConfig::default()
    };
    let memo = run(&module, cfg).expect("run");
    assert_eq!(orig.output_text(), memo.output_text());
    assert!(
        memo.cycles > orig.cycles,
        "all-miss memoization must cost more ({} vs {})",
        memo.cycles,
        orig.cycles
    );
}

#[test]
fn profile_probe_collects_value_sets() {
    let mut prog = minic::parse(QUAN_SRC).expect("parse");
    let f = prog.func_mut("quan").expect("quan");
    let body = std::mem::take(&mut f.body);
    f.body = minic::ast::Block::new(vec![Stmt::synth(StmtKind::Profile(ProfileStmt {
        segment: "quan:body".into(),
        seg_index: 0,
        inputs: vec![MemoOperand::scalar("val", ScalarKind::Int)],
        body,
    }))]);
    let checked = minic::check(prog).expect("checks");
    let module = vm::lower(&checked);
    let out = run(&module, RunConfig::default()).expect("run");
    let profile = out.profile.expect("profile data");
    let seg = &profile.segs[0];
    assert_eq!(seg.name, "quan:body");
    assert_eq!(seg.n, 1000);
    assert_eq!(seg.dip(), 20);
    assert!((seg.reuse_rate() - 0.98).abs() < 1e-9);
    assert!(seg.avg_cycles() > 0.0);
    let hist = seg.value_histogram().expect("single-word key");
    assert_eq!(hist.len(), 20);
    assert!(hist.iter().all(|&(_, c)| c == 50));
}

#[test]
fn merged_table_segments_share_key() {
    // Two functions with the same input variable memoized into one merged
    // table at different slots.
    let src = "
        int f_out; int g_out;
        void f(int x) { int t = 0; for (int i = 0; i < 40; i++) t += x + i; f_out = t; }
        void g(int x) { int t = 1; for (int i = 0; i < 40; i++) t += x * i; g_out = t; }
        int main() {
            int s = 0;
            for (int r = 0; r < 20; r++)
                for (int v = 0; v < 2; v++) { f(v); g(v); s += f_out + g_out; }
            print(s);
            return 0;
        }";
    let orig = run_ok(src);

    let mut prog = minic::parse(src).expect("parse");
    for (func, outvar, slot) in [("f", "f_out", 0usize), ("g", "g_out", 1usize)] {
        let fd = prog.func_mut(func).expect("func");
        let body = std::mem::take(&mut fd.body);
        fd.body = minic::ast::Block::new(vec![Stmt::synth(StmtKind::Memo(MemoStmt {
            segment: format!("{func}:body"),
            table: 0,
            slot,
            inputs: vec![MemoOperand::scalar("x", ScalarKind::Int)],
            outputs: vec![MemoOperand::scalar(outvar, ScalarKind::Int)],
            deps: vec![],
            ret: None,
            body,
        }))]);
    }
    let checked = minic::check(prog).expect("checks");
    let module = vm::lower(&checked);
    let cfg = RunConfig {
        tables: vec![MemoTable::try_merged(&TableSpec {
            slots: 16,
            key_words: 1,
            out_words: vec![1, 1],
        })
        .expect("valid spec")],
        ..RunConfig::default()
    };
    let memo = run(&module, cfg).expect("run");
    assert_eq!(orig.output_text(), memo.output_text());
    let stats = memo.tables[0].stats();
    assert_eq!(stats.accesses, 80);
    assert_eq!(stats.misses, 4, "2 values × 2 slots cold-miss once each");
    assert!(memo.cycles < orig.cycles);
}

#[test]
fn programs_without_a_runnable_main_are_front_end_errors() {
    for (src, diag) in [
        ("int f() { return 1; }", "program must define `main`"),
        (
            "int main(int a) { print(a); return 0; }",
            "`main` must take no parameters",
        ),
    ] {
        let err = compile_and_run(src, RunConfig::default()).expect_err(src);
        assert!(err.contains(diag), "{src}: {err}");
    }
}
