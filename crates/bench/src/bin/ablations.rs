//! Ablation study over the scheme's design choices:
//!
//! - **no-spec** — §2.4 specialization off (the paper's G721 motivation:
//!   without it, the three-input `quan` is unanalyzable/unprofitable);
//! - **no-nest** — §2.3 nesting resolution off (every profitable segment
//!   transformed, including redundant outer/inner pairs);
//! - **no-merge** — §2.5 table merging off (per-segment tables; the GNU Go
//!   memory blow-up).
//!
//! ```sh
//! cargo run --release -p bench --bin ablations -- --scale 0.15
//! ```

use bench::fmt;
use bench::runner::{execute, prepare_with, InputKind, PrepareOpts};
use compreuse::{run_pipeline, PipelineConfig};
use vm::{CostModel, OptLevel, RunConfig};
use workloads::Workload;

fn main() {
    let args = bench::Args::parse(&["--scale"]);
    let scale = args.scale;
    let mut rows = Vec::new();
    for w in workloads::main_seven() {
        rows.push(ablate(&w, scale));
    }
    fmt::print_table(
        &format!("Ablations: speedup and table bytes per disabled feature (O0, scale {scale})"),
        &[
            "Program",
            "full",
            "no-spec",
            "no-nest",
            "no-merge",
            "bytes full",
            "bytes no-nest",
            "bytes no-merge",
        ],
        &rows,
    );
    println!(
        "\nReading guide: no-spec hurts exactly where specialization creates the candidate\n\
         (G721's quan); no-nest wastes tables on covered outer segments; no-merge\n\
         multiplies GNU Go's table memory (the paper's iPAQ OOM)."
    );
}

fn ablate(w: &Workload, scale: f64) -> Vec<String> {
    let input = (w.default_input)(scale);

    let run_with = |config: PipelineConfig| -> (f64, usize) {
        let program = minic::parse(&w.source).expect("parse");
        let outcome = run_pipeline(&program, &config).expect("pipeline");
        let base = vm::run(
            &vm::lower(&outcome.baseline),
            RunConfig {
                cost: CostModel::o0(),
                input: input.clone(),
                ..RunConfig::default()
            },
        )
        .expect("baseline");
        let memo = vm::run(
            &vm::lower(&outcome.transformed),
            RunConfig {
                cost: CostModel::o0(),
                input: input.clone(),
                tables: outcome.make_tables(),
                ..RunConfig::default()
            },
        )
        .expect("memoized");
        assert_eq!(base.output_text(), memo.output_text(), "{}", w.name);
        (
            base.seconds / memo.seconds,
            outcome.report.total_table_bytes,
        )
    };
    let base_cfg = || PipelineConfig {
        cost: CostModel::o0(),
        profile_input: input.clone(),
        ..PipelineConfig::default()
    };

    let (full, bytes_full) = run_with(base_cfg());
    let (no_spec, _) = run_with(PipelineConfig {
        enable_specialization: false,
        ..base_cfg()
    });
    let (no_nest, bytes_no_nest) = run_with(PipelineConfig {
        enable_nesting: false,
        ..base_cfg()
    });
    let (no_merge, bytes_no_merge) = run_with(PipelineConfig {
        enable_merging: false,
        ..base_cfg()
    });
    // Keep the prepared-runner path exercised too (consistency check).
    let p = prepare_with(w, OptLevel::O0, scale, &PrepareOpts::default());
    let m = execute(&p, w, InputKind::Default, scale);
    assert!(m.output_match);

    vec![
        w.name.to_string(),
        fmt::f(full, 2),
        fmt::f(no_spec, 2),
        fmt::f(no_nest, 2),
        fmt::f(no_merge, 2),
        fmt::bytes(bytes_full),
        fmt::bytes(bytes_no_nest),
        fmt::bytes(bytes_no_merge),
    ]
}
