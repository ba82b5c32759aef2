//! Emits the JSON runtime-table metrics report for one workload: per-table
//! and per-segment accesses, hits, misses, collisions and evictions, the
//! table's forced-bypass counts (`bypassed_lookups`, `dropped_records`),
//! and the bytes the value-set profile's input patterns take
//! (`profile.raw_bytes` at 8 bytes a word, `profile.packed_bytes` as
//! held).
//!
//! ```text
//! cargo run --release -p bench --bin metrics -- [workload] [--scale f]
//!     [--opt o0|o3] [--alt]
//! ```
//!
//! `--alt` executes on the Table 10 alternate inputs (profiling always
//! uses the defaults), the scenario where live rates diverge from the
//! profile's predictions.
//!
//! Defaults: `G721_encode`, scale 0.25, O0. The process exits nonzero
//! unless the memoized run prints what the baseline prints.
//!
//! The report is the same under either execution engine
//! (`engine_differential` pins that), so it runs on the default one.
//! Host timings live in the seeded `benchmark` package, and the service's
//! fault, restore and scaling contracts in the `chaos_soak`,
//! `persistence` and `serve_determinism` tests.

use bench::runner::{execute_with_tables, prepare, InputKind};

fn main() {
    let mut name = "G721_encode".to_string();
    let mut scale = 0.25f64;
    let mut opt = vm::OptLevel::O0;
    let mut input = InputKind::Default;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
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
            "--alt" => input = InputKind::Alt,
            w if !w.starts_with('-') => name = w.to_string(),
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    let w = workloads::by_name(&name).unwrap_or_else(|| {
        let names: Vec<&str> = workloads::all_eleven().iter().map(|w| w.name).collect();
        panic!("unknown workload {name}; one of: {}", names.join(", "))
    });
    let p = prepare(&w, opt, scale);
    let tables = p.outcome.try_make_tables().unwrap_or_else(|e| {
        eprintln!("metrics: invalid table spec: {e}");
        std::process::exit(1);
    });
    let m = execute_with_tables(&p, &w, input, scale, tables);
    assert!(m.output_match, "{name}: outputs diverged");
    println!("{}", bench::reports::metrics_report_json(&p, &m));
}
