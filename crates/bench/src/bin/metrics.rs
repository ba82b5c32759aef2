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
//! unless the memoized run prints what the baseline prints, and with
//! status 2 and a usage line on an unknown flag or workload or a
//! malformed value.
//!
//! The report is the same under either execution engine
//! (`engine_differential` pins that), so it runs on the default one.
//! Host timings live in the seeded `benchmark` package, and the service's
//! fault, restore and scaling contracts in the `chaos_soak`,
//! `persistence` and `serve_determinism` tests.

use bench::runner::{execute_with_tables, prepare, InputKind};
use bench::{exit_usage, parse_opt, parse_scale};

const FLAGS: &str = "[workload] [--scale f] [--opt o0|o3] [--alt]";

fn main() {
    let mut name = "G721_encode".to_string();
    let mut scale = 0.25f64;
    let mut opt = vm::OptLevel::O0;
    let mut input = InputKind::Default;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--scale" => scale = parse_scale(value()).unwrap_or_else(|e| exit_usage(&e, FLAGS)),
            "--opt" => opt = parse_opt(value()).unwrap_or_else(|e| exit_usage(&e, FLAGS)),
            "--alt" => input = InputKind::Alt,
            w if !w.starts_with('-') => name = w.to_string(),
            other => exit_usage(&format!("unknown flag {other}"), FLAGS),
        }
    }

    let w = workloads::by_name(&name).unwrap_or_else(|| {
        let names: Vec<&str> = workloads::all_eleven().iter().map(|w| w.name).collect();
        exit_usage(
            &format!("unknown workload {name}; one of: {}", names.join(", ")),
            FLAGS,
        )
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
