//! Regenerates the paper's Table 10: performance improvement for
//! different input files (profiled on defaults, run on alternates, O3).

fn main() {
    let args = bench::Args::parse(&["--scale"]);
    let rows = bench::reports::table10(args.scale);
    bench::fmt::print_table(
        &format!(
            "Table 10: performance improvement for different input files (O3, scale {})",
            args.scale
        ),
        &bench::reports::TABLE10_HEADERS,
        &rows,
    );
}
