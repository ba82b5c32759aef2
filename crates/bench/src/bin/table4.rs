//! Regenerates the paper's Table 4: number of code segments analyzed,
//! profiled, and transformed.

fn main() {
    let args = bench::Args::parse(&["--scale"]);
    let rows = bench::reports::table4(args.scale);
    bench::fmt::print_table(
        &format!("Table 4: number of code segments (scale {})", args.scale),
        &bench::reports::TABLE4_HEADERS,
        &rows,
    );
}
