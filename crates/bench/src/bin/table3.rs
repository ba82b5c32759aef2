//! Regenerates the paper's Table 3: factors which affect the optimization
//! decision (granularity, overhead, DIP#, reuse rate, table size).

fn main() {
    let args = bench::Args::parse(&["--scale"]);
    let rows = bench::reports::table3(args.scale);
    bench::fmt::print_table(
        &format!(
            "Table 3: factors which affect the optimization decision (scale {})",
            args.scale
        ),
        &bench::reports::TABLE3_HEADERS,
        &rows,
    );
}
