//! Regenerates every table and figure of the paper's evaluation in one
//! run. Expect several minutes at the default scale; use --scale to trade
//! fidelity for time.

fn main() {
    let args = bench::Args::parse(&["--scale"]);
    let s = args.scale;
    println!("compreuse evaluation harness — input scale {s}");

    let rows = bench::reports::table3(s);
    bench::fmt::print_table(
        "Table 3: factors which affect the optimization decision",
        &bench::reports::TABLE3_HEADERS,
        &rows,
    );

    let rows = bench::reports::table4(s);
    bench::fmt::print_table(
        "Table 4: number of code segments",
        &bench::reports::TABLE4_HEADERS,
        &rows,
    );

    let rows = bench::reports::table5(s);
    bench::fmt::print_table(
        "Table 5: hit ratios with limited buffers",
        &bench::reports::TABLE5_HEADERS,
        &rows,
    );

    let rows = bench::reports::table6_or_7(vm::OptLevel::O0, s);
    bench::fmt::print_table(
        "Table 6: performance improvement with O0",
        &bench::reports::TABLE67_HEADERS,
        &rows,
    );

    let rows = bench::reports::table6_or_7(vm::OptLevel::O3, s);
    bench::fmt::print_table(
        "Table 7: performance improvement with O3",
        &bench::reports::TABLE67_HEADERS,
        &rows,
    );

    let rows = bench::reports::table8_or_9(vm::OptLevel::O0, s);
    bench::fmt::print_table(
        "Table 8: energy saving with O0",
        &bench::reports::TABLE89_HEADERS,
        &rows,
    );

    let rows = bench::reports::table8_or_9(vm::OptLevel::O3, s);
    bench::fmt::print_table(
        "Table 9: energy saving with O3",
        &bench::reports::TABLE89_HEADERS,
        &rows,
    );

    let rows = bench::reports::table10(s);
    bench::fmt::print_table(
        "Table 10: performance for different input files (O3)",
        &bench::reports::TABLE10_HEADERS,
        &rows,
    );

    for n in [5u32, 6, 7, 8, 11, 12, 13] {
        bench::reports::print_figure(n, s);
    }

    let rows = bench::reports::fig14_15(vm::OptLevel::O0, s);
    bench::fmt::print_table(
        "Figure 14: speedups vs hash table size (O0)",
        &bench::reports::FIG1415_HEADERS,
        &rows,
    );

    let rows = bench::reports::fig14_15(vm::OptLevel::O3, s);
    bench::fmt::print_table(
        "Figure 15: speedups vs hash table size (O3)",
        &bench::reports::FIG1415_HEADERS,
        &rows,
    );
}
