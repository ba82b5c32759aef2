//! Regenerates the paper's Table 6 (O0) or Table 7 (O3): performance
//! improvement. Select with --opt o0|o3 (default o0); --scale `<f>`.

fn main() {
    let args = bench::Args::parse(&["--scale", "--opt"]);
    let rows = bench::reports::table6_or_7(args.opt, args.scale);
    let which = match args.opt {
        vm::OptLevel::O0 => "Table 6: performance improvement with O0",
        vm::OptLevel::O3 => "Table 7: performance improvement with O3",
    };
    bench::fmt::print_table(
        &format!("{which} (scale {})", args.scale),
        &bench::reports::TABLE67_HEADERS,
        &rows,
    );
}
