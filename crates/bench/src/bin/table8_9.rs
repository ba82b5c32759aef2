//! Regenerates the paper's Table 8 (O0) or Table 9 (O3): energy saving.
//! Select with --opt o0|o3 (default o0); --scale `<f>`.

fn main() {
    let args = bench::Args::parse(&["--scale", "--opt"]);
    let rows = bench::reports::table8_or_9(args.opt, args.scale);
    let which = match args.opt {
        vm::OptLevel::O0 => "Table 8: energy saving with O0",
        vm::OptLevel::O3 => "Table 9: energy saving with O3",
    };
    bench::fmt::print_table(
        &format!("{which} (scale {})", args.scale),
        &bench::reports::TABLE89_HEADERS,
        &rows,
    );
}
