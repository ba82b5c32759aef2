//! Regenerates the paper's Figure 14 (O0) / Figure 15 (O3): speedups with
//! different hash table sizes. Select with --opt o0|o3.

fn main() {
    let args = bench::Args::parse(&["--scale", "--opt"]);
    let rows = bench::reports::fig14_15(args.opt, args.scale);
    let which = match args.opt {
        vm::OptLevel::O0 => "Figure 14: speedups vs hash table size (O0)",
        vm::OptLevel::O3 => "Figure 15: speedups vs hash table size (O3)",
    };
    bench::fmt::print_table(
        &format!("{which} (scale {})", args.scale),
        &bench::reports::FIG1415_HEADERS,
        &rows,
    );
}
