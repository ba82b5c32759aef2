//! Regenerates the paper's histogram figures: 5/6 (quan input values),
//! 7/8 (accessed table entries), 11 (RASTA patterns), 12 (UNEPIC values),
//! 13 (GNU Go patterns). Select one with --fig N or omit for all.

fn main() {
    let args = bench::Args::parse(&["--scale", "--fig"]);
    match args.fig {
        Some(n) => bench::reports::print_figure(n, args.scale),
        None => {
            for n in [5u32, 6, 7, 8, 11, 12, 13] {
                bench::reports::print_figure(n, args.scale);
            }
        }
    }
}
