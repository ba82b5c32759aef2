//! Regenerates the paper's Table 5: hit ratios with limited buffers
//! (1/4/16/64-entry LRU), modelling the hardware reuse-buffer proposals.

fn main() {
    let args = bench::Args::parse(&["--scale"]);
    let rows = bench::reports::table5(args.scale);
    bench::fmt::print_table(
        &format!(
            "Table 5: hit ratios with limited buffers (scale {})",
            args.scale
        ),
        &bench::reports::TABLE5_HEADERS,
        &rows,
    );
}
