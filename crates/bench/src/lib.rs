//! # bench — the harness that regenerates the paper's evaluation
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §4 for the
//! full index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table3` | Table 3 — factors affecting the decision |
//! | `table4` | Table 4 — segment counts |
//! | `table5` | Table 5 — hit ratios with limited LRU buffers |
//! | `table6_7` | Tables 6/7 — speedups under O0/O3 |
//! | `table8_9` | Tables 8/9 — energy savings under O0/O3 |
//! | `table10` | Table 10 — speedups on alternate inputs |
//! | `figures` | Figures 5–8, 11–13 — value/entry histograms |
//! | `fig14_15` | Figures 14/15 — speedup vs. hash-table size |
//! | `all_tables` | everything above in one run |
//!
//! Common flags: `--scale <f>` (input-size factor, default 0.25),
//! `--opt <o0|o3>` where applicable. Run with `--release`; a tree-walking
//! interpreter in debug mode is an order of magnitude slower.

#![warn(missing_docs)]

pub mod fmt;
pub mod json;
pub mod reports;
pub mod runner;
pub mod serve;

pub use runner::{execute, prepare, InputKind, Measurement, Prepared};

/// Tiny argument parser shared by the table binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Input-size scale factor (1.0 = full size).
    pub scale: f64,
    /// Optimization level for cost modelling.
    pub opt: vm::OptLevel,
    /// Free-standing figure/extra selector.
    pub fig: Option<u32>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 0.25,
            opt: vm::OptLevel::O0,
            fig: None,
        }
    }
}

impl Args {
    /// Parses `--scale <f>`, `--opt <o0|o3>`, `--fig <n>` from the process
    /// arguments.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse() -> Args {
        let mut args = Args::default();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    i += 1;
                    args.scale = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--scale needs a number"));
                }
                "--opt" => {
                    i += 1;
                    args.opt = match argv.get(i).map(String::as_str) {
                        Some("o0") | Some("O0") => vm::OptLevel::O0,
                        Some("o3") | Some("O3") => vm::OptLevel::O3,
                        other => panic!("--opt needs o0 or o3, got {other:?}"),
                    };
                }
                "--fig" => {
                    i += 1;
                    args.fig = Some(
                        argv.get(i)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| panic!("--fig needs a number")),
                    );
                }
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        args
    }
}

/// Harmonic mean of a slice (the paper's summary statistic for speedups).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_matches_definition() {
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        // HM(1, 2) = 2/(1 + 0.5) = 4/3.
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }
}
