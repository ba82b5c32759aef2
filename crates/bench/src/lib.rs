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
//! `--opt <o0|o3>` where applicable; a malformed command line, or a flag
//! the binary does not read, prints a usage line and exits with status 2.
//! Run with `--release`; a tree-walking interpreter in debug mode is an
//! order of magnitude slower.

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
    /// Parses the flags a binary reads, named in `reads` (a subset of
    /// `--scale <f>`, `--opt <o0|o3>`, `--fig <n>`), from the process
    /// arguments. Any other flag, a flag the binary does not read among
    /// them, or a malformed value prints the error and a usage line
    /// naming the flags in `reads` to stderr and exits with status 2
    /// ([`exit_usage`]).
    pub fn parse(reads: &[&str]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::from_argv(&argv, reads).unwrap_or_else(|e| {
            let usage: Vec<&str> = reads
                .iter()
                .map(|&flag| match flag {
                    "--scale" => "[--scale f]",
                    "--opt" => "[--opt o0|o3]",
                    "--fig" => "[--fig n]",
                    other => other,
                })
                .collect();
            exit_usage(&e, &usage.join(" "))
        })
    }

    fn from_argv(argv: &[String], reads: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if !reads.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag}"));
            }
            let value = it.next().map(String::as_str);
            match flag.as_str() {
                "--scale" => args.scale = parse_scale(value)?,
                "--opt" => args.opt = parse_opt(value)?,
                "--fig" => {
                    args.fig = Some(
                        value
                            .and_then(|s| s.parse().ok())
                            .ok_or("--fig needs a number")?,
                    )
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }
}

/// Parses the value of `--scale`.
///
/// # Errors
///
/// Returns the message to print when the value is missing or not a number.
pub fn parse_scale(value: Option<&str>) -> Result<f64, String> {
    value
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("--scale needs a number, got {:?}", value.unwrap_or("")))
}

/// Parses the value of `--opt`.
///
/// # Errors
///
/// Returns the message to print when the value is not `o0` or `o3`.
pub fn parse_opt(value: Option<&str>) -> Result<vm::OptLevel, String> {
    match value {
        Some("o0") | Some("O0") => Ok(vm::OptLevel::O0),
        Some("o3") | Some("O3") => Ok(vm::OptLevel::O3),
        other => Err(format!(
            "--opt needs o0 or o3, got {:?}",
            other.unwrap_or("")
        )),
    }
}

/// Prints `error` and a usage line naming the running binary and its
/// `flags` to stderr, then exits with status 2: how every binary here
/// answers a malformed command line.
pub fn exit_usage(error: &str, flags: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0)
        .file_name()
        .map_or_else(|| argv0.as_str().into(), std::ffi::OsStr::to_string_lossy);
    eprintln!("{bin}: {error}\nusage: {bin} {flags}");
    std::process::exit(2)
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
