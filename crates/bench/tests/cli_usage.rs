//! A malformed command line gets a usage line and exit status 2, never a
//! panic: `metrics` on an unknown flag or workload, and the table
//! binaries (through `bench::Args::parse`) on a malformed value or on a
//! flag they do not read.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
}

#[test]
fn metrics_refuses_an_unknown_flag() {
    assert_usage_error(env!("CARGO_BIN_EXE_metrics"), &["--bogus"]);
}

#[test]
fn metrics_refuses_an_unknown_workload() {
    assert_usage_error(env!("CARGO_BIN_EXE_metrics"), &["NOT_A_WORKLOAD"]);
}

#[test]
fn table_binaries_refuse_a_malformed_value() {
    // `table6_7` reads `--opt`, so the value itself is what it refuses.
    assert_usage_error(env!("CARGO_BIN_EXE_table6_7"), &["--opt", "o9"]);
}

#[test]
fn table_binaries_refuse_a_flag_they_do_not_read() {
    // Only `figures` reads `--fig`; `table4` would ignore it.
    assert_usage_error(env!("CARGO_BIN_EXE_table4"), &["--fig", "9"]);
    // Only `table6_7`, `table8_9` and `fig14_15` read `--opt`.
    assert_usage_error(env!("CARGO_BIN_EXE_table4"), &["--opt", "o3"]);
}
