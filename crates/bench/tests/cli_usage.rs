//! A malformed command line gets a usage line and exit status 2, never a
//! panic: `metrics` on an unknown flag or workload, and the table
//! binaries (through `bench::Args::parse`) on a malformed value.

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
    assert_usage_error(env!("CARGO_BIN_EXE_table4"), &["--opt", "o9"]);
}
