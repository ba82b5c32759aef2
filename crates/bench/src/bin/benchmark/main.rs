//! `benchmark` — one seeded benchmark for the compiler, the private-table
//! runtime and the reuse service, with end-to-end and per-layer metrics.
//! README.md beside this file describes the workloads and metrics.
//!
//! ```text
//! benchmark --workload <compile|run_private|serve_shared|serve_light|all>
//!           [--seed N] [--seconds S] [--trace 0|1|PATH] [--repeat N] [--smoke]
//! ```
//!
//! One workload runs in this process and prints its report; `all` and
//! `--repeat` run each workload in a child process of their own.

mod compile;
mod measure;
mod plan;
mod prepare;
mod private;
mod repeat;
mod report;
mod serve;
#[cfg(test)]
mod tests;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use measure::{calibrate_ms, cpus, median, peak_rss_mb};
use plan::{programs, Plan, Workload};
use report::{RunReport, Sheet};
use trace::Tracer;

/// Seed of the operation order when `--seed` is not given.
const DEFAULT_SEED: u64 = 2004;
/// Length of the timed phase when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str =
    "usage: benchmark --workload <compile|run_private|serve_shared|serve_light|all> \
                     [--seed N] [--seconds S] [--trace 0|1|PATH] [--repeat N] [--smoke]";

/// Whether and where to trace.
#[derive(Debug, Clone, PartialEq)]
enum TraceOpt {
    /// Untraced: the result line carries the end-to-end metrics.
    Off,
    /// Traced, spans written to the default path.
    On,
    /// Traced, spans written to this path.
    File(PathBuf),
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    /// One workload, or `None` for all of them.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: TraceOpt,
    repeat: Option<usize>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: TraceOpt::Off,
        repeat: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value {
                    "all" => None,
                    name => Some(Workload::from_name(name).ok_or_else(bad)?),
                })
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value {
                    "0" => TraceOpt::Off,
                    "1" => TraceOpt::On,
                    path => TraceOpt::File(PathBuf::from(path)),
                }
            }
            "--repeat" => {
                args.repeat = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workload, args.repeat) {
        (Some(w), None) => run_here(w, &args),
        (None, None) => {
            let mut ok = true;
            for w in Workload::ALL {
                match run_child(w, &args, &args.trace) {
                    Ok((child_ok, stdout)) => {
                        print!("{stdout}");
                        ok &= child_ok;
                    }
                    Err(e) => {
                        eprintln!("benchmark: cannot run {}: {e}", w.name());
                        ok = false;
                    }
                }
            }
            ok
        }
        (one, Some(n)) => {
            let targets: Vec<Workload> = one.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            repeat::run(&targets, n, |w| run_child(w, &args, &TraceOpt::Off))
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its report. Returns
/// whether every output was correct.
fn run_here(w: Workload, args: &Args) -> bool {
    let traced = args.trace != TraceOpt::Off;
    let (report, tracer) = execute(w, args.seed, args.seconds, args.smoke, traced);
    let spans = match &args.trace {
        TraceOpt::Off => None,
        TraceOpt::On => Some(default_spans_path(w, args.seed)),
        TraceOpt::File(path) => Some(path.clone()),
    };
    if let Some(path) = spans {
        if let Err(e) = tracer.write_json(&path, w.name(), args.seed) {
            eprintln!("benchmark: cannot write spans to {}: {e}", path.display());
            return false;
        }
        eprintln!("benchmark: spans written to {}", path.display());
    }
    println!("{}", report.detail_json());
    println!("{}", report.result_json());
    report.tally.failed == 0 && report.tally.attempted > 0
}

/// Runs one workload in a child process of this binary. Returns whether
/// it succeeded, and its standard output.
fn run_child(w: Workload, args: &Args, trace: &TraceOpt) -> std::io::Result<(bool, String)> {
    let trace = match trace {
        TraceOpt::Off => "0".to_string(),
        TraceOpt::On => "1".to_string(),
        TraceOpt::File(path) => per_workload_path(path, w).display().to_string(),
    };
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", &trace]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output()?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// `spans.json` → `spans-<workload>.json`.
fn per_workload_path(path: &Path, w: Workload) -> PathBuf {
    let stem = path
        .file_stem()
        .map_or("spans".into(), |s| s.to_string_lossy());
    let ext = path
        .extension()
        .map_or("json".into(), |e| e.to_string_lossy());
    path.with_file_name(format!("{stem}-{}.{ext}", w.name()))
}

/// Where `--trace 1` writes spans: under the cargo target directory.
fn default_spans_path(w: Workload, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target
        .join("benchmark")
        .join(format!("spans-{}-{seed}.json", w.name()))
}

/// Runs one workload: calibration, the workload itself, span-derived
/// per-layer metrics and the host record.
fn execute(w: Workload, seed: u64, seconds: f64, smoke: bool, traced: bool) -> (RunReport, Tracer) {
    let calib_start = calibrate_ms();
    let plan = Plan::new(w, seed, smoke);
    let mut tracer = Tracer::new(traced);
    let run = match w {
        Workload::Compile => compile::run,
        Workload::RunPrivate => private::run,
        Workload::ServeShared | Workload::ServeLight => serve::run,
    };
    let (mut sheet, tally) = run(&plan, seconds, &mut tracer);
    sheet.set("peak_rss_mb", peak_rss_mb(), 1);
    span_metrics(&tracer, &mut sheet);
    let calib_end = calibrate_ms();
    sheet.set("host.cpus", cpus() as f64, 1);
    sheet.set("host.calib_ms_start", calib_start, 3);
    sheet.set("host.calib_ms_end", calib_end, 3);
    let host_drift = (calib_end / calib_start - 1.0).abs() > report::bound("throughput_ops");
    let report = RunReport::new(w.name(), seed, traced, tally, host_drift, &sheet);
    (report, tracer)
}

/// Per-layer times from the trace: the median self time of each call.
fn span_metrics(tr: &Tracer, sheet: &mut Sheet) {
    let mut put = |name: String, values: Vec<f64>| {
        if !values.is_empty() {
            sheet.set_default(name, median(&values), values.len());
        }
    };
    for (metric, span) in [
        ("minic.parse_ms", "minic::parse"),
        ("core.pipeline_ms", "compreuse::run_pipeline"),
        ("vm.lower_ms", "vm::lower"),
        ("vm.precompile_ms", "vm::precompile"),
        ("memo_runtime.make_tables_ms", "ReuseOutcome::make_tables"),
    ] {
        put(metric.to_string(), tr.self_ms(span, None, false));
    }
    put(
        "service.batch_ms_p50".to_string(),
        tr.self_ms("ReuseService::run", None, true),
    );
    for (p, w) in programs().iter().enumerate() {
        let name = w.name;
        put(
            format!("core.pipeline_ms.{name}"),
            tr.self_ms("compreuse::run_pipeline", Some(p), false),
        );
        put(
            format!("vm.run_ms_p50.{name}"),
            tr.self_ms("vm::run_precompiled", Some(p), false),
        );
    }
}
