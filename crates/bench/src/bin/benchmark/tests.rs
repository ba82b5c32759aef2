//! Smoke runs of every workload, checked against `BENCHMARK.json`.

use std::sync::OnceLock;

use bench::json::{self, Json};

use super::*;
use report::{per_layer, END_TO_END};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// A traced smoke run of every workload.
fn smoke(seed: u64) -> Vec<RunReport> {
    Workload::ALL
        .iter()
        .map(|&w| execute(w, seed, 0.0, true, true).0)
        .collect()
}

fn smoke_default_seed() -> &'static [RunReport] {
    static RUNS: OnceLock<Vec<RunReport>> = OnceLock::new();
    RUNS.get_or_init(|| smoke(DEFAULT_SEED))
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s list `key`.
fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks a result line: exactly the four keys, and exactly the metrics
/// `expected`, each a number with its unit.
fn check_result_line(line: &str, expected: &[(String, String)]) {
    let doc = json::parse(line).expect("result line parses");
    let Json::Obj(top) = &doc else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is not an object")
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn smoke_runs_every_workload_without_errors() {
    for run in smoke_default_seed() {
        assert!(run.tally.attempted > 0, "{} checked nothing", run.workload);
        assert_eq!(
            run.tally.failed, 0,
            "{} produced wrong output",
            run.workload
        );
    }
}

#[test]
fn reports_parse_and_name_every_benchmark_metric() {
    let spec = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let end_to_end = listed(&spec, "end_to_end");
    let layers = listed(&spec, "per_layer");
    for run in smoke_default_seed() {
        json::parse(&run.detail_json()).expect("detailed report parses");
        check_result_line(&run.result_json(), &layers);
        let untraced = RunReport {
            traced: false,
            ..run.clone()
        };
        check_result_line(&untraced.result_json(), &end_to_end);
        for m in &run.end_to_end {
            assert!(m.value > 0.0, "{}: {} is {}", run.workload, m.name, m.value);
        }
    }

    // The bounds and directions this binary flags by are the file's.
    let entries = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("list");
    for (m, entry) in END_TO_END.iter().zip(entries) {
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better),
            "{}",
            m.name
        );
    }
    let entries = spec
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("list");
    for (m, entry) in per_layer().iter().zip(entries) {
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better),
            "{}",
            m.name
        );
    }
    assert_eq!(
        spec.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
}

#[test]
fn seeds_change_the_order_but_not_the_work_or_the_verdict() {
    let sorted = |mut v: Vec<usize>| {
        v.sort_unstable();
        v
    };
    for w in Workload::ALL {
        let a = Plan::new(w, DEFAULT_SEED, false);
        let b = Plan::new(w, DEFAULT_SEED + 1, false);
        // The counted cycles run in one order under every seed; the seed
        // orders the cycles after them.
        let counted = a.counted_cycles();
        assert_eq!(a.cycle(0), b.cycle(0), "{}: counted order", w.name());
        assert_ne!(
            a.cycle(counted),
            b.cycle(counted),
            "{}: same order",
            w.name()
        );
        assert_eq!(
            sorted(a.cycle(counted)),
            sorted(b.cycle(counted)),
            "{}: other work",
            w.name()
        );
    }
    let other = smoke(DEFAULT_SEED + 1);
    for (a, b) in smoke_default_seed().iter().zip(&other) {
        assert_eq!(
            b.tally.failed, 0,
            "{} failed under another seed",
            b.workload
        );
        assert_eq!(a.tally.attempted, b.tally.attempted, "{}", a.workload);
    }
}

#[test]
fn serve_workloads_draw_on_the_intended_programs() {
    let names =
        |w: Workload| -> Vec<&str> { w.programs().iter().map(|&p| programs()[p].name).collect() };
    assert_eq!(programs().len(), 7);
    assert_eq!(
        names(Workload::ServeShared),
        ["G721_encode", "G721_decode", "GNUGO"]
    );
    assert_eq!(
        names(Workload::ServeLight),
        ["MPEG2_encode", "MPEG2_decode", "RASTA", "UNEPIC"]
    );
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = parse("--workload serve_light --seed 7 --seconds 3 --trace 1 --smoke").expect("valid");
    assert_eq!(a.workload, Some(Workload::ServeLight));
    assert_eq!((a.seed, a.seconds, a.smoke), (7, 3.0, true));
    assert_eq!(a.trace, TraceOpt::On);
    let a = parse("--workload all --repeat 5 --trace spans.json").expect("valid");
    assert_eq!((a.workload, a.repeat), (None, Some(5)));
    assert_eq!(a.trace, TraceOpt::File("spans.json".into()));
    for bad in [
        "",
        "--workload nope",
        "--workload all --repeat 0",
        "--seed",
        "--bogus 1",
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}
