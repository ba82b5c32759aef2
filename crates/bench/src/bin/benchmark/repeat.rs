//! `--repeat N`: every chosen workload N times, each run in a process of
//! its own, in alternating order (forward, then backward) so that host
//! drift spreads over all workloads. For each end-to-end metric it
//! prints the median, the quartiles, IQR / median and (max − min) /
//! median, and flags an IQR / median over the metric's bound.

use std::collections::BTreeMap;

use bench::json::Json;

use crate::measure::{median, quantile, ratio};
use crate::plan::Workload;
use crate::report::END_TO_END;

/// Runs `child` for each workload of `targets`, `n` rounds, then prints
/// the spread table. Returns whether every run succeeded.
pub fn run(
    targets: &[Workload],
    n: usize,
    mut child: impl FnMut(Workload) -> std::io::Result<(bool, String)>,
) -> bool {
    let mut values: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for round in 0..n {
        let mut order: Vec<usize> = (0..targets.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for t in order {
            let w = targets[t];
            let metrics = match child(w) {
                Ok((child_ok, stdout)) => {
                    ok &= child_ok;
                    result_metrics(&stdout)
                }
                Err(e) => {
                    eprintln!("benchmark: cannot run {}: {e}", w.name());
                    None
                }
            };
            let Some(metrics) = metrics else {
                eprintln!(
                    "benchmark: round {}: {} printed no result",
                    round + 1,
                    w.name()
                );
                ok = false;
                continue;
            };
            for m in END_TO_END {
                if let Some(&v) = metrics.get(m.name) {
                    values.entry((t, m.name)).or_default().push(v);
                }
            }
            eprintln!("benchmark: round {}/{n}: {} done", round + 1, w.name());
        }
    }
    println!(
        "{:<13} {:<17} {:>4} {:>14} {:>14} {:>14} {:>8} {:>8} {:>7}",
        "workload", "metric", "runs", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for (t, w) in targets.iter().enumerate() {
        for m in END_TO_END {
            let Some(vs) = values.get(&(t, m.name)) else {
                continue;
            };
            let med = median(vs);
            let (q1, q3) = (quantile(vs, 0.25), quantile(vs, 0.75));
            let min = vs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = ratio(q3 - q1, med.abs());
            println!(
                "{:<13} {:<17} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {:>7.3}{}",
                w.name(),
                m.name,
                vs.len(),
                med,
                q1,
                q3,
                spread,
                ratio(max - min, med.abs()),
                m.bound,
                if spread > m.bound {
                    "  SPREAD OVER BOUND"
                } else {
                    ""
                }
            );
        }
    }
    ok
}

/// Metric values of the result line (the last line) of a run's output.
fn result_metrics(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let doc = bench::json::parse(stdout.lines().last()?).ok()?;
    let Json::Obj(members) = doc.get("metrics")? else {
        return None;
    };
    members
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_read_from_the_last_line() {
        let out = "{\"detail\":1}\n{\"correct\":true,\"attempted\":1,\"failed\":0,\
                   \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n";
        let m = result_metrics(out).expect("parses");
        assert_eq!(m.get("setup_s"), Some(&0.5));
    }
}
