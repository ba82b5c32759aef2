//! The metric catalogue and the JSON a run prints.
//!
//! Every run prints two lines: a detailed report (each metric with its
//! unit and sample count `n`, plus the host-drift flag and error rate),
//! and last a result line with exactly `correct`, `attempted`, `failed`
//! and `metrics`. The result line holds the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced one.

use std::collections::BTreeMap;

use compreuse::ReuseOutcome;
use memo_runtime::TableStats;

use crate::measure::{quantile, ratio, Cycle, Tally, Timed};
use crate::plan::programs;

/// An end-to-end metric and the worsening that counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload. `BENCHMARK.json`
/// lists the same names, units and bounds.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "code_size_ratio",
        unit: "ratio",
        better: "lower",
        bound: 0.005,
    },
    EndToEnd {
        name: "throughput_ops",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup_modelled",
        unit: "x",
        better: "higher",
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.09,
    },
];

/// Metrics only the detailed report carries: `compile`'s median time per
/// seven-program sweep. Other workloads have no sweep, and on `compile` it
/// is seven over `throughput_ops`, so the result line leaves it out.
pub const DETAIL_ONLY: [(&str, &str, &str); 1] = [("compile_s", "s", "lower")];

/// The bound of end-to-end metric `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`END_TO_END`].
pub fn bound(name: &str) -> f64 {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
        .bound
}

/// A per-layer metric: name, unit and which direction is better.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Metric name, `<layer>.<what>[.<program>]`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// The per-layer metrics, reported by every traced run (0 where the
/// workload does not call that layer).
pub fn per_layer() -> Vec<LayerMetric> {
    let mut all = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        all.push(LayerMetric { name, unit, better })
    };
    add("minic.parse_ms".into(), "ms", "lower");
    add("core.pipeline_ms".into(), "ms", "lower");
    for p in programs().iter().map(|w| w.name) {
        add(format!("core.pipeline_ms.{p}"), "ms", "lower");
    }
    for what in ["analyzed", "profiled", "transformed"] {
        add(format!("core.segments_{what}"), "count", "higher");
    }
    add("core.table_bytes".into(), "bytes", "lower");
    add("vm.lower_ms".into(), "ms", "lower");
    add("vm.precompile_ms".into(), "ms", "lower");
    for p in programs().iter().map(|w| w.name) {
        add(format!("vm.run_ms_p50.{p}"), "ms", "lower");
    }
    add("vm.cycles_memo".into(), "cycles", "lower");
    add("vm.cycles_ref".into(), "cycles", "lower");
    add("memo_runtime.make_tables_ms".into(), "ms", "lower");
    for (what, unit, better) in [
        ("accesses", "count", "lower"),
        ("hits", "count", "higher"),
        ("collisions", "count", "lower"),
        ("evictions", "count", "lower"),
        ("hit_ratio", "ratio", "higher"),
    ] {
        add(format!("memo_runtime.{what}"), unit, better);
    }
    for (what, unit, better) in [
        ("accesses", "count", "lower"),
        ("hits", "count", "higher"),
        ("insertions", "count", "lower"),
        ("evictions", "count", "lower"),
        ("hit_ratio", "ratio", "higher"),
        ("insert_share", "ratio", "lower"),
        ("optimistic_hits", "count", "higher"),
        ("optimistic_retries", "count", "lower"),
        ("optimistic_share", "ratio", "higher"),
        ("l1_hits", "count", "higher"),
        ("l1_promotions", "count", "higher"),
        ("l1_hit_share", "ratio", "higher"),
        ("admission_rejects", "count", "lower"),
        ("green_hits", "count", "higher"),
        ("stale_reds", "count", "lower"),
        ("bytes", "bytes", "lower"),
        ("accesses_per_request", "count", "lower"),
    ] {
        add(format!("memo_runtime.store.{what}"), unit, better);
    }
    for p in programs().iter().map(|w| w.name) {
        add(
            format!("memo_runtime.store.hit_ratio.{p}"),
            "ratio",
            "higher",
        );
    }
    for (what, unit) in [
        ("batch_ms_p50", "ms"),
        ("exec_ms_sum", "ms"),
        ("worker_idle_share", "ratio"),
        ("per_worker_max_share", "ratio"),
        ("retries", "count"),
        ("not_ok", "count"),
    ] {
        add(format!("service.{what}"), unit, "lower");
    }
    add("host.cpus".into(), "count", "higher");
    add("host.calib_ms_start".into(), "ms", "lower");
    add("host.calib_ms_end".into(), "ms", "lower");
    add("host.quiet_wait_s".into(), "s", "lower");
    add("trace.overhead_share".into(), "ratio", "lower");
    all
}

/// Measured values by metric name, each with its sample count.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<String, (f64, usize)>,
}

impl Sheet {
    /// Records `name` = `value` over `n` samples.
    pub fn set(&mut self, name: impl Into<String>, value: f64, n: usize) {
        self.values.insert(name.into(), (value, n));
    }

    /// Records `name` unless the workload already did.
    pub fn set_default(&mut self, name: impl Into<String>, value: f64, n: usize) {
        self.values.entry(name.into()).or_insert((value, n));
    }

    /// Throughput, latency quantiles and tracing overhead of a timed
    /// phase: each the median over cycles of the cycle's own figure.
    pub fn timed(&mut self, timed: &Timed) {
        let arm = timed.primary();
        let n = arm.cycles.len();
        let latency = |q: f64| arm.median_by(|c| quantile(&c.latencies_ms, q));
        self.set("throughput_ops", arm.median_by(Cycle::throughput), n);
        self.set("latency_ms_p50", latency(0.5), n);
        self.set("latency_ms_p95", latency(0.95), n);
        self.set("trace.overhead_share", timed.overhead_share(), 2);
    }

    /// Segment counts and planned table bytes summed over `outcomes`.
    pub fn pipeline_counts<'a>(&mut self, outcomes: impl Iterator<Item = &'a ReuseOutcome>) {
        let (mut analyzed, mut profiled, mut transformed, mut bytes, mut n) = (0, 0, 0, 0, 0);
        for o in outcomes {
            analyzed += o.report.analyzed;
            profiled += o.report.profiled;
            transformed += o.report.transformed;
            bytes += o.report.total_table_bytes;
            n += 1;
        }
        self.set("core.segments_analyzed", analyzed as f64, n);
        self.set("core.segments_profiled", profiled as f64, n);
        self.set("core.segments_transformed", transformed as f64, n);
        self.set("core.table_bytes", bytes as f64, n);
    }

    /// Transformed / baseline lines of the pretty-printed programs of
    /// `outcomes`.
    pub fn code_size<'a>(&mut self, outcomes: impl Iterator<Item = &'a ReuseOutcome>) {
        let (mut base, mut memo, mut n) = (0, 0, 0);
        for o in outcomes {
            let (b, m) = code_lines(o);
            base += b;
            memo += m;
            n += 1;
        }
        self.set("code_size_ratio", ratio(memo as f64, base as f64), n);
    }

    /// Counters of run-private memo tables over `runs` runs.
    pub fn private_tables(&mut self, stats: &TableStats, runs: usize) {
        self.set("memo_runtime.accesses", stats.accesses as f64, runs);
        self.set("memo_runtime.hits", stats.hits as f64, runs);
        self.set("memo_runtime.collisions", stats.collisions as f64, runs);
        self.set("memo_runtime.evictions", stats.evictions as f64, runs);
        self.set("memo_runtime.hit_ratio", stats.hit_ratio(), runs);
    }
}

/// Lines of the pretty-printed baseline and transformed programs.
pub fn code_lines(o: &ReuseOutcome) -> (usize, usize) {
    let lines = |c: &minic::Checked| minic::pretty::print_program(&c.program).lines().count();
    (lines(&o.baseline), lines(&o.transformed))
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Seed of the operation order.
    pub seed: u64,
    /// Whether the run was traced.
    pub traced: bool,
    /// Checked and wrong operations.
    pub tally: Tally,
    /// Whether the host's calibration loop moved by more than the
    /// throughput bound between the start and the end of the run.
    pub host_drift: bool,
    /// End-to-end metrics, in catalogue order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in catalogue order.
    pub per_layer: Vec<Metric>,
    /// The [`DETAIL_ONLY`] metrics this workload measured.
    pub detail_only: Vec<Metric>,
}

impl RunReport {
    /// Assembles the report from a run's sheet.
    ///
    /// # Panics
    ///
    /// Panics if the workload left an end-to-end metric unmeasured.
    pub fn new(
        workload: &'static str,
        seed: u64,
        traced: bool,
        tally: Tally,
        host_drift: bool,
        sheet: &Sheet,
    ) -> RunReport {
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let &(value, n) = sheet
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{workload} did not measure {}", m.name));
                Metric {
                    name: m.name.to_string(),
                    unit: m.unit,
                    better: m.better,
                    value,
                    n,
                }
            })
            .collect();
        let per_layer = per_layer()
            .into_iter()
            .map(|m| {
                let (value, n) = sheet.values.get(&m.name).copied().unwrap_or((0.0, 0));
                Metric {
                    name: m.name,
                    unit: m.unit,
                    better: m.better,
                    value,
                    n,
                }
            })
            .collect();
        let detail_only = DETAIL_ONLY
            .iter()
            .filter_map(|&(name, unit, better)| {
                let &(value, n) = sheet.values.get(name)?;
                Some(Metric {
                    name: name.to_string(),
                    unit,
                    better,
                    value,
                    n,
                })
            })
            .collect();
        RunReport {
            workload,
            seed,
            traced,
            tally,
            host_drift,
            end_to_end,
            per_layer,
            detail_only,
        }
    }

    /// The metrics the result line carries.
    pub fn result_metrics(&self) -> &[Metric] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The detailed report: every metric with unit and sample count.
    pub fn detail_json(&self) -> String {
        let list = |metrics: &[Metric]| {
            metrics
                .iter()
                .map(|m| {
                    format!(
                        "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"value\":{},\"n\":{}}}",
                        m.name,
                        m.unit,
                        m.better,
                        number(m.value),
                        m.n
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"host_drift\":{},\
             \"attempted\":{},\"failed\":{},\"error_rate\":{},\
             \"end_to_end\":[{}],\"per_layer\":[{}],\"detail_only\":[{}]}}",
            self.workload,
            self.seed,
            self.traced,
            self.host_drift,
            self.tally.attempted,
            self.tally.failed,
            number(ratio(self.tally.failed as f64, self.tally.attempted as f64)),
            list(&self.end_to_end),
            list(&self.per_layer),
            list(&self.detail_only)
        )
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .result_metrics()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}
