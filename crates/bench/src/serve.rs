//! The reuse-service harness the serving tests and examples share: a
//! request-serving run over the seven main workloads.
//!
//! Builds one [`service::ReuseService`] whose programs are the memoized
//! modules the pipeline produced, then drives a mixed request batch
//! (default and alternate inputs, round-robin across workloads) through
//! it at each worker count of a sweep. Every sweep point starts from a
//! cold store ([`service::ReuseService::reset_stores`]) and runs the
//! batch twice — the second, warm round measures what a populated shared
//! store buys. Fingerprints at every point must equal the sequential
//! private-table baseline ([`service::ReuseService::run_private_sequential`]);
//! throughput and hit rates are expected to differ (DESIGN.md §8e).
//!
//! With [`ServeOpts::fault_seed`] set, every sweep point additionally
//! runs under a deterministic [`FaultPlan`] firing all four fail points
//! at [`ServeOpts::fault_rate`]. Faults may shed, delay, or retry
//! requests, but every request that *executes* must still fingerprint
//! identically to the fault-free baseline, and the four terminal
//! statuses must account for the whole batch (DESIGN.md §8f).

use std::sync::Arc;

use crate::runner::{prepare_with, PrepareOpts};
use memo_runtime::{FaultPlan, TableStats};
use service::{Request, ReuseService, ServiceConfig, ServiceProgram, ServiceReport};
use vm::{CostModel, OptLevel};
use workloads::Workload;

/// Options for a serving run.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Input-size scale factor for profiling and request inputs.
    pub scale: f64,
    /// Optimization level the programs are planned and costed under.
    pub opt: OptLevel,
    /// Lock shards per table.
    pub shards: usize,
    /// Bounded request-queue capacity.
    pub queue_capacity: usize,
    /// Requests per workload in the batch (alternating default and
    /// alternate inputs).
    pub requests_per_workload: usize,
    /// Seed for a deterministic [`FaultPlan`]; `None` (the default) runs
    /// fault-free.
    pub fault_seed: Option<u64>,
    /// Fire rate applied to every fail point when `fault_seed` is set.
    pub fault_rate: f64,
    /// Default per-request modelled-cycle deadline.
    pub deadline_cycles: Option<u64>,
    /// Queue-depth high watermark at which the producer sheds load.
    pub high_watermark: Option<usize>,
    /// Whether the stores gate recordings through TinyLFU admission.
    pub admission: bool,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            scale: 0.25,
            opt: OptLevel::O0,
            shards: 8,
            queue_capacity: 64,
            requests_per_workload: 4,
            fault_seed: None,
            fault_rate: 0.1,
            deadline_cycles: None,
            high_watermark: None,
            admission: false,
        }
    }
}

impl ServeOpts {
    /// A fresh fault plan for one sweep point, or `None` when
    /// `fault_seed` is unset. Each point gets its own plan so the fault
    /// sequence (and the counters reported for the point) restart from
    /// the seed, making every point independently reproducible.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_seed
            .map(|seed| Arc::new(FaultPlan::new(seed).with_all_rates(self.fault_rate)))
    }
}

/// Whether every *executed* request in `r` (status `Ok` or
/// `DeadlineExceeded`) fingerprinted identically to the same request in
/// the fault-free sequential baseline. Shed and exhausted requests never
/// ran, so they carry no fingerprint to compare (DESIGN.md §8f).
pub fn executed_matches(r: &ServiceReport, expected: &[u64]) -> bool {
    r.executed_fingerprints()
        .iter()
        .all(|&(i, fp)| expected.get(i) == Some(&fp))
}

/// Builds the service (pipeline run per workload, in parallel) and the
/// mixed request batch.
///
/// # Panics
///
/// Panics if a workload fails the pipeline or plans an invalid table spec
/// (both covered by the workload test suite).
pub fn build_service(
    ws: &[Workload],
    opts: &ServeOpts,
    workers: usize,
) -> (ReuseService, Vec<Request>) {
    let mut programs: Vec<Option<ServiceProgram>> = Vec::new();
    programs.resize_with(ws.len(), || None);
    std::thread::scope(|s| {
        for (slot, w) in programs.iter_mut().zip(ws) {
            s.spawn(move || {
                let p = prepare_with(
                    w,
                    opts.opt,
                    opts.scale,
                    &PrepareOpts {
                        validate: true,
                        ..PrepareOpts::default()
                    },
                );
                *slot = Some(ServiceProgram {
                    name: w.name.to_string(),
                    module: p.memo_module,
                    specs: p.outcome.specs,
                    policies: p.outcome.policies,
                    table_deps: p.outcome.table_deps,
                    spec_plan: p.outcome.spec_plan,
                });
            });
        }
    });
    let programs: Vec<ServiceProgram> = programs.into_iter().map(|p| p.expect("filled")).collect();
    // Round-robin across workloads so concurrent workers interleave
    // different programs; alternate input families so the store sees both
    // the profiled and the unprofiled value distributions.
    let mut requests = Vec::with_capacity(ws.len() * opts.requests_per_workload);
    for round in 0..opts.requests_per_workload {
        for (i, w) in ws.iter().enumerate() {
            let input = if round % 2 == 0 {
                (w.default_input)(opts.scale)
            } else {
                (w.alt_input)(opts.scale)
            };
            requests.push(Request::new(i, input));
        }
    }
    let svc = ReuseService::new(
        programs,
        ServiceConfig {
            workers,
            shards: opts.shards,
            queue_capacity: opts.queue_capacity,
            cost: CostModel::for_level(opts.opt),
            faults: opts.fault_plan(),
            deadline_cycles: opts.deadline_cycles,
            high_watermark: opts.high_watermark,
            admission: opts.admission,
        },
    )
    .unwrap_or_else(|e| panic!("pipeline planned an invalid table spec: {e}"));
    (svc, requests)
}

/// One worker count's measurements: cold and warm rounds over the same
/// batch, plus the determinism verdict against the baseline.
#[derive(Debug)]
pub struct SweepPoint {
    /// Worker threads at this point.
    pub workers: usize,
    /// First round against a freshly reset (cold) store.
    pub cold: ServiceReport,
    /// Second round over the now-populated store.
    pub warm: ServiceReport,
    /// Whether both rounds' *executed* requests fingerprinted identically
    /// to the sequential private-table baseline (with faults disabled
    /// every request executes, so this is full-batch equality).
    pub matches_baseline: bool,
    /// Whether both rounds' status counts sum to the submitted batch
    /// (`ok + shed + deadline_exceeded + exhausted == submitted`).
    pub accounting_ok: bool,
}

/// The full serving-run result.
#[derive(Debug)]
pub struct ServeSummary {
    /// Requests per batch.
    pub requests: usize,
    /// Sequential baseline: private tables per request, no sharing.
    pub baseline: ServiceReport,
    /// One entry per swept worker count.
    pub points: Vec<SweepPoint>,
}

impl ServeSummary {
    /// Whether every sweep point's executed requests fingerprinted
    /// identically to the baseline.
    pub fn all_match(&self) -> bool {
        self.points.iter().all(|p| p.matches_baseline)
    }

    /// Whether every sweep point's status counts sum to the batch size.
    pub fn all_accounted(&self) -> bool {
        self.points.iter().all(|p| p.accounting_ok)
    }
}

/// Serves the batch at each worker count in `worker_counts`.
///
/// # Panics
///
/// Panics if the pipeline fails for a workload (see [`build_service`]).
pub fn run_serve(ws: &[Workload], opts: &ServeOpts, worker_counts: &[usize]) -> ServeSummary {
    let first = worker_counts.first().copied().unwrap_or(1);
    let (mut svc, requests) = build_service(ws, opts, first);
    let baseline = svc.run_private_sequential(&requests);
    let expected = baseline.fingerprints();
    let mut points = Vec::with_capacity(worker_counts.len());
    for &workers in worker_counts {
        // A fresh plan per point restarts the deterministic fault
        // sequence; it must be installed before `reset_stores` so the
        // rebuilt stores pick up probe-level fail points.
        svc.set_fault_plan(opts.fault_plan());
        svc.reset_stores().expect("specs already built once");
        svc.set_workers(workers);
        let cold = svc.run(&requests);
        let warm = svc.run(&requests);
        let matches_baseline =
            executed_matches(&cold, &expected) && executed_matches(&warm, &expected);
        let accounting_ok =
            cold.accounting_holds(requests.len()) && warm.accounting_holds(requests.len());
        points.push(SweepPoint {
            workers,
            cold,
            warm,
            matches_baseline,
            accounting_ok,
        });
    }
    ServeSummary {
        requests: requests.len(),
        baseline,
        points,
    }
}

/// One batch served in ten sequential sub-batches, so the hit ratio is
/// observable *within* the batch (the first decile is what a restarted
/// service's early requests experience).
#[derive(Debug)]
pub struct DecileRun {
    /// Hit ratio of each tenth of the batch, in order.
    pub ratios: Vec<f64>,
    /// Fingerprints across the sub-batches, in request order.
    pub fingerprints: Vec<u64>,
    /// Store-statistics delta summed over the whole batch.
    pub delta: TableStats,
}

impl DecileRun {
    /// Hit ratio over the whole batch.
    pub fn overall(&self) -> f64 {
        self.delta.hit_ratio()
    }

    /// Hit ratio of the first tenth of the batch.
    pub fn first_decile(&self) -> f64 {
        self.ratios.first().copied().unwrap_or(0.0)
    }
}

/// Serves `requests` in ten sequential sub-batches, recording each
/// tenth's hit ratio.
pub fn run_deciles(svc: &ReuseService, requests: &[Request]) -> DecileRun {
    let chunk = requests.len().div_ceil(10).max(1);
    let mut ratios = Vec::with_capacity(10);
    let mut fingerprints = Vec::with_capacity(requests.len());
    let mut delta = TableStats::default();
    for sub in requests.chunks(chunk) {
        let report = svc.run(sub);
        ratios.push(report.hit_ratio());
        fingerprints.extend(report.fingerprints());
        delta.merge(&report.store_delta);
    }
    DecileRun {
        ratios,
        fingerprints,
        delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_deterministic_and_warms_up() {
        let ws = vec![workloads::unepic::unepic(), workloads::rasta::rasta()];
        let opts = ServeOpts {
            scale: 0.05,
            requests_per_workload: 3,
            ..ServeOpts::default()
        };
        let summary = run_serve(&ws, &opts, &[1, 2]);
        assert_eq!(summary.requests, 6);
        assert!(summary.all_match(), "fingerprints diverged from baseline");
        for p in &summary.points {
            assert_eq!(
                p.cold.fingerprints(),
                p.warm.fingerprints(),
                "warm round changed results at {} workers",
                p.workers
            );
            assert!(
                p.warm.hit_ratio() >= p.cold.hit_ratio(),
                "warm hit ratio fell at {} workers",
                p.workers
            );
        }
    }

    #[test]
    fn faulted_sweep_keeps_executed_requests_equivalent() {
        memo_runtime::silence_injected_panics();
        let ws = vec![workloads::unepic::unepic(), workloads::rasta::rasta()];
        let opts = ServeOpts {
            scale: 0.05,
            requests_per_workload: 4,
            fault_seed: Some(42),
            fault_rate: 0.25,
            ..ServeOpts::default()
        };
        let summary = run_serve(&ws, &opts, &[1, 2]);
        assert!(
            summary.all_match(),
            "an executed request diverged from the fault-free baseline"
        );
        assert!(summary.all_accounted(), "status counts lost a request");
        for p in &summary.points {
            let faults = p.cold.faults.as_ref().expect("plan installed");
            assert!(
                faults.total_fired() > 0,
                "a 25% fault plan fired nothing at {} workers",
                p.workers
            );
        }
    }
}
