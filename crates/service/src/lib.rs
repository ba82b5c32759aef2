//! # service — a concurrent reuse service over shared memo tables
//!
//! Part of the `compreuse` workspace (a reproduction of Ding & Li,
//! *A Compiler Scheme for Reusing Intermediate Computation Results*,
//! CGO 2004). The paper memoizes within one process; this crate asks the
//! next question — what if many requests for the same programs could
//! share one reuse store? A [`ReuseService`] owns a set of compiled
//! programs, one sharded concurrent memo store per program
//! ([`memo_runtime::ShardedTable`]), and a bounded request queue
//! ([`queue::BoundedQueue`]). `K` worker threads each hold a private VM
//! (bytecode precompiled once per program per worker) and probe the
//! shared store, so a result computed for one request is reused by every
//! later request with the same intermediate inputs — across threads.
//!
//! ## Equivalence contract (DESIGN.md §8e)
//!
//! Program *results* (printed output and return value) are identical to a
//! sequential run with private tables: a memo entry stores the exact
//! outputs of a segment body keyed by its exact inputs, so a hit replays
//! precisely what a miss would recompute, no matter which request
//! recorded it. Per-request [`RequestResult::fingerprint`] hashes only
//! these store-independent parts. Cycle ledgers, hit rates and collision
//! rates *are* store-order dependent — a request may hit on an entry some
//! other request recorded — which is the point of sharing, and they are
//! reported per run, never folded into fingerprints.
//!
//! ## Fault model and degradation (DESIGN.md §8f)
//!
//! The service degrades, it does not corrupt. A [`memo_runtime::FaultPlan`]
//! in [`ServiceConfig::faults`] injects deterministic failures — forced
//! probe misses, genuinely poisoned shard locks, queue-push rejections,
//! simulated slow requests — and the service answers with *retries*
//! (bounded, decorrelated exponential backoff, for the retryable faults),
//! *deadlines* (modelled-cycle budgets per request), and *load
//! shedding* (queue watermarks that shed requests and flip the stores to
//! table bypass until the backlog drains). Every request ends in a
//! terminal [`RequestStatus`]; the §8e invariant extends to: every
//! *executed* request (status `Ok` or `DeadlineExceeded`) has a
//! fingerprint equal to the fault-free sequential baseline's — faults may
//! cost latency and hit ratio, never correctness.
//!
//! ```
//! use service::{Request, ReuseService, ServiceConfig, ServiceProgram};
//!
//! let checked = minic::compile(
//!     "int f(int x) { int i; int s; s = 0;
//!        for (i = 0; i < 100; i = i + 1) { s = s + x * i; } return s; }
//!      int main() { print(f(input())); return 0; }",
//! )
//! .unwrap();
//! let svc = ReuseService::new(
//!     vec![ServiceProgram {
//!         name: "square".into(),
//!         module: vm::lower(&checked),
//!         specs: vec![],
//!         policies: vec![],
//!         table_deps: vec![],
//!         spec_plan: None,
//!     }],
//!     ServiceConfig { workers: 2, ..ServiceConfig::default() },
//! )
//! .unwrap();
//! let requests: Vec<Request> = (0..8).map(|i| Request::new(0, vec![i % 3])).collect();
//! let report = svc.run(&requests);
//! let baseline = svc.run_private_sequential(&requests);
//! assert_eq!(report.fingerprints(), baseline.fingerprints());
//! # Ok::<(), memo_runtime::SpecError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fingerprint;
pub mod histogram;
pub mod queue;

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use memo_runtime::{
    FailPoint, FaultCounters, FaultPlan, GuardPolicy, MemoTable, ShardedTable, SnapshotError,
    SpecError, TableSpec, TableStats,
};
use vm::{CostModel, Module, RunConfig};

pub use fingerprint::fingerprint_outcome;
pub use histogram::LatencyHistogram;
pub use queue::{BoundedQueue, PushError};

/// One program the service can serve: the memoized module plus the table
/// plan the pipeline produced for it (`compreuse::ReuseOutcome`'s
/// `specs` and `table_deps`, by value so the service crate stays
/// independent of the compiler crates).
#[derive(Debug)]
pub struct ServiceProgram {
    /// Display name (workload name in the bench harness).
    pub name: String,
    /// The lowered, memoized module.
    pub module: Module,
    /// Planned table specs, indexed by the module's table ids.
    pub specs: Vec<TableSpec>,
    /// Retired: the policies of the deleted run-time adaptive guard
    /// (`compreuse::ReuseOutcome`'s `policies`). Always empty
    /// ([`GuardPolicy`] has no values) and never read.
    pub policies: Vec<GuardPolicy>,
    /// Per-table, per-slot dependency-fingerprint widths in words
    /// (`compreuse::ReuseOutcome`'s `table_deps`; `0` = exact-match
    /// slot). An empty outer vector means no slot is fingerprinted.
    pub table_deps: Vec<Vec<usize>>,
    /// Retired: the plan of the deleted specialized engine
    /// (`compreuse::ReuseOutcome`'s `spec_plan`). Always `None`
    /// ([`vm::SpecPlan`] has no values) and never read.
    pub spec_plan: Option<vm::SpecPlan>,
}

/// Retry budget for retryable faults (queue rejections, poisoned
/// shards); a request that exhausts it ends as
/// [`RequestStatus::Exhausted`].
const MAX_RETRIES: u32 = 3;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Lock shards per table (rounded up to a power of two).
    pub shards: usize,
    /// Bounded queue capacity — in-flight back-pressure limit.
    pub queue_capacity: usize,
    /// Cost model the programs were planned under; bytecode is compiled
    /// against it once per worker.
    pub cost: CostModel,
    /// Deterministic fault-injection plan (`None`, the default, costs one
    /// branch at each injection site). Store-level probe faults take
    /// effect on stores built after the plan is set (via
    /// [`ReuseService::new`] or [`ReuseService::reset_stores`]); queue and
    /// worker faults apply from the next [`ReuseService::run`].
    pub faults: Option<Arc<FaultPlan>>,
    /// Default per-request modelled-cycle budget; a request whose charged
    /// cycles (including injected slow-request penalties) exceed it ends
    /// as [`RequestStatus::DeadlineExceeded`]. Overridden per request by
    /// [`Request::deadline_cycles`].
    pub deadline_cycles: Option<u64>,
    /// Backoff floor for the first retry, nanoseconds.
    pub backoff_base_ns: u64,
    /// Backoff ceiling, nanoseconds (decorrelated jitter stays under it).
    pub backoff_cap_ns: u64,
    /// Queue depth at which the producer starts shedding requests and
    /// flips the stores to table bypass (`None` disables watermarks). A
    /// degraded service re-arms its stores once the depth falls to half
    /// this value (hysteresis, so it does not flap at one depth).
    pub high_watermark: Option<usize>,
    /// Whether the stores gate recordings through the TinyLFU admission
    /// sketch (DESIGN.md §8i): a new key must look more frequent than the
    /// resident it would evict, so one-shot keys stop churning hot
    /// entries. Applies to stores built after the flag is set (via
    /// [`ReuseService::new`] or [`ReuseService::reset_stores`]).
    pub admission: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            shards: 8,
            queue_capacity: 64,
            cost: CostModel::o0(),
            faults: None,
            deadline_cycles: None,
            backoff_base_ns: 20_000,
            backoff_cap_ns: 2_000_000,
            high_watermark: None,
            admission: false,
        }
    }
}

/// How a request's service attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Executed within its budgets.
    Ok,
    /// Never executed: shed at admission because the queue was over the
    /// high watermark. Its fingerprint is 0 and excluded from the
    /// equivalence check.
    Shed,
    /// Executed, but over its modelled-cycle budget. The outputs
    /// were still produced, so its fingerprint *is* checked against the
    /// baseline.
    DeadlineExceeded,
    /// Never executed: the retry budget ran out on retryable faults.
    /// Fingerprint 0, excluded from the equivalence check.
    Exhausted,
}

impl RequestStatus {
    /// Every status, in reporting order.
    pub const ALL: [RequestStatus; 4] = [
        RequestStatus::Ok,
        RequestStatus::Shed,
        RequestStatus::DeadlineExceeded,
        RequestStatus::Exhausted,
    ];

    /// Short snake_case name (used in metrics reports).
    pub fn name(self) -> &'static str {
        match self {
            RequestStatus::Ok => "ok",
            RequestStatus::Shed => "shed",
            RequestStatus::DeadlineExceeded => "deadline_exceeded",
            RequestStatus::Exhausted => "exhausted",
        }
    }

    /// Position in [`RequestStatus::ALL`] (indexes the per-status
    /// latency histograms).
    pub fn index(self) -> usize {
        match self {
            RequestStatus::Ok => 0,
            RequestStatus::Shed => 1,
            RequestStatus::DeadlineExceeded => 2,
            RequestStatus::Exhausted => 3,
        }
    }

    /// Whether the program body actually ran (its fingerprint is then
    /// subject to the §8e/§8f equivalence invariant).
    pub fn executed(self) -> bool {
        matches!(self, RequestStatus::Ok | RequestStatus::DeadlineExceeded)
    }
}

/// One request: which program to run, its input stream, and optional
/// per-request budget overrides.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into the service's program list.
    pub program: usize,
    /// Input stream consumed by the program's `input()` builtin.
    pub input: Vec<i64>,
    /// Per-request cycle budget, overriding
    /// [`ServiceConfig::deadline_cycles`].
    pub deadline_cycles: Option<u64>,
}

impl Request {
    /// A request with no per-request budget overrides (the service
    /// defaults apply).
    pub fn new(program: usize, input: Vec<i64>) -> Self {
        Request {
            program,
            input,
            deadline_cycles: None,
        }
    }
}

/// The per-request record a worker produces.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// Index of the request in the submitted batch.
    pub request: usize,
    /// Program index the request named.
    pub program: usize,
    /// Worker that served it (0 for the sequential baseline and for
    /// requests that never reached a worker).
    pub worker: usize,
    /// Store-independent outcome fingerprint ([`fingerprint_outcome`]);
    /// 0 for requests that never executed (`Shed`, `Exhausted`).
    pub fingerprint: u64,
    /// Modelled cycles (store-order dependent under sharing).
    pub cycles: u64,
    /// Host wall-clock latency, in nanoseconds: run time for executed
    /// requests, time burned retrying for `Exhausted`, 0 for `Shed`.
    pub latency_ns: u64,
    /// Whether the program trapped (the fingerprint then hashes the trap).
    pub trapped: bool,
    /// Terminal status of the service attempt.
    pub status: RequestStatus,
    /// Retries this request consumed (queue re-pushes and re-executions).
    pub retries: u32,
}

/// Everything one batch run produced.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-request records, indexed by request position in the batch.
    pub results: Vec<RequestResult>,
    /// Host wall-clock for the whole batch, seconds.
    pub wall_seconds: f64,
    /// Latency distribution of the *executed* requests.
    pub latency: LatencyHistogram,
    /// Latency distribution per terminal status, in
    /// [`RequestStatus::ALL`] order (always 4 histograms).
    pub latency_by_status: Vec<LatencyHistogram>,
    /// Requests *executed* per worker (shed/exhausted requests reached no
    /// worker and are not counted).
    pub per_worker: Vec<u64>,
    /// Aggregate store statistics accumulated by *this batch*: exactly the
    /// change in [`ReuseService::store_stats`] over the run (the store
    /// itself keeps accumulating across batches).
    pub store_delta: TableStats,
    /// Per-program store-statistics deltas for this batch, in program
    /// index order (the green/red breakdown per workload; sums to
    /// `store_delta`).
    pub per_program_delta: Vec<TableStats>,
    /// Total retries consumed across the batch (queue re-pushes plus
    /// worker re-executions).
    pub retries: u64,
    /// Times the service entered degraded mode (stores flipped to bypass
    /// at the high watermark) during the batch.
    pub degraded_flips: u64,
    /// Fault-plan counter deltas for this batch (`None` without a plan).
    pub faults: Option<FaultCounters>,
}

impl ServiceReport {
    /// The batch's fingerprints in request order (the determinism
    /// invariant: equal across worker counts and store temperatures).
    pub fn fingerprints(&self) -> Vec<u64> {
        self.results.iter().map(|r| r.fingerprint).collect()
    }

    /// `(request index, fingerprint)` for the *executed* requests only —
    /// the set the §8f fault-equivalence invariant quantifies over (shed
    /// and exhausted requests never produced outputs).
    pub fn executed_fingerprints(&self) -> Vec<(usize, u64)> {
        self.results
            .iter()
            .filter(|r| r.status.executed())
            .map(|r| (r.request, r.fingerprint))
            .collect()
    }

    /// Requests per terminal status, in [`RequestStatus::ALL`] order.
    pub fn status_counts(&self) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for r in &self.results {
            counts[r.status.index()] += 1;
        }
        counts
    }

    /// Whether every submitted request ended in exactly one terminal
    /// status (`ok + shed + deadline_exceeded + exhausted == submitted`).
    pub fn accounting_holds(&self, submitted: usize) -> bool {
        self.results.len() == submitted
            && self.status_counts().iter().sum::<u64>() == submitted as u64
    }

    /// Hit ratio of the store traffic this batch generated.
    pub fn hit_ratio(&self) -> f64 {
        self.store_delta.hit_ratio()
    }
}

struct ProgramRt {
    program: ServiceProgram,
    store: Arc<Vec<ShardedTable>>,
}

/// How [`ReuseService::restore_from`] ended.
#[derive(Debug)]
pub enum RestoreOutcome {
    /// The snapshot was valid: the stores hold its entries and resume at
    /// the snapshotted hit ratio.
    Restored,
    /// The snapshot was unusable (reason attached); the stores are fresh
    /// and empty — the documented degraded mode, never a panic.
    ColdStart(SnapshotError),
}

impl RestoreOutcome {
    /// Whether the snapshot was actually restored.
    pub fn is_restored(&self) -> bool {
        matches!(self, RestoreOutcome::Restored)
    }
}

/// The service: programs, their shared stores, and a worker-pool runner.
///
/// `run` may be called repeatedly; the shared stores persist between
/// batches, so a second identical batch runs warm (higher hit rate, same
/// fingerprints).
pub struct ReuseService {
    programs: Vec<ProgramRt>,
    config: ServiceConfig,
}

impl std::fmt::Debug for ReuseService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReuseService")
            .field("programs", &self.programs.len())
            .field("config", &self.config)
            .finish()
    }
}

fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A terminal record for a request that never executed (shed at
/// admission, or retry budget exhausted).
fn unserved(
    idx: usize,
    program: usize,
    status: RequestStatus,
    latency_ns: u64,
    retries: u32,
) -> RequestResult {
    RequestResult {
        request: idx,
        program,
        worker: 0,
        fingerprint: 0,
        cycles: 0,
        latency_ns,
        trapped: false,
        status,
        retries,
    }
}

impl ReuseService {
    /// Builds the service: one sharded store per program, built from the
    /// program's table specs.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when a program's table spec is structurally
    /// invalid.
    pub fn new(programs: Vec<ServiceProgram>, config: ServiceConfig) -> Result<Self, SpecError> {
        let programs = programs
            .into_iter()
            .map(|p| {
                let store = build_store(&p, &config)?;
                Ok(ProgramRt {
                    program: p,
                    store: Arc::new(store),
                })
            })
            .collect::<Result<_, SpecError>>()?;
        Ok(ReuseService { programs, config })
    }

    /// Replaces every shared store with a fresh, empty one — a cold start
    /// without re-running the pipeline (worker-scaling sweeps reset
    /// between points so each worker count is measured from the same
    /// store temperature).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when a table spec is structurally invalid
    /// (cannot happen for specs that already built once).
    pub fn reset_stores(&mut self) -> Result<(), SpecError> {
        for rt in &mut self.programs {
            rt.store = Arc::new(build_store(&rt.program, &self.config)?);
        }
        Ok(())
    }

    /// Writes a snapshot of every program's shared store to `path`
    /// (DESIGN.md §8i): all entries, dependency fingerprints, per-shard
    /// statistics and bypass counters, in program-index order. Safe
    /// on a live service — each shard is captured under its lock.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure.
    pub fn snapshot_to(&self, path: &Path) -> Result<(), SnapshotError> {
        let refs: Vec<&ShardedTable> = self.programs.iter().flat_map(|p| p.store.iter()).collect();
        memo_runtime::write_snapshot(&refs, path)
    }

    /// Restores the stores from a snapshot written by
    /// [`ReuseService::snapshot_to`] under the *same program set and
    /// service shape* (table specs, shard count). On success the service
    /// resumes warm: entries, statistics and bypass counters are back.
    /// On *any* failure — missing file, corruption, version or geometry
    /// mismatch — the service falls back to fresh, empty stores (a
    /// clean cold start) and reports why; it never panics on snapshot
    /// contents.
    ///
    /// # Panics
    ///
    /// Panics only if a table spec stopped being instantiable (cannot
    /// happen for specs that already built once in `new`).
    pub fn restore_from(&mut self, path: &Path) -> RestoreOutcome {
        let build = |programs: &[ProgramRt], config: &ServiceConfig| -> Vec<Vec<ShardedTable>> {
            programs
                .iter()
                .map(|rt| {
                    build_store(&rt.program, config)
                        .unwrap_or_else(|e| panic!("{}: invalid table spec: {e}", rt.program.name))
                })
                .collect()
        };
        let mut fresh = build(&self.programs, &self.config);
        let mut refs: Vec<&mut ShardedTable> =
            fresh.iter_mut().flat_map(|v| v.iter_mut()).collect();
        let outcome = match memo_runtime::read_snapshot(&mut refs, path) {
            Ok(()) => RestoreOutcome::Restored,
            Err(e) => {
                // A failed restore may have imported some shards; discard
                // everything and cold-start from another fresh build.
                fresh = build(&self.programs, &self.config);
                RestoreOutcome::ColdStart(e)
            }
        };
        for (rt, store) in self.programs.iter_mut().zip(fresh) {
            rt.store = Arc::new(store);
        }
        outcome
    }

    /// Changes the worker count for subsequent [`ReuseService::run`] calls.
    pub fn set_workers(&mut self, workers: usize) {
        self.config.workers = workers.max(1);
    }

    /// Installs (or removes) a fault plan. Queue and worker fail points
    /// apply from the next [`ReuseService::run`]; store-level probe
    /// faults need the stores rebuilt ([`ReuseService::reset_stores`]) to
    /// pick the plan up.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.config.faults = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.config.faults.as_ref()
    }

    /// Bypass flag of every shard of every table of every program, in
    /// (program, table, shard) order — the degradation ladder's
    /// observable.
    pub fn store_bypassed(&self) -> Vec<bool> {
        self.programs
            .iter()
            .flat_map(|p| p.store.iter().flat_map(ShardedTable::shard_bypassed))
            .collect()
    }

    /// Total poisoned-shard recoveries across every store.
    pub fn poison_recoveries(&self) -> u64 {
        self.programs
            .iter()
            .flat_map(|p| p.store.iter().map(ShardedTable::poison_recoveries))
            .sum()
    }

    /// The currently configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Aggregate statistics over every program's shared store.
    pub fn store_stats(&self) -> TableStats {
        let mut total = TableStats::default();
        for s in self.per_program_stats() {
            total.merge(&s);
        }
        total
    }

    /// Aggregate store statistics per program, in program-index order.
    pub fn per_program_stats(&self) -> Vec<TableStats> {
        self.programs
            .iter()
            .map(|p| {
                let mut total = TableStats::default();
                for t in p.store.iter() {
                    total.merge(&t.stats());
                }
                total
            })
            .collect()
    }

    /// Total bytes held by the shared stores.
    pub fn store_bytes(&self) -> usize {
        self.programs
            .iter()
            .map(|p| p.store.iter().map(ShardedTable::bytes).sum::<usize>())
            .sum()
    }

    fn run_config_for(&self, req: &Request, store: Option<Arc<Vec<ShardedTable>>>) -> RunConfig {
        RunConfig {
            cost: self.config.cost.clone(),
            input: req.input.clone(),
            shared_tables: store,
            ..RunConfig::default()
        }
    }

    /// Serves one batch on `config.workers` threads against the shared
    /// stores. Requests flow through the bounded queue in submission
    /// order; completion order is scheduler-dependent, but `results` is
    /// indexed by submission position either way. Every request ends in
    /// exactly one terminal [`RequestStatus`]; under an installed fault
    /// plan, retryable faults (queue rejections, poisoned shards) are
    /// retried with decorrelated backoff up to three times, and the high
    /// watermark sheds load and flips the stores to bypass while the
    /// queue is backed up.
    ///
    /// # Panics
    ///
    /// Panics if a request names a program index out of range.
    pub fn run(&self, requests: &[Request]) -> ServiceReport {
        for r in requests {
            assert!(
                r.program < self.programs.len(),
                "request names program {} but the service has {}",
                r.program,
                self.programs.len()
            );
        }
        if let Some(plan) = &self.config.faults {
            if plan.rate(FailPoint::ShardPoison) > 0.0 {
                memo_runtime::silence_injected_panics();
            }
        }
        let workers = self.config.workers.max(1);
        let queue: BoundedQueue<usize> =
            BoundedQueue::with_faults(self.config.queue_capacity, self.config.faults.clone());
        let results: Mutex<Vec<Option<RequestResult>>> = Mutex::new(vec![None; requests.len()]);
        let before = self.per_program_stats();
        let faults_before = self.config.faults.as_ref().map(|p| p.counters());
        let mut push_retries = 0u64;
        let mut degraded_flips = 0u64;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for w in 0..workers {
                let queue = &queue;
                let results = &results;
                s.spawn(move || {
                    // One lazily-filled bytecode cache per worker: each
                    // program is compiled at most once per worker, then
                    // every request for it reuses the bytecode.
                    let mut compiled: Vec<Option<vm::Precompiled<'_>>> =
                        (0..self.programs.len()).map(|_| None).collect();
                    while let Some(idx) = queue.pop() {
                        let req = &requests[idx];
                        let rt = &self.programs[req.program];
                        let pre = compiled[req.program].get_or_insert_with(|| {
                            vm::precompile(&rt.program.module, &self.config.cost)
                        });
                        let record = self.serve_one(idx, req, rt, pre, w);
                        recover(results.lock())[idx] = Some(record);
                    }
                });
            }
            // The caller's thread is the producer: bounded queue, so a
            // long batch exerts back-pressure here instead of buffering
            // everything. Watermarks turn that back-pressure into load
            // shedding plus store degradation when configured.
            let mut degraded = false;
            for (idx, req) in requests.iter().enumerate() {
                if let Some(high) = self.config.high_watermark {
                    let depth = queue.len();
                    if depth >= high {
                        if !degraded {
                            degraded = true;
                            degraded_flips += 1;
                            self.for_each_store(ShardedTable::force_bypass);
                        }
                        recover(results.lock())[idx] =
                            Some(unserved(idx, req.program, RequestStatus::Shed, 0, 0));
                        continue;
                    }
                    if degraded && depth <= high / 2 {
                        degraded = false;
                        self.for_each_store(ShardedTable::end_forced_bypass);
                    }
                }
                let mut item = idx;
                let mut attempt = 0u32;
                loop {
                    match queue.push(item) {
                        Ok(()) => break,
                        Err(PushError::Rejected(it)) => {
                            attempt += 1;
                            if attempt > MAX_RETRIES {
                                recover(results.lock())[idx] = Some(unserved(
                                    idx,
                                    req.program,
                                    RequestStatus::Exhausted,
                                    0,
                                    MAX_RETRIES,
                                ));
                                break;
                            }
                            push_retries += 1;
                            if let Some(plan) = &self.config.faults {
                                std::thread::sleep(Duration::from_nanos(plan.backoff_ns(
                                    attempt,
                                    self.config.backoff_base_ns,
                                    self.config.backoff_cap_ns,
                                )));
                            }
                            item = it;
                        }
                        Err(PushError::Closed(_)) => {
                            // Unreachable in practice: only this thread
                            // closes the queue, after the loop. Shed
                            // rather than lose the request silently.
                            recover(results.lock())[idx] =
                                Some(unserved(idx, req.program, RequestStatus::Shed, 0, 0));
                            break;
                        }
                    }
                }
            }
            queue.close();
            if degraded {
                // The batch is fully admitted; re-arm the stores so the
                // next batch starts healthy.
                self.for_each_store(ShardedTable::end_forced_bypass);
            }
        });
        let wall_seconds = t0.elapsed().as_secs_f64();
        let after = self.per_program_stats();
        let per_program_delta: Vec<TableStats> = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.delta_since(b))
            .collect();
        let mut store_delta = TableStats::default();
        for d in &per_program_delta {
            store_delta.merge(d);
        }

        let results: Vec<RequestResult> = recover(results.into_inner())
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("request {i} was never served")))
            .collect();
        let mut latency = LatencyHistogram::new();
        let mut latency_by_status: Vec<LatencyHistogram> = (0..RequestStatus::ALL.len())
            .map(|_| LatencyHistogram::new())
            .collect();
        let mut per_worker = vec![0u64; workers];
        let mut retries = push_retries;
        for r in &results {
            latency_by_status[r.status.index()].record(r.latency_ns);
            retries += u64::from(r.retries);
            if r.status.executed() {
                latency.record(r.latency_ns);
                per_worker[r.worker] += 1;
            }
        }
        ServiceReport {
            results,
            wall_seconds,
            latency,
            latency_by_status,
            per_worker,
            store_delta,
            per_program_delta,
            retries,
            degraded_flips,
            faults: self
                .config
                .faults
                .as_ref()
                .zip(faults_before)
                .map(|(p, b)| p.counters().delta_since(&b)),
        }
    }

    /// Runs one request on a worker thread: retry loop for poisoned-shard
    /// faults, slow-request penalty, then the deadline check.
    fn serve_one(
        &self,
        idx: usize,
        req: &Request,
        rt: &ProgramRt,
        pre: &vm::Precompiled<'_>,
        worker: usize,
    ) -> RequestResult {
        let start = Instant::now();
        let mut failed_attempts = 0u32;
        let outcome = loop {
            if let Some(plan) = &self.config.faults {
                if plan.fire(FailPoint::ShardPoison) {
                    // A deterministic victim shard is genuinely poisoned;
                    // the attempt is treated as failed and retried, and
                    // the next probe of that shard recovers it empty.
                    if let Some(t) = rt.store.get(plan.pick(rt.store.len() as u64) as usize) {
                        t.poison_shard(plan.pick(t.shard_count() as u64) as usize);
                    }
                    failed_attempts += 1;
                    if failed_attempts > MAX_RETRIES {
                        break None;
                    }
                    std::thread::sleep(Duration::from_nanos(plan.backoff_ns(
                        failed_attempts,
                        self.config.backoff_base_ns,
                        self.config.backoff_cap_ns,
                    )));
                    continue;
                }
            }
            let config = self.run_config_for(req, Some(Arc::clone(&rt.store)));
            break Some(vm::run_precompiled(&rt.program.module, pre, config));
        };
        let latency_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let Some(outcome) = outcome else {
            return unserved(
                idx,
                req.program,
                RequestStatus::Exhausted,
                latency_ns,
                MAX_RETRIES,
            );
        };
        let cycles = outcome.as_ref().map_or(0, |o| o.cycles);
        // The slow-request fault charges synthetic cycles against the
        // deadline only: the outputs (and so the fingerprint) are those
        // of a normal run that simply took too long.
        let mut charged_cycles = cycles;
        if let Some(plan) = &self.config.faults {
            if plan.fire(FailPoint::SlowRequest) {
                charged_cycles = charged_cycles.saturating_add(plan.slow_penalty_cycles());
            }
        }
        let deadline_cycles = req.deadline_cycles.or(self.config.deadline_cycles);
        let status = if deadline_cycles.is_some_and(|d| charged_cycles > d) {
            RequestStatus::DeadlineExceeded
        } else {
            RequestStatus::Ok
        };
        RequestResult {
            request: idx,
            program: req.program,
            worker,
            fingerprint: fingerprint_outcome(&outcome),
            cycles,
            latency_ns,
            trapped: outcome.is_err(),
            status,
            retries: failed_attempts,
        }
    }

    /// Applies `f` to every sharded table of every program.
    fn for_each_store(&self, f: impl Fn(&ShardedTable)) {
        for p in &self.programs {
            for t in p.store.iter() {
                f(t);
            }
        }
    }

    /// The sequential baseline: every request runs on the calling thread
    /// with *fresh private tables* (the paper's per-process scheme — no
    /// cross-request reuse). Fingerprints from [`ReuseService::run`] must
    /// equal this baseline's at any worker count; throughput and hit rate
    /// are what sharing is measured against.
    ///
    /// # Panics
    ///
    /// Panics if a request names a program index out of range, or if a
    /// program's table spec stopped being instantiable (the service
    /// already built a sharded store from the same specs in `new`).
    pub fn run_private_sequential(&self, requests: &[Request]) -> ServiceReport {
        let mut compiled: Vec<Option<vm::Precompiled<'_>>> =
            (0..self.programs.len()).map(|_| None).collect();
        let mut latency = LatencyHistogram::new();
        let mut results = Vec::with_capacity(requests.len());
        let mut table_stats = TableStats::default();
        let mut per_program: Vec<TableStats> = (0..self.programs.len())
            .map(|_| TableStats::default())
            .collect();
        let t0 = Instant::now();
        for (idx, req) in requests.iter().enumerate() {
            let rt = &self.programs[req.program];
            let pre = compiled[req.program]
                .get_or_insert_with(|| vm::precompile(&rt.program.module, &self.config.cost));
            let tables = private_tables(&rt.program)
                .unwrap_or_else(|e| panic!("{}: invalid table spec: {e}", rt.program.name));
            let mut config = self.run_config_for(req, None);
            config.tables = tables;
            let start = Instant::now();
            let outcome = vm::run_precompiled(&rt.program.module, pre, config);
            let latency_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            latency.record(latency_ns);
            if let Ok(o) = &outcome {
                for t in &o.tables {
                    table_stats.merge(t.stats());
                    per_program[req.program].merge(t.stats());
                }
            }
            results.push(RequestResult {
                request: idx,
                program: req.program,
                worker: 0,
                fingerprint: fingerprint_outcome(&outcome),
                cycles: outcome.as_ref().map_or(0, |o| o.cycles),
                latency_ns,
                trapped: outcome.is_err(),
                status: RequestStatus::Ok,
                retries: 0,
            });
        }
        let wall_seconds = t0.elapsed().as_secs_f64();
        // The baseline is fault-free by construction: every request is Ok.
        let mut latency_by_status: Vec<LatencyHistogram> = (0..RequestStatus::ALL.len())
            .map(|_| LatencyHistogram::new())
            .collect();
        latency_by_status[RequestStatus::Ok.index()] = latency.clone();
        ServiceReport {
            per_worker: vec![results.len() as u64],
            results,
            wall_seconds,
            latency,
            latency_by_status,
            store_delta: table_stats,
            per_program_delta: per_program,
            retries: 0,
            degraded_flips: 0,
            faults: None,
        }
    }
}

/// Fingerprint widths of table `t`'s segment slots in `p`'s plan (empty
/// when the plan declares none).
fn fp_widths(p: &ServiceProgram, t: usize) -> &[usize] {
    p.table_deps.get(t).map_or(&[], Vec::as_slice)
}

/// Builds one program's sharded shared store from its table plan.
fn build_store(p: &ServiceProgram, config: &ServiceConfig) -> Result<Vec<ShardedTable>, SpecError> {
    p.specs
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let mut store = ShardedTable::try_from_plan(spec, fp_widths(p, t), config.shards)?;
            store.set_fault_plan(config.faults.clone());
            store.set_admission(config.admission);
            Ok(store)
        })
        .collect()
}

/// Instantiates a program's table plan as run-private tables.
fn private_tables(p: &ServiceProgram) -> Result<Vec<MemoTable>, SpecError> {
    p.specs
        .iter()
        .enumerate()
        .map(|(t, spec)| MemoTable::try_from_plan(spec, fp_widths(p, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memoized_program(name: &str) -> ServiceProgram {
        // Run the real pipeline on a small program with a profitable
        // loop so the module carries Memo segments and table specs.
        let src = "
            int work(int x) {
                int i; int s;
                s = 0;
                for (i = 0; i < 200; i = i + 1) {
                    s = s + (x * i) % 97;
                }
                return s;
            }
            int main() {
                int n; int r; int j;
                n = input();
                r = 0;
                for (j = 0; j < 30; j = j + 1) {
                    r = r + work(n % 4);
                }
                print(r);
                return 0;
            }";
        let program = minic::parse(src).expect("parses");
        let outcome = compreuse::run_pipeline(
            &program,
            &compreuse::PipelineConfig {
                profile_input: vec![2],
                min_exec: 4,
                ..compreuse::PipelineConfig::default()
            },
        )
        .expect("pipeline");
        ServiceProgram {
            name: name.to_string(),
            module: vm::lower(&outcome.transformed),
            specs: outcome.specs,
            policies: outcome.policies,
            table_deps: outcome.table_deps,
            spec_plan: outcome.spec_plan,
        }
    }

    #[test]
    fn a_plan_without_policies_builds_every_table() {
        // `policies` is retired and always empty; the stores and the
        // private baseline must still build one table per spec.
        let mut program = memoized_program("work");
        assert!(!program.specs.is_empty(), "the plan memoizes something");
        program.policies = vec![];
        let svc = ReuseService::new(
            vec![program],
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let requests = mix(12);
        let report = svc.run(&requests);
        let baseline = svc.run_private_sequential(&requests);
        assert_eq!(report.fingerprints(), baseline.fingerprints());
        assert!(svc.store_stats().hits > 0, "the shared store served hits");
    }

    fn mix(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(0, vec![(i % 5) as i64]))
            .collect()
    }

    #[test]
    fn concurrent_run_matches_sequential_baseline() {
        let svc = ReuseService::new(
            vec![memoized_program("work")],
            ServiceConfig {
                workers: 3,
                shards: 4,
                queue_capacity: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let requests = mix(24);
        let baseline = svc.run_private_sequential(&requests);
        let report = svc.run(&requests);
        assert_eq!(report.fingerprints(), baseline.fingerprints());
        assert_eq!(report.results.len(), 24);
        assert!(report.results.iter().all(|r| !r.trapped));
        assert_eq!(report.latency.count(), 24);
        assert_eq!(report.per_worker.iter().sum::<u64>(), 24);
    }

    #[test]
    fn warm_store_raises_hit_ratio_not_fingerprints() {
        let svc = ReuseService::new(
            vec![memoized_program("work")],
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let requests = mix(16);
        let cold = svc.run(&requests);
        let warm = svc.run(&requests);
        assert_eq!(cold.fingerprints(), warm.fingerprints());
        assert!(
            warm.hit_ratio() >= cold.hit_ratio(),
            "warm {} < cold {}",
            warm.hit_ratio(),
            cold.hit_ratio()
        );
        // The second pass replays inputs the store has seen: every probe
        // the first pass recorded is now a hit.
        assert!(
            warm.hit_ratio() > 0.5,
            "warm hit ratio {}",
            warm.hit_ratio()
        );
    }

    #[test]
    fn store_persists_across_batches_until_reset() {
        let mut svc = ReuseService::new(vec![memoized_program("work")], ServiceConfig::default())
            .expect("valid specs");
        let before = svc.store_stats();
        assert_eq!(before.accesses, 0);
        svc.run(&mix(4));
        let after = svc.store_stats();
        assert!(after.accesses > 0);
        assert!(svc.store_bytes() > 0);
        svc.reset_stores().expect("specs still valid");
        assert_eq!(svc.store_stats().accesses, 0);
    }

    #[test]
    #[should_panic(expected = "request names program")]
    fn out_of_range_program_panics() {
        let svc = ReuseService::new(vec![memoized_program("work")], ServiceConfig::default())
            .expect("valid specs");
        svc.run(&[Request::new(9, vec![])]);
    }

    #[test]
    fn fault_free_batches_are_all_ok_with_clean_accounting() {
        let svc = ReuseService::new(vec![memoized_program("work")], ServiceConfig::default())
            .expect("valid specs");
        let requests = mix(12);
        let report = svc.run(&requests);
        assert!(report.accounting_holds(12));
        assert_eq!(report.status_counts(), [12, 0, 0, 0]);
        assert_eq!(report.retries, 0);
        assert_eq!(report.degraded_flips, 0);
        assert!(report.faults.is_none());
        assert_eq!(report.executed_fingerprints().len(), 12);
        assert_eq!(report.latency_by_status[0].count(), 12);
    }

    #[test]
    fn cycle_deadline_marks_requests_without_changing_outputs() {
        let svc = ReuseService::new(
            vec![memoized_program("work")],
            ServiceConfig {
                workers: 2,
                deadline_cycles: Some(1), // everything is over budget
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let requests = mix(8);
        let baseline = svc.run_private_sequential(&requests);
        let report = svc.run(&requests);
        assert_eq!(report.status_counts(), [0, 0, 8, 0]);
        // Deadline-exceeded requests still executed: outputs must match.
        assert_eq!(report.fingerprints(), baseline.fingerprints());
        assert_eq!(report.latency.count(), 8, "executed set covers them");
    }

    #[test]
    fn per_request_deadline_overrides_the_config_default() {
        let svc = ReuseService::new(
            vec![memoized_program("work")],
            ServiceConfig {
                workers: 1,
                deadline_cycles: Some(1),
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let mut generous = Request::new(0, vec![1]);
        generous.deadline_cycles = Some(u64::MAX);
        let tight = Request::new(0, vec![2]);
        let report = svc.run(&[generous, tight]);
        assert_eq!(report.results[0].status, RequestStatus::Ok);
        assert_eq!(report.results[1].status, RequestStatus::DeadlineExceeded);
    }

    #[test]
    fn injected_queue_rejections_retry_and_preserve_executed_outputs() {
        let plan = Arc::new(FaultPlan::new(77).with_rate(FailPoint::QueueReject, 0.3));
        let svc = ReuseService::new(
            vec![memoized_program("work")],
            ServiceConfig {
                workers: 2,
                backoff_base_ns: 100,
                backoff_cap_ns: 1_000,
                faults: Some(plan),
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let requests = mix(40);
        let baseline = svc.run_private_sequential(&requests);
        let report = svc.run(&requests);
        assert!(report.accounting_holds(40));
        assert!(report.retries > 0, "30% rejection rate must cause retries");
        let counters = report.faults.expect("plan installed");
        assert!(counters.fired_at(FailPoint::QueueReject) > 0);
        let base = baseline.fingerprints();
        for (idx, fp) in report.executed_fingerprints() {
            assert_eq!(fp, base[idx], "request {idx} diverged under faults");
        }
    }

    #[test]
    fn watermark_shedding_degrades_and_recovers_the_stores() {
        let svc = ReuseService::new(
            vec![memoized_program("work")],
            ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                high_watermark: Some(2),
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let requests = mix(60);
        let baseline = svc.run_private_sequential(&requests);
        let report = svc.run(&requests);
        assert!(report.accounting_holds(60));
        let [ok, shed, deadline, exhausted] = report.status_counts();
        assert_eq!(ok + shed + deadline + exhausted, 60);
        assert!(
            shed > 0,
            "one worker behind a 2-deep watermark must shed some of 60 requests"
        );
        assert!(report.degraded_flips >= 1);
        // After the batch the stores are re-armed.
        assert!(
            svc.store_bypassed().iter().all(|&b| !b),
            "stores must be restored after the batch"
        );
        // Shed requests have fingerprint 0 and are excluded; executed
        // ones still match the baseline.
        let base = baseline.fingerprints();
        for (idx, fp) in report.executed_fingerprints() {
            assert_eq!(fp, base[idx]);
        }
        assert_eq!(
            report.latency_by_status[RequestStatus::Shed.index()].count(),
            shed
        );
    }

    #[test]
    fn batch_store_delta_is_exactly_the_store_delta() {
        let svc = ReuseService::new(
            vec![memoized_program("work")],
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let requests = mix(24);
        let baseline = svc.run_private_sequential(&requests);
        svc.run(&requests); // warm the store
        let before = svc.store_stats();
        let warm = svc.run(&requests);
        assert_eq!(
            warm.store_delta,
            svc.store_stats().delta_since(&before),
            "the batch reports exactly the traffic the store saw"
        );
        let mut summed = TableStats::default();
        for d in &warm.per_program_delta {
            summed.merge(d);
        }
        assert_eq!(summed, warm.store_delta, "per-program deltas sum to it");
        assert_eq!(warm.fingerprints(), baseline.fingerprints());
    }

    #[test]
    fn snapshot_restore_resumes_warm_with_equal_fingerprints() {
        let dir = std::env::temp_dir().join("compreuse-service-snap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.snap");
        let requests = mix(24);
        let mut svc = ReuseService::new(vec![memoized_program("work")], ServiceConfig::default())
            .expect("valid specs");
        let baseline = svc.run_private_sequential(&requests);
        svc.run(&requests); // warm the store
        let warm = svc.run(&requests);
        let stats_before = svc.store_stats();
        svc.snapshot_to(&path).expect("snapshot writes");
        // "Restart": reset to cold, then restore the snapshot.
        svc.reset_stores().expect("specs valid");
        assert_eq!(svc.store_stats().accesses, 0, "reset is cold");
        let outcome = svc.restore_from(&path);
        assert!(outcome.is_restored(), "restore failed: {outcome:?}");
        assert_eq!(
            svc.store_stats(),
            stats_before,
            "statistics baseline survives the restart"
        );
        let restored = svc.run(&requests);
        assert_eq!(restored.fingerprints(), baseline.fingerprints());
        assert!(
            restored.hit_ratio() >= warm.hit_ratio() - 0.05,
            "restored batch must run warm: restored {} vs warm {}",
            restored.hit_ratio(),
            warm.hit_ratio()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broken_snapshots_cold_start_instead_of_panicking() {
        let dir = std::env::temp_dir().join("compreuse-service-snap-broken");
        std::fs::create_dir_all(&dir).unwrap();
        let requests = mix(8);
        let mut svc = ReuseService::new(vec![memoized_program("work")], ServiceConfig::default())
            .expect("valid specs");
        let baseline = svc.run_private_sequential(&requests);
        svc.run(&requests);
        let path = dir.join("store.snap");
        svc.snapshot_to(&path).expect("snapshot writes");
        // Corrupt the file in place.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xA5;
        std::fs::write(&path, &bytes).unwrap();
        let outcome = svc.restore_from(&path);
        assert!(
            matches!(outcome, RestoreOutcome::ColdStart(_)),
            "corrupt snapshot must cold-start, got {outcome:?}"
        );
        assert_eq!(svc.store_stats().accesses, 0, "cold start is empty");
        // The cold service still serves correctly.
        let report = svc.run(&requests);
        assert_eq!(report.fingerprints(), baseline.fingerprints());
        // A missing file cold-starts too.
        let outcome = svc.restore_from(&dir.join("absent.snap"));
        assert!(matches!(
            outcome,
            RestoreOutcome::ColdStart(SnapshotError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_shard_faults_retry_to_completion() {
        let plan = Arc::new(FaultPlan::new(13).with_rate(FailPoint::ShardPoison, 0.2));
        let svc = ReuseService::new(
            vec![memoized_program("work")],
            ServiceConfig {
                workers: 2,
                backoff_base_ns: 100,
                backoff_cap_ns: 1_000,
                faults: Some(plan),
                ..ServiceConfig::default()
            },
        )
        .expect("valid specs");
        let requests = mix(40);
        let baseline = svc.run_private_sequential(&requests);
        let report = svc.run(&requests);
        assert!(report.accounting_holds(40));
        let counters = report.faults.expect("plan installed");
        assert!(counters.fired_at(FailPoint::ShardPoison) > 0);
        assert!(
            svc.poison_recoveries() > 0,
            "poisoned shards must have been recovered"
        );
        let base = baseline.fingerprints();
        for (idx, fp) in report.executed_fingerprints() {
            assert_eq!(fp, base[idx], "request {idx} diverged after poisoning");
        }
    }
}
