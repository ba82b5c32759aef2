//! What each workload runs and in which order.
//!
//! A workload's *specs* are every (program, input family, input scale) it
//! draws from. One *cycle* holds every spec the same number of times, so
//! the seed changes only the order of operations, never the mix: two
//! seeds do the same work. The timed phase runs whole cycles until its
//! time box is spent. The first, *counted* cycles and the service's
//! warm-up batch run in one fixed order under every seed; the seed
//! orders the cycles after them.

use std::sync::OnceLock;
use std::time::Instant;
use workloads::rng::StdRng;

/// The seven programs of `workloads::main_seven`, in the paper's table
/// order, made once. Program indices point into this list, and
/// per-program metrics are named after its `name`s.
pub fn programs() -> &'static [workloads::Workload] {
    static SEVEN: OnceLock<Vec<workloads::Workload>> = OnceLock::new();
    SEVEN.get_or_init(workloads::main_seven)
}

/// Input scale of the pipeline's profiling run (default input family).
pub const PROFILE_SCALE: f64 = 0.05;
/// Input scale of `compile`'s check runs of the programs it produced.
pub const CHECK_SCALE: f64 = 0.02;
/// Every input scale in a `--smoke` run.
pub const SMOKE_SCALE: f64 = 0.01;
/// Operations (or requests) per workload in a `--smoke` run.
pub const SMOKE_OPS: usize = 4;
/// Seed of the fixed order of the warm-up and the counted cycles.
const FIXED_SEED: u64 = 2004;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Requests per closed-loop service batch.
pub const BATCH: usize = 32;
/// Service worker threads, one per CPU of a two-CPU machine.
pub const SERVE_WORKERS: usize = 2;
/// Lock shards per service table.
pub const SERVE_SHARDS: usize = 8;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Parse, pipeline, lower and precompile the seven programs.
    Compile,
    /// One memoized run with fresh private tables per operation.
    RunPrivate,
    /// The reuse service on the three programs that probe its store most.
    ServeShared,
    /// The reuse service on the four programs that probe it least.
    ServeLight,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Compile,
        Workload::RunPrivate,
        Workload::ServeShared,
        Workload::ServeLight,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::RunPrivate => "run_private",
            Workload::ServeShared => "serve_shared",
            Workload::ServeLight => "serve_light",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Indices into [`programs`] of the programs this workload draws on.
    pub fn programs(self) -> &'static [usize] {
        match self {
            Workload::Compile | Workload::RunPrivate => &[0, 1, 2, 3, 4, 5, 6],
            Workload::ServeShared => &[0, 1, 6],
            Workload::ServeLight => &[2, 3, 4, 5],
        }
    }

    /// Input families drawn on; `compile`'s only input is the profile.
    fn families(self) -> &'static [Family] {
        match self {
            Workload::Compile => &[Family::Default],
            _ => &[Family::Default, Family::Alt],
        }
    }

    /// Input scales drawn on.
    fn scales(self) -> &'static [f64] {
        match self {
            Workload::Compile => &[PROFILE_SCALE],
            Workload::RunPrivate | Workload::ServeShared => &[0.02, 0.05],
            Workload::ServeLight => &[0.05, 0.1],
        }
    }

    /// How often each spec appears in one cycle. The service workloads
    /// repeat specs so that a cycle is a whole number of batches.
    fn copies(self) -> usize {
        match self {
            Workload::Compile | Workload::RunPrivate => 1,
            Workload::ServeShared => 8,
            Workload::ServeLight => 2,
        }
    }
}

/// Which input generator a spec uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The default inputs the pipeline profiles on.
    Default,
    /// The alternate inputs of the paper's Table 10.
    Alt,
}

/// One (program, input family, input scale) a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Index into [`programs`].
    pub program: usize,
    /// Input family.
    pub family: Family,
    /// Input scale (1.0 = full size).
    pub scale: f64,
}

impl Spec {
    /// The generated input.
    pub fn input(&self) -> Vec<i64> {
        let source = &programs()[self.program];
        match self.family {
            Family::Default => (source.default_input)(self.scale),
            Family::Alt => (source.alt_input)(self.scale),
        }
    }
}

/// A workload's specs and seeded operation order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed of the operation order.
    pub seed: u64,
    /// Whether this is a `--smoke` run.
    pub smoke: bool,
    /// Every spec, in canonical order; cycles hold indices into it.
    pub specs: Vec<Spec>,
}

impl Plan {
    /// The plan for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Plan {
        let mut specs = Vec::new();
        for &program in workload.programs() {
            for &family in workload.families() {
                for &scale in workload.scales() {
                    let scale = if smoke { SMOKE_SCALE } else { scale };
                    specs.push(Spec {
                        program,
                        family,
                        scale,
                    });
                }
            }
        }
        Plan {
            workload,
            seed,
            smoke,
            specs,
        }
    }

    /// Spec indices of cycle `k`: every spec [`Workload::copies`] times,
    /// shuffled by a stream drawn from the seed and `k`, or from
    /// [`FIXED_SEED`] and `k` for the counted cycles. A smoke cycle is
    /// always seeded and keeps only the first [`SMOKE_OPS`] (all seven
    /// programs for `compile`).
    pub fn cycle(&self, k: u64) -> Vec<usize> {
        let fixed = !self.smoke && k < self.counted_cycles();
        let mut order = self.shuffled(self.workload.copies(), fixed, k);
        if self.smoke && self.workload != Workload::Compile {
            order.truncate(SMOKE_OPS);
        }
        order
    }

    /// The untimed warm-up batch of the service workloads: every spec
    /// once in a fixed order, so that set-up does the same work under
    /// every seed. A smoke run keeps one seeded batch.
    pub fn warmup(&self) -> Vec<usize> {
        let mut order = self.shuffled(1, !self.smoke, u64::MAX);
        order.truncate(self.batch_len());
        order
    }

    /// Every spec index `copies` times, shuffled by a stream drawn from
    /// `stream` and the run's seed, or [`FIXED_SEED`] when `fixed`.
    fn shuffled(&self, copies: usize, fixed: bool, stream: u64) -> Vec<usize> {
        let seed = if fixed { FIXED_SEED } else { self.seed };
        let mut order: Vec<usize> = (0..copies).flat_map(|_| 0..self.specs.len()).collect();
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream),
        );
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    }

    /// The first cycles of the timed phase, over which the counts that
    /// must not depend on run length or seed are taken. They run in a
    /// fixed order under every seed, and the timed phase runs at least
    /// this many. On the service the modelled speedup depends on the
    /// order in which requests meet the shared store (about 2% between
    /// seeds on `serve_light`), so a fixed order keeps it comparable.
    pub fn counted_cycles(&self) -> u64 {
        match (self.smoke, self.workload) {
            (false, Workload::ServeLight) => 2,
            _ => 1,
        }
    }

    /// Requests per service batch.
    pub fn batch_len(&self) -> usize {
        if self.smoke {
            SMOKE_OPS
        } else {
            BATCH
        }
    }

    /// Input scale of the pipeline's profiling run.
    pub fn profile_scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            PROFILE_SCALE
        }
    }

    /// Set-ups per run.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// Spec indices this run executes: all of them, or in a smoke run
    /// those of the truncated cycle and warm-up.
    pub fn used_specs(&self) -> Vec<usize> {
        let mut used = self.cycle(0);
        if matches!(self.workload, Workload::ServeShared | Workload::ServeLight) {
            used.extend(self.warmup());
        }
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Indices into [`programs`] this run compiles, in ascending order.
    pub fn used_programs(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self
            .used_specs()
            .into_iter()
            .map(|i| self.specs[i].program)
            .collect();
        used.dedup();
        used
    }
}

/// Which cycles the timed phase runs: whole cycles until `seconds` have
/// passed, and at least the plan's counted cycles. A traced run
/// alternates untraced and traced cycles, at least one of each, so that
/// tracing overhead can be read off the two; a smoke run does exactly
/// one cycle.
#[derive(Debug)]
pub struct Schedule {
    seconds: f64,
    traced_run: bool,
    smoke: bool,
    min_cycles: u64,
    start: Instant,
    next: u64,
}

impl Schedule {
    /// A schedule for `plan` starting now.
    pub fn new(plan: &Plan, seconds: f64, traced_run: bool) -> Schedule {
        Schedule {
            seconds,
            traced_run,
            smoke: plan.smoke,
            min_cycles: plan.counted_cycles().max(if traced_run { 2 } else { 1 }),
            start: Instant::now(),
            next: 0,
        }
    }

    /// The next cycle index and whether it is traced, or `None` once the
    /// time box is spent.
    pub fn next_cycle(&mut self) -> Option<(u64, bool)> {
        let k = self.next;
        let done = if self.smoke {
            k >= 1
        } else {
            k >= self.min_cycles && self.start.elapsed().as_secs_f64() >= self.seconds
        };
        if done {
            return None;
        }
        self.next += 1;
        let traced = self.traced_run && (self.smoke || k % 2 == 1);
        Some((k, traced))
    }
}
