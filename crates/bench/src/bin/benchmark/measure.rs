//! Statistics, host records and the timed-phase accumulator.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Quantile `q` of `values` (0 when empty) by the "exclusive" method of
/// Python's `statistics.quantiles`: the value at rank `q × (len + 1)`,
/// interpolated between neighbours and held within the smallest and
/// largest value.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() + 1) as f64).clamp(1.0, sorted.len() as f64);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (rank - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` has no such record.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds `iters` rounds of a SplitMix64 loop take: pure ALU work
/// that touches no memory, so it times the CPU and nothing else.
fn splitmix_ms(iters: u64) -> f64 {
    let t0 = Instant::now();
    let mut state = black_box(0x5EED_u64);
    let mut acc = 0u64;
    for _ in 0..iters {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    black_box(acc);
    ms(t0.elapsed())
}

/// Milliseconds the calibration loop takes (best of three). Run at the
/// start and the end of a run, it shows whether the host's speed moved
/// under the measurement.
pub fn calibrate_ms() -> f64 {
    (0..3)
        .map(|_| splitmix_ms(20_000_000))
        .fold(f64::INFINITY, f64::min)
}

/// Holds timed work back until the host is quiet.
///
/// On a shared host, other tenants slow this process's CPUs by up to half
/// for seconds at a time, and that slowdown shows as the process's own
/// CPU time. Before each operation (or service batch) the gate times a
/// 1.5 ms probe loop on each CPU the work will use, and waits while any
/// probe is more than 6% slower than the fastest probe of the run — at
/// most 250 ms, so a host that never quietens still gets measured.
/// Waiting happens outside the timed work.
#[derive(Debug)]
pub struct Gate {
    threads: usize,
    best_ms: f64,
    waited: Duration,
}

impl Gate {
    /// A gate probing `threads` CPUs at once.
    pub fn new(threads: usize) -> Gate {
        Gate {
            threads,
            best_ms: f64::INFINITY,
            waited: Duration::ZERO,
        }
    }

    /// Waits until every probed CPU runs near its best speed, or 250 ms.
    pub fn wait(&mut self) {
        let start = Instant::now();
        loop {
            // One CPU: probe on this thread, which runs the work next.
            let probes: Vec<f64> = if self.threads == 1 {
                vec![splitmix_ms(1_000_000)]
            } else {
                std::thread::scope(|s| {
                    let probes: Vec<_> = (0..self.threads)
                        .map(|_| s.spawn(|| splitmix_ms(1_000_000)))
                        .collect();
                    probes
                        .into_iter()
                        .map(|p| p.join().expect("probe thread panicked"))
                        .collect()
                })
            };
            let slowest = probes.iter().copied().fold(0.0, f64::max);
            self.best_ms = probes.iter().copied().fold(self.best_ms, f64::min);
            if slowest <= self.best_ms * 1.06 || start.elapsed() >= Duration::from_millis(250) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.waited += start.elapsed();
    }

    /// Seconds spent waiting so far.
    pub fn waited_s(&self) -> f64 {
        self.waited.as_secs_f64()
    }
}

/// One cycle of the timed phase. Every cycle of a workload holds the
/// same operations, so cycles compare with each other.
#[derive(Debug, Default)]
pub struct Cycle {
    /// Per-operation latency, ms.
    pub latencies_ms: Vec<f64>,
    /// Operations completed.
    pub ops: usize,
    /// Time spent inside operations (or batches), s.
    pub busy_s: f64,
}

impl Cycle {
    /// Operations per second of busy time.
    pub fn throughput(&self) -> f64 {
        ratio(self.ops as f64, self.busy_s)
    }
}

/// The cycles of one arm of the timed phase (traced or untraced).
#[derive(Debug, Default)]
pub struct Arm {
    /// Every cycle run, in order.
    pub cycles: Vec<Cycle>,
}

impl Arm {
    fn ops(&self) -> usize {
        self.cycles.iter().map(|c| c.ops).sum()
    }

    /// Operations per second of busy time over every cycle.
    pub fn throughput(&self) -> f64 {
        let busy_s: f64 = self.cycles.iter().map(|c| c.busy_s).sum();
        ratio(self.ops() as f64, busy_s)
    }

    /// Median over the cycles of `f`. A slow stretch of a shared host
    /// that covers a minority of the cycles does not move it.
    pub fn median_by(&self, f: impl Fn(&Cycle) -> f64) -> f64 {
        median(&self.cycles.iter().map(f).collect::<Vec<_>>())
    }
}

/// The timed phase, split by whether a cycle was traced.
#[derive(Debug, Default)]
pub struct Timed {
    untraced: Arm,
    traced: Arm,
}

impl Timed {
    /// Opens the next cycle, traced or not, and returns it.
    pub fn start_cycle(&mut self, traced: bool) -> &mut Cycle {
        let arm = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        arm.cycles.push(Cycle::default());
        arm.cycles.last_mut().expect("a cycle was just opened")
    }

    /// The arm end-to-end metrics come from: the untraced cycles, or the
    /// traced ones when a smoke run had no other.
    pub fn primary(&self) -> &Arm {
        if self.untraced.ops() > 0 {
            &self.untraced
        } else {
            &self.traced
        }
    }

    /// Throughput lost to tracing: 1 − traced / untraced (0 without both).
    pub fn overhead_share(&self) -> f64 {
        if self.traced.ops() == 0 || self.untraced.ops() == 0 {
            return 0.0;
        }
        1.0 - ratio(self.traced.throughput(), self.untraced.throughput())
    }
}

/// Operations checked against the reference, and how many were wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; reports it on stderr when wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: wrong output: {}", what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            [0.25, 0.5, 0.75].map(|q| quantile(&v, q)),
            [2.75, 5.5, 8.25]
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(
            [0.25, 0.5, 0.75].map(|q| quantile(&[3.0, 1.0, 2.0], q)),
            [1.0, 2.0, 3.0]
        );
        // Past the ends of a small sample the extremes hold.
        assert_eq!(quantile(&v, 0.95), 10.0);
        assert_eq!(quantile(&[4.0], 0.5), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
