//! Deterministic fault injection for the reuse runtime and service.
//!
//! The paper's contract is that reuse is an *optimization*: under any
//! perturbation it may cost latency or hit ratio, never correctness
//! (DESIGN.md §8f). This module is the chaos plane that proves it. A
//! [`FaultPlan`] holds one injection rate per [`FailPoint`]; every
//! consultation ([`FaultPlan::fire`]) draws from a SplitMix64 stream
//! derived from `seed ^ point ^ draw-index` — no wall clock, no global
//! RNG — so a plan's decisions are a pure function of the seed and each
//! point's consultation count. Counters record how many draws happened
//! and how many fired, letting tests assert that faults genuinely ran.
//!
//! The plan is shared behind an `Arc` and consulted through `&self`;
//! every site holds it as `Option<Arc<FaultPlan>>`, so the disabled case
//! costs exactly one branch on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Payload used by injected shard-poisoning panics, so the optional
/// panic-hook filter ([`silence_injected_panics`]) can recognise and
/// mute exactly them.
pub const INJECTED_POISON_PANIC: &str = "injected shard poison (chaos plane)";

/// Synthetic cycles a [`FailPoint::SlowRequest`] fire charges: large
/// enough to trip any realistic cycle deadline on its own.
pub const SLOW_PENALTY_CYCLES: u64 = 1 << 40;

/// Number of distinct [`FailPoint`]s.
pub const FAIL_POINT_COUNT: usize = 4;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailPoint {
    /// A [`crate::ShardedTable::lookup`] answers a forced miss without
    /// probing (sound: the caller recomputes, as on any cold miss).
    ProbeMiss,
    /// A store shard's lock is genuinely poisoned (a panic while holding
    /// it); retryable at the service layer, recovered on the next probe.
    ShardPoison,
    /// A queue push is rejected as if the queue were full; retryable.
    QueueReject,
    /// A request is charged [`SLOW_PENALTY_CYCLES`] extra cycles, the deterministic stand-in for a stalled dependency —
    /// what request deadlines are measured against.
    SlowRequest,
}

impl FailPoint {
    /// Every fail point, in counter order.
    pub const ALL: [FailPoint; FAIL_POINT_COUNT] = [
        FailPoint::ProbeMiss,
        FailPoint::ShardPoison,
        FailPoint::QueueReject,
        FailPoint::SlowRequest,
    ];

    /// Short snake_case name (used in metrics reports).
    pub fn name(self) -> &'static str {
        match self {
            FailPoint::ProbeMiss => "probe_miss",
            FailPoint::ShardPoison => "shard_poison",
            FailPoint::QueueReject => "queue_reject",
            FailPoint::SlowRequest => "slow_request",
        }
    }

    fn index(self) -> usize {
        match self {
            FailPoint::ProbeMiss => 0,
            FailPoint::ShardPoison => 1,
            FailPoint::QueueReject => 2,
            FailPoint::SlowRequest => 3,
        }
    }

    /// Decorrelates the per-point draw streams.
    fn salt(self) -> u64 {
        [
            0xA076_1D64_78BD_642F,
            0xE703_7ED1_A0B4_28DB,
            0x8EBC_6AF0_9C88_C6E3,
            0x5899_65CC_7537_4CC3,
        ][self.index()]
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A point-in-time snapshot of a plan's draw/fired counters, one pair per
/// [`FailPoint`] in [`FailPoint::ALL`] order. Batch reports subtract two
/// snapshots ([`FaultCounters::delta_since`]) the same way table stats do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Times each point was consulted.
    pub draws: [u64; FAIL_POINT_COUNT],
    /// Times each point actually injected its fault.
    pub fired: [u64; FAIL_POINT_COUNT],
}

impl FaultCounters {
    /// Draws at `point`.
    pub fn draws_at(&self, point: FailPoint) -> u64 {
        self.draws[point.index()]
    }

    /// Fires at `point`.
    pub fn fired_at(&self, point: FailPoint) -> u64 {
        self.fired[point.index()]
    }

    /// Total injected faults across every point.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }

    /// The counters accumulated since `earlier` (saturating).
    pub fn delta_since(&self, earlier: &FaultCounters) -> FaultCounters {
        let mut d = FaultCounters::default();
        for i in 0..FAIL_POINT_COUNT {
            d.draws[i] = self.draws[i].saturating_sub(earlier.draws[i]);
            d.fired[i] = self.fired[i].saturating_sub(earlier.fired[i]);
        }
        d
    }
}

/// A deterministic, shareable fault-injection plan.
///
/// Build one with [`FaultPlan::new`] and per-point rates, wrap it in an
/// `Arc`, and hand it to the sites that should misbehave (the sharded
/// store, the request queue, the worker loop). Determinism contract: for
/// a fixed seed, the n-th consultation of a given point always answers
/// the same way, regardless of which thread asks.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; FAIL_POINT_COUNT],
    draws: [AtomicU64; FAIL_POINT_COUNT],
    fired: [AtomicU64; FAIL_POINT_COUNT],
    /// Separate stream for structural picks (which shard to poison,
    /// backoff jitter) so they never perturb the fire/no-fire sequences.
    aux: AtomicU64,
}

impl FaultPlan {
    /// A plan with every rate zero (fires nothing until rates are set).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed: splitmix64(seed ^ 0x5EED_FA17_7F1A), // decorrelate tiny seeds
            rates: [0.0; FAIL_POINT_COUNT],
            draws: Default::default(),
            fired: Default::default(),
            aux: AtomicU64::new(0),
        }
    }

    /// Sets `point`'s injection probability (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_rate(mut self, point: FailPoint, rate: f64) -> Self {
        self.rates[point.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets every point's injection probability at once.
    #[must_use]
    pub fn with_all_rates(mut self, rate: f64) -> Self {
        for r in &mut self.rates {
            *r = rate.clamp(0.0, 1.0);
        }
        self
    }

    /// The (mixed) seed identifying this plan's streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `point`'s injection probability.
    pub fn rate(&self, point: FailPoint) -> f64 {
        self.rates[point.index()]
    }

    /// Draws the next decision for `point`: `true` means inject the
    /// fault. Deterministic per (seed, point, draw index).
    pub fn fire(&self, point: FailPoint) -> bool {
        let i = point.index();
        let rate = self.rates[i];
        if rate <= 0.0 {
            return false;
        }
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        let z = splitmix64(self.seed ^ point.salt() ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Top 53 bits → uniform in [0, 1) at f64 precision.
        let hit = ((z >> 11) as f64) < rate * (1u64 << 53) as f64;
        if hit {
            self.fired[i].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Times `point` has injected its fault so far.
    pub fn fired(&self, point: FailPoint) -> u64 {
        self.fired[point.index()].load(Ordering::Relaxed)
    }

    /// Times `point` has been consulted so far.
    pub fn draws(&self, point: FailPoint) -> u64 {
        self.draws[point.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of every counter (for batch deltas in reports).
    pub fn counters(&self) -> FaultCounters {
        let mut c = FaultCounters::default();
        for i in 0..FAIL_POINT_COUNT {
            c.draws[i] = self.draws[i].load(Ordering::Relaxed);
            c.fired[i] = self.fired[i].load(Ordering::Relaxed);
        }
        c
    }

    /// A structural pick in `0..n` (which table, which shard, how long to
    /// back off), from the auxiliary stream so it never shifts the
    /// fire/no-fire sequences. Returns 0 when `n` is 0.
    pub fn pick(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let i = self.aux.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ 0xD6E8_FEB8_6659_FD93 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n
    }
}

/// Installs (once) a panic-hook filter that mutes the report of panics
/// whose payload is [`INJECTED_POISON_PANIC`] — the deliberate panics the
/// chaos plane uses to poison shard locks — and delegates every other
/// panic to the previous hook. Panic *propagation* is untouched; only the
/// stderr noise of intentional poisoning is suppressed.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains(INJECTED_POISON_PANIC))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(INJECTED_POISON_PANIC));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires_and_never_draws() {
        let p = FaultPlan::new(7);
        for point in FailPoint::ALL {
            for _ in 0..100 {
                assert!(!p.fire(point));
            }
            assert_eq!(p.fired(point), 0);
            // Disabled points return before touching the draw counter.
            assert_eq!(p.draws(point), 0);
        }
    }

    #[test]
    fn full_rate_always_fires() {
        let p = FaultPlan::new(7).with_rate(FailPoint::ProbeMiss, 1.0);
        for _ in 0..50 {
            assert!(p.fire(FailPoint::ProbeMiss));
        }
        assert_eq!(p.fired(FailPoint::ProbeMiss), 50);
        assert_eq!(p.draws(FailPoint::ProbeMiss), 50);
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultPlan::new(42).with_all_rates(0.3);
        let b = FaultPlan::new(42).with_all_rates(0.3);
        for point in FailPoint::ALL {
            for _ in 0..200 {
                assert_eq!(a.fire(point), b.fire(point));
            }
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1).with_all_rates(0.5);
        let b = FaultPlan::new(2).with_all_rates(0.5);
        let same = (0..256)
            .filter(|_| a.fire(FailPoint::QueueReject) == b.fire(FailPoint::QueueReject))
            .count();
        assert!(same < 256, "streams should not be identical");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let p = FaultPlan::new(9).with_rate(FailPoint::SlowRequest, 0.25);
        let n = 10_000;
        let hits = (0..n).filter(|_| p.fire(FailPoint::SlowRequest)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "observed rate {frac}");
        assert_eq!(p.draws(FailPoint::SlowRequest), n);
        assert_eq!(p.fired(FailPoint::SlowRequest), hits as u64);
    }

    #[test]
    fn counters_delta_subtracts() {
        let p = FaultPlan::new(3).with_all_rates(0.5);
        for _ in 0..100 {
            p.fire(FailPoint::ProbeMiss);
        }
        let before = p.counters();
        for _ in 0..40 {
            p.fire(FailPoint::ProbeMiss);
        }
        let delta = p.counters().delta_since(&before);
        assert_eq!(delta.draws_at(FailPoint::ProbeMiss), 40);
        assert!(delta.fired_at(FailPoint::ProbeMiss) <= 40);
        assert_eq!(delta.draws_at(FailPoint::QueueReject), 0);
    }

    #[test]
    fn pick_stays_in_range_and_handles_zero() {
        let p = FaultPlan::new(5);
        assert_eq!(p.pick(0), 0);
        for _ in 0..100 {
            assert!(p.pick(7) < 7);
        }
    }
}
