//! A sharded, shareable wrapper over [`MemoTable`] for concurrent probing.
//!
//! A [`MemoTable`] is `&mut`-owned by one VM and dies with the run. A
//! [`ShardedTable`] wraps the same storage kinds in N power-of-two shards
//! (std primitives only — the workspace builds offline) so many worker
//! threads can probe one long-lived reuse store through `&self`. Each
//! shard is a plain `Mutex` around a complete `MemoTable` — storage,
//! telemetry, and its own [`AdaptiveGuard`](crate::AdaptiveGuard) — so
//! the adaptive machinery is evaluated per shard with no extra code, and
//! every probe, hit or miss, runs the same code a run-private table runs,
//! under the shard lock.
//!
//! ## Sharding scheme
//!
//! A key is routed to shard `fib(jenkins(key)) >> (32 - log2 N)`:
//! [`hash_words`] streams the key's words through the Jenkins hash (no
//! single-word modulo shortcut, unlike [`crate::hash::index_of`]) and a
//! Fibonacci multiply selects the *high* bits, so the shard choice stays
//! decorrelated from the in-shard slot index (which uses the low bits).
//! Within a shard the lookup/record contract is exactly the sequential
//! one, which is what makes results store-independent: a hit only ever
//! returns outputs recorded for a bit-identical key.
//!
//! ## What merging preserves
//!
//! Every counter increment happens exactly once, under the shard lock:
//! in the shard table's own statistics and telemetry (per segment, as in
//! a private table), or — for recordings the admission sketch refuses,
//! which never touch the table — in the shard's `admission_rejects`
//! count, which [`ShardedTable::shard_stats`] folds into the shard's
//! snapshot. The aggregate [`ShardedTable::stats`] is therefore a
//! lossless sum of per-shard deltas: no access is lost or double-counted
//! under contention (asserted by `tests/sharded_prop.rs` and
//! `tests/contention_stress.rs`). The aggregate taken while writers are
//! still running is a momentary snapshot; quiesce first for exact totals.
//!
//! ## Poisoning and fault injection
//!
//! A shard whose lock is poisoned (a worker panicked mid-access) is
//! recovered on the next acquisition: the poison flag is cleared and the
//! shard's *entries dropped* — its storage may have been mid-update, and
//! forgetting is always sound for a cache, so the shard restarts empty but
//! valid while every other shard keeps serving untouched. Every access
//! goes through that acquisition, so a poisoned shard is always recovered
//! before its next probe is answered. Recoveries are counted
//! ([`ShardedTable::poison_recoveries`]). For chaos testing, an installed
//! [`FaultPlan`] can force probe misses ([`FailPoint::ProbeMiss`]) and
//! [`ShardedTable::poison_shard`] poisons a shard's lock for real via a
//! deliberate panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::admission::{key_hash64, TinyLfu};
use crate::faults::{FailPoint, FaultPlan, INJECTED_POISON_PANIC};
use crate::guard::{GuardPolicy, TableState};
use crate::hash::hash_words;
use crate::stats::TableStats;
use crate::{FpValidator, MemoTable, SpecError, TableSpec};

/// One lock shard's contents: the table and its admission state.
#[derive(Debug)]
struct Shard {
    table: MemoTable,
    /// TinyLFU admission sketch (`None` = admission off).
    sketch: Option<TinyLfu>,
    /// Recordings refused by the sketch. Counted here, not in the table:
    /// the storage was never touched. Folded into the shard's snapshot by
    /// [`ShardedTable::shard_stats`].
    admission_rejects: u64,
}

/// The three table kinds wrapped in N power-of-two lock shards, probed
/// through `&self` so one store can outlive and be shared by many runs.
#[derive(Debug)]
pub struct ShardedTable {
    shards: Vec<Mutex<Shard>>,
    /// `shards.len() - 1`; the length is a power of two.
    mask: u32,
    /// Times a poisoned shard was recovered (cleared and restarted empty).
    poison_recoveries: AtomicU64,
    /// Chaos plane; `None` (the default) costs one branch per lookup.
    faults: Option<Arc<FaultPlan>>,
}

impl ShardedTable {
    /// Builds a sharded store from `spec`, rounding `shards` up to the
    /// next power of two (minimum 1). The spec's slot budget is divided
    /// across the shards with *ceiling* division, so the aggregate shard
    /// capacity is never below `spec.slots` (a 100-slot spec over 8 shards
    /// serves 104 slots, not 96). Multi-segment specs get merged shards,
    /// single-segment specs direct-addressed ones, mirroring the
    /// pipeline's kind choice.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec is structurally invalid.
    pub fn try_from_spec(spec: &TableSpec, shards: usize) -> Result<Self, SpecError> {
        spec.validate()?;
        let n = shards.max(1).next_power_of_two();
        let per_shard = TableSpec {
            slots: spec.slots.div_ceil(n),
            key_words: spec.key_words,
            out_words: spec.out_words.clone(),
        };
        let mut built = Vec::with_capacity(n);
        for _ in 0..n {
            let table = if per_shard.out_words.len() > 1 {
                MemoTable::try_merged(&per_shard)?
            } else {
                MemoTable::try_direct(&per_shard)?
            };
            built.push(Mutex::new(Shard {
                table,
                sketch: None,
                admission_rejects: 0,
            }));
        }
        Ok(ShardedTable {
            shards: built,
            mask: (n - 1) as u32,
            poison_recoveries: AtomicU64::new(0),
            faults: None,
        })
    }

    /// Installs (or removes, with `None`) a fault-injection plan. Takes
    /// `&mut self`: plans are wired at build time, before the store is
    /// shared. With a plan installed, [`FailPoint::ProbeMiss`] fires turn
    /// lookups into forced misses (sound: the caller recomputes, exactly
    /// as on a cold miss, and the probe is not counted in the stats).
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// Installs `policy` on every shard (each shard's guard is reset to
    /// `Active` and re-windowed). Takes `&mut self`: policies are set at
    /// build time, before the store is shared.
    pub fn set_policy(&mut self, policy: GuardPolicy) {
        for i in 0..self.shards.len() {
            self.with_shard(i, |t| t.set_policy(policy.clone()));
        }
    }

    fn shard_index(&self, key: &[u64]) -> usize {
        if self.mask == 0 || key.is_empty() {
            return 0;
        }
        let bits = (self.mask + 1).trailing_zeros();
        let h = hash_words(key).wrapping_mul(0x9E37_79B1);
        (h >> (32 - bits)) as usize
    }

    /// The shard `key` routes to (exposed so tests and fault drivers can
    /// target a specific shard deterministically).
    pub fn shard_of(&self, key: &[u64]) -> usize {
        self.shard_index(key)
    }

    fn acquire(&self, i: usize) -> MutexGuard<'_, Shard> {
        let lock = &self.shards[i];
        lock.lock().unwrap_or_else(|poisoned| {
            // Another worker panicked while holding this shard: its storage
            // may be mid-update, so drop the entries (forgetting is always
            // sound for a cache) and clear the flag so later acquisitions
            // see a healthy, empty shard instead of re-recovering forever.
            lock.clear_poison();
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            let mut guard = poisoned.into_inner();
            guard.table.clear();
            guard
        })
    }

    /// Runs `f` on shard `i`'s table under its lock (also the snapshot
    /// export and restore paths).
    pub(crate) fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut MemoTable) -> R) -> R {
        f(&mut self.acquire(i).table)
    }

    /// Looks up `key` for segment `slot` in the shard the key hashes to.
    /// Same contract as [`MemoTable::lookup`]; a bypassed shard answers a
    /// forced miss, as does a fired [`FailPoint::ProbeMiss`] (which skips
    /// the probe entirely, leaving statistics untouched).
    pub fn lookup(&self, slot: usize, key: &[u64], out: &mut Vec<u64>) -> bool {
        self.lookup_dep(slot, key, out, false, None)
    }

    /// Dependency-validating lookup in the shard the key hashes to; same
    /// contract as [`MemoTable::lookup_dep`]. The validator runs under the
    /// shard lock (it only reads caller-local epoch state, so it cannot
    /// deadlock against other shards). A fired [`FailPoint::ProbeMiss`]
    /// still skips the probe entirely.
    pub fn lookup_dep(
        &self,
        slot: usize,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        validate: FpValidator,
    ) -> bool {
        if let Some(plan) = &self.faults {
            if plan.fire(FailPoint::ProbeMiss) {
                return false;
            }
        }
        self.with_shard(self.shard_index(key), |t| {
            t.lookup_dep(slot, key, out, green, validate)
        })
    }

    /// Records `outputs` for `key` in segment `slot` in the shard the key
    /// hashes to (dropped while that shard is bypassed).
    pub fn record(&self, slot: usize, key: &[u64], outputs: &[u64]) {
        self.record_dep(slot, key, outputs, &[])
    }

    /// Records `outputs` plus a dependency fingerprint for `key` in
    /// segment `slot` (`&[]` for exact-match entries).
    ///
    /// With admission enabled ([`ShardedTable::set_admission`]) a
    /// recording that would evict a *different* resident key is first
    /// judged by the shard's TinyLFU sketch: the candidate is admitted
    /// only when its estimated frequency strictly exceeds the victim's,
    /// otherwise the recording is dropped and counted in
    /// [`TableStats::admission_rejects`]. Same-key refreshes and
    /// empty-slot recordings are always admitted. A bypassed shard skips
    /// the sketch entirely — the §8c guard's decision (drop the record)
    /// supersedes admission, and the drop lands in bypass telemetry as
    /// before.
    pub fn record_dep(&self, slot: usize, key: &[u64], outputs: &[u64], fp: &[u64]) {
        let mut guard = self.acquire(self.shard_index(key));
        let shard = &mut *guard;
        let admitted = match &mut shard.sketch {
            Some(lfu) if shard.table.state() != TableState::Bypassed => {
                let candidate = key_hash64(key);
                match shard.table.resident_key(key).map(key_hash64) {
                    Some(victim) => lfu.admits(candidate, victim),
                    None => {
                        lfu.observe(candidate);
                        true
                    }
                }
            }
            _ => true,
        };
        if admitted {
            shard.table.record_dep(slot, key, outputs, fp);
        } else {
            shard.admission_rejects += 1;
        }
    }

    /// Enables (or disables) TinyLFU admission on every shard, each sized
    /// for its own slot count. Takes `&mut self`: admission is wired at
    /// build time, before the store is shared. Enabling resets any
    /// previous sketch's frequency state.
    pub fn set_admission(&mut self, enabled: bool) {
        for i in 0..self.shards.len() {
            let mut shard = self.acquire(i);
            let slots = shard.table.slots();
            shard.sketch = enabled.then(|| TinyLfu::new(slots));
        }
    }

    /// Whether TinyLFU admission is enabled (on shard 0 — shards are
    /// always configured uniformly).
    pub fn admission_enabled(&mut self) -> bool {
        self.acquire(0).sketch.is_some()
    }

    /// Declares segment `slot`'s fingerprint width on every shard; see
    /// [`MemoTable::set_deps`]. Takes `&mut self`: dependency layouts are
    /// wired at build time, before the store is shared.
    pub fn set_deps(&mut self, slot: usize, fp_words: usize) {
        for i in 0..self.shards.len() {
            self.with_shard(i, |t| t.set_deps(slot, fp_words));
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lossless aggregate statistics: the sum of every shard's counters.
    pub fn stats(&self) -> TableStats {
        let mut total = TableStats::default();
        for s in self.shard_stats() {
            total.merge(&s);
        }
        total
    }

    /// Per-shard statistics snapshots, in shard order: the table's
    /// counters with the shard's admission rejects folded in, so the sum
    /// over shards accounts for every probe and recording exactly once.
    pub fn shard_stats(&self) -> Vec<TableStats> {
        (0..self.shards.len())
            .map(|i| {
                let shard = self.acquire(i);
                let mut s = *shard.table.stats();
                s.admission_rejects += shard.admission_rejects;
                s
            })
            .collect()
    }

    /// Per-shard guard states, in shard order.
    pub fn shard_states(&self) -> Vec<TableState> {
        (0..self.shards.len())
            .map(|i| self.with_shard(i, |t| t.state()))
            .collect()
    }

    /// Total storage footprint across shards, in bytes.
    pub fn bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.with_shard(i, |t| t.bytes()))
            .sum()
    }

    /// Total slot count across shards.
    pub fn slots(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.with_shard(i, |t| t.slots()))
            .sum()
    }

    /// Total lookups answered as forced misses by bypassed shards.
    pub fn bypassed_total(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.with_shard(i, |t| t.telemetry().bypassed_total()))
            .sum()
    }

    /// Total recordings dropped by bypassed shards.
    pub fn dropped_records(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.with_shard(i, |t| t.telemetry().dropped_records()))
            .sum()
    }

    /// Times a poisoned shard lock was recovered (shard cleared and
    /// restarted empty).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Genuinely poisons shard `shard`'s lock by panicking while holding
    /// it (the panic is caught here; install
    /// [`crate::silence_injected_panics`] to mute its report). The next
    /// acquisition recovers the shard empty-but-valid. Chaos-testing entry
    /// point for the retryable poisoned-shard fault.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn poison_shard(&self, shard: usize) {
        assert!(shard < self.shards.len(), "shard out of range");
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.acquire(shard);
            std::panic::panic_any(INJECTED_POISON_PANIC);
        }));
    }

    /// Forces every shard into [`TableState::Bypassed`] (service-level
    /// degradation under overload), journaling `reason` per shard.
    pub fn force_bypass(&self, reason: &'static str) {
        for i in 0..self.shards.len() {
            self.with_shard(i, |t| t.force_bypass(reason));
        }
    }

    /// Ends a forced bypass on every shard (enabled guards re-enter via
    /// probation, disabled ones return to `Active`), journaling `reason`.
    pub fn end_forced_bypass(&self, reason: &'static str) {
        for i in 0..self.shards.len() {
            self.with_shard(i, |t| t.end_forced_bypass(reason));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(slots: usize) -> TableSpec {
        TableSpec {
            slots,
            key_words: 1,
            out_words: vec![1],
        }
    }

    #[test]
    fn round_trips_through_shared_reference() {
        let t = ShardedTable::try_from_spec(&spec(64), 8).unwrap();
        let mut out = Vec::new();
        assert!(!t.lookup(0, &[42], &mut out));
        t.record(0, &[42], &[7]);
        assert!(t.lookup(0, &[42], &mut out));
        assert_eq!(out, vec![7]);
        let s = t.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.insertions, 1);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        for (ask, got) in [(0, 1), (1, 1), (3, 4), (4, 4), (5, 8)] {
            let t = ShardedTable::try_from_spec(&spec(64), ask).unwrap();
            assert_eq!(t.shard_count(), got);
        }
    }

    #[test]
    fn slot_budget_is_divided_across_shards() {
        let t = ShardedTable::try_from_spec(&spec(64), 8).unwrap();
        assert_eq!(t.slots(), 64);
        // A tiny spec still gets one slot per shard.
        let tiny = ShardedTable::try_from_spec(&spec(2), 8).unwrap();
        assert_eq!(tiny.slots(), 8);
    }

    #[test]
    fn slot_budget_rounds_up_never_down() {
        // Regression: floor division used to shave capacity off
        // non-power-of-two budgets (100 slots over 8 shards served 96).
        for (slots, shards) in [(100, 8), (7, 4), (129, 16), (1000, 8), (33, 2)] {
            let t = ShardedTable::try_from_spec(&spec(slots), shards).unwrap();
            assert!(
                t.slots() >= slots,
                "{slots} slots over {shards} shards served only {}",
                t.slots()
            );
            let n = t.shard_count();
            assert!(
                t.slots() < slots + n,
                "ceiling division wastes at most one slot per shard: \
                 {slots} over {n} shards got {}",
                t.slots()
            );
        }
    }

    #[test]
    fn invalid_specs_yield_typed_errors() {
        let bad = TableSpec {
            slots: 0,
            key_words: 1,
            out_words: vec![1],
        };
        assert_eq!(
            ShardedTable::try_from_spec(&bad, 4).err(),
            Some(SpecError::ZeroSlots)
        );
    }

    #[test]
    fn keys_spread_over_shards() {
        let t = ShardedTable::try_from_spec(&spec(1024), 8).unwrap();
        for k in 0..256u64 {
            t.record(0, &[k], &[k]);
        }
        let used = t.shard_stats().iter().filter(|s| s.insertions > 0).count();
        assert!(used >= 4, "only {used} of 8 shards saw traffic");
    }

    #[test]
    fn aggregate_stats_equal_sum_of_shards() {
        let t = ShardedTable::try_from_spec(&spec(32), 4).unwrap();
        let mut out = Vec::new();
        for k in 0..100u64 {
            if !t.lookup(0, &[k % 13], &mut out) {
                t.record(0, &[k % 13], &[k]);
            }
        }
        let mut sum = TableStats::default();
        for s in t.shard_stats() {
            sum.merge(&s);
        }
        assert_eq!(t.stats(), sum);
        assert_eq!(sum.accesses, 100);
    }

    #[test]
    fn warm_hits_return_recorded_payloads() {
        let t = ShardedTable::try_from_spec(&spec(64), 4).unwrap();
        let mut out = Vec::new();
        for k in 0..16u64 {
            t.record(0, &[k], &[k * 10]);
        }
        for _ in 0..4 {
            for k in 0..16u64 {
                assert!(t.lookup(0, &[k], &mut out));
                assert_eq!(out, vec![k * 10]);
            }
        }
        let s = t.stats();
        assert_eq!(s.hits, 64);
        assert_eq!(s.accesses, 64);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn green_validation_and_stale_reds() {
        let mut t = ShardedTable::try_from_spec(&spec(64), 4).unwrap();
        t.set_deps(0, 2);
        let mut out = Vec::new();
        t.record_dep(0, &[5], &[50], &[9, 10]);
        let mut seen = Vec::new();
        let mut ok = |fp: &[u64]| {
            seen = fp.to_vec();
            true
        };
        assert!(t.lookup_dep(0, &[5], &mut out, true, Some(&mut ok)));
        assert_eq!(out, vec![50]);
        assert_eq!(seen, vec![9, 10], "validator sees the stored fp");
        let mut no = |_: &[u64]| false;
        assert!(!t.lookup_dep(0, &[5], &mut out, true, Some(&mut no)));
        // Forced red: green with no validator never trusts the entry.
        assert!(!t.lookup_dep(0, &[5], &mut out, true, None));
        let s = t.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.green_hits, 1);
        assert_eq!(s.stale_reds, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn per_segment_telemetry_attributes_every_probe_to_its_segment() {
        let mspec = TableSpec {
            slots: 64,
            key_words: 1,
            out_words: vec![1, 1],
        };
        let t = ShardedTable::try_from_spec(&mspec, 4).unwrap();
        let mut out = Vec::new();
        for k in 0..16u64 {
            t.record(1, &[k], &[k + 100]);
        }
        let rounds = 3;
        for _ in 0..rounds {
            for k in 0..16u64 {
                assert!(t.lookup(1, &[k], &mut out));
                assert_eq!(out, vec![k + 100]);
            }
        }
        let probes = rounds * 16;
        let mut seg0 = TableStats::default();
        let mut seg1 = TableStats::default();
        for i in 0..t.shard_count() {
            t.with_shard(i, |table| {
                let per = table.telemetry().per_segment();
                if let Some(s) = per.first() {
                    seg0.merge(s);
                }
                if let Some(s) = per.get(1) {
                    seg1.merge(s);
                }
            });
        }
        assert_eq!(seg1.accesses, probes, "segment 1 saw every probe");
        assert_eq!(seg1.hits, probes, "segment 1 saw every hit");
        assert_eq!(seg0.accesses, 0, "segment 0 was never probed");
        assert_eq!(seg0.hits, 0);
    }

    #[test]
    fn guard_resize_is_applied_to_the_shard() {
        let mut t = ShardedTable::try_from_spec(&spec(1), 1).unwrap();
        t.set_policy(GuardPolicy {
            enabled: true,
            epoch_len: 16,
            k_epochs: 1,
            max_resizes: 1,
            ..GuardPolicy::default()
        });
        let mut out = Vec::new();
        // On one slot every new key's recording evicts the last one, yet
        // each key hits right after it is recorded: a collision rate far
        // over the threshold on a table that still earns hits, which the
        // guard answers by doubling the table.
        for k in 0..8u64 {
            assert!(!t.lookup(0, &[k], &mut out));
            t.record(0, &[k], &[k * 10]);
            assert!(t.lookup(0, &[k], &mut out));
            assert_eq!(out, vec![k * 10]);
        }
        assert_eq!(t.slots(), 2, "the resize verdict doubled the shard");
        assert_eq!(t.shard_states(), vec![TableState::Active]);
        let journal: Vec<&str> = t.with_shard(0, |table| {
            table
                .telemetry()
                .transitions()
                .iter()
                .map(|tr| tr.reason)
                .collect()
        });
        assert_eq!(journal, vec!["resize"]);
        assert!(
            t.lookup(0, &[7], &mut out),
            "the rehash kept the live entry"
        );
        assert_eq!(out, vec![70]);
        // Keys 100 and 101 shared the one old slot but not the two new ones.
        t.record(0, &[100], &[1000]);
        t.record(0, &[101], &[1010]);
        assert!(t.lookup(0, &[100], &mut out));
        assert_eq!(out, vec![1000]);
        assert!(t.lookup(0, &[101], &mut out));
        assert_eq!(out, vec![1010]);
    }

    #[test]
    fn merged_specs_build_merged_shards() {
        let mspec = TableSpec {
            slots: 16,
            key_words: 1,
            out_words: vec![1, 2],
        };
        let t = ShardedTable::try_from_spec(&mspec, 2).unwrap();
        let mut out = Vec::new();
        t.record(1, &[5], &[8, 9]);
        assert!(t.lookup(1, &[5], &mut out));
        assert_eq!(out, vec![8, 9]);
        assert!(!t.lookup(0, &[5], &mut out), "segment 0 not yet valid");
    }

    #[test]
    fn full_rate_probe_miss_plan_forces_every_lookup_to_miss() {
        use crate::faults::{FailPoint, FaultPlan};
        let mut t = ShardedTable::try_from_spec(&spec(64), 4).unwrap();
        let mut out = Vec::new();
        t.record(0, &[42], &[7]);
        assert!(t.lookup(0, &[42], &mut out), "no plan yet: genuine hit");
        let plan = std::sync::Arc::new(FaultPlan::new(1).with_rate(FailPoint::ProbeMiss, 1.0));
        t.set_fault_plan(Some(plan.clone()));
        let stats_before = t.stats();
        for _ in 0..10 {
            assert!(!t.lookup(0, &[42], &mut out), "forced miss");
        }
        assert_eq!(plan.fired(FailPoint::ProbeMiss), 10);
        assert_eq!(
            t.stats(),
            stats_before,
            "forced misses skip the probe and the stats"
        );
        t.set_fault_plan(None);
        assert!(t.lookup(0, &[42], &mut out), "entry survived the faults");
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn poisoned_shard_recovers_empty_and_counts() {
        crate::faults::silence_injected_panics();
        let t = ShardedTable::try_from_spec(&spec(64), 4).unwrap();
        let mut out = Vec::new();
        t.record(0, &[1], &[10]);
        let victim = t.shard_of(&[1]);
        t.poison_shard(victim);
        assert!(
            !t.lookup(0, &[1], &mut out),
            "recovered shard restarts empty"
        );
        assert_eq!(t.poison_recoveries(), 1);
        // Recovery is one-shot: the shard serves normally afterwards.
        t.record(0, &[1], &[11]);
        assert!(t.lookup(0, &[1], &mut out));
        assert_eq!(out, vec![11]);
        assert_eq!(t.poison_recoveries(), 1, "no re-recovery loop");
    }

    #[test]
    fn forced_bypass_flips_all_shards_and_ends_cleanly() {
        let t = ShardedTable::try_from_spec(&spec(64), 4).unwrap();
        let mut out = Vec::new();
        t.record(0, &[5], &[50]);
        t.force_bypass("overload shed");
        assert!(t.shard_states().iter().all(|&s| s == TableState::Bypassed));
        assert!(!t.lookup(0, &[5], &mut out), "bypassed: forced miss");
        t.end_forced_bypass("overload cleared");
        // Guards are disabled by default, so they return straight to Active.
        assert!(t.shard_states().iter().all(|&s| s == TableState::Active));
        assert!(t.lookup(0, &[5], &mut out), "entries survived the bypass");
        assert_eq!(out, vec![50]);
    }

    fn admission_store(enabled: bool) -> ShardedTable {
        let mut t = ShardedTable::try_from_spec(&spec(256), 1).unwrap();
        t.set_admission(enabled);
        t
    }

    /// 64 hot keys recorded 16 times each, then 200 one-shot keys whose
    /// residues alias many of the hot slots.
    fn hot_then_one_shot(t: &ShardedTable) {
        for _ in 0..16 {
            for k in 0..64u64 {
                t.record(0, &[k], &[k * 2]);
            }
        }
        for k in 10_000..10_200u64 {
            t.record(0, &[k], &[1]);
        }
    }

    #[test]
    fn admission_protects_hot_entries_from_one_shot_churn() {
        let t = admission_store(true);
        hot_then_one_shot(&t);
        let s = t.stats();
        assert!(s.admission_rejects > 0, "sketch rejected no one-shots");
        let mut out = Vec::new();
        let mut hot_hits = 0;
        for k in 0..64u64 {
            if t.lookup(0, &[k], &mut out) {
                hot_hits += 1;
            }
        }
        assert_eq!(hot_hits, 64, "every hot key survived the one-shot flood");
    }

    #[test]
    fn admission_cuts_evictions_at_equal_memory() {
        let off = admission_store(false);
        hot_then_one_shot(&off);
        let on = admission_store(true);
        hot_then_one_shot(&on);
        assert!(
            on.stats().evictions < off.stats().evictions,
            "admission on: {} evictions, off: {}",
            on.stats().evictions,
            off.stats().evictions
        );
        assert_eq!(
            off.stats().admission_rejects,
            0,
            "no rejects without a sketch"
        );
    }

    #[test]
    fn same_key_refreshes_are_always_admitted() {
        let t = admission_store(true);
        let mut out = Vec::new();
        t.record(0, &[5], &[50]);
        for _ in 0..10 {
            t.record(0, &[5], &[51]);
        }
        assert!(t.lookup(0, &[5], &mut out));
        assert_eq!(out, vec![51], "refresh took effect");
        assert_eq!(t.stats().admission_rejects, 0);
    }

    #[test]
    fn bypassed_shards_skip_the_admission_sketch() {
        let t = admission_store(true);
        t.force_bypass("test");
        for k in 0..50u64 {
            t.record(0, &[k], &[k]);
        }
        assert_eq!(
            t.stats().admission_rejects,
            0,
            "bypass supersedes admission"
        );
        assert!(t.dropped_records() >= 50, "records dropped by the guard");
    }

    #[test]
    fn per_shard_guard_bypasses_independently() {
        let mut t = ShardedTable::try_from_spec(&spec(4), 4).unwrap();
        t.set_policy(GuardPolicy {
            enabled: true,
            epoch_len: 16,
            predicted_collision_rate: 0.0,
            margin: 0.01,
            k_epochs: 1,
            bypass_epochs: 1000,
            max_resizes: 0,
            ..GuardPolicy::default()
        });
        // Hammer one shard with all-distinct keys until it trips; other
        // shards must stay active.
        let mut out = Vec::new();
        let victim = {
            // Find two keys in the same shard and one elsewhere.
            let idx: Vec<usize> = (0..64).map(|k| t.shard_index(&[k])).collect();
            idx[0]
        };
        let same_shard: Vec<u64> = (0..10_000u64)
            .filter(|&k| t.shard_index(&[k]) == victim)
            .take(2000)
            .collect();
        for &k in &same_shard {
            assert!(!t.lookup(0, &[k], &mut out));
            t.record(0, &[k], &[k]);
        }
        let states = t.shard_states();
        assert_eq!(states[victim], TableState::Bypassed);
        assert!(
            states
                .iter()
                .enumerate()
                .any(|(i, &s)| i != victim && s == TableState::Active),
            "independent shards should remain active"
        );
        assert!(t.bypassed_total() > 0);
    }
}
