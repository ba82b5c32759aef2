//! A sharded, shareable wrapper over [`MemoTable`] for concurrent probing.
//!
//! A [`MemoTable`] is `&mut`-owned by one VM and dies with the run. A
//! [`ShardedTable`] wraps the same storage kinds in N power-of-two shards
//! (std primitives only — the workspace builds offline) so many worker
//! threads can probe one long-lived reuse store through `&self`. Each
//! shard is a complete `MemoTable` — storage, telemetry, and its own
//! [`AdaptiveGuard`](crate::AdaptiveGuard) — so the adaptive machinery is
//! evaluated per shard with no extra code.
//!
//! ## Optimistic lock-free probes (DESIGN.md §8h)
//!
//! Lookups are answered *without the shard lock* on the common path. Each
//! shard carries a seqlock-style **version word**: writers (record, evict,
//! clear, poison recovery) take the shard `Mutex`, store an odd version,
//! mutate the flat entry buffers in place, and store the next even
//! version. A reader snapshots the version (odd ⇒ a writer is mid-update:
//! retry/fall back), probes the frozen-geometry storage with volatile
//! reads, and re-reads the version — a change means the copy may be torn
//! and is discarded. Dependency-validating probes re-check the version a
//! *second* time after the fingerprint validator runs, so a torn entry can
//! never be promoted green. A probe falls back to the locked path when the
//! shard is bypassed, its lock is poisoned, its version stays unstable
//! across the bounded retry budget, or the storage kind has no lock-free
//! path. Shard geometry is frozen at build time
//! ([`MemoTable::freeze_geometry`]), so the buffers optimistic readers
//! walk are never reallocated: torn *words* are possible and handled, torn
//! *pointers* are not.
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
//! Every counter increment happens exactly once — under the shard lock for
//! locked traffic, in the shard's atomic side counters for optimistically
//! resolved probes — and [`ShardedTable::shard_stats`] folds the side
//! counters into each shard's snapshot. The aggregate
//! [`ShardedTable::stats`] is therefore still a lossless sum of per-shard
//! deltas: no access is lost or double-counted under contention (asserted
//! by `tests/sharded_prop.rs` and `tests/contention_stress.rs`). Two
//! documented divergences from the locked path: optimistic probes do not
//! feed per-entry access counts, and their telemetry contribution is
//! drained into the shard's windows (attributed to segment 0) only when
//! the lock is next taken. The aggregate taken while writers are still
//! running is a momentary snapshot; quiesce first for exact totals.
//!
//! ## Poisoning and fault injection
//!
//! A shard whose lock is poisoned (a worker panicked mid-access) is
//! recovered on the next acquisition: the poison flag is cleared and the
//! shard's *entries dropped* — its storage may have been mid-update, and
//! forgetting is always sound for a cache, so the shard restarts empty but
//! valid while every other shard keeps serving untouched. The drop runs
//! inside a version-word write window, and optimistic probes check the
//! poison flag before trusting a snapshot, so a poisoned shard is always
//! recovered before its next probe is answered. Recoveries are counted
//! ([`ShardedTable::poison_recoveries`]). For chaos testing, an installed
//! [`FaultPlan`] can force probe misses ([`FailPoint::ProbeMiss`]) and
//! [`ShardedTable::poison_shard`] poisons a shard's lock for real via a
//! deliberate panic.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::admission::{key_hash64, TinyLfu};
use crate::faults::{FailPoint, FaultPlan, INJECTED_POISON_PANIC};
use crate::guard::{GuardPolicy, TableState};
use crate::hash::hash_words;
use crate::stats::TableStats;
use crate::{FpValidator, MemoTable, SpecError, TableSpec};

/// Optimistic probe attempts before giving up and taking the shard lock.
const OPTIMISTIC_ATTEMPTS: usize = 3;

thread_local! {
    /// Reusable `(outputs, fingerprint)` snapshot buffers for optimistic
    /// probes. Taken out and restored (rather than borrowed) so a
    /// validator that re-enters the store cannot hit a nested borrow.
    static PROBE_SCRATCH: Cell<(Vec<u64>, Vec<u64>)> =
        const { Cell::new((Vec::new(), Vec::new())) };
}

/// Counters for probes resolved on the lock-free path, maintained beside
/// the locked [`MemoTable`]'s own statistics and folded into the shard's
/// [`TableStats`] snapshot by [`ShardedTable::shard_stats`]. A probe is
/// counted exactly once, at its final resolution: optimistically here, or
/// in the table's counters after falling back to the lock.
#[derive(Debug, Default)]
struct OptCounters {
    accesses: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    green_hits: AtomicU64,
    stale_reds: AtomicU64,
    optimistic_hits: AtomicU64,
    optimistic_retries: AtomicU64,
    /// Recordings refused by the TinyLFU admission sketch. Counted here
    /// (not in the table: the storage was never touched) and folded into
    /// the shard snapshot like the optimistic counters.
    admission_rejects: AtomicU64,
}

impl OptCounters {
    fn snapshot(&self) -> TableStats {
        TableStats {
            accesses: self.accesses.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            green_hits: self.green_hits.load(Ordering::Relaxed),
            stale_reds: self.stale_reds.load(Ordering::Relaxed),
            optimistic_hits: self.optimistic_hits.load(Ordering::Relaxed),
            optimistic_retries: self.optimistic_retries.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            ..TableStats::default()
        }
    }
}

/// One lock shard: the table, its seqlock version word, and side state
/// readable without the lock.
#[derive(Debug)]
struct Shard {
    /// Seqlock version word: even ⇔ entry storage is stable, odd ⇔ a
    /// writer is mutating it. Bumped only by operations that change entry
    /// storage (record, clear/poison recovery) — locked lookups touch only
    /// statistics and telemetry, which optimistic readers never read.
    version: AtomicU64,
    /// Lock-free mirror of the shard guard's bypassed state, resynced
    /// after every locked operation. A momentarily stale mirror is sound:
    /// bypass never changes outputs, only whether the probe consults
    /// storage.
    bypassed: AtomicBool,
    /// The table. Mutated only while holding `lock`; read without it by
    /// optimistic probes under the version-word protocol.
    table: UnsafeCell<MemoTable>,
    /// Writer lock. The payload remembers how much of `opt` has already
    /// been drained into the table's telemetry (see `absorb_shared_delta`).
    lock: Mutex<TableStats>,
    opt: OptCounters,
    /// TinyLFU admission sketch (`None` = admission off). Mutated only
    /// while holding `lock`; optimistic readers never touch it.
    sketch: UnsafeCell<Option<TinyLfu>>,
}

// SAFETY: all mutation of `table` and `sketch` happens with the shard
// `lock` held; the only unsynchronised access is the read-only optimistic
// probe, which copies table words volatilely (never touching the sketch)
// and discards the copy unless `version` proves no writer overlapped it
// (seqlock protocol). `MemoTable` and `TinyLfu` own their storage (no
// interior references), so the shard is `Send`.
unsafe impl Send for Shard {}
unsafe impl Sync for Shard {}

impl Shard {
    fn new(table: MemoTable) -> Self {
        Shard {
            version: AtomicU64::new(0),
            bypassed: AtomicBool::new(false),
            table: UnsafeCell::new(table),
            lock: Mutex::new(TableStats::default()),
            opt: OptCounters::default(),
            sketch: UnsafeCell::new(None),
        }
    }

    /// Marks the version word odd before entry storage is mutated. If a
    /// previous writer panicked mid-update the word is already odd and
    /// stays odd. Callers must hold the shard lock.
    fn begin_entry_write(&self) -> u64 {
        let odd = self.version.load(Ordering::Relaxed) | 1;
        self.version.store(odd, Ordering::Relaxed);
        // The odd store must become visible before any storage mutation.
        fence(Ordering::Release);
        odd
    }

    /// Publishes the mutation: the next even version. Readers that saw
    /// neither the odd word nor the bump observed a stable snapshot.
    fn end_entry_write(&self, odd: u64) {
        self.version.store(odd.wrapping_add(1), Ordering::Release);
    }
}

/// The three table kinds wrapped in N power-of-two lock shards, probed
/// through `&self` so one store can outlive and be shared by many runs.
#[derive(Debug)]
pub struct ShardedTable {
    shards: Vec<Shard>,
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
    /// pipeline's kind choice. Every shard's geometry is frozen so the
    /// optimistic probe path stays sound; declare fingerprint widths via
    /// [`ShardedTable::set_deps`] before the store sees traffic.
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
            let mut table = if per_shard.out_words.len() > 1 {
                MemoTable::try_merged(&per_shard)?
            } else {
                MemoTable::try_direct(&per_shard)?
            };
            table.freeze_geometry();
            built.push(Shard::new(table));
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
        for shard in &mut self.shards {
            let table = shard.table.get_mut();
            table.set_policy(policy.clone());
            *shard.bypassed.get_mut() = table.state() == TableState::Bypassed;
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

    fn acquire(&self, i: usize) -> MutexGuard<'_, TableStats> {
        let shard = &self.shards[i];
        shard.lock.lock().unwrap_or_else(|poisoned| {
            // Another worker panicked while holding this shard: its storage
            // may be mid-update, so drop the entries (forgetting is always
            // sound for a cache) and clear the flag so later acquisitions
            // see a healthy, empty shard instead of re-recovering forever.
            // The drop runs inside a version write window so an optimistic
            // reader racing the recovery discards its snapshot.
            shard.lock.clear_poison();
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            let guard = poisoned.into_inner();
            // SAFETY: we hold the (just-recovered) shard lock.
            let table = unsafe { &mut *shard.table.get() };
            let odd = shard.begin_entry_write();
            table.clear();
            shard.end_entry_write(odd);
            guard
        })
    }

    /// Runs `f` on shard `i`'s table under its lock. `entry_write` wraps
    /// the call in a version write window — required for any operation
    /// that mutates entry storage, forbidden to omit. Optimistic counters
    /// accumulated since the last locked operation are drained into the
    /// table's telemetry first (keeping guard epochs rolling), and the
    /// lock-free bypassed mirror is resynced afterwards.
    fn with_locked<R>(
        &self,
        i: usize,
        entry_write: bool,
        f: impl FnOnce(&mut MemoTable) -> R,
    ) -> R {
        let shard = &self.shards[i];
        let mut drained = self.acquire(i);
        // SAFETY: the shard lock is held for the whole scope; optimistic
        // readers never take references into the table's buffers, they
        // copy words and validate against the version word.
        let table = unsafe { &mut *shard.table.get() };
        let totals = shard.opt.snapshot();
        let delta = totals.delta_since(&drained);
        *drained = totals;
        table.absorb_shared_delta(&delta);
        let result = if entry_write {
            let odd = shard.begin_entry_write();
            let result = f(table);
            shard.end_entry_write(odd);
            result
        } else {
            f(table)
        };
        shard
            .bypassed
            .store(table.state() == TableState::Bypassed, Ordering::Relaxed);
        result
    }

    /// Looks up `key` for segment `slot` in the shard the key hashes to.
    /// Same contract as [`MemoTable::lookup`]; a bypassed shard answers a
    /// forced miss, as does a fired [`FailPoint::ProbeMiss`] (which skips
    /// the probe entirely, leaving statistics untouched). Resolved on the
    /// optimistic lock-free path whenever the shard is stable.
    pub fn lookup(&self, slot: usize, key: &[u64], out: &mut Vec<u64>) -> bool {
        self.lookup_dep(slot, key, out, false, None)
    }

    /// Dependency-validating lookup in the shard the key hashes to; same
    /// contract as [`MemoTable::lookup_dep`]. On the optimistic path the
    /// validator runs on a version-checked *copy* of the fingerprint, and
    /// the version word is re-checked after validation before the entry
    /// can be promoted green (so a torn entry never marks green); on the
    /// locked fallback it runs under the shard lock (it only reads
    /// caller-local epoch state, so it cannot deadlock against other
    /// shards). A fired [`FailPoint::ProbeMiss`] still skips the probe
    /// entirely.
    pub fn lookup_dep(
        &self,
        slot: usize,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        mut validate: FpValidator,
    ) -> bool {
        if let Some(plan) = &self.faults {
            if plan.fire(FailPoint::ProbeMiss) {
                return false;
            }
        }
        let i = self.shard_index(key);
        let shard = &self.shards[i];
        if green && validate.is_none() {
            // Forced red: exact-match mode cannot trust a mutable-dep
            // entry, so the answer never consults storage — no tear is
            // possible and the miss is counted lock-free. Bypassed shards
            // still take the locked path so the forced miss lands in their
            // bypass telemetry.
            if !shard.bypassed.load(Ordering::Relaxed) {
                shard.opt.accesses.fetch_add(1, Ordering::Relaxed);
                shard.opt.misses.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            return self.with_locked(i, false, |t| t.lookup_dep(slot, key, out, green, None));
        }
        let (mut out_buf, mut fp_buf) = PROBE_SCRATCH.with(Cell::take);
        let mut resolved = None;
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            if shard.bypassed.load(Ordering::Relaxed) || shard.lock.is_poisoned() {
                break;
            }
            let v1 = shard.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                // A writer is mid-update; spin once and retry.
                shard.opt.optimistic_retries.fetch_add(1, Ordering::Relaxed);
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: read-only probe; every word is copied volatilely and
            // the copy is discarded unless the version word below proves no
            // writer overlapped (the buffers themselves cannot move: the
            // shard geometry is frozen).
            let table = unsafe { &*shard.table.get() };
            let Some(matched) = table.probe_shared(slot, key, &mut out_buf, &mut fp_buf) else {
                break; // kind without a lock-free path: locked fallback
            };
            fence(Ordering::Acquire);
            if shard.version.load(Ordering::Relaxed) != v1 {
                shard.opt.optimistic_retries.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // The copy is consistent. Resolve it lock-free.
            if !matched {
                shard.opt.accesses.fetch_add(1, Ordering::Relaxed);
                shard.opt.misses.fetch_add(1, Ordering::Relaxed);
                resolved = Some(false);
                break;
            }
            let mut green_hit = false;
            if !fp_buf.is_empty() {
                if let Some(v) = validate.as_mut() {
                    let fp_ok = v(&fp_buf);
                    // Re-validate *after* the fingerprint check (§8h): if a
                    // writer replaced the entry while the validator ran,
                    // retry rather than promote on a superseded entry.
                    if shard.version.load(Ordering::Acquire) != v1 {
                        shard.opt.optimistic_retries.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if !fp_ok {
                        shard.opt.accesses.fetch_add(1, Ordering::Relaxed);
                        shard.opt.misses.fetch_add(1, Ordering::Relaxed);
                        shard.opt.stale_reds.fetch_add(1, Ordering::Relaxed);
                        resolved = Some(false);
                        break;
                    }
                    green_hit = green;
                }
            }
            shard.opt.accesses.fetch_add(1, Ordering::Relaxed);
            shard.opt.hits.fetch_add(1, Ordering::Relaxed);
            shard.opt.optimistic_hits.fetch_add(1, Ordering::Relaxed);
            if green_hit {
                shard.opt.green_hits.fetch_add(1, Ordering::Relaxed);
            }
            out.clear();
            out.extend_from_slice(&out_buf);
            resolved = Some(true);
            break;
        }
        PROBE_SCRATCH.with(|cell| cell.set((out_buf, fp_buf)));
        match resolved {
            Some(hit) => hit,
            None => self.with_locked(i, false, |t| t.lookup_dep(slot, key, out, green, validate)),
        }
    }

    /// Records `outputs` for `key` in segment `slot` in the shard the key
    /// hashes to (dropped while that shard is bypassed). Writers always
    /// take the shard lock and bump the version word.
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
        let i = self.shard_index(key);
        let shard = &self.shards[i];
        let mut drained = self.acquire(i);
        // SAFETY: the shard lock is held for the whole scope (see
        // `with_locked`, whose drain/resync steps this writer repeats so
        // the admission decision can sit between them).
        let table = unsafe { &mut *shard.table.get() };
        let totals = shard.opt.snapshot();
        let delta = totals.delta_since(&drained);
        *drained = totals;
        table.absorb_shared_delta(&delta);
        // SAFETY: the sketch is only ever touched under the shard lock.
        let sketch = unsafe { &mut *shard.sketch.get() };
        let admitted = match sketch {
            Some(lfu) if table.state() != TableState::Bypassed => {
                let candidate = key_hash64(key);
                match table.resident_key(key).map(key_hash64) {
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
            let odd = shard.begin_entry_write();
            table.record_dep(slot, key, outputs, fp);
            shard.end_entry_write(odd);
        } else {
            shard.opt.admission_rejects.fetch_add(1, Ordering::Relaxed);
        }
        shard
            .bypassed
            .store(table.state() == TableState::Bypassed, Ordering::Relaxed);
    }

    /// Enables (or disables) TinyLFU admission on every shard, each sized
    /// for its own slot count. Takes `&mut self`: admission is wired at
    /// build time, before the store is shared. Enabling resets any
    /// previous sketch's frequency state.
    pub fn set_admission(&mut self, enabled: bool) {
        for shard in &mut self.shards {
            let slots = shard.table.get_mut().slots();
            *shard.sketch.get_mut() = enabled.then(|| TinyLfu::new(slots));
        }
    }

    /// Whether TinyLFU admission is enabled (on shard 0 — shards are
    /// always configured uniformly).
    pub fn admission_enabled(&mut self) -> bool {
        self.shards[0].sketch.get_mut().is_some()
    }

    /// Declares segment `slot`'s fingerprint width on every shard; see
    /// [`MemoTable::set_deps`]. Takes `&mut self`: dependency layouts are
    /// wired at build time, before the store is shared (the flat buffers
    /// may be rebuilt, which exclusive access makes safe even though the
    /// shards are frozen).
    pub fn set_deps(&mut self, slot: usize, fp_words: usize) {
        for shard in &mut self.shards {
            shard.table.get_mut().set_deps(slot, fp_words);
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

    /// Per-shard statistics snapshots, in shard order: the locked table's
    /// counters with the shard's optimistic side counters folded in, so
    /// the sum over shards accounts for every probe exactly once.
    pub fn shard_stats(&self) -> Vec<TableStats> {
        (0..self.shards.len())
            .map(|i| {
                let mut s = self.with_locked(i, false, |t| *t.stats());
                s.merge(&self.shards[i].opt.snapshot());
                s
            })
            .collect()
    }

    /// Per-shard guard states, in shard order.
    pub fn shard_states(&self) -> Vec<TableState> {
        (0..self.shards.len())
            .map(|i| self.with_locked(i, false, |t| t.state()))
            .collect()
    }

    /// Total storage footprint across shards, in bytes.
    pub fn bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.with_locked(i, false, |t| t.bytes()))
            .sum()
    }

    /// Total slot count across shards.
    pub fn slots(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.with_locked(i, false, |t| t.slots()))
            .sum()
    }

    /// Total lookups answered as forced misses by bypassed shards.
    pub fn bypassed_total(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.with_locked(i, false, |t| t.telemetry().bypassed_total()))
            .sum()
    }

    /// Total recordings dropped by bypassed shards.
    pub fn dropped_records(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.with_locked(i, false, |t| t.telemetry().dropped_records()))
            .sum()
    }

    /// Runs a read-only closure on shard `i`'s table under its lock
    /// (snapshot export path; optimistic counters are drained first so
    /// the table's telemetry is current).
    pub(crate) fn with_shard<R>(&self, i: usize, f: impl FnOnce(&MemoTable) -> R) -> R {
        self.with_locked(i, false, |t| f(t))
    }

    /// Runs a closure on shard `i`'s table through exclusive access (no
    /// locking, no version bump — the store is not shared yet). Snapshot
    /// *restore* path: a restored store is always rebuilt fresh before
    /// being handed to workers.
    pub(crate) fn with_shard_mut<R>(&mut self, i: usize, f: impl FnOnce(&mut MemoTable) -> R) -> R {
        f(self.shards[i].table.get_mut())
    }

    /// Times a poisoned shard lock was recovered (shard cleared and
    /// restarted empty).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Genuinely poisons shard `shard`'s lock by panicking while holding
    /// it (the panic is caught here; install
    /// [`crate::silence_injected_panics`] to mute its report). The next
    /// acquisition recovers the shard empty-but-valid — optimistic probes
    /// see the poison flag and fall back to the lock, so the recovery is
    /// never skipped. Chaos-testing entry point for the retryable
    /// poisoned-shard fault.
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
            self.with_locked(i, false, |t| t.force_bypass(reason));
        }
    }

    /// Ends a forced bypass on every shard (enabled guards re-enter via
    /// probation, disabled ones return to `Active`), journaling `reason`.
    pub fn end_forced_bypass(&self, reason: &'static str) {
        for i in 0..self.shards.len() {
            self.with_locked(i, false, |t| t.end_forced_bypass(reason));
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
    fn warm_hits_resolve_on_the_optimistic_path() {
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
        assert_eq!(
            s.optimistic_hits, 64,
            "uncontended warm hits never take the lock"
        );
        assert_eq!(s.accesses, 64);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn optimistic_green_validation_and_stale_reds() {
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
        // Forced red (green, no validator) also resolves lock-free.
        assert!(!t.lookup_dep(0, &[5], &mut out, true, None));
        let s = t.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.green_hits, 1);
        assert_eq!(s.stale_reds, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.optimistic_hits, 1);
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
