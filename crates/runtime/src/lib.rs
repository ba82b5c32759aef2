//! # memo-runtime — software reuse tables for computation reuse
//!
//! The runtime half of the `compreuse` workspace (a reproduction of
//! Ding & Li, *A Compiler Scheme for Reusing Intermediate Computation
//! Results*, CGO 2004). The compiler half decides *which* code segments to
//! memoize; this crate provides the hash tables the transformed code uses
//! at run time:
//!
//! - [`DirectTable`] — the paper's direct-addressed table (§3.1): index by
//!   `key mod size` (one-word keys) or `jenkins(key) mod size` (longer
//!   keys); collisions replace in place;
//! - [`LruTable`] — a small fully-associative LRU buffer modelling the
//!   hardware reuse buffers the paper compares against (Table 5);
//! - [`MergedTable`] — one table shared by segments with identical inputs,
//!   with a validity bit vector per entry (§2.5, Table 2);
//! - [`MemoTable`] — a uniform handle over the three kinds, used by the VM.
//!
//! ```
//! use memo_runtime::{MemoTable, TableSpec};
//! let spec = TableSpec { slots: 1024, key_words: 1, out_words: vec![1] };
//! let mut table = MemoTable::try_direct(&spec)?;
//! let mut out = Vec::new();
//! assert!(!table.lookup(0, &[42], &mut out)); // cold miss
//! table.record(0, &[42], &[7]);
//! assert!(table.lookup(0, &[42], &mut out)); // warm hit
//! assert_eq!(out, vec![7]);
//! # Ok::<(), memo_runtime::SpecError>(())
//! ```
//!
//! For a store shared by several worker threads, wrap the same specs in a
//! [`ShardedTable`] (N power-of-two lock shards probed through `&self`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod direct;
pub mod faults;
pub mod hash;
pub mod lru;
pub mod merged;
pub mod persist;
pub mod sharded;
pub mod stats;

pub use admission::{key_hash64, TinyLfu};
pub use direct::DirectTable;
pub use faults::{
    silence_injected_panics, FailPoint, FaultCounters, FaultPlan, FAIL_POINT_COUNT,
    INJECTED_POISON_PANIC,
};
pub use lru::LruTable;
pub use merged::MergedTable;
pub use persist::{
    read_snapshot, restore_words, snapshot_checksum, snapshot_words, write_snapshot, SnapshotError,
    SNAPSHOT_VERSION,
};
pub use sharded::ShardedTable;
pub use stats::TableStats;

/// Retired: the tuning knobs of the deleted run-time adaptive guard
/// (DESIGN.md §8c). It has no values, so the `policies` fields that still
/// carry it (on `compreuse::ReuseOutcome` and `service::ServiceProgram`)
/// are always empty. Kept only until those fields are dropped.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardPolicy {}

/// Probe-time dependency-fingerprint validator (DESIGN.md §8g): given an
/// entry's recorded fingerprint, decide whether its dependencies still
/// hold (`true` promotes the entry to a hit). Every key-matched entry that
/// carries a fingerprint goes through it; fingerprint-free entries never
/// do.
pub type FpValidator<'a> = &'a mut dyn FnMut(&[u64]) -> bool;

/// The validator behind the plain `lookup`s, which have no dependency
/// state to check a fingerprint against: every fingerprinted entry is a
/// stale red there.
pub(crate) fn refuse_fingerprint(_fp: &[u64]) -> bool {
    false
}

/// A structurally invalid [`TableSpec`], reported once at table
/// construction (the per-access checks are `debug_assert!`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// `slots` was zero.
    ZeroSlots,
    /// `key_words` was zero.
    ZeroKeyWords,
    /// `out_words` was empty.
    NoSegments,
    /// More than 64 segments (the merged validity bit vector is one word).
    TooManySegments(usize),
    /// A single-segment table kind (direct, LRU) got a multi-segment spec.
    MultiSegment(usize),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroSlots => write!(f, "table must have at least one slot"),
            SpecError::ZeroKeyWords => write!(f, "key must have at least one word"),
            SpecError::NoSegments => write!(f, "spec needs at least one output group"),
            SpecError::TooManySegments(n) => {
                write!(f, "merged table supports 1..=64 segments, got {n}")
            }
            SpecError::MultiSegment(n) => {
                write!(f, "table kind holds one segment, spec has {n}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Shape of a memo table: slot count, key width, and the output width of
/// each segment sharing it (one element for unmerged tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Number of entries.
    pub slots: usize,
    /// Key width in 64-bit words.
    pub key_words: usize,
    /// Output width per segment slot, in 64-bit words.
    pub out_words: Vec<usize>,
}

impl TableSpec {
    /// Checks the structural invariants every table kind relies on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.slots == 0 {
            return Err(SpecError::ZeroSlots);
        }
        if self.key_words == 0 {
            return Err(SpecError::ZeroKeyWords);
        }
        if self.out_words.is_empty() {
            return Err(SpecError::NoSegments);
        }
        if self.out_words.len() > 64 {
            return Err(SpecError::TooManySegments(self.out_words.len()));
        }
        Ok(())
    }

    /// Recommended slot count for an expected number of distinct input
    /// patterns: the next power of two at or above `4/3 · dip`, so the
    /// table holds all profiled patterns with headroom against collisions
    /// (the paper sizes tables "based on the value profiling information").
    pub fn recommended_slots(dip: usize) -> usize {
        let want = dip.max(1) * 4 / 3;
        want.next_power_of_two()
    }

    /// Bytes per entry for this spec.
    pub fn entry_bytes(&self) -> usize {
        if self.out_words.len() == 1 {
            DirectTable::entry_bytes(self.key_words, self.out_words[0])
        } else {
            MergedTable::entry_bytes(self.key_words, &self.out_words)
        }
    }

    /// Total bytes for this spec.
    pub fn bytes(&self) -> usize {
        self.slots * self.entry_bytes()
    }
}

/// The storage backing a [`MemoTable`].
#[derive(Debug, Clone)]
pub enum TableKind {
    /// Direct-addressed (the paper's software scheme).
    Direct(DirectTable),
    /// Small associative LRU buffer (hardware-buffer model).
    Lru(LruTable),
    /// Merged table shared by several segments.
    Merged(MergedTable),
}

impl TableKind {
    fn lookup(&mut self, slot: usize, key: &[u64], out: &mut Vec<u64>) -> bool {
        match self {
            TableKind::Direct(t) => {
                debug_assert_eq!(slot, 0);
                t.lookup(key, out)
            }
            TableKind::Lru(t) => {
                debug_assert_eq!(slot, 0);
                t.lookup(key, out)
            }
            TableKind::Merged(t) => t.lookup(slot, key, out),
        }
    }

    fn lookup_dep(
        &mut self,
        slot: usize,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        validate: FpValidator,
    ) -> bool {
        match self {
            TableKind::Direct(t) => {
                debug_assert_eq!(slot, 0);
                t.lookup_dep(key, out, green, validate)
            }
            TableKind::Lru(t) => {
                debug_assert_eq!(slot, 0);
                t.lookup_dep(key, out, green, validate)
            }
            TableKind::Merged(t) => t.lookup_dep(slot, key, out, green, validate),
        }
    }

    fn record_dep(&mut self, slot: usize, key: &[u64], outputs: &[u64], fp: &[u64]) {
        match self {
            TableKind::Direct(t) => {
                debug_assert_eq!(slot, 0);
                t.record_dep(key, outputs, fp)
            }
            TableKind::Lru(t) => {
                debug_assert_eq!(slot, 0);
                t.record_dep(key, outputs, fp)
            }
            TableKind::Merged(t) => t.record_dep(slot, key, outputs, fp),
        }
    }

    fn stats(&self) -> &TableStats {
        match self {
            TableKind::Direct(t) => t.stats(),
            TableKind::Lru(t) => t.stats(),
            TableKind::Merged(t) => t.stats(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            TableKind::Direct(t) => t.bytes(),
            TableKind::Lru(t) => t.bytes(),
            TableKind::Merged(t) => t.bytes(),
        }
    }

    fn slots(&self) -> usize {
        match self {
            TableKind::Direct(t) => t.slots(),
            TableKind::Lru(t) => t.capacity(),
            TableKind::Merged(t) => t.slots(),
        }
    }

    fn clear(&mut self) {
        match self {
            TableKind::Direct(t) => t.clear(),
            TableKind::Lru(t) => t.clear(),
            TableKind::Merged(t) => t.clear(),
        }
    }
}

/// A uniform handle over the three table kinds. Besides the storage it
/// holds the forced-bypass flag a service raises under overload
/// (DESIGN.md §8f) and counts what the table answered without its
/// storage while bypassed.
#[derive(Debug, Clone)]
pub struct MemoTable {
    kind: TableKind,
    /// Set by [`MemoTable::force_bypass`]: lookups miss without probing
    /// and recordings are dropped.
    bypassed: bool,
    /// Lookups answered as forced misses while bypassed.
    bypassed_total: u64,
    /// Recordings dropped while bypassed.
    dropped_records: u64,
}

impl MemoTable {
    fn with_kind(kind: TableKind) -> Self {
        MemoTable {
            kind,
            bypassed: false,
            bypassed_total: 0,
            dropped_records: 0,
        }
    }

    /// Builds a direct-addressed table from `spec` (must have exactly one
    /// output group).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec is structurally invalid or has
    /// more than one output group.
    pub fn try_direct(spec: &TableSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        if spec.out_words.len() != 1 {
            return Err(SpecError::MultiSegment(spec.out_words.len()));
        }
        Ok(Self::with_kind(TableKind::Direct(DirectTable::new(
            spec.slots,
            spec.key_words,
            spec.out_words[0],
        ))))
    }

    /// Builds an LRU buffer with `spec.slots` entries.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec is structurally invalid or has
    /// more than one output group.
    pub fn try_lru(spec: &TableSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        if spec.out_words.len() != 1 {
            return Err(SpecError::MultiSegment(spec.out_words.len()));
        }
        Ok(Self::with_kind(TableKind::Lru(LruTable::new(
            spec.slots,
            spec.key_words,
            spec.out_words[0],
        ))))
    }

    /// Builds a merged table from `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec is structurally invalid.
    pub fn try_merged(spec: &TableSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(Self::with_kind(TableKind::Merged(MergedTable::new(
            spec.slots,
            spec.key_words,
            &spec.out_words,
        ))))
    }

    /// Builds the table a compiler plan describes: merged when the spec
    /// has several output groups, direct-addressed otherwise, with each
    /// segment slot's dependency-fingerprint width declared before any
    /// traffic (`fp_widths[s]`; a zero or missing width is an exact-match
    /// slot).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec is structurally invalid.
    pub fn try_from_plan(spec: &TableSpec, fp_widths: &[usize]) -> Result<Self, SpecError> {
        let mut table = if spec.out_words.len() > 1 {
            Self::try_merged(spec)?
        } else {
            Self::try_direct(spec)?
        };
        for (slot, &fpw) in fp_widths.iter().enumerate() {
            if fpw > 0 {
                table.set_deps(slot, fpw);
            }
        }
        Ok(table)
    }

    /// Builds a direct-addressed table from `spec` (must have exactly one
    /// output group).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`TableSpec::validate`] or has more than
    /// one output group; use [`MemoTable::try_direct`] for a typed error.
    pub fn direct(spec: &TableSpec) -> Self {
        Self::try_direct(spec).unwrap_or_else(|e| panic!("invalid direct table spec: {e}"))
    }

    /// Builds an LRU buffer with `spec.slots` entries.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`TableSpec::validate`] or has more than
    /// one output group; use [`MemoTable::try_lru`] for a typed error.
    pub fn lru(spec: &TableSpec) -> Self {
        Self::try_lru(spec).unwrap_or_else(|e| panic!("invalid LRU table spec: {e}"))
    }

    /// Builds a merged table from `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`TableSpec::validate`]; use
    /// [`MemoTable::try_merged`] for a typed error.
    pub fn merged(spec: &TableSpec) -> Self {
        Self::try_merged(spec).unwrap_or_else(|e| panic!("invalid merged table spec: {e}"))
    }

    /// Looks up `key` for segment `slot` (always 0 for unmerged tables).
    ///
    /// On a hit, copies the recorded outputs into `out` and returns
    /// `true`. While the table is bypassed the lookup is answered as a
    /// miss without touching the storage (the caller then executes the
    /// segment body normally, so program results are unaffected).
    pub fn lookup(&mut self, slot: usize, key: &[u64], out: &mut Vec<u64>) -> bool {
        if self.bypassed {
            self.bypassed_total += 1;
            return false;
        }
        self.kind.lookup(slot, key, out)
    }

    /// Dependency-validating lookup: the red/green probe path.
    ///
    /// A key-matched entry's fingerprint is passed to `validate`; `true`
    /// promotes the entry to a hit (a *green hit* when `green` marks
    /// segment `slot` as depending on *mutable* regions), `false` demotes
    /// the probe to a stale red (counted in both `misses` and
    /// `stale_reds`). Fingerprint-free entries behave exactly like
    /// [`MemoTable::lookup`]. Bypassed tables answer a forced miss without
    /// consulting storage or the validator.
    pub fn lookup_dep(
        &mut self,
        slot: usize,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        validate: FpValidator,
    ) -> bool {
        if self.bypassed {
            self.bypassed_total += 1;
            return false;
        }
        self.kind.lookup_dep(slot, key, out, green, validate)
    }

    /// Records `outputs` for `key` in segment `slot` (dropped while the
    /// table is bypassed).
    pub fn record(&mut self, slot: usize, key: &[u64], outputs: &[u64]) {
        self.record_dep(slot, key, outputs, &[]);
    }

    /// Records `outputs` for `key` in segment `slot` together with a
    /// dependency fingerprint (`&[]` for exact-match entries; dropped while
    /// the table is bypassed).
    pub fn record_dep(&mut self, slot: usize, key: &[u64], outputs: &[u64], fp: &[u64]) {
        if self.bypassed {
            self.dropped_records += 1;
            return;
        }
        self.kind.record_dep(slot, key, outputs, fp);
    }

    /// Declares that segment `slot` records an `fp_words`-word dependency
    /// fingerprint. The merged kind needs the widths ahead of time (its
    /// per-entry fingerprint groups share one buffer); the direct kind
    /// reserves flat-buffer capacity so later recordings never regrow it;
    /// the LRU kind stores whatever fingerprint each recording passes.
    /// Build-time configuration, called before the table sees traffic.
    pub fn set_deps(&mut self, slot: usize, fp_words: usize) {
        match &mut self.kind {
            TableKind::Merged(t) => t.set_fp_words(slot, fp_words),
            TableKind::Direct(t) => {
                debug_assert_eq!(slot, 0);
                t.reserve_fp_words(fp_words);
            }
            TableKind::Lru(_) => {}
        }
    }

    /// Snapshot geometry `(slots, key_words, out_words, fp_words)` used by
    /// the persist layer to refuse imports into a differently-shaped
    /// table. `None` for the LRU kind (no snapshot path — sharded stores
    /// never build it).
    pub(crate) fn snapshot_geometry(&self) -> Option<(usize, usize, Vec<usize>, Vec<usize>)> {
        match &self.kind {
            TableKind::Direct(t) => Some(t.snapshot_geometry()),
            TableKind::Merged(t) => Some(t.snapshot_geometry()),
            TableKind::Lru(_) => None,
        }
    }

    /// Visits every occupied entry as `(slot, meta_word, entry_row)`;
    /// snapshot export (DESIGN.md §8i). No-op for the LRU kind.
    pub(crate) fn export_rows(&self, f: &mut dyn FnMut(u64, u64, &[u64])) {
        match &self.kind {
            TableKind::Direct(t) => t.export_rows(f),
            TableKind::Merged(t) => t.export_rows(f),
            TableKind::Lru(_) => {}
        }
    }

    /// Installs one snapshotted entry row, bypassing statistics. Returns
    /// `false` when the row does not fit the geometry (or the kind has no
    /// snapshot path).
    pub(crate) fn import_row(&mut self, slot: usize, meta: u64, row: &[u64]) -> bool {
        match &mut self.kind {
            TableKind::Direct(t) => t.import_row(slot, meta, row),
            TableKind::Merged(t) => t.import_row(slot, meta, row),
            TableKind::Lru(_) => false,
        }
    }

    /// Overwrites the whole-run statistics and bypass counters with a
    /// snapshot baseline (DESIGN.md §8i).
    pub(crate) fn restore_baseline(
        &mut self,
        stats: TableStats,
        bypassed_total: u64,
        dropped_records: u64,
    ) {
        match &mut self.kind {
            TableKind::Direct(t) => t.set_stats(stats),
            TableKind::Merged(t) => t.set_stats(stats),
            TableKind::Lru(_) => {}
        }
        self.bypassed_total = bypassed_total;
        self.dropped_records = dropped_records;
    }

    /// The key a recording of `key` would evict (occupied slot, different
    /// key), for the TinyLFU admission decision. `None` when recording
    /// `key` evicts nothing — or for the LRU kind, which evicts by recency
    /// and takes no admission gate.
    pub(crate) fn resident_key(&self, key: &[u64]) -> Option<&[u64]> {
        match &self.kind {
            TableKind::Direct(t) => t.resident_key(key),
            TableKind::Merged(t) => t.resident_key(key),
            TableKind::Lru(_) => None,
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &TableStats {
        self.kind.stats()
    }

    /// Whole-run statistics per segment slot (index = slot). The
    /// single-segment kinds report their aggregate as slot 0.
    pub fn per_segment(&self) -> &[TableStats] {
        match &self.kind {
            TableKind::Direct(t) => std::slice::from_ref(t.stats()),
            TableKind::Lru(t) => std::slice::from_ref(t.stats()),
            TableKind::Merged(t) => t.per_slot_stats(),
        }
    }

    /// Storage footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.kind.bytes()
    }

    /// Slot count (buffer capacity for the LRU kind).
    pub fn slots(&self) -> usize {
        self.kind.slots()
    }

    /// Per-entry access counts, if the kind tracks them (direct and merged
    /// tables do; LRU buffers have no stable entry identity).
    pub fn access_counts(&self) -> Option<&[u64]> {
        match &self.kind {
            TableKind::Direct(t) => Some(t.access_counts()),
            TableKind::Merged(t) => Some(t.access_counts()),
            TableKind::Lru(_) => None,
        }
    }

    /// The storage kind.
    pub fn kind(&self) -> &TableKind {
        &self.kind
    }

    /// The merged storage, when this table is merged.
    pub fn as_merged(&self) -> Option<&MergedTable> {
        match &self.kind {
            TableKind::Merged(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the table is bypassed ([`MemoTable::force_bypass`]).
    pub fn is_bypassed(&self) -> bool {
        self.bypassed
    }

    /// Lookups answered as forced misses while bypassed.
    pub fn bypassed_total(&self) -> u64 {
        self.bypassed_total
    }

    /// Recordings dropped while bypassed.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// Drops every stored entry, keeping geometry, whole-run statistics
    /// and the bypass flag. A memo table is a cache — forgetting is
    /// always sound; the caller re-derives on the resulting misses. Used
    /// by poison recovery, where a shard's storage may be mid-update.
    pub fn clear(&mut self) {
        self.kind.clear();
    }

    /// Bypasses the table now: until [`MemoTable::end_forced_bypass`],
    /// lookups are forced misses and recordings are dropped. Service-level
    /// degradation (overload shedding) uses this.
    pub fn force_bypass(&mut self) {
        self.bypassed = true;
    }

    /// Ends a forced bypass; the table serves from its retained entries
    /// again.
    pub fn end_forced_bypass(&mut self) {
        self.bypassed = false;
    }
}

impl From<DirectTable> for MemoTable {
    fn from(t: DirectTable) -> Self {
        MemoTable::with_kind(TableKind::Direct(t))
    }
}

impl From<LruTable> for MemoTable {
    fn from(t: LruTable) -> Self {
        MemoTable::with_kind(TableKind::Lru(t))
    }
}

impl From<MergedTable> for MemoTable {
    fn from(t: MergedTable) -> Self {
        MemoTable::with_kind(TableKind::Merged(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_slots_cover_dip() {
        for dip in [1usize, 31, 9155, 22902, 46283] {
            let slots = TableSpec::recommended_slots(dip);
            assert!(slots >= dip, "dip {dip} → slots {slots}");
            assert!(slots.is_power_of_two());
        }
        assert_eq!(TableSpec::recommended_slots(0), 1);
    }

    #[test]
    fn spec_bytes_match_tables() {
        let spec = TableSpec {
            slots: 128,
            key_words: 2,
            out_words: vec![3],
        };
        assert_eq!(MemoTable::direct(&spec).bytes(), spec.bytes());
        let mspec = TableSpec {
            slots: 128,
            key_words: 1,
            out_words: vec![1; 8],
        };
        assert_eq!(MemoTable::merged(&mspec).bytes(), mspec.bytes());
    }

    #[test]
    fn uniform_handle_round_trips_all_kinds() {
        let spec = TableSpec {
            slots: 16,
            key_words: 1,
            out_words: vec![2],
        };
        for mut t in [
            MemoTable::direct(&spec),
            MemoTable::lru(&spec),
            MemoTable::merged(&spec),
        ] {
            let mut out = Vec::new();
            assert!(!t.lookup(0, &[9], &mut out));
            t.record(0, &[9], &[1, 2]);
            assert!(t.lookup(0, &[9], &mut out));
            assert_eq!(out, vec![1, 2]);
            assert_eq!(t.stats().accesses, 2);
        }
    }

    #[test]
    fn dep_lookup_promotes_green_and_demotes_stale() {
        let spec = TableSpec {
            slots: 16,
            key_words: 1,
            out_words: vec![1],
        };
        for mut t in [
            MemoTable::direct(&spec),
            MemoTable::lru(&spec),
            MemoTable::merged(&spec),
        ] {
            t.set_deps(0, 2);
            let mut out = Vec::new();
            // Cold miss, then record with a fingerprint.
            let mut nope = |_: &[u64]| unreachable!("no entry to validate");
            assert!(!t.lookup_dep(0, &[9], &mut out, true, &mut nope));
            t.record_dep(0, &[9], &[42], &[0b1010, 77]);
            // Validator accepts: green hit.
            let mut seen = Vec::new();
            let mut ok = |fp: &[u64]| {
                seen = fp.to_vec();
                true
            };
            assert!(t.lookup_dep(0, &[9], &mut out, true, &mut ok));
            assert_eq!(out, vec![42]);
            assert_eq!(seen, vec![0b1010, 77], "validator sees the stored fp");
            // Validator rejects: stale red, counted as a miss too.
            let mut no = |_: &[u64]| false;
            assert!(!t.lookup_dep(0, &[9], &mut out, true, &mut no));
            // The plain lookup cannot check a fingerprint: stale red.
            assert!(!t.lookup(0, &[9], &mut out));
            let s = t.stats();
            assert_eq!(s.accesses, 4);
            assert_eq!(s.hits, 1);
            assert_eq!(s.green_hits, 1);
            assert_eq!(s.stale_reds, 2);
            assert_eq!(s.misses, 3);
        }
    }

    #[test]
    fn invariant_only_entries_are_validated_but_not_green() {
        let spec = TableSpec {
            slots: 8,
            key_words: 1,
            out_words: vec![1],
        };
        let mut t = MemoTable::direct(&spec);
        let mut out = Vec::new();
        t.record_dep(0, &[3], &[30], &[u64::MAX, 5]);
        // green=false: an invariant-only segment's entry is validated like
        // any other, but a pass is not a green hit…
        let mut ok = |_: &[u64]| true;
        assert!(t.lookup_dep(0, &[3], &mut out, false, &mut ok));
        assert_eq!(out, vec![30]);
        assert_eq!(t.stats().green_hits, 0);
        // …and a failed guard is a stale red.
        let mut no = |_: &[u64]| false;
        assert!(!t.lookup_dep(0, &[3], &mut out, false, &mut no));
        assert_eq!(t.stats().stale_reds, 1);
    }

    #[test]
    fn fingerprint_free_entries_ignore_the_validator() {
        let spec = TableSpec {
            slots: 8,
            key_words: 1,
            out_words: vec![1],
        };
        let mut t = MemoTable::direct(&spec);
        let mut out = Vec::new();
        t.record(0, &[4], &[40]);
        let mut boom = |_: &[u64]| panic!("fp-free entry must not validate");
        assert!(t.lookup_dep(0, &[4], &mut out, false, &mut boom));
        assert_eq!(out, vec![40]);
    }

    #[test]
    fn invalid_specs_yield_typed_errors() {
        let good = TableSpec {
            slots: 16,
            key_words: 1,
            out_words: vec![2],
        };
        assert!(good.validate().is_ok());

        let zero_slots = TableSpec {
            slots: 0,
            ..good.clone()
        };
        assert_eq!(zero_slots.validate(), Err(SpecError::ZeroSlots));
        assert!(MemoTable::try_direct(&zero_slots).is_err());

        let zero_key = TableSpec {
            key_words: 0,
            ..good.clone()
        };
        assert_eq!(zero_key.validate(), Err(SpecError::ZeroKeyWords));

        let no_segs = TableSpec {
            out_words: vec![],
            ..good.clone()
        };
        assert_eq!(no_segs.validate(), Err(SpecError::NoSegments));

        let too_many = TableSpec {
            out_words: vec![1; 65],
            ..good.clone()
        };
        assert_eq!(too_many.validate(), Err(SpecError::TooManySegments(65)));

        let multi = TableSpec {
            out_words: vec![1, 2],
            ..good
        };
        assert!(
            multi.validate().is_ok(),
            "merged tables accept several segments"
        );
        assert_eq!(
            MemoTable::try_direct(&multi).err(),
            Some(SpecError::MultiSegment(2))
        );
        assert_eq!(
            MemoTable::try_lru(&multi).err(),
            Some(SpecError::MultiSegment(2))
        );
        assert!(MemoTable::try_merged(&multi).is_ok());
    }
}
