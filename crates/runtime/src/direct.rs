//! The paper's direct-addressed hash table (§3.1, Table 1).
//!
//! One slot per index; the index is `key mod size` for one-word keys and
//! `jenkins(key) mod size` for longer keys. A colliding recording replaces
//! the previous entry in place. The table additionally counts per-slot
//! accesses so the harness can regenerate the paper's Figures 7/8
//! ("histogram of accessed table entries").
//!
//! ## Flat storage
//!
//! Entries live in two flat buffers instead of per-entry boxes: `meta`
//! holds one occupancy/fingerprint-length word per slot and `data` holds
//! the entry bodies at a fixed stride (`key ++ outputs ++ fingerprint
//! capacity`). Nothing is allocated or freed per recording: a recording
//! overwrites its slot's words in place. The buffers are rebuilt only by
//! [`DirectTable::resize`] and when a fingerprint wider than any before
//! grows the per-entry capacity.

use crate::hash::index_of;
use crate::stats::TableStats;
use crate::FpValidator;

/// A direct-addressed memo table mapping an input key (concatenated 64-bit
/// words) to recorded output words.
#[derive(Debug, Clone)]
pub struct DirectTable {
    /// Per-slot occupancy word: `0` for an empty slot, else
    /// `1 | (fp_len << 1)` where `fp_len` is the entry's fingerprint
    /// length in words.
    meta: Vec<u64>,
    /// Entry bodies at stride `key_words + out_words + fp_cap`:
    /// `[key][outputs][fingerprint]` per slot.
    data: Vec<u64>,
    key_words: usize,
    out_words: usize,
    /// Fingerprint capacity per entry (grown on demand).
    fp_cap: usize,
    stats: TableStats,
    access_counts: Vec<u64>,
}

impl DirectTable {
    /// Creates a table with `slots` entries for keys of `key_words` words
    /// and outputs of `out_words` words.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero (outputs may be zero-width only when
    /// the segment memoizes just a return value — pass `out_words = 0` is
    /// therefore allowed).
    pub fn new(slots: usize, key_words: usize, out_words: usize) -> Self {
        assert!(slots > 0, "table must have at least one slot");
        assert!(key_words > 0, "key must have at least one word");
        DirectTable {
            meta: vec![0; slots],
            data: vec![0; slots * (key_words + out_words)],
            key_words,
            out_words,
            fp_cap: 0,
            stats: TableStats::default(),
            access_counts: vec![0; slots],
        }
    }

    /// Creates the largest table fitting in `bytes` bytes (at least one
    /// slot), for the paper's Figures 14/15 size sweep.
    pub fn with_bytes(bytes: usize, key_words: usize, out_words: usize) -> Self {
        let per = Self::entry_bytes(key_words, out_words);
        let slots = (bytes / per).max(1);
        Self::new(slots, key_words, out_words)
    }

    /// Bytes one entry occupies (key + outputs + occupancy bookkeeping).
    pub fn entry_bytes(key_words: usize, out_words: usize) -> usize {
        (key_words + out_words) * 8 + 8
    }

    fn stride(&self) -> usize {
        self.key_words + self.out_words + self.fp_cap
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.meta.len()
    }

    /// Storage footprint in bytes (the paper's Table 3 last column).
    pub fn bytes(&self) -> usize {
        self.meta.len() * Self::entry_bytes(self.key_words, self.out_words)
    }

    /// Ensures entries can hold fingerprints of up to `words` words,
    /// rebuilding the flat buffer if capacity grows. Build-time
    /// configuration: declaring the widest fingerprint up front spares
    /// the first wide recording the rebuild.
    pub fn reserve_fp_words(&mut self, words: usize) {
        if words > self.fp_cap {
            self.grow_fp_cap(words);
        }
    }

    fn grow_fp_cap(&mut self, new_cap: usize) {
        debug_assert!(new_cap > self.fp_cap);
        let old_stride = self.stride();
        let new_stride = self.key_words + self.out_words + new_cap;
        let mut data = vec![0u64; self.meta.len() * new_stride];
        for slot in 0..self.meta.len() {
            if self.meta[slot] != 0 {
                let old = slot * old_stride;
                let new = slot * new_stride;
                data[new..new + old_stride].copy_from_slice(&self.data[old..old + old_stride]);
            }
        }
        self.data = data;
        self.fp_cap = new_cap;
    }

    /// Looks `key` up; on a hit copies the recorded outputs into `out`
    /// (cleared first) and returns `true`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `key` has the wrong number of words
    /// (widths are validated once at spec level; see
    /// [`crate::TableSpec::validate`]).
    pub fn lookup(&mut self, key: &[u64], out: &mut Vec<u64>) -> bool {
        self.lookup_dep(key, out, false, None)
    }

    /// Dependency-validating lookup (the red/green probe path).
    ///
    /// `green` marks the probing segment as depending on *mutable* regions:
    /// with no `validate` closure (exact-match mode) such entries can never
    /// be trusted and the probe is answered as a forced red recompute; with
    /// a closure, a key-matched entry's fingerprint is passed to it and the
    /// entry is promoted to a hit only on `true` (counted in `green_hits`),
    /// otherwise the probe is a stale red (`stale_reds`, also a miss).
    /// Entries recorded without a fingerprint behave exactly as before.
    pub fn lookup_dep(
        &mut self,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        mut validate: FpValidator,
    ) -> bool {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        let idx = index_of(key, self.meta.len());
        self.stats.accesses += 1;
        self.access_counts[idx] += 1;
        if green && validate.is_none() {
            // Exact-match mode cannot verify external dependencies, so the
            // entry (if any) is untrusted: forced red.
            self.stats.misses += 1;
            return false;
        }
        let meta = self.meta[idx];
        let base = idx * self.stride();
        if meta != 0 && self.data[base..base + self.key_words] == *key {
            let fp_len = (meta >> 1) as usize;
            if fp_len > 0 {
                if let Some(v) = validate.as_mut() {
                    let fplo = base + self.key_words + self.out_words;
                    if !v(&self.data[fplo..fplo + fp_len]) {
                        self.stats.misses += 1;
                        self.stats.stale_reds += 1;
                        return false;
                    }
                    if green {
                        self.stats.green_hits += 1;
                    }
                }
            }
            self.stats.hits += 1;
            let lo = base + self.key_words;
            out.clear();
            out.extend_from_slice(&self.data[lo..lo + self.out_words]);
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Records `outputs` for `key`, replacing whatever occupied the slot.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `key` or `outputs` have the wrong number
    /// of words.
    pub fn record(&mut self, key: &[u64], outputs: &[u64]) {
        self.record_dep(key, outputs, &[]);
    }

    /// Records `outputs` for `key` together with a dependency fingerprint
    /// (pass `&[]` for exact-match-only entries). A fingerprint wider than
    /// the current capacity grows every entry's capacity first.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `key` or `outputs` have the wrong number
    /// of words.
    pub fn record_dep(&mut self, key: &[u64], outputs: &[u64], fp: &[u64]) {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        debug_assert_eq!(outputs.len(), self.out_words, "output width mismatch");
        if fp.len() > self.fp_cap {
            self.grow_fp_cap(fp.len());
        }
        let idx = index_of(key, self.meta.len());
        self.stats.insertions += 1;
        let base = idx * self.stride();
        if self.meta[idx] != 0 && self.data[base..base + self.key_words] != *key {
            self.stats.collisions += 1;
            self.stats.evictions += 1;
        }
        self.data[base..base + self.key_words].copy_from_slice(key);
        let lo = base + self.key_words;
        self.data[lo..lo + self.out_words].copy_from_slice(outputs);
        let fplo = lo + self.out_words;
        self.data[fplo..fplo + fp.len()].copy_from_slice(fp);
        self.meta[idx] = 1 | ((fp.len() as u64) << 1);
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Snapshot geometry: `(slots, key_words, out_words, fp_cap)`. The
    /// persist layer refuses to import entries into a table whose
    /// geometry differs from the one snapshotted.
    pub(crate) fn snapshot_geometry(&self) -> (usize, usize, Vec<usize>, Vec<usize>) {
        (
            self.meta.len(),
            self.key_words,
            vec![self.out_words],
            vec![self.fp_cap],
        )
    }

    /// Visits every occupied slot as `(slot, meta_word, entry_row)` where
    /// the row is the full `stride()`-word body (key, outputs, fingerprint
    /// capacity). Snapshot export path (DESIGN.md §8i).
    pub(crate) fn export_rows(&self, f: &mut dyn FnMut(u64, u64, &[u64])) {
        let stride = self.stride();
        for (slot, &meta) in self.meta.iter().enumerate() {
            if meta != 0 {
                let base = slot * stride;
                f(slot as u64, meta, &self.data[base..base + stride]);
            }
        }
    }

    /// Installs one snapshotted entry row without touching statistics or
    /// access counts. Returns `false` (leaving the table unchanged) when
    /// the row does not fit this table's geometry — the restore path then
    /// reports corruption instead of panicking.
    pub(crate) fn import_row(&mut self, slot: usize, meta: u64, row: &[u64]) -> bool {
        let stride = self.stride();
        let fits = slot < self.meta.len()
            && row.len() == stride
            && meta & 1 == 1
            && ((meta >> 1) as usize) <= self.fp_cap;
        if !fits {
            return false;
        }
        let base = slot * stride;
        self.data[base..base + stride].copy_from_slice(row);
        self.meta[slot] = meta;
        true
    }

    /// Overwrites the whole-run statistics (snapshot-restore baseline).
    pub(crate) fn set_stats(&mut self, stats: TableStats) {
        self.stats = stats;
    }

    /// The key resident in the slot `key` indexes to, when that slot is
    /// occupied by a *different* key — i.e. the entry a recording of `key`
    /// would evict. `None` when the slot is empty or already holds `key`
    /// (no eviction, so admission has nothing to decide).
    pub(crate) fn resident_key(&self, key: &[u64]) -> Option<&[u64]> {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        let idx = index_of(key, self.meta.len());
        if self.meta[idx] == 0 {
            return None;
        }
        let base = idx * self.stride();
        let resident = &self.data[base..base + self.key_words];
        if resident == key {
            None
        } else {
            Some(resident)
        }
    }

    /// Per-slot access counts (for the accessed-entries histograms).
    pub fn access_counts(&self) -> &[u64] {
        &self.access_counts
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|&&m| m != 0).count()
    }

    /// Drops every stored entry and zeroes the per-slot access histogram,
    /// keeping geometry and whole-run statistics. Forgetting is always
    /// sound for a memo table; used by shard poison recovery.
    pub fn clear(&mut self) {
        self.meta.fill(0);
        self.access_counts.fill(0);
    }

    /// Rebuilds the table with `new_slots` slots, rehashing the live
    /// entries (entries whose new indices clash keep the later one, as a
    /// normal collision would). Statistics are preserved; the per-slot
    /// access histogram restarts at zero because slot identities change.
    ///
    /// # Panics
    ///
    /// Panics if `new_slots` is zero.
    pub fn resize(&mut self, new_slots: usize) {
        assert!(new_slots > 0, "table must have at least one slot");
        let stride = self.stride();
        let old_meta = std::mem::replace(&mut self.meta, vec![0; new_slots]);
        let old_data = std::mem::replace(&mut self.data, vec![0; new_slots * stride]);
        for (slot, &meta) in old_meta.iter().enumerate() {
            if meta == 0 {
                continue;
            }
            let old = slot * stride;
            let key = &old_data[old..old + self.key_words];
            let idx = index_of(key, new_slots);
            let new = idx * stride;
            self.data[new..new + stride].copy_from_slice(&old_data[old..old + stride]);
            self.meta[idx] = meta;
        }
        self.access_counts = vec![0; new_slots];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = DirectTable::new(16, 1, 1);
        let mut out = Vec::new();
        assert!(!t.lookup(&[5], &mut out));
        t.record(&[5], &[50]);
        assert!(t.lookup(&[5], &mut out));
        assert_eq!(out, vec![50]);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().accesses, 2);
    }

    #[test]
    fn collision_replaces_previous_entry() {
        // Keys 3 and 19 collide in a 16-slot table (3 mod 16 == 19 mod 16).
        let mut t = DirectTable::new(16, 1, 1);
        let mut out = Vec::new();
        t.record(&[3], &[30]);
        t.record(&[19], &[190]);
        assert_eq!(t.stats().collisions, 1);
        assert!(!t.lookup(&[3], &mut out), "3 was evicted");
        assert!(t.lookup(&[19], &mut out));
        assert_eq!(out, vec![190]);
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn same_key_rerecord_is_not_a_collision() {
        let mut t = DirectTable::new(8, 1, 1);
        t.record(&[2], &[1]);
        t.record(&[2], &[2]);
        assert_eq!(t.stats().collisions, 0);
        let mut out = Vec::new();
        assert!(t.lookup(&[2], &mut out));
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn multi_word_keys_hash_through_jenkins() {
        let mut t = DirectTable::new(1024, 64, 2);
        let key_a: Vec<u64> = (0..64).collect();
        let key_b: Vec<u64> = (1..65).collect();
        t.record(&key_a, &[7, 8]);
        let mut out = Vec::new();
        assert!(t.lookup(&key_a, &mut out));
        assert_eq!(out, vec![7, 8]);
        assert!(!t.lookup(&key_b, &mut out));
    }

    #[test]
    fn access_counts_track_slots() {
        let mut t = DirectTable::new(4, 1, 1);
        let mut out = Vec::new();
        t.record(&[1], &[1]);
        for _ in 0..5 {
            t.lookup(&[1], &mut out);
        }
        t.lookup(&[2], &mut out); // miss at slot 2
        assert_eq!(t.access_counts()[1], 5);
        assert_eq!(t.access_counts()[2], 1);
    }

    #[test]
    fn with_bytes_caps_footprint() {
        let t = DirectTable::with_bytes(512, 1, 1);
        assert!(t.bytes() <= 512);
        assert!(t.slots() >= 1);
        let tiny = DirectTable::with_bytes(1, 64, 64);
        assert_eq!(tiny.slots(), 1, "always at least one slot");
    }

    #[test]
    fn zero_output_words_supported() {
        // A segment whose only output is the return value stores no output
        // words in the table body.
        let mut t = DirectTable::new(4, 1, 0);
        t.record(&[1], &[]);
        let mut out = vec![99];
        assert!(t.lookup(&[1], &mut out));
        assert!(out.is_empty());
    }

    // The check is a debug_assert!, compiled out of release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn wrong_key_width_panics() {
        let mut t = DirectTable::new(4, 2, 1);
        let mut out = Vec::new();
        t.lookup(&[1], &mut out);
    }

    #[test]
    fn fingerprints_survive_capacity_growth() {
        let mut t = DirectTable::new(16, 1, 1);
        t.record_dep(&[1], &[10], &[0xAA]);
        // A wider fingerprint on another key grows capacity; key 1's entry
        // (including its shorter fingerprint) must survive the rebuild.
        t.record_dep(&[2], &[20], &[0xBB, 0xCC, 0xDD]);
        let mut out = Vec::new();
        let mut seen = Vec::new();
        let mut grab = |fp: &[u64]| {
            seen = fp.to_vec();
            true
        };
        assert!(t.lookup_dep(&[1], &mut out, false, Some(&mut grab)));
        assert_eq!(out, vec![10]);
        assert_eq!(seen, vec![0xAA]);
        let mut grab2 = |fp: &[u64]| {
            seen = fp.to_vec();
            true
        };
        assert!(t.lookup_dep(&[2], &mut out, false, Some(&mut grab2)));
        assert_eq!(seen, vec![0xBB, 0xCC, 0xDD]);
    }

    #[test]
    fn undeclared_fingerprint_width_grows_the_table() {
        let mut t = DirectTable::new(8, 1, 1);
        t.reserve_fp_words(1);
        t.record_dep(&[1], &[10], &[1, 2]);
        let mut out = Vec::new();
        let mut seen = Vec::new();
        let mut grab = |fp: &[u64]| {
            seen = fp.to_vec();
            true
        };
        assert!(t.lookup_dep(&[1], &mut out, false, Some(&mut grab)));
        assert_eq!(out, vec![10]);
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn resize_rehashes_flat_entries() {
        let mut t = DirectTable::new(4, 1, 1);
        t.record_dep(&[9], &[90], &[5]);
        t.resize(32);
        let mut out = Vec::new();
        let mut seen = Vec::new();
        let mut grab = |fp: &[u64]| {
            seen = fp.to_vec();
            true
        };
        assert!(t.lookup_dep(&[9], &mut out, false, Some(&mut grab)));
        assert_eq!(out, vec![90]);
        assert_eq!(seen, vec![5]);
        assert_eq!(t.occupancy(), 1);
    }
}
