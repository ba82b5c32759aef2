//! Merged hash tables (paper §2.5, Table 2).
//!
//! When multiple code segments have *identical input variables*, their hash
//! tables merge into one: each entry stores the shared key, a bit vector
//! saying which segments' outputs are valid for that key, and one output
//! group per segment. GNU Go's eight `accumulate_influence` segments are
//! the paper's motivating case — unmerged tables ran the iPAQ out of
//! memory.
//!
//! ## Flat storage
//!
//! Like [`crate::DirectTable`], entries live in flat buffers: `valid`
//! holds one validity bit vector per slot (`0` ⇔ empty) and `data` holds
//! the bodies at a fixed stride (`key ++ all output groups ++ all
//! fingerprint groups`). No allocation happens per recording: a
//! recording overwrites its slot's words in place. The buffers are
//! rebuilt only by [`MergedTable::set_fp_words`].

use crate::hash::index_of;
use crate::stats::TableStats;
use crate::{refuse_fingerprint, FpValidator};

/// A direct-addressed table shared by up to 64 segments with identical
/// inputs.
#[derive(Debug, Clone)]
pub struct MergedTable {
    /// Per-slot validity bit vector: bit `s` set ⇔ slot `s`'s outputs are
    /// valid for the stored key; `0` ⇔ the slot is empty.
    valid: Vec<u64>,
    /// Entry bodies at stride `key_words + total_out_words +
    /// total_fp_words`: `[key][output groups][fingerprint groups]`.
    data: Vec<u64>,
    key_words: usize,
    /// Output width per segment slot.
    out_words: Vec<usize>,
    /// Word offset of each slot's output group within an entry.
    out_offsets: Vec<usize>,
    total_out_words: usize,
    /// Dependency-fingerprint width per segment slot (zero for exact-match
    /// slots), with the same offset layout as the output groups.
    fp_words: Vec<usize>,
    fp_offsets: Vec<usize>,
    total_fp_words: usize,
    /// Aggregate counters plus per-slot counters.
    stats: TableStats,
    slot_stats: Vec<TableStats>,
    access_counts: Vec<u64>,
}

impl MergedTable {
    /// Creates a merged table with `slots` entries, keys of `key_words`
    /// words, and one output group per element of `out_words`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `key_words` is zero, if there are no segments,
    /// or if there are more than 64 segments (the bit vector is one word).
    pub fn new(slots: usize, key_words: usize, out_words: &[usize]) -> Self {
        assert!(slots > 0, "table must have at least one slot");
        assert!(key_words > 0, "key must have at least one word");
        assert!(
            !out_words.is_empty() && out_words.len() <= 64,
            "merged table supports 1..=64 segments"
        );
        let mut out_offsets = Vec::with_capacity(out_words.len());
        let mut total = 0usize;
        for &w in out_words {
            out_offsets.push(total);
            total += w;
        }
        MergedTable {
            valid: vec![0; slots],
            data: vec![0; slots * (key_words + total)],
            key_words,
            out_words: out_words.to_vec(),
            out_offsets,
            total_out_words: total,
            fp_words: vec![0; out_words.len()],
            fp_offsets: vec![0; out_words.len()],
            total_fp_words: 0,
            stats: TableStats::default(),
            slot_stats: vec![TableStats::default(); out_words.len()],
            access_counts: vec![0; slots],
        }
    }

    fn stride(&self) -> usize {
        self.key_words + self.total_out_words + self.total_fp_words
    }

    /// Declares that segment `slot` records a dependency fingerprint of
    /// `words` words. Build-time configuration: existing entries are
    /// dropped because the per-entry fingerprint layout changes, and the
    /// flat buffer is rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn set_fp_words(&mut self, slot: usize, words: usize) {
        assert!(slot < self.fp_words.len(), "slot out of range");
        self.fp_words[slot] = words;
        let mut total = 0usize;
        for (off, &w) in self.fp_offsets.iter_mut().zip(&self.fp_words) {
            *off = total;
            total += w;
        }
        self.total_fp_words = total;
        self.valid.fill(0);
        self.data = vec![0; self.valid.len() * self.stride()];
    }

    /// Creates the largest merged table fitting in `bytes`.
    pub fn with_bytes(bytes: usize, key_words: usize, out_words: &[usize]) -> Self {
        let per = Self::entry_bytes(key_words, out_words);
        let slots = (bytes / per).max(1);
        Self::new(slots, key_words, out_words)
    }

    /// Bytes one entry occupies: key + bit vector + all output groups.
    pub fn entry_bytes(key_words: usize, out_words: &[usize]) -> usize {
        (key_words + 1 + out_words.iter().sum::<usize>()) * 8 + 8
    }

    /// Number of segments sharing the table.
    pub fn segment_count(&self) -> usize {
        self.out_words.len()
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.valid.len()
    }

    /// Storage footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.valid.len() * Self::entry_bytes(self.key_words, &self.out_words)
    }

    /// Storage the same segments would need with *separate* tables of the
    /// same slot count (quantifies the §2.5 saving).
    pub fn unmerged_bytes(&self) -> usize {
        self.out_words
            .iter()
            .map(|&w| self.valid.len() * ((self.key_words + w) * 8 + 8))
            .sum()
    }

    /// Looks `key` up for segment `slot`; on a hit (key matches *and* the
    /// slot's valid bit is set) copies that slot's outputs into `out`. A
    /// fingerprinted slot's entry answers as a stale red, as in
    /// [`crate::DirectTable::lookup`].
    ///
    /// # Panics
    ///
    /// In debug builds, panics on width mismatch or out-of-range slot
    /// (out-of-range slots still panic in release via indexing).
    pub fn lookup(&mut self, slot: usize, key: &[u64], out: &mut Vec<u64>) -> bool {
        self.lookup_dep(slot, key, out, false, &mut refuse_fingerprint)
    }

    /// Dependency-validating lookup; same contract as
    /// [`crate::DirectTable::lookup_dep`], applied to segment `slot`'s
    /// fingerprint group.
    pub fn lookup_dep(
        &mut self,
        slot: usize,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        validate: FpValidator,
    ) -> bool {
        let idx = index_of(key, self.valid.len());
        self.lookup_dep_at(slot, idx, key, out, green, validate)
    }

    /// [`MergedTable::lookup_dep`] at entry `idx`, which the caller
    /// derived from `key`; see [`crate::DirectTable::lookup_dep_at`].
    #[inline]
    pub(crate) fn lookup_dep_at(
        &mut self,
        slot: usize,
        idx: usize,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        validate: FpValidator,
    ) -> bool {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        assert!(slot < self.out_words.len(), "slot out of range");
        self.stats.accesses += 1;
        self.slot_stats[slot].accesses += 1;
        self.access_counts[idx] += 1;
        let base = idx * self.stride();
        if self.valid[idx] >> slot & 1 == 1 && self.data[base..base + self.key_words] == *key {
            let fplo = base + self.key_words + self.total_out_words + self.fp_offsets[slot];
            let fphi = fplo + self.fp_words[slot];
            if fphi > fplo {
                if !validate(&self.data[fplo..fphi]) {
                    self.stats.misses += 1;
                    self.stats.stale_reds += 1;
                    self.slot_stats[slot].misses += 1;
                    self.slot_stats[slot].stale_reds += 1;
                    return false;
                }
                if green {
                    self.stats.green_hits += 1;
                    self.slot_stats[slot].green_hits += 1;
                }
            }
            self.stats.hits += 1;
            self.slot_stats[slot].hits += 1;
            let lo = base + self.key_words + self.out_offsets[slot];
            let hi = lo + self.out_words[slot];
            out.clear();
            out.extend_from_slice(&self.data[lo..hi]);
            true
        } else {
            self.stats.misses += 1;
            self.slot_stats[slot].misses += 1;
            false
        }
    }

    /// Records `outputs` for segment `slot` under `key`.
    ///
    /// If the indexed entry holds the same key, the slot's outputs are
    /// added (or refreshed) and its valid bit set; a different key replaces
    /// the whole entry, leaving only this slot valid.
    ///
    /// # Panics
    ///
    /// In debug builds, panics on width mismatch; out-of-range slots panic
    /// in all builds.
    pub fn record(&mut self, slot: usize, key: &[u64], outputs: &[u64]) {
        self.record_dep(slot, key, outputs, &[]);
    }

    /// Records `outputs` (and segment `slot`'s dependency fingerprint, an
    /// empty slice for exact-match slots) under `key`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when `fp` does not match the width declared
    /// via [`MergedTable::set_fp_words`]; out-of-range slots panic in all
    /// builds.
    pub fn record_dep(&mut self, slot: usize, key: &[u64], outputs: &[u64], fp: &[u64]) {
        let idx = index_of(key, self.valid.len());
        self.record_dep_at(slot, idx, key, outputs, fp);
    }

    /// [`MergedTable::record_dep`] at entry `idx`, which the caller
    /// derived from `key`; see [`crate::DirectTable::lookup_dep_at`].
    #[inline]
    pub(crate) fn record_dep_at(
        &mut self,
        slot: usize,
        idx: usize,
        key: &[u64],
        outputs: &[u64],
        fp: &[u64],
    ) {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        assert!(slot < self.out_words.len(), "slot out of range");
        debug_assert_eq!(outputs.len(), self.out_words[slot], "output width mismatch");
        debug_assert_eq!(fp.len(), self.fp_words[slot], "fingerprint width mismatch");
        self.stats.insertions += 1;
        self.slot_stats[slot].insertions += 1;
        let stride = self.stride();
        let base = idx * stride;
        let same_key = self.valid[idx] != 0 && self.data[base..base + self.key_words] == *key;
        if !same_key {
            if self.valid[idx] != 0 {
                self.stats.collisions += 1;
                self.stats.evictions += 1;
                self.slot_stats[slot].collisions += 1;
                self.slot_stats[slot].evictions += 1;
            }
            // Fresh entry: zero every group so other slots read as zeroed
            // (they are invalid anyway), then install the key.
            self.data[base + self.key_words..base + stride].fill(0);
            self.data[base..base + self.key_words].copy_from_slice(key);
            self.valid[idx] = 0;
        }
        let lo = base + self.key_words + self.out_offsets[slot];
        self.data[lo..lo + outputs.len()].copy_from_slice(outputs);
        let fplo = base + self.key_words + self.total_out_words + self.fp_offsets[slot];
        self.data[fplo..fplo + fp.len()].copy_from_slice(fp);
        self.valid[idx] |= 1 << slot;
    }

    /// Aggregate statistics across all slots.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Snapshot geometry: `(slots, key_words, out_words, fp_words)`; see
    /// [`crate::DirectTable::snapshot_geometry`].
    pub(crate) fn snapshot_geometry(&self) -> (usize, usize, Vec<usize>, Vec<usize>) {
        (
            self.valid.len(),
            self.key_words,
            self.out_words.clone(),
            self.fp_words.clone(),
        )
    }

    /// Visits every occupied slot as `(slot, valid_word, entry_row)`;
    /// snapshot export path (DESIGN.md §8i).
    pub(crate) fn export_rows(&self, f: &mut dyn FnMut(u64, u64, &[u64])) {
        let stride = self.stride();
        for (slot, &valid) in self.valid.iter().enumerate() {
            if valid != 0 {
                let base = slot * stride;
                f(slot as u64, valid, &self.data[base..base + stride]);
            }
        }
    }

    /// Installs one snapshotted entry row without touching statistics.
    /// Returns `false` (table unchanged) when the row does not fit this
    /// table's geometry.
    pub(crate) fn import_row(&mut self, slot: usize, valid: u64, row: &[u64]) -> bool {
        let stride = self.stride();
        let segs = self.out_words.len();
        let fits = slot < self.valid.len()
            && row.len() == stride
            && valid != 0
            && (segs == 64 || valid >> segs == 0);
        if !fits {
            return false;
        }
        let base = slot * stride;
        self.data[base..base + stride].copy_from_slice(row);
        self.valid[slot] = valid;
        true
    }

    /// Overwrites the whole-run aggregate statistics (snapshot-restore
    /// baseline). Per-slot statistics stay at zero: a snapshot preserves
    /// the shard aggregate, not the per-segment split (DESIGN.md §8i).
    pub(crate) fn set_stats(&mut self, stats: TableStats) {
        self.stats = stats;
    }

    /// The key a recording of `key` at entry `idx` would evict; see
    /// [`crate::DirectTable::resident_key_at`].
    pub(crate) fn resident_key_at(&self, idx: usize, key: &[u64]) -> Option<&[u64]> {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        if self.valid[idx] == 0 {
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

    /// Statistics for one segment slot.
    pub fn slot_stats(&self, slot: usize) -> &TableStats {
        &self.slot_stats[slot]
    }

    /// Statistics of every segment slot, in slot order.
    pub(crate) fn per_slot_stats(&self) -> &[TableStats] {
        &self.slot_stats
    }

    /// Per-slot access counts (entry-access histograms).
    pub fn access_counts(&self) -> &[u64] {
        &self.access_counts
    }

    /// Drops every stored entry and zeroes the per-slot access histogram,
    /// keeping geometry and whole-run statistics (aggregate and per-slot).
    /// Forgetting is always sound for a memo table; used by shard poison
    /// recovery.
    pub fn clear(&mut self) {
        self.valid.fill(0);
        self.access_counts.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_share_one_key() {
        let mut t = MergedTable::new(64, 1, &[1, 1, 1]);
        let mut out = Vec::new();
        // Segment 0 records; segment 1 still misses on the same key.
        t.record(0, &[5], &[50]);
        assert!(t.lookup(0, &[5], &mut out));
        assert_eq!(out, vec![50]);
        assert!(!t.lookup(1, &[5], &mut out), "slot 1's bit not set");
        t.record(1, &[5], &[51]);
        assert!(t.lookup(1, &[5], &mut out));
        assert_eq!(out, vec![51]);
        assert!(t.lookup(0, &[5], &mut out), "slot 0 still valid");
        assert_eq!(out, vec![50]);
    }

    #[test]
    fn different_key_replacement_clears_other_slots() {
        // In a 1-slot table every distinct key collides.
        let mut t = MergedTable::new(1, 1, &[1, 1]);
        let mut out = Vec::new();
        t.record(0, &[1], &[10]);
        t.record(1, &[1], &[11]);
        t.record(0, &[2], &[20]); // replaces the whole entry
        assert_eq!(t.stats().collisions, 1);
        assert!(!t.lookup(1, &[2], &mut out), "slot 1 invalid for new key");
        assert!(t.lookup(0, &[2], &mut out));
        assert!(!t.lookup(1, &[1], &mut out), "old key gone entirely");
    }

    #[test]
    fn variable_width_output_groups() {
        let mut t = MergedTable::new(16, 2, &[3, 1, 2]);
        let mut out = Vec::new();
        t.record(2, &[7, 8], &[100, 200]);
        t.record(0, &[7, 8], &[1, 2, 3]);
        assert!(t.lookup(0, &[7, 8], &mut out));
        assert_eq!(out, vec![1, 2, 3]);
        assert!(t.lookup(2, &[7, 8], &mut out));
        assert_eq!(out, vec![100, 200]);
        assert!(!t.lookup(1, &[7, 8], &mut out));
    }

    #[test]
    fn merged_is_smaller_than_separate_tables() {
        // Eight GNU-Go-like segments: 1-word key, 1-word output each.
        let t = MergedTable::new(4096, 1, &[1; 8]);
        assert!(
            t.bytes() < t.unmerged_bytes(),
            "merging must save memory: {} vs {}",
            t.bytes(),
            t.unmerged_bytes()
        );
        // Saving comes from sharing the key: 8 keys → 1 key + bitvec.
        let saving = t.unmerged_bytes() as f64 / t.bytes() as f64;
        assert!(
            saving > 1.5,
            "expected substantial saving, got {saving:.2}x"
        );
    }

    #[test]
    fn per_slot_stats_are_separate() {
        let mut t = MergedTable::new(8, 1, &[1, 1]);
        let mut out = Vec::new();
        t.record(0, &[1], &[1]);
        t.lookup(0, &[1], &mut out);
        t.lookup(1, &[1], &mut out);
        assert_eq!(t.slot_stats(0).hits, 1);
        assert_eq!(t.slot_stats(1).hits, 0);
        assert_eq!(t.slot_stats(1).misses, 1);
        assert_eq!(t.stats().accesses, 2);
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn bad_slot_panics() {
        let mut t = MergedTable::new(8, 1, &[1]);
        let mut out = Vec::new();
        t.lookup(1, &[1], &mut out);
    }

    #[test]
    #[should_panic(expected = "1..=64 segments")]
    fn too_many_segments_panics() {
        MergedTable::new(8, 1, &[1; 65]);
    }
}
