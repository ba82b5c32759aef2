//! A small fully-associative buffer with LRU replacement.
//!
//! Models the *hardware* reuse buffers the paper compares against: Table 5
//! reports hit ratios "when the hash table size is limited to 1-entry,
//! 4-entry, 16-entry and 64-entry respectively. The LRU replacement policy
//! is used." Capacities are small, so lookup is a linear scan.

use crate::stats::TableStats;
use crate::{refuse_fingerprint, FpValidator};

/// One buffer entry: `(key words, output words, dependency fingerprint)`.
/// The fingerprint is empty for exact-match-only entries (an empty boxed
/// slice does not allocate).
type LruEntry = (Box<[u64]>, Box<[u64]>, Box<[u64]>);

/// A fixed-capacity, fully-associative memo buffer with LRU eviction.
#[derive(Debug, Clone)]
pub struct LruTable {
    /// Entries in most-recently-used-first order.
    entries: Vec<LruEntry>,
    capacity: usize,
    key_words: usize,
    out_words: usize,
    stats: TableStats,
}

impl LruTable {
    /// Creates a buffer holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `key_words` is zero.
    pub fn new(capacity: usize, key_words: usize, out_words: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(key_words > 0, "key must have at least one word");
        LruTable {
            entries: Vec::with_capacity(capacity),
            capacity,
            key_words,
            out_words,
            stats: TableStats::default(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Storage footprint in bytes (paper Table 5 last column reports the
    /// 64-entry size).
    pub fn bytes(&self) -> usize {
        self.capacity * (self.key_words + self.out_words) * 8
    }

    /// Looks `key` up; on a hit copies outputs into `out`, promotes the
    /// entry to most-recently-used, and returns `true`. A fingerprinted
    /// entry answers as a stale red, as in [`crate::DirectTable::lookup`].
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `key` has the wrong number of words.
    pub fn lookup(&mut self, key: &[u64], out: &mut Vec<u64>) -> bool {
        self.lookup_dep(key, out, false, &mut refuse_fingerprint)
    }

    /// Dependency-validating lookup; same contract as
    /// [`crate::DirectTable::lookup_dep`].
    pub fn lookup_dep(
        &mut self,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        validate: FpValidator,
    ) -> bool {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        self.stats.accesses += 1;
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| **k == *key) {
            if !self.entries[pos].2.is_empty() {
                if !validate(&self.entries[pos].2) {
                    self.stats.misses += 1;
                    self.stats.stale_reds += 1;
                    return false;
                }
                if green {
                    self.stats.green_hits += 1;
                }
            }
            let entry = self.entries.remove(pos);
            out.clear();
            out.extend_from_slice(&entry.1);
            self.entries.insert(0, entry);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Records `outputs` for `key`, evicting the least-recently-used entry
    /// if the buffer is full.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if widths mismatch.
    pub fn record(&mut self, key: &[u64], outputs: &[u64]) {
        self.record_dep(key, outputs, &[]);
    }

    /// Records `outputs` for `key` together with a dependency fingerprint
    /// (pass `&[]` for exact-match-only entries).
    pub fn record_dep(&mut self, key: &[u64], outputs: &[u64], fp: &[u64]) {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        debug_assert_eq!(outputs.len(), self.out_words, "output width mismatch");
        self.stats.insertions += 1;
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| **k == *key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
            self.stats.collisions += 1; // an eviction of a different key
            self.stats.evictions += 1;
        }
        self.entries
            .insert(0, (key.into(), outputs.into(), fp.into()));
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Drops every buffered entry, keeping capacity and whole-run
    /// statistics. Forgetting is always sound for a memo buffer; used by
    /// shard poison recovery.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(t: &mut LruTable, keys: &[u64]) {
        for &k in keys {
            t.record(&[k], &[k * 10]);
        }
    }

    #[test]
    fn hit_promotes_to_mru() {
        let mut t = LruTable::new(2, 1, 1);
        fill(&mut t, &[1, 2]); // MRU order: 2, 1
        let mut out = Vec::new();
        assert!(t.lookup(&[1], &mut out)); // order: 1, 2
        t.record(&[3], &[30]); // evicts 2
        assert!(t.lookup(&[1], &mut out));
        assert!(!t.lookup(&[2], &mut out), "2 was LRU and evicted");
        assert!(t.lookup(&[3], &mut out));
    }

    #[test]
    fn one_entry_buffer_thrashes() {
        // The paper's 1-entry column: alternating keys never hit.
        let mut t = LruTable::new(1, 1, 1);
        let mut out = Vec::new();
        let mut hits = 0;
        for i in 0..100 {
            let k = i % 2;
            if t.lookup(&[k], &mut out) {
                hits += 1;
            } else {
                t.record(&[k], &[k]);
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn repeated_key_always_hits_after_first() {
        let mut t = LruTable::new(4, 1, 1);
        let mut out = Vec::new();
        assert!(!t.lookup(&[7], &mut out));
        t.record(&[7], &[70]);
        for _ in 0..10 {
            assert!(t.lookup(&[7], &mut out));
            assert_eq!(out, vec![70]);
        }
        assert_eq!(t.stats().hit_ratio(), 10.0 / 11.0);
    }

    #[test]
    fn working_set_within_capacity_hits_fully() {
        // 31 distinct patterns in a 64-entry buffer (the paper's RASTA row
        // reaches 99.6% with 64 entries because all 31 DIPs fit).
        let mut t = LruTable::new(64, 1, 1);
        let mut out = Vec::new();
        for round in 0..10 {
            for k in 0..31u64 {
                if !t.lookup(&[k], &mut out) {
                    assert_eq!(round, 0, "misses only in the first round");
                    t.record(&[k], &[k]);
                }
            }
        }
        assert_eq!(t.stats().misses, 31);
        assert_eq!(t.stats().hits, 31 * 9);
    }

    #[test]
    fn rerecord_same_key_does_not_grow() {
        let mut t = LruTable::new(2, 1, 1);
        t.record(&[1], &[1]);
        t.record(&[1], &[2]);
        assert_eq!(t.len(), 1);
        let mut out = Vec::new();
        assert!(t.lookup(&[1], &mut out));
        assert_eq!(out, vec![2]);
        assert_eq!(t.stats().collisions, 0);
    }

    #[test]
    fn bytes_reflect_capacity() {
        // 64 entries × (1 key + 1 out) × 8 B/word = 1024 B in our 64-bit
        // layout (the paper's 32-bit layout reports 512 B).
        let t = LruTable::new(64, 1, 1);
        assert_eq!(t.bytes(), 1024);
    }
}
