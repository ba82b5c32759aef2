//! Snapshot/restore for sharded reuse stores (DESIGN.md §8i).
//!
//! A service that restarts cold pays the warm-up toll all over again:
//! BENCH_pr4 measured a warm shared-store hit ratio of 0.8795 against
//! 0.8575 cold. This module serialises the *contents* of a set of
//! [`ShardedTable`]s — every occupied entry (key, outputs, dependency
//! fingerprint), each shard's folded statistics, and its bypass counters
//! — into a compact versioned word stream, so a restarted
//! service can resume at the warm hit ratio instead of re-deriving it.
//!
//! ## Format
//!
//! The stream is a sequence of 64-bit little-endian words:
//!
//! ```text
//! magic ("CRSNAP01")  version  store_count
//! per store:  shard_count
//!   per shard:  slots  key_words  seg_count
//!               per segment: out_words  fp_words
//!               9 statistics words (accesses hits green_hits stale_reds
//!                 misses collisions evictions insertions admission_rejects)
//!               2 telemetry words (bypassed_total, dropped_records)
//!               entry_count
//!               per entry: slot  meta_word  stride row words
//! checksum (every preceding word mixed in order; see snapshot_checksum)
//! ```
//!
//! The per-shard geometry is written *redundantly* — the restore target
//! is always rebuilt from the same pipeline specs — precisely so a
//! snapshot taken under different specs (or a corrupted one) is detected
//! and refused with a typed [`SnapshotError`] instead of poisoning the
//! store: restore never panics, and a failed restore leaves the caller
//! free to fall back to a clean cold start. A statistics or telemetry
//! word at or above 2^63 is refused as corrupt too, so a restored
//! counter cannot overflow on the next probe. Older versions are refused
//! by version and cold-start: version 1 carried a third telemetry word
//! (the retired adaptive guard's epoch index), version 2 carried 13
//! statistics words, four of them counters of retired layers that were
//! always 0 (optimistic hits and retries, L1 hits and promotions), and
//! version 3's checksum was a plain wrapping sum, which let two words
//! with equal sums trade places unnoticed.
//!
//! What a snapshot deliberately does **not** carry: the forced-bypass
//! flag (a restarted service is not overloaded yet), per-segment
//! statistics splits (they describe the dead process), and TinyLFU
//! sketch frequencies (stale frequencies would mis-admit; the
//! sketch re-warms in one sample period).

use std::io::Write;
use std::path::Path;

use crate::sharded::ShardedTable;
use crate::stats::TableStats;

/// Snapshot format version; bumped on any layout change.
pub const SNAPSHOT_VERSION: u64 = 4;

/// Magic word opening every snapshot ("CRSNAP01").
const SNAPSHOT_MAGIC: u64 = u64::from_le_bytes(*b"CRSNAP01");

/// Words one [`TableStats`] occupies in the stream.
const STATS_WORDS: usize = 9;

/// Statistics and telemetry words at or above this are refused as
/// corrupt: no store counts that far, and a restored counter this high
/// could overflow on the next probe.
const COUNTER_LIMIT: u64 = 1 << 63;

/// Why a snapshot could not be written or restored. Every restore-side
/// variant means "fall back to a cold start" — never a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure reading or writing the snapshot.
    Io(std::io::Error),
    /// The stream does not open with the snapshot magic.
    BadMagic,
    /// The stream's version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u64),
    /// The stream ended before the structure it promised.
    Truncated,
    /// The trailing checksum does not match the stream.
    ChecksumMismatch,
    /// A structurally invalid record (reason attached).
    Corrupt(&'static str),
    /// The snapshot was taken under a different store shape (reason
    /// attached); restoring it would scramble entries.
    GeometryMismatch(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot version {v} unsupported (want {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::GeometryMismatch(why) => {
                write!(f, "snapshot geometry mismatch: {why}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn stats_to_words(s: &TableStats, words: &mut Vec<u64>) {
    words.extend_from_slice(&[
        s.accesses,
        s.hits,
        s.green_hits,
        s.stale_reds,
        s.misses,
        s.collisions,
        s.evictions,
        s.insertions,
        s.admission_rejects,
    ]);
}

fn stats_from_words(w: &[u64]) -> TableStats {
    TableStats {
        accesses: w[0],
        hits: w[1],
        green_hits: w[2],
        stale_reds: w[3],
        misses: w[4],
        collisions: w[5],
        evictions: w[6],
        insertions: w[7],
        admission_rejects: w[8],
        ..TableStats::default()
    }
}

/// Serialises `stores` (one [`ShardedTable`] per memo table) into the
/// snapshot word stream, checksum included. Each shard is exported under
/// its lock, so a live store may be snapshotted while serving — the
/// result is a per-shard-consistent point-in-time capture.
pub fn snapshot_words(stores: &[&ShardedTable]) -> Vec<u64> {
    let mut words = vec![SNAPSHOT_MAGIC, SNAPSHOT_VERSION, stores.len() as u64];
    for store in stores {
        words.push(store.shard_count() as u64);
        let shard_stats = store.shard_stats();
        for (i, stats) in shard_stats.iter().enumerate() {
            store.with_shard(i, |t| {
                let (slots, key_words, out_words, fp_words) = t
                    .snapshot_geometry()
                    .expect("sharded stores only build snapshot-capable kinds");
                words.push(slots as u64);
                words.push(key_words as u64);
                words.push(out_words.len() as u64);
                for (&o, &p) in out_words.iter().zip(&fp_words) {
                    words.push(o as u64);
                    words.push(p as u64);
                }
                stats_to_words(stats, &mut words);
                words.push(t.bypassed_total());
                words.push(t.dropped_records());
                let count_at = words.len();
                words.push(0);
                let mut entries = 0u64;
                t.export_rows(&mut |slot, meta, row| {
                    words.push(slot);
                    words.push(meta);
                    words.extend_from_slice(row);
                    entries += 1;
                });
                words[count_at] = entries;
            });
        }
    }
    words.push(snapshot_checksum(&words));
    words
}

/// The trailing checksum word of a snapshot stream whose other words
/// are `body`. Each word is mixed into a running state in order, so
/// unlike a plain sum it also changes when words move or swap places.
pub fn snapshot_checksum(body: &[u64]) -> u64 {
    body.iter().fold(0, |acc, &w| {
        // SplitMix64's finalizer: a bijection with full avalanche.
        let mut z = acc.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ w;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// Writes a snapshot of `stores` to `path` (atomically enough for the
/// single-writer service: a full rewrite, no partial append).
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] on filesystem failure.
pub fn write_snapshot(stores: &[&ShardedTable], path: &Path) -> Result<(), SnapshotError> {
    let words = snapshot_words(stores);
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    file.flush()?;
    Ok(())
}

/// Bounded reader over the snapshot word stream.
struct Cursor<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Result<u64, SnapshotError> {
        let w = *self.words.get(self.pos).ok_or(SnapshotError::Truncated)?;
        self.pos += 1;
        Ok(w)
    }

    fn next_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.next()?).map_err(|_| SnapshotError::Corrupt("count overflows usize"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u64], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let s = self
            .words
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
}

/// Restores a snapshot word stream into `stores`, which must be freshly
/// rebuilt from the same pipeline specs (same table count, shard counts,
/// and per-shard geometry — all verified against the stream before any
/// entry is installed; shard entries are cleared first regardless).
/// On success every shard holds the snapshotted entries, statistics
/// baseline, and bypass counters.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`]; the caller should treat any error
/// as "discard this store and cold-start" (a failed restore may leave
/// some shards imported and others not).
pub fn restore_words(stores: &mut [&mut ShardedTable], words: &[u64]) -> Result<(), SnapshotError> {
    let [magic, version, _, .., checksum] = *words else {
        return Err(SnapshotError::Truncated);
    };
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    // The version is read before the checksum, so an older stream is
    // refused by version whatever checksum its format used.
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let body = &words[..words.len() - 1];
    if snapshot_checksum(body) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut c = Cursor {
        words: body,
        pos: 2,
    };
    if c.next_usize()? != stores.len() {
        return Err(SnapshotError::GeometryMismatch("store count"));
    }
    for store in stores.iter_mut() {
        if c.next_usize()? != store.shard_count() {
            return Err(SnapshotError::GeometryMismatch("shard count"));
        }
        for i in 0..store.shard_count() {
            let slots = c.next_usize()?;
            let key_words = c.next_usize()?;
            let segs = c.next_usize()?;
            if segs == 0 || segs > 64 {
                return Err(SnapshotError::Corrupt("segment count out of range"));
            }
            let mut out_words = Vec::with_capacity(segs);
            let mut fp_words = Vec::with_capacity(segs);
            for _ in 0..segs {
                out_words.push(c.next_usize()?);
                fp_words.push(c.next_usize()?);
            }
            let counters = c.take(STATS_WORDS + 2)?;
            if counters.iter().any(|&w| w >= COUNTER_LIMIT) {
                return Err(SnapshotError::Corrupt("counter out of range"));
            }
            let stats = stats_from_words(&counters[..STATS_WORDS]);
            let (bypassed_total, dropped_records) =
                (counters[STATS_WORDS], counters[STATS_WORDS + 1]);
            let entries = c.next_usize()?;
            if entries > slots {
                return Err(SnapshotError::Corrupt("more entries than slots"));
            }
            store.with_shard(i, |t| {
                let fresh = t
                    .snapshot_geometry()
                    .ok_or(SnapshotError::GeometryMismatch("table kind"))?;
                if fresh != (slots, key_words, out_words.clone(), fp_words.clone()) {
                    return Err(SnapshotError::GeometryMismatch("shard shape"));
                }
                // The widths now match a real table, so their sum cannot
                // overflow.
                let stride =
                    key_words + out_words.iter().sum::<usize>() + fp_words.iter().sum::<usize>();
                t.clear();
                for _ in 0..entries {
                    let slot = c.next_usize()?;
                    let meta = c.next()?;
                    let row = c.take(stride)?;
                    if !t.import_row(slot, meta, row) {
                        return Err(SnapshotError::Corrupt("entry row rejected"));
                    }
                }
                t.restore_baseline(stats, bypassed_total, dropped_records);
                Ok(())
            })?;
        }
    }
    if c.pos != body.len() {
        return Err(SnapshotError::Corrupt("trailing words after last shard"));
    }
    Ok(())
}

/// Reads the snapshot at `path` into `stores`; see [`restore_words`].
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] (treat any error as "cold-start").
pub fn read_snapshot(stores: &mut [&mut ShardedTable], path: &Path) -> Result<(), SnapshotError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() % 8 != 0 {
        return Err(SnapshotError::Truncated);
    }
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect();
    restore_words(stores, &words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableSpec;

    fn spec(slots: usize, segs: usize) -> TableSpec {
        TableSpec {
            slots,
            key_words: 1,
            out_words: vec![1; segs],
        }
    }

    fn build(slots: usize, segs: usize, shards: usize) -> ShardedTable {
        ShardedTable::try_from_spec(&spec(slots, segs), shards).unwrap()
    }

    fn build_fp(slots: usize, fp_widths: &[usize], shards: usize) -> ShardedTable {
        ShardedTable::try_from_plan(&spec(slots, fp_widths.len()), fp_widths, shards).unwrap()
    }

    #[test]
    fn round_trip_preserves_entries_and_stats() {
        let a = build_fp(64, &[2], 4);
        let mut out = Vec::new();
        // 16 keys with distinct mod-16 residues: no direct-map collisions,
        // so every recorded entry is still resident at snapshot time.
        for k in 0..16u64 {
            if !a.lookup(0, &[k], &mut out) {
                a.record_dep(0, &[k], &[k * 3], &[k, k + 1]);
            }
        }
        let mut accept = |_: &[u64]| true;
        for k in 0..16u64 {
            assert!(a.lookup_dep(0, &[k], &mut out, false, &mut accept));
        }
        let words = snapshot_words(&[&a]);
        let mut b = build_fp(64, &[2], 4);
        restore_words(&mut [&mut b], &words).unwrap();
        assert_eq!(b.stats(), a.stats(), "statistics baseline restored");
        let mut seen = Vec::new();
        for k in 0..16u64 {
            let mut grab = |fp: &[u64]| {
                seen = fp.to_vec();
                true
            };
            assert!(b.lookup_dep(0, &[k], &mut out, false, &mut grab));
            assert_eq!(out, vec![k * 3]);
            assert_eq!(seen, vec![k, k + 1], "fingerprints survive the trip");
        }
    }

    #[test]
    fn merged_stores_round_trip() {
        let a = build_fp(32, &[0, 1, 0], 2);
        let mut out = Vec::new();
        a.record(0, &[7], &[70]);
        a.record_dep(1, &[7], &[71], &[9]);
        a.record(2, &[8], &[82]);
        let words = snapshot_words(&[&a]);
        let mut b = build_fp(32, &[0, 1, 0], 2);
        restore_words(&mut [&mut b], &words).unwrap();
        assert!(b.lookup(0, &[7], &mut out));
        assert_eq!(out, vec![70]);
        let mut ok = |fp: &[u64]| fp == [9];
        assert!(b.lookup_dep(1, &[7], &mut out, true, &mut ok));
        assert_eq!(out, vec![71]);
        assert!(b.lookup(2, &[8], &mut out));
        assert_eq!(out, vec![82]);
        assert!(!b.lookup(1, &[8], &mut out), "unset valid bit stays unset");
    }

    #[test]
    fn corrupt_streams_are_refused_not_panicked() {
        let a = build(16, 1, 2);
        a.record(0, &[3], &[30]);
        let good = snapshot_words(&[&a]);

        let mut b = build(16, 1, 2);
        // Truncation (checksum word gone).
        let truncated = &good[..good.len() - 1];
        assert!(matches!(
            restore_words(&mut [&mut b], truncated),
            Err(SnapshotError::ChecksumMismatch | SnapshotError::Truncated)
        ));
        // Bit flip mid-stream.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            restore_words(&mut [&mut b], &flipped),
            Err(SnapshotError::ChecksumMismatch)
        ));
        // Recomputes the trailing checksum so the tampered stream is
        // "valid" and the targeted structural check is what rejects it.
        fn fix_checksum(words: &mut [u64]) {
            let n = words.len();
            words[n - 1] = snapshot_checksum(&words[..n - 1]);
        }
        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 1;
        fix_checksum(&mut bad_magic);
        assert!(matches!(
            restore_words(&mut [&mut b], &bad_magic),
            Err(SnapshotError::BadMagic)
        ));
        // Version bump.
        let mut bumped = good.clone();
        bumped[1] += 1;
        fix_checksum(&mut bumped);
        assert!(matches!(
            restore_words(&mut [&mut b], &bumped),
            Err(SnapshotError::UnsupportedVersion(v)) if v == SNAPSHOT_VERSION + 1
        ));
        // Empty stream.
        assert!(matches!(
            restore_words(&mut [&mut b], &[]),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn geometry_mismatches_are_refused() {
        let a = build(64, 1, 4);
        a.record(0, &[1], &[10]);
        let words = snapshot_words(&[&a]);
        // Different shard count.
        let mut b = build(64, 1, 8);
        assert!(matches!(
            restore_words(&mut [&mut b], &words),
            Err(SnapshotError::GeometryMismatch(_))
        ));
        // Different slot budget.
        let mut c = build(128, 1, 4);
        assert!(matches!(
            restore_words(&mut [&mut c], &words),
            Err(SnapshotError::GeometryMismatch(_))
        ));
        // Different store count.
        let mut d1 = build(64, 1, 4);
        let mut d2 = build(64, 1, 4);
        assert!(matches!(
            restore_words(&mut [&mut d1, &mut d2], &words),
            Err(SnapshotError::GeometryMismatch("store count"))
        ));
    }

    #[test]
    fn file_round_trip_and_cold_fallback() {
        let dir = std::env::temp_dir().join("compreuse-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snap");
        let a = build(32, 1, 2);
        let mut out = Vec::new();
        for k in 0..10u64 {
            a.record(0, &[k], &[k + 100]);
        }
        write_snapshot(&[&a], &path).unwrap();
        let mut b = build(32, 1, 2);
        read_snapshot(&mut [&mut b], &path).unwrap();
        for k in 0..10u64 {
            assert!(b.lookup(0, &[k], &mut out));
            assert_eq!(out, vec![k + 100]);
        }
        // Truncated file: typed error, not a panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        let mut c = build(32, 1, 2);
        assert!(read_snapshot(&mut [&mut c], &path).is_err());
        // Missing file.
        let mut d = build(32, 1, 2);
        assert!(matches!(
            read_snapshot(&mut [&mut d], &dir.join("absent.snap")),
            Err(SnapshotError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restored_store_answers_warm_hits() {
        let a = build(64, 1, 4);
        a.record(0, &[5], &[50]);
        let words = snapshot_words(&[&a]);
        let mut b = build(64, 1, 4);
        restore_words(&mut [&mut b], &words).unwrap();
        let mut out = Vec::new();
        let before = b.stats().hits;
        assert!(b.lookup(0, &[5], &mut out));
        assert_eq!(out, vec![50]);
        assert_eq!(b.stats().hits, before + 1, "the restored entry hits");
    }
}
