//! Release-gated contention stress test for the sharded store (DESIGN.md
//! §8e): writer threads churn `record`/evict against reader threads
//! hammering a hot key set on the same [`ShardedTable`], whose shards are
//! each one mutex around a table.
//!
//! Invariants under fire:
//!
//! 1. **Hits return recorded payloads** — every hit returns exactly the
//!    payload that was recorded for its key (the per-key payload function
//!    is deterministic, so an entry mixing two recordings is detectable).
//! 2. **Lossless accounting** — the per-shard statistics sum exactly to
//!    the merged aggregate, and probe traffic splits exactly into hits
//!    plus misses.

use memo_runtime::{ShardedTable, TableSpec, TableStats};

const KEY_WORDS: usize = 2;
const OUT_WORDS: usize = 2;
const HOT_KEYS: usize = 32;

/// The only payload ever recorded for `key`. Both words depend on the
/// whole key, so a hit assembled from two different recordings would not
/// verify.
fn payload_of(key: &[u64]) -> [u64; OUT_WORDS] {
    let mut out = [0u64; OUT_WORDS];
    for (j, w) in out.iter_mut().enumerate() {
        *w = key[0]
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key[1].rotate_left(j as u32 + 1) ^ j as u64);
    }
    out
}

fn hot_key(k: usize) -> [u64; KEY_WORDS] {
    [k as u64, 0x0048_4f54]
}

fn fresh_store() -> ShardedTable {
    let spec = TableSpec {
        slots: 128,
        key_words: KEY_WORDS,
        out_words: vec![OUT_WORDS],
    };
    let table = ShardedTable::try_from_spec(&spec, 4).expect("valid spec");
    for k in 0..HOT_KEYS {
        let key = hot_key(k);
        table.record(0, &key, &payload_of(&key));
    }
    table
}

/// One round of churn: `writers` threads re-record hot keys and insert
/// evicting cold keys while `readers` threads probe hot keys, verifying
/// every hit. Returns the number of torn hits observed (must be 0).
fn churn_round(
    table: &ShardedTable,
    writers: usize,
    readers: usize,
    ops: usize,
    round: u64,
) -> u64 {
    let mut torn = vec![0u64; readers];
    std::thread::scope(|s| {
        for w in 0..writers {
            s.spawn(move || {
                let mut cold = 0u64;
                for op in 0..ops {
                    if op % 3 == 0 {
                        // Cold insert: lands wherever its hash says and may
                        // evict a hot entry, forcing real churn.
                        cold += 1;
                        let key = [(round << 24) | ((w as u64) << 16) | cold, 0x434f_4c44];
                        table.record(0, &key, &payload_of(&key));
                    } else {
                        let key = hot_key((op + w) % HOT_KEYS);
                        table.record(0, &key, &payload_of(&key));
                    }
                }
            });
        }
        for (r, torn_slot) in torn.iter_mut().enumerate() {
            s.spawn(move || {
                let mut out = Vec::new();
                for op in 0..ops {
                    let key = hot_key((op * 7 + r) % HOT_KEYS);
                    if table.lookup(0, &key, &mut out) && out != payload_of(&key) {
                        *torn_slot += 1;
                    }
                }
            });
        }
    });
    torn.iter().sum()
}

#[test]
fn writers_churning_under_readers_stay_consistent() {
    if cfg!(debug_assertions) {
        // The stress needs release-mode probe rates to make readers and
        // writers contend for the same shard locks; a debug run would take
        // minutes and prove less.
        return;
    }
    let table = fresh_store();
    let mut torn = 0u64;
    // Each round is ~100k mixed operations.
    for round in 0..8 {
        torn += churn_round(&table, 2, 2, 25_000, round);
    }
    assert_eq!(torn, 0, "a hit returned a torn payload");
    let stats = table.stats();
    // Lossless merge: the aggregate equals the exact per-shard sum, and
    // probe traffic splits exactly into hits and misses.
    let mut summed = TableStats::default();
    for s in table.shard_stats() {
        summed.merge(&s);
    }
    assert_eq!(summed, stats, "per-shard stats lost counts in the merge");
    assert_eq!(stats.hits + stats.misses, stats.accesses);
}

#[test]
fn stats_snapshot_is_stable_once_quiescent() {
    if cfg!(debug_assertions) {
        return;
    }
    let table = fresh_store();
    churn_round(&table, 2, 2, 10_000, 0);
    // After all threads join, two reads of the merged stats must agree —
    // taking a snapshot changes no counter.
    assert_eq!(table.stats(), table.stats());
}
