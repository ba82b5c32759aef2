//! Property tests for the sharded concurrent store.
//!
//! Placement: a [`ShardedTable`] splits the planned index over its
//! shards, so at any shard count it answers every probe exactly as the
//! private [`MemoTable`] of the same spec does, with equal statistics.
//!
//! Statistics: under arbitrary concurrent traffic, the merged
//! [`memo_runtime::TableStats`] must equal the sum of the per-shard
//! stats, and no access may be lost or double-counted — every lookup
//! issued by any thread shows up exactly once in exactly one shard (each
//! shard's counters sit behind that shard's lock, so contention can
//! reorder but never drop updates).

use memo_runtime::{FpValidator, MemoTable, ShardedTable, TableSpec, TableStats};
use proptest::prelude::*;

fn spec(slots: usize, out_words: usize) -> TableSpec {
    TableSpec {
        slots,
        key_words: 1,
        out_words: vec![1; out_words],
    }
}

/// Sums per-shard stats the way `ShardedTable::stats` merges them.
fn shard_sum(t: &ShardedTable) -> TableStats {
    let mut total = TableStats::default();
    for s in t.shard_stats() {
        total.merge(&s);
    }
    total
}

/// A table's key, built from one seed so that keys of every width
/// collide as often as the seeds do.
fn key_of(seed: u64, key_words: usize) -> Vec<u64> {
    (0..key_words as u64).map(|i| seed + i).collect()
}

/// One probe or recording against segment `pick % segments`:
/// `(kind, pick, key seed, fingerprint seed)`. Kinds: 0 `lookup`,
/// 1 `lookup_dep`, 2 `record` where the table takes an entry without a
/// fingerprint, 3 `record_dep` with the planned fingerprint.
type Op = (u8, usize, u64, u64);

/// The probe surface the private table and the sharded store share.
trait Table {
    fn get(&mut self, seg: usize, key: &[u64], out: &mut Vec<u64>) -> bool;
    fn get_dep(
        &mut self,
        seg: usize,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        v: FpValidator,
    ) -> bool;
    fn put(&mut self, seg: usize, key: &[u64], outputs: &[u64]);
    fn put_dep(&mut self, seg: usize, key: &[u64], outputs: &[u64], fp: &[u64]);
}

macro_rules! impl_table {
    ($($t:ty),*) => {$(
        impl Table for $t {
            fn get(&mut self, seg: usize, key: &[u64], out: &mut Vec<u64>) -> bool {
                self.lookup(seg, key, out)
            }
            fn get_dep(
                &mut self,
                seg: usize,
                key: &[u64],
                out: &mut Vec<u64>,
                green: bool,
                v: FpValidator,
            ) -> bool {
                self.lookup_dep(seg, key, out, green, v)
            }
            fn put(&mut self, seg: usize, key: &[u64], outputs: &[u64]) {
                self.record(seg, key, outputs)
            }
            fn put_dep(&mut self, seg: usize, key: &[u64], outputs: &[u64], fp: &[u64]) {
                self.record_dep(seg, key, outputs, fp)
            }
        }
    )*};
}

impl_table!(MemoTable, ShardedTable);

/// Applies `op` to `t` and returns what the caller observes: the verdict,
/// the outputs, and every fingerprint the validator was shown.
fn apply(t: &mut dyn Table, segs: &[(usize, usize)], key_words: usize, op: Op) -> (bool, Vec<u64>) {
    let (kind, pick, seed, fp_seed) = op;
    let seg = pick % segs.len();
    let (out_w, fp_w) = segs[seg];
    let key = key_of(seed, key_words);
    let outputs: Vec<u64> = (0..out_w as u64).map(|i| seed * 31 + fp_seed + i).collect();
    let fp: Vec<u64> = (0..fp_w as u64).map(|i| fp_seed + i).collect();
    let mut out = Vec::new();
    let mut seen = Vec::new();
    let hit = match kind {
        0 => t.get(seg, &key, &mut out),
        1 => {
            let mut validate = |fp: &[u64]| {
                seen.extend_from_slice(fp);
                fp[0] % 4 == fp_seed % 4
            };
            t.get_dep(seg, &key, &mut out, fp_seed % 2 == 1, &mut validate)
        }
        // A merged table's fingerprint groups have fixed widths; a direct
        // table also takes an exact-match entry where one was planned.
        2 if fp_w == 0 || segs.len() == 1 => {
            t.put(seg, &key, &outputs);
            true
        }
        _ => {
            t.put_dep(seg, &key, &outputs, &fp);
            true
        }
    };
    out.extend(seen);
    (hit, out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Any spec (direct or merged, power-of-two slots or not, fewer
    /// slots than shards) and any interleaving of lookups, validating
    /// lookups and recordings: a sharded store at 1, 2, 4 and 8 shards
    /// answers every probe as the private table of the same spec does,
    /// and ends with the same statistics and the same contents.
    #[test]
    fn sharded_store_answers_as_the_private_table(
        slots in prop_oneof![Just(1usize), Just(3), Just(8), Just(64), Just(100), 1..130usize],
        key_words in 1..3usize,
        segs in prop::collection::vec((1..3usize, 0..3usize), 1..5),
        ops in prop::collection::vec((0..4u8, 0..8usize, 0..256u64, 0..8u64), 1..300),
    ) {
        let spec = TableSpec {
            slots,
            key_words,
            out_words: segs.iter().map(|&(o, _)| o).collect(),
        };
        let fp_widths: Vec<usize> = segs.iter().map(|&(_, f)| f).collect();
        let mut private = MemoTable::try_from_plan(&spec, &fp_widths).expect("valid spec");
        let mut stores: Vec<ShardedTable> = [1, 2, 4, 8]
            .iter()
            .map(|&n| ShardedTable::try_from_plan(&spec, &fp_widths, n).expect("valid spec"))
            .collect();
        // Every key at the end, so the contents are compared too.
        let sweep = (0..256u64).flat_map(|seed| (0..segs.len()).map(move |seg| (0, seg, seed, 0)));
        for (step, op) in ops.iter().copied().chain(sweep).enumerate() {
            let want = apply(&mut private, &segs, key_words, op);
            for store in &mut stores {
                let got = apply(store, &segs, key_words, op);
                prop_assert_eq!(
                    &got, &want,
                    "step {} {:?}, {} shards, spec {:?}", step, op, store.shard_count(), spec
                );
            }
        }
        for store in &stores {
            prop_assert_eq!(store.stats(), *private.stats(), "{} shards", store.shard_count());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// T threads each issue L lookup+record pairs over a shared key range;
    /// afterwards the merged stats equal the per-shard sum and account for
    /// every access exactly once.
    #[test]
    fn merged_stats_equal_per_shard_sum_under_contention(
        threads in 2..5usize,
        lookups in 1..120u64,
        shards in 1..9usize,
        slots in 1..48usize,
        key_range in 1..64u64,
        out_words in 1..3usize,
    ) {
        let table = ShardedTable::try_from_spec(&spec(slots, out_words), shards)
            .expect("valid spec");
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = &table;
                s.spawn(move || {
                    let mut out = Vec::new();
                    // All traffic targets segment slot 0, whose output
                    // width is out_words[0] == 1 regardless of how many
                    // segments the table merges.
                    let outputs = [7u64];
                    for i in 0..lookups {
                        // Distinct threads hammer overlapping keys so
                        // shards genuinely contend.
                        let k = (i + t as u64) % key_range;
                        if !table.lookup(0, &[k], &mut out) {
                            table.record(0, &[k], &outputs);
                        }
                    }
                });
            }
        });
        let merged = table.stats();
        let summed = shard_sum(&table);
        prop_assert_eq!(merged, summed, "merge must be lossless");
        // No lost or double-counted accesses: every lookup any thread
        // issued is in the totals, and nothing else is.
        prop_assert_eq!(merged.accesses, threads as u64 * lookups);
        prop_assert_eq!(merged.hits + merged.misses, merged.accesses);
        // Per-shard deltas partition the totals: each access landed in
        // exactly one shard.
        let per_shard = table.shard_stats();
        prop_assert_eq!(per_shard.len(), table.shard_count());
        prop_assert_eq!(
            per_shard.iter().map(|s| s.accesses).sum::<u64>(),
            merged.accesses
        );
    }

    /// Interleaved batches: deltas taken between rounds also sum shard-wise.
    #[test]
    fn round_deltas_sum_shard_wise(
        rounds in 1..4usize,
        per_round in 1..40u64,
        shards in 1..5usize,
    ) {
        let table = ShardedTable::try_from_spec(&spec(16, 1), shards).expect("valid spec");
        let mut before = table.stats();
        let mut before_shards = table.shard_stats();
        for r in 0..rounds {
            std::thread::scope(|s| {
                for t in 0..3u64 {
                    let table = &table;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..per_round {
                            let k = r as u64 * 131 + i * 3 + t;
                            if !table.lookup(0, &[k], &mut out) {
                                table.record(0, &[k], &[k]);
                            }
                        }
                    });
                }
            });
            let after = table.stats();
            let after_shards = table.shard_stats();
            let delta = after.delta_since(&before);
            prop_assert_eq!(delta.accesses, 3 * per_round);
            let mut shard_delta = TableStats::default();
            for (now, was) in after_shards.iter().zip(&before_shards) {
                shard_delta.merge(&now.delta_since(was));
            }
            prop_assert_eq!(delta, shard_delta);
            before = after;
            before_shards = after_shards;
        }
    }
}
