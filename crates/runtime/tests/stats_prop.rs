//! Property tests for the statistics invariants every table kind must
//! uphold under arbitrary operation sequences:
//!
//! - `hits + misses == accesses` (every lookup is exactly one of the two);
//! - `collisions <= evictions <= insertions` (a collision is an eviction,
//!   an eviction is an insertion);
//! - the per-segment counters sum to the table's aggregate stats.

use memo_runtime::{MemoTable, TableSpec, TableStats};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Lookup of a key for a segment slot (taken modulo the table's
    /// segment count).
    Lookup(usize, u64),
    Record(usize, u64, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..3usize, 0..40u64).prop_map(|(s, k)| Op::Lookup(s, k)),
            (0..3usize, 0..40u64, 0..1000u64).prop_map(|(s, k, v)| Op::Record(s, k, v)),
        ],
        0..300,
    )
}

fn spec(slots: usize) -> TableSpec {
    spec_segs(slots, 1)
}

fn spec_segs(slots: usize, segs: usize) -> TableSpec {
    TableSpec {
        slots,
        key_words: 1,
        out_words: vec![1; segs],
    }
}

fn check_invariants(stats: &TableStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        stats.hits + stats.misses,
        stats.accesses,
        "every lookup is exactly a hit or a miss"
    );
    prop_assert!(stats.collisions <= stats.evictions);
    prop_assert!(stats.evictions <= stats.insertions);
    prop_assert!(stats.hit_ratio() >= 0.0 && stats.hit_ratio() <= 1.0);
    // Collision rate is per *lookup*; an arbitrary sequence may record
    // (and collide) more often than it looks up, so only non-negativity
    // and finiteness are unconditional. The ≤ 1 bound holds under the
    // VM's probe-then-record discipline (separate property below).
    prop_assert!(stats.collision_rate() >= 0.0 && stats.collision_rate().is_finite());
    Ok(())
}

fn drive(table: &mut MemoTable, segs: usize, ops: &[Op]) {
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::Lookup(s, k) => {
                table.lookup(s % segs, &[k], &mut out);
            }
            Op::Record(s, k, v) => table.record(s % segs, &[k], &[v]),
        }
    }
}

proptest! {
    /// The invariants hold for all three kinds, at sizes small enough to
    /// force collisions and large enough to avoid them.
    #[test]
    fn stats_invariants_hold_on_all_kinds(ops in arb_ops(), small in proptest::bool::ANY) {
        let slots = if small { 4 } else { 64 };
        for mut table in [
            MemoTable::try_direct(&spec(slots)).expect("valid spec"),
            MemoTable::try_lru(&spec(slots)).expect("valid spec"),
            MemoTable::try_merged(&spec(slots)).expect("valid spec"),
        ] {
            drive(&mut table, 1, &ops);
            check_invariants(table.stats())?;
        }
    }

    /// Per-segment attribution partitions the run: the segments'
    /// counters sum to the table's aggregate, on every kind (slot 0 only
    /// for unmerged specs, three segments for the merged one).
    #[test]
    fn per_segment_stats_sum_to_aggregate_stats(ops in arb_ops()) {
        for (mut table, segs) in [
            (MemoTable::try_direct(&spec(8)).expect("valid spec"), 1),
            (MemoTable::try_lru(&spec(8)).expect("valid spec"), 1),
            (MemoTable::try_merged(&spec_segs(8, 3)).expect("valid spec"), 3),
        ] {
            drive(&mut table, segs, &ops);
            let mut per_seg = TableStats::default();
            for s in table.per_segment() {
                per_seg.merge(s);
            }
            prop_assert_eq!(&per_seg, table.stats());
            check_invariants(table.stats())?;
        }
    }

    /// Under the transformed code's discipline — record only after a
    /// missed lookup — collisions cannot outnumber accesses, so the
    /// collision rate is a true fraction.
    #[test]
    fn probe_then_record_bounds_the_collision_rate(keys in prop::collection::vec(0..40u64, 0..300)) {
        for mut table in [
            MemoTable::try_direct(&spec(4)).expect("valid spec"),
            MemoTable::try_lru(&spec(4)).expect("valid spec"),
            MemoTable::try_merged(&spec(4)).expect("valid spec"),
        ] {
            let mut out = Vec::new();
            for &k in &keys {
                if !table.lookup(0, &[k], &mut out) {
                    table.record(0, &[k], &[k ^ 0xFFFF]);
                }
            }
            let s = table.stats();
            prop_assert!(s.collisions <= s.misses);
            prop_assert!(s.collision_rate() <= 1.0);
            check_invariants(s)?;
        }
    }
}
