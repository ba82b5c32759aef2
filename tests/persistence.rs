//! Snapshot persistence at the public API (DESIGN.md §8i).
//!
//! A property test drives arbitrary store contents — mixed exact and
//! dependency-fingerprinted segments, random key streams, admission on
//! or off — through a snapshot/restore round trip and requires the
//! restored store to be observationally identical: same statistics,
//! same hit/miss verdict and payload for every probe shape (exact,
//! green-validated, stale red). Regression tests then feed corrupt,
//! truncated, old-version and version-bumped snapshots to both the
//! word-level API
//! and a full `ReuseService`, requiring a clean cold start — never a
//! panic, never a partial import. A fuzz property mutates a real
//! snapshot (bit flips, truncations, splices, overwritten words) and
//! requires each mutation to restore exactly or cold-start.

use memo_runtime::{
    restore_words, snapshot_checksum, snapshot_words, ShardedTable, SnapshotError, TableSpec,
    SNAPSHOT_VERSION,
};
use proptest::prelude::*;

/// One generated segment: payload width and fingerprint width (0 =
/// exact-match segment).
type SegPlan = (usize, usize);

/// Builds a store for `slots`/`shards` with the given segment plan and
/// admission setting, declaring each segment's fingerprint width.
fn build_store(slots: usize, shards: usize, segs: &[SegPlan], admission: bool) -> ShardedTable {
    let spec = TableSpec {
        slots,
        key_words: 1,
        out_words: segs.iter().map(|(w, _)| *w).collect(),
    };
    let fp_widths: Vec<usize> = segs.iter().map(|(_, fp)| *fp).collect();
    let mut store =
        ShardedTable::try_from_plan(&spec, &fp_widths, shards).expect("generated spec is valid");
    store.set_admission(admission);
    store
}

/// Replays `keys` into `store`: fingerprinted segments record through
/// `record_dep`, exact segments through `record`, and every record is
/// preceded by a lookup so the stream accrues hits, misses, collisions,
/// and evictions (whatever the generated geometry produces — the round
/// trip must preserve all of it, collisions included).
fn populate(store: &ShardedTable, segs: &[SegPlan], keys: &[(u64, usize)]) {
    let mut out = Vec::new();
    for &(key, pick) in keys {
        let seg = pick % segs.len();
        let (width, fp_words) = segs[seg];
        store.lookup(seg, &[key], &mut out);
        let vals: Vec<u64> = (0..width as u64).map(|i| key.wrapping_mul(7) + i).collect();
        if fp_words > 0 {
            let fp: Vec<u64> = (0..fp_words as u64).map(|i| key ^ (i + 1)).collect();
            store.record_dep(seg, &[key], &vals, &fp);
        } else {
            store.record(seg, &[key], &vals);
        }
    }
}

/// Probes every key in all three shapes — exact lookup, green-validated
/// `lookup_dep`, and `lookup_dep` with a refusing validator (stale red) —
/// returning the verdicts and payloads as one comparable trace.
fn probe_trace(
    store: &ShardedTable,
    segs: &[SegPlan],
    keys: &[(u64, usize)],
) -> Vec<(bool, Vec<u64>)> {
    let mut trace = Vec::new();
    for &(key, pick) in keys {
        let seg = pick % segs.len();
        let mut out = Vec::new();
        let hit = store.lookup(seg, &[key], &mut out);
        trace.push((hit, out.clone()));
        let mut accept = |_fp: &[u64]| true;
        out.clear();
        let green = store.lookup_dep(seg, &[key], &mut out, true, &mut accept);
        trace.push((green, out.clone()));
        let mut refuse = |_fp: &[u64]| false;
        out.clear();
        let red = store.lookup_dep(seg, &[key], &mut out, true, &mut refuse);
        trace.push((red, out));
    }
    trace
}

fn seg_strategy() -> impl Strategy<Value = Vec<SegPlan>> {
    prop::collection::vec((1usize..=2, 0usize..=2), 1..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip property: for arbitrary geometry and contents, the
    /// restored store is observationally identical to the original —
    /// statistics carry over through the baseline, and every probe
    /// (exact, green, stale red) returns the same verdict and payload.
    #[test]
    fn snapshot_round_trip_is_observationally_identical(
        slots_pick in 0usize..3,
        shards_pick in 0usize..3,
        segs in seg_strategy(),
        keys in prop::collection::vec((0u64..512, 0usize..8), 1..80),
        admission in prop::bool::ANY,
    ) {
        let slots = [32, 64, 128][slots_pick];
        let shards = [1, 2, 4][shards_pick];
        let original = build_store(slots, shards, &segs, admission);
        populate(&original, &segs, &keys);

        let words = snapshot_words(&[&original]);
        let mut restored = build_store(slots, shards, &segs, admission);
        restore_words(&mut [&mut restored], &words).expect("round trip restores");

        prop_assert_eq!(restored.stats(), original.stats());
        let want = probe_trace(&original, &segs, &keys);
        let got = probe_trace(&restored, &segs, &keys);
        prop_assert_eq!(got, want);
        // Both traces mutated the counters identically, so the stores
        // still agree after the probes.
        prop_assert_eq!(restored.stats(), original.stats());
    }
}

/// A store, its snapshot words, and the key set that filled it — the
/// fixture for the corruption regressions.
fn snapshot_fixture() -> (Vec<SegPlan>, Vec<(u64, usize)>, Vec<u64>) {
    let segs = vec![(1, 0), (2, 2)];
    let keys: Vec<(u64, usize)> = (0..24u64).map(|k| (k * 5 + 1, k as usize)).collect();
    let store = build_store(64, 2, &segs, false);
    populate(&store, &segs, &keys);
    (segs, keys, snapshot_words(&[&store]))
}

/// Recomputes the trailing checksum word after a deliberate mutation so
/// a test reaches the validation stage it targets instead of tripping
/// the checksum first. An empty stream has no checksum word to fix.
fn fix_checksum(words: &mut [u64]) {
    if let Some((last, body)) = words.split_last_mut() {
        *last = snapshot_checksum(body);
    }
}

/// After a refused restore the target must still be a working cold
/// store: empty, recordable, probeable.
fn assert_cold_and_working(store: &ShardedTable) {
    let mut out = Vec::new();
    store.record(0, &[3], &[42]);
    assert!(store.lookup(0, &[3], &mut out), "cold store still records");
    assert_eq!(out, vec![42]);
}

#[test]
fn truncated_snapshots_are_refused() {
    let (segs, _keys, words) = snapshot_fixture();
    for cut in [1usize, 7, words.len() / 2] {
        let mut target = build_store(64, 2, &segs, false);
        let short = &words[..words.len() - cut];
        let err = restore_words(&mut [&mut target], short).expect_err("truncation must fail");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated | SnapshotError::ChecksumMismatch
            ),
            "unexpected error for truncation by {cut}: {err}"
        );
        assert_cold_and_working(&target);
    }
}

#[test]
fn bitflipped_snapshots_are_refused() {
    let (segs, _keys, words) = snapshot_fixture();
    for pos in [0usize, 2, words.len() / 2, words.len() - 1] {
        let mut bad = words.clone();
        bad[pos] ^= 1 << 17;
        let mut target = build_store(64, 2, &segs, false);
        let err = restore_words(&mut [&mut target], &bad).expect_err("bit flip must fail");
        // Which stage catches the flip depends on the word hit; the
        // contract is only that *some* stage does, without a panic.
        let _ = err.to_string();
        assert_cold_and_working(&target);
    }
}

/// Writes the checksum versions 1 to 3 used, a wrapping sum of the body,
/// into the stream's last word.
fn sum_checksum(words: &mut [u64]) {
    if let Some((last, body)) = words.split_last_mut() {
        *last = body.iter().fold(0u64, |acc, w| acc.wrapping_add(*w));
    }
}

/// A version-1 stream in that format's own layout: one empty store of
/// one single-segment shard, whose shard carries three telemetry words
/// (epoch, bypassed_total, dropped_records) where later versions have two.
fn v1_snapshot(slots: u64) -> Vec<u64> {
    let mut words = vec![u64::from_le_bytes(*b"CRSNAP01"), 1, 1, 1, slots, 1, 1, 1, 0];
    words.extend([0u64; 13]);
    words.extend([7, 0, 0]);
    words.push(0);
    words.push(0);
    sum_checksum(&mut words);
    words
}

/// A version-2 stream in that format's own layout: one empty store of
/// one single-segment shard, whose shard carries 13 statistics words
/// where later versions have nine (v2 also stored four always-0 counters
/// of retired layers), then two telemetry words.
fn v2_snapshot(slots: u64) -> Vec<u64> {
    let mut words = vec![u64::from_le_bytes(*b"CRSNAP01"), 2, 1, 1, slots, 1, 1, 1, 0];
    words.extend([0u64; 13]);
    words.extend([0, 0]);
    words.push(0);
    words.push(0);
    sum_checksum(&mut words);
    words
}

#[test]
fn version_bumped_snapshots_are_refused() {
    let (segs, _keys, mut future) = snapshot_fixture();
    // Version 3 had today's layout under the summed checksum.
    let mut v3 = future.clone();
    v3[1] = 3;
    sum_checksum(&mut v3);
    // Version 4 had today's layout and checksum under the old shard
    // placement: its geometry matches, so only the version refuses it.
    let mut v4 = future.clone();
    v4[1] = 4;
    fix_checksum(&mut v4);
    future[1] = SNAPSHOT_VERSION + 1;
    fix_checksum(&mut future);
    let cases = [
        (v1_snapshot(64), 1, build_store(64, 1, &[(1, 0)], false)),
        (v2_snapshot(64), 2, build_store(64, 1, &[(1, 0)], false)),
        (v3, 3, build_store(64, 2, &segs, false)),
        (v4, 4, build_store(64, 2, &segs, false)),
        (
            future,
            SNAPSHOT_VERSION + 1,
            build_store(64, 2, &segs, false),
        ),
    ];
    for (words, version, mut target) in cases {
        let err = restore_words(&mut [&mut target], &words).expect_err("other version must fail");
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion(v) if v == version),
            "unexpected error for version {version}: {err}"
        );
        assert_cold_and_working(&target);
    }
}

#[test]
fn geometry_mismatches_are_refused() {
    let (segs, _keys, words) = snapshot_fixture();
    // Same word stream, different target geometry: more slots.
    let mut wrong = build_store(128, 2, &segs, false);
    let err = restore_words(&mut [&mut wrong], &words).expect_err("slot mismatch must fail");
    assert!(
        matches!(
            err,
            SnapshotError::GeometryMismatch(_) | SnapshotError::Corrupt(_)
        ),
        "unexpected error: {err}"
    );
    assert_cold_and_working(&wrong);
}

/// Index of the first shard's first statistics word (accesses) in a
/// one-store snapshot: magic, version, store count, shard count, then
/// the shard's slots, key words, segment count and two widths per
/// segment.
fn first_stats_word(segs: &[SegPlan]) -> usize {
    7 + 2 * segs.len()
}

/// Found by the fuzz below: a restored counter at the top of its range
/// made the next probe overflow it (a panic in debug builds).
#[test]
fn out_of_range_counters_are_refused() {
    let (segs, _keys, words) = snapshot_fixture();
    let mut bad = words.clone();
    bad[first_stats_word(&segs)] = u64::MAX;
    fix_checksum(&mut bad);
    let mut target = build_store(64, 2, &segs, false);
    let err = restore_words(&mut [&mut target], &bad).expect_err("a huge counter must fail");
    assert!(
        matches!(err, SnapshotError::Corrupt(_)),
        "unexpected error: {err}"
    );
    assert_cold_and_working(&target);
}

/// Found by the fuzz below: under a summed checksum two words could trade
/// places and the stream still restored, with other contents.
#[test]
fn swapped_words_fail_the_checksum() {
    let (segs, _keys, words) = snapshot_fixture();
    let at = first_stats_word(&segs);
    assert_ne!(words[at], words[at + 1], "accesses and hits differ");
    let mut swapped = words.clone();
    swapped.swap(at, at + 1);
    let mut target = build_store(64, 2, &segs, false);
    let err = restore_words(&mut [&mut target], &swapped).expect_err("a swap must fail");
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch),
        "unexpected error: {err}"
    );
    assert_cold_and_working(&target);
}

/// Cases per fuzz property in a debug build; release runs ten times as
/// many.
fn cases(debug: u32) -> u32 {
    if cfg!(debug_assertions) {
        debug
    } else {
        10 * debug
    }
}

/// The stores the fuzz snapshots, as `(slots, shards, segments)`: a
/// merged table with an exact and a fingerprinted segment over two
/// shards, and a one-segment fingerprinted direct table.
const FUZZ_STORES: [(usize, usize, &[SegPlan]); 2] =
    [(64, 2, &[(1, 0), (2, 2)]), (32, 1, &[(1, 1)])];

/// Keys the fuzz fills and later probes the stores with.
fn fuzz_keys() -> Vec<(u64, usize)> {
    (0..40u64).map(|k| (k * 3 + 1, k as usize)).collect()
}

/// Empty stores of [`FUZZ_STORES`]' shapes.
fn fuzz_targets() -> Vec<ShardedTable> {
    FUZZ_STORES
        .iter()
        .map(|&(slots, shards, segs)| build_store(slots, shards, segs, false))
        .collect()
}

/// The real snapshot every fuzz case mutates.
fn fuzz_snapshot() -> Vec<u64> {
    let stores = fuzz_targets();
    for (store, (_, _, segs)) in stores.iter().zip(FUZZ_STORES) {
        populate(store, segs, &fuzz_keys());
    }
    let refs: Vec<&ShardedTable> = stores.iter().collect();
    snapshot_words(&refs)
}

/// One edit of a snapshot word stream. Positions are taken modulo the
/// stream's length when applied.
#[derive(Debug, Clone)]
enum WordEdit {
    /// Flip one bit of one word.
    FlipBit { at: usize, bit: u32 },
    /// Keep only the first `len` words.
    Truncate { len: usize },
    /// Copy `len` words starting at `from` over the words at `to`.
    Splice { from: usize, to: usize, len: usize },
    /// Overwrite one word.
    Word { at: usize, word: u64 },
}

fn arb_word_edit() -> impl Strategy<Value = WordEdit> {
    prop_oneof![
        (0usize..4096, 0u32..64).prop_map(|(at, bit)| WordEdit::FlipBit { at, bit }),
        (0usize..4096).prop_map(|len| WordEdit::Truncate { len }),
        (0usize..4096, 0usize..4096, 1usize..=8).prop_map(|(from, to, len)| WordEdit::Splice {
            from,
            to,
            len
        }),
        // Small words land in counts and widths, words near the top of
        // the range reach the overflow edges, and any word the rest.
        (0usize..4096, 0u64..80).prop_map(|(at, word)| WordEdit::Word { at, word }),
        (0usize..4096, 0u64..80).prop_map(|(at, w)| WordEdit::Word {
            at,
            word: u64::MAX - w,
        }),
        (0usize..4096, 0u64..=u64::MAX).prop_map(|(at, word)| WordEdit::Word { at, word }),
    ]
}

fn apply_edit(words: &mut Vec<u64>, edit: &WordEdit) {
    let n = words.len();
    if n == 0 {
        return;
    }
    match *edit {
        WordEdit::FlipBit { at, bit } => words[at % n] ^= 1 << bit,
        WordEdit::Truncate { len } => words.truncate(len % n),
        WordEdit::Splice { from, to, len } => {
            let (from, to) = (from % n, to % n);
            let len = len.min(n - from).min(n - to);
            words.copy_within(from..from + len, to);
        }
        WordEdit::Word { at, word } => words[at % n] = word,
    }
}

/// Restores `words` into fresh stores of the fuzz shapes. Whatever the
/// verdict, the stores must keep working: after `Err` each is a cold
/// store, after `Ok` every probe shape still answers.
fn restore_fuzzed(words: &[u64]) -> bool {
    let mut targets = fuzz_targets();
    let mut refs: Vec<&mut ShardedTable> = targets.iter_mut().collect();
    let restored = restore_words(&mut refs, words).is_ok();
    for (store, (_, _, segs)) in targets.iter().zip(FUZZ_STORES) {
        if restored {
            probe_trace(store, segs, &fuzz_keys());
            let _ = store.stats();
        }
        assert_cold_and_working(store);
    }
    restored
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(2048)))]

    /// Fuzzes `restore_words` with bit flips, truncations, splices and
    /// overwritten words of a real two-store snapshot. Each mutation is
    /// fed twice: raw, where the checksum must refuse anything but the
    /// original words, and with the checksum recomputed, so the
    /// structural checks behind it are reached. Neither may panic.
    #[test]
    fn mutated_snapshots_restore_exactly_or_cold_start(
        edits in prop::collection::vec(arb_word_edit(), 1..=3),
    ) {
        let original = fuzz_snapshot();
        let mut words = original.clone();
        for edit in &edits {
            apply_edit(&mut words, edit);
        }
        let raw_ok = restore_fuzzed(&words);
        prop_assert!(
            !raw_ok || words == original,
            "edits {:?} changed the snapshot and it still restored",
            edits
        );
        fix_checksum(&mut words);
        restore_fuzzed(&words);
    }
}

/// End-to-end through `ReuseService`, with admission off and on: warm a
/// small service, snapshot it, "restart" by resetting the stores,
/// restore, and require the restored service to answer the same batch
/// with identical fingerprints at the warm hit ratio from its first
/// decile of requests on. Then corrupt the file on disk and require the
/// next restore to cold-start cleanly.
#[test]
fn service_restores_warm_and_cold_starts_on_corruption() {
    for admission in [false, true] {
        service_restore_round_trip(admission);
    }
}

fn service_restore_round_trip(admission: bool) {
    use bench::serve::{build_service, run_deciles, ServeOpts};

    let ws = vec![
        workloads::by_name("UNEPIC").expect("workload exists"),
        workloads::by_name("RASTA").expect("workload exists"),
    ];
    let opts = ServeOpts {
        scale: 0.05,
        requests_per_workload: 10, // 20 requests: deciles of 2
        admission,
        ..ServeOpts::default()
    };
    let (mut svc, requests) = build_service(&ws, &opts, 2);
    let baseline: Vec<u64> = svc.run_private_sequential(&requests).fingerprints();
    let cold = run_deciles(&svc, &requests);
    let warm = run_deciles(&svc, &requests);
    assert_eq!(cold.fingerprints, baseline, "cold answers match");
    assert_eq!(warm.fingerprints, baseline, "warm answers match");

    let path = std::env::temp_dir().join(format!(
        "compreuse-persistence-it-{}-{admission}.snap",
        std::process::id()
    ));
    svc.snapshot_to(&path).expect("snapshot writes");
    svc.reset_stores().expect("reset rebuilds stores");
    assert!(svc.restore_from(&path).is_restored(), "restore succeeds");
    let restored = run_deciles(&svc, &requests);
    assert_eq!(restored.fingerprints, baseline, "restored answers match");
    for (what, r, w, c) in [
        (
            "whole batch",
            restored.overall(),
            warm.overall(),
            cold.overall(),
        ),
        (
            "first decile",
            restored.first_decile(),
            warm.first_decile(),
            cold.first_decile(),
        ),
    ] {
        assert!(
            r >= w - 0.05,
            "admission {admission}: restored {what} resumes warm: {r:.4} vs {w:.4}"
        );
        assert!(
            r > c,
            "admission {admission}: restored {what} beats cold: {r:.4} vs {c:.4}"
        );
    }

    // Corrupt the file; the service must cold-start, not panic, and the
    // cold run must still produce the baseline answers.
    let mut bytes = std::fs::read(&path).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite");
    svc.reset_stores().expect("reset");
    let outcome = svc.restore_from(&path);
    assert!(!outcome.is_restored(), "corrupt file cold-starts");
    let after = svc.run(&requests);
    assert_eq!(after.fingerprints(), baseline, "cold answers still match");
    let _ = std::fs::remove_file(&path);
}
