//! Snapshot persistence at the public API (DESIGN.md §8i).
//!
//! A property test drives arbitrary store contents — mixed exact and
//! dependency-fingerprinted segments, random key streams, admission on
//! or off — through a snapshot/restore round trip and requires the
//! restored store to be observationally identical: same statistics,
//! same hit/miss verdict and payload for every probe shape (exact,
//! green-validated, forced red). Regression tests then feed corrupt,
//! truncated, and version-bumped snapshots to both the word-level API
//! and a full `ReuseService`, requiring a clean cold start — never a
//! panic, never a partial import.

use memo_runtime::{
    restore_words, snapshot_words, GuardPolicy, ShardedTable, SnapshotError, TableSpec,
    SNAPSHOT_VERSION,
};
use proptest::prelude::*;

/// One generated segment: payload width and fingerprint width (0 =
/// exact-match segment).
type SegPlan = (usize, usize);

/// Builds a store for `slots`/`shards` with the given segment plan and
/// admission setting, applying `set_deps` for fingerprinted segments.
fn build_store(slots: usize, shards: usize, segs: &[SegPlan], admission: bool) -> ShardedTable {
    let spec = TableSpec {
        slots,
        key_words: 1,
        out_words: segs.iter().map(|(w, _)| *w).collect(),
    };
    let mut store = ShardedTable::try_from_spec(&spec, shards).expect("generated spec is valid");
    for (seg, (_, fp)) in segs.iter().enumerate() {
        if *fp > 0 {
            store.set_deps(seg, *fp);
        }
    }
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
/// `lookup_dep`, and forced-red `lookup_dep` — returning the verdicts
/// and payloads as one comparable trace.
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
        let green = store.lookup_dep(seg, &[key], &mut out, true, Some(&mut accept));
        trace.push((green, out.clone()));
        out.clear();
        let red = store.lookup_dep(seg, &[key], &mut out, true, None);
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
    /// (exact, green, forced red) returns the same verdict and payload.
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
/// the checksum first.
fn fix_checksum(words: &mut [u64]) {
    let n = words.len();
    let sum = words[..n - 1]
        .iter()
        .fold(0u64, |acc, w| acc.wrapping_add(*w));
    words[n - 1] = sum;
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

#[test]
fn version_bumped_snapshots_are_refused() {
    let (segs, _keys, mut words) = snapshot_fixture();
    words[1] = SNAPSHOT_VERSION + 1;
    fix_checksum(&mut words);
    let mut target = build_store(64, 2, &segs, false);
    let err = restore_words(&mut [&mut target], &words).expect_err("future version must fail");
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion(v) if v == SNAPSHOT_VERSION + 1),
        "unexpected error: {err}"
    );
    assert_cold_and_working(&target);
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

#[test]
fn resized_shard_snapshots_are_refused_by_a_spec_built_store() {
    let segs = vec![(1, 0)];
    let mut resized = build_store(1, 1, &segs, false);
    resized.set_policy(GuardPolicy {
        enabled: true,
        epoch_len: 16,
        k_epochs: 1,
        max_resizes: 1,
        ..GuardPolicy::default()
    });
    // Every new key evicts the last from the one slot, yet each hits once
    // recorded: the guard doubles the shard instead of bypassing it.
    let mut out = Vec::new();
    for k in 0..8u64 {
        resized.lookup(0, &[k], &mut out);
        resized.record(0, &[k], &[k]);
        assert!(resized.lookup(0, &[k], &mut out));
    }
    assert_eq!(resized.slots(), 2, "the guard resized the shard");
    let words = snapshot_words(&[&resized]);

    let mut target = build_store(1, 1, &segs, false);
    let err = restore_words(&mut [&mut target], &words).expect_err("shapes differ");
    assert!(
        matches!(err, SnapshotError::GeometryMismatch(_)),
        "unexpected error: {err}"
    );
    assert_cold_and_working(&target);
}

/// End-to-end through `ReuseService`: warm a tiny service, snapshot it,
/// "restart" by resetting the stores, restore, and require the restored
/// service to answer the same batch with identical fingerprints at a
/// warm hit ratio. Then corrupt the file on disk and require the next
/// restore to cold-start cleanly.
#[test]
fn service_restores_warm_and_cold_starts_on_corruption() {
    use bench::serve::{build_service, ServeOpts};

    let ws = vec![workloads::by_name("UNEPIC").expect("workload exists")];
    let opts = ServeOpts {
        scale: 0.05,
        requests_per_workload: 4,
        ..ServeOpts::default()
    };
    let (mut svc, requests) = build_service(&ws, &opts, 2);
    let baseline: Vec<u64> = svc.run_private_sequential(&requests).fingerprints();
    let cold = svc.run(&requests);
    let warm = svc.run(&requests);
    assert_eq!(warm.fingerprints(), baseline, "warm answers match");

    let path = std::env::temp_dir().join(format!(
        "compreuse-persistence-it-{}.snap",
        std::process::id()
    ));
    svc.snapshot_to(&path).expect("snapshot writes");
    svc.reset_stores().expect("reset rebuilds stores");
    assert!(svc.restore_from(&path).is_restored(), "restore succeeds");
    let restored = svc.run(&requests);
    assert_eq!(restored.fingerprints(), baseline, "restored answers match");
    assert!(
        restored.hit_ratio() >= warm.hit_ratio() - 0.05,
        "restored batch resumes warm: {:.4} vs {:.4}",
        restored.hit_ratio(),
        warm.hit_ratio()
    );
    assert!(
        restored.hit_ratio() > cold.hit_ratio(),
        "restored batch beats cold: {:.4} vs {:.4}",
        restored.hit_ratio(),
        cold.hit_ratio()
    );

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
