//! Smoke tests for the table generators at tiny scale: rows must be
//! well-formed and the headline structural result — transformed-segment
//! counts matching the paper — must hold. (Full-scale fidelity lives in
//! EXPERIMENTS.md; the expensive sweeps are exercised by the binaries.)

use bench::reports;

const SCALE: f64 = 0.02;

#[test]
fn table4_transformed_counts_match_paper() {
    let rows = reports::table4(SCALE);
    assert_eq!(rows.len(), 7);
    for row in &rows {
        assert_eq!(row.len(), reports::TABLE4_HEADERS.len(), "{row:?}");
        // Our transformed count (col 6) equals the paper's (col 7) for
        // every program — the reproduction's headline structural match.
        assert_eq!(row[6], row[7], "{row:?}");
    }
}

#[test]
fn table6_has_eleven_rows_plus_mean() {
    let rows = reports::table6_or_7(vm::OptLevel::O0, SCALE);
    assert_eq!(rows.len(), 12);
    assert_eq!(rows[11][0], "Harmonic Mean");
    for row in &rows[..11] {
        let speedup: f64 = row[3].parse().expect("speedup");
        assert!(speedup > 0.5 && speedup < 30.0, "{row:?}");
    }
    let hm: f64 = rows[11][3].parse().expect("harmonic mean");
    assert!(hm > 1.0, "the scheme wins overall: {hm}");
}

/// The per-table report of the `metrics` binary round-trips through the
/// strict `bench::json` parser. Every table carries its per-segment
/// counters (summing to the table's own) and its forced-bypass counts,
/// and nothing of the retired adaptive guard (no policy, state, epoch
/// windows or transition journal) is left in it.
#[test]
fn metrics_report_json_carries_per_segment_and_bypass_counters() {
    use bench::runner::{execute, prepare, InputKind};

    let w = workloads::by_name("GNUGO").expect("workload exists");
    let p = prepare(&w, vm::OptLevel::O0, SCALE);
    let m = execute(&p, &w, InputKind::Default, SCALE);
    let report = reports::metrics_report_json(&p, &m);
    let parsed = bench::json::parse(&report).expect("strict parse");
    assert_eq!(
        parsed.get("output_match").and_then(|v| v.as_bool()),
        Some(true)
    );
    for key in ["adaptive", "policy", "state", "epochs", "transitions"] {
        assert!(!report.contains(&format!("\"{key}\"")), "{key} in {report}");
    }
    let tables = parsed
        .get("tables")
        .and_then(|v| v.as_array())
        .expect("tables");
    assert!(
        tables
            .iter()
            .any(|t| t.get("kind").and_then(|v| v.as_str()) == Some("merged")),
        "GNUGO plans a merged table"
    );
    for t in tables {
        let count = |v: &bench::json::Json, key: &str| {
            v.get(key)
                .and_then(|x| x.as_u64())
                .unwrap_or_else(|| panic!("{key} in {v:?}"))
        };
        assert_eq!(count(t, "bypassed_lookups"), 0);
        assert_eq!(count(t, "dropped_records"), 0);
        let segs = t
            .get("per_segment")
            .and_then(|v| v.as_array())
            .expect("per_segment");
        assert_eq!(segs.len() as u64, count(t, "segments"));
        let stats = t.get("stats").expect("stats");
        for key in ["accesses", "hits", "collisions"] {
            let sum: u64 = segs.iter().map(|s| count(s, key)).sum();
            assert_eq!(sum, count(stats, key), "{key} split over segments");
        }
        // Counters of deleted layers are not reported.
        for key in [
            "optimistic_hits",
            "optimistic_retries",
            "l1_hits",
            "promotions",
        ] {
            assert!(stats.get(key).is_none(), "retired {key} in {stats:?}");
        }
    }
}
