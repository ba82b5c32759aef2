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

/// The `--bench-engines` report round-trips through the strict
/// `bench::json` parser: the `engine_ms`/`speedup_vs_tree` objects carry
/// one key per measured engine, and the legacy two-engine keys
/// (`tree_ms`, `bytecode_ms`, `speedup`, `total_*`, `speedup_wall`)
/// survive verbatim whenever both of those engines were measured.
#[test]
fn engine_bench_json_round_trips_n_engines() {
    use reports::EngineBenchRow;
    let rows = vec![
        EngineBenchRow {
            name: "G721_encode",
            engine_ms: vec![(vm::Engine::Tree, 300.0), (vm::Engine::Bytecode, 200.0)],
        },
        EngineBenchRow {
            name: "RASTA",
            engine_ms: vec![(vm::Engine::Tree, 90.0), (vm::Engine::Bytecode, 60.0)],
        },
    ];
    let report = reports::engine_bench_json(0.25, vm::OptLevel::O0, &rows);
    let parsed = bench::json::parse(&report).expect("strict parse");

    // N-engine totals: one key per engine, summed across workloads.
    let totals = parsed.get("total_engine_ms").expect("total_engine_ms");
    assert_eq!(totals.get("tree").and_then(|v| v.as_f64()), Some(390.0));
    assert_eq!(totals.get("bytecode").and_then(|v| v.as_f64()), Some(260.0));
    let wall = parsed.get("speedup_wall_vs_tree").expect("wall speedups");
    assert_eq!(wall.get("bytecode").and_then(|v| v.as_f64()), Some(1.5));

    // Legacy two-engine schema preserved verbatim.
    assert_eq!(
        parsed.get("total_tree_ms").and_then(|v| v.as_f64()),
        Some(390.0)
    );
    assert_eq!(
        parsed.get("total_bytecode_ms").and_then(|v| v.as_f64()),
        Some(260.0)
    );
    assert_eq!(
        parsed.get("speedup_wall").and_then(|v| v.as_f64()),
        Some(1.5)
    );

    // Per-workload rows carry both shapes too.
    let ws = parsed
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads");
    assert_eq!(ws.len(), 2);
    let first = &ws[0];
    assert_eq!(
        first.get("name").and_then(|v| v.as_str()),
        Some("G721_encode")
    );
    assert_eq!(first.get("tree_ms").and_then(|v| v.as_f64()), Some(300.0));
    assert_eq!(first.get("speedup").and_then(|v| v.as_f64()), Some(1.5));
    assert_eq!(
        first
            .get("engine_ms")
            .and_then(|v| v.get("bytecode"))
            .and_then(|v| v.as_f64()),
        Some(200.0)
    );
    assert_eq!(
        first
            .get("speedup_vs_tree")
            .and_then(|v| v.get("bytecode"))
            .and_then(|v| v.as_f64()),
        Some(1.5)
    );
}

/// A tree-only measurement still renders parseable JSON: the legacy
/// two-engine keys are simply absent rather than invalid.
#[test]
fn engine_bench_json_single_engine_is_valid() {
    use reports::EngineBenchRow;
    let rows = vec![EngineBenchRow {
        name: "UNEPIC",
        engine_ms: vec![(vm::Engine::Tree, 42.0)],
    }];
    let report = reports::engine_bench_json(0.1, vm::OptLevel::O3, &rows);
    let parsed = bench::json::parse(&report).expect("strict parse");
    assert!(parsed.get("speedup_wall").is_none());
    assert!(parsed.get("total_bytecode_ms").is_none());
    let totals = parsed.get("total_engine_ms").expect("total_engine_ms");
    assert_eq!(totals.get("tree").and_then(|v| v.as_f64()), Some(42.0));
    let row = &parsed.get("workloads").and_then(|v| v.as_array()).unwrap()[0];
    assert!(row.get("tree_ms").is_none() || row.get("bytecode_ms").is_none());
    assert_eq!(
        row.get("engine_ms")
            .and_then(|v| v.get("tree"))
            .and_then(|v| v.as_f64()),
        Some(42.0)
    );
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
