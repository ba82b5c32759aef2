//! Row generators for every table and figure of the paper's evaluation.
//!
//! Each function returns printable rows (and prints nothing itself); the
//! `src/bin/*` wrappers render them with [`crate::fmt::print_table`]. The
//! paper's published value is shown next to every measured one so the
//! *shape* comparison (who wins, by roughly what factor) is immediate.

use crate::fmt;
use crate::runner::{
    execute, execute_with_tables, prepare, prepare_with, InputKind, PrepareOpts, Prepared,
};
use compreuse::SegDecision;
use memo_runtime::{LruTable, MemoTable};
use vm::cost::cycles_to_micros;
use vm::OptLevel;
use workloads::Workload;

/// The segment the paper's Table 3 reports: the chosen segment with the
/// largest total gain.
pub fn dominant_segment(report: &compreuse::Report) -> Option<&SegDecision> {
    report.decisions.iter().filter(|d| d.chosen).max_by(|a, b| {
        let ta = a.gain * a.n as f64;
        let tb = b.gain * b.n as f64;
        ta.partial_cmp(&tb).expect("finite")
    })
}

/// Prepares all seven main workloads in parallel.
pub fn prepare_seven(opt: OptLevel, scale: f64, opts: &PrepareOpts) -> Vec<(Workload, Prepared)> {
    let ws = workloads::main_seven();
    let mut out: Vec<Option<(Workload, Prepared)>> = Vec::new();
    out.resize_with(ws.len(), || None);
    std::thread::scope(|s| {
        for (slot, w) in out.iter_mut().zip(ws) {
            let opts = opts.clone();
            s.spawn(move || {
                let p = prepare_with(&w, opt, scale, &opts);
                *slot = Some((w, p));
            });
        }
    });
    out.into_iter().map(|x| x.expect("filled")).collect()
}

// ---------------------------------------------------------------------
// Table 3 — factors which affect the optimization decision
// ---------------------------------------------------------------------

/// Header row for Table 3.
pub const TABLE3_HEADERS: [&str; 11] = [
    "Program",
    "C (us)",
    "paper C",
    "O (us)",
    "paper O",
    "DIP#",
    "paper DIP",
    "Reuse",
    "paper R",
    "Table",
    "paper tbl",
];

/// Generates Table 3 rows at `scale`.
pub fn table3(scale: f64) -> Vec<Vec<String>> {
    let prepared = prepare_seven(OptLevel::O0, scale, &PrepareOpts::default());
    let mut rows = Vec::new();
    for (w, p) in &prepared {
        let Some(d) = dominant_segment(&p.outcome.report) else {
            let mut row = vec![w.name.to_string()];
            row.extend(std::iter::repeat_with(|| "—".to_string()).take(10));
            rows.push(row);
            continue;
        };
        let table_bytes = d
            .assignment
            .map(|a| p.outcome.specs[a.table].bytes())
            .unwrap_or(0);
        let paper = w.paper.table3;
        rows.push(vec![
            w.name.to_string(),
            fmt::f(cycles_to_micros(d.measured_c as u64), 2),
            paper.map(|t| fmt::f(t.c_us, 2)).unwrap_or_default(),
            fmt::f(cycles_to_micros(d.overhead_o as u64), 2),
            paper.map(|t| fmt::f(t.o_us, 2)).unwrap_or_default(),
            d.dip.to_string(),
            paper.map(|t| t.dip.to_string()).unwrap_or_default(),
            format!("{:.1}%", d.reuse_rate * 100.0),
            paper
                .map(|t| format!("{:.1}%", t.reuse_pct))
                .unwrap_or_default(),
            fmt::bytes(table_bytes),
            paper.map(|t| t.table_size.to_string()).unwrap_or_default(),
        ]);
    }
    rows
}

// ---------------------------------------------------------------------
// Table 4 — number of code segments
// ---------------------------------------------------------------------

/// Header row for Table 4.
pub const TABLE4_HEADERS: [&str; 9] = [
    "Program",
    "Functions",
    "Analyzed",
    "paper",
    "Profiled",
    "paper",
    "Transformed",
    "paper",
    "lines",
];

/// Generates Table 4 rows at `scale`.
pub fn table4(scale: f64) -> Vec<Vec<String>> {
    let prepared = prepare_seven(OptLevel::O0, scale, &PrepareOpts::default());
    prepared
        .iter()
        .map(|(w, p)| {
            let r = &p.outcome.report;
            let paper = w.paper.table4;
            vec![
                w.name.to_string(),
                w.hot_functions.to_string(),
                r.analyzed.to_string(),
                paper.map(|t| t.analyzed.to_string()).unwrap_or_default(),
                r.profiled.to_string(),
                paper.map(|t| t.profiled.to_string()).unwrap_or_default(),
                r.transformed.to_string(),
                paper.map(|t| t.transformed.to_string()).unwrap_or_default(),
                w.code_lines().to_string(),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 5 — hit ratios with limited (LRU) buffers
// ---------------------------------------------------------------------

/// Header row for Table 5.
pub const TABLE5_HEADERS: [&str; 11] = [
    "Program",
    "1-entry",
    "paper",
    "4-entry",
    "paper",
    "16-entry",
    "paper",
    "64-entry",
    "paper",
    "64-entry size",
    "paper size",
];

/// Generates Table 5 rows at `scale`: the transformed programs run with
/// small fully-associative LRU buffers in place of the software tables,
/// modelling the hardware reuse-buffer proposals.
pub fn table5(scale: f64) -> Vec<Vec<String>> {
    // Per-segment buffers: merging off, as hardware buffers are per
    // segment.
    let opts = PrepareOpts {
        disable_merging: true,
        ..PrepareOpts::default()
    };
    let prepared = prepare_seven(OptLevel::O0, scale, &opts);
    let caps = [1usize, 4, 16, 64];
    let mut rows = Vec::new();
    for (w, p) in &prepared {
        let mut cells = vec![w.name.to_string()];
        let paper = w.paper.table5;
        let mut size64 = 0usize;
        for (ci, &cap) in caps.iter().enumerate() {
            let tables: Vec<MemoTable> = p
                .outcome
                .specs
                .iter()
                .map(|spec| MemoTable::from(LruTable::new(cap, spec.key_words, spec.out_words[0])))
                .collect();
            if p.outcome.specs.is_empty() {
                cells.push("—".into());
                cells.push(String::new());
                continue;
            }
            let m = execute_with_tables(p, w, InputKind::Default, scale, tables);
            // The buffer of the most significant segment (as in Table 3):
            // the most-accessed table.
            let stats = *m
                .tables
                .iter()
                .map(|t| t.stats())
                .max_by_key(|s| s.accesses)
                .expect("at least one table");
            if cap == 64 {
                size64 = m.tables.iter().map(|t| t.bytes()).max().unwrap_or(0);
            }
            cells.push(format!("{:.1}%", stats.hit_ratio() * 100.0));
            cells.push(paper.map(|t| format!("{:.2}%", t[ci])).unwrap_or_default());
        }
        cells.push(fmt::bytes(size64));
        cells.push("(paper: 512B-16KB)".into());
        rows.push(cells);
    }
    rows
}

// ---------------------------------------------------------------------
// Tables 6/7 — performance improvement under O0/O3
// ---------------------------------------------------------------------

/// Header row for Tables 6/7.
pub const TABLE67_HEADERS: [&str; 5] = [
    "Program",
    "Original (s)",
    "Comp. Reuse (s)",
    "Speedup",
    "paper speedup",
];

/// Generates Table 6 (O0) or Table 7 (O3) rows at `scale`, including the
/// harmonic-mean row over the seven main programs.
pub fn table6_or_7(opt: OptLevel, scale: f64) -> Vec<Vec<String>> {
    let ws = workloads::all_eleven();
    let mut rows: Vec<Option<Vec<String>>> = Vec::new();
    rows.resize_with(ws.len(), || None);
    let mut speedups: Vec<Option<(bool, f64)>> = vec![None; ws.len()];
    std::thread::scope(|s| {
        for ((slot, sp), w) in rows.iter_mut().zip(speedups.iter_mut()).zip(ws.iter()) {
            s.spawn(move || {
                let p = prepare(w, opt, scale);
                let m = execute(&p, w, InputKind::Default, scale);
                assert!(m.output_match, "{}: outputs diverged", w.name);
                let paper = match opt {
                    OptLevel::O0 => w.paper.speedup_o0,
                    OptLevel::O3 => w.paper.speedup_o3,
                };
                let is_variant = w.name.ends_with("_s") || w.name.ends_with("_b");
                *sp = Some((is_variant, m.speedup()));
                *slot = Some(vec![
                    w.name.to_string(),
                    fmt::f(m.orig_seconds, 2),
                    fmt::f(m.memo_seconds, 2),
                    fmt::f(m.speedup(), 2),
                    fmt::f(paper, 2),
                ]);
            });
        }
    });
    let mut out: Vec<Vec<String>> = rows.into_iter().map(|r| r.expect("filled")).collect();
    // Harmonic mean excludes the _s/_b variants, as in the paper.
    let mains: Vec<f64> = speedups
        .iter()
        .filter_map(|s| s.filter(|(v, _)| !v).map(|(_, x)| x))
        .collect();
    let paper_hm = match opt {
        OptLevel::O0 => 1.46,
        OptLevel::O3 => 1.37,
    };
    out.push(vec![
        "Harmonic Mean".into(),
        String::new(),
        String::new(),
        fmt::f(crate::harmonic_mean(&mains), 2),
        fmt::f(paper_hm, 2),
    ]);
    out
}

// ---------------------------------------------------------------------
// Tables 8/9 — energy saving under O0/O3
// ---------------------------------------------------------------------

/// Header row for Tables 8/9.
pub const TABLE89_HEADERS: [&str; 5] = [
    "Program",
    "Original (J)",
    "Comp. Reuse (J)",
    "Energy Saving",
    "paper saving",
];

/// Generates Table 8 (O0) or Table 9 (O3) rows at `scale`.
pub fn table8_or_9(opt: OptLevel, scale: f64) -> Vec<Vec<String>> {
    let prepared = prepare_seven(opt, scale, &PrepareOpts::default());
    prepared
        .iter()
        .map(|(w, p)| {
            let m = execute(p, w, InputKind::Default, scale);
            assert!(m.output_match, "{}: outputs diverged", w.name);
            let paper = w.paper.energy_saving.map(|(o0, o3)| match opt {
                OptLevel::O0 => o0,
                OptLevel::O3 => o3,
            });
            vec![
                w.name.to_string(),
                fmt::f(m.orig_energy, 2),
                fmt::f(m.memo_energy, 2),
                format!("{:.1}%", m.energy_saving() * 100.0),
                paper.map(|x| format!("{x:.1}%")).unwrap_or_default(),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 10 — different input files (O3)
// ---------------------------------------------------------------------

/// Header row for Table 10.
pub const TABLE10_HEADERS: [&str; 6] = [
    "Program",
    "Sources of Inputs",
    "Original (s)",
    "Comp. Reuse (s)",
    "Speedup",
    "paper speedup",
];

/// Generates Table 10 rows: transformation decided on the default inputs,
/// executed on the alternates (O3, as in the paper).
pub fn table10(scale: f64) -> Vec<Vec<String>> {
    let prepared = prepare_seven(OptLevel::O3, scale, &PrepareOpts::default());
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (w, p) in &prepared {
        let m = execute(p, w, InputKind::Alt, scale);
        assert!(m.output_match, "{}: outputs diverged", w.name);
        speedups.push(m.speedup());
        rows.push(vec![
            w.name.to_string(),
            w.alt_source.to_string(),
            fmt::f(m.orig_seconds, 2),
            fmt::f(m.memo_seconds, 2),
            fmt::f(m.speedup(), 2),
            w.paper
                .alt_speedup
                .map(|x| fmt::f(x, 2))
                .unwrap_or_default(),
        ]);
    }
    rows.push(vec![
        "Harmonic Mean".into(),
        String::new(),
        String::new(),
        String::new(),
        fmt::f(crate::harmonic_mean(&speedups), 2),
        fmt::f(1.43, 2),
    ]);
    rows
}

// ---------------------------------------------------------------------
// Figures 5–8, 11–13 — histograms
// ---------------------------------------------------------------------

/// Prints one of the paper's histogram figures (5, 6, 7, 8, 11, 12, 13).
///
/// # Panics
///
/// Panics on an unknown figure number.
pub fn print_figure(figure: u32, scale: f64) {
    match figure {
        5 => input_value_histogram(
            "G721_encode",
            scale,
            "Figure 5: histogram of input values in G721_encode (quan)",
        ),
        6 => input_value_histogram(
            "G721_decode",
            scale,
            "Figure 6: histogram of input values in G721_decode (quan)",
        ),
        7 => table_entry_histogram(
            "G721_encode",
            scale,
            "Figure 7: histogram of accessed table entries in G721_encode",
        ),
        8 => table_entry_histogram(
            "G721_decode",
            scale,
            "Figure 8: histogram of accessed table entries in G721_decode",
        ),
        11 => pattern_histogram(
            "RASTA",
            scale,
            "Figure 11: histogram of distinct input patterns in RASTA",
        ),
        12 => input_value_histogram(
            "UNEPIC",
            scale,
            "Figure 12: histogram of input values in UNEPIC",
        ),
        13 => pattern_histogram(
            "GNUGO",
            scale,
            "Figure 13: histogram of input values in GNU Go",
        ),
        other => panic!("figure {other} is not a histogram figure (5-8, 11-13)"),
    }
}

fn prepared_for(name: &str, scale: f64) -> (Workload, Prepared) {
    let w = workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let p = prepare(&w, OptLevel::O0, scale);
    (w, p)
}

/// The profile of the dominant chosen segment.
fn dominant_profile(p: &Prepared) -> (&SegDecision, &vm::SegProfile) {
    let d = dominant_segment(&p.outcome.report).expect("a segment was chosen");
    let idx = p
        .outcome
        .report
        .decisions
        .iter()
        .position(|x| std::ptr::eq(x, d))
        .expect("position");
    (d, &p.outcome.profile.segs[idx])
}

fn input_value_histogram(name: &str, scale: f64, title: &str) {
    let (_, p) = prepared_for(name, scale);
    let (d, seg) = dominant_profile(&p);
    let pairs = seg
        .value_histogram()
        .expect("single-word key for value histograms");
    println!("\n{title}");
    println!(
        "segment {} — {} executions, {} distinct values",
        d.name,
        seg.n,
        pairs.len()
    );
    print_bucketed(&pairs, 24);
}

fn pattern_histogram(name: &str, scale: f64, title: &str) {
    let (_, p) = prepared_for(name, scale);
    let (d, seg) = dominant_profile(&p);
    let counts = seg.pattern_access_counts();
    println!("\n{title}");
    println!(
        "segment {} — {} executions, {} distinct patterns",
        d.name,
        seg.n,
        counts.len()
    );
    // Rank/frequency curve in 20 rank buckets.
    let buckets = 20usize.min(counts.len().max(1));
    let per = counts.len().div_ceil(buckets).max(1);
    let max = counts.first().copied().unwrap_or(0) as f64;
    for (bi, chunk) in counts.chunks(per).enumerate() {
        let avg = chunk.iter().sum::<u64>() as f64 / chunk.len() as f64;
        println!(
            "rank {:>5}-{:<5} avg accesses {:>10.1} {}",
            bi * per + 1,
            bi * per + chunk.len(),
            avg,
            fmt::bar(avg, max, 40)
        );
    }
}

fn table_entry_histogram(name: &str, scale: f64, title: &str) {
    let (w, p) = prepared_for(name, scale);
    let d = dominant_segment(&p.outcome.report).expect("chosen segment");
    let table_idx = d.assignment.expect("assigned").table;
    let m = execute(&p, &w, InputKind::Default, scale);
    let counts = m.tables[table_idx]
        .access_counts()
        .expect("direct tables track entry accesses")
        .to_vec();
    println!("\n{title}");
    let accessed = counts.iter().filter(|&&c| c > 0).count();
    println!(
        "table {} — {} slots, {} accessed",
        table_idx,
        counts.len(),
        accessed
    );
    let pairs: Vec<(i64, u64)> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as i64, c))
        .collect();
    print_bucketed(&pairs, 24);
}

/// Buckets `(x, count)` pairs over the x-range and prints count bars.
fn print_bucketed(pairs: &[(i64, u64)], buckets: usize) {
    if pairs.is_empty() {
        println!("(empty)");
        return;
    }
    let lo = pairs.iter().map(|&(v, _)| v).min().expect("nonempty");
    let hi = pairs.iter().map(|&(v, _)| v).max().expect("nonempty");
    let span = (hi - lo + 1).max(1);
    let width = (span as f64 / buckets as f64).ceil().max(1.0) as i64;
    let mut sums = vec![0u64; buckets];
    for &(v, c) in pairs {
        let b = (((v - lo) / width) as usize).min(buckets - 1);
        sums[b] += c;
    }
    let max = sums.iter().copied().max().unwrap_or(1) as f64;
    for (b, &s) in sums.iter().enumerate() {
        let from = lo + b as i64 * width;
        let to = (from + width - 1).min(hi);
        println!(
            "[{from:>8}..{to:>8}] {:>10} {}",
            s,
            fmt::bar(s as f64, max, 40)
        );
    }
}

// ---------------------------------------------------------------------
// Figures 14/15 — speedups vs. hash table size
// ---------------------------------------------------------------------

/// The byte sizes swept by Figures 14/15 (plus the profiled-optimal size,
/// represented as `None`).
pub const SIZE_SWEEP: [Option<usize>; 6] = [
    Some(2 << 10),
    Some(8 << 10),
    Some(32 << 10),
    Some(128 << 10),
    Some(512 << 10),
    None, // optimal (sized from profiling)
];

/// Header row for Figures 14/15.
pub const FIG1415_HEADERS: [&str; 7] =
    ["Program", "2KB", "8KB", "32KB", "128KB", "512KB", "optimal"];

/// Generates the Figure 14 (O0) / Figure 15 (O3) speedup matrix.
pub fn fig14_15(opt: OptLevel, scale: f64) -> Vec<Vec<String>> {
    let ws = workloads::main_seven();
    let mut rows: Vec<Option<Vec<String>>> = Vec::new();
    rows.resize_with(ws.len(), || None);
    std::thread::scope(|s| {
        for (slot, w) in rows.iter_mut().zip(ws.iter()) {
            s.spawn(move || {
                let mut cells = vec![w.name.to_string()];
                for cap in SIZE_SWEEP {
                    let opts = PrepareOpts {
                        bytes_cap: cap,
                        ..PrepareOpts::default()
                    };
                    let p = prepare_with(w, opt, scale, &opts);
                    if p.outcome.report.transformed == 0 {
                        cells.push("1.00".into());
                        continue;
                    }
                    let m = execute(&p, w, InputKind::Default, scale);
                    assert!(m.output_match, "{}: outputs diverged", w.name);
                    cells.push(fmt::f(m.speedup(), 2));
                }
                *slot = Some(cells);
            });
        }
    });
    rows.into_iter().map(|r| r.expect("filled")).collect()
}

// ---------------------------------------------------------------------
// Runtime table metrics — JSON telemetry report (`metrics` binary)
// ---------------------------------------------------------------------

/// Escapes `s` for embedding inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_stats(s: &memo_runtime::TableStats) -> String {
    format!(
        concat!(
            "{{\"accesses\":{},\"hits\":{},\"green_hits\":{},\"stale_reds\":{},",
            "\"misses\":{},\"collisions\":{},",
            "\"evictions\":{},\"insertions\":{},",
            "\"admission_rejects\":{},",
            "\"hit_ratio\":{},\"collision_rate\":{}}}"
        ),
        s.accesses,
        s.hits,
        s.green_hits,
        s.stale_reds,
        s.misses,
        s.collisions,
        s.evictions,
        s.insertions,
        s.admission_rejects,
        s.hit_ratio(),
        s.collision_rate(),
    )
}

fn json_table(index: usize, spec: &memo_runtime::TableSpec, t: &MemoTable) -> String {
    let kind = match t.kind() {
        memo_runtime::TableKind::Direct(_) => "direct",
        memo_runtime::TableKind::Lru(_) => "lru",
        memo_runtime::TableKind::Merged(_) => "merged",
    };
    let per_segment: Vec<String> = t.per_segment().iter().map(json_stats).collect();
    format!(
        concat!(
            "{{\"index\":{},\"kind\":\"{}\",\"planned_slots\":{},\"slots\":{},",
            "\"bytes\":{},\"segments\":{},\"stats\":{},\"bypassed_lookups\":{},",
            "\"dropped_records\":{},\"per_segment\":[{}]}}"
        ),
        index,
        kind,
        spec.slots,
        t.slots(),
        t.bytes(),
        spec.out_words.len(),
        json_stats(t.stats()),
        t.bypassed_total(),
        t.dropped_records(),
        per_segment.join(","),
    )
}

// ---------------------------------------------------------------------
// Engine wall-clock benchmark — JSON report (`metrics --bench-engines`)
// ---------------------------------------------------------------------

/// Host wall-clock timings of one workload's full prepare + execute
/// cycle under each measured execution engine (tree first; any number of
/// further tiers may follow).
#[derive(Debug, Clone)]
pub struct EngineBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Wall-clock per engine, milliseconds, in measurement order.
    pub engine_ms: Vec<(vm::Engine, f64)>,
}

impl EngineBenchRow {
    /// Wall-clock of `engine`, if it was measured.
    pub fn ms(&self, engine: vm::Engine) -> Option<f64> {
        self.engine_ms
            .iter()
            .find(|(e, _)| *e == engine)
            .map(|&(_, ms)| ms)
    }

    /// Wall-clock speedup of the bytecode engine over the tree-walker.
    ///
    /// # Panics
    ///
    /// Panics if either engine was not measured.
    pub fn speedup(&self) -> f64 {
        self.ms(vm::Engine::Tree).expect("tree measured")
            / self.ms(vm::Engine::Bytecode).expect("bytecode measured")
    }
}

/// Sums each engine's wall-clock across `rows`, in row engine order.
pub fn engine_totals(rows: &[EngineBenchRow]) -> Vec<(vm::Engine, f64)> {
    let mut totals: Vec<(vm::Engine, f64)> = Vec::new();
    for r in rows {
        for &(e, ms) in &r.engine_ms {
            match totals.iter_mut().find(|(t, _)| *t == e) {
                Some((_, acc)) => *acc += ms,
                None => totals.push((e, ms)),
            }
        }
    }
    totals
}

/// Serialises the per-engine wall-clock comparison. Modelled metrics are
/// engine-independent (asserted by the differential tests), so only host
/// timings appear here.
///
/// The schema is N-engine: each workload and the totals carry an
/// `engine_ms` object keyed by engine name, plus `speedup_vs_tree` for
/// every non-tree engine. The two-engine keys the PR 3 reports used
/// (`tree_ms`, `bytecode_ms`, `speedup`, `total_tree_ms`,
/// `total_bytecode_ms`, `speedup_wall`) are kept verbatim whenever both
/// of those engines were measured, so existing consumers never break.
pub fn engine_bench_json(scale: f64, opt: OptLevel, rows: &[EngineBenchRow]) -> String {
    let ms_obj = |pairs: &[(vm::Engine, f64)]| -> String {
        let fields: Vec<String> = pairs
            .iter()
            .map(|(e, ms)| format!("\"{e}\":{ms:.3}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    let speedups_obj = |pairs: &[(vm::Engine, f64)]| -> String {
        let tree = pairs
            .iter()
            .find(|(e, _)| *e == vm::Engine::Tree)
            .map(|&(_, ms)| ms);
        let fields: Vec<String> = pairs
            .iter()
            .filter(|(e, _)| *e != vm::Engine::Tree)
            .filter_map(|&(e, ms)| tree.map(|t| format!("\"{e}\":{:.3}", t / ms)))
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    let legacy = |pairs: &[(vm::Engine, f64)], t_key: &str, b_key: &str, s_key: &str| -> String {
        let (Some(t), Some(b)) = (
            pairs
                .iter()
                .find(|(e, _)| *e == vm::Engine::Tree)
                .map(|&(_, ms)| ms),
            pairs
                .iter()
                .find(|(e, _)| *e == vm::Engine::Bytecode)
                .map(|&(_, ms)| ms),
        ) else {
            return String::new();
        };
        format!(
            "\"{t_key}\":{t:.3},\"{b_key}\":{b:.3},\"{s_key}\":{:.3},",
            t / b
        )
    };
    let per: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",{}\"engine_ms\":{},\"speedup_vs_tree\":{}}}",
                json_escape(r.name),
                legacy(&r.engine_ms, "tree_ms", "bytecode_ms", "speedup"),
                ms_obj(&r.engine_ms),
                speedups_obj(&r.engine_ms),
            )
        })
        .collect();
    let totals = engine_totals(rows);
    format!(
        concat!(
            "{{\"bench\":\"engines\",\"scale\":{},\"opt\":\"{:?}\",",
            "{}\"total_engine_ms\":{},\"speedup_wall_vs_tree\":{},",
            "\"workloads\":[{}]}}"
        ),
        scale,
        opt,
        legacy(
            &totals,
            "total_tree_ms",
            "total_bytecode_ms",
            "speedup_wall"
        ),
        ms_obj(&totals),
        speedups_obj(&totals),
        per.join(","),
    )
}

// ---------------------------------------------------------------------
// Serving benchmark — JSON report (`metrics --serve`)
// ---------------------------------------------------------------------

fn json_histogram(h: &service::LatencyHistogram) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .iter()
        .map(|b| {
            format!(
                "{{\"lo_ns\":{},\"hi_ns\":{},\"count\":{}}}",
                b.lo_ns, b.hi_ns, b.count
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"count\":{},\"mean_ns\":{:.1},\"min_ns\":{},\"max_ns\":{},",
            "\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}"
        ),
        h.count(),
        h.mean_ns(),
        h.min_ns(),
        h.max_ns(),
        h.quantile_ns(0.5),
        h.quantile_ns(0.9),
        h.quantile_ns(0.99),
        buckets.join(","),
    )
}

fn json_fault_counters(c: &memo_runtime::FaultCounters) -> String {
    let per: Vec<String> = memo_runtime::FailPoint::ALL
        .iter()
        .map(|&p| {
            format!(
                "\"{}\":{{\"draws\":{},\"fired\":{}}}",
                p.name(),
                c.draws_at(p),
                c.fired_at(p),
            )
        })
        .collect();
    format!("{{{}}}", per.join(","))
}

fn json_service_report(r: &service::ServiceReport) -> String {
    let per_worker: Vec<String> = r.per_worker.iter().map(u64::to_string).collect();
    let counts = r.status_counts();
    let statuses: Vec<String> = service::RequestStatus::ALL
        .iter()
        .zip(counts)
        .map(|(s, n)| format!("\"{}\":{}", s.name(), n))
        .collect();
    let by_status: Vec<String> = service::RequestStatus::ALL
        .iter()
        .zip(&r.latency_by_status)
        .map(|(s, h)| format!("\"{}\":{}", s.name(), json_histogram(h)))
        .collect();
    let faults = r
        .faults
        .as_ref()
        .map_or_else(|| "null".to_string(), json_fault_counters);
    // Per-program store deltas, in the summary's workload order — the
    // per-workload green/red breakdown of this batch's store traffic.
    let per_program: Vec<String> = r.per_program_delta.iter().map(json_stats).collect();
    format!(
        concat!(
            "{{\"wall_seconds\":{:.6},\"throughput_rps\":{:.1},\"hit_ratio\":{:.6},",
            "\"trapped\":{},\"per_worker\":[{}],\"store\":{},\"per_program\":[{}],",
            "\"latency\":{},",
            "\"statuses\":{{{}}},\"retries\":{},\"degraded_flips\":{},",
            "\"faults\":{},\"latency_by_status\":{{{}}}}}"
        ),
        r.wall_seconds,
        r.throughput_rps,
        r.hit_ratio(),
        r.results.iter().filter(|x| x.trapped).count(),
        per_worker.join(","),
        json_stats(&r.store_delta),
        per_program.join(","),
        json_histogram(&r.latency),
        statuses.join(","),
        r.retries,
        r.degraded_flips,
        faults,
        by_status.join(","),
    )
}

/// Serialises a [`crate::serve::ServeSummary`] — the worker-scaling sweep
/// of the request-serving benchmark. Each point reports a cold and a warm
/// round; `speedup_vs_first` compares warm wall-clock against the sweep's
/// first worker count.
pub fn serve_report_json(s: &crate::serve::ServeSummary) -> String {
    let names: Vec<String> = s
        .workload_names
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    let first_warm_wall = s.points.first().map_or(0.0, |p| p.warm.wall_seconds);
    let points: Vec<String> = s
        .points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "{{\"workers\":{},\"fingerprints_match\":{},\"accounting_ok\":{},",
                    "\"speedup_vs_first\":{:.3},\"cold\":{},\"warm\":{}}}"
                ),
                p.workers,
                p.matches_baseline,
                p.accounting_ok,
                if p.warm.wall_seconds > 0.0 {
                    first_warm_wall / p.warm.wall_seconds
                } else {
                    0.0
                },
                json_service_report(&p.cold),
                json_service_report(&p.warm),
            )
        })
        .collect();
    let fault_plan = s.opts.fault_seed.map_or_else(
        || "null".to_string(),
        |seed| {
            format!(
                concat!(
                    "{{\"seed\":{},\"rate\":{},\"deadline_cycles\":{},",
                    "\"high_watermark\":{}}}"
                ),
                seed,
                s.opts.fault_rate,
                s.opts
                    .deadline_cycles
                    .map_or_else(|| "null".to_string(), |d| d.to_string()),
                s.opts
                    .high_watermark
                    .map_or_else(|| "null".to_string(), |h| h.to_string()),
            )
        },
    );
    format!(
        concat!(
            "{{\"bench\":\"serve\",\"scale\":{},\"opt\":\"{:?}\",\"shards\":{},",
            "\"queue_capacity\":{},\"cpus\":{},\"requests\":{},\"all_match\":{},",
            "\"all_accounted\":{},\"fault_plan\":{},",
            "\"workloads\":[{}],\"baseline\":{},\"sweep\":[{}]}}"
        ),
        s.opts.scale,
        s.opts.opt,
        s.opts.shards,
        s.opts.queue_capacity,
        s.cpus,
        s.requests,
        s.all_match(),
        s.all_accounted(),
        fault_plan,
        names.join(","),
        json_service_report(&s.baseline),
        points.join(","),
    )
}

fn json_f64_array(vals: &[f64]) -> String {
    let rendered: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", rendered.join(","))
}

fn json_decile_run(d: &crate::serve::DecileRun) -> String {
    format!(
        concat!(
            "{{\"overall\":{},\"first_decile\":{},\"deciles\":{},",
            "\"stats\":{}}}"
        ),
        d.overall(),
        d.first_decile(),
        json_f64_array(&d.ratios),
        json_stats(&d.delta),
    )
}

/// Serialises a [`crate::serve::WarmRestartSummary`] — the snapshot /
/// warm-restart benchmark (`metrics --serve --assert-warm-restart`,
/// DESIGN.md §8i): cold/warm/restored decile curves, the snapshot size,
/// and the gate verdict.
pub fn warm_restart_json(s: &crate::serve::WarmRestartSummary) -> String {
    let names: Vec<String> = s
        .workload_names
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    format!(
        concat!(
            "{{\"bench\":\"warm_restart\",\"scale\":{},\"opt\":\"{:?}\",",
            "\"shards\":{},\"workers\":{},\"requests\":{},",
            "\"admission\":{},\"snapshot_bytes\":{},\"restore_ok\":{},",
            "\"matches_baseline\":{},\"tolerance\":{},\"gate_holds\":{},",
            "\"workloads\":[{}],\"cold\":{},\"warm\":{},\"restored\":{}}}"
        ),
        s.opts.scale,
        s.opts.opt,
        s.opts.shards,
        s.workers,
        s.requests,
        s.opts.admission,
        s.snapshot_bytes,
        s.restore_ok,
        s.matches_baseline,
        s.tolerance,
        s.gate_holds(),
        names.join(","),
        json_decile_run(&s.cold),
        json_decile_run(&s.warm),
        json_decile_run(&s.restored),
    )
}

fn json_admission_arm(a: &crate::admission::AdmissionArm) -> String {
    format!(
        concat!(
            "{{\"evictions\":{},\"admission_rejects\":{},\"insertions\":{},",
            "\"hot_survival\":{},\"stats\":{}}}"
        ),
        a.evictions,
        a.admission_rejects,
        a.insertions,
        a.hot_survival,
        json_stats(&a.stats),
    )
}

/// Serialises a [`crate::admission::AdmissionAb`] — the TinyLFU
/// admission A/B microbench (`metrics --serve --admission`): both arms'
/// eviction/rejection counts at equal memory plus the conclusiveness
/// verdict.
pub fn admission_ab_json(ab: &crate::admission::AdmissionAb) -> String {
    format!(
        concat!(
            "{{\"bench\":\"admission_ab\",\"slots\":{},\"shards\":{},",
            "\"hot_keys\":{},\"hot_rounds\":{},\"one_shots\":{},",
            "\"conclusive\":{},\"eviction_cut\":{},",
            "\"on\":{},\"off\":{}}}"
        ),
        ab.slots,
        ab.shards,
        ab.hot_keys,
        ab.hot_rounds,
        ab.one_shots,
        ab.conclusive(),
        ab.off.evictions.saturating_sub(ab.on.evictions),
        json_admission_arm(&ab.on),
        json_admission_arm(&ab.off),
    )
}

/// Serialises one measured run into the JSON metrics report: per-table
/// and per-segment accesses, hits, misses, collisions and evictions, and
/// the size of the value-set profile's input patterns (raw words against
/// packed bytes).
pub fn metrics_report_json(p: &Prepared, m: &crate::runner::Measurement) -> String {
    let tables: Vec<String> = p
        .outcome
        .specs
        .iter()
        .zip(&m.tables)
        .enumerate()
        .map(|(i, (spec, t))| json_table(i, spec, t))
        .collect();
    let mut agg = memo_runtime::TableStats::default();
    for t in &m.tables {
        agg.merge(t.stats());
    }
    // The profile's distinct input patterns: how many, and their bytes
    // at one 8-byte word per key word against the packed bytes held.
    let profile = &p.outcome.profile;
    let (patterns, raw_bytes) = profile
        .segs
        .iter()
        .flat_map(|s| s.patterns())
        .fold((0, 0), |(n, bytes), (words, _)| {
            (n + 1, bytes + 8 * words.len())
        });
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"opt\":\"{:?}\",",
            "\"output_match\":{},\"speedup\":{},\"orig_cycles\":{},\"memo_cycles\":{},",
            "\"profile\":{{\"patterns\":{},\"raw_bytes\":{},\"packed_bytes\":{}}},",
            "\"totals\":{},\"tables\":[{}]}}"
        ),
        json_escape(p.name),
        p.opt,
        m.output_match,
        m.speedup(),
        m.orig_cycles,
        m.memo_cycles,
        patterns,
        raw_bytes,
        profile.pattern_bytes(),
        json_stats(&agg),
        tables.join(","),
    )
}
