//! One request served alone through the shared store counts exactly what
//! the same run counts on private tables.
//!
//! The compiler sizes each table and checks its collision rate for one
//! placement: `index_of(key, slots)` (PAPER.md §2.1). A sharded store
//! splits that planned index over its shards instead of hashing again,
//! so a request that meets a fresh 8-shard store must see the hits,
//! misses, collisions, evictions and stale reds its private tables see.
//! A store that placed keys its own way would lose repeats the plan
//! keeps and fail here.

use bench::serve::{build_service, ServeOpts};
use memo_runtime::TableStats;

/// The counters the placement decides.
fn counts(s: &TableStats) -> [u64; 6] {
    [
        s.accesses,
        s.hits,
        s.misses,
        s.collisions,
        s.evictions,
        s.stale_reds,
    ]
}

#[test]
fn one_request_served_alone_counts_as_on_private_tables() {
    let ws = workloads::main_seven();
    let opts = ServeOpts {
        scale: 0.02,
        shards: 8,
        // One default-input and one alternate-input request per workload.
        requests_per_workload: 2,
        ..ServeOpts::default()
    };
    let (mut svc, requests) = build_service(&ws, &opts, 1);
    assert_eq!(requests.len(), 14);
    let mut differ = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        svc.reset_stores().expect("specs built once already");
        let one = std::slice::from_ref(req);
        let served = svc.run(one);
        let private = svc.run_private_sequential(one);
        assert_eq!(served.fingerprints(), private.fingerprints(), "request {i}");
        let (got, want) = (counts(&served.store_delta), counts(&private.store_delta));
        if got != want {
            differ.push(format!(
                "{} (request {i}): {got:?} != {want:?}",
                ws[req.program].name
            ));
        }
    }
    assert!(
        differ.is_empty(),
        "{} of 14 requests counted otherwise on the shared store \
         [accesses, hits, misses, collisions, evictions, stale_reds]:\n{}",
        differ.len(),
        differ.join("\n")
    );
}
