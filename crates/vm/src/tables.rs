//! Table-handle indirection: which reuse store an engine probes.
//!
//! Both engines access memo tables exclusively through [`TableHandles`],
//! so a run can probe either its own private [`MemoTable`]s (the paper's
//! per-process scheme, returned in the [`crate::Outcome`]) or a shared
//! [`ShardedTable`] store owned by a service and outliving the run.
//!
//! The two paths differ in one deliberate way: the VM-level bypassed-table
//! fast path (skip the key build when the whole table is bypassed) only
//! exists for private tables. A shared store's guard state lives *per
//! shard*, and the shard is unknown until the key is built, so
//! `TableHandles::state` reports `Active` for shared handles and a
//! bypassed shard still answers its forced miss inside `lookup`. Program
//! results are unaffected (bypass never changes outputs); only the cycle
//! ledger differs, which is part of the documented store-dependent set
//! (DESIGN.md §8e).
//!
//! Shared probes (`lookup` and the red/green `lookup_dep`) resolve on
//! the store's optimistic lock-free path when the shard is stable: a
//! seqlock version check brackets a copied-out candidate entry, and a
//! green promotion re-checks the version *after* the validator runs, so
//! the engines can never serve — or mark green — a torn entry
//! (DESIGN.md §8h). The VM needs no awareness of this: the handle
//! contract (same answers as a private probe, store-dependent cycle
//! ledger aside) is unchanged, and contention shows up only in the
//! store's `optimistic_hits`/`optimistic_retries` statistics.

use std::sync::Arc;

use memo_runtime::{FpValidator, L1Cache, MemoTable, ShardedTable, TableState};

/// The set of reuse tables a run probes, indexed by the module's table ids.
#[derive(Debug)]
pub enum TableHandles {
    /// Run-private tables, moved into the [`crate::Outcome`] afterwards.
    Private(Vec<MemoTable>),
    /// A shared concurrent store; statistics stay in the store.
    Shared(Arc<Vec<ShardedTable>>),
    /// A shared store fronted by run-private L1 caches (DESIGN.md §8i):
    /// each probe of a fingerprint-free segment tries the direct-mapped
    /// L1 first and falls through to the sharded L2; repeated L2 hits
    /// promote the entry. Fingerprinted segments and forced-red probes
    /// always route to the L2, so the red/green contract is unchanged.
    Tiered {
        /// Per-table L1 caches, returned in the [`crate::Outcome`].
        l1: Vec<L1Cache>,
        /// The shared L2 store, as in [`TableHandles::Shared`].
        l2: Arc<Vec<ShardedTable>>,
    },
}

/// Resolves a run's table configuration to its handles, checking the
/// module's table-count requirement (shared setup for both engines).
pub(crate) fn take_handles(
    tables: Vec<MemoTable>,
    shared: Option<Arc<Vec<ShardedTable>>>,
    l1: Option<Vec<L1Cache>>,
    table_count: usize,
) -> TableHandles {
    let handles = match (shared, l1) {
        (Some(store), Some(l1)) => {
            assert_eq!(
                l1.len(),
                store.len(),
                "one L1 cache per shared table is required"
            );
            TableHandles::Tiered { l1, l2: store }
        }
        (Some(store), None) => TableHandles::Shared(store),
        (None, l1) => {
            assert!(l1.is_none(), "an L1 tier requires a shared L2 store");
            TableHandles::Private(tables)
        }
    };
    assert!(
        handles.len() >= table_count,
        "module expects {} memo tables, got {}",
        table_count,
        handles.len()
    );
    handles
}

impl TableHandles {
    /// Number of tables available.
    pub fn len(&self) -> usize {
        match self {
            TableHandles::Private(t) => t.len(),
            TableHandles::Shared(t) => t.len(),
            TableHandles::Tiered { l2, .. } => l2.len(),
        }
    }

    /// Whether no tables are available.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Guard state used for the VM-level bypass fast path. Shared handles
    /// always report `Active`: the shard (and so its guard state) is only
    /// known after the key is built.
    pub(crate) fn state(&self, idx: usize) -> TableState {
        match self {
            TableHandles::Private(t) => t[idx].state(),
            TableHandles::Shared(_) | TableHandles::Tiered { .. } => TableState::Active,
        }
    }

    /// Looks up `key` for segment `slot` in table `idx`.
    pub(crate) fn lookup(
        &mut self,
        idx: usize,
        slot: usize,
        key: &[u64],
        out: &mut Vec<u64>,
    ) -> bool {
        match self {
            TableHandles::Private(t) => t[idx].lookup(slot, key, out),
            TableHandles::Shared(t) => t[idx].lookup(slot, key, out),
            TableHandles::Tiered { l1, l2 } => {
                if l1[idx].cacheable(slot) {
                    if l1[idx].probe(slot, key, out) {
                        return true;
                    }
                    let hit = l2[idx].lookup(slot, key, out);
                    if hit {
                        l1[idx].note_l2_hit(slot, key, out);
                    }
                    hit
                } else {
                    l2[idx].lookup(slot, key, out)
                }
            }
        }
    }

    /// Dependency-validating lookup (red/green probe path); see
    /// [`MemoTable::lookup_dep`] for the green/validator contract.
    pub(crate) fn lookup_dep(
        &mut self,
        idx: usize,
        slot: usize,
        key: &[u64],
        out: &mut Vec<u64>,
        green: bool,
        validate: FpValidator,
    ) -> bool {
        match self {
            TableHandles::Private(t) => t[idx].lookup_dep(slot, key, out, green, validate),
            TableHandles::Shared(t) => t[idx].lookup_dep(slot, key, out, green, validate),
            TableHandles::Tiered { l1, l2 } => {
                // A forced-red probe (green, no validator) must answer
                // miss even for a resident entry — only the L2 implements
                // that rule, so the L1 may not short-circuit it.
                let forced_red = green && validate.is_none();
                if forced_red || !l1[idx].cacheable(slot) {
                    return l2[idx].lookup_dep(slot, key, out, green, validate);
                }
                if l1[idx].probe(slot, key, out) {
                    return true;
                }
                let hit = l2[idx].lookup_dep(slot, key, out, green, validate);
                if hit {
                    l1[idx].note_l2_hit(slot, key, out);
                }
                hit
            }
        }
    }

    /// Records `outputs` plus a dependency fingerprint (`&[]` for
    /// exact-match entries).
    pub(crate) fn record_dep(
        &mut self,
        idx: usize,
        slot: usize,
        key: &[u64],
        outputs: &[u64],
        fp: &[u64],
    ) {
        match self {
            TableHandles::Private(t) => t[idx].record_dep(slot, key, outputs, fp),
            TableHandles::Shared(t) => t[idx].record_dep(slot, key, outputs, fp),
            TableHandles::Tiered { l1, l2 } => {
                l2[idx].record_dep(slot, key, outputs, fp);
                if fp.is_empty() && l1[idx].cacheable(slot) {
                    l1[idx].write_through(slot, key, outputs);
                }
            }
        }
    }

    /// Decomposes the handles into the run-private pieces returned in the
    /// [`crate::Outcome`]: private tables (empty for shared stores — their
    /// statistics live in the store) and the L1 tier (present only for
    /// [`TableHandles::Tiered`] runs).
    pub(crate) fn into_parts(self) -> (Vec<MemoTable>, Option<Vec<L1Cache>>) {
        match self {
            TableHandles::Private(t) => (t, None),
            TableHandles::Shared(_) => (Vec::new(), None),
            TableHandles::Tiered { l1, .. } => (Vec::new(), Some(l1)),
        }
    }
}
