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
//! Shared probes (`lookup` and the red/green `lookup_dep`) run the same
//! table code as private probes, under the lock of the shard the key
//! routes to; the fingerprint validator runs under that lock too, so a
//! green promotion always judges the entry it returns. The handle
//! contract (same answers as a private probe, store-dependent cycle
//! ledger aside) is the same for both kinds.

use std::sync::Arc;

use memo_runtime::{FpValidator, MemoTable, ShardedTable, TableState};

/// The set of reuse tables a run probes, indexed by the module's table ids.
#[derive(Debug)]
pub enum TableHandles {
    /// Run-private tables, moved into the [`crate::Outcome`] afterwards.
    Private(Vec<MemoTable>),
    /// A shared concurrent store; statistics stay in the store.
    Shared(Arc<Vec<ShardedTable>>),
}

/// Resolves a run's table configuration to its handles, checking the
/// module's table-count requirement (shared setup for both engines).
pub(crate) fn take_handles(
    tables: Vec<MemoTable>,
    shared: Option<Arc<Vec<ShardedTable>>>,
    table_count: usize,
) -> TableHandles {
    let handles = match shared {
        Some(store) => TableHandles::Shared(store),
        None => TableHandles::Private(tables),
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
            TableHandles::Shared(_) => TableState::Active,
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
        }
    }

    /// The private tables, for the [`crate::Outcome`]; empty for shared
    /// stores (their statistics live in the store, not the run).
    pub(crate) fn into_tables(self) -> Vec<MemoTable> {
        match self {
            TableHandles::Private(t) => t,
            TableHandles::Shared(_) => Vec::new(),
        }
    }
}
