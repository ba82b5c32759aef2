//! Table-handle indirection: which reuse store an engine probes.
//!
//! Both engines access memo tables exclusively through [`TableHandles`],
//! so a run can probe either its own private [`MemoTable`]s (the paper's
//! per-process scheme, returned in the [`crate::Outcome`]) or a shared
//! [`ShardedTable`] store owned by a service and outliving the run.
//!
//! Shared probes (`lookup` and the red/green `lookup_dep`) run the same
//! table code as private probes, under the lock of the shard the key
//! routes to; the fingerprint validator runs under that lock too, so a
//! green promotion always judges the entry it returns. The handle
//! contract (same answers as a private probe, store-dependent cycle
//! ledger aside) is the same for both kinds.

use std::sync::Arc;

use memo_runtime::{FpValidator, MemoTable, ShardedTable};

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
