//! Dependency planning for incremental (red/green) reuse.
//!
//! §2.1 determines a segment's key from its upward-exposed, non-invariant
//! reads. That key is *sound* but can be needlessly wide: a function like
//! GNU Go's `density_bucket(pos)` reads the whole 361-word board, so exact
//! matching must hash 362 words per probe, and because the board is *in*
//! the key, every board change silently retires all stored entries — they
//! never match again even though most of the board is untouched.
//!
//! The dependency planner shrinks such keys. A large, directly-named,
//! *mutable* global array read by a ret-only segment is moved out of the
//! key into a validated dependency: the table entry stores a compact
//! content fingerprint of the region chunks the recording execution read,
//! and a probe whose key matches re-validates the fingerprint against the
//! VM's chunk epochs before trusting the entry (try-mark-green). Invariant
//! global regions already dropped from the key by the §2.1 filter, and
//! written somewhere (a table `main` fills from input), are recorded as
//! *non-mutable* dependencies, so stored results also witness their
//! contents instead of assuming them. An invariant region that nothing
//! writes is not guarded: its contents are its initializer, in every run.
//!
//! Key reduction deliberately applies **only to segments with no memory
//! outputs** (`outputs` empty, a memoized return value present):
//!
//! 1. *Admission control* — a segment that writes global state would
//!    otherwise be admitted with a tiny key (its wide reads all become
//!    dependencies), displacing better candidates in §2.3 nesting
//!    resolution even though almost every probe would come back stale.
//! 2. *Fingerprint consistency* — a body that never writes tracked
//!    regions observes the same chunk epochs when it finishes recording
//!    as a later probe does at lookup time, so the recorded fingerprint
//!    can be built once from the read-set mask without re-walking memory.

use crate::inout::SegIo;
use minic::ast::{MemoDep, MemoOperand, OperandShape};

/// Minimum extent, in words, for a mutable global array input to be moved
/// out of the key into the validated dependency set. Below this, hashing
/// the contents into the key is cheaper than maintaining a fingerprint.
pub const MUTABLE_DEP_MIN_WORDS: usize = 16;

/// The planned key/dependency split for one candidate segment.
#[derive(Debug, Clone)]
pub struct DepPlan {
    /// Input operands remaining in the hash key after reduction.
    pub key_inputs: Vec<MemoOperand>,
    /// Validated dependency regions (non-mutable first is *not*
    /// guaranteed; sorted by region name).
    pub deps: Vec<MemoDep>,
    /// Key width in words after reduction.
    pub key_words: usize,
}

impl DepPlan {
    /// Whether the segment depends on mutable state outside its key: its
    /// validated hits are the ones exact matching would have recomputed
    /// (counted as green hits).
    pub fn green(&self) -> bool {
        self.deps.iter().any(|d| d.mutable)
    }

    /// Fingerprint words stored per table entry: one `(chunk mask,
    /// chained-epoch sum)` pair per dependency region.
    pub fn fp_words(&self) -> usize {
        2 * self.deps.len()
    }
}

/// Plans the key/dependency split for a segment with interface `io`.
///
/// The reduced key is never left empty: if every input qualifies for
/// reduction, the narrowest one stays in the key so the table still has
/// something to index on.
pub fn plan_deps(io: &SegIo) -> DepPlan {
    let mut deps: Vec<MemoDep> = io
        .invariant_reads
        .iter()
        .map(|(name, words)| MemoDep {
            name: name.clone(),
            words: *words,
            mutable: false,
        })
        .collect();

    let ret_only = io.outputs.is_empty() && io.ret.is_some();
    let movable_words = |op: &MemoOperand| -> Option<usize> {
        if !ret_only || io.global_inputs.binary_search(&op.name).is_err() {
            return None;
        }
        match op.shape {
            OperandShape::Array(n) if n >= MUTABLE_DEP_MIN_WORDS => Some(n),
            _ => None,
        }
    };

    let mut movable: Vec<(usize, usize)> = io
        .inputs
        .iter()
        .enumerate()
        .filter_map(|(i, op)| movable_words(op).map(|w| (i, w)))
        .collect();
    if movable.len() == io.inputs.len() && !movable.is_empty() {
        let keep = movable
            .iter()
            .min_by_key(|&&(i, w)| (w, i))
            .map(|&(i, _)| i)
            .expect("non-empty");
        movable.retain(|&(i, _)| i != keep);
    }

    let mut key_inputs = Vec::with_capacity(io.inputs.len() - movable.len());
    for (i, op) in io.inputs.iter().enumerate() {
        match movable.iter().find(|&&(m, _)| m == i) {
            Some(&(_, words)) => deps.push(MemoDep {
                name: op.name.clone(),
                words,
                mutable: true,
            }),
            None => key_inputs.push(op.clone()),
        }
    }

    deps.sort_by(|a, b| a.name.cmp(&b.name));
    deps.dedup();
    let key_words = key_inputs.iter().map(|o| o.words()).sum();
    DepPlan {
        key_inputs,
        deps,
        key_words,
    }
}

/// An edge in the segment dependency graph: two selected segments whose
/// results depend on the same tracked region. Together with the §2.3
/// nesting relation this gives the per-program view of which memoized
/// results a region write can invalidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// First segment name (lexicographically smaller).
    pub a: String,
    /// Second segment name.
    pub b: String,
    /// The shared region's name.
    pub region: String,
    /// Whether the shared region is mutable for either endpoint.
    pub mutable: bool,
}

/// Builds the shared-region edges of the segment dependency graph from
/// per-segment plans, deduplicated and sorted.
pub fn shared_region_edges(plans: &[(String, DepPlan)]) -> Vec<DepEdge> {
    let mut edges = Vec::new();
    for (i, (na, pa)) in plans.iter().enumerate() {
        for (nb, pb) in plans.iter().skip(i + 1) {
            for da in &pa.deps {
                for db in &pb.deps {
                    if da.name == db.name {
                        let (a, b) = if na <= nb { (na, nb) } else { (nb, na) };
                        edges.push(DepEdge {
                            a: a.clone(),
                            b: b.clone(),
                            region: da.name.clone(),
                            mutable: da.mutable || db.mutable,
                        });
                    }
                }
            }
        }
    }
    edges.sort_by(|x, y| {
        (&x.a, &x.b, &x.region)
            .cmp(&(&y.a, &y.b, &y.region))
            .then(x.mutable.cmp(&y.mutable))
    });
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::ast::ScalarKind;

    fn op(name: &str, words: usize) -> MemoOperand {
        MemoOperand {
            name: name.into(),
            shape: if words == 1 {
                OperandShape::Scalar
            } else {
                OperandShape::Array(words)
            },
            elem: ScalarKind::Int,
        }
    }

    fn io(inputs: Vec<MemoOperand>, ret_only: bool) -> SegIo {
        let key_words = inputs.iter().map(|o| o.words()).sum();
        let global_inputs = inputs.iter().map(|o| o.name.clone()).collect();
        SegIo {
            inputs,
            outputs: if ret_only { vec![] } else { vec![op("out", 1)] },
            ret: Some(ScalarKind::Int),
            key_words,
            out_words: if ret_only { 1 } else { 2 },
            invariant_reads: vec![],
            global_inputs,
        }
    }

    #[test]
    fn large_mutable_array_moves_out_of_a_ret_only_key() {
        let mut sio = io(vec![op("board", 361), op("pos", 1)], true);
        sio.global_inputs = vec!["board".into()]; // pos is a parameter
        let plan = plan_deps(&sio);
        assert_eq!(plan.key_words, 1);
        assert_eq!(plan.key_inputs.len(), 1);
        assert_eq!(plan.key_inputs[0].name, "pos");
        assert_eq!(plan.deps.len(), 1);
        assert_eq!(plan.deps[0].name, "board");
        assert_eq!(plan.deps[0].words, 361);
        assert!(plan.deps[0].mutable);
        assert!(plan.green());
        assert_eq!(plan.fp_words(), 2);
    }

    #[test]
    fn segments_with_memory_outputs_keep_their_full_key() {
        let sio = io(vec![op("board", 361), op("pos", 1)], false);
        let plan = plan_deps(&sio);
        assert_eq!(plan.key_words, 362);
        assert!(plan.deps.is_empty());
        assert!(!plan.green());
        assert_eq!(plan.fp_words(), 0);
    }

    #[test]
    fn small_arrays_and_non_globals_stay_in_the_key() {
        let mut sio = io(vec![op("tiny", 8), op("big", 64)], true);
        sio.global_inputs = vec!["tiny".into()]; // `big` is a local array
        let plan = plan_deps(&sio);
        assert_eq!(plan.key_words, 72, "neither input qualifies");
        assert!(plan.deps.is_empty());
    }

    #[test]
    fn reduction_never_empties_the_key() {
        let sio = io(vec![op("huge", 361), op("table", 64)], true);
        let plan = plan_deps(&sio);
        // Both qualify; the narrower one stays behind as the key.
        assert_eq!(plan.key_inputs.len(), 1);
        assert_eq!(plan.key_inputs[0].name, "table");
        assert_eq!(plan.deps.len(), 1);
        assert_eq!(plan.deps[0].name, "huge");
    }

    #[test]
    fn invariant_reads_become_non_mutable_deps() {
        let mut sio = io(vec![op("x", 1)], true);
        sio.global_inputs = vec![];
        sio.invariant_reads = vec![("qtab".into(), 64)];
        let plan = plan_deps(&sio);
        assert_eq!(plan.key_words, 1);
        assert_eq!(plan.deps.len(), 1);
        assert_eq!(plan.deps[0].name, "qtab");
        assert!(!plan.deps[0].mutable);
        assert!(!plan.green(), "invariant-only deps are not green");
        assert_eq!(plan.fp_words(), 2);
    }

    #[test]
    fn shared_regions_produce_sorted_edges() {
        let a = plan_deps(&{
            let mut s = io(vec![op("board", 361), op("pos", 1)], true);
            s.global_inputs = vec!["board".into()];
            s
        });
        let b = a.clone();
        let plans = vec![
            ("dist:body".to_string(), b),
            ("density:body".to_string(), a),
        ];
        let edges = shared_region_edges(&plans);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].a, "density:body");
        assert_eq!(edges[0].b, "dist:body");
        assert_eq!(edges[0].region, "board");
        assert!(edges[0].mutable);
    }
}
