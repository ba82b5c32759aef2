//! Run-time dependency tracking for incremental (red/green) reuse.
//!
//! The VM tracks every *tracked global region* named as a memo dependency
//! at two granularities:
//!
//! - **Chained chunk epochs.** Each region is split into at most 64
//!   power-of-two chunks. Every write of value `v` to a tracked cell `a`
//!   folds `(a, v)` into that chunk's 64-bit chain:
//!   `epoch[chunk] = mix(epoch[chunk], a, v)`. Two chain values are equal
//!   (except with hash-collision probability) only when the chunk saw the
//!   same write history — so equality witnesses unchanged contents without
//!   re-reading the region. Crucially the chain is a pure function of the
//!   executed write sequence: two runs (or two workers) of the same
//!   program replay identical chains, which is what makes fingerprints
//!   recorded by one run validatable by another.
//! - **Read masks.** While a fingerprinted memo body is recording, every
//!   read of a tracked cell ORs its chunk bit into the *frame* pushed for
//!   that recording. Frames nest (a recording segment may call another);
//!   a read lands in every active frame. Pushing and popping a frame is
//!   allocation-free after warm-up: the frame arena is a flat `Vec`
//!   truncated on pop.
//!
//! An entry's fingerprint is `(mask, sum)` per dependency region, where
//! `sum` is the wrapping sum of the masked chunks' chain values at record
//! time. Validation recomputes the sum over the stored mask against the
//! *current* epochs: equal means every chunk the recorded execution read
//! is provably (whp) unchanged, and the entry is promoted green.
//!
//! Epoch maintenance and read masking are **not** charged modelled
//! cycles: the scheme models them as micro-ops folded into the store/load
//! the hardware already pays for, mirroring how the paper charges table
//! probes but not ordinary cache maintenance. Validation itself *is*
//! charged (see [`crate::CostModel::fp_probe_cost`]).

use crate::lower::{DepRegion, LDep, Module};
use crate::value::Value;

/// Untracked marker in the cell→region map.
const UNTRACKED: u16 = u16::MAX;

/// Folds one write into a chunk's epoch chain (splitmix64-style mixer).
#[inline]
fn mix(h: u64, addr: u64, bits: u64) -> u64 {
    let mut x =
        h ^ addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ bits.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic 64-bit encoding of a stored cell value for the chain.
#[inline]
fn value_bits(v: Value) -> u64 {
    match v {
        Value::Int(i) => i as u64,
        Value::Float(f) => f.to_bits(),
        Value::Ptr(p) => 0x5050_0000_0000_0000 ^ p as u64,
        Value::Func(f) => 0xFCFC_0000_0000_0000 ^ f as u64,
        Value::Uninit => 0x0101_0101_0101_0101,
    }
}

/// Per-machine dependency tracking state: chunk epoch chains for every
/// tracked region plus the stack of active recording frames.
#[derive(Debug, Clone)]
pub struct DepRuntime {
    regions: Vec<DepRegion>,
    /// Global cell address → region index (or [`UNTRACKED`]). Covers the
    /// global segment only; frame cells are above it and never tracked.
    cell_region: Vec<u16>,
    /// Flat chunk epochs, indexed by `region.epoch_off + chunk`.
    epochs: Vec<u64>,
    /// Frame arena: `regions.len()` mask words per active frame.
    frames: Vec<u64>,
}

impl DepRuntime {
    /// Builds the tracking state for `module` (empty and free when the
    /// module has no dep regions).
    pub fn new(module: &Module) -> Self {
        let regions = module.dep_regions.clone();
        let mut cell_region = Vec::new();
        if !regions.is_empty() {
            cell_region = vec![UNTRACKED; module.globals.len()];
            for (i, r) in regions.iter().enumerate() {
                for a in r.addr..r.addr + r.words {
                    cell_region[a as usize] = i as u16;
                }
            }
        }
        DepRuntime {
            regions,
            cell_region,
            epochs: vec![0; module.dep_epoch_words as usize],
            frames: Vec::new(),
        }
    }

    /// Whether any recording frame is active (gates read masking).
    #[inline]
    pub fn active(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Folds a write of `v` to cell `addr` into its chunk's epoch chain.
    /// Only the bounds test is inlined: frame cells fail it, and the
    /// fold stays out of the bytecode loop (DESIGN.md §8d).
    #[inline]
    pub fn note_write(&mut self, addr: usize, v: Value) {
        if addr < self.cell_region.len() {
            self.fold_write(addr, v);
        }
    }

    #[inline(never)]
    fn fold_write(&mut self, addr: usize, v: Value) {
        let r = self.cell_region[addr];
        if r == UNTRACKED {
            return;
        }
        let region = &self.regions[r as usize];
        let chunk = (addr - region.addr as usize) >> region.shift;
        let e = &mut self.epochs[region.epoch_off as usize + chunk];
        *e = mix(*e, addr as u64, value_bits(v));
    }

    /// ORs the chunk bit of a read of cell `addr` into every active
    /// recording frame. Call only while [`DepRuntime::active`]. Out of
    /// line, so the bytecode loop's handlers that may call it keep their
    /// register pressure low (DESIGN.md §8d).
    #[inline(never)]
    pub fn note_read(&mut self, addr: usize) {
        if addr >= self.cell_region.len() {
            return;
        }
        let r = self.cell_region[addr];
        if r == UNTRACKED {
            return;
        }
        let region = &self.regions[r as usize];
        let bit = 1u64 << ((addr - region.addr as usize) >> region.shift);
        let stride = self.regions.len();
        let mut at = r as usize;
        while at < self.frames.len() {
            self.frames[at] |= bit;
            at += stride;
        }
    }

    /// Pushes a fresh recording frame (one mask word per region).
    pub fn push_frame(&mut self) {
        self.frames
            .resize(self.frames.len() + self.regions.len(), 0);
    }

    /// Pops the innermost frame, discarding its masks (taken on exits
    /// that record nothing, e.g. `break` unwinds).
    pub fn pop_frame(&mut self) {
        let n = self.frames.len().saturating_sub(self.regions.len());
        self.frames.truncate(n);
    }

    /// Pops the innermost frame and appends the fingerprint for `deps` to
    /// `out`: per dependency, the region's read mask and the wrapping sum
    /// of the masked chunks' current epoch chains.
    pub fn pop_frame_build_fp(&mut self, deps: &[LDep], out: &mut Vec<u64>) {
        let base = self.frames.len() - self.regions.len();
        for d in deps {
            let mask = self.frames[base + d.region as usize];
            out.push(mask);
            out.push(self.masked_sum(d.region, mask));
        }
        self.frames.truncate(base);
    }

    /// Conservatively marks every chunk of each dep region as read in all
    /// active frames. Used when a *nested* memo hit restores a recorded
    /// result mid-recording: the enclosing recording inherits the full
    /// static footprint of the nested segment instead of its (unknown)
    /// dynamic read set — over-approximation is sound, it can only turn
    /// future greens stale, never the reverse.
    pub fn note_nested_hit(&mut self, deps: &[LDep]) {
        let stride = self.regions.len();
        for d in deps {
            let region = &self.regions[d.region as usize];
            let mask = if region.chunks == 64 {
                u64::MAX
            } else {
                (1u64 << region.chunks) - 1
            };
            let mut at = d.region as usize;
            while at < self.frames.len() {
                self.frames[at] |= mask;
                at += stride;
            }
        }
    }

    /// Validates a stored fingerprint against the current epoch chains:
    /// `true` iff every dependency's masked chunk-epoch sum still matches.
    pub fn validate(&self, deps: &[LDep], fp: &[u64]) -> bool {
        if fp.len() != 2 * deps.len() {
            return false;
        }
        for (i, d) in deps.iter().enumerate() {
            let mask = fp[2 * i];
            if self.masked_sum(d.region, mask) != fp[2 * i + 1] {
                return false;
            }
        }
        true
    }

    fn masked_sum(&self, region: u32, mask: u64) -> u64 {
        let r = &self.regions[region as usize];
        let base = r.epoch_off as usize;
        let mut rest = mask;
        let mut sum = 0u64;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            sum = sum.wrapping_add(self.epochs[base + c]);
            rest &= rest - 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module_with_region(addr: u32, words: u32) -> Module {
        let dep = minic::ast::MemoDep {
            name: "r".into(),
            words: words as usize,
            mutable: true,
        };
        let shift = dep.chunk_shift();
        let chunks = dep.chunk_count() as u32;
        Module {
            funcs: Vec::new(),
            main: 0,
            globals: vec![Value::Int(0); (addr + words) as usize],
            loop_origins: Vec::new(),
            branch_origins: Vec::new(),
            profile_segments: Vec::new(),
            table_count: 0,
            dep_regions: vec![DepRegion {
                addr,
                words,
                shift,
                chunks,
                epoch_off: 0,
            }],
            dep_epoch_words: chunks,
        }
    }

    #[test]
    fn board_sized_region_uses_eight_cell_chunks() {
        let m = module_with_region(1, 361);
        assert_eq!(m.dep_regions[0].shift, 3);
        assert_eq!(m.dep_regions[0].chunks, 46);
    }

    #[test]
    fn recorded_fingerprint_validates_until_a_masked_chunk_changes() {
        let m = module_with_region(1, 64);
        let mut rt = DepRuntime::new(&m);
        let deps = [LDep {
            region: 0,
            mutable: true,
        }];

        rt.push_frame();
        rt.note_read(5);
        rt.note_read(6);
        let mut fp = Vec::new();
        rt.pop_frame_build_fp(&deps, &mut fp);
        assert_eq!(fp.len(), 2);
        assert!(rt.validate(&deps, &fp));

        // A write outside the read cells (same region, different chunk
        // for shift 0) goes stale only if it lands in a masked chunk.
        rt.note_write(40, Value::Int(7));
        assert!(rt.validate(&deps, &fp), "unread chunk writes stay green");
        rt.note_write(5, Value::Int(7));
        assert!(!rt.validate(&deps, &fp), "masked chunk write goes stale");
    }

    #[test]
    fn rewriting_the_same_value_still_changes_the_chain() {
        // The chain witnesses write *history*, not content snapshots: a
        // redundant store is indistinguishable from a flip-and-restore
        // pair without reading memory, so both go stale (conservative).
        let m = module_with_region(1, 16);
        let mut rt = DepRuntime::new(&m);
        let deps = [LDep {
            region: 0,
            mutable: true,
        }];
        rt.push_frame();
        rt.note_read(3);
        let mut fp = Vec::new();
        rt.pop_frame_build_fp(&deps, &mut fp);
        rt.note_write(3, Value::Int(0));
        assert!(!rt.validate(&deps, &fp));
    }

    #[test]
    fn nested_frames_each_collect_reads() {
        let m = module_with_region(1, 64);
        let mut rt = DepRuntime::new(&m);
        let deps = [LDep {
            region: 0,
            mutable: true,
        }];
        rt.push_frame();
        rt.note_read(2);
        rt.push_frame();
        rt.note_read(10);
        let (mut inner, mut outer) = (Vec::new(), Vec::new());
        rt.pop_frame_build_fp(&deps, &mut inner);
        rt.pop_frame_build_fp(&deps, &mut outer);
        assert_eq!(inner[0], 1 << 9, "inner mask sees only the inner read");
        assert_eq!(outer[0], (1 << 1) | (1 << 9), "outer mask sees both");
    }

    #[test]
    fn nested_hits_taint_conservatively() {
        let m = module_with_region(1, 361);
        let mut rt = DepRuntime::new(&m);
        let deps = [LDep {
            region: 0,
            mutable: true,
        }];
        rt.push_frame();
        rt.note_nested_hit(&deps);
        let mut fp = Vec::new();
        rt.pop_frame_build_fp(&deps, &mut fp);
        assert_eq!(fp[0], (1u64 << 46) - 1, "all 46 chunks masked");
    }

    #[test]
    fn identical_write_sequences_replay_identical_chains() {
        let m = module_with_region(1, 32);
        let mut a = DepRuntime::new(&m);
        let mut b = DepRuntime::new(&m);
        for i in 1..20 {
            a.note_write(i, Value::Int(i as i64 * 3));
            b.note_write(i, Value::Int(i as i64 * 3));
        }
        a.push_frame();
        for i in 1..20 {
            a.note_read(i);
        }
        let mut fp = Vec::new();
        a.pop_frame_build_fp(
            &[LDep {
                region: 0,
                mutable: true,
            }],
            &mut fp,
        );
        // b (a different "worker") validates a's fingerprint.
        assert!(b.validate(
            &[LDep {
                region: 0,
                mutable: true,
            }],
            &fp
        ));
    }

    #[test]
    fn untracked_and_out_of_range_cells_are_ignored() {
        let m = module_with_region(4, 8);
        let mut rt = DepRuntime::new(&m);
        rt.push_frame();
        rt.note_read(1); // below the region: untracked
        rt.note_write(1, Value::Int(9));
        rt.note_read(10_000); // beyond the globals: a frame cell
        rt.note_write(10_000, Value::Int(9));
        let mut fp = Vec::new();
        rt.pop_frame_build_fp(
            &[LDep {
                region: 0,
                mutable: false,
            }],
            &mut fp,
        );
        assert_eq!(fp, vec![0, 0]);
    }
}
