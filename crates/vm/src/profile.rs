//! Value-set profiling data (paper §2.1).
//!
//! The scheme needs, per candidate code segment: the number of execution
//! instances `N`, the number of *distinct sets* of input values `N_ds`
//! (single-variable value profiles cannot be combined — the paper's (x, y)
//! example), the measured computation granularity, and the nesting counts
//! feeding formula (4). The VM's `Profile` statements collect all of these
//! in one instrumented run.

use memo_runtime::hash::index_of;
use std::collections::HashMap;

/// Profile of one candidate code segment.
#[derive(Debug, Clone, Default)]
pub struct SegProfile {
    /// Segment name (for reports).
    pub name: String,
    /// Number of execution instances (the paper's `N`).
    pub n: u64,
    /// Distinct input value sets and how often each occurred.
    pub distinct: HashMap<Box<[u64]>, u64>,
    /// Total cycles spent executing the segment body (inclusive of
    /// callees), for the measured granularity `C`.
    pub body_cycles: u64,
    /// For each other profiled segment `outer`, how many of this segment's
    /// executions happened while `outer` was active — feeds the paper's
    /// `n` in formula (4).
    pub within: HashMap<u32, u64>,
    /// Executions whose key read trapped (an uninitialised or
    /// out-of-range input on a path the body does not use). They count in
    /// `n` and `body_cycles` but record no key and no nesting; the probe
    /// lets the program run on, and the pipeline refuses to memoize the
    /// segment, since its memo probe would trap the same way.
    pub key_traps: u64,
}

impl SegProfile {
    /// Number of distinct input patterns (the paper's `N_ds`, Table 3's
    /// "DIP#").
    pub fn dip(&self) -> usize {
        self.distinct.len()
    }

    /// Reuse rate `R = 1 − N_ds / N` (formula from §2.1). Zero when the
    /// segment never ran.
    pub fn reuse_rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            1.0 - self.dip() as f64 / self.n as f64
        }
    }

    /// Average measured cycles per execution (the granularity `C`).
    pub fn avg_cycles(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.body_cycles as f64 / self.n as f64
        }
    }

    /// Estimated hit-rate loss from hash collisions in a direct table with
    /// `slots` entries (§2.1: "we can count the hash collision rate for
    /// each value set and deduct the reuse rate accordingly").
    ///
    /// Keys mapping to the same slot evict each other; without the access
    /// order we assume adversarial interleaving: only the dominant key of
    /// each slot retains its repeats.
    ///
    /// Per slot the loss is `Σ(c − 1) − (max − 1)`. A key seen once adds
    /// nothing to either term, so only repeated keys are hashed.
    pub fn collision_deduction(&self, slots: usize) -> f64 {
        if self.n == 0 || slots == 0 {
            return 0.0;
        }
        let mut repeats = 0u64;
        let mut slot_max: HashMap<usize, u64> = HashMap::new();
        for (key, &count) in &self.distinct {
            if count > 1 {
                repeats += count - 1;
                let max = slot_max.entry(index_of(key, slots)).or_default();
                *max = (*max).max(count);
            }
        }
        // Repeats of non-dominant keys are assumed lost.
        let kept: u64 = slot_max.values().map(|&max| max - 1).sum();
        (repeats - kept) as f64 / self.n as f64
    }

    /// Reuse rate after deducting estimated collisions for `slots`.
    pub fn effective_reuse_rate(&self, slots: usize) -> f64 {
        (self.reuse_rate() - self.collision_deduction(slots)).max(0.0)
    }

    /// Histogram pairs `(value, count)` for single-word keys, sorted by
    /// value — the paper's Figures 5/6/12/13. `None` for multi-word keys.
    pub fn value_histogram(&self) -> Option<Vec<(i64, u64)>> {
        let mut pairs = Vec::with_capacity(self.distinct.len());
        for (key, &count) in &self.distinct {
            if key.len() != 1 {
                return None;
            }
            pairs.push((key[0] as i64, count));
        }
        pairs.sort_unstable();
        Some(pairs)
    }

    /// Access counts per distinct pattern, sorted descending — the paper's
    /// Figure 11 (RASTA's accesses of distinct input patterns).
    pub fn pattern_access_counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.distinct.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }
}

/// All segment profiles of an instrumented run.
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// One profile per probe, indexed by segment index.
    pub segs: Vec<SegProfile>,
}

impl ProfileData {
    /// Average executions of segment `inner` per execution of segment
    /// `outer` (the `n` of formula (4)); zero if `outer` never ran.
    pub fn nesting_factor(&self, outer: u32, inner: u32) -> f64 {
        let outer_n = self.segs[outer as usize].n;
        if outer_n == 0 {
            return 0.0;
        }
        let inner_within = self.segs[inner as usize]
            .within
            .get(&outer)
            .copied()
            .unwrap_or(0);
        inner_within as f64 / outer_n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_with(counts: &[(&[u64], u64)]) -> SegProfile {
        let mut s = SegProfile::default();
        for (k, c) in counts {
            s.distinct.insert((*k).into(), *c);
            s.n += c;
        }
        s
    }

    #[test]
    fn reuse_rate_matches_formula() {
        // 100 executions, 10 distinct → R = 0.9.
        let mut s = SegProfile::default();
        for i in 0..10u64 {
            s.distinct.insert(vec![i].into(), 10);
        }
        s.n = 100;
        assert!((s.reuse_rate() - 0.9).abs() < 1e-12);
        assert_eq!(s.dip(), 10);
    }

    #[test]
    fn empty_segment_rates_are_zero() {
        let s = SegProfile::default();
        assert_eq!(s.reuse_rate(), 0.0);
        assert_eq!(s.avg_cycles(), 0.0);
        assert_eq!(s.collision_deduction(16), 0.0);
    }

    #[test]
    fn collision_deduction_zero_without_collisions() {
        // Keys 0..8 in 16 slots: no two share a slot.
        let s = seg_with(&[(&[0], 5), (&[1], 5), (&[7], 5)]);
        assert_eq!(s.collision_deduction(16), 0.0);
        assert!((s.effective_reuse_rate(16) - s.reuse_rate()).abs() < 1e-12);
    }

    #[test]
    fn collision_deduction_penalizes_shared_slots() {
        // Keys 1 and 17 share slot 1 of 16; dominant key keeps its repeats.
        let s = seg_with(&[(&[1], 10), (&[17], 4)]);
        let d = s.collision_deduction(16);
        // Lost = total(14) - max(10) - (2-1) = 3 of 14 accesses.
        assert!((d - 3.0 / 14.0).abs() < 1e-12);
        assert!(s.effective_reuse_rate(16) < s.reuse_rate());
    }

    /// The per-slot formula over every key, as first written.
    fn collision_deduction_reference(s: &SegProfile, slots: usize) -> f64 {
        if s.n == 0 || slots == 0 {
            return 0.0;
        }
        let mut per_slot: HashMap<usize, Vec<u64>> = HashMap::new();
        for (key, &count) in &s.distinct {
            per_slot
                .entry(index_of(key, slots))
                .or_default()
                .push(count);
        }
        let mut lost = 0u64;
        for counts in per_slot.values() {
            if counts.len() > 1 {
                let max = *counts.iter().max().expect("nonempty");
                let total: u64 = counts.iter().sum();
                lost += total - max - (counts.len() as u64 - 1);
            }
        }
        lost as f64 / s.n as f64
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn collision_deduction_matches_reference(
            keys in proptest::collection::vec((0u64..400, 1u64..40), 0..120),
            slots in 1usize..64,
        ) {
            // Mostly-singleton counts with some repeats, over one- and
            // two-word keys, in tables small enough to collide.
            let mut s = SegProfile::default();
            for (k, count) in keys {
                let key: Box<[u64]> = (k..=k + k % 2).collect();
                let count = if count > 30 { count } else { 1 };
                *s.distinct.entry(key).or_default() += count;
                s.n += count;
            }
            proptest::prop_assert_eq!(
                s.collision_deduction(slots).to_bits(),
                collision_deduction_reference(&s, slots).to_bits()
            );
        }
    }

    #[test]
    fn value_histogram_sorted() {
        let s = seg_with(&[(&[5], 2), (&[1], 7), (&[3], 1)]);
        let h = s.value_histogram().unwrap();
        assert_eq!(h, vec![(1, 7), (3, 1), (5, 2)]);
    }

    #[test]
    fn multiword_keys_have_no_value_histogram() {
        let s = seg_with(&[(&[1, 2], 3)]);
        assert!(s.value_histogram().is_none());
        assert_eq!(s.pattern_access_counts(), vec![3]);
    }

    #[test]
    fn nesting_factor() {
        let outer = SegProfile {
            n: 10,
            ..SegProfile::default()
        };
        let mut inner = SegProfile {
            n: 55,
            ..SegProfile::default()
        };
        inner.within.insert(0, 50);
        let data = ProfileData {
            segs: vec![outer, inner],
        };
        assert!((data.nesting_factor(0, 1) - 5.0).abs() < 1e-12);
        assert_eq!(data.nesting_factor(1, 0), 0.0);
    }
}
