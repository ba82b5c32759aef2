//! Value-set profiling data (paper §2.1).
//!
//! The scheme needs, per candidate code segment: the number of execution
//! instances `N`, the number of *distinct sets* of input values `N_ds`
//! (single-variable value profiles cannot be combined — the paper's (x, y)
//! example), the measured computation granularity, and the nesting counts
//! feeding formula (4). The VM's `Profile` statements collect all of these
//! in one instrumented run.
//!
//! Counting `N_ds` means keeping every distinct input pattern for the
//! life of the profile, and a pattern can be hundreds of words wide
//! (GNUGO reads whole board regions). Most of those words are small
//! integers, so [`Patterns`] stores each pattern as the zigzag LEB128
//! bytes of its words: a word in −64..=63 takes one byte, and no word
//! takes more than ten. The encoding is prefix-free per word, so two
//! different patterns, of equal or different widths, never share bytes,
//! and counts stay exact. Readers get the words back through decoding
//! accessors; nothing outside this module sees the bytes.

use memo_runtime::hash::index_of;
use std::collections::HashMap;

/// Appends the zigzag LEB128 bytes of `words` to `out`: each word's
/// sign is folded into bit 0, then 7 bits go out per byte, low first,
/// with the high bit set on every byte but a word's last.
fn pack_words(words: &[u64], out: &mut Vec<u8>) {
    for &w in words {
        let mut z = (w << 1) ^ ((w as i64 >> 63) as u64);
        while z >= 0x80 {
            out.push(z as u8 | 0x80);
            z >>= 7;
        }
        out.push(z as u8);
    }
}

/// Appends the words packed in `bytes` (by [`pack_words`]) to `out`.
fn unpack_words(bytes: &[u8], out: &mut Vec<u64>) {
    let (mut z, mut shift) = (0u64, 0);
    for &b in bytes {
        z |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            out.push((z >> 1) ^ (z & 1).wrapping_neg());
            (z, shift) = (0, 0);
        } else {
            shift += 7;
        }
    }
}

/// The distinct input patterns of one segment and how often each
/// occurred, each pattern held as its packed bytes (see the module
/// docs). Std's keyed SipHash indexes the map: the patterns come from
/// program input, so a crafted input must not be able to flood it.
#[derive(Debug, Clone, Default)]
pub struct Patterns {
    counts: HashMap<Box<[u8]>, u64>,
    /// Words per pattern, recorded with the first pattern; `None` while
    /// empty or once two patterns differ in width.
    width: Option<usize>,
}

impl Patterns {
    /// Number of distinct patterns.
    fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no pattern was recorded.
    fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Adds `count` occurrences of the pattern `words`.
    pub fn add(&mut self, words: &[u64], count: u64) {
        self.add_packing(words, count, &mut Vec::new());
    }

    /// [`Patterns::add`] with a caller-owned packing buffer, so a
    /// repeated pattern allocates nothing.
    fn add_packing(&mut self, words: &[u64], count: u64, pack: &mut Vec<u8>) {
        pack.clear();
        pack_words(words, pack);
        if let Some(c) = self.counts.get_mut(pack.as_slice()) {
            *c += count;
            return;
        }
        self.width = if self.counts.is_empty() {
            Some(words.len())
        } else {
            self.width.filter(|&w| w == words.len())
        };
        self.counts.insert(pack.as_slice().into(), count);
    }

    /// Words per pattern when every pattern has the same width.
    fn width(&self) -> Option<usize> {
        self.width
    }

    /// Every pattern, decoded, with its count (in no particular order).
    fn iter(&self) -> impl Iterator<Item = (Vec<u64>, u64)> + '_ {
        self.counts.iter().map(|(bytes, &count)| {
            let mut words = Vec::with_capacity(self.width.unwrap_or(bytes.len()));
            unpack_words(bytes, &mut words);
            (words, count)
        })
    }

    /// Every pattern's count (in no particular order).
    fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.values().copied()
    }

    /// Bytes of packed pattern data held.
    fn packed_bytes(&self) -> usize {
        self.counts.keys().map(|k| k.len()).sum()
    }
}

/// Profile of one candidate code segment.
#[derive(Debug, Clone, Default)]
pub struct SegProfile {
    /// Segment name (for reports).
    pub name: String,
    /// Number of execution instances (the paper's `N`).
    pub n: u64,
    /// Distinct input value sets and how often each occurred, packed;
    /// read them through [`SegProfile::patterns`] and the accessors
    /// below.
    pub distinct: Patterns,
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

    /// Every distinct input pattern, decoded, with how often it occurred
    /// (in no particular order).
    pub fn patterns(&self) -> impl Iterator<Item = (Vec<u64>, u64)> + '_ {
        self.distinct.iter()
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
        let mut key = Vec::new();
        for (bytes, &count) in &self.distinct.counts {
            if count > 1 {
                repeats += count - 1;
                key.clear();
                unpack_words(bytes, &mut key);
                let max = slot_max.entry(index_of(&key, slots)).or_default();
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
        if !self.distinct.is_empty() && self.distinct.width() != Some(1) {
            return None;
        }
        let mut pairs: Vec<(i64, u64)> = self
            .patterns()
            .map(|(key, count)| (key[0] as i64, count))
            .collect();
        pairs.sort_unstable();
        Some(pairs)
    }

    /// Access counts per distinct pattern, sorted descending — the paper's
    /// Figure 11 (RASTA's accesses of distinct input patterns).
    pub fn pattern_access_counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.distinct.counts().collect();
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

/// Scratch buffers an engine's machine owns for [`ProfileData::record_probe`]
/// and reuses across probes.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// Ancestor segments already nested under, for this probe.
    seen: Vec<u32>,
    /// The probe's key, packed.
    pack: Vec<u8>,
}

impl ProfileData {
    /// Records one execution of segment `seg` at its probe, the one
    /// bookkeeping routine every engine calls. It counts the instance in
    /// `n`, then either counts a trapped key read (`key` is `None`) in
    /// `key_traps`, or counts the input value set `key` and nests the
    /// instance once under each distinct active ancestor segment other
    /// than `seg` itself. `ancestors` lists the profile regions open
    /// around the probe, across all frames, repeats allowed. The key is
    /// packed into `scratch` and looked up by its bytes, so a probe
    /// allocates only the first time a key or an ancestor occurs.
    pub(crate) fn record_probe(
        &mut self,
        seg: u32,
        key: Option<&[u64]>,
        ancestors: impl Iterator<Item = u32>,
        scratch: &mut ProbeScratch,
    ) {
        let s = &mut self.segs[seg as usize];
        s.n += 1;
        let Some(key) = key else {
            s.key_traps += 1;
            return;
        };
        s.distinct.add_packing(key, 1, &mut scratch.pack);
        let seen = &mut scratch.seen;
        seen.clear();
        for outer in ancestors {
            if outer != seg && !seen.contains(&outer) {
                seen.push(outer);
                *s.within.entry(outer).or_insert(0) += 1;
            }
        }
    }

    /// Bytes of packed input patterns held across all segments, map and
    /// allocator overhead not included: the profile's dominant memory
    /// cost.
    pub fn pattern_bytes(&self) -> usize {
        self.segs.iter().map(|s| s.distinct.packed_bytes()).sum()
    }

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
    use proptest::prelude::*;

    fn seg_with(counts: &[(&[u64], u64)]) -> SegProfile {
        let mut s = SegProfile::default();
        for (k, c) in counts {
            s.distinct.add(k, *c);
            s.n += c;
        }
        s
    }

    fn packed(words: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        pack_words(words, &mut bytes);
        bytes
    }

    /// Words at the edges of the encoding: zero, the extremes of `i64`
    /// and the f64 bit patterns of NaN, −0.0 and ±∞.
    const EDGE_WORDS: [u64; 8] = [
        0,
        -1i64 as u64,
        i64::MIN as u64,
        i64::MAX as u64,
        0x7ff8_0000_0000_0000, // f64::NAN
        0x8000_0000_0000_0000, // -0.0
        0x7ff0_0000_0000_0000, // f64::INFINITY
        0xfff0_0000_0000_0000, // f64::NEG_INFINITY
    ];

    fn word() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..=u64::MAX,
            (-200i64..200).prop_map(|v| v as u64),
            (0..EDGE_WORDS.len()).prop_map(|i| EDGE_WORDS[i]),
        ]
    }

    #[test]
    fn edge_words_round_trip() {
        assert_eq!(EDGE_WORDS[4], f64::NAN.to_bits());
        assert_eq!(EDGE_WORDS[5], (-0.0f64).to_bits());
        assert_eq!(EDGE_WORDS[6], f64::INFINITY.to_bits());
        assert_eq!(EDGE_WORDS[7], f64::NEG_INFINITY.to_bits());
        let mut words = Vec::new();
        unpack_words(&packed(&EDGE_WORDS), &mut words);
        assert_eq!(words, EDGE_WORDS);
        // Small integers of either sign take one byte; no word takes
        // more than ten.
        assert_eq!(packed(&[0, 1, -1i64 as u64, 63, -64i64 as u64]).len(), 5);
        assert_eq!(packed(&[64]).len(), 2);
        assert_eq!(packed(&[i64::MIN as u64]).len(), 10);
    }

    #[test]
    fn reuse_rate_matches_formula() {
        // 100 executions, 10 distinct → R = 0.9.
        let mut s = SegProfile::default();
        for i in 0..10u64 {
            s.distinct.add(&[i], 10);
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
        assert_eq!(s.value_histogram(), Some(Vec::new()));
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

    /// The per-slot formula over every decoded key, as first written.
    fn collision_deduction_reference(s: &SegProfile, slots: usize) -> f64 {
        if s.n == 0 || slots == 0 {
            return 0.0;
        }
        let mut per_slot: HashMap<usize, Vec<u64>> = HashMap::new();
        for (key, count) in s.patterns() {
            per_slot
                .entry(index_of(&key, slots))
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn collision_deduction_matches_reference(
            keys in prop::collection::vec((0u64..400, 1u64..40, 0u8..4), 0..120),
            slots in 1usize..64,
        ) {
            // Mostly-singleton counts with some repeats, over one- and
            // two-word keys and keys up to 362 words wide (GNUGO's widest),
            // in tables small enough to collide.
            let mut s = SegProfile::default();
            for (k, count, wide) in keys {
                let key: Vec<u64> = if wide == 0 {
                    let base = k as i64 - 200;
                    (0..=k as i64 % 362).map(|i| (base + i) as u64).collect()
                } else {
                    (k..=k + k % 2).collect()
                };
                let count = if count > 30 { count } else { 1 };
                s.distinct.add(&key, count);
                s.n += count;
            }
            prop_assert_eq!(
                s.collision_deduction(slots).to_bits(),
                collision_deduction_reference(&s, slots).to_bits()
            );
        }

        #[test]
        fn packed_patterns_unpack_to_themselves(words in prop::collection::vec(word(), 0..=400)) {
            let bytes = packed(&words);
            prop_assert!(bytes.len() <= 10 * words.len());
            let mut back = Vec::new();
            unpack_words(&bytes, &mut back);
            prop_assert_eq!(back, words);
        }

        #[test]
        fn different_patterns_pack_differently(
            a in prop::collection::vec(word(), 0..=400),
            edit in (0u8..5, 0usize..400, word()),
        ) {
            // `b` is `a` unchanged, with one word replaced, dropped or
            // added, or cut short: equal widths and off-by-one widths,
            // the cases a non-prefix-free encoding would confuse.
            let (op, at, w) = edit;
            let mut b = a.clone();
            match op {
                0 => {}
                1 if !b.is_empty() => { let i = at % b.len(); b[i] = w; }
                2 if !b.is_empty() => { b.remove(at % b.len()); }
                3 => b.insert(at % (b.len() + 1), w),
                _ => b.truncate(at % (b.len() + 1)),
            }
            prop_assert_eq!(packed(&a) == packed(&b), a == b);
            let mut p = Patterns::default();
            p.add(&a, 1);
            p.add(&b, 2);
            let mut got: Vec<(Vec<u64>, u64)> = p.iter().collect();
            got.sort();
            let mut want = if a == b { vec![(a, 3)] } else { vec![(a, 1), (b, 2)] };
            want.sort();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn wide_keys_count_through_record_probe() {
        // GNUGO's widest key: 362 words of small board cells, plus
        // variants differing only in the last word or holding extremes.
        let board: Vec<u64> = (0..362).map(|i| (i % 3) as u64).collect();
        let mut last = board.clone();
        last[361] = -1i64 as u64;
        let extremes: Vec<u64> = (0..362).map(|i| EDGE_WORDS[i % 8]).collect();
        let mut data = ProfileData {
            segs: vec![SegProfile::default()],
        };
        let mut scratch = ProbeScratch::default();
        for (key, times) in [(&board, 5), (&last, 2), (&extremes, 1)] {
            for _ in 0..times {
                data.record_probe(0, Some(key), std::iter::empty(), &mut scratch);
            }
        }
        let s = &data.segs[0];
        assert_eq!((s.n, s.dip()), (8, 3));
        assert!((s.reuse_rate() - (1.0 - 3.0 / 8.0)).abs() < 1e-12);
        assert_eq!(s.pattern_access_counts(), vec![5, 2, 1]);
        assert_eq!(s.distinct.width(), Some(362));
        assert!(s.value_histogram().is_none());
        // Board cells take one byte a word; the extremes take more.
        assert_eq!(packed(&board).len(), 362);
        assert_eq!(packed(&last).len(), 362);
        assert_eq!(data.pattern_bytes(), 2 * 362 + packed(&extremes).len());
        let mut got: Vec<(Vec<u64>, u64)> = s.patterns().collect();
        got.sort();
        let mut want = vec![(board, 5), (last, 2), (extremes, 1)];
        want.sort();
        assert_eq!(got, want);
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
        // Mixed widths have none either, whichever width came first.
        let s = seg_with(&[(&[4], 1), (&[1, 2], 3)]);
        assert_eq!(s.distinct.width(), None);
        assert!(s.value_histogram().is_none());
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
