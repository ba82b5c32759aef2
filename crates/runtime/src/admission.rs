//! Frequency-based admission for the shared store (DESIGN.md §8i).
//!
//! [`TinyLfu`] is a counting sketch (4-bit saturating counters, periodic
//! halving) that estimates key frequencies from the record stream of a
//! [`crate::ShardedTable`]. The store consults it before letting a
//! recording evict a resident entry with a different key: the candidate
//! is admitted only when its estimated frequency *exceeds* the victim's,
//! so one-shot keys stop churning hot entries out of a saturated table.
//! [`key_hash64`] is the key hash the sketch is fed with.

/// 64-bit mix (splitmix64 finaliser) used for the TinyLFU row hashes.
/// Distinct from the paper's Jenkins pipeline on purpose: the sketch
/// wants hash bits decorrelated from the planned index (`key mod slots`
/// or Jenkins), whose bits pick both the shard and the entry inside it.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 64-bit hash of a key's words, for [`TinyLfu`] frequency estimates.
pub fn key_hash64(key: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in key {
        h = mix64(h ^ w);
    }
    h
}

/// How many record observations pass before every sketch counter is
/// halved, per counter: the sample period is `HALVING_OPS_PER_COUNTER ×
/// counters`, aging old frequencies out so the sketch tracks the recent
/// stream rather than all history.
const HALVING_OPS_PER_COUNTER: u64 = 8;

/// TinyLFU-style frequency sketch: a count-min of 4 rows of 4-bit
/// saturating counters, halved every sample period (DESIGN.md §8i).
#[derive(Debug, Clone)]
pub struct TinyLfu {
    /// Packed 4-bit counters, 16 per word.
    counters: Vec<u64>,
    /// `nibbles - 1`; the nibble count is a power of two.
    mask: u64,
    /// Record observations since the last halving.
    samples: u64,
    sample_period: u64,
    halvings: u64,
}

/// Count-min rows per estimate.
const SKETCH_ROWS: u64 = 4;

impl TinyLfu {
    /// A sketch sized for a table of `slots` entries: roughly four
    /// counters per slot (rounded up to a power of two, minimum 64), so
    /// estimates stay meaningful at full occupancy.
    pub fn new(slots: usize) -> Self {
        let nibbles = (slots.max(1) * 4).next_power_of_two().max(64);
        TinyLfu {
            counters: vec![0; nibbles / 16],
            mask: (nibbles - 1) as u64,
            samples: 0,
            sample_period: HALVING_OPS_PER_COUNTER * nibbles as u64,
            halvings: 0,
        }
    }

    fn nibble(&self, idx: u64) -> u8 {
        let word = self.counters[(idx / 16) as usize];
        ((word >> ((idx % 16) * 4)) & 0xF) as u8
    }

    fn bump_nibble(&mut self, idx: u64) {
        let word = &mut self.counters[(idx / 16) as usize];
        let shift = (idx % 16) * 4;
        let v = (*word >> shift) & 0xF;
        if v < 0xF {
            *word += 1 << shift;
        }
    }

    fn rows(h: u64) -> impl Iterator<Item = u64> {
        // Double hashing: row i probes h1 + i·h2 (h2 forced odd so the
        // stride is coprime with the power-of-two nibble count).
        let h1 = h;
        let h2 = mix64(h) | 1;
        (0..SKETCH_ROWS).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)))
    }

    /// Estimated frequency of the key hashing to `h`: the count-min
    /// minimum over the rows.
    pub fn estimate(&self, h: u64) -> u8 {
        Self::rows(h)
            .map(|r| self.nibble(r & self.mask))
            .min()
            .unwrap_or(0)
    }

    /// Feeds one observation of the key hashing to `h` into the sketch,
    /// halving every counter when the sample period elapses.
    pub fn observe(&mut self, h: u64) {
        for r in Self::rows(h) {
            self.bump_nibble(r & self.mask);
        }
        self.samples += 1;
        if self.samples >= self.sample_period {
            self.halve();
        }
    }

    /// The admission decision: after observing the candidate, admit it
    /// only when its estimated frequency strictly exceeds the resident
    /// victim's. Strict comparison keeps ties with the incumbent — a
    /// candidate seen no more often than the entry it would evict is not
    /// worth the churn.
    pub fn admits(&mut self, candidate: u64, victim: u64) -> bool {
        self.observe(candidate);
        self.estimate(candidate) > self.estimate(victim)
    }

    fn halve(&mut self) {
        for word in &mut self.counters {
            // Halve all 16 nibbles at once: shift, then mask the bit that
            // leaked in from each nibble's upper neighbour.
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.samples /= 2;
        self.halvings += 1;
    }

    /// Times the sketch halved its counters (aging events).
    pub fn halvings(&self) -> u64 {
        self.halvings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_estimates_track_frequency() {
        let mut lfu = TinyLfu::new(256);
        let hot = key_hash64(&[1]);
        let cold = key_hash64(&[2]);
        for _ in 0..10 {
            lfu.observe(hot);
        }
        lfu.observe(cold);
        assert!(lfu.estimate(hot) > lfu.estimate(cold));
    }

    #[test]
    fn admission_prefers_frequent_candidates() {
        let mut lfu = TinyLfu::new(256);
        let hot = key_hash64(&[1]);
        let one_shot = key_hash64(&[999]);
        for _ in 0..8 {
            lfu.observe(hot);
        }
        assert!(
            !lfu.admits(one_shot, hot),
            "a one-shot key must not evict a hot resident"
        );
        for _ in 0..12 {
            lfu.observe(one_shot);
        }
        assert!(
            lfu.admits(one_shot, hot),
            "a now-hotter candidate is admitted"
        );
    }

    #[test]
    fn counters_saturate_and_halve() {
        let mut lfu = TinyLfu::new(16);
        let h = key_hash64(&[7]);
        for _ in 0..100 {
            lfu.observe(h);
        }
        assert_eq!(lfu.estimate(h), 0xF, "4-bit counters saturate");
        let before = lfu.estimate(h);
        lfu.halve();
        assert_eq!(lfu.estimate(h), before / 2);
        assert!(lfu.halvings() >= 1);
    }

    #[test]
    fn halving_happens_within_the_sample_period() {
        let mut lfu = TinyLfu::new(1);
        // Tiny sketch (64 nibbles): the period is 8×64 = 512 observations.
        for k in 0..513u64 {
            lfu.observe(key_hash64(&[k]));
        }
        assert!(lfu.halvings() >= 1, "periodic aging never fired");
    }
}
