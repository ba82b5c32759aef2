//! Access statistics shared by all table kinds.

/// Counters describing how a memo table was used during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that found a matching key (and valid outputs).
    pub hits: u64,
    /// Subset of `hits` accepted only after dependency validation on an
    /// entry with at least one mutable dependency region — the red/green
    /// scheme's "green" promotions. Exact-match reuse alone would have
    /// recomputed these.
    pub green_hits: u64,
    /// Lookups whose key matched but whose dependency fingerprint failed
    /// validation ("red"): the entry is stale and the caller recomputes.
    /// Also counted in `misses`.
    pub stale_reds: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Recordings that evicted an entry holding a *different* key — the
    /// paper's hash collisions ("the previously recorded inputs and outputs
    /// in the entry is replaced").
    pub collisions: u64,
    /// Recordings that displaced a live entry (slot replacement in the
    /// direct/merged tables, capacity eviction in the LRU buffer). Every
    /// collision is an eviction; same-key refreshes are neither.
    pub evictions: u64,
    /// Total recordings.
    pub insertions: u64,
    /// Retired: hits of the deleted lock-free optimistic probe path
    /// (DESIGN.md §8h). Always 0. Kept only because the benchmark package
    /// reads it and the snapshot layout stores it (word 8).
    pub optimistic_hits: u64,
    /// Retired: retries of the deleted lock-free optimistic probe path
    /// (DESIGN.md §8h). Always 0. Kept only because the benchmark package
    /// reads it and the snapshot layout stores it (word 9).
    pub optimistic_retries: u64,
    /// Retired: hits of the deleted per-worker L1 front cache
    /// (DESIGN.md §8i). Always 0. Kept only because the benchmark package
    /// reads it and the snapshot layout stores it (word 10).
    pub l1_hits: u64,
    /// Retired: promotions into the deleted per-worker L1 front cache
    /// (DESIGN.md §8i). Always 0. Kept only because the benchmark package
    /// reads it and the snapshot layout stores it (word 11).
    pub promotions: u64,
    /// Recordings the TinyLFU admission sketch refused because the
    /// candidate key's estimated frequency did not exceed the resident
    /// victim's (DESIGN.md §8i). Not insertions: the store is unchanged.
    pub admission_rejects: u64,
}

impl TableStats {
    /// Hit ratio in `[0, 1]`; zero when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Collision rate per access, used to deduct the reuse rate as §2.1
    /// describes.
    pub fn collision_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.collisions as f64 / self.accesses as f64
        }
    }

    /// Merges counters from another table (for aggregate reporting).
    /// Saturates instead of overflowing so pathological aggregate merges
    /// near `u64::MAX` stay well-defined.
    pub fn merge(&mut self, other: &TableStats) {
        self.accesses = self.accesses.saturating_add(other.accesses);
        self.hits = self.hits.saturating_add(other.hits);
        self.green_hits = self.green_hits.saturating_add(other.green_hits);
        self.stale_reds = self.stale_reds.saturating_add(other.stale_reds);
        self.misses = self.misses.saturating_add(other.misses);
        self.collisions = self.collisions.saturating_add(other.collisions);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.insertions = self.insertions.saturating_add(other.insertions);
        self.optimistic_hits = self.optimistic_hits.saturating_add(other.optimistic_hits);
        self.optimistic_retries = self
            .optimistic_retries
            .saturating_add(other.optimistic_retries);
        self.l1_hits = self.l1_hits.saturating_add(other.l1_hits);
        self.promotions = self.promotions.saturating_add(other.promotions);
        self.admission_rejects = self
            .admission_rejects
            .saturating_add(other.admission_rejects);
    }

    /// Counter increments since `earlier` (a snapshot of the same table's
    /// stats). Used by the telemetry layer to attribute per-access deltas
    /// to windows and segments regardless of table kind.
    pub fn delta_since(&self, earlier: &TableStats) -> TableStats {
        TableStats {
            accesses: self.accesses.wrapping_sub(earlier.accesses),
            hits: self.hits.wrapping_sub(earlier.hits),
            green_hits: self.green_hits.wrapping_sub(earlier.green_hits),
            stale_reds: self.stale_reds.wrapping_sub(earlier.stale_reds),
            misses: self.misses.wrapping_sub(earlier.misses),
            collisions: self.collisions.wrapping_sub(earlier.collisions),
            evictions: self.evictions.wrapping_sub(earlier.evictions),
            insertions: self.insertions.wrapping_sub(earlier.insertions),
            optimistic_hits: self.optimistic_hits.wrapping_sub(earlier.optimistic_hits),
            optimistic_retries: self
                .optimistic_retries
                .wrapping_sub(earlier.optimistic_retries),
            l1_hits: self.l1_hits.wrapping_sub(earlier.l1_hits),
            promotions: self.promotions.wrapping_sub(earlier.promotions),
            admission_rejects: self
                .admission_rejects
                .wrapping_sub(earlier.admission_rejects),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_accesses() {
        let s = TableStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.collision_rate(), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = TableStats {
            accesses: 10,
            hits: 6,
            misses: 4,
            collisions: 1,
            evictions: 1,
            insertions: 4,
            ..TableStats::default()
        };
        let b = TableStats {
            accesses: 5,
            hits: 5,
            misses: 0,
            collisions: 0,
            evictions: 0,
            insertions: 0,
            ..TableStats::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.hits, 11);
        assert!((a.hit_ratio() - 11.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn merge_saturates_near_overflow() {
        let mut a = TableStats {
            accesses: u64::MAX - 1,
            hits: u64::MAX,
            misses: 3,
            collisions: u64::MAX - 7,
            evictions: u64::MAX - 7,
            insertions: 0,
            ..TableStats::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.accesses, u64::MAX);
        assert_eq!(a.hits, u64::MAX);
        assert_eq!(a.misses, 6);
        assert_eq!(a.collisions, u64::MAX);
        assert_eq!(a.evictions, u64::MAX);
        // Ratios stay finite and in range even at the saturation point.
        assert!(a.hit_ratio() <= 1.0 + 1e-9);
        assert!(a.collision_rate() <= 1.0 + 1e-9);
    }

    #[test]
    fn ratios_at_boundary_values() {
        let all_hits = TableStats {
            accesses: u64::MAX,
            hits: u64::MAX,
            ..TableStats::default()
        };
        assert!((all_hits.hit_ratio() - 1.0).abs() < 1e-12);
        let one = TableStats {
            accesses: 1,
            misses: 1,
            ..TableStats::default()
        };
        assert_eq!(one.hit_ratio(), 0.0);
        assert_eq!(one.collision_rate(), 0.0);
    }

    #[test]
    fn delta_since_isolates_a_window() {
        let earlier = TableStats {
            accesses: 100,
            hits: 60,
            misses: 40,
            collisions: 5,
            evictions: 6,
            insertions: 40,
            ..TableStats::default()
        };
        let mut later = earlier;
        later.merge(&TableStats {
            accesses: 10,
            hits: 3,
            misses: 7,
            collisions: 2,
            evictions: 2,
            insertions: 7,
            ..TableStats::default()
        });
        let d = later.delta_since(&earlier);
        assert_eq!(d.accesses, 10);
        assert_eq!(d.hits, 3);
        assert_eq!(d.misses, 7);
        assert_eq!(d.collisions, 2);
        assert_eq!(d.evictions, 2);
        assert_eq!(d.insertions, 7);
    }

    #[test]
    fn tiering_counters_merge_and_delta() {
        let earlier = TableStats {
            l1_hits: 4,
            promotions: 2,
            admission_rejects: 1,
            ..TableStats::default()
        };
        let mut later = earlier;
        later.merge(&TableStats {
            l1_hits: 6,
            promotions: 1,
            admission_rejects: 3,
            ..TableStats::default()
        });
        assert_eq!(later.l1_hits, 10);
        assert_eq!(later.promotions, 3);
        assert_eq!(later.admission_rejects, 4);
        let d = later.delta_since(&earlier);
        assert_eq!(d.l1_hits, 6);
        assert_eq!(d.promotions, 1);
        assert_eq!(d.admission_rejects, 3);
    }
}
