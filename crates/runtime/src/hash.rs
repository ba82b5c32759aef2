//! Hash-key encoding and indexing, following the paper §3.1:
//!
//! > "We generate the hash key by concatenating the values of input
//! > variables. If the hash key is not greater than 32 bits, we use the
//! > modularization to generate hash index. Otherwise, we perform a hash
//! > function \[Jenkins, Dr. Dobb's 1997\] on the large hash key to
//! > generate a 32-bit hash key before the modularization."

/// One mixing step of Jenkins' one-at-a-time hash.
#[inline]
fn jenkins_mix(mut hash: u32, b: u8) -> u32 {
    hash = hash.wrapping_add(b as u32);
    hash = hash.wrapping_add(hash << 10);
    hash ^ (hash >> 6)
}

/// The finalisation avalanche of Jenkins' one-at-a-time hash.
#[inline]
fn jenkins_final(mut hash: u32) -> u32 {
    hash = hash.wrapping_add(hash << 3);
    hash ^= hash >> 11;
    hash.wrapping_add(hash << 15)
}

/// Bob Jenkins' one-at-a-time hash over a byte slice, producing the 32-bit
/// key the paper's scheme feeds to the modularization step.
///
/// # Examples
///
/// ```
/// use memo_runtime::hash::jenkins_one_at_a_time;
/// let h1 = jenkins_one_at_a_time(b"abc");
/// let h2 = jenkins_one_at_a_time(b"abd");
/// assert_ne!(h1, h2);
/// ```
pub fn jenkins_one_at_a_time(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0;
    for &b in bytes {
        hash = jenkins_mix(hash, b);
    }
    jenkins_final(hash)
}

/// Computes the table index for a concatenated key of 64-bit words.
///
/// Single-word keys (the common case in the paper: `quan`'s one integer
/// input) index by `key mod size` directly; longer keys are serialized and
/// Jenkins-hashed to 32 bits first.
///
/// The caller must uphold `size > 0` and `key` non-empty; both are
/// enforced when a [`crate::TableSpec`] is validated at table
/// construction, so the per-access check here is a `debug_assert!`.
///
/// # Panics
///
/// In debug builds, panics if `size` is zero or `key` is empty.
pub fn index_of(key: &[u64], size: usize) -> usize {
    debug_assert!(size > 0, "table size must be positive");
    debug_assert!(!key.is_empty(), "hash key must have at least one word");
    if key.len() == 1 {
        (key[0] % size as u64) as usize
    } else {
        // Stream the words' little-endian bytes through the hash instead
        // of serializing into a scratch buffer: this is the lookup hot
        // path, and the byte order matches the former serialized form.
        let mut hash: u32 = 0;
        for &w in key {
            for b in w.to_le_bytes() {
                hash = jenkins_mix(hash, b);
            }
        }
        (jenkins_final(hash) as usize) % size
    }
}

/// Encodes an `i64` as a key word (bit pattern, so negative values are
/// distinct from positive ones).
pub fn word_of_int(v: i64) -> u64 {
    v as u64
}

/// Encodes an `f64` as a key word (bit pattern; `-0.0` and `0.0` differ,
/// matching the paper's "bit pattern of each input value" rule).
pub fn word_of_float(v: f64) -> u64 {
    v.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jenkins_reference_values_are_stable() {
        // Fixed expected values guard against accidental algorithm edits.
        assert_eq!(jenkins_one_at_a_time(b""), 0);
        let h = jenkins_one_at_a_time(b"a");
        assert_eq!(h, jenkins_one_at_a_time(b"a"));
        assert_ne!(h, jenkins_one_at_a_time(b"b"));
    }

    #[test]
    fn jenkins_avalanches_across_word_boundaries() {
        let a = index_of(&[1, 2, 3], 1 << 20);
        let b = index_of(&[1, 2, 4], 1 << 20);
        let c = index_of(&[2, 2, 3], 1 << 20);
        // Not a strong statistical test, just different inputs should not
        // trivially collide for a roomy table.
        assert!(!(a == b && b == c));
    }

    #[test]
    fn single_word_key_uses_modulo() {
        assert_eq!(index_of(&[17], 10), 7);
        assert_eq!(index_of(&[10], 10), 0);
        // Negative int maps through its bit pattern.
        let w = word_of_int(-1);
        assert_eq!(index_of(&[w], 16), (u64::MAX % 16) as usize);
    }

    #[test]
    fn float_words_distinguish_sign_of_zero() {
        assert_ne!(word_of_float(0.0), word_of_float(-0.0));
        assert_eq!(word_of_float(1.5), word_of_float(1.5));
    }

    #[test]
    fn streamed_multiword_hash_matches_serialized_reference() {
        // The no-allocation streaming path must agree with Jenkins over
        // the explicit little-endian serialization it replaced.
        for key in [&[1u64, 2, 3][..], &[u64::MAX, 0, 0x0123_4567_89AB_CDEF]] {
            let mut bytes = Vec::with_capacity(key.len() * 8);
            for &w in key {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            let reference = (jenkins_one_at_a_time(&bytes) as usize) % 4096;
            assert_eq!(index_of(key, 4096), reference);
        }
    }

    // The check is a debug_assert!, compiled out of release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "table size must be positive")]
    fn zero_size_panics() {
        index_of(&[1], 0);
    }

    // The check is a debug_assert!, compiled out of release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_key_panics() {
        index_of(&[], 4);
    }
}
