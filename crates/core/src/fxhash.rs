//! A fast, deterministic hasher for the simulator's footprint maps.
//!
//! Every transactional access looks up and inserts into per-attempt sets
//! (read and write lines, the write buffer, the capacity tracker's set
//! occupancy, the soft read log). With std's SipHash-1-3 those lookups are
//! most of the simulated-access path's host cost. The keys are simulator
//! addresses, not outside input, so they need neither a DoS-resistant hash
//! nor a per-process random seed.
//!
//! [`FxHasher`] is the Firefox/rustc hash in its rustc-hash 2.x form: each
//! word is added and multiplied by an odd constant, and [`Hasher::finish`]
//! rotates the product. The multiply pushes a key's entropy into the high
//! bits, while hashbrown indexes buckets with the low bits; without the
//! rotate, keys at a line stride (multiples of 8, 16 or 32 words) would
//! share their low bits and pile into a few buckets.
//!
//! Iteration order over an [`FxHashMap`]/[`FxHashSet`] is a pure function
//! of the insertion history, the same in every process.

use std::hash::{BuildHasherDefault, Hasher};

/// `std::collections::HashMap` hashed with [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `std::collections::HashSet` hashed with [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// The (stateless) builder of [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The multiplier (rustc-hash 2.x, 64-bit).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// How far [`Hasher::finish`] rotates the product left.
const ROTATE: u32 = 26;

/// Multiply-per-word hasher with a rotating `finish` (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        // Length last, so trailing zero bytes are not invisible.
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LineId, WordAddr};
    use std::collections::BTreeSet;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_stable_and_unseeded() {
        // Equal inputs hash equally, across builders and hashers.
        assert_eq!(fx(WordAddr(12345)), fx(WordAddr(12345)));
        assert_eq!(fx((WordAddr(7), true)), fx((WordAddr(7), true)));
        assert_ne!(fx((WordAddr(7), true)), fx((WordAddr(7), false)));
        // No per-process seed: the hash of a key is a fixed constant.
        assert_eq!(fx(0u32), 0);
        assert_eq!(fx(1u32), K.rotate_left(ROTATE));
        assert_eq!(fx(LineId(3)), 3u64.wrapping_mul(K).rotate_left(ROTATE));
        assert_eq!(fx(0xdead_beef_u64), 0xd060_f6d3_ac1a_89db);
    }

    #[test]
    fn byte_strings_hash_their_length_too() {
        assert_ne!(fx(&b"ab"[..]), fx(&b"ab\0"[..]));
        assert_ne!(fx("abcdefgh"), fx("abcdefg"));
        assert_eq!(fx("a str key"), fx(String::from("a str key")));
    }

    /// 64 consecutive keys at a line stride, as the footprint maps see
    /// them. The low 6 bits of the bare product take only `64 / stride`
    /// values (an odd multiply keeps a key's trailing zeros); `finish`'s
    /// rotate brings high, mixed bits down, so the keys spread like random
    /// ones over 64 buckets and land in distinct buckets of 256.
    #[test]
    fn finish_spreads_line_stride_keys_over_the_low_bits() {
        for stride in [8u32, 16, 32] {
            for base in [0u32, 4096, 1 << 20] {
                let hashes: Vec<u64> = (0..64).map(|i| fx(WordAddr(base + i * stride))).collect();
                let buckets = |bucket: fn(u64) -> u64| {
                    hashes.iter().map(|&h| bucket(h)).collect::<BTreeSet<_>>().len()
                };
                let unrotated = buckets(|h| h.rotate_right(ROTATE) & 63);
                assert_eq!(unrotated, 64 / stride as usize, "stride {stride}");
                assert_eq!(buckets(|h| h & 255), 64, "stride {stride}, base {base}: low 8 bits");
                assert!(buckets(|h| h & 63) >= 48, "stride {stride}, base {base}: low 6 bits");
            }
        }
    }

    #[test]
    fn maps_and_sets_iterate_in_a_fixed_order() {
        let build = || {
            let mut m: FxHashMap<WordAddr, u64> = FxHashMap::default();
            for i in (0..500u32).rev() {
                m.insert(WordAddr(i * 8), i as u64);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
        let set: FxHashSet<LineId> = (0..100).map(LineId).collect();
        assert_eq!(set.len(), 100);
        assert!(set.contains(&LineId(42)) && !set.contains(&LineId(100)));
    }
}
