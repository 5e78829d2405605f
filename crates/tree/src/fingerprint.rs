//! Fixed-width placement digests: the replay fingerprint of a tree.

use std::fmt;

const SEED_LO: u64 = 0x243F_6A88_85A3_08D3;
const SEED_HI: u64 = 0x1319_8A2E_0370_7344;
const MUL_LO: u64 = 0x9E37_79B9_7F4A_7C15;
const MUL_HI: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// A 128-bit digest of a tree placement.
///
/// A fingerprint identifies one placement of elements on a complete tree in
/// 16 bytes. It is the value every determinism oracle compares — engine
/// reports, published snapshots, and the serial reference replays — so two
/// runs agree on a tree's state exactly when their fingerprints are equal
/// (up to a 2⁻¹²⁸-scale collision chance).
///
/// The digest covers the node count followed by the `nd` map —
/// `nd(0), nd(1), …, nd(n − 1)`, each element's heap-order node index. That
/// map is the inverse of the heap-order placement, so it determines the
/// placement exactly, and every [`Occupancy`](crate::Occupancy) and
/// [`TreeSnapshot`](crate::TreeSnapshot) stores it as one slab: digesting it
/// reads that slab front to back, with no allocation.
///
/// The mix is two independent 64-bit lanes over 64-bit words (two map
/// entries per word). Each lane step is a bijection of `state ⊕ word`
/// (odd multiply, then xor-shift), so two maps that first differ at some
/// word diverge there, and can only re-converge by an exact 64-bit
/// cancellation in both lanes at once. A final avalanche mixes the lanes.
///
/// `Display` renders it as 32 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Digests a tree of `nodes` nodes from its `nd` map
    /// (`node_of[e]` = heap index of the node holding element `e`).
    pub(crate) fn of_node_map(nodes: u32, node_of: &[u32]) -> Self {
        let mut digest = Digest::new(u64::from(nodes));
        let mut pairs = node_of.chunks_exact(2);
        for pair in &mut pairs {
            digest.write(u64::from(pair[0]) | (u64::from(pair[1]) << 32));
        }
        if let [last] = pairs.remainder() {
            digest.write(u64::from(*last));
        }
        digest.finish()
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

/// The two-lane running state behind [`Fingerprint`].
struct Digest {
    lo: u64,
    hi: u64,
}

impl Digest {
    fn new(length: u64) -> Self {
        let mut digest = Digest {
            lo: SEED_LO,
            hi: SEED_HI,
        };
        digest.write(length);
        digest
    }

    #[inline]
    fn write(&mut self, word: u64) {
        self.lo = step(self.lo ^ word, MUL_LO);
        self.hi = step(self.hi ^ word.rotate_left(29), MUL_HI);
    }

    fn finish(self) -> Fingerprint {
        let lo = avalanche(self.lo ^ self.hi.rotate_left(32));
        let hi = avalanche(self.hi ^ lo);
        Fingerprint((u128::from(hi) << 64) | u128::from(lo))
    }
}

/// One lane step: a bijection of its input.
#[inline]
fn step(x: u64, multiplier: u64) -> u64 {
    let x = x.wrapping_mul(multiplier);
    x ^ (x >> 32)
}

/// The 64-bit finalizer of MurmurHash3.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{placement, CompleteTree, NodeId, Occupancy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fingerprints_render_as_fixed_width_hex() {
        let tree = CompleteTree::with_levels(3).unwrap();
        let rendered = Occupancy::identity(tree).fingerprint().to_string();
        assert_eq!(rendered.len(), 32);
        assert!(rendered.bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(format!("{:?}", Occupancy::identity(tree).fingerprint()).contains(&rendered));
    }

    #[test]
    fn the_node_count_is_part_of_the_digest() {
        // Same leading map entries, different trees.
        let small = Fingerprint::of_node_map(1, &[0]);
        let padded = Fingerprint::of_node_map(3, &[0]);
        assert_ne!(small, padded);
    }

    #[test]
    fn equal_placements_agree_and_distinct_ones_differ() {
        let tree = CompleteTree::with_levels(6).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let occupancy = placement::random_occupancy(tree, &mut rng);
        assert_eq!(occupancy.fingerprint(), occupancy.clone().fingerprint());
        let other = placement::random_occupancy(tree, &mut rng);
        assert_ne!(occupancy.fingerprint(), other.fingerprint());
        // A single non-adjacent transposition changes the digest too.
        let mut swapped = occupancy.clone();
        swapped.swap_unchecked(NodeId::new(3), NodeId::new(40));
        assert_ne!(occupancy.fingerprint(), swapped.fingerprint());
    }
}
