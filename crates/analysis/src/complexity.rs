//! The trace complexity map of Avin et al. (SIGMETRICS 2020), used by the
//! paper's Q5 experiment (Figure 6) to characterise the corpus datasets.
//!
//! A trace is characterised by two numbers in `[0, 1]`:
//!
//! * **temporal complexity** — how much of the trace's compressibility is due
//!   to the *order* of requests: the compressed size of the original trace
//!   divided by the compressed size of a randomly shuffled copy. Low values
//!   mean strong temporal structure (bursts, repetitions); 1 means the order
//!   carries no information.
//! * **non-temporal complexity** — how much is due to the *frequency skew*:
//!   the compressed size of the shuffled trace divided by the compressed size
//!   of a uniformly random trace over the same support and length. Low values
//!   mean a skewed distribution; 1 means near-uniform frequencies.
//!
//! This mirrors the methodology of the referenced paper up to the choice of
//! compressor (LZW here, gzip there), which only rescales the map slightly.

use crate::lzw::compressed_size;
use rand::seq::SliceRandom;
use rand::Rng;

/// The position of a trace on the complexity map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexityPoint {
    /// Complexity attributable to request order (1 = no temporal structure).
    pub temporal: f64,
    /// Complexity attributable to the frequency distribution
    /// (1 = no skew / uniform frequencies).
    pub non_temporal: f64,
}

impl ComplexityPoint {
    /// Clamps both coordinates into `[0, upper]`; compressors occasionally
    /// make a variant marginally larger than its reference, so values can
    /// exceed 1 by a hair.
    pub fn clamped(self, upper: f64) -> ComplexityPoint {
        ComplexityPoint {
            temporal: self.temporal.clamp(0.0, upper),
            non_temporal: self.non_temporal.clamp(0.0, upper),
        }
    }
}

/// Serialises a request trace into bytes for compression: each request id is
/// written as two little-endian bytes (ids must fit in 16 bits) so that the
/// compressor sees identical alphabets for all variants of the trace.
fn encode(trace: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(trace.len() * 2);
    for &request in trace {
        debug_assert!(request < (1 << 16), "request ids must fit in 16 bits");
        bytes.extend_from_slice(&((request & 0xFFFF) as u16).to_le_bytes());
    }
    bytes
}

/// Computes the complexity-map position of a request trace.
///
/// `rng` drives the shuffling and the uniform reference trace; fixing the
/// seed makes the measurement reproducible.
///
/// Returns the neutral point (1, 1) for traces with fewer than two requests.
///
/// ```
/// use satn_analysis::{complexity_point, compress, decompress};
/// use rand::SeedableRng;
///
/// let data = b"self adjusting trees adjust to demand".repeat(20);
/// assert_eq!(decompress(&compress(&data)), data);
///
/// let trace: Vec<u32> = (0..5000u32).map(|i| i % 7).collect();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let point = complexity_point(&trace, &mut rng);
/// assert!(point.temporal < 1.0); // a strictly periodic trace has temporal structure
/// ```
pub fn complexity_point<R: Rng + ?Sized>(trace: &[u32], rng: &mut R) -> ComplexityPoint {
    if trace.len() < 2 {
        return ComplexityPoint {
            temporal: 1.0,
            non_temporal: 1.0,
        };
    }

    let original = compressed_size(&encode(trace)) as f64;

    let mut shuffled = trace.to_vec();
    shuffled.shuffle(rng);
    let shuffled_size = compressed_size(&encode(&shuffled)) as f64;

    // The uniform reference keeps the same support (set of distinct ids) and
    // length but erases the skew.
    let mut support: Vec<u32> = {
        let mut s = trace.to_vec();
        s.sort_unstable();
        s.dedup();
        s
    };
    support.shuffle(rng);
    let uniform: Vec<u32> = (0..trace.len())
        .map(|_| support[rng.gen_range(0..support.len())])
        .collect();
    let uniform_size = compressed_size(&encode(&uniform)) as f64;

    ComplexityPoint {
        temporal: original / shuffled_size,
        non_temporal: shuffled_size / uniform_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn tiny_traces_get_the_neutral_point() {
        let p = complexity_point(&[], &mut rng(0));
        assert_eq!(p.temporal, 1.0);
        assert_eq!(p.non_temporal, 1.0);
        let p = complexity_point(&[5], &mut rng(0));
        assert_eq!(p.temporal, 1.0);
    }

    #[test]
    fn uniform_random_trace_sits_near_the_top_right_corner() {
        let mut r = rng(1);
        let trace: Vec<u32> = (0..50_000).map(|_| r.gen_range(0..4096)).collect();
        let p = complexity_point(&trace, &mut r).clamped(1.2);
        assert!(p.temporal > 0.9, "temporal {p:?}");
        assert!(p.non_temporal > 0.9, "non-temporal {p:?}");
    }

    #[test]
    fn bursty_trace_has_low_temporal_complexity() {
        // Long runs of the same element: shuffling destroys almost all of the
        // compressibility.
        let mut r = rng(2);
        let mut trace = Vec::new();
        while trace.len() < 50_000 {
            let element = r.gen_range(0..4096u32);
            for _ in 0..r.gen_range(20..60) {
                trace.push(element);
            }
        }
        let p = complexity_point(&trace, &mut r);
        assert!(p.temporal < 0.6, "temporal {p:?}");
        // Frequencies stay roughly uniform across elements.
        assert!(p.non_temporal > 0.75, "non-temporal {p:?}");
    }

    #[test]
    fn skewed_trace_has_low_non_temporal_complexity() {
        // Zipf-like skew without temporal structure (shuffled order).
        let mut r = rng(3);
        let mut trace = Vec::new();
        for element in 0..512u32 {
            let copies = (50_000.0 / f64::from(element + 1).powf(1.8)).ceil() as usize;
            trace.extend(std::iter::repeat_n(element, copies));
        }
        trace.shuffle(&mut r);
        trace.truncate(50_000);
        let p = complexity_point(&trace, &mut r);
        assert!(p.non_temporal < 0.8, "non-temporal {p:?}");
        assert!(p.temporal > 0.85, "temporal {p:?}");
    }

    #[test]
    fn clamping_limits_the_range() {
        let p = ComplexityPoint {
            temporal: 1.4,
            non_temporal: -0.1,
        }
        .clamped(1.0);
        assert_eq!(p.temporal, 1.0);
        assert_eq!(p.non_temporal, 0.0);
    }

    #[test]
    fn measurement_is_seed_deterministic() {
        let trace: Vec<u32> = (0..10_000u32).map(|i| (i * i) % 257).collect();
        let a = complexity_point(&trace, &mut rng(7));
        let b = complexity_point(&trace, &mut rng(7));
        assert_eq!(a, b);
    }
}
