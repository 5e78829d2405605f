//! A self-contained LZW dictionary compressor.
//!
//! The complexity map of Avin et al. ("On the complexity of traffic traces
//! and implications", SIGMETRICS 2020) characterises a trace by how well a
//! universal compressor shrinks it and some derived variants. Any dictionary
//! compressor yields the same *relative* ordering, so this module implements
//! classic LZW over bytes: simple, dependency-free, deterministic.

use std::collections::HashMap;

/// Maximum dictionary size; once reached, the dictionary is frozen (no new
/// entries), which keeps compressor and decompressor trivially in sync.
const MAX_DICT_SIZE: usize = 1 << 16;

/// Compresses `input` with LZW and returns the emitted codes.
///
/// The dictionary starts with the 256 single-byte strings and grows by one
/// entry per emitted code until it reaches 2^16 entries, after which it is
/// frozen.
pub fn compress(input: &[u8]) -> Vec<u32> {
    let mut dictionary: HashMap<Vec<u8>, u32> =
        (0u32..256).map(|byte| (vec![byte as u8], byte)).collect();
    let mut output = Vec::new();
    let mut current: Vec<u8> = Vec::new();

    for &byte in input {
        let mut extended = current.clone();
        extended.push(byte);
        if dictionary.contains_key(&extended) {
            current = extended;
        } else {
            output.push(dictionary[&current]);
            if dictionary.len() < MAX_DICT_SIZE {
                dictionary.insert(extended, dictionary.len() as u32);
            }
            current = vec![byte];
        }
    }
    if !current.is_empty() {
        output.push(dictionary[&current]);
    }
    output
}

/// Decompresses a code stream produced by [`compress`].
///
/// # Panics
///
/// Panics if the code stream is not a valid LZW stream produced by
/// [`compress`] (e.g. references an unknown dictionary entry).
pub fn decompress(codes: &[u32]) -> Vec<u8> {
    let mut dictionary: Vec<Vec<u8>> = (0u32..256).map(|byte| vec![byte as u8]).collect();
    let mut output = Vec::new();
    let mut previous: Option<Vec<u8>> = None;

    for &code in codes {
        let entry = if (code as usize) < dictionary.len() {
            dictionary[code as usize].clone()
        } else if let Some(prev) = &previous {
            // The classic KwKwK special case: the code that is being defined
            // by this very step.
            let mut entry = prev.clone();
            entry.push(prev[0]);
            entry
        } else {
            panic!("invalid LZW stream: first code out of range");
        };
        output.extend_from_slice(&entry);
        if let Some(prev) = previous.take() {
            if dictionary.len() < MAX_DICT_SIZE {
                let mut new_entry = prev;
                new_entry.push(entry[0]);
                dictionary.push(new_entry);
            }
        }
        previous = Some(entry);
    }
    output
}

/// Returns the compressed size of `input` in bytes, assuming each emitted
/// code is written with 16 bits.
pub fn compressed_size(input: &[u8]) -> usize {
    compress(input).len() * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_small_strings() {
        for text in [
            &b""[..],
            b"a",
            b"abababababab",
            b"TOBEORNOTTOBEORTOBEORNOT",
            b"the quick brown fox jumps over the lazy dog",
        ] {
            assert_eq!(decompress(&compress(text)), text, "{text:?}");
        }
    }

    #[test]
    fn roundtrip_random_and_structured_binary_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let random: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        assert_eq!(decompress(&compress(&random)), random);

        let structured: Vec<u8> = (0..10_000).map(|i| ((i / 7) % 256) as u8).collect();
        assert_eq!(decompress(&compress(&structured)), structured);
    }

    #[test]
    fn roundtrip_past_the_dictionary_freeze_point() {
        // More than 2^16 emitted codes so the dictionary freezes.
        let mut rng = StdRng::seed_from_u64(9);
        let long: Vec<u8> = (0..400_000).map(|_| rng.gen()).collect();
        assert_eq!(decompress(&compress(&long)), long);

        let structured: Vec<u8> = (0..400_000u32)
            .map(|i| (i % 251) as u8 ^ (i / 65_536) as u8)
            .collect();
        assert_eq!(decompress(&compress(&structured)), structured);
    }

    #[test]
    fn repetitive_data_compresses_much_better_than_random() {
        let mut rng = StdRng::seed_from_u64(3);
        let random: Vec<u8> = (0..20_000).map(|_| rng.gen()).collect();
        let repetitive: Vec<u8> = b"abcd".iter().copied().cycle().take(20_000).collect();
        assert!(compressed_size(&repetitive) * 5 < repetitive.len());
        assert!(compressed_size(&random) * 5 > random.len() * 4);
    }

    #[test]
    fn compressed_size_counts_two_bytes_per_code() {
        let codes = compress(b"aaaa");
        assert_eq!(compressed_size(b"aaaa"), codes.len() * 2);
        assert_eq!(compressed_size(b""), 0);
    }

    #[test]
    fn kwkwk_case_roundtrips() {
        // "ababa..." triggers the code-not-yet-in-dictionary case.
        let text = b"abababaabababaabababa".repeat(10);
        assert_eq!(decompress(&compress(&text)), text);
    }

    #[test]
    fn text_compresses_better_when_more_repetitive() {
        let natural = b"self adjusting trees adjust themselves to the demand ".repeat(50);
        let shuffled: Vec<u8> = {
            let mut bytes = natural.clone();
            let mut rng = StdRng::seed_from_u64(4);
            for i in (1..bytes.len()).rev() {
                bytes.swap(i, rng.gen_range(0..=i));
            }
            bytes
        };
        assert!(compressed_size(&natural) < compressed_size(&shuffled));
    }
}
