//! Corpus-style workloads (the paper's Q5).
//!
//! The paper extracts request sequences from the five largest books of the
//! Canterbury corpus by sliding a three-letter window over the text (one
//! character at a time); every distinct letter triple becomes an element.
//! The corpus files themselves are not redistributable here, so this module
//! provides two equivalent paths:
//!
//! * [`from_text`] applies exactly the paper's preprocessing to any text the
//!   user supplies (drop in the real Canterbury books to reproduce Q5
//!   verbatim), and
//! * [`MarkovTextGenerator`] synthesises English-like text from a letter-level
//!   Markov chain, producing datasets whose complexity-map position (moderate
//!   temporal, high non-temporal complexity) matches the paper's corpus
//!   datasets — the substitution documented in DESIGN.md.

use crate::workload::Workload;
use rand::Rng;
use satn_tree::ElementId;
use std::collections::HashMap;

/// Builds a corpus workload from raw text using the paper's preprocessing:
/// the text is lower-cased, every run of non-alphabetic characters becomes a
/// single space, and a sliding window of three characters (sliding by one)
/// yields the requests; each distinct triple is an element, numbered in order
/// of first appearance.
pub fn from_text(name: impl Into<String>, text: &str) -> Workload {
    let mut stream = TripleStream::new(text);
    let requests: Vec<ElementId> = stream.by_ref().collect();
    let num_elements = stream.distinct_keys().max(1);
    Workload::new(name, num_elements, requests)
}

/// The streaming form of [`from_text`]: a lazy iterator over the 3-gram
/// requests of a text, assigning element ids in order of first appearance.
///
/// After (or during) iteration, [`TripleStream::distinct_keys`] reports how
/// many distinct triples — i.e. elements — have been seen so far.
#[derive(Debug, Clone)]
pub struct TripleStream {
    characters: Vec<char>,
    position: usize,
    key_of_triple: HashMap<[char; 3], u32>,
}

impl TripleStream {
    /// Creates the stream over `text` (normalised exactly like
    /// [`from_text`]).
    pub fn new(text: &str) -> Self {
        TripleStream {
            characters: normalize(text).chars().collect(),
            position: 0,
            key_of_triple: HashMap::new(),
        }
    }

    /// The number of distinct triples seen so far.
    pub fn distinct_keys(&self) -> u32 {
        self.key_of_triple.len() as u32
    }
}

impl Iterator for TripleStream {
    type Item = ElementId;

    fn next(&mut self) -> Option<ElementId> {
        let window = self.characters.get(self.position..self.position + 3)?;
        let triple = [window[0], window[1], window[2]];
        self.position += 1;
        let next_id = self.key_of_triple.len() as u32;
        let id = *self.key_of_triple.entry(triple).or_insert(next_id);
        Some(ElementId::new(id))
    }
}

/// Normalises text the way the corpus experiment expects: lowercase letters
/// with single spaces between words.
fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_was_space = true;
    for c in text.chars() {
        if c.is_ascii_alphabetic() {
            out.push(c.to_ascii_lowercase());
            last_was_space = false;
        } else if !last_was_space {
            out.push(' ');
            last_was_space = true;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// A letter-level Markov chain with English-like digram statistics, used to
/// synthesise book-sized texts when the real corpus is unavailable.
///
/// The chain distinguishes vowels, common consonants and rare consonants and
/// biases transitions towards vowel/consonant alternation, common digrams
/// (`th`, `he`, `er`, …) and realistic word lengths, which is enough to give
/// the derived 3-gram request streams the skewed frequency profile and
/// moderate temporal locality of natural text.
#[derive(Debug, Clone, Default)]
pub struct MarkovTextGenerator;

/// The mean word length in letters (roughly English).
const MEAN_WORD_LENGTH: f64 = 4.7;

const VOWELS: &[char] = &['a', 'e', 'i', 'o', 'u'];
const COMMON_CONSONANTS: &[char] = &['t', 'n', 's', 'h', 'r', 'd', 'l', 'c', 'm'];
const RARE_CONSONANTS: &[char] = &['w', 'f', 'g', 'y', 'p', 'b', 'v', 'k', 'j', 'x', 'q', 'z'];

impl MarkovTextGenerator {
    /// Creates a generator with a mean word length of 4.7 letters.
    pub fn new() -> Self {
        MarkovTextGenerator
    }

    fn next_letter<R: Rng + ?Sized>(&self, previous: Option<char>, rng: &mut R) -> char {
        let pick = |set: &[char], rng: &mut R| set[rng.gen_range(0..set.len())];
        match previous {
            Some(p) if VOWELS.contains(&p) => {
                // After a vowel: mostly consonants, sometimes another vowel.
                if rng.gen_bool(0.75) {
                    if rng.gen_bool(0.8) {
                        pick(COMMON_CONSONANTS, rng)
                    } else {
                        pick(RARE_CONSONANTS, rng)
                    }
                } else {
                    pick(VOWELS, rng)
                }
            }
            Some('t') if rng.gen_bool(0.3) => 'h', // the classic "th"
            Some(_) => {
                // After a consonant: mostly vowels.
                if rng.gen_bool(0.7) {
                    pick(VOWELS, rng)
                } else if rng.gen_bool(0.8) {
                    pick(COMMON_CONSONANTS, rng)
                } else {
                    pick(RARE_CONSONANTS, rng)
                }
            }
            None => {
                // Word-initial letter.
                if rng.gen_bool(0.35) {
                    pick(VOWELS, rng)
                } else if rng.gen_bool(0.75) {
                    pick(COMMON_CONSONANTS, rng)
                } else {
                    pick(RARE_CONSONANTS, rng)
                }
            }
        }
    }

    /// Generates one word.
    pub fn word<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        // Geometric-ish word length around the mean, at least 1.
        let mut length = 1;
        while length < 12 && rng.gen_bool(1.0 - 1.0 / MEAN_WORD_LENGTH) {
            length += 1;
        }
        let mut word = String::with_capacity(length);
        let mut previous = None;
        for _ in 0..length {
            let letter = self.next_letter(previous, rng);
            word.push(letter);
            previous = Some(letter);
        }
        word
    }

    /// Generates a text of `num_words` words separated by single spaces.
    pub fn text<R: Rng + ?Sized>(&self, num_words: usize, rng: &mut R) -> String {
        let mut text = String::new();
        for i in 0..num_words {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(&self.word(rng));
        }
        text
    }
}

/// Generates the five synthetic "books" standing in for the five largest
/// Canterbury-corpus books, already preprocessed into 3-gram workloads.
///
/// `scale` multiplies the number of words per book: `1.0` produces books with
/// 50k–200k words (corpus-like but manageable); smaller values are useful for
/// tests and the quick experiment mode.
pub fn synthetic_books<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> Vec<Workload> {
    let base_words = [200_000usize, 60_000, 50_000, 55_000, 150_000];
    let generator = MarkovTextGenerator::new();
    base_words
        .iter()
        .enumerate()
        .map(|(index, &words)| {
            let words = ((words as f64 * scale).round() as usize).max(16);
            let text = generator.text(words, rng);
            from_text(format!("book{}", index + 1), &text)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalize_collapses_non_letters() {
        assert_eq!(normalize("Hello,  World! 42"), "hello world");
        assert_eq!(normalize("  a  "), "a");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn from_text_counts_triples_in_order_of_first_appearance() {
        let w = from_text("tiny", "abcabc");
        // normalized "abcabc": triples abc, bca, cab, abc
        assert_eq!(w.len(), 4);
        assert_eq!(w.num_elements(), 3);
        assert_eq!(w.requests()[0], ElementId::new(0));
        assert_eq!(w.requests()[3], ElementId::new(0));
    }

    #[test]
    fn from_text_handles_short_inputs() {
        let w = from_text("empty", "a!");
        assert!(w.is_empty());
        assert_eq!(w.num_elements(), 1);
    }

    #[test]
    fn markov_words_look_like_words() {
        let mut rng = StdRng::seed_from_u64(11);
        let generator = MarkovTextGenerator::new();
        let mut total_length = 0usize;
        for _ in 0..500 {
            let word = generator.word(&mut rng);
            assert!(!word.is_empty() && word.len() <= 12);
            assert!(word.chars().all(|c| c.is_ascii_lowercase()));
            total_length += word.len();
        }
        let mean = total_length as f64 / 500.0;
        assert!((2.5..8.0).contains(&mean), "mean word length {mean}");
    }

    #[test]
    fn synthetic_books_have_realistic_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let books = synthetic_books(0.02, &mut rng);
        assert_eq!(books.len(), 5);
        for book in &books {
            // Thousands of requests over hundreds-to-thousands of keys.
            assert!(
                book.len() > 1_000,
                "{} too short: {}",
                book.name(),
                book.len()
            );
            assert!(
                book.num_elements() > 200,
                "{}: {}",
                book.name(),
                book.num_elements()
            );
            // Natural-text 3-grams are skewed: entropy below the uniform
            // maximum log2(num_elements), and the hottest triple is requested
            // far more often than the average one.
            let uniform_entropy = f64::from(book.num_elements()).log2();
            assert!(book.empirical_entropy() < 0.97 * uniform_entropy);
            let frequencies = book.frequencies();
            let max = *frequencies.iter().max().unwrap() as f64;
            let mean = book.len() as f64 / book.distinct_requested() as f64;
            assert!(max > 4.0 * mean, "max {max} vs mean {mean}");
            // Adjacent windows overlap in two characters, but exact repeats
            // are rare (only for runs like "aaa"): temporal locality is modest.
            assert!(book.repeat_fraction() < 0.2);
        }
    }

    #[test]
    fn generator_is_seed_deterministic() {
        let generator = MarkovTextGenerator::new();
        let a = generator.text(100, &mut StdRng::seed_from_u64(5));
        let b = generator.text(100, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
