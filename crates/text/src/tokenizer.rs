//! Whitespace/punctuation tokenizer and corpus-built vocabulary.

use std::collections::HashMap;

/// Special token: padding.
pub const PAD: &str = "<pad>";
/// Special token: unknown word.
pub const UNK: &str = "<unk>";
/// Special token: beginning of sequence.
pub const BOS: &str = "<bos>";
/// Special token: end of sequence.
pub const EOS: &str = "<eos>";

/// A word-level vocabulary with stable ids.
///
/// Ids 0–3 are reserved for the special tokens in order
/// `<pad>, <unk>, <bos>, <eos>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    word_to_id: HashMap<String, usize>,
    id_to_word: Vec<String>,
}

impl Vocabulary {
    /// Builds a vocabulary from an iterator of documents, keeping every
    /// word that appears at least `min_count` times, ordered by frequency
    /// then lexicographically (deterministic).
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(corpus: I, min_count: usize) -> Self {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for doc in corpus {
            for tok in tokenize_words(doc) {
                *counts.entry(tok).or_insert(0) += 1;
            }
        }
        let mut words: Vec<(String, usize)> =
            counts.into_iter().filter(|(_, c)| *c >= min_count).collect();
        words.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut id_to_word =
            vec![PAD.to_string(), UNK.to_string(), BOS.to_string(), EOS.to_string()];
        id_to_word.extend(words.into_iter().map(|(w, _)| w));
        let word_to_id = id_to_word.iter().enumerate().map(|(i, w)| (w.clone(), i)).collect();
        Vocabulary { word_to_id, id_to_word }
    }

    /// Number of entries including the four special tokens.
    pub fn len(&self) -> usize {
        self.id_to_word.len()
    }

    /// Whether the vocabulary holds only special tokens.
    pub fn is_empty(&self) -> bool {
        self.id_to_word.len() <= 4
    }

    /// Id of a word, or the `<unk>` id.
    pub fn id(&self, word: &str) -> usize {
        self.word_to_id.get(word).copied().unwrap_or(1)
    }

    /// Word for an id, or `<unk>` when out of range.
    pub fn word(&self, id: usize) -> &str {
        self.id_to_word.get(id).map(String::as_str).unwrap_or(UNK)
    }

    /// The id of `<pad>` (always 0).
    pub fn pad_id(&self) -> usize {
        0
    }
}

/// Splits text into lowercase word tokens, treating punctuation as
/// separators.
pub fn tokenize_words(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Encodes captions to fixed-length id sequences against a [`Vocabulary`].
///
/// Sequences are `<bos> w… <eos>` truncated/padded to `max_len` — the
/// paper limits captions to 120 tokens; small-scale presets use less.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tokenizer {
    vocab: Vocabulary,
    max_len: usize,
}

impl Tokenizer {
    /// Creates a tokenizer over a vocabulary with a fixed output length.
    ///
    /// # Panics
    ///
    /// Panics if `max_len < 2` (there must be room for `<bos>`/`<eos>`).
    pub fn new(vocab: Vocabulary, max_len: usize) -> Self {
        assert!(max_len >= 2, "max_len must fit <bos> and <eos>");
        Tokenizer { vocab, max_len }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Fixed encoded length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Encodes text to exactly `max_len` ids.
    pub fn encode(&self, text: &str) -> Vec<usize> {
        let mut ids = vec![self.vocab.id(BOS)];
        for tok in tokenize_words(text) {
            if ids.len() >= self.max_len - 1 {
                break;
            }
            ids.push(self.vocab.id(&tok));
        }
        ids.push(self.vocab.id(EOS));
        while ids.len() < self.max_len {
            ids.push(self.vocab.pad_id());
        }
        ids
    }

    /// Decodes ids back to space-joined words, dropping special tokens.
    pub fn decode(&self, ids: &[usize]) -> String {
        ids.iter()
            .map(|&i| self.vocab.word(i))
            .filter(|w| ![PAD, BOS, EOS].contains(w))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits_punct() {
        assert_eq!(
            tokenize_words("A daytime, aerial-view: 3 cars!"),
            vec!["a", "daytime", "aerial", "view", "3", "cars"]
        );
    }

    #[test]
    fn vocab_reserves_special_ids() {
        let v = Vocabulary::build(["the car the"], 1);
        assert_eq!(v.word(0), PAD);
        assert_eq!(v.word(1), UNK);
        assert_eq!(v.word(2), BOS);
        assert_eq!(v.word(3), EOS);
        assert_eq!(v.id("the"), 4, "most frequent word gets the first free id");
    }

    #[test]
    fn vocab_unknown_maps_to_unk() {
        let v = Vocabulary::build(["car"], 1);
        assert_eq!(v.id("zeppelin"), 1);
        assert_eq!(v.word(9999), UNK);
    }

    #[test]
    fn min_count_filters_rare_words() {
        let v = Vocabulary::build(["car car bus"], 2);
        assert_eq!(v.id("bus"), 1, "rare word should be unk");
        assert_ne!(v.id("car"), 1);
    }

    #[test]
    fn encode_fixed_length_with_specials() {
        let v = Vocabulary::build(["a busy highway with cars"], 1);
        let t = Tokenizer::new(v, 8);
        let ids = t.encode("a busy highway");
        assert_eq!(ids.len(), 8);
        assert_eq!(ids[0], 2); // bos
        assert_eq!(ids[4], 3); // eos after 3 words
        assert_eq!(ids[7], 0); // padded
    }

    #[test]
    fn encode_truncates_long_text() {
        let v = Vocabulary::build(["w"], 1);
        let t = Tokenizer::new(v, 4);
        let ids = t.encode("w w w w w w w w");
        assert_eq!(ids.len(), 4);
        assert_eq!(*ids.last().unwrap(), 3, "eos must survive truncation");
    }

    #[test]
    fn decode_round_trips_known_words() {
        let v = Vocabulary::build(["cars on a highway"], 1);
        let t = Tokenizer::new(v, 10);
        let ids = t.encode("cars on a highway");
        assert_eq!(t.decode(&ids), "cars on a highway");
    }

    #[test]
    fn deterministic_vocab_order() {
        let a = Vocabulary::build(["b a b c a b"], 1);
        let b = Vocabulary::build(["b a b c a b"], 1);
        assert_eq!(a, b);
        assert_eq!(a.id("b"), 4); // freq 3
        assert_eq!(a.id("a"), 5); // freq 2
        assert_eq!(a.id("c"), 6); // freq 1
    }
}
