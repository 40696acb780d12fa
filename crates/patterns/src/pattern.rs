//! Patterns: the result of applying a generalization language to a value
//! (Equation 3 of the paper), stored as run-length token sequences such as
//! `\D[4]\S\D[2]` or `\A[4]-\A[2]-\A[2]`.

use crate::language::{CharKind, Language, Level};
use std::fmt;

/// One run-length token of a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Token {
    /// A literal character kept at leaf level, repeated `run` times.
    Literal(char),
    /// `\U` run.
    Upper,
    /// `\l` run.
    Lower,
    /// `\L` run.
    Letter,
    /// `\D` run.
    Digit,
    /// `\S` run.
    Symbol,
    /// `\A` run.
    Any,
}

impl Token {
    /// Token for character `c` under language `lang`.
    #[inline]
    pub fn of(c: char, lang: &Language) -> Token {
        let kind = CharKind::of(c);
        match lang.level_of(kind) {
            Level::Leaf => Token::Literal(c),
            Level::Class => match kind {
                CharKind::Upper => Token::Upper,
                CharKind::Lower => Token::Lower,
                CharKind::Digit => Token::Digit,
                CharKind::Symbol => Token::Symbol,
            },
            Level::Super => Token::Letter,
            Level::Root => Token::Any,
        }
    }

    fn label(&self) -> String {
        match self {
            Token::Literal(c) => c.to_string(),
            Token::Upper => r"\U".into(),
            Token::Lower => r"\l".into(),
            Token::Letter => r"\L".into(),
            Token::Digit => r"\D".into(),
            Token::Symbol => r"\S".into(),
            Token::Any => r"\A".into(),
        }
    }
}

/// 64-bit pattern identity used as the statistics key.
///
/// Wraps an FNV-1a hash of the token stream. Collisions are possible in
/// principle but at corpus scales (10^7–10^8 distinct patterns) the expected
/// collision count is negligible and only perturbs counts, which the method
/// tolerates by design (it already tolerates count-min overestimates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PatternHash(pub u64);

pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Folds one framed run word into the FNV-1a-style state — one XOR and
/// one multiply per **run**, where the old byte-serial framing spent 5–9
/// multiplies. Not bitwise FNV-1a over bytes (XOR does not distribute
/// over the modular multiply, so exact byte-batching is impossible); it
/// keeps FNV's offset/prime and mix shape over 64-bit words instead.
#[inline]
pub(crate) fn fnv1a_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Frames one run as a single word: token tag in bits 0–7, run length in
/// bits 8–39, literal codepoint in bits 40–60 (zero for class runs). The
/// fields are disjoint and jointly exhaustive over `(tag, len, literal)`,
/// so distinct runs frame as distinct words.
#[inline]
pub(crate) fn run_word(tag: u8, len: u32, literal: u32) -> u64 {
    // adt-allow(unchecked-arithmetic): constant shifts; the three fields are disjoint in the u64 (pinned by the injectivity test)
    tag as u64 | (len as u64) << 8 | (literal as u64) << 40
}

/// Token tag as framed into [`run_word`]: `Literal = 0`, `\U = 1`,
/// `\l = 2`, `\L = 3`, `\D = 4`, `\S = 5`, `\A = 6`.
pub(crate) const TAG_LITERAL: u8 = 0;

/// The [`run_word`] tag a character of `kind` maps to under a language
/// that holds `kind` at `level`.
#[inline]
pub(crate) const fn tag_of(level: Level, kind: CharKind) -> u8 {
    match level {
        Level::Leaf => TAG_LITERAL,
        Level::Class => match kind {
            CharKind::Upper => 1,
            CharKind::Lower => 2,
            CharKind::Digit => 4,
            CharKind::Symbol => 5,
        },
        Level::Super => 3,
        Level::Root => 6,
    }
}

#[inline]
fn token_tag(t: Token) -> (u8, u32) {
    match t {
        Token::Literal(c) => (TAG_LITERAL, u32::from(c)),
        Token::Upper => (1, 0),
        Token::Lower => (2, 0),
        Token::Letter => (3, 0),
        Token::Digit => (4, 0),
        Token::Symbol => (5, 0),
        Token::Any => (6, 0),
    }
}

/// A generalized pattern: run-length encoded token sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    runs: Vec<(Token, u32)>,
}

impl Pattern {
    /// Applies `lang` to `value` (Equation 3) and run-length encodes the
    /// token stream, one character at a time. The empty value produces
    /// the empty pattern. This plain loop is the oracle every hashing
    /// test pins [`Pattern::hash_value`] and
    /// [`MultiHasher`](crate::MultiHasher) against.
    pub fn generalize(value: &str, lang: &Language) -> Pattern {
        let mut runs: Vec<(Token, u32)> = Vec::with_capacity(8);
        for c in value.chars() {
            let t = Token::of(c, lang);
            match runs.last_mut() {
                Some((last, n)) if *last == t => *n += 1,
                _ => runs.push((t, 1)),
            }
        }
        Pattern { runs }
    }

    /// `Pattern::generalize(value, lang).hash64()` without materializing
    /// the pattern: the one-language case of the
    /// [`MultiHasher`](crate::MultiHasher) kernel.
    pub fn hash_value(value: &str, lang: &Language) -> PatternHash {
        crate::multi::hash_value(value, lang)
    }

    /// The run-length tokens of this pattern.
    pub fn runs(&self) -> &[(Token, u32)] {
        &self.runs
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when the source value was empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Expands to per-character tokens (undoing run-length coding); used by
    /// the alignment distance.
    pub fn expanded(&self) -> Vec<Token> {
        let mut out = Vec::with_capacity(self.runs.iter().map(|&(_, n)| n as usize).sum());
        for &(t, n) in &self.runs {
            out.extend(std::iter::repeat_n(t, n as usize));
        }
        out
    }

    /// Stable 64-bit hash of the pattern (FNV-style word folding over
    /// framed runs — see [`run_word`]). Two patterns compare equal iff
    /// their hashes were computed from identical token streams, modulo
    /// 64-bit collisions.
    pub fn hash64(&self) -> PatternHash {
        let mut h = FNV_OFFSET;
        for &(t, n) in &self.runs {
            let (tag, lit) = token_tag(t);
            h = fnv1a_word(h, run_word(tag, n, lit));
        }
        PatternHash(h)
    }

    /// Approximate in-memory footprint of one occurrence-count entry for
    /// this pattern, in bytes: hash key + count. Used for `size(L)`
    /// accounting before sketching.
    pub const OCC_ENTRY_BYTES: usize = 16;
    /// Approximate footprint of one co-occurrence entry: ordered hash pair +
    /// count.
    pub const COOC_ENTRY_BYTES: usize = 24;
}

impl fmt::Display for Pattern {
    /// Prints in the paper's notation: literal runs verbatim (`--` for a
    /// two-symbol run), class runs as `\D[4]`, with `[1]` omitted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &(t, n) in &self.runs {
            match t {
                Token::Literal(c) => {
                    for _ in 0..n {
                        write!(f, "{c}")?;
                    }
                }
                _ => {
                    if n == 1 {
                        write!(f, "{}", t.label())?;
                    } else {
                        write!(f, "{}[{}]", t.label(), n)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example2_l1() {
        // L1: symbols literal, rest to \A.
        let l1 = Language::paper_l1();
        let p1 = Pattern::generalize("2011-01-01", &l1);
        let p2 = Pattern::generalize("2011.01.02", &l1);
        assert_eq!(p1.to_string(), r"\A[4]-\A[2]-\A[2]");
        assert_eq!(p2.to_string(), r"\A[4].\A[2].\A[2]");
        assert_ne!(p1.hash64(), p2.hash64());
    }

    #[test]
    fn paper_example2_l2_collapses_dates() {
        let l2 = Language::paper_l2();
        let p1 = Pattern::generalize("2011-01-01", &l2);
        let p2 = Pattern::generalize("2011.01.02", &l2);
        assert_eq!(p1.to_string(), r"\D[4]\S\D[2]\S\D[2]");
        assert_eq!(p1, p2);
        assert_eq!(p1.hash64(), p2.hash64());
    }

    #[test]
    fn paper_example2_l2_distinguishes_month_names() {
        let l2 = Language::paper_l2();
        let p3 = Pattern::generalize("2014-01", &l2);
        let p4 = Pattern::generalize("July-01", &l2);
        assert_eq!(p3.to_string(), r"\D[4]\S\D[2]");
        assert_eq!(p4.to_string(), r"\L[4]\S\D[2]");
        assert_ne!(p3.hash64(), p4.hash64());
    }

    #[test]
    fn paper_example2_l1_collapses_month_names() {
        let l1 = Language::paper_l1();
        let p3 = Pattern::generalize("2014-01", &l1);
        let p4 = Pattern::generalize("July-01", &l1);
        assert_eq!(p3, p4);
    }

    #[test]
    fn leaf_language_is_identity_like() {
        let leaf = Language::leaf();
        let p = Pattern::generalize("Ab-7", &leaf);
        assert_eq!(p.to_string(), "Ab-7");
        assert_eq!(p.expanded().len(), 4);
    }

    #[test]
    fn literal_runs_repeat() {
        let leaf = Language::leaf();
        let p = Pattern::generalize("aa--", &leaf);
        assert_eq!(p.to_string(), "aa--");
        assert_eq!(p.len(), 2); // two runs: 'a'x2, '-'x2
    }

    #[test]
    fn empty_value() {
        let p = Pattern::generalize("", &Language::paper_l2());
        assert!(p.is_empty());
        assert_eq!(p.to_string(), "");
    }

    #[test]
    fn run_length_matters_for_identity() {
        let l2 = Language::paper_l2();
        let p1 = Pattern::generalize("123", &l2);
        let p2 = Pattern::generalize("1234", &l2);
        assert_ne!(p1.hash64(), p2.hash64());
    }

    #[test]
    fn hash_distinguishes_literal_chars() {
        let l1 = Language::paper_l1();
        let p1 = Pattern::generalize("1-2", &l1);
        let p2 = Pattern::generalize("1/2", &l1);
        assert_ne!(p1.hash64(), p2.hash64());
    }

    #[test]
    fn unicode_treated_as_symbol() {
        let l2 = Language::paper_l2();
        let p = Pattern::generalize("café", &l2);
        // c,a,f -> \L run; é -> \S.
        assert_eq!(p.to_string(), r"\L[3]\S");
    }

    /// Values chosen to stress the hashing kernel: boundary bytes, block
    /// phases, multibyte UTF-8, and long runs.
    fn differential_values() -> Vec<String> {
        let mut values: Vec<String> = [
            "",
            "a",
            "A",
            "7",
            "-",
            "2011-01-01",
            "July-01",
            "café",
            "naïve-Straße",
            "日本語123",
            "1,000,000.00",
            "MIXEDcase99##",
            "\u{0}mid\u{7f}",
            "\t\n  ",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        values.push("9".repeat(5000));
        values.push(('a'..='z').cycle().take(3000).collect());
        for i in 0..12 {
            values.push(format!(
                "{}{}{}",
                "A".repeat(i),
                "-".repeat(9),
                "7".repeat(19 - i)
            ));
        }
        values
    }

    #[test]
    fn hash_value_matches_generalize_then_hash_all_144_languages() {
        let languages = crate::enumeration::enumerate_restricted_languages();
        for v in differential_values() {
            for lang in &languages {
                assert_eq!(
                    Pattern::hash_value(&v, lang),
                    Pattern::generalize(&v, lang).hash64(),
                    "value {v:?} under {}",
                    lang.id()
                );
            }
        }
    }

    #[test]
    fn run_word_framing_is_injective_on_field_boundaries() {
        // Distinct (tag, len, literal) triples must frame distinctly even
        // at field extremes: max run length, max codepoint, tag 0 with
        // literal '\0'.
        let words = [
            run_word(TAG_LITERAL, 1, 0),          // Literal('\0') x1
            run_word(TAG_LITERAL, 1, 'a' as u32), // Literal('a') x1
            run_word(1, 1, 0),                    // \U x1
            run_word(1, 256, 0),                  // \U x256
            run_word(6, u32::MAX, 0),             // \A at max run
            run_word(TAG_LITERAL, 1, 0x10FFFF),   // max codepoint
            run_word(TAG_LITERAL, 2, 0x10FFFF),
        ];
        for (i, a) in words.iter().enumerate() {
            for (j, b) in words.iter().enumerate() {
                assert_eq!(a == b, i == j, "framing collision between {i} and {j}");
            }
        }
    }
}
