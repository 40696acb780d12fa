//! Pattern hashing: one branch-free token-table kernel that hashes a value
//! under K languages, bit-identical to
//! `Pattern::generalize(v, lang).hash64()`.
//!
//! Training (§3.2) hashes every distinct corpus value under a batch of
//! candidate languages and the scan hashes every distinct column value
//! under the model's selected languages; both go through
//! [`MultiHasher`], and [`Pattern::hash_value`](crate::Pattern::hash_value)
//! is its one-language case. The kernel runs language-outer:
//!
//! 1. Per language, a 128-entry ASCII table maps each byte straight to a
//!    run **token**: the class tag (`\U`, `\l`, `\L`, `\D`, `\S`, `\A`),
//!    or tag 0 plus the byte where the language keeps that class
//!    literal. A non-ASCII char is a symbol: its codepoint where the
//!    language keeps symbols literal, else the `\S`/`\A` tag. The tables
//!    of all 256 level combinations are built at compile time, so no
//!    call builds one.
//! 2. A pattern run starts wherever the token changes. The value is
//!    walked in blocks of 64 tokens; each token writes its
//!    position and itself to the next scratch slot and advances the slot
//!    by `(token != previous) as usize`, so recording run starts takes no
//!    data-dependent branch. The open run carries across blocks, so the
//!    scratch is fixed-size whatever the value's length.
//! 3. Each recorded run folds one framed word (`run_word`: tag, length
//!    and literal) into the FNV state, exactly as `Pattern::hash64`
//!    frames the run.
//!
//! A language that sends all four classes to one non-literal tag
//! (`U3l3d3s3`) frames every non-empty value as one run, so it hashes in
//! O(1) from the value's character count.
//!
//! Cost is one table load, two stores and a compare per byte per
//! language, plus one multiply per pattern run (DESIGN.md §13).

use crate::classify::{ASCII_KIND, KIND_DIGIT, KIND_LOWER, KIND_SYMBOL, KIND_UPPER};
use crate::language::{CharKind, Language, Level};
use crate::pattern::{fnv1a_word, run_word, tag_of, FNV_OFFSET, TAG_LITERAL};
use crate::PatternHash;

/// Tokens the kernel scans per block. The scratch holds one block.
const BLOCK: usize = 64;
/// `BLOCK` is a power of two: masking a slot index with this keeps it in
/// the scratch without a bounds check.
const SLOT_MASK: usize = BLOCK - 1;

/// A token no char maps to (tokens are at most `0x10FFFF << 8 | 6`): the
/// "previous token" before a value's first char.
const NO_TOKEN: u32 = u32::MAX;

/// One language's char → token map. A token is `tag | literal << 8`:
/// the [`run_word`] tag in the low byte and, for literal runs, the
/// codepoint above it.
#[derive(Debug, Clone, Copy)]
struct TokenTable {
    /// Token of each ASCII byte.
    ascii: [u16; 128],
    /// Non-ASCII char `c` maps to `symbol_tag | (c << 8) & symbol_mask`:
    /// the mask is all ones when the language keeps symbols literal.
    symbol_tag: u32,
    symbol_mask: u32,
    /// The tag all four classes share, when they share one that is not
    /// literal; [`TAG_LITERAL`] otherwise.
    uniform: u8,
}

/// Level code of the [`TABLES`] index: the digit `Language::id` prints.
const LEVELS: [Level; 4] = [Level::Leaf, Level::Class, Level::Super, Level::Root];

/// The token table of every `(upper, lower, digit, symbol)` level
/// combination, indexed by level code: 256 tables, about 67 KiB.
static TABLES: [[[[TokenTable; 4]; 4]; 4]; 4] = build_tables();

const fn build_tables() -> [[[[TokenTable; 4]; 4]; 4]; 4] {
    const EMPTY: TokenTable = TokenTable {
        ascii: [0; 128],
        symbol_tag: 0,
        symbol_mask: 0,
        uniform: TAG_LITERAL,
    };
    let mut out = [[[[EMPTY; 4]; 4]; 4]; 4];
    let mut u = 0;
    while u < 4 {
        let mut l = 0;
        while l < 4 {
            let mut d = 0;
            while d < 4 {
                let mut s = 0;
                while s < 4 {
                    out[u][l][d][s] = TokenTable::new([
                        tag_of(LEVELS[u], CharKind::Upper),
                        tag_of(LEVELS[l], CharKind::Lower),
                        tag_of(LEVELS[d], CharKind::Digit),
                        tag_of(LEVELS[s], CharKind::Symbol),
                    ]);
                    s += 1;
                }
                d += 1;
            }
            l += 1;
        }
        u += 1;
    }
    out
}

/// Index of `level` in [`LEVELS`].
const fn level_code(level: Level) -> usize {
    match level {
        Level::Leaf => 0,
        Level::Class => 1,
        Level::Super => 2,
        Level::Root => 3,
    }
}

impl TokenTable {
    /// The table for tags indexed by `KIND_*` class index.
    const fn new(tags: [u8; 4]) -> TokenTable {
        let mut ascii = [0u16; 128];
        let mut b = 0usize;
        while b < 128 {
            let tag = tags[ASCII_KIND[b] as usize];
            ascii[b] = if tag == TAG_LITERAL {
                // adt-allow(unchecked-arithmetic): b < 128 by the loop bound, so b << 8 < 2^15 fits the u16
                (b as u16) << 8
            } else {
                // adt-allow(unchecked-arithmetic): u8 to u16 widens (`u16::from` is not const)
                tag as u16
            };
            b += 1;
        }
        let symbol_tag = tags[KIND_SYMBOL as usize];
        let first = tags[KIND_UPPER as usize];
        let shared = first == tags[KIND_LOWER as usize]
            && first == tags[KIND_DIGIT as usize]
            && first == symbol_tag;
        TokenTable {
            ascii,
            // adt-allow(unchecked-arithmetic): u8 to u32 widens (`u32::from` is not const)
            symbol_tag: symbol_tag as u32,
            symbol_mask: if symbol_tag == TAG_LITERAL {
                u32::MAX
            } else {
                0
            },
            uniform: if shared { first } else { TAG_LITERAL },
        }
    }

    /// The table of `lang`.
    fn of(lang: &Language) -> &'static TokenTable {
        let [u, l, d, s] = [lang.upper, lang.lower, lang.digit, lang.symbol].map(level_code);
        &TABLES[u][l][d][s]
    }

    /// Token of a char of a non-ASCII value.
    #[inline]
    fn token(&self, c: char) -> u32 {
        match self.ascii.get(c as usize) {
            Some(&t) => u32::from(t),
            // adt-allow(unchecked-arithmetic): a codepoint is below 2^21, so c << 8 < 2^29 fits the u32
            None => self.symbol_tag | (u32::from(c) << 8) & self.symbol_mask,
        }
    }

    /// `Pattern::generalize(value, lang).hash64()` for this table's
    /// language; `ascii` says whether `value` is all ASCII.
    #[inline]
    fn hash(&self, value: &str, ascii: bool, scratch: &mut Scratch) -> PatternHash {
        if self.uniform != TAG_LITERAL {
            let chars = if ascii {
                value.len()
            } else {
                value.chars().count()
            };
            let run = OpenRun {
                token: u32::from(self.uniform),
                len: chars as u64,
                ..OpenRun::new()
            };
            return run.finish();
        }
        let mut run = OpenRun::new();
        if ascii {
            for chunk in value.as_bytes().chunks(BLOCK) {
                let tokens = chunk
                    .iter()
                    .map(|&b| u32::from(self.ascii[usize::from(b & 0x7f)]));
                run.scan_block(tokens, scratch);
            }
        } else {
            let mut chars = value.chars();
            while run.scan_block(chars.by_ref().map(|c| self.token(c)), scratch) == BLOCK {}
        }
        run.finish()
    }
}

/// One block's run starts: slot `j < m` holds the position and token of
/// the block's `j`-th run start.
#[derive(Debug, Clone)]
struct Scratch {
    starts: [usize; BLOCK],
    tokens: [u32; BLOCK],
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            starts: [0; BLOCK],
            tokens: [0; BLOCK],
        }
    }
}

/// The FNV state of one value under one language, and the run still open
/// at the end of the blocks scanned so far.
struct OpenRun {
    hash: u64,
    token: u32,
    /// Chars of the open run; 0 before the first char.
    len: u64,
}

impl OpenRun {
    fn new() -> Self {
        OpenRun {
            hash: FNV_OFFSET,
            token: NO_TOKEN,
            len: 0,
        }
    }

    /// Folds the run of `len` chars of `token` into the hash.
    #[inline]
    fn fold(&mut self, token: u32, len: u64) {
        // adt-allow(unchecked-arithmetic): the low byte of a token is its tag; a run of 2^32 chars is outside the cell-size contract (8 MiB bodies)
        let word = run_word(token as u8, len as u32, token >> 8);
        self.hash = fnv1a_word(self.hash, word);
    }

    /// Scans the next block (at most `BLOCK` tokens of `tokens`) and
    /// folds every run that closes in it. Returns the tokens consumed.
    #[inline]
    fn scan_block(&mut self, tokens: impl Iterator<Item = u32>, scratch: &mut Scratch) -> usize {
        let mut m = 0usize;
        let mut n = 0usize;
        let mut prev = self.token;
        for t in tokens.take(BLOCK) {
            // m <= n < BLOCK, so the mask never wraps.
            scratch.starts[m & SLOT_MASK] = n;
            scratch.tokens[m & SLOT_MASK] = t;
            m += usize::from(t != prev);
            prev = t;
            n += 1;
        }
        let starts = &scratch.starts[..m];
        let tokens = &scratch.tokens[..m];
        let (Some(&first), Some(&last), Some(&last_token)) =
            (starts.first(), starts.last(), tokens.last())
        else {
            // No run starts here: the whole block extends the open run.
            self.len += n as u64;
            return n;
        };
        // The open run extends up to the block's first start, then closes
        // (it is empty only before the value's first char).
        let open = self.len + first as u64;
        if open > 0 {
            self.fold(self.token, open);
        }
        for (pair, &t) in starts.windows(2).zip(tokens) {
            if let &[a, b] = pair {
                self.fold(t, (b - a) as u64);
            }
        }
        self.token = last_token;
        self.len = (n - last) as u64;
        n
    }

    /// Folds the open run, if any, and returns the value's hash.
    fn finish(mut self) -> PatternHash {
        if self.len > 0 {
            self.fold(self.token, self.len);
        }
        PatternHash(self.hash)
    }
}

/// `Pattern::generalize(value, lang).hash64()` through the kernel.
pub(crate) fn hash_value(value: &str, lang: &Language) -> PatternHash {
    TokenTable::of(lang).hash(value, value.is_ascii(), &mut Scratch::default())
}

/// Hashes values under a fixed list of languages. Its allocations happen
/// at construction, none per value; each worker thread clones its own.
#[derive(Debug, Clone)]
pub struct MultiHasher {
    tables: Vec<&'static TokenTable>,
    scratch: Scratch,
    out: Vec<PatternHash>,
}

impl MultiHasher {
    /// A hasher for `languages`, in order.
    pub fn new(languages: &[Language]) -> Self {
        MultiHasher {
            tables: languages.iter().map(TokenTable::of).collect(),
            scratch: Scratch::default(),
            out: vec![PatternHash(0); languages.len()],
        }
    }

    /// Hashes `value` under every language. Entry `k` of the returned
    /// slice equals `Pattern::generalize(value, &languages[k]).hash64()`.
    pub fn hash_value(&mut self, value: &str) -> &[PatternHash] {
        let ascii = value.is_ascii();
        for (out, table) in self.out.iter_mut().zip(&self.tables) {
            *out = table.hash(value, ascii, &mut self.scratch);
        }
        &self.out
    }
}

/// Values that hit every run-boundary case of generalization: empty,
/// single characters of each class, mixed classes, literal-symbol runs,
/// multi-byte UTF-8 and long same-character runs. The kernel's tests here
/// and the scan cache's tests in adt-core hash these.
pub const TRICKY_VALUES: &[&str] = &[
    "",
    "a",
    "A",
    "7",
    "-",
    "2011-01-01",
    "2011.01.02",
    "July-01",
    "aa--",
    "Ab-7",
    "café",
    "naïve-Straße",
    "日本語123",
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
    "aA0-aA0-aA0",
    "   ",
    "\t\n",
    "x",
    "1,000,000.00",
    "MIXEDcase99##",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::{enumerate_coarse_languages, enumerate_restricted_languages};
    use crate::pattern::Pattern;
    use adt_rng::prelude::*;

    /// Hashes every value under `languages` in batches of each size in
    /// `batches`, one hasher per batch reused across values, and checks
    /// every hash bit for bit against `Pattern::generalize(..).hash64()`.
    fn check_batched<S: AsRef<str>>(languages: &[Language], values: &[S], batches: &[usize]) {
        let want: Vec<Vec<PatternHash>> = values
            .iter()
            .map(|v| {
                let v = v.as_ref();
                languages
                    .iter()
                    .map(|lang| Pattern::generalize(v, lang).hash64())
                    .collect()
            })
            .collect();
        for &size in batches {
            for (bi, batch) in languages.chunks(size).enumerate() {
                let mut hasher = MultiHasher::new(batch);
                for (v, want) in values.iter().zip(&want) {
                    let v = v.as_ref();
                    let got = hasher.hash_value(v);
                    let want = &want[bi * size..bi * size + batch.len()];
                    for ((lang, g), w) in batch.iter().zip(got).zip(want) {
                        let shown: String = v.chars().take(40).collect();
                        assert_eq!(
                            g,
                            w,
                            "value {shown:?} ({} bytes) under {} in a batch of {size}",
                            v.len(),
                            lang.id()
                        );
                    }
                }
            }
        }
    }

    fn check_all<S: AsRef<str>>(languages: &[Language], values: &[S]) {
        check_batched(languages, values, &[1, 3, 12, languages.len().max(1)]);
        for v in values {
            let v = v.as_ref();
            for lang in languages {
                assert_eq!(
                    Pattern::hash_value(v, lang),
                    Pattern::generalize(v, lang).hash64(),
                    "one-language hash of {v:?} under {}",
                    lang.id()
                );
            }
        }
    }

    /// The seeded differential set: ASCII free text of 0–400 chars,
    /// 2-, 3- and 4-byte chars next to literal ASCII symbols, `\0` and
    /// `\x7f`, and same-character runs that cross 64-byte and
    /// block boundaries at several phases. `"ééé"` pins that the
    /// uniform language (`U3l3d3s3`) frames a run of 3 chars, not 6 bytes.
    fn generated_values() -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(0x5eed_0032);
        let words = [
            "the", "Quick", "brown", "FOX", "2011", "-", ", ", ".", "   ", "x7", "e.g.", "(c)",
        ];
        let multibyte = [
            'é',
            'ß',
            '日',
            '本',
            '😀',
            '\u{80}',
            '\u{7ff}',
            '\u{800}',
            '\u{10FFFF}',
        ];
        let symbols = ['-', '/', '.', ' ', '#', '\u{0}', '\u{7f}'];
        let mut values: Vec<String> = ["ééé", "-é-", "é日é", "😀😀😀", "aaaaaaaaé", "A\u{0}\u{0}z"]
            .map(String::from)
            .to_vec();
        for _ in 0..60 {
            let target = rng.random_range(0..=400usize);
            let mut v = String::new();
            while v.len() < target {
                let w = words[rng.random_range(0..words.len())];
                v.push_str(w);
                if rng.random_bool(0.5) {
                    v.push(' ');
                }
            }
            v.truncate(target);
            values.push(v);
        }
        for _ in 0..60 {
            let len = rng.random_range(1..=40usize);
            let v: String = (0..len)
                .map(|_| match rng.random_range(0..4u32) {
                    0 => multibyte[rng.random_range(0..multibyte.len())],
                    1 => symbols[rng.random_range(0..symbols.len())],
                    2 => char::from(b'a' + rng.random_range(0..26u8)),
                    _ => char::from(b'0' + rng.random_range(0..10u8)),
                })
                .collect();
            values.push(v);
        }
        for c in ['\u{0}', '\u{7f}', '9', 'a', 'Z', '-', 'é', '日'] {
            for len in [1, 63, 64, 65, 127, 128, 129, 200] {
                values.push(c.to_string().repeat(len));
                values.push(format!("x{}", c.to_string().repeat(len)));
                values.push(format!(
                    "{}{}{}",
                    "7".repeat(61),
                    c.to_string().repeat(len),
                    "A"
                ));
            }
        }
        values
    }

    #[test]
    fn matches_generalize_for_paper_languages() {
        check_all(
            &[
                Language::paper_l1(),
                Language::paper_l2(),
                Language::leaf(),
                Language::root(),
                crate::crude::crude_language(),
            ],
            TRICKY_VALUES,
        );
    }

    #[test]
    fn matches_generalize_for_all_144_languages() {
        check_all(&enumerate_restricted_languages(), TRICKY_VALUES);
        check_all(&enumerate_restricted_languages(), &generated_values());
    }

    #[test]
    fn matches_generalize_for_coarse_space() {
        check_all(&enumerate_coarse_languages(), TRICKY_VALUES);
    }

    #[test]
    fn long_runs_and_long_values() {
        let long_run = "9".repeat(5000);
        let alternating: String = ('a'..='z').cycle().take(3000).collect();
        let values = [long_run.as_str(), alternating.as_str()];
        check_all(&enumerate_coarse_languages(), &values);
        // One 4 MiB value: long runs of each class, so it spans tens of
        // thousands of blocks, and one multibyte char, so it takes the
        // per-char path.
        let unit = format!("{}{}{}--", "7".repeat(300), "x".repeat(100), "Q".repeat(90));
        let huge = format!("é{}", unit.repeat((4 << 20) / unit.len()));
        check_batched(&enumerate_restricted_languages(), &[huge], &[144]);
    }

    #[test]
    fn hasher_is_reusable_across_values() {
        let mut hasher = MultiHasher::new(&enumerate_coarse_languages());
        // Interleave long and short values to shake out stale run state.
        let first = hasher.hash_value("2011-01-01").to_vec();
        hasher.hash_value(&"x".repeat(3 * BLOCK));
        hasher.hash_value("日本語");
        hasher.hash_value("x");
        hasher.hash_value("");
        let again = hasher.hash_value("2011-01-01").to_vec();
        assert_eq!(first, again);
    }

    #[test]
    fn empty_language_set() {
        let mut hasher = MultiHasher::new(&[]);
        assert!(hasher.hash_value("abc").is_empty());
    }
}
