//! The ASCII character-class table: byte → class index (upper, lower,
//! digit, symbol), built at compile time. The hashing kernel in
//! [`multi`](crate::multi) derives each language's byte → token table
//! from it.

use crate::language::CharKind;

/// Class index of an upper-case ASCII letter in [`ASCII_KIND`].
pub const KIND_UPPER: u8 = 0;
/// Class index of a lower-case ASCII letter.
pub const KIND_LOWER: u8 = 1;
/// Class index of an ASCII digit.
pub const KIND_DIGIT: u8 = 2;
/// Class index of everything else (ASCII symbols and all non-ASCII).
pub const KIND_SYMBOL: u8 = 3;

/// 128-entry ASCII lookup table mapping a byte `< 0x80` to its class
/// index (`KIND_UPPER` … `KIND_SYMBOL`). Built at compile time; agrees
/// with [`CharKind::of`] on every ASCII codepoint (pinned by a test).
pub const ASCII_KIND: [u8; 128] = build_ascii_kind();

const fn build_ascii_kind() -> [u8; 128] {
    let mut table = [KIND_SYMBOL; 128];
    let mut b = 0usize;
    while b < 128 {
        // adt-allow(unchecked-arithmetic): b < 128 by the loop bound, so the u8 cast is lossless
        let c = b as u8;
        if c.is_ascii_uppercase() {
            table[b] = KIND_UPPER;
        } else if c.is_ascii_lowercase() {
            table[b] = KIND_LOWER;
        } else if c.is_ascii_digit() {
            table[b] = KIND_DIGIT;
        }
        b += 1;
    }
    table
}

/// Class index (`KIND_*`) of an arbitrary codepoint: LUT for ASCII,
/// symbol for everything else — the same collapse [`CharKind::of`]
/// performs.
#[inline]
pub fn kind_index_of(c: char) -> u8 {
    match ASCII_KIND.get(c as usize) {
        Some(&k) => k,
        None => KIND_SYMBOL,
    }
}

/// [`CharKind`] named by a `KIND_*` class index.
#[inline]
pub fn kind_of_index(idx: u8) -> CharKind {
    match idx {
        KIND_UPPER => CharKind::Upper,
        KIND_LOWER => CharKind::Lower,
        KIND_DIGIT => CharKind::Digit,
        _ => CharKind::Symbol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_agrees_with_charkind_for_all_ascii() {
        for b in 0u8..128 {
            let c = b as char;
            assert_eq!(
                kind_of_index(kind_index_of(c)),
                CharKind::of(c),
                "byte {b:#04x}"
            );
        }
    }

    #[test]
    fn kind_index_collapses_non_ascii_to_symbol() {
        for c in ['é', 'ß', '日', '😀', '\u{80}', '\u{10FFFF}'] {
            assert_eq!(kind_index_of(c), KIND_SYMBOL);
            assert_eq!(kind_of_index(kind_index_of(c)), CharKind::of(c));
        }
    }
}
