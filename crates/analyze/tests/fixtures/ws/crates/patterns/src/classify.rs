//! Fixture: the patterns class-table file is panic-scoped.

pub fn kind_at(table: &[u8; 128], b: usize, stride: usize) -> u8 {
    table[b * stride]
}

pub fn first_word(bytes: &[u8]) -> u64 {
    let word: [u8; 8] = bytes[..8].try_into().unwrap();
    u64::from_le_bytes(word)
}

pub fn mismatch_lane(diff: u64) -> u32 {
    // adt-allow(panic-safety): fixture: caller guarantees diff is nonzero
    u32::try_from(diff.trailing_zeros() / 8).expect("lane index fits u32")
}
