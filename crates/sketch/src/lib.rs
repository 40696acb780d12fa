//! Count-min sketch for co-occurrence compression (§3.4 of the paper).
//!
//! The paper stores per-language pattern co-occurrence dictionaries whose
//! exact form can take GBs; a count-min sketch (Cormode & Muthukrishnan)
//! compresses them by orders of magnitude (4GB → 40MB in the paper) with
//! one-sided error: estimates never undercount, and overestimate by at most
//! `εN` with probability `1−δ`. Because co-occurrence counts in real table
//! corpora follow a power law, the practical error is far below the
//! worst-case bound.

pub mod codec;
pub mod countmin;
pub mod hashing;

pub use codec::{read_f64, read_varint, write_f64, write_varint};
pub use countmin::{CountMinSketch, UpdateStrategy};
