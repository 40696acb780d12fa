//! Compact binary serialization for sketches.
//!
//! Counter tables are written verbatim. Shared varint helpers live here
//! too — the stats and model codecs build on them.

use crate::countmin::{CountMinSketch, UpdateStrategy};
use crate::hashing::RowHasher;
use std::io::{self, Read, Write};

/// Most entries a decoder reserves room for before reading them. Length
/// fields come from untrusted bytes, so a few-byte file claiming 2^28
/// entries must not allocate gigabytes up front: decoders reserve at most
/// this many and let the container grow as entries actually decode.
pub const MAX_PREALLOC: usize = 4096;

/// LEB128 unsigned varint.
pub fn write_varint<W: Write>(w: &mut W, mut x: u64) -> io::Result<()> {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads a LEB128 unsigned varint.
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint too long",
            ));
        }
        x |= ((b[0] & 0x7f) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
    }
}

/// Writes an f64 as little-endian bits.
pub fn write_f64<W: Write>(w: &mut W, x: f64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Reads a little-endian f64.
pub fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

const SKETCH_MAGIC: &[u8; 4] = b"ADS1";

impl CountMinSketch {
    /// Writes the sketch in the compact binary format.
    pub fn write_binary<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(SKETCH_MAGIC)?;
        write_varint(w, self.width() as u64)?;
        write_varint(w, self.depth() as u64)?;
        w.write_all(&[match self.strategy() {
            UpdateStrategy::Plain => 0u8,
            UpdateStrategy::Conservative => 1u8,
        }])?;
        write_varint(w, self.total())?;
        for h in self.hashers() {
            let (a, b) = h.params();
            w.write_all(&a.to_le_bytes())?;
            w.write_all(&b.to_le_bytes())?;
        }
        for &cell in self.table() {
            write_varint(w, cell as u64)?;
        }
        Ok(())
    }

    /// Reads a sketch written by [`CountMinSketch::write_binary`].
    pub fn read_binary<R: Read>(r: &mut R) -> io::Result<CountMinSketch> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != SKETCH_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad sketch magic",
            ));
        }
        let width = read_varint(r)? as usize;
        let depth = read_varint(r)? as usize;
        if width == 0 || depth == 0 || width.saturating_mul(depth) > (1 << 30) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad sketch dims",
            ));
        }
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let strategy = match tag[0] {
            0 => UpdateStrategy::Plain,
            1 => UpdateStrategy::Conservative,
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad strategy")),
        };
        let total = read_varint(r)?;
        let mut hashers = Vec::with_capacity(depth.min(MAX_PREALLOC));
        for _ in 0..depth {
            let mut a = [0u8; 8];
            let mut b = [0u8; 8];
            r.read_exact(&mut a)?;
            r.read_exact(&mut b)?;
            hashers.push(RowHasher::from_params(
                u64::from_le_bytes(a),
                u64::from_le_bytes(b),
            ));
        }
        let mut table = Vec::with_capacity((width * depth).min(MAX_PREALLOC));
        for _ in 0..width * depth {
            let v = read_varint(r)?;
            if v > u32::MAX as u64 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "cell overflow"));
            }
            table.push(v as u32);
        }
        Ok(CountMinSketch::from_parts(
            width, depth, strategy, hashers, table, total,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for x in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, x).unwrap();
            let back = read_varint(&mut buf.as_slice()).unwrap();
            assert_eq!(back, x);
        }
    }

    #[test]
    fn f64_roundtrip() {
        for x in [0.0, -0.5851, f64::MAX, f64::MIN_POSITIVE] {
            let mut buf = Vec::new();
            write_f64(&mut buf, x).unwrap();
            assert_eq!(read_f64(&mut buf.as_slice()).unwrap(), x);
        }
    }

    /// Both strategies round-trip: training writes `Conservative`
    /// sketches, and `Plain` ones still arrive in older model files.
    #[test]
    fn sketch_roundtrip_preserves_estimates() {
        for strategy in [UpdateStrategy::Plain, UpdateStrategy::Conservative] {
            let mut cms = CountMinSketch::new(512, 4, strategy, 9);
            for i in 0..2_000u64 {
                cms.add(i * 7 + 1, (i % 5 + 1) as u32);
            }
            let mut buf = Vec::new();
            cms.write_binary(&mut buf).unwrap();
            let back = CountMinSketch::read_binary(&mut buf.as_slice()).unwrap();
            assert_eq!(back.strategy(), strategy);
            assert_eq!(back.total(), cms.total());
            assert_eq!(back.width(), cms.width());
            for i in 0..2_000u64 {
                assert_eq!(
                    back.estimate(i * 7 + 1),
                    cms.estimate(i * 7 + 1),
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(CountMinSketch::read_binary(&mut &b"XXXX"[..]).is_err());
        assert!(CountMinSketch::read_binary(&mut &b"ADS1\xff\xff\xff\xff\xff\xff"[..]).is_err());
    }

    /// A sketch header claiming `width`×`depth` with all `depth` hashers
    /// present when `with_hashers`, then no cells.
    fn truncated_sketch(width: u64, depth: u64, with_hashers: bool) -> Vec<u8> {
        let mut buf = SKETCH_MAGIC.to_vec();
        write_varint(&mut buf, width).unwrap();
        write_varint(&mut buf, depth).unwrap();
        buf.push(0);
        write_varint(&mut buf, 0).unwrap();
        if with_hashers {
            buf.resize(buf.len() + 16 * depth as usize, 7);
        }
        buf
    }

    #[test]
    fn hostile_dims_fail_typed_without_preallocating() {
        // Depth 2^30 (16 GiB of hashers) and width·depth 2^30 (4 GiB of
        // cells) both pass the dims cap; the decoder must run out of bytes
        // and say so instead of reserving either up front.
        for (width, depth, with_hashers) in [(1u64, 1u64 << 30, false), (1 << 28, 4, true)] {
            let buf = truncated_sketch(width, depth, with_hashers);
            let err = CountMinSketch::read_binary(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{width}×{depth}");
        }
        let buf = truncated_sketch(1 << 16, 1 << 15, false);
        let err = CountMinSketch::read_binary(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
