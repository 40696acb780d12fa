//! Compact binary serialization for [`LanguageStats`].
//!
//! The shipped model's bulk is occurrence and co-occurrence dictionaries.
//! The codec sorts keys and delta-encodes them as varints, keeping the
//! shipped model small — which matters for the paper's client-side
//! deployment story.

use crate::fxhash::FxHashMap;
use crate::language_stats::LanguageStats;
use crate::store::CoocBackend;
use adt_patterns::{Language, Level};
use adt_sketch::codec::{read_varint, write_varint, MAX_PREALLOC};
use adt_sketch::CountMinSketch;
use std::io::{self, Read, Write};

const STATS_MAGIC: &[u8; 4] = b"ADT1";

fn level_tag(l: Level) -> u8 {
    match l {
        Level::Leaf => 0,
        Level::Class => 1,
        Level::Super => 2,
        Level::Root => 3,
    }
}

fn tag_level(t: u8) -> io::Result<Level> {
    Ok(match t {
        0 => Level::Leaf,
        1 => Level::Class,
        2 => Level::Super,
        3 => Level::Root,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad level tag")),
    })
}

fn write_language<W: Write>(w: &mut W, l: &Language) -> io::Result<()> {
    w.write_all(&[
        level_tag(l.upper),
        level_tag(l.lower),
        level_tag(l.digit),
        level_tag(l.symbol),
    ])
}

fn read_language<R: Read>(r: &mut R) -> io::Result<Language> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Language::new(
        tag_level(b[0])?,
        tag_level(b[1])?,
        tag_level(b[2])?,
        tag_level(b[3])?,
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Sorted + delta-encoded u64 key dictionary with u32 values.
fn write_u64_map<W: Write>(w: &mut W, map: &FxHashMap<u64, u32>) -> io::Result<()> {
    let mut entries: Vec<(u64, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    write_varint(w, entries.len() as u64)?;
    let mut prev = 0u64;
    for (k, v) in entries {
        write_varint(w, k.wrapping_sub(prev))?;
        write_varint(w, v as u64)?;
        prev = k;
    }
    Ok(())
}

fn read_u64_map<R: Read>(r: &mut R) -> io::Result<FxHashMap<u64, u32>> {
    let n = read_varint(r)? as usize;
    if n > (1 << 28) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "map too large"));
    }
    let mut map = FxHashMap::with_capacity_and_hasher(n.min(MAX_PREALLOC), Default::default());
    let mut prev = 0u64;
    for _ in 0..n {
        let k = prev.wrapping_add(read_varint(r)?);
        let v = read_varint(r)?;
        if v > u32::MAX as u64 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "count overflow"));
        }
        map.insert(k, v as u32);
        prev = k;
    }
    Ok(map)
}

/// Sorted + delta-encoded pair dictionary (lexicographic on `(lo, hi)`).
fn write_pair_map<W: Write>(w: &mut W, map: &FxHashMap<(u64, u64), u32>) -> io::Result<()> {
    let mut entries: Vec<((u64, u64), u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    write_varint(w, entries.len() as u64)?;
    let mut prev_lo = 0u64;
    for ((lo, hi), v) in entries {
        write_varint(w, lo.wrapping_sub(prev_lo))?;
        // hi >= lo by construction; store the offset.
        write_varint(w, hi.wrapping_sub(lo))?;
        write_varint(w, v as u64)?;
        prev_lo = lo;
    }
    Ok(())
}

fn read_pair_map<R: Read>(r: &mut R) -> io::Result<FxHashMap<(u64, u64), u32>> {
    let n = read_varint(r)? as usize;
    if n > (1 << 28) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "map too large"));
    }
    let mut map = FxHashMap::with_capacity_and_hasher(n.min(MAX_PREALLOC), Default::default());
    let mut prev_lo = 0u64;
    for _ in 0..n {
        let lo = prev_lo.wrapping_add(read_varint(r)?);
        let hi = lo.wrapping_add(read_varint(r)?);
        let v = read_varint(r)?;
        if v > u32::MAX as u64 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "count overflow"));
        }
        map.insert((lo, hi), v as u32);
        prev_lo = lo;
    }
    Ok(map)
}

impl LanguageStats {
    /// Writes the statistics in the compact binary format.
    pub fn write_binary<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(STATS_MAGIC)?;
        write_language(w, &self.language)?;
        write_varint(w, self.n_columns)?;
        write_u64_map(w, self.occ_map())?;
        match self.cooc_backend() {
            CoocBackend::Exact(map) => {
                w.write_all(&[0u8])?;
                write_pair_map(w, map)?;
            }
            CoocBackend::Sketch(cms) => {
                w.write_all(&[1u8])?;
                cms.write_binary(w)?;
            }
        }
        Ok(())
    }

    /// Reads statistics written by [`LanguageStats::write_binary`].
    pub fn read_binary<R: Read>(r: &mut R) -> io::Result<LanguageStats> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != STATS_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad stats magic",
            ));
        }
        let language = read_language(r)?;
        let n_columns = read_varint(r)?;
        let occ = read_u64_map(r)?;
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let cooc = match tag[0] {
            0 => CoocBackend::Exact(read_pair_map(r)?),
            1 => CoocBackend::Sketch(CountMinSketch::read_binary(r)?),
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad cooc tag")),
        };
        Ok(LanguageStats::from_parts(language, n_columns, occ, cooc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language_stats::StatsConfig;
    use crate::store::SketchSpec;
    use adt_corpus::{Column, Corpus, SourceTag};
    use adt_patterns::Language;
    use adt_rng::Rng;
    use adt_sketch::UpdateStrategy;

    fn sample_corpus() -> Corpus {
        Corpus::from_columns(
            (0..60)
                .map(|i| {
                    Column::from_strs(
                        &[
                            &format!("{}", 1900 + i),
                            &format!("{},{:03}", i + 1, i * 7 % 1000),
                            "x",
                        ],
                        SourceTag::Web,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn exact_roundtrip_preserves_scores() {
        let corpus = sample_corpus();
        let stats = LanguageStats::build(
            adt_patterns::crude::crude_language(),
            &corpus,
            &StatsConfig::default(),
        );
        let mut buf = Vec::new();
        stats.write_binary(&mut buf).unwrap();
        let back = LanguageStats::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back.language, stats.language);
        assert_eq!(back.n_columns, stats.n_columns);
        assert_eq!(back.distinct_patterns(), stats.distinct_patterns());
        let params = crate::NpmiParams::default();
        for (u, v) in [("1955", "7,000"), ("1955", "zz"), ("x", "1999")] {
            assert_eq!(
                back.score_values(u, v, params),
                stats.score_values(u, v, params)
            );
        }
    }

    /// Both update strategies round-trip: assembly writes `Conservative`
    /// sketches, and `Plain` ones still arrive in older model files.
    #[test]
    fn sketched_roundtrip_preserves_scores() {
        let corpus = sample_corpus();
        for strategy in [UpdateStrategy::Plain, UpdateStrategy::Conservative] {
            let mut stats =
                LanguageStats::build(Language::paper_l2(), &corpus, &StatsConfig::default());
            stats.compress_cooccurrence(SketchSpec {
                budget_bytes: 1 << 14,
                strategy,
                ..SketchSpec::default()
            });
            let mut buf = Vec::new();
            stats.write_binary(&mut buf).unwrap();
            let back = LanguageStats::read_binary(&mut buf.as_slice()).unwrap();
            let mut again = Vec::new();
            back.write_binary(&mut again).unwrap();
            assert!(again == buf, "{strategy:?} re-encodes differently");
            let params = crate::NpmiParams::default();
            for (u, v) in [("1955", "7,000"), ("1955", "zz")] {
                assert_eq!(
                    back.score_values(u, v, params),
                    stats.score_values(u, v, params),
                    "{strategy:?}"
                );
            }
        }
    }

    fn encode(stats: &LanguageStats) -> Vec<u8> {
        let mut buf = Vec::new();
        stats.write_binary(&mut buf).unwrap();
        buf
    }

    adt_rng::properties! {
        cases = 32;

        /// Encode → decode → encode is the identity for statistics frozen
        /// from generated corpora, exact and sketched under both update
        /// strategies, and the decoded statistics score as the originals.
        fn encode_decode_encode_is_identity(
            g;
            seed in g.random::<u64>(),
            web_columns in g.random_range(0usize..40),
            extra in crate::build::extra_columns(g),
            language in g.random_range(0usize..36),
            budget_bytes in g.random_range(64usize..8192),
            depth in g.random_range(1usize..6),
            sketch_seed in g.random::<u64>(),
        ) {
            let corpus = crate::build::generated_corpus(seed, web_columns, &extra);
            let language = adt_patterns::enumerate_coarse_languages()[language];
            let exact = LanguageStats::build(language, &corpus, &StatsConfig::default());
            let mut variants = vec![exact.clone()];
            for strategy in [UpdateStrategy::Plain, UpdateStrategy::Conservative] {
                let mut sketched = exact.clone();
                sketched.compress_cooccurrence(SketchSpec {
                    budget_bytes,
                    depth,
                    strategy,
                    seed: sketch_seed,
                });
                variants.push(sketched);
            }
            let params = crate::NpmiParams::default();
            let values: Vec<&str> = corpus
                .columns()
                .iter()
                .flat_map(|c| c.values.iter().map(String::as_str))
                .take(40)
                .collect();
            for stats in &variants {
                let bytes = encode(stats);
                let back = LanguageStats::read_binary(&mut bytes.as_slice()).unwrap();
                assert!(encode(&back) == bytes, "re-encoding changed the bytes");
                assert_eq!(back.language, stats.language);
                assert_eq!(back.n_columns, stats.n_columns);
                assert_eq!(back.size_bytes(), stats.size_bytes());
                assert_eq!(back.exact_cooc_entries(), stats.exact_cooc_entries());
                for u in &values {
                    for v in &values {
                        assert_eq!(
                            back.score_values(u, v, params).to_bits(),
                            stats.score_values(u, v, params).to_bits(),
                            "({u:?}, {v:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(LanguageStats::read_binary(&mut &b"NOPE"[..]).is_err());
    }

    #[test]
    fn hostile_map_lengths_fail_typed_without_preallocating() {
        // A few bytes claiming 2^28 entries (the cap) must not reserve
        // room for them: decoding runs out of input first.
        let mut claim = Vec::new();
        write_varint(&mut claim, 1 << 28).unwrap();
        let err = read_u64_map(&mut claim.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = read_pair_map(&mut claim.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // One past the cap is refused outright.
        let mut over = Vec::new();
        write_varint(&mut over, (1 << 28) + 1).unwrap();
        let err = read_u64_map(&mut over.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
