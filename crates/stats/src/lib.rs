//! Pattern occurrence/co-occurrence statistics and NPMI scoring.
//!
//! Implements §2.1, §3.3 and §3.4 of the paper:
//!
//! * [`npmi`] — PMI / NPMI over column-level counts (Equations 1–2) with
//!   Jelinek–Mercer smoothing of rare co-occurrences (Equation 10);
//! * [`store`] — the occurrence dictionary plus exchangeable co-occurrence
//!   backends: an exact pair dictionary or a count-min sketch (§3.4);
//! * [`language_stats`] — per-generalization-language statistics as
//!   models ship them, keyed by pattern hash: `c(L(v))` = number of
//!   columns containing the pattern, `c(L(v1), L(v2))` = number of
//!   columns containing both;
//! * [`counts`] — [`LanguageCounts`], the accumulator training counts a
//!   language into: patterns keyed by dense per-language ids, pairs by
//!   two ids packed into one `u64`; it answers queries as the statistics
//!   it freezes into ([`LanguageCounts::freeze`]) would;
//! * [`pipeline`] — the corpus-major training pipeline: values are
//!   interned once, generalized under whole language batches in one
//!   traversal, and counted one task per language over every column
//!   in column order, with no merge (bit-identical to the serial scan).
//!   Pair counts are always exact there; training compresses the
//!   selected languages into count-min sketches at model assembly when
//!   its `sketch_fraction` is set;
//! * [`build`] — batch construction entry points across candidate
//!   languages, built on the pipeline;
//! * [`fxhash`] — the vendored deterministic fast hasher keying the
//!   occurrence/co-occurrence dictionaries and memo tables;
//! * [`memo`] — the bounded per-worker pattern-pair score memo consumed
//!   by [`LanguageStats::npmi_matrix`], the batched scoring surface of
//!   the detection kernel;
//! * [`pool`] — the one worker pool ([`parallel_map`],
//!   [`parallel_map_with`], [`resolve_threads`], [`pool::join_all`]): training's
//!   accumulate phase, the scan engine, the ensemble engine, evaluation
//!   and the server all fan out through it, and a panicking worker is a
//!   typed [`StatsError`] at every thread count.

pub mod build;
pub mod codec;
pub mod counts;
pub mod fxhash;
pub mod language_stats;
pub mod memo;
pub mod npmi;
pub mod pipeline;
pub mod pool;
pub mod profile;
pub mod store;

pub use build::{collect_stats_for_languages, for_each_language_stats};
pub use counts::LanguageCounts;
pub use fxhash::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use language_stats::{LanguageStats, NpmiMatrix, StatsConfig};
pub use memo::NpmiMemo;
pub use npmi::{npmi_from_counts, smoothed_cooccurrence, NpmiParams};
pub use pipeline::{CoocMode, PipelineOptions, PipelineReport, TrainPipeline};
pub use pool::{parallel_map, parallel_map_with, resolve_threads, StatsError};
pub use profile::{column_profile, ColumnProfile, PatternBucket};
pub use store::{CoocBackend, SketchSpec};
