//! Online learning: a bounded, seeded sample of the columns a deployment
//! sees, retrained with the offline trainer.
//!
//! The offline regime (§4) trains once over a frozen corpus and ships the
//! model; a serving deployment instead sees a stream of new columns and
//! wants its model to follow them. Distant supervision (§3.1, Appendix F)
//! only draws compatible and incompatible pairs from a sample of corpus
//! columns, so the learner does not need every column it has seen.
//! [`OnlineLearner`] keeps at most [`RESERVOIR_CAPACITY`] of them in a
//! reservoir (Algorithm R over the arrival index, seeded from
//! [`AutoDetectConfig::seed`]), held in arrival order. Absorbing a column
//! is a reservoir offer and never trains, so memory is bounded by the
//! capacity whatever the stream's length.
//!
//! `retrain` is [`crate::model::train`] on exactly the retained columns,
//! so its model is byte-identical (under [`crate::model::codec`]) to an
//! offline train on them, at any thread count and in either
//! co-occurrence mode. While the reservoir fills it keeps every column
//! in arrival order, so up to the capacity a retrain equals `train` on
//! everything absorbed.

use crate::config::AutoDetectConfig;
use crate::detector::AutoDetect;
use crate::error::AdtError;
use crate::model::{train, TrainReport};
use adt_corpus::{Column, Corpus};
use adt_rng::rngs::StdRng;
use adt_rng::{Rng, SeedableRng};

/// Most columns an [`OnlineLearner`] retains, which bounds its memory and
/// each retrain's cost whatever the stream's length. It is above every
/// corpus the learner tests train on, so their models equal `train` on
/// everything absorbed.
pub const RESERVOIR_CAPACITY: usize = 4_096;

/// Cumulative counters for one learner lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineReport {
    /// Completed [`OnlineLearner::absorb_columns`] calls.
    pub absorbs: u64,
    /// Columns absorbed across all calls, retained or not.
    pub columns_absorbed: u64,
    /// Completed [`OnlineLearner::retrain`] calls.
    pub retrains: u64,
}

/// A uniform sample of at most `capacity` items from a stream (Algorithm
/// R): item `i` (0-based arrival index) is kept outright while the
/// sample has room, and otherwise replaces a uniformly drawn member with
/// probability `capacity / (i + 1)`. The evicted member is removed and
/// the newcomer appended, so the sample stays in arrival order. The
/// draws come from one seeded stream, so the sample is a function of the
/// seed and the arrival sequence.
#[derive(Debug, Clone)]
struct Reservoir<T> {
    capacity: usize,
    rng: StdRng,
    arrivals: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            capacity,
            rng: StdRng::seed_from_u64(seed),
            arrivals: 0,
            items: Vec::new(),
        }
    }

    /// Offers the next arrival to the sample.
    fn offer(&mut self, item: T) {
        let index = self.arrivals;
        self.arrivals = self.arrivals.saturating_add(1);
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        let slot = self.rng.random_range(0..=index);
        if let Some(slot) = usize::try_from(slot).ok().filter(|&s| s < self.items.len()) {
            self.items.remove(slot);
            self.items.push(item);
        }
    }

    /// The retained items, in arrival order.
    fn items(&self) -> &[T] {
        &self.items
    }
}

/// An online trainer: absorb columns into a bounded reservoir, then emit
/// a model byte-identical to a from-scratch train on the retained
/// columns.
#[derive(Debug, Clone)]
pub struct OnlineLearner {
    config: AutoDetectConfig,
    /// The retained columns, in arrival order. Training-set sampling is
    /// a function of corpus order, so arrival order *is* the order a
    /// from-scratch train must use to reproduce the learner's output.
    reservoir: Reservoir<Column>,
    /// Columns absorbed since the last retrain.
    pending: u64,
    report: OnlineReport,
}

impl OnlineLearner {
    /// Creates an empty learner for `config`.
    pub fn new(config: AutoDetectConfig) -> Result<Self, AdtError> {
        config.validate()?;
        Ok(OnlineLearner {
            reservoir: Reservoir::new(RESERVOIR_CAPACITY, config.seed),
            config,
            pending: 0,
            report: OnlineReport::default(),
        })
    }

    /// Creates a learner pre-seeded with `corpus` (one absorb).
    pub fn from_corpus(corpus: &Corpus, config: AutoDetectConfig) -> Result<Self, AdtError> {
        let mut learner = Self::new(config)?;
        learner.absorb_columns(corpus.columns().to_vec());
        Ok(learner)
    }

    /// Columns retained for the next retrain: every column absorbed so
    /// far, up to [`RESERVOIR_CAPACITY`].
    pub fn columns(&self) -> usize {
        self.reservoir.items().len()
    }

    /// Columns absorbed since the last [`Self::retrain`].
    pub fn pending_columns(&self) -> u64 {
        self.pending
    }

    /// Cumulative counters.
    pub fn report(&self) -> &OnlineReport {
        &self.report
    }

    /// The training configuration the learner was built with.
    pub fn config(&self) -> &AutoDetectConfig {
        &self.config
    }

    /// Offers a batch of new columns to the reservoir, in order. No
    /// statistics are built until [`Self::retrain`].
    pub fn absorb_columns(&mut self, columns: Vec<Column>) {
        if columns.is_empty() {
            return;
        }
        let added = columns.len() as u64;
        for column in columns {
            self.reservoir.offer(column);
        }
        self.pending += added;
        self.report.absorbs += 1;
        self.report.columns_absorbed += added;
    }

    /// Trains on the retained columns in arrival order: exactly
    /// [`crate::model::train`] on them, report included.
    pub fn retrain(&mut self) -> Result<(AutoDetect, TrainReport), AdtError> {
        let corpus = Corpus::from_columns(self.reservoir.items().to_vec());
        let out = train(&corpus, &self.config)?;
        self.pending = 0;
        self.report.retrains += 1;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::codec;
    use adt_corpus::{generate_corpus, CorpusProfile, SourceTag};

    fn quick_config() -> AutoDetectConfig {
        AutoDetectConfig {
            training_examples: 2_000,
            ..AutoDetectConfig::small()
        }
    }

    fn quick_corpus(columns: usize) -> Corpus {
        let mut p = CorpusProfile::web(columns);
        p.dirty_rate = 0.0;
        generate_corpus(&p)
    }

    fn model_bytes(model: &AutoDetect) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::write_model(&mut buf, model).expect("in-memory write");
        buf
    }

    /// A one-value column whose value names its arrival index.
    fn numbered(i: usize) -> Column {
        Column::from_strs(&[&format!("c{i}")], SourceTag::Web)
    }

    /// The arrival index a [`numbered`] column carries.
    fn arrival(c: &Column) -> usize {
        c.values[0][1..].parse().expect("numbered column")
    }

    /// absorb(base, delta) + retrain is bit-identical to a from-scratch
    /// train on base ++ delta, at every thread count.
    fn assert_absorb_matches_scratch(base_cfg: AutoDetectConfig) {
        let corpus = quick_corpus(500);
        let split = 350;
        let base = corpus.columns()[..split].to_vec();
        let delta = corpus.columns()[split..].to_vec();
        let mut reference: Option<Vec<u8>> = None;
        for threads in [1usize, 2, 4, 8] {
            let cfg = AutoDetectConfig {
                train_threads: threads,
                ..base_cfg.clone()
            };
            let (scratch, _) = train(&corpus, &cfg).unwrap();
            let scratch_bytes = model_bytes(&scratch);
            let candidates = cfg.candidate_languages().len();
            let mut learner = OnlineLearner::new(cfg).unwrap();
            learner.absorb_columns(base.clone());
            learner.absorb_columns(delta.clone());
            assert_eq!(learner.pending_columns(), corpus.len() as u64);
            let (online, report) = learner.retrain().unwrap();
            assert_eq!(learner.pending_columns(), 0);
            assert_eq!(report.candidates.len(), candidates);
            assert_eq!(
                scratch_bytes,
                model_bytes(&online),
                "absorb diverged from scratch train at {threads} threads"
            );
            // And across thread counts: training is thread-invariant, so
            // every row of the matrix must agree.
            match &reference {
                Some(r) => assert_eq!(r, &scratch_bytes, "thread variance at {threads}"),
                None => reference = Some(scratch_bytes),
            }
        }
    }

    #[test]
    fn absorb_bit_identical_exact_backend() {
        assert_absorb_matches_scratch(quick_config());
    }

    #[test]
    fn absorb_bit_identical_sketch_backend() {
        // Budget-driven final compression of the selected languages.
        assert_absorb_matches_scratch(AutoDetectConfig {
            sketch_fraction: Some(0.25),
            ..quick_config()
        });
    }

    #[test]
    fn absorb_bit_identical_streaming() {
        assert_absorb_matches_scratch(AutoDetectConfig {
            cooc: adt_stats::CoocMode::Streaming,
            ..quick_config()
        });
    }

    #[test]
    fn repeated_retrains_track_the_growing_union() {
        let corpus = quick_corpus(500);
        let cfg = quick_config();
        let base = corpus.columns()[..300].to_vec();
        let delta = corpus.columns()[300..].to_vec();

        let mut learner =
            OnlineLearner::from_corpus(&Corpus::from_columns(base.clone()), cfg.clone()).unwrap();
        let (first, _) = learner.retrain().unwrap();
        let (scratch_first, _) = train(&Corpus::from_columns(base), &cfg).unwrap();
        assert_eq!(model_bytes(&first), model_bytes(&scratch_first));

        learner.absorb_columns(delta);
        let (second, _) = learner.retrain().unwrap();
        let (scratch_second, _) = train(&corpus, &cfg).unwrap();
        assert_eq!(model_bytes(&second), model_bytes(&scratch_second));
        assert_eq!(learner.report().retrains, 2);
        assert_eq!(learner.report().columns_absorbed, corpus.len() as u64);
    }

    /// Past capacity the learner retains at most `RESERVOIR_CAPACITY`
    /// columns, in strictly increasing arrival order, and still counts
    /// every column it absorbed.
    #[test]
    fn reservoir_stays_bounded_past_capacity() {
        let total = 3 * RESERVOIR_CAPACITY + 17;
        let mut learner = OnlineLearner::new(quick_config()).unwrap();
        let columns: Vec<Column> = (0..total).map(numbered).collect();
        for batch in columns.chunks(1_000) {
            learner.absorb_columns(batch.to_vec());
            assert!(learner.columns() <= RESERVOIR_CAPACITY);
        }
        assert_eq!(learner.columns(), RESERVOIR_CAPACITY);
        assert_eq!(learner.report().columns_absorbed, total as u64);
        assert_eq!(learner.pending_columns(), total as u64);
        let kept: Vec<usize> = learner.reservoir.items().iter().map(arrival).collect();
        assert!(kept.windows(2).all(|w| w[0] < w[1]), "not in arrival order");
        // Algorithm R keeps each arrival with probability K / n, so a
        // uniform sample reaches well past the first K arrivals.
        assert!(kept.iter().filter(|&&i| i >= RESERVOIR_CAPACITY).count() > RESERVOIR_CAPACITY / 2);
    }

    /// A retrain after the reservoir overflowed is byte-identical to
    /// `train` on exactly the retained columns.
    #[test]
    fn retrain_past_capacity_matches_train_on_the_retained_columns() {
        let cfg = quick_config();
        let corpus = quick_corpus(RESERVOIR_CAPACITY + 300);
        let mut learner = OnlineLearner::from_corpus(&corpus, cfg.clone()).unwrap();
        assert_eq!(learner.columns(), RESERVOIR_CAPACITY);
        let retained = Corpus::from_columns(learner.reservoir.items().to_vec());
        let (online, _) = learner.retrain().unwrap();
        let (scratch, _) = train(&retained, &cfg).unwrap();
        assert_eq!(model_bytes(&online), model_bytes(&scratch));
    }

    adt_rng::properties! {
        /// While the reservoir fills it keeps every arrival verbatim;
        /// it never holds more than its capacity, keeps arrival order,
        /// and draws the same sample from the same seed.
        fn reservoir_fills_verbatim_stays_bounded_and_is_seeded(
            g;
            capacity in g.random_range(0usize..40),
            arrivals in g.random_range(0usize..200),
            seed in g.random::<u64>(),
        ) {
            let mut a = Reservoir::new(capacity, seed);
            let mut b = Reservoir::new(capacity, seed);
            for i in 0..arrivals {
                a.offer(i);
                b.offer(i);
                assert!(a.items().len() <= capacity);
                if i < capacity {
                    assert_eq!(a.items(), (0..=i).collect::<Vec<_>>().as_slice());
                }
            }
            assert_eq!(a.items().len(), arrivals.min(capacity));
            assert!(a.items().windows(2).all(|w| w[0] < w[1]));
            assert_eq!(a.items(), b.items());
        }
    }

    #[test]
    fn empty_learner_and_empty_batches_are_safe() {
        let mut learner = OnlineLearner::new(quick_config()).unwrap();
        learner.absorb_columns(Vec::new());
        assert_eq!(learner.columns(), 0);
        assert_eq!(learner.report().absorbs, 0);
        let (model, _) = learner.retrain().unwrap();
        assert_eq!(model.num_languages(), 0);
    }
}
