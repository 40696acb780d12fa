//! The online learning loop: a background learner thread that offers
//! scanned/uploaded columns to an [`adt_core::OnlineLearner`]'s bounded
//! column reservoir and periodically retrains on it with the offline
//! trainer, swapping the new model into the live
//! [`crate::registry::ModelRegistry`] atomically.
//!
//! Data path:
//!
//! ```text
//! POST /v1/learn ──┐
//!                  ├─► bounded queue ──► adt-learner thread
//! /v1/scan tap ────┘      (503 /             │ reservoir per batch
//!  ("learn": true)         best-effort)      │ train on threshold
//!                                            ▼
//!                              save_model (temp + rename)
//!                                            │
//!                              registry hot-reload (generation + 1)
//! ```
//!
//! Invariants:
//!
//! - **Bounded ingest.** The queue is a `sync_channel`; when it is full,
//!   `/v1/learn` answers `503` and the scan tap drops the batch (counted
//!   as `learn.dropped_columns`) — ingest never grows unbounded and
//!   never blocks a request worker.
//! - **Bounded learner.** The learner retains at most
//!   [`adt_core::online::RESERVOIR_CAPACITY`] columns, a seeded uniform
//!   sample of everything absorbed, so its memory and each retrain's
//!   time stop growing once the reservoir is full.
//! - **Atomic swap.** The retrained model is written with
//!   [`adt_core::save_model`]'s temp-file + rename persistence to the
//!   target model's own backing file, then the registry's fingerprint
//!   reload installs it. Requests already holding the old `Arc` finish
//!   on it; no response ever mixes generations mid-flight.
//! - **Failure isolation.** A retrain or save failure counts
//!   `learn.errors` and the loop continues serving the previous
//!   generation; a retrain that selects zero languages (too little data
//!   yet) counts `learn.skipped` and is not swapped in.
//! - **Shutdown.** The loop exits when the server drops the last sender
//!   (worker drain) or the shutdown flag flips; it never blocks
//!   shutdown for longer than one queue tick plus an in-flight retrain.

use crate::registry::ModelRegistry;
use crate::server::ServerHandle;
use crate::stats::ServerStats;
use adt_core::{save_model, AutoDetectConfig, OnlineLearner};
use adt_corpus::{Column, Corpus};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one server's learn loop.
#[derive(Debug, Clone)]
pub struct LearnConfig {
    /// Registry model the retrains overwrite; `None` targets the
    /// registry default (resolved and validated at
    /// [`crate::server::Server::bind`]).
    pub model: Option<String>,
    /// Retrain once this many columns arrived since the last retrain
    /// (default 256; zero is rejected at
    /// [`crate::server::Server::bind`]).
    pub absorb_columns: u64,
    /// Retrain once a pending column has waited this long (default
    /// 60 s; zero is rejected at [`crate::server::Server::bind`]).
    pub absorb_interval: Duration,
    /// Bounded ingest queue depth, in batches (one `/v1/learn` request
    /// or one tapped scan = one batch).
    pub queue_capacity: usize,
    /// Training configuration for the retrains; its `seed` also seeds
    /// the column reservoir.
    pub train: AutoDetectConfig,
    /// Columns the learner starts from — typically the corpus the
    /// serving model was trained on, so the first retrain builds on it
    /// rather than on the new columns alone. They enter the reservoir
    /// first, and never trigger a retrain by themselves.
    pub seed_corpus: Option<Corpus>,
}

impl LearnConfig {
    /// A learn configuration retraining with `train`, at the default
    /// absorb thresholds.
    pub fn new(train: AutoDetectConfig) -> LearnConfig {
        LearnConfig {
            model: None,
            absorb_columns: 256,
            absorb_interval: Duration::from_secs(60),
            queue_capacity: 64,
            train,
            seed_corpus: None,
        }
    }
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig::new(AutoDetectConfig::default())
    }
}

/// The learner thread body: drain the ingest queue, absorb, retrain on
/// threshold, swap. Runs until the last sender drops or shutdown.
pub(crate) fn run_learner(
    rx: Receiver<Vec<Column>>,
    config: LearnConfig,
    target: String,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    handle: ServerHandle,
) {
    let mut learner = match OnlineLearner::new(config.train.clone()) {
        Ok(l) => l,
        Err(_) => {
            // Unreachable after bind-time validation, but a learner that
            // cannot start must not take the server down with it.
            stats.learn_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    if let Some(seed) = &config.seed_corpus {
        learner.absorb_columns(seed.columns().to_vec());
    }

    // Wake at least this often so shutdown and the interval threshold
    // are both checked promptly even on an idle queue.
    let tick = config
        .absorb_interval
        .min(Duration::from_millis(200))
        .max(Duration::from_millis(10));
    // adt-allow(determinism): learner scheduling only; absorbed results are wall-clock independent
    let mut oldest_pending = Instant::now();
    // Columns ingested since the last retrain. Tracked here rather than
    // via the learner so the seed corpus does not count toward the
    // threshold.
    let mut pending = 0u64;
    loop {
        let mut disconnected = false;
        match rx.recv_timeout(tick) {
            Ok(batch) => {
                let n = batch.len() as u64;
                if pending == 0 {
                    // adt-allow(determinism): learner scheduling only; absorbed results are wall-clock independent
                    oldest_pending = Instant::now();
                }
                learner.absorb_columns(batch);
                pending += n;
                stats.learn_absorbs.fetch_add(1, Ordering::Relaxed);
                stats
                    .learn_pending_columns
                    .store(pending, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => disconnected = true,
        }
        if handle.is_shutting_down() {
            break;
        }
        let due = pending >= config.absorb_columns
            || (pending > 0 && oldest_pending.elapsed() >= config.absorb_interval);
        if due {
            retrain_and_swap(&mut learner, &target, &registry, &stats);
            pending = 0;
            stats.learn_pending_columns.store(0, Ordering::Relaxed);
        }
        if disconnected {
            break;
        }
    }
}

/// One retrain: emit the model, persist it atomically over the target's
/// backing file, and nudge the registry so the generation bump is live
/// before the next scan asks.
fn retrain_and_swap(
    learner: &mut OnlineLearner,
    target: &str,
    registry: &ModelRegistry,
    stats: &ServerStats,
) {
    // adt-allow(determinism): wall-clock feeds the learn.last_retrain_ms gauge only
    let start = Instant::now();
    let model = match learner.retrain() {
        Ok((model, _report)) => model,
        Err(_) => {
            stats.learn_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    stats.learn_retrains.fetch_add(1, Ordering::Relaxed);
    stats
        .learn_last_retrain_ms
        .store(start.elapsed().as_millis() as u64, Ordering::Relaxed);
    if model.num_languages() == 0 {
        // Too little absorbed data to select anything: swapping this in
        // would blind the server. Keep serving the current generation.
        stats.learn_skipped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // Write to the entry's own path so the fingerprint watch sees the
    // change.
    let Some(path) = registry.path_of(target) else {
        stats.learn_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    if save_model(&model, &path).is_err() {
        stats.learn_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // save_model's rename is the atomic swap; this lookup hot-reloads
    // immediately instead of waiting for the next scan to notice.
    if registry.get(target).is_some() {
        stats.learn_swaps.fetch_add(1, Ordering::Relaxed);
    } else {
        stats.learn_errors.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learn_config_inherits_online_knobs() {
        let train = AutoDetectConfig::small();
        let lc = LearnConfig::new(train.clone());
        assert_eq!(lc.absorb_columns, 256);
        assert_eq!(lc.absorb_interval, Duration::from_secs(60));
        assert_eq!(lc.train.space, train.space);
        assert!(lc.model.is_none());
        assert!(lc.seed_corpus.is_none());
        assert!(lc.queue_capacity > 0);
        let d = LearnConfig::default();
        assert_eq!(d.absorb_columns, 256);
        assert_eq!(d.absorb_interval, Duration::from_secs(60));
    }
}
