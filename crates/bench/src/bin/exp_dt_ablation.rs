//! Ablation (DESIGN.md §5): dynamic-threshold (DT, Definition 4)
//! aggregation vs the paper's tractable static-threshold (ST,
//! Definition 5) formulation.
//!
//! The paper proves DT NP-hard/inapproximable (Theorem 1) and adopts ST;
//! this ablation quantifies the trade on real candidate pools: training
//! coverage and precision of a greedy DT heuristic against Algorithm 1's
//! ST selection, under the same memory budget.

use adt_bench::{default_config, scale};
use adt_core::{
    build_training_set, calibrate_candidates, dt_optimize, greedy_select, CandidateSummary,
    DtProblem,
};
use adt_corpus::{generate_corpus, CorpusProfile};
use adt_patterns::Pattern;
use adt_stats::collect_stats_for_languages;
use std::collections::HashMap;

fn main() {
    // A smaller corpus than the main experiments: DT's coordinate ascent
    // rescans the score matrix many times.
    let mut p = CorpusProfile::web(((12_000f64 * scale()) as usize).max(1_000));
    p.dirty_rate = 0.0;
    let corpus = generate_corpus(&p);
    let cfg = adt_core::AutoDetectConfig {
        training_examples: ((12_000f64 * scale()) as usize).max(1_000),
        space: adt_core::config::LanguageSpace::Coarse36,
        ..default_config()
    };
    let (training, _) = build_training_set(&corpus, &cfg);
    eprintln!(
        "[dt] {} training examples ({} negatives)",
        training.len(),
        training.negatives()
    );

    eprintln!(
        "[dt] calibrating {} candidates…",
        cfg.candidate_languages().len()
    );
    let pool = calibrate_candidates(&corpus, &cfg, &training).expect("calibration failed");

    // Score matrices for DT (the expensive part ST avoids). All 36
    // statistics come from one pipeline pass over the corpus.
    eprintln!("[dt] scoring matrices…");
    let languages = cfg.candidate_languages();
    let all_stats = collect_stats_for_languages(
        &languages,
        &corpus,
        &cfg.stats,
        cfg.effective_train_threads(),
    )
    .expect("stats build failed");
    let mut scores: Vec<Vec<f64>> = Vec::with_capacity(languages.len());
    for (lang, stats) in languages.iter().zip(&all_stats) {
        let mut memo: HashMap<&str, adt_patterns::PatternHash> = HashMap::new();
        let v: Vec<f64> = training
            .examples
            .iter()
            .map(|e| {
                let hu = *memo
                    .entry(e.u.as_str())
                    .or_insert_with(|| Pattern::hash_value(&e.u, lang));
                let hv = *memo
                    .entry(e.v.as_str())
                    .or_insert_with(|| Pattern::hash_value(&e.v, lang));
                stats.npmi_patterns(hu, hv, cfg.npmi)
            })
            .collect();
        scores.push(v);
    }
    let sizes: Vec<usize> = pool.iter().map(|c| c.size_bytes).collect();

    println!("== DT vs ST aggregation ablation (training-set coverage at equal budget) ==");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "budget", "ST cov", "ST prec", "DT cov", "DT prec", "DT langs"
    );
    for budget in [256 << 10, 1 << 20, 8 << 20] {
        // ST: Algorithm 1 over the calibrated pool.
        let st_candidates: Vec<CandidateSummary> = pool
            .iter()
            .enumerate()
            .map(|(i, c)| CandidateSummary {
                index: i,
                size_bytes: c.size_bytes,
                covered_negatives: c.calibration.covered_negatives.clone(),
            })
            .collect();
        let st = greedy_select(&st_candidates, budget);
        // Pooled ST precision: union of selected languages at their thetas.
        let mut flagged = vec![false; training.len()];
        for &i in &st.selected {
            if let Some(theta) = pool[i].calibration.theta {
                for (j, &s) in scores[i].iter().enumerate() {
                    if s <= theta {
                        flagged[j] = true;
                    }
                }
            }
        }
        let st_neg = flagged
            .iter()
            .zip(&training.examples)
            .filter(|(&f, e)| f && e.label == adt_core::Label::Incompatible)
            .count();
        let st_total = flagged.iter().filter(|&&f| f).count();
        let st_prec = st_neg as f64 / st_total.max(1) as f64;

        // DT heuristic.
        let problem = DtProblem::new(&training, scores.clone(), sizes.clone());
        let dt = dt_optimize(&problem, cfg.precision_target, budget, 3);

        println!(
            "{:<10} {:>10} {:>10.3} {:>12} {:>10.3} {:>8}",
            format!("{}KB", budget >> 10),
            st.union_coverage,
            st_prec,
            dt.coverage,
            dt.precision,
            dt.selected.len()
        );
    }
    println!("\n(DT ≥ ST coverage is expected; the paper adopts ST because DT is NP-hard to approximate and the gap is small.)");
}
