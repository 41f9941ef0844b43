//! Auto-ml model search — the stand-in for auto-sklearn \[13\].
//!
//! The paper lets auto-sklearn search model families and hyper-parameters
//! for 600 s per attack iteration. This module performs the same job
//! deterministically: a candidate grid over five model families is scored by
//! stratified k-fold cross-validation; the winner is refit on the full
//! training set. On SnapShot's tiny categorical feature space every
//! competent family reaches the Bayes rate of the locality distribution, so
//! the *choice* of stack does not move the evaluation — the label
//! distribution induced by locking does (see DESIGN.md, substitution 2).
//!
//! # Scoring by distinct row
//!
//! SnapShot training sets hold thousands of rows but only a handful of
//! distinct feature vectors. Before any model is fit, the search groups
//! the rows by the exact bit patterns of their features and counts, for
//! each fold the CV loop scores, the fold's validation rows per (group,
//! class). A candidate's fold score then takes one `predict` per group in
//! the fold: the group's count for the predicted class is the number of
//! its rows the model gets right. `predict` is a pure function of the row
//! bits, so every row of a group gets the same prediction, and the summed
//! correct count is the same integer that predicting row by row on the
//! materialised validation fold counts. Divided by the same fold size, the
//! fold score is bit-identical to `models::accuracy` on that fold. The
//! validation side is never materialised; the train side is built for
//! each candidate and fold.
//!
//! # Exact early exit
//!
//! The same counts bound the CV score any candidate could reach. For
//! each fold, sum the largest per-class count of every group; divided by
//! the fold size, that is the fold's bound. The *Bayes bound* is the mean
//! of the fold bounds, taken with the same f64 operations (and in the same
//! fold order) as a candidate's CV mean.
//!
//! Before it scores fold `f` of a candidate, the search takes the
//! candidate's *reachable mean*: the same mean over its scores on folds
//! `0..f` followed by the bounds of folds `f..`. If that is at most
//! `best + selection_margin`, the candidate is stopped and counted in
//! [`AutoMlOutcome::pruned`] instead of the leaderboard. At `f = 0` the
//! reachable mean is the Bayes bound for every candidate, so once the
//! incumbent comes within the margin of it, no further candidate is fit;
//! at `f > 0` only the current candidate is dropped.
//!
//! The exit never changes the result. A classifier's `predict` is a pure
//! function of the row, so on each group it is right at most as often as
//! the group's commonest label: its correct count is at most the fold's
//! bound count, both are integers exact in f64, and dividing by the same
//! fold size preserves `<=` because IEEE rounding is monotone. Summing
//! fold by fold is a left fold of monotone `+` over the same number of
//! terms, and the final division is again by the same count, so a
//! candidate's final mean is at most each of its reachable means (and at
//! most the Bayes bound). A candidate takes the lead only if
//! `mean > best + selection_margin`, which is then impossible, and `best`
//! cannot move while nothing takes the lead. The winner, its CV accuracy,
//! its refit model and every prediction are bit-identical to scoring all
//! candidates, and every listed candidate's score is the one full scoring
//! gives it. Grouping by bit patterns is at least as fine as grouping by
//! what `predict` can tell apart, and a finer grouping only loosens the
//! bound.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::models::{
    AdaBoost, Classifier, DecisionTree, GaussianNaiveBayes, KNearestNeighbors, LogisticRegression,
    MajorityClass, Mlp, RandomForest,
};
use crate::split::StratifiedKFold;

/// Configuration of the auto-ml search.
#[derive(Debug, Clone)]
pub struct AutoMlConfig {
    /// Cross-validation folds (≥ 2).
    pub folds: usize,
    /// Seed for fold assignment and stochastic models.
    pub seed: u64,
    /// Cap on training samples; larger sets are deterministically thinned.
    /// Keeps the k-NN/forest candidates tractable on 100k+-sample
    /// SnapShot training sets.
    pub max_train_samples: usize,
    /// Restrict the candidate families (empty = all).
    pub families: Vec<ModelFamily>,
    /// One-standard-error-style selection margin: a challenger must beat
    /// the incumbent's CV accuracy by more than this to take the lead.
    /// Candidates are ordered simple → flexible, so near-ties resolve to
    /// the simpler model (majority, then trees, ... then logistic).
    pub selection_margin: f64,
}

impl Default for AutoMlConfig {
    fn default() -> Self {
        Self {
            folds: 3,
            seed: 0,
            max_train_samples: 6000,
            families: Vec::new(),
            selection_margin: 0.01,
        }
    }
}

/// Candidate model families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Majority baseline (always included as the floor).
    Majority,
    /// Multinomial logistic regression.
    Logistic,
    /// CART decision tree.
    Tree,
    /// Random forest.
    Forest,
    /// k-nearest neighbours.
    Knn,
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// Single-hidden-layer MLP (the SnapShot-style neural model).
    Mlp,
    /// AdaBoost over decision stumps.
    AdaBoost,
}

/// Outcome of a search: the refit best model and its CV score.
#[derive(Debug)]
pub struct AutoMlOutcome {
    /// Winner, refit on the full (possibly thinned) training set.
    pub model: Box<dyn Classifier>,
    /// Candidate name of the winner. Not always the top of `leaderboard`:
    /// the selection margin keeps a simpler incumbent against a challenger
    /// that beats it by less.
    pub winner: String,
    /// Mean CV accuracy of the winner.
    pub cv_accuracy: f64,
    /// `(candidate name, mean CV accuracy)` of the *fully scored*
    /// candidates, best first. Candidates the exact exit stopped (see the
    /// module docs) are not listed.
    pub leaderboard: Vec<(String, f64)>,
    /// Mean CV accuracy no classifier can exceed on these folds (see the
    /// module docs).
    pub bayes_bound: f64,
    /// Distinct feature rows in the (possibly thinned) training set.
    pub distinct_rows: usize,
    /// Candidates skipped before or during CV because they could no
    /// longer overtake the incumbent; `leaderboard.len() + pruned` is the
    /// candidate count.
    pub pruned: usize,
}

fn candidates(cfg: &AutoMlConfig) -> Vec<(String, Box<dyn Classifier>)> {
    // Ordered simple -> flexible; the selection margin resolves near-ties
    // towards the front of this list.
    let all = [
        ModelFamily::Majority,
        ModelFamily::Tree,
        ModelFamily::Forest,
        ModelFamily::AdaBoost,
        ModelFamily::Knn,
        ModelFamily::NaiveBayes,
        ModelFamily::Mlp,
        ModelFamily::Logistic,
    ];
    let wanted: Vec<ModelFamily> = if cfg.families.is_empty() {
        all.to_vec()
    } else {
        let mut fams = cfg.families.clone();
        if !fams.contains(&ModelFamily::Majority) {
            fams.push(ModelFamily::Majority);
        }
        fams
    };
    let mut out: Vec<(String, Box<dyn Classifier>)> = Vec::new();
    for fam in wanted {
        match fam {
            ModelFamily::Majority => {
                out.push(("majority".into(), Box::new(MajorityClass::new())));
            }
            ModelFamily::Logistic => {
                for (lr, epochs) in [(0.3, 60), (0.1, 120)] {
                    out.push((
                        format!("logistic(lr={lr},epochs={epochs})"),
                        Box::new(LogisticRegression::new(lr, epochs, 1e-4, cfg.seed)),
                    ));
                }
            }
            ModelFamily::Tree => {
                for depth in [6, 12] {
                    out.push((
                        format!("tree(depth={depth})"),
                        Box::new(DecisionTree::new(depth, 2)),
                    ));
                }
            }
            ModelFamily::Forest => {
                out.push((
                    "forest(trees=25,depth=10)".into(),
                    Box::new(RandomForest::new(25, 10, cfg.seed)),
                ));
            }
            ModelFamily::Knn => {
                for k in [5, 15] {
                    out.push((
                        format!("knn(k={k})"),
                        Box::new(KNearestNeighbors::new(k, 3000)),
                    ));
                }
            }
            ModelFamily::NaiveBayes => {
                out.push(("naive-bayes".into(), Box::new(GaussianNaiveBayes::new())));
            }
            ModelFamily::Mlp => {
                out.push((
                    "mlp(hidden=16)".into(),
                    Box::new(Mlp::new(16, 0.1, 60, cfg.seed)),
                ));
            }
            ModelFamily::AdaBoost => {
                out.push(("adaboost(rounds=30)".into(), Box::new(AdaBoost::new(30))));
            }
        }
    }
    out
}

/// Thins a dataset deterministically to at most `cap` samples via a seeded
/// shuffle (a plain stride would alias with periodic class patterns).
fn thin(data: &Dataset, cap: usize, seed: u64) -> Dataset {
    if data.len() <= cap {
        return data.clone();
    }
    let mut indices: Vec<usize> = (0..data.len()).collect();
    indices.shuffle(&mut StdRng::seed_from_u64(seed));
    indices.truncate(cap);
    data.subset(&indices)
}

/// Mean of per-fold accuracies; the one f64 reduction shared by candidate
/// scores and the Bayes bound, so the two compare exactly.
fn mean_accuracy(per_fold: &[f64]) -> f64 {
    if per_fold.is_empty() {
        0.0
    } else {
        per_fold.iter().sum::<f64>() / per_fold.len() as f64
    }
}

/// The validation side of one CV fold, as counts per (distinct row,
/// class).
#[derive(Debug)]
struct FoldCounts {
    /// The fold's index in the splitter.
    fold: usize,
    /// A training row for each distinct row of the fold.
    rows: Vec<usize>,
    /// `counts[k * classes + c]`: the fold's rows equal to `rows[k]` with
    /// label `c`.
    counts: Vec<usize>,
    classes: usize,
    /// Validation rows in the fold.
    len: usize,
}

impl FoldCounts {
    /// The folds the CV loop scores, skipping those with an empty train or
    /// validation side, and the distinct-row count of `train`.
    fn build(train: &Dataset, kfold: &StratifiedKFold) -> (Vec<Self>, usize) {
        let (group_of, first) = train.distinct_rows();
        let classes = train.n_classes();
        // Slot of each distinct row within the fold being built.
        let mut slot = vec![usize::MAX; first.len()];
        let mut folds = Vec::with_capacity(kfold.k());
        for fold in 0..kfold.k() {
            let val = kfold.validation(fold);
            // The folds partition `train`, so a fold holding every row
            // leaves the train side empty.
            if val.is_empty() || val.len() == train.len() {
                continue;
            }
            let mut rows = Vec::new();
            let mut counts = Vec::new();
            for &i in val {
                let g = group_of[i];
                if slot[g] == usize::MAX {
                    slot[g] = rows.len();
                    rows.push(first[g]);
                    counts.resize(counts.len() + classes, 0);
                }
                counts[slot[g] * classes + train.label(i)] += 1;
            }
            for &i in val {
                slot[group_of[i]] = usize::MAX;
            }
            folds.push(Self {
                fold,
                rows,
                counts,
                classes,
                len: val.len(),
            });
        }
        (folds, first.len())
    }

    /// Per-class counts of each distinct row.
    fn per_row(&self) -> std::slice::ChunksExact<'_, usize> {
        self.counts.chunks_exact(self.classes)
    }

    /// The fold's accuracy bound: every distinct row given its commonest
    /// label.
    fn bound(&self) -> f64 {
        let reachable: usize = self
            .per_row()
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .sum();
        reachable as f64 / self.len as f64
    }

    /// `model`'s accuracy on the fold, with one `predict` per distinct row.
    fn accuracy(&self, model: &dyn Classifier, train: &Dataset) -> f64 {
        let correct: usize = self
            .rows
            .iter()
            .zip(self.per_row())
            .map(|(&r, c)| c.get(model.predict(train.row(r))).copied().unwrap_or(0))
            .sum();
        correct as f64 / self.len as f64
    }
}

/// Runs the search: CV-scores each candidate until it provably cannot
/// overtake the incumbent (see the module docs), refits the winner on the
/// full training data and returns it.
///
/// # Panics
///
/// Panics if `train`, once thinned to `cfg.max_train_samples`, has fewer
/// than two samples. A fold count above the sample count is lowered to it.
///
/// # Examples
///
/// ```
/// use mlrl_ml::automl::{auto_fit, AutoMlConfig};
/// use mlrl_ml::dataset::Dataset;
///
/// let x: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 2) as f64]).collect();
/// let y: Vec<usize> = (0..60).map(|i| i % 2).collect();
/// let train = Dataset::from_rows(x, y)?;
/// let outcome = auto_fit(&train, &AutoMlConfig::default());
/// assert!(outcome.cv_accuracy > 0.95);
/// assert_eq!(outcome.model.predict(&[1.0]), 1);
/// # Ok::<(), mlrl_ml::dataset::DatasetError>(())
/// ```
pub fn auto_fit(train: &Dataset, cfg: &AutoMlConfig) -> AutoMlOutcome {
    search(train, cfg, true)
}

/// The search behind [`auto_fit`]; `prune: false` scores every candidate.
fn search(train: &Dataset, cfg: &AutoMlConfig, prune: bool) -> AutoMlOutcome {
    let train = thin(train, cfg.max_train_samples, cfg.seed);
    let folds = cfg.folds.max(2).min(train.len());
    let kfold = StratifiedKFold::new(&train, folds, cfg.seed);
    let (fold_counts, distinct_rows) = FoldCounts::build(&train, &kfold);
    let bounds: Vec<f64> = fold_counts.iter().map(FoldCounts::bound).collect();
    let bayes_bound = mean_accuracy(&bounds);

    let mut leaderboard: Vec<(String, f64)> = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    let mut pruned = 0;
    // The candidate's fold scores so far, then the bounds of the folds it
    // has still to score: its mean is its reachable mean.
    let mut reach = bounds.clone();
    let mut models = candidates(cfg);
    'candidates: for (idx, (name, model)) in models.iter_mut().enumerate() {
        reach.copy_from_slice(&bounds);
        for (f, fold) in fold_counts.iter().enumerate() {
            if prune && best.is_some_and(|(_, b)| mean_accuracy(&reach) <= b + cfg.selection_margin)
            {
                pruned += 1;
                continue 'candidates;
            }
            model.fit(&kfold.train(&train, fold.fold));
            reach[f] = fold.accuracy(model.as_ref(), &train);
        }
        let mean = mean_accuracy(&reach);
        leaderboard.push((name.clone(), mean));
        // One-standard-error-style rule: the earliest (simplest) candidate
        // keeps the lead unless a challenger clearly beats it — majority
        // wins on balanced data, trees beat logistic on near-ties.
        if best
            .map(|(_, b)| mean > b + cfg.selection_margin)
            .unwrap_or(true)
        {
            best = Some((idx, mean));
        }
    }
    let (best_idx, cv_accuracy) = best.expect("at least one candidate");
    let (winner, mut model) = models.swap_remove(best_idx);
    model.fit(&train);
    leaderboard.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    AutoMlOutcome {
        model,
        winner,
        cv_accuracy,
        leaderboard,
        bayes_bound,
        distinct_rows,
        pruned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::accuracy;
    use crate::models::test_fixtures::{categorical, xor};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn picks_a_nonlinear_model_for_xor() {
        let train = xor(400, 1);
        let outcome = auto_fit(&train, &AutoMlConfig::default());
        assert!(
            outcome.cv_accuracy > 0.9,
            "leaderboard: {:?}",
            outcome.leaderboard
        );
        let test = xor(200, 2);
        let acc = accuracy(outcome.model.as_ref(), &test);
        assert!(acc > 0.9);
    }

    /// Balanced labels that the features say nothing about: the ERA
    /// situation, where the Bayes bound stays loose.
    fn balanced_random_labels() -> Dataset {
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<Vec<f64>> = (0..600)
            .map(|_| {
                let mut row = vec![0.0; 4];
                row[rng.gen_range(0..4usize)] = 1.0;
                row
            })
            .collect();
        let y: Vec<usize> = (0..600).map(|_| rng.gen_range(0..2)).collect();
        Dataset::from_rows(x, y).unwrap()
    }

    #[test]
    fn balanced_random_labels_stay_at_chance() {
        let outcome = auto_fit(&balanced_random_labels(), &AutoMlConfig::default());
        assert!(
            outcome.cv_accuracy < 0.6,
            "no model should beat chance: {:?}",
            outcome.leaderboard
        );
    }

    #[test]
    fn a_loose_bound_scores_every_candidate() {
        // Balanced random labels on continuous features: every row is
        // distinct, so the bound is 1 and nothing comes near it.
        let mut rng = StdRng::seed_from_u64(4);
        let x: Vec<Vec<f64>> = (0..600)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let y: Vec<usize> = (0..600).map(|_| rng.gen_range(0..2)).collect();
        let outcome = auto_fit(&Dataset::from_rows(x, y).unwrap(), &AutoMlConfig::default());
        assert_eq!(outcome.distinct_rows, 600);
        assert_eq!(outcome.bayes_bound, 1.0);
        assert_eq!(outcome.pruned, 0, "leaderboard: {:?}", outcome.leaderboard);
        assert_eq!(outcome.leaderboard.len(), 11);
    }

    #[test]
    fn fold_scores_count_out_of_range_predictions_as_wrong() {
        #[derive(Debug)]
        struct Fixed(usize);
        impl Classifier for Fixed {
            fn fit(&mut self, _: &Dataset) {}
            fn predict(&self, _: &[f64]) -> usize {
                self.0
            }
            fn name(&self) -> &'static str {
                "fixed"
            }
        }
        let train = categorical(60, 0.2, 3);
        let kfold = StratifiedKFold::new(&train, 3, 0);
        let (fold_counts, _) = FoldCounts::build(&train, &kfold);
        for fold in &fold_counts {
            let val = train.subset(kfold.validation(fold.fold));
            for class in [0, 1, 2, 7] {
                let model = Fixed(class);
                assert_eq!(
                    fold.accuracy(&model, &train).to_bits(),
                    accuracy(&model, &val).to_bits()
                );
            }
        }
    }

    #[test]
    fn thinning_respects_cap() {
        let train = categorical(5000, 0.1, 4);
        let cfg = AutoMlConfig {
            max_train_samples: 500,
            ..Default::default()
        };
        let outcome = auto_fit(&train, &cfg);
        assert!(outcome.cv_accuracy > 0.8);
    }

    #[test]
    fn leaderboard_is_sorted_and_complete() {
        let train = categorical(300, 0.05, 5);
        let outcome = auto_fit(&train, &AutoMlConfig::default());
        assert_eq!(outcome.leaderboard.len() + outcome.pruned, 11);
        for w in outcome.leaderboard.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn a_tight_bound_stops_the_search_early() {
        // Four distinct rows, each with a clear majority label: the first
        // tree comes within the margin of the bound, so the other nine
        // candidates are never fit.
        let cfg = AutoMlConfig::default();
        let outcome = auto_fit(&categorical(300, 0.05, 5), &cfg);
        assert_eq!(outcome.distinct_rows, 4);
        assert_eq!(outcome.pruned, 9, "leaderboard: {:?}", outcome.leaderboard);
        assert!(outcome.cv_accuracy <= outcome.bayes_bound);
        assert!(outcome.cv_accuracy + cfg.selection_margin >= outcome.bayes_bound);
    }

    #[test]
    fn a_candidate_that_cannot_take_the_lead_stops_mid_cv() {
        // Balanced labels on four distinct rows: the incumbent stays more
        // than the margin below the Bayes bound, so the search never ends
        // early, but challengers whose first folds fall short are dropped.
        let cfg = AutoMlConfig::default();
        let outcome = exact_search(&random_categorical(0, 4, 2, 0, 300), &cfg).unwrap();
        assert!(outcome.cv_accuracy + cfg.selection_margin < outcome.bayes_bound);
        assert!(outcome.pruned > 0, "leaderboard: {:?}", outcome.leaderboard);
    }

    #[test]
    fn more_folds_than_samples_are_lowered_to_the_sample_count() {
        let train = Dataset::from_rows(vec![vec![0.0], vec![1.0]], vec![0, 0]).unwrap();
        let cfg = AutoMlConfig {
            folds: 3,
            ..Default::default()
        };
        let outcome = auto_fit(&train, &cfg);
        assert_eq!(outcome.model.predict(&[1.0]), 0);
        assert_eq!(outcome.cv_accuracy, 1.0);
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn a_single_sample_panics() {
        let train = Dataset::from_rows(vec![vec![0.0]], vec![0]).unwrap();
        auto_fit(&train, &AutoMlConfig::default());
    }

    #[test]
    fn family_restriction_is_honoured() {
        let train = categorical(300, 0.05, 6);
        let cfg = AutoMlConfig {
            families: vec![ModelFamily::Tree],
            ..Default::default()
        };
        let outcome = auto_fit(&train, &cfg);
        // tree grid (2) + implicit majority floor (1)
        assert_eq!(outcome.leaderboard.len() + outcome.pruned, 3);
        assert!(outcome
            .leaderboard
            .iter()
            .all(|(name, _)| name.starts_with("tree") || name == "majority"));
    }

    #[test]
    fn winner_can_trail_the_top_of_the_leaderboard() {
        // Noisy labels: the MLP edges out majority by less than the
        // selection margin, so majority keeps the lead and is refit.
        let cfg = AutoMlConfig::default();
        let outcome = auto_fit(&categorical(120, 0.4, 6), &cfg);
        assert_eq!(outcome.winner, "majority");
        assert_eq!(outcome.leaderboard[0].0, "mlp(hidden=16)");
        assert!(outcome.leaderboard[0].1 > outcome.cv_accuracy);
        assert!(outcome.leaderboard[0].1 <= outcome.cv_accuracy + cfg.selection_margin);
        assert!(outcome
            .leaderboard
            .contains(&(outcome.winner.clone(), outcome.cv_accuracy)));
    }

    #[test]
    fn deterministic_given_seed() {
        let train = categorical(300, 0.1, 7);
        let a = auto_fit(&train, &AutoMlConfig::default());
        let b = auto_fit(&train, &AutoMlConfig::default());
        assert_eq!(a.leaderboard, b.leaderboard);
        assert_eq!(a.cv_accuracy, b.cv_accuracy);
    }

    /// A random categorical training set: `distinct` one-hot rows (1–12),
    /// 2–3 classes, labels (by `labels`) balanced, globally skewed, mostly
    /// set by the row, or set by the row under heavy noise, and as few
    /// samples as the fold count.
    fn random_categorical(
        seed: u64,
        distinct: usize,
        classes: usize,
        labels: usize,
        len: usize,
    ) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let favourite: Vec<usize> = (0..distinct).map(|_| rng.gen_range(0..classes)).collect();
        let mut x = Vec::with_capacity(len);
        let mut y = Vec::with_capacity(len);
        for _ in 0..len {
            let code = rng.gen_range(0..distinct);
            let mut row = vec![0.0; distinct];
            row[code] = 1.0;
            let label = match labels {
                0 => rng.gen_range(0..classes),
                1 if rng.gen_bool(0.85) => 0,
                1 => rng.gen_range(0..classes),
                2 if rng.gen_bool(0.9) => favourite[code],
                3 if rng.gen_bool(0.3) => favourite[code],
                _ => rng.gen_range(0..classes),
            };
            x.push(row);
            y.push(label);
        }
        Dataset::from_rows(x, y).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn distinct_row_scores_equal_per_row_accuracy(
            seed in any::<u64>(),
            distinct in 1usize..13,
            classes in 2usize..4,
            labels in 0usize..3,
            len in prop_oneof![2usize..8, 8usize..120],
            folds in 2usize..6,
            signed_zeros in any::<bool>(),
        ) {
            let mut train = random_categorical(seed, distinct, classes, labels, len);
            if signed_zeros {
                // Rows that differ only in the sign of a zero fall into
                // different groups but must still score the same.
                let x = train
                    .rows()
                    .enumerate()
                    .map(|(i, row)| {
                        row.iter()
                            .enumerate()
                            .map(|(f, &v)| if v == 0.0 && (i + f) % 3 == 0 { -0.0 } else { v })
                            .collect()
                    })
                    .collect();
                train = Dataset::from_rows(x, train.labels().to_vec()).unwrap();
            }
            let cfg = AutoMlConfig { folds, seed, ..Default::default() };
            let folds = folds.min(train.len());
            let kfold = StratifiedKFold::new(&train, folds, seed);
            let (fold_counts, _) = FoldCounts::build(&train, &kfold);
            for (name, mut model) in candidates(&cfg) {
                for fold in &fold_counts {
                    model.fit(&kfold.train(&train, fold.fold));
                    let val = train.subset(kfold.validation(fold.fold));
                    prop_assert_eq!(
                        fold.accuracy(model.as_ref(), &train).to_bits(),
                        accuracy(model.as_ref(), &val).to_bits(),
                        "{} fold {}", name, fold.fold
                    );
                }
            }
        }

        #[test]
        fn pruning_never_changes_the_outcome(
            seed in any::<u64>(),
            distinct in 1usize..13,
            classes in 2usize..4,
            labels in 0usize..3,
            len in prop_oneof![2usize..8, 8usize..160],
            folds in 2usize..6,
            families in 0usize..4,
        ) {
            let train = random_categorical(seed, distinct, classes, labels, len);
            let cfg = AutoMlConfig {
                folds,
                seed,
                families: match families {
                    0 => Vec::new(),
                    1 => vec![ModelFamily::Tree],
                    2 => vec![ModelFamily::Knn, ModelFamily::Logistic],
                    _ => vec![ModelFamily::Mlp, ModelFamily::Majority, ModelFamily::NaiveBayes],
                },
                ..Default::default()
            };
            exact_search(&train, &cfg)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The balanced and noisy cells where the per-fold exit does the
        /// work: the incumbent stays clear of the Bayes bound.
        #[test]
        fn pruning_never_changes_the_outcome_on_large_noisy_sets(
            seed in any::<u64>(),
            distinct in 2usize..13,
            classes in 2usize..4,
            noisy in any::<bool>(),
            len in 200usize..2001,
        ) {
            let train = random_categorical(seed, distinct, classes, if noisy { 3 } else { 0 }, len);
            exact_search(&train, &AutoMlConfig { seed, ..Default::default() })?;
        }
    }

    /// Runs `search` with and without the exit and checks that the exit
    /// changes nothing but which candidates are listed.
    fn exact_search(train: &Dataset, cfg: &AutoMlConfig) -> Result<AutoMlOutcome, TestCaseError> {
        let full = search(train, cfg, false);
        let pruned = search(train, cfg, true);
        prop_assert_eq!(full.pruned, 0);
        prop_assert_eq!(
            pruned.leaderboard.len() + pruned.pruned,
            full.leaderboard.len()
        );
        prop_assert_eq!(&pruned.winner, &full.winner);
        prop_assert_eq!(pruned.cv_accuracy.to_bits(), full.cv_accuracy.to_bits());
        prop_assert!(full
            .leaderboard
            .iter()
            .all(|(_, score)| *score <= full.bayes_bound));
        for (name, score) in &pruned.leaderboard {
            let unpruned = full
                .leaderboard
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s);
            prop_assert_eq!(
                Some(score.to_bits()),
                unpruned.map(f64::to_bits),
                "{}",
                name
            );
        }
        for row in train.rows() {
            prop_assert_eq!(pruned.model.predict(row), full.model.predict(row));
        }
        Ok(pruned)
    }
}
