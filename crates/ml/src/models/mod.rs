//! Classifier implementations.
//!
//! All models implement the object-safe [`Classifier`] trait so the
//! [auto-ml search](crate::automl) can treat them uniformly — the stand-in
//! for the paper's auto-sklearn \[13\]. The families cover the spectrum
//! auto-sklearn would explore on a small categorical problem: a majority
//! baseline, a linear model, instance-based learning, a generative model,
//! and axis-aligned trees/ensembles.

mod adaboost;
mod forest;
mod knn;
mod logistic;
mod majority;
mod mlp;
mod naive_bayes;
mod tree;

pub use adaboost::AdaBoost;
pub use forest::RandomForest;
pub use knn::KNearestNeighbors;
pub use logistic::LogisticRegression;
pub use majority::MajorityClass;
pub use mlp::Mlp;
pub use naive_bayes::GaussianNaiveBayes;
pub use tree::DecisionTree;

use crate::dataset::Dataset;

/// A trainable classifier.
///
/// Implementations must be deterministic given their construction
/// parameters (seeded RNGs), so attack evaluations are reproducible.
pub trait Classifier: std::fmt::Debug {
    /// Fits the model to `data`, replacing any previous fit.
    fn fit(&mut self, data: &Dataset);

    /// Predicts the class of one feature row.
    ///
    /// # Panics
    ///
    /// May panic if called before [`Classifier::fit`] or with a row of the
    /// wrong width.
    fn predict(&self, row: &[f64]) -> usize;

    /// Predicts a batch of rows.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Short human-readable model name.
    fn name(&self) -> &'static str;
}

/// Softmax of `scores`, in place. The same f64 operations in the same
/// order as exponentiating `s - max` into a new vector, summing it and
/// dividing every entry by the sum.
pub(crate) fn softmax_in_place(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
    }
    let sum: f64 = scores.iter().sum();
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

/// The features of `row` that are not exactly `0.0` (either sign), in
/// ascending order.
pub(crate) fn nonzero_features(row: &[f64]) -> impl Iterator<Item = usize> + '_ {
    (0..row.len()).filter(|&f| row[f] != 0.0)
}

/// Per-row [`nonzero_features`] lists of a dataset, built once per fit.
#[derive(Debug)]
pub(crate) struct NonZeros {
    start: Vec<usize>,
    features: Vec<usize>,
}

impl NonZeros {
    pub(crate) fn new(data: &Dataset) -> Self {
        let mut start = Vec::with_capacity(data.len() + 1);
        let mut features = Vec::new();
        start.push(0);
        for row in data.rows() {
            features.extend(nonzero_features(row));
            start.push(features.len());
        }
        Self { start, features }
    }

    /// The nonzero features of row `i`.
    pub(crate) fn of(&self, i: usize) -> &[usize] {
        &self.features[self.start[i]..self.start[i + 1]]
    }
}

/// Accuracy of `model` on `data`, in `[0, 1]`.
pub fn accuracy(model: &dyn Classifier, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let correct = (0..data.len())
        .filter(|&i| model.predict(data.row(i)) == data.label(i))
        .count();
    correct as f64 / data.len() as f64
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Linearly separable 2-class blob data.
    pub fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let cx = if class == 0 { -2.0 } else { 2.0 };
            x.push(vec![
                cx + rng.gen_range(-0.8..0.8),
                cx + rng.gen_range(-0.8..0.8),
            ]);
            y.push(class);
        }
        Dataset::from_rows(x, y).unwrap()
    }

    /// The XOR problem: not linearly separable.
    pub fn xor(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.gen_bool(0.5);
            let b = rng.gen_bool(0.5);
            x.push(vec![
                a as u8 as f64 + rng.gen_range(-0.2..0.2),
                b as u8 as f64 + rng.gen_range(-0.2..0.2),
            ]);
            y.push((a ^ b) as usize);
        }
        Dataset::from_rows(x, y).unwrap()
    }

    /// Categorical one-hot data mimicking SnapShot localities: class is a
    /// noisy function of which indicator is set.
    pub fn categorical(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let code = rng.gen_range(0..4usize);
            let mut row = vec![0.0; 4];
            row[code] = 1.0;
            let label = usize::from(code >= 2);
            let label = if rng.gen_bool(noise) {
                1 - label
            } else {
                label
            };
            x.push(row);
            y.push(label);
        }
        Dataset::from_rows(x, y).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::blobs;
    use super::*;

    #[test]
    fn accuracy_of_perfect_and_broken_models() {
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
        let ds = blobs(10, 0);
        let zeros = Fixed(0);
        assert!((accuracy(&zeros, &ds) - 0.5).abs() < 1e-9);
    }
}
