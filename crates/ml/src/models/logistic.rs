//! Multinomial logistic regression trained with mini-batch SGD.
//!
//! # Sparse scores, exact results
//!
//! SnapShot rows are pairs of one-hot codes, so a class score sums only
//! the features that are not exactly `0.0` (lists built once per fit), and
//! one probability buffer serves every SGD step. A skipped term is
//! `w * 0.0`, which is `±0` while the weights stay finite. Adding `±0` to
//! a nonzero value returns that value bit for bit, and to a zero returns a
//! zero, so every score equals the dense one under `==`, differing at most
//! in the sign of a zero. The softmax (`−`, `exp`, `max`, `+`, `÷` by a sum
//! `≥ 1`), the dense L2 update and the argmax's `partial_cmp` all give
//! equal results for operands equal under `==`, so weights stay equal
//! under `==` step by step and the fitted model predicts exactly what the
//! dense computation would.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;

use super::{nonzero_features, softmax_in_place, Classifier, NonZeros};

/// Multinomial logistic regression (softmax) with L2 regularization,
/// trained by seeded stochastic gradient descent.
///
/// # Examples
///
/// ```
/// use mlrl_ml::dataset::Dataset;
/// use mlrl_ml::models::{Classifier, LogisticRegression};
///
/// // y = 1 iff x > 0 — linearly separable.
/// let ds = Dataset::from_rows(
///     vec![vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]],
///     vec![0, 0, 1, 1],
/// )?;
/// let mut lr = LogisticRegression::new(0.5, 200, 1e-4, 0);
/// lr.fit(&ds);
/// assert_eq!(lr.predict(&[-3.0]), 0);
/// assert_eq!(lr.predict(&[3.0]), 1);
/// # Ok::<(), mlrl_ml::dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    learning_rate: f64,
    epochs: usize,
    l2: f64,
    seed: u64,
    /// One row of `features + 1` weights per class; the last one is the
    /// bias.
    weights: Vec<f64>,
    /// `features + 1`.
    width: usize,
}

impl LogisticRegression {
    /// Creates an untrained model.
    pub fn new(learning_rate: f64, epochs: usize, l2: f64, seed: u64) -> Self {
        Self {
            learning_rate,
            epochs,
            l2,
            seed,
            weights: Vec::new(),
            width: 1,
        }
    }

    /// Reasonable defaults for small categorical problems.
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(0.3, 100, 1e-4, seed)
    }

    /// Writes the class scores to `out`, summing over the features `nz`.
    fn scores(&self, row: &[f64], nz: &[usize], out: &mut [f64]) {
        for (w, s) in self.weights.chunks_exact(self.width).zip(out) {
            *s = nz.iter().map(|&f| w[f] * row[f]).sum::<f64>() + w[self.width - 1];
        }
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &Dataset) {
        let n_features = data.n_features();
        let n_classes = data.n_classes().max(2);
        self.width = n_features + 1;
        self.weights = vec![0.0; n_classes * self.width];
        let nonzeros = NonZeros::new(data);
        let mut probs = vec![0.0; n_classes];
        let (lr, l2, width) = (self.learning_rate, self.l2, self.width);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let row = data.row(i);
                let target = data.label(i);
                self.scores(row, nonzeros.of(i), &mut probs);
                softmax_in_place(&mut probs);
                for (class, w) in self.weights.chunks_exact_mut(width).enumerate() {
                    let err = probs[class] - usize::from(class == target) as f64;
                    for (wi, xi) in w[..n_features].iter_mut().zip(row) {
                        *wi -= lr * (err * xi + l2 * *wi);
                    }
                    w[n_features] -= lr * err;
                }
            }
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        assert!(!self.weights.is_empty(), "predict called before fit");
        let nz: Vec<usize> = nonzero_features(row).collect();
        let mut scores = vec![0.0; self.weights.len() / self.width];
        self.scores(row, &nz, &mut scores);
        scores
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite scores"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "logistic-regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::accuracy;
    use crate::models::test_fixtures::{blobs, categorical, xor};

    #[test]
    fn separates_blobs() {
        let train = blobs(200, 1);
        let test = blobs(100, 2);
        let mut lr = LogisticRegression::with_defaults(0);
        lr.fit(&train);
        assert!(accuracy(&lr, &test) > 0.95);
    }

    #[test]
    fn cannot_solve_xor() {
        // Sanity: a linear model stays near chance on XOR.
        let train = xor(300, 3);
        let mut lr = LogisticRegression::with_defaults(0);
        lr.fit(&train);
        let acc = accuracy(&lr, &train);
        assert!(acc < 0.7, "linear model should not fit XOR (got {acc})");
    }

    #[test]
    fn handles_one_hot_categorical() {
        let train = categorical(400, 0.05, 5);
        let test = categorical(200, 0.05, 6);
        let mut lr = LogisticRegression::with_defaults(0);
        lr.fit(&train);
        assert!(accuracy(&lr, &test) > 0.85);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = blobs(100, 9);
        let mut a = LogisticRegression::with_defaults(4);
        let mut b = LogisticRegression::with_defaults(4);
        a.fit(&train);
        b.fit(&train);
        let probe = vec![0.3, -0.2];
        assert_eq!(a.predict(&probe), b.predict(&probe));
    }

    #[test]
    #[should_panic(expected = "predict called before fit")]
    fn unfitted_predict_panics() {
        let lr = LogisticRegression::with_defaults(0);
        let _ = lr.predict(&[0.0]);
    }
}
