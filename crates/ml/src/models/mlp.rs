//! Single-hidden-layer multilayer perceptron.
//!
//! The original SnapShot attack [6] trains neural networks (found by
//! neuroevolution); this MLP puts an equivalent hypothesis class into the
//! auto-ml candidate pool. ReLU hidden layer, softmax output, seeded SGD.
//!
//! # Sparse rows, exact results
//!
//! SnapShot rows are pairs of one-hot codes: 2 of 4–22 features are
//! nonzero. The forward pass and the first-layer update therefore sum and
//! update only the features that are not exactly `0.0` (lists built once
//! per fit), and one set of scratch buffers serves every SGD step. This
//! changes no result. A skipped term is `w * 0.0` or `lr * dh * 0.0`,
//! which is `±0` while the weights stay finite. Adding `±0` to a nonzero
//! value returns that value bit for bit, and to a zero returns a zero, so
//! every partial sum, activation, score and weight equals the dense one
//! under `==`, differing at most in the sign of a zero. Every later
//! operation gives equal results for operands equal under `==`: `+`, `−`,
//! `×`, `÷` by a softmax sum `≥ 1`, `exp`, `max`, the ReLU test `<=` and
//! the argmax's `partial_cmp`. So the fitted model predicts exactly what
//! the dense computation would. Every other operation runs in the order
//! the dense computation uses.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;

use super::{nonzero_features, softmax_in_place, Classifier, NonZeros};

/// One-hidden-layer MLP classifier.
///
/// # Examples
///
/// ```
/// use mlrl_ml::dataset::Dataset;
/// use mlrl_ml::models::{Classifier, Mlp};
///
/// // XOR — beyond any linear model.
/// let ds = Dataset::from_rows(
///     vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]],
///     vec![0, 1, 1, 0],
/// )?;
/// let mut mlp = Mlp::new(8, 0.3, 400, 0);
/// mlp.fit(&ds);
/// assert_eq!(mlp.predict(&[0.0, 1.0]), 1);
/// assert_eq!(mlp.predict(&[1.0, 1.0]), 0);
/// # Ok::<(), mlrl_ml::dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    hidden: usize,
    learning_rate: f64,
    epochs: usize,
    seed: u64,
    /// `hidden` rows of `features + 1` weights; the last one is the bias.
    w1: Vec<f64>,
    /// One row of `hidden + 1` weights per class; the last one is the bias.
    w2: Vec<f64>,
}

impl Mlp {
    /// Creates an untrained MLP with `hidden` ReLU units.
    pub fn new(hidden: usize, learning_rate: f64, epochs: usize, seed: u64) -> Self {
        Self {
            hidden: hidden.max(1),
            learning_rate,
            epochs,
            seed,
            w1: Vec::new(),
            w2: Vec::new(),
        }
    }

    /// Defaults tuned for locality-sized problems.
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(16, 0.1, 120, seed)
    }

    /// Writes the hidden activations to `h` and the class scores to
    /// `scores`, summing the first layer over the features `nz` only.
    fn forward(&self, row: &[f64], nz: &[usize], h: &mut [f64], scores: &mut [f64]) {
        let width = self.w1.len() / self.hidden;
        for (w, hj) in self.w1.chunks_exact(width).zip(h.iter_mut()) {
            let z = nz.iter().map(|&f| w[f] * row[f]).sum::<f64>() + w[width - 1];
            *hj = z.max(0.0);
        }
        for (w, s) in self.w2.chunks_exact(self.hidden + 1).zip(scores) {
            *s = w[..self.hidden]
                .iter()
                .zip(h.iter())
                .map(|(wi, hi)| wi * hi)
                .sum::<f64>()
                + w[self.hidden];
        }
    }
}

impl Classifier for Mlp {
    fn fit(&mut self, data: &Dataset) {
        let n_features = data.n_features();
        let n_classes = data.n_classes().max(2);
        let hidden = self.hidden;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let scale = (2.0 / (n_features.max(1) as f64)).sqrt();
        self.w1 = (0..hidden * (n_features + 1))
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        self.w2 = (0..n_classes * (hidden + 1))
            .map(|_| rng.gen_range(-scale..scale))
            .collect();

        let nonzeros = NonZeros::new(data);
        let mut h = vec![0.0; hidden];
        let mut dh = vec![0.0; hidden];
        // Scores, then probabilities, then the output-layer gradient.
        let mut dout = vec![0.0; n_classes];
        let lr = self.learning_rate;
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let row = data.row(i);
                let nz = nonzeros.of(i);
                self.forward(row, nz, &mut h, &mut dout);
                softmax_in_place(&mut dout);
                dout[data.label(i)] -= 1.0;
                // Hidden gradient through ReLU.
                dh.fill(0.0);
                for (c, w) in self.w2.chunks_exact(hidden + 1).enumerate() {
                    for (j, dh_j) in dh.iter_mut().enumerate() {
                        *dh_j += dout[c] * w[j];
                    }
                }
                for (c, w) in self.w2.chunks_exact_mut(hidden + 1).enumerate() {
                    for (wj, hj) in w[..hidden].iter_mut().zip(&h) {
                        *wj -= lr * dout[c] * hj;
                    }
                    w[hidden] -= lr * dout[c];
                }
                for (j, w) in self.w1.chunks_exact_mut(n_features + 1).enumerate() {
                    if h[j] <= 0.0 {
                        continue; // ReLU dead for this sample
                    }
                    for &f in nz {
                        w[f] -= lr * dh[j] * row[f];
                    }
                    w[n_features] -= lr * dh[j];
                }
            }
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        assert!(!self.w1.is_empty(), "predict called before fit");
        let nz: Vec<usize> = nonzero_features(row).collect();
        let mut h = vec![0.0; self.hidden];
        let mut scores = vec![0.0; self.w2.len() / (self.hidden + 1)];
        self.forward(row, &nz, &mut h, &mut scores);
        scores
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "mlp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::accuracy;
    use crate::models::test_fixtures::{blobs, categorical, xor};

    #[test]
    fn solves_xor() {
        let train = xor(400, 1);
        let test = xor(200, 2);
        let mut mlp = Mlp::with_defaults(3);
        mlp.fit(&train);
        let acc = accuracy(&mlp, &test);
        assert!(acc > 0.9, "MLP must solve XOR, got {acc}");
    }

    #[test]
    fn separates_blobs() {
        let mut mlp = Mlp::with_defaults(1);
        mlp.fit(&blobs(200, 3));
        assert!(accuracy(&mlp, &blobs(100, 4)) > 0.95);
    }

    #[test]
    fn categorical_structure() {
        let mut mlp = Mlp::with_defaults(2);
        mlp.fit(&categorical(500, 0.05, 5));
        assert!(accuracy(&mlp, &categorical(200, 0.0, 6)) > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = xor(150, 7);
        let mut a = Mlp::with_defaults(9);
        let mut b = Mlp::with_defaults(9);
        a.fit(&train);
        b.fit(&train);
        for i in 0..train.len() {
            assert_eq!(a.predict(train.row(i)), b.predict(train.row(i)));
        }
    }

    #[test]
    #[should_panic(expected = "predict called before fit")]
    fn unfitted_predict_panics() {
        let mlp = Mlp::with_defaults(0);
        let _ = mlp.predict(&[0.0]);
    }
}
