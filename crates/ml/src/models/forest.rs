//! Random forest: bagged decision trees with feature subsampling.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;

use super::{Classifier, DecisionTree};

/// Random forest classifier: majority vote over CART trees trained on
/// bootstrap samples with per-tree feature subsets (√d features).
///
/// # Examples
///
/// ```
/// use mlrl_ml::dataset::Dataset;
/// use mlrl_ml::models::{Classifier, RandomForest};
///
/// let ds = Dataset::from_rows(
///     vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]],
///     vec![0, 1, 1, 0],
/// )?;
/// let mut rf = RandomForest::new(15, 6, 0);
/// rf.fit(&ds);
/// assert_eq!(rf.predict(&[0.0, 0.0]), 0);
/// # Ok::<(), mlrl_ml::dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    seed: u64,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Creates an untrained forest.
    pub fn new(n_trees: usize, max_depth: usize, seed: u64) -> Self {
        Self {
            n_trees: n_trees.max(1),
            max_depth,
            seed,
            trees: Vec::new(),
            n_classes: 2,
        }
    }

    /// Reasonable defaults for locality datasets.
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(25, 10, seed)
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        self.trees.clear();
        self.n_classes = data.n_classes();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = data.len();
        let n_features = data.n_features();
        let subset_size = ((n_features as f64).sqrt().ceil() as usize).clamp(1, n_features);
        // A bootstrap sample only matters to a tree through how often it
        // draws each (distinct row, label) pair.
        let (group_of, rows) = data.distinct_rows();
        let mut counts = vec![0usize; rows.len() * self.n_classes];
        for _ in 0..self.n_trees {
            counts.fill(0);
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                counts[group_of[i] * self.n_classes + data.label(i)] += 1;
            }
            let mut features: Vec<usize> = (0..n_features).collect();
            features.shuffle(&mut rng);
            features.truncate(subset_size);
            let mut tree = DecisionTree::new(self.max_depth, 2).with_feature_subset(features);
            tree.fit_counts(data, &rows, &counts);
            self.trees.push(tree);
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        assert!(!self.trees.is_empty(), "predict called before fit");
        let mut votes = vec![0usize; self.n_classes.max(1)];
        for tree in &self.trees {
            let c = tree.predict(row);
            if c < votes.len() {
                votes[c] += 1;
            }
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "random-forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::accuracy;
    use crate::models::test_fixtures::{blobs, categorical, xor};

    #[test]
    fn solves_xor() {
        let train = xor(500, 1);
        let test = xor(200, 2);
        let mut rf = RandomForest::with_defaults(3);
        rf.fit(&train);
        assert!(accuracy(&rf, &test) > 0.9);
    }

    #[test]
    fn separates_blobs() {
        let mut rf = RandomForest::with_defaults(1);
        rf.fit(&blobs(300, 5));
        assert!(accuracy(&rf, &blobs(150, 6)) > 0.95);
    }

    #[test]
    fn categorical_structure() {
        let mut rf = RandomForest::with_defaults(2);
        rf.fit(&categorical(500, 0.05, 7));
        assert!(accuracy(&rf, &categorical(200, 0.0, 8)) > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = blobs(120, 11);
        let mut a = RandomForest::new(10, 6, 42);
        let mut b = RandomForest::new(10, 6, 42);
        a.fit(&train);
        b.fit(&train);
        for i in 0..train.len() {
            assert_eq!(a.predict(train.row(i)), b.predict(train.row(i)));
        }
    }

    #[test]
    fn single_tree_forest_works() {
        let train = blobs(100, 13);
        let mut rf = RandomForest::new(1, 8, 0);
        rf.fit(&train);
        assert!(accuracy(&rf, &train) > 0.9);
    }
}
