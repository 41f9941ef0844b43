//! Stratified k-fold cross-validation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;

/// Stratified k-fold splitter: every fold approximates the full class
/// distribution, so accuracy estimates stay unbiased on the skewed label
/// distributions that partially-balanced locking produces.
#[derive(Debug, Clone)]
pub struct StratifiedKFold {
    folds: Vec<Vec<usize>>,
}

impl StratifiedKFold {
    /// Assigns samples to `k` folds round-robin within each class,
    /// after a seeded shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > data.len()`.
    pub fn new(data: &Dataset, k: usize, seed: u64) -> Self {
        assert!(k >= 2, "k must be at least 2");
        assert!(k <= data.len(), "k may not exceed the sample count");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut folds = vec![Vec::new(); k];
        for class in 0..data.n_classes() {
            let mut members: Vec<usize> = (0..data.len())
                .filter(|&i| data.label(i) == class)
                .collect();
            members.shuffle(&mut rng);
            for (j, idx) in members.into_iter().enumerate() {
                folds[j % k].push(idx);
            }
        }
        Self { folds }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.folds.len()
    }

    /// Indices of the validation samples of fold `fold`. The folds
    /// partition the dataset the splitter was built on.
    ///
    /// # Panics
    ///
    /// Panics if `fold >= k`.
    pub fn validation(&self, fold: usize) -> &[usize] {
        &self.folds[fold]
    }

    /// The training side of fold `fold`: every other fold's samples, fold
    /// by fold.
    ///
    /// # Panics
    ///
    /// Panics if `fold >= k`.
    pub fn train(&self, data: &Dataset, fold: usize) -> Dataset {
        assert!(fold < self.folds.len(), "fold out of range");
        let train_idx: Vec<usize> = self
            .folds
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != fold)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        data.subset(&train_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed(n: usize) -> Dataset {
        // 25% class 0, 75% class 1.
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..n).map(|i| usize::from(i % 4 != 0)).collect();
        Dataset::from_rows(x, y).unwrap()
    }

    #[test]
    fn kfold_partitions_disjointly() {
        let ds = skewed(97);
        let kf = StratifiedKFold::new(&ds, 5, 3);
        let mut seen = vec![false; ds.len()];
        for fold in &kf.folds {
            for &i in fold {
                assert!(!seen[i], "sample {i} in two folds");
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn kfold_preserves_class_ratio() {
        let ds = skewed(200);
        let kf = StratifiedKFold::new(&ds, 4, 0);
        for fold in 0..4 {
            let val = ds.subset(kf.validation(fold));
            let counts = val.class_counts();
            let ratio = counts[1] as f64 / val.len() as f64;
            assert!((ratio - 0.75).abs() < 0.05, "fold {fold} ratio {ratio}");
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn kfold_rejects_k_one() {
        let ds = skewed(10);
        let _ = StratifiedKFold::new(&ds, 1, 0);
    }

    #[test]
    fn split_train_val_cover_everything() {
        let ds = skewed(30);
        let kf = StratifiedKFold::new(&ds, 3, 1);
        let train = kf.train(&ds, 0);
        assert_eq!(train.len() + kf.validation(0).len(), 30);
    }
}
