//! Datasets for supervised classification.
//!
//! The SnapShot-RTL attack produces *localities*: small categorical feature
//! vectors (`[C1, C2]` operator codes) labelled with key-bit values. This
//! module stores such data and provides the categorical one-hot encoding
//! the models consume.
//!
//! A SnapShot training set holds a hundred thousand rows but only a few
//! dozen distinct ones, so a [`Dataset`] keeps a table of rows and, per
//! sample, the index of its row in that table plus its label
//! ([`Dataset::from_interned`]). Subsets, folds and thinned copies copy
//! each row they use once, not once per sample.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A labelled classification dataset over a table of rows.
///
/// Equality compares the samples (rows and labels in order) and the class
/// count, not how the rows are stored.
///
/// # Examples
///
/// ```
/// use mlrl_ml::dataset::Dataset;
///
/// let ds = Dataset::from_rows(
///     vec![vec![0.0, 1.0], vec![1.0, 0.0]],
///     vec![0, 1],
/// )?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.n_features(), 2);
/// assert_eq!(ds.n_classes(), 2);
///
/// // The same samples, each distinct row stored once.
/// let interned = Dataset::from_interned(
///     vec![vec![0.0, 1.0], vec![1.0, 0.0]],
///     vec![0, 1, 1, 0],
///     vec![0, 1, 1, 0],
/// )?;
/// assert_eq!(interned.len(), 4);
/// assert_eq!(interned.row(2), &[1.0, 0.0]);
/// # Ok::<(), mlrl_ml::dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The rows the samples point into.
    table: Vec<Vec<f64>>,
    /// Per sample, its row in `table`.
    index: Vec<usize>,
    y: Vec<usize>,
    n_classes: usize,
}

/// Errors constructing a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Rows and labels have different lengths.
    LengthMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// Feature rows have inconsistent widths.
    RaggedRows,
    /// The dataset holds no samples.
    Empty,
    /// A sample points past the end of the row table.
    UnknownRow {
        /// The sample's row index.
        index: usize,
        /// Number of rows in the table.
        rows: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { rows, labels } => {
                write!(f, "{rows} feature rows but {labels} labels")
            }
            DatasetError::RaggedRows => write!(f, "feature rows have inconsistent widths"),
            DatasetError::Empty => write!(f, "dataset holds no samples"),
            DatasetError::UnknownRow { index, rows } => {
                write!(f, "sample row {index} is outside a table of {rows} rows")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.n_classes == other.n_classes && self.y == other.y && self.rows().eq(other.rows())
    }
}

impl Dataset {
    /// Builds a dataset from feature rows and labels, one row per sample.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] on empty input, ragged rows, or mismatched
    /// lengths.
    pub fn from_rows(x: Vec<Vec<f64>>, y: Vec<usize>) -> Result<Self, DatasetError> {
        let index = (0..x.len()).collect();
        Self::from_interned(x, index, y)
    }

    /// Builds a dataset whose sample `i` has features `rows[index[i]]` and
    /// label `y[i]`. The rows are stored once, however many samples share
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] if `index` is empty, `index` and `y` differ
    /// in length, `rows` are ragged, or an index is not a row of `rows`.
    pub fn from_interned(
        rows: Vec<Vec<f64>>,
        index: Vec<usize>,
        y: Vec<usize>,
    ) -> Result<Self, DatasetError> {
        if index.len() != y.len() {
            return Err(DatasetError::LengthMismatch {
                rows: index.len(),
                labels: y.len(),
            });
        }
        if index.is_empty() {
            return Err(DatasetError::Empty);
        }
        let width = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|r| r.len() != width) {
            return Err(DatasetError::RaggedRows);
        }
        if let Some(&bad) = index.iter().find(|&&r| r >= rows.len()) {
            return Err(DatasetError::UnknownRow {
                index: bad,
                rows: rows.len(),
            });
        }
        let n_classes = y.iter().copied().max().unwrap_or(0) + 1;
        Ok(Self {
            table: rows,
            index,
            y,
            n_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the dataset is empty (never true for a constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.table.first().map(|r| r.len()).unwrap_or(0)
    }

    /// Number of classes (`max(label) + 1`).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature row of sample `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.table[self.index[i]]
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.y[i]
    }

    /// The feature rows of all samples, in order.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            table: &self.table,
            index: self.index.iter(),
        }
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.y
    }

    /// A new dataset containing the samples at `indices` (in order).
    ///
    /// Its table holds the rows those samples use, once each, in order of
    /// first use. Sharing this dataset's table instead would make a
    /// shuffled subset of distinct rows read its rows out of order, which
    /// slows every model pass over it.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let mut slot = vec![usize::MAX; self.table.len()];
        let mut table = Vec::new();
        let index = indices
            .iter()
            .map(|&i| {
                let r = self.index[i];
                if slot[r] == usize::MAX {
                    slot[r] = table.len();
                    table.push(self.table[r].clone());
                }
                slot[r]
            })
            .collect();
        Self {
            table,
            index,
            y: indices.iter().map(|&i| self.y[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// Groups the samples by the exact bit patterns of their features.
    ///
    /// Returns the group of every sample and, per group, the index of its
    /// first sample. Groups are numbered in order of first appearance.
    /// Rows that differ only in the sign of a zero fall into different
    /// groups. Each table row is hashed at most once.
    pub(crate) fn distinct_rows(&self) -> (Vec<usize>, Vec<usize>) {
        let mut groups: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut group_of_row = vec![usize::MAX; self.table.len()];
        let mut first = Vec::new();
        let group_of = self
            .index
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if group_of_row[r] == usize::MAX {
                    let bits = self.table[r].iter().map(|v| v.to_bits()).collect();
                    group_of_row[r] = *groups.entry(bits).or_insert_with(|| {
                        first.push(i);
                        first.len() - 1
                    });
                }
                group_of_row[r]
            })
            .collect();
        (group_of, first)
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &label in &self.y {
            counts[label] += 1;
        }
        counts
    }

    /// The majority class label.
    pub fn majority_class(&self) -> usize {
        let counts = self.class_counts();
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The feature rows of a [`Dataset`], in sample order
/// ([`Dataset::rows`]).
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    table: &'a [Vec<f64>],
    index: std::slice::Iter<'a, usize>,
}

impl Rows<'_> {
    /// Copies the remaining rows out, one `Vec` per sample.
    pub fn to_vec(&self) -> Vec<Vec<f64>> {
        self.clone().map(<[f64]>::to_vec).collect()
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [f64];

    fn next(&mut self) -> Option<&'a [f64]> {
        self.index.next().map(|&r| self.table[r].as_slice())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.index.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// One-hot encoder for categorical integer feature columns.
///
/// SnapShot localities are pairs of operator codes; the encoder maps each
/// distinct code per column to an indicator feature, which lets linear and
/// distance-based models treat codes symmetrically.
///
/// # Examples
///
/// ```
/// use mlrl_ml::dataset::OneHotEncoder;
///
/// let rows = vec![vec![1u32, 7], vec![2, 7], vec![1, 9]];
/// let enc = OneHotEncoder::fit(&rows);
/// let dense = enc.transform(&rows[0]);
/// // Column 0 has codes {1, 2}; column 1 has {7, 9}: 4 indicators total.
/// assert_eq!(dense.len(), 4);
/// assert_eq!(dense.iter().filter(|v| **v == 1.0).count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotEncoder {
    /// Sorted distinct codes per input column.
    vocab: Vec<Vec<u32>>,
}

impl OneHotEncoder {
    /// Learns the per-column vocabularies from `rows`.
    pub fn fit(rows: &[Vec<u32>]) -> Self {
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut sets: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); width];
        for row in rows {
            for (col, &v) in row.iter().enumerate() {
                sets[col].insert(v);
            }
        }
        Self {
            vocab: sets.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }

    /// Total dense width after encoding.
    pub fn width(&self) -> usize {
        self.vocab.iter().map(|v| v.len()).sum()
    }

    /// Encodes one categorical row into a dense 0/1 vector. Codes unseen
    /// during [`OneHotEncoder::fit`] encode as all-zero in their column.
    pub fn transform(&self, row: &[u32]) -> Vec<f64> {
        let mut out = vec![0.0; self.width()];
        let mut offset = 0;
        for (col, vocab) in self.vocab.iter().enumerate() {
            if let Some(&code) = row.get(col) {
                if let Ok(pos) = vocab.binary_search(&code) {
                    out[offset + pos] = 1.0;
                }
            }
            offset += vocab.len();
        }
        out
    }

    /// Encodes many rows.
    pub fn transform_all(&self, rows: &[Vec<u32>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::StratifiedKFold;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random interned dataset: `table` rows drawn from a small value set
    /// (so the table repeats rows, and holds `0.0` next to `-0.0`), and
    /// `len` samples pointing into it.
    fn interned(seed: u64, table: usize, len: usize, classes: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = [0.0, -0.0, 1.0, 0.5];
        let rows: Vec<Vec<f64>> = (0..table)
            .map(|_| (0..3).map(|_| values[rng.gen_range(0..4usize)]).collect())
            .collect();
        let index = (0..len).map(|_| rng.gen_range(0..table)).collect();
        let y = (0..len).map(|_| rng.gen_range(0..classes)).collect();
        Dataset::from_interned(rows, index, y).unwrap()
    }

    /// The same samples, one stored row each.
    fn materialised(ds: &Dataset) -> Dataset {
        Dataset::from_rows(ds.rows().to_vec(), ds.labels().to_vec()).unwrap()
    }

    fn assert_same_samples(a: &Dataset, b: &Dataset) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.n_features(), b.n_features());
        assert_eq!(a.n_classes(), b.n_classes());
        for i in 0..a.len() {
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.row(i)), bits(b.row(i)), "row {i}");
            assert_eq!(a.label(i), b.label(i), "label {i}");
        }
        assert_eq!(a.class_counts(), b.class_counts());
        assert_eq!(a.majority_class(), b.majority_class());
        assert_eq!(a.distinct_rows(), b.distinct_rows());
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn interned_rows_behave_like_materialised_rows(
            seed in any::<u64>(),
            table in 1usize..9,
            len in 2usize..80,
            classes in 1usize..4,
        ) {
            let ds = interned(seed, table, len, classes);
            let flat = materialised(&ds);
            assert_same_samples(&ds, &flat);
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            let picks: Vec<usize> = (0..len / 2 + 1).map(|_| rng.gen_range(0..len)).collect();
            assert_same_samples(&ds.subset(&picks), &flat.subset(&picks));
            let k = 2 + (seed % 3) as usize;
            let k = k.min(len);
            let (a, b) = (
                StratifiedKFold::new(&ds, k, seed),
                StratifiedKFold::new(&flat, k, seed),
            );
            for fold in 0..k {
                prop_assert_eq!(a.validation(fold), b.validation(fold));
                assert_same_samples(&a.train(&ds, fold), &b.train(&flat, fold));
            }
        }
    }

    #[test]
    fn distinct_rows_number_groups_by_first_sample() {
        // Table rows 0 and 2 are equal; row 1 differs from 0 by a signed zero.
        let ds = Dataset::from_interned(
            vec![vec![0.0, 1.0], vec![-0.0, 1.0], vec![0.0, 1.0]],
            vec![1, 2, 0, 1, 2],
            vec![0, 1, 0, 1, 1],
        )
        .unwrap();
        assert_eq!(ds.distinct_rows(), (vec![0, 1, 1, 0, 1], vec![0, 1]));
    }

    #[test]
    fn subset_stores_each_used_row_once_in_order_of_first_use() {
        let ds = Dataset::from_interned(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![2, 0, 2, 1],
            vec![0, 1, 0, 1],
        )
        .unwrap();
        let sub = ds.subset(&[3, 0, 2, 0]);
        assert_eq!(sub.table, vec![vec![1.0], vec![2.0]]);
        assert_eq!(sub.index, vec![0, 1, 1, 1]);
        assert_eq!(sub.labels(), &[1, 0, 0, 0]);
    }

    #[test]
    fn interned_construction_validates() {
        assert_eq!(
            Dataset::from_interned(vec![vec![1.0]], vec![0, 1], vec![0, 0]).unwrap_err(),
            DatasetError::UnknownRow { index: 1, rows: 1 }
        );
        assert_eq!(
            Dataset::from_interned(vec![vec![1.0]], vec![0], vec![0, 0]).unwrap_err(),
            DatasetError::LengthMismatch { rows: 1, labels: 2 }
        );
        assert_eq!(
            Dataset::from_interned(vec![vec![1.0]], vec![], vec![]).unwrap_err(),
            DatasetError::Empty
        );
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Dataset::from_rows(vec![vec![1.0]], vec![0, 1]).unwrap_err(),
            DatasetError::LengthMismatch { rows: 1, labels: 2 }
        );
        assert_eq!(
            Dataset::from_rows(vec![], vec![]).unwrap_err(),
            DatasetError::Empty
        );
        assert_eq!(
            Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 0]).unwrap_err(),
            DatasetError::RaggedRows
        );
    }

    #[test]
    fn class_statistics() {
        let ds = Dataset::from_rows(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![0, 1, 1, 1],
        )
        .unwrap();
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.class_counts(), vec![1, 3]);
        assert_eq!(ds.majority_class(), 1);
    }

    #[test]
    fn subset_selects_in_order() {
        let ds = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]], vec![0, 1, 0]).unwrap();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.rows().to_vec(), vec![vec![2.0], vec![0.0]]);
        assert_eq!(sub.labels(), &[0, 0]);
        assert_eq!(sub.n_classes(), 2, "subset keeps the parent class count");
    }

    #[test]
    fn one_hot_round_trip() {
        let rows = vec![vec![5u32, 100], vec![9, 100], vec![5, 200]];
        let enc = OneHotEncoder::fit(&rows);
        assert_eq!(enc.width(), 4);
        assert_eq!(enc.transform(&[5, 100]), vec![1.0, 0.0, 1.0, 0.0]);
        assert_eq!(enc.transform(&[9, 200]), vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn one_hot_unseen_code_is_zero() {
        let enc = OneHotEncoder::fit(&[vec![1u32], vec![2]]);
        assert_eq!(enc.transform(&[3]), vec![0.0, 0.0]);
    }

    #[test]
    fn one_hot_distinct_rows_distinct_encodings() {
        let rows: Vec<Vec<u32>> = (0..10u32).map(|i| vec![i % 5, i / 5]).collect();
        let enc = OneHotEncoder::fit(&rows);
        let encoded = enc.transform_all(&rows);
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                if rows[i] != rows[j] {
                    assert_ne!(encoded[i], encoded[j]);
                }
            }
        }
    }
}
