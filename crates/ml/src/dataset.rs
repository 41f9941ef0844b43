//! Datasets for supervised classification.
//!
//! The SnapShot-RTL attack produces *localities*: small categorical feature
//! vectors (`[C1, C2]` operator codes) labelled with key-bit values. This
//! module stores such data densely and provides the categorical one-hot
//! encoding the models consume.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A dense, labelled classification dataset.
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
/// # Ok::<(), mlrl_ml::dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Vec<Vec<f64>>,
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
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { rows, labels } => {
                write!(f, "{rows} feature rows but {labels} labels")
            }
            DatasetError::RaggedRows => write!(f, "feature rows have inconsistent widths"),
            DatasetError::Empty => write!(f, "dataset holds no samples"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Builds a dataset from feature rows and labels.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] on empty input, ragged rows, or mismatched
    /// lengths.
    pub fn from_rows(x: Vec<Vec<f64>>, y: Vec<usize>) -> Result<Self, DatasetError> {
        if x.len() != y.len() {
            return Err(DatasetError::LengthMismatch {
                rows: x.len(),
                labels: y.len(),
            });
        }
        if x.is_empty() {
            return Err(DatasetError::Empty);
        }
        let width = x[0].len();
        if x.iter().any(|r| r.len() != width) {
            return Err(DatasetError::RaggedRows);
        }
        let n_classes = y.iter().copied().max().unwrap_or(0) + 1;
        Ok(Self { x, y, n_classes })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset is empty (never true for a constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.x.first().map(|r| r.len()).unwrap_or(0)
    }

    /// Number of classes (`max(label) + 1`).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i]
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.y[i]
    }

    /// All feature rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.y
    }

    /// A new dataset containing the samples at `indices` (in order).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Self {
        Self {
            x: indices.iter().map(|&i| self.x[i].clone()).collect(),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// Groups the rows by the exact bit patterns of their features.
    ///
    /// Returns the group of every row and, per group, the index of its
    /// first row. Groups are numbered in order of first appearance. Rows
    /// that differ only in the sign of a zero fall into different groups.
    pub(crate) fn distinct_rows(&self) -> (Vec<usize>, Vec<usize>) {
        let mut groups: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut first = Vec::new();
        let group_of = self
            .x
            .iter()
            .enumerate()
            .map(|(i, row)| {
                *groups
                    .entry(row.iter().map(|v| v.to_bits()).collect())
                    .or_insert_with(|| {
                        first.push(i);
                        first.len() - 1
                    })
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
        assert_eq!(sub.rows(), &[vec![2.0], vec![0.0]]);
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
