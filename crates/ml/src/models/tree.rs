//! CART decision tree with Gini impurity.
//!
//! A fit works on the distinct rows of the training set with per-class
//! counts rather than on individual rows: SnapShot training sets repeat a
//! handful of feature vectors thousands of times, and a split depends
//! only on how many rows of each class fall on each side. Random forests
//! pass their bootstrap samples in the same form, without copying rows.

use crate::dataset::Dataset;

use super::Classifier;

/// Node of a fitted tree.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// rows with `row[feature] <= threshold`
        left: usize,
        right: usize,
    },
}

/// Axis-aligned CART decision tree (Gini impurity, binary splits).
///
/// The workhorse of the SnapShot attack in this reproduction: one-hot
/// operator-code features give clean axis-aligned structure a tree captures
/// exactly.
///
/// # Examples
///
/// ```
/// use mlrl_ml::dataset::Dataset;
/// use mlrl_ml::models::{Classifier, DecisionTree};
///
/// let ds = Dataset::from_rows(
///     vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.0, 0.9], vec![0.9, 0.1]],
///     vec![0, 1, 0, 1],
/// )?;
/// let mut tree = DecisionTree::new(4, 1);
/// tree.fit(&ds);
/// assert_eq!(tree.predict(&[0.0, 1.0]), 0);
/// assert_eq!(tree.predict(&[1.0, 0.0]), 1);
/// # Ok::<(), mlrl_ml::dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTree {
    max_depth: usize,
    min_samples_split: usize,
    nodes: Vec<Node>,
    /// Restrict candidate features (used by random forests); `None` = all.
    feature_subset: Option<Vec<usize>>,
}

impl DecisionTree {
    /// Creates an untrained tree.
    pub fn new(max_depth: usize, min_samples_split: usize) -> Self {
        Self {
            max_depth,
            min_samples_split: min_samples_split.max(1),
            nodes: Vec::new(),
            feature_subset: None,
        }
    }

    /// Reasonable defaults for locality datasets.
    pub fn with_defaults() -> Self {
        Self::new(12, 2)
    }

    /// Restricts splits to `features` (random-forest support).
    pub(crate) fn with_feature_subset(mut self, features: Vec<usize>) -> Self {
        self.feature_subset = Some(features);
        self
    }

    /// Fits the tree to distinct rows with label counts: `rows[g]` is a
    /// row of `data`, occurring `counts[g * n_classes + c]` times with
    /// label `c`. Equivalent to fitting on the dataset that repeats every
    /// row that often, in any order.
    pub(crate) fn fit_counts(&mut self, data: &Dataset, rows: &[usize], counts: &[usize]) {
        self.nodes.clear();
        let groups = Groups {
            data,
            rows,
            counts,
            n_classes: data.n_classes(),
        };
        let present: Vec<usize> = (0..rows.len())
            .filter(|&g| groups.counts(g).iter().any(|&c| c > 0))
            .collect();
        self.build(&groups, &present, 0);
    }

    fn build(&mut self, groups: &Groups, node: &[usize], depth: usize) -> usize {
        let mut class_counts = vec![0usize; groups.n_classes];
        for &g in node {
            for (total, c) in class_counts.iter_mut().zip(groups.counts(g)) {
                *total += c;
            }
        }
        let total: usize = class_counts.iter().sum();
        let majority = class_counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let pure = class_counts.iter().filter(|&&c| c > 0).count() == 1;
        let done = depth >= self.max_depth || total < self.min_samples_split || pure;
        if done {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }
        match best_split(groups, node, &class_counts, self.feature_subset.as_deref()) {
            None => {
                self.nodes.push(Node::Leaf { class: majority });
                self.nodes.len() - 1
            }
            Some((feature, threshold)) => {
                let (li, ri): (Vec<usize>, Vec<usize>) = node
                    .iter()
                    .partition(|&&g| groups.value(g, feature) <= threshold);
                if li.is_empty() || ri.is_empty() {
                    self.nodes.push(Node::Leaf { class: majority });
                    return self.nodes.len() - 1;
                }
                // Reserve the split slot before recursing.
                self.nodes.push(Node::Leaf { class: majority });
                let slot = self.nodes.len() - 1;
                let left = self.build(groups, &li, depth + 1);
                let right = self.build(groups, &ri, depth + 1);
                self.nodes[slot] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                slot
            }
        }
    }
}

/// The training set as distinct rows with per-class counts.
struct Groups<'a> {
    data: &'a Dataset,
    rows: &'a [usize],
    counts: &'a [usize],
    n_classes: usize,
}

impl Groups<'_> {
    fn value(&self, g: usize, feature: usize) -> f64 {
        self.data.row(self.rows[g])[feature]
    }

    fn counts(&self, g: usize) -> &[usize] {
        &self.counts[g * self.n_classes..(g + 1) * self.n_classes]
    }
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

/// Finds the `(feature, threshold)` split minimizing weighted Gini, or
/// `None` if no split improves purity.
///
/// Per feature, the node's distinct rows are sorted by value and the
/// sweep adds each row's class counts to the left side. Values that
/// compare `==` (so `-0.0` and `0.0`) form one run, and only the
/// boundaries between runs are candidate thresholds. At each boundary the
/// left and right counts are the integers a sweep over the node's
/// individual rows would reach, so the Gini values and the chosen split
/// are the same. The midpoint does not depend on which zero ends a run:
/// `±0 + v` is `v` for the nonzero neighbour `v`.
fn best_split(
    groups: &Groups,
    node: &[usize],
    parent_counts: &[usize],
    feature_subset: Option<&[usize]>,
) -> Option<(usize, f64)> {
    let total: usize = parent_counts.iter().sum();
    let parent_gini = gini(parent_counts, total);
    let mut best: Option<(f64, usize, f64)> = None;

    let all_features: Vec<usize> = (0..groups.data.n_features()).collect();
    let features = feature_subset.unwrap_or(&all_features);

    let mut sorted = node.to_vec();
    let mut left_counts = vec![0usize; groups.n_classes];
    let mut right_counts = vec![0usize; groups.n_classes];
    for &feature in features {
        sorted.sort_by(|&a, &b| {
            groups
                .value(a, feature)
                .partial_cmp(&groups.value(b, feature))
                .expect("finite features")
        });
        left_counts.fill(0);
        let mut left_n = 0;
        for w in 0..sorted.len().saturating_sub(1) {
            for (l, c) in left_counts.iter_mut().zip(groups.counts(sorted[w])) {
                *l += c;
                left_n += c;
            }
            let cur = groups.value(sorted[w], feature);
            let next = groups.value(sorted[w + 1], feature);
            if cur == next {
                continue;
            }
            let right_n = total - left_n;
            for ((r, p), l) in right_counts.iter_mut().zip(parent_counts).zip(&left_counts) {
                *r = p - l;
            }
            let weighted = (left_n as f64 * gini(&left_counts, left_n)
                + right_n as f64 * gini(&right_counts, right_n))
                / total as f64;
            if weighted + 1e-12 < parent_gini && best.map(|(b, _, _)| weighted < b).unwrap_or(true)
            {
                best = Some((weighted, feature, (cur + next) / 2.0));
            }
        }
    }
    best.map(|(_, f, t)| (f, t))
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        let (group_of, rows) = data.distinct_rows();
        let n_classes = data.n_classes();
        let mut counts = vec![0usize; rows.len() * n_classes];
        for (i, &g) in group_of.iter().enumerate() {
            counts[g * n_classes + data.label(i)] += 1;
        }
        self.fit_counts(data, &rows, &counts);
    }

    fn predict(&self, row: &[f64]) -> usize {
        assert!(!self.nodes.is_empty(), "predict called before fit");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "decision-tree"
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
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&train);
        assert!(accuracy(&tree, &test) > 0.95, "tree must capture XOR");
    }

    #[test]
    fn separates_blobs() {
        let train = blobs(200, 3);
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&train);
        assert!(accuracy(&tree, &blobs(100, 4)) > 0.95);
    }

    #[test]
    fn depth_zero_is_majority() {
        let train = categorical(100, 0.0, 5);
        let mut tree = DecisionTree::new(0, 2);
        tree.fit(&train);
        let maj = train.majority_class();
        for i in 0..train.len() {
            assert_eq!(tree.predict(train.row(i)), maj);
        }
    }

    #[test]
    fn pure_node_stops_early() {
        let ds = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]], vec![1, 1, 1]).unwrap();
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&ds);
        assert_eq!(tree.nodes.len(), 1, "pure data needs a single leaf");
        assert_eq!(tree.predict(&[5.0]), 1);
    }

    #[test]
    fn learns_noisy_categorical_majority_structure() {
        let train = categorical(600, 0.1, 7);
        let test = categorical(300, 0.0, 8);
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&train);
        assert!(accuracy(&tree, &test) > 0.95);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let ds = Dataset::from_rows(
            vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]],
            vec![0, 1, 0, 1],
        )
        .unwrap();
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&ds);
        assert_eq!(
            tree.nodes.len(),
            1,
            "no split possible on constant features"
        );
    }
}
