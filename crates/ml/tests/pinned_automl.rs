//! Pinned auto-ML outputs: FNV-1a digests over a fixed grid of training
//! sets. Per candidate, the digest covers its cross-validation score bits
//! (materialised folds scored with `models::accuracy`) and the predictions
//! of the model refit on the whole set. Per search, two digests split the
//! `AutoMlOutcome`. The result digest covers what the search returns:
//! winner, CV accuracy bits, Bayes bound, distinct-row count and the refit
//! predictions. The trace digest covers how it got there: the leaderboard
//! of fully scored candidates and the pruned count. The candidate digests
//! were captured with the per-row CV scoring and the dense allocating
//! model kernels that preceded the duplicate-aware ones; any change to a
//! kernel's arithmetic, RNG use or tie-breaking moves them. The result
//! digests were captured with the search-wide Bayes-bound exit, before the
//! per-fold exit; an exact exit leaves them alone and moves only traces.

use mlrl_ml::automl::{auto_fit, AutoMlConfig, AutoMlOutcome, ModelFamily};
use mlrl_ml::dataset::Dataset;
use mlrl_ml::models::{
    accuracy, AdaBoost, Classifier, DecisionTree, GaussianNaiveBayes, KNearestNeighbors,
    LogisticRegression, MajorityClass, Mlp, RandomForest,
};
use mlrl_ml::split::StratifiedKFold;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }
}

/// SnapShot-style localities: a pair of operator codes, one-hot encoded
/// (width `a + b`). Each pair has a favourite label that a row carries
/// unless `noise` redraws it at random. With `signed_zeros`, some zero
/// entries are `-0.0`.
fn one_hot_pairs(
    seed: u64,
    (a, b): (usize, usize),
    classes: usize,
    noise: f64,
    n: usize,
    signed_zeros: bool,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let favourite: Vec<usize> = (0..a * b).map(|_| rng.gen_range(0..classes)).collect();
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let (c1, c2) = (rng.gen_range(0..a), rng.gen_range(0..b));
        let mut row: Vec<f64> = (0..a + b)
            .map(|_| {
                if signed_zeros && rng.gen_bool(0.5) {
                    -0.0
                } else {
                    0.0
                }
            })
            .collect();
        row[c1] = 1.0;
        row[a + c2] = 1.0;
        x.push(row);
        y.push(if rng.gen_bool(noise) {
            rng.gen_range(0..classes)
        } else {
            favourite[c1 * b + c2]
        });
    }
    Dataset::from_rows(x, y).unwrap()
}

/// Rows with several indicators set; the label is the set count modulo
/// `classes`, redrawn at random with probability `noise`.
fn multi_hot(seed: u64, width: usize, classes: usize, noise: f64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..width)
            .map(|_| f64::from(u8::from(rng.gen_bool(0.3))))
            .collect();
        let set = row.iter().filter(|v| **v != 0.0).count();
        x.push(row);
        y.push(if rng.gen_bool(noise) {
            rng.gen_range(0..classes)
        } else {
            set % classes
        });
    }
    Dataset::from_rows(x, y).unwrap()
}

/// Continuous XOR with jittered corners and `noise` label flips.
fn xor(seed: u64, noise: f64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let (p, q) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
        x.push(vec![
            f64::from(u8::from(p)) + rng.gen_range(-0.3..0.3),
            f64::from(u8::from(q)) + rng.gen_range(-0.3..0.3),
        ]);
        let label = usize::from(p ^ q);
        y.push(if rng.gen_bool(noise) {
            1 - label
        } else {
            label
        });
    }
    Dataset::from_rows(x, y).unwrap()
}

/// Overlapping 2-D blobs, one per class.
fn blobs(seed: u64, classes: usize, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        let centre = class as f64 * 1.5;
        x.push(vec![
            centre + rng.gen_range(-1.2..1.2),
            -centre + rng.gen_range(-1.2..1.2),
        ]);
        y.push(class);
    }
    Dataset::from_rows(x, y).unwrap()
}

/// `(name, training set, search seed)`.
fn fixtures() -> Vec<(&'static str, Dataset, u64)> {
    vec![
        ("pairs-2x2", one_hot_pairs(1, (2, 2), 2, 0.5, 180, false), 1),
        ("pairs-4x5", one_hot_pairs(2, (4, 5), 2, 0.3, 200, false), 2),
        (
            "pairs-4x5-3c",
            one_hot_pairs(3, (4, 5), 3, 0.4, 150, false),
            3,
        ),
        ("pairs-7x8", one_hot_pairs(4, (7, 8), 2, 0.6, 160, false), 4),
        (
            "pairs-11x11",
            one_hot_pairs(5, (11, 11), 2, 0.5, 140, false),
            5,
        ),
        (
            "pairs-3x3-signed",
            one_hot_pairs(6, (3, 3), 2, 0.4, 150, true),
            6,
        ),
        ("multi-hot-8", multi_hot(7, 8, 2, 0.2, 160), 7),
        ("multi-hot-12-3c", multi_hot(8, 12, 3, 0.2, 150), 8),
        ("xor", xor(9, 0.15, 160), 9),
        ("blobs-3c", blobs(10, 3, 150), 10),
    ]
}

/// The search's candidate grid, in its order.
fn candidates(seed: u64) -> Vec<(&'static str, Box<dyn Classifier>)> {
    vec![
        ("majority", Box::new(MajorityClass::new())),
        ("tree(depth=6)", Box::new(DecisionTree::new(6, 2))),
        ("tree(depth=12)", Box::new(DecisionTree::new(12, 2))),
        (
            "forest(trees=25,depth=10)",
            Box::new(RandomForest::new(25, 10, seed)),
        ),
        ("adaboost(rounds=30)", Box::new(AdaBoost::new(30))),
        ("knn(k=5)", Box::new(KNearestNeighbors::new(5, 3000))),
        ("knn(k=15)", Box::new(KNearestNeighbors::new(15, 3000))),
        ("naive-bayes", Box::new(GaussianNaiveBayes::new())),
        ("mlp(hidden=16)", Box::new(Mlp::new(16, 0.1, 60, seed))),
        (
            "logistic(lr=0.3,epochs=60)",
            Box::new(LogisticRegression::new(0.3, 60, 1e-4, seed)),
        ),
        (
            "logistic(lr=0.1,epochs=120)",
            Box::new(LogisticRegression::new(0.1, 120, 1e-4, seed)),
        ),
    ]
}

/// The training rows plus off-grid probes: halves, negatives, an all-zero
/// row and an all-`-0.0` row.
fn probes(data: &Dataset) -> Vec<Vec<f64>> {
    let width = data.n_features();
    let mut rows = data.rows().to_vec();
    rows.push(vec![0.0; width]);
    rows.push(vec![-0.0; width]);
    rows.push(vec![0.5; width]);
    rows.push(
        (0..width)
            .map(|f| if f % 2 == 0 { -1.0 } else { 2.0 })
            .collect(),
    );
    rows
}

fn digest_predictions(h: &mut Fnv, model: &dyn Classifier, data: &Dataset) {
    for row in probes(data) {
        h.usize(model.predict(&row));
    }
}

/// Cross-validates `model` on materialised folds the way the search did
/// before distinct-row scoring, then refits it on all of `data`.
fn candidate_digest(model: &mut dyn Classifier, data: &Dataset, seed: u64) -> u64 {
    let folds = 3.min(data.len());
    let kfold = StratifiedKFold::new(data, folds, seed);
    let mut h = Fnv::new();
    for fold in 0..folds {
        let train_idx: Vec<usize> = (0..folds)
            .filter(|&other| other != fold)
            .flat_map(|other| kfold.validation(other).iter().copied())
            .collect();
        let val = data.subset(kfold.validation(fold));
        model.fit(&data.subset(&train_idx));
        h.f64(accuracy(model, &val));
    }
    model.fit(data);
    digest_predictions(&mut h, model, data);
    h.0
}

/// What the search returns: winner, CV accuracy bits, Bayes bound,
/// distinct-row count and the refit model's predictions.
fn result_digest(outcome: &AutoMlOutcome, data: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.write(outcome.winner.as_bytes());
    h.f64(outcome.cv_accuracy);
    h.f64(outcome.bayes_bound);
    h.usize(outcome.distinct_rows);
    digest_predictions(&mut h, outcome.model.as_ref(), data);
    h.0
}

/// How the search got there: the fully scored candidates (leaderboard)
/// and the pruned count.
fn trace_digest(outcome: &AutoMlOutcome) -> u64 {
    let mut h = Fnv::new();
    for (name, score) in &outcome.leaderboard {
        h.write(name.as_bytes());
        h.f64(*score);
    }
    h.usize(outcome.pruned);
    h.0
}

/// Search configurations run on every fixture: `(label, config)`.
fn searches(seed: u64) -> Vec<(&'static str, AutoMlConfig)> {
    vec![
        (
            "search",
            AutoMlConfig {
                seed,
                ..Default::default()
            },
        ),
        (
            "search-5fold-knn-mlp-logistic",
            AutoMlConfig {
                seed,
                folds: 5,
                families: vec![ModelFamily::Knn, ModelFamily::Mlp, ModelFamily::Logistic],
                ..Default::default()
            },
        ),
    ]
}

/// `(fixture, candidate, digest)`.
const PINNED: &[(&str, &str, u64)] = &[
    ("pairs-2x2", "majority", 0x72670a2eaace2598),
    ("pairs-2x2", "tree(depth=6)", 0x77db9ec2d450ec5d),
    ("pairs-2x2", "tree(depth=12)", 0x77db9ec2d450ec5d),
    ("pairs-2x2", "forest(trees=25,depth=10)", 0x77db9ec2d450ec5d),
    ("pairs-2x2", "adaboost(rounds=30)", 0x77db9ec2d450ec5d),
    ("pairs-2x2", "knn(k=5)", 0xf57be18f1c663380),
    ("pairs-2x2", "knn(k=15)", 0xfc32627ab098c8ce),
    ("pairs-2x2", "naive-bayes", 0x77db9ec2d450ec5d),
    ("pairs-2x2", "mlp(hidden=16)", 0x31617c48eb0510bd),
    (
        "pairs-2x2",
        "logistic(lr=0.3,epochs=60)",
        0x89b6ecdbb70c1ad7,
    ),
    (
        "pairs-2x2",
        "logistic(lr=0.1,epochs=120)",
        0x77db9ec2d450ec5d,
    ),
    ("pairs-4x5", "majority", 0x0c41ad507e55aeb0),
    ("pairs-4x5", "tree(depth=6)", 0x68a49c000ae7b2ae),
    ("pairs-4x5", "tree(depth=12)", 0x74ef682727cdf9a3),
    ("pairs-4x5", "forest(trees=25,depth=10)", 0x1f2f9dfcf0c2bb9d),
    ("pairs-4x5", "adaboost(rounds=30)", 0x4bd6ae3b0783b811),
    ("pairs-4x5", "knn(k=5)", 0x74ef682727cdf9a3),
    ("pairs-4x5", "knn(k=15)", 0xcb00ce5e497df10c),
    ("pairs-4x5", "naive-bayes", 0x51dcae0188bb35c8),
    ("pairs-4x5", "mlp(hidden=16)", 0x8fb402d7edacde0f),
    (
        "pairs-4x5",
        "logistic(lr=0.3,epochs=60)",
        0xba9d41068493faaf,
    ),
    (
        "pairs-4x5",
        "logistic(lr=0.1,epochs=120)",
        0x4bd6ae3b0783b811,
    ),
    ("pairs-4x5-3c", "majority", 0xda898c13317ed986),
    ("pairs-4x5-3c", "tree(depth=6)", 0x47eefba5300337b7),
    ("pairs-4x5-3c", "tree(depth=12)", 0x47eefba5300337b7),
    (
        "pairs-4x5-3c",
        "forest(trees=25,depth=10)",
        0x198de3904023c997,
    ),
    ("pairs-4x5-3c", "adaboost(rounds=30)", 0x5863380a424da53b),
    ("pairs-4x5-3c", "knn(k=5)", 0x81adbf9320c875a7),
    ("pairs-4x5-3c", "knn(k=15)", 0x2122f2ed3393ebf2),
    ("pairs-4x5-3c", "naive-bayes", 0x45f5061988dae4a2),
    ("pairs-4x5-3c", "mlp(hidden=16)", 0x4c01b2dea0561396),
    (
        "pairs-4x5-3c",
        "logistic(lr=0.3,epochs=60)",
        0xe1e0e2663aed5e7c,
    ),
    (
        "pairs-4x5-3c",
        "logistic(lr=0.1,epochs=120)",
        0x2d2fe07f2d794d8b,
    ),
    ("pairs-7x8", "majority", 0xebc77c865fe91c34),
    ("pairs-7x8", "tree(depth=6)", 0xb6d4fb364797cb24),
    ("pairs-7x8", "tree(depth=12)", 0xe0568ff5925aa1c0),
    ("pairs-7x8", "forest(trees=25,depth=10)", 0xfd2dae1b0cde65f6),
    ("pairs-7x8", "adaboost(rounds=30)", 0x5e5b120b3f2ca13f),
    ("pairs-7x8", "knn(k=5)", 0x47b050f94b02d443),
    ("pairs-7x8", "knn(k=15)", 0x2d027ec25258e9a9),
    ("pairs-7x8", "naive-bayes", 0x8d57e90bae596986),
    ("pairs-7x8", "mlp(hidden=16)", 0x1ecbf24b8f08df5e),
    (
        "pairs-7x8",
        "logistic(lr=0.3,epochs=60)",
        0x89b88e4441b83ba3,
    ),
    (
        "pairs-7x8",
        "logistic(lr=0.1,epochs=120)",
        0xcb816a837aa410d6,
    ),
    ("pairs-11x11", "majority", 0x1406349f9c4da0a2),
    ("pairs-11x11", "tree(depth=6)", 0xe6763edc1c5f0c6e),
    ("pairs-11x11", "tree(depth=12)", 0x15dcada564bf6d53),
    (
        "pairs-11x11",
        "forest(trees=25,depth=10)",
        0xa0f8553fce0aa1f5,
    ),
    ("pairs-11x11", "adaboost(rounds=30)", 0xadcb8774048243cb),
    ("pairs-11x11", "knn(k=5)", 0x2f8d7cecccdf62ce),
    ("pairs-11x11", "knn(k=15)", 0x14bc9d9af227e9e9),
    ("pairs-11x11", "naive-bayes", 0xff14347dc3cdfe70),
    ("pairs-11x11", "mlp(hidden=16)", 0xc2d7f79ee7cf34af),
    (
        "pairs-11x11",
        "logistic(lr=0.3,epochs=60)",
        0x14455b92d66d58a5,
    ),
    (
        "pairs-11x11",
        "logistic(lr=0.1,epochs=120)",
        0x275dce596cf2ab71,
    ),
    ("pairs-3x3-signed", "majority", 0x34e6ad6c97c38fd6),
    ("pairs-3x3-signed", "tree(depth=6)", 0xb1f5fce6613f9b83),
    ("pairs-3x3-signed", "tree(depth=12)", 0xb1f5fce6613f9b83),
    (
        "pairs-3x3-signed",
        "forest(trees=25,depth=10)",
        0x88e1a463bc415522,
    ),
    (
        "pairs-3x3-signed",
        "adaboost(rounds=30)",
        0xeac7043fe806d181,
    ),
    ("pairs-3x3-signed", "knn(k=5)", 0x19ad25433ecc01d5),
    ("pairs-3x3-signed", "knn(k=15)", 0x86282ba7e8629225),
    ("pairs-3x3-signed", "naive-bayes", 0x69dadcba651ffbdf),
    ("pairs-3x3-signed", "mlp(hidden=16)", 0xc0aa55504ef1bfc3),
    (
        "pairs-3x3-signed",
        "logistic(lr=0.3,epochs=60)",
        0xfd531d2c7e559c7e,
    ),
    (
        "pairs-3x3-signed",
        "logistic(lr=0.1,epochs=120)",
        0x58fd2c9b14a2d3bb,
    ),
    ("multi-hot-8", "majority", 0x3dd85f9b59f64fee),
    ("multi-hot-8", "tree(depth=6)", 0x2e58b41fa139cecf),
    ("multi-hot-8", "tree(depth=12)", 0xd6934ee74a7a1ef8),
    (
        "multi-hot-8",
        "forest(trees=25,depth=10)",
        0xf4664cb61e15d3d6,
    ),
    ("multi-hot-8", "adaboost(rounds=30)", 0x355b60ab6b8d4664),
    ("multi-hot-8", "knn(k=5)", 0xbbbf33629af6a81f),
    ("multi-hot-8", "knn(k=15)", 0x4dab8cc56c98f92d),
    ("multi-hot-8", "naive-bayes", 0xf13c2e63ce0d20e5),
    ("multi-hot-8", "mlp(hidden=16)", 0xe410ed1ba4790e5c),
    (
        "multi-hot-8",
        "logistic(lr=0.3,epochs=60)",
        0xf96876c5dde9528f,
    ),
    (
        "multi-hot-8",
        "logistic(lr=0.1,epochs=120)",
        0x046641a4a156e29b,
    ),
    ("multi-hot-12-3c", "majority", 0x5d755adaf7496c63),
    ("multi-hot-12-3c", "tree(depth=6)", 0xcac4113db67e61ff),
    ("multi-hot-12-3c", "tree(depth=12)", 0x999924d7edc7f398),
    (
        "multi-hot-12-3c",
        "forest(trees=25,depth=10)",
        0x8706c53b972be426,
    ),
    ("multi-hot-12-3c", "adaboost(rounds=30)", 0xeb82b11e39bf3e8f),
    ("multi-hot-12-3c", "knn(k=5)", 0xe5589648dbb69012),
    ("multi-hot-12-3c", "knn(k=15)", 0x72f1365daccec37b),
    ("multi-hot-12-3c", "naive-bayes", 0x7c01cc113f838190),
    ("multi-hot-12-3c", "mlp(hidden=16)", 0x705a173fb53a11b4),
    (
        "multi-hot-12-3c",
        "logistic(lr=0.3,epochs=60)",
        0x10bec5414aa4886c,
    ),
    (
        "multi-hot-12-3c",
        "logistic(lr=0.1,epochs=120)",
        0x958359e92818ddc0,
    ),
    ("xor", "majority", 0xe287970b9c420c88),
    ("xor", "tree(depth=6)", 0x838fda3a4b035c51),
    ("xor", "tree(depth=12)", 0x278aa8d9de20b865),
    ("xor", "forest(trees=25,depth=10)", 0x2e7670af4dad7cb2),
    ("xor", "adaboost(rounds=30)", 0x7e0ebf81b17415d7),
    ("xor", "knn(k=5)", 0x068409d5cbded127),
    ("xor", "knn(k=15)", 0x202723b140c0e2bf),
    ("xor", "naive-bayes", 0x6f94ae855fb06fcb),
    ("xor", "mlp(hidden=16)", 0x2af471e8d5a585a8),
    ("xor", "logistic(lr=0.3,epochs=60)", 0x154b00833387c632),
    ("xor", "logistic(lr=0.1,epochs=120)", 0xad9a2fc3bd9698d2),
    ("blobs-3c", "majority", 0xec722383d4858fcf),
    ("blobs-3c", "tree(depth=6)", 0x55a880a8977eda56),
    ("blobs-3c", "tree(depth=12)", 0x177930899b735be9),
    ("blobs-3c", "forest(trees=25,depth=10)", 0xbcdbe560b15eef2c),
    ("blobs-3c", "adaboost(rounds=30)", 0x555bdb121c0ff91d),
    ("blobs-3c", "knn(k=5)", 0x5d58d5902a40bb37),
    ("blobs-3c", "knn(k=15)", 0x82a884be0798224b),
    ("blobs-3c", "naive-bayes", 0x2b3877b8d17205b6),
    ("blobs-3c", "mlp(hidden=16)", 0x8aad65cae584052d),
    ("blobs-3c", "logistic(lr=0.3,epochs=60)", 0xefe023923b72281e),
    (
        "blobs-3c",
        "logistic(lr=0.1,epochs=120)",
        0x98641cd448b2d764,
    ),
];

/// `(fixture, search, result digest, trace digest)`.
const PINNED_SEARCHES: &[(&str, &str, u64, u64)] = &[
    (
        "pairs-2x2",
        "search",
        0xc7f9c817cdd8b53a,
        0x28f403d833fb5801,
    ),
    (
        "pairs-2x2",
        "search-5fold-knn-mlp-logistic",
        0xa4aace780fbdc5e3,
        0xca0db0e1db312136,
    ),
    (
        "pairs-4x5",
        "search",
        0xf95a6bcc7ff3a895,
        0x7eb2b5267abf9c48,
    ),
    (
        "pairs-4x5",
        "search-5fold-knn-mlp-logistic",
        0xfa1514a152ef34f0,
        0x864e7cd070df2692,
    ),
    (
        "pairs-4x5-3c",
        "search",
        0x6723687f46793068,
        0x1aca577a8e6804d3,
    ),
    (
        "pairs-4x5-3c",
        "search-5fold-knn-mlp-logistic",
        0x68b496dd2d5a0e7a,
        0x4432996312f54590,
    ),
    (
        "pairs-7x8",
        "search",
        0x7c0fcd6091dcfc01,
        0x9cb13be00e4b738d,
    ),
    (
        "pairs-7x8",
        "search-5fold-knn-mlp-logistic",
        0xd15993c4dd1d434b,
        0x195d5ec426230aa7,
    ),
    (
        "pairs-11x11",
        "search",
        0xcf07062060dda4f8,
        0x097ef8d5a80b9a2a,
    ),
    (
        "pairs-11x11",
        "search-5fold-knn-mlp-logistic",
        0xd725f535d2d29f17,
        0x135f2d8995701a68,
    ),
    (
        "pairs-3x3-signed",
        "search",
        0x5f824d7ede6e461c,
        0xf8641b647b4d11b1,
    ),
    (
        "pairs-3x3-signed",
        "search-5fold-knn-mlp-logistic",
        0x64cb067eb7660f6c,
        0xf846c3c46d82799b,
    ),
    (
        "multi-hot-8",
        "search",
        0x0e9bd2aabb9c8f21,
        0x8d6ff26db9d37dc8,
    ),
    (
        "multi-hot-8",
        "search-5fold-knn-mlp-logistic",
        0xbc12284c3734e119,
        0xf8326ef939c7b84f,
    ),
    (
        "multi-hot-12-3c",
        "search",
        0x88dbb92910bdaad5,
        0xfd4dc1bf2ad1bbc7,
    ),
    (
        "multi-hot-12-3c",
        "search-5fold-knn-mlp-logistic",
        0x0f2ba654728d0ce0,
        0xc401b2117433bb4f,
    ),
    ("xor", "search", 0x1ed4331168696fbe, 0x5b08f2b14bbde5e3),
    (
        "xor",
        "search-5fold-knn-mlp-logistic",
        0xe193ae5b0c6f450a,
        0x7d54611bf188091e,
    ),
    ("blobs-3c", "search", 0x4479a9b4131eaca0, 0xd4f42a24ebf38e70),
    (
        "blobs-3c",
        "search-5fold-knn-mlp-logistic",
        0x3dec88d171d7e839,
        0x00c7afaad44b326b,
    ),
];

#[test]
fn candidates_and_searches_match_the_pinned_digests() {
    let mut got: Vec<(&str, &str, u64)> = Vec::new();
    let mut searched: Vec<(&str, &str, u64, u64)> = Vec::new();
    for (fixture, data, seed) in fixtures() {
        for (name, mut model) in candidates(seed) {
            got.push((fixture, name, candidate_digest(model.as_mut(), &data, seed)));
        }
        for (label, cfg) in searches(seed) {
            let outcome = auto_fit(&data, &cfg);
            searched.push((
                fixture,
                label,
                result_digest(&outcome, &data),
                trace_digest(&outcome),
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(f, c, h)| format!("    (\"{f}\", \"{c}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "pinned digests moved; current table:\n{table}");
    let table: String = searched
        .iter()
        .map(|(f, c, r, t)| format!("    (\"{f}\", \"{c}\", 0x{r:016x}, 0x{t:016x}),\n"))
        .collect();
    let results: Vec<_> = searched.iter().map(|&(f, c, r, _)| (f, c, r)).collect();
    let pinned: Vec<_> = PINNED_SEARCHES
        .iter()
        .map(|&(f, c, r, _)| (f, c, r))
        .collect();
    assert_eq!(
        results, pinned,
        "search results moved; current table:\n{table}"
    );
    assert_eq!(
        searched, PINNED_SEARCHES,
        "search traces moved; current table:\n{table}"
    );
}
