//! # mlrl-ml — self-contained ML stack for the SnapShot-RTL attack
//!
//! The paper trains its RTL-adapted SnapShot attack with auto-sklearn \[13\],
//! a Python auto-ml library. This crate is the from-scratch Rust
//! substitution (DESIGN.md, substitution 2): datasets and one-hot encoding
//! ([`dataset`]), stratified k-fold cross-validation ([`split`]),
//! five classifier families plus a majority baseline ([`models`]), and a
//! deterministic auto-ml model search ([`automl`]).
//!
//! ## Quick example
//!
//! ```
//! use mlrl_ml::automl::{auto_fit, AutoMlConfig};
//! use mlrl_ml::dataset::Dataset;
//!
//! // Learn y = x0 on a trivial indicator problem.
//! let x: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 2) as f64]).collect();
//! let y: Vec<usize> = (0..40).map(|i| i % 2).collect();
//! let train = Dataset::from_rows(x, y)?;
//! let outcome = auto_fit(&train, &AutoMlConfig::default());
//! assert_eq!(outcome.model.predict(&[0.0]), 0);
//! # Ok::<(), mlrl_ml::dataset::DatasetError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod automl;
pub mod dataset;
pub mod models;
pub mod split;

pub use automl::{auto_fit, AutoMlConfig, AutoMlOutcome};
pub use dataset::{Dataset, OneHotEncoder};
pub use models::Classifier;
