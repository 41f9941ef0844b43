//! # mlrl-locking — ASSURE locking and the ERA/HRA ML-resilient algorithms
//!
//! The core contribution of the DAC'22 paper *"Designing ML-Resilient
//! Locking at Register-Transfer Level"*:
//!
//! - [`pairs`] — locking-pair tables: the involutive fix of §3.2 and the
//!   original (leaky) ASSURE pairing,
//! - [`key`] — locking keys with per-bit provenance,
//! - [`assure`] — ASSURE operation/branch/constant obfuscation with serial
//!   and random selection (§2.3),
//! - [`odt`] — the Operation Distribution Table (§4),
//! - [`metric`] — the modified-Euclidean learning-resilience metric, global
//!   and restricted variants (§4.1, Alg. 2),
//! - [`lock_step`] — the shared `Lock` step (Alg. 1) with exact undo,
//! - [`era`] — the Exact ML-Resilient Algorithm (Alg. 3),
//! - [`hra`] — the Heuristic ML-Resilient Algorithm (Alg. 4) and the
//!   Greedy variant (§4.4),
//! - [`scheme`] — the one entry point: [`lock`] a module under a
//!   [`LockScheme`] with a budget from [`key_budget`].
//!
//! ## Quick example
//!
//! ```
//! use mlrl_locking::{lock, LockScheme};
//! use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
//!
//! let spec = benchmark_by_name("FIR").expect("known benchmark");
//! let mut module = generate(&spec, 42);
//! let outcome = lock(&mut module, LockScheme::Assure, 16, 7)?;
//! assert_eq!(outcome.key.len(), 16);
//! assert_eq!(module.key_width(), 16);
//! # Ok::<(), mlrl_locking::error::LockError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assure;
pub mod corruptibility;
pub mod era;
pub mod error;
pub mod hra;
pub mod key;
pub mod lock_step;
pub mod metric;
pub mod odt;
pub mod pairs;
pub mod report;
pub mod scheme;

pub use error::{LockError, Result};
pub use key::{Key, KeyBitKind};
pub use odt::Odt;
pub use pairs::PairTable;
pub use scheme::{key_budget, lock, LockOutcome, LockScheme};
