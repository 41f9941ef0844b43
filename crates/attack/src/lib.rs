//! # mlrl-attack — oracle-less ML attacks on RTL locking
//!
//! The attacker side of the DAC'22 reproduction:
//!
//! - [`extract`] — locality extraction `[K[i], C1, C2]` from locked RTL
//!   (the Pyverilog-based extractor of §5, reimplemented on our IR),
//! - [`relock`] — training-set assembly by self-referencing relocking,
//! - [`snapshot`] — the full SnapShot-RTL pipeline (Fig. 2): setup →
//!   extraction → training (auto-ml) → deployment, scored by KPA; its ML
//!   core, scorer and [`AttackReport`] serve every SnapShot and
//!   frequency-table attack at both levels,
//! - [`pair_analysis`] — the §3.2 exact attack on the original (leaky)
//!   ASSURE pairing,
//! - [`observations`] — the §3 / Fig. 4 selection-strategy analysis,
//! - [`freq_table`] — the Bayes-optimal statistical baseline (no ML),
//! - [`kpa_model`] — a closed-form expected-KPA predictor from the ODT,
//! - [`oracle_guided`] — a hill-climbing oracle-guided attack answering
//!   the §5 open question (ERA/HRA do not defend in that threat model),
//! - [`gate_snapshot`] — the original gate-level SnapShot run against
//!   EPIC-style netlist locking, reproducing the Fig. 1 premise that ML
//!   breaks traditional gate-level locking.
//!
//! Every SnapShot-style attack takes a prebuilt training set
//! ([`relock::build_training_set`] or
//! [`gate_snapshot::build_gate_training_set`]): relocking is the expensive
//! half, and one set serves both the auto-ml and the frequency-table
//! attack on the same locked target.
//!
//! ## Threat model (§2.1)
//!
//! Oracle-less: the attacker holds only the locked RTL (assumed perfectly
//! reconstructed), knows the locking algorithm, and knows which inputs are
//! key bits. True keys appear in these APIs *only* to score predictions.
//!
//! ## Quick example
//!
//! ```
//! use mlrl_attack::relock::{build_training_set, RelockConfig};
//! use mlrl_attack::snapshot::snapshot_attack;
//! use mlrl_locking::assure::{lock_operations, AssureConfig};
//! use mlrl_ml::AutoMlConfig;
//! use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
//!
//! let mut m = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
//! let key = lock_operations(&mut m, &AssureConfig::serial(47, 2))?;
//! let training = build_training_set(&m, &RelockConfig { rounds: 10, ..Default::default() });
//! let report = snapshot_attack(&m, &key, &training, &AutoMlConfig::default())
//!     .expect("target has localities");
//! println!("KPA = {:.1}%", report.kpa);
//! # Ok::<(), mlrl_locking::LockError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod extract;
pub mod freq_table;
pub mod gate_snapshot;
pub mod kpa_model;
pub mod observations;
pub mod oracle_guided;
pub mod pair_analysis;
pub mod relock;
pub mod snapshot;

pub use extract::{extract_localities, Locality};
pub use snapshot::{snapshot_attack, AttackReport};
