//! # mlrl-sat — SAT substrate and the oracle-guided SAT attack
//!
//! The paper closes by asking whether its learning-resilient locking
//! algorithms resist *oracle-guided* attacks (§5, "Limitations and
//! opportunities"). This crate supplies the machinery to answer that
//! question quantitatively:
//!
//! - [`cnf`] — CNF formulas and a builder with gate-definition helpers,
//! - [`solver`] — a from-scratch CDCL SAT solver (two-watched literals
//!   over a flat clause arena, first-UIP learning, a VSIDS decision heap,
//!   phase saving, restarts),
//! - [`tseitin`] — Tseitin encoding of `mlrl-netlist` circuits: one
//!   levelized encoder stamps out every circuit copy the attack needs,
//! - [`attack`] — the classic SAT attack: iterate distinguishing input
//!   patterns against an oracle until the miter is UNSAT, then extract a
//!   functionally correct key.
//!
//! The headline finding (recorded in EXPERIMENTS.md): ERA/HRA locking —
//! provably ML-resilient at RTL — falls to the SAT attack in a handful of
//! DIPs once lowered to gates, confirming that learning resilience and SAT
//! resistance are orthogonal objectives, exactly as the paper notes when it
//! defers SAT resistance to Karfa et al. \[3\].
//!
//! ## Quick example
//!
//! ```
//! use mlrl_sat::cnf::CnfBuilder;
//! use mlrl_sat::solver::Solver;
//!
//! let mut b = CnfBuilder::new();
//! let x = b.new_var();
//! let y = b.new_var();
//! b.add_clause(&[x.pos(), y.pos()]);
//! b.add_clause(&[x.neg(), y.neg()]);
//! b.add_clause(&[x.pos()]);
//! let result = Solver::from_builder(&b).solve();
//! let model = result.model().expect("satisfiable");
//! assert!(model[x.index()] && !model[y.index()]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod cnf;
pub mod solver;
pub mod tseitin;

pub use attack::{sat_attack, Oracle, SatAttackConfig, SatAttackReport, SimOracle};
pub use cnf::{CnfBuilder, Lit, Var};
pub use solver::{SolveResult, Solver};
