//! # mlrl-rtl — RTL substrate for ML-resilient logic locking
//!
//! This crate provides the register-transfer-level foundation of the
//! DAC'22 *"Designing ML-Resilient Locking at Register-Transfer Level"*
//! reproduction:
//!
//! - an arena-based RTL intermediate representation ([`ast`]) in which
//!   locking transformations are O(1) and undoable,
//! - a Verilog-subset [lexer] and [parser] plus a
//!   round-tripping [emitter](emit) (the paper uses Pyverilog; we ship our
//!   own front end),
//! - an RTL [simulator](sim) used to verify that locking preserves function
//!   under the correct key and corrupts it under wrong keys,
//! - seeded [benchmark design generators](bench_designs) standing in for the
//!   paper's evaluation set (DES3 … I2C_SL, N_2046, N_1023),
//! - deterministic traversal and operation-census utilities ([`visit`])
//!   that the locking algorithms and the attack build on.
//!
//! ## Quick example
//!
//! ```
//! use mlrl_rtl::{bench_designs, visit};
//!
//! let spec = bench_designs::benchmark_by_name("FIR").expect("known benchmark");
//! let module = bench_designs::generate(&spec, 42);
//! let census = visit::op_census(&module);
//! assert_eq!(census[&mlrl_rtl::op::BinaryOp::Mul], 32);
//! let verilog = mlrl_rtl::emit::emit_verilog(&module)?;
//! let reparsed = mlrl_rtl::parser::parse_verilog(&verilog)?;
//! assert_eq!(visit::op_census(&reparsed), census);
//! # Ok::<(), mlrl_rtl::error::RtlError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod bench_designs;
pub mod emit;
pub mod equiv;
pub mod error;
pub mod hier;
pub mod lexer;
pub mod op;
pub mod parser;
pub mod sim;
pub mod stats;
pub mod tape;
pub mod transform;
pub mod visit;

pub use ast::{Expr, ExprId, Module};
pub use error::{Result, RtlError};
pub use op::{BinaryOp, UnaryOp};
