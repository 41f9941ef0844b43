//! Single-thread campaign benchmark for `mlrl`.
//!
//! Three workloads (see [`workload`]) run in-process on one engine worker
//! thread. The untraced run ([`timed`]) gives the end-to-end metrics; the
//! traced run ([`traced`]) walks every cell through the layers' public
//! entry points ([`walk`]) and gives the per-layer metrics. See
//! `README.md` next to this crate for the metric glossary.

pub mod heap;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod walk;
pub mod workload;
