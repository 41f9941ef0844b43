//! Random-simulation equivalence checking between an RTL module and a
//! gate-level netlist (and between two netlists).
//!
//! Complements `mlrl_rtl::equiv` one level down: after lowering (or after
//! gate-level locking with the correct key installed) the two views must
//! agree on every output for every stimulus. Random vectors do not prove
//! equivalence, but across hundreds of 64-bit samples a lowering bug has
//! vanishing odds of hiding.
//!
//! Both sides run one stimulus table through their simulators' `drive`,
//! and the output tables are compared row by row. The gate simulator's
//! width is picked per call by [`pick_width`] from the sample count (a
//! walk costs `W` word-ops per gate whether or not the lanes are full, so
//! small probes stay narrow). The table is drawn sample-major — all ports
//! of a sample before the next sample — so the RNG sequence, and
//! therefore every canonical result, is identical at every width.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlrl_rtl::ast::{Module, PortDir};
use mlrl_rtl::sim::Simulator;

use crate::error::{NetlistError, Result};
use crate::ir::Netlist;
use crate::sim::{pick_width, NetlistSimulator};

/// Outcome of a random-simulation cross-level check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossCheck {
    /// Number of stimulus vectors applied.
    pub samples: usize,
    /// Number of vectors on which some output diverged.
    pub mismatches: usize,
    /// First diverging output port, if any.
    pub first_mismatch: Option<String>,
}

impl CrossCheck {
    /// Whether every sample agreed on every output.
    pub fn is_equivalent(&self) -> bool {
        self.mismatches == 0
    }
}

/// Runs `samples` random vectors through an RTL module and a netlist and
/// compares all outputs. Both sides receive the same `key`. Sequential
/// designs are clocked `ticks` edges per vector (0 = purely combinational
/// settle).
///
/// # Errors
///
/// Propagates construction and stimulus errors from either simulator;
/// returns [`NetlistError::Lower`] if the port lists disagree.
pub fn check_module_vs_netlist(
    module: &Module,
    netlist: &Netlist,
    key: &[bool],
    samples: usize,
    ticks: usize,
    seed: u64,
) -> Result<CrossCheck> {
    match pick_width(if ticks == 0 { samples } else { 0 }) {
        4 => check_module_vs_netlist_w::<4>(module, netlist, key, samples, ticks, seed),
        _ => check_module_vs_netlist_w::<1>(module, netlist, key, samples, ticks, seed),
    }
}

/// Width-pinned body of [`check_module_vs_netlist`]; results are
/// width-independent.
fn check_module_vs_netlist_w<const W: usize>(
    module: &Module,
    netlist: &Netlist,
    key: &[bool],
    samples: usize,
    ticks: usize,
    seed: u64,
) -> Result<CrossCheck> {
    for p in module.ports() {
        if netlist.port(&p.name).is_none() {
            return Err(NetlistError::Lower(format!(
                "netlist is missing port `{}`",
                p.name
            )));
        }
    }
    let lower = |e: mlrl_rtl::RtlError| NetlistError::Lower(e.to_string());
    let mut rtl = Simulator::new(module).map_err(lower)?;
    let mut gate = NetlistSimulator::<W>::with_width(netlist)?;
    rtl.set_key(key).map_err(lower)?;
    gate.set_key(key)?;

    let ports = |dir| module.ports().iter().filter(move |p| p.dir == dir);
    let inputs: Vec<&str> = ports(PortDir::Input).map(|p| p.name.as_str()).collect();
    let outputs: Vec<&str> = ports(PortDir::Output).map(|p| p.name.as_str()).collect();
    let stimulus = draw(inputs.len(), samples, seed);
    // The RTL side is one lane, so its registers run the rows as one
    // trace. The gate side takes every row on its own lane when settling;
    // clocked, it takes one row per call so its state follows the trace.
    let per_call = if ticks == 0 { samples.max(1) } else { 1 };
    let mut gate_reads = Vec::with_capacity(samples * outputs.len());
    for rows in stimulus.chunks(per_call) {
        gate_reads.extend(gate.drive(&inputs, rows, &outputs, ticks)?);
    }
    let rtl_reads = rtl
        .drive(&inputs, &stimulus, &outputs, ticks)
        .map_err(lower)?;
    Ok(compare(samples, &outputs, &rtl_reads, &gate_reads))
}

/// `samples` random rows of `ports` values, drawn sample-major (all ports
/// of a sample before the next sample), so the stream is the same at
/// every simulator width. Each simulator masks a value to its port width.
fn draw(ports: usize, samples: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..samples)
        .map(|_| (0..ports).map(|_| rng.gen()).collect())
        .collect()
}

/// Counts the rows on which two row-major output tables differ.
fn compare(samples: usize, outputs: &[&str], left: &[u64], right: &[u64]) -> CrossCheck {
    let n = outputs.len();
    let differs = |row: usize| (0..n).find(|&i| left[row * n + i] != right[row * n + i]);
    CrossCheck {
        samples,
        mismatches: (0..samples).filter(|&row| differs(row).is_some()).count(),
        first_mismatch: (0..samples)
            .find_map(differs)
            .map(|i| outputs[i].to_owned()),
    }
}

/// Runs `samples` random vectors through two netlists with (possibly
/// different) keys and compares all outputs. Used to verify that gate-level
/// locking preserves function under the correct key and corrupts it under
/// wrong keys.
///
/// # Errors
///
/// Propagates simulator errors; returns [`NetlistError::Lower`] if the port
/// lists disagree.
pub fn check_netlists(
    a: &Netlist,
    b: &Netlist,
    key_a: &[bool],
    key_b: &[bool],
    samples: usize,
    seed: u64,
) -> Result<CrossCheck> {
    match pick_width(samples) {
        4 => check_netlists_w::<4>(a, b, key_a, key_b, samples, seed),
        _ => check_netlists_w::<1>(a, b, key_a, key_b, samples, seed),
    }
}

/// Width-pinned body of [`check_netlists`]; results are width-independent.
fn check_netlists_w<const W: usize>(
    a: &Netlist,
    b: &Netlist,
    key_a: &[bool],
    key_b: &[bool],
    samples: usize,
    seed: u64,
) -> Result<CrossCheck> {
    for p in a.outputs() {
        if b.port(&p.name).is_none() {
            return Err(NetlistError::Lower(format!(
                "second netlist missing `{}`",
                p.name
            )));
        }
    }
    let mut sa = NetlistSimulator::<W>::with_width(a)?;
    let mut sb = NetlistSimulator::<W>::with_width(b)?;
    sa.set_key(key_a)?;
    sb.set_key(key_b)?;
    let inputs: Vec<&str> = a.inputs().iter().map(|p| p.name.as_str()).collect();
    let outputs: Vec<&str> = a.outputs().iter().map(|p| p.name.as_str()).collect();
    let stimulus = draw(inputs.len(), samples, seed);
    let left = sa.drive(&inputs, &stimulus, &outputs, 0)?;
    let right = sb.drive(&inputs, &stimulus, &outputs, 0)?;
    Ok(compare(samples, &outputs, &left, &right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use mlrl_rtl::parser::parse_verilog;

    #[test]
    fn lowered_module_is_equivalent() {
        let m = parse_verilog(
            "module t(a, b, y);\n input [15:0] a, b;\n output [15:0] y;\n assign y = (a * b) ^ (a >> 3);\nendmodule",
        )
        .unwrap();
        let n = lower_module(&m).unwrap();
        let r = check_module_vs_netlist(&m, &n, &[], 200, 0, 7).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
        assert_eq!(r.samples, 200);
    }

    #[test]
    fn sequential_design_is_equivalent_across_ticks() {
        let m = parse_verilog(
            "module t(clk, d, q);\n input clk;\n input [7:0] d;\n output [7:0] q;\n reg [7:0] r;\n assign q = r;\n always @(posedge clk) begin\n r <= d + r;\n end\nendmodule",
        )
        .unwrap();
        let n = lower_module(&m).unwrap();
        let r = check_module_vs_netlist(&m, &n, &[], 20, 3, 11).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn detects_seeded_mismatch() {
        let m = parse_verilog(
            "module t(a, y);\n input [7:0] a;\n output [7:0] y;\n assign y = a + 1;\nendmodule",
        )
        .unwrap();
        let wrong = parse_verilog(
            "module t(a, y);\n input [7:0] a;\n output [7:0] y;\n assign y = a + 2;\nendmodule",
        )
        .unwrap();
        let n = lower_module(&wrong).unwrap();
        let r = check_module_vs_netlist(&m, &n, &[], 50, 0, 3).unwrap();
        assert!(!r.is_equivalent());
        assert_eq!(r.first_mismatch.as_deref(), Some("y"));
        assert_eq!(r.mismatches, 50);
    }

    #[test]
    fn widths_agree_on_results_and_rng_stream() {
        // Same seed, same samples, every width: identical CrossCheck — the
        // sample-major draw makes the chunk width invisible to the RNG. 300
        // samples make the public dispatchers pick W=4.
        assert_eq!(pick_width(300), 4);
        let m = parse_verilog(
            "module t(a, b, y);\n input [15:0] a, b;\n output [15:0] y;\n assign y = (a * b) ^ (a >> 3);\nendmodule",
        )
        .unwrap();
        let n = lower_module(&m).unwrap();
        let w1 = check_module_vs_netlist_w::<1>(&m, &n, &[], 300, 0, 7).unwrap();
        let w4 = check_module_vs_netlist_w::<4>(&m, &n, &[], 300, 0, 7).unwrap();
        let w8 = check_module_vs_netlist_w::<8>(&m, &n, &[], 300, 0, 7).unwrap();
        assert_eq!(w1, w4);
        assert_eq!(w1, w8);
        assert_eq!(w1, check_module_vs_netlist(&m, &n, &[], 300, 0, 7).unwrap());

        let wrong = parse_verilog(
            "module t(a, b, y);\n input [15:0] a, b;\n output [15:0] y;\n assign y = (a * b) ^ (a >> 2);\nendmodule",
        )
        .unwrap();
        let nw = lower_module(&wrong).unwrap();
        let c1 = check_netlists_w::<1>(&n, &nw, &[], &[], 300, 13).unwrap();
        let c4 = check_netlists_w::<4>(&n, &nw, &[], &[], 300, 13).unwrap();
        let c8 = check_netlists_w::<8>(&n, &nw, &[], &[], 300, 13).unwrap();
        assert_eq!(c1, c4);
        assert_eq!(c1, c8);
        assert_eq!(c1, check_netlists(&n, &nw, &[], &[], 300, 13).unwrap());
        assert!(!c1.is_equivalent());
    }
}
