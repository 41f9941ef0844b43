//! Random-simulation equivalence checking between an RTL module and a
//! gate-level netlist (and between two netlists).
//!
//! Complements `mlrl_rtl::equiv` one level down: after lowering (or after
//! gate-level locking with the correct key installed) the two views must
//! agree on every output for every stimulus. Random vectors do not prove
//! equivalence, but across hundreds of 64-bit samples a lowering bug has
//! vanishing odds of hiding; the SAT substrate (`mlrl-sat`) offers the
//! complete decision procedure.
//!
//! The gate side batches vectors onto simulator lanes. The simulator width
//! is picked per call from [`configured_width`](crate::sim::configured_width) clamped to the sample
//! count (a walk costs `W` word-ops per gate whether or not the lanes are
//! full, so small probes stay narrow). The stimulus stream is drawn
//! sample-major — all ports of a sample before the next sample — so the
//! RNG sequence, and therefore every canonical result, is identical at
//! every width.

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
        8 => check_module_vs_netlist_w::<8>(module, netlist, key, samples, ticks, seed),
        4 => check_module_vs_netlist_w::<4>(module, netlist, key, samples, ticks, seed),
        _ => check_module_vs_netlist_w::<1>(module, netlist, key, samples, ticks, seed),
    }
}

/// Width-pinned body of [`check_module_vs_netlist`]. Public so integration
/// tests can exercise explicit widths; results are width-independent.
#[doc(hidden)]
pub fn check_module_vs_netlist_w<const W: usize>(
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
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rtl = Simulator::new(module).map_err(|e| NetlistError::Lower(e.to_string()))?;
    let mut gate = NetlistSimulator::<W>::with_width(netlist)?;
    rtl.set_key(key)
        .map_err(|e| NetlistError::Lower(e.to_string()))?;
    gate.set_key(key)?;

    let inputs: Vec<(String, u32)> = module
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Input)
        .map(|p| (p.name.clone(), p.width))
        .collect();
    let outputs: Vec<String> = module
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Output)
        .map(|p| p.name.clone())
        .collect();

    let mut mismatches = 0;
    let mut first_mismatch = None;
    if ticks == 0 {
        // Combinational probe: the gate side batches up to 64*W vectors per
        // levelized walk; the RTL side replays the same vectors one by one.
        // The RNG draw order (sample-major, then port) matches the scalar
        // path exactly, so results are identical vector for vector.
        let mut done = 0usize;
        while done < samples {
            let lanes = (samples - done).min(NetlistSimulator::<W>::LANES);
            let mut vectors: Vec<Vec<u64>> = (0..inputs.len())
                .map(|_| Vec::with_capacity(lanes))
                .collect();
            for _ in 0..lanes {
                for (pi, (_, width)) in inputs.iter().enumerate() {
                    let v: u64 = rng.gen();
                    let v = if *width >= 64 {
                        v
                    } else {
                        v & ((1 << width) - 1)
                    };
                    vectors[pi].push(v);
                }
            }
            for (pi, (name, _)) in inputs.iter().enumerate() {
                gate.set_input_batch(name, &vectors[pi])?;
            }
            gate.settle_batch()?;
            #[allow(clippy::needless_range_loop)] // `lane` indexes the inner dim
            for lane in 0..lanes {
                for (pi, (name, _)) in inputs.iter().enumerate() {
                    rtl.set_input(name, vectors[pi][lane])
                        .map_err(|e| NetlistError::Lower(e.to_string()))?;
                }
                rtl.settle()
                    .map_err(|e| NetlistError::Lower(e.to_string()))?;
                let mut bad = false;
                for name in &outputs {
                    let rv = rtl
                        .get(name)
                        .map_err(|e| NetlistError::Lower(e.to_string()))?;
                    let gv = gate.output_lane(name, lane)?;
                    if rv != gv {
                        bad = true;
                        if first_mismatch.is_none() {
                            first_mismatch = Some(name.clone());
                        }
                    }
                }
                if bad {
                    mismatches += 1;
                }
            }
            done += lanes;
        }
    } else {
        // Sequential probe: state carries over from sample to sample, so
        // vectors cannot ride independent lanes; stay scalar.
        for _ in 0..samples {
            for (name, width) in &inputs {
                let v: u64 = rng.gen();
                let v = if *width >= 64 {
                    v
                } else {
                    v & ((1 << width) - 1)
                };
                rtl.set_input(name, v)
                    .map_err(|e| NetlistError::Lower(e.to_string()))?;
                gate.set_input(name, v)?;
            }
            for _ in 0..ticks {
                rtl.tick().map_err(|e| NetlistError::Lower(e.to_string()))?;
                gate.tick()?;
            }
            let mut bad = false;
            for name in &outputs {
                let rv = rtl
                    .get(name)
                    .map_err(|e| NetlistError::Lower(e.to_string()))?;
                let gv = gate.output(name)?;
                if rv != gv {
                    bad = true;
                    if first_mismatch.is_none() {
                        first_mismatch = Some(name.clone());
                    }
                }
            }
            if bad {
                mismatches += 1;
            }
        }
    }
    Ok(CrossCheck {
        samples,
        mismatches,
        first_mismatch,
    })
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
        8 => check_netlists_w::<8>(a, b, key_a, key_b, samples, seed),
        4 => check_netlists_w::<4>(a, b, key_a, key_b, samples, seed),
        _ => check_netlists_w::<1>(a, b, key_a, key_b, samples, seed),
    }
}

/// Width-pinned body of [`check_netlists`]. Public so integration tests can
/// exercise explicit widths; results are width-independent.
#[doc(hidden)]
pub fn check_netlists_w<const W: usize>(
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
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sa = NetlistSimulator::<W>::with_width(a)?;
    let mut sb = NetlistSimulator::<W>::with_width(b)?;
    sa.set_key(key_a)?;
    sb.set_key(key_b)?;
    let mut mismatches = 0;
    let mut first_mismatch = None;
    // Both sides ride the lane words: one levelized walk per side per
    // 64*W vectors. The RNG draw order matches the scalar loop exactly.
    let mut done = 0usize;
    while done < samples {
        let lanes = (samples - done).min(NetlistSimulator::<W>::LANES);
        // Draw sample-major (all ports of a sample before the next sample)
        // to keep the vector stream identical to the scalar loop's.
        let mut vectors: Vec<Vec<u64>> = (0..a.inputs().len())
            .map(|_| Vec::with_capacity(lanes))
            .collect();
        for _ in 0..lanes {
            for (pi, p) in a.inputs().iter().enumerate() {
                let v: u64 = rng.gen();
                let v = if p.width() >= 64 {
                    v
                } else {
                    v & ((1 << p.width()) - 1)
                };
                vectors[pi].push(v);
            }
        }
        for (pi, p) in a.inputs().iter().enumerate() {
            sa.set_input_batch(&p.name, &vectors[pi])?;
            sb.set_input_batch(&p.name, &vectors[pi])?;
        }
        sa.settle_batch()?;
        sb.settle_batch()?;
        for lane in 0..lanes {
            let mut bad = false;
            for p in a.outputs() {
                if sa.output_lane(&p.name, lane)? != sb.output_lane(&p.name, lane)? {
                    bad = true;
                    if first_mismatch.is_none() {
                        first_mismatch = Some(p.name.clone());
                    }
                }
            }
            if bad {
                mismatches += 1;
            }
        }
        done += lanes;
    }
    Ok(CrossCheck {
        samples,
        mismatches,
        first_mismatch,
    })
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
        // sample-major draw makes the chunk width invisible to the RNG.
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
        assert!(!c1.is_equivalent());
    }
}
