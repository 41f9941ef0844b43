//! Property tests for the simulators' `drive` method.
//!
//! `drive` deals a stimulus table onto the lanes of the RTL
//! `BatchSimulator` and of the gate-level `NetlistSimulator`. Its output
//! table must equal a per-row reference that keeps one scalar simulator
//! per lane and runs one `set_input` + `settle` (or `tick`s) per row: row
//! `i` goes to lane `i % LANES`, which carries its registers from its
//! previous row when clocked.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlrl::netlist::lower::lower_module;
use mlrl::netlist::sim::NetlistSimulator;
use mlrl::netlist::Netlist;
use mlrl::rtl::parser::parse_verilog;
use mlrl::rtl::sim::{BatchSimulator, Simulator};
use mlrl::rtl::Module;

/// An accumulator whose outputs read both the inputs and the register,
/// so a row's outputs depend on its lane's earlier rows when clocked.
const ACC: &str = "module acc(clk, a, b, y, z);\n input clk;\n input [7:0] a;\n \
                   input [11:0] b;\n output [7:0] y;\n output [11:0] z;\n reg [7:0] r;\n \
                   assign y = r ^ (a + b);\n assign z = (a * b) - r;\n \
                   always @(posedge clk) begin\n r <= r + (a ^ b);\n end\nendmodule";

const INPUTS: [&str; 2] = ["a", "b"];
const OUTPUTS: [&str; 2] = ["y", "z"];

/// Row counts around one and several lane-fulls.
fn row_counts(lanes: usize) -> [usize; 5] {
    [1, lanes - 1, lanes, lanes + 1, 3 * lanes + 5]
}

/// Unmasked random rows, so both simulators' masking is exercised too.
fn stimulus(rows: usize, seed: u64) -> Vec<[u64; 2]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows).map(|_| [rng.gen(), rng.gen()]).collect()
}

fn rtl_reference(module: &Module, rows: &[[u64; 2]], lanes: usize, ticks: usize) -> Vec<u64> {
    let mut sims: Vec<Simulator> = (0..lanes)
        .map(|_| Simulator::new(module).expect("compiles"))
        .collect();
    let mut read = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let sim = &mut sims[i % lanes];
        for (name, &v) in INPUTS.iter().zip(row) {
            sim.set_input(name, v).expect("input");
        }
        if ticks == 0 {
            sim.settle().expect("settles");
        }
        for _ in 0..ticks {
            sim.tick().expect("ticks");
        }
        read.extend(OUTPUTS.iter().map(|o| sim.get(o).expect("output")));
    }
    read
}

fn gate_reference(netlist: &Netlist, rows: &[[u64; 2]], lanes: usize, ticks: usize) -> Vec<u64> {
    let mut sims: Vec<NetlistSimulator> = (0..lanes)
        .map(|_| NetlistSimulator::new(netlist).expect("compiles"))
        .collect();
    let mut read = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let sim = &mut sims[i % lanes];
        for (name, &v) in INPUTS.iter().zip(row) {
            sim.set_input(name, v).expect("input");
        }
        if ticks == 0 {
            sim.settle().expect("settles");
        }
        for _ in 0..ticks {
            sim.tick().expect("ticks");
        }
        read.extend(OUTPUTS.iter().map(|o| sim.output(o).expect("output")));
    }
    read
}

fn check_rtl<const V: usize>(module: &Module, seed: u64) -> Result<(), TestCaseError> {
    for rows in row_counts(V) {
        for ticks in [0, 2] {
            let table = stimulus(rows, seed);
            let mut sim = BatchSimulator::<V>::new(module).expect("compiles");
            let driven = sim.drive(&INPUTS, &table, &OUTPUTS, ticks).expect("drives");
            prop_assert_eq!(driven.len(), rows * OUTPUTS.len());
            prop_assert_eq!(
                driven,
                rtl_reference(module, &table, V, ticks),
                "V={} rows={} ticks={}",
                V,
                rows,
                ticks
            );
        }
    }
    Ok(())
}

fn check_gate<const W: usize>(netlist: &Netlist, seed: u64) -> Result<(), TestCaseError> {
    let lanes = NetlistSimulator::<W>::LANES;
    for rows in row_counts(lanes) {
        for ticks in [0, 2] {
            let table = stimulus(rows, seed);
            let mut sim = NetlistSimulator::<W>::with_width(netlist).expect("compiles");
            let driven = sim.drive(&INPUTS, &table, &OUTPUTS, ticks).expect("drives");
            prop_assert_eq!(driven.len(), rows * OUTPUTS.len());
            prop_assert_eq!(
                driven,
                gate_reference(netlist, &table, lanes, ticks),
                "W={} rows={} ticks={}",
                W,
                rows,
                ticks
            );
        }
    }
    Ok(())
}

proptest! {
    // Each case drives 5 row counts × 2 tick settings per simulator.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn rtl_drive_matches_a_per_row_reference(seed in any::<u64>()) {
        let module = parse_verilog(ACC).expect("parses");
        check_rtl::<1>(&module, seed)?;
        check_rtl::<8>(&module, seed)?;
    }

    #[test]
    fn gate_drive_matches_a_per_row_reference(seed in any::<u64>()) {
        let module = parse_verilog(ACC).expect("parses");
        let netlist = lower_module(&module).expect("lowers");
        check_gate::<1>(&netlist, seed)?;
        check_gate::<4>(&netlist, seed)?;
    }
}

#[test]
fn drive_rejects_unknown_ports_and_reads_nothing_from_an_empty_table() {
    let module = parse_verilog(ACC).expect("parses");
    let netlist = lower_module(&module).expect("lowers");
    let empty: [[u64; 2]; 0] = [];
    let mut rtl = BatchSimulator::<8>::new(&module).expect("compiles");
    let mut gate = NetlistSimulator::new(&netlist).expect("compiles");
    assert!(rtl.drive(&INPUTS, &empty, &OUTPUTS, 0).unwrap().is_empty());
    assert!(gate.drive(&INPUTS, &empty, &OUTPUTS, 0).unwrap().is_empty());
    // An output is not an input port, and `q` is no port at all.
    assert!(rtl.drive(&["y"], &[[1u64]], &OUTPUTS, 0).is_err());
    assert!(gate.drive(&["y"], &[[1u64]], &OUTPUTS, 0).is_err());
    assert!(rtl.drive(&INPUTS, &empty, &["q"], 0).is_err());
    assert!(gate.drive(&INPUTS, &empty, &["q"], 0).is_err());
}
