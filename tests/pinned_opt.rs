//! Pinned optimizer output: for a fixed grid of gate-level netlists, the
//! gate count, logic depth and a digest of the serialized netlist after
//! `optimize` at every level. The optimizer's passes keep the first
//! representative they visit, so a change to a pass, to its visit order
//! or to the dead-gate sweep that claims to be exact must leave this
//! table alone.
//!
//! The netlists are built the way the campaign engine builds its
//! gate-level cells: the scan view of a lowered module, locked at gate
//! level (XOR/XNOR, MUX) or lowered from an ERA-locked module.

use mlrl::engine::spec::SchemeKind;
use mlrl::locking::{key_budget, lock};
use mlrl::netlist::lock::lock_netlist;
use mlrl::netlist::lower::lower_module;
use mlrl::netlist::opt::{optimize, OptLevel};
use mlrl::netlist::serdes::emit_netlist;
use mlrl::netlist::stats::logic_depth;
use mlrl::netlist::Netlist;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate_with_width};
use mlrl::rtl::Module;

const DESIGNS: [&str; 4] = ["SIM_SPI", "USB_PHY", "I2C_SL", "FIR"];
const VARIANTS: [&str; 4] = ["base", "xor-xnor", "mux", "era"];
const WIDTH: u32 = 6;
const BUDGET: f64 = 0.5;
const SEED: u64 = 7;

/// One pinned netlist: `(design, variant, level)` and then `(gates,
/// logic depth, FNV-1a of emit_netlist)`.
type Row = (
    &'static str,
    &'static str,
    &'static str,
    (usize, usize, u64),
);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("SIM_SPI", "base", "o0", (137, 28, 0x9622e651ecf2430b)),
    ("SIM_SPI", "base", "o1", (137, 28, 0x9622e651ecf2430b)),
    ("SIM_SPI", "base", "o2", (115, 25, 0x9258ac320133037f)),
    ("SIM_SPI", "xor-xnor", "o0", (154, 32, 0xcd3935cde59dd959)),
    ("SIM_SPI", "xor-xnor", "o1", (154, 32, 0xcd3935cde59dd959)),
    ("SIM_SPI", "xor-xnor", "o2", (126, 28, 0x9316eb71b5e5c1e3)),
    ("SIM_SPI", "mux", "o0", (154, 37, 0x73d72639d2f949fa)),
    ("SIM_SPI", "mux", "o1", (154, 37, 0x73d72639d2f949fa)),
    ("SIM_SPI", "mux", "o2", (137, 31, 0xe59fd5b22a8df3b5)),
    ("SIM_SPI", "era", "o0", (225, 38, 0x18add453e6ad8f55)),
    ("SIM_SPI", "era", "o1", (225, 38, 0x18add453e6ad8f55)),
    ("SIM_SPI", "era", "o2", (203, 34, 0x62ad451494d492e9)),
    ("USB_PHY", "base", "o0", (142, 23, 0xb751160d0e45fc17)),
    ("USB_PHY", "base", "o1", (142, 23, 0xb751160d0e45fc17)),
    ("USB_PHY", "base", "o2", (108, 18, 0x20e812d3e3521696)),
    ("USB_PHY", "xor-xnor", "o0", (162, 27, 0x619e0575c5229d83)),
    ("USB_PHY", "xor-xnor", "o1", (162, 27, 0x619e0575c5229d83)),
    ("USB_PHY", "xor-xnor", "o2", (129, 23, 0xcd1575a870fcbb12)),
    ("USB_PHY", "mux", "o0", (162, 38, 0x8d5813f2edc102cd)),
    ("USB_PHY", "mux", "o1", (162, 38, 0x8d5813f2edc102cd)),
    ("USB_PHY", "mux", "o2", (137, 36, 0xd2df78372fd46bd5)),
    ("USB_PHY", "era", "o0", (234, 32, 0xa7f995e680661267)),
    ("USB_PHY", "era", "o1", (234, 32, 0xa7f995e680661267)),
    ("USB_PHY", "era", "o2", (192, 27, 0x35b2f32b3ce6c222)),
    ("I2C_SL", "base", "o0", (217, 41, 0x379c4744e5d08f30)),
    ("I2C_SL", "base", "o1", (217, 41, 0x379c4744e5d08f30)),
    ("I2C_SL", "base", "o2", (174, 36, 0xb60754b840d65bc6)),
    ("I2C_SL", "xor-xnor", "o0", (233, 44, 0x20aab011d3de61cb)),
    ("I2C_SL", "xor-xnor", "o1", (233, 44, 0x20aab011d3de61cb)),
    ("I2C_SL", "xor-xnor", "o2", (190, 39, 0x1d76bd1d68c4fffa)),
    ("I2C_SL", "mux", "o0", (233, 71, 0xb1014d7ff90fed63)),
    ("I2C_SL", "mux", "o1", (233, 71, 0xb1014d7ff90fed63)),
    ("I2C_SL", "mux", "o2", (190, 56, 0xdd77106d6321b038)),
    ("I2C_SL", "era", "o0", (256, 50, 0x3de777e77c91b547)),
    ("I2C_SL", "era", "o1", (256, 50, 0x3de777e77c91b547)),
    ("I2C_SL", "era", "o2", (219, 45, 0xb1ef8e371a34e4ba)),
    ("FIR", "base", "o0", (1265, 70, 0x8a4031c7d50ad9d1)),
    ("FIR", "base", "o1", (1265, 70, 0x8a4031c7d50ad9d1)),
    ("FIR", "base", "o2", (1181, 70, 0x28561967c9c1943f)),
    ("FIR", "xor-xnor", "o0", (1297, 71, 0x4b81492cf115aa88)),
    ("FIR", "xor-xnor", "o1", (1297, 71, 0x4b81492cf115aa88)),
    ("FIR", "xor-xnor", "o2", (1211, 71, 0x662e940fd573a22b)),
    ("FIR", "mux", "o0", (1297, 94, 0x9240358b1b1d04b3)),
    ("FIR", "mux", "o1", (1297, 94, 0x9240358b1b1d04b3)),
    ("FIR", "mux", "o2", (1211, 83, 0x9c22427b639586e0)),
    ("FIR", "era", "o0", (187457, 28634, 0x248d519bcd6a471e)),
    ("FIR", "era", "o1", (187457, 28634, 0x248d519bcd6a471e)),
    ("FIR", "era", "o2", (155918, 22423, 0x3ef3cbeb3dde7486)),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The scan view of `module`. Lowering already sweeps dead gates and the
/// scan view keeps the same roots, so a second sweep must find nothing.
fn scan_view(module: &Module) -> Netlist {
    let netlist = lower_module(module).expect("lowers").to_scan_view();
    assert_eq!(netlist.clone().sweep(), 0, "scan view of {}", module.name());
    netlist
}

/// The unoptimized netlist of one `(design, variant)` cell.
fn variant(design: &str, variant: &str) -> Netlist {
    let base = generate_with_width(&benchmark_by_name(design).expect("benchmark"), SEED, WIDTH);
    let bits = key_budget(&base, BUDGET).expect("lockable");
    let lock_seed = SEED * 1_000 + 17;
    if variant == "base" {
        return scan_view(&base);
    }
    let scheme = SchemeKind::parse(variant).expect("scheme");
    if let Some(gate_scheme) = scheme.gate_scheme() {
        let mut netlist = scan_view(&base);
        lock_netlist(&mut netlist, gate_scheme, bits, lock_seed).expect("gate lock");
        return netlist;
    }
    let mut module = base;
    let rtl_scheme = scheme.lock_scheme().expect("RTL scheme");
    lock(&mut module, rtl_scheme, bits, lock_seed).expect("lock");
    scan_view(&module)
}

#[test]
fn optimized_netlists_match_the_pinned_table() {
    let mut got = Vec::new();
    for design in DESIGNS {
        for v in VARIANTS {
            let unoptimized = variant(design, v);
            for level in OptLevel::ALL {
                let mut netlist = unoptimized.clone();
                optimize(&mut netlist, level);
                let depth = logic_depth(&netlist).expect("acyclic");
                let digest = fnv1a(emit_netlist(&netlist).as_bytes());
                got.push((
                    design,
                    v,
                    level.name(),
                    (netlist.gates().len(), depth, digest),
                ));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(d, v, l, (gates, depth, digest))| {
            format!("    (\"{d}\", \"{v}\", \"{l}\", ({gates}, {depth}, 0x{digest:016x})),\n")
        })
        .collect();
    assert_eq!(
        got, PINNED,
        "pinned optimizer output moved; current table:\n{table}"
    );
}
