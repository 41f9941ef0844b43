//! Pinned SAT-attack search paths: for a fixed grid of gate-level attacks,
//! the DIP count, proof status, candidate count, a digest of the recovered
//! key, a digest of every DIP stimulus the oracle saw, and the miter
//! solver's lifetime conflict and decision counts. Equal counts pin the
//! solver's search path itself, not only its result, so a solver change
//! that claims to be exact must leave this table alone. Propagations are
//! deliberately not pinned: avoiding redundant propagation work is
//! exactly what an exact solver optimisation may do.
//!
//! The cells are built the way the campaign engine builds its gate-level
//! cells: RTL schemes lock the module and lower the locked module to its
//! scan view; gate schemes lower the base module and lock the netlist.

use mlrl::engine::spec::SchemeKind;
use mlrl::locking::key::Key;
use mlrl::locking::{key_budget, lock};
use mlrl::netlist::lock::lock_netlist;
use mlrl::netlist::lower::lower_module;
use mlrl::netlist::Netlist;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate_with_width};
use mlrl::rtl::Module;
use mlrl::sat::attack::{sat_attack, Oracle, PortValues, SatAttackConfig, SimOracle};

const NETLISTS: [&str; 3] = ["SIM_SPI", "USB_PHY", "I2C_SL"];
const SCHEMES: [&str; 5] = ["assure", "hra", "era", "xor-xnor", "mux"];
const SEEDS: [u64; 2] = [1, 2];
const WIDTH: u32 = 4;
const BUDGET: f64 = 0.25;

/// One pinned attack: `(netlist, scheme, seed, max_dips)` and then
/// `(dips, proved, candidates, key digest, DIP digest, conflicts,
/// decisions)`.
type Row = (
    &'static str,
    &'static str,
    u64,
    usize,
    (usize, bool, usize, u64, u64, u64, u64),
);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("SIM_SPI", "assure", 1, 512, (2, true, 1, 0xc0a94db828ef31ff, 0x12e10da94e130bf5, 1094, 2576)),
    ("SIM_SPI", "assure", 2, 512, (3, true, 1, 0xe1ff190fac28bc54, 0x5383169cca3682c0, 663, 1788)),
    ("SIM_SPI", "hra", 1, 512, (3, true, 1, 0x464ade7f5334102e, 0x9577b454fb25eeaf, 939, 2759)),
    ("SIM_SPI", "hra", 2, 512, (3, true, 1, 0xf09987b8435eb2ba, 0x7c3b583a7bac0ad6, 623, 1861)),
    ("SIM_SPI", "era", 1, 512, (3, true, 1, 0xf4a255e2bbc9019b, 0xe952afb6bd43bafa, 1211, 2798)),
    ("SIM_SPI", "era", 2, 512, (2, true, 1, 0x234b28c658d55c34, 0x939186c0b4f59128, 557, 2154)),
    ("SIM_SPI", "xor-xnor", 1, 512, (2, true, 1, 0xa1ad72dd2a4221f7, 0xd7ddc9df15c593b5, 946, 2588)),
    ("SIM_SPI", "xor-xnor", 2, 512, (3, true, 1, 0x9f9751398f2856f6, 0xd3c15fb72c17bf57, 498, 1524)),
    ("SIM_SPI", "mux", 1, 512, (4, true, 1, 0x34f5d6bb032592af, 0x1742672a8ee2cf6c, 1136, 3054)),
    ("SIM_SPI", "mux", 2, 512, (6, true, 1, 0x4609d731ce5a6ee1, 0x069c8e1efbc7e0e3, 521, 1968)),
    ("SIM_SPI", "xor-xnor", 1, 1, (1, false, 4, 0xa1ad72dd2a4221f7, 0x728d7a60b528410f, 1, 47)),
    ("USB_PHY", "assure", 1, 512, (2, true, 1, 0x5783bded93542ca6, 0x665760ab74935a0c, 398, 1141)),
    ("USB_PHY", "assure", 2, 512, (3, true, 1, 0xe11fa96c66e207d0, 0xd5db3e1a3fca362b, 729, 2074)),
    ("USB_PHY", "hra", 1, 512, (2, true, 1, 0xe317949909ab622a, 0x5d81434fdae0dba2, 419, 1218)),
    ("USB_PHY", "hra", 2, 512, (4, true, 1, 0x8ec727fd281c6f40, 0xa4df534c9714d8c5, 695, 1768)),
    ("USB_PHY", "era", 1, 512, (2, true, 1, 0xdeb88c654debb428, 0x98b7aa707b7bff0c, 390, 1339)),
    ("USB_PHY", "era", 2, 512, (2, true, 1, 0xb639e7fd75f92b26, 0x78180a47f92f449c, 662, 2387)),
    ("USB_PHY", "xor-xnor", 1, 512, (2, true, 1, 0xa376852b40c1ca75, 0x91061d3d732a2ee8, 409, 1105)),
    ("USB_PHY", "xor-xnor", 2, 512, (2, true, 1, 0x6379cba72b46aeb5, 0x66a65c640f9054d0, 451, 1363)),
    ("USB_PHY", "mux", 1, 512, (6, true, 1, 0x3afb273f535425b3, 0x539acd14086106a0, 390, 1450)),
    ("USB_PHY", "mux", 2, 512, (4, true, 1, 0x1baa7f9928fd1ea4, 0xd085c1ad4717f43c, 386, 1544)),
    ("USB_PHY", "xor-xnor", 1, 1, (1, false, 2, 0xa376852b40c1ca75, 0xbc65e54662dd4f0e, 1, 53)),
    ("I2C_SL", "assure", 1, 512, (3, true, 1, 0xd4db0dff3f107084, 0xc6a47b877ca0a905, 469, 1472)),
    ("I2C_SL", "assure", 2, 512, (3, true, 1, 0x3c105b1000fda8ca, 0x04191df8dd2e1194, 699, 2405)),
    ("I2C_SL", "hra", 1, 512, (2, true, 1, 0xec1b91a7db2b826c, 0xe0a1a2dc896efbdb, 484, 1986)),
    ("I2C_SL", "hra", 2, 512, (5, true, 1, 0x38e5cb216142215e, 0x0375f31cfdc4750a, 697, 2139)),
    ("I2C_SL", "era", 1, 512, (1, true, 1, 0x69cfa1cc20f40c64, 0x728d7a60b528410f, 533, 1428)),
    ("I2C_SL", "era", 2, 512, (2, true, 1, 0x5dbd7f5c063798a8, 0x978558cbb1408d67, 643, 2190)),
    ("I2C_SL", "xor-xnor", 1, 512, (2, true, 1, 0x5dba1b5c0634b8e5, 0xa784761fadf1636e, 533, 1488)),
    ("I2C_SL", "xor-xnor", 2, 512, (2, true, 1, 0x3c13c11001008bf3, 0x90a77b410445ae1a, 628, 2226)),
    ("I2C_SL", "mux", 1, 512, (5, true, 1, 0x467996b36a19a54a, 0x399c19a15373d011, 495, 1753)),
    ("I2C_SL", "mux", 2, 512, (3, true, 1, 0x467632b36a16c587, 0xadd5cc39cad2b5f9, 787, 2369)),
    ("I2C_SL", "xor-xnor", 1, 1, (1, false, 8, 0x5dba1b5c0634b8e5, 0x728d7a60b528410f, 1, 45)),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Forwards to the simulator oracle and folds every DIP stimulus into a
/// digest, in query order.
struct RecordingOracle<'n> {
    inner: SimOracle<'n>,
    digest: Fnv,
}

impl Oracle for RecordingOracle<'_> {
    fn query(&mut self, inputs: &[(String, u64)]) -> PortValues {
        for (name, v) in inputs {
            self.digest.write(name.as_bytes());
            self.digest.write(&v.to_le_bytes());
        }
        self.inner.query(inputs)
    }

    // The post-budget validation probes are a fixed splitmix stream, not
    // a search output; they are answered but not recorded.
    fn query_batch(&mut self, batch: &[&[(String, u64)]]) -> Vec<PortValues> {
        self.inner.query_batch(batch)
    }
}

fn key_bits(module: &Module, key: &Key) -> Vec<bool> {
    (0..module.key_width())
        .map(|i| key.bit(i).unwrap_or(false))
        .collect()
}

fn scan_view(module: &Module) -> Netlist {
    let mut netlist = lower_module(module).expect("lowers").to_scan_view();
    netlist.sweep();
    netlist
}

/// The locked gate-level netlist of one cell and its correct key.
fn locked_cell(design: &str, scheme: &str, seed: u64) -> (Netlist, Vec<bool>) {
    let base = generate_with_width(&benchmark_by_name(design).expect("benchmark"), seed, WIDTH);
    let bits = key_budget(&base, BUDGET).expect("lockable");
    let lock_seed = seed * 1_000 + 17;
    let scheme = SchemeKind::parse(scheme).expect("scheme");
    if let Some(gate_scheme) = scheme.gate_scheme() {
        let mut netlist = scan_view(&base);
        let key = lock_netlist(&mut netlist, gate_scheme, bits, lock_seed).expect("gate lock");
        return (netlist, key.bits().to_vec());
    }
    let mut module = base;
    let rtl_scheme = scheme.lock_scheme().expect("RTL scheme");
    let key = lock(&mut module, rtl_scheme, bits, lock_seed)
        .expect("lock")
        .key;
    let correct = key_bits(&module, &key);
    (scan_view(&module), correct)
}

fn run(design: &'static str, scheme: &'static str, seed: u64, max_dips: usize) -> Row {
    let (netlist, key) = locked_cell(design, scheme, seed);
    let mut oracle = RecordingOracle {
        inner: SimOracle::new(&netlist, &key).expect("oracle"),
        digest: Fnv::new(),
    };
    let cfg = SatAttackConfig {
        max_dips,
        ..Default::default()
    };
    let report = sat_attack(&netlist, &mut oracle, &cfg).expect("attack");
    let mut key_digest = Fnv::new();
    for &bit in &report.key {
        key_digest.write(&[u8::from(bit)]);
    }
    (
        design,
        scheme,
        seed,
        max_dips,
        (
            report.dips,
            report.proved,
            report.candidates,
            key_digest.0,
            oracle.digest.0,
            report.conflicts,
            report.decisions,
        ),
    )
}

#[test]
fn sat_attack_search_paths_match_the_pinned_table() {
    let mut got = Vec::new();
    for design in NETLISTS {
        for scheme in SCHEMES {
            for seed in SEEDS {
                got.push(run(design, scheme, seed, 512));
            }
        }
        // A one-DIP budget leaves the attack unproved, so the post-budget
        // candidate enumeration and ranking run too.
        got.push(run(design, "xor-xnor", SEEDS[0], 1));
    }
    let table: String = got
        .iter()
        .map(|(d, s, seed, m, (dips, proved, cands, key, dip, c, dec))| {
            format!(
                "    (\"{d}\", \"{s}\", {seed}, {m}, ({dips}, {proved}, {cands}, \
                 0x{key:016x}, 0x{dip:016x}, {c}, {dec})),\n"
            )
        })
        .collect();
    assert_eq!(
        got, PINNED,
        "pinned SAT search paths moved; current table:\n{table}"
    );
}
