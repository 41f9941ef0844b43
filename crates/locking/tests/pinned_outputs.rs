//! Pinned HRA/ERA outputs: FNV-1a digests of the emitted Verilog, the key
//! bits and the metric trace of a fixed grid of locking runs. The digests
//! were captured with the walk-based `Lock` step that preceded the
//! incremental op-site index; any change to site selection, RNG use or
//! wrap order moves them.

use mlrl_locking::era::{era_lock, EraConfig};
use mlrl_locking::hra::{hra_lock, HraConfig};
use mlrl_locking::key::Key;
use mlrl_locking::key_budget;
use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
use mlrl_rtl::emit::emit_verilog;
use mlrl_rtl::Module;

const DESIGNS: [&str; 4] = ["N_1023", "DES3", "SHA256", "FIR"];
const SEEDS: [u64; 2] = [1, 2];
const BUDGETS: [f64; 2] = [0.25, 0.75];

/// `(scheme, design, seed, budget, digest)`.
const PINNED: &[(&str, &str, u64, f64, u64)] = &[
    ("hra", "N_1023", 1, 0.25, 0x3598d17904a2890f),
    ("hra", "N_1023", 1, 0.75, 0xee0127c879732e54),
    ("hra", "N_1023", 2, 0.25, 0x1b03329506b254d5),
    ("hra", "N_1023", 2, 0.75, 0x9c1155a7783849ea),
    ("hra", "DES3", 1, 0.25, 0x0681c6b1426e134a),
    ("hra", "DES3", 1, 0.75, 0xa14869c7aa3bd237),
    ("hra", "DES3", 2, 0.25, 0xf868a01c14780a2f),
    ("hra", "DES3", 2, 0.75, 0xabd541c2e96bc71c),
    ("hra", "SHA256", 1, 0.25, 0xa449a25bea037560),
    ("hra", "SHA256", 1, 0.75, 0xb12198982870e831),
    ("hra", "SHA256", 2, 0.25, 0x597cf8ee4613e0b2),
    ("hra", "SHA256", 2, 0.75, 0xe7533bb0edba67c1),
    ("hra", "FIR", 1, 0.25, 0x192db1a563bff852),
    ("hra", "FIR", 1, 0.75, 0xefa07759a3494812),
    ("hra", "FIR", 2, 0.25, 0x14de64c4033d5c30),
    ("hra", "FIR", 2, 0.75, 0xf3f2c0805b5ae18b),
    ("era", "N_1023", 1, 0.25, 0xee9dcf3458e2f01e),
    ("era", "N_1023", 1, 0.75, 0x38682042e2eaa3ee),
    ("era", "N_1023", 2, 0.25, 0x6284883c796886f4),
    ("era", "N_1023", 2, 0.75, 0x6488fecce839cb0f),
    ("era", "DES3", 1, 0.25, 0x89901367dccf724a),
    ("era", "DES3", 1, 0.75, 0x02389d35fa211e45),
    ("era", "DES3", 2, 0.25, 0x72d143c7dfc8d2bd),
    ("era", "DES3", 2, 0.75, 0x96c79cdb5429fe3d),
    ("era", "SHA256", 1, 0.25, 0xcad62e5c13e725e0),
    ("era", "SHA256", 1, 0.75, 0xbc3f3c7f1a6152b2),
    ("era", "SHA256", 2, 0.25, 0x724f088b49f8959f),
    ("era", "SHA256", 2, 0.75, 0x338edb45cb4edbf7),
    ("era", "FIR", 1, 0.25, 0x8c878149f35251b2),
    ("era", "FIR", 1, 0.75, 0x9cf2df4a9273c6cc),
    ("era", "FIR", 2, 0.25, 0xb774239eb84a976f),
    ("era", "FIR", 2, 0.75, 0x96341b146ca45f0e),
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

fn digest(module: &Module, key: &Key, bits_used: usize, trace: &[(usize, f64, f64)]) -> u64 {
    let mut h = Fnv::new();
    h.write(emit_verilog(module).expect("emit").as_bytes());
    h.write(key.to_string().as_bytes());
    h.write(&bits_used.to_le_bytes());
    for &(n, g, r) in trace {
        h.write(&n.to_le_bytes());
        h.write(&g.to_bits().to_le_bytes());
        h.write(&r.to_bits().to_le_bytes());
    }
    h.0
}

fn run(scheme: &str, design: &str, seed: u64, budget: f64) -> u64 {
    let mut m = generate(&benchmark_by_name(design).expect("benchmark"), seed);
    let bits = key_budget(&m, budget).expect("lockable");
    let lock_seed = seed * 1_000 + 17;
    match scheme {
        "hra" => {
            let o = hra_lock(&mut m, &HraConfig::new(bits, lock_seed)).expect("hra");
            digest(&m, &o.key, o.bits_used, &o.trace)
        }
        "era" => {
            let o = era_lock(&mut m, &EraConfig::new(bits, lock_seed)).expect("era");
            digest(&m, &o.key, o.bits_used, &o.trace)
        }
        other => unreachable!("scheme {other}"),
    }
}

#[test]
fn hra_and_era_outputs_match_the_pinned_digests() {
    let mut got = Vec::new();
    for scheme in ["hra", "era"] {
        for design in DESIGNS {
            for seed in SEEDS {
                for budget in BUDGETS {
                    got.push((
                        scheme,
                        design,
                        seed,
                        budget,
                        run(scheme, design, seed, budget),
                    ));
                }
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(s, d, seed, b, h)| format!("    (\"{s}\", \"{d}\", {seed}, {b:?}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "pinned digests moved; current table:\n{table}");
}
