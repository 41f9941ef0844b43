//! Pinned Verilog front-end behaviour.
//!
//! `locked_designs_parse_to_the_pinned_structure` digests the parsed form
//! of every locked variant the `lock-replay` workload spills (its twelve
//! designs plus N_1023, locked with ASSURE, HRA and ERA at three budgets
//! over two seeds). `mutated_sources_keep_their_pinned_outcomes` runs a
//! seeded mutation fuzz loop over small hand-written sources and digests
//! every outcome: the token stream or lexer error, and the structure or
//! error `Display` (with line and column) of `parse_verilog` and
//! `parse_design`. Both digests were captured with the char-vector lexer
//! and token-cloning parser that preceded the borrowed-token front end, so
//! a front-end rewrite that claims to be exact must leave them alone. The
//! fuzz digest was re-captured once since, when index literals of 2^32
//! and up became errors instead of truncating: of the 20,000 mutants only
//! #19685 (`output [6307370955161:0] q$2;`) changed outcome.

use std::fmt::Write as _;

use mlrl::engine::fnv::Fnv64;
use mlrl::locking::assure::{lock_operations, AssureConfig};
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::locking::hra::{hra_lock, HraConfig};
use mlrl::rtl::ast::{Expr, NetKind, PortDir, SeqStmt};
use mlrl::rtl::bench_designs::{benchmark_by_name, generate};
use mlrl::rtl::emit::emit_verilog;
use mlrl::rtl::lexer::tokenize;
use mlrl::rtl::parser::{parse_design, parse_verilog};
use mlrl::rtl::{visit, Module};

const DESIGNS: [&str; 13] = [
    "DES3", "DFT", "FIR", "IDFT", "IIR", "MD5", "RSA", "SHA256", "SASC", "SIM_SPI", "USB_PHY",
    "I2C_SL", "N_1023",
];
const SCHEMES: [&str; 3] = ["assure", "hra", "era"];
const BUDGETS: [f64; 3] = [0.25, 0.5, 0.75];
const SEEDS: [u64; 2] = [1, 2];

const PINNED_LOCKED: u64 = 0xfb38_3dfd_319f_0768;
const PINNED_FUZZ: u64 = 0x1df4_b6f8_1b45_2ec0;

fn str_(h: &mut Fnv64, s: &str) {
    h.write_u64(s.len() as u64).write_str(s);
}

fn stmts(h: &mut Fnv64, body: &[SeqStmt]) {
    h.write_u64(body.len() as u64);
    for s in body {
        match s {
            SeqStmt::NonBlocking { lhs, rhs } => {
                h.write_u64(0);
                str_(h, lhs);
                h.write_u64(rhs.index() as u64);
            }
            SeqStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                h.write_u64(1).write_u64(cond.index() as u64);
                stmts(h, then_body);
                stmts(h, else_body);
            }
        }
    }
}

/// Absorbs every part of `m` in a fixed order (never by iterating a map).
fn module_digest(h: &mut Fnv64, m: &Module) {
    str_(h, m.name());
    h.write_u64(m.arena().len() as u64);
    for (id, e) in m.arena().iter() {
        h.write_u64(id.index() as u64);
        match e {
            Expr::Const { value, width } => {
                h.write_u64(0).write_u64(*value);
                h.write_u64(width.map_or(u64::MAX, u64::from));
            }
            Expr::Ident(name) => {
                h.write_u64(1);
                str_(h, name);
            }
            Expr::KeyBit(bit) => {
                h.write_u64(2).write_u64(u64::from(*bit));
            }
            Expr::KeySlice { lsb, width } => {
                h.write_u64(3).write_u64(u64::from(*lsb));
                h.write_u64(u64::from(*width));
            }
            Expr::Unary { op, arg } => {
                h.write_u64(4).write_str(op.token());
                h.write_u64(arg.index() as u64);
            }
            Expr::Binary { op, lhs, rhs } => {
                h.write_u64(5).write_u64(u64::from(op.code()));
                h.write_u64(lhs.index() as u64)
                    .write_u64(rhs.index() as u64);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                h.write_u64(6).write_u64(cond.index() as u64);
                h.write_u64(then_expr.index() as u64);
                h.write_u64(else_expr.index() as u64);
            }
            Expr::Index { base, bit } => {
                h.write_u64(7);
                str_(h, base);
                h.write_u64(u64::from(*bit));
            }
        }
    }
    h.write_u64(m.ports().len() as u64);
    for p in m.ports() {
        str_(h, &p.name);
        h.write_u64(u64::from(p.dir == PortDir::Input));
        h.write_u64(u64::from(p.width));
    }
    h.write_u64(m.nets().len() as u64);
    for n in m.nets() {
        str_(h, &n.name);
        h.write_u64(u64::from(n.kind == NetKind::Reg));
        h.write_u64(u64::from(n.width));
    }
    h.write_u64(m.assigns().len() as u64);
    for a in m.assigns() {
        str_(h, &a.lhs);
        h.write_u64(a.rhs.index() as u64);
    }
    h.write_u64(m.always_blocks().len() as u64);
    for b in m.always_blocks() {
        str_(h, &b.clock);
        stmts(h, &b.body);
    }
    h.write_u64(m.instances().len() as u64);
    for i in m.instances() {
        str_(h, &i.module_name);
        str_(h, &i.instance_name);
        h.write_u64(i.connections.len() as u64);
        for c in &i.connections {
            str_(h, &c.port);
            str_(h, &c.signal);
        }
    }
    h.write_u64(u64::from(m.key_width()));
    let declared = m.ports().iter().map(|p| &p.name);
    for name in declared.chain(m.nets().iter().map(|n| &n.name)) {
        h.write_u64(m.signal_width(name).map_or(u64::MAX, u64::from));
    }
}

fn locked_source(design: &str, scheme: &str, budget: f64, seed: u64) -> String {
    let mut m = generate(&benchmark_by_name(design).expect("benchmark"), seed);
    let lockable = visit::binary_ops(&m).len();
    let bits = ((lockable as f64) * budget).round().max(1.0) as usize;
    let lock_seed = seed * 1_000 + 17;
    match scheme {
        "assure" => {
            lock_operations(&mut m, &AssureConfig::serial(bits, lock_seed)).expect("assure");
        }
        "hra" => {
            hra_lock(&mut m, &HraConfig::new(bits, lock_seed)).expect("hra");
        }
        "era" => {
            era_lock(&mut m, &EraConfig::new(bits, lock_seed)).expect("era");
        }
        other => unreachable!("scheme {other}"),
    }
    emit_verilog(&m).expect("emit")
}

#[test]
fn locked_designs_parse_to_the_pinned_structure() {
    let mut h = Fnv64::new();
    for design in DESIGNS {
        for scheme in SCHEMES {
            for budget in BUDGETS {
                for seed in SEEDS {
                    let src = locked_source(design, scheme, budget, seed);
                    let m = parse_verilog(&src).expect("emitted Verilog parses");
                    module_digest(&mut h, &m);
                }
            }
        }
    }
    assert_eq!(
        h.finish(),
        PINNED_LOCKED,
        "parsed structure moved: 0x{:016x}",
        h.finish()
    );
}

/// Small sources (each under 1 KB) covering every construct the parser
/// accepts: sized and unsized literals with underscores, comments, key
/// selects, always blocks, instances and multi-module designs.
const BASES: [&str; 6] = [
    "module adder(a, b, y);\n  input [7:0] a;\n  input [7:0] b;\n  output [7:0] y;\n  \
     assign y = a + b * 8'hff - 1_000;\nendmodule\n",
    "module t(K, a, b, y);\n  input [3:0] K;\n  input [15:0] a, b;\n  output [15:0] y;\n  \
     wire [15:0] w;\n  // key-controlled pair\n  assign w = K[0] ? a ~^ b : a ^~ b;\n  \
     assign y = K[2] ? (K[1] ? w << 2 : w >> 2) : K[3:2] ^ 16'd255;\nendmodule\n",
    "module s(clk, d, q);\n  input clk;\n  input [7:0] d;\n  output [7:0] q;\n  \
     reg [7:0] q_r;\n  assign q = q_r;\n  /* block\n comment */\n  always @(posedge clk) begin\n    \
     if (d >= 4'b1010 && d != 0) begin\n      q_r <= d ** 2 % 7;\n    end else begin\n      \
     q_r <= ~-d | !d & d[3];\n    end\n  end\nendmodule\n",
    "module child(a, y);\n  input [3:0] a;\n  output [3:0] y;\n  assign y = a + 4'o7;\nendmodule\n\
     module top(x, z);\n  input [3:0] x;\n  output [3:0] z;\n  child u0 (.a(x), .y(z));\nendmodule\n",
    "module cmp(a, b, lt, eq);\n  input [31:0] a, b;\n  output lt;\n  output eq;\n  \
     assign lt = a < b || a <= 32'hdead_beef;\n  assign eq = (a == b) ? 1'b1 : a > b;\nendmodule\n",
    "module m$x(p_1, q$2);\n  input [63:0] p_1;\n  output [63:0] q$2;\n  \
     assign q$2 = p_1 / 64'hffff_ffff_ffff_ffff + 18446744073709551615;\nendmodule\n",
];

/// Characters mutations draw from: identifier and literal characters,
/// every punctuation mark of the grammar, and non-ASCII text (a letter, a
/// symbol, a no-break space and a line separator).
const ALPHABET: &[char] = &[
    'a', 'K', 'h', 'b', 'o', 'd', 'x', 'z', '0', '1', '7', '9', '\'', '_', '$', '(', ')', '[', ']',
    ';', ',', ':', '?', '@', '=', '<', '>', '!', '~', '^', '&', '|', '+', '-', '*', '/', '%', '.',
    '#', '"', '\\', ' ', '\n', '\t', '\r', 'é', '€', '\u{a0}', '\u{2028}',
];

const MUTANTS: u64 = 20_000;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one to three seeded mutations: replace, insert or delete a
/// character, duplicate a span, or truncate.
fn mutate(base: &str, rng: &mut SplitMix) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    for _ in 0..1 + rng.below(3) {
        let len = chars.len();
        match rng.below(5) {
            0 if len > 0 => {
                let at = rng.below(len);
                chars[at] = ALPHABET[rng.below(ALPHABET.len())];
            }
            1 => {
                let at = rng.below(len + 1);
                chars.insert(at, ALPHABET[rng.below(ALPHABET.len())]);
            }
            2 if len > 0 => {
                chars.remove(rng.below(len));
            }
            3 if len > 0 => {
                let start = rng.below(len);
                let end = (start + 1 + rng.below(16)).min(len);
                let span: Vec<char> = chars[start..end].to_vec();
                let at = rng.below(len + 1);
                chars.splice(at..at, span);
            }
            _ => chars.truncate(rng.below(len + 1)),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_sources_keep_their_pinned_outcomes() {
    let mut rng = SplitMix(0x5eed_2022);
    let mut h = Fnv64::new();
    let mut line = String::new();
    for i in 0..MUTANTS {
        let src = mutate(BASES[i as usize % BASES.len()], &mut rng);
        line.clear();
        match tokenize(&src) {
            Ok(tokens) => {
                for t in &tokens {
                    write!(line, "{:?}@{}:{} ", t.tok, t.line, t.col).unwrap();
                }
            }
            Err(e) => write!(line, "lex error: {e}").unwrap(),
        }
        str_(&mut h, &line);
        match parse_verilog(&src) {
            Ok(m) => {
                h.write_u64(0);
                module_digest(&mut h, &m);
            }
            Err(e) => {
                h.write_u64(1);
                str_(&mut h, &e.to_string());
            }
        }
        match parse_design(&src) {
            Ok(d) => {
                h.write_u64(0);
                for name in d.module_names() {
                    module_digest(&mut h, d.module(name).expect("listed module"));
                }
            }
            Err(e) => {
                h.write_u64(1);
                str_(&mut h, &e.to_string());
            }
        }
    }
    assert_eq!(
        h.finish(),
        PINNED_FUZZ,
        "fuzz outcomes moved: 0x{:016x}",
        h.finish()
    );
}
