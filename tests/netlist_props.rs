//! Property-based tests for the gate-level and SAT substrates.
//!
//! The central invariant: the bit-blasting lowering is *bit-exact* with the
//! RTL simulator for arbitrary expressions, widths and stimulus; locking
//! preserves function under the correct key; and the Tseitin encoding
//! agrees with the netlist simulator.

use proptest::prelude::*;

use mlrl::netlist::build::{Lane, NetlistBuilder};
use mlrl::netlist::equiv::{check_module_vs_netlist, check_netlists};
use mlrl::netlist::lock::{mux_lock, xor_xnor_lock};
use mlrl::netlist::lower::lower_module;
use mlrl::netlist::opt::{optimize, OptLevel};
use mlrl::netlist::serdes::{emit_netlist, parse_netlist};
use mlrl::netlist::sim::NetlistSimulator;
use mlrl::netlist::Netlist;
use mlrl::rtl::parser::parse_verilog;
use mlrl::sat::cnf::CnfBuilder;
use mlrl::sat::solver::Solver;
use mlrl::sat::tseitin::CircuitEncoder;

/// A random binary-operator expression tree over inputs `a`, `b`, `c`,
/// rendered as Verilog.
fn arb_expr(depth: u32) -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_owned()),
        Just("b".to_owned()),
        Just("c".to_owned()),
        (0u64..16).prop_map(|v| format!("{v}")),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        (
            inner.clone(),
            inner,
            prop_oneof![
                Just("+"),
                Just("-"),
                Just("*"),
                Just("/"),
                Just("%"),
                Just("&"),
                Just("|"),
                Just("^"),
                Just("~^"),
                Just("<<"),
                Just(">>"),
                Just("<"),
                Just(">"),
                Just("=="),
                Just("!="),
                Just("&&"),
                Just("||"),
            ],
        )
            .prop_map(|(l, r, op)| format!("({l} {op} {r})"))
    })
}

/// Drives a random locked netlist at width `W` with per-lane input
/// vectors and a per-lane key sweep — one walk for all lanes — then
/// checks every lane (value, per-lane digest, and batch digest) against
/// an independent scalar simulation of that lane's vector and key.
fn lane_matches_scalar<const W: usize>(
    expr: &str,
    width: u32,
    vectors: &[(u64, u64, u64)],
    keys: &[u64],
    bits: usize,
    seed: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let src = format!(
        "module t(a, b, c, y);\n input [{w}:0] a, b, c;\n output [{w}:0] y;\n assign y = {expr};\nendmodule",
        w = width - 1
    );
    let module = parse_verilog(&src).expect("generated source parses");
    let mut netlist = lower_module(&module).expect("expression lowers");
    netlist.sweep();
    // Constant-folded expressions may leave nothing lockable; the lane
    // property must hold either way.
    let key_len = xor_xnor_lock(&mut netlist, bits, seed).map_or(0, |k| k.len());
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };

    // Per-lane keys: lane l uses keys[l % keys.len()] as a bit source.
    let lane_keys: Vec<Vec<bool>> = (0..vectors.len())
        .map(|l| {
            let word = keys[l % keys.len()];
            (0..key_len).map(|i| word >> (i % 64) & 1 == 1).collect()
        })
        .collect();
    let key_refs: Vec<&[bool]> = lane_keys.iter().map(|k| k.as_slice()).collect();

    let mut word = NetlistSimulator::<W>::with_width(&netlist).expect("word sim");
    for (port, idx) in [("a", 0usize), ("b", 1), ("c", 2)] {
        let lanes: Vec<u64> = vectors
            .iter()
            .map(|v| [v.0, v.1, v.2][idx] & mask)
            .collect();
        word.set_input_batch(port, &lanes).expect("batch input");
    }
    word.set_key_batch(&key_refs).expect("batch key");
    word.settle().expect("settles");
    let batch_digests = word
        .outputs_digest_batch(vectors.len())
        .expect("batch digests");

    let mut scalar = NetlistSimulator::new(&netlist).expect("scalar sim");
    for (lane, v) in vectors.iter().enumerate() {
        scalar.set_input("a", v.0 & mask).expect("set");
        scalar.set_input("b", v.1 & mask).expect("set");
        scalar.set_input("c", v.2 & mask).expect("set");
        scalar.set_key(&lane_keys[lane]).expect("key");
        scalar.settle().expect("settle");
        prop_assert_eq!(
            word.output_lane("y", lane).expect("lane"),
            scalar.output("y").expect("y"),
            "W={} lane {} of expr {}",
            W,
            lane,
            src
        );
        let digest = scalar.outputs_digest().expect("digest");
        prop_assert_eq!(word.outputs_digest_lane(lane).expect("lane digest"), digest);
        prop_assert_eq!(batch_digests[lane], digest);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn lowering_matches_rtl_simulation_for_random_expressions(
        expr in arb_expr(3),
        width in 1u32..=16,
        stim in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..6),
    ) {
        let src = format!(
            "module t(a, b, c, y);\n input [{w}:0] a, b, c;\n output [{w}:0] y;\n assign y = {expr};\nendmodule",
            w = width - 1
        );
        let module = parse_verilog(&src).expect("generated source parses");
        let netlist = lower_module(&module).expect("expression lowers");
        let mut rtl = mlrl::rtl::sim::Simulator::new(&module).expect("rtl sim");
        let mut gate = NetlistSimulator::new(&netlist).expect("gate sim");
        let mask = if width >= 64 { u64::MAX } else { (1 << width) - 1 };
        for (a, b, c) in stim {
            for (name, v) in [("a", a), ("b", b), ("c", c)] {
                rtl.set_input(name, v & mask).expect("set");
                gate.set_input(name, v & mask).expect("set");
            }
            rtl.settle().expect("settle");
            gate.settle().expect("settle");
            prop_assert_eq!(
                rtl.get("y").expect("y"),
                gate.output("y").expect("y"),
                "expr {} on ({}, {}, {})", src, a & mask, b & mask, c & mask
            );
        }
    }

    #[test]
    fn builder_arithmetic_is_bit_exact(
        a in any::<u64>(),
        b in any::<u64>(),
        wa in 1usize..=64,
        wb in 1usize..=64,
    ) {
        let mask = |v: u64, w: usize| if w >= 64 { v } else { v & ((1 << w) - 1) };
        let (av, bv) = (mask(a, wa), mask(b, wb));
        let mut builder = NetlistBuilder::new(Netlist::new("t"));
        let la = builder.const_lane(av);
        let lb = builder.const_lane(bv);
        // Constant lanes fold completely, so lane_const gives the result of
        // the full 64-bit circuit with zero gates built.
        let cases: Vec<(u64, Lane)> = vec![
            (av.wrapping_add(bv), builder.add(la, lb)),
            (av.wrapping_sub(bv), builder.sub(la, lb)),
            (av.wrapping_mul(bv), builder.mul(la, lb)),
            (av.checked_div(bv).unwrap_or(0), builder.divmod(la, lb).0),
            (av.checked_rem(bv).unwrap_or(0), builder.divmod(la, lb).1),
            (if bv >= 64 { 0 } else { av << bv }, builder.shl(la, lb)),
            (if bv >= 64 { 0 } else { av >> bv }, builder.shr(la, lb)),
            ((av < bv) as u64, {
                let bit = builder.lt(la, lb);
                builder.bit_lane(bit)
            }),
            ((av == bv) as u64, {
                let bit = builder.eq(la, lb);
                builder.bit_lane(bit)
            }),
        ];
        for (want, lane) in cases {
            prop_assert_eq!(builder.lane_const(lane), Some(want));
        }
        prop_assert!(builder.netlist().gates().is_empty(), "constants must fold");
    }

    #[test]
    fn gate_locking_preserves_function_under_correct_key(
        seed in any::<u64>(),
        bits in 1usize..12,
        use_mux in any::<bool>(),
    ) {
        let src = "module t(a, b, y);\n input [7:0] a, b;\n output [7:0] y;\n wire [7:0] w;\n assign w = a * b;\n assign y = (w ^ a) + b;\nendmodule";
        let module = parse_verilog(src).expect("parses");
        let mut base = lower_module(&module).expect("lowers");
        base.sweep();
        let mut locked = base.clone();
        let key = if use_mux {
            mux_lock(&mut locked, bits, seed).expect("locks")
        } else {
            xor_xnor_lock(&mut locked, bits, seed).expect("locks")
        };
        let check = check_netlists(&base, &locked, &[], key.bits(), 40, seed ^ 1).expect("checks");
        prop_assert!(check.is_equivalent(), "{:?}", check);
        // Flipping one random key bit must keep the netlist well-formed and
        // simulable (corruption is likely but not universal per bit).
        let mut wrong = key.bits().to_vec();
        let flip = (seed as usize) % wrong.len();
        wrong[flip] ^= true;
        let _ = check_netlists(&base, &locked, &[], &wrong, 10, seed ^ 2).expect("still runs");
    }

    #[test]
    fn word_sim_lane_i_matches_scalar_eval_of_vector_i(
        expr in arb_expr(3),
        width in 1u32..=16,
        vectors in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..64),
        keys in proptest::collection::vec(any::<u64>(), 1..16),
        bits in 1usize..6,
        seed in any::<u64>(),
    ) {
        // A random locked netlist driven with up to 64 input vectors (and a
        // per-lane key sweep) in one walk; every lane must equal an
        // independent scalar simulation of that vector and key.
        lane_matches_scalar::<1>(&expr, width, &vectors, &keys, bits, seed)?;
    }

    #[test]
    fn tseitin_models_agree_with_netlist_simulation(
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let src = "module t(a, b, y);\n input [5:0] a, b;\n output [5:0] y;\n assign y = (a + b) ^ (a & b);\nendmodule";
        let module = parse_verilog(src).expect("parses");
        let mut netlist = lower_module(&module).expect("lowers");
        netlist.sweep();
        let (av, bv) = (a & 63, b & 63);
        let mut sim = NetlistSimulator::new(&netlist).expect("sim");
        sim.set_input("a", av).expect("set");
        sim.set_input("b", bv).expect("set");
        sim.settle().expect("settle");
        let want = sim.output("y").expect("y");

        let mut cnf = CnfBuilder::new();
        let t = cnf.true_lit();
        let inputs: Vec<_> = netlist
            .inputs()
            .iter()
            .flat_map(|p| {
                let v = if p.name == "a" { av } else { bv };
                (0..p.width()).map(move |i| if v >> i & 1 == 1 { t } else { t.inverted() })
            })
            .collect();
        let encoder = CircuitEncoder::new(&netlist).expect("encodes");
        let lits = encoder.copy(&mut cnf, &inputs, &[]);
        let result = Solver::from_builder(&cnf).solve();
        let model = result.model().expect("sat");
        let mut got = 0u64;
        for (i, bit) in netlist.port("y").expect("y").bits.iter().enumerate() {
            let lit = lits[bit.index()];
            if lit.value_under(model[lit.var().index()]) {
                got |= 1 << i;
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn cross_level_equivalence_on_random_locked_modules(
        seed in any::<u64>(),
    ) {
        // Lock a fixed small design with a random ASSURE key and check the
        // lowered form end to end (ternary mux trees included).
        let src = "module t(a, b, y);\n input [7:0] a, b;\n output [7:0] y;\n wire [7:0] w0, w1;\n assign w0 = a + b;\n assign w1 = w0 * a;\n assign y = w1 - b;\nendmodule";
        let mut module = parse_verilog(src).expect("parses");
        let key = mlrl::locking::assure::lock_operations(
            &mut module,
            &mlrl::locking::assure::AssureConfig::random(3, seed),
        )
        .expect("locks");
        let bits: Vec<bool> =
            (0..module.key_width()).map(|i| key.bit(i).unwrap_or(false)).collect();
        let netlist = lower_module(&module).expect("lowers");
        let check =
            check_module_vs_netlist(&module, &netlist, &bits, 25, 0, seed).expect("checks");
        prop_assert!(check.is_equivalent(), "{:?}", check);
    }
}

/// Acceptance floor for the optimization pipeline: on at least one of
/// the paper's designs the `O2` pipeline must strip ≥ 20% of the lowered
/// gates — and prove it changed nothing observable.
#[test]
fn o2_reduces_a_paper_design_at_least_20_percent() {
    use mlrl::rtl::bench_designs::{benchmark_by_name, generate_with_width};

    let spec = benchmark_by_name("USB_PHY").expect("known benchmark");
    let module = generate_with_width(&spec, 42, 8);
    let mut base = lower_module(&module).expect("lowers");
    base.sweep();
    let mut opt = base.clone();
    let stats = optimize(&mut opt, OptLevel::O2);
    assert!(opt.validate().is_ok());
    assert!(
        stats.reduction() >= 0.20,
        "USB_PHY O2 reduction regressed below the 20% floor: {} -> {} ({:.1}%)",
        stats.gates_before,
        stats.gates_after,
        100.0 * stats.reduction()
    );
    let check = check_netlists(&base, &opt, &[], &[], 200, 7).expect("checks");
    assert!(check.is_equivalent(), "{check:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn optimizer_preserves_function_for_random_expressions(
        expr in arb_expr(3),
        width in 1u32..=12,
        seed in any::<u64>(),
    ) {
        // The pipeline's core contract: for any netlist, `optimize` at
        // every level leaves the observable function untouched.
        let src = format!(
            "module t(a, b, c, y);\n input [{w}:0] a, b, c;\n output [{w}:0] y;\n assign y = {expr};\nendmodule",
            w = width - 1
        );
        let module = parse_verilog(&src).expect("generated source parses");
        let mut base = lower_module(&module).expect("lowers");
        base.sweep();
        for level in [OptLevel::O1, OptLevel::O2] {
            let mut opt = base.clone();
            let stats = optimize(&mut opt, level);
            prop_assert!(opt.validate().is_ok());
            prop_assert!(stats.gates_after <= stats.gates_before);
            let check =
                check_netlists(&base, &opt, &[], &[], 48, seed).expect("checks");
            prop_assert!(check.is_equivalent(), "{level}: {check:?} for {src}");
        }
    }

    #[test]
    fn optimize_and_lock_commute_and_round_trip_serdes(
        seed in any::<u64>(),
        bits in 1usize..10,
    ) {
        // Differential fuzzing of the two pass orders the engine can
        // produce: optimize-then-lock (the campaign pipeline) vs
        // lock-then-optimize (what an adversary with the optimizer would
        // do). Both must survive a serdes round trip byte-stably and
        // agree with each other under their correct keys.
        let src = "module t(a, b, y);\n input [7:0] a, b;\n output [7:0] y;\n wire [7:0] w;\n assign w = (a & b) ^ (a + b);\n assign y = w | (a ^ 8'd85);\nendmodule";
        let module = parse_verilog(src).expect("parses");
        let mut base = lower_module(&module).expect("lowers");
        base.sweep();

        let mut opt_first = base.clone();
        optimize(&mut opt_first, OptLevel::O2);
        let key_a = xor_xnor_lock(&mut opt_first, bits, seed).expect("locks optimized");

        let mut lock_first = base.clone();
        let key_b = xor_xnor_lock(&mut lock_first, bits, seed).expect("locks base");
        optimize(&mut lock_first, OptLevel::O2);
        prop_assert!(lock_first.validate().is_ok());

        for n in [&opt_first, &lock_first] {
            let text = emit_netlist(n);
            let back = parse_netlist(&text).expect("round-trips");
            prop_assert_eq!(&emit_netlist(&back), &text, "serdes is byte-stable");
        }
        let check = check_netlists(
            &opt_first,
            &lock_first,
            key_a.bits(),
            key_b.bits(),
            40,
            seed ^ 3,
        )
        .expect("checks");
        prop_assert!(check.is_equivalent(), "{check:?}");
    }
}

proptest! {
    // Fewer cases: each one checks up to 256 lanes at two widths.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn wide_sim_lane_i_matches_scalar_eval_past_64(
        expr in arb_expr(2),
        width in 1u32..=8,
        vectors in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 65..257),
        keys in proptest::collection::vec(any::<u64>(), 1..16),
        bits in 1usize..6,
        seed in any::<u64>(),
    ) {
        // The same lane property at W=4 (up to fully packed) and W=8
        // (partially filled): always >64 vectors, so the words past the
        // first — the ones the scalar-era simulator never had — are live.
        lane_matches_scalar::<4>(&expr, width, &vectors, &keys, bits, seed)?;
        lane_matches_scalar::<8>(&expr, width, &vectors, &keys, bits, seed)?;
    }
}
