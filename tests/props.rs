//! Property-based tests over the core invariants:
//!
//! - emit → parse round trips preserve semantics for arbitrary expressions,
//! - ODT incremental bookkeeping always matches a fresh census reload,
//! - lock/undo sequences restore the module exactly,
//! - the security metric stays within `[0, 100]` and the global variant is
//!   monotonic under balancing locks,
//! - locking with any scheme preserves function under the correct key.

use mlrl::locking::key::Key;
use mlrl::locking::lock_step::{lock_type, undo_lock, OpSites};
use mlrl::locking::metric::SecurityMetric;
use mlrl::locking::odt::Odt;
use mlrl::locking::pairs::PairTable;
use mlrl::rtl::ast::{Expr, ExprId, Module, PortDir};
use mlrl::rtl::op::{BinaryOp, UnaryOp, ALL_BINARY_OPS};
use mlrl::rtl::sim::Simulator;
use mlrl::rtl::{emit, parser, visit};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generatable expression tree (no arena ids).
#[derive(Debug, Clone)]
enum ETree {
    Const(u64, Option<u32>),
    Var(u8),
    Un(UnaryOp, Box<ETree>),
    Bin(BinaryOp, Box<ETree>, Box<ETree>),
    Tern(Box<ETree>, Box<ETree>, Box<ETree>),
}

fn etree_strategy() -> impl Strategy<Value = ETree> {
    let leaf = prop_oneof![
        (
            any::<u64>(),
            prop_oneof![Just(None), (1u32..=32).prop_map(Some)]
        )
            .prop_map(|(v, w)| ETree::Const(v & 0xFFFF, w)),
        (0u8..3).prop_map(ETree::Var),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        let op = proptest::sample::select(ALL_BINARY_OPS.to_vec());
        let un = prop_oneof![Just(UnaryOp::Not), Just(UnaryOp::Neg), Just(UnaryOp::LNot)];
        prop_oneof![
            (un, inner.clone()).prop_map(|(u, a)| ETree::Un(u, Box::new(a))),
            (op, inner.clone(), inner.clone()).prop_map(|(o, a, b)| ETree::Bin(
                o,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| ETree::Tern(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

fn build(tree: &ETree, m: &mut Module) -> ExprId {
    match tree {
        ETree::Const(v, w) => {
            let masked = match w {
                Some(w) if *w < 64 => v & ((1u64 << w) - 1),
                _ => *v,
            };
            m.alloc_expr(Expr::Const {
                value: masked,
                width: *w,
            })
        }
        ETree::Var(i) => m.alloc_expr(Expr::Ident(format!("v{i}"))),
        ETree::Un(op, a) => {
            let a = build(a, m);
            m.alloc_expr(Expr::Unary { op: *op, arg: a })
        }
        ETree::Bin(op, a, b) => {
            let a = build(a, m);
            let b = build(b, m);
            m.alloc_expr(Expr::Binary {
                op: *op,
                lhs: a,
                rhs: b,
            })
        }
        ETree::Tern(c, t, e) => {
            let c = build(c, m);
            let t = build(t, m);
            let e = build(e, m);
            m.alloc_expr(Expr::Ternary {
                cond: c,
                then_expr: t,
                else_expr: e,
            })
        }
    }
}

fn module_of(tree: &ETree) -> Module {
    let mut m = Module::new("prop");
    for i in 0..3 {
        m.add_input(format!("v{i}"), 32).expect("fresh input");
    }
    m.add_output("y", 32).expect("fresh output");
    let root = build(tree, &mut m);
    m.add_assign("y", root).expect("assign");
    m
}

fn eval(m: &Module, inputs: &[u64; 3]) -> u64 {
    let mut sim = Simulator::new(m).expect("simulatable");
    for (i, v) in inputs.iter().enumerate() {
        sim.set_input(&format!("v{i}"), *v).expect("input");
    }
    sim.settle().expect("settle");
    sim.get("y").expect("output")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn emit_parse_round_trip_preserves_semantics(
        tree in etree_strategy(),
        inputs in proptest::array::uniform3(any::<u64>()),
    ) {
        let m = module_of(&tree);
        let text = emit::emit_verilog(&m).expect("emit");
        let back = parser::parse_verilog(&text).expect("parse emitted Verilog");
        prop_assert_eq!(visit::op_census(&back), visit::op_census(&m));
        prop_assert_eq!(eval(&back, &inputs), eval(&m, &inputs));
    }

    #[test]
    fn double_emit_is_identical(tree in etree_strategy()) {
        let m = module_of(&tree);
        let t1 = emit::emit_verilog(&m).expect("emit");
        let back = parser::parse_verilog(&t1).expect("parse");
        let t2 = emit::emit_verilog(&back).expect("emit again");
        prop_assert_eq!(t1, t2, "emit must be a fixpoint after one round trip");
    }

    #[test]
    fn odt_bookkeeping_matches_census_reload(
        seed in any::<u64>(),
        locks in 1usize..25,
        ops in proptest::collection::vec(
            (proptest::sample::select(ALL_BINARY_OPS.to_vec()), 1usize..6), 1..5),
    ) {
        let mut m = Module::new("t");
        m.add_input("a", 32).expect("input");
        let mut widx = 0;
        for (op, n) in &ops {
            for _ in 0..*n {
                let w = format!("w{widx}");
                m.add_wire(&w, 32).expect("wire");
                let a = m.alloc_expr(Expr::Ident("a".into()));
                let b = m.alloc_expr(Expr::Ident("a".into()));
                let e = m.alloc_expr(Expr::Binary { op: *op, lhs: a, rhs: b });
                m.add_assign(&w, e).expect("assign");
                widx += 1;
            }
        }
        let mut odt = Odt::load(&m, PairTable::fixed());
        let mut sites = OpSites::build(&m);
        let mut key = Key::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut i = 0usize;
        'outer: for _ in 0..locks {
            // Rotate through op types until one lock succeeds.
            for _ in 0..ALL_BINARY_OPS.len() {
                let ty = ALL_BINARY_OPS[i % ALL_BINARY_OPS.len()];
                i += 1;
                if lock_type(ty, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng).is_ok() {
                    continue 'outer;
                }
            }
            break;
        }
        let reloaded = Odt::load(&m, PairTable::fixed());
        prop_assert_eq!(odt, reloaded, "incremental ODT diverged from census");
    }

    #[test]
    fn lock_undo_sequences_restore_module(
        seed in any::<u64>(),
        n_locks in 1usize..8,
    ) {
        let mut m = Module::new("t");
        m.add_input("a", 32).expect("input");
        for i in 0..10 {
            let w = format!("w{i}");
            m.add_wire(&w, 32).expect("wire");
            let a = m.alloc_expr(Expr::Ident("a".into()));
            let b = m.alloc_expr(Expr::Ident("a".into()));
            let op = if i % 2 == 0 { BinaryOp::Add } else { BinaryOp::Mul };
            let e = m.alloc_expr(Expr::Binary { op, lhs: a, rhs: b });
            m.add_assign(&w, e).expect("assign");
        }
        let snapshot = m.clone();
        let mut odt = Odt::load(&m, PairTable::fixed());
        let odt0 = odt.clone();
        let mut sites = OpSites::build(&m);
        let sites0 = sites.clone();
        let mut key = Key::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut txns = Vec::new();
        for j in 0..n_locks {
            let ty = if j % 2 == 0 { BinaryOp::Add } else { BinaryOp::Mul };
            if let Ok((_, txn)) = lock_type(ty, &mut odt, &mut m, &mut sites, &mut key, j % 3 == 0, &mut rng) {
                txns.push(txn);
            }
        }
        for txn in txns.into_iter().rev() {
            undo_lock(txn, &mut m, &mut sites, &mut key, &mut odt).expect("LIFO undo");
        }
        prop_assert_eq!(m, snapshot);
        prop_assert_eq!(odt, odt0);
        prop_assert_eq!(sites, sites0);
        prop_assert!(key.is_empty());
    }

    #[test]
    fn metric_stays_in_unit_interval(
        adds in 0usize..30,
        subs in 0usize..30,
        shls in 0usize..15,
        dummy_subs in 0usize..40,
    ) {
        let mut m = Module::new("t");
        m.add_input("a", 32).expect("input");
        let mut widx = 0;
        for (op, n) in [(BinaryOp::Add, adds), (BinaryOp::Sub, subs), (BinaryOp::Shl, shls)] {
            for _ in 0..n {
                let w = format!("w{widx}");
                m.add_wire(&w, 32).expect("wire");
                let a = m.alloc_expr(Expr::Ident("a".into()));
                let b = m.alloc_expr(Expr::Ident("a".into()));
                let e = m.alloc_expr(Expr::Binary { op, lhs: a, rhs: b });
                m.add_assign(&w, e).expect("assign");
                widx += 1;
            }
        }
        let mut odt = Odt::load(&m, PairTable::fixed());
        let metric = SecurityMetric::new(&odt);
        prop_assert!((0.0..=100.0).contains(&metric.global(&odt)));
        // Balancing locks only ever move the global metric up.
        let mut last = metric.global(&odt);
        for k in 0..dummy_subs {
            // Alternate between reducing the (+,-) and (<<,>>) imbalance
            // without overshooting (overshoot is not "balancing").
            if odt.get(BinaryOp::Add) > 0 {
                odt.record_added(BinaryOp::Sub);
            } else if odt.get(BinaryOp::Add) < 0 {
                odt.record_added(BinaryOp::Add);
            } else if odt.get(BinaryOp::Shl) > 0 {
                odt.record_added(BinaryOp::Shr);
            } else {
                break;
            }
            let now = metric.global(&odt);
            prop_assert!((0.0..=100.0).contains(&now), "step {k}: {now}");
            prop_assert!(now + 1e-9 >= last, "step {k}: {last} -> {now}");
            last = now;
        }
    }

    #[test]
    fn kpa_is_percentage_and_self_consistent(
        bits in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let mut key = Key::new();
        for b in &bits {
            key.push(*b, mlrl::locking::key::KeyBitKind::Operation);
        }
        prop_assert_eq!(key.kpa(key.as_bits()), 100.0);
        let flipped: Vec<bool> = bits.iter().map(|b| !b).collect();
        prop_assert_eq!(key.kpa(&flipped), 0.0);
        let mut rng = StdRng::seed_from_u64(bits.len() as u64);
        let wrong = key.random_wrong_key(&mut rng);
        let kpa = key.kpa(&wrong);
        prop_assert!((0.0..=100.0).contains(&kpa));
        prop_assert!(kpa < 100.0, "a wrong key can never score 100");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn assure_locking_preserves_function_on_random_designs(
        tree in etree_strategy(),
        seed in any::<u64>(),
        inputs in proptest::array::uniform3(any::<u64>()),
    ) {
        use mlrl::locking::assure::{lock_operations, AssureConfig};
        let original = module_of(&tree);
        let n_ops = visit::binary_ops(&original).len();
        prop_assume!(n_ops > 0);
        let mut locked = original.clone();
        let key = lock_operations(&mut locked, &AssureConfig::random(n_ops.min(6), seed))
            .expect("lockable");
        let mut sim = Simulator::new(&locked).expect("simulatable");
        for (i, v) in inputs.iter().enumerate() {
            sim.set_input(&format!("v{i}"), *v).expect("input");
        }
        sim.set_key(key.as_bits()).expect("key");
        sim.settle().expect("settle");
        prop_assert_eq!(sim.get("y").expect("y"), eval(&original, &inputs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_never_panics_on_arbitrary_text(src in "[ -~\\n]{0,200}") {
        // Any byte soup must produce Ok or Err — never a panic.
        let _ = parser::parse_verilog(&src);
        let _ = parser::parse_design(&src);
    }

    #[test]
    fn lexer_never_panics(src in proptest::string::string_regex(".{0,120}").unwrap()) {
        let _ = mlrl::rtl::lexer::tokenize(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn constant_fold_preserves_semantics(
        tree in etree_strategy(),
        inputs in proptest::array::uniform3(any::<u64>()),
    ) {
        let original = module_of(&tree);
        let mut folded = original.clone();
        mlrl::rtl::transform::constant_fold(&mut folded).expect("fold");
        prop_assert_eq!(eval(&folded, &inputs), eval(&original, &inputs));
    }
}

#[test]
fn port_dir_visibility_smoke() {
    // Keep the imports honest.
    let m = module_of(&ETree::Var(0));
    assert!(m.ports().iter().any(|p| p.dir == PortDir::Output));
}
