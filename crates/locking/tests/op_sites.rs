//! The incremental op-site index against the reference walk: after every
//! step of a random lock/undo sequence, `OpSites` lists exactly the sites
//! of `visit::binary_ops`, in the same order, with the same spans as a
//! fresh build.

use mlrl_locking::key::Key;
use mlrl_locking::lock_step::{lock_type, undo_lock, LockTxn, OpSites};
use mlrl_locking::odt::Odt;
use mlrl_locking::pairs::PairTable;
use mlrl_rtl::ast::{Expr, ExprId};
use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
use mlrl_rtl::op::{BinaryOp, UnaryOp, ALL_BINARY_OPS};
use mlrl_rtl::{visit, Module};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generated benchmark designs; their operands are shared between many
/// operations through the wires they read.
const DESIGNS: [&str; 4] = ["N_1023", "DES3", "SHA256", "SASC"];

/// A random expression DAG: nested operations whose operands are drawn
/// from every earlier node, so subexpressions are shared within and
/// across roots and wraps land inside other sites' spans.
fn random_dag(seed: u64) -> Module {
    use BinaryOp::*;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Module::new("dag");
    let mut pool: Vec<ExprId> = Vec::new();
    for name in ["a", "b", "c"] {
        m.add_input(name, 16).expect("input");
        pool.push(m.alloc_expr(Expr::Ident(name.into())));
    }
    pool.push(m.alloc_expr(Expr::Const {
        value: 3,
        width: None,
    }));
    for _ in 0..rng.gen_range(8..48) {
        let kind = rng.gen_range(0..10);
        let op = [Add, Sub, Mul, Xor, And, Or][rng.gen_range(0..6usize)];
        let mut pick = || pool[rng.gen_range(0..pool.len())];
        let node = match kind {
            0 => Expr::Unary {
                op: UnaryOp::Not,
                arg: pick(),
            },
            1 => Expr::Ternary {
                cond: pick(),
                then_expr: pick(),
                else_expr: pick(),
            },
            _ => Expr::Binary {
                op,
                lhs: pick(),
                rhs: pick(),
            },
        };
        pool.push(m.alloc_expr(node));
    }
    for k in 0..rng.gen_range(1..6) {
        let wire = format!("w{k}");
        m.add_wire(&wire, 16).expect("wire");
        let root = pool[rng.gen_range(pool.len() / 2..pool.len())];
        m.add_assign(&wire, root).expect("assign");
    }
    m
}

fn assert_index_matches(m: &Module, sites: &OpSites) -> Result<(), TestCaseError> {
    prop_assert_eq!(sites.iter().collect::<Vec<_>>(), visit::binary_ops(m));
    prop_assert_eq!(sites, &OpSites::build(m));
    Ok(())
}

/// Runs `steps` random locks (paired, unpaired, and HRA-style tentative
/// lock → undo → lock) and undos, checking the index after every step,
/// then unwinds everything back to the start.
fn lock_undo_sequence(mut m: Module, seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let table = PairTable::fixed();
    let lockable: Vec<_> = ALL_BINARY_OPS
        .into_iter()
        .filter(|&op| table.is_lockable(op))
        .collect();
    let mut odt = Odt::load(&m, table);
    let mut sites = OpSites::build(&m);
    let (m0, sites0) = (m.clone(), sites.clone());
    let mut key = Key::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut txns: Vec<LockTxn> = Vec::new();
    assert_index_matches(&m, &sites)?;

    for _ in 0..steps {
        let ty = lockable[rng.gen_range(0..lockable.len())];
        match rng.gen_range(0..4) {
            mode @ (0 | 1) => {
                let pair_mode = mode == 1;
                if let Ok((_, txn)) = lock_type(
                    ty, &mut odt, &mut m, &mut sites, &mut key, pair_mode, &mut rng,
                ) {
                    txns.push(txn);
                }
            }
            2 => {
                if let Ok((_, txn)) =
                    lock_type(ty, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng)
                {
                    assert_index_matches(&m, &sites)?;
                    undo_lock(txn, &mut m, &mut sites, &mut key, &mut odt).expect("undo");
                    assert_index_matches(&m, &sites)?;
                    let pair_mode = rng.gen_bool(0.5);
                    if let Ok((_, txn)) = lock_type(
                        ty, &mut odt, &mut m, &mut sites, &mut key, pair_mode, &mut rng,
                    ) {
                        txns.push(txn);
                    }
                }
            }
            _ => {
                if let Some(txn) = txns.pop() {
                    undo_lock(txn, &mut m, &mut sites, &mut key, &mut odt).expect("undo");
                }
            }
        }
        assert_index_matches(&m, &sites)?;
    }

    while let Some(txn) = txns.pop() {
        undo_lock(txn, &mut m, &mut sites, &mut key, &mut odt).expect("undo");
        assert_index_matches(&m, &sites)?;
    }
    prop_assert_eq!(m, m0);
    prop_assert_eq!(sites, sites0);
    prop_assert!(key.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_tracks_the_walk_on_generated_designs(
        design in 0usize..DESIGNS.len(),
        gen_seed in 0u64..6,
        seed in any::<u64>(),
        steps in 10usize..60,
    ) {
        let spec = benchmark_by_name(DESIGNS[design]).expect("benchmark");
        lock_undo_sequence(generate(&spec, gen_seed), seed, steps)?;
    }

    #[test]
    fn index_tracks_the_walk_on_shared_nested_expressions(
        dag_seed in any::<u64>(),
        seed in any::<u64>(),
        steps in 10usize..80,
    ) {
        lock_undo_sequence(random_dag(dag_seed), seed, steps)?;
    }
}
