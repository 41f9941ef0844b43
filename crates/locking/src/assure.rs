//! ASSURE RTL locking (§2.3 of the paper).
//!
//! Three obfuscation techniques from the ASSURE paper \[5\]:
//!
//! - **Operation obfuscation** ([`lock_operations`]): each selected binary
//!   operation is replaced by a key-controlled multiplexer choosing between
//!   the real operation and a paired dummy (Fig. 3a). Selection is either
//!   *serial* (design topology order — ASSURE's default) or *random*.
//!   Locking an already-locked design nests multiplexers (Fig. 3b), which is
//!   how the SnapShot training set is produced (self-referencing).
//! - **Branch obfuscation** ([`lock_branches`]): each `if` condition is
//!   XORed with a key bit; when the bit is 1 the stored condition is the
//!   complement (the paper's `a > b` → `(a <= b) ^ K` example).
//! - **Constant obfuscation** ([`lock_constants`]): literals are extracted
//!   into key slices (`a = 4'b1101` → `a = K[3:0]`).

use mlrl_rtl::ast::{Expr, ExprId, SeqStmt};
use mlrl_rtl::op::{BinaryOp, UnaryOp};
use mlrl_rtl::{visit, Module};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::{LockError, Result};
use crate::key::{Key, KeyBitKind};
use crate::pairs::PairTable;

/// Operation-selection strategy for ASSURE operation obfuscation (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Selection {
    /// Deterministic, topology-order selection — ASSURE's standard mode.
    #[default]
    Serial,
    /// Uniformly shuffled selection.
    Random,
}

/// Configuration for ASSURE operation locking.
#[derive(Debug, Clone)]
pub struct AssureConfig {
    /// Selection strategy.
    pub selection: Selection,
    /// Pair table (use [`PairTable::fixed`] unless demonstrating §3.2).
    pub pair_table: PairTable,
    /// Number of operation key bits to insert.
    pub budget: usize,
    /// RNG seed (used for key values, and for selection order in
    /// [`Selection::Random`] mode).
    pub seed: u64,
}

impl AssureConfig {
    /// Serial ASSURE with the fixed pair table.
    pub fn serial(budget: usize, seed: u64) -> Self {
        Self {
            selection: Selection::Serial,
            pair_table: PairTable::fixed(),
            budget,
            seed,
        }
    }

    /// Random-selection ASSURE with the fixed pair table (used for
    /// relocking/self-referencing).
    pub fn random(budget: usize, seed: u64) -> Self {
        Self {
            selection: Selection::Random,
            pair_table: PairTable::fixed(),
            budget,
            seed,
        }
    }
}

/// Applies ASSURE operation obfuscation, consuming `cfg.budget` key bits.
///
/// Returns the key bits added by *this call*, in order; if the module was
/// already locked, bit `i` of the returned key drives `K[w + i]` where `w`
/// was the module's key width before the call.
///
/// Each pass plans its wraps with [`plan_pass`] over the module's
/// [`lockable_sites`], then wraps them in plan order. If the budget exceeds
/// the number of currently lockable operations the locker runs additional
/// passes over the (now nested) design, relocking operations inside
/// multiplexer branches — exactly ASSURE's behaviour when a long key is
/// requested.
///
/// # Errors
///
/// Returns [`LockError::NothingToLock`] if the design has no lockable
/// operations and `cfg.budget > 0`.
pub fn lock_operations(module: &mut Module, cfg: &AssureConfig) -> Result<Key> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut key = Key::new();
    while key.len() < cfg.budget {
        let sites = lockable_sites(module, &cfg.pair_table);
        let bits = cfg.budget - key.len();
        for wrap in plan_pass(&sites, cfg.selection, &cfg.pair_table, bits, &mut rng)? {
            module.wrap_in_key_mux(sites[wrap.site].id, wrap.key_value, wrap.dummy)?;
            key.push(wrap.key_value, KeyBitKind::Operation);
        }
    }
    Ok(key)
}

/// The reachable binary operations of `module` that `table` can lock, in
/// walk order: the site list one [`lock_operations`] pass selects from.
pub fn lockable_sites(module: &Module, table: &PairTable) -> Vec<visit::OpSite> {
    let mut sites = visit::binary_ops(module);
    sites.retain(|s| table.is_lockable(s.op));
    sites
}

/// One wrap planned by [`plan_pass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedWrap {
    /// Position of the wrapped operation in the site list of the pass.
    pub site: usize,
    /// The dummy operation paired with it.
    pub dummy: BinaryOp,
    /// The key bit: `true` puts the real operation on the then branch.
    pub key_value: bool,
}

/// Plans one pass of [`lock_operations`] over `sites` without touching the
/// module: orders the sites by `selection` (shuffling them under
/// [`Selection::Random`]), then, for the first `min(bits, sites.len())`
/// of them, looks up the dummy in `table` and draws one key bit from
/// `rng`. These are the draws the wrap loop makes, in the same order, so a
/// caller that seeds `rng` with [`AssureConfig::seed`] learns what a
/// one-pass lock would do.
///
/// # Errors
///
/// Returns [`LockError::NothingToLock`] if `sites` is empty, and
/// [`LockError::UnlockableType`] if `table` has no dummy for a planned
/// site.
pub fn plan_pass(
    sites: &[visit::OpSite],
    selection: Selection,
    table: &PairTable,
    bits: usize,
    rng: &mut StdRng,
) -> Result<Vec<PlannedWrap>> {
    if sites.is_empty() {
        return Err(LockError::NothingToLock);
    }
    let mut order: Vec<usize> = (0..sites.len()).collect();
    if selection == Selection::Random {
        order.shuffle(rng);
    }
    order.truncate(bits);
    order
        .into_iter()
        .map(|site| {
            let op = sites[site].op;
            let dummy = table.dummy_for(op).ok_or(LockError::UnlockableType(op))?;
            Ok(PlannedWrap {
                site,
                dummy,
                key_value: rng.gen(),
            })
        })
        .collect()
}

/// Applies ASSURE branch obfuscation to every `if` condition in the
/// module's clocked processes.
///
/// For key bit value 1 the stored condition is complemented
/// (`a > b` becomes `(a <= b) ^ K[i]`); for value 0 it is kept
/// (`cond ^ K[i]`). Either way the locked design behaves identically to the
/// original under the correct key and inverts the branch under a wrong bit.
///
/// Returns the key bits added by this call (kind
/// [`KeyBitKind::Branch`]).
pub fn lock_branches(module: &mut Module, seed: u64) -> Result<Key> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut key = Key::new();

    // Collect the condition ids first (can't mutate while iterating).
    fn collect_conds(stmts: &[SeqStmt], out: &mut Vec<ExprId>) {
        for s in stmts {
            if let SeqStmt::If {
                cond,
                then_body,
                else_body,
            } = s
            {
                out.push(*cond);
                collect_conds(then_body, out);
                collect_conds(else_body, out);
            }
        }
    }
    let mut conds = Vec::new();
    for blk in module.always_blocks() {
        collect_conds(&blk.body, &mut conds);
    }

    let mut replacements: Vec<(ExprId, ExprId)> = Vec::new();
    for cond in conds {
        let key_value: bool = rng.gen();
        let bit = module.alloc_key_bit();
        key.push(key_value, KeyBitKind::Branch);
        // Build `stored ^ K[bit]` where stored is the (possibly
        // complemented) condition.
        let stored = if key_value {
            complement(module, cond)?
        } else {
            cond
        };
        let key_ref = module.alloc_expr(Expr::KeyBit(bit));
        let xored = module.alloc_expr(Expr::Binary {
            op: BinaryOp::Xor,
            lhs: stored,
            rhs: key_ref,
        });
        replacements.push((cond, xored));
    }

    // Swap each `if` condition to its locked form.
    fn rewrite(stmts: &mut [SeqStmt], map: &[(ExprId, ExprId)]) {
        for s in stmts {
            if let SeqStmt::If {
                cond,
                then_body,
                else_body,
            } = s
            {
                if let Some((_, new)) = map.iter().find(|(old, _)| old == cond) {
                    *cond = *new;
                }
                rewrite(then_body, map);
                rewrite(else_body, map);
            }
        }
    }
    for blk in module.always_blocks_mut() {
        rewrite(&mut blk.body, &replacements);
    }
    Ok(key)
}

/// Builds the logical complement of the expression at `id`: comparison
/// operators flip to their negations (`>` → `<=`), everything else is
/// wrapped in `!`.
fn complement(module: &mut Module, id: ExprId) -> Result<ExprId> {
    use BinaryOp::*;
    let flipped = match *module.expr(id)? {
        Expr::Binary { op: Lt, lhs, rhs } => Some(Expr::Binary { op: Ge, lhs, rhs }),
        Expr::Binary { op: Ge, lhs, rhs } => Some(Expr::Binary { op: Lt, lhs, rhs }),
        Expr::Binary { op: Gt, lhs, rhs } => Some(Expr::Binary { op: Le, lhs, rhs }),
        Expr::Binary { op: Le, lhs, rhs } => Some(Expr::Binary { op: Gt, lhs, rhs }),
        Expr::Binary { op: Eq, lhs, rhs } => Some(Expr::Binary { op: Neq, lhs, rhs }),
        Expr::Binary { op: Neq, lhs, rhs } => Some(Expr::Binary { op: Eq, lhs, rhs }),
        _ => None,
    };
    Ok(match flipped {
        Some(e) => module.alloc_expr(e),
        None => module.alloc_expr(Expr::Unary {
            op: UnaryOp::LNot,
            arg: id,
        }),
    })
}

/// Applies ASSURE constant obfuscation: every reachable literal wider than
/// `min_bits` significant bits is replaced by a key slice holding its value.
///
/// Returns the key bits added by this call (kind [`KeyBitKind::Constant`]),
/// least-significant constant bit first.
pub fn lock_constants(module: &mut Module, min_bits: u32) -> Result<Key> {
    let mut key = Key::new();
    let mut targets: Vec<(ExprId, u64, u32)> = Vec::new();
    visit::walk_exprs(module, |id, expr| {
        if let Expr::Const { value, width } = expr {
            let bits = width.unwrap_or_else(|| 64 - value.leading_zeros()).max(1);
            if bits >= min_bits {
                targets.push((id, *value, bits));
            }
        }
    });
    for (id, value, bits) in targets {
        let lsb = module.alloc_key_slice(bits);
        for b in 0..bits {
            key.push((value >> b) & 1 == 1, KeyBitKind::Constant);
        }
        module.replace_expr(id, Expr::KeySlice { lsb, width: bits })?;
    }
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_rtl::ast::AlwaysBlock;
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::sim::Simulator;

    fn fir() -> Module {
        generate(&benchmark_by_name("FIR").unwrap(), 3)
    }

    /// Simulates `module` on a fixed input pattern and digests all outputs.
    fn run(module: &Module, key: &[bool], salt: u64) -> u64 {
        let mut sim = Simulator::new(module).unwrap();
        for (i, p) in module.ports().iter().enumerate() {
            if p.dir == mlrl_rtl::ast::PortDir::Input && p.name != "clk" {
                sim.set_input(&p.name, (i as u64 + 1).wrapping_mul(0x9e3779b9) ^ salt)
                    .unwrap();
            }
        }
        sim.set_key(key).unwrap();
        sim.settle().unwrap();
        sim.outputs_digest().unwrap()
    }

    #[test]
    fn serial_locking_consumes_exact_budget() {
        let mut m = fir();
        let key = lock_operations(&mut m, &AssureConfig::serial(20, 1)).unwrap();
        assert_eq!(key.len(), 20);
        assert_eq!(m.key_width(), 20);
        assert_eq!(visit::key_mux_count(&m), 20);
    }

    #[test]
    fn correct_key_preserves_function() {
        let mut m = fir();
        let golden = run(&m, &[], 0);
        let key = lock_operations(&mut m, &AssureConfig::serial(30, 2)).unwrap();
        for salt in 0..4 {
            let golden = if salt == 0 {
                golden
            } else {
                run(&fir(), &[], salt)
            };
            assert_eq!(run(&m, key.as_bits(), salt), golden, "salt {salt}");
        }
    }

    #[test]
    fn wrong_key_corrupts_some_output() {
        let mut m = fir();
        let key = lock_operations(&mut m, &AssureConfig::serial(30, 2)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut corrupted = false;
        for _ in 0..8 {
            let wrong = key.random_wrong_key(&mut rng);
            for salt in 0..4 {
                if run(&m, &wrong, salt) != run(&m, key.as_bits(), salt) {
                    corrupted = true;
                }
            }
        }
        assert!(corrupted, "wrong keys never corrupted the output");
    }

    #[test]
    fn budget_beyond_ops_relocks_nested() {
        let spec = benchmark_by_name("IIR").unwrap();
        let mut m = generate(&spec, 9);
        let total = spec.total_ops();
        let key = lock_operations(&mut m, &AssureConfig::serial(total + 10, 3)).unwrap();
        assert_eq!(key.len(), total + 10);
        assert_eq!(visit::key_mux_count(&m), total + 10);
    }

    #[test]
    fn random_selection_differs_from_serial() {
        let mut a = fir();
        let mut b = fir();
        lock_operations(&mut a, &AssureConfig::serial(10, 7)).unwrap();
        lock_operations(&mut b, &AssureConfig::random(10, 7)).unwrap();
        assert_ne!(a, b, "random selection should pick different sites");
    }

    #[test]
    fn relocking_preserves_function_with_both_keys() {
        let mut m = fir();
        let k1 = lock_operations(&mut m, &AssureConfig::serial(15, 1)).unwrap();
        let golden: Vec<u64> = (0..4).map(|s| run(&fir(), &[], s)).collect();
        // Relock (self-reference) with a second round of random locking.
        let k2 = lock_operations(&mut m, &AssureConfig::random(15, 99)).unwrap();
        let full: Vec<bool> = k1.as_bits().iter().chain(k2.as_bits()).copied().collect();
        for (s, g) in golden.iter().enumerate() {
            assert_eq!(run(&m, &full, s as u64), *g);
        }
    }

    #[test]
    fn branch_locking_preserves_behaviour() {
        let mut m = Module::new("seq");
        m.add_input("clk", 1).unwrap();
        m.add_input("d", 8).unwrap();
        m.add_reg("q", 8).unwrap();
        m.add_output("y", 8).unwrap();
        let d = m.alloc_expr(Expr::Ident("d".into()));
        let three = m.alloc_expr(Expr::Const {
            value: 3,
            width: None,
        });
        let cond = m.alloc_expr(Expr::Binary {
            op: BinaryOp::Gt,
            lhs: d,
            rhs: three,
        });
        let inc = m.alloc_expr(Expr::Ident("d".into()));
        let q = m.alloc_expr(Expr::Ident("q".into()));
        m.add_always(AlwaysBlock {
            clock: "clk".into(),
            body: vec![SeqStmt::If {
                cond,
                then_body: vec![SeqStmt::NonBlocking {
                    lhs: "q".into(),
                    rhs: inc,
                }],
                else_body: vec![],
            }],
        })
        .unwrap();
        let yq = m.alloc_expr(Expr::Ident("q".into()));
        m.add_assign("y", yq).unwrap();
        let _ = q;

        let unlocked = m.clone();
        let key = lock_branches(&mut m, 4).unwrap();
        assert_eq!(key.len(), 1);
        assert_eq!(key.kind(0), Some(KeyBitKind::Branch));

        for d_val in [0u64, 2, 3, 4, 200] {
            let mut s0 = Simulator::new(&unlocked).unwrap();
            s0.set_input("d", d_val).unwrap();
            s0.tick().unwrap();
            let mut s1 = Simulator::new(&m).unwrap();
            s1.set_input("d", d_val).unwrap();
            s1.set_key(key.as_bits()).unwrap();
            s1.tick().unwrap();
            assert_eq!(s1.get("y").unwrap(), s0.get("y").unwrap(), "d={d_val}");
            // Wrong bit inverts the branch.
            let mut s2 = Simulator::new(&m).unwrap();
            s2.set_input("d", d_val).unwrap();
            s2.set_key(&[!key.bit(0).unwrap()]).unwrap();
            s2.tick().unwrap();
            if d_val != 3 {
                // d > 3 differs from !(d > 3) except where both write q=d... the
                // else branch writes nothing, so outputs differ whenever the
                // branch outcome matters.
                let took_then_orig = d_val > 3;
                let expected = if !took_then_orig { d_val } else { 0 };
                assert_eq!(s2.get("y").unwrap(), expected, "wrong key, d={d_val}");
            }
        }
    }

    #[test]
    fn constant_locking_extracts_literals() {
        let mut m = Module::new("c");
        m.add_output("y", 8).unwrap();
        let c = m.alloc_expr(Expr::Const {
            value: 13,
            width: Some(4),
        });
        m.add_assign("y", c).unwrap();
        let key = lock_constants(&mut m, 1).unwrap();
        // a = 4'b1101 -> a = K[3:0] with key 1101 (lsb first: 1,0,1,1).
        assert_eq!(key.len(), 4);
        assert_eq!(key.as_bits(), &[true, false, true, true]);
        assert_eq!(m.key_width(), 4);
        let mut sim = Simulator::new(&m).unwrap();
        sim.set_key(key.as_bits()).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), 13);
        // A wrong key yields a different constant.
        let mut sim = Simulator::new(&m).unwrap();
        sim.set_key(&[false, false, true, true]).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), 12);
    }

    #[test]
    fn constant_locking_respects_min_bits() {
        let mut m = Module::new("c");
        m.add_input("a", 8).unwrap();
        m.add_output("y", 8).unwrap();
        let a = m.alloc_expr(Expr::Ident("a".into()));
        let small = m.alloc_expr(Expr::Const {
            value: 1,
            width: Some(1),
        });
        let shl = m.alloc_expr(Expr::Binary {
            op: BinaryOp::Shl,
            lhs: a,
            rhs: small,
        });
        m.add_assign("y", shl).unwrap();
        let key = lock_constants(&mut m, 4).unwrap();
        assert!(
            key.is_empty(),
            "1-bit constant must be skipped at min_bits=4"
        );
    }

    #[test]
    fn empty_design_errors() {
        let mut m = Module::new("empty");
        m.add_input("a", 8).unwrap();
        m.add_output("y", 8).unwrap();
        let a = m.alloc_expr(Expr::Ident("a".into()));
        m.add_assign("y", a).unwrap();
        let err = lock_operations(&mut m, &AssureConfig::serial(1, 0)).unwrap_err();
        assert_eq!(err, LockError::NothingToLock);
    }

    #[test]
    fn locking_is_deterministic_per_seed() {
        let mut a = fir();
        let mut b = fir();
        let ka = lock_operations(&mut a, &AssureConfig::random(25, 11)).unwrap();
        let kb = lock_operations(&mut b, &AssureConfig::random(25, 11)).unwrap();
        assert_eq!(a, b);
        assert_eq!(ka, kb);
    }
}
