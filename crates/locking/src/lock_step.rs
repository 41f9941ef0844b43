//! The `Lock` step (Algorithm 1 of the paper), shared by ERA and HRA.
//!
//! `Lock(T, ODT, D, P)` locks the design following three cases:
//!
//! 1. `ODT[T] > 0` and `!P`: pair a new `T'` dummy with an existing `T`
//!    operation, reducing the excess of `T` (1 key bit).
//! 2. `ODT[T] < 0` and `!P`: pair a new `T` dummy with an existing `T'`
//!    operation, reducing the deficiency of `T` (1 key bit).
//! 3. Otherwise: pair new `T'`- and `T`-type dummies with existing
//!    operations of both types (2 key bits, balance unchanged).
//!
//! Every lock returns a [`LockTxn`] that can undo it exactly — HRA's inner
//! candidate-evaluation loop (Alg. 4, lines 13–22) locks tentatively,
//! measures the metric, and rolls back.
//!
//! # The op-site index
//!
//! A `Lock` step picks uniformly among the reachable operations of a type,
//! in [`binary_ops`](mlrl_rtl::visit::binary_ops) order. [`OpSites`] keeps that list up to date
//! across wraps and undos, so a step never walks the module. Each entry
//! stores the end of its DFS *span*: the positions of the binary sites
//! first visited while the walk is inside that node. Spans nest, because
//! the walk is a depth-first pre-order that visits each node once.
//!
//! Wrapping the site `X` at position `p`, span end `e`, turns `X` into
//! `K ? then : else`, where both branches are fresh binary nodes over
//! `X`'s old operands. The walk now reaches `X`, then the fresh key-bit
//! leaf, then `then`. Everything visited so far is what it was when `X`
//! was visited before, and fresh nodes are reachable only through `X`. So
//! `then` walks `X`'s old operands exactly as `X` did and fills positions
//! `p..e` as before, with `then` itself at `p`. Then the walk reaches
//! `else`, whose operands are already visited: it adds one site, at `e`,
//! and nothing else. After `X` the visited set differs only by the three
//! fresh nodes, so the rest of the order is unchanged, shifted by one.
//! The update is therefore: `then` replaces `X` at `p` (its span still
//! ends at `e`), `else` is inserted at `e` with span end `e + 1`, and
//! every span that covered `p` (the ancestors, `q < p` with `end > p`) or
//! starts at or after `e` has its end moved by one. Undo reverses exactly
//! this, in LIFO order.

use mlrl_rtl::ast::{Expr, ExprId, WrapUndo};
use mlrl_rtl::op::{BinaryOp, ALL_BINARY_OPS};
use mlrl_rtl::visit::OpSite;
use mlrl_rtl::Module;
use rand::Rng;

use crate::error::{LockError, Result};
use crate::key::{Key, KeyBitKind};
use crate::odt::Odt;

/// One reachable binary site and the end (exclusive) of its DFS span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    site: OpSite,
    end: u32,
}

/// The reachable binary-operation sites of a module, in
/// [`visit::binary_ops`](mlrl_rtl::visit::binary_ops) order, kept exact
/// across [`lock_type`] and [`undo_lock`] (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSites {
    entries: Vec<Entry>,
    counts: [u32; ALL_BINARY_OPS.len()],
}

impl OpSites {
    /// Indexes `module` with one walk.
    pub fn build(module: &Module) -> Self {
        enum Step {
            Enter(ExprId),
            Exit(usize),
        }
        let mut sites = Self {
            entries: Vec::new(),
            counts: [0; ALL_BINARY_OPS.len()],
        };
        let mut visited = vec![false; module.arena().len()];
        let mut stack: Vec<Step> = module.roots().into_iter().rev().map(Step::Enter).collect();
        while let Some(step) = stack.pop() {
            let id = match step {
                Step::Exit(pos) => {
                    sites.entries[pos].end = sites.entries.len() as u32;
                    continue;
                }
                Step::Enter(id) => id,
            };
            match visited.get_mut(id.index()) {
                Some(seen) if !*seen => *seen = true,
                _ => continue,
            }
            let Ok(expr) = module.expr(id) else { continue };
            if let Some(op) = expr.binary_op() {
                stack.push(Step::Exit(sites.entries.len()));
                sites.entries.push(Entry {
                    site: OpSite { id, op },
                    end: 0,
                });
                sites.counts[op as usize] += 1;
            }
            stack.extend(expr.children().iter().rev().map(|&c| Step::Enter(c)));
        }
        sites
    }

    /// Number of indexed sites of type `op`.
    pub(crate) fn count(&self, op: BinaryOp) -> usize {
        self.counts[op as usize] as usize
    }

    /// The indexed sites, in walk order.
    pub fn iter(&self) -> impl Iterator<Item = OpSite> + '_ {
        self.entries.iter().map(|e| e.site)
    }

    /// Position of the `n`-th site of type `op`.
    fn nth_of(&self, op: BinaryOp, n: usize) -> usize {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.site.op == op)
            .nth(n)
            .map(|(pos, _)| pos)
            .expect("n < count(op)")
    }

    fn add(&mut self, site: OpSite) {
        self.counts[site.op as usize] += 1;
    }

    fn remove(&mut self, site: OpSite) {
        self.counts[site.op as usize] -= 1;
    }

    /// Records that the site at `pos` was wrapped into `then` / `else_`.
    /// Returns the position `else_` was inserted at.
    fn wrapped(&mut self, pos: usize, then: OpSite, else_: OpSite) -> usize {
        let end = self.entries[pos].end;
        self.shift_ends(pos, end as usize, |e| e + 1);
        let old = std::mem::replace(&mut self.entries[pos].site, then);
        self.entries.insert(
            end as usize,
            Entry {
                site: else_,
                end: end + 1,
            },
        );
        self.remove(old);
        self.add(then);
        self.add(else_);
        end as usize
    }

    /// Reverts [`OpSites::wrapped`] of `old` at `pos`.
    fn unwrapped(&mut self, pos: usize, old: OpSite) {
        let end = self.entries[pos].end as usize;
        let else_ = self.entries.remove(end).site;
        let then = std::mem::replace(&mut self.entries[pos].site, old);
        self.shift_ends(pos, end, |e| e - 1);
        self.remove(then);
        self.remove(else_);
        self.add(old);
    }

    /// Applies `f` to the span ends of the ancestors of `pos` and of every
    /// entry from `from` on.
    fn shift_ends(&mut self, pos: usize, from: usize, f: impl Fn(u32) -> u32) {
        for e in &mut self.entries[..pos] {
            if e.end as usize > pos {
                e.end = f(e.end);
            }
        }
        for e in &mut self.entries[from..] {
            e.end = f(e.end);
        }
    }
}

/// Θ of Alg. 3/4: the pairs of `odt`'s table with at least one operation
/// present in the indexed design.
pub(crate) fn valid_pairs(odt: &Odt, sites: &OpSites) -> Vec<(BinaryOp, BinaryOp)> {
    odt.pairs()
        .into_iter()
        .filter(|&(a, b)| sites.count(a) > 0 || sites.count(b) > 0)
        .collect()
}

/// Reversible record of one `Lock` invocation.
#[derive(Debug)]
pub struct LockTxn {
    /// Wrap undo tokens, in application order.
    wraps: Vec<WrapUndo>,
    /// Per wrap: the index position and the site that was wrapped.
    sites: Vec<(usize, OpSite)>,
    /// Dummy operation types recorded into the ODT, in order.
    odt_added: Vec<BinaryOp>,
}

impl LockTxn {
    /// Number of key bits this lock consumed.
    pub fn bits_used(&self) -> u32 {
        self.wraps.len() as u32
    }

    /// The operation types that were wrapped by this lock.
    pub fn locked_types(&self) -> impl Iterator<Item = BinaryOp> + '_ {
        self.sites.iter().map(|(_, site)| site.op)
    }
}

/// Applies Algorithm 1 for type `ty`, mutating `module`, `sites`, `key`
/// and `odt` together. `sites` must index `module` (built by
/// [`OpSites::build`] and only changed by `lock_type`/[`undo_lock`] since).
/// Returns the number of key bits used and the undo transaction.
///
/// # Errors
///
/// - [`LockError::UnlockableType`] if `ty` has no pair in the ODT's table.
/// - [`LockError::NoOpsOfType`] if the branch taken needs an operation of a
///   type that does not occur in the design. In the paired branch (case 3)
///   the lock degrades gracefully: if only one of the two types exists, only
///   that side is locked (1 bit); the error is returned only when neither
///   exists.
pub fn lock_type<R: Rng>(
    ty: BinaryOp,
    odt: &mut Odt,
    module: &mut Module,
    sites: &mut OpSites,
    key: &mut Key,
    pair_mode: bool,
    rng: &mut R,
) -> Result<(u32, LockTxn)> {
    let dummy_ty = odt
        .table()
        .dummy_for(ty)
        .ok_or(LockError::UnlockableType(ty))?;

    let mut pick = |op: BinaryOp| -> Option<usize> {
        let n = sites.count(op);
        (n > 0).then(|| sites.nth_of(op, rng.gen_range(0..n)))
    };
    let o_i = pick(ty);
    let mut o_j = pick(dummy_ty);
    let balance = odt.get(ty);

    let mut txn = LockTxn {
        wraps: Vec::new(),
        sites: Vec::new(),
        odt_added: Vec::new(),
    };

    let mut add_pair = |pos: usize, dummy: BinaryOp| -> Result<usize> {
        let site = sites.entries[pos].site;
        let key_value: bool = rng.gen();
        let (_bit, undo) = module.wrap_in_key_mux(site.id, key_value, dummy)?;
        let branch = |id: ExprId| match module.expr(id) {
            Ok(Expr::Binary { op, .. }) => OpSite { id, op: *op },
            other => unreachable!("wrap branch {id} is not binary: {other:?}"),
        };
        let (then, else_) = match module.expr(site.id)? {
            Expr::Ternary {
                then_expr,
                else_expr,
                ..
            } => (branch(*then_expr), branch(*else_expr)),
            other => unreachable!("wrapped node {} is not a ternary: {other:?}", site.id),
        };
        let inserted = sites.wrapped(pos, then, else_);
        key.push(key_value, KeyBitKind::Operation);
        odt.record_added(dummy);
        txn.wraps.push(undo);
        txn.sites.push((pos, site));
        txn.odt_added.push(dummy);
        Ok(inserted)
    };

    if balance > 0 && !pair_mode {
        // Case 1: reduce the excess of `ty`.
        let pos = o_i.ok_or(LockError::NoOpsOfType(ty))?;
        add_pair(pos, dummy_ty)?;
    } else if balance < 0 && !pair_mode {
        // Case 2: reduce the deficiency of `ty`.
        let pos = o_j.ok_or(LockError::NoOpsOfType(dummy_ty))?;
        add_pair(pos, ty)?;
    } else {
        // Case 3: lock both sides; balance is preserved.
        if o_i.is_none() && o_j.is_none() {
            return Err(LockError::NoOpsOfType(ty));
        }
        if let Some(pos) = o_i {
            let inserted = add_pair(pos, dummy_ty)?;
            // Both sites were picked before this wrap; the second one
            // moves if it sat at or after the inserted `else` branch.
            o_j = o_j.map(|q| if q >= inserted { q + 1 } else { q });
        }
        if let Some(pos) = o_j {
            add_pair(pos, ty)?;
        }
    }

    Ok((txn.bits_used(), txn))
}

/// Reverts a [`lock_type`] call (`UndoLock` in Alg. 4). Must be applied in
/// strict LIFO order with respect to other locks.
///
/// # Errors
///
/// Returns [`RtlError::UndoOrder`](mlrl_rtl::RtlError::UndoOrder) (wrapped)
/// if intervening mutations make the undo unsound.
pub fn undo_lock(
    txn: LockTxn,
    module: &mut Module,
    sites: &mut OpSites,
    key: &mut Key,
    odt: &mut Odt,
) -> Result<()> {
    let steps = txn.wraps.into_iter().zip(txn.sites).zip(txn.odt_added);
    for ((undo, (pos, site)), dummy) in steps.rev() {
        module.undo_wrap(undo)?;
        sites.unwrapped(pos, site);
        key.pop();
        odt.record_removed(dummy);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairTable;
    use mlrl_rtl::visit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use BinaryOp::*;

    fn design(ops: &[(BinaryOp, usize)]) -> Module {
        let mut m = Module::new("t");
        m.add_input("a", 32).unwrap();
        let mut i = 0;
        for (op, n) in ops {
            for _ in 0..*n {
                let w = format!("w{i}");
                m.add_wire(&w, 32).unwrap();
                let a = m.alloc_expr(Expr::Ident("a".into()));
                let b = m.alloc_expr(Expr::Ident("a".into()));
                let e = m.alloc_expr(Expr::Binary {
                    op: *op,
                    lhs: a,
                    rhs: b,
                });
                m.add_assign(&w, e).unwrap();
                i += 1;
            }
        }
        m
    }

    fn setup(ops: &[(BinaryOp, usize)]) -> (Module, OpSites, Odt, Key, StdRng) {
        let m = design(ops);
        let sites = OpSites::build(&m);
        let odt = Odt::load(&m, PairTable::fixed());
        (m, sites, odt, Key::new(), StdRng::seed_from_u64(7))
    }

    #[test]
    fn positive_odt_adds_dummy_of_pair_type() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 5), (Sub, 2)]);
        assert_eq!(odt.get(Add), 3);
        let (n, txn) =
            lock_type(Add, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng).unwrap();
        assert_eq!(n, 1);
        assert_eq!(odt.get(Add), 2);
        assert_eq!(txn.locked_types().collect::<Vec<_>>(), [Add]);
        assert_eq!(key.len(), 1);
        assert_eq!(m.key_width(), 1);
        // The design now holds one extra Sub (the dummy).
        assert_eq!(visit::op_census(&m)[&Sub], 3);
    }

    #[test]
    fn negative_odt_adds_dummy_onto_pair_type() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 2), (Sub, 5)]);
        assert_eq!(odt.get(Add), -3);
        let (n, txn) =
            lock_type(Add, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng).unwrap();
        assert_eq!(n, 1);
        assert_eq!(odt.get(Add), -2);
        // A Sub operation was wrapped with an Add dummy.
        assert_eq!(txn.locked_types().collect::<Vec<_>>(), [Sub]);
        assert_eq!(visit::op_census(&m)[&Add], 3);
    }

    #[test]
    fn balanced_odt_locks_both_sides() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 3), (Sub, 3)]);
        let (n, _txn) =
            lock_type(Add, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng).unwrap();
        assert_eq!(n, 2);
        assert_eq!(odt.get(Add), 0);
        assert_eq!(key.len(), 2);
        let census = visit::op_census(&m);
        assert_eq!(census[&Add], 4);
        assert_eq!(census[&Sub], 4);
    }

    #[test]
    fn pair_mode_ignores_imbalance() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 5), (Sub, 1)]);
        let before = odt.get(Add);
        let (n, _txn) =
            lock_type(Add, &mut odt, &mut m, &mut sites, &mut key, true, &mut rng).unwrap();
        assert_eq!(n, 2);
        assert_eq!(odt.get(Add), before, "pair mode must preserve balance");
    }

    #[test]
    fn pair_mode_degrades_to_one_side_when_type_missing() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 4)]);
        // No Sub ops exist; paired lock can only wrap an Add.
        let (n, _txn) =
            lock_type(Add, &mut odt, &mut m, &mut sites, &mut key, true, &mut rng).unwrap();
        assert_eq!(n, 1);
        assert_eq!(odt.get(Add), 3);
    }

    #[test]
    fn missing_both_types_errors() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 1)]);
        let err =
            lock_type(Mul, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng).unwrap_err();
        assert_eq!(err, LockError::NoOpsOfType(Mul));
    }

    #[test]
    fn undo_restores_everything() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 5), (Sub, 2)]);
        let m0 = m.clone();
        let odt0 = odt.clone();
        let (_, txn) =
            lock_type(Add, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng).unwrap();
        undo_lock(txn, &mut m, &mut sites, &mut key, &mut odt).unwrap();
        assert_eq!(m, m0);
        assert_eq!(odt, odt0);
        assert!(key.is_empty());
    }

    #[test]
    fn undo_restores_two_bit_lock() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 3), (Sub, 3)]);
        let m0 = m.clone();
        let (n, txn) =
            lock_type(Add, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng).unwrap();
        assert_eq!(n, 2);
        undo_lock(txn, &mut m, &mut sites, &mut key, &mut odt).unwrap();
        assert_eq!(m, m0);
        assert_eq!(key.len(), 0);
        assert_eq!(m.key_width(), 0);
    }

    #[test]
    fn repeated_locking_balances_pair() {
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 5)]);
        let mut bits = 0;
        while odt.get(Add).unsigned_abs() > 0 {
            let (n, _) =
                lock_type(Add, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng).unwrap();
            bits += n;
        }
        assert_eq!(bits, 5);
        assert_eq!(odt.get(Add), 0);
        let census = visit::op_census(&m);
        assert_eq!(census[&Add], 5);
        assert_eq!(census[&Sub], 5);
        // ODT bookkeeping must agree with a fresh census-based reload.
        let reloaded = Odt::load(&m, PairTable::fixed());
        assert_eq!(reloaded.get(Add), 0);
    }

    #[test]
    fn unlockable_type_under_restricted_table() {
        // A table covering only (+,-): Mul is unlockable.
        let (mut m, mut sites, mut odt, mut key, mut rng) = setup(&[(Add, 1)]);
        let err = lock_type(Mul, &mut odt, &mut m, &mut sites, &mut key, false, &mut rng);
        // Mul is lockable in the fixed table but absent from the design.
        assert_eq!(err.unwrap_err(), LockError::NoOpsOfType(Mul));
    }
}
