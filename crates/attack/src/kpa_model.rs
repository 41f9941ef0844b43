//! Analytical KPA model.
//!
//! The evaluation's empirical KPA values (Fig. 6) follow directly from the
//! operation distribution of the locked design — §3.1's observation that
//! learning resilience is a property of the *distribution*, not the
//! function. This module derives the expected KPA of the optimal
//! (frequency-table) attacker in closed form:
//!
//! For a locked pair class `{T, T'}` with post-locking counts `n_T ≥ n_T'`,
//! the training majority says "the real operation is the more frequent
//! type". A test key bit on a locked `T` operation is then predicted
//! correctly; one on a locked `T'` operation incorrectly; and when
//! `n_T = n_T'` the attacker is reduced to a coin flip. The design-wide
//! expectation is the lock-count-weighted average over pair classes.
//!
//! Comparing the model against measured attack KPA (see
//! `tests/kpa_model_validation.rs`) closes the loop between the paper's
//! theory (§3/§4) and its evaluation (§5).

use std::collections::HashMap;

use mlrl_locking::key::{Key, KeyBitKind};
use mlrl_locking::odt::Odt;
use mlrl_locking::pairs::PairTable;
use mlrl_rtl::ast::Expr;
use mlrl_rtl::op::BinaryOp;
use mlrl_rtl::{visit, Module};

/// Expected-KPA prediction for one locked design.
#[derive(Debug, Clone, PartialEq)]
pub struct KpaPrediction {
    /// Expected KPA of the optimal statistical attacker, in percent.
    pub expected_kpa: f64,
    /// Per pair class: `(pair, locked bits, predicted accuracy)`.
    pub per_pair: Vec<((BinaryOp, BinaryOp), usize, f64)>,
}

/// Predicts the expected attack KPA for `locked` given the locking key
/// (needed to attribute each key bit to the type of the operation it
/// locked — the *real* branch).
///
/// The prediction assumes the attacker's training converges to the true
/// post-locking type frequencies (which a few dozen relock rounds achieve).
///
/// # Panics
///
/// Panics if `table` is not involutive, as [`Odt::load`] does; use
/// [`PairTable::fixed`].
pub fn predict_kpa(locked: &Module, key: &Key, table: &PairTable) -> KpaPrediction {
    predict_kpa_with(locked, key, &Odt::load(locked, table.clone()))
}

/// [`predict_kpa`] over the locked design's already-loaded ODT, which is
/// the post-locking label distribution the training set samples: a pair
/// `(a, b)`'s majority type is the sign of `odt.get(a)`, i.e. of
/// `count(a) − count(b)`.
pub fn predict_kpa_with(locked: &Module, key: &Key, odt: &Odt) -> KpaPrediction {
    // Attribute each operation key bit to the real operation type it locks.
    let mut real_type_of_bit: HashMap<u32, BinaryOp> = HashMap::new();
    visit::walk_exprs(locked, |_, expr| {
        if let Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } = expr
        {
            if let Ok(Expr::KeyBit(bit)) = locked.expr(*cond) {
                if let Some(value) = key.bit(*bit) {
                    let real_branch = if value { *then_expr } else { *else_expr };
                    if let Ok(real) = locked.expr(real_branch) {
                        if let Some(op) = real.binary_op() {
                            real_type_of_bit.insert(*bit, op);
                        }
                    }
                }
            }
        }
    });

    // Group bits per canonical pair class and score each class.
    let mut bits_per_pair: HashMap<(BinaryOp, BinaryOp), Vec<BinaryOp>> = HashMap::new();
    for (bit, real) in &real_type_of_bit {
        if key.kind(*bit) != Some(KeyBitKind::Operation) {
            continue;
        }
        if let Some(pair) = odt.table().canonical_pair_of(*real) {
            bits_per_pair.entry(pair).or_default().push(*real);
        }
    }

    let mut per_pair: Vec<_> = bits_per_pair
        .into_iter()
        .map(|(pair, reals)| {
            let (a, b) = pair;
            let accuracy = match odt.get(a).signum() {
                0 => 0.5,
                sign => {
                    let majority = if sign > 0 { a } else { b };
                    // Bits whose real op is the majority type are predicted right.
                    let right = reals.iter().filter(|r| **r == majority).count();
                    right as f64 / reals.len() as f64
                }
            };
            (pair, reals.len(), accuracy)
        })
        .collect();
    // Sorted before summing: the map's order is per-process random, and
    // a float sum in that order could differ in its last bits.
    per_pair.sort_by_key(|(p, _, _)| (p.0.code(), p.1.code()));
    let weighted: f64 = per_pair.iter().map(|&(_, n, acc)| acc * n as f64).sum();
    let total_bits: usize = per_pair.iter().map(|&(_, n, _)| n).sum();
    let expected_kpa = if total_bits == 0 {
        0.0
    } else {
        100.0 * weighted / total_bits as f64
    };
    KpaPrediction {
        expected_kpa,
        per_pair,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_locking::assure::{lock_operations, AssureConfig};
    use mlrl_locking::era::{era_lock, EraConfig};
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};

    #[test]
    fn fully_imbalanced_assure_predicts_certainty() {
        // FIR: no Div/Sub at all — every locked bit is predicted right.
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 3);
        let total = visit::binary_ops(&m).len();
        let key = lock_operations(&mut m, &AssureConfig::serial(total * 3 / 4, 4)).unwrap();
        let pred = predict_kpa(&m, &key, &PairTable::fixed());
        assert!(
            pred.expected_kpa > 99.0,
            "FIR/ASSURE should predict ~100, got {:.1}",
            pred.expected_kpa
        );
    }

    #[test]
    fn era_predicts_exactly_fifty() {
        let mut m = generate(&benchmark_by_name("MD5").unwrap(), 5);
        let total = visit::binary_ops(&m).len();
        let outcome = era_lock(&mut m, &EraConfig::new(total * 3 / 4, 6)).unwrap();
        let pred = predict_kpa(&m, &outcome.key, &PairTable::fixed());
        assert!(
            (pred.expected_kpa - 50.0).abs() < 1e-9,
            "ERA balances every pair: model must say exactly 50, got {}",
            pred.expected_kpa
        );
        for (_, _, acc) in &pred.per_pair {
            assert_eq!(*acc, 0.5);
        }
    }

    #[test]
    fn partial_imbalance_predicts_between() {
        // DES3 (and/or partially balanced): prediction strictly between
        // 50 and 100.
        let mut m = generate(&benchmark_by_name("DES3").unwrap(), 7);
        let total = visit::binary_ops(&m).len();
        let key = lock_operations(&mut m, &AssureConfig::serial(total * 3 / 4, 8)).unwrap();
        let pred = predict_kpa(&m, &key, &PairTable::fixed());
        assert!(
            pred.expected_kpa > 60.0 && pred.expected_kpa < 100.0,
            "{pred:?}"
        );
    }

    #[test]
    fn expected_kpa_is_summed_in_per_pair_order() {
        let mut m = generate(&benchmark_by_name("DES3").unwrap(), 1);
        let total = visit::binary_ops(&m).len();
        let key = lock_operations(&mut m, &AssureConfig::serial(total * 3 / 4, 1)).unwrap();
        let pred = predict_kpa(&m, &key, &PairTable::fixed());
        assert!(pred.per_pair.len() >= 3, "{pred:?}");
        let mut weighted = 0.0;
        let mut bits = 0;
        for &(_, n, accuracy) in &pred.per_pair {
            weighted += accuracy * n as f64;
            bits += n;
        }
        let in_order = 100.0 * weighted / bits as f64;
        assert_eq!(pred.expected_kpa.to_bits(), in_order.to_bits());
    }

    #[test]
    fn unlocked_design_predicts_zero_bits() {
        let m = generate(&benchmark_by_name("IIR").unwrap(), 1);
        let pred = predict_kpa(&m, &Key::new(), &PairTable::fixed());
        assert_eq!(pred.expected_kpa, 0.0);
        assert!(pred.per_pair.is_empty());
    }
}
