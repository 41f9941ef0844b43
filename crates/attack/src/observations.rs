//! The §3 / Fig. 4 observation-pool analysis: how operation *selection*
//! (serial vs random vs disjoint) shapes what a learner can extract from
//! relocked training data on the all-`+` network.
//!
//! Each scenario locks the `+` network (test set), relocks it with known
//! keys (training set), and tallies, per training observation, whether the
//! *real* operation was `+` or `-`. The paper's conclusions:
//!
//! - **Serial/serial** (Fig. 4b/4e): relocking re-selects the same already
//!   locked operations, so `+` and `-` appear as real equally often —
//!   confusing observations, learned nothing.
//! - **Random** (Fig. 4c/4f): partial overlap — `+` is *more likely* real.
//! - **Random, no overlap** (Fig. 4d/4g): training touches only untouched
//!   operations — `+` is *always* real; the key can be read off directly.

use mlrl_locking::assure::{lock_operations, AssureConfig, Selection};
use mlrl_locking::key_budget;
use mlrl_locking::pairs::PairTable;
use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
use mlrl_rtl::op::BinaryOp;
use mlrl_rtl::{visit, Module};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::extract::extract_localities;

/// Selection scenario of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Serial test locking, serial training relocking (Fig. 4b).
    SerialSerial,
    /// Random test locking, random training relocking (Fig. 4c).
    RandomRandom,
    /// Random test locking, training restricted to untouched operations
    /// (Fig. 4d).
    RandomDisjoint,
}

/// Tally of training observations for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationPool {
    /// Scenario analyzed.
    pub scenario: Scenario,
    /// Training observations where the real operation was `+`.
    pub plus_real: usize,
    /// Training observations where the real operation was `-`.
    pub minus_real: usize,
}

impl ObservationPool {
    /// `P(+ is the real operation)` over the pool.
    pub fn p_plus_real(&self) -> f64 {
        let total = self.plus_real + self.minus_real;
        if total == 0 {
            return 0.5;
        }
        self.plus_real as f64 / total as f64
    }

    /// The paper's qualitative inference for this pool.
    pub fn inference(&self) -> &'static str {
        let p = self.p_plus_real();
        if p >= 0.999 {
            "+ is always the correct operator"
        } else if p > 0.55 {
            "+ is mostly the correct operator"
        } else if p < 0.45 {
            "- is mostly the correct operator"
        } else {
            "+ and - are equally likely to appear"
        }
    }
}

/// Runs one Fig. 4 scenario on an `n`-operation `+` network.
///
/// `test_budget`/`train_budget` are fractions of the operation count;
/// the training pool aggregates `rounds` relock rounds.
pub fn run_scenario(
    scenario: Scenario,
    n_ops: usize,
    test_budget: f64,
    rounds: usize,
    seed: u64,
) -> ObservationPool {
    let mut spec = benchmark_by_name("N_2046").expect("N_2046 exists");
    spec.op_mix = vec![(BinaryOp::Add, n_ops)];
    let mut target = generate(&spec, seed);
    let budget = key_budget(&target, test_budget).expect("+ network is lockable");

    // Test locking.
    let test_cfg = AssureConfig {
        selection: match scenario {
            Scenario::SerialSerial => Selection::Serial,
            _ => Selection::Random,
        },
        pair_table: PairTable::fixed(),
        budget,
        seed: seed ^ 0xABCD,
    };
    lock_operations(&mut target, &test_cfg).expect("+ network is lockable");

    let mut plus_real = 0usize;
    let mut minus_real = 0usize;
    for round in 0..rounds {
        let rseed = seed
            .wrapping_add(round as u64 + 1)
            .wrapping_mul(0x9e37_79b9);
        let mut clone = target.clone();
        let base = clone.key_width();
        let key = match scenario {
            Scenario::SerialSerial => lock_operations(
                &mut clone,
                &AssureConfig {
                    selection: Selection::Serial,
                    pair_table: PairTable::fixed(),
                    budget,
                    seed: rseed,
                },
            )
            .expect("relock"),
            Scenario::RandomRandom => lock_operations(
                &mut clone,
                &AssureConfig {
                    selection: Selection::Random,
                    pair_table: PairTable::fixed(),
                    budget,
                    seed: rseed,
                },
            )
            .expect("relock"),
            Scenario::RandomDisjoint => {
                lock_untouched_ops(&mut clone, budget, rseed).expect("disjoint relock")
            }
        };
        for loc in extract_localities(&clone) {
            if loc.key_bit < base {
                continue;
            }
            let value = key.bit(loc.key_bit - base).expect("own bit");
            let real = if value { loc.c1 } else { loc.c2 };
            if real == BinaryOp::Add.code() {
                plus_real += 1;
            } else if real == BinaryOp::Sub.code() {
                minus_real += 1;
            }
        }
    }
    ObservationPool {
        scenario,
        plus_real,
        minus_real,
    }
}

/// Locks up to `budget` operations that are *not* inside any key-controlled
/// multiplexer (the Fig. 4d no-overlap training scenario).
fn lock_untouched_ops(
    module: &mut Module,
    budget: usize,
    seed: u64,
) -> mlrl_locking::Result<mlrl_locking::Key> {
    use mlrl_locking::key::KeyBitKind;
    use mlrl_rtl::ast::Expr;

    // Mark every node under a key mux.
    let mut under_mux = std::collections::HashSet::new();
    let mut stack: Vec<(mlrl_rtl::ExprId, bool)> = Vec::new();
    for root in module.roots() {
        stack.push((root, false));
    }
    let mut visited = std::collections::HashSet::new();
    while let Some((id, inside)) = stack.pop() {
        if !visited.insert((id, inside)) {
            continue;
        }
        if inside {
            under_mux.insert(id);
        }
        if let Ok(expr) = module.expr(id) {
            let is_key_mux = matches!(expr, Expr::Ternary { cond, .. }
                if matches!(module.expr(*cond), Ok(Expr::KeyBit(_))));
            for c in expr.children() {
                stack.push((c, inside || is_key_mux));
            }
        }
    }

    let mut sites: Vec<visit::OpSite> = visit::binary_ops(module)
        .into_iter()
        .filter(|s| !under_mux.contains(&s.id))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    sites.shuffle(&mut rng);
    sites.truncate(budget);

    let table = PairTable::fixed();
    let mut key = mlrl_locking::Key::new();
    for site in sites {
        let dummy = table
            .dummy_for(site.op)
            .ok_or(mlrl_locking::LockError::UnlockableType(site.op))?;
        let value: bool = rng.gen();
        module.wrap_in_key_mux(site.id, value, dummy)?;
        key.push(value, KeyBitKind::Operation);
    }
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_serial_is_confusing() {
        let pool = run_scenario(Scenario::SerialSerial, 64, 0.5, 6, 1);
        let p = pool.p_plus_real();
        assert!(
            (p - 0.5).abs() < 0.1,
            "serial/serial should confuse: P(+)={p}"
        );
        assert_eq!(pool.inference(), "+ and - are equally likely to appear");
    }

    #[test]
    fn random_random_biases_toward_plus() {
        let pool = run_scenario(Scenario::RandomRandom, 64, 0.5, 6, 2);
        let p = pool.p_plus_real();
        assert!(p > 0.55, "random overlap should bias to +: P(+)={p}");
        assert!(p < 0.999, "but not certainty: P(+)={p}");
    }

    #[test]
    fn disjoint_training_reveals_plus_always() {
        let pool = run_scenario(Scenario::RandomDisjoint, 64, 0.4, 6, 3);
        assert_eq!(pool.p_plus_real(), 1.0);
        assert_eq!(pool.inference(), "+ is always the correct operator");
        assert_eq!(pool.minus_real, 0);
    }

    #[test]
    fn empty_pool_reports_half() {
        let pool = ObservationPool {
            scenario: Scenario::RandomRandom,
            plus_real: 0,
            minus_real: 0,
        };
        assert_eq!(pool.p_plus_real(), 0.5);
    }

    #[test]
    fn scenarios_are_ordered_by_leakage() {
        let serial = run_scenario(Scenario::SerialSerial, 64, 0.5, 5, 4).p_plus_real();
        let random = run_scenario(Scenario::RandomRandom, 64, 0.5, 5, 4).p_plus_real();
        let disjoint = run_scenario(Scenario::RandomDisjoint, 64, 0.5, 5, 4).p_plus_real();
        assert!(serial < random, "serial {serial} < random {random}");
        assert!(random < disjoint || disjoint == 1.0);
    }
}
