//! Learning-resilience security metrics (§4.1).
//!
//! The metric measures how far a locked design's operation distribution is
//! from the optimal (all-balanced) distribution:
//!
//! ```text
//! M_sec = 100 · (1 − d_e(v_j, v_o) / d_e(v_i, v_o))
//! ```
//!
//! where `d_e` is a *modified Euclidean distance* (Alg. 2) that can exclude
//! selected entries (the `'x'` values), `v_i` is the initial distribution
//! vector, `v_o` the optimal (all-zero) vector and `v_j` the vector after
//! the j-th locking iteration.
//!
//! Two variants are exposed:
//! - **global** ([`SecurityMetric::global`]): every ODT entry counts.
//!   Monotonic; describes the *potential* for exploitation. This guides HRA.
//! - **restricted** ([`SecurityMetric::restricted`]): only entries whose
//!   pair has been affected by locking count. Non-monotonic; describes the
//!   *actual* exploitability. ERA guarantees a restricted score of 100
//!   after every locking round.

use mlrl_rtl::op::BinaryOp;

use crate::odt::Odt;

/// Modified Euclidean distance of Alg. 2: entries of `optimal` that are
/// `None` (the paper's `'x'`) are excluded from the sum.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
///
/// # Examples
///
/// ```
/// use mlrl_locking::metric::modified_euclidean;
///
/// let current = [3.0, 4.0, 7.0];
/// // Third entry is 'x': excluded.
/// let optimal = [Some(0.0), Some(0.0), None];
/// assert_eq!(modified_euclidean(&current, &optimal), 5.0);
/// ```
pub fn modified_euclidean(current: &[f64], optimal: &[Option<f64>]) -> f64 {
    assert_eq!(current.len(), optimal.len(), "vector length mismatch");
    let mut s = 0.0;
    for (x, o) in current.iter().zip(optimal) {
        if let Some(o) = o {
            s += (o - x) * (o - x);
        }
    }
    s.sqrt()
}

/// The `M_sec` formula. Degenerate cases: a zero denominator (the design
/// was already optimal on the considered entries) scores 100 when the
/// numerator is also zero and 0 otherwise.
fn msec(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        if numerator == 0.0 {
            100.0
        } else {
            0.0
        }
    } else {
        100.0 * (1.0 - numerator / denominator)
    }
}

/// Security-metric evaluator bound to a design's *initial* distribution.
///
/// Construct once from the unlocked design's ODT, then query with updated
/// ODTs as locking proceeds. Tracks which pairs have been *touched* by
/// locking for the restricted variant.
///
/// # Examples
///
/// ```
/// use mlrl_locking::metric::SecurityMetric;
/// use mlrl_locking::odt::Odt;
/// use mlrl_locking::pairs::PairTable;
/// use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
///
/// let m = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
/// let odt = Odt::load(&m, PairTable::fixed());
/// let metric = SecurityMetric::new(&odt);
/// // Before any locking the design sits at the initial point: score 0.
/// assert_eq!(metric.global(&odt), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityMetric {
    initial: Vec<f64>,
    pairs: Vec<(BinaryOp, BinaryOp)>,
    touched: Vec<bool>,
}

impl SecurityMetric {
    /// Captures `v_i` (the initial distribution vector) from the unlocked
    /// design's ODT.
    pub fn new(initial_odt: &Odt) -> Self {
        Self {
            initial: initial_odt.abs_vector(),
            pairs: initial_odt.pairs(),
            touched: vec![false; initial_odt.pairs().len()],
        }
    }

    /// Marks the canonical pair containing `op` as affected by locking.
    pub fn touch(&mut self, odt: &Odt, op: BinaryOp) {
        if let Some(i) = odt.pair_index(op) {
            self.touched[i] = true;
        }
    }

    /// Global metric `M_g_sec`: all ODT entries considered (`v_o` contains
    /// no `'x'`). Monotonic in the total imbalance.
    ///
    /// # Panics
    ///
    /// Panics if `odt` covers a different pair set than the initial one.
    pub fn global(&self, odt: &Odt) -> f64 {
        let current = odt.abs_vector();
        assert_eq!(current.len(), self.initial.len(), "ODT pair-set mismatch");
        let optimal: Vec<Option<f64>> = vec![Some(0.0); current.len()];
        let num = modified_euclidean(&current, &optimal);
        let den = modified_euclidean(&self.initial, &optimal);
        msec(num, den)
    }

    /// Restricted metric `M_r_sec`: only pairs touched by locking are
    /// considered; untouched entries are `'x'` in `v_o` and excluded on
    /// both sides. Not monotonic — touching a new imbalanced pair can
    /// lower the score.
    ///
    /// # Panics
    ///
    /// Panics if `odt` covers a different pair set than the initial one.
    pub fn restricted(&self, odt: &Odt) -> f64 {
        let current = odt.abs_vector();
        assert_eq!(current.len(), self.initial.len(), "ODT pair-set mismatch");
        let optimal: Vec<Option<f64>> = self
            .touched
            .iter()
            .map(|&t| if t { Some(0.0) } else { None })
            .collect();
        let num = modified_euclidean(&current, &optimal);
        let den = modified_euclidean(&self.initial, &optimal);
        msec(num, den)
    }

    /// The canonical pairs the metric is defined over.
    pub fn pairs(&self) -> &[(BinaryOp, BinaryOp)] {
        &self.pairs
    }

    /// The captured initial vector `v_i`.
    pub fn initial_vector(&self) -> &[f64] {
        &self.initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairTable;
    use mlrl_rtl::ast::Expr;
    use mlrl_rtl::Module;
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

    #[test]
    fn modified_euclidean_skips_x_entries() {
        assert_eq!(
            modified_euclidean(&[3.0, 4.0], &[Some(0.0), Some(0.0)]),
            5.0
        );
        assert_eq!(modified_euclidean(&[3.0, 4.0], &[None, Some(0.0)]), 4.0);
        assert_eq!(modified_euclidean(&[3.0, 4.0], &[None, None]), 0.0);
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn modified_euclidean_checks_lengths() {
        let _ = modified_euclidean(&[1.0], &[]);
    }

    #[test]
    fn global_metric_runs_zero_to_hundred() {
        // Fig 5 working example: |ODT[(+,-)]| = 25, |ODT[(<<,>>)]| = 10.
        let m = design(&[(Add, 25), (Shl, 10)]);
        let mut odt = Odt::load(&m, PairTable::fixed());
        let metric = SecurityMetric::new(&odt);
        assert_eq!(metric.global(&odt), 0.0);
        // Fully balance both pairs.
        for _ in 0..25 {
            odt.record_added(Sub);
        }
        for _ in 0..10 {
            odt.record_added(Shr);
        }
        assert_eq!(metric.global(&odt), 100.0);
    }

    #[test]
    fn global_metric_is_monotonic_under_balancing() {
        let m = design(&[(Add, 25), (Shl, 10)]);
        let mut odt = Odt::load(&m, PairTable::fixed());
        let metric = SecurityMetric::new(&odt);
        let mut last = metric.global(&odt);
        for _ in 0..25 {
            odt.record_added(Sub);
            let now = metric.global(&odt);
            assert!(now >= last, "global metric decreased: {last} -> {now}");
            last = now;
        }
    }

    #[test]
    fn restricted_equals_global_when_all_touched() {
        let m = design(&[(Add, 7), (Shl, 3)]);
        let mut odt = Odt::load(&m, PairTable::fixed());
        let mut metric = SecurityMetric::new(&odt);
        metric.touch(&odt, Add);
        metric.touch(&odt, Shl);
        // Touch every remaining pair as well: M_r ≡ M_g (paper §4.1).
        for (a, _) in odt.pairs() {
            metric.touch(&odt, a);
        }
        odt.record_added(Sub);
        assert!((metric.restricted(&odt) - metric.global(&odt)).abs() < 1e-12);
    }

    #[test]
    fn restricted_ignores_untouched_imbalance() {
        let m = design(&[(Add, 7), (Shl, 3)]);
        let mut odt = Odt::load(&m, PairTable::fixed());
        let mut metric = SecurityMetric::new(&odt);
        // Lock only the (+,-) pair to balance.
        metric.touch(&odt, Add);
        for _ in 0..7 {
            odt.record_added(Sub);
        }
        // Restricted sees a perfect score although (<<,>>) is imbalanced...
        assert_eq!(metric.restricted(&odt), 100.0);
        // ...while global still reports residual exploitability.
        assert!(metric.global(&odt) < 100.0);
    }

    #[test]
    fn restricted_is_not_monotonic() {
        let m = design(&[(Add, 7), (Shl, 3)]);
        let mut odt = Odt::load(&m, PairTable::fixed());
        let mut metric = SecurityMetric::new(&odt);
        metric.touch(&odt, Add);
        for _ in 0..7 {
            odt.record_added(Sub);
        }
        let before = metric.restricted(&odt);
        // Touching the second (imbalanced) pair drops the restricted score.
        metric.touch(&odt, Shl);
        odt.record_added(Shr);
        let after = metric.restricted(&odt);
        assert!(after < before, "expected drop: {before} -> {after}");
    }

    #[test]
    fn msec_100_global_implies_100_restricted() {
        let m = design(&[(Add, 4), (Shl, 2)]);
        let mut odt = Odt::load(&m, PairTable::fixed());
        let mut metric = SecurityMetric::new(&odt);
        metric.touch(&odt, Add);
        for _ in 0..4 {
            odt.record_added(Sub);
        }
        for _ in 0..2 {
            odt.record_added(Shr);
        }
        assert_eq!(metric.global(&odt), 100.0);
        assert_eq!(metric.restricted(&odt), 100.0);
    }

    #[test]
    fn balanced_initial_design_scores_100() {
        let m = design(&[(Add, 4), (Sub, 4)]);
        let odt = Odt::load(&m, PairTable::fixed());
        let metric = SecurityMetric::new(&odt);
        assert_eq!(metric.global(&odt), 100.0);
    }
}
