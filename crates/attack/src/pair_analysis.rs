//! Pair-analysis attack on the original ASSURE pairing (§3.2).
//!
//! Under the original (non-involutive) ASSURE pairing, some locked pairs
//! are *only producible in one direction*: `(∗, +)` can only arise from
//! locking a real `∗` (because `pair(+) = −`, the reverse pair `(+, ∗)`
//! never exists). An attacker who knows the pairing table (threat-model
//! assumption 2) reads the key bit directly off such localities — no ML
//! required. The involutive "fixed" table closes this channel entirely.

use mlrl_locking::key::Key;
use mlrl_locking::pairs::PairTable;
use mlrl_rtl::op::BinaryOp;
use mlrl_rtl::Module;

use crate::extract::{extract_localities, Locality};

/// Verdict for one locality under pair analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairVerdict {
    /// The key bit is provably this value.
    Inferred(bool),
    /// Both directions are producible: no information.
    Ambiguous,
    /// One or both branch codes are not plain operations (nested mux or
    /// leaf); pair analysis does not apply.
    Unanalyzable,
}

/// Analyzes one locality against `table`.
///
/// A locality `(C1, C2)` (true-branch, false-branch) is:
/// - `Inferred(true)` if only "real = C1" can produce it, i.e.
///   `pair(C1) == C2` but `pair(C2) != C1`;
/// - `Inferred(false)` in the mirrored case;
/// - `Ambiguous` if both (or neither) direction is producible.
pub fn analyze_locality(loc: &Locality, table: &PairTable) -> PairVerdict {
    let (Some(c1), Some(c2)) = (BinaryOp::from_code(loc.c1), BinaryOp::from_code(loc.c2)) else {
        return PairVerdict::Unanalyzable;
    };
    let c1_real_possible = table.dummy_for(c1) == Some(c2);
    let c2_real_possible = table.dummy_for(c2) == Some(c1);
    match (c1_real_possible, c2_real_possible) {
        (true, false) => PairVerdict::Inferred(true),
        (false, true) => PairVerdict::Inferred(false),
        _ => PairVerdict::Ambiguous,
    }
}

/// Result of a pair-analysis attack over a whole design.
#[derive(Debug, Clone, PartialEq)]
pub struct PairAnalysisReport {
    /// Bits whose value was provably inferred: `(key_bit, value)`.
    pub inferred: Vec<(u32, bool)>,
    /// Number of ambiguous localities.
    pub ambiguous: usize,
    /// Number of unanalyzable localities (nested/leaf branches).
    pub unanalyzable: usize,
    /// KPA in percent over the inferred bits (needs the true key;
    /// evaluation only). 100.0 whenever any bit was inferred — the
    /// inference is exact.
    pub kpa_on_inferred: f64,
    /// Fraction of all localities that leaked, in percent.
    pub coverage: f64,
}

impl PairAnalysisReport {
    /// Number of localities analyzed: every key-controlled multiplexer of
    /// the target, whatever its verdict.
    pub fn localities(&self) -> usize {
        self.inferred.len() + self.ambiguous + self.unanalyzable
    }
}

/// Runs pair analysis against `target`, scoring against `true_key`.
///
/// With [`PairTable::original_assure`] and a design containing the leaky
/// operator types, a substantial fraction of the key leaks at 100%
/// accuracy; with [`PairTable::fixed`] nothing is inferable.
pub fn pair_analysis_attack(
    target: &Module,
    true_key: &Key,
    table: &PairTable,
) -> PairAnalysisReport {
    let localities = extract_localities(target);
    let mut inferred = Vec::new();
    let mut ambiguous = 0usize;
    let mut unanalyzable = 0usize;
    for loc in &localities {
        match analyze_locality(loc, table) {
            PairVerdict::Inferred(v) => inferred.push((loc.key_bit, v)),
            PairVerdict::Ambiguous => ambiguous += 1,
            PairVerdict::Unanalyzable => unanalyzable += 1,
        }
    }
    let correct = inferred
        .iter()
        .filter(|(bit, v)| true_key.bit(*bit) == Some(*v))
        .count();
    let kpa_on_inferred = if inferred.is_empty() {
        0.0
    } else {
        100.0 * correct as f64 / inferred.len() as f64
    };
    let coverage = if localities.is_empty() {
        0.0
    } else {
        100.0 * inferred.len() as f64 / localities.len() as f64
    };
    PairAnalysisReport {
        inferred,
        ambiguous,
        unanalyzable,
        kpa_on_inferred,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_locking::assure::{lock_operations, AssureConfig, Selection};
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::visit;

    fn lock_with(table: PairTable, name: &str, seed: u64) -> (Module, Key) {
        let mut m = generate(&benchmark_by_name(name).unwrap(), seed);
        let total = visit::binary_ops(&m).len();
        let cfg = AssureConfig {
            selection: Selection::Serial,
            pair_table: table,
            budget: total * 3 / 4,
            seed,
        };
        let key = lock_operations(&mut m, &cfg).unwrap();
        (m, key)
    }

    #[test]
    fn original_pairing_leaks_mul_pairs_exactly() {
        // RSA contains Mul and Mod — both leaky under the original table.
        let table = PairTable::original_assure();
        let (m, key) = lock_with(table.clone(), "RSA", 1);
        let report = pair_analysis_attack(&m, &key, &table);
        assert!(
            !report.inferred.is_empty(),
            "RSA must leak under original pairing"
        );
        assert_eq!(report.kpa_on_inferred, 100.0, "pair inference is exact");
        assert!(report.coverage > 10.0, "coverage was {}", report.coverage);
    }

    #[test]
    fn fixed_pairing_leaks_nothing() {
        let table = PairTable::fixed();
        let (m, key) = lock_with(table.clone(), "RSA", 1);
        let report = pair_analysis_attack(&m, &key, &table);
        assert!(report.inferred.is_empty(), "fixed table must not leak");
        assert_eq!(report.coverage, 0.0);
    }

    #[test]
    fn the_report_counts_every_extracted_locality() {
        use mlrl_locking::era::{era_lock, EraConfig};
        use mlrl_locking::hra::{hra_lock, HraConfig};
        let table = PairTable::fixed();
        for name in ["FIR", "SHA256", "SASC"] {
            let base = generate(&benchmark_by_name(name).unwrap(), 3);
            let bits = visit::binary_ops(&base).len() * 3 / 4;
            let (assure, assure_key) = lock_with(table.clone(), name, 3);
            let mut hra = base.clone();
            let hra_key = hra_lock(&mut hra, &HraConfig::new(bits, 4)).unwrap().key;
            let mut era = base;
            let era_key = era_lock(&mut era, &EraConfig::new(bits, 5)).unwrap().key;
            for (m, key) in [(assure, assure_key), (hra, hra_key), (era, era_key)] {
                let report = pair_analysis_attack(&m, &key, &table);
                assert_eq!(report.localities(), extract_localities(&m).len(), "{name}");
                assert!(report.localities() > 0, "{name}");
            }
        }
    }

    #[test]
    fn verdicts_follow_sec32_examples() {
        use BinaryOp::*;
        let table = PairTable::original_assure();
        // (∗, +): pair(∗)=+ but pair(+)=−: real must be ∗ (true branch).
        let loc = Locality {
            key_bit: 0,
            c1: Mul.code(),
            c2: Add.code(),
        };
        assert_eq!(analyze_locality(&loc, &table), PairVerdict::Inferred(true));
        // (+, ∗): reverse — real must be ∗ (false branch).
        let loc = Locality {
            key_bit: 0,
            c1: Add.code(),
            c2: Mul.code(),
        };
        assert_eq!(analyze_locality(&loc, &table), PairVerdict::Inferred(false));
        // (+, −): pair(+)=− and pair(−)=+: ambiguous.
        let loc = Locality {
            key_bit: 0,
            c1: Add.code(),
            c2: Sub.code(),
        };
        assert_eq!(analyze_locality(&loc, &table), PairVerdict::Ambiguous);
    }

    #[test]
    fn nested_mux_is_unanalyzable() {
        let table = PairTable::original_assure();
        let loc = Locality {
            key_bit: 0,
            c1: mlrl_rtl::op::MUX_CODE,
            c2: BinaryOp::Add.code(),
        };
        assert_eq!(analyze_locality(&loc, &table), PairVerdict::Unanalyzable);
    }

    #[test]
    fn involutive_table_is_always_ambiguous_on_valid_pairs() {
        let table = PairTable::fixed();
        for (a, b) in table.canonical_pairs() {
            let loc = Locality {
                key_bit: 0,
                c1: a.code(),
                c2: b.code(),
            };
            assert_eq!(analyze_locality(&loc, &table), PairVerdict::Ambiguous);
            let loc = Locality {
                key_bit: 0,
                c1: b.code(),
                c2: a.code(),
            };
            assert_eq!(analyze_locality(&loc, &table), PairVerdict::Ambiguous);
        }
    }
}
