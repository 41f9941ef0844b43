//! Oracle-guided key recovery — the §5 "Limitations and opportunities"
//! question: *are the locking algorithms resilient to oracle-guided
//! attacks?*
//!
//! The paper's threat model is oracle-less, but it explicitly leaves the
//! oracle-guided setting open. This module implements a classic
//! hill-climbing attack with random restarts: the attacker owns an
//! activated chip (here: the original design simulated with the correct
//! key) and searches the key space by flipping bits whenever a flip
//! increases input/output agreement with the oracle.
//!
//! Operation obfuscation yields a largely *decomposable* fitness landscape
//! — each key bit gates an independent multiplexer — so hill climbing
//! recovers most bits quickly regardless of ODT balance. That is the
//! expected answer to the paper's question: **ERA/HRA defend against
//! learning attacks, not oracle-guided ones**, and must be combined with
//! SAT-resistant mechanisms when the threat model includes an oracle
//! (the paper cites \[3\] on this point).

use mlrl_locking::key::Key;
use mlrl_rtl::ast::PortDir;
use mlrl_rtl::sim::BatchSimulator;
use mlrl_rtl::{Module, RtlError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Test-bench patterns per batched tape walk: the agreement bench is pure
/// combinational stimulus, so the whole test bench rides simulator lanes
/// eight patterns at a time. `queries` still counts *vector evaluations*
/// (one per pattern), not settles, so reports are batch-invariant.
const BATCH: usize = 8;

/// Configuration of the hill-climbing attack.
#[derive(Debug, Clone)]
pub struct OracleAttackConfig {
    /// Number of random input patterns in the agreement test-bench.
    pub patterns: usize,
    /// Random restarts (best key over all restarts is reported).
    pub restarts: usize,
    /// Full hill-climbing sweeps per restart.
    pub sweeps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OracleAttackConfig {
    fn default() -> Self {
        Self {
            patterns: 24,
            restarts: 3,
            sweeps: 4,
            seed: 0,
        }
    }
}

/// Result of an oracle-guided attack run.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleAttackReport {
    /// Best key found.
    pub recovered: Vec<bool>,
    /// Fraction of test patterns on which the recovered key matches the
    /// oracle, in `[0, 1]`.
    pub agreement: f64,
    /// KPA of the recovered key against the true key, in percent
    /// (evaluation only).
    pub kpa: f64,
    /// Oracle queries spent.
    pub queries: usize,
}

/// Runs the hill-climbing attack: `locked` is the attacker's netlist,
/// `oracle` the activated chip (functionally the original design).
/// `true_key` is used only to score the result.
///
/// # Errors
///
/// Propagates simulator construction/evaluation errors.
pub fn oracle_guided_attack(
    locked: &Module,
    oracle: &Module,
    true_key: &Key,
    cfg: &OracleAttackConfig,
) -> Result<OracleAttackReport, RtlError> {
    let width = locked.key_width() as usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Test bench: shared random input patterns with golden responses.
    let input_names: Vec<String> = locked
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Input && p.name != "clk")
        .map(|p| p.name.clone())
        .collect();
    let patterns: Vec<Vec<u64>> = (0..cfg.patterns)
        .map(|_| input_names.iter().map(|_| rng.gen()).collect())
        .collect();

    let output_names: Vec<String> = locked
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Output)
        .map(|p| p.name.clone())
        .collect();
    let mut oracle_sim = BatchSimulator::<BATCH>::new(oracle)?;
    let mut golden: Vec<Vec<u64>> = Vec::with_capacity(patterns.len());
    let mut done = 0usize;
    while done < patterns.len() {
        let lanes = (patterns.len() - done).min(BATCH);
        for (i, name) in input_names.iter().enumerate() {
            let vals: Vec<u64> = (0..lanes).map(|l| patterns[done + l][i]).collect();
            oracle_sim.set_input_batch(name, &vals)?;
        }
        oracle_sim.settle()?;
        for lane in 0..lanes {
            let row: Result<Vec<u64>, RtlError> = output_names
                .iter()
                .map(|n| oracle_sim.get_lane(n, lane))
                .collect();
            golden.push(row?);
        }
        done += lanes;
    }

    // Bit-level Hamming agreement over every output port: partial credit
    // gives hill climbing a gradient (exact-match fitness is flat until
    // almost every bit is correct).
    let total_bits = (patterns.len() * output_names.len() * 64).max(1);
    let mut queries = 0usize;
    let mut locked_sim = BatchSimulator::<BATCH>::new(locked)?;
    let agreement_of = |key: &[bool],
                        locked_sim: &mut BatchSimulator<BATCH>,
                        queries: &mut usize|
     -> Result<f64, RtlError> {
        let mut matching_bits = 0u64;
        locked_sim.set_key(key)?;
        let mut done = 0usize;
        while done < patterns.len() {
            let lanes = (patterns.len() - done).min(BATCH);
            for (i, name) in input_names.iter().enumerate() {
                let vals: Vec<u64> = (0..lanes).map(|l| patterns[done + l][i]).collect();
                locked_sim.set_input_batch(name, &vals)?;
            }
            locked_sim.settle()?;
            *queries += lanes;
            for lane in 0..lanes {
                for (name, g) in output_names.iter().zip(&golden[done + lane]) {
                    matching_bits += (!(locked_sim.get_lane(name, lane)? ^ g)).count_ones() as u64;
                }
            }
            done += lanes;
        }
        Ok(matching_bits as f64 / total_bits as f64)
    };

    let mut best_key = vec![false; width];
    let mut best_score = -1.0f64;
    for _ in 0..cfg.restarts.max(1) {
        let mut key: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
        let mut score = agreement_of(&key, &mut locked_sim, &mut queries)?;
        for _ in 0..cfg.sweeps.max(1) {
            let mut improved = false;
            for bit in 0..width {
                key[bit] = !key[bit];
                let candidate = agreement_of(&key, &mut locked_sim, &mut queries)?;
                if candidate > score {
                    score = candidate;
                    improved = true;
                } else {
                    key[bit] = !key[bit]; // revert
                }
            }
            if !improved || score >= 1.0 {
                break;
            }
        }
        if score > best_score {
            best_score = score;
            best_key = key;
        }
        if best_score >= 1.0 {
            break;
        }
    }

    let kpa = if width == 0 {
        0.0
    } else {
        true_key.kpa(&best_key)
    };
    Ok(OracleAttackReport {
        recovered: best_key,
        agreement: best_score.max(0.0),
        kpa,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_locking::assure::{lock_operations, AssureConfig};
    use mlrl_locking::era::{era_lock, EraConfig};
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::visit;

    #[test]
    fn recovers_assure_key_on_small_design() {
        let original = generate(&benchmark_by_name("SIM_SPI").unwrap(), 3);
        let mut locked = original.clone();
        let key = lock_operations(&mut locked, &AssureConfig::serial(12, 4)).unwrap();
        let report = oracle_guided_attack(
            &locked,
            &original,
            &key,
            &OracleAttackConfig {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            report.kpa > 80.0,
            "hill climbing should recover most bits, got {:.1}%",
            report.kpa
        );
        assert!(report.agreement > 0.9);
    }

    #[test]
    fn era_does_not_stop_the_oracle_attack() {
        // The §5 open question, answered: ERA's balance is irrelevant when
        // the attacker has an oracle.
        let original = generate(&benchmark_by_name("IIR").unwrap(), 7);
        let mut locked = original.clone();
        let total = visit::binary_ops(&locked).len();
        let outcome = era_lock(&mut locked, &EraConfig::new(total / 2, 8)).unwrap();
        let report = oracle_guided_attack(
            &locked,
            &original,
            &outcome.key,
            &OracleAttackConfig {
                restarts: 4,
                sweeps: 5,
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        // Some ERA bits sit inside *dummy* branches of nested locks: they
        // are functional don't-cares no oracle attack can recover, so KPA
        // saturates below 100 — but functional agreement (the attacker's
        // actual goal) is essentially complete.
        assert!(
            report.agreement > 0.95,
            "oracle attack should functionally unlock ERA, agreement {:.3}",
            report.agreement
        );
        assert!(
            report.kpa > 65.0,
            "ERA is not an oracle-guided defence, got {:.1}%",
            report.kpa
        );
    }

    #[test]
    fn unlocked_design_reports_trivially() {
        let original = generate(&benchmark_by_name("SASC").unwrap(), 2);
        let report = oracle_guided_attack(
            &original,
            &original,
            &Key::new(),
            &OracleAttackConfig::default(),
        )
        .unwrap();
        assert!(report.recovered.is_empty());
        assert_eq!(report.agreement, 1.0);
    }

    #[test]
    fn queries_are_counted() {
        let original = generate(&benchmark_by_name("SIM_SPI").unwrap(), 3);
        let mut locked = original.clone();
        let key = lock_operations(&mut locked, &AssureConfig::serial(4, 4)).unwrap();
        let cfg = OracleAttackConfig {
            patterns: 8,
            restarts: 1,
            sweeps: 1,
            seed: 1,
        };
        let report = oracle_guided_attack(&locked, &original, &key, &cfg).unwrap();
        // 1 initial + 4 flips, 8 patterns each = 40 queries minimum.
        assert!(report.queries >= 40, "got {}", report.queries);
    }
}
