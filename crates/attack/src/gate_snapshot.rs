//! Gate-level SnapShot: the original netlist-level attack (Fig. 2 of the
//! paper, before its RTL adaptation), run against gate-level locking.
//!
//! This module closes the loop on the paper's motivation (Fig. 1): ML-driven
//! structural attacks demonstrably break traditional gate-level locking —
//! the question the paper asks is whether the same holds at RTL. Here we
//! reproduce the gate-level side of that premise:
//!
//! - EPIC-style XOR/XNOR locking leaks the key bit in the *cell type* of
//!   the key gate; the attack reaches ≈ 100 % KPA.
//! - MUX locking with random decoys is the gate-level analogue of RTL
//!   operation obfuscation; leakage depends on how distinguishable the true
//!   and decoy fan-ins are.
//!
//! The attack pipeline mirrors [`crate::snapshot`]: extract a fixed-size
//! locality vector around every key gate, assemble a training set by
//! self-referencing relocking, fit the auto-ml stack, and score key
//! prediction accuracy.

use mlrl_ml::automl::{auto_fit, AutoMlConfig};
use mlrl_ml::dataset::{Dataset, OneHotEncoder};
use mlrl_netlist::ir::{FanoutIndex, NetId, Netlist};
use mlrl_netlist::lock::{lock_netlist, GateKey, GateLockScheme};

use crate::relock::TrainingSet;

/// Number of categorical features in a gate-level locality vector.
pub const GATE_LOCALITY_WIDTH: usize = 5;

/// A key-gate locality: the structural neighbourhood of one key input.
///
/// Features (all gate-kind codes, 0 = primary input / constant / none):
/// `[key_gate, drv_a, drv_b, fanout_0, fanout_1]` where `drv_a`/`drv_b` are
/// the drivers of the key gate's non-key data inputs and `fanout_*` the
/// first gates consuming the key gate's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateLocality {
    /// Key-bit index this locality belongs to.
    pub key_bit: usize,
    /// Categorical feature vector of width [`GATE_LOCALITY_WIDTH`].
    pub features: Vec<u32>,
}

/// Extracts the locality of every key bit in `netlist`.
///
/// Key bits whose input net is unused (no key gate) are skipped.
///
/// # Examples
///
/// ```
/// use mlrl_attack::gate_snapshot::extract_gate_localities;
/// use mlrl_netlist::build::NetlistBuilder;
/// use mlrl_netlist::ir::Netlist;
/// use mlrl_netlist::lock::xor_xnor_lock;
///
/// let mut b = NetlistBuilder::new(Netlist::new("t"));
/// let a = b.input_lane("a", 8);
/// let c = b.input_lane("b", 8);
/// let s = b.add(a, c);
/// b.output_from_lane("y", s, 8);
/// let mut n = b.finish();
/// let key = xor_xnor_lock(&mut n, 4, 1)?;
/// let locs = extract_gate_localities(&n);
/// assert_eq!(locs.len(), key.len());
/// # Ok::<(), mlrl_netlist::error::NetlistError>(())
/// ```
pub fn extract_gate_localities(netlist: &Netlist) -> Vec<GateLocality> {
    let driver = netlist.driver_index();
    let fanout = FanoutIndex::of(netlist);
    let kind_of = |net: NetId| -> u32 {
        match driver[net.index()] {
            mlrl_netlist::ir::NO_DRIVER => 0,
            gi => netlist.gates()[gi as usize].kind.code(),
        }
    };
    let mut out = Vec::new();
    for (key_bit, &knet) in netlist.key_bits().iter().enumerate() {
        let Some(&gi) = fanout.fanout(knet).first() else {
            continue;
        };
        let gate = &netlist.gates()[gi as usize];
        let mut features = vec![gate.kind.code()];
        // Drivers of the non-key inputs, in pin order.
        let mut drivers: Vec<u32> = gate
            .inputs
            .iter()
            .filter(|&&n| n != knet)
            .map(|&n| kind_of(n))
            .collect();
        drivers.resize(2, 0);
        features.extend(drivers);
        // First two fanout consumers of the key gate's output.
        let mut fans: Vec<u32> = fanout
            .fanout(gate.output)
            .iter()
            .take(2)
            .map(|&g| netlist.gates()[g as usize].kind.code())
            .collect();
        fans.resize(2, 0);
        features.extend(fans);
        debug_assert_eq!(features.len(), GATE_LOCALITY_WIDTH);
        out.push(GateLocality { key_bit, features });
    }
    out
}

/// Configuration of a gate-level SnapShot run.
#[derive(Debug, Clone)]
pub struct GateAttackConfig {
    /// Locking scheme the attacker relocks with (assumption 2 of the threat
    /// model: the attacker knows the scheme).
    pub scheme: GateLockScheme,
    /// Relock rounds for training-set assembly.
    pub rounds: usize,
    /// Key bits inserted per relock round.
    pub bits_per_round: usize,
    /// Base RNG seed; round `r` uses `seed + r + 1`.
    pub seed: u64,
    /// Auto-ml search parameters.
    pub automl: AutoMlConfig,
}

impl Default for GateAttackConfig {
    fn default() -> Self {
        Self {
            scheme: GateLockScheme::XorXnor,
            rounds: 50,
            bits_per_round: 16,
            seed: 0,
            automl: AutoMlConfig::default(),
        }
    }
}

/// Result of one gate-level attack run.
#[derive(Debug)]
pub struct GateAttackReport {
    /// Key prediction accuracy in percent (50 % = random guess).
    pub kpa: f64,
    /// Number of target key bits attacked.
    pub attacked_bits: usize,
    /// Training samples used.
    pub training_samples: usize,
    /// Name of the auto-ml winner, the candidate that made the predictions
    /// ([`AutoMlOutcome::winner`](mlrl_ml::AutoMlOutcome::winner)).
    pub model_name: String,
    /// Per-bit predictions `(key_bit, predicted_value)`.
    pub predictions: Vec<(usize, bool)>,
}

/// Assembles a self-referencing gate-level training set: relock the locked
/// target with fresh keys the attacker chooses, extract the localities of
/// the new bits, label them with the chosen key values.
///
/// Rows are [`GATE_LOCALITY_WIDTH`]-wide categorical vectors in a
/// [`TrainingSet`], so campaign caches can share one set between the
/// frequency-table and auto-ml attacks on the same locked instance.
pub fn build_gate_training_set(target: &Netlist, cfg: &GateAttackConfig) -> TrainingSet {
    let mut features: Vec<Vec<u32>> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for round in 0..cfg.rounds {
        let mut clone = target.clone();
        let base = clone.key_width();
        let Ok(key) = lock_netlist(
            &mut clone,
            cfg.scheme,
            cfg.bits_per_round,
            cfg.seed + round as u64 + 1,
        ) else {
            continue;
        };
        for loc in extract_gate_localities(&clone) {
            if loc.key_bit >= base {
                let bit = key.bits()[loc.key_bit - base];
                features.push(loc.features);
                labels.push(bit as usize);
            }
        }
    }
    TrainingSet { features, labels }
}

/// Runs gate-level SnapShot against a locked netlist.
///
/// `true_key` scores the prediction only — the oracle-less attacker sees
/// nothing but the locked netlist. Returns `None` if the target exposes no
/// key-gate localities or training fails to produce samples.
pub fn gate_snapshot_attack(
    target: &Netlist,
    true_key: &GateKey,
    cfg: &GateAttackConfig,
) -> Option<GateAttackReport> {
    let training = build_gate_training_set(target, cfg);
    gate_snapshot_attack_with_training(target, true_key, cfg, &training)
}

/// [`gate_snapshot_attack`] over a pre-built (typically cached) training
/// set.
pub fn gate_snapshot_attack_with_training(
    target: &Netlist,
    true_key: &GateKey,
    cfg: &GateAttackConfig,
    training: &TrainingSet,
) -> Option<GateAttackReport> {
    let target_localities = scoreable_localities(target, true_key)?;
    if training.is_empty() {
        return None;
    }

    let mut vocab = training.features.clone();
    vocab.extend(target_localities.iter().map(|l| l.features.clone()));
    let encoder = OneHotEncoder::fit(&vocab);
    let x = encoder.transform_all(&training.features);
    let train = Dataset::from_rows(x, training.labels.clone()).expect("training set is consistent");
    let training_samples = train.len();
    let outcome = auto_fit(&train, &cfg.automl);

    let predict =
        |loc: &GateLocality| outcome.model.predict(&encoder.transform(&loc.features)) == 1;
    let (predictions, kpa) = score_predictions(&target_localities, true_key, predict);
    let attacked_bits = predictions.len();

    Some(GateAttackReport {
        kpa,
        attacked_bits,
        training_samples,
        model_name: outcome.winner,
        predictions,
    })
}

/// Runs the Bayes-optimal frequency-table attack at gate level: count
/// `locality → key bit` frequencies in the training set and predict the
/// majority label per target locality (ties and unseen localities fall
/// back to 0, mirroring [`crate::freq_table`]).
///
/// Returns `None` under the same conditions as [`gate_snapshot_attack`].
pub fn gate_freq_table_attack(
    target: &Netlist,
    true_key: &GateKey,
    cfg: &GateAttackConfig,
) -> Option<GateAttackReport> {
    let training = build_gate_training_set(target, cfg);
    gate_freq_table_attack_with_training(target, true_key, &training)
}

/// [`gate_freq_table_attack`] over a pre-built (typically cached) training
/// set.
pub fn gate_freq_table_attack_with_training(
    target: &Netlist,
    true_key: &GateKey,
    training: &TrainingSet,
) -> Option<GateAttackReport> {
    let target_localities = scoreable_localities(target, true_key)?;
    if training.is_empty() {
        return None;
    }

    let mut table: std::collections::HashMap<&[u32], (usize, usize)> =
        std::collections::HashMap::new();
    for (f, &label) in training.features.iter().zip(&training.labels) {
        let slot = table.entry(f.as_slice()).or_insert((0, 0));
        if label == 1 {
            slot.1 += 1;
        } else {
            slot.0 += 1;
        }
    }

    let predict = |loc: &GateLocality| {
        table
            .get(loc.features.as_slice())
            .map(|&(zeros, ones)| ones > zeros)
            .unwrap_or(false)
    };
    let (predictions, kpa) = score_predictions(&target_localities, true_key, predict);
    let attacked_bits = predictions.len();

    Some(GateAttackReport {
        kpa,
        attacked_bits,
        training_samples: training.len(),
        model_name: "freq-table".to_owned(),
        predictions,
    })
}

/// Target localities whose key bits the true key can score; `None` when
/// the target exposes none.
fn scoreable_localities(target: &Netlist, true_key: &GateKey) -> Option<Vec<GateLocality>> {
    let localities: Vec<GateLocality> = extract_gate_localities(target)
        .into_iter()
        .filter(|l| l.key_bit < true_key.len())
        .collect();
    if localities.is_empty() {
        None
    } else {
        Some(localities)
    }
}

/// Applies `predict` to every locality and scores against the true key.
fn score_predictions(
    localities: &[GateLocality],
    true_key: &GateKey,
    predict: impl Fn(&GateLocality) -> bool,
) -> (Vec<(usize, bool)>, f64) {
    let mut predictions = Vec::with_capacity(localities.len());
    let mut correct = 0usize;
    for loc in localities {
        let predicted = predict(loc);
        predictions.push((loc.key_bit, predicted));
        if predicted == true_key.bits()[loc.key_bit] {
            correct += 1;
        }
    }
    let kpa = 100.0 * correct as f64 / predictions.len() as f64;
    (predictions, kpa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_netlist::build::NetlistBuilder;
    use mlrl_netlist::lock::{mux_lock, xor_xnor_lock};

    fn sample_netlist(seed: u64) -> Netlist {
        // A few hundred gates so relocking has room.
        let mut b = NetlistBuilder::new(Netlist::new("t"));
        let a = b.input_lane("a", 16);
        let c = b.input_lane("b", 16);
        let s = b.add(a, c);
        let x = b.xor_lane(s, a);
        let m = b.mul(x, c);
        b.output_from_lane("y", m, 16);
        let mut n = b.finish();
        n.sweep();
        // Perturb determinism across "different designs".
        let _ = seed;
        n
    }

    fn fast_cfg(scheme: GateLockScheme) -> GateAttackConfig {
        GateAttackConfig {
            scheme,
            rounds: 15,
            bits_per_round: 16,
            seed: 3,
            automl: AutoMlConfig {
                max_train_samples: 2000,
                ..Default::default()
            },
        }
    }

    #[test]
    fn locality_features_expose_cell_type() {
        let mut n = sample_netlist(0);
        let key = xor_xnor_lock(&mut n, 8, 5).unwrap();
        let locs = extract_gate_localities(&n);
        assert_eq!(locs.len(), 8);
        for loc in &locs {
            let code = loc.features[0];
            let kind = mlrl_netlist::ir::GateKind::from_code(code).unwrap();
            let expect = if key.bits()[loc.key_bit] {
                mlrl_netlist::ir::GateKind::Xnor
            } else {
                mlrl_netlist::ir::GateKind::Xor
            };
            assert_eq!(kind, expect);
        }
    }

    #[test]
    fn xor_xnor_locking_is_fully_broken() {
        // The Fig. 1 premise: gate-level locking falls to structural ML.
        let mut n = sample_netlist(0);
        let key = xor_xnor_lock(&mut n, 24, 7).unwrap();
        let report = gate_snapshot_attack(&n, &key, &fast_cfg(GateLockScheme::XorXnor)).unwrap();
        assert_eq!(report.attacked_bits, 24);
        assert!(
            report.kpa >= 95.0,
            "expected near-total break, got {}",
            report.kpa
        );
    }

    #[test]
    fn mux_locking_with_random_decoys_resists_naive_localities() {
        let mut n = sample_netlist(1);
        let key = mux_lock(&mut n, 24, 9).unwrap();
        let report = gate_snapshot_attack(&n, &key, &fast_cfg(GateLockScheme::Mux)).unwrap();
        assert_eq!(report.attacked_bits, 24);
        // Real and decoy wires are drawn from the same distribution, so the
        // structural locality carries little signal. Allow generous slack
        // around the coin-flip floor — what must NOT happen is ≈ 100 %.
        assert!(
            report.kpa <= 80.0,
            "MUX locking should not fully leak, got {}",
            report.kpa
        );
    }

    #[test]
    fn freq_table_breaks_xor_xnor_and_matches_snapshot_shape() {
        // The cell type fully determines the key bit, so even the plain
        // frequency table reaches ≈ 100 % on XOR/XNOR locking.
        let mut n = sample_netlist(0);
        let key = xor_xnor_lock(&mut n, 24, 7).unwrap();
        let cfg = fast_cfg(GateLockScheme::XorXnor);
        let report = gate_freq_table_attack(&n, &key, &cfg).unwrap();
        assert_eq!(report.attacked_bits, 24);
        assert_eq!(report.model_name, "freq-table");
        assert!(
            report.kpa >= 95.0,
            "expected near-total break, got {}",
            report.kpa
        );
    }

    #[test]
    fn cached_training_sets_reproduce_direct_runs() {
        let mut n = sample_netlist(0);
        let key = xor_xnor_lock(&mut n, 16, 3).unwrap();
        let cfg = fast_cfg(GateLockScheme::XorXnor);
        let training = build_gate_training_set(&n, &cfg);
        assert!(!training.is_empty());
        assert!(training
            .features
            .iter()
            .all(|f| f.len() == GATE_LOCALITY_WIDTH));
        let direct = gate_freq_table_attack(&n, &key, &cfg).unwrap();
        let shared = gate_freq_table_attack_with_training(&n, &key, &training).unwrap();
        assert_eq!(direct.predictions, shared.predictions);
        assert_eq!(direct.kpa, shared.kpa);
    }

    #[test]
    fn unlocked_netlist_yields_none() {
        let n = sample_netlist(2);
        let key = GateKey::new();
        assert!(gate_snapshot_attack(&n, &key, &fast_cfg(GateLockScheme::XorXnor)).is_none());
        assert!(gate_freq_table_attack(&n, &key, &fast_cfg(GateLockScheme::XorXnor)).is_none());
    }
}
