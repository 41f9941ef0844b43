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
//! The pipeline is [`crate::snapshot`]'s: extract a fixed-size locality
//! vector around every key gate, assemble a training set by
//! self-referencing relocking, then run the same ML core (encode, auto-ml
//! fit, predict) and the same scorer, into the same
//! [`AttackReport`].

use mlrl_ml::automl::AutoMlConfig;
use mlrl_netlist::ir::{FanoutIndex, NetId, Netlist};
use mlrl_netlist::lock::{lock_netlist, GateKey, GateLockScheme};

use crate::freq_table::label_counts;
use crate::relock::TrainingSet;
use crate::snapshot::{ml_attack, AttackReport};

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

/// Configuration of gate-level training-set assembly (self-referencing
/// relocking).
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
}

impl Default for GateAttackConfig {
    fn default() -> Self {
        Self {
            scheme: GateLockScheme::XorXnor,
            rounds: 50,
            bits_per_round: 16,
            seed: 0,
        }
    }
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

/// Runs gate-level SnapShot against a locked netlist, trained on
/// `training` (from [`build_gate_training_set`], typically cached).
///
/// `true_key` scores the prediction only — the oracle-less attacker sees
/// nothing but the locked netlist. Returns `None` if the target exposes no
/// key-gate locality the true key can score, or `training` is empty.
pub fn gate_snapshot_attack(
    target: &Netlist,
    true_key: &GateKey,
    training: &TrainingSet,
    automl: &AutoMlConfig,
) -> Option<AttackReport> {
    let targets = scoreable_targets(target, true_key);
    if targets.is_empty() || training.is_empty() {
        return None;
    }
    Some(ml_attack(&targets, training, automl, truth(true_key)))
}

/// Runs the Bayes-optimal frequency-table attack at gate level: count
/// `locality → key bit` frequencies in `training` and predict the majority
/// label per target locality.
///
/// An unseen locality or a tie gives 0. The RTL table
/// ([`freq_table_attack`](crate::freq_table::freq_table_attack)) falls back
/// to the training set's global majority instead; the campaign golden pins
/// both rules, so they stay different.
///
/// Returns `None` under the same conditions as [`gate_snapshot_attack`].
pub fn gate_freq_table_attack(
    target: &Netlist,
    true_key: &GateKey,
    training: &TrainingSet,
) -> Option<AttackReport> {
    let targets = scoreable_targets(target, true_key);
    if targets.is_empty() || training.is_empty() {
        return None;
    }
    let table = label_counts(training);
    let predictions = targets
        .into_iter()
        .map(|(bit, f)| {
            let ones_win = table
                .get(f.as_slice())
                .is_some_and(|&(zeros, ones)| ones > zeros);
            (bit, ones_win)
        })
        .collect();
    Some(AttackReport::score(
        predictions,
        truth(true_key),
        training.len(),
        "freq-table".to_owned(),
        None,
    ))
}

/// Target `(key_bit, features)` rows whose key bits the true key can
/// score. The filter comes before any encoder is fit, because the target
/// rows join the one-hot vocabulary.
fn scoreable_targets(target: &Netlist, true_key: &GateKey) -> Vec<(u32, Vec<u32>)> {
    extract_gate_localities(target)
        .into_iter()
        .filter(|l| l.key_bit < true_key.len())
        .map(|l| (l.key_bit as u32, l.features))
        .collect()
}

/// The scorer's view of a gate-level key.
fn truth(true_key: &GateKey) -> impl Fn(u32) -> Option<bool> + '_ {
    move |bit| true_key.bits().get(bit as usize).copied()
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

    fn training(n: &Netlist, scheme: GateLockScheme) -> TrainingSet {
        let cfg = GateAttackConfig {
            scheme,
            rounds: 15,
            bits_per_round: 16,
            seed: 3,
        };
        build_gate_training_set(n, &cfg)
    }

    fn automl() -> AutoMlConfig {
        AutoMlConfig {
            max_train_samples: 2000,
            ..Default::default()
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
        let training = training(&n, GateLockScheme::XorXnor);
        let report = gate_snapshot_attack(&n, &key, &training, &automl()).unwrap();
        assert_eq!(report.attacked_bits, 24);
        assert!(report.cv_accuracy.is_some());
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
        let training = training(&n, GateLockScheme::Mux);
        let report = gate_snapshot_attack(&n, &key, &training, &automl()).unwrap();
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
        let training = training(&n, GateLockScheme::XorXnor);
        let report = gate_freq_table_attack(&n, &key, &training).unwrap();
        assert_eq!(report.attacked_bits, 24);
        assert_eq!(report.model_name, "freq-table");
        assert_eq!(report.training_samples, training.len());
        assert!(
            report.kpa >= 95.0,
            "expected near-total break, got {}",
            report.kpa
        );
    }

    #[test]
    fn training_rows_are_gate_localities() {
        let mut n = sample_netlist(0);
        xor_xnor_lock(&mut n, 16, 3).unwrap();
        let set = training(&n, GateLockScheme::XorXnor);
        assert!(!set.is_empty());
        assert!(set.features.iter().all(|f| f.len() == GATE_LOCALITY_WIDTH));
        assert_eq!(set, training(&n, GateLockScheme::XorXnor), "deterministic");
    }

    #[test]
    fn freq_table_unseen_localities_and_ties_give_zero() {
        let mut n = sample_netlist(0);
        let key = xor_xnor_lock(&mut n, 1, 3).unwrap();
        let row = extract_gate_localities(&n)[0].features.clone();
        let predict = |rows: &[(Vec<u32>, usize)]| {
            let training = TrainingSet {
                features: rows.iter().map(|(f, _)| f.clone()).collect(),
                labels: rows.iter().map(|&(_, l)| l).collect(),
            };
            gate_freq_table_attack(&n, &key, &training)
                .unwrap()
                .predictions[0]
                .1
        };
        let other = vec![0; GATE_LOCALITY_WIDTH];
        // Majority 1 on the target's own locality predicts 1 ...
        assert!(predict(&[
            (row.clone(), 1),
            (row.clone(), 1),
            (row.clone(), 0)
        ]));
        // ... but an unseen locality or a tie gives 0, whatever the
        // global majority.
        assert!(!predict(&[(other.clone(), 1), (other, 1)]));
        assert!(!predict(&[(row.clone(), 1), (row, 0)]));
    }

    #[test]
    fn unlocked_netlist_yields_none() {
        let n = sample_netlist(2);
        let key = GateKey::new();
        let training = training(&n, GateLockScheme::XorXnor);
        assert!(gate_snapshot_attack(&n, &key, &training, &automl()).is_none());
        assert!(gate_freq_table_attack(&n, &key, &training).is_none());
    }
}
