//! Output corruptibility: how badly a wrong key damages the function.
//!
//! The paper's §5.1 names three security objectives a locking scheme may
//! have to satisfy at once: *learning resilience* (this paper's subject,
//! measured by KPA), *SAT resistance* (deferred to Karfa et al. \[3\]), and
//! *output corruptibility* — a locked design protects nothing if wrong
//! keys still produce (nearly) correct outputs. This module makes the
//! third objective measurable so heuristics like HRA can trade all three.
//!
//! Three complementary views are reported over a sample of wrong keys:
//!
//! - **corruption rate** — the fraction of wrong keys that corrupt at
//!   least one output on at least one pattern (a weak, existential
//!   guarantee: the key is not a don't-care),
//! - **error rate** — the mean fraction of (pattern, output-port) reads
//!   that differ from the original design (a strong, quantitative measure
//!   of how useless a mis-keyed chip is),
//! - **Hamming fraction** — the mean fraction of output *bits* that flip,
//!   ideally near 0.5 (maximal confusion, as in strong gate-level
//!   locking literature).
//!
//! At either level the original design (correct key) and the locked one
//! (wrong keys) run the same stimulus table through their simulators'
//! `drive`, and the two output tables are compared read by read.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlrl_rtl::ast::PortDir;
use mlrl_rtl::sim::BatchSimulator;
use mlrl_rtl::Module;

use crate::error::{LockError, Result};

/// RTL patterns per batched settle when `ticks == 0`: each lane of one
/// tape walk carries an independent stimulus vector.
const RTL_BATCH: usize = 8;

/// Configuration for [`measure_corruptibility`].
#[derive(Debug, Clone)]
pub struct CorruptibilityConfig {
    /// Number of wrong keys to sample.
    pub wrong_keys: usize,
    /// Random input patterns per wrong key.
    pub patterns: usize,
    /// Clock ticks applied after each pattern (0 = combinational settle).
    pub ticks: usize,
    /// Number of key bits flipped per wrong key (1 = the hardest case:
    /// a near-miss key).
    pub flips: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorruptibilityConfig {
    fn default() -> Self {
        Self {
            wrong_keys: 32,
            patterns: 24,
            ticks: 2,
            flips: 1,
            seed: 0,
        }
    }
}

/// Corruptibility measurement over a sample of wrong keys.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptibilityReport {
    /// Wrong keys sampled.
    pub wrong_keys: usize,
    /// Fraction of wrong keys that corrupted at least one output once.
    pub corruption_rate: f64,
    /// Mean fraction of (pattern, output) reads that differed.
    pub error_rate: f64,
    /// Mean fraction of output bits that flipped.
    pub hamming_fraction: f64,
}

/// Measures how much a wrong key corrupts `locked` relative to `original`.
///
/// Each trial flips `cfg.flips` random key bits of the correct key, drives
/// both designs with identical random stimulus, and compares every output
/// port. `original` is simulated with the *correct* key (pass the unlocked
/// design and an empty key slice for the classic unlocked-reference
/// measurement — both are equivalent given a sound locking pass).
///
/// # Errors
///
/// Returns [`LockError`] wrapping simulator construction/stimulus failures
/// (cyclic designs, missing ports) or a too-short `correct_key`, and
/// [`LockError::NothingToLock`] if `locked` consumes no key bits.
///
/// # Examples
///
/// ```
/// use mlrl_locking::assure::{lock_operations, AssureConfig};
/// use mlrl_locking::corruptibility::{measure_corruptibility, CorruptibilityConfig};
/// use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
///
/// let original = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
/// let mut locked = original.clone();
/// let key = lock_operations(&mut locked, &AssureConfig::serial(20, 3))?;
/// let bits: Vec<bool> = (0..locked.key_width()).map(|i| key.bit(i).unwrap()).collect();
/// let report = measure_corruptibility(
///     &original, &locked, &bits, &CorruptibilityConfig::default())?;
/// assert!(report.corruption_rate > 0.5, "most near-miss keys must corrupt");
/// # Ok::<(), mlrl_locking::LockError>(())
/// ```
pub fn measure_corruptibility(
    original: &Module,
    locked: &Module,
    correct_key: &[bool],
    cfg: &CorruptibilityConfig,
) -> Result<CorruptibilityReport> {
    if correct_key.len() < locked.key_width() as usize {
        return Err(LockError::Rtl(mlrl_rtl::RtlError::KeyTooShort {
            required: locked.key_width(),
            provided: correct_key.len(),
        }));
    }
    if locked.key_width() == 0 {
        return Err(LockError::NothingToLock);
    }
    if cfg.ticks == 0 {
        measure_rtl::<RTL_BATCH>(original, locked, correct_key, cfg)
    } else {
        measure_rtl::<1>(original, locked, correct_key, cfg)
    }
}

/// Draws one near-miss key: the correct key with `flips` random bits
/// flipped (the RNG draw order every measurement path shares).
fn near_miss_key(correct_key: &[bool], width: usize, flips: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut wrong = correct_key.to_vec();
    for _ in 0..flips.max(1) {
        let i = rng.gen_range(0..width.max(1));
        wrong[i] = !wrong[i];
    }
    wrong
}

/// How many reads differ between two output tables, and how many bits
/// flip across them.
fn diff(golden: &[u64], read: &[u64]) -> (u64, u64) {
    let pairs = golden.iter().zip(read);
    let errors = pairs.clone().filter(|(g, b)| g != b).count() as u64;
    (
        errors,
        pairs.map(|(g, b)| u64::from((g ^ b).count_ones())).sum(),
    )
}

/// Running totals over the wrong keys of one measurement, shared by the
/// RTL and gate-level loops so all three measures are defined once.
struct Tally {
    /// (pattern, output) reads per wrong key.
    reads: u64,
    /// Output bits seen per wrong key.
    bits_seen: u64,
    corrupted_keys: usize,
    error_sum: f64,
    hamming_sum: f64,
}

impl Tally {
    /// Every wrong key sees `patterns` patterns of outputs of `widths`.
    fn new(patterns: usize, widths: impl Iterator<Item = u64>) -> Self {
        let (ports, bits) = widths.fold((0u64, 0u64), |(n, b), w| (n + 1, b + w));
        Self {
            reads: patterns as u64 * ports,
            bits_seen: patterns as u64 * bits,
            corrupted_keys: 0,
            error_sum: 0.0,
            hamming_sum: 0.0,
        }
    }

    /// Adds one wrong key: `errors` of its reads differed, and `bit_flips`
    /// of its output bits.
    fn add_key(&mut self, errors: u64, bit_flips: u64) {
        if errors > 0 {
            self.corrupted_keys += 1;
        }
        self.error_sum += errors as f64 / self.reads.max(1) as f64;
        self.hamming_sum += bit_flips as f64 / self.bits_seen.max(1) as f64;
    }

    fn report(self, wrong_keys: usize) -> CorruptibilityReport {
        let n = wrong_keys.max(1) as f64;
        CorruptibilityReport {
            wrong_keys,
            corruption_rate: self.corrupted_keys as f64 / n,
            error_rate: self.error_sum / n,
            hamming_fraction: self.hamming_sum / n,
        }
    }
}

/// RTL corruptibility over `V` lanes. With `cfg.ticks == 0` every pattern
/// is an independent settle, so up to `V` of them ride the lanes of one
/// batched tape walk; with ticks, each pattern advances register state
/// carried over from the previous one, so the caller passes `V = 1`.
/// Either way the key is drawn first, then the patterns × ports in the
/// order a pattern-at-a-time loop consumes them, so the RNG stream (and
/// every tally) is batch-invariant.
fn measure_rtl<const V: usize>(
    original: &Module,
    locked: &Module,
    correct_key: &[bool],
    cfg: &CorruptibilityConfig,
) -> Result<CorruptibilityReport> {
    let ports = |dir| original.ports().iter().filter(move |p| p.dir == dir);
    let inputs: Vec<&str> = ports(PortDir::Input).map(|p| p.name.as_str()).collect();
    let outputs: Vec<&str> = ports(PortDir::Output).map(|p| p.name.as_str()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let width = locked.key_width() as usize;

    // Compile both designs once; each trial resets state instead of
    // reconstructing (and recompiling) the simulators.
    let mut ref_sim = BatchSimulator::<V>::new(original)?;
    ref_sim.set_key(correct_key)?;
    let mut bad_sim = BatchSimulator::<V>::new(locked)?;

    let widths = ports(PortDir::Output).map(|p| u64::from(p.width));
    let mut tally = Tally::new(cfg.patterns, widths);
    for _ in 0..cfg.wrong_keys {
        let wrong = near_miss_key(correct_key, width, cfg.flips, &mut rng);
        ref_sim.reset();
        bad_sim.reset();
        bad_sim.set_key(&wrong)?;
        // Pattern-major, port-minor.
        let stimulus: Vec<Vec<u64>> = (0..cfg.patterns)
            .map(|_| inputs.iter().map(|_| rng.gen()).collect())
            .collect();
        let golden = ref_sim.drive(&inputs, &stimulus, &outputs, cfg.ticks)?;
        let read = bad_sim.drive(&inputs, &stimulus, &outputs, cfg.ticks)?;
        let (errors, bit_flips) = diff(&golden, &read);
        tally.add_key(errors, bit_flips);
    }
    Ok(tally.report(cfg.wrong_keys))
}

/// Gate-level corruptibility over the multi-word key sweep: how badly a
/// wrong key damages a *lowered* (gate-locked) design.
///
/// The same three measures as [`measure_corruptibility`], but near-miss
/// keys ride the lanes of a wide word simulator — a single levelized walk
/// per stimulus pattern evaluates up to `64 * W` of them, instead of one
/// full netlist walk per key per pattern. The width is picked by
/// [`mlrl_netlist::sim::pick_width`] from the wrong-key count (4 words
/// for more than 192 keys, else 1), and every width produces
/// bit-identical tallies: keys
/// and stimulus are drawn per 64-key chunk in the exact order the
/// chunk-at-a-time walk consumed them, and each chunk keeps its own random
/// patterns (lanes `64g..64g+63` carry chunk `g`'s stimulus). Unlike the
/// RTL variant (which draws fresh patterns per wrong key), all keys in a
/// chunk share the chunk's random patterns; with ≥ 16 patterns the
/// chunk-shared stimulus changes nothing qualitatively.
///
/// # Errors
///
/// Returns [`LockError::Netlist`] wrapping simulator construction errors,
/// a too-short `correct_key`, or a netlist that consumes no key bits.
pub fn measure_gate_corruptibility(
    original: &mlrl_netlist::Netlist,
    locked: &mlrl_netlist::Netlist,
    correct_key: &[bool],
    cfg: &CorruptibilityConfig,
) -> Result<CorruptibilityReport> {
    use mlrl_netlist::NetlistError;

    let width = locked.key_width();
    if width == 0 {
        return Err(LockError::Netlist(NetlistError::Lock(
            "netlist consumes no key bits".to_owned(),
        )));
    }
    if correct_key.len() < width {
        return Err(LockError::Netlist(NetlistError::KeyTooShort {
            required: width,
            provided: correct_key.len(),
        }));
    }
    match mlrl_netlist::sim::pick_width(cfg.wrong_keys) {
        4 => measure_gate_corruptibility_w::<4>(original, locked, correct_key, cfg),
        _ => measure_gate_corruptibility_w::<1>(original, locked, correct_key, cfg),
    }
}

/// Width-pinned body of [`measure_gate_corruptibility`].
fn measure_gate_corruptibility_w<const W: usize>(
    original: &mlrl_netlist::Netlist,
    locked: &mlrl_netlist::Netlist,
    correct_key: &[bool],
    cfg: &CorruptibilityConfig,
) -> Result<CorruptibilityReport> {
    use mlrl_netlist::sim::NetlistSimulator;

    let width = locked.key_width();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let inputs: Vec<&str> = original.inputs().iter().map(|p| p.name.as_str()).collect();
    let outputs: Vec<&str> = original.outputs().iter().map(|p| p.name.as_str()).collect();

    let mut ref_sim = NetlistSimulator::<W>::with_width(original)?;
    ref_sim.set_key(correct_key)?;
    let mut bad_sim = NetlistSimulator::<W>::with_width(locked)?;

    let widths = original.outputs().iter().map(|p| p.width() as u64);
    let mut tally = Tally::new(cfg.patterns, widths);

    let mut remaining = cfg.wrong_keys;
    while remaining > 0 {
        // Gather up to W chunks of ≤ 64 near-miss keys for one wide sweep.
        // All chunks before the last are full, so chunk g's key k lands on
        // lane 64g + k by plain concatenation. Keys first, then that
        // chunk's stimulus — the order the 64-lane walk drew them.
        let mut wrong: Vec<Vec<bool>> = Vec::new();
        let mut stimulus: Vec<Vec<u64>> = Vec::new();
        while remaining > 0 && stimulus.len() < W {
            let lanes = remaining.min(64);
            for _ in 0..lanes {
                wrong.push(near_miss_key(
                    &correct_key[..width],
                    width,
                    cfg.flips,
                    &mut rng,
                ));
            }
            // Pattern-major, port-minor.
            stimulus.push(
                (0..cfg.patterns * inputs.len())
                    .map(|_| rng.gen())
                    .collect(),
            );
            remaining -= lanes;
        }
        let refs: Vec<&[bool]> = wrong.iter().map(|k| k.as_slice()).collect();
        ref_sim.reset();
        bad_sim.reset();
        bad_sim.set_key_batch(&refs)?;

        let mut totals = vec![(0u64, 0u64); wrong.len()];
        for p in 0..cfg.patterns {
            // Lane l reads its chunk's pattern p and keeps its own key.
            let rows: Vec<&[u64]> = (0..wrong.len())
                .map(|lane| &stimulus[lane / 64][p * inputs.len()..][..inputs.len()])
                .collect();
            let golden = ref_sim.drive(&inputs, &rows, &outputs, cfg.ticks)?;
            let read = bad_sim.drive(&inputs, &rows, &outputs, cfg.ticks)?;
            for (lane, (errors, flips)) in totals.iter_mut().enumerate() {
                let at = lane * outputs.len()..(lane + 1) * outputs.len();
                let (e, f) = diff(&golden[at.clone()], &read[at]);
                *errors += e;
                *flips += f;
            }
        }
        for (errors, flips) in totals {
            tally.add_key(errors, flips);
        }
    }
    Ok(tally.report(cfg.wrong_keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assure::{lock_operations, AssureConfig};
    use crate::era::{era_lock, EraConfig};
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::visit;

    fn key_bits(key: &crate::key::Key, width: u32) -> Vec<bool> {
        (0..width).map(|i| key.bit(i).unwrap_or(false)).collect()
    }

    #[test]
    fn correct_key_with_zero_flips_never_corrupts() {
        let original = generate(&benchmark_by_name("FIR").unwrap(), 5);
        let mut locked = original.clone();
        let key = lock_operations(&mut locked, &AssureConfig::serial(15, 1)).unwrap();
        let bits = key_bits(&key, locked.key_width());
        // flips = 0 is clamped to 1 by the implementation; emulate the
        // correct-key check by measuring the locked design against itself
        // with the correct key on both sides via the equivalence probe.
        let cfg = mlrl_rtl::equiv::EquivConfig {
            patterns: 20,
            ticks: 0,
            seed: 3,
        };
        let r = mlrl_rtl::equiv::check_equiv(&original, &locked, &[], &bits, &cfg).unwrap();
        assert!(r.is_equivalent());
    }

    #[test]
    fn near_miss_keys_corrupt_assure_locked_designs() {
        let original = generate(&benchmark_by_name("FIR").unwrap(), 7);
        let mut locked = original.clone();
        let total = visit::binary_ops(&locked).len();
        let key = lock_operations(&mut locked, &AssureConfig::serial(total / 2, 2)).unwrap();
        let bits = key_bits(&key, locked.key_width());
        let report = measure_corruptibility(
            &original,
            &locked,
            &bits,
            &CorruptibilityConfig {
                wrong_keys: 24,
                patterns: 16,
                ticks: 0,
                flips: 1,
                seed: 9,
            },
        )
        .unwrap();
        assert!(report.corruption_rate > 0.6, "{report:?}");
        assert!(report.error_rate > 0.0);
        assert!(report.hamming_fraction > 0.0);
    }

    #[test]
    fn era_locking_trades_some_corruptibility_for_balance() {
        // ERA's relocking nests key bits inside dummy branches; those bits
        // are functional don't-cares, so single-bit near-miss keys corrupt
        // less often than under plain ASSURE — a real multi-objective
        // trade-off §5.1 hints at. Still, a sizeable fraction must corrupt.
        let original = generate(&benchmark_by_name("IIR").unwrap(), 3);
        let mut locked = original.clone();
        let total = visit::binary_ops(&locked).len();
        let outcome = era_lock(&mut locked, &EraConfig::new(total / 2, 4)).unwrap();
        let bits = key_bits(&outcome.key, locked.key_width());
        let report = measure_corruptibility(
            &original,
            &locked,
            &bits,
            &CorruptibilityConfig {
                wrong_keys: 24,
                patterns: 16,
                ticks: 0,
                flips: 1,
                seed: 1,
            },
        )
        .unwrap();
        assert!(report.corruption_rate > 0.4, "{report:?}");
        assert!(report.error_rate > 0.05, "{report:?}");
    }

    #[test]
    fn more_flips_never_reduce_corruption_rate_substantially() {
        let original = generate(&benchmark_by_name("SHA256").unwrap(), 11);
        let mut locked = original.clone();
        let key = lock_operations(&mut locked, &AssureConfig::serial(40, 6)).unwrap();
        let bits = key_bits(&key, locked.key_width());
        let one = measure_corruptibility(
            &original,
            &locked,
            &bits,
            &CorruptibilityConfig {
                wrong_keys: 16,
                patterns: 12,
                ticks: 0,
                flips: 1,
                seed: 2,
            },
        )
        .unwrap();
        let many = measure_corruptibility(
            &original,
            &locked,
            &bits,
            &CorruptibilityConfig {
                wrong_keys: 16,
                patterns: 12,
                ticks: 0,
                flips: 8,
                seed: 2,
            },
        )
        .unwrap();
        assert!(
            many.error_rate >= one.error_rate * 0.5,
            "one={one:?} many={many:?}"
        );
    }

    #[test]
    fn short_key_is_rejected() {
        let original = generate(&benchmark_by_name("FIR").unwrap(), 5);
        let mut locked = original.clone();
        let _ = lock_operations(&mut locked, &AssureConfig::serial(10, 1)).unwrap();
        let err = measure_corruptibility(
            &original,
            &locked,
            &[true],
            &CorruptibilityConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn keyless_locked_module_is_an_error() {
        // Near-miss keys flip a bit of the key, so a design with no key
        // bits has no wrong key to measure, settled or clocked.
        let fir = generate(&benchmark_by_name("FIR").unwrap(), 5);
        for ticks in [0, 2] {
            let cfg = CorruptibilityConfig {
                ticks,
                ..CorruptibilityConfig::default()
            };
            assert_eq!(
                measure_corruptibility(&fir, &fir, &[], &cfg),
                Err(LockError::NothingToLock)
            );
        }
    }

    fn gate_pair() -> (mlrl_netlist::Netlist, mlrl_netlist::Netlist, Vec<bool>) {
        use mlrl_netlist::build::NetlistBuilder;
        let mut b = NetlistBuilder::new(mlrl_netlist::Netlist::new("t"));
        let a = b.input_lane("a", 16);
        let c = b.input_lane("b", 16);
        let s = b.add(a, c);
        let x = b.xor_lane(s, a);
        b.output_from_lane("y", x, 16);
        let mut original = b.finish();
        original.sweep();
        let mut locked = original.clone();
        let key = mlrl_netlist::lock::xor_xnor_lock(&mut locked, 12, 5).unwrap();
        (original, locked, key.bits().to_vec())
    }

    #[test]
    fn gate_near_miss_keys_corrupt_xor_locked_netlists() {
        // An XOR/XNOR key gate with a flipped bit inverts a live wire, so
        // every near-miss key must corrupt (a 0.5-ish Hamming fraction on
        // the cone it feeds).
        let (original, locked, key) = gate_pair();
        let report = measure_gate_corruptibility(
            &original,
            &locked,
            &key,
            &CorruptibilityConfig {
                wrong_keys: 100, // exercises the >64-lane chunking path
                patterns: 16,
                ticks: 0,
                flips: 1,
                seed: 3,
            },
        )
        .unwrap();
        assert_eq!(report.wrong_keys, 100);
        assert!(report.corruption_rate > 0.95, "{report:?}");
        assert!(report.error_rate > 0.1, "{report:?}");
        assert!(report.hamming_fraction > 0.0, "{report:?}");
    }

    #[test]
    fn gate_correct_key_sweep_never_corrupts() {
        // flips is clamped to ≥ 1, so emulate the correct-key sanity check
        // by sweeping the correct key itself against the reference.
        let (original, locked, key) = gate_pair();
        use mlrl_netlist::sim::NetlistSimulator;
        let mut reference = NetlistSimulator::new(&original).unwrap();
        let mut sweep = NetlistSimulator::new(&locked).unwrap();
        let keys: Vec<&[bool]> = vec![key.as_slice(); 64];
        for pattern in 0..8u64 {
            for p in original.inputs() {
                let v = pattern.wrapping_mul(0x9e37_79b9) & 0xffff;
                reference.set_input(&p.name, v).unwrap();
                sweep.set_input(&p.name, v).unwrap();
            }
            reference.settle().unwrap();
            let golden = reference.outputs_digest().unwrap();
            let digests = sweep.key_sweep_digests(&keys).unwrap();
            assert!(digests.iter().all(|&d| d == golden));
        }
    }

    #[test]
    fn gate_corruptibility_is_width_invariant() {
        // 520 wrong keys = 8 full 64-key chunks + one partial chunk of 8:
        // exercises full packing at W=8 plus a ragged trailing super-chunk,
        // and makes the public entry point pick W=4.
        let (original, locked, key) = gate_pair();
        let cfg = CorruptibilityConfig {
            wrong_keys: 520,
            patterns: 8,
            ticks: 0,
            flips: 1,
            seed: 7,
        };
        let w1 = measure_gate_corruptibility_w::<1>(&original, &locked, &key, &cfg).unwrap();
        let w4 = measure_gate_corruptibility_w::<4>(&original, &locked, &key, &cfg).unwrap();
        let w8 = measure_gate_corruptibility_w::<8>(&original, &locked, &key, &cfg).unwrap();
        assert_eq!(w1, w4, "W=4 must be bit-identical to W=1");
        assert_eq!(w1, w8, "W=8 must be bit-identical to W=1");
        assert_eq!(mlrl_netlist::sim::pick_width(cfg.wrong_keys), 4);
        assert_eq!(
            w1,
            measure_gate_corruptibility(&original, &locked, &key, &cfg).unwrap()
        );
    }

    #[test]
    fn gate_corruptibility_values_are_pinned() {
        // Width invariance compares widths with each other only; this pins
        // the values themselves (and so the RNG draw order: keys, then the
        // chunk's stimulus), captured before the shared draw helpers.
        let (original, locked, key) = gate_pair();
        let cfg = CorruptibilityConfig {
            wrong_keys: 100,
            patterns: 6,
            ticks: 0,
            flips: 2,
            seed: 11,
        };
        let r = measure_gate_corruptibility_w::<1>(&original, &locked, &key, &cfg).unwrap();
        let bits = [
            r.corruption_rate.to_bits(),
            r.error_rate.to_bits(),
            r.hamming_fraction.to_bits(),
        ];
        assert_eq!(
            bits,
            [0x3fedc28f5c28f5c3, 0x3fecb17e4b17e4b2, 0x3fc2c28f5c28f5c3]
        );
    }

    #[test]
    fn rtl_corruptibility_values_are_pinned() {
        // Pins the exact values of the batched settle path (`ticks: 0`)
        // and the one-lane clocked path (`ticks: 2`, on an accumulator
        // whose output reads its register), and so the RNG draw order
        // both share: the key, then patterns × ports. Captured before the
        // two paths were one loop.
        let pin = |original: Module, bits: usize, ticks: usize, flips: usize| {
            let mut locked = original.clone();
            let key = lock_operations(&mut locked, &AssureConfig::serial(bits, 3)).unwrap();
            let bits = key_bits(&key, locked.key_width());
            let cfg = CorruptibilityConfig {
                wrong_keys: 10,
                patterns: 11,
                ticks,
                flips,
                seed: 5,
            };
            let r = measure_corruptibility(&original, &locked, &bits, &cfg).unwrap();
            [
                r.corruption_rate.to_bits(),
                r.error_rate.to_bits(),
                r.hamming_fraction.to_bits(),
            ]
        };
        let iir = generate(&benchmark_by_name("IIR").unwrap(), 4);
        assert_eq!(
            pin(iir, 12, 0, 2),
            [0x3feccccccccccccd, 0x3fe47ae147ae147a, 0x3fd12ad262ad262a]
        );
        let acc = mlrl_rtl::parser::parse_verilog(
            "module acc(clk, a, b, y);\n input clk;\n input [7:0] a, b;\n output [7:0] y;\n \
             reg [7:0] r;\n assign y = r ^ (a + b);\n always @(posedge clk) begin\n \
             r <= r + (a * b) - b;\n end\nendmodule",
        )
        .unwrap();
        assert_eq!(
            pin(acc, 3, 2, 1),
            [0x3ff0000000000000, 0x3fefb586fb586fb6, 0x3fe46fb586fb5870]
        );
    }

    #[test]
    fn gate_corruptibility_rejects_keyless_and_short_keys() {
        let (original, locked, key) = gate_pair();
        assert!(measure_gate_corruptibility(
            &original,
            &original,
            &[],
            &CorruptibilityConfig::default()
        )
        .is_err());
        assert!(measure_gate_corruptibility(
            &original,
            &locked,
            &key[..4],
            &CorruptibilityConfig::default()
        )
        .is_err());
    }
}
