//! One entry point for RTL operation locking: [`lock`] a module under a
//! [`LockScheme`] with a key budget from [`key_budget`] — the RTL
//! counterpart of `mlrl_netlist::lock::lock_netlist`.
//!
//! ASSURE, HRA and ERA spend the same kind of budget, a fraction of the
//! design's lockable operations, so every comparison of the three goes
//! through these two functions.

use mlrl_rtl::{visit, Module};

use crate::assure::{lock_operations, AssureConfig, Selection};
use crate::era::{era_lock, EraConfig};
use crate::error::Result;
use crate::hra::{hra_lock, HraConfig};
use crate::key::Key;
use crate::pairs::PairTable;

/// An RTL operation-locking scheme and its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockScheme {
    /// ASSURE, serial selection, fixed pair table.
    Assure,
    /// ASSURE, random selection, fixed pair table.
    AssureRandom,
    /// Serial ASSURE under the *original* (non-involutive) pair table —
    /// the §3.2 leaky configuration.
    AssureOriginal,
    /// HRA with a fair-coin random decision (Alg. 4).
    Hra,
    /// The Greedy variant of HRA (§4.4).
    HraGreedy,
    /// ERA (Alg. 3).
    Era,
}

/// Result of a locking run.
#[derive(Debug, Clone, PartialEq)]
pub struct LockOutcome {
    /// The locking key (operation bits only).
    pub key: Key,
    /// Bits consumed. ASSURE spends the budget exactly; HRA may overshoot
    /// it by one bit on a final paired lock, ERA by whatever balancing the
    /// last pair takes.
    pub bits_used: usize,
    /// `(bits_used, M_g_sec, M_r_sec)` after every applied HRA/ERA lock —
    /// the data behind Fig. 5b. Empty for ASSURE.
    pub trace: Vec<(usize, f64, f64)>,
}

/// The key budget that spends `fraction` of `module`'s lockable
/// operations: rounded to the nearest bit, at least one. `None` when the
/// module has no lockable operation.
///
/// # Examples
///
/// ```
/// use mlrl_locking::key_budget;
/// use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
///
/// let m = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
/// assert_eq!(key_budget(&m, 0.75), Some(47)); // 63 operations
/// assert_eq!(key_budget(&m, 0.001), Some(1));
/// ```
pub fn key_budget(module: &Module, fraction: f64) -> Option<usize> {
    let lockable = visit::binary_ops(module).len();
    (lockable > 0).then(|| ((lockable as f64) * fraction).round().max(1.0) as usize)
}

/// Locks `module` under `scheme` with a budget of `bits` key bits.
///
/// # Errors
///
/// Returns [`LockError::NothingToLock`](crate::LockError::NothingToLock)
/// if the design has no lockable operations and `bits > 0`, and any error
/// of the scheme's locker.
///
/// # Examples
///
/// ```
/// use mlrl_locking::{key_budget, lock, LockScheme};
/// use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
///
/// let mut m = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
/// let bits = key_budget(&m, 0.75).expect("FIR has operations");
/// let outcome = lock(&mut m, LockScheme::Era, bits, 7)?;
/// assert!(outcome.bits_used >= bits);
/// assert_eq!(outcome.key.len() as u32, m.key_width());
/// # Ok::<(), mlrl_locking::LockError>(())
/// ```
pub fn lock(
    module: &mut Module,
    scheme: LockScheme,
    bits: usize,
    seed: u64,
) -> Result<LockOutcome> {
    let assure = |module: &mut Module, cfg: AssureConfig| {
        let key = lock_operations(module, &cfg)?;
        Ok(LockOutcome {
            bits_used: key.len(),
            key,
            trace: Vec::new(),
        })
    };
    match scheme {
        LockScheme::Assure => assure(module, AssureConfig::serial(bits, seed)),
        LockScheme::AssureRandom => assure(module, AssureConfig::random(bits, seed)),
        LockScheme::AssureOriginal => assure(
            module,
            AssureConfig {
                selection: Selection::Serial,
                pair_table: PairTable::original_assure(),
                budget: bits,
                seed,
            },
        ),
        LockScheme::Hra => hra_lock(module, &HraConfig::new(bits, seed)),
        LockScheme::HraGreedy => hra_lock(module, &HraConfig::greedy(bits, seed)),
        LockScheme::Era => era_lock(module, &EraConfig::new(bits, seed)),
    }
}
