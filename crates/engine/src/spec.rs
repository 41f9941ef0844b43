//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] names a grid — benchmarks × schemes × budgets ×
//! seeds × attacks — plus shared knobs (relock rounds, signal width,
//! worker threads). [`CampaignSpec::parse`] reads the `key = value...`
//! spec-file format; [`CampaignSpec::expand`] (in [`crate::job`]) turns
//! the grid into a deterministic job list.

use mlrl_locking::LockScheme;
use mlrl_netlist::lock::GateLockScheme;
use mlrl_rtl::bench_designs::{benchmark_by_name, DesignSpec};
use mlrl_rtl::op::{BinaryOp, ALL_BINARY_OPS};

pub use mlrl_netlist::opt::OptLevel;

/// Abstraction-level axis of a campaign grid.
///
/// `Rtl` cells lock and attack the RTL module directly (the paper's main
/// flow); `Gate` cells work on the bit-blasted netlist — RTL schemes are
/// locked at RTL and then *lowered* ("synthesis" in Fig. 1), gate schemes
/// lock the lowered base netlist. Not every scheme/attack exists at every
/// level; incompatible cells are skipped during grid expansion (see
/// [`Level::supports_scheme`] / [`Level::supports_attack`]), so one spec
/// can sweep both levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Register-transfer level: the paper's native flow.
    Rtl,
    /// Gate level: lowered netlists, attacked through the scan view.
    Gate,
}

impl Level {
    /// Every level, in spec-file order.
    pub const ALL: [Level; 2] = [Level::Rtl, Level::Gate];

    /// Spec-file / report name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Rtl => "rtl",
            Level::Gate => "gate",
        }
    }

    /// Parses a spec-file token.
    pub fn parse(token: &str) -> Result<Self, SpecError> {
        Self::ALL
            .into_iter()
            .find(|l| l.name() == token)
            .ok_or_else(|| unknown_token("level", token, Self::ALL.map(Self::name)))
    }

    /// Whether a scheme can produce a locked design at this level. Gate
    /// schemes have no RTL form; RTL schemes survive lowering (their key
    /// ternaries become MUX trees), so the gate level supports all of
    /// them. The lock-free profile "scheme" is an RTL-only analysis.
    pub fn supports_scheme(self, scheme: SchemeKind) -> bool {
        match self {
            Level::Rtl => !scheme.is_gate_scheme(),
            Level::Gate => !matches!(scheme, SchemeKind::None),
        }
    }

    /// Whether an attack can run at this level. The SAT attack needs a
    /// netlist; the closed-form KPA model, the oracle-guided hill
    /// climber, pair analysis, and the Fig. 4 observation-pool analysis
    /// are RTL-only. Structural attacks (frequency table, SnapShot) and
    /// the corruptibility measurement (64-lane key sweep at gate level)
    /// have implementations at both levels.
    pub fn supports_attack(self, attack: AttackKind) -> bool {
        match self {
            Level::Rtl => attack != AttackKind::Sat,
            Level::Gate => !matches!(
                attack,
                AttackKind::KpaModel
                    | AttackKind::OracleGuided
                    | AttackKind::PairAnalysis
                    | AttackKind::Observations
            ),
        }
    }
}

/// Locking scheme axis of a campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Original ASSURE, serial selection.
    Assure,
    /// ASSURE with random selection.
    AssureRandom,
    /// Serial ASSURE with the *original* (non-involutive) pair table —
    /// the §3.2 leaky configuration.
    AssureOriginal,
    /// Random ASSURE whose training relocks touch only untouched
    /// operations (the Fig. 4d no-overlap scenario; locks like
    /// `assure-random` outside the observations analysis).
    AssureDisjoint,
    /// Heuristic ML-resilient algorithm.
    Hra,
    /// HRA in greedy (steepest-ascent) mode.
    HraGreedy,
    /// Exact ML-resilient algorithm.
    Era,
    /// EPIC-style gate-level XOR/XNOR key gates (gate level only).
    XorXnor,
    /// Gate-level key-controlled MUXes with random decoys (gate level
    /// only).
    Mux,
    /// No locking: the cell profiles the *base* design (operation count,
    /// pair imbalance, initial metric distance — the §5 design-bias
    /// analysis). Only meaningful with the `none` attack.
    None,
}

impl SchemeKind {
    /// Every scheme, in spec-file order.
    pub const ALL: [SchemeKind; 10] = [
        SchemeKind::Assure,
        SchemeKind::AssureRandom,
        SchemeKind::AssureOriginal,
        SchemeKind::AssureDisjoint,
        SchemeKind::Hra,
        SchemeKind::HraGreedy,
        SchemeKind::Era,
        SchemeKind::XorXnor,
        SchemeKind::Mux,
        SchemeKind::None,
    ];

    /// Spec-file / report name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Assure => "assure",
            SchemeKind::AssureRandom => "assure-random",
            SchemeKind::AssureOriginal => "assure-original",
            SchemeKind::AssureDisjoint => "assure-disjoint",
            SchemeKind::Hra => "hra",
            SchemeKind::HraGreedy => "hra-greedy",
            SchemeKind::Era => "era",
            SchemeKind::XorXnor => "xor-xnor",
            SchemeKind::Mux => "mux",
            SchemeKind::None => "none",
        }
    }

    /// Whether this scheme locks the lowered netlist rather than the RTL
    /// module.
    pub fn is_gate_scheme(self) -> bool {
        self.gate_scheme().is_some()
    }

    /// The RTL locker of this scheme; `None` for the gate schemes and for
    /// profile cells. `assure-disjoint` locks like `assure-random`: its
    /// disjointness constrains only the Fig. 4d observation analysis'
    /// training relocks.
    pub fn lock_scheme(self) -> Option<LockScheme> {
        match self {
            SchemeKind::Assure => Some(LockScheme::Assure),
            SchemeKind::AssureRandom | SchemeKind::AssureDisjoint => Some(LockScheme::AssureRandom),
            SchemeKind::AssureOriginal => Some(LockScheme::AssureOriginal),
            SchemeKind::Hra => Some(LockScheme::Hra),
            SchemeKind::HraGreedy => Some(LockScheme::HraGreedy),
            SchemeKind::Era => Some(LockScheme::Era),
            SchemeKind::XorXnor | SchemeKind::Mux | SchemeKind::None => None,
        }
    }

    /// The gate-level locker of this scheme; `None` for RTL schemes and
    /// for profile cells.
    pub fn gate_scheme(self) -> Option<GateLockScheme> {
        match self {
            SchemeKind::XorXnor => Some(GateLockScheme::XorXnor),
            SchemeKind::Mux => Some(GateLockScheme::Mux),
            _ => None,
        }
    }

    /// Whether an attack is meaningful against this scheme. Profile
    /// cells (`none`) lock nothing, so only the `none` attack applies;
    /// the Fig. 4 observation-pool analysis is defined for the ASSURE
    /// selection strategies it compares.
    pub fn supports_attack(self, attack: AttackKind) -> bool {
        match self {
            SchemeKind::None => attack == AttackKind::None,
            _ if attack == AttackKind::Observations => matches!(
                self,
                SchemeKind::Assure | SchemeKind::AssureRandom | SchemeKind::AssureDisjoint
            ),
            _ => true,
        }
    }

    /// Parses a spec-file token.
    pub fn parse(token: &str) -> Result<Self, SpecError> {
        Self::ALL
            .into_iter()
            .find(|s| s.name() == token)
            .ok_or_else(|| unknown_token("scheme", token, Self::ALL.map(Self::name)))
    }
}

/// Attack axis of a campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Bayes-optimal frequency table over the relock training set (both
    /// levels; gate level uses key-gate localities).
    FreqTable,
    /// Closed-form expected-KPA model (RTL only; no training set).
    KpaModel,
    /// Full SnapShot auto-ml pipeline (both levels).
    Snapshot,
    /// Oracle-guided hill climber (RTL only; reports output agreement,
    /// not KPA).
    OracleGuided,
    /// Oracle-guided SAT attack on the lowered netlist (gate level only).
    Sat,
    /// §3.2 pair analysis: provable key-bit inference from the pairing
    /// table alone (RTL only; no training set, no oracle).
    PairAnalysis,
    /// Fig. 4 observation-pool analysis: tallies which branch operator is
    /// real across training relocks of an all-`+` network whose size is
    /// the cell benchmark's operation count (RTL only; pairs with the
    /// ASSURE selection schemes).
    Observations,
    /// §5.1 output-corruptibility measurement under near-miss wrong keys
    /// (RTL only; needs the unlocked base as reference).
    Corruptibility,
    /// Lock and score the metric only; run no attack.
    None,
}

impl AttackKind {
    /// Every attack, in spec-file order.
    pub const ALL: [AttackKind; 9] = [
        AttackKind::FreqTable,
        AttackKind::KpaModel,
        AttackKind::Snapshot,
        AttackKind::OracleGuided,
        AttackKind::Sat,
        AttackKind::PairAnalysis,
        AttackKind::Observations,
        AttackKind::Corruptibility,
        AttackKind::None,
    ];

    /// Spec-file / report name.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::FreqTable => "freq-table",
            AttackKind::KpaModel => "kpa-model",
            AttackKind::Snapshot => "snapshot",
            AttackKind::OracleGuided => "oracle-guided",
            AttackKind::Sat => "sat",
            AttackKind::PairAnalysis => "pair-analysis",
            AttackKind::Observations => "observations",
            AttackKind::Corruptibility => "corruptibility",
            AttackKind::None => "none",
        }
    }

    /// Relative execution cost of a cell running this attack, used to
    /// balance contiguous chunk boundaries (pool dealing and shard
    /// partitioning). The SAT attack is ~10× an attack-free cell; the
    /// training-set and relock-loop attacks sit in between.
    pub fn cost_weight(self) -> u64 {
        match self {
            AttackKind::Sat => 10,
            AttackKind::FreqTable | AttackKind::Snapshot | AttackKind::Observations => 3,
            _ => 1,
        }
    }

    /// Parses a spec-file token.
    pub fn parse(token: &str) -> Result<Self, SpecError> {
        Self::ALL
            .into_iter()
            .find(|a| a.name() == token)
            .ok_or_else(|| unknown_token("attack", token, Self::ALL.map(Self::name)))
    }
}

/// Builds the "unknown X" error with the accepted-token list derived from
/// the axis' `ALL` table, so the message can never drift from the enum as
/// variants are added.
fn unknown_token<const N: usize>(axis: &str, token: &str, names: [&'static str; N]) -> SpecError {
    SpecError::new(format!(
        "unknown {axis} `{token}` (expected one of: {})",
        names.join(", ")
    ))
}

/// Error from spec parsing or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

/// A declarative experiment campaign: the full grid plus shared knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign label (free-form, appears in reports).
    pub name: String,
    /// Benchmark axis; see [`resolve_benchmark`] for accepted names.
    pub benchmarks: Vec<String>,
    /// Abstraction-level axis; cells whose level does not support the
    /// cell's scheme or attack are skipped during expansion.
    pub levels: Vec<Level>,
    /// Locking scheme axis.
    pub schemes: Vec<SchemeKind>,
    /// Key budgets as fractions of the design's lockable operations.
    /// Values above 1.0 spend extra bits on balance-preserving dummies
    /// (HRA detours need roughly 3–5×).
    pub budgets: Vec<f64>,
    /// Base seeds (one locked instance per seed per cell).
    pub seeds: Vec<u64>,
    /// Attack axis.
    pub attacks: Vec<AttackKind>,
    /// Relock rounds for training-set generation.
    pub relock_rounds: usize,
    /// Signal width of generated designs.
    pub width: u32,
    /// Worker threads; 0 means "all available cores".
    pub threads: usize,
    /// Per-cell DIP-iteration budget of the SAT attack.
    pub sat_max_dips: usize,
    /// Per-cell clause budget of the SAT attack's miter solver; 0 means
    /// unlimited.
    pub sat_max_clauses: usize,
    /// Wrong keys sampled per cell by the corruptibility measurement.
    pub wrong_keys: usize,
    /// Whether cells of metric-traced schemes (ERA/HRA) serialize the
    /// full per-bit `(key bits, M_g_sec)` trajectory into their canonical
    /// records (the Fig. 5b curves). Off by default: traces repeat per
    /// attack cell sharing a locked instance, so large sweeps would bloat
    /// their reports for data only the trajectory figures consume.
    pub trace: bool,
    /// Netlist optimization level applied during "synthesis" (lowering)
    /// of gate-level cells. `O0` (the default) keeps the historical
    /// byte-identical lowering; higher levels run the
    /// [`mlrl_netlist::opt`] pass pipeline over both the base and the
    /// locked netlist, shrinking simulations and SAT instances.
    pub opt_level: OptLevel,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            name: "campaign".to_owned(),
            benchmarks: Vec::new(),
            levels: vec![Level::Rtl],
            schemes: Vec::new(),
            budgets: Vec::new(),
            seeds: vec![2022],
            attacks: vec![AttackKind::FreqTable],
            relock_rounds: 60,
            width: 32,
            threads: 0,
            sat_max_dips: 512,
            sat_max_clauses: 0,
            wrong_keys: 32,
            trace: false,
            opt_level: OptLevel::O0,
        }
    }
}

impl CampaignSpec {
    /// Builds a grid spec programmatically.
    pub fn grid(benchmarks: &[&str], schemes: &[SchemeKind], budgets: &[f64]) -> Self {
        Self {
            benchmarks: benchmarks.iter().map(|s| (*s).to_owned()).collect(),
            schemes: schemes.to_vec(),
            budgets: budgets.to_vec(),
            ..Self::default()
        }
    }

    /// Number of grid cells (jobs) the spec expands into, counting only
    /// level-compatible and scheme-compatible scheme × attack
    /// combinations.
    pub fn cells(&self) -> usize {
        self.benchmarks.len() * self.budgets.len() * self.seeds.len() * self.compatible_cells()
    }

    /// Level × scheme × attack combinations the axes admit (level
    /// compatibility on both scheme and attack, plus the scheme × attack
    /// pairing rules of [`SchemeKind::supports_attack`]).
    pub(crate) fn compatible_cells(&self) -> usize {
        self.levels
            .iter()
            .map(|&level| {
                self.schemes
                    .iter()
                    .filter(|&&s| level.supports_scheme(s))
                    .map(|&s| {
                        self.attacks
                            .iter()
                            .filter(|&&a| level.supports_attack(a) && s.supports_attack(a))
                            .count()
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Parses the spec-file format:
    ///
    /// ```text
    /// # comment
    /// name       = fig6-sweep
    /// benchmarks = FIR SHA256 mix:add=25,shl=10
    /// levels     = rtl gate
    /// schemes    = assure hra era xor-xnor mux
    /// budgets    = 0.25 0.5 0.75
    /// seeds      = 2022 2023
    /// attacks    = freq-table kpa-model sat
    /// relock_rounds = 60
    /// width      = 32
    /// threads    = 4
    /// sat_max_dips    = 512
    /// sat_max_clauses = 2000000
    /// wrong_keys      = 32
    /// trace           = false
    /// opt_level       = o2
    /// ```
    ///
    /// Lists are whitespace- or comma-separated, except `benchmarks`,
    /// which is whitespace-separated only (custom `mix:op=N,...` entries
    /// contain commas). Unknown keys are errors.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed lines, unknown keys or tokens,
    /// out-of-range values, or a grid that validates to zero cells.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut spec = Self::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                SpecError::new(format!("line {}: expected `key = value`", lineno + 1))
            })?;
            let key = key.trim();
            let tokens: Vec<&str> = value
                .split(|c: char| c.is_whitespace() || c == ',')
                .filter(|t| !t.is_empty())
                .collect();
            let scalar = || -> Result<&str, SpecError> {
                match tokens.as_slice() {
                    [one] => Ok(one),
                    _ => Err(SpecError::new(format!(
                        "line {}: `{key}` takes exactly one value",
                        lineno + 1
                    ))),
                }
            };
            match key {
                "name" => spec.name = tokens.join("-"),
                "benchmarks" => {
                    // Whitespace-separated only: `mix:add=25,shl=10`
                    // entries contain commas. Token-edge commas from
                    // `FIR, SHA256` style are still tolerated.
                    spec.benchmarks = value
                        .split_whitespace()
                        .map(|t| t.trim_matches(',').to_owned())
                        .filter(|t| !t.is_empty())
                        .collect();
                }
                "levels" => {
                    spec.levels = tokens
                        .iter()
                        .map(|t| Level::parse(t))
                        .collect::<Result<_, _>>()?;
                }
                "schemes" => {
                    spec.schemes = tokens
                        .iter()
                        .map(|t| SchemeKind::parse(t))
                        .collect::<Result<_, _>>()?;
                }
                "budgets" => {
                    spec.budgets = tokens
                        .iter()
                        .map(|t| {
                            t.parse::<f64>().map_err(|e| {
                                SpecError::new(format!(
                                    "line {}: bad budget `{t}`: {e}",
                                    lineno + 1
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "seeds" => {
                    spec.seeds = tokens
                        .iter()
                        .map(|t| {
                            t.parse::<u64>().map_err(|e| {
                                SpecError::new(format!("line {}: bad seed `{t}`: {e}", lineno + 1))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "attacks" => {
                    spec.attacks = tokens
                        .iter()
                        .map(|t| AttackKind::parse(t))
                        .collect::<Result<_, _>>()?;
                }
                "relock_rounds" => {
                    spec.relock_rounds = scalar()?.parse().map_err(|e| {
                        SpecError::new(format!("line {}: bad relock_rounds: {e}", lineno + 1))
                    })?;
                }
                "width" => {
                    spec.width = scalar()?.parse().map_err(|e| {
                        SpecError::new(format!("line {}: bad width: {e}", lineno + 1))
                    })?;
                }
                "threads" => {
                    spec.threads = scalar()?.parse().map_err(|e| {
                        SpecError::new(format!("line {}: bad threads: {e}", lineno + 1))
                    })?;
                }
                "sat_max_dips" => {
                    spec.sat_max_dips = scalar()?.parse().map_err(|e| {
                        SpecError::new(format!("line {}: bad sat_max_dips: {e}", lineno + 1))
                    })?;
                }
                "sat_max_clauses" => {
                    spec.sat_max_clauses = scalar()?.parse().map_err(|e| {
                        SpecError::new(format!("line {}: bad sat_max_clauses: {e}", lineno + 1))
                    })?;
                }
                "wrong_keys" => {
                    spec.wrong_keys = scalar()?.parse().map_err(|e| {
                        SpecError::new(format!("line {}: bad wrong_keys: {e}", lineno + 1))
                    })?;
                }
                "opt_level" => {
                    spec.opt_level = OptLevel::parse(scalar()?)
                        .map_err(|e| SpecError::new(format!("line {}: {e}", lineno + 1)))?;
                }
                "trace" => {
                    spec.trace = match scalar()? {
                        "true" | "on" | "1" => true,
                        "false" | "off" | "0" => false,
                        other => {
                            return Err(SpecError::new(format!(
                                "line {}: bad trace `{other}` (true/false)",
                                lineno + 1
                            )))
                        }
                    };
                }
                other => {
                    return Err(SpecError::new(format!(
                        "line {}: unknown key `{other}`",
                        lineno + 1
                    )))
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on an empty grid axis, unresolvable
    /// benchmark names, budgets outside `(0, 8]`, width outside `1..=64`,
    /// or a level axis that filters every scheme × attack combination out
    /// (e.g. gate schemes on an RTL-only grid).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.benchmarks.is_empty() {
            return Err(SpecError::new("spec lists no benchmarks"));
        }
        if self.levels.is_empty() {
            return Err(SpecError::new("spec lists no levels"));
        }
        if self.schemes.is_empty() {
            return Err(SpecError::new("spec lists no schemes"));
        }
        if self.budgets.is_empty() {
            return Err(SpecError::new("spec lists no budgets"));
        }
        if self.seeds.is_empty() {
            return Err(SpecError::new("spec lists no seeds"));
        }
        if self.attacks.is_empty() {
            return Err(SpecError::new("spec lists no attacks"));
        }
        for b in &self.benchmarks {
            resolve_benchmark(b).ok_or_else(|| {
                SpecError::new(format!(
                    "unknown benchmark `{b}` (paper benchmark, `FIG5`, or `mix:op=N,...`)"
                ))
            })?;
        }
        for &budget in &self.budgets {
            if !(budget > 0.0 && budget <= 8.0) {
                return Err(SpecError::new(format!("budget {budget} outside (0, 8]")));
            }
        }
        if !(1..=64).contains(&self.width) {
            return Err(SpecError::new(format!(
                "width {} outside 1..=64",
                self.width
            )));
        }
        if self.relock_rounds == 0 {
            return Err(SpecError::new("relock_rounds must be at least 1"));
        }
        if self.attacks.contains(&AttackKind::Sat) && self.sat_max_dips == 0 {
            return Err(SpecError::new("sat_max_dips must be at least 1"));
        }
        if self.attacks.contains(&AttackKind::Corruptibility) && self.wrong_keys == 0 {
            return Err(SpecError::new("wrong_keys must be at least 1"));
        }
        if self.compatible_cells() == 0 {
            return Err(SpecError::new(
                "grid is empty: no scheme × attack combination is supported at any listed level",
            ));
        }
        Ok(())
    }
}

/// Resolves a spec-file benchmark name to a generator spec.
///
/// Accepted forms:
/// - any paper benchmark name (`FIR`, `SHA256`, ... — case-insensitive),
/// - `FIG5` — the §4.4 working example (`|ODT[(+,-)]| = 25`,
///   `|ODT[(<<,>>)]| = 10`),
/// - `mix:<op>=<count>,...` — a custom operation mix, e.g.
///   `mix:add=25,shl=10` (op names are lower-cased `BinaryOp` variants).
pub fn resolve_benchmark(name: &str) -> Option<DesignSpec> {
    if let Some(spec) = benchmark_by_name(name) {
        return Some(spec);
    }
    if name.eq_ignore_ascii_case("FIG5") {
        return Some(DesignSpec {
            name: "FIG5",
            op_mix: vec![(BinaryOp::Add, 25), (BinaryOp::Shl, 10)],
            control: false,
            description: "metric working example of §4.4",
        });
    }
    if let Some(mix) = name.strip_prefix("mix:") {
        let mut op_mix = Vec::new();
        for part in mix.split(',') {
            let (op_name, count) = part.split_once('=')?;
            let op = op_by_name(op_name.trim())?;
            let count: usize = count.trim().parse().ok()?;
            if count == 0 {
                return None;
            }
            op_mix.push((op, count));
        }
        if op_mix.is_empty() {
            return None;
        }
        // The generator wants static strings; interning bounds the leak
        // to one allocation per *distinct* custom mix, however many jobs
        // resolve it.
        let label = intern_label(name);
        return Some(DesignSpec {
            name: label,
            op_mix,
            control: false,
            description: "custom operation mix from campaign spec",
        });
    }
    None
}

/// Interns a custom-mix label as `&'static str`, deduplicating so
/// repeated resolution of the same name never grows memory.
fn intern_label(name: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let table = INTERNED.get_or_init(|| Mutex::new(Vec::new()));
    let mut table = table.lock().expect("intern table poisoned");
    if let Some(found) = table.iter().find(|l| **l == name) {
        return found;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

/// Looks up a binary operator by its lower-cased variant name
/// (`add`, `sub`, `shl`, ...).
pub fn op_by_name(name: &str) -> Option<BinaryOp> {
    ALL_BINARY_OPS
        .iter()
        .copied()
        .find(|op| format!("{op:?}").eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_spec() {
        let text = "
            # Fig. 6-style sweep
            name       = demo
            benchmarks = FIR, SHA256
            schemes    = era hra
            budgets    = 0.5 0.75
            seeds      = 1 2
            attacks    = freq-table kpa-model
            relock_rounds = 40
            threads    = 4
        ";
        let spec = CampaignSpec::parse(text).expect("parses");
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.benchmarks, vec!["FIR", "SHA256"]);
        assert_eq!(spec.schemes, vec![SchemeKind::Era, SchemeKind::Hra]);
        assert_eq!(spec.cells(), 2 * 2 * 2 * 2 * 2);
        assert_eq!(spec.relock_rounds, 40);
        assert_eq!(spec.threads, 4);
    }

    #[test]
    fn rejects_unknown_keys_schemes_and_benchmarks() {
        assert!(CampaignSpec::parse("bogus = 1").is_err());
        assert!(CampaignSpec::parse("benchmarks = FIR\nschemes = rsa\nbudgets = 0.5").is_err());
        assert!(CampaignSpec::parse("benchmarks = NOPE\nschemes = era\nbudgets = 0.5").is_err());
        assert!(CampaignSpec::parse("benchmarks = FIR\nschemes = era\nbudgets = 9.5").is_err());
    }

    #[test]
    fn parse_errors_list_every_variant() {
        // The accepted-token lists are derived from the `ALL` tables, so a
        // new variant shows up in the message without manual edits.
        for scheme in SchemeKind::ALL {
            let msg = SchemeKind::parse("nope").expect_err("rejects").to_string();
            assert!(msg.contains(scheme.name()), "{msg} lacks {}", scheme.name());
        }
        for attack in AttackKind::ALL {
            let msg = AttackKind::parse("nope").expect_err("rejects").to_string();
            assert!(msg.contains(attack.name()), "{msg} lacks {}", attack.name());
        }
        for level in Level::ALL {
            let msg = Level::parse("nope").expect_err("rejects").to_string();
            assert!(msg.contains(level.name()), "{msg} lacks {}", level.name());
        }
        for opt in OptLevel::ALL {
            let msg = OptLevel::parse("nope").expect_err("rejects");
            assert!(msg.contains(opt.name()), "{msg} lacks {}", opt.name());
        }
    }

    #[test]
    fn opt_level_parses_and_defaults_to_o0() {
        let base = "benchmarks = FIR\nschemes = era\nbudgets = 0.5\n";
        assert_eq!(
            CampaignSpec::parse(base).expect("parses").opt_level,
            OptLevel::O0
        );
        let spec = CampaignSpec::parse(&format!("{base}opt_level = o2")).expect("parses");
        assert_eq!(spec.opt_level, OptLevel::O2);
        let err = CampaignSpec::parse(&format!("{base}opt_level = o9"))
            .expect_err("rejects")
            .to_string();
        for opt in OptLevel::ALL {
            assert!(err.contains(opt.name()), "{err} lacks {}", opt.name());
        }
    }

    #[test]
    fn levels_filter_incompatible_scheme_attack_combos() {
        let text = "
            benchmarks = FIR
            levels     = rtl gate
            schemes    = era xor-xnor
            budgets    = 0.5
            attacks    = freq-table sat none
        ";
        let spec = CampaignSpec::parse(text).expect("parses");
        // rtl: era × {freq-table, none} = 2 (sat and xor-xnor are skipped);
        // gate: {era, xor-xnor} × {freq-table, sat, none} = 6.
        assert_eq!(spec.cells(), 8);

        // A grid whose level axis filters everything out is rejected.
        assert!(CampaignSpec::parse(
            "benchmarks = FIR\nlevels = rtl\nschemes = xor-xnor\nbudgets = 0.5"
        )
        .is_err());
        // SAT cells need a non-zero DIP budget.
        assert!(CampaignSpec::parse(
            "benchmarks = FIR\nlevels = gate\nschemes = mux\nbudgets = 0.5\nattacks = sat\nsat_max_dips = 0"
        )
        .is_err());
    }

    #[test]
    fn benchmark_list_keeps_mix_entries_whole() {
        let spec =
            CampaignSpec::parse("benchmarks = FIR, mix:add=6,shl=3\nschemes = era\nbudgets = 1.0")
                .expect("parses");
        assert_eq!(spec.benchmarks, vec!["FIR", "mix:add=6,shl=3"]);
    }

    #[test]
    fn resolves_paper_fig5_and_custom_mixes() {
        assert!(resolve_benchmark("FIR").is_some());
        assert!(resolve_benchmark("fir").is_some());
        let fig5 = resolve_benchmark("FIG5").expect("working example");
        assert_eq!(fig5.total_ops(), 35);
        let mix = resolve_benchmark("mix:add=3,shl=2").expect("custom mix");
        assert_eq!(mix.total_ops(), 5);
        assert!(resolve_benchmark("mix:frobnicate=3").is_none());
        assert!(resolve_benchmark("mix:add=0").is_none());
    }
}
