//! The oracle-guided SAT attack on locked netlists.
//!
//! Answers the question the paper leaves open in §5 ("Are the locking
//! algorithms resilient to oracle-guided attacks?"): the classic SAT attack
//! (Subramanyan et al.) recovers a correct key for *any* locking scheme
//! whose only defence is structural/learning resilience — including ERA and
//! HRA after lowering to gates. SAT resistance is an orthogonal objective
//! the paper defers to \[3\] (Karfa et al., DATE 2020), and this module makes
//! that trade-off measurable.
//!
//! ## Algorithm
//!
//! Build a miter of two copies of the locked circuit sharing inputs `X` but
//! carrying independent keys `K1`, `K2`, asserting that some output differs.
//! While satisfiable, the model's `X` is a *distinguishing input pattern*
//! (DIP): at least two key classes disagree on it. Query the oracle (a
//! working chip — here a simulator holding the correct key; see DESIGN.md
//! substitutions), then constrain both key copies to reproduce the oracle's
//! answer on that DIP. When the miter becomes unsatisfiable, every key
//! consistent with the accumulated I/O constraints is functionally correct;
//! solve the constraint system once more to extract one.

use mlrl_netlist::equiv::check_netlists;
use mlrl_netlist::ir::Netlist;
use mlrl_netlist::sim::{NetlistSimulator, LANES};
use mlrl_netlist::NetlistError;

use crate::cnf::{CnfBuilder, Lit};
use crate::solver::{SolveResult, Solver};
use crate::tseitin::CircuitEncoder;

/// A named port-value assignment, as exchanged with an [`Oracle`].
pub type PortValues = Vec<(String, u64)>;

/// An input/output oracle for the SAT attack: the attacker's working chip.
pub trait Oracle {
    /// Returns the named output values for the given input assignment.
    fn query(&mut self, inputs: &[(String, u64)]) -> PortValues;

    /// Answers up to 64 input assignments in one call. The default maps
    /// [`Oracle::query`] over the batch; simulator-backed oracles override
    /// it to ride the 64-lane word simulator (one topological walk for the
    /// whole batch).
    fn query_batch(&mut self, batch: &[&[(String, u64)]]) -> Vec<PortValues> {
        batch.iter().map(|inputs| self.query(inputs)).collect()
    }
}

/// Oracle backed by a netlist simulator holding the correct key — the
/// reproduction's stand-in for a functional chip bought on the market.
///
/// [`Oracle::query_batch`] answers up to 64 assignments per topological
/// walk, which covers the DIP loop's single-assignment queries and the
/// ≤ 64-candidate validation sweep.
#[derive(Debug)]
pub struct SimOracle<'n> {
    sim: NetlistSimulator<'n>,
    output_names: Vec<String>,
    /// Number of queries served (the attack's main cost metric).
    pub queries: usize,
}

impl<'n> SimOracle<'n> {
    /// Wraps `netlist` with the correct `key` installed.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction / key installation errors.
    pub fn new(netlist: &'n Netlist, key: &[bool]) -> Result<Self, NetlistError> {
        let mut sim = NetlistSimulator::new(netlist)?;
        sim.set_key(key)?;
        let output_names = netlist.outputs().iter().map(|p| p.name.clone()).collect();
        Ok(Self {
            sim,
            output_names,
            queries: 0,
        })
    }
}

impl Oracle for SimOracle<'_> {
    fn query(&mut self, inputs: &[(String, u64)]) -> PortValues {
        self.queries += 1;
        mlrl_obs::counter_add("oracle.queries", 1);
        mlrl_obs::counter_add("oracle.settles", 1);
        for (name, v) in inputs {
            self.sim
                .set_input(name, *v)
                .expect("oracle knows its ports");
        }
        self.sim.settle().expect("oracle settles");
        self.output_names
            .iter()
            .map(|p| (p.clone(), self.sim.output(p).expect("oracle output")))
            .collect()
    }

    /// One levelized walk answers up to 64 assignments: assignment `i`
    /// rides lane `i % 64` of the word simulator, 64 per walk, preserving
    /// the trait default's any-size contract.
    fn query_batch(&mut self, batch: &[&[(String, u64)]]) -> Vec<PortValues> {
        if batch.is_empty() {
            return Vec::new();
        }
        self.queries += batch.len();
        mlrl_obs::counter_add("oracle.queries", batch.len() as u64);
        mlrl_obs::counter_add("oracle.batch_settles", batch.len().div_ceil(LANES) as u64);
        // One row per assignment, one column per port of the first.
        // Assignments are matched by name, not position, so reordered
        // batches answer correctly.
        let names: Vec<&str> = batch[0].iter().map(|(n, _)| n.as_str()).collect();
        let rows: Vec<Vec<u64>> = batch
            .iter()
            .map(|assignment| {
                names
                    .iter()
                    .map(|name| match assignment.iter().find(|(n, _)| n == name) {
                        Some((_, v)) => *v,
                        None => panic!("oracle batch missing port `{name}`"),
                    })
                    .collect()
            })
            .collect();
        let read = self
            .sim
            .drive(&names, &rows, &self.output_names, 0)
            .expect("oracle knows its ports");
        let outputs = self.output_names.len();
        (0..batch.len())
            .map(|row| {
                let values = &read[row * outputs..(row + 1) * outputs];
                self.output_names
                    .iter()
                    .cloned()
                    .zip(values.iter().copied())
                    .collect()
            })
            .collect()
    }
}

/// Result of a SAT attack run.
#[derive(Debug, Clone)]
pub struct SatAttackReport {
    /// The recovered key. Functionally correct when `proved` is true;
    /// best-effort (consistent with every collected DIP, validated
    /// against the oracle on random probes) when a budget ran out first.
    pub key: Vec<bool>,
    /// Number of distinguishing input patterns (oracle queries) needed.
    pub dips: usize,
    /// Whether the attack terminated with an UNSAT miter (functional
    /// correctness proof) rather than an exhausted iteration or clause
    /// budget.
    pub proved: bool,
    /// DIP-consistent candidate keys the post-budget validation sweep
    /// enumerated and ranked (1 when the attack proved, or when the
    /// constraint system admits a single key).
    pub candidates: usize,
    /// Fraction of validation probes the returned key agreed with the
    /// oracle on; `None` when no validation sweep ran (proof reached or
    /// single candidate).
    pub validation_agreement: Option<f64>,
    /// Conflicts the miter solver met over the whole attack.
    pub conflicts: u64,
    /// Decisions the miter solver made over the whole attack.
    pub decisions: u64,
    /// Literals the miter solver propagated over the whole attack,
    /// clause additions included (the per-DIP `sat.propagations`
    /// counter samples only the `solve` calls).
    pub propagations: u64,
}

/// Configuration of a SAT attack run.
#[derive(Debug, Clone)]
pub struct SatAttackConfig {
    /// Upper bound on DIP iterations before giving up.
    pub max_dips: usize,
    /// Upper bound on the miter solver's clause database (input plus
    /// learned plus per-DIP constraint copies). `usize::MAX` disables the
    /// cap; campaign specs use this to bound worst-case solver memory per
    /// cell.
    pub max_clauses: usize,
}

impl Default for SatAttackConfig {
    fn default() -> Self {
        Self {
            max_dips: 256,
            max_clauses: usize::MAX,
        }
    }
}

/// Random probe vectors used by the post-budget validation sweep: when a
/// budget exhausts before a proof, up to 64 DIP-consistent candidate keys
/// ride the lanes of *one* key-sweep simulation per probe and the
/// best-agreeing key is returned (see
/// [`SatAttackReport::validation_agreement`]).
const VALIDATION_PROBES: usize = 16;

/// Runs the oracle-guided SAT attack against a locked combinational netlist.
///
/// An exhausted iteration or clause budget is *not* an error: the report
/// then carries `proved: false` and the best key consistent with every
/// collected DIP (resilience to the attack under a budget is a result,
/// not a failure).
///
/// # Errors
///
/// - [`NetlistError::Sequential`] if the netlist has flip-flops (unrolling
///   is out of scope for this reproduction), and the validation and cycle
///   errors of [`CircuitEncoder::new`].
/// - [`NetlistError::Lock`] if the netlist consumes no key bits or if the
///   final key-extraction solve fails (which would indicate an
///   inconsistent oracle).
///
/// # Examples
///
/// ```
/// use mlrl_netlist::build::NetlistBuilder;
/// use mlrl_netlist::ir::Netlist;
/// use mlrl_netlist::lock::xor_xnor_lock;
/// use mlrl_sat::attack::{sat_attack, SatAttackConfig, SimOracle};
///
/// let mut nb = NetlistBuilder::new(Netlist::new("t"));
/// let a = nb.input_lane("a", 8);
/// let b = nb.input_lane("b", 8);
/// let s = nb.add(a, b);
/// nb.output_from_lane("y", s, 8);
/// let mut locked = nb.finish();
/// locked.sweep();
/// let original = locked.clone();
/// let key = xor_xnor_lock(&mut locked, 8, 7)?;
///
/// let mut oracle = SimOracle::new(&locked, key.bits())?;
/// let report = sat_attack(&locked, &mut oracle, &SatAttackConfig::default())?;
/// assert!(report.proved);
/// // The recovered key unlocks the design (it need not equal the inserted
/// // key bit-for-bit; functional correctness is what counts).
/// let check = mlrl_netlist::equiv::check_netlists(
///     &original, &locked, &[], &report.key, 100, 3)?;
/// assert!(check.is_equivalent());
/// # Ok::<(), mlrl_netlist::NetlistError>(())
/// ```
pub fn sat_attack(
    locked: &Netlist,
    oracle: &mut dyn Oracle,
    cfg: &SatAttackConfig,
) -> Result<SatAttackReport, NetlistError> {
    let encoder = CircuitEncoder::new(locked)?;
    if locked.key_width() == 0 {
        return Err(NetlistError::Lock(
            "netlist consumes no key bits".to_owned(),
        ));
    }

    let mut cnf = CnfBuilder::new();

    // Shared input variables, then independent key variables for the two
    // copies, interleaved per key bit.
    let input_width: usize = locked.inputs().iter().map(|p| p.width()).sum();
    let inputs: Vec<Lit> = (0..input_width).map(|_| cnf.new_var().pos()).collect();
    let (mut key1, mut key2) = (Vec::new(), Vec::new());
    for _ in locked.key_bits() {
        key1.push(cnf.new_var().pos());
        key2.push(cnf.new_var().pos());
    }
    let copy1 = encoder.copy(&mut cnf, &inputs, &key1);
    let copy2 = encoder.copy(&mut cnf, &inputs, &key2);

    // Miter: at least one output bit differs between the two copies.
    let mut diff_lits = Vec::new();
    for p in locked.outputs() {
        for &bit in &p.bits {
            let d = cnf.new_var().pos();
            cnf.define_xor(d, copy1[bit.index()], copy2[bit.index()]);
            diff_lits.push(d);
        }
    }
    cnf.add_clause(&diff_lits);

    let mut solver = Solver::from_builder(&cnf);

    // Collected (DIP, oracle response) pairs for the final key extraction.
    let mut io_pairs: Vec<(PortValues, PortValues)> = Vec::new();
    let mut dips = 0usize;
    let mut proved = false;

    while dips < cfg.max_dips && solver.num_clauses() <= cfg.max_clauses {
        // Per-DIP solver effort: snapshot lifetime counters around each
        // miter solve so the telemetry deltas attribute work to this
        // iteration (final UNSAT round included).
        let (c0, d0, p0) = (
            solver.conflicts(),
            solver.decisions(),
            solver.propagations(),
        );
        let dip_span = mlrl_obs::span("sat.dip");
        let result = solver.solve();
        drop(dip_span);
        mlrl_obs::counter_add("sat.conflicts", solver.conflicts() - c0);
        mlrl_obs::counter_add("sat.decisions", solver.decisions() - d0);
        mlrl_obs::counter_add("sat.propagations", solver.propagations() - p0);
        match result {
            SolveResult::Unsat => {
                proved = true;
                break;
            }
            SolveResult::Sat(model) => {
                dips += 1;
                mlrl_obs::counter_add("sat.dips", 1);
                // Decode the DIP from the shared input variables.
                let mut bits = inputs.iter();
                let stimulus: Vec<(String, u64)> = locked
                    .inputs()
                    .iter()
                    .map(|p| {
                        let mut v = 0u64;
                        for (i, lit) in bits.by_ref().take(p.width()).enumerate() {
                            if lit.value_under(model[lit.var().index()]) {
                                v |= 1 << i;
                            }
                        }
                        (p.name.clone(), v)
                    })
                    .collect();
                let response = oracle.query(&stimulus);

                // Constrain both key copies to agree with the oracle on
                // this DIP by appending fresh constrained circuit copies.
                // Each copy numbers its variables from the solver's count;
                // the scratch builder holds only its new clauses.
                for keys in [&key1, &key2] {
                    let mut cc = CnfBuilder::starting_at(solver.num_vars());
                    encoder.constrain(&mut cc, keys, &stimulus, &response);
                    solver.ensure_vars(cc.num_vars());
                    for clause in cc.clauses() {
                        solver.add_clause(clause);
                    }
                }
                io_pairs.push((stimulus, response));
            }
        }
    }
    // Key extraction: any key consistent with all collected I/O pairs.
    // Reached both on proof (UNSAT miter) and on budget exhaustion; in the
    // latter case the key is the attacker's best unproven candidate.
    let mut kb = CnfBuilder::new();
    let key_vars: Vec<Lit> = (0..locked.key_width())
        .map(|_| kb.new_var().pos())
        .collect();
    for (stimulus, response) in &io_pairs {
        encoder.constrain(&mut kb, &key_vars, stimulus, response);
    }
    let mut key_solver = Solver::from_builder(&kb);
    let extract_key = |model: &[bool]| -> Vec<bool> {
        key_vars
            .iter()
            .map(|l| l.value_under(model[l.var().index()]))
            .collect()
    };
    let first = match key_solver.solve() {
        SolveResult::Sat(m) => extract_key(&m),
        SolveResult::Unsat => {
            return Err(NetlistError::Lock(
                "no key consistent with oracle responses (inconsistent oracle?)".to_owned(),
            ))
        }
    };

    // Post-budget validation: an unproved key is only one member of the
    // DIP-consistent class, and the extraction solver's first model has no
    // reason to be its best member. Enumerate up to 64 class members by
    // blocking solved models, then rank them against the oracle on random
    // probes — every candidate rides one lane of the word simulator, so
    // each probe costs a single topological walk (`key_sweep_digests`).
    let mut candidates = vec![first];
    let mut validation_agreement = None;
    if !proved {
        while candidates.len() < LANES {
            let last = candidates.last().expect("at least the first key");
            let block: Vec<Lit> = key_vars
                .iter()
                .zip(last)
                .map(|(&l, &bit)| if bit { l.inverted() } else { l })
                .collect();
            key_solver.add_clause(&block);
            match key_solver.solve() {
                SolveResult::Sat(m) => candidates.push(extract_key(&m)),
                SolveResult::Unsat => break,
            }
        }
        if candidates.len() > 1 {
            let (best, agreement) = rank_candidates(locked, oracle, &candidates)?;
            validation_agreement = Some(agreement);
            candidates.swap(0, best);
        }
    }

    let enumerated = candidates.len();
    let key = candidates.swap_remove(0);
    Ok(SatAttackReport {
        key,
        dips,
        proved,
        candidates: enumerated,
        validation_agreement,
        conflicts: solver.conflicts(),
        decisions: solver.decisions(),
        propagations: solver.propagations(),
    })
}

/// Ranks DIP-consistent candidate keys by output agreement with the
/// oracle over deterministic random probe vectors. Candidate `i` rides
/// lane `i` of the 64-wide simulator, so each probe settles *once* for
/// the whole candidate set; the oracle answers the probe batch through
/// its own lane-batched entry point. Returns the winning candidate's
/// index (ties break toward the earliest enumerated, keeping the attack
/// deterministic) and its agreement fraction.
fn rank_candidates(
    locked: &Netlist,
    oracle: &mut dyn Oracle,
    candidates: &[Vec<bool>],
) -> Result<(usize, f64), NetlistError> {
    // splitmix64 over a fixed constant: deterministic probes with no RNG
    // dependency (the attack's only randomness requirement is coverage).
    let mut state = 0x5EED_DA7A_0F5A_7A11u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let stimuli: Vec<Vec<(String, u64)>> = (0..VALIDATION_PROBES)
        .map(|_| {
            locked
                .inputs()
                .iter()
                .map(|p| {
                    let mask = if p.width() >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << p.width()) - 1
                    };
                    (p.name.clone(), next() & mask)
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[(String, u64)]> = stimuli.iter().map(Vec::as_slice).collect();
    let responses = oracle.query_batch(&refs);

    let mut sim = NetlistSimulator::new(locked)?;
    let keys: Vec<&[bool]> = candidates.iter().map(Vec::as_slice).collect();
    let mut scores = vec![0usize; candidates.len()];
    for (stimulus, response) in stimuli.iter().zip(&responses) {
        for (name, v) in stimulus {
            sim.set_input(name, *v)?;
        }
        let digests = sim.key_sweep_digests(&keys)?;
        let oracle_digest = digest_response(locked, response);
        for (score, digest) in scores.iter_mut().zip(&digests) {
            if *digest == oracle_digest {
                *score += 1;
            }
        }
    }
    let best = (0..candidates.len())
        .max_by_key(|&i| (scores[i], std::cmp::Reverse(i)))
        .expect("at least one candidate");
    Ok((best, scores[best] as f64 / VALIDATION_PROBES as f64))
}

/// The oracle response's output digest, computed exactly as
/// [`NetlistSimulator::outputs_digest_lane`] computes a lane's — ports
/// walked in netlist output order, matched by name.
fn digest_response(locked: &Netlist, response: &[(String, u64)]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for p in locked.outputs() {
        let value = response
            .iter()
            .find(|(name, _)| *name == p.name)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        digest ^= value;
        digest = digest.wrapping_mul(0x100_0000_01b3);
    }
    digest
}

/// Convenience wrapper: attack a locked netlist whose correct key is known
/// to the *evaluator* (not the attacker), verify the recovered key by
/// random simulation against the correct one, and report
/// `(attack_report, recovered_key_is_functionally_correct)`.
///
/// # Errors
///
/// Propagates [`sat_attack`] errors.
pub fn sat_attack_with_sim_oracle(
    locked: &Netlist,
    correct_key: &[bool],
    cfg: &SatAttackConfig,
) -> Result<(SatAttackReport, bool), NetlistError> {
    let mut oracle = SimOracle::new(locked, correct_key)?;
    let report = sat_attack(locked, &mut oracle, cfg)?;
    let check = check_netlists(locked, locked, correct_key, &report.key, 200, 0xdead)?;
    Ok((report, check.is_equivalent()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_netlist::build::NetlistBuilder;
    use mlrl_netlist::lock::{mux_lock, xor_xnor_lock};

    fn sample_netlist() -> Netlist {
        let mut nb = NetlistBuilder::new(Netlist::new("t"));
        let a = nb.input_lane("a", 8);
        let b = nb.input_lane("b", 8);
        let s = nb.add(a, b);
        let x = nb.xor_lane(s, a);
        nb.output_from_lane("y", x, 8);
        let mut n = nb.finish();
        n.sweep();
        n
    }

    #[test]
    fn recovers_functional_key_for_xor_xnor_locking() {
        // In XOR-rich circuits several wrong key bits can cancel along
        // parity paths, so the attack recovers a member of the correct
        // functional key *class* — which is all the attacker needs.
        let mut locked = sample_netlist();
        let key = xor_xnor_lock(&mut locked, 10, 21).unwrap();
        let (report, correct) =
            sat_attack_with_sim_oracle(&locked, key.bits(), &SatAttackConfig::default()).unwrap();
        assert!(report.proved);
        assert!(correct, "recovered key must unlock the design");
        assert!(report.dips <= 64, "few DIPs expected, got {}", report.dips);
    }

    #[test]
    fn recovers_xor_xnor_key_exactly_on_inversion_sensitive_logic() {
        // An AND/OR/MUX cone has no parity paths: a single inverted wire
        // changes the function, so the correct key class is a singleton and
        // the recovered key must equal the inserted one bit-for-bit.
        let mut nb = NetlistBuilder::new(Netlist::new("t"));
        let a = nb.input_lane("a", 8);
        let b = nb.input_lane("b", 8);
        let x = nb.and_lane(a, b);
        let o = nb.or_lane(x, b);
        let s = nb.or_reduce(a);
        let m = nb.mux_lane(s, o, x);
        nb.output_from_lane("y", m, 8);
        let mut locked = nb.finish();
        locked.sweep();
        let key = xor_xnor_lock(&mut locked, 8, 13).unwrap();
        let (report, correct) =
            sat_attack_with_sim_oracle(&locked, key.bits(), &SatAttackConfig::default()).unwrap();
        assert!(report.proved);
        assert!(correct);
        assert_eq!(report.key, key.bits());
    }

    #[test]
    fn recovers_functional_key_for_mux_locking() {
        let mut locked = sample_netlist();
        let key = mux_lock(&mut locked, 8, 5).unwrap();
        let (report, correct) =
            sat_attack_with_sim_oracle(&locked, key.bits(), &SatAttackConfig::default()).unwrap();
        assert!(report.proved);
        assert!(correct, "recovered key must unlock the design");
    }

    #[test]
    fn unlocked_netlist_is_rejected() {
        let n = sample_netlist();
        let mut oracle = SimOracle::new(&n, &[]).unwrap();
        assert!(matches!(
            sat_attack(&n, &mut oracle, &SatAttackConfig::default()),
            Err(NetlistError::Lock(_))
        ));
    }

    #[test]
    fn sequential_netlist_is_rejected() {
        let mut n = Netlist::new("t");
        let q = n.add_dff();
        let (_, k) = n.add_key_bit();
        let d = n.add_gate(mlrl_netlist::GateKind::Xor, vec![q, k]);
        n.set_dff_data(q, d).unwrap();
        n.add_output_port("y", vec![q]);
        let mut oracle = DummyOracle;
        assert!(matches!(
            sat_attack(&n, &mut oracle, &SatAttackConfig::default()),
            Err(NetlistError::Sequential)
        ));
    }

    struct DummyOracle;
    impl Oracle for DummyOracle {
        fn query(&mut self, _inputs: &[(String, u64)]) -> Vec<(String, u64)> {
            Vec::new()
        }
    }

    #[test]
    fn exhausted_budgets_yield_unproved_reports() {
        let mut locked = sample_netlist();
        let key = xor_xnor_lock(&mut locked, 12, 9).unwrap();
        let mut oracle = SimOracle::new(&locked, key.bits()).unwrap();
        let cfg = SatAttackConfig {
            max_dips: 0,
            ..Default::default()
        };
        let report = sat_attack(&locked, &mut oracle, &cfg).unwrap();
        assert!(!report.proved, "0-DIP budget cannot prove anything");
        assert_eq!(report.dips, 0);

        let mut oracle = SimOracle::new(&locked, key.bits()).unwrap();
        let cfg = SatAttackConfig {
            max_dips: 256,
            max_clauses: 1,
        };
        let report = sat_attack(&locked, &mut oracle, &cfg).unwrap();
        assert!(!report.proved, "1-clause budget cannot prove anything");
    }

    #[test]
    fn post_budget_validation_sweeps_candidates_on_the_lanes() {
        // An inversion-sensitive cone (no parity paths): every wrong key
        // bit corrupts some output, so ranking DIP-consistent candidates
        // by oracle agreement pulls the functionally correct key out of
        // the class. A 0-DIP budget makes *every* key DIP-consistent —
        // the hardest case for the validation sweep.
        let mut nb = NetlistBuilder::new(Netlist::new("t"));
        let a = nb.input_lane("a", 8);
        let b = nb.input_lane("b", 8);
        let x = nb.and_lane(a, b);
        let o = nb.or_lane(x, b);
        nb.output_from_lane("y", o, 8);
        let mut locked = nb.finish();
        locked.sweep();
        let key = xor_xnor_lock(&mut locked, 5, 31).unwrap();

        let cfg = SatAttackConfig {
            max_dips: 0,
            ..Default::default()
        };
        let (report, correct) = sat_attack_with_sim_oracle(&locked, key.bits(), &cfg).unwrap();
        assert!(!report.proved);
        assert!(
            report.candidates > 1,
            "a 0-DIP budget must leave multiple candidates"
        );
        let agreement = report
            .validation_agreement
            .expect("sweep ran: budget exhausted before a proof");
        assert!(
            (agreement - 1.0).abs() < 1e-9,
            "best candidate must match the oracle on every probe (got {agreement})"
        );
        assert!(correct, "validated key must unlock the design");
        assert_eq!(report.key, key.bits());
    }

    #[test]
    fn proved_attacks_skip_the_validation_sweep() {
        let mut locked = sample_netlist();
        let key = xor_xnor_lock(&mut locked, 6, 4).unwrap();
        let (report, correct) =
            sat_attack_with_sim_oracle(&locked, key.bits(), &SatAttackConfig::default()).unwrap();
        assert!(report.proved);
        assert!(correct);
        assert_eq!(report.candidates, 1);
        assert!(report.validation_agreement.is_none());
    }

    #[test]
    fn batched_oracle_queries_match_scalar_queries() {
        let mut locked = sample_netlist();
        let key = xor_xnor_lock(&mut locked, 6, 17).unwrap();
        // 70 assignments span two 64-lane walks of the one oracle.
        let assignments: Vec<Vec<(String, u64)>> = (0..70u64)
            .map(|i| {
                vec![
                    ("a".to_owned(), i.wrapping_mul(37) & 0xff),
                    ("b".to_owned(), i.wrapping_mul(91) & 0xff),
                ]
            })
            .collect();
        let refs: Vec<&[(String, u64)]> = assignments.iter().map(|a| a.as_slice()).collect();

        let mut batched = SimOracle::new(&locked, key.bits()).unwrap();
        let batch_answers = batched.query_batch(&refs);
        assert_eq!(batched.queries, 70);
        assert_eq!(batch_answers.len(), 70);

        let mut scalar = SimOracle::new(&locked, key.bits()).unwrap();
        for (assignment, batch_answer) in assignments.iter().zip(&batch_answers) {
            assert_eq!(&scalar.query(assignment), batch_answer);
        }
        assert!(batched.query_batch(&[]).is_empty());

        // Assignments are matched by name: a batch whose later entries
        // list ports in a different order answers identically.
        let reordered: Vec<Vec<(String, u64)>> = assignments
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if i % 2 == 1 {
                    a.iter().rev().cloned().collect()
                } else {
                    a.clone()
                }
            })
            .collect();
        let refs: Vec<&[(String, u64)]> = reordered.iter().map(|a| a.as_slice()).collect();
        let mut shuffled = SimOracle::new(&locked, key.bits()).unwrap();
        assert_eq!(shuffled.query_batch(&refs), batch_answers);
    }

    #[test]
    #[should_panic(expected = "oracle batch missing port `b`")]
    fn batched_oracle_panics_on_an_assignment_missing_a_port() {
        let locked = sample_netlist();
        let mut oracle = SimOracle::new(&locked, &[]).unwrap();
        let full = [("a".to_owned(), 1), ("b".to_owned(), 2)];
        let short = [("a".to_owned(), 3)];
        oracle.query_batch(&[&full, &short]);
    }

    #[test]
    fn oracle_counts_queries() {
        let mut locked = sample_netlist();
        let key = xor_xnor_lock(&mut locked, 6, 2).unwrap();
        let mut oracle = SimOracle::new(&locked, key.bits()).unwrap();
        let report = sat_attack(&locked, &mut oracle, &SatAttackConfig::default()).unwrap();
        assert_eq!(oracle.queries, report.dips);
    }
}
