//! Pinned CDCL search path: one digest over the conflict and decision
//! counts and the returned model of every solve in a seeded sequence of
//! random incremental 3-SAT runs. Each run keeps one solver alive while
//! it adds clause batches and blocking clauses between solves, so the
//! digest covers learned clauses carried across calls, level-0 units
//! added between calls, restarts and (in the long run) the activity
//! rescale. The digest was captured with the solver that scanned every
//! variable for its decision and re-propagated the level-0 trail on each
//! clause add; an exact solver change must leave it alone.

use mlrl_sat::{CnfBuilder, Lit, SolveResult, Solver, Var};
use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PINNED_DIGEST: u64 = 0x7199_1893_cebb_dd47;

/// Conflicts past which the 1e100 activity rescale has certainly run:
/// `var_inc` grows by 1/0.95 per conflict and an activity is a sum of
/// increments, so it passes 1e100 after about 4,440 conflicts.
const RESCALE_CONFLICTS: u64 = 4_500;

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn random_clause(rng: &mut StdRng, vars: &[Var]) -> Vec<Lit> {
    (0..3)
        .map(|_| vars[rng.gen_range(0..vars.len())].lit(rng.gen()))
        .collect()
}

/// Adds random 3-clauses in batches until the formula turns UNSAT,
/// solving after every batch and blocking each model found on its first
/// `block` variables (a width drawn per model). Then keeps adding clauses
/// and units to the refuted solver, whose stored clause count the
/// `max_clauses` budget of the SAT attack reads. Returns the solver's
/// lifetime conflict count.
fn incremental_run(
    rng: &mut StdRng,
    n_vars: usize,
    batch: usize,
    block: RangeInclusive<usize>,
    digest: &mut Fnv,
) -> u64 {
    let mut solver = Solver::new(n_vars);
    let mut names = CnfBuilder::new();
    let vars: Vec<Var> = (0..n_vars).map(|_| names.new_var()).collect();
    loop {
        for _ in 0..batch {
            solver.add_clause(&random_clause(rng, &vars));
        }
        digest.write(solver.num_clauses() as u64);
        let result = solver.solve();
        digest.write(solver.conflicts());
        digest.write(solver.decisions());
        match result {
            SolveResult::Unsat => {
                for _ in 0..batch {
                    solver.add_clause(&random_clause(rng, &vars));
                    let v = vars[rng.gen_range(0..n_vars)];
                    solver.add_clause(&[v.lit(rng.gen())]);
                    digest.write(solver.num_clauses() as u64);
                }
                return solver.conflicts();
            }
            SolveResult::Sat(model) => {
                for (i, &bit) in model.iter().enumerate() {
                    digest.write((i as u64) << 1 | u64::from(bit));
                }
                // A short block often reduces to a unit at level 0.
                let width = rng.gen_range(block.clone());
                let block: Vec<Lit> = vars[..width]
                    .iter()
                    .map(|v| v.lit(!model[v.index()]))
                    .collect();
                solver.add_clause(&block);
                digest.write(solver.num_clauses() as u64);
            }
        }
    }
}

#[test]
fn random_incremental_solves_match_the_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(2022);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    for _ in 0..40 {
        let n_vars = rng.gen_range(20..=40);
        incremental_run(&mut rng, n_vars, 10, 1..=4, &mut digest);
    }
    let long = incremental_run(&mut rng, 200, 40, 100..=200, &mut digest);
    assert!(
        long > RESCALE_CONFLICTS,
        "the long run must reach the activity rescale ({long} conflicts)"
    );
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "pinned solver digest moved: 0x{:016x}",
        digest.0
    );
}
