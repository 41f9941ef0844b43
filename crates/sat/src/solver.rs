//! A CDCL SAT solver.
//!
//! Conflict-driven clause learning with two-watched-literal propagation,
//! first-UIP conflict analysis, non-chronological backjumping, VSIDS-style
//! variable activities, phase saving, and geometric restarts. No clause
//! deletion — the formulas produced by the SAT attack stay small enough
//! that the learned-clause database never becomes the bottleneck.
//!
//! The solver is *incremental* in the simple sense the SAT attack needs:
//! clauses may be added between `solve` calls and all learned clauses remain
//! valid (they are implied by the original formula).
//!
//! ## Data layout
//!
//! - **Clause arena.** Every clause lives in one `Vec<Lit>`; a clause is a
//!   `(start, end)` range into it, and watch lists hold `u32` clause
//!   indices. Propagation swaps literals inside a clause in place, exactly
//!   as it would in a per-clause vector.
//! - **Literal values.** A table indexed by literal code holds `1` (true),
//!   `-1` (false) or `0` (unassigned), so a watch check is one load.
//! - **Decision heap.** Unassigned variables sit in a binary max-heap
//!   ordered by activity, highest first, then by index, lowest first: the
//!   same total order a scan over all variables would maximise, so the
//!   heap picks the same decision. Deletion is lazy (a pop skips assigned
//!   variables); a variable re-enters on unassignment, moves up when its
//!   activity is bumped, and the heap is rebuilt after the 1e-100 rescale,
//!   which can turn distinct activities into ties.
//!
//! ## The level-0 invariant
//!
//! Outside `propagate`, the level-0 part of the trail is at fixpoint and
//! `qhead` never rewinds into it: backtracking to level 0 leaves `qhead`
//! at the trail length, and adding a unit clause propagates just that
//! unit. Re-walking a propagated level-0 literal would be a no-op — every
//! clause still watching a false level-0 literal has its other watch true
//! at level 0 — so skipping the re-walk changes no assignment, watch list
//! or literal order, only the propagation count. The one exception is a
//! formula refuted by a level-0 conflict, which stops propagation short
//! of fixpoint; see [`Solver::add_clause`].

use crate::cnf::{CnfBuilder, Lit, Var};

/// Result of a `solve` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; the witness assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// Whether the formula was satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat => None,
        }
    }
}

/// No reason clause: a decision, a unit, or an unassigned variable.
const INVALID: u32 = u32::MAX;

/// Literal values in `Solver::values`.
const L_TRUE: i8 = 1;
const L_FALSE: i8 = -1;
const L_UNDEF: i8 = 0;

/// A CDCL solver instance.
///
/// Invariant: outside propagation the level-0 trail is at fixpoint and
/// `qhead` never rewinds into it, so each level-0 literal is propagated
/// once over the solver's lifetime — until a level-0 conflict refutes
/// the formula (see the module docs).
///
/// # Examples
///
/// ```
/// use mlrl_sat::cnf::CnfBuilder;
/// use mlrl_sat::solver::Solver;
///
/// let mut b = CnfBuilder::new();
/// let x = b.new_var();
/// let y = b.new_var();
/// b.add_clause(&[x.pos(), y.pos()]);
/// b.add_clause(&[x.neg()]);
/// let mut solver = Solver::from_builder(&b);
/// let result = solver.solve();
/// let model = result.model().expect("satisfiable");
/// assert!(!model[x.index()]);
/// assert!(model[y.index()]);
/// ```
#[derive(Debug)]
pub struct Solver {
    num_vars: usize,
    /// Literals of every clause, back to back; learned clauses follow the
    /// input clauses.
    arena: Vec<Lit>,
    /// `(start, end)` of each clause in `arena`, by clause index.
    headers: Vec<(u32, u32)>,
    /// Watch lists indexed by literal code; entries are clause indices.
    watches: Vec<Vec<u32>>,
    /// Value of each literal, indexed by literal code.
    values: Vec<i8>,
    /// Assignment stack, in order.
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts.
    trail_lim: Vec<usize>,
    /// Head of the propagation queue into `trail`.
    qhead: usize,
    /// Clause that implied each variable (INVALID = decision/unset).
    reason: Vec<u32>,
    /// Decision level of each variable.
    level: Vec<u32>,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// Decision order over the unassigned variables.
    order: VarHeap,
    /// Saved phases for decision polarity.
    phase: Vec<bool>,
    /// Conflict analysis marks; all false between calls.
    seen: Vec<bool>,
    /// Scratch clause: the normalised input clause in `add_clause`, the
    /// learned clause after `analyze`.
    buf: Vec<Lit>,
    /// Formula already proven unsatisfiable at level 0.
    proven_unsat: bool,
    /// Statistics: conflicts seen over the solver lifetime.
    conflicts: u64,
    /// Statistics: decisions made over the solver lifetime.
    decisions: u64,
    /// Statistics: literals propagated over the solver lifetime.
    propagations: u64,
}

impl Solver {
    /// Creates a solver over `num_vars` variables with no clauses.
    pub fn new(num_vars: usize) -> Self {
        let mut s = Self {
            num_vars: 0,
            arena: Vec::new(),
            headers: Vec::new(),
            watches: Vec::new(),
            values: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            buf: Vec::new(),
            proven_unsat: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        };
        s.ensure_vars(num_vars);
        s
    }

    /// Creates a solver loaded with every clause of `builder`.
    pub fn from_builder(builder: &CnfBuilder) -> Self {
        let mut s = Self::new(builder.num_vars());
        for c in builder.clauses() {
            s.add_clause(c);
        }
        s
    }

    /// Number of variables the solver knows about.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses in the database, learned clauses included.
    pub fn num_clauses(&self) -> usize {
        self.headers.len()
    }

    /// Lifetime conflict count (diagnostic).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Lifetime decision count (diagnostic).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Lifetime propagated-literal count (diagnostic).
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Grows the variable space to at least `num_vars` variables.
    pub fn ensure_vars(&mut self, num_vars: usize) {
        if num_vars <= self.num_vars {
            return;
        }
        assert!(num_vars < INVALID as usize, "too many variables");
        self.num_vars = num_vars;
        self.watches.resize(num_vars * 2, Vec::new());
        self.values.resize(num_vars * 2, L_UNDEF);
        self.reason.resize(num_vars, INVALID);
        self.level.resize(num_vars, 0);
        self.activity.resize(num_vars, 0.0);
        self.phase.resize(num_vars, false);
        self.seen.resize(num_vars, false);
        self.order.grow(num_vars, &self.activity);
    }

    /// Adds a clause. May be called between `solve` calls; the solver
    /// backtracks to level 0 first. A unit clause propagates only its own
    /// literal — except once the formula is refuted: a level-0 conflict
    /// stops propagation short of fixpoint, and a unit added afterwards
    /// re-propagates the whole level-0 trail, which fixes more variables
    /// and so decides which later clauses are stored. That keeps
    /// [`Solver::num_clauses`] of a refuted solver what it always was.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable beyond
    /// [`Solver::ensure_vars`].
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.backtrack_to(0);
        // Normalize: drop duplicates and detect tautologies.
        self.buf.clear();
        self.buf.extend_from_slice(lits);
        self.buf.sort_unstable();
        self.buf.dedup();
        if self.buf.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // x OR !x: tautology, skip
        }
        // Drop literals already false at level 0; satisfied clauses skip.
        let mut kept = 0;
        for i in 0..self.buf.len() {
            let l = self.buf[i];
            assert!(l.var().index() < self.num_vars, "literal out of range");
            match self.values[l.code()] {
                L_TRUE => return,
                L_FALSE => {}
                _ => {
                    self.buf[kept] = l;
                    kept += 1;
                }
            }
        }
        self.buf.truncate(kept);
        match kept {
            0 => {
                self.proven_unsat = true;
            }
            1 => {
                if self.proven_unsat {
                    self.qhead = 0;
                }
                if !self.enqueue(self.buf[0], INVALID) || self.propagate().is_some() {
                    self.proven_unsat = true;
                }
            }
            _ => {
                self.attach_buf();
            }
        }
    }

    /// Stores `buf` as a clause watched by its first two literals and
    /// returns its index.
    fn attach_buf(&mut self) -> u32 {
        let idx = u32::try_from(self.headers.len()).expect("clause count fits u32");
        let start = self.arena.len() as u32; // the previous clause's checked end
        self.arena.extend_from_slice(&self.buf);
        let end = u32::try_from(self.arena.len()).expect("clause arena fits u32");
        self.headers.push((start, end));
        self.watches[self.buf[0].code()].push(idx);
        self.watches[self.buf[1].code()].push(idx);
        idx
    }

    /// Pushes `l` onto the trail with the given reason; `false` on conflict
    /// with an existing assignment.
    fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.values[l.code()] {
            L_TRUE => true,
            L_FALSE => false,
            _ => {
                let vi = l.var().index();
                self.values[l.code()] = L_TRUE;
                self.values[l.inverted().code()] = L_FALSE;
                self.reason[vi] = reason;
                self.level[vi] = self.trail_lim.len() as u32;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation with two watched literals. Returns the index of a
    /// conflicting clause, or `None` when the queue drains.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let falsified = p.inverted();
            // Nothing is pushed onto a false literal's list while it is
            // walked, so the list goes back whole, in the same order.
            let mut watch_list = std::mem::take(&mut self.watches[falsified.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                let (start, end) = self.headers[ci as usize];
                let clause = &mut self.arena[start as usize..end as usize];
                // Make sure the falsified literal sits at position 1.
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                let first = clause[0];
                if self.values[first.code()] == L_TRUE {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                if let Some(k) =
                    (2..clause.len()).find(|&k| self.values[clause[k].code()] != L_FALSE)
                {
                    let cand = clause[k];
                    clause.swap(1, k);
                    self.watches[cand.code()].push(ci);
                    watch_list.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(first, ci) {
                    self.watches[falsified.code()] = watch_list;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[falsified.code()] = watch_list;
        }
        None
    }

    fn backtrack_to(&mut self, target_level: usize) {
        while self.trail_lim.len() > target_level {
            let start = self.trail_lim.pop().expect("level exists");
            while self.trail.len() > start {
                let l = self.trail.pop().expect("trail entry");
                let vi = l.var().index();
                self.phase[vi] = !l.is_neg();
                self.values[l.code()] = L_UNDEF;
                self.values[l.inverted().code()] = L_UNDEF;
                self.reason[vi] = INVALID;
                self.order.insert(vi as u32, &self.activity);
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        } else {
            self.order.raised(v.0, &self.activity);
        }
    }

    /// First-UIP conflict analysis. Leaves the learned clause in `buf`
    /// (asserting literal first) and returns the backjump level.
    fn analyze(&mut self, conflict: u32) -> usize {
        let current_level = self.trail_lim.len() as u32;
        self.buf.clear();
        self.buf.push(Lit(0)); // the asserting literal, filled in below
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut reason_idx = conflict;
        let mut trail_pos = self.trail.len();

        loop {
            let (start, end) = self.headers[reason_idx as usize];
            let skip = p.map(|l| l.var());
            for k in start as usize..end as usize {
                let q = self.arena[k];
                if Some(q.var()) == skip {
                    continue;
                }
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    self.bump(q.var());
                    if self.level[vi] == current_level {
                        counter += 1;
                    } else {
                        self.buf.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("UIP literal").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            reason_idx = self.reason[pv.index()];
            debug_assert_ne!(reason_idx, INVALID, "non-decision must have a reason");
        }
        self.buf[0] = p.expect("first UIP").inverted();
        // Only the lower-level literals are still marked.
        for l in &self.buf[1..] {
            self.seen[l.var().index()] = false;
        }

        // Backjump level: highest level among the non-asserting literals.
        let clause = &mut self.buf;
        let level = &self.level;
        let backjump = clause[1..]
            .iter()
            .map(|l| level[l.var().index()])
            .max()
            .unwrap_or(0);
        // Put a literal of the backjump level in watch position 1.
        if clause.len() > 1 {
            let pos = clause[1..]
                .iter()
                .position(|l| level[l.var().index()] == backjump)
                .expect("literal at backjump level")
                + 1;
            clause.swap(1, pos);
        }
        backjump as usize
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            let var = Var(v);
            if self.values[var.pos().code()] == L_UNDEF {
                return Some(var.lit(self.phase[var.index()]));
            }
        }
        None
    }

    /// Decides satisfiability of the current clause database.
    ///
    /// May be called repeatedly, interleaved with [`Solver::add_clause`];
    /// learned clauses persist across calls.
    pub fn solve(&mut self) -> SolveResult {
        if self.proven_unsat {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        debug_assert_eq!(self.qhead, self.trail.len(), "level 0 at fixpoint");

        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;

        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.trail_lim.is_empty() {
                        self.proven_unsat = true;
                        return SolveResult::Unsat;
                    }
                    let backjump = self.analyze(conflict);
                    self.backtrack_to(backjump);
                    let asserting = self.buf[0];
                    let reason = if self.buf.len() == 1 {
                        INVALID
                    } else {
                        self.attach_buf()
                    };
                    if !self.enqueue(asserting, reason) {
                        self.proven_unsat = true;
                        return SolveResult::Unsat;
                    }
                    self.var_inc *= 1.0 / 0.95;
                    if conflicts_since_restart >= restart_limit {
                        conflicts_since_restart = 0;
                        restart_limit = restart_limit.saturating_add(restart_limit / 2);
                        self.backtrack_to(0);
                    }
                }
                None => match self.pick_branch() {
                    Some(decision) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(decision, INVALID);
                        debug_assert!(ok, "decision variable was unassigned");
                    }
                    None => {
                        let model: Vec<bool> = (0..self.num_vars)
                            .map(|v| self.values[Var(v as u32).pos().code()] == L_TRUE)
                            .collect();
                        return SolveResult::Sat(model);
                    }
                },
            }
        }
    }
}

/// Position marker of a variable outside the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// Binary max-heap of variables ordered by (activity descending, index
/// ascending). The order is total, so the top is the variable a linear
/// scan for the highest activity (first index on ties) would return,
/// whatever the heap's internal shape.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<u32>,
    /// Index of each variable in `heap`, or [`NOT_IN_HEAP`].
    pos: Vec<u32>,
}

impl VarHeap {
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    /// Adds the variables `pos.len()..num_vars`.
    fn grow(&mut self, num_vars: usize, activity: &[f64]) {
        for v in self.pos.len()..num_vars {
            self.pos.push(NOT_IN_HEAP);
            self.insert(v as u32, activity);
        }
    }

    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.pos[v as usize] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the order after `v`'s activity grew.
    fn raised(&mut self, v: u32, activity: &[f64]) {
        let i = self.pos[v as usize];
        if i != NOT_IN_HEAP {
            self.sift_up(i as usize, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(root) => std::mem::replace(root, last),
            None => last,
        };
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-establishes the heap property after every activity changed.
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if !Self::before(activity, v, pv) {
                break;
            }
            self.heap[i] = pv;
            self.pos[pv as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let cv = self.heap[child];
            if !Self::before(activity, cv, v) {
                break;
            }
            self.heap[i] = cv;
            self.pos[cv as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_model(builder: &CnfBuilder, model: &[bool]) {
        for clause in builder.clauses() {
            assert!(
                clause.iter().any(|l| l.value_under(model[l.var().index()])),
                "model violates clause {clause:?}"
            );
        }
    }

    #[test]
    fn empty_formula_is_sat() {
        let b = CnfBuilder::new();
        assert!(Solver::from_builder(&b).solve().is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut b = CnfBuilder::new();
        b.add_clause(&[]);
        assert_eq!(Solver::from_builder(&b).solve(), SolveResult::Unsat);
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut b = CnfBuilder::new();
        let x = b.new_var();
        b.add_clause(&[x.pos()]);
        b.add_clause(&[x.neg()]);
        assert_eq!(Solver::from_builder(&b).solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chains() {
        // x0, x0->x1, x1->x2, ..., then force !x9: unsat.
        let mut b = CnfBuilder::new();
        let vars: Vec<_> = (0..10).map(|_| b.new_var()).collect();
        b.add_clause(&[vars[0].pos()]);
        for w in vars.windows(2) {
            b.add_clause(&[w[0].neg(), w[1].pos()]);
        }
        let mut s = Solver::from_builder(&b);
        assert!(s.solve().is_sat());
        s.add_clause(&[vars[9].neg()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut b = CnfBuilder::new();
        let x = b.new_var();
        b.add_clause(&[x.pos(), x.neg()]);
        b.add_clause(&[x.neg()]);
        let r = Solver::from_builder(&b).solve();
        let m = r.model().unwrap();
        assert!(!m[x.index()]);
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        // p[i][j]: pigeon i sits in hole j.
        let mut b = CnfBuilder::new();
        let p: Vec<Vec<Var>> = (0..4)
            .map(|_| (0..3).map(|_| b.new_var()).collect())
            .collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            b.add_clause(&clause);
        }
        #[allow(clippy::needless_range_loop)] // `j` is the pigeonhole column
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in i1 + 1..4 {
                    b.add_clause(&[p[i1][j].neg(), p[i2][j].neg()]);
                }
            }
        }
        assert_eq!(Solver::from_builder(&b).solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_3_is_sat() {
        let mut b = CnfBuilder::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..3).map(|_| b.new_var()).collect())
            .collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            b.add_clause(&clause);
        }
        #[allow(clippy::needless_range_loop)] // `j` is the pigeonhole column
        for j in 0..3 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    b.add_clause(&[p[i1][j].neg(), p[i2][j].neg()]);
                }
            }
        }
        let r = Solver::from_builder(&b).solve();
        check_model(&b, r.model().unwrap());
    }

    #[test]
    fn xor_chain_has_even_parity_solutions_only() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x2 ^ x0 = 1 is unsat (odd cycle).
        let mut b = CnfBuilder::new();
        let x: Vec<Var> = (0..3).map(|_| b.new_var()).collect();
        for (i, j) in [(0, 1), (1, 2), (2, 0)] {
            // xi ^ xj = 1  <=>  (xi | xj) & (!xi | !xj)
            b.add_clause(&[x[i].pos(), x[j].pos()]);
            b.add_clause(&[x[i].neg(), x[j].neg()]);
        }
        assert_eq!(Solver::from_builder(&b).solve(), SolveResult::Unsat);
    }

    /// Brute-force satisfiability for cross-checking.
    fn brute_force(builder: &CnfBuilder) -> bool {
        let n = builder.num_vars();
        'outer: for bits in 0u32..(1 << n) {
            for clause in builder.clauses() {
                let sat = clause
                    .iter()
                    .any(|l| l.value_under(bits >> l.var().index() & 1 == 1));
                if !sat {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..120 {
            let n_vars: usize = rng.gen_range(3..=9);
            // Around the 3-SAT phase transition (~4.26 clauses/var).
            let n_clauses = (n_vars as f64 * rng.gen_range(3.0..5.5)) as usize;
            let mut b = CnfBuilder::new();
            let vars: Vec<Var> = (0..n_vars).map(|_| b.new_var()).collect();
            for _ in 0..n_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v: Var = vars[rng.gen_range(0..n_vars)];
                    clause.push(v.lit(rng.gen()));
                }
                b.add_clause(&clause);
            }
            let expected = brute_force(&b);
            let mut s = Solver::from_builder(&b);
            let got = s.solve();
            assert_eq!(got.is_sat(), expected, "round {round} disagrees");
            if let Some(m) = got.model() {
                check_model(&b, m);
            }
        }
    }

    #[test]
    fn heap_pops_what_a_linear_scan_would_pick() {
        // Random inserts, bumps, rescales (which collapse tiny activities
        // into ties) and pops: every pop must return the member with the
        // highest activity, the lowest index among equals.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 48;
        let mut activity: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..3) {
                0 => rng.gen_range(0u32..4) as f64,
                1 => f64::from_bits(rng.gen_range(1u64..64)), // subnormal
                _ => rng.gen::<f64>(),
            })
            .collect();
        let mut heap = VarHeap::default();
        heap.grow(n, &activity);
        let mut member = vec![true; n];
        for _ in 0..4000 {
            let v = rng.gen_range(0..n);
            match rng.gen_range(0..8) {
                0 | 1 => {
                    member[v] = true;
                    heap.insert(v as u32, &activity);
                }
                2 | 3 => {
                    activity[v] += rng.gen_range(0u32..3) as f64;
                    heap.raised(v as u32, &activity);
                }
                4 => {
                    for a in &mut activity {
                        *a *= 1e-100;
                    }
                    heap.rebuild(&activity);
                }
                _ => {
                    let want = (0..n).filter(|&u| member[u]).fold(
                        None,
                        |best: Option<usize>, u| match best {
                            Some(b) if activity[u] <= activity[b] => Some(b),
                            _ => Some(u),
                        },
                    );
                    let got = heap.pop(&activity).map(|u| u as usize);
                    assert_eq!(got, want);
                    if let Some(u) = got {
                        member[u] = false;
                    }
                }
            }
        }
    }

    #[test]
    fn unit_clauses_propagate_once() {
        // Each unit propagates only itself, and `solve` re-walks nothing:
        // the level-0 trail is already at fixpoint.
        let mut s = Solver::new(1000);
        for v in 0..1000 {
            s.add_clause(&[Var(v).pos()]);
        }
        assert_eq!(s.propagations(), 1000);
        assert!(s.solve().is_sat());
        assert_eq!(s.propagations(), 1000);
    }

    #[test]
    fn incremental_clause_addition_narrows_models() {
        let mut b = CnfBuilder::new();
        let x: Vec<Var> = (0..4).map(|_| b.new_var()).collect();
        b.add_clause(&[x[0].pos(), x[1].pos(), x[2].pos(), x[3].pos()]);
        let mut s = Solver::from_builder(&b);
        assert!(s.solve().is_sat());
        // Forbid each model's projection until exhaustion: at most 15 rounds.
        let mut rounds = 0;
        while let SolveResult::Sat(m) = s.solve() {
            let block: Vec<Lit> = x.iter().map(|&v| v.lit(!m[v.index()])).collect();
            s.add_clause(&block);
            rounds += 1;
            assert!(rounds <= 16, "enumeration must terminate");
        }
        assert_eq!(rounds, 15, "exactly the 15 non-zero assignments");
    }
}
