//! CNF formulas: variables, literals, clauses, and a formula builder.
//!
//! Literals use the compact LSB-sign encoding common to SAT solvers:
//! variable `v` yields literals `2v` (positive) and `2v + 1` (negated).

use std::fmt;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Zero-based index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    // `neg` is the universal SAT-solver vocabulary for the complemented
    // literal; it does not negate a `Var`, so the `Neg` trait would be
    // wrong here.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// Literal of this variable with the given sign (`true` = positive).
    pub fn lit(self, sign: bool) -> Lit {
        if sign {
            self.pos()
        } else {
            self.neg()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The variable underlying this literal.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn inverted(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index for watch lists (`2v` or `2v+1`).
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Truth value of this literal under an assignment of its variable.
    pub fn value_under(self, var_value: bool) -> bool {
        var_value != self.is_neg()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "!x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

/// A CNF formula under construction.
///
/// # Examples
///
/// ```
/// use mlrl_sat::cnf::CnfBuilder;
///
/// let mut b = CnfBuilder::new();
/// let x = b.new_var();
/// let y = b.new_var();
/// b.add_clause(&[x.pos(), y.pos()]);
/// b.add_clause(&[x.neg()]);
/// assert_eq!(b.num_vars(), 2);
/// assert_eq!(b.clauses().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CnfBuilder {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    /// Lazily allocated variable constrained to true.
    const_true: Option<Lit>,
}

impl CnfBuilder {
    /// Empty formula.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty formula whose first fresh variable is `first_var`. The
    /// variables below it belong to another formula (an incremental
    /// solver's), so clauses built here can be merged into it; they count
    /// towards [`CnfBuilder::num_vars`].
    pub fn starting_at(first_var: usize) -> Self {
        Self {
            num_vars: u32::try_from(first_var).expect("variable index fits u32"),
            ..Self::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Clauses added so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Adds a clause (a disjunction of literals). The empty clause makes the
    /// formula unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }

    /// A literal that is always true (allocated and constrained on first
    /// use). Its inversion is always false.
    pub fn true_lit(&mut self) -> Lit {
        if let Some(l) = self.const_true {
            return l;
        }
        let v = self.new_var();
        self.add_clause(&[v.pos()]);
        self.const_true = Some(v.pos());
        v.pos()
    }

    /// A literal that is always false.
    pub fn false_lit(&mut self) -> Lit {
        self.true_lit().inverted()
    }

    /// Adds clauses asserting `o <-> a XOR b` and returns nothing; `o` must
    /// be a fresh or otherwise-unconstrained literal.
    pub fn define_xor(&mut self, o: Lit, a: Lit, b: Lit) {
        self.add_clause(&[o.inverted(), a, b]);
        self.add_clause(&[o.inverted(), a.inverted(), b.inverted()]);
        self.add_clause(&[o, a.inverted(), b]);
        self.add_clause(&[o, a, b.inverted()]);
    }

    /// Adds clauses asserting `o <-> a AND b`.
    pub fn define_and(&mut self, o: Lit, a: Lit, b: Lit) {
        self.add_clause(&[o.inverted(), a]);
        self.add_clause(&[o.inverted(), b]);
        self.add_clause(&[o, a.inverted(), b.inverted()]);
    }

    /// Adds clauses asserting `o <-> a OR b`.
    pub fn define_or(&mut self, o: Lit, a: Lit, b: Lit) {
        self.add_clause(&[o, a.inverted()]);
        self.add_clause(&[o, b.inverted()]);
        self.add_clause(&[o.inverted(), a, b]);
    }

    /// Adds clauses asserting `o <-> (s ? a : b)`.
    pub fn define_mux(&mut self, o: Lit, s: Lit, a: Lit, b: Lit) {
        self.add_clause(&[s.inverted(), a.inverted(), o]);
        self.add_clause(&[s.inverted(), a, o.inverted()]);
        self.add_clause(&[s, b.inverted(), o]);
        self.add_clause(&[s, b, o.inverted()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var(7);
        assert_eq!(v.pos().var(), v);
        assert_eq!(v.neg().var(), v);
        assert!(!v.pos().is_neg());
        assert!(v.neg().is_neg());
        assert_eq!(v.pos().inverted(), v.neg());
        assert_eq!(v.neg().inverted(), v.pos());
        assert_eq!(v.lit(true), v.pos());
        assert_eq!(v.lit(false), v.neg());
    }

    #[test]
    fn literal_value_under_assignment() {
        let v = Var(0);
        assert!(v.pos().value_under(true));
        assert!(!v.pos().value_under(false));
        assert!(!v.neg().value_under(true));
        assert!(v.neg().value_under(false));
    }

    #[test]
    fn true_lit_is_cached() {
        let mut b = CnfBuilder::new();
        let t1 = b.true_lit();
        let t2 = b.true_lit();
        assert_eq!(t1, t2);
        assert_eq!(b.num_vars(), 1);
        assert_eq!(b.false_lit(), t1.inverted());
    }

    #[test]
    fn gate_definitions_have_expected_clause_counts() {
        let mut b = CnfBuilder::new();
        let (o, x, y, s) = (b.new_var(), b.new_var(), b.new_var(), b.new_var());
        b.define_and(o.pos(), x.pos(), y.pos());
        assert_eq!(b.clauses().len(), 3);
        b.define_xor(o.pos(), x.pos(), y.pos());
        assert_eq!(b.clauses().len(), 7);
        b.define_mux(o.pos(), s.pos(), x.pos(), y.pos());
        assert_eq!(b.clauses().len(), 11);
    }

    #[test]
    fn offset_builders_continue_the_numbering() {
        let mut b = CnfBuilder::starting_at(5);
        assert_eq!(b.num_vars(), 5);
        assert_eq!(b.new_var(), Var(5));
        assert_eq!(b.true_lit(), Var(6).pos());
        assert_eq!(b.num_vars(), 7);
        assert_eq!(b.clauses(), [vec![Var(6).pos()]]);
    }

    #[test]
    fn display_shows_polarity() {
        let v = Var(3);
        assert_eq!(v.pos().to_string(), "x3");
        assert_eq!(v.neg().to_string(), "!x3");
    }
}
