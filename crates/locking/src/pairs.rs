//! Locking-pair tables.
//!
//! Operation obfuscation pairs every *real* operation type `T` with a
//! *dummy* type `T'` (§2.3). §3.2 of the paper shows that the original
//! ASSURE pairing is **leaky** because it is not symmetric: `*` is paired
//! with `+`, but `+` is paired with `-`, so an observed pair `(*, +)` can
//! only mean "`*` is real". The paper's fix — adopted by every evaluation in
//! this repository — is an *involutive* pairing where
//! `pair(pair(T)) == T` for every type.
//!
//! Both tables are available: [`PairTable::fixed`] (the involutive fix) and
//! [`PairTable::original_assure`] (the leaky pairing), the latter so the
//! §3.2 pair-analysis attack can be demonstrated.

use std::collections::BTreeMap;

use mlrl_rtl::op::BinaryOp;

/// A mapping from each operation type to its locking-pair dummy type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairTable {
    map: BTreeMap<BinaryOp, BinaryOp>,
    name: &'static str,
}

impl PairTable {
    /// The involutive pairing used by all evaluations (the §3.2 fix):
    ///
    /// `(+,-) (*,/) (%,**) (<<,>>) (&,|) (^,~^) (<,>=) (>,<=) (==,!=) (&&,||)`
    ///
    /// # Examples
    ///
    /// ```
    /// use mlrl_locking::pairs::PairTable;
    /// use mlrl_rtl::op::BinaryOp;
    ///
    /// let t = PairTable::fixed();
    /// assert_eq!(t.dummy_for(BinaryOp::Add), Some(BinaryOp::Sub));
    /// assert_eq!(t.dummy_for(BinaryOp::Sub), Some(BinaryOp::Add));
    /// assert!(t.is_involutive());
    /// ```
    pub fn fixed() -> Self {
        use BinaryOp::*;
        let pairs = [
            (Add, Sub),
            (Mul, Div),
            (Mod, Pow),
            (Shl, Shr),
            (And, Or),
            (Xor, Xnor),
            (Lt, Ge),
            (Gt, Le),
            (Eq, Neq),
            (LAnd, LOr),
        ];
        let mut map = BTreeMap::new();
        for (a, b) in pairs {
            map.insert(a, b);
            map.insert(b, a);
        }
        Self { map, name: "fixed" }
    }

    /// The original ASSURE pairing analysed in §3.2 of the paper. It is
    /// deliberately *asymmetric* for `*`, `%`, `/`, `^` and `**`
    /// (e.g. `pair(*) = +` while `pair(+) = -`), which leaks: the locked
    /// pair `(*, +)` can only arise from locking a real `*`.
    pub fn original_assure() -> Self {
        use BinaryOp::*;
        let entries = [
            // The paper's §3.2 examples: (∗,+), (+,−), (−,+).
            (Mul, Add),
            (Add, Sub),
            (Sub, Add),
            // "Similarly, leakage exists for modulo, xor, power, and
            // division."
            (Mod, Add),
            (Div, Mul),
            (Xor, And),
            (Pow, Mul),
            // Remaining types keep symmetric pairs.
            (And, Or),
            (Or, And),
            (Shl, Shr),
            (Shr, Shl),
            (Lt, Ge),
            (Ge, Lt),
            (Gt, Le),
            (Le, Gt),
            (Eq, Neq),
            (Neq, Eq),
            (LAnd, LOr),
            (LOr, LAnd),
        ];
        Self {
            map: entries.into_iter().collect(),
            name: "original-assure",
        }
    }

    /// Short name of the table (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The dummy type paired with `op`, if `op` is lockable under this
    /// table.
    pub fn dummy_for(&self, op: BinaryOp) -> Option<BinaryOp> {
        self.map.get(&op).copied()
    }

    /// Whether `op` participates in locking at all.
    pub fn is_lockable(&self, op: BinaryOp) -> bool {
        self.map.contains_key(&op)
    }

    /// Whether `pair(pair(T)) == T` for every mapped type — the paper's
    /// learning-resilience precondition (§3.2).
    pub fn is_involutive(&self) -> bool {
        self.map.iter().all(|(&a, &b)| self.map.get(&b) == Some(&a))
    }

    /// The *canonical pairs* `Θ = {(T1,T1'), ...}` of this table, each
    /// unordered pair listed once, sorted by op code (deterministic).
    ///
    /// For a non-involutive table this enumerates every distinct
    /// `{T, pair(T)}` set, so leaky pairs like `(*, +)` appear alongside
    /// `(+, -)`.
    pub fn canonical_pairs(&self) -> Vec<(BinaryOp, BinaryOp)> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for (&a, &b) in &self.map {
            let key = if a.code() <= b.code() { (a, b) } else { (b, a) };
            if seen.insert(key) {
                out.push(key);
            }
        }
        out
    }

    /// The canonical pair `{T, T'}` containing `op`, normalized so the
    /// smaller op code comes first. Returns `None` for unlockable types.
    pub fn canonical_pair_of(&self, op: BinaryOp) -> Option<(BinaryOp, BinaryOp)> {
        let other = self.dummy_for(op)?;
        Some(if op.code() <= other.code() {
            (op, other)
        } else {
            (other, op)
        })
    }
}

impl Default for PairTable {
    fn default() -> Self {
        Self::fixed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_rtl::op::ALL_BINARY_OPS;
    use BinaryOp::*;

    #[test]
    fn fixed_table_is_involutive_and_total() {
        let t = PairTable::fixed();
        assert!(t.is_involutive());
        for op in ALL_BINARY_OPS {
            assert!(t.is_lockable(op), "{op:?} must be lockable");
            assert_ne!(
                t.dummy_for(op),
                Some(op),
                "{op:?} must not pair with itself"
            );
        }
    }

    #[test]
    fn fixed_table_has_ten_canonical_pairs() {
        let pairs = PairTable::fixed().canonical_pairs();
        assert_eq!(pairs.len(), 10);
        assert!(pairs.contains(&(Add, Sub)));
        assert!(pairs.contains(&(Mul, Div)));
        // Sorted by op code and deduplicated.
        let mut sorted = pairs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, pairs);
    }

    #[test]
    fn original_assure_reproduces_sec32_examples() {
        let t = PairTable::original_assure();
        // (∗,+), (+,−), (−,+) from the paper text.
        assert_eq!(t.dummy_for(Mul), Some(Add));
        assert_eq!(t.dummy_for(Add), Some(Sub));
        assert_eq!(t.dummy_for(Sub), Some(Add));
        assert!(!t.is_involutive());
    }

    #[test]
    fn original_assure_leaks_on_named_ops() {
        let t = PairTable::original_assure();
        // For each §3.2-named leaky op, the reverse pair does not exist.
        for op in [Mul, Mod, Pow, Div, Xor] {
            let dummy = t.dummy_for(op).unwrap();
            assert_ne!(
                t.dummy_for(dummy),
                Some(op),
                "{op:?} should leak under the original pairing"
            );
        }
    }

    #[test]
    fn canonical_pair_of_normalizes() {
        let t = PairTable::fixed();
        assert_eq!(t.canonical_pair_of(Add), Some((Add, Sub)));
        assert_eq!(t.canonical_pair_of(Sub), Some((Add, Sub)));
    }

    #[test]
    fn default_is_fixed() {
        assert_eq!(PairTable::default(), PairTable::fixed());
    }
}
