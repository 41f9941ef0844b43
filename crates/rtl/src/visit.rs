//! Traversal utilities: reachable-node walks, operation enumeration and
//! operation-type census over a [`Module`].
//!
//! Locking selects operations from the *reachable* expression graph (nodes
//! reachable from assign right-hand sides and process statements). Every walk
//! is deterministic: roots in declaration order, depth-first, children in
//! evaluation order, each shared node visited once.

use std::collections::HashMap;

use crate::ast::{Expr, ExprId, Module};
use crate::op::BinaryOp;

/// A lockable operation site: a binary node and its operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSite {
    /// Node id of the binary operation.
    pub id: ExprId,
    /// Operator at that node.
    pub op: BinaryOp,
}

/// Visits every reachable expression node exactly once, depth-first
/// pre-order, in deterministic order.
pub fn walk_exprs<F: FnMut(ExprId, &Expr)>(module: &Module, mut f: F) {
    let mut visited = vec![false; module.arena().len()];
    let mut stack: Vec<ExprId> = Vec::new();
    // Push roots in reverse so the first root is processed first.
    let roots = module.roots();
    for &root in roots.iter().rev() {
        stack.push(root);
    }
    while let Some(id) = stack.pop() {
        let idx = id.index();
        if idx >= visited.len() || visited[idx] {
            continue;
        }
        visited[idx] = true;
        let expr = match module.expr(id) {
            Ok(e) => e,
            Err(_) => continue,
        };
        f(id, expr);
        let children = expr.children();
        for &c in children.iter().rev() {
            stack.push(c);
        }
    }
}

/// All reachable binary-operation sites, in deterministic walk order.
///
/// This is the operation universe the locking algorithms select from
/// (`D.ops` in Alg. 1); it includes dummy operations introduced by earlier
/// locking rounds, because an attacker — and a relocking round — cannot tell
/// them apart from real ones.
pub fn binary_ops(module: &Module) -> Vec<OpSite> {
    let mut out = Vec::new();
    walk_exprs(module, |id, expr| {
        if let Some(op) = expr.binary_op() {
            out.push(OpSite { id, op });
        }
    });
    out
}

/// Census of reachable operation types: `op -> count`.
///
/// This is the distribution the ODT (operation distribution table) is loaded
/// from (§4 "Operation distribution").
pub fn op_census(module: &Module) -> HashMap<BinaryOp, usize> {
    let mut counts = HashMap::new();
    walk_exprs(module, |_, expr| {
        if let Some(op) = expr.binary_op() {
            *counts.entry(op).or_insert(0) += 1;
        }
    });
    counts
}

/// Count of reachable key-controlled multiplexers (locked pairs).
pub fn key_mux_count(module: &Module) -> usize {
    let mut n = 0;
    walk_exprs(module, |_, expr| {
        if let Expr::Ternary { cond, .. } = expr {
            if matches!(module.expr(*cond), Ok(Expr::KeyBit(_))) {
                n += 1;
            }
        }
    });
    n
}

/// Depth of the expression tree rooted at `id` (a leaf has depth 1).
pub fn expr_depth(module: &Module, id: ExprId) -> usize {
    match module.expr(id) {
        Ok(expr) => {
            1 + expr
                .children()
                .into_iter()
                .map(|c| expr_depth(module, c))
                .max()
                .unwrap_or(0)
        }
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;

    fn chain(n: usize) -> Module {
        // y = ((a + b) + b) + b ... n additions, each its own assign/wire.
        let mut m = Module::new("chain");
        m.add_input("a", 32).unwrap();
        m.add_input("b", 32).unwrap();
        m.add_output("y", 32).unwrap();
        let mut prev = m.alloc_expr(Expr::Ident("a".into()));
        for i in 0..n {
            let w = format!("w{i}");
            m.add_wire(&w, 32).unwrap();
            let b = m.alloc_expr(Expr::Ident("b".into()));
            let sum = m.alloc_expr(Expr::Binary {
                op: BinaryOp::Add,
                lhs: prev,
                rhs: b,
            });
            m.add_assign(&w, sum).unwrap();
            prev = m.alloc_expr(Expr::Ident(w));
        }
        m.add_assign("y", prev).unwrap();
        m
    }

    #[test]
    fn census_counts_every_reachable_op() {
        let m = chain(5);
        let census = op_census(&m);
        assert_eq!(census.get(&BinaryOp::Add), Some(&5));
        assert_eq!(census.len(), 1);
    }

    #[test]
    fn binary_ops_order_is_deterministic() {
        let m = chain(4);
        let a = binary_ops(&m);
        let b = binary_ops(&m);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn shared_nodes_visited_once() {
        let mut m = Module::new("shared");
        m.add_input("a", 8).unwrap();
        m.add_output("x", 8).unwrap();
        m.add_output("y", 8).unwrap();
        let a = m.alloc_expr(Expr::Ident("a".into()));
        let sum = m.alloc_expr(Expr::Binary {
            op: BinaryOp::Add,
            lhs: a,
            rhs: a,
        });
        m.add_assign("x", sum).unwrap();
        m.add_assign("y", sum).unwrap(); // same node shared by two roots
        assert_eq!(binary_ops(&m).len(), 1);
    }

    #[test]
    fn locking_dummy_appears_in_census() {
        let mut m = chain(3);
        let site = binary_ops(&m)[0];
        m.wrap_in_key_mux(site.id, true, BinaryOp::Sub).unwrap();
        let census = op_census(&m);
        assert_eq!(census.get(&BinaryOp::Add), Some(&3));
        assert_eq!(census.get(&BinaryOp::Sub), Some(&1));
        assert_eq!(key_mux_count(&m), 1);
    }

    #[test]
    fn depth_counts_levels() {
        let mut m = Module::new("d");
        m.add_input("a", 8).unwrap();
        m.add_output("y", 8).unwrap();
        let a = m.alloc_expr(Expr::Ident("a".into()));
        let s1 = m.alloc_expr(Expr::Binary {
            op: BinaryOp::Add,
            lhs: a,
            rhs: a,
        });
        let s2 = m.alloc_expr(Expr::Binary {
            op: BinaryOp::Xor,
            lhs: s1,
            rhs: a,
        });
        m.add_assign("y", s2).unwrap();
        assert_eq!(expr_depth(&m, s2), 3);
        assert_eq!(expr_depth(&m, a), 1);
    }
}
