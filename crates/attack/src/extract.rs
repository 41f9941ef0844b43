//! Locality extraction (the "Extraction" stage of Fig. 2, adapted to RTL).
//!
//! The paper's RTL SnapShot extracts *all key-controlled pairs*
//! `[K[i], C1, C2]`, where `C1`/`C2` are integer encodings of the operation
//! pair under a key-controlled ternary (§5, "SnapShot for RTL"). This module
//! walks a locked [`Module`] and produces one [`Locality`] per
//! key-controlled multiplexer. Nested locked pairs (Fig. 3b) encode as
//! [`MUX_CODE`]; non-operation branches as [`LEAF_CODE`].

use mlrl_rtl::ast::{Expr, ExprId, Module};
use mlrl_rtl::op::{LEAF_CODE, MUX_CODE};
use mlrl_rtl::visit;

/// One extracted key-controlled pair `[K[i], C1, C2]` (without the label,
/// which only the locker knows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Locality {
    /// Index of the controlling key bit.
    pub key_bit: u32,
    /// Encoding of the true-branch top operation.
    pub c1: u32,
    /// Encoding of the false-branch top operation.
    pub c2: u32,
}

impl Locality {
    /// The ML feature vector of this locality.
    pub fn features(&self) -> Vec<u32> {
        vec![self.c1, self.c2]
    }
}

/// Encodes the top construct of a branch expression.
fn encode_branch(module: &Module, id: ExprId) -> u32 {
    match module.expr(id) {
        Ok(Expr::Binary { op, .. }) => op.code(),
        Ok(Expr::Ternary { cond, .. }) => {
            if matches!(module.expr(*cond), Ok(Expr::KeyBit(_))) {
                MUX_CODE
            } else {
                LEAF_CODE
            }
        }
        _ => LEAF_CODE,
    }
}

/// Extracts every key-controlled locality from `module`, in deterministic
/// walk order.
///
/// # Examples
///
/// ```
/// use mlrl_attack::extract::extract_localities;
/// use mlrl_locking::assure::{lock_operations, AssureConfig};
/// use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
///
/// let mut m = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
/// lock_operations(&mut m, &AssureConfig::serial(10, 2))?;
/// let locs = extract_localities(&m);
/// assert_eq!(locs.len(), 10);
/// # Ok::<(), mlrl_locking::LockError>(())
/// ```
pub fn extract_localities(module: &Module) -> Vec<Locality> {
    let mut out = Vec::new();
    visit::walk_exprs(module, |_, expr| {
        if let Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } = expr
        {
            if let Ok(Expr::KeyBit(bit)) = module.expr(*cond) {
                out.push(Locality {
                    key_bit: *bit,
                    c1: encode_branch(module, *then_expr),
                    c2: encode_branch(module, *else_expr),
                });
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_locking::assure::{lock_operations, AssureConfig};
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::op::BinaryOp;
    use mlrl_rtl::parser::parse_verilog;

    #[test]
    fn extracts_op_codes_of_both_branches() {
        let m = parse_verilog(
            "module t(K, a, b, y);\n input [0:0] K;\n input [7:0] a, b;\n output [7:0] y;\n assign y = K[0] ? a + b : a - b;\nendmodule",
        )
        .unwrap();
        let locs = extract_localities(&m);
        assert_eq!(locs.len(), 1);
        assert_eq!(locs[0].key_bit, 0);
        assert_eq!(locs[0].c1, BinaryOp::Add.code());
        assert_eq!(locs[0].c2, BinaryOp::Sub.code());
    }

    #[test]
    fn nested_pairs_encode_as_mux() {
        let m = parse_verilog(
            "module t(K, a, b, y);\n input [2:0] K;\n input [7:0] a, b;\n output [7:0] y;\n assign y = K[0] ? (K[1] ? a + b : a - b) : (K[2] ? a - b : a + b);\nendmodule",
        )
        .unwrap();
        let locs = extract_localities(&m);
        assert_eq!(locs.len(), 3);
        let outer = locs.iter().find(|l| l.key_bit == 0).unwrap();
        assert_eq!(outer.c1, MUX_CODE);
        assert_eq!(outer.c2, MUX_CODE);
    }

    #[test]
    fn data_ternaries_are_not_localities() {
        let m = parse_verilog(
            "module t(s, a, b, y);\n input s;\n input [7:0] a, b;\n output [7:0] y;\n assign y = s ? a + b : a - b;\nendmodule",
        )
        .unwrap();
        assert!(extract_localities(&m).is_empty());
    }

    #[test]
    fn one_locality_per_key_bit_after_single_round() {
        let mut m = generate(&benchmark_by_name("MD5").unwrap(), 3);
        let key = lock_operations(&mut m, &AssureConfig::random(50, 4)).unwrap();
        let locs = extract_localities(&m);
        assert_eq!(locs.len(), key.len());
        let mut bits: Vec<u32> = locs.iter().map(|l| l.key_bit).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), key.len(), "each key bit controls one mux");
    }

    #[test]
    fn leaf_code_for_identifier_branch() {
        let m = parse_verilog(
            "module t(K, a, b, y);\n input [0:0] K;\n input [7:0] a, b;\n output [7:0] y;\n assign y = K[0] ? a : a - b;\nendmodule",
        )
        .unwrap();
        let locs = extract_localities(&m);
        assert_eq!(locs[0].c1, LEAF_CODE);
        assert_eq!(locs[0].c2, BinaryOp::Sub.code());
    }

    #[test]
    fn extraction_is_deterministic() {
        let mut m = generate(&benchmark_by_name("DES3").unwrap(), 7);
        lock_operations(&mut m, &AssureConfig::random(80, 5)).unwrap();
        assert_eq!(extract_localities(&m), extract_localities(&m));
    }
}
