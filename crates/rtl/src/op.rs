//! Operator definitions for the RTL expression language.
//!
//! Every binary operator carries a stable integer *op code* used by the
//! SnapShot-RTL attack to encode locality features (the paper assigns "each
//! type a unique integer", §5). Codes are stable across runs and releases.

use std::fmt;
use std::str::FromStr;

/// Binary operators of the Verilog subset.
///
/// The set covers every operator that participates in a locking pair in the
/// paper (arithmetic, bitwise, shift, relational, equality, logical) plus
/// power and modulo, which §3.2 singles out as leaky under the original
/// ASSURE pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `~^` (also written `^~`)
    Xnor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
}

/// All binary operators, in op-code order.
pub const ALL_BINARY_OPS: [BinaryOp; 20] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Mod,
    BinaryOp::Pow,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Xnor,
    BinaryOp::Shl,
    BinaryOp::Shr,
    BinaryOp::Lt,
    BinaryOp::Gt,
    BinaryOp::Le,
    BinaryOp::Ge,
    BinaryOp::Eq,
    BinaryOp::Neq,
    BinaryOp::LAnd,
    BinaryOp::LOr,
];

impl BinaryOp {
    /// Stable integer code of this operator (used as `C1`/`C2` feature
    /// encoding by the attack). Codes start at 1; code 0 is reserved for
    /// [`MUX_CODE`]-adjacent "none".
    ///
    /// ```
    /// use mlrl_rtl::op::BinaryOp;
    /// assert_eq!(BinaryOp::Add.code(), 1);
    /// assert_ne!(BinaryOp::Add.code(), BinaryOp::Sub.code());
    /// ```
    pub fn code(self) -> u32 {
        self as u32 + 1
    }

    /// Inverse of [`BinaryOp::code`].
    pub fn from_code(code: u32) -> Option<Self> {
        ALL_BINARY_OPS.get(code.checked_sub(1)? as usize).copied()
    }

    /// Verilog source token for this operator.
    pub fn token(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Pow => "**",
            BinaryOp::And => "&",
            BinaryOp::Or => "|",
            BinaryOp::Xor => "^",
            BinaryOp::Xnor => "~^",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::Lt => "<",
            BinaryOp::Gt => ">",
            BinaryOp::Le => "<=",
            BinaryOp::Ge => ">=",
            BinaryOp::Eq => "==",
            BinaryOp::Neq => "!=",
            BinaryOp::LAnd => "&&",
            BinaryOp::LOr => "||",
        }
    }

    /// Inverse of [`BinaryOp::token`], also accepting `^~` for
    /// [`BinaryOp::Xnor`].
    pub(crate) fn from_token(token: &str) -> Option<Self> {
        Some(match token {
            "+" => BinaryOp::Add,
            "-" => BinaryOp::Sub,
            "*" => BinaryOp::Mul,
            "/" => BinaryOp::Div,
            "%" => BinaryOp::Mod,
            "**" => BinaryOp::Pow,
            "&" => BinaryOp::And,
            "|" => BinaryOp::Or,
            "^" => BinaryOp::Xor,
            "~^" | "^~" => BinaryOp::Xnor,
            "<<" => BinaryOp::Shl,
            ">>" => BinaryOp::Shr,
            "<" => BinaryOp::Lt,
            ">" => BinaryOp::Gt,
            "<=" => BinaryOp::Le,
            ">=" => BinaryOp::Ge,
            "==" => BinaryOp::Eq,
            "!=" => BinaryOp::Neq,
            "&&" => BinaryOp::LAnd,
            "||" => BinaryOp::LOr,
            _ => return None,
        })
    }

    /// Binding strength for the emitter; higher binds tighter.
    /// Mirrors Verilog operator precedence.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::LOr => 1,
            BinaryOp::LAnd => 2,
            BinaryOp::Or => 3,
            BinaryOp::Xor | BinaryOp::Xnor => 4,
            BinaryOp::And => 5,
            BinaryOp::Eq | BinaryOp::Neq => 6,
            BinaryOp::Lt | BinaryOp::Gt | BinaryOp::Le | BinaryOp::Ge => 7,
            BinaryOp::Shl | BinaryOp::Shr => 8,
            BinaryOp::Add | BinaryOp::Sub => 9,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 10,
            BinaryOp::Pow => 11,
        }
    }

    /// Whether this operator always yields a single-bit result.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinaryOp::Lt
                | BinaryOp::Gt
                | BinaryOp::Le
                | BinaryOp::Ge
                | BinaryOp::Eq
                | BinaryOp::Neq
                | BinaryOp::LAnd
                | BinaryOp::LOr
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Error returned when parsing an operator token fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpError {
    token: String,
}

impl fmt::Display for ParseOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operator token `{}`", self.token)
    }
}

impl std::error::Error for ParseOpError {}

impl FromStr for BinaryOp {
    type Err = ParseOpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_token(s).ok_or_else(|| ParseOpError {
            token: s.to_owned(),
        })
    }
}

/// Unary operators of the Verilog subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnaryOp {
    /// Bitwise complement `~`
    Not,
    /// Arithmetic negation `-`
    Neg,
    /// Logical negation `!`
    LNot,
}

impl UnaryOp {
    /// Verilog source token for this operator.
    pub fn token(self) -> &'static str {
        match self {
            UnaryOp::Not => "~",
            UnaryOp::Neg => "-",
            UnaryOp::LNot => "!",
        }
    }
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Feature code used for a locked (multiplexer) sub-expression when it
/// appears as a branch of an outer locked pair (Fig 3b nesting).
pub const MUX_CODE: u32 = ALL_BINARY_OPS.len() as u32 + 1;

/// Feature code for any branch that is not a binary operation or mux
/// (identifier, constant, unary expression).
pub const LEAF_CODE: u32 = ALL_BINARY_OPS.len() as u32 + 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for op in ALL_BINARY_OPS {
            assert!(seen.insert(op.code()), "duplicate code for {op:?}");
            assert_eq!(BinaryOp::from_code(op.code()), Some(op));
        }
        assert!(!seen.contains(&MUX_CODE));
        assert!(!seen.contains(&LEAF_CODE));
        assert_eq!(BinaryOp::Add.code(), 1);
        assert_eq!(BinaryOp::LOr.code(), 20);
    }

    #[test]
    fn from_code_rejects_out_of_range() {
        assert_eq!(BinaryOp::from_code(0), None);
        assert_eq!(BinaryOp::from_code(21), None);
        assert_eq!(BinaryOp::from_code(u32::MAX), None);
    }

    #[test]
    fn tokens_round_trip_through_from_str() {
        for op in ALL_BINARY_OPS {
            assert_eq!(op.token().parse::<BinaryOp>().unwrap(), op);
        }
        assert_eq!("^~".parse::<BinaryOp>().unwrap(), BinaryOp::Xnor);
        for other in ["@@", "~", "!", ".", "", "+ ", "<>"] {
            assert!(other.parse::<BinaryOp>().is_err(), "`{other}`");
        }
    }

    #[test]
    fn precedence_matches_verilog_ordering() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Shl.precedence());
        assert!(BinaryOp::Shl.precedence() > BinaryOp::Lt.precedence());
        assert!(BinaryOp::Lt.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::Eq.precedence() > BinaryOp::And.precedence());
        assert!(BinaryOp::And.precedence() > BinaryOp::Xor.precedence());
        assert!(BinaryOp::Xor.precedence() > BinaryOp::Or.precedence());
        assert!(BinaryOp::Or.precedence() > BinaryOp::LAnd.precedence());
        assert!(BinaryOp::LAnd.precedence() > BinaryOp::LOr.precedence());
        assert!(BinaryOp::Pow.precedence() > BinaryOp::Mul.precedence());
    }

    #[test]
    fn predicates_are_flagged() {
        assert!(BinaryOp::Lt.is_predicate());
        assert!(BinaryOp::Eq.is_predicate());
        assert!(!BinaryOp::Add.is_predicate());
        assert!(!BinaryOp::Xor.is_predicate());
    }

    #[test]
    fn display_matches_token() {
        assert_eq!(BinaryOp::Xnor.to_string(), "~^");
        assert_eq!(UnaryOp::LNot.to_string(), "!");
    }
}
