//! Verilog emitter.
//!
//! Produces synthesizable Verilog-2001 text for a [`Module`], including the
//! key input port for locked designs. Output round-trips through the crate's
//! [parser](crate::parser) (verified by property tests): for tree-shaped
//! designs `parse(emit(m)) == m` up to arena node numbering.

use std::fmt::Write as _;

use crate::ast::{Expr, ExprId, Module, NetKind, PortDir, SeqStmt, KEY_PORT};
use crate::error::Result;
use crate::op::BinaryOp;

/// Emits `module` as Verilog source text.
///
/// # Examples
///
/// ```
/// use mlrl_rtl::ast::{Expr, Module};
/// use mlrl_rtl::op::BinaryOp;
///
/// # fn main() -> Result<(), mlrl_rtl::error::RtlError> {
/// let mut m = Module::new("adder");
/// m.add_input("a", 8)?;
/// m.add_input("b", 8)?;
/// m.add_output("y", 8)?;
/// let a = m.alloc_expr(Expr::Ident("a".into()));
/// let b = m.alloc_expr(Expr::Ident("b".into()));
/// let s = m.alloc_expr(Expr::Binary { op: BinaryOp::Add, lhs: a, rhs: b });
/// m.add_assign("y", s)?;
/// let text = mlrl_rtl::emit::emit_verilog(&m)?;
/// assert!(text.contains("assign y = a + b;"));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns an error only if the module contains dangling expression ids.
pub fn emit_verilog(module: &Module) -> Result<String> {
    let mut out = String::new();
    let mut header_ports: Vec<String> = Vec::new();
    if module.key_width() > 0 {
        header_ports.push(KEY_PORT.to_owned());
    }
    header_ports.extend(module.ports().iter().map(|p| p.name.clone()));
    let _ = writeln!(
        out,
        "module {}({});",
        module.name(),
        header_ports.join(", ")
    );
    if module.key_width() > 0 {
        let _ = writeln!(out, "  input [{}:0] {};", module.key_width() - 1, KEY_PORT);
    }
    for p in module.ports() {
        let dir = match p.dir {
            PortDir::Input => "input",
            PortDir::Output => "output",
        };
        if p.width == 1 {
            let _ = writeln!(out, "  {dir} {};", p.name);
        } else {
            let _ = writeln!(out, "  {dir} [{}:0] {};", p.width - 1, p.name);
        }
    }
    for n in module.nets() {
        let kind = match n.kind {
            NetKind::Wire => "wire",
            NetKind::Reg => "reg",
        };
        if n.width == 1 {
            let _ = writeln!(out, "  {kind} {};", n.name);
        } else {
            let _ = writeln!(out, "  {kind} [{}:0] {};", n.width - 1, n.name);
        }
    }
    for a in module.assigns() {
        let rhs = emit_expr(module, a.rhs, 0)?;
        let _ = writeln!(out, "  assign {} = {};", a.lhs, rhs);
    }
    for inst in module.instances() {
        let conns: Vec<String> = inst
            .connections
            .iter()
            .map(|c| format!(".{}({})", c.port, c.signal))
            .collect();
        let _ = writeln!(
            out,
            "  {} {} ({});",
            inst.module_name,
            inst.instance_name,
            conns.join(", ")
        );
    }
    for blk in module.always_blocks() {
        let _ = writeln!(out, "  always @(posedge {}) begin", blk.clock);
        for s in &blk.body {
            emit_stmt(module, s, 2, &mut out)?;
        }
        let _ = writeln!(out, "  end");
    }
    out.push_str("endmodule\n");
    Ok(out)
}

fn emit_stmt(module: &Module, stmt: &SeqStmt, depth: usize, out: &mut String) -> Result<()> {
    let pad = "  ".repeat(depth);
    match stmt {
        SeqStmt::NonBlocking { lhs, rhs } => {
            let rhs = emit_expr(module, *rhs, 0)?;
            let _ = writeln!(out, "{pad}{lhs} <= {rhs};");
        }
        SeqStmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let c = emit_expr(module, *cond, 0)?;
            let _ = writeln!(out, "{pad}if ({c}) begin");
            for s in then_body {
                emit_stmt(module, s, depth + 1, out)?;
            }
            if else_body.is_empty() {
                let _ = writeln!(out, "{pad}end");
            } else {
                let _ = writeln!(out, "{pad}end else begin");
                for s in else_body {
                    emit_stmt(module, s, depth + 1, out)?;
                }
                let _ = writeln!(out, "{pad}end");
            }
        }
    }
    Ok(())
}

/// Emits the expression rooted at `id` as Verilog source, parenthesizing
/// according to operator precedence. `parent_prec` is the binding strength
/// of the enclosing operator (0 for a statement context).
pub fn emit_expr(module: &Module, id: ExprId, parent_prec: u8) -> Result<String> {
    let expr = module.expr(id)?;
    Ok(match expr {
        Expr::Const { value, width } => match width {
            Some(w) => format!("{w}'d{value}"),
            None => format!("{value}"),
        },
        Expr::Ident(name) => name.clone(),
        Expr::KeyBit(i) => format!("{KEY_PORT}[{i}]"),
        Expr::KeySlice { lsb, width } => {
            if *width == 1 {
                format!("{KEY_PORT}[{lsb}]")
            } else {
                format!("{KEY_PORT}[{}:{}]", lsb + width - 1, lsb)
            }
        }
        Expr::Index { base, bit } => format!("{base}[{bit}]"),
        Expr::Unary { op, arg } => {
            // Unary binds tighter than any binary operator.
            let inner = emit_expr(module, *arg, u8::MAX)?;
            format!("{}{}", op.token(), inner)
        }
        Expr::Binary { op, lhs, rhs } => {
            let prec = op.precedence();
            // Left-associative: the right child needs parens at equal
            // precedence (`a - (b - c)`), the left child does not.
            let l = emit_expr(module, *lhs, prec)?;
            let r = emit_expr(module, *rhs, prec.saturating_add(1))?;
            let body = format!("{l} {} {r}", op.token());
            if prec < parent_prec || needs_mixing_parens(*op, parent_prec) {
                format!("({body})")
            } else {
                body
            }
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            // `?:` is the loosest construct; parenthesize except at
            // statement level.
            let c = emit_expr(module, *cond, 1)?;
            let t = emit_expr(module, *then_expr, 1)?;
            let e = emit_expr(module, *else_expr, 1)?;
            if parent_prec == 0 {
                format!("{c} ? {t} : {e}")
            } else {
                format!("({c} ? {t} : {e})")
            }
        }
    })
}

/// Whether to add clarity parens even when precedence would not require
/// them (mixed shift/arith chains are a lint trap in real Verilog tools).
fn needs_mixing_parens(op: BinaryOp, parent_prec: u8) -> bool {
    matches!(op, BinaryOp::Shl | BinaryOp::Shr) && parent_prec == op.precedence()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AlwaysBlock;

    fn module_with(rhs: impl FnOnce(&mut Module) -> ExprId) -> Module {
        let mut m = Module::new("t");
        m.add_input("a", 8).unwrap();
        m.add_input("b", 8).unwrap();
        m.add_input("c", 8).unwrap();
        m.add_output("y", 8).unwrap();
        let root = rhs(&mut m);
        m.add_assign("y", root).unwrap();
        m
    }

    fn emit_rhs(m: &Module) -> String {
        let text = emit_verilog(m).unwrap();
        let line = text.lines().find(|l| l.contains("assign y")).unwrap();
        line.trim()
            .trim_start_matches("assign y = ")
            .trim_end_matches(';')
            .to_owned()
    }

    #[test]
    fn precedence_avoids_redundant_parens() {
        let m = module_with(|m| {
            let a = m.alloc_expr(Expr::Ident("a".into()));
            let b = m.alloc_expr(Expr::Ident("b".into()));
            let c = m.alloc_expr(Expr::Ident("c".into()));
            let mul = m.alloc_expr(Expr::Binary {
                op: BinaryOp::Mul,
                lhs: b,
                rhs: c,
            });
            m.alloc_expr(Expr::Binary {
                op: BinaryOp::Add,
                lhs: a,
                rhs: mul,
            })
        });
        assert_eq!(emit_rhs(&m), "a + b * c");
    }

    #[test]
    fn precedence_inserts_required_parens() {
        let m = module_with(|m| {
            let a = m.alloc_expr(Expr::Ident("a".into()));
            let b = m.alloc_expr(Expr::Ident("b".into()));
            let c = m.alloc_expr(Expr::Ident("c".into()));
            let add = m.alloc_expr(Expr::Binary {
                op: BinaryOp::Add,
                lhs: a,
                rhs: b,
            });
            m.alloc_expr(Expr::Binary {
                op: BinaryOp::Mul,
                lhs: add,
                rhs: c,
            })
        });
        assert_eq!(emit_rhs(&m), "(a + b) * c");
    }

    #[test]
    fn right_associativity_parens() {
        // a - (b - c) must keep its parens.
        let m = module_with(|m| {
            let a = m.alloc_expr(Expr::Ident("a".into()));
            let b = m.alloc_expr(Expr::Ident("b".into()));
            let c = m.alloc_expr(Expr::Ident("c".into()));
            let inner = m.alloc_expr(Expr::Binary {
                op: BinaryOp::Sub,
                lhs: b,
                rhs: c,
            });
            m.alloc_expr(Expr::Binary {
                op: BinaryOp::Sub,
                lhs: a,
                rhs: inner,
            })
        });
        assert_eq!(emit_rhs(&m), "a - (b - c)");
    }

    #[test]
    fn locked_pair_emits_fig3_ternary() {
        let mut m = module_with(|m| {
            let a = m.alloc_expr(Expr::Ident("a".into()));
            let b = m.alloc_expr(Expr::Ident("b".into()));
            m.alloc_expr(Expr::Binary {
                op: BinaryOp::Add,
                lhs: a,
                rhs: b,
            })
        });
        let root = m.assigns()[0].rhs;
        m.wrap_in_key_mux(root, true, BinaryOp::Sub).unwrap();
        let text = emit_verilog(&m).unwrap();
        assert!(text.contains("input [0:0] K;"), "{text}");
        assert!(text.contains("assign y = K[0] ? a + b : a - b;"), "{text}");
    }

    #[test]
    fn key_slice_emission() {
        let mut m = module_with(|m| m.alloc_expr(Expr::KeySlice { lsb: 4, width: 4 }));
        m.set_key_width(8);
        assert_eq!(emit_rhs(&m), "K[7:4]");
    }

    #[test]
    fn sized_constants() {
        let m = module_with(|m| {
            m.alloc_expr(Expr::Const {
                value: 13,
                width: Some(4),
            })
        });
        assert_eq!(emit_rhs(&m), "4'd13");
    }

    #[test]
    fn always_block_emission() {
        let mut m = Module::new("seq");
        m.add_input("clk", 1).unwrap();
        m.add_input("d", 8).unwrap();
        m.add_reg("q", 8).unwrap();
        let cond = m.alloc_expr(Expr::Ident("d".into()));
        let rhs = m.alloc_expr(Expr::Ident("d".into()));
        m.add_always(AlwaysBlock {
            clock: "clk".into(),
            body: vec![SeqStmt::If {
                cond,
                then_body: vec![SeqStmt::NonBlocking {
                    lhs: "q".into(),
                    rhs,
                }],
                else_body: vec![],
            }],
        })
        .unwrap();
        let text = emit_verilog(&m).unwrap();
        assert!(text.contains("always @(posedge clk) begin"));
        assert!(text.contains("if (d) begin"));
        assert!(text.contains("q <= d;"));
    }

    #[test]
    fn unary_emission() {
        let m = module_with(|m| {
            let a = m.alloc_expr(Expr::Ident("a".into()));
            let n = m.alloc_expr(Expr::Unary {
                op: crate::op::UnaryOp::Not,
                arg: a,
            });
            let b = m.alloc_expr(Expr::Ident("b".into()));
            m.alloc_expr(Expr::Binary {
                op: BinaryOp::Xor,
                lhs: n,
                rhs: b,
            })
        });
        assert_eq!(emit_rhs(&m), "~a ^ b");
    }
}
