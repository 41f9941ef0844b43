//! Recursive-descent parser for the Verilog subset.
//!
//! The accepted grammar covers everything the [emitter](crate::emit)
//! produces: non-ANSI module headers, `input`/`output`/`wire`/`reg`
//! declarations with ranges, continuous assignments, `always @(posedge clk)`
//! processes with `begin/end`, `if/else` and non-blocking assignments, and
//! the full expression language including key-controlled ternaries.
//!
//! A declared `input [n-1:0] K;` port is recognized as the locking key: it
//! sets the module's key width, and selects on `K` parse to
//! [`Expr::KeyBit`]/[`Expr::KeySlice`] nodes.
//!
//! The parser pulls borrowed, `Copy` tokens from the [lexer](crate::lexer)
//! one at a time and keeps one token of lookahead. Keywords, the key port
//! and the header's port list are compared as slices of the source; an
//! owned `String` is made only for a name the [`Module`] stores (a
//! declaration, an identifier or bit-select base, an assignment target, a
//! clock, an instance and its connections). Binary operators come from a
//! direct match on the operator token.
//!
//! Errors are those of a lexer run over the whole source followed by a
//! parse of its tokens: a lexical error anywhere in the source is reported
//! in preference to any parse or declaration error, and a parse error
//! carries the position of the token after the one that failed to match.

use crate::ast::{AlwaysBlock, Connection, Expr, ExprId, Instance, Module, SeqStmt, KEY_PORT};
use crate::error::{Result, RtlError};
use crate::hier::Design;
use crate::lexer::{Lexer, Tok, Token};
use crate::op::{BinaryOp, UnaryOp};

/// Parses Verilog source containing a single module.
///
/// # Examples
///
/// ```
/// let src = "
/// module adder(a, b, y);
///   input [7:0] a;
///   input [7:0] b;
///   output [7:0] y;
///   assign y = a + b;
/// endmodule";
/// let m = mlrl_rtl::parser::parse_verilog(src)?;
/// assert_eq!(m.name(), "adder");
/// assert_eq!(m.assigns().len(), 1);
/// # Ok::<(), mlrl_rtl::error::RtlError>(())
/// ```
///
/// # Errors
///
/// Returns [`RtlError::Parse`] with position information on syntax errors,
/// and declaration errors ([`RtlError::DuplicateSignal`], ...) on semantic
/// ones.
pub fn parse_verilog(src: &str) -> Result<Module> {
    Parser::run(src, |parser| {
        let module = parser.parse_module()?;
        parser.expect_eof()?;
        Ok(module)
    })
}

/// Parses Verilog source containing one or more modules into a
/// [`Design`] (see [`crate::hier`]).
///
/// # Errors
///
/// Same conditions as [`parse_verilog`], plus duplicate module names.
pub fn parse_design(src: &str) -> Result<Design> {
    Parser::run(src, |parser| {
        let mut design = Design::new();
        loop {
            design.add_module(parser.parse_module()?)?;
            if parser.at_eof() {
                return Ok(design);
            }
        }
    })
}

struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The lookahead token.
    cur: Token<'src>,
    /// The lexer's error, once it has failed; the lookahead is then
    /// [`Tok::Eof`], so the parse stops soon after.
    lex_error: Option<RtlError>,
}

impl<'src> Parser<'src> {
    /// Runs `parse` over `src`. A lexical error anywhere in the source
    /// wins over the parse's result, as if the whole source had been lexed
    /// before parsing began: after a parse error the rest of the source is
    /// lexed to find one.
    fn run<T>(src: &'src str, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let mut parser = Parser {
            lexer: Lexer::new(src),
            cur: Token {
                tok: Tok::Eof,
                line: 1,
                col: 1,
            },
            lex_error: None,
        };
        parser.advance();
        let result = parse(&mut parser);
        if result.is_err() {
            while parser.lex_error.is_none() && !parser.at_eof() {
                parser.advance();
            }
        }
        match parser.lex_error {
            Some(err) => Err(err),
            None => result,
        }
    }

    /// Lexes the next lookahead token.
    fn advance(&mut self) {
        match self.lexer.next_token() {
            Ok(token) => self.cur = token,
            Err(err) => {
                self.cur.tok = Tok::Eof;
                self.lex_error = Some(err);
            }
        }
    }

    fn peek(&self) -> Tok<'src> {
        self.cur.tok
    }

    /// Consumes and returns the lookahead token; at the end of input the
    /// lookahead stays [`Tok::Eof`].
    fn bump(&mut self) -> Tok<'src> {
        let t = self.cur.tok;
        if t != Tok::Eof {
            self.advance();
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> RtlError {
        RtlError::Parse {
            line: self.cur.line,
            col: self.cur.col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<()> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'src str> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.bump() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<u64> {
        match self.bump() {
            Tok::Number { value, .. } => Ok(value),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn at_eof(&self) -> bool {
        self.peek() == Tok::Eof
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(
                "trailing content after `endmodule` (use parse_design for multi-module sources)",
            ))
        }
    }

    fn parse_module(&mut self) -> Result<Module> {
        self.expect_keyword("module")?;
        let name = self.expect_ident("module name")?;
        let mut module = Module::new(name);
        let mut header: Vec<&'src str> = Vec::new();
        self.expect(Tok::LParen, "`(`")?;
        if self.peek() != Tok::RParen {
            loop {
                header.push(self.expect_ident("port name")?);
                if self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        self.expect(Tok::Semi, "`;`")?;

        loop {
            if self.at_keyword("endmodule") {
                self.bump();
                break;
            }
            match self.peek() {
                Tok::Ident("input" | "output" | "wire" | "reg") => self.parse_decl(&mut module)?,
                Tok::Ident("assign") => self.parse_assign(&mut module)?,
                Tok::Ident("always") => self.parse_always(&mut module)?,
                Tok::Ident(_) => self.parse_instance(&mut module)?,
                Tok::Eof => return Err(self.err("unexpected end of file, missing `endmodule`")),
                other => return Err(self.err(format!("unexpected token {other:?}"))),
            }
        }

        for p in header {
            if p != KEY_PORT && !module.is_declared(p) {
                return Err(RtlError::UnknownSignal(p.to_owned()));
            }
        }
        Ok(module)
    }

    /// Parses `ModuleName instName (.port(signal), ...);`.
    fn parse_instance(&mut self, module: &mut Module) -> Result<()> {
        let module_name = self.expect_ident("module name")?.to_owned();
        let instance_name = self.expect_ident("instance name")?.to_owned();
        self.expect(Tok::LParen, "`(`")?;
        let mut connections = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                match self.bump() {
                    Tok::Op(".") => {}
                    other => {
                        return Err(self.err(format!("expected `.port(...)`, found {other:?}")))
                    }
                }
                let port = self.expect_ident("port name")?.to_owned();
                self.expect(Tok::LParen, "`(`")?;
                let signal = self.expect_ident("signal name")?.to_owned();
                self.expect(Tok::RParen, "`)`")?;
                connections.push(Connection { port, signal });
                if self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        self.expect(Tok::Semi, "`;`")?;
        module.add_instance(Instance {
            module_name,
            instance_name,
            connections,
        })
    }

    fn parse_range(&mut self) -> Result<Option<u32>> {
        if self.peek() != Tok::LBracket {
            return Ok(None);
        }
        self.bump();
        let hi = self.expect_number()?;
        self.expect(Tok::Colon, "`:`")?;
        let lo = self.expect_number()?;
        self.expect(Tok::RBracket, "`]`")?;
        if lo != 0 {
            return Err(self.err(format!(
                "only [n:0] ranges are supported, found [{hi}:{lo}]"
            )));
        }
        Ok(Some(hi as u32 + 1))
    }

    fn parse_decl(&mut self, module: &mut Module) -> Result<()> {
        let kind = self.expect_ident("declaration keyword")?;
        let width = self.parse_range()?.unwrap_or(1);
        loop {
            let name = self.expect_ident("signal name")?;
            if name == KEY_PORT {
                if kind != "input" {
                    return Err(self.err("key port `K` must be an input"));
                }
                module.set_key_width(width);
            } else {
                match kind {
                    "input" => module.add_input(name, width)?,
                    "output" => module.add_output(name, width)?,
                    "wire" => module.add_wire(name, width)?,
                    "reg" => module.add_reg(name, width)?,
                    _ => unreachable!("caller checked keyword"),
                }
            }
            if self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::Semi, "`;`")
    }

    fn parse_assign(&mut self, module: &mut Module) -> Result<()> {
        self.expect_keyword("assign")?;
        let lhs = self.expect_ident("assignment target")?;
        self.expect(Tok::Assign, "`=`")?;
        let rhs = self.parse_expr(module)?;
        self.expect(Tok::Semi, "`;`")?;
        module.add_assign(lhs, rhs)
    }

    fn parse_always(&mut self, module: &mut Module) -> Result<()> {
        self.expect_keyword("always")?;
        self.expect(Tok::At, "`@`")?;
        self.expect(Tok::LParen, "`(`")?;
        self.expect_keyword("posedge")?;
        let clock = self.expect_ident("clock signal")?.to_owned();
        self.expect(Tok::RParen, "`)`")?;
        let body = self.parse_stmt_block(module)?;
        module.add_always(AlwaysBlock { clock, body })
    }

    /// Parses either a `begin ... end` block or a single statement.
    fn parse_stmt_block(&mut self, module: &mut Module) -> Result<Vec<SeqStmt>> {
        if self.at_keyword("begin") {
            self.bump();
            let mut stmts = Vec::new();
            while !self.at_keyword("end") {
                if self.peek() == Tok::Eof {
                    return Err(self.err("unexpected end of file inside `begin` block"));
                }
                stmts.push(self.parse_stmt(module)?);
            }
            self.bump();
            Ok(stmts)
        } else {
            Ok(vec![self.parse_stmt(module)?])
        }
    }

    fn parse_stmt(&mut self, module: &mut Module) -> Result<SeqStmt> {
        if self.at_keyword("if") {
            self.bump();
            self.expect(Tok::LParen, "`(`")?;
            let cond = self.parse_expr(module)?;
            self.expect(Tok::RParen, "`)`")?;
            let then_body = self.parse_stmt_block(module)?;
            let else_body = if self.at_keyword("else") {
                self.bump();
                self.parse_stmt_block(module)?
            } else {
                Vec::new()
            };
            Ok(SeqStmt::If {
                cond,
                then_body,
                else_body,
            })
        } else {
            let lhs = self.expect_ident("register name")?.to_owned();
            self.expect(Tok::LeOrNonBlocking, "`<=`")?;
            let rhs = self.parse_expr(module)?;
            self.expect(Tok::Semi, "`;`")?;
            Ok(SeqStmt::NonBlocking { lhs, rhs })
        }
    }

    fn parse_expr(&mut self, module: &mut Module) -> Result<ExprId> {
        let cond = self.parse_binary(module, 1)?;
        if self.peek() == Tok::Question {
            self.bump();
            let then_expr = self.parse_expr(module)?;
            self.expect(Tok::Colon, "`:`")?;
            let else_expr = self.parse_expr(module)?;
            Ok(module.alloc_expr(Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            }))
        } else {
            Ok(cond)
        }
    }

    fn parse_binary(&mut self, module: &mut Module, min_prec: u8) -> Result<ExprId> {
        let mut lhs = self.parse_unary(module)?;
        while let Some(op) = self.peek().binary_op() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            // `**` is right-associative in Verilog; everything else left.
            let next_min = if op == BinaryOp::Pow { prec } else { prec + 1 };
            let rhs = self.parse_binary(module, next_min)?;
            lhs = module.alloc_expr(Expr::Binary { op, lhs, rhs });
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self, module: &mut Module) -> Result<ExprId> {
        let op = match self.peek() {
            Tok::Op("~") => Some(UnaryOp::Not),
            Tok::Op("!") => Some(UnaryOp::LNot),
            Tok::Op("-") => Some(UnaryOp::Neg),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let arg = self.parse_unary(module)?;
            return Ok(module.alloc_expr(Expr::Unary { op, arg }));
        }
        self.parse_primary(module)
    }

    fn parse_primary(&mut self, module: &mut Module) -> Result<ExprId> {
        match self.bump() {
            Tok::LParen => {
                let e = self.parse_expr(module)?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Number { value, width } => Ok(module.alloc_expr(Expr::Const { value, width })),
            Tok::Ident(name) => {
                if self.peek() == Tok::LBracket {
                    self.bump();
                    let hi = self.expect_number()?;
                    let lo = if self.peek() == Tok::Colon {
                        self.bump();
                        Some(self.expect_number()?)
                    } else {
                        None
                    };
                    self.expect(Tok::RBracket, "`]`")?;
                    if name == KEY_PORT {
                        match lo {
                            None => Ok(module.alloc_expr(Expr::KeyBit(hi as u32))),
                            Some(lo) => {
                                if lo > hi {
                                    return Err(self.err(format!(
                                        "descending key slice [{hi}:{lo}] expected msb >= lsb"
                                    )));
                                }
                                Ok(module.alloc_expr(Expr::KeySlice {
                                    lsb: lo as u32,
                                    width: (hi - lo) as u32 + 1,
                                }))
                            }
                        }
                    } else {
                        match lo {
                            None => Ok(module.alloc_expr(Expr::Index {
                                base: name.to_owned(),
                                bit: hi as u32,
                            })),
                            Some(_) => {
                                Err(self
                                    .err("ranged bit-selects are only supported on the key port"))
                            }
                        }
                    }
                } else {
                    Ok(module.alloc_expr(Expr::Ident(name.to_owned())))
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BinaryOp;
    use crate::visit;

    #[test]
    fn parses_simple_module() {
        let m = parse_verilog(
            "module t(a, y);\n input [7:0] a;\n output [7:0] y;\n assign y = a + 1;\nendmodule",
        )
        .unwrap();
        assert_eq!(m.name(), "t");
        assert_eq!(m.ports().len(), 2);
        assert_eq!(visit::binary_ops(&m).len(), 1);
    }

    #[test]
    fn precedence_is_respected() {
        let m = parse_verilog(
            "module t(a, b, c, y);\n input [7:0] a, b, c;\n output [7:0] y;\n assign y = a + b * c;\nendmodule",
        )
        .unwrap();
        let root = m.assigns()[0].rhs;
        match *m.expr(root).unwrap() {
            Expr::Binary { op, rhs, .. } => {
                assert_eq!(op, BinaryOp::Add);
                assert_eq!(m.expr(rhs).unwrap().binary_op(), Some(BinaryOp::Mul));
            }
            ref other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn key_port_sets_key_width_and_keybits() {
        let m = parse_verilog(
            "module t(K, a, y);\n input [3:0] K;\n input [7:0] a;\n output [7:0] y;\n assign y = K[1] ? a + a : a - a;\nendmodule",
        )
        .unwrap();
        assert_eq!(m.key_width(), 4);
        let root = m.assigns()[0].rhs;
        match *m.expr(root).unwrap() {
            Expr::Ternary { cond, .. } => {
                assert_eq!(*m.expr(cond).unwrap(), Expr::KeyBit(1));
            }
            ref other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn key_slice_parses() {
        let m = parse_verilog(
            "module t(K, y);\n input [7:0] K;\n output [3:0] y;\n assign y = K[6:3];\nendmodule",
        )
        .unwrap();
        let root = m.assigns()[0].rhs;
        assert_eq!(*m.expr(root).unwrap(), Expr::KeySlice { lsb: 3, width: 4 });
    }

    #[test]
    fn always_block_round_trip() {
        let src = "module t(clk, d, q);\n input clk;\n input [7:0] d;\n output [7:0] q;\n reg [7:0] q_r;\n assign q = q_r;\n always @(posedge clk) begin\n if (d > 3) begin\n q_r <= d + 1;\n end else begin\n q_r <= d - 1;\n end\n end\nendmodule";
        let m = parse_verilog(src).unwrap();
        assert_eq!(m.always_blocks().len(), 1);
        match &m.always_blocks()[0].body[0] {
            SeqStmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn le_in_expression_context() {
        let m = parse_verilog(
            "module t(a, b, y);\n input [7:0] a, b;\n output y;\n assign y = a <= b;\nendmodule",
        )
        .unwrap();
        let root = m.assigns()[0].rhs;
        assert_eq!(m.expr(root).unwrap().binary_op(), Some(BinaryOp::Le));
    }

    #[test]
    fn pow_is_right_associative() {
        let m = parse_verilog(
            "module t(a, y);\n input [7:0] a;\n output [7:0] y;\n assign y = a ** a ** a;\nendmodule",
        )
        .unwrap();
        let root = m.assigns()[0].rhs;
        match *m.expr(root).unwrap() {
            Expr::Binary {
                op: BinaryOp::Pow,
                rhs,
                ..
            } => {
                assert_eq!(m.expr(rhs).unwrap().binary_op(), Some(BinaryOp::Pow));
            }
            ref other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions() {
        // `garbage` alone would parse as an instance prefix now; use a
        // token that can never start an item.
        let err = parse_verilog("module t(a);\n input a;\n = garbage\nendmodule").unwrap_err();
        match err {
            RtlError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn undeclared_header_port_is_rejected() {
        let err = parse_verilog("module t(a, ghost);\n input a;\nendmodule").unwrap_err();
        assert_eq!(err, RtlError::UnknownSignal("ghost".into()));
    }

    #[test]
    fn nested_ternaries_parse() {
        let m = parse_verilog(
            "module t(K, a, b, y);\n input [2:0] K;\n input [7:0] a, b;\n output [7:0] y;\n assign y = K[0] ? (K[1] ? a + b : a - b) : (K[2] ? a - b : a + b);\nendmodule",
        )
        .unwrap();
        assert_eq!(visit::key_mux_count(&m), 3);
    }

    #[test]
    fn unary_chains() {
        let m = parse_verilog(
            "module t(a, y);\n input [7:0] a;\n output [7:0] y;\n assign y = ~-a;\nendmodule",
        )
        .unwrap();
        let root = m.assigns()[0].rhs;
        assert!(matches!(
            *m.expr(root).unwrap(),
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }
}
