//! Arena-based RTL intermediate representation.
//!
//! A [`Module`] owns an [`ExprArena`] in which every expression node lives at
//! a stable [`ExprId`]. Locking transformations mutate nodes *in place*: when
//! an operation is locked, the node at its id is replaced by a key-controlled
//! ternary whose branches are freshly allocated nodes. This gives the
//! locking algorithms O(1) `AddPair` and O(1) `UndoLock` (restore the saved
//! node and truncate the arena), which HRA's tentative-evaluation inner loop
//! requires (Alg. 4 of the paper).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::error::{Result, RtlError};
use crate::op::{BinaryOp, UnaryOp};

/// Name of the key input port added to locked modules.
pub const KEY_PORT: &str = "K";

/// Handle to an expression node inside an [`ExprArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub(crate) u32);

impl ExprId {
    /// Index of this node inside its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal, optionally with an explicit bit width (`8'hff`).
    Const {
        /// Literal value (masked to `width` when given).
        value: u64,
        /// Explicit width, if the source specified one.
        width: Option<u32>,
    },
    /// Reference to a declared signal.
    Ident(String),
    /// Single bit `K[i]` of the locking key.
    KeyBit(u32),
    /// Multi-bit slice `K[lsb+width-1 : lsb]` of the locking key
    /// (produced by constant obfuscation).
    KeySlice {
        /// Least-significant key bit of the slice.
        lsb: u32,
        /// Number of key bits.
        width: u32,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand node.
        arg: ExprId,
    },
    /// Binary operation — the lockable unit of the paper.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand node.
        lhs: ExprId,
        /// Right operand node.
        rhs: ExprId,
    },
    /// Conditional `cond ? then : else`. Key-controlled ternaries (with a
    /// [`Expr::KeyBit`] condition) are the locked pairs of Fig. 3.
    Ternary {
        /// Condition node.
        cond: ExprId,
        /// Value when the condition is non-zero.
        then_expr: ExprId,
        /// Value when the condition is zero.
        else_expr: ExprId,
    },
    /// Constant bit-select `sig[i]` of a declared signal.
    Index {
        /// Signal being indexed.
        base: String,
        /// Bit position.
        bit: u32,
    },
}

impl Expr {
    /// Child node ids of this expression, in evaluation order.
    pub fn children(&self) -> Children {
        match self {
            Expr::Const { .. }
            | Expr::Ident(_)
            | Expr::KeyBit(_)
            | Expr::KeySlice { .. }
            | Expr::Index { .. } => Children::new([]),
            Expr::Unary { arg, .. } => Children::new([*arg]),
            Expr::Binary { lhs, rhs, .. } => Children::new([*lhs, *rhs]),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => Children::new([*cond, *then_expr, *else_expr]),
        }
    }

    /// The binary operator of this node, if it is a [`Expr::Binary`].
    pub fn binary_op(&self) -> Option<BinaryOp> {
        match self {
            Expr::Binary { op, .. } => Some(*op),
            _ => None,
        }
    }
}

/// The (at most three) child ids of one node, stored inline so that graph
/// walks allocate nothing per node. Derefs to a slice in evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Children {
    ids: [ExprId; 3],
    len: u8,
}

impl Children {
    fn new<const N: usize>(ids: [ExprId; N]) -> Self {
        let mut all = [ExprId(0); 3];
        all[..N].copy_from_slice(&ids);
        Self {
            ids: all,
            len: N as u8,
        }
    }
}

impl std::ops::Deref for Children {
    type Target = [ExprId];

    fn deref(&self) -> &[ExprId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl IntoIterator for Children {
    type Item = ExprId;
    type IntoIter = std::iter::Take<std::array::IntoIter<ExprId, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(usize::from(self.len))
    }
}

/// Append-only arena of expression nodes.
///
/// Nodes are only ever added or replaced in place; removal happens solely via
/// LIFO [`ExprArena::truncate`], which the locking undo journal uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExprArena {
    nodes: Vec<Expr>,
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes ever allocated (and not truncated away).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Allocates a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a child id is out of range.
    pub fn alloc(&mut self, expr: Expr) -> ExprId {
        debug_assert!(
            expr.children().iter().all(|c| c.index() < self.nodes.len()),
            "expression references out-of-range child"
        );
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(expr);
        id
    }

    /// Returns the node at `id`.
    pub fn get(&self, id: ExprId) -> Result<&Expr> {
        self.nodes
            .get(id.index())
            .ok_or(RtlError::InvalidExprId(id))
    }

    /// Returns the node at `id` mutably.
    pub fn get_mut(&mut self, id: ExprId) -> Result<&mut Expr> {
        self.nodes
            .get_mut(id.index())
            .ok_or(RtlError::InvalidExprId(id))
    }

    /// Replaces the node at `id`, returning the previous node.
    pub fn replace(&mut self, id: ExprId, expr: Expr) -> Result<Expr> {
        let slot = self
            .nodes
            .get_mut(id.index())
            .ok_or(RtlError::InvalidExprId(id))?;
        Ok(std::mem::replace(slot, expr))
    }

    /// Drops every node with index `>= len` (LIFO undo support).
    pub fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len);
    }

    /// Iterates over `(id, node)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (ExprId, &Expr)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, e)| (ExprId(i as u32), e))
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Bit width (1..=64).
    pub width: u32,
}

/// Storage class of an internal net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Combinational `wire`.
    Wire,
    /// Sequential `reg` (state element updated by an always block).
    Reg,
}

/// An internal net declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Storage class.
    pub kind: NetKind,
    /// Bit width (1..=64).
    pub width: u32,
}

/// A continuous assignment `assign lhs = rhs;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    /// Driven signal.
    pub lhs: String,
    /// Root of the driving expression.
    pub rhs: ExprId,
}

/// A statement inside a clocked always block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqStmt {
    /// Non-blocking assignment `lhs <= rhs;`.
    NonBlocking {
        /// Driven register.
        lhs: String,
        /// Root of the driving expression.
        rhs: ExprId,
    },
    /// `if (cond) ... else ...` — the unit of branch obfuscation.
    If {
        /// Branch condition (lockable by branch obfuscation).
        cond: ExprId,
        /// Taken when `cond` is non-zero.
        then_body: Vec<SeqStmt>,
        /// Taken when `cond` is zero.
        else_body: Vec<SeqStmt>,
    },
}

/// A clocked process `always @(posedge clock) ...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlwaysBlock {
    /// Clock signal name.
    pub clock: String,
    /// Statement list.
    pub body: Vec<SeqStmt>,
}

/// A named port-to-signal binding of a module instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Port name on the instantiated module.
    pub port: String,
    /// Signal name in the enclosing module.
    pub signal: String,
}

/// An instantiation of another module (`adder u0 (.a(x), .y(z));`).
///
/// Instances are structural placeholders: simulation and locking operate on
/// flattened designs (see [`crate::hier::Design::flatten`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Name of the instantiated module.
    pub module_name: String,
    /// Instance label.
    pub instance_name: String,
    /// Port bindings.
    pub connections: Vec<Connection>,
}

/// One RTL module: ports, nets, an expression arena, continuous assignments
/// and clocked processes.
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
/// let sum = m.alloc_expr(Expr::Binary { op: BinaryOp::Add, lhs: a, rhs: b });
/// m.add_assign("y", sum)?;
/// assert_eq!(m.assigns().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    name: String,
    ports: Vec<Port>,
    nets: Vec<Net>,
    arena: ExprArena,
    assigns: Vec<Assign>,
    always: Vec<AlwaysBlock>,
    instances: Vec<Instance>,
    key_width: u32,
    /// name -> declaration for every declared signal
    widths: HashMap<String, Decl>,
}

/// A declared signal's width, and whether a continuous assignment drives
/// it (so [`Module::add_assign`] finds a second driver with one lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Decl {
    width: u32,
    assigned: bool,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ports: Vec::new(),
            nets: Vec::new(),
            arena: ExprArena::new(),
            assigns: Vec::new(),
            always: Vec::new(),
            instances: Vec::new(),
            key_width: 0,
            widths: HashMap::new(),
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared ports, in declaration order (excluding the implicit key port).
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Declared internal nets, in declaration order.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Continuous assignments, in declaration order.
    pub fn assigns(&self) -> &[Assign] {
        &self.assigns
    }

    /// Clocked processes.
    pub fn always_blocks(&self) -> &[AlwaysBlock] {
        &self.always
    }

    /// Module instantiations (empty for flat modules).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Adds a module instantiation.
    ///
    /// # Errors
    ///
    /// Returns an error if a connected parent signal is undeclared or the
    /// instance name collides with a declared signal.
    pub fn add_instance(&mut self, instance: Instance) -> Result<()> {
        if self.is_declared(&instance.instance_name) {
            return Err(RtlError::DuplicateSignal(instance.instance_name));
        }
        for c in &instance.connections {
            if !self.is_declared(&c.signal) {
                return Err(RtlError::UnknownSignal(c.signal.clone()));
            }
        }
        self.instances.push(instance);
        Ok(())
    }

    /// Mutable access to the clocked processes (used by branch obfuscation).
    pub fn always_blocks_mut(&mut self) -> &mut [AlwaysBlock] {
        &mut self.always
    }

    /// The expression arena.
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// Number of key bits the module consumes (0 for an unlocked design).
    pub fn key_width(&self) -> u32 {
        self.key_width
    }

    /// Reserves and returns the index of a fresh key bit.
    pub fn alloc_key_bit(&mut self) -> u32 {
        let bit = self.key_width;
        self.key_width += 1;
        bit
    }

    /// Reserves `width` consecutive key bits, returning the lsb index.
    pub fn alloc_key_slice(&mut self, width: u32) -> u32 {
        let lsb = self.key_width;
        self.key_width += width;
        lsb
    }

    /// Sets the key width explicitly (used by the parser when it sees a
    /// declared `K` port).
    pub fn set_key_width(&mut self, width: u32) {
        self.key_width = width;
    }

    fn declare(&mut self, name: &str, width: u32) -> Result<()> {
        if width == 0 || width > 64 {
            return Err(RtlError::WidthOutOfRange {
                signal: name.to_owned(),
                width,
            });
        }
        if name == KEY_PORT {
            return Err(RtlError::DuplicateSignal(name.to_owned()));
        }
        match self.widths.entry(name.to_owned()) {
            Entry::Occupied(mut slot) => {
                slot.get_mut().width = width;
                Err(RtlError::DuplicateSignal(name.to_owned()))
            }
            Entry::Vacant(slot) => {
                slot.insert(Decl {
                    width,
                    assigned: false,
                });
                Ok(())
            }
        }
    }

    /// Declares an input port.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already declared, reserved, or the
    /// width is outside `1..=64`.
    pub fn add_input(&mut self, name: impl Into<String>, width: u32) -> Result<()> {
        let name = name.into();
        self.declare(&name, width)?;
        self.ports.push(Port {
            name,
            dir: PortDir::Input,
            width,
        });
        Ok(())
    }

    /// Declares an output port.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Module::add_input`].
    pub fn add_output(&mut self, name: impl Into<String>, width: u32) -> Result<()> {
        let name = name.into();
        self.declare(&name, width)?;
        self.ports.push(Port {
            name,
            dir: PortDir::Output,
            width,
        });
        Ok(())
    }

    /// Declares an internal wire.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Module::add_input`].
    pub fn add_wire(&mut self, name: impl Into<String>, width: u32) -> Result<()> {
        let name = name.into();
        self.declare(&name, width)?;
        self.nets.push(Net {
            name,
            kind: NetKind::Wire,
            width,
        });
        Ok(())
    }

    /// Declares a register.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Module::add_input`].
    pub fn add_reg(&mut self, name: impl Into<String>, width: u32) -> Result<()> {
        let name = name.into();
        self.declare(&name, width)?;
        self.nets.push(Net {
            name,
            kind: NetKind::Reg,
            width,
        });
        Ok(())
    }

    /// Width of a declared signal, if any.
    pub fn signal_width(&self, name: &str) -> Option<u32> {
        self.widths.get(name).map(|d| d.width)
    }

    /// Whether `name` is a declared signal (port or net).
    pub fn is_declared(&self, name: &str) -> bool {
        self.widths.contains_key(name)
    }

    /// Allocates an expression node.
    pub fn alloc_expr(&mut self, expr: Expr) -> ExprId {
        self.arena.alloc(expr)
    }

    /// Returns the expression at `id`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::InvalidExprId`] for out-of-range ids.
    pub fn expr(&self, id: ExprId) -> Result<&Expr> {
        self.arena.get(id)
    }

    /// Replaces the expression at `id`, returning the old node.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::InvalidExprId`] for out-of-range ids.
    pub fn replace_expr(&mut self, id: ExprId, expr: Expr) -> Result<Expr> {
        self.arena.replace(id, expr)
    }

    /// Adds a continuous assignment driving `lhs`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lhs` is undeclared or already driven.
    pub fn add_assign(&mut self, lhs: impl Into<String>, rhs: ExprId) -> Result<()> {
        let lhs = lhs.into();
        let Some(decl) = self.widths.get_mut(&lhs) else {
            return Err(RtlError::UnknownSignal(lhs));
        };
        if decl.assigned {
            return Err(RtlError::MultipleDrivers(lhs));
        }
        self.arena.get(rhs)?;
        decl.assigned = true;
        self.assigns.push(Assign { lhs, rhs });
        Ok(())
    }

    /// Adds a clocked process.
    ///
    /// # Errors
    ///
    /// Returns an error if the clock signal is undeclared.
    pub fn add_always(&mut self, block: AlwaysBlock) -> Result<()> {
        if !self.is_declared(&block.clock) {
            return Err(RtlError::UnknownSignal(block.clock));
        }
        self.always.push(block);
        Ok(())
    }

    /// Wraps the binary operation at `target` in a key-controlled
    /// multiplexer controlled by a freshly allocated key bit: the node
    /// becomes `K[bit] ? real : dummy` when `key_value` is `true` and
    /// `K[bit] ? dummy : real` otherwise (Fig. 3a of the paper). The dummy
    /// operation applies `dummy_op` to the same operands.
    ///
    /// Returns the allocated key bit index and an undo token that restores
    /// the previous state (including the key width) when passed to
    /// [`Module::undo_wrap`] (LIFO order only).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::NotABinaryOp`] if `target` is not a binary node.
    pub fn wrap_in_key_mux(
        &mut self,
        target: ExprId,
        key_value: bool,
        dummy_op: BinaryOp,
    ) -> Result<(u32, WrapUndo)> {
        let (op, lhs, rhs) = match *self.arena.get(target)? {
            Expr::Binary { op, lhs, rhs } => (op, lhs, rhs),
            _ => return Err(RtlError::NotABinaryOp(target)),
        };
        let arena_len_before = self.arena.len();
        let key_width_before = self.key_width;
        let key_bit = self.alloc_key_bit();
        let real = self.arena.alloc(Expr::Binary { op, lhs, rhs });
        let dummy = self.arena.alloc(Expr::Binary {
            op: dummy_op,
            lhs,
            rhs,
        });
        let cond = self.arena.alloc(Expr::KeyBit(key_bit));
        let (then_expr, else_expr) = if key_value {
            (real, dummy)
        } else {
            (dummy, real)
        };
        let saved = self.arena.replace(
            target,
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            },
        )?;
        Ok((
            key_bit,
            WrapUndo {
                target,
                saved,
                arena_len_before,
                key_width_before,
            },
        ))
    }

    /// Reverts a [`Module::wrap_in_key_mux`].
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UndoOrder`] if intervening allocations make the
    /// undo non-LIFO.
    pub fn undo_wrap(&mut self, undo: WrapUndo) -> Result<()> {
        if self.arena.len() != undo.arena_len_before + 3 {
            return Err(RtlError::UndoOrder {
                expected: undo.arena_len_before + 3,
                found: self.arena.len(),
            });
        }
        self.arena.replace(undo.target, undo.saved)?;
        self.arena.truncate(undo.arena_len_before);
        self.key_width = undo.key_width_before;
        Ok(())
    }

    /// Expression roots of the module: every assign right-hand side and
    /// every expression referenced from a clocked process, in deterministic
    /// (declaration) order.
    pub fn roots(&self) -> Vec<ExprId> {
        let mut roots = Vec::new();
        for a in &self.assigns {
            roots.push(a.rhs);
        }
        fn stmt_roots(stmts: &[SeqStmt], out: &mut Vec<ExprId>) {
            for s in stmts {
                match s {
                    SeqStmt::NonBlocking { rhs, .. } => out.push(*rhs),
                    SeqStmt::If {
                        cond,
                        then_body,
                        else_body,
                    } => {
                        out.push(*cond);
                        stmt_roots(then_body, out);
                        stmt_roots(else_body, out);
                    }
                }
            }
        }
        for blk in &self.always {
            stmt_roots(&blk.body, &mut roots);
        }
        roots
    }
}

/// Undo token returned by [`Module::wrap_in_key_mux`].
///
/// Tokens must be applied in strict LIFO order relative to other arena
/// mutations; the locking crate's journal enforces this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapUndo {
    pub(crate) target: ExprId,
    pub(crate) saved: Expr,
    pub(crate) arena_len_before: usize,
    pub(crate) key_width_before: u32,
}

impl WrapUndo {
    /// The node id that was wrapped.
    pub fn target(&self) -> ExprId {
        self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder() -> (Module, ExprId) {
        let mut m = Module::new("t");
        m.add_input("a", 8).unwrap();
        m.add_input("b", 8).unwrap();
        m.add_output("y", 8).unwrap();
        let a = m.alloc_expr(Expr::Ident("a".into()));
        let b = m.alloc_expr(Expr::Ident("b".into()));
        let sum = m.alloc_expr(Expr::Binary {
            op: BinaryOp::Add,
            lhs: a,
            rhs: b,
        });
        m.add_assign("y", sum).unwrap();
        (m, sum)
    }

    #[test]
    fn declarations_reject_duplicates_and_bad_widths() {
        let mut m = Module::new("t");
        m.add_input("a", 8).unwrap();
        assert_eq!(
            m.add_wire("a", 8),
            Err(RtlError::DuplicateSignal("a".into()))
        );
        assert_eq!(
            m.add_wire("w", 0),
            Err(RtlError::WidthOutOfRange {
                signal: "w".into(),
                width: 0
            })
        );
        assert_eq!(
            m.add_wire("w", 65),
            Err(RtlError::WidthOutOfRange {
                signal: "w".into(),
                width: 65
            })
        );
        assert_eq!(
            m.add_reg(KEY_PORT, 4),
            Err(RtlError::DuplicateSignal(KEY_PORT.into()))
        );
    }

    #[test]
    fn assign_requires_declared_and_undriven_lhs() {
        let (mut m, sum) = adder();
        assert_eq!(
            m.add_assign("zz", sum),
            Err(RtlError::UnknownSignal("zz".into()))
        );
        assert_eq!(
            m.add_assign("y", sum),
            Err(RtlError::MultipleDrivers("y".into()))
        );
    }

    #[test]
    fn wrap_builds_fig3a_mux_for_key_value_one() {
        let (mut m, sum) = adder();
        let (bit, _undo) = m.wrap_in_key_mux(sum, true, BinaryOp::Sub).unwrap();
        assert_eq!(bit, 0);
        match *m.expr(sum).unwrap() {
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                assert_eq!(*m.expr(cond).unwrap(), Expr::KeyBit(0));
                assert_eq!(m.expr(then_expr).unwrap().binary_op(), Some(BinaryOp::Add));
                assert_eq!(m.expr(else_expr).unwrap().binary_op(), Some(BinaryOp::Sub));
            }
            ref other => panic!("expected ternary, got {other:?}"),
        }
    }

    #[test]
    fn wrap_builds_fig3a_mux_for_key_value_zero() {
        let (mut m, sum) = adder();
        m.wrap_in_key_mux(sum, false, BinaryOp::Sub).unwrap();
        match *m.expr(sum).unwrap() {
            Expr::Ternary {
                then_expr,
                else_expr,
                ..
            } => {
                assert_eq!(m.expr(then_expr).unwrap().binary_op(), Some(BinaryOp::Sub));
                assert_eq!(m.expr(else_expr).unwrap().binary_op(), Some(BinaryOp::Add));
            }
            ref other => panic!("expected ternary, got {other:?}"),
        }
    }

    #[test]
    fn wrap_then_undo_restores_module_exactly() {
        let (mut m, sum) = adder();
        let before = m.clone();
        let (_, undo) = m.wrap_in_key_mux(sum, true, BinaryOp::Sub).unwrap();
        assert_ne!(m, before);
        m.undo_wrap(undo).unwrap();
        assert_eq!(m, before);
    }

    #[test]
    fn undo_out_of_order_is_rejected() {
        let (mut m, sum) = adder();
        let (_, undo) = m.wrap_in_key_mux(sum, true, BinaryOp::Sub).unwrap();
        m.alloc_expr(Expr::Const {
            value: 0,
            width: None,
        });
        assert!(matches!(m.undo_wrap(undo), Err(RtlError::UndoOrder { .. })));
    }

    #[test]
    fn wrap_rejects_non_binary_targets() {
        let (mut m, _) = adder();
        let ident = m.alloc_expr(Expr::Ident("a".into()));
        let err = m.wrap_in_key_mux(ident, true, BinaryOp::Sub).unwrap_err();
        assert_eq!(err, RtlError::NotABinaryOp(ident));
    }

    #[test]
    fn nested_wrap_creates_fig3b_tree() {
        let (mut m, sum) = adder();
        m.wrap_in_key_mux(sum, true, BinaryOp::Sub).unwrap();
        // Relock both branches separately, as ASSURE does (Fig 3b).
        let (real, dummy) = match *m.expr(sum).unwrap() {
            Expr::Ternary {
                then_expr,
                else_expr,
                ..
            } => (then_expr, else_expr),
            _ => unreachable!(),
        };
        m.wrap_in_key_mux(real, false, BinaryOp::Sub).unwrap();
        m.wrap_in_key_mux(dummy, true, BinaryOp::Add).unwrap();
        assert!(matches!(*m.expr(real).unwrap(), Expr::Ternary { .. }));
        assert!(matches!(*m.expr(dummy).unwrap(), Expr::Ternary { .. }));
        assert_eq!(m.key_width(), 3);
    }

    #[test]
    fn roots_cover_assigns_and_processes() {
        let (mut m, _) = adder();
        m.add_input("clk", 1).unwrap();
        m.add_reg("r", 8).unwrap();
        let c = m.alloc_expr(Expr::Ident("a".into()));
        let v = m.alloc_expr(Expr::Ident("b".into()));
        m.add_always(AlwaysBlock {
            clock: "clk".into(),
            body: vec![SeqStmt::If {
                cond: c,
                then_body: vec![SeqStmt::NonBlocking {
                    lhs: "r".into(),
                    rhs: v,
                }],
                else_body: vec![],
            }],
        })
        .unwrap();
        let roots = m.roots();
        assert_eq!(roots.len(), 3); // assign rhs + if cond + nonblocking rhs
    }

    #[test]
    fn children_are_listed_in_evaluation_order() {
        let (a, b, c) = (ExprId(4), ExprId(5), ExprId(6));
        let ternary = Expr::Ternary {
            cond: a,
            then_expr: b,
            else_expr: c,
        };
        assert_eq!(*ternary.children(), [a, b, c]);
        assert_eq!(
            ternary.children().into_iter().collect::<Vec<_>>(),
            [a, b, c]
        );
        let binary = Expr::Binary {
            op: BinaryOp::Add,
            lhs: b,
            rhs: a,
        };
        assert_eq!(*binary.children(), [b, a]);
        assert!(Expr::KeyBit(0).children().is_empty());
    }

    #[test]
    fn arena_replace_and_truncate() {
        let mut a = ExprArena::new();
        let id = a.alloc(Expr::Const {
            value: 1,
            width: None,
        });
        let old = a
            .replace(
                id,
                Expr::Const {
                    value: 2,
                    width: None,
                },
            )
            .unwrap();
        assert_eq!(
            old,
            Expr::Const {
                value: 1,
                width: None
            }
        );
        a.alloc(Expr::Const {
            value: 3,
            width: None,
        });
        a.truncate(1);
        assert_eq!(a.len(), 1);
        assert!(a.get(ExprId(1)).is_err());
    }
}
