//! Gate-level netlist intermediate representation.
//!
//! A [`Netlist`] is a flat sea of single-output [`Gate`]s over single-bit
//! nets, plus word-level port bindings (a port is an ordered list of bit
//! nets, LSB first), D flip-flops for sequential state, and dedicated *key
//! input* nets. This is the level the paper's threat model hands to the
//! attacker (§2.1: "a locked gate-level netlist"), and the level at which
//! traditional logic locking (EPIC-style XOR/XNOR key gates) operates.
//!
//! Nets `n0` and `n1` are reserved for constant 0 and constant 1.

use std::fmt;

use crate::error::{NetlistError, Result};

/// Handle to a single-bit net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The constant-0 net present in every netlist.
    pub const CONST0: NetId = NetId(0);
    /// The constant-1 net present in every netlist.
    pub const CONST1: NetId = NetId(1);

    /// Index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is one of the two constant nets.
    pub fn is_const(self) -> bool {
        self.0 < 2
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Gate types of the structural netlist.
///
/// The set mirrors a small standard-cell library: it is rich enough that
/// XOR/XNOR key gates are *distinct cells* (the structural leak the
/// gate-level SnapShot attack exploits) rather than an XOR plus an inverter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Identity; used when a locked wire must keep its old driver id.
    Buf,
    /// Inverter.
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output `sel ? a : b`.
    Mux,
}

/// All gate kinds, in feature-code order.
pub const ALL_GATE_KINDS: [GateKind; 9] = [
    GateKind::Buf,
    GateKind::Not,
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Mux,
];

impl GateKind {
    /// Number of inputs this gate kind consumes.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Mux => 3,
            _ => 2,
        }
    }

    /// Stable integer code of this gate kind (used as a structural feature
    /// by the gate-level SnapShot attack). Codes start at 1; 0 encodes
    /// "no gate" (a primary input or constant).
    ///
    /// ```
    /// use mlrl_netlist::ir::GateKind;
    /// assert_eq!(GateKind::Buf.code(), 1);
    /// assert_ne!(GateKind::Xor.code(), GateKind::Xnor.code());
    /// ```
    pub fn code(self) -> u32 {
        self as u32 + 1
    }

    /// Inverse of [`GateKind::code`].
    pub fn from_code(code: u32) -> Option<Self> {
        ALL_GATE_KINDS.get(code.checked_sub(1)? as usize).copied()
    }

    /// Evaluates the gate on boolean inputs.
    ///
    /// This is a convenience wrapper over [`GateKind::eval_words`], the one
    /// evaluation kernel: each boolean becomes lane 0 of a 1-word operand.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.arity(),
            "{self} expects {} inputs",
            self.arity()
        );
        let mut words = [[0u64; 1]; 3];
        for (w, &b) in words.iter_mut().zip(inputs) {
            w[0] = b as u64;
        }
        self.eval_words(&words)[0] & 1 == 1
    }

    /// Evaluates the gate bitwise on 64-lane words: lane `i` of every
    /// operand is an independent boolean, so one call evaluates 64 input
    /// vectors at once. Wrapper over [`GateKind::eval_words`] at width 1.
    /// Entries beyond [`GateKind::arity`] are ignored, so a fixed 3-wide
    /// operand array serves every kind.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has fewer than `self.arity()` entries.
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        let arity = self.arity();
        let ins = [
            [inputs[0]],
            [if arity > 1 { inputs[1] } else { 0 }],
            [if arity > 2 { inputs[2] } else { 0 }],
        ];
        self.eval_words(&ins)[0]
    }

    /// The evaluation kernel: `W` words of 64 lanes each, evaluated in one
    /// call, so one invocation covers `64 * W` independent input vectors.
    /// The kind dispatch happens once, outside the per-word loop, which lets
    /// the loop body autovectorize (`[u64; 4]` ops lower to AVX2,
    /// `[u64; 8]` to AVX-512 where available). Operand slots beyond
    /// [`GateKind::arity`] are ignored; callers pass a fixed 3-wide array.
    // `always`: the walk's `#[target_feature]` wrappers only upgrade this
    // kernel to AVX2/AVX-512 if it inlines into them — as a standalone
    // function it would compile (and be called) at the x86-64 baseline.
    #[inline(always)]
    pub fn eval_words<const W: usize>(self, inputs: &[[u64; W]; 3]) -> [u64; W] {
        let [a, b, c] = inputs;
        let mut out = [0u64; W];
        match self {
            GateKind::Buf => out.copy_from_slice(a),
            GateKind::Not => {
                for i in 0..W {
                    out[i] = !a[i];
                }
            }
            GateKind::And => {
                for i in 0..W {
                    out[i] = a[i] & b[i];
                }
            }
            GateKind::Or => {
                for i in 0..W {
                    out[i] = a[i] | b[i];
                }
            }
            GateKind::Nand => {
                for i in 0..W {
                    out[i] = !(a[i] & b[i]);
                }
            }
            GateKind::Nor => {
                for i in 0..W {
                    out[i] = !(a[i] | b[i]);
                }
            }
            GateKind::Xor => {
                for i in 0..W {
                    out[i] = a[i] ^ b[i];
                }
            }
            GateKind::Xnor => {
                for i in 0..W {
                    out[i] = !(a[i] ^ b[i]);
                }
            }
            GateKind::Mux => {
                for i in 0..W {
                    out[i] = (a[i] & b[i]) | (!a[i] & c[i]);
                }
            }
        }
        out
    }

    /// Verilog expression template name used by the structural emitter.
    pub fn token(self) -> &'static str {
        match self {
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Inline operand storage for a gate: at most 3 input nets (the maximum
/// arity in the cell library) held in a fixed array with a length tag.
///
/// This replaces the old per-gate `Vec<NetId>` heap allocation — a netlist
/// with a million gates used to carry a million three-element vectors; now
/// the operands live inside the [`Gate`] itself and the whole gate array is
/// one contiguous allocation. Dereferences to `[NetId]`, so slice-style
/// consumers (`gate.inputs.iter()`, `gate.inputs[0]`, `&gate.inputs`)
/// compile unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateInputs {
    nets: [NetId; 3],
    len: u8,
}

impl GateInputs {
    /// Builds from a slice of at most 3 nets.
    ///
    /// # Panics
    ///
    /// Panics if `nets.len() > 3`.
    pub fn new(nets: &[NetId]) -> Self {
        assert!(nets.len() <= 3, "gates have at most 3 inputs");
        let mut arr = [NetId::CONST0; 3];
        arr[..nets.len()].copy_from_slice(nets);
        Self {
            nets: arr,
            len: nets.len() as u8,
        }
    }
}

impl std::ops::Deref for GateInputs {
    type Target = [NetId];

    fn deref(&self) -> &[NetId] {
        &self.nets[..self.len as usize]
    }
}

impl std::ops::DerefMut for GateInputs {
    fn deref_mut(&mut self) -> &mut [NetId] {
        &mut self.nets[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a GateInputs {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut GateInputs {
    type Item = &'a mut NetId;
    type IntoIter = std::slice::IterMut<'a, NetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl From<Vec<NetId>> for GateInputs {
    fn from(v: Vec<NetId>) -> Self {
        Self::new(&v)
    }
}

impl From<&[NetId]> for GateInputs {
    fn from(v: &[NetId]) -> Self {
        Self::new(v)
    }
}

impl<const N: usize> From<[NetId; N]> for GateInputs {
    fn from(v: [NetId; N]) -> Self {
        Self::new(&v)
    }
}

/// One gate instance: a kind, its input nets, and its single output net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Cell type.
    pub kind: GateKind,
    /// Input nets, in [`GateKind`]-defined order.
    pub inputs: GateInputs,
    /// Output net (exactly one driver per net).
    pub output: NetId,
}

/// A D flip-flop: `q` takes the value of `d` at every clock tick.
///
/// Reset/initial value is 0, matching the RTL simulator's power-on state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dff {
    /// Data input net.
    pub d: NetId,
    /// State output net.
    pub q: NetId,
}

/// A word-level port binding: an ordered list of bit nets, LSB first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortBits {
    /// Port name (matches the RTL port it was lowered from).
    pub name: String,
    /// Bit nets, index 0 = LSB.
    pub bits: Vec<NetId>,
}

impl PortBits {
    /// Port width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }
}

/// A flat gate-level netlist.
///
/// # Examples
///
/// ```
/// use mlrl_netlist::ir::{GateKind, Netlist};
///
/// let mut n = Netlist::new("half_adder");
/// let a = n.add_input_port("a", 1)[0];
/// let b = n.add_input_port("b", 1)[0];
/// let sum = n.add_gate(GateKind::Xor, vec![a, b]);
/// let carry = n.add_gate(GateKind::And, vec![a, b]);
/// n.add_output_port("sum", vec![sum]);
/// n.add_output_port("carry", vec![carry]);
/// assert_eq!(n.gates().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    pub(crate) name: String,
    /// Total number of nets ever allocated (constants included).
    pub(crate) net_count: u32,
    pub(crate) gates: Vec<Gate>,
    pub(crate) dffs: Vec<Dff>,
    pub(crate) inputs: Vec<PortBits>,
    pub(crate) outputs: Vec<PortBits>,
    /// Key input nets; index i carries `K[i]`.
    pub(crate) key_bits: Vec<NetId>,
}

impl Netlist {
    /// Creates an empty netlist holding only the two constant nets.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            net_count: 2,
            gates: Vec::new(),
            dffs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            key_bits: Vec::new(),
        }
    }

    /// Module name this netlist was lowered from (or given at construction).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets, constants included.
    pub fn net_count(&self) -> usize {
        self.net_count as usize
    }

    /// All gates, in insertion order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops.
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Input port bindings (excluding key bits).
    pub fn inputs(&self) -> &[PortBits] {
        &self.inputs
    }

    /// Output port bindings.
    pub fn outputs(&self) -> &[PortBits] {
        &self.outputs
    }

    /// Key input nets; index i carries `K[i]`.
    pub fn key_bits(&self) -> &[NetId] {
        &self.key_bits
    }

    /// Number of key bits the netlist consumes.
    pub fn key_width(&self) -> usize {
        self.key_bits.len()
    }

    /// Allocates a fresh, undriven net.
    pub fn add_net(&mut self) -> NetId {
        let id = NetId(self.net_count);
        self.net_count += 1;
        id
    }

    /// Allocates a fresh key input net carrying the next key bit and returns
    /// `(bit_index, net)`.
    pub fn add_key_bit(&mut self) -> (usize, NetId) {
        let net = self.add_net();
        self.key_bits.push(net);
        (self.key_bits.len() - 1, net)
    }

    /// Adds a gate driving a fresh net and returns that net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the gate kind's arity or an
    /// input net is out of range.
    pub fn add_gate(&mut self, kind: GateKind, inputs: impl Into<GateInputs>) -> NetId {
        let output = self.add_net();
        self.add_gate_to(kind, inputs, output);
        output
    }

    /// Adds a gate driving the *existing* net `output`.
    ///
    /// The caller is responsible for single-driver discipline;
    /// [`Netlist::validate`] checks it.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the kind's arity or a net id
    /// is out of range.
    pub fn add_gate_to(&mut self, kind: GateKind, inputs: impl Into<GateInputs>, output: NetId) {
        let inputs = inputs.into();
        assert_eq!(
            inputs.len(),
            kind.arity(),
            "{kind} expects {} inputs",
            kind.arity()
        );
        assert!(
            inputs
                .iter()
                .chain(std::iter::once(&output))
                .all(|n| n.0 < self.net_count),
            "gate references out-of-range net"
        );
        self.gates.push(Gate {
            kind,
            inputs,
            output,
        });
    }

    /// Adds a flip-flop with a fresh state net and returns that net.
    /// The data input may be connected later with [`Netlist::set_dff_data`].
    pub fn add_dff(&mut self) -> NetId {
        let q = self.add_net();
        self.dffs.push(Dff {
            d: NetId::CONST0,
            q,
        });
        q
    }

    /// Connects the data input of the flip-flop whose state net is `q`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNetId`] if no flip-flop has state `q`.
    pub fn set_dff_data(&mut self, q: NetId, d: NetId) -> Result<()> {
        let dff = self
            .dffs
            .iter_mut()
            .find(|f| f.q == q)
            .ok_or(NetlistError::InvalidNetId(q.0))?;
        dff.d = d;
        Ok(())
    }

    /// Declares an input port of `width` bits backed by fresh nets and
    /// returns those nets (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if a port with the same name exists.
    pub fn add_input_port(&mut self, name: impl Into<String>, width: usize) -> Vec<NetId> {
        let name = name.into();
        assert!(self.port(&name).is_none(), "duplicate port `{name}`");
        let bits: Vec<NetId> = (0..width).map(|_| self.add_net()).collect();
        self.inputs.push(PortBits {
            name,
            bits: bits.clone(),
        });
        bits
    }

    /// Declares an output port bound to existing nets (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if a port with the same name exists or a net is out of range.
    pub fn add_output_port(&mut self, name: impl Into<String>, bits: Vec<NetId>) {
        let name = name.into();
        assert!(self.port(&name).is_none(), "duplicate port `{name}`");
        assert!(
            bits.iter().all(|n| n.0 < self.net_count),
            "output references unknown net"
        );
        self.outputs.push(PortBits { name, bits });
    }

    /// Looks up a port (input or output) by name.
    pub fn port(&self, name: &str) -> Option<&PortBits> {
        self.inputs
            .iter()
            .chain(self.outputs.iter())
            .find(|p| p.name == name)
    }

    /// Whether the netlist contains no flip-flops.
    pub fn is_combinational(&self) -> bool {
        self.dffs.is_empty()
    }

    /// The scan-mode view of a sequential netlist: every flip-flop is
    /// removed, its state net `q` becomes a bit of a `scan_q` input port
    /// and its data net `d` a bit of a `scan_d` output port.
    ///
    /// This models the standard assumption of oracle-guided attacks on
    /// sequential circuits: production chips expose scan chains for test,
    /// making all state controllable and observable, which reduces the
    /// sequential circuit to its combinational core. Returns `self`
    /// unchanged (cloned) when the netlist is already combinational.
    ///
    /// # Panics
    ///
    /// Panics if ports named `scan_q`/`scan_d` already exist.
    pub fn to_scan_view(&self) -> Netlist {
        let mut view = self.clone();
        if view.dffs.is_empty() {
            return view;
        }
        let dffs = std::mem::take(&mut view.dffs);
        let q_bits: Vec<NetId> = dffs.iter().map(|f| f.q).collect();
        let d_bits: Vec<NetId> = dffs.iter().map(|f| f.d).collect();
        assert!(view.port("scan_q").is_none(), "duplicate port `scan_q`");
        assert!(view.port("scan_d").is_none(), "duplicate port `scan_d`");
        view.inputs.push(PortBits {
            name: "scan_q".to_owned(),
            bits: q_bits,
        });
        view.outputs.push(PortBits {
            name: "scan_d".to_owned(),
            bits: d_bits,
        });
        view
    }

    /// Rewires every *use* of net `old` to net `new`: gate inputs, flip-flop
    /// data pins, and output-port bits. Drivers of `old` are untouched, as is
    /// the gate at index `skip_gate` (so a freshly inserted key gate can keep
    /// reading the original net). Returns the number of rewired pins.
    ///
    /// This is the primitive behind gate-level key-gate insertion: a key gate
    /// reads `old` and drives `new`, and everything that used to read `old`
    /// now reads `new`.
    pub fn replace_uses(&mut self, old: NetId, new: NetId, skip_gate: Option<usize>) -> usize {
        let mut n = 0;
        for (i, g) in self.gates.iter_mut().enumerate() {
            if Some(i) == skip_gate {
                continue;
            }
            for inp in &mut g.inputs {
                if *inp == old {
                    *inp = new;
                    n += 1;
                }
            }
        }
        for f in &mut self.dffs {
            if f.d == old {
                f.d = new;
                n += 1;
            }
        }
        for p in &mut self.outputs {
            for b in &mut p.bits {
                if *b == old {
                    *b = new;
                    n += 1;
                }
            }
        }
        n
    }

    /// Nets that can influence an output port or a flip-flop — the
    /// transitive fan-in cone of all observation points — as a dense
    /// net-indexed table: entry `n` is `true` when net `n` is in the cone.
    pub fn observable_cone(&self) -> Vec<bool> {
        let driver = self.driver_index();
        let mut seen = vec![false; self.net_count as usize];
        let mut stack: Vec<NetId> = Vec::new();
        for p in &self.outputs {
            stack.extend(p.bits.iter().copied());
        }
        for f in &self.dffs {
            stack.push(f.d);
        }
        while let Some(net) = stack.pop() {
            if std::mem::replace(&mut seen[net.index()], true) {
                continue;
            }
            let gi = driver[net.index()];
            if gi != NO_DRIVER {
                stack.extend(self.gates[gi as usize].inputs.iter().copied());
            }
        }
        seen
    }

    /// Removes every gate whose output cannot influence an output port or a
    /// flip-flop (dead logic), as a synthesis sweep would. Net ids are
    /// preserved; dead nets simply become undriven and unused. Returns the
    /// number of gates removed.
    pub fn sweep(&mut self) -> usize {
        let cone = self.observable_cone();
        let before = self.gates.len();
        self.gates.retain(|g| cone[g.output.index()]);
        before - self.gates.len()
    }

    /// Dense net-indexed driver table: entry `n` holds the index of the gate
    /// driving net `n`, or [`NO_DRIVER`] for nets driven by something other
    /// than a gate (inputs, constants, key bits, dff state) or nothing.
    ///
    /// This replaces the old `HashMap<NetId, usize>` driver map — one
    /// `Vec<u32>` lookup per net instead of a hash probe on every hop of
    /// every traversal.
    pub fn driver_index(&self) -> Vec<u32> {
        let mut m = vec![NO_DRIVER; self.net_count as usize];
        for (i, g) in self.gates.iter().enumerate() {
            m[g.output.index()] = i as u32;
        }
        m
    }

    /// Checks structural sanity: single driver per net, no dangling nets
    /// used as inputs, every output-port / dff-data net driven (constants,
    /// primary inputs, key bits, and dff state nets count as drivers).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        let mut driver = vec![false; self.net_count as usize];
        driver[0] = true;
        driver[1] = true;
        let mut claim = |net: NetId| -> Result<()> {
            let slot = &mut driver[net.index()];
            if *slot {
                return Err(NetlistError::MultipleDrivers(net.0));
            }
            *slot = true;
            Ok(())
        };
        for p in &self.inputs {
            for &b in &p.bits {
                claim(b)?;
            }
        }
        for &b in &self.key_bits {
            claim(b)?;
        }
        for f in &self.dffs {
            claim(f.q)?;
        }
        for g in &self.gates {
            claim(g.output)?;
        }
        for g in &self.gates {
            for &i in &g.inputs {
                if !driver[i.index()] {
                    return Err(NetlistError::Undriven(i.0));
                }
            }
        }
        for f in &self.dffs {
            if !driver[f.d.index()] {
                return Err(NetlistError::Undriven(f.d.0));
            }
        }
        for p in &self.outputs {
            for &b in &p.bits {
                if !driver[b.index()] {
                    return Err(NetlistError::Undriven(b.0));
                }
            }
        }
        Ok(())
    }
}

/// Sentinel in [`Netlist::driver_index`] for "no gate drives this net".
pub const NO_DRIVER: u32 = u32::MAX;

/// CSR-style fanout index: for every net, the indices of the gates reading
/// it, stored as one contiguous `gates` array partitioned by `offsets`.
///
/// Replaces the old `HashMap<NetId, Vec<usize>>` fanout map (one heap
/// allocation per net with fanout plus hashing on every lookup) with two
/// flat arrays and O(1) slicing. Gate indices within a net's slice appear
/// in ascending gate order, matching the insertion order the hash-map
/// version produced.
#[derive(Debug, Clone)]
pub struct FanoutIndex {
    offsets: Vec<u32>,
    gates: Vec<u32>,
}

impl FanoutIndex {
    /// Builds the index with a counting sort over all gate input pins.
    pub fn of(netlist: &Netlist) -> Self {
        let nets = netlist.net_count as usize;
        let mut counts = vec![0u32; nets + 1];
        for g in &netlist.gates {
            for inp in &g.inputs {
                counts[inp.index() + 1] += 1;
            }
        }
        for i in 1..=nets {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut gates = vec![0u32; offsets[nets] as usize];
        for (i, g) in netlist.gates.iter().enumerate() {
            for inp in &g.inputs {
                let at = &mut cursor[inp.index()];
                gates[*at as usize] = i as u32;
                *at += 1;
            }
        }
        Self { offsets, gates }
    }

    /// Indices of the gates reading `net`, in ascending gate order.
    pub fn fanout(&self, net: NetId) -> &[u32] {
        let lo = self.offsets[net.index()] as usize;
        let hi = self.offsets[net.index() + 1] as usize;
        &self.gates[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for k in ALL_GATE_KINDS {
            assert!(seen.insert(k.code()), "duplicate code for {k:?}");
            assert_eq!(GateKind::from_code(k.code()), Some(k));
        }
        assert_eq!(GateKind::Buf.code(), 1);
        assert_eq!(GateKind::from_code(0), None);
        assert_eq!(GateKind::from_code(100), None);
    }

    #[test]
    fn gate_eval_truth_tables() {
        use GateKind::*;
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(And.eval(&[a, b]), a & b);
            assert_eq!(Or.eval(&[a, b]), a | b);
            assert_eq!(Nand.eval(&[a, b]), !(a & b));
            assert_eq!(Nor.eval(&[a, b]), !(a | b));
            assert_eq!(Xor.eval(&[a, b]), a ^ b);
            assert_eq!(Xnor.eval(&[a, b]), !(a ^ b));
        }
        assert!(Not.eval(&[false]));
        assert!(Buf.eval(&[true]));
        assert!(Mux.eval(&[true, true, false]));
        assert!(Mux.eval(&[false, false, true]));
    }

    #[test]
    fn eval_word_lanes_match_scalar_eval() {
        let words = [
            0x0123_4567_89ab_cdefu64,
            0xfeed_face_dead_beef,
            0x5555_5555_5555_5555,
        ];
        for kind in ALL_GATE_KINDS {
            let ins = &words[..kind.arity()];
            let word = kind.eval_word(ins);
            for lane in 0..64 {
                let bits: Vec<bool> = ins.iter().map(|w| w >> lane & 1 == 1).collect();
                assert_eq!(
                    word >> lane & 1 == 1,
                    kind.eval(&bits),
                    "{kind:?} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn ports_and_gates_build_up() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 2);
        assert_eq!(a.len(), 2);
        let g = n.add_gate(GateKind::And, vec![a[0], a[1]]);
        n.add_output_port("y", vec![g]);
        assert_eq!(n.net_count(), 2 + 2 + 1);
        assert!(n.validate().is_ok());
        assert_eq!(n.port("a").unwrap().width(), 2);
        assert!(n.port("zz").is_none());
    }

    #[test]
    fn validate_catches_multiple_drivers() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let y = n.add_gate(GateKind::Not, vec![a]);
        n.add_gate_to(GateKind::Buf, vec![a], y);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn validate_catches_undriven_output() {
        let mut n = Netlist::new("t");
        let dangling = n.add_net();
        n.add_output_port("y", vec![dangling]);
        assert!(matches!(n.validate(), Err(NetlistError::Undriven(_))));
    }

    #[test]
    fn replace_uses_rewires_fanout_not_driver() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let x = n.add_gate(GateKind::Not, vec![a]);
        let y = n.add_gate(GateKind::Buf, vec![x]);
        n.add_output_port("y", vec![y]);
        n.add_output_port("x", vec![x]);
        let fresh = n.add_net();
        let rewired = n.replace_uses(x, fresh, None);
        // The Buf input and the `x` output-port bit moved; the Not driver
        // still drives the old net.
        assert_eq!(rewired, 2);
        assert_eq!(n.gates()[1].inputs[0], fresh);
        assert_eq!(n.outputs()[1].bits[0], fresh);
        assert_eq!(n.gates()[0].output, x);
    }

    #[test]
    fn sweep_removes_dead_gates_only() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 2);
        let live = n.add_gate(GateKind::And, vec![a[0], a[1]]);
        let _dead = n.add_gate(GateKind::Or, vec![a[0], a[1]]);
        n.add_output_port("y", vec![live]);
        assert_eq!(n.sweep(), 1);
        assert_eq!(n.gates().len(), 1);
        assert_eq!(n.gates()[0].output, live);
        assert_eq!(n.sweep(), 0, "sweep is idempotent");
        assert!(n.validate().is_ok());
    }

    #[test]
    fn scan_view_exposes_state_as_ports() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let q = n.add_dff();
        let d = n.add_gate(GateKind::Xor, vec![a, q]);
        n.set_dff_data(q, d).unwrap();
        n.add_output_port("y", vec![q]);
        let view = n.to_scan_view();
        assert!(view.is_combinational());
        assert_eq!(view.port("scan_q").unwrap().bits, vec![q]);
        assert_eq!(view.port("scan_d").unwrap().bits, vec![d]);
        assert!(view.validate().is_ok());
        // Combinational netlists pass through untouched.
        let mut comb = Netlist::new("c");
        let b = comb.add_input_port("b", 1)[0];
        let o = comb.add_gate(GateKind::Not, vec![b]);
        comb.add_output_port("y", vec![o]);
        assert_eq!(comb.to_scan_view(), comb);
    }

    #[test]
    fn observable_cone_follows_dff_data() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let q = n.add_dff();
        let d = n.add_gate(GateKind::Xor, vec![a, q]);
        n.set_dff_data(q, d).unwrap();
        n.add_output_port("y", vec![q]);
        let cone = n.observable_cone();
        assert!(cone[d.index()]);
        assert!(cone[a.index()]);
        assert!(cone[q.index()]);
    }

    #[test]
    fn sweep_removes_dead_cones_but_keeps_dff_feeders() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let b = n.add_input_port("b", 1)[0];
        let live = n.add_gate(GateKind::And, vec![a, b]);
        // Dead two-gate cone: the NOT feeds only the OR, which feeds
        // nothing.
        let d1 = n.add_gate(GateKind::Not, vec![a]);
        let _d2 = n.add_gate(GateKind::Or, vec![d1, b]);
        // A gate feeding only a flip-flop is live.
        let fed = n.add_gate(GateKind::Xor, vec![a, b]);
        let q = n.add_dff();
        n.set_dff_data(q, fed).unwrap();
        n.add_output_port("y", vec![live]);

        assert_eq!(n.sweep(), 2);
        assert!(n.validate().is_ok());
        assert_eq!(n.gates().len(), 2);
        assert!(n.gates().iter().any(|g| g.output == live));
        assert!(n.gates().iter().any(|g| g.output == fed));
    }

    #[test]
    fn dff_data_connects() {
        let mut n = Netlist::new("t");
        let q = n.add_dff();
        let d = n.add_gate(GateKind::Not, vec![q]);
        n.set_dff_data(q, d).unwrap();
        assert_eq!(n.dffs()[0].d, d);
        assert!(n.set_dff_data(d, q).is_err());
        assert!(!n.is_combinational());
    }
}
