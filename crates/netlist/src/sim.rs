//! Gate-level netlist simulator — multi-word bit-parallel.
//!
//! Mirrors the RTL simulator's interface (`set_input` / `set_key` /
//! `settle` / `tick` / output reads) so the lowering can be validated by
//! running both levels side by side on the same stimulus.
//!
//! Every net holds `W` words of 64 independent boolean lanes (`[u64; W]`),
//! and gates evaluate bitwise over all words in one call
//! ([`GateKind::eval_words`]), so one levelized walk propagates up to
//! `64 * W` input vectors — or candidate keys — at once. `W` is a
//! const-generic width, defaulting to 1: `NetlistSimulator<'_>` is exactly
//! the old 64-lane simulator, and the wider instantiations
//! (`NetlistSimulator::<4>` → 256 lanes, `::<8>` → 512 lanes) are the same
//! single evaluation kernel with a longer word loop, which the compiler
//! autovectorizes (`[u64; 4]` ops lower to AVX2, `[u64; 8]` to AVX-512
//! where available). The scalar API is the 1-lane special case:
//! `set_input`/`set_key` broadcast a value into every lane and
//! `output` reads lane 0, which keeps single-vector semantics
//! bit-identical to the old one-`bool`-per-net interpreter. The batch
//! entry points (`set_input_batch`, `set_key_batch`, `output_lane`,
//! `key_sweep_digests`) expose the remaining lanes, and
//! [`NetlistSimulator::drive`] deals a whole stimulus table onto them —
//! the one stimulus loop behind the equivalence checks, gate-level
//! corruptibility and the SAT oracle's batched queries. `settle` always
//! walks every lane.
//!
//! Width-dispatched call sites (equivalence checks, corruptibility sweeps)
//! size `W` to the workload with [`pick_width`]; no setting overrides it.
//!
//! At construction the netlist is compiled once into a flat, topologically
//! ordered gate tape over dense net indices (no per-gate pointer chasing
//! in the hot loop).

use crate::error::{NetlistError, Result};
use crate::ir::{GateKind, NetId, Netlist, PortBits, NO_DRIVER};

/// Number of boolean lanes per 64-bit word — the batch chunk unit. A
/// simulator of width `W` carries `W * LANES` lanes
/// ([`NetlistSimulator::LANES`]).
pub const LANES: usize = 64;

/// Picks the simulator width (in words) for a workload that needs
/// `lanes_needed` boolean lanes: 4 words (256 lanes) once the workload
/// reaches into a fourth 64-lane word (more than 192 lanes), else 1. A
/// walk costs `W` word-ops per gate whether or not its lanes are live, so
/// running 25 samples at width 4 would do 4× the work of width 1 for the
/// same answer. Dispatchers match on the result and instantiate
/// `NetlistSimulator::<4>` or `::<1>` accordingly.
pub fn pick_width(lanes_needed: usize) -> usize {
    if lanes_needed.div_ceil(LANES) >= 4 {
        4
    } else {
        1
    }
}

/// One compiled gate: kind plus dense net indices (unused inputs are 0,
/// which is the constant-0 net and never read for the kind's arity).
#[derive(Debug, Clone, Copy)]
struct GateOp {
    kind: GateKind,
    a: u32,
    b: u32,
    c: u32,
    out: u32,
}

/// A running simulation of one netlist, `64 * W` lanes wide.
///
/// # Examples
///
/// ```
/// use mlrl_netlist::build::NetlistBuilder;
/// use mlrl_netlist::ir::Netlist;
/// use mlrl_netlist::sim::NetlistSimulator;
///
/// let mut b = NetlistBuilder::new(Netlist::new("adder"));
/// let a = b.input_lane("a", 8);
/// let c = b.input_lane("b", 8);
/// let sum = b.add(a, c);
/// b.output_from_lane("y", sum, 8);
/// let n = b.finish();
///
/// let mut sim = NetlistSimulator::new(&n)?;
/// sim.set_input("a", 200)?;
/// sim.set_input("b", 100)?;
/// sim.settle()?;
/// assert_eq!(sim.output("y")?, 300 & 0xff);
/// # Ok::<(), mlrl_netlist::error::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetlistSimulator<'n, const W: usize = 1> {
    netlist: &'n Netlist,
    /// `W` 64-lane words per net.
    values: Vec<[u64; W]>,
    /// `W` 64-lane words per key bit.
    key: Vec<[u64; W]>,
    /// Gates compiled into topological evaluation order.
    tape: Vec<GateOp>,
    /// Flip-flop `(d, q)` net indices.
    dffs: Vec<(u32, u32)>,
    /// Reusable per-tick buffer of captured flip-flop data words.
    dff_next: Vec<[u64; W]>,
}

impl<'n> NetlistSimulator<'n> {
    /// Prepares a width-1 (64-lane) simulator: validates the netlist,
    /// levelizes its gates, and compiles the dense gate tape. Wider
    /// simulators come from [`NetlistSimulator::with_width`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if gates form a cycle and
    /// propagates [`Netlist::validate`] errors.
    pub fn new(netlist: &'n Netlist) -> Result<Self> {
        Self::with_width(netlist)
    }
}

impl<'n, const W: usize> NetlistSimulator<'n, W> {
    /// Total boolean lanes this simulator carries per net.
    pub const LANES: usize = 64 * W;

    /// Prepares a simulator of width `W` words (`64 * W` lanes):
    /// `NetlistSimulator::<4>::with_width(&n)` walks 256 vectors per
    /// settle. [`NetlistSimulator::new`] is the width-1 shorthand.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if gates form a cycle and
    /// propagates [`Netlist::validate`] errors.
    pub fn with_width(netlist: &'n Netlist) -> Result<Self> {
        netlist.validate()?;
        let order = levelize(netlist)?;
        let tape = order
            .into_iter()
            .map(|gi| {
                let g = &netlist.gates()[gi];
                GateOp {
                    kind: g.kind,
                    a: g.inputs[0].index() as u32,
                    b: g.inputs.get(1).map_or(0, |n| n.index() as u32),
                    c: g.inputs.get(2).map_or(0, |n| n.index() as u32),
                    out: g.output.index() as u32,
                }
            })
            .collect();
        let dffs = netlist
            .dffs()
            .iter()
            .map(|f| (f.d.index() as u32, f.q.index() as u32))
            .collect();
        let mut values = vec![[0u64; W]; netlist.net_count()];
        values[NetId::CONST1.index()] = [u64::MAX; W];
        Ok(Self {
            netlist,
            values,
            key: vec![[0; W]; netlist.key_width()],
            tape,
            dffs,
            dff_next: vec![[0; W]; netlist.dffs().len()],
        })
    }

    /// Resets every net (all lanes) to 0, as if freshly constructed. The
    /// installed key and the compiled gate tape are kept — the cheap way to
    /// reuse one simulator across independent trials.
    pub fn reset(&mut self) {
        self.values.fill([0; W]);
        self.values[NetId::CONST1.index()] = [u64::MAX; W];
    }

    /// Sets an input port value in *every* lane (masked to the port width).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if `name` is not an input port.
    pub fn set_input(&mut self, name: &str, value: u64) -> Result<()> {
        let port = find_port(self.netlist.inputs(), name)?;
        for (i, &bit) in port.bits.iter().enumerate() {
            self.values[bit.index()] = broadcast(value >> i & 1 == 1);
        }
        Ok(())
    }

    /// Sets an input port to a different value per lane: lane `l` carries
    /// `values[l]`. Lanes beyond `values.len()` replicate the last entry,
    /// so every lane always holds a well-defined vector.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if `name` is not an input port
    /// and [`NetlistError::LaneOutOfRange`] if `values` is empty or wider
    /// than [`NetlistSimulator::LANES`].
    pub fn set_input_batch(&mut self, name: &str, values: &[u64]) -> Result<()> {
        Self::check_lanes(values.len())?;
        let port = find_port(self.netlist.inputs(), name)?;
        self.write_lanes(port, values.len(), |l| values[l]);
        Ok(())
    }

    /// Loads `value(l)` for lanes `l < count` (1 to `LANES` of them) onto
    /// an input port, replicating the last into the lanes beyond.
    fn write_lanes(&mut self, port: &PortBits, count: usize, value: impl Fn(usize) -> u64) {
        // Pivot lane-major values into bit-major net words one 64-lane
        // word at a time, loading each lane's value exactly once.
        let width = port.bits.len();
        let last = count - 1;
        let mut cols = [0u64; 64];
        for w in 0..W {
            if width >= TRANSPOSE_MIN_WIDTH {
                for (l, col) in cols.iter_mut().enumerate() {
                    *col = value((w * 64 + l).min(last));
                }
                transpose64(&mut cols);
            } else {
                cols[..width].fill(0);
                for l in 0..64 {
                    let v = value((w * 64 + l).min(last));
                    for (i, col) in cols[..width].iter_mut().enumerate() {
                        *col |= (v >> i & 1) << l;
                    }
                }
            }
            for (i, &bit) in port.bits.iter().enumerate() {
                self.values[bit.index()][w] = cols[i];
            }
        }
    }

    /// Installs the key bit vector (index 0 = `K[0]`) in every lane.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::KeyTooShort`] if fewer bits are provided than
    /// the netlist consumes.
    pub fn set_key(&mut self, key: &[bool]) -> Result<()> {
        if key.len() < self.netlist.key_width() {
            return Err(NetlistError::KeyTooShort {
                required: self.netlist.key_width(),
                provided: key.len(),
            });
        }
        self.key.clear();
        self.key.extend(
            key[..self.netlist.key_width()]
                .iter()
                .map(|&b| broadcast(b)),
        );
        Ok(())
    }

    /// Installs a different key per lane — the key-sweep entry point: lane
    /// `l` simulates under `keys[l]`, so one settle evaluates up to
    /// `64 * W` candidate keys. Lanes beyond `keys.len()` replicate the
    /// last key.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::KeyTooShort`] if any key is shorter than the
    /// netlist's key width and [`NetlistError::LaneOutOfRange`] if `keys`
    /// is empty or wider than [`NetlistSimulator::LANES`].
    pub fn set_key_batch(&mut self, keys: &[&[bool]]) -> Result<()> {
        Self::check_lanes(keys.len())?;
        let width = self.netlist.key_width();
        for key in keys {
            if key.len() < width {
                return Err(NetlistError::KeyTooShort {
                    required: width,
                    provided: key.len(),
                });
            }
        }
        self.key.clear();
        self.key.resize(width, [0; W]);
        // Same word-at-a-time transposition as `set_input_batch`: each
        // lane's key is walked once per word.
        let last = keys.len() - 1;
        for w in 0..W {
            for l in 0..64 {
                let key = keys[(w * 64 + l).min(last)];
                for (i, word) in self.key.iter_mut().enumerate() {
                    word[w] |= (key[i] as u64) << l;
                }
            }
        }
        Ok(())
    }

    /// Propagates all combinational logic once (one levelized pass over the
    /// compiled gate tape, all `64 * W` lanes in parallel).
    ///
    /// # Errors
    ///
    /// Infallible for a validated netlist; kept fallible for interface
    /// symmetry with the RTL simulator.
    pub fn settle(&mut self) -> Result<()> {
        mlrl_obs::counter_add("sim.settles", 1);
        mlrl_obs::counter_add("sim.lanes", Self::LANES as u64);
        for (i, &k) in self.netlist.key_bits().iter().enumerate() {
            self.values[k.index()] = self.key.get(i).copied().unwrap_or([0; W]);
        }
        walk_tape(&self.tape, &mut self.values);
        Ok(())
    }

    /// Applies one clock edge: settles, captures every flip-flop's data
    /// input, commits all state atomically, then settles again. Each lane's
    /// state advances independently.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistSimulator::settle`] errors.
    pub fn tick(&mut self) -> Result<()> {
        self.settle()?;
        for (i, &(d, _)) in self.dffs.iter().enumerate() {
            self.dff_next[i] = self.values[d as usize];
        }
        for (i, &(_, q)) in self.dffs.iter().enumerate() {
            self.values[q as usize] = self.dff_next[i];
        }
        self.settle()
    }

    /// Current value of an output port in lane 0 as an integer (LSB-first
    /// bits).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if `name` is not an output port.
    pub fn output(&self, name: &str) -> Result<u64> {
        self.output_lane(name, 0)
    }

    /// Current value of an output port in the given lane.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if `name` is not an output
    /// port and [`NetlistError::LaneOutOfRange`] if
    /// `lane >= NetlistSimulator::LANES`.
    pub fn output_lane(&self, name: &str, lane: usize) -> Result<u64> {
        if lane >= Self::LANES {
            return Err(NetlistError::LaneOutOfRange {
                requested: lane,
                lanes: Self::LANES,
            });
        }
        Ok(self.read_lane(find_port(self.netlist.outputs(), name)?, lane))
    }

    /// A port's value in one lane (LSB-first bits).
    fn read_lane(&self, port: &PortBits, lane: usize) -> u64 {
        let mut v = 0u64;
        for (i, &bit) in port.bits.iter().enumerate() {
            v |= (self.values[bit.index()][lane / 64] >> (lane % 64) & 1) << i;
        }
        v
    }

    /// Runs a whole stimulus table and returns what the `outputs` ports
    /// read after each row, row-major (`outputs.len()` values per row).
    ///
    /// Each row of `stimulus` holds one value per `inputs` port. Rows are
    /// dealt to the lanes, [`NetlistSimulator::LANES`] per step; each step
    /// sets the inputs, then settles (`ticks == 0`) or applies `ticks`
    /// clock edges, then reads every row's outputs. State is never reset,
    /// so with `ticks > 0` lane `l` carries its flip-flops into its next
    /// row; a sequential trace is driven one row per call.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if an `inputs` name is not an
    /// input port or an `outputs` name is not an output port.
    ///
    /// # Panics
    ///
    /// Panics if a row holds fewer values than there are `inputs`.
    pub fn drive<R: AsRef<[u64]>>(
        &mut self,
        inputs: &[impl AsRef<str>],
        stimulus: &[R],
        outputs: &[impl AsRef<str>],
        ticks: usize,
    ) -> Result<Vec<u64>> {
        let netlist = self.netlist;
        let ins = inputs
            .iter()
            .map(|n| find_port(netlist.inputs(), n.as_ref()))
            .collect::<Result<Vec<_>>>()?;
        let outs = outputs
            .iter()
            .map(|n| find_port(netlist.outputs(), n.as_ref()))
            .collect::<Result<Vec<_>>>()?;
        let mut read = Vec::with_capacity(stimulus.len() * outs.len());
        for step in stimulus.chunks(Self::LANES) {
            for (i, port) in ins.iter().enumerate() {
                self.write_lanes(port, step.len(), |l| step[l].as_ref()[i]);
            }
            if ticks == 0 {
                self.settle()?;
            }
            for _ in 0..ticks {
                self.tick()?;
            }
            for lane in 0..step.len() {
                read.extend(outs.iter().map(|p| self.read_lane(p, lane)));
            }
        }
        Ok(read)
    }

    /// Digest of every output-port value in lane 0, comparable with the
    /// RTL simulator's `outputs_digest` when the two port lists match in
    /// order and value.
    pub fn outputs_digest(&self) -> Result<u64> {
        self.outputs_digest_lane(0)
    }

    /// Digest of every output-port value in one lane: an FNV-style fold
    /// (xor the port value, multiply by the FNV prime) over the output
    /// ports in port order, so swapping two ports' values changes it.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::LaneOutOfRange`] if
    /// `lane >= NetlistSimulator::LANES`.
    pub fn outputs_digest_lane(&self, lane: usize) -> Result<u64> {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for p in self.netlist.outputs() {
            digest ^= self.output_lane(&p.name, lane)?;
            digest = digest.wrapping_mul(0x100_0000_01b3);
        }
        Ok(digest)
    }

    /// Output digests of the first `lanes` lanes in one pass — equal to
    /// calling [`NetlistSimulator::outputs_digest_lane`] per lane, but the
    /// ports are walked once (no per-lane name lookups) and each net word
    /// is loaded once, so reading all `64 * W` digests costs about as much
    /// as reading one.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::LaneOutOfRange`] if `lanes` is zero or
    /// exceeds [`NetlistSimulator::LANES`].
    pub fn outputs_digest_batch(&self, lanes: usize) -> Result<Vec<u64>> {
        Self::check_lanes(lanes)?;
        let mut digests = vec![0xcbf2_9ce4_8422_2325u64; lanes];
        let mut rows = [0u64; 64];
        for p in self.netlist.outputs() {
            let width = p.bits.len();
            for w in 0..W {
                let base = w * 64;
                if base >= lanes {
                    break;
                }
                let block = lanes.min(base + 64) - base;
                if width >= TRANSPOSE_MIN_WIDTH {
                    rows.fill(0);
                    for (i, &bit) in p.bits.iter().enumerate() {
                        rows[i] = self.values[bit.index()][w];
                    }
                    transpose64(&mut rows);
                } else {
                    rows[..block].fill(0);
                    for (i, &bit) in p.bits.iter().enumerate() {
                        let word = self.values[bit.index()][w];
                        for (l, v) in rows[..block].iter_mut().enumerate() {
                            *v |= (word >> l & 1) << i;
                        }
                    }
                }
                for (d, &v) in digests[base..base + block].iter_mut().zip(&rows) {
                    *d ^= v;
                    *d = d.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        Ok(digests)
    }

    /// Key-sweep convenience: installs `keys` across the lanes, settles
    /// once, and returns one output digest per key — up to `64 * W`
    /// candidate keys evaluated in a single topological walk. Inputs keep
    /// whatever per-lane values were last installed.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistSimulator::set_key_batch`] errors.
    pub fn key_sweep_digests(&mut self, keys: &[&[bool]]) -> Result<Vec<u64>> {
        self.set_key_batch(keys)?;
        self.settle()?;
        self.outputs_digest_batch(keys.len())
    }

    /// Forces a flip-flop state value by port-of-origin name lookup is not
    /// possible at gate level; sets the state net directly instead (every
    /// lane).
    pub fn set_state_net(&mut self, q: NetId, value: bool) {
        self.values[q.index()] = broadcast(value);
    }

    /// Rejects empty or over-wide batch slices.
    fn check_lanes(n: usize) -> Result<()> {
        if n == 0 || n > Self::LANES {
            return Err(NetlistError::LaneOutOfRange {
                requested: n,
                lanes: Self::LANES,
            });
        }
        Ok(())
    }
}

/// The port called `name` among `ports`.
fn find_port<'p>(ports: &'p [PortBits], name: &str) -> Result<&'p PortBits> {
    ports
        .iter()
        .find(|p| p.name == name)
        .ok_or_else(|| NetlistError::UnknownPort(name.to_owned()))
}

/// Expands one boolean into all `64 * W` lanes.
fn broadcast<const W: usize>(b: bool) -> [u64; W] {
    [if b { u64::MAX } else { 0 }; W]
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight fig. 7-6): after
/// the call, bit `c` of `a[r]` is bit `r` of the old `a[c]`. This is the
/// pivot between the two layouts the batch API straddles — lane-major
/// (one `u64` value per lane) and bit-major (one 64-lane word per port
/// bit) — at ~6 ops per word instead of one shift/or per bit per lane.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m = 0x0000_0000_ffff_ffffu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Port widths at or above this use [`transpose64`] in the batch entry
/// points; narrower ports stay on the direct bit loop, which does less
/// work than a full 64×64 transpose when only a few rows are live.
const TRANSPOSE_MIN_WIDTH: usize = 8;

/// One levelized pass over the compiled gate tape.
///
/// Dispatches once per walk to the widest SIMD level the CPU offers, so
/// the per-gate `[u64; W]` lane loops inside [`GateKind::eval_words`]
/// compile to AVX2 (4 lanes/op) or AVX-512 (8 lanes/op) vector code
/// instead of the x86-64 baseline — no global target flags, no non-std
/// dependency, and bit-identical results on every path (the kernels are
/// the same code monomorphized under wider features). Width 1 stays on
/// the scalar body: single-`u64` words gain nothing from vector units.
#[allow(unsafe_code)]
fn walk_tape<const W: usize>(tape: &[GateOp], values: &mut [[u64; W]]) {
    #[cfg(target_arch = "x86_64")]
    {
        if W >= 8 && is_x86_feature_detected!("avx512f") {
            // SAFETY: guarded by the avx512f runtime check above.
            return unsafe { walk_tape_avx512(tape, values) };
        }
        if W >= 4 && is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the avx2 runtime check above.
            return unsafe { walk_tape_avx2(tape, values) };
        }
    }
    walk_tape_body(tape, values);
}

/// [`walk_tape_body`] compiled with AVX-512 enabled: `[u64; 8]` lane
/// loops become single zmm operations. Only reachable behind the runtime
/// feature check in [`walk_tape`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn walk_tape_avx512<const W: usize>(tape: &[GateOp], values: &mut [[u64; W]]) {
    walk_tape_body(tape, values);
}

/// [`walk_tape_body`] compiled with AVX2 enabled: `[u64; 4]` lane loops
/// become single ymm operations. Only reachable behind the runtime
/// feature check in [`walk_tape`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn walk_tape_avx2<const W: usize>(tape: &[GateOp], values: &mut [[u64; W]]) {
    walk_tape_body(tape, values);
}

#[inline(always)]
fn walk_tape_body<const W: usize>(tape: &[GateOp], values: &mut [[u64; W]]) {
    for op in tape {
        // Unused operand slots index the constant-0 net: loading them is
        // free and keeps a single shared eval_words kernel.
        let ins = [
            values[op.a as usize],
            values[op.b as usize],
            values[op.c as usize],
        ];
        values[op.out as usize] = op.kind.eval_words(&ins);
    }
}

/// Topologically orders gate indices so every gate is evaluated after its
/// combinational inputs. Flip-flop state nets are sources.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the gates form a cycle.
pub fn levelize(netlist: &Netlist) -> Result<Vec<usize>> {
    let driver = netlist.driver_index();
    let n = netlist.gates().len();
    let mut order = Vec::with_capacity(n);
    // 0 = unvisited, 1 = in progress, 2 = done
    let mut state = vec![0u8; n];
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, bool)> = vec![(start, false)];
        while let Some((i, children_done)) = stack.pop() {
            if children_done {
                state[i] = 2;
                order.push(i);
                continue;
            }
            if state[i] == 2 {
                continue;
            }
            if state[i] == 1 {
                return Err(NetlistError::CombinationalCycle(
                    netlist.gates()[i].output.0,
                ));
            }
            state[i] = 1;
            stack.push((i, true));
            for &inp in &netlist.gates()[i].inputs {
                let j = driver[inp.index()];
                if j != NO_DRIVER {
                    match state[j as usize] {
                        0 => stack.push((j as usize, false)),
                        1 => {
                            return Err(NetlistError::CombinationalCycle(inp.0));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GateKind;

    #[test]
    fn evaluates_simple_logic() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let b = n.add_input_port("b", 1)[0];
        let x = n.add_gate(GateKind::Xor, vec![a, b]);
        n.add_output_port("y", vec![x]);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        for (av, bv) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            sim.set_input("a", av).unwrap();
            sim.set_input("b", bv).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.output("y").unwrap(), av ^ bv);
        }
    }

    #[test]
    fn gates_evaluate_out_of_insertion_order() {
        // Insert the consumer gate before its producer.
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let mid = n.add_net();
        let out = n.add_net();
        n.add_gate_to(GateKind::Not, vec![mid], out); // consumer first
        n.add_gate_to(GateKind::Not, vec![a], mid); // producer second
        n.add_output_port("y", vec![out]);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        sim.set_input("a", 1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("y").unwrap(), 1);
    }

    #[test]
    fn cycles_are_detected() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let x = n.add_net();
        let y = n.add_net();
        n.add_gate_to(GateKind::And, vec![a, y], x);
        n.add_gate_to(GateKind::Buf, vec![x], y);
        n.add_output_port("y", vec![y]);
        assert!(matches!(
            NetlistSimulator::new(&n),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn key_bits_drive_logic() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let (_, k) = n.add_key_bit();
        let x = n.add_gate(GateKind::Xor, vec![a, k]);
        n.add_output_port("y", vec![x]);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        sim.set_input("a", 1).unwrap();
        sim.set_key(&[true]).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("y").unwrap(), 0);
        sim.set_key(&[false]).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("y").unwrap(), 1);
        assert!(matches!(
            NetlistSimulator::new(&n).unwrap().set_key(&[]),
            Err(NetlistError::KeyTooShort { .. })
        ));
    }

    #[test]
    fn dff_ticks_with_two_phase_commit() {
        // Two dffs swapping values: classic nonblocking-assignment check.
        let mut n = Netlist::new("t");
        let q0 = n.add_dff();
        let q1 = n.add_dff();
        n.set_dff_data(q0, q1).unwrap();
        n.set_dff_data(q1, q0).unwrap();
        n.add_output_port("a", vec![q0]);
        n.add_output_port("b", vec![q1]);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        sim.set_state_net(q0, true);
        sim.set_state_net(q1, false);
        sim.tick().unwrap();
        assert_eq!(sim.output("a").unwrap(), 0);
        assert_eq!(sim.output("b").unwrap(), 1);
        sim.tick().unwrap();
        assert_eq!(sim.output("a").unwrap(), 1);
        assert_eq!(sim.output("b").unwrap(), 0);
    }

    #[test]
    fn outputs_digest_changes_with_outputs() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 4);
        n.add_output_port("y", a.clone());
        let mut sim = NetlistSimulator::new(&n).unwrap();
        sim.set_input("a", 3).unwrap();
        sim.settle().unwrap();
        let d1 = sim.outputs_digest().unwrap();
        sim.set_input("a", 9).unwrap();
        sim.settle().unwrap();
        let d2 = sim.outputs_digest().unwrap();
        assert_ne!(d1, d2);
    }

    #[test]
    fn batched_inputs_evaluate_one_vector_per_lane() {
        // y = a + b over 8 bits; 64 different (a, b) pairs in one settle.
        let mut b = crate::build::NetlistBuilder::new(Netlist::new("t"));
        let a = b.input_lane("a", 8);
        let c = b.input_lane("b", 8);
        let s = b.add(a, c);
        b.output_from_lane("y", s, 8);
        let n = b.finish();
        let mut sim = NetlistSimulator::new(&n).unwrap();
        let avs: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(37) & 0xff).collect();
        let bvs: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(91) & 0xff).collect();
        sim.set_input_batch("a", &avs).unwrap();
        sim.set_input_batch("b", &bvs).unwrap();
        sim.settle().unwrap();
        for lane in 0..64 {
            assert_eq!(
                sim.output_lane("y", lane).unwrap(),
                (avs[lane] + bvs[lane]) & 0xff,
                "lane {lane}"
            );
        }
        // Lane 0 of the batch is exactly the scalar read.
        assert_eq!(sim.output("y").unwrap(), (avs[0] + bvs[0]) & 0xff);
    }

    #[test]
    fn wide_sim_carries_one_vector_per_lane_past_64() {
        // The same adder at W=4: 256 distinct pairs in one settle, and the
        // lanes past the first word must agree with per-lane expectations.
        let mut b = crate::build::NetlistBuilder::new(Netlist::new("t"));
        let a = b.input_lane("a", 8);
        let c = b.input_lane("b", 8);
        let s = b.add(a, c);
        b.output_from_lane("y", s, 8);
        let n = b.finish();
        let mut sim = NetlistSimulator::<4>::with_width(&n).unwrap();
        assert_eq!(NetlistSimulator::<4>::LANES, 256);
        let avs: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(37) & 0xff).collect();
        let bvs: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(91) & 0xff).collect();
        sim.set_input_batch("a", &avs).unwrap();
        sim.set_input_batch("b", &bvs).unwrap();
        sim.settle().unwrap();
        for lane in 0..256 {
            assert_eq!(
                sim.output_lane("y", lane).unwrap(),
                (avs[lane] + bvs[lane]) & 0xff,
                "lane {lane}"
            );
        }
        assert!(sim.output_lane("y", 256).is_err());
    }

    #[test]
    fn wide_key_sweep_matches_scalar_digests_past_64() {
        // 7-bit key space swept in one W=4 walk: 128 candidate keys, each
        // lane's digest must equal an independent scalar run.
        let mut b = crate::build::NetlistBuilder::new(Netlist::new("t"));
        let a = b.input_lane("a", 8);
        let c = b.input_lane("b", 8);
        let s = b.mul(a, c);
        b.output_from_lane("y", s, 8);
        let mut n = b.finish();
        n.sweep();
        let _key = crate::lock::xor_xnor_lock(&mut n, 7, 99).unwrap();
        let keys: Vec<Vec<bool>> = (0..128u32)
            .map(|i| (0..7).map(|b| i >> b & 1 == 1).collect())
            .collect();
        let refs: Vec<&[bool]> = keys.iter().map(|k| k.as_slice()).collect();
        let mut wide = NetlistSimulator::<4>::with_width(&n).unwrap();
        wide.set_input("a", 173).unwrap();
        wide.set_input("b", 91).unwrap();
        let digests = wide.key_sweep_digests(&refs).unwrap();
        assert_eq!(digests.len(), 128);
        for (key, digest) in keys.iter().zip(&digests) {
            let mut scalar = NetlistSimulator::new(&n).unwrap();
            scalar.set_input("a", 173).unwrap();
            scalar.set_input("b", 91).unwrap();
            scalar.set_key(key).unwrap();
            scalar.settle().unwrap();
            assert_eq!(scalar.outputs_digest().unwrap(), *digest);
        }
    }

    #[test]
    fn transpose64_matches_naive_bit_transpose() {
        let mut a = [0u64; 64];
        let mut x = 0x0123_4567_89ab_cdefu64;
        for v in a.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        let orig = a;
        transpose64(&mut a);
        for (r, &row) in a.iter().enumerate() {
            for (c, &col) in orig.iter().enumerate() {
                assert_eq!(row >> c & 1, col >> r & 1, "({r},{c})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "transpose is an involution");
    }

    #[test]
    fn batch_digests_equal_per_lane_digests() {
        let mut b = crate::build::NetlistBuilder::new(Netlist::new("t"));
        let a = b.input_lane("a", 8);
        let c = b.input_lane("b", 8);
        let s = b.mul(a, c);
        b.output_from_lane("y", s, 8);
        let n = b.finish();
        let mut sim = NetlistSimulator::<4>::with_width(&n).unwrap();
        let avs: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(37) & 0xff).collect();
        let bvs: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(91) & 0xff).collect();
        sim.set_input_batch("a", &avs).unwrap();
        sim.set_input_batch("b", &bvs).unwrap();
        sim.settle().unwrap();
        for lanes in [1, 63, 64, 65, 200, 256] {
            let batch = sim.outputs_digest_batch(lanes).unwrap();
            assert_eq!(batch.len(), lanes);
            for (lane, d) in batch.iter().enumerate() {
                assert_eq!(*d, sim.outputs_digest_lane(lane).unwrap(), "lane {lane}");
            }
        }
        assert!(sim.outputs_digest_batch(0).is_err());
        assert!(sim.outputs_digest_batch(257).is_err());
    }

    #[test]
    fn short_batches_replicate_the_last_lane() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 2);
        n.add_output_port("y", a.clone());
        let mut sim = NetlistSimulator::new(&n).unwrap();
        sim.set_input_batch("a", &[1, 2]).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output_lane("y", 0).unwrap(), 1);
        for lane in 1..LANES {
            assert_eq!(sim.output_lane("y", lane).unwrap(), 2, "lane {lane}");
        }
    }

    #[test]
    fn key_sweep_evaluates_one_key_per_lane() {
        // y = a ^ k0, z = a ^ !k1: four candidate keys in one walk.
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let (_, k0) = n.add_key_bit();
        let (_, k1) = n.add_key_bit();
        let y = n.add_gate(GateKind::Xor, vec![a, k0]);
        let nk1 = n.add_gate(GateKind::Not, vec![k1]);
        let z = n.add_gate(GateKind::Xor, vec![a, nk1]);
        n.add_output_port("y", vec![y]);
        n.add_output_port("z", vec![z]);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        sim.set_input("a", 1).unwrap();
        let keys: Vec<Vec<bool>> = (0..4).map(|i| vec![i & 1 == 1, i >> 1 & 1 == 1]).collect();
        let refs: Vec<&[bool]> = keys.iter().map(|k| k.as_slice()).collect();
        let digests = sim.key_sweep_digests(&refs).unwrap();
        assert_eq!(digests.len(), 4);
        // Sweep digests must equal per-key scalar digests.
        for (key, digest) in keys.iter().zip(&digests) {
            let mut scalar = NetlistSimulator::new(&n).unwrap();
            scalar.set_input("a", 1).unwrap();
            scalar.set_key(key).unwrap();
            scalar.settle().unwrap();
            assert_eq!(scalar.outputs_digest().unwrap(), *digest, "key {key:?}");
        }
    }

    #[test]
    fn batched_lanes_tick_independently() {
        // A 1-bit accumulator q ^= a: lanes with a=1 toggle, lanes with
        // a=0 hold.
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let q = n.add_dff();
        let d = n.add_gate(GateKind::Xor, vec![a, q]);
        n.set_dff_data(q, d).unwrap();
        n.add_output_port("y", vec![q]);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        let avs: Vec<u64> = (0..64u64).map(|i| i & 1).collect();
        sim.set_input_batch("a", &avs).unwrap();
        sim.tick().unwrap();
        sim.tick().unwrap();
        sim.tick().unwrap();
        for (lane, av) in avs.iter().enumerate() {
            assert_eq!(
                sim.output_lane("y", lane).unwrap(),
                *av, // 3 toggles = 1 for a=1, 0 for a=0
                "lane {lane}"
            );
        }
    }

    #[test]
    fn empty_and_oversized_batches_are_rejected() {
        let mut n = Netlist::new("t");
        n.add_input_port("a", 1);
        let c = NetId::CONST1;
        n.add_output_port("y", vec![c]);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        assert!(sim.set_input_batch("a", &[]).is_err());
        assert!(sim.set_input_batch("a", &vec![0; LANES + 1]).is_err());
        assert!(sim.output_lane("y", LANES).is_err());
        // The W=4 instantiation accepts what W=1 rejects, up to its cap.
        let mut wide = NetlistSimulator::<4>::with_width(&n).unwrap();
        assert!(wide.set_input_batch("a", &vec![0; LANES + 1]).is_ok());
        assert!(wide.set_input_batch("a", &vec![0; 4 * LANES]).is_ok());
        assert!(wide.set_input_batch("a", &vec![0; 4 * LANES + 1]).is_err());
    }
}
