//! Tseitin encoding of gate-level netlists into CNF.
//!
//! Every net maps to a literal; every gate contributes the standard clause
//! set relating its output literal to its input literals. NOT and BUF
//! gates reuse their input literal (complemented for NOT), so they cost no
//! variable.
//!
//! A [`CircuitEncoder`] validates and levelizes a netlist once, then
//! stamps out as many circuit copies as a construction needs: the SAT
//! attack builds its miter from two [`CircuitEncoder::copy`] calls that
//! share input literals, and every I/O constraint from
//! [`CircuitEncoder::constrain`].

use mlrl_netlist::ir::{GateKind, NetId, Netlist};
use mlrl_netlist::sim::levelize;
use mlrl_netlist::NetlistError;

use crate::cnf::{CnfBuilder, Lit};

/// A combinational netlist compiled for repeated Tseitin encoding.
///
/// # Examples
///
/// ```
/// use mlrl_netlist::build::NetlistBuilder;
/// use mlrl_netlist::ir::Netlist;
/// use mlrl_sat::cnf::CnfBuilder;
/// use mlrl_sat::solver::Solver;
/// use mlrl_sat::tseitin::CircuitEncoder;
///
/// let mut nb = NetlistBuilder::new(Netlist::new("t"));
/// let a = nb.input_lane("a", 4);
/// let b = nb.input_lane("b", 4);
/// let s = nb.add(a, b);
/// nb.output_from_lane("y", s, 4);
/// let mut netlist = nb.finish();
/// netlist.sweep();
///
/// let encoder = CircuitEncoder::new(&netlist)?;
/// let mut cnf = CnfBuilder::new();
/// let inputs: Vec<_> = (0..8).map(|_| cnf.new_var().pos()).collect();
/// let lits = encoder.copy(&mut cnf, &inputs, &[]);
/// // Ask the solver: can a + b == 15 with a == 9?
/// for (i, lit) in inputs[..4].iter().enumerate() {
///     cnf.add_clause(&[if 9 >> i & 1 == 1 { *lit } else { lit.inverted() }]);
/// }
/// for bit in &netlist.port("y").unwrap().bits {
///     cnf.add_clause(&[lits[bit.index()]]); // all ones = 15
/// }
/// let result = Solver::from_builder(&cnf).solve();
/// assert!(result.is_sat()); // b = 6
/// # Ok::<(), mlrl_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CircuitEncoder<'n> {
    netlist: &'n Netlist,
    /// Gate indices in topological order.
    order: Vec<usize>,
}

impl<'n> CircuitEncoder<'n> {
    /// Validates and levelizes `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Sequential`] if the netlist contains
    /// flip-flops, and propagates [`Netlist::validate`] and cycle errors.
    pub fn new(netlist: &'n Netlist) -> Result<Self, NetlistError> {
        if !netlist.is_combinational() {
            return Err(NetlistError::Sequential);
        }
        netlist.validate()?;
        Ok(Self {
            netlist,
            order: levelize(netlist)?,
        })
    }

    /// Encodes one copy of the circuit into `builder` and returns its dense
    /// net-to-literal table (indexed by [`NetId::index`]; nets nothing
    /// drives or reads map to false).
    ///
    /// `inputs` carries the literals of every input bit in port order,
    /// `keys` those of the key bits in [`Netlist::key_bits`] order. Gate
    /// outputs get fresh variables in topological order, after the
    /// builder's constant-true variable.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `keys` has the wrong length.
    pub fn copy(&self, builder: &mut CnfBuilder, inputs: &[Lit], keys: &[Lit]) -> Vec<Lit> {
        let n = self.netlist;
        let input_bits = n.inputs().iter().flat_map(|p| &p.bits);
        assert_eq!(inputs.len(), input_bits.clone().count(), "input literals");
        assert_eq!(keys.len(), n.key_width(), "key literals");
        let t = builder.true_lit();
        let mut lits = vec![t.inverted(); n.net_count()];
        lits[NetId::CONST1.index()] = t;
        for (net, &lit) in input_bits
            .chain(n.key_bits())
            .zip(inputs.iter().chain(keys))
        {
            lits[net.index()] = lit;
        }
        for &gi in &self.order {
            let gate = &n.gates()[gi];
            let ins = |i: usize| lits[gate.inputs[i].index()];
            let out = match gate.kind {
                GateKind::Buf => ins(0),
                GateKind::Not => ins(0).inverted(),
                kind => {
                    let o = builder.new_var().pos();
                    match kind {
                        GateKind::And => builder.define_and(o, ins(0), ins(1)),
                        GateKind::Or => builder.define_or(o, ins(0), ins(1)),
                        GateKind::Nand => builder.define_and(o.inverted(), ins(0), ins(1)),
                        GateKind::Nor => builder.define_or(o.inverted(), ins(0), ins(1)),
                        GateKind::Xor => builder.define_xor(o, ins(0), ins(1)),
                        GateKind::Xnor => builder.define_xor(o.inverted(), ins(0), ins(1)),
                        GateKind::Mux => builder.define_mux(o, ins(0), ins(1), ins(2)),
                        GateKind::Buf | GateKind::Not => unreachable!("matched above"),
                    }
                    o
                }
            };
            lits[gate.output.index()] = out;
        }
        lits
    }

    /// Encodes one copy with its inputs fixed to `stimulus` and its key
    /// bits bound to `keys`, and pins every port named in `response` to its
    /// value, one unit clause per bit in response order.
    ///
    /// # Panics
    ///
    /// Panics if `stimulus` lacks an input port, if `response` names an
    /// unknown port, or if `keys` has the wrong length.
    pub fn constrain(
        &self,
        builder: &mut CnfBuilder,
        keys: &[Lit],
        stimulus: &[(String, u64)],
        response: &[(String, u64)],
    ) {
        let t = builder.true_lit();
        let constant = |value: u64, i: usize| if value >> i & 1 == 1 { t } else { t.inverted() };
        let inputs: Vec<Lit> = self
            .netlist
            .inputs()
            .iter()
            .flat_map(|p| {
                let value = stimulus
                    .iter()
                    .find(|(name, _)| *name == p.name)
                    .unwrap_or_else(|| panic!("stimulus lacks input `{}`", p.name))
                    .1;
                (0..p.width()).map(move |i| constant(value, i))
            })
            .collect();
        let lits = self.copy(builder, &inputs, keys);
        for (name, value) in response {
            let port = self
                .netlist
                .port(name)
                .unwrap_or_else(|| panic!("unknown port `{name}`"));
            for (i, bit) in port.bits.iter().enumerate() {
                let lit = lits[bit.index()];
                builder.add_clause(&[if value >> i & 1 == 1 {
                    lit
                } else {
                    lit.inverted()
                }]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_netlist::build::NetlistBuilder;
    use mlrl_netlist::lock::{mux_lock, xor_xnor_lock};
    use mlrl_netlist::sim::NetlistSimulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::solver::Solver;

    fn sample() -> Netlist {
        let mut nb = NetlistBuilder::new(Netlist::new("t"));
        let a = nb.input_lane("a", 6);
        let b = nb.input_lane("b", 6);
        let s = nb.add(a, b);
        let m = nb.mul(s, a);
        let x = nb.xor_lane(m, b);
        nb.output_from_lane("y", x, 6);
        let mut n = nb.finish();
        n.sweep();
        n
    }

    /// Free variables for every input bit, in port order.
    fn free_inputs(n: &Netlist, cnf: &mut CnfBuilder) -> Vec<Lit> {
        let width: usize = n.inputs().iter().map(|p| p.width()).sum();
        (0..width).map(|_| cnf.new_var().pos()).collect()
    }

    fn port_lits(n: &Netlist, lits: &[Lit], port: &str) -> Vec<Lit> {
        n.port(port)
            .unwrap()
            .bits
            .iter()
            .map(|b| lits[b.index()])
            .collect()
    }

    fn read(model: &[bool], lits: &[Lit]) -> u64 {
        let mut v = 0;
        for (i, lit) in lits.iter().enumerate() {
            if lit.value_under(model[lit.var().index()]) {
                v |= 1 << i;
            }
        }
        v
    }

    #[test]
    fn encoding_agrees_with_simulation() {
        let n = sample();
        let encoder = CircuitEncoder::new(&n).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        for _ in 0..25 {
            let av = rng.gen_range(0u64..64);
            let bv = rng.gen_range(0u64..64);
            sim.set_input("a", av).unwrap();
            sim.set_input("b", bv).unwrap();
            sim.settle().unwrap();
            let want = sim.output("y").unwrap();

            let mut cnf = CnfBuilder::new();
            let t = cnf.true_lit();
            let inputs: Vec<Lit> = n
                .inputs()
                .iter()
                .flat_map(|p| {
                    let v = if p.name == "a" { av } else { bv };
                    (0..p.width()).map(move |i| if v >> i & 1 == 1 { t } else { t.inverted() })
                })
                .collect();
            let lits = encoder.copy(&mut cnf, &inputs, &[]);
            let result = Solver::from_builder(&cnf).solve();
            let model = result.model().expect("circuit CNF is satisfiable");
            assert_eq!(
                read(model, &port_lits(&n, &lits, "y")),
                want,
                "a={av} b={bv}"
            );
        }
    }

    #[test]
    fn constraining_outputs_solves_for_inputs() {
        // Invert the function: find inputs mapping to a chosen output.
        let n = sample();
        let mut cnf = CnfBuilder::new();
        let inputs = free_inputs(&n, &mut cnf);
        let lits = CircuitEncoder::new(&n)
            .unwrap()
            .copy(&mut cnf, &inputs, &[]);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        sim.set_input("a", 13).unwrap();
        sim.set_input("b", 7).unwrap();
        sim.settle().unwrap();
        let target = sim.output("y").unwrap();
        for (i, lit) in port_lits(&n, &lits, "y").iter().enumerate() {
            cnf.add_clause(&[if target >> i & 1 == 1 {
                *lit
            } else {
                lit.inverted()
            }]);
        }
        let result = Solver::from_builder(&cnf).solve();
        let model = result.model().expect("preimage exists");
        // Decode and verify the found preimage through the simulator.
        sim.set_input("a", read(model, &port_lits(&n, &lits, "a")))
            .unwrap();
        sim.set_input("b", read(model, &port_lits(&n, &lits, "b")))
            .unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("y").unwrap(), target);
    }

    #[test]
    fn sequential_netlists_are_rejected() {
        let mut n = Netlist::new("t");
        let q = n.add_dff();
        let d = n.add_gate(GateKind::Not, vec![q]);
        n.set_dff_data(q, d).unwrap();
        n.add_output_port("y", vec![q]);
        assert!(matches!(
            CircuitEncoder::new(&n),
            Err(NetlistError::Sequential)
        ));
    }

    #[test]
    fn key_bits_become_free_variables() {
        let mut nb = NetlistBuilder::new(Netlist::new("t"));
        let a = nb.input_lane("a", 1);
        let k = nb.key_bit();
        let o = nb.xor(a.bit(0), k);
        nb.output_from_lane("y", nb_bit_lane(o), 1);
        let n = nb.finish();
        let mut cnf = CnfBuilder::new();
        let inputs = free_inputs(&n, &mut cnf);
        let keys = vec![cnf.new_var().pos()];
        let lits = CircuitEncoder::new(&n)
            .unwrap()
            .copy(&mut cnf, &inputs, &keys);
        // Force a=1, y=0: key must be 1.
        cnf.add_clause(&[port_lits(&n, &lits, "a")[0]]);
        cnf.add_clause(&[port_lits(&n, &lits, "y")[0].inverted()]);
        let result = Solver::from_builder(&cnf).solve();
        let model = result.model().unwrap();
        let k_lit = lits[n.key_bits()[0].index()];
        assert_eq!(k_lit, keys[0]);
        assert!(k_lit.value_under(model[k_lit.var().index()]));
    }

    #[test]
    fn constrain_admits_the_correct_key_and_no_flipped_response() {
        // Under the correct key, the simulator's response is the only one a
        // constrained copy admits: flipping any single response bit makes
        // the formula UNSAT.
        let mut xor_locked = sample();
        let xor_key = xor_xnor_lock(&mut xor_locked, 8, 3).unwrap();
        let mut mux_locked = sample();
        let mux_key = mux_lock(&mut mux_locked, 8, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for (n, key) in [(&xor_locked, xor_key.bits()), (&mux_locked, mux_key.bits())] {
            let encoder = CircuitEncoder::new(n).unwrap();
            let mut sim = NetlistSimulator::new(n).unwrap();
            sim.set_key(key).unwrap();
            let solve = |response: &[(String, u64)], stimulus: &[(String, u64)]| {
                let mut cnf = CnfBuilder::new();
                let t = cnf.true_lit();
                let keys: Vec<Lit> = key
                    .iter()
                    .map(|&b| if b { t } else { t.inverted() })
                    .collect();
                encoder.constrain(&mut cnf, &keys, stimulus, response);
                Solver::from_builder(&cnf).solve().is_sat()
            };
            for _ in 0..8 {
                let stimulus = vec![
                    ("a".to_owned(), rng.gen_range(0u64..64)),
                    ("b".to_owned(), rng.gen_range(0u64..64)),
                ];
                for (name, v) in &stimulus {
                    sim.set_input(name, *v).unwrap();
                }
                sim.settle().unwrap();
                let y = sim.output("y").unwrap();
                assert!(solve(&[("y".to_owned(), y)], &stimulus));
                for bit in 0..6 {
                    let flipped = [("y".to_owned(), y ^ 1 << bit)];
                    assert!(!solve(&flipped, &stimulus), "bit {bit} of {y}");
                }
            }
        }
    }

    fn nb_bit_lane(bit: mlrl_netlist::NetId) -> mlrl_netlist::build::Lane {
        let mut lane = mlrl_netlist::build::Lane::zero();
        lane.0[0] = bit;
        lane
    }
}
