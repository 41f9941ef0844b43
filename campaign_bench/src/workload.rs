//! The three benchmark workloads: their campaign grids and reference
//! streams.
//!
//! Every workload runs at `threads = 1` and `opt_level = o0`. A run is a
//! sequence of passes, each over instances it has not run before: instance
//! `j` of pass `k` at command-line seed `s` has the base seed
//! `s·10⁶ + k·10³ + j`, so one seed always expands to the same cells and
//! runs at different seeds share no instance.

use mlrl_engine::spec::CampaignSpec;
use mlrl_engine::Engine;

/// Seed whose canonical streams are stored under `refs/`.
pub const DEFAULT_SEED: u64 = 2022;

/// The twelve paper designs `lock-replay` sweeps: all but the two
/// synthetic operation networks.
const REPLAY_BENCHMARKS: &str = "DES3 DFT FIR IDFT IIR MD5 RSA SHA256 SASC SIM_SPI USB_PHY I2C_SL";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 6 quick grid under the SnapShot-RTL auto-ML attack.
    RtlSnapshot,
    /// The SAT-attack evaluation grid at width 4.
    GateSat,
    /// Lock-then-score cells replayed over a warm spill directory.
    LockReplay,
}

impl Workload {
    /// Every workload, in command-line order.
    pub const ALL: [Workload; 3] = [
        Workload::RtlSnapshot,
        Workload::GateSat,
        Workload::LockReplay,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RtlSnapshot => "rtl-snapshot",
            Workload::GateSat => "gate-sat",
            Workload::LockReplay => "lock-replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(token: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == token)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{token}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    /// Instances (base seeds) one pass covers. An instance's cost depends
    /// on its seed (a `gate-sat` instance's by a factor of 3), so a run
    /// averages over every instance its passes cover.
    fn instances(self) -> usize {
        match self {
            Workload::RtlSnapshot => 1,
            Workload::GateSat => 8,
            Workload::LockReplay => 4,
        }
    }

    /// The inputs of the first pass of a run at `seed`.
    pub fn inputs(self, seed: u64) -> Result<Inputs, String> {
        self.pass(seed, 0)
    }

    /// The inputs of pass `pass` of a run at `seed`: the grid over
    /// [`Workload::instances`] base seeds. `gate-sat` skips a seed whose
    /// gate-level locks fail (a lowered netlist can have fewer lockable
    /// wires than the key needs); it screens candidates by running the
    /// grid with `attacks = none`.
    pub fn pass(self, seed: u64, pass: u64) -> Result<Inputs, String> {
        let wanted = self.instances();
        let first = seed
            .wrapping_mul(1_000_000)
            .wrapping_add(pass.wrapping_mul(1_000));
        let candidates = (0..1_000).map(|j| first.wrapping_add(j));
        if self != Workload::GateSat {
            let seeds: Vec<u64> = candidates.take(wanted).collect();
            return Ok(Inputs::new(self, seed, seeds));
        }
        let mut seeds = Vec::new();
        let mut next = candidates;
        for _ in 0..8 {
            let batch: Vec<u64> = next.by_ref().take(wanted + 4).collect();
            let spec =
                CampaignSpec::parse(&self.text(&batch, "none")).map_err(|e| e.to_string())?;
            let report = Engine::new().run(&spec);
            seeds.extend(batch.iter().copied().filter(|s| {
                report
                    .records
                    .iter()
                    .all(|r| r.seed != *s || r.status.is_ok())
            }));
            if seeds.len() >= wanted {
                seeds.truncate(wanted);
                return Ok(Inputs::new(self, seed, seeds));
            }
        }
        Err(format!(
            "no {wanted} lockable gate-sat instances in pass {pass} of seed {seed}"
        ))
    }

    /// The campaign spec text over `seeds`, in the engine's spec-file
    /// format (parsing it is part of the measured set-up).
    fn text(self, seeds: &[u64], gate_attack: &str) -> String {
        let grid = match self {
            Workload::RtlSnapshot => "benchmarks = FIR SASC N_1023\n\
                 schemes = assure hra era\n\
                 budgets = 0.75\n\
                 attacks = snapshot\n\
                 relock_rounds = 20\n"
                .to_owned(),
            // SASC is left out: its SAT cost is heavy-tailed across seeds
            // (0.5 to 5.2 s per instance at width 6). Width 4 and budget
            // 0.25 keep an instance near 0.3 s, so a run covers about a
            // hundred of them.
            Workload::GateSat => format!(
                "benchmarks = SIM_SPI USB_PHY I2C_SL\n\
                 levels = gate\n\
                 schemes = assure hra era xor-xnor mux\n\
                 budgets = 0.25\n\
                 attacks = {gate_attack}\n\
                 width = 4\n\
                 sat_max_dips = 512\n\
                 sat_max_clauses = 4000000\n"
            ),
            Workload::LockReplay => format!(
                "benchmarks = {REPLAY_BENCHMARKS}\n\
                 schemes = assure hra era\n\
                 budgets = 0.25 0.5 0.75\n\
                 attacks = kpa-model pair-analysis none\n"
            ),
        };
        let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
        format!(
            "name = {}\n{grid}seeds = {}\nthreads = 1\nopt_level = o0\n",
            self.name(),
            seeds.join(" ")
        )
    }

    /// The stored canonical stream of this workload at [`DEFAULT_SEED`].
    pub fn reference(self) -> &'static str {
        match self {
            Workload::RtlSnapshot => include_str!("../refs/rtl-snapshot.jsonl"),
            Workload::GateSat => include_str!("../refs/gate-sat.jsonl"),
            Workload::LockReplay => include_str!("../refs/lock-replay.jsonl"),
        }
    }
}

/// The inputs of one pass: a workload's grid over its base seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The command-line seed the inputs were made from.
    pub seed: u64,
    /// The pass's base seeds, one per instance.
    pub seeds: Vec<u64>,
    /// The campaign spec text.
    pub text: String,
}

impl Inputs {
    fn new(workload: Workload, seed: u64, seeds: Vec<u64>) -> Self {
        Self {
            workload,
            seed,
            text: workload.text(&seeds, "sat"),
            seeds,
        }
    }

    /// Parses the spec text.
    pub fn spec(&self) -> Result<CampaignSpec, String> {
        CampaignSpec::parse(&self.text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(w: Workload, seed: u64) -> Inputs {
        w.inputs(seed).expect("inputs build")
    }

    #[test]
    fn gate_sat_skips_seeds_whose_gate_locks_fail() {
        // SIM_SPI at seed 3183005 lowers to too few lockable wires.
        let seeds = Workload::GateSat.pass(3, 183).expect("inputs build").seeds;
        assert_eq!(
            seeds,
            [3183000, 3183001, 3183002, 3183003, 3183004, 3183006, 3183007, 3183008]
        );
        assert_eq!(
            Workload::LockReplay
                .pass(3, 183)
                .expect("inputs build")
                .seeds,
            [3183000, 3183001, 3183002, 3183003]
        );
    }

    #[test]
    fn passes_and_seeds_cover_disjoint_instances() {
        assert_eq!(inputs(Workload::RtlSnapshot, 7).seeds, [7000000]);
        let later = Workload::RtlSnapshot.pass(7, 2).expect("inputs build");
        assert_eq!((later.seed, later.seeds), (7, vec![7002000]));
        let a = inputs(Workload::LockReplay, 7).seeds;
        let b = inputs(Workload::LockReplay, 8).seeds;
        assert!(a.iter().all(|s| !b.contains(s)), "{a:?} {b:?}");
    }

    #[test]
    fn grids_have_the_documented_sizes() {
        let cells: Vec<usize> = Workload::ALL
            .iter()
            .map(|&w| inputs(w, DEFAULT_SEED).spec().expect("spec parses").cells())
            .collect();
        assert_eq!(cells, vec![9, 120, 1296]);
        for w in Workload::ALL {
            let spec = inputs(w, 7).spec().expect("spec parses");
            assert_eq!(spec.threads, 1);
            assert_eq!(spec.opt_level, mlrl_engine::spec::OptLevel::O0);
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("bogus").is_err());
    }

    #[test]
    fn references_match_the_default_grid() {
        for w in Workload::ALL {
            let cells = inputs(w, DEFAULT_SEED).spec().expect("spec parses").cells();
            let header = format!("{{\"campaign\":\"{}\",\"jobs\":{cells}}}", w.name());
            let reference = w.reference();
            assert_eq!(reference.lines().next(), Some(header.as_str()));
            assert_eq!(reference.lines().count(), cells + 1);
        }
    }
}
