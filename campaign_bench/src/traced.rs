//! The traced run: one untraced engine pass gives the reference records
//! and cell times, then the layer walk repeats the grid for the run's
//! budget. Every walked cell must reproduce the engine's record.

use std::path::Path;
use std::time::{Duration, Instant};

use mlrl_engine::JobRecord;

use crate::timed::{remove_dir, run_pass, Checker};
use crate::walk::{walk_pass, Spans};
use crate::workload::{Inputs, Workload};

/// Everything a traced run measured.
pub struct Traced {
    /// Spans and counters summed over the walked passes.
    pub spans: Spans,
    /// Walked passes.
    pub passes: usize,
    /// Walked cell time summed over the walked passes, in milliseconds.
    pub walk_cell_ms: f64,
    /// Engine cell time of the untraced reference pass, in milliseconds.
    pub engine_cell_ms: f64,
    /// Cache hit ratio of the untraced reference pass.
    pub cache_hit_ratio: f64,
    /// Correctness of the untraced passes the run made.
    pub checker: Checker,
    /// Walked cells.
    pub walked: usize,
    /// Walked cells whose record differs from the engine's.
    pub mismatched: usize,
}

impl Traced {
    /// The per-layer metrics, as `(name, value, unit)`. Times and counts
    /// are per walked pass of the grid.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let s = &self.spans;
        let per_pass = |v: f64| v / self.passes as f64;
        let ms = |name: &str| per_pass(s.ms(name));
        let n = |name: &str| per_pass(s.n(name) as f64);
        let sim_ms = s.ms("netlist.sim_build") + s.ms("netlist.sim_query");
        let sat_cells = s.n("sat.cells");
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let walk_ms = per_pass(self.walk_cell_ms);
        vec![
            ("rtl.generate_ms", ms("rtl.generate"), "ms"),
            ("rtl.emit_ms", ms("rtl.emit"), "ms"),
            ("rtl.parse_ms", ms("rtl.parse"), "ms"),
            ("locking.lock_ms", ms("locking.lock"), "ms"),
            ("locking.lock_calls", n("locking.lock_calls"), "count"),
            ("locking.key_bits", n("locking.key_bits"), "count"),
            ("locking.metric_ms", ms("locking.metric"), "ms"),
            ("attack.relock_ms", ms("attack.relock"), "ms"),
            ("attack.relock_rows", n("attack.relock_rows"), "count"),
            ("attack.extract_ms", ms("attack.extract"), "ms"),
            ("attack.analytic_ms", ms("attack.analytic"), "ms"),
            ("ml.encode_ms", ms("ml.encode"), "ms"),
            ("ml.auto_fit_ms", ms("ml.auto_fit"), "ms"),
            ("ml.auto_fit_calls", n("ml.auto_fit_calls"), "count"),
            ("ml.predict_ms", ms("ml.predict"), "ms"),
            ("ml.train_rows", n("ml.train_rows"), "count"),
            ("ml.distinct_rows", n("ml.distinct_rows"), "count"),
            ("ml.candidates", n("ml.candidates"), "count"),
            ("netlist.lower_ms", ms("netlist.lower"), "ms"),
            ("netlist.lock_ms", ms("netlist.lock"), "ms"),
            ("netlist.gates", n("netlist.gates"), "count"),
            ("netlist.sim_ms", per_pass(sim_ms), "ms"),
            ("netlist.sim_queries", n("netlist.sim_queries"), "count"),
            ("sat.attack_ms", ms("sat.attack"), "ms"),
            (
                "sat.solver_ms",
                per_pass(s.ms("sat.attack") - s.ms("netlist.sim_query")),
                "ms",
            ),
            ("sat.dips", n("sat.dips"), "count"),
            (
                "sat.proved_ratio",
                ratio(s.n("sat.proved"), sat_cells),
                "ratio",
            ),
            ("engine.spill_read_ms", ms("engine.spill_read"), "ms"),
            ("engine.canonical_ms", ms("engine.canonical"), "ms"),
            ("engine.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            ("bench.walk_cell_ms", walk_ms, "ms"),
            ("bench.engine_cell_ms", self.engine_cell_ms, "ms"),
            (
                "bench.coverage",
                100.0 * s.leaf_ms() / self.walk_cell_ms,
                "%",
            ),
            (
                "bench.trace_gap_pct",
                100.0 * (walk_ms - self.engine_cell_ms) / self.engine_cell_ms,
                "%",
            ),
        ]
    }
}

/// Runs the traced benchmark: one untraced reference pass, then walked
/// passes until about `seconds` have passed in all (at least one).
pub fn trace(inputs: &Inputs, seconds: u64, scratch: &Path) -> Result<Traced, String> {
    let started = Instant::now();
    let spec = inputs.spec()?;
    let mut checker = Checker::new(inputs);
    let spill = (inputs.workload == Workload::LockReplay).then(|| scratch.join("warm"));
    if let Some(dir) = &spill {
        remove_dir(dir)?;
        let cold = run_pass(inputs, Some(dir), None, false)?;
        checker.check(&cold.report);
    }
    let reference = run_pass(inputs, spill.as_deref(), None, false)?;
    checker.check(&reference.report);

    let mut traced = Traced {
        spans: Spans::default(),
        passes: 0,
        walk_cell_ms: 0.0,
        engine_cell_ms: reference.cell_ms.iter().sum(),
        cache_hit_ratio: reference.report.cache.hit_rate(),
        checker,
        walked: 0,
        mismatched: 0,
    };
    let budget = Duration::from_secs(seconds);
    let walk_started = Instant::now();
    loop {
        let pass = walk_pass(&spec, spill.as_deref());
        for (walked, engine) in pass.records.iter().zip(&reference.report.records) {
            if let Some(problem) = mismatch(walked, engine) {
                if traced.mismatched < 8 {
                    eprintln!("walk != engine: {problem}");
                }
                traced.mismatched += 1;
            }
        }
        traced.mismatched += pass.records.len().abs_diff(reference.report.records.len());
        traced.walked += pass.records.len();
        traced.walk_cell_ms += pass.cell_time.as_secs_f64() * 1e3;
        traced.spans.merge(&pass.spans);
        traced.passes += 1;
        let per_pass = walk_started.elapsed() / traced.passes as u32;
        if started.elapsed() + per_pass > budget {
            break;
        }
    }
    if let Some(dir) = &spill {
        remove_dir(dir)?;
    }
    Ok(traced)
}

/// Why a walked record differs from the engine's, if it does: first the
/// fields the walk must reproduce, then the whole canonical line.
fn mismatch(walked: &JobRecord, engine: &JobRecord) -> Option<String> {
    let fields = [
        (
            "key_bits",
            format!("{:?}", walked.key_bits),
            format!("{:?}", engine.key_bits),
        ),
        (
            "kpa",
            format!("{:?}", walked.kpa),
            format!("{:?}", engine.kpa),
        ),
        (
            "gates",
            format!("{:?}", walked.gates),
            format!("{:?}", engine.gates),
        ),
        (
            "sat_dips",
            format!("{:?}", walked.sat_dips),
            format!("{:?}", engine.sat_dips),
        ),
    ];
    for (name, w, e) in fields {
        if w != e {
            return Some(format!(
                "cell {}: {name} walked {w}, engine {e}",
                engine.index
            ));
        }
    }
    let (w, e) = (walked.canonical_line(), engine.canonical_line());
    (w != e).then(|| format!("cell {}: walked {w}, engine {e}", engine.index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatch_names_the_first_differing_field() {
        let mut engine = JobRecord::empty(4);
        engine.key_bits = Some(12);
        engine.kpa = Some(50.0);
        let walked = engine.clone();
        assert_eq!(mismatch(&walked, &engine), None);

        let mut other = engine.clone();
        other.sat_dips = Some(3);
        let problem = mismatch(&other, &engine).expect("differs");
        assert!(problem.starts_with("cell 4: sat_dips"), "{problem}");

        // A difference outside the four named fields still fails.
        let mut other = engine.clone();
        other.metric = Some(1.0);
        let problem = mismatch(&other, &engine).expect("differs");
        assert!(problem.contains("walked {"), "{problem}");
    }
}
