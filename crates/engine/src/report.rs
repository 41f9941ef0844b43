//! Campaign results: per-job records, JSON-lines and table emitters.
//!
//! Two serializations with different contracts:
//!
//! - [`CampaignReport::canonical_jsonl`] — *deterministic*: a pure
//!   function of the spec and the job results, independent of thread
//!   count, scheduling, wall-clock and cache state. Byte-compare two of
//!   these to prove two runs computed the same science.
//! - [`CampaignReport::jsonl`] / [`CampaignReport::human_table`] — the
//!   full picture including timing and cache hit rate.

use crate::cache::CacheStats;
use mlrl_obs::json;

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed and produced metrics.
    Ok,
    /// Failed or panicked; the message says why.
    Failed(String),
}

impl JobStatus {
    /// Whether the job completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }
}

/// Everything one job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Grid position (row-major).
    pub index: usize,
    /// Benchmark name.
    pub benchmark: String,
    /// Abstraction-level name (`rtl` / `gate`).
    pub level: String,
    /// Scheme name.
    pub scheme: String,
    /// Budget fraction.
    pub budget: f64,
    /// Spec-level base seed.
    pub seed: u64,
    /// Attack name.
    pub attack: String,
    /// Cell-derived seed (provenance for re-running one cell).
    pub derived_seed: u64,
    /// Key bits spent by the scheme.
    pub key_bits: Option<usize>,
    /// Final `M_g_sec` of the locked design, in percent.
    pub metric: Option<f64>,
    /// Whether the final ODT is fully balanced.
    pub balanced: Option<bool>,
    /// Key bits after which the metric first reached 100 (traced
    /// schemes only).
    pub bits_to_balance: Option<usize>,
    /// Full per-bit metric trajectory `(key bits, M_g_sec)` — the Fig. 5b
    /// curve. Populated only when the spec sets `trace = true` and the
    /// scheme reports one (ERA/HRA); serialized as a trailing canonical
    /// column that is *omitted* (not null) when absent, so untraced
    /// campaigns keep their historical byte streams.
    pub trace: Option<Vec<(usize, f64)>>,
    /// Attack headline, in percent: KPA for learning attacks, output
    /// agreement for the oracle-guided attack.
    pub kpa: Option<f64>,
    /// Key bits the attack scored.
    pub attacked_bits: Option<usize>,
    /// Training samples consumed (training-set attacks only).
    pub training_samples: Option<usize>,
    /// Gates in the attacked netlist (gate-level cells only).
    pub gates: Option<usize>,
    /// Locked area relative to the lowered base design
    /// (`locked gates / base gates`; gate-level cells only).
    pub area_overhead: Option<f64>,
    /// DIP iterations (oracle queries) the SAT attack used.
    pub sat_dips: Option<usize>,
    /// Whether the SAT attack reached an UNSAT miter (functional
    /// correctness proof) within its budgets.
    pub sat_proved: Option<bool>,
    /// Key-controlled localities the pair analysis inspected
    /// (pair-analysis cells only).
    pub localities: Option<usize>,
    /// Fraction of localities that provably leaked, in percent
    /// (pair-analysis cells only).
    pub coverage: Option<f64>,
    /// Training observations whose real operator was `+` (observation
    /// cells only).
    pub obs_plus: Option<usize>,
    /// Training observations whose real operator was `-` (observation
    /// cells only).
    pub obs_minus: Option<usize>,
    /// Fraction of sampled near-miss keys that corrupted at least one
    /// output (corruptibility cells only).
    pub corruption_rate: Option<f64>,
    /// Mean fraction of output reads that differed under near-miss keys
    /// (corruptibility cells only).
    pub error_rate: Option<f64>,
    /// Lockable operations of the base design (profile cells only).
    pub ops: Option<usize>,
    /// Total absolute pair imbalance of the base design — the minimum
    /// balancing key bits (profile cells only).
    pub imbalance: Option<u64>,
    /// Euclidean distance of the initial operation distribution from the
    /// optimum — the metric denominator `d_e(v_i, v_o)` (profile cells
    /// only).
    pub initial_distance: Option<f64>,
    /// Netlist optimizer level of the campaign (`"o1"`, `"o2"`), present
    /// only when one was active — at the default `O0` the column is
    /// omitted so historical canonical streams stay byte-identical.
    pub opt_level: Option<String>,
    /// Terminal state.
    pub status: JobStatus,
    /// Wall-clock of this job in milliseconds (excluded from the
    /// canonical serialization).
    pub wall_ms: u128,
    /// Wall-clock the SAT solver spent on this job in milliseconds
    /// (excluded from the canonical serialization, like `wall_ms`:
    /// timing is not science).
    pub solver_ms: Option<u128>,
}

impl JobRecord {
    /// Skeleton record for a job that has produced nothing yet.
    pub fn empty(index: usize) -> Self {
        Self {
            index,
            benchmark: String::new(),
            level: String::new(),
            scheme: String::new(),
            budget: 0.0,
            seed: 0,
            attack: String::new(),
            derived_seed: 0,
            key_bits: None,
            metric: None,
            balanced: None,
            bits_to_balance: None,
            trace: None,
            kpa: None,
            attacked_bits: None,
            training_samples: None,
            gates: None,
            area_overhead: None,
            sat_dips: None,
            sat_proved: None,
            localities: None,
            coverage: None,
            obs_plus: None,
            obs_minus: None,
            corruption_rate: None,
            error_rate: None,
            ops: None,
            imbalance: None,
            initial_distance: None,
            opt_level: None,
            status: JobStatus::Ok,
            wall_ms: 0,
            solver_ms: None,
        }
    }

    /// Appends this record as one JSON object; `include_timing` adds the
    /// non-canonical `wall_ms` and `solver_ms`.
    fn write_json(&self, out: &mut String, include_timing: bool) {
        let u = |v: Option<usize>| v.map(|v| v as u64);
        let mut w = json::Writer::new(out);
        w.begin_object().key("index").uint(self.index as u64);
        w.key("benchmark").str(&self.benchmark);
        w.key("level").str(&self.level);
        w.key("scheme").str(&self.scheme);
        w.key("budget").fixed4(self.budget);
        w.key("seed").uint(self.seed);
        w.key("attack").str(&self.attack);
        w.key("derived_seed").hex64(self.derived_seed);
        w.key("key_bits").uint(u(self.key_bits));
        w.key("metric").fixed4(self.metric);
        w.key("balanced").bool(self.balanced);
        w.key("bits_to_balance").uint(u(self.bits_to_balance));
        if let Some(trace) = &self.trace {
            // Trailing optional column: present only when the spec traced
            // (`trace = true`), so untraced streams are byte-stable.
            w.key("trace").begin_array();
            for &(bits, metric) in trace {
                w.begin_array().uint(bits as u64).fixed4(metric).end_array();
            }
            w.end_array();
        }
        w.key("kpa").fixed4(self.kpa);
        w.key("attacked_bits").uint(u(self.attacked_bits));
        w.key("training_samples").uint(u(self.training_samples));
        w.key("gates").uint(u(self.gates));
        w.key("area_overhead").fixed4(self.area_overhead);
        w.key("sat_dips").uint(u(self.sat_dips));
        w.key("sat_proved").bool(self.sat_proved);
        w.key("localities").uint(u(self.localities));
        w.key("coverage").fixed4(self.coverage);
        w.key("obs_plus").uint(u(self.obs_plus));
        w.key("obs_minus").uint(u(self.obs_minus));
        w.key("corruption_rate").fixed4(self.corruption_rate);
        w.key("error_rate").fixed4(self.error_rate);
        w.key("ops").uint(u(self.ops));
        w.key("imbalance").uint(self.imbalance);
        w.key("initial_distance").fixed4(self.initial_distance);
        if let Some(opt_level) = &self.opt_level {
            // Trailing optional column like `trace`: present only when
            // the campaign ran the optimizer, so `O0` streams (and every
            // pre-optimizer golden file) are byte-stable.
            w.key("opt_level").str(opt_level);
        }
        match &self.status {
            JobStatus::Ok => w.key("status").str("ok"),
            JobStatus::Failed(msg) => w.key("status").str("failed").key("error").str(msg),
        };
        if include_timing {
            w.key("wall_ms").uint(self.wall_ms as u64);
            w.key("solver_ms").uint(self.solver_ms.map(|v| v as u64));
        }
        w.end_object();
    }

    /// This record's line of the canonical JSON-lines stream — exactly
    /// what [`CampaignReport::canonical_jsonl`] emits for it (no timing,
    /// no cache state). Worker processes stream these lines to the
    /// orchestrator, whose journal replays them byte-for-byte into the
    /// merged report.
    pub fn canonical_line(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out, false);
        out
    }
}

/// The header line of a canonical stream, `{"campaign":NAME,"jobs":N}`;
/// a run journal's header adds the `"spec"` digest of its spec file.
/// [`header_fields`] reads it back.
pub fn header_line(campaign: &str, jobs: usize, spec_digest: Option<u64>) -> String {
    let mut out = String::new();
    let mut w = json::Writer::new(&mut out);
    let name = sanitized_name(campaign);
    w.begin_object().key("campaign").str(&name);
    w.key("jobs").uint(jobs as u64);
    if let Some(digest) = spec_digest {
        w.key("spec").hex64(digest);
    }
    w.end_object();
    out
}

/// `name` with quotes, backslashes and control characters as `_`.
fn sanitized_name(name: &str) -> String {
    name.replace(|c: char| matches!(c, '"' | '\\') || (c as u32) < 0x20, "_")
}

/// Grid index of a canonical record line (`{"index":N,...}`): the
/// non-negative integer `index` of a line that parses in full as one JSON
/// object. `None` for malformed, truncated or spliced lines.
pub fn record_index(line: &str) -> Option<usize> {
    let index = json::parse(line)?.as_object()?.get("index")?.as_u64()?;
    usize::try_from(index).ok()
}

/// `(campaign, jobs)` of a campaign header line
/// (`{"campaign":"NAME","jobs":N}`, plus `"spec"` in a run journal): a
/// line that parses in full as one JSON object with a string `campaign`
/// and a non-negative integer `jobs`. `None` for anything else.
pub fn header_fields(line: &str) -> Option<(String, usize)> {
    let header = json::parse(line)?;
    let header = header.as_object()?;
    let jobs = usize::try_from(header.get("jobs")?.as_u64()?).ok()?;
    Some((header.get("campaign")?.as_str()?.to_owned(), jobs))
}

/// The full result of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign label (from the spec).
    pub name: String,
    /// Per-job records, in grid order.
    pub records: Vec<JobRecord>,
    /// Worker threads actually used.
    pub threads: usize,
    /// End-to-end wall-clock in milliseconds.
    pub wall_ms: u128,
    /// Cache activity during this run.
    pub cache: CacheStats,
}

impl CampaignReport {
    /// Jobs that completed.
    pub fn ok_count(&self) -> usize {
        self.records.iter().filter(|r| r.status.is_ok()).count()
    }

    /// Jobs that failed or panicked.
    pub fn failed_count(&self) -> usize {
        self.records.len() - self.ok_count()
    }

    /// Deterministic JSON-lines serialization: one header line with the
    /// campaign name and job count, then one line per job in grid order.
    /// Independent of threads, scheduling, timing and cache state —
    /// byte-equal across any two runs that computed the same results.
    pub fn canonical_jsonl(&self) -> String {
        let mut out = header_line(&self.name, self.records.len(), None);
        out.push('\n');
        for record in &self.records {
            record.write_json(&mut out, false);
            out.push('\n');
        }
        out
    }

    /// Full JSON-lines serialization including timing and a trailing
    /// summary line with cache statistics.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            record.write_json(&mut out, true);
            out.push('\n');
        }
        let mut w = json::Writer::new(&mut out);
        let name = sanitized_name(&self.name);
        w.begin_object().key("campaign").str(&name);
        w.key("jobs").uint(self.records.len() as u64);
        w.key("ok").uint(self.ok_count() as u64);
        w.key("failed").uint(self.failed_count() as u64);
        w.key("threads").uint(self.threads as u64);
        w.key("wall_ms").uint(self.wall_ms as u64);
        w.key("cache_hits").uint(self.cache.hits as u64);
        w.key("cache_misses").uint(self.cache.misses as u64);
        w.key("cache_hit_rate").fixed4(self.cache.hit_rate());
        w.end_object();
        out.push('\n');
        out
    }

    /// Aligned human-readable results table.
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:<5} {:<13} {:>7} {:>6} {:<13} {:>9} {:>8} {:>8} {:>6} {:>6} {:>7} {:>8}\n",
            "benchmark",
            "level",
            "scheme",
            "budget",
            "seed",
            "attack",
            "key bits",
            "metric",
            "kpa%",
            "gates",
            "dips",
            "status",
            "ms"
        ));
        for r in &self.records {
            let fmt_opt_f = |v: Option<f64>| match v {
                Some(v) => format!("{v:.1}"),
                None => "-".to_owned(),
            };
            let fmt_opt_u = |v: Option<usize>| match v {
                Some(v) => v.to_string(),
                None => "-".to_owned(),
            };
            out.push_str(&format!(
                "{:<12} {:<5} {:<13} {:>7.2} {:>6} {:<13} {:>9} {:>8} {:>8} {:>6} {:>6} {:>7} {:>8}\n",
                r.benchmark,
                r.level,
                r.scheme,
                r.budget,
                r.seed,
                r.attack,
                fmt_opt_u(r.key_bits),
                fmt_opt_f(r.metric),
                fmt_opt_f(r.kpa),
                fmt_opt_u(r.gates),
                fmt_opt_u(r.sat_dips),
                if r.status.is_ok() { "ok" } else { "FAILED" },
                r.wall_ms,
            ));
        }
        out
    }

    /// One-paragraph run summary (threads, wall-clock, cache hit rate).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "campaign `{}`: {} jobs ({} ok, {} failed) on {} thread(s) in {} ms; \
             cache: {} hits / {} misses ({:.0}% hit rate)",
            self.name,
            self.records.len(),
            self.ok_count(),
            self.failed_count(),
            self.threads,
            self.wall_ms,
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
        );
        if self.cache.lowered_hits + self.cache.lowered_misses > 0 {
            out.push_str(&format!(
                "; netlist shard: {} hits / {} syntheses",
                self.cache.lowered_hits, self.cache.lowered_misses
            ));
        }
        out
    }
}

/// Mean-KPA summary of one benchmark × scheme × budget cell, averaged
/// over its base seeds (instances) — the unit Fig. 6a plots and the
/// budget ablation tabulates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Benchmark name.
    pub benchmark: String,
    /// Scheme name.
    pub scheme: String,
    /// Budget fraction.
    pub budget: f64,
    /// Mean KPA over the instances that produced one, in percent.
    pub kpa: f64,
    /// Instances that produced a KPA.
    pub instances: usize,
}

/// Groups records by benchmark × scheme × budget (first-seen order,
/// `attack` rows only) and averages each group's KPA over its seeds —
/// the Fig. 6a per-benchmark aggregation. Groups where no instance
/// produced a KPA report the 50% random-guess floor, mirroring the
/// historical driver.
pub fn kpa_cell_means<'a>(
    records: impl IntoIterator<Item = &'a JobRecord>,
    attack: &str,
) -> Vec<CellSummary> {
    let mut cells: Vec<(CellSummary, f64)> = Vec::new();
    for r in records {
        if r.attack != attack {
            continue;
        }
        let found = cells.iter_mut().find(|(c, _)| {
            c.benchmark == r.benchmark && c.scheme == r.scheme && c.budget == r.budget
        });
        let (cell, sum) = match found {
            Some(entry) => entry,
            None => {
                cells.push((
                    CellSummary {
                        benchmark: r.benchmark.clone(),
                        scheme: r.scheme.clone(),
                        budget: r.budget,
                        kpa: 50.0,
                        instances: 0,
                    },
                    0.0,
                ));
                cells.last_mut().expect("just pushed")
            }
        };
        if let Some(kpa) = r.kpa {
            *sum += kpa;
            cell.instances += 1;
            cell.kpa = *sum / cell.instances as f64;
        }
    }
    cells.into_iter().map(|(c, _)| c).collect()
}

/// `(scheme, mean KPA)` across cell means, first-seen order — the
/// Fig. 6b per-scheme averaged view (a mean of per-benchmark means, not
/// of raw instances, exactly as the paper averages).
pub fn scheme_averages(cells: &[CellSummary]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64, usize)> = Vec::new();
    for c in cells {
        match out.iter_mut().find(|(s, _, _)| *s == c.scheme) {
            Some((_, sum, n)) => {
                *sum += c.kpa;
                *n += 1;
            }
            None => out.push((c.scheme.clone(), c.kpa, 1)),
        }
    }
    out.into_iter()
        .map(|(s, sum, n)| (s, sum / n as f64))
        .collect()
}

/// Merges canonical shard streams back into the canonical single-process
/// byte stream.
///
/// Each input is the `canonical_jsonl` output of one shard — or a
/// concatenation of several campaigns' outputs, as the multi-campaign
/// drivers print; every input must then carry the same campaign sequence.
/// Record lines are reassembled in grid order per campaign; because every
/// record line is a pure function of the spec and the cell result, the
/// merged stream is byte-identical to an unsharded run.
///
/// # Errors
///
/// Returns a message on a line that is neither a whole header nor a
/// whole record ([`header_fields`], [`record_index`]), campaign
/// sequences that differ between inputs, duplicate grid indices
/// (overlapping shards), or a job count that does not match the
/// collected records (missing shards).
pub fn merge_canonical_streams(inputs: &[String]) -> Result<String, String> {
    struct Segment {
        header_name: String,
        jobs: usize,
        records: Vec<(usize, String)>,
    }

    fn parse_stream(input: &str) -> Result<Vec<Segment>, String> {
        let mut segments: Vec<Segment> = Vec::new();
        for line in input.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(index) = record_index(line) {
                segments
                    .last_mut()
                    .ok_or_else(|| format!("record line `{line}` before any campaign header"))?
                    .records
                    .push((index, line.to_owned()));
            } else if let Some((header_name, jobs)) = header_fields(line) {
                segments.push(Segment {
                    header_name,
                    jobs,
                    records: Vec::new(),
                });
            } else {
                return Err(format!("malformed line `{line}`"));
            }
        }
        Ok(segments)
    }

    if inputs.is_empty() {
        return Err("nothing to merge".to_owned());
    }
    let streams: Vec<Vec<Segment>> = inputs
        .iter()
        .map(|i| parse_stream(i))
        .collect::<Result<_, _>>()?;
    let campaigns = streams[0].len();
    for s in &streams {
        if s.len() != campaigns {
            return Err(format!(
                "shard streams disagree on campaign count ({} vs {campaigns})",
                s.len()
            ));
        }
    }

    let mut out = String::new();
    for c in 0..campaigns {
        let name = &streams[0][c].header_name;
        let mut records: Vec<(usize, String)> = Vec::new();
        let mut jobs = 0usize;
        for s in &streams {
            let seg = &s[c];
            if seg.header_name != *name {
                return Err(format!(
                    "shard streams disagree on campaign {c}: `{}` vs `{name}`",
                    seg.header_name
                ));
            }
            if seg.jobs != seg.records.len() {
                return Err(format!(
                    "campaign `{}`: header counts {} job(s) but carries {} record(s)",
                    seg.header_name,
                    seg.jobs,
                    seg.records.len()
                ));
            }
            jobs += seg.jobs;
            records.extend(seg.records.iter().cloned());
        }
        records.sort_by_key(|(index, _)| *index);
        for (position, (index, _)) in records.iter().enumerate() {
            match index.cmp(&position) {
                std::cmp::Ordering::Less => {
                    return Err(format!(
                        "campaign `{name}`: duplicate record index {index} (overlapping shards?)"
                    ))
                }
                std::cmp::Ordering::Greater => {
                    return Err(format!(
                        "campaign `{name}`: missing record index {position} (missing shard?)"
                    ))
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        out.push_str(&header_line(name, jobs, None));
        out.push('\n');
        for (_, line) in &records {
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Rebuilds the skeleton of a record from spec + job coordinates (used
/// for jobs that panicked before producing anything).
pub fn record_from_job(job: &crate::job::Job) -> JobRecord {
    JobRecord {
        index: job.index,
        benchmark: job.benchmark.clone(),
        level: job.level.name().to_owned(),
        scheme: job.scheme.name().to_owned(),
        budget: job.budget,
        seed: job.base_seed,
        attack: job.attack.name().to_owned(),
        derived_seed: job.derived_seed,
        ..JobRecord::empty(job.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> JobRecord {
        JobRecord {
            benchmark: "FIR".into(),
            level: "rtl".into(),
            scheme: "era".into(),
            budget: 0.75,
            seed: 2022,
            attack: "freq-table".into(),
            derived_seed: 0xDEAD_BEEF,
            key_bits: Some(47),
            metric: Some(100.0),
            balanced: Some(true),
            bits_to_balance: Some(31),
            kpa: Some(51.25),
            attacked_bits: Some(47),
            training_samples: Some(1200),
            wall_ms: 17,
            ..JobRecord::empty(0)
        }
    }

    fn gate_record() -> JobRecord {
        JobRecord {
            benchmark: "SIM_SPI".into(),
            level: "gate".into(),
            scheme: "xor-xnor".into(),
            attack: "sat".into(),
            key_bits: Some(12),
            kpa: Some(100.0),
            attacked_bits: Some(12),
            gates: Some(740),
            area_overhead: Some(1.0162),
            sat_dips: Some(9),
            sat_proved: Some(true),
            solver_ms: Some(35),
            wall_ms: 41,
            ..JobRecord::empty(1)
        }
    }

    #[test]
    fn canonical_jsonl_excludes_timing_and_cache() {
        let mut report = CampaignReport {
            name: "t".into(),
            records: vec![record(), gate_record()],
            threads: 4,
            wall_ms: 99,
            cache: CacheStats {
                hits: 5,
                misses: 2,
                ..Default::default()
            },
        };
        let canonical = report.canonical_jsonl();
        assert!(!canonical.contains("wall_ms"));
        assert!(!canonical.contains("solver_ms"));
        assert!(!canonical.contains("cache"));
        assert!(canonical.contains("\"kpa\":51.2500"));
        // Gate-level science is canonical: SAT iterations, proof, area.
        assert!(canonical.contains("\"level\":\"gate\""));
        assert!(canonical.contains("\"sat_dips\":9"));
        assert!(canonical.contains("\"sat_proved\":true"));
        assert!(canonical.contains("\"area_overhead\":1.0162"));
        // Perturbing non-canonical dimensions must not change it.
        report.threads = 1;
        report.wall_ms = 1234;
        report.records[0].wall_ms = 5000;
        report.records[1].solver_ms = Some(9000);
        report.cache = CacheStats::default();
        assert_eq!(canonical, report.canonical_jsonl());
    }

    #[test]
    fn full_jsonl_has_summary_line() {
        let report = CampaignReport {
            name: "t".into(),
            records: vec![record()],
            threads: 2,
            wall_ms: 10,
            cache: CacheStats {
                hits: 1,
                misses: 3,
                ..Default::default()
            },
        };
        let jsonl = report.jsonl();
        assert!(jsonl.contains("\"wall_ms\""));
        assert!(jsonl
            .lines()
            .last()
            .expect("summary")
            .contains("\"cache_hit_rate\":0.2500"));
    }

    #[test]
    fn full_jsonl_bytes_are_pinned() {
        let report = CampaignReport {
            name: "t\"x\n".into(),
            records: vec![record(), gate_record()],
            threads: 2,
            wall_ms: 10,
            cache: CacheStats {
                hits: 1,
                misses: 2,
                ..Default::default()
            },
        };
        assert_eq!(
            report.jsonl(),
            "{\"index\":0,\"benchmark\":\"FIR\",\"level\":\"rtl\",\"scheme\":\"era\",\
             \"budget\":0.7500,\"seed\":2022,\"attack\":\"freq-table\",\
             \"derived_seed\":\"00000000deadbeef\",\"key_bits\":47,\"metric\":100.0000,\
             \"balanced\":true,\"bits_to_balance\":31,\"kpa\":51.2500,\"attacked_bits\":47,\
             \"training_samples\":1200,\"gates\":null,\"area_overhead\":null,\"sat_dips\":null,\
             \"sat_proved\":null,\"localities\":null,\"coverage\":null,\"obs_plus\":null,\
             \"obs_minus\":null,\"corruption_rate\":null,\"error_rate\":null,\"ops\":null,\
             \"imbalance\":null,\"initial_distance\":null,\"status\":\"ok\",\"wall_ms\":17,\
             \"solver_ms\":null}\n\
             {\"index\":1,\"benchmark\":\"SIM_SPI\",\"level\":\"gate\",\"scheme\":\"xor-xnor\",\
             \"budget\":0.0000,\"seed\":0,\"attack\":\"sat\",\"derived_seed\":\"0000000000000000\",\
             \"key_bits\":12,\"metric\":null,\"balanced\":null,\"bits_to_balance\":null,\
             \"kpa\":100.0000,\"attacked_bits\":12,\"training_samples\":null,\"gates\":740,\
             \"area_overhead\":1.0162,\"sat_dips\":9,\"sat_proved\":true,\"localities\":null,\
             \"coverage\":null,\"obs_plus\":null,\"obs_minus\":null,\"corruption_rate\":null,\
             \"error_rate\":null,\"ops\":null,\"imbalance\":null,\"initial_distance\":null,\
             \"status\":\"ok\",\"wall_ms\":41,\"solver_ms\":35}\n\
             {\"campaign\":\"t_x_\",\"jobs\":2,\"ok\":2,\"failed\":0,\"threads\":2,\"wall_ms\":10,\
             \"cache_hits\":1,\"cache_misses\":2,\"cache_hit_rate\":0.3333}\n"
        );
    }

    #[test]
    fn seeds_serialize_as_unsigned_integers() {
        let r = JobRecord {
            seed: u64::MAX,
            ..record()
        };
        assert!(r
            .canonical_line()
            .contains(",\"seed\":18446744073709551615,"));
    }

    #[test]
    fn traced_records_serialize_the_trajectory_as_a_trailing_column() {
        let mut r = record();
        // Untraced records omit the column entirely (byte-stability of
        // historical canonical streams).
        assert!(!r.canonical_line().contains("\"trace\""));
        r.trace = Some(vec![(1, 12.5), (2, 100.0)]);
        let line = r.canonical_line();
        assert!(
            line.contains("\"trace\":[[1,12.5000],[2,100.0000]],\"kpa\""),
            "{line}"
        );
        // The trace is science, not timing: both serializations carry it.
        let mut full = String::new();
        r.write_json(&mut full, true);
        assert!(full.contains("\"trace\""));
    }

    #[test]
    fn opt_level_serializes_as_a_trailing_column_only_when_active() {
        let mut r = record();
        // O0 campaigns omit the column entirely: pre-optimizer golden
        // streams must stay byte-identical.
        assert!(!r.canonical_line().contains("\"opt_level\""));
        r.opt_level = Some("o2".to_owned());
        let line = r.canonical_line();
        assert!(
            line.contains("\"opt_level\":\"o2\",\"status\""),
            "sits just before status: {line}"
        );
    }

    #[test]
    fn failed_jobs_carry_their_error() {
        let mut r = record();
        r.status = JobStatus::Failed("boom \"quoted\"".into());
        let line = r.canonical_line();
        assert!(line.contains("\"status\":\"failed\""));
        assert!(line.contains("\\\"quoted\\\""));
    }

    fn report_with(records: Vec<JobRecord>) -> CampaignReport {
        CampaignReport {
            name: "t".into(),
            records,
            threads: 1,
            wall_ms: 0,
            cache: CacheStats::default(),
        }
    }

    #[test]
    fn merging_shard_streams_reassembles_the_canonical_stream() {
        let mut records: Vec<JobRecord> = (0..5)
            .map(|i| JobRecord {
                index: i,
                kpa: Some(10.0 * i as f64),
                ..record()
            })
            .collect();
        let full = report_with(records.clone()).canonical_jsonl();

        // Uneven shards in scrambled internal order still merge exactly.
        let tail = records.split_off(2);
        let shard_a = report_with(vec![tail[2].clone(), tail[0].clone(), tail[1].clone()]);
        let shard_b = report_with(records);
        let merged =
            merge_canonical_streams(&[shard_a.canonical_jsonl(), shard_b.canonical_jsonl()])
                .expect("merges");
        assert_eq!(merged, full);

        // An empty shard (more shards than cells) contributes nothing.
        let empty = report_with(Vec::new());
        let merged = merge_canonical_streams(&[
            shard_a.canonical_jsonl(),
            empty.canonical_jsonl(),
            shard_b.canonical_jsonl(),
        ])
        .expect("merges with empty shard");
        assert_eq!(merged, full);
    }

    #[test]
    fn merge_rejects_overlaps_gaps_and_mismatched_campaigns() {
        let shard = report_with(vec![record()]).canonical_jsonl();
        // Overlap: the same index twice.
        let err = merge_canonical_streams(&[shard.clone(), shard.clone()]).expect_err("overlap");
        assert!(err.contains("duplicate"), "{err}");
        // Gap: index 1 without index 0.
        let gap = report_with(vec![JobRecord {
            index: 1,
            ..record()
        }])
        .canonical_jsonl();
        let err = merge_canonical_streams(&[gap]).expect_err("gap");
        assert!(err.contains("missing"), "{err}");
        // Campaign name mismatch.
        let mut other = report_with(vec![record()]);
        other.name = "u".into();
        let err =
            merge_canonical_streams(&[shard, other.canonical_jsonl()]).expect_err("name mismatch");
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn merge_rejects_spliced_truncated_and_trailing_garbage_lines() {
        let full = report_with(vec![
            record(),
            JobRecord {
                index: 1,
                ..record()
            },
        ])
        .canonical_jsonl();
        let lines: Vec<&str> = full.lines().collect();
        let (header, first, second) = (lines[0], lines[1], lines[2]);
        assert_eq!(
            merge_canonical_streams(std::slice::from_ref(&full)).expect("merges"),
            full
        );
        // What an append onto a torn tail leaves behind: a prefix sniffer
        // would read the outer `"index":1`.
        let spliced = format!("{},\"benchmark\":\"S{first}", &second[..10]);
        let truncated = first[..first.len() - 5].to_owned();
        let garbage_header = format!("{header}}}");
        for (bad, at) in [(spliced, 2), (truncated, 1), (garbage_header, 0)] {
            let mut torn = lines.clone();
            torn[at] = &bad;
            let stream = format!("{}\n", torn.join("\n"));
            let err = merge_canonical_streams(&[stream]).expect_err("rejected");
            assert!(err.contains("malformed line"), "{err}");
        }
    }

    #[test]
    fn header_and_record_lines_parse_in_full() {
        assert_eq!(
            header_fields("{\"campaign\":\"t\",\"jobs\":3}"),
            Some(("t".to_owned(), 3))
        );
        assert_eq!(
            header_fields("{\"campaign\":\"t\",\"jobs\":3,\"spec\":\"00ab\"}"),
            Some(("t".to_owned(), 3))
        );
        assert_eq!(record_index("{\"index\":7,\"kpa\":null}"), Some(7));
        for bad in [
            "{\"campaign\":\"t\",\"jobs\":3}}",
            "{\"campaign\":\"t\",\"jobs\":1.5}",
            "{\"campaign\":3,\"jobs\":3}",
            "{\"campaign\":\"t\"}",
        ] {
            assert_eq!(header_fields(bad), None, "{bad}");
        }
        for bad in [
            "{\"index\":3,\"bench",
            "{\"index\":3}}",
            "{\"index\":-1,\"kpa\":1}",
            "{\"index\":1.5,\"kpa\":1}",
            "{\"index\":\"2\",\"kpa\":1}",
            "{\"kpa\":1}",
            "[1]",
            "garbage",
        ] {
            assert_eq!(record_index(bad), None, "{bad}");
        }
    }

    #[test]
    fn cell_means_average_instances_then_schemes_average_cells() {
        let mk = |benchmark: &str, scheme: &str, seed: u64, kpa: Option<f64>| JobRecord {
            benchmark: benchmark.into(),
            scheme: scheme.into(),
            seed,
            kpa,
            ..record()
        };
        let records = vec![
            mk("FIR", "era", 1, Some(40.0)),
            mk("FIR", "era", 2, Some(60.0)),
            mk("MD5", "era", 1, Some(80.0)),
            mk("FIR", "assure", 1, Some(100.0)),
            mk("MD5", "assure", 1, None), // failed instance: floor
        ];
        let cells = kpa_cell_means(&records, "freq-table");
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].kpa, 50.0); // (40 + 60) / 2
        assert_eq!(cells[0].instances, 2);
        assert_eq!(cells[3].kpa, 50.0); // no instance: random-guess floor
        assert_eq!(cells[3].instances, 0);
        let averages = scheme_averages(&cells);
        assert_eq!(averages[0], ("era".to_owned(), 65.0)); // (50 + 80) / 2
        assert_eq!(averages[1], ("assure".to_owned(), 75.0)); // (100 + 50) / 2

        // Rows of a different attack are excluded.
        assert!(kpa_cell_means(&records, "sat").is_empty());
    }
}
