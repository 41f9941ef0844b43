//! Shared command-line plumbing for the `mlrl-bench` binaries.
//!
//! Every binary used to copy-paste its own `--flag value` scanner, each
//! with a slightly different positional-argument wart (the worst one
//! skipped the token *after* any `--flag`, value-taking or not). This
//! module is the single parser: flags declared boolean consume no value,
//! every other `--flag` consumes the next non-flag token, and whatever
//! remains is positional — so `fig6_kpa --quick` and
//! `ablation_budget MD5 --instances 2` and `ablation_budget
//! --instances 2 MD5` all mean what they look like.
//!
//! [`run_campaigns`] is the shared campaign front end: it applies the
//! `--threads` override, and routes `--canonical` / `--shard I/N` runs
//! to the canonical JSON-lines stream (shard outputs concatenate per
//! campaign, ready for `mlrl merge`).

use mlrl_engine::{CampaignReport, CampaignSpec, Engine, ShardSpec};

/// Boolean flags every campaign binary understands (pass extras on top).
pub const CAMPAIGN_BOOLEAN_FLAGS: &[&str] = &["canonical", "csv"];

/// Parsed command line of a bench binary.
pub struct BenchArgs {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl BenchArgs {
    /// Parses `std::env::args`, treating each name in `boolean_flags`
    /// (without the `--`) as value-free.
    pub fn from_env(boolean_flags: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1).collect(), boolean_flags)
    }

    /// Parses an explicit argument vector (exposed for tests).
    pub fn parse(argv: Vec<String>, boolean_flags: &[&str]) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a);
                continue;
            };
            let value = if boolean_flags.contains(&name) {
                None
            } else {
                let take = it.peek().is_some_and(|v| !v.starts_with("--"));
                if take {
                    it.next()
                } else {
                    None
                }
            };
            flags.push((name.to_owned(), value));
        }
        Self { positional, flags }
    }

    /// Whether `--name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name`, when present.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parses `--name`'s value, falling back to `default`.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flag(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The `index`-th positional argument.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// Parses the `index`-th positional argument, falling back to
    /// `default`.
    pub fn positional_num<T: std::str::FromStr>(&self, index: usize, default: T) -> T {
        self.positional(index)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `--name`'s value split on commas (e.g. `--benchmarks a,b,c`).
    pub fn list(&self, name: &str) -> Option<Vec<String>> {
        self.flag(name)
            .map(|v| v.split(',').map(|s| s.trim().to_owned()).collect())
    }

    /// The `--shard I/N` partition selector, when present.
    ///
    /// # Errors
    ///
    /// Returns the [`ShardSpec::parse`] message on a malformed value.
    pub fn shard(&self) -> Result<Option<ShardSpec>, String> {
        match self.flag("shard") {
            Some(token) => ShardSpec::parse(token).map(Some),
            None => match self.has("shard") {
                true => Err("--shard needs a value (e.g. --shard 0/3)".to_owned()),
                false => Ok(None),
            },
        }
    }
}

/// Builds a driver's engine from the shared cache flags: `--cache-dir
/// DIR` persists artifacts across invocations, `--cache-cap BYTES`
/// (plain bytes or `64k`/`64m`/`2g`) additionally bounds the directory
/// with least-recently-used eviction — the knob long-lived shared cache
/// dirs (orchestrated or cross-invocation sweeps) need.
///
/// # Errors
///
/// Returns a message on a malformed `--cache-cap` value or a cap
/// without a directory.
pub fn build_engine(args: &BenchArgs) -> Result<Engine, String> {
    Engine::from_cache_flags(args.flag("cache-dir"), args.flag("cache-cap"))
}

/// Runs a driver's campaigns, honouring the shared campaign flags.
///
/// - `--threads N` overrides every spec's worker count;
/// - `--opt-level o0|o1|o2` overrides every spec's netlist optimizer
///   level (gate-level cells only — RTL cells never lower);
/// - `--canonical` prints each campaign's canonical JSON-lines report to
///   stdout instead of returning reports;
/// - `--shard I/N` runs only that deterministic partition of each
///   campaign and implies canonical output (concatenate one such stream
///   per shard with `mlrl merge` to rebuild the unsharded bytes);
/// - `--trace-out FILE` / `--metrics-out FILE` enable run telemetry and
///   export a Chrome trace / metrics rollup after the campaigns finish.
///   Telemetry is a pure side channel: canonical bytes never change;
/// - `--trace-sample N` keeps 1-in-N hot-class trace spans (phase and
///   cell spans always kept; aggregate stats stay exact).
///
/// Returns `Ok(None)` when canonical/shard output was printed (the
/// binary is done), or `Ok(Some(reports))` — one per spec, failures
/// already warned to stderr — for the driver's table printer.
///
/// # Errors
///
/// Returns a message on a malformed `--shard` value or an unwritable
/// telemetry output path.
pub fn run_campaigns(
    engine: &Engine,
    specs: &[CampaignSpec],
    args: &BenchArgs,
) -> Result<Option<Vec<CampaignReport>>, String> {
    let shard = args.shard()?;
    if args.flag("trace-out").is_some() || args.flag("metrics-out").is_some() {
        mlrl_obs::enable();
        // `--trace-sample N` bounds trace volume on long sweeps (phase
        // and cell spans always kept; stats stay exact); the /proc
        // sampler puts `proc.rss_bytes.peak` into the metrics rollup.
        if let Some(n) = args.flag("trace-sample").and_then(|v| v.parse().ok()) {
            mlrl_obs::set_span_sample(n);
        }
        mlrl_obs::proc::start_sampler(std::time::Duration::from_millis(200));
    }
    let threads: Option<usize> = args.flag("threads").and_then(|v| v.parse().ok());
    let opt_level = args
        .flag("opt-level")
        .map(mlrl_engine::spec::OptLevel::parse)
        .transpose()
        .map_err(|e| format!("bad --opt-level: {e}"))?;
    let specs: Vec<CampaignSpec> = specs
        .iter()
        .map(|spec| {
            let mut spec = spec.clone();
            if let Some(threads) = threads {
                spec.threads = threads;
            }
            if let Some(level) = opt_level {
                spec.opt_level = level;
            }
            spec
        })
        .collect();
    if shard.is_some() || args.has("canonical") {
        for spec in &specs {
            print!("{}", engine.run_shard(spec, shard).canonical_jsonl());
        }
        write_telemetry_artifacts(args)?;
        return Ok(None);
    }
    let reports: Vec<CampaignReport> = specs
        .iter()
        .map(|spec| {
            let report = engine.run(spec);
            if report.failed_count() > 0 {
                eprintln!("warning: {}", report.summary());
            }
            report
        })
        .collect();
    write_telemetry_artifacts(args)?;
    Ok(Some(reports))
}

/// Exports the telemetry artifacts requested by `--trace-out` /
/// `--metrics-out`, a no-op when neither flag was passed.
fn write_telemetry_artifacts(args: &BenchArgs) -> Result<(), String> {
    if let Some(path) = args.flag("trace-out") {
        mlrl_obs::write_trace_json(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.flag("metrics-out") {
        let json = mlrl_obs::snapshot().to_json();
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Prints `error: <message>` and exits non-zero — the uniform failure
/// path of the bench binaries.
pub fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| (*t).to_owned()).collect()
    }

    #[test]
    fn boolean_flags_do_not_swallow_positionals() {
        // The historical wart: `--quick MD5` used to lose `MD5`.
        let args = BenchArgs::parse(argv(&["--quick", "MD5", "--relocks", "9"]), &["quick"]);
        assert!(args.has("quick"));
        assert_eq!(args.positional(0), Some("MD5"));
        assert_eq!(args.num("relocks", 0usize), 9);
    }

    #[test]
    fn positionals_mix_with_value_flags_in_any_order() {
        let before = BenchArgs::parse(argv(&["MD5", "--instances", "2"]), &[]);
        let after = BenchArgs::parse(argv(&["--instances", "2", "MD5"]), &[]);
        for args in [before, after] {
            assert_eq!(args.positional(0), Some("MD5"));
            assert_eq!(args.num("instances", 0usize), 2);
        }
    }

    #[test]
    fn lists_shards_and_defaults_parse() {
        let args = BenchArgs::parse(
            argv(&["--benchmarks", "a, b,c", "--shard", "1/4", "7"]),
            &[],
        );
        assert_eq!(
            args.list("benchmarks"),
            Some(vec!["a".to_owned(), "b".to_owned(), "c".to_owned()])
        );
        let shard = args.shard().expect("parses").expect("present");
        assert_eq!((shard.index, shard.count), (1, 4));
        assert_eq!(args.positional_num(0, 0u64), 7);
        assert_eq!(args.positional_num(1, 42u64), 42);

        assert!(BenchArgs::parse(argv(&["--shard", "4/4"]), &[])
            .shard()
            .is_err());
        assert!(BenchArgs::parse(argv(&[]), &[])
            .shard()
            .expect("ok")
            .is_none());
    }

    #[test]
    fn cache_flags_build_the_right_engine() {
        let dir = std::env::temp_dir().join(format!("mlrl-bench-args-{}", std::process::id()));
        let plain = BenchArgs::parse(argv(&[]), &[]);
        build_engine(&plain).expect("in-memory engine");
        let capped = BenchArgs::parse(
            argv(&["--cache-dir", dir.to_str().unwrap(), "--cache-cap", "64k"]),
            &[],
        );
        build_engine(&capped).expect("capped engine");
        let orphan_cap = BenchArgs::parse(argv(&["--cache-cap", "64k"]), &[]);
        assert!(build_engine(&orphan_cap).is_err());
        let bad_cap = BenchArgs::parse(
            argv(&["--cache-dir", dir.to_str().unwrap(), "--cache-cap", "lots"]),
            &[],
        );
        assert!(build_engine(&bad_cap).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flag_followed_by_a_flag_takes_no_value() {
        let args = BenchArgs::parse(argv(&["--seed", "--csv"]), &["csv"]);
        assert!(args.has("seed"));
        assert_eq!(args.flag("seed"), None);
        assert!(args.has("csv"));
    }
}
