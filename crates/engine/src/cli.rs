//! The one command-line parser of `mlrl` and the `mlrl-bench` binaries.
//!
//! Each subcommand and binary declares a [`Command`], whose usage line is
//! its flag table. An unknown flag, a value flag with no value, an
//! operand the usage line has no room for and an unparsable number are
//! usage errors, raised before any work starts. A value flag consumes the
//! next token unless that starts with `--`; other tokens are operands, so
//! flags and operands mix in any order. When a flag repeats, the first
//! occurrence wins. [`run_main`] is the `main` of every binary.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use mlrl_obs::Metrics;

use crate::job::ShardSpec;
use crate::run::Engine;
use crate::spec::{CampaignSpec, OptLevel};

/// The flags every campaign front end shares, read by [`CampaignFlags`].
pub const CAMPAIGN_FLAGS: &str = "[--threads N] [--opt-level o0|o1|o2] [--canonical] \
    [--shard I/N] [--cache-dir DIR] [--cache-cap BYTES] [--trace-out FILE] [--metrics-out FILE] \
    [--trace-sample N]";

/// A subcommand or binary, declared by its usage line: the invocation,
/// its operands (`<spec.txt>`, `[seed]`, `<shard.jsonl>...` for any
/// number), then one bracketed entry per flag, `[--seed N]` for a value
/// flag and `[--canonical]` for a boolean one. Segments are joined with
/// spaces, so [`CAMPAIGN_FLAGS`] can follow.
#[derive(Debug)]
pub struct Command(pub &'static [&'static str]);

impl Command {
    /// The bracketed entries: flags (`--seed N`) and operand names (`seed`).
    fn entries(&self) -> impl Iterator<Item = &'static str> {
        let pieces = self.0.iter().flat_map(|s| s.split('[').skip(1));
        pieces.filter_map(|piece| piece.split(']').next())
    }

    /// The placeholder of flag `name` (`None` for a boolean flag), or
    /// `None` when the table lacks it.
    fn flag(&self, name: &str) -> Option<(&'static str, Option<&'static str>)> {
        let entries = self.entries().filter(|e| e.starts_with('-'));
        let mut flags = entries.map(|e| e.split_once(' ').map_or((e, None), |(n, v)| (n, Some(v))));
        flags.find(|(n, _)| *n == name)
    }

    /// The most operands the usage line admits: one per `<x>` or `[x]`
    /// operand, any number once one ends in `...`.
    fn max_operands(&self) -> usize {
        let words = self.0.iter().flat_map(|s| s.split_whitespace());
        let operands =
            words.filter(|w| w.starts_with('<') || w.starts_with('[') && !w.starts_with("[-"));
        operands
            .map(|w| if w.ends_with("...") { usize::MAX } else { 1 })
            .fold(0, usize::saturating_add)
    }

    /// `usage: ` and the usage line.
    pub fn usage(&self) -> String {
        format!("usage: {}", self.0.join(" "))
    }

    /// Checks `argv` (the command's own name excluded) against the table:
    /// an unknown flag, a value flag with no value or a surplus operand is
    /// a usage error.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Parsed<'_>, String> {
        let mut args = Parsed {
            cmd: self,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let max_operands = self.max_operands();
        let mut it = argv.into_iter().peekable();
        while let Some(token) = it.next() {
            if !token.starts_with('-') || token == "-" {
                if args.positional.len() == max_operands {
                    return Err(args.error(format!("unexpected operand `{token}`")));
                }
                args.positional.push(token);
                continue;
            }
            let Some((name, value)) = self.flag(&token) else {
                return Err(args.error(format!("unknown flag `{token}`")));
            };
            let value = value
                .map(|_| it.next_if(|v| !v.starts_with("--")))
                .map(|v| v.ok_or_else(|| args.error(format!("{name} needs a value"))))
                .transpose()?;
            args.flags.push((name, value));
        }
        Ok(args)
    }
}

/// An argument vector checked against a [`Command`]. Looking up a flag
/// the table does not declare is a bug and panics.
#[derive(Debug)]
pub struct Parsed<'a> {
    cmd: &'a Command,
    positional: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Parsed<'_> {
    /// `message`, then the usage line.
    pub fn error(&self, message: impl std::fmt::Display) -> String {
        format!("{message}\n{}", self.cmd.usage())
    }

    /// The positional operands.
    pub fn positionals(&self) -> &[String] {
        &self.positional
    }

    /// The `index`-th positional operand.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// The `index`-th positional operand, or the usage line as the error.
    pub fn required(&self, index: usize) -> Result<&str, String> {
        self.positional(index).ok_or_else(|| self.cmd.usage())
    }

    /// The `index`-th positional operand as a number (`default` when
    /// absent); one that does not parse is a usage error.
    pub fn positional_num<T: FromStr>(&self, index: usize, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let Some(token) = self.positional(index) else {
            return Ok(default);
        };
        token.parse().map_err(|e| {
            let mut operands = self.cmd.entries().filter(|e| !e.starts_with('-'));
            let name = operands.nth(index).unwrap_or("operand");
            self.error(format!("bad {name} `{token}`: {e}"))
        })
    }

    fn lookup(&self, name: &str) -> Option<&Option<String>> {
        let declared = self.cmd.flag(name).is_some();
        assert!(declared, "`{name}` is not in the flag table");
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether flag `name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The value of flag `name`, when passed.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.lookup(name).and_then(Option::as_deref)
    }

    /// The value of flag `name` split on commas (`--benchmarks a,b,c`).
    pub fn list(&self, name: &str) -> Option<Vec<String>> {
        let value = self.value(name)?;
        Some(value.split(',').map(|s| s.trim().to_owned()).collect())
    }

    /// The value of numeric flag `name` (`default` when absent); one that
    /// does not parse is a usage error.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }

    /// The value of numeric flag `name`, when passed; one that does not
    /// parse is a usage error.
    pub fn opt_num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| self.error(format!("bad {name} `{v}`: {e}")))
        };
        self.value(name).map(parse).transpose()
    }
}

/// The `main` of every binary: runs `body`; an error prints `error:
/// <message>` and exits 1. A closed stdout (`mlrl gen FIR | head -c 1`)
/// ends the program quietly with exit 0: `print!` panics when its write
/// fails, and this is the one place that tells that panic from a bug.
pub fn run_main(body: impl FnOnce() -> Result<(), String>) -> ExitCode {
    let report = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if !is_closed_stdout(info.payload()) {
            report(info);
        }
    }));
    match panic::catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(payload) if is_closed_stdout(&*payload) => ExitCode::SUCCESS,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Whether a panic is `print!`'s report of a write to a closed pipe
/// (`failed printing to stdout: Broken pipe (os error 32)`).
fn is_closed_stdout(payload: &(dyn std::any::Any + Send)) -> bool {
    let message = payload.downcast_ref::<String>().map_or("", String::as_str);
    let broken_pipe = std::io::ErrorKind::BrokenPipe.to_string();
    message.starts_with("failed printing to stdout")
        && message.to_ascii_lowercase().contains(&broken_pipe)
}

/// The `--opt-level`, when passed; a bad one errs with the valid levels.
pub fn opt_level(args: &Parsed) -> Result<Option<OptLevel>, String> {
    let level = args.value("--opt-level").map(OptLevel::parse).transpose();
    level.map_err(|e| format!("bad --opt-level: {e}"))
}

/// The [`CAMPAIGN_FLAGS`], validated.
pub struct CampaignFlags {
    /// `--threads`: overrides every spec's worker count.
    pub threads: Option<usize>,
    /// `--opt-level`: overrides every spec's netlist optimizer level.
    pub opt_level: Option<OptLevel>,
    /// `--canonical`: print the canonical JSON-lines stream.
    pub canonical: bool,
    /// `--shard I/N`: run only that deterministic partition.
    pub shard: Option<ShardSpec>,
    /// The engine `--cache-dir` / `--cache-cap` ask for.
    pub engine: Engine,
    /// `--trace-out` / `--metrics-out` / `--trace-sample`.
    pub telemetry: Telemetry,
}

impl CampaignFlags {
    /// Reads the [`CAMPAIGN_FLAGS`] of `args`, rejecting a bad number, opt
    /// level, shard or cache cap.
    pub fn parse(args: &Parsed) -> Result<Self, String> {
        Ok(Self {
            threads: args.opt_num("--threads")?,
            opt_level: opt_level(args)?,
            canonical: args.has("--canonical"),
            shard: args.value("--shard").map(ShardSpec::parse).transpose()?,
            engine: Engine::from_cache_flags(args.value("--cache-dir"), args.value("--cache-cap"))?,
            telemetry: Telemetry::parse(args)?,
        })
    }

    /// `spec` with the `--threads` and `--opt-level` overrides applied.
    pub fn apply(&self, spec: &CampaignSpec) -> CampaignSpec {
        CampaignSpec {
            threads: self.threads.unwrap_or(spec.threads),
            opt_level: self.opt_level.unwrap_or(spec.opt_level),
            ..spec.clone()
        }
    }
}

/// The run-telemetry flags. Telemetry is a pure side channel: canonical
/// bytes are identical with it on or off.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// `--trace-out`: Chrome trace-event JSON (Perfetto-loadable).
    pub trace_out: Option<String>,
    /// `--metrics-out`: the metrics rollup.
    pub metrics_out: Option<String>,
    /// `--trace-sample N`: keep 1-in-N hot-class spans (phase and cell
    /// spans always kept; aggregate stats stay exact).
    pub sample: Option<u64>,
}

impl Telemetry {
    /// Reads `--trace-out`, `--metrics-out` and `--trace-sample`.
    pub fn parse(args: &Parsed) -> Result<Self, String> {
        Ok(Self {
            trace_out: args.value("--trace-out").map(str::to_owned),
            metrics_out: args.value("--metrics-out").map(str::to_owned),
            sample: args.opt_num("--trace-sample")?,
        })
    }

    /// Enables the sink with span sampling and a `/proc/self` sampler
    /// (the `proc.rss_bytes` / `proc.cpu_ms` gauges).
    pub fn enable(&self) {
        mlrl_obs::enable();
        if let Some(n) = self.sample {
            mlrl_obs::set_span_sample(n);
        }
        mlrl_obs::proc::start_sampler(Duration::from_millis(200));
    }

    /// Enables the sink when an artifact was asked for; returns whether.
    pub fn arm(&self) -> bool {
        let wanted = self.trace_out.is_some() || self.metrics_out.is_some();
        if wanted {
            self.enable();
        }
        wanted
    }

    /// Writes the artifacts asked for, or a message naming an unwritable
    /// path; `metrics` overrides the local snapshot (the orchestrator
    /// passes its fleet rollup).
    pub fn write(&self, metrics: Option<&Metrics>) -> Result<(), String> {
        if let Some(path) = &self.trace_out {
            mlrl_obs::write_atomic(Path::new(path), &(mlrl_obs::trace_json() + "\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        if let Some(path) = &self.metrics_out {
            let json = metrics.map_or_else(|| mlrl_obs::snapshot().to_json(), Metrics::to_json);
            mlrl_obs::write_atomic(Path::new(path), &(json + "\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: Command = Command(&[
        "bench [n_ops] [seed] [--quick] [--relocks N] [--benchmarks a,b,c] [-o FILE]",
        CAMPAIGN_FLAGS,
    ]);

    fn parse(tokens: &[&str]) -> Result<Parsed<'static>, String> {
        BENCH.parse(tokens.iter().map(|t| (*t).to_owned()))
    }

    #[test]
    fn boolean_flags_do_not_swallow_positionals() {
        let args = parse(&["--quick", "MD5", "--relocks", "9"]).unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.positional(0), Some("MD5"));
        assert_eq!(args.num("--relocks", 0usize), Ok(9));
    }

    #[test]
    fn positionals_mix_with_value_flags_in_any_order() {
        for argv in [["MD5", "--relocks", "2"], ["--relocks", "2", "MD5"]] {
            let args = parse(&argv).unwrap();
            assert_eq!(args.positionals(), ["MD5"]);
            assert_eq!(args.num("--relocks", 0usize), Ok(2));
        }
        let args = parse(&["-o", "out.v", "--relocks", "-1"]).unwrap();
        assert_eq!(args.value("-o"), Some("out.v"));
        assert!(args.num("--relocks", 0usize).is_err());
    }

    #[test]
    fn a_flag_followed_by_a_flag_is_a_usage_error() {
        let err = parse(&["--relocks", "--canonical"]).unwrap_err();
        assert!(
            err.starts_with("--relocks needs a value\nusage: bench"),
            "{err}"
        );
        assert!(parse(&["MD5", "-o"])
            .unwrap_err()
            .contains("-o needs a value"));
    }

    #[test]
    fn unknown_flags_and_unparsable_numbers_are_usage_errors() {
        for (argv, needle) in [
            (&["--threds", "4"][..], "unknown flag `--threds`"),
            (&["-x"], "unknown flag `-x`"),
            (&["--quick=1"], "unknown flag `--quick=1`"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(
                err.contains(needle) && err.contains("usage: bench"),
                "{err}"
            );
        }
        let args = parse(&["banana", "--relocks", "x"]).unwrap();
        let err = args.positional_num(0, 1usize).unwrap_err();
        assert!(err.starts_with("bad n_ops `banana`"), "{err}");
        assert_eq!(args.positional_num(1, 42u64), Ok(42));
        assert!(args
            .num("--relocks", 0usize)
            .unwrap_err()
            .contains("--relocks"));
        let err = CampaignFlags::parse(&parse(&["--threads", "many"]).unwrap())
            .err()
            .unwrap();
        assert!(err.contains("bad --threads `many`"), "{err}");
    }

    #[test]
    fn operands_beyond_the_usage_line_are_usage_errors() {
        let err = parse(&["8", "--quick", "1", "extra"]).unwrap_err();
        assert!(
            err.starts_with("unexpected operand `extra`\nusage: bench"),
            "{err}"
        );
        let merge = Command(&["merge <shard.jsonl>... [-o FILE]"]);
        let shards = ["a", "b", "c"].map(str::to_owned);
        assert_eq!(merge.parse(shards).unwrap().positionals().len(), 3);
        let none = Command(&["none [--quick]"]);
        assert!(none.parse(["x".to_owned()]).is_err());
    }

    #[test]
    #[should_panic(expected = "not in the flag table")]
    fn looking_up_an_undeclared_flag_panics() {
        parse(&[]).unwrap().has("--relock");
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        let usage = BENCH.usage();
        assert!(usage.starts_with(
            "usage: bench [n_ops] [seed] [--quick] [--relocks N] [--benchmarks a,b,c] [-o FILE] \
             [--threads N] [--opt-level o0|o1|o2] [--canonical] [--shard I/N]"
        ));
        assert!(
            usage.ends_with("[--metrics-out FILE] [--trace-sample N]"),
            "{usage}"
        );
        for flag in [
            "--quick",
            "--relocks",
            "-o",
            "--canonical",
            "--trace-sample",
        ] {
            assert!(BENCH.flag(flag).is_some(), "{flag}");
        }
        assert_eq!(BENCH.flag("--canonical"), Some(("--canonical", None)));
        assert_eq!(
            BENCH.flag("--cache-cap"),
            Some(("--cache-cap", Some("BYTES")))
        );
        assert_eq!(BENCH.flag("seed"), None);
    }

    #[test]
    fn lists_shards_and_defaults_parse() {
        let args = parse(&["--benchmarks", "a, b,c", "--shard", "1/4", "7"]).unwrap();
        assert_eq!(
            args.list("--benchmarks"),
            Some(vec!["a".to_owned(), "b".to_owned(), "c".to_owned()])
        );
        let flags = CampaignFlags::parse(&args).unwrap();
        let shard = flags.shard.expect("present");
        assert_eq!((shard.index, shard.count), (1, 4));
        assert!(!flags.canonical && flags.threads.is_none());
        assert_eq!(args.positional_num(0, 0u64), Ok(7));

        assert!(CampaignFlags::parse(&parse(&["--shard", "4/4"]).unwrap()).is_err());
        let plain = CampaignFlags::parse(&parse(&["--canonical"]).unwrap()).unwrap();
        assert!(plain.canonical && plain.shard.is_none());
    }

    #[test]
    fn cache_flags_build_the_right_engine() {
        let dir = std::env::temp_dir().join(format!("mlrl-cli-flags-{}", std::process::id()));
        let dir = dir.to_str().unwrap();
        let engine = |argv: &[&str]| CampaignFlags::parse(&parse(argv).unwrap()).map(|f| f.engine);
        engine(&[]).expect("in-memory engine");
        engine(&["--cache-dir", dir, "--cache-cap", "64k"]).expect("capped engine");
        assert!(engine(&["--cache-cap", "64k"]).is_err());
        assert!(engine(&["--cache-dir", dir, "--cache-cap", "lots"]).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
