//! The checkpoint journal: append-only JSONL under the run directory.
//!
//! Line 1 is a header binding the journal to its campaign — name, total
//! job count, and the FNV-1a digest of the *spec file text* — so a
//! resume against an edited spec (whose cell grid could differ) is
//! rejected instead of silently mixing incompatible records. Every
//! following line is one completed cell's canonical record, exactly as
//! the worker streamed it. Records are flushed per append: an
//! orchestration killed at any instant loses at most the in-flight
//! cells, and `--resume` replays the rest for free.
//!
//! A truncated trailing line (the kill landed mid-write) is skipped on
//! resume and cut from the file before anything is appended; the
//! affected cell simply recomputes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use mlrl_engine::report::escape_for_header;
use mlrl_obs::json;

/// File name of the journal inside a run directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// The append-only completed-cell checkpoint of one orchestration.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    completed: BTreeMap<usize, String>,
}

impl Journal {
    /// Path of the journal file inside `run_dir`.
    pub fn path_in(run_dir: &Path) -> PathBuf {
        run_dir.join(JOURNAL_FILE)
    }

    /// Opens the journal of a run: creates a fresh one, or — with
    /// `resume` — replays an existing one after validating its header
    /// against this campaign's name, job count, and spec digest.
    ///
    /// # Errors
    ///
    /// - fresh run, journal already present (refuse to clobber a
    ///   resumable run; pass `--resume` or pick another `--run-dir`),
    /// - resume without a journal to resume from,
    /// - header mismatch (different spec/campaign than the journal's),
    /// - I/O errors creating the run dir or journal file.
    pub fn open(
        run_dir: &Path,
        campaign: &str,
        jobs: usize,
        spec_digest: u64,
        resume: bool,
    ) -> Result<Self, String> {
        let path = Self::path_in(run_dir);
        std::fs::create_dir_all(run_dir)
            .map_err(|e| format!("cannot create run dir {}: {e}", run_dir.display()))?;
        let header = format!(
            "{{\"campaign\":\"{}\",\"jobs\":{jobs},\"spec\":\"{spec_digest:016x}\"}}",
            escape_for_header(campaign)
        );
        let mut completed = BTreeMap::new();
        if resume {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot resume: no journal at {} ({e})", path.display()))?;
            let mut lines = text.lines();
            let found = lines.next().unwrap_or("").trim_end();
            if found != header {
                return Err(format!(
                    "journal {} belongs to a different run:\n  journal: {found}\n  this run: {header}",
                    path.display()
                ));
            }
            for line in lines {
                // A truncated final line parses as None and is skipped:
                // that cell recomputes.
                if let Some(index) = record_index(line) {
                    if index < jobs {
                        completed.entry(index).or_insert_with(|| line.to_owned());
                    }
                }
            }
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
            // Cut a torn tail back to the last complete line, so the next
            // record starts on a line of its own instead of splicing onto
            // the fragment. The header matched, so at most the header's
            // own newline can be missing.
            let kept = text.rfind('\n').map_or(0, |i| i + 1);
            if kept < text.len() {
                file.set_len(kept as u64)
                    .map_err(|e| format!("cannot truncate journal {}: {e}", path.display()))?;
                if kept == 0 {
                    writeln!(file, "{header}")
                        .and_then(|()| file.flush())
                        .map_err(|e| format!("cannot write journal header: {e}"))?;
                }
            }
            return Ok(Self {
                path,
                file,
                completed,
            });
        }
        if path.exists() {
            return Err(format!(
                "run dir already holds a journal ({}); pass --resume to continue it or choose a fresh --run-dir",
                path.display()
            ));
        }
        let mut file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        writeln!(file, "{header}").map_err(|e| format!("cannot write journal header: {e}"))?;
        file.flush().map_err(|e| e.to_string())?;
        Ok(Self {
            path,
            file,
            completed,
        })
    }

    /// Appends one completed cell (idempotent: a record already journaled
    /// — e.g. replayed by a restarted worker — is skipped).
    ///
    /// # Errors
    ///
    /// Returns a message on write failure (the checkpoint contract is
    /// broken at that point, so the orchestration must stop).
    pub fn record(&mut self, index: usize, line: &str) -> Result<(), String> {
        if self.completed.contains_key(&index) {
            return Ok(());
        }
        writeln!(self.file, "{line}")
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path.display()))?;
        self.completed.insert(index, line.to_owned());
        Ok(())
    }

    /// Completed cells, canonical record line per grid index.
    pub fn completed(&self) -> &BTreeMap<usize, String> {
        &self.completed
    }

    /// Number of completed cells.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether nothing has completed yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Whether a cell is already journaled.
    pub fn contains(&self, index: usize) -> bool {
        self.completed.contains_key(&index)
    }
}

/// Grid index of a canonical record line (`{"index":N,...}`): the
/// non-negative integer `index` of a line that parses in full as one JSON
/// object. `None` for malformed, truncated or spliced lines.
pub fn record_index(line: &str) -> Option<usize> {
    let index = json::parse(line)?.as_object()?.get("index")?.as_f64()?;
    // Integers up to 2^53 are exact in f64.
    (index >= 0.0 && index.fract() == 0.0 && index < 9_007_199_254_740_992.0)
        .then_some(index as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlrl-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn line(index: usize) -> String {
        format!("{{\"index\":{index},\"benchmark\":\"FIR\",\"kpa\":50.0000}}")
    }

    #[test]
    fn journals_append_flush_and_resume() {
        let dir = tmp("resume");
        let mut journal = Journal::open(&dir, "demo", 4, 0xABCD, false).expect("fresh");
        journal.record(2, &line(2)).expect("append");
        journal.record(0, &line(0)).expect("append");
        journal.record(2, &line(2)).expect("idempotent");
        assert_eq!(journal.len(), 2);
        drop(journal);

        // A second orchestration resumes the same run.
        let resumed = Journal::open(&dir, "demo", 4, 0xABCD, true).expect("resume");
        assert_eq!(resumed.len(), 2);
        assert!(resumed.contains(0) && resumed.contains(2));
        assert_eq!(resumed.completed()[&2], line(2));

        // Fresh open over an existing journal is refused.
        let err = Journal::open(&dir, "demo", 4, 0xABCD, false).expect_err("no clobber");
        assert!(err.contains("--resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_different_spec_and_skips_truncated_lines() {
        let dir = tmp("guard");
        let mut journal = Journal::open(&dir, "demo", 4, 0xABCD, false).expect("fresh");
        journal.record(1, &line(1)).expect("append");
        drop(journal);

        // Different digest, name, or job count: refused.
        for (name, jobs, digest) in [
            ("demo", 4usize, 0xEFu64),
            ("other", 4, 0xABCD),
            ("demo", 5, 0xABCD),
        ] {
            let err = Journal::open(&dir, name, jobs, digest, true).expect_err("mismatch");
            assert!(err.contains("different run"), "{err}");
        }

        // A truncated trailing record (killed mid-write) is skipped.
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(Journal::path_in(&dir))
            .expect("reopen");
        write!(file, "{{\"index\":3,\"bench").expect("partial write");
        drop(file);
        let resumed = Journal::open(&dir, "demo", 4, 0xABCD, true).expect("resume");
        assert_eq!(resumed.len(), 1, "only the complete record replays");
        assert!(!resumed.contains(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_cuts_a_torn_tail_before_appending() {
        let dir = tmp("torn");
        let mut journal = Journal::open(&dir, "demo", 4, 0xABCD, false).expect("fresh");
        journal.record(0, &line(0)).expect("append");
        drop(journal);
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(Journal::path_in(&dir))
                .expect("reopen");
            write!(file, "{{\"index\":1,\"benchmark\":\"S").expect("partial write");
        }

        let mut resumed = Journal::open(&dir, "demo", 4, 0xABCD, true).expect("resume");
        assert_eq!(resumed.len(), 1);
        resumed.record(1, &line(1)).expect("append after torn tail");
        drop(resumed);

        let again = Journal::open(&dir, "demo", 4, 0xABCD, true).expect("second resume");
        assert_eq!(again.len(), 2);
        assert_eq!(again.completed()[&0], line(0));
        assert_eq!(again.completed()[&1], line(1));
        let text = std::fs::read_to_string(Journal::path_in(&dir)).expect("read");
        assert!(text.ends_with('\n'));
        for l in text.lines() {
            assert!(l.matches("{\"index\":").count() <= 1, "spliced record: {l}");
        }
        assert_eq!(text.lines().count(), 3, "header plus two records:\n{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_restores_a_torn_header_newline() {
        let dir = tmp("torn-header");
        drop(Journal::open(&dir, "demo", 4, 0xABCD, false).expect("fresh"));
        let path = Journal::path_in(&dir);
        let len = std::fs::metadata(&path).expect("stat").len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open");
        file.set_len(len - 1).expect("drop the header's newline");
        drop(file);

        let mut resumed = Journal::open(&dir, "demo", 4, 0xABCD, true).expect("resume");
        resumed.record(2, &line(2)).expect("append");
        drop(resumed);
        let again = Journal::open(&dir, "demo", 4, 0xABCD, true).expect("second resume");
        assert_eq!(again.completed()[&2], line(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_index_accepts_only_whole_records() {
        assert_eq!(record_index(&line(7)), Some(7));
        let spliced = format!("{{\"index\":1,\"benchmark\":\"S{}", line(1));
        assert_eq!(record_index(&spliced), None);
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
    fn resume_skips_a_spliced_record() {
        let dir = tmp("spliced");
        let mut journal = Journal::open(&dir, "demo", 4, 0xABCD, false).expect("fresh");
        journal.record(0, &line(0)).expect("append");
        drop(journal);
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(Journal::path_in(&dir))
                .expect("reopen");
            // What an append onto a torn tail used to leave behind.
            writeln!(file, "{{\"index\":1,\"benchmark\":\"S{}", line(1)).expect("write");
        }
        let resumed = Journal::open(&dir, "demo", 4, 0xABCD, true).expect("resume");
        assert_eq!(resumed.len(), 1, "the spliced line does not replay");
        assert!(!resumed.contains(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_a_journal_is_an_error() {
        let dir = tmp("missing");
        let err = Journal::open(&dir, "demo", 1, 1, true).expect_err("nothing to resume");
        assert!(err.contains("cannot resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
