//! The run directory of an orchestration: the names of its files, the
//! format of `fleet.json`, and how they are written. Every file but the
//! append-only journal is replaced whole through
//! [`mlrl_obs::write_atomic`], so `mlrl top` never reads a torn file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mlrl_obs::{json, Metrics};

/// A run directory.
#[derive(Debug, Clone)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// The run directory at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self(root.into())
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.0
    }

    /// The checkpoint journal, `journal.jsonl`.
    pub fn journal(&self) -> PathBuf {
        self.0.join("journal.jsonl")
    }

    /// The merged fleet trace, `trace.json`.
    pub fn trace(&self) -> PathBuf {
        self.0.join("trace.json")
    }

    /// The default shared artifact cache, `cache/`.
    pub fn cache(&self) -> PathBuf {
        self.0.join("cache")
    }

    /// The merged canonical stream, `merged.jsonl`.
    pub fn merged(&self) -> PathBuf {
        self.0.join("merged.jsonl")
    }

    fn write(&self, name: &str, text: &str) -> Result<(), String> {
        let path = self.0.join(name);
        mlrl_obs::write_atomic(&path, text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Replaces `fleet.json`; the error names the file.
    pub(crate) fn write_fleet(&self, fleet: &Fleet) -> Result<(), String> {
        self.write("fleet.json", &fleet.to_json())
    }

    /// The fleet snapshot, when `fleet.json` exists and parses.
    pub(crate) fn read_fleet(&self) -> Option<Fleet> {
        Fleet::parse(&std::fs::read_to_string(self.0.join("fleet.json")).ok()?)
    }

    /// Replaces `metrics.json` with `metrics`.
    pub fn write_metrics(&self, metrics: &Metrics) -> Result<(), String> {
        self.write("metrics.json", &(metrics.to_json() + "\n"))
    }

    /// The metrics rollup, when `metrics.json` exists and parses.
    pub fn read_metrics(&self) -> Option<Metrics> {
        Metrics::parse(&std::fs::read_to_string(self.0.join("metrics.json")).ok()?)
    }

    /// Replaces `trace.json` with this process's trace.
    pub fn write_trace(&self) -> Result<(), String> {
        self.write("trace.json", &(mlrl_obs::trace_json() + "\n"))
    }

    /// Replaces `merged.jsonl` with the canonical stream.
    pub fn write_merged(&self, canonical: &str) -> Result<(), String> {
        self.write("merged.jsonl", canonical)
    }
}

/// Milliseconds since the UNIX epoch, the clock of `fleet.json`.
pub(crate) fn unix_ms() -> u64 {
    let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    now.unwrap_or_default().as_millis() as u64
}

/// The live fleet snapshot in `fleet.json`: campaign progress, the
/// blended ETA and one row per worker slot, in spawn order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fleet {
    /// When the snapshot was taken, by [`unix_ms`].
    pub updated_unix_ms: u64,
    pub cells_total: u64,
    pub cells_done: u64,
    pub eta_s: Option<u64>,
    pub workers: Vec<FleetWorker>,
}

/// One worker slot of a [`Fleet`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FleetWorker {
    pub id: u64,
    /// `idle`, `running`, `draining`, `wedged`, `crashed` or `done`.
    pub state: String,
    /// Cells assigned and not yet done.
    pub pending: u64,
    /// Milliseconds since the worker's last protocol line.
    pub hb_ms: u64,
    /// The in-flight cell and its milliseconds so far.
    pub cell: Option<(u64, u64)>,
}

impl Fleet {
    /// One line of JSON, newline-terminated.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = json::Writer::new(&mut out);
        w.begin_object();
        w.key("updated_unix_ms").uint(self.updated_unix_ms);
        w.key("cells_total").uint(self.cells_total);
        w.key("cells_done").uint(self.cells_done);
        w.key("eta_s").uint(self.eta_s);
        w.key("workers").begin_array();
        for worker in &self.workers {
            w.begin_object().key("id").uint(worker.id);
            w.key("state").str(&worker.state);
            w.key("pending").uint(worker.pending);
            w.key("hb_ms").uint(worker.hb_ms);
            if let Some((cell, ms)) = worker.cell {
                w.key("cell").uint(cell).key("cell_ms").uint(ms);
            }
            w.end_object();
        }
        w.end_array().end_object();
        out.push('\n');
        out
    }

    /// Parses [`Fleet::to_json`]'s output; `None` for anything else.
    pub fn parse(text: &str) -> Option<Fleet> {
        let doc = json::parse(text)?;
        let obj = doc.as_object()?;
        let uint = |o: &BTreeMap<String, json::Value>, k: &str| o.get(k)?.as_u64();
        let mut workers = Vec::new();
        for w in obj.get("workers")?.as_array()? {
            let w = w.as_object()?;
            let cell = match (w.get("cell"), w.get("cell_ms")) {
                (None, None) => None,
                (Some(cell), Some(ms)) => Some((cell.as_u64()?, ms.as_u64()?)),
                _ => return None,
            };
            workers.push(FleetWorker {
                id: uint(w, "id")?,
                state: w.get("state")?.as_str()?.to_owned(),
                pending: uint(w, "pending")?,
                hb_ms: uint(w, "hb_ms")?,
                cell,
            });
        }
        let eta_s = match obj.get("eta_s")? {
            json::Value::Null => None,
            eta => Some(eta.as_u64()?),
        };
        Some(Fleet {
            updated_unix_ms: uint(obj, "updated_unix_ms")?,
            cells_total: uint(obj, "cells_total")?,
            cells_done: uint(obj, "cells_done")?,
            eta_s,
            workers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Fleet {
        let worker = |id, state: &str, cell| FleetWorker {
            id,
            state: state.to_owned(),
            pending: 2 - id,
            hb_ms: 200 + id,
            cell,
        };
        Fleet {
            updated_unix_ms: 1_700_000_000_123,
            cells_total: 4,
            cells_done: 1,
            eta_s: Some(7),
            workers: vec![
                worker(0, "running", Some((2, 1500))),
                worker(1, "idle", None),
            ],
        }
    }

    #[test]
    fn fleet_bytes_are_pinned_and_read_back() {
        let fleet = fleet();
        let text = fleet.to_json();
        assert_eq!(
            text,
            "{\"updated_unix_ms\":1700000000123,\"cells_total\":4,\"cells_done\":1,\"eta_s\":7,\
             \"workers\":[{\"id\":0,\"state\":\"running\",\"pending\":2,\"hb_ms\":200,\
             \"cell\":2,\"cell_ms\":1500},{\"id\":1,\"state\":\"idle\",\"pending\":1,\
             \"hb_ms\":201}]}\n"
        );
        assert_eq!(Fleet::parse(&text), Some(fleet.clone()));
        let no_eta = Fleet {
            eta_s: None,
            ..fleet
        };
        assert!(no_eta.to_json().contains("\"eta_s\":null,"));
        assert_eq!(Fleet::parse(&no_eta.to_json()), Some(no_eta));
    }

    #[test]
    fn malformed_fleets_are_rejected() {
        let text = fleet().to_json();
        for (from, to) in [
            ("\"hb_ms\":200", "\"hb_ms\":-1"),
            ("\"pending\":2", "\"pending\":2.5"),
            (",\"cell_ms\":1500", ""),
            ("\"eta_s\":7", "\"eta_s\":\"7\""),
            ("\"state\":\"idle\"", "\"state\":1"),
        ] {
            assert!(Fleet::parse(&text.replace(from, to)).is_none(), "{to}");
        }
        assert!(Fleet::parse(&text[..text.len() - 3]).is_none());
    }

    #[test]
    fn files_are_replaced_whole_and_read_back() {
        let root = std::env::temp_dir().join(format!("mlrl-run-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mkdir");
        let dir = RunDir::new(&root);
        assert!(dir.read_fleet().is_none() && dir.read_metrics().is_none());
        dir.write_fleet(&fleet()).expect("fleet");
        let mut metrics = Metrics::default();
        metrics.counters.insert("cells.completed".into(), 4);
        dir.write_metrics(&metrics).expect("metrics");
        dir.write_merged("{\"campaign\":\"c\",\"jobs\":0}\n")
            .expect("merged");
        assert_eq!(dir.read_fleet(), Some(fleet()));
        assert_eq!(dir.read_metrics(), Some(metrics));
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["fleet.json", "merged.jsonl", "metrics.json"]);
        let _ = std::fs::remove_dir_all(&root);
    }
}
