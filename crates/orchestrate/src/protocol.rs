//! The line-delimited worker protocol.
//!
//! A worker process (`mlrl worker <spec> --cells ...`) speaks to its
//! supervisor exclusively through newline-terminated stdout lines:
//!
//! ```text
//! mlrl-worker v1 cells=3
//! start 7
//! done 7 {"index":7,"benchmark":...}
//! heartbeat
//! bye 3
//! ```
//!
//! `done` carries the cell's *canonical record line* verbatim — the
//! supervisor journals it byte-for-byte, which is what makes the merged
//! orchestrated report identical to a single-process run. `heartbeat`
//! lines flow on an interval so the supervisor can tell a wedged worker
//! (no lines at all) from one grinding through an expensive SAT cell.
//! Unknown lines are ignored (forward compatibility; stray prints must
//! not kill a campaign), and every emitter flushes per line. A `done`
//! line whose record does not parse as a whole record of its own index is
//! dropped like an unknown line.

use mlrl_engine::report::record_index;

/// Protocol revision spoken by [`hello_line`].
pub const PROTOCOL_VERSION: u32 = 1;

/// One parsed worker line.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerEvent {
    /// The worker came up and accepted its cell list.
    Hello {
        /// Protocol revision the worker speaks.
        version: u32,
        /// Number of cells it was assigned.
        cells: usize,
        /// Wall-clock UNIX micros at which the worker fixed its
        /// telemetry epoch (present under `--telemetry`). The
        /// supervisor uses it to shift the worker's streamed trace
        /// timestamps onto its own timeline.
        epoch_us: Option<u64>,
    },
    /// A cell is about to execute.
    Started {
        /// Grid (row-major) index of the cell.
        index: usize,
    },
    /// A cell completed (ok or failed) and this is its canonical record.
    Done {
        /// Grid (row-major) index of the cell.
        index: usize,
        /// The canonical record line, verbatim.
        record: String,
    },
    /// Liveness signal between cell events.
    Heartbeat,
    /// A cumulative telemetry rollup (emitted after each `done` when the
    /// worker runs with `--telemetry`, so a crashed worker's last
    /// payload still accounts for the cells it finished).
    Metrics {
        /// The worker's metrics snapshot as one-line JSON.
        payload: String,
    },
    /// An incremental trace-event chunk (emitted after each `done` plus
    /// a final flush before `bye` when the worker runs with
    /// `--telemetry`). The payload is an
    /// [`mlrl_obs::drain_trace_chunk`] JSON document; the supervisor
    /// merges it onto its own timeline. Supervisors predating this verb
    /// ignore the line.
    Trace {
        /// The drained trace chunk as one-line JSON.
        payload: String,
    },
    /// The worker finished its whole assignment.
    Bye {
        /// Cells it completed this run.
        completed: usize,
        /// Final telemetry rollup (present under `--telemetry`).
        metrics: Option<String>,
    },
}

/// Formats the `hello` line.
pub fn hello_line(cells: usize) -> String {
    format!("mlrl-worker v{PROTOCOL_VERSION} cells={cells}")
}

/// Formats a `hello` line carrying the worker's telemetry-epoch wall
/// clock. Readers predating the field drop the whole hello — which is
/// harmless (hello is a liveness nicety, not load-bearing) — so
/// workers only emit this form under `--telemetry`.
pub fn hello_line_with_epoch(cells: usize, epoch_us: u64) -> String {
    format!("mlrl-worker v{PROTOCOL_VERSION} cells={cells} epoch_us={epoch_us}")
}

/// Formats a `start` line.
pub fn started_line(index: usize) -> String {
    format!("start {index}")
}

/// Formats a `done` line around the cell's canonical record.
pub fn done_line(index: usize, record: &str) -> String {
    format!("done {index} {record}")
}

/// Formats the `heartbeat` line.
pub fn heartbeat_line() -> String {
    "heartbeat".to_owned()
}

/// Formats a `metrics` line around a one-line JSON telemetry rollup.
pub fn metrics_line(payload: &str) -> String {
    format!("metrics {payload}")
}

/// Formats a `trace` line around a one-line drained trace chunk.
pub fn trace_line(payload: &str) -> String {
    format!("trace {payload}")
}

/// Formats the `bye` line.
pub fn bye_line(completed: usize) -> String {
    format!("bye {completed}")
}

/// Formats a `bye` line carrying a final telemetry rollup. Readers
/// predating the payload parse the line as non-protocol and ignore it,
/// which is why workers only emit this form under `--telemetry`.
pub fn bye_line_with_metrics(completed: usize, payload: &str) -> String {
    format!("bye {completed} {payload}")
}

/// Parses one worker stdout line; `None` for anything that is not a
/// protocol line (ignored by the supervisor).
pub fn parse_line(line: &str) -> Option<WorkerEvent> {
    let line = line.trim_end();
    if line == "heartbeat" {
        return Some(WorkerEvent::Heartbeat);
    }
    if let Some(rest) = line.strip_prefix("mlrl-worker v") {
        let (version, rest) = rest.split_once(" cells=")?;
        let (cells, epoch_us) = match rest.split_once(' ') {
            Some((cells, tail)) => {
                // The only extension field so far; other tails would be
                // from a newer worker and drop the hello (harmless).
                (cells, Some(tail.strip_prefix("epoch_us=")?.parse().ok()?))
            }
            None => (rest, None),
        };
        return Some(WorkerEvent::Hello {
            version: version.parse().ok()?,
            cells: cells.parse().ok()?,
            epoch_us,
        });
    }
    if let Some(rest) = line.strip_prefix("start ") {
        return Some(WorkerEvent::Started {
            index: rest.parse().ok()?,
        });
    }
    if let Some(rest) = line.strip_prefix("done ") {
        let (index, record) = rest.split_once(' ')?;
        let index = index.parse().ok()?;
        // The record is journaled as is: it must be a whole canonical
        // record for this very cell.
        if record_index(record) != Some(index) {
            return None;
        }
        return Some(WorkerEvent::Done {
            index,
            record: record.to_owned(),
        });
    }
    if let Some(rest) = line.strip_prefix("metrics ") {
        return Some(WorkerEvent::Metrics {
            payload: rest.to_owned(),
        });
    }
    if let Some(rest) = line.strip_prefix("trace ") {
        return Some(WorkerEvent::Trace {
            payload: rest.to_owned(),
        });
    }
    if let Some(rest) = line.strip_prefix("bye ") {
        let (completed, metrics) = match rest.split_once(' ') {
            Some((n, payload)) => (n, Some(payload.to_owned())),
            None => (rest, None),
        };
        return Some(WorkerEvent::Bye {
            completed: completed.parse().ok()?,
            metrics,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_through_the_parser() {
        assert_eq!(
            parse_line(&hello_line(12)),
            Some(WorkerEvent::Hello {
                version: PROTOCOL_VERSION,
                cells: 12,
                epoch_us: None
            })
        );
        assert_eq!(
            parse_line(&hello_line_with_epoch(12, 1_700_000_000_000_000)),
            Some(WorkerEvent::Hello {
                version: PROTOCOL_VERSION,
                cells: 12,
                epoch_us: Some(1_700_000_000_000_000)
            })
        );
        assert_eq!(
            parse_line(&started_line(7)),
            Some(WorkerEvent::Started { index: 7 })
        );
        let record = r#"{"index":7,"benchmark":"FIR"}"#;
        assert_eq!(
            parse_line(&done_line(7, record)),
            Some(WorkerEvent::Done {
                index: 7,
                record: record.to_owned()
            })
        );
        assert_eq!(parse_line(&heartbeat_line()), Some(WorkerEvent::Heartbeat));
        assert_eq!(
            parse_line(&bye_line(3)),
            Some(WorkerEvent::Bye {
                completed: 3,
                metrics: None
            })
        );
    }

    #[test]
    fn telemetry_lines_round_trip_and_degrade_safely() {
        let payload = r#"{"counters":{"cells.completed":2},"gauges":{},"spans":{}}"#;
        assert_eq!(
            parse_line(&metrics_line(payload)),
            Some(WorkerEvent::Metrics {
                payload: payload.to_owned()
            })
        );
        assert_eq!(
            parse_line(&bye_line_with_metrics(2, payload)),
            Some(WorkerEvent::Bye {
                completed: 2,
                metrics: Some(payload.to_owned())
            })
        );
        // A payload-free bye still parses (old workers, telemetry off).
        assert_eq!(
            parse_line("bye 5"),
            Some(WorkerEvent::Bye {
                completed: 5,
                metrics: None
            })
        );
    }

    #[test]
    fn trace_lines_round_trip_and_unknown_hello_tails_degrade() {
        let chunk = r#"{"lanes":["main"],"events":[["phase.lock","X",5,9,0]]}"#;
        assert_eq!(
            parse_line(&trace_line(chunk)),
            Some(WorkerEvent::Trace {
                payload: chunk.to_owned()
            })
        );
        // A hello tail from a yet-newer worker drops the hello rather
        // than erroring — hello is liveness, not load-bearing.
        assert_eq!(parse_line("mlrl-worker v1 cells=3 shiny=yes"), None);
        assert_eq!(parse_line("mlrl-worker v1 cells=3 epoch_us=oops"), None);
    }

    #[test]
    fn non_protocol_lines_are_ignored_not_errors() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("warning: something"), None);
        assert_eq!(parse_line("done notanumber {}"), None);
    }

    #[test]
    fn done_lines_need_a_whole_record_for_their_own_index() {
        assert_eq!(parse_line(r#"done 3 {"index":4,"benchmark":"FIR"}"#), None);
        assert_eq!(parse_line("done 3 garbage"), None);
        assert_eq!(parse_line(r#"done 3 {"index":3,"bench"#), None);
        assert_eq!(
            parse_line(r#"done 3 {"index":3,"benchmark":"S{"index":3,"benchmark":"FIR"}"#),
            None
        );
        assert!(parse_line(r#"done 3 {"index":3,"benchmark":"FIR"}"#).is_some());
        assert_eq!(parse_line("start"), None);
    }
}
