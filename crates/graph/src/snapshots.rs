//! Replaying an event log into per-day snapshots.
//!
//! The paper materialises 771 daily static snapshots from the Renren event
//! stream. [`Replayer`] walks an [`EventLog`] forward, maintaining a
//! [`DynamicGraph`]; [`DailySnapshots`] wraps it into an iterator that
//! yields a frozen [`CsrGraph`] every `stride` days, which is how the
//! Figure 1 and Figure 4 pipelines consume the trace.

use crate::csr::CsrGraph;
use crate::dynamic::DynamicGraph;
use crate::log::EventLog;
use crate::time::{Day, Time};
use std::fmt;

/// Errors raised while decoding or applying a [`ReplayCheckpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint text did not parse.
    Malformed(String),
    /// The checkpoint was taken from a different trace.
    FingerprintMismatch {
        /// Fingerprint recorded in the checkpoint.
        recorded: u64,
        /// Fingerprint of the log being resumed.
        actual: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(r) => write!(f, "malformed checkpoint: {r}"),
            CheckpointError::FingerprintMismatch { recorded, actual } => write!(
                f,
                "checkpoint was taken from a different trace \
                 (recorded fingerprint {recorded:016x}, trace has {actual:016x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A serialisable point in a replay: how many events have been applied,
/// which day was last completed, and a fingerprint of the trace so a
/// checkpoint is never applied to the wrong log.
///
/// The text encoding is a tiny line-based format (see [`Self::to_text`])
/// that the live head writes atomically as `head.ckpt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayCheckpoint {
    /// Index of the next unapplied event.
    pub pos: usize,
    /// Last fully-processed day.
    pub day: Day,
    /// [`EventLog::fingerprint`] of the trace this was taken from.
    pub fingerprint: u64,
}

impl ReplayCheckpoint {
    /// Encode as the stable text format:
    ///
    /// ```text
    /// #%osn-checkpoint v1
    /// pos <events applied>
    /// day <last completed day>
    /// fingerprint <16 hex digits>
    /// ```
    pub fn to_text(&self) -> String {
        format!(
            "#%osn-checkpoint v1\npos {}\nday {}\nfingerprint {:016x}\n",
            self.pos, self.day, self.fingerprint
        )
    }

    /// Decode the text format produced by [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default().trim();
        if header != "#%osn-checkpoint v1" {
            return Err(CheckpointError::Malformed(format!("bad header '{header}'")));
        }
        let mut pos = None;
        let mut day = None;
        let mut fingerprint = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| CheckpointError::Malformed(format!("bad line '{line}'")))?;
            match key {
                "pos" => {
                    pos =
                        Some(value.parse().map_err(|_| {
                            CheckpointError::Malformed(format!("bad pos '{value}'"))
                        })?)
                }
                "day" => {
                    day =
                        Some(value.parse().map_err(|_| {
                            CheckpointError::Malformed(format!("bad day '{value}'"))
                        })?)
                }
                "fingerprint" => {
                    fingerprint = Some(u64::from_str_radix(value, 16).map_err(|_| {
                        CheckpointError::Malformed(format!("bad fingerprint '{value}'"))
                    })?)
                }
                other => return Err(CheckpointError::Malformed(format!("unknown key '{other}'"))),
            }
        }
        match (pos, day, fingerprint) {
            (Some(pos), Some(day), Some(fingerprint)) => Ok(ReplayCheckpoint {
                pos,
                day,
                fingerprint,
            }),
            _ => Err(CheckpointError::Malformed(
                "missing pos, day or fingerprint".to_string(),
            )),
        }
    }
}

/// Cursor over an [`EventLog`] that keeps a [`DynamicGraph`] in sync.
#[derive(Debug)]
pub struct Replayer<'a> {
    log: &'a EventLog,
    graph: DynamicGraph,
    pos: usize,
}

impl<'a> Replayer<'a> {
    /// Start a replay at the beginning of the log. The graph gives each
    /// neighbour list the room of the log's final degree, so no list
    /// moves during the replay.
    pub fn new(log: &'a EventLog) -> Self {
        Replayer {
            log,
            graph: DynamicGraph::with_degrees(log.degrees()),
            pos: 0,
        }
    }

    /// The graph as of the last applied event.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Index of the next unapplied event.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True if every event has been applied.
    pub fn finished(&self) -> bool {
        self.pos >= self.log.events().len()
    }

    /// Apply all events with `time < t`. Returns how many were applied.
    pub fn advance_to(&mut self, t: Time) -> usize {
        self.advance_to_with(t, &mut crate::dynamic::NoDelta)
    }

    /// Apply all events with `time < t`, routing every accepted event
    /// through `obs` (see [`DeltaObserver`](crate::dynamic::DeltaObserver)).
    /// This is how the incremental engine keeps per-metric state in sync
    /// with the replay without a second pass. Returns how many events were
    /// applied.
    pub fn advance_to_with<O: crate::dynamic::DeltaObserver>(
        &mut self,
        t: Time,
        obs: &mut O,
    ) -> usize {
        let events = self.log.events();
        let start = self.pos;
        while self.pos < events.len() && events[self.pos].time < t {
            // The log was validated at construction, so a malformed event
            // here means the invariant chain is broken — fail loudly in
            // every build profile instead of corrupting the replay.
            if let Err(e) = self.graph.apply_with(&events[self.pos], obs) {
                panic!(
                    "validated EventLog produced a malformed event at position {}: {e}",
                    self.pos
                );
            }
            self.pos += 1;
        }
        // One batched add per advance call, not one per event: replay is
        // the hottest loop in the workspace.
        osn_obs::counter!("replay.events").add((self.pos - start) as u64);
        self.pos - start
    }

    /// Apply all events up to and including day `day` (i.e. everything
    /// before the start of `day + 1`). Returns how many were applied.
    pub fn advance_through_day(&mut self, day: Day) -> usize {
        self.advance_to(Time::day_end(day))
    }

    /// Observer-carrying variant of [`Self::advance_through_day`].
    pub fn advance_through_day_with<O: crate::dynamic::DeltaObserver>(
        &mut self,
        day: Day,
        obs: &mut O,
    ) -> usize {
        self.advance_to_with(Time::day_end(day), obs)
    }

    /// Apply the remaining events.
    pub fn advance_to_end(&mut self) -> usize {
        self.advance_to(Time(u64::MAX))
    }

    /// Freeze the current state.
    pub fn freeze(&self) -> CsrGraph {
        self.graph.freeze()
    }
}

/// A snapshot emitted by [`DailySnapshots`].
#[derive(Debug)]
pub struct Snapshot {
    /// The day this snapshot covers (state at end of that day).
    pub day: Day,
    /// Frozen graph state.
    pub graph: CsrGraph,
    /// Number of nodes at snapshot time.
    pub num_nodes: usize,
    /// Number of edges at snapshot time.
    pub num_edges: u64,
}

/// Iterator yielding a frozen snapshot every `stride` days.
///
/// The iterator is lazy: memory stays bounded by one `DynamicGraph` plus
/// the single `CsrGraph` being yielded (callers that fan snapshots out to
/// worker threads bound in-flight copies with a channel; see
/// `osn_metrics::parallel`).
#[derive(Debug)]
pub struct DailySnapshots<'a> {
    replayer: Replayer<'a>,
    next_day: Day,
    last_day: Day,
    stride: Day,
}

impl<'a> DailySnapshots<'a> {
    /// Snapshots of `log` at days `first_day, first_day + stride, …` up to
    /// and including the log's final day.
    ///
    /// # Panics
    /// Panics if `stride == 0`.
    pub fn new(log: &'a EventLog, first_day: Day, stride: Day) -> Self {
        assert!(stride > 0, "stride must be positive");
        DailySnapshots {
            replayer: Replayer::new(log),
            next_day: first_day,
            last_day: log.end_day(),
            stride,
        }
    }

    /// Snapshot every day from day 0.
    pub fn every_day(log: &'a EventLog) -> Self {
        Self::new(log, 0, 1)
    }
}

impl<'a> Iterator for DailySnapshots<'a> {
    type Item = Snapshot;

    fn next(&mut self) -> Option<Snapshot> {
        if self.next_day > self.last_day {
            return None;
        }
        let day = self.next_day;
        self.replayer.advance_through_day(day);
        self.next_day += self.stride;
        let graph = self.replayer.freeze();
        Some(Snapshot {
            day,
            num_nodes: self.replayer.graph().num_nodes(),
            num_edges: self.replayer.graph().num_edges(),
            graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Origin;
    use crate::log::EventLogBuilder;

    fn log_over_five_days() -> EventLog {
        let mut b = EventLogBuilder::new();
        let mut nodes = Vec::new();
        for d in 0..5u64 {
            let n = b.add_node(Time::from_days(d), Origin::Core).unwrap();
            nodes.push(n);
            if d > 0 {
                b.add_edge(
                    Time::from_days(d).plus_seconds(10),
                    nodes[(d - 1) as usize],
                    n,
                )
                .unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn advance_to_is_exclusive() {
        let log = log_over_five_days();
        let mut r = Replayer::new(&log);
        let applied = r.advance_to(Time::from_days(2));
        // day 0: node; day 1: node + edge — 3 events strictly before day 2.
        assert_eq!(applied, 3);
        assert_eq!(r.graph().num_nodes(), 2);
        assert_eq!(r.graph().num_edges(), 1);
    }

    #[test]
    fn advance_through_day_is_inclusive() {
        let log = log_over_five_days();
        let mut r = Replayer::new(&log);
        r.advance_through_day(2);
        assert_eq!(r.graph().num_nodes(), 3);
        assert_eq!(r.graph().num_edges(), 2);
        assert!(!r.finished());
        r.advance_to_end();
        assert!(r.finished());
        assert_eq!(r.graph().num_nodes(), 5);
    }

    #[test]
    fn daily_snapshots_cover_all_days() {
        let log = log_over_five_days();
        let snaps: Vec<_> = DailySnapshots::every_day(&log).collect();
        assert_eq!(snaps.len(), 5);
        assert_eq!(snaps[0].num_nodes, 1);
        assert_eq!(snaps[4].num_nodes, 5);
        assert_eq!(snaps[4].num_edges, 4);
        assert_eq!(snaps[2].day, 2);
    }

    #[test]
    fn strided_snapshots() {
        let log = log_over_five_days();
        let snaps: Vec<_> = DailySnapshots::new(&log, 1, 2).collect();
        let days: Vec<_> = snaps.iter().map(|s| s.day).collect();
        assert_eq!(days, vec![1, 3]);
        assert_eq!(snaps[1].num_nodes, 4);
    }

    #[test]
    fn snapshot_graph_matches_counts() {
        let log = log_over_five_days();
        for s in DailySnapshots::every_day(&log) {
            assert_eq!(s.graph.num_nodes(), s.num_nodes);
            assert_eq!(s.graph.num_edges(), s.num_edges);
        }
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let log = log_over_five_days();
        let _ = DailySnapshots::new(&log, 0, 0);
    }

    #[test]
    fn checkpoint_text_roundtrip() {
        let cp = ReplayCheckpoint {
            pos: 123,
            day: 45,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        };
        let text = cp.to_text();
        assert_eq!(ReplayCheckpoint::from_text(&text).unwrap(), cp);
        assert!(ReplayCheckpoint::from_text("garbage").is_err());
        assert!(ReplayCheckpoint::from_text("#%osn-checkpoint v1\npos x\n").is_err());
        assert!(ReplayCheckpoint::from_text("#%osn-checkpoint v1\npos 1\n").is_err());
    }
}
