//! Serialisable tracker state for checkpoint/resume.
//!
//! A [`TrackerState`] captures everything a [`CommunityTracker`] needs to
//! continue after the last observed snapshot *except* the snapshot graph
//! itself, which the resuming side rebuilds by replaying the event log
//! (see `osn_core::checkpoint`). The encoding is a line-based text format
//! with `f64` values stored as the hex of their IEEE-754 bits, so a
//! resumed run is bit-identical to an uninterrupted one.
//!
//! [`CommunityTracker`]: crate::tracker::CommunityTracker

use crate::events::{CommunityId, EvolutionEvent};
use crate::tracker::{CommSnapshotStats, CommunityRecord};
use osn_graph::Day;
use std::fmt::Write as _;

/// Header line of the tracker-state text format.
pub const TRACKER_STATE_MAGIC: &str = "#%osn-tracker v1";

/// A serialisable snapshot of a [`CommunityTracker`](crate::tracker::CommunityTracker)
/// taken between two `observe` calls.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerState {
    /// Day of the last observed snapshot.
    pub last_day: Day,
    /// Next persistent community id to hand out.
    pub next_id: CommunityId,
    /// The last snapshot's full partition (dense, first-appearance
    /// normalised — exactly what Louvain returned).
    pub partition: Vec<u32>,
    /// Persistent id of each tracked community, in the tracker's internal
    /// order (descending size, stable).
    pub comm_ids: Vec<CommunityId>,
    /// All community life histories accumulated so far.
    pub records: Vec<CommunityRecord>,
    /// All evolution events accumulated so far.
    pub events: Vec<EvolutionEvent>,
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_hex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bits '{s}'"))
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

fn opt_u32(v: Option<u32>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} '{s}'"))
}

fn parse_opt_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<Option<T>, String> {
    if s == "-" {
        Ok(None)
    } else {
        parse_num(s, what).map(Some)
    }
}

fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',').map(|tok| parse_num(tok, what)).collect()
}

fn join_list<T: std::fmt::Display>(items: &[T]) -> String {
    if items.is_empty() {
        return "-".to_string();
    }
    let mut out = String::new();
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out
}

impl TrackerState {
    /// Encode as the stable line-based text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{TRACKER_STATE_MAGIC}");
        let _ = writeln!(out, "last_day {}", self.last_day);
        let _ = writeln!(out, "next_id {}", self.next_id);
        let _ = writeln!(out, "partition {}", join_list(&self.partition));
        let _ = writeln!(out, "comm_ids {}", join_list(&self.comm_ids));
        let _ = writeln!(out, "records {}", self.records.len());
        for r in &self.records {
            let _ = writeln!(
                out,
                "record {} {} {} {} {}",
                r.id,
                r.birth_day,
                opt_u32(r.death_day),
                opt_u64(r.merged_into),
                r.history.len()
            );
            for h in &r.history {
                let _ = writeln!(
                    out,
                    "hist {} {} {} {} {}",
                    h.day,
                    h.size,
                    h.internal_edges,
                    h.degree_sum,
                    f64_hex(h.similarity_to_prev)
                );
            }
        }
        let _ = writeln!(out, "events {}", self.events.len());
        for e in &self.events {
            match e {
                EvolutionEvent::Birth {
                    id,
                    day,
                    size,
                    split_from,
                } => {
                    let _ = writeln!(
                        out,
                        "event birth {id} {day} {size} {}",
                        opt_u64(*split_from)
                    );
                }
                EvolutionEvent::Death {
                    id,
                    day,
                    size,
                    merged_into,
                    strongest_tie,
                    tie_rank,
                } => {
                    let tie = match strongest_tie {
                        None => "-".to_string(),
                        Some(true) => "1".to_string(),
                        Some(false) => "0".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "event death {id} {day} {size} {} {tie} {}",
                        opt_u64(*merged_into),
                        opt_u32(*tie_rank)
                    );
                }
                EvolutionEvent::Split {
                    parent,
                    day,
                    largest,
                    second,
                } => {
                    let _ = writeln!(out, "event split {parent} {day} {largest} {second}");
                }
                EvolutionEvent::Merge {
                    dest,
                    day,
                    largest,
                    second,
                } => {
                    let _ = writeln!(out, "event merge {dest} {day} {largest} {second}");
                }
            }
        }
        out
    }

    /// Decode the text produced by [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default().trim();
        if header != TRACKER_STATE_MAGIC {
            return Err(format!("bad header '{header}'"));
        }
        let mut next = |key: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("missing '{key}' line"))?
                .trim();
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad line '{line}'"))?;
            if k != key {
                return Err(format!("expected '{key}', found '{k}'"));
            }
            Ok(v.to_string())
        };

        let last_day: Day = parse_num(&next("last_day")?, "last_day")?;
        let next_id: CommunityId = parse_num(&next("next_id")?, "next_id")?;
        let partition: Vec<u32> = parse_list(&next("partition")?, "partition label")?;
        let comm_ids: Vec<CommunityId> = parse_list(&next("comm_ids")?, "community id")?;

        // Counts come from the file: the vectors grow as their lines
        // parse, so a damaged count fails on a missing line instead of
        // reserving memory for it.
        let num_records: usize = parse_num(&next("records")?, "record count")?;
        let mut records = Vec::new();
        for _ in 0..num_records {
            let v = next("record")?;
            let f: Vec<&str> = v.split_whitespace().collect();
            if f.len() != 5 {
                return Err(format!("bad record line '{v}'"));
            }
            let hist_len: usize = parse_num(f[4], "history length")?;
            let mut history = Vec::new();
            for _ in 0..hist_len {
                let hv = next("hist")?;
                let hf: Vec<&str> = hv.split_whitespace().collect();
                if hf.len() != 5 {
                    return Err(format!("bad hist line '{hv}'"));
                }
                history.push(CommSnapshotStats {
                    day: parse_num(hf[0], "hist day")?,
                    size: parse_num(hf[1], "hist size")?,
                    internal_edges: parse_num(hf[2], "hist internal edges")?,
                    degree_sum: parse_num(hf[3], "hist degree sum")?,
                    similarity_to_prev: parse_f64_hex(hf[4])?,
                });
            }
            records.push(CommunityRecord {
                id: parse_num(f[0], "record id")?,
                birth_day: parse_num(f[1], "birth day")?,
                death_day: parse_opt_num(f[2], "death day")?,
                merged_into: parse_opt_num(f[3], "merged_into")?,
                history,
            });
        }

        let num_events: usize = parse_num(&next("events")?, "event count")?;
        let mut events = Vec::new();
        for _ in 0..num_events {
            let v = next("event")?;
            let f: Vec<&str> = v.split_whitespace().collect();
            let event = match f.first().copied() {
                Some("birth") if f.len() == 5 => EvolutionEvent::Birth {
                    id: parse_num(f[1], "birth id")?,
                    day: parse_num(f[2], "birth day")?,
                    size: parse_num(f[3], "birth size")?,
                    split_from: parse_opt_num(f[4], "split_from")?,
                },
                Some("death") if f.len() == 7 => EvolutionEvent::Death {
                    id: parse_num(f[1], "death id")?,
                    day: parse_num(f[2], "death day")?,
                    size: parse_num(f[3], "death size")?,
                    merged_into: parse_opt_num(f[4], "merged_into")?,
                    strongest_tie: match f[5] {
                        "-" => None,
                        "1" => Some(true),
                        "0" => Some(false),
                        other => return Err(format!("bad strongest_tie '{other}'")),
                    },
                    tie_rank: parse_opt_num(f[6], "tie rank")?,
                },
                Some("split") if f.len() == 5 => EvolutionEvent::Split {
                    parent: parse_num(f[1], "split parent")?,
                    day: parse_num(f[2], "split day")?,
                    largest: parse_num(f[3], "split largest")?,
                    second: parse_num(f[4], "split second")?,
                },
                Some("merge") if f.len() == 5 => EvolutionEvent::Merge {
                    dest: parse_num(f[1], "merge dest")?,
                    day: parse_num(f[2], "merge day")?,
                    largest: parse_num(f[3], "merge largest")?,
                    second: parse_num(f[4], "merge second")?,
                },
                _ => return Err(format!("bad event line '{v}'")),
            };
            events.push(event);
        }

        Ok(TrackerState {
            last_day,
            next_id,
            partition,
            comm_ids,
            records,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrackerState {
        TrackerState {
            last_day: 42,
            next_id: 7,
            partition: vec![0, 0, 1, 2, 1],
            comm_ids: vec![3, 5],
            records: vec![
                CommunityRecord {
                    id: 3,
                    birth_day: 10,
                    death_day: None,
                    merged_into: None,
                    history: vec![CommSnapshotStats {
                        day: 10,
                        size: 12,
                        internal_edges: 30,
                        degree_sum: 70,
                        similarity_to_prev: 0.0,
                    }],
                },
                CommunityRecord {
                    id: 4,
                    birth_day: 10,
                    death_day: Some(42),
                    merged_into: Some(3),
                    history: vec![CommSnapshotStats {
                        day: 10,
                        size: 11,
                        internal_edges: 25,
                        degree_sum: 61,
                        similarity_to_prev: 0.123_456_789,
                    }],
                },
            ],
            events: vec![
                EvolutionEvent::Birth {
                    id: 3,
                    day: 10,
                    size: 12,
                    split_from: None,
                },
                EvolutionEvent::Birth {
                    id: 4,
                    day: 10,
                    size: 11,
                    split_from: Some(3),
                },
                EvolutionEvent::Merge {
                    dest: 3,
                    day: 42,
                    largest: 12,
                    second: 11,
                },
                EvolutionEvent::Death {
                    id: 4,
                    day: 42,
                    size: 11,
                    merged_into: Some(3),
                    strongest_tie: Some(true),
                    tie_rank: Some(1),
                },
                EvolutionEvent::Split {
                    parent: 3,
                    day: 42,
                    largest: 8,
                    second: 4,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let state = sample_state();
        let text = state.to_text();
        let back = TrackerState::from_text(&text).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn similarity_bits_roundtrip() {
        let mut state = sample_state();
        state.records[0].history[0].similarity_to_prev = 0.1 + 0.2; // 0.30000000000000004
        let back = TrackerState::from_text(&state.to_text()).unwrap();
        assert_eq!(
            back.records[0].history[0].similarity_to_prev.to_bits(),
            state.records[0].history[0].similarity_to_prev.to_bits()
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(TrackerState::from_text("").is_err());
        assert!(TrackerState::from_text("#%osn-tracker v1\nlast_day x\n").is_err());
        let state = sample_state();
        let mut text = state.to_text();
        text.truncate(text.len() / 2);
        assert!(TrackerState::from_text(&text).is_err());
    }

    /// Replaces `line` of the sample's text with `bad` and returns the
    /// decode error.
    fn decode_damaged(line: &str, bad: &str) -> String {
        let text = sample_state().to_text();
        assert!(text.contains(line), "sample lacks '{line}'");
        TrackerState::from_text(&text.replacen(line, bad, 1)).unwrap_err()
    }

    #[test]
    fn huge_record_count_is_an_error() {
        let err = decode_damaged("records 2", "records 1000000000000");
        assert!(err.contains("expected 'record'"), "{err}");
    }

    #[test]
    fn huge_history_length_is_an_error() {
        let err = decode_damaged("record 3 10 - - 1", "record 3 10 - - 1000000000000");
        assert!(err.contains("expected 'hist'"), "{err}");
    }

    #[test]
    fn huge_event_count_is_an_error() {
        let err = decode_damaged("events 5", "events 18446744073709551615");
        assert!(err.contains("missing 'event'"), "{err}");
    }

    #[test]
    fn empty_lists_encode_as_dash() {
        let state = TrackerState {
            last_day: 0,
            next_id: 0,
            partition: Vec::new(),
            comm_ids: Vec::new(),
            records: Vec::new(),
            events: Vec::new(),
        };
        let back = TrackerState::from_text(&state.to_text()).unwrap();
        assert_eq!(back, state);
    }
}
