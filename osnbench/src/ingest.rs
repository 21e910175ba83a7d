//! `ingest`: the two v2 state machines plus replay, with no analysis
//! kernels.
//!
//! Each pass runs `read_log_with_policy(Strict)` over the bytes, a
//! `TailReader` from offset 0 to the footer over the same bytes on disk,
//! and `Replayer::advance_to_end` over the parsed log. It measures both
//! readers, so a gain for one that costs the other shows.

use crate::reference::Reference;
use crate::stats::{median, Samples};
use crate::trace::Recorder;
use crate::{digest, json_opt, Outcome, WorkDir};
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::io::read_log_with_policy;
use osn_graph::{EventLog, EventLogBuilder, RecoveryPolicy, Replayer, TailEvent, TailReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Polls after which a reader that has not reached the footer of a
/// complete file counts as stuck.
const MAX_POLLS: usize = 1000;

/// The paper configuration at 8K final nodes: ≈8K nodes, 117K edges,
/// 2.5 MB of v2 text. A pass takes about 0.1 s, so a run holds a few
/// hundred (see `BENCHMARK.md` for why not a larger trace).
pub fn trace(seed: u64) -> TraceConfig {
    let mut trace = TraceConfig {
        seed,
        ..TraceConfig::default_paper()
    };
    trace.growth.final_nodes = 8_000;
    trace
}

/// The generated trace: what every reader must reproduce.
struct Input {
    bytes: Vec<u8>,
    path: PathBuf,
    fingerprint: u64,
    events: usize,
    nodes: u32,
    edges: u64,
}

/// `osn generate --out FILE`.
fn setup(trace: &TraceConfig, dir: &Path) -> std::io::Result<Input> {
    let log = TraceGenerator::new(trace.clone()).generate();
    let mut bytes = Vec::new();
    osn_graph::io::write_log_v2(&log, &mut bytes)?;
    let path = dir.join("trace.events");
    std::fs::write(&path, &bytes)?;
    Ok(Input {
        bytes,
        path,
        fingerprint: log.fingerprint(),
        events: log.events().len(),
        nodes: log.num_nodes(),
        edges: log.num_edges(),
    })
}

/// Phase timings of one pass, in seconds, and the tail polls it took.
struct Pass {
    read_s: f64,
    tail_s: f64,
    replay_s: f64,
    polls: usize,
}

impl Pass {
    fn total(&self) -> f64 {
        self.read_s + self.tail_s + self.replay_s
    }
}

fn read(input: &Input) -> Result<EventLog, String> {
    let (log, report) = read_log_with_policy(&input.bytes[..], &RecoveryPolicy::Strict)
        .map_err(|e| format!("strict read: {e}"))?;
    if !report.is_clean() {
        return Err(format!("strict read not clean: {}", report.summary()));
    }
    if log.fingerprint() != input.fingerprint || log.events().len() != input.events {
        return Err(format!(
            "read {} events / {:016x}, generator wrote {} / {:016x}",
            log.events().len(),
            log.fingerprint(),
            input.events,
            input.fingerprint
        ));
    }
    Ok(log)
}

/// Tail the file from offset 0 to its footer; returns the committed
/// events and the number of polls.
fn tail(
    input: &Input,
    rec: &Recorder,
    parent: Option<u64>,
) -> Result<(Vec<TailEvent>, usize), String> {
    let mut reader = TailReader::new(&input.path, RecoveryPolicy::Strict);
    let mut events = Vec::with_capacity(input.events);
    for i in 0..MAX_POLLS {
        let batch = rec
            .time("graph.tail.poll", parent, i as u64, || reader.poll())
            .map_err(|e| format!("tail: {e}"))?;
        events.extend(batch.events);
        match batch.footer {
            Some(true) if events.len() == input.events => return Ok((events, i + 1)),
            Some(true) => {
                return Err(format!(
                    "tail committed {} events, generator wrote {}",
                    events.len(),
                    input.events
                ))
            }
            Some(false) => return Err("tail: footer did not verify".to_string()),
            None => {}
        }
    }
    Err(format!("tail: no footer after {MAX_POLLS} polls"))
}

fn replay(log: &EventLog) -> Result<(), String> {
    let mut r = Replayer::new(log);
    let applied = r.advance_to_end();
    if applied != log.events().len() || !r.finished() {
        return Err(format!(
            "replay applied {applied} of {} events",
            log.events().len()
        ));
    }
    Ok(())
}

/// One pass; spans go to `rec` (a disabled recorder for the untraced
/// run). Also returns the tailed events.
fn pass(input: &Input, rec: &Recorder) -> Result<(Pass, Vec<TailEvent>), String> {
    let root = rec.enter("ingest.pass", None, 0);
    let t0 = Instant::now();
    let log = rec.time("graph.io.read", root.id(), 0, || read(input))?;
    let t1 = Instant::now();
    let (events, polls) = tail(input, rec, root.id())?;
    let t2 = Instant::now();
    rec.time("graph.snapshots.replay", root.id(), 0, || replay(&log))?;
    let t3 = Instant::now();
    let pass = Pass {
        read_s: (t1 - t0).as_secs_f64(),
        tail_s: (t2 - t1).as_secs_f64(),
        replay_s: (t3 - t2).as_secs_f64(),
        polls,
    };
    Ok((pass, events))
}

/// The checks only the traced run makes: the CRC32 rate over the trace
/// bytes, and an `EventLogBuilder` over the tailed events whose
/// fingerprint must be the generator's.
fn traced_checks(
    input: &Input,
    events: &[TailEvent],
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let t = Instant::now();
    let crc = rec.time("graph.crc32", None, 0, || {
        osn_graph::crc32::crc32(&input.bytes)
    });
    let crc_s = t.elapsed().as_secs_f64();
    std::hint::black_box(crc);
    out.set(
        "graph.crc32.mb_per_s",
        input.bytes.len() as f64 / 1e6 / crc_s,
    );

    let built = rec.time("graph.log.build", None, 0, || {
        let mut b = EventLogBuilder::with_capacity(input.nodes as usize, input.edges as usize);
        for e in events {
            match *e {
                TailEvent::Node { time, origin } => b.add_node(time, origin).map(|_| ()),
                TailEvent::Edge { time, u, v } => b.add_edge(time, u, v),
            }
            .map_err(|err| format!("tailed event rejected: {err}"))?;
        }
        Ok::<_, String>(b.build())
    })?;
    if built.fingerprint() != input.fingerprint {
        return Err("log built from tailed events differs from the generator's".to_string());
    }
    Ok(())
}

pub fn run(trace: &TraceConfig, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = match WorkDir::new("ingest") {
        Ok(d) => d,
        Err(e) => {
            out.op(false);
            out.problem(format!("work dir: {e}"));
            return out;
        }
    };
    let mut reference = Reference::new();
    let (input, setup_times) =
        crate::repeat_setup(traced, &mut reference, |_| setup(trace, dir.path()), drop);
    let input = match input {
        Ok(i) => i,
        Err(e) => {
            out.op(false);
            out.problem(format!("set-up: {e}"));
            return out;
        }
    };
    out.digest = Some(digest([
        &input.fingerprint.to_le_bytes()[..],
        &(input.events as u64).to_le_bytes()[..],
    ]));
    let mb = input.bytes.len() as f64 / 1e6;

    if traced {
        let plain = pass(&input, &Recorder::new(false));
        out.op(plain.is_ok());
        let rec = Recorder::new(true);
        let replica = pass(&input, &rec);
        out.op(replica.is_ok());
        match (plain, replica) {
            (Ok((p, _)), Ok((t, events))) => {
                out.set("trace_overhead", t.total() / p.total());
                out.set("graph.tail.polls", t.polls as f64);
                if let Err(e) = traced_checks(&input, &events, &rec, &mut out) {
                    out.problem(e);
                }
            }
            (Err(e), _) | (_, Err(e)) => out.problem(e),
        }
        out.finish_trace(&rec, &format!("ingest-seed{}", trace.seed));
        return out;
    }

    let untraced = Recorder::new(false);
    let (passes, error) = crate::repeat_passes(seconds, || {
        let (p, _) = pass(&input, &untraced)?;
        Ok((p, reference.time_ms()))
    });
    passes.iter().for_each(|_| out.op(true));
    if let Some(e) = error {
        out.op(false);
        out.problem(e);
    }
    // The warm-up pass is checked but not timed.
    let passes = passes.get(1..).unwrap_or_default();
    let scaled = |f: fn(&Pass) -> f64| {
        Samples::new(
            passes
                .iter()
                .map(|(p, ref_ms)| Reference::scale(f(p), *ref_ms))
                .collect(),
        )
    };
    out.set(
        "setup_s",
        median(&setup_times).expect("at least one set-up"),
    );
    let pass_s = scaled(Pass::total);
    if let Some(median_s) = pass_s.median() {
        out.set("latency_ms", median_s * 1e3);
        out.set("rate_per_s", mb / median_s);
    }
    let rate = |f: fn(&Pass) -> f64| scaled(f).median().map(|s| mb / s);
    out.detail("passes", passes.len());
    out.detail("pass_p90_s", pass_s.percentile_json(90.0));
    out.detail("pass_p99_s", pass_s.percentile_json(99.0));
    out.detail(
        "raw_pass_s",
        json_opt(median(
            &passes.iter().map(|(p, _)| p.total()).collect::<Vec<_>>(),
        )),
    );
    out.detail(
        "reference_ms",
        json_opt(median(&passes.iter().map(|(_, r)| *r).collect::<Vec<_>>())),
    );
    out.detail("read_mb_per_s", json_opt(rate(|p| p.read_s)));
    out.detail("tail_mb_per_s", json_opt(rate(|p| p.tail_s)));
    out.detail(
        "replay_events_per_s",
        json_opt(
            scaled(|p| p.replay_s)
                .median()
                .map(|s| input.events as f64 / s),
        ),
    );
    out.detail("nodes", input.nodes);
    out.detail("edges", input.edges);
    out.detail("trace_mb", mb);
    out
}
