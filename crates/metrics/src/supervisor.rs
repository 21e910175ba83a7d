//! Supervised task execution: panic isolation, retries, soft deadlines.
//!
//! The Figure 1 pipeline fans hundreds of expensive snapshot analyses out
//! to worker threads, and community tracking carries state through
//! hundreds more. One poisoned day must not end such a run. The
//! supervisor turns each task into a unit of failure:
//!
//! * every attempt runs under [`std::panic::catch_unwind`], so a panic
//!   becomes a typed [`TaskFailure`] carrying the original payload text,
//!   the attempt count and the elapsed time — never a process abort;
//! * a task returning [`TaskError::Transient`] is retried up to
//!   [`SupervisorConfig::retries`] times with deterministic, capped
//!   exponential backoff;
//! * with [`SupervisorConfig::task_timeout`] set, every attempt is
//!   checked against the task's *soft* deadline when it returns: a task
//!   that finished late is quarantined whatever it returned, its result
//!   is discarded, and the run continues. A running task is never
//!   interrupted, so a task that never returns stalls its worker; the
//!   deadline keeps late results out of the output and the failure
//!   visible.
//!
//! [`supervised_call`] runs one task under these rules, e.g. one
//! community snapshot observation or one HTTP handler.
//! [`try_par_map`] runs one per item on the pool of
//! `parallel::pool_map`, in input order;
//! [`crate::parallel::par_map`] is its infallible wrapper (it re-raises
//! the first [`TaskFailure`] as a panic whose message carries the full
//! failure context).
//!
//! [`ChaosTaskPlan`] and [`chaos_gate`] are the deterministic fault
//! injection that tests, the CLI's `OSN_CHAOS` and the daemon's drills
//! feed through the same rules.
//!
//! Worker count, retries, deadlines and backoff are execution concerns:
//! none of them affect the *values* a successful task produces, which is
//! why `osn_core::checkpoint` excludes them from `meta.txt`.

use crate::parallel::{default_workers, pool_map};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How a task reports failure to the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// Worth retrying (flaky I/O, injected chaos, resource pressure).
    Transient(String),
    /// Retrying cannot help; fail the task immediately.
    Fatal(String),
}

/// What a supervised task returns per attempt.
pub type TaskResult<R> = Result<R, TaskError>;

/// Why a task ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// An attempt panicked; the payload text is preserved.
    Panicked,
    /// The task returned [`TaskError::Fatal`].
    Fatal,
    /// Every allowed attempt returned [`TaskError::Transient`].
    TransientExhausted,
    /// The task overran its soft deadline and was quarantined.
    TimedOut,
}

impl FailureKind {
    /// Stable lowercase name (used in manifests and checkpoint files).
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panicked => "panicked",
            FailureKind::Fatal => "fatal",
            FailureKind::TransientExhausted => "transient-exhausted",
            FailureKind::TimedOut => "timed-out",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "panicked" => Ok(FailureKind::Panicked),
            "fatal" => Ok(FailureKind::Fatal),
            "transient-exhausted" => Ok(FailureKind::TransientExhausted),
            "timed-out" => Ok(FailureKind::TimedOut),
            other => Err(format!("unknown failure kind '{other}'")),
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A task that could not be completed, with everything a run manifest or
/// quarantine record needs to explain it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFailure {
    /// Position of the task in the input sequence.
    pub index: usize,
    /// Human-readable task label (e.g. `day-42`, `fig4`).
    pub label: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Panic payload text or error message.
    pub payload: String,
    /// Attempts made (1 = failed on the first try).
    pub attempts: u32,
    /// Wall-clock time from first attempt to final verdict.
    pub elapsed: Duration,
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task '{}' (index {}) {} after {} attempt(s) in {:.1?}: {}",
            self.label, self.index, self.kind, self.attempts, self.elapsed, self.payload
        )
    }
}

impl std::error::Error for TaskFailure {}

/// Executor knobs. None of these affect the values successful tasks
/// produce — only which tasks get the chance to produce them.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads (0 = [`default_workers`]). `<= 1` runs tasks
    /// sequentially on the calling thread.
    pub workers: usize,
    /// Retries after a transient failure (0 = single attempt).
    pub retries: u32,
    /// Per-task soft deadline covering all attempts of that task,
    /// checked when each attempt returns.
    pub task_timeout: Option<Duration>,
    /// First backoff sleep; attempt `n` waits `base * 2^(n-1)`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 0,
            retries: 0,
            task_timeout: None,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

/// The user-facing slice of supervision: what `--retries`,
/// `--task-timeout` and the chaos test hook configure. Pipelines combine
/// it with their own worker count via [`RunPolicy::supervisor_config`].
#[derive(Debug, Clone, Default)]
pub struct RunPolicy {
    /// Retries after a transient failure.
    pub retries: u32,
    /// Per-task soft deadline.
    pub task_timeout: Option<Duration>,
    /// Deterministic fault injection (tests and chaos drills only).
    pub chaos: Option<ChaosTaskPlan>,
}

impl RunPolicy {
    /// Expand into a full [`SupervisorConfig`] with the given worker
    /// count (0 = auto).
    pub fn supervisor_config(&self, workers: usize) -> SupervisorConfig {
        SupervisorConfig {
            workers,
            retries: self.retries,
            task_timeout: self.task_timeout,
            ..SupervisorConfig::default()
        }
    }
}

/// What a chaos plan tells one task attempt to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosAction {
    /// Run normally.
    None,
    /// Panic with the given message (exercises `catch_unwind` isolation).
    Panic(String),
    /// Sleep this many milliseconds before running (exercises deadlines).
    Delay(u64),
    /// Fail with a retryable error (exercises retry/backoff).
    Transient(String),
    /// Fail with a non-retryable error.
    Fatal(String),
}

/// One explicitly scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChaosRule {
    key: u64,
    /// `None` = every attempt of this task; `Some(n)` = only attempt `n`.
    attempt: Option<u32>,
    action: ChaosAction,
}

/// Fault rates for a seeded random plan. Each is a `1 / one_in`
/// probability per `(key, attempt)` pair (0 disables that fault class).
/// Panic takes precedence over transient, transient over delay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosRates {
    /// Inject a panic roughly one attempt in this many.
    pub panic_one_in: u32,
    /// Inject a transient error roughly one attempt in this many.
    pub transient_one_in: u32,
    /// Inject a delay roughly one attempt in this many.
    pub delay_one_in: u32,
    /// Delay length in `1..=delay_max_ms` when a delay fires.
    pub delay_max_ms: u64,
}

/// A deterministic schedule of compute faults, keyed by `(task key,
/// attempt)`. The task key is chosen by the pipeline under test (snapshot
/// day, figure number, plain index — whatever identifies the task
/// stably); attempts are 1-based.
///
/// `action_for` is a pure function, so the same plan consulted by the
/// executor and by a test oracle always agrees — a test can predict the
/// exact set of failures a supervised run must report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosTaskPlan {
    rules: Vec<ChaosRule>,
    seeded: Option<(u64, ChaosRates)>,
}

/// SplitMix64 step: the seeded plan's per-`(key, attempt)` stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosTaskPlan {
    /// A plan with faults drawn deterministically from `seed` at the given
    /// rates. Equal seeds give equal schedules.
    pub fn seeded(seed: u64, rates: ChaosRates) -> Self {
        ChaosTaskPlan {
            rules: Vec::new(),
            seeded: Some((seed, rates)),
        }
    }

    /// Add an explicitly scheduled fault for task `key`. `attempt = None`
    /// fires on every attempt (the task can never succeed); `Some(n)`
    /// fires only on attempt `n` (a retry recovers). Scheduled rules take
    /// precedence over the seeded background rates.
    pub fn with_rule(mut self, key: u64, attempt: Option<u32>, action: ChaosAction) -> Self {
        self.rules.push(ChaosRule {
            key,
            attempt,
            action,
        });
        self
    }

    /// The action task `key` must take on its `attempt`-th try (1-based).
    pub fn action_for(&self, key: u64, attempt: u32) -> ChaosAction {
        for rule in &self.rules {
            if rule.key == key && rule.attempt.is_none_or(|a| a == attempt) {
                return rule.action.clone();
            }
        }
        if let Some((seed, rates)) = &self.seeded {
            // Mix seed, key, and attempt into an independent stream per
            // (key, attempt) pair.
            let mut state =
                seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48);
            let mut one_in = |n: u32| n > 0 && splitmix(&mut state).is_multiple_of(n as u64);
            if one_in(rates.panic_one_in) {
                return ChaosAction::Panic(format!("chaos panic (key {key}, attempt {attempt})"));
            }
            if one_in(rates.transient_one_in) {
                return ChaosAction::Transient(format!(
                    "chaos transient fault (key {key}, attempt {attempt})"
                ));
            }
            if one_in(rates.delay_one_in) && rates.delay_max_ms > 0 {
                return ChaosAction::Delay(1 + splitmix(&mut state) % rates.delay_max_ms);
            }
        }
        ChaosAction::None
    }

    /// True when the plan can never fire (no rules, no seeded rates).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.seeded.is_none()
    }

    /// Parse a comma-separated spec of scheduled faults, e.g.
    /// `panic@12`, `panic@12#1,delay:200@5`, `transient@7#2,fatal@9`.
    ///
    /// Grammar per entry: `<action>@<key>[#<attempt>]` with `action` one
    /// of `panic`, `transient`, `fatal`, or `delay:<ms>`. Without
    /// `#<attempt>` the fault fires on every attempt.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = ChaosTaskPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (action_str, target) = entry
                .split_once('@')
                .ok_or_else(|| format!("chaos entry '{entry}' is missing '@<key>'"))?;
            let (key_str, attempt) = match target.split_once('#') {
                Some((k, a)) => {
                    let a: u32 = a
                        .parse()
                        .map_err(|_| format!("bad attempt '{a}' in chaos entry '{entry}'"))?;
                    (k, Some(a))
                }
                None => (target, None),
            };
            let key: u64 = key_str
                .parse()
                .map_err(|_| format!("bad key '{key_str}' in chaos entry '{entry}'"))?;
            let action = match action_str {
                "panic" => ChaosAction::Panic(format!("injected panic for task key {key}")),
                "transient" => {
                    ChaosAction::Transient(format!("injected transient fault for task key {key}"))
                }
                "fatal" => ChaosAction::Fatal(format!("injected fatal fault for task key {key}")),
                other => match other.split_once(':') {
                    Some(("delay", ms)) => ChaosAction::Delay(
                        ms.parse()
                            .map_err(|_| format!("bad delay '{ms}' in chaos entry '{entry}'"))?,
                    ),
                    _ => {
                        return Err(format!(
                            "unknown chaos action '{action_str}' \
                             (panic|transient|fatal|delay:<ms>)"
                        ))
                    }
                },
            };
            plan = plan.with_rule(key, attempt, action);
        }
        Ok(plan)
    }
}

/// Consult a chaos plan at the top of a task attempt: sleeps, panics, or
/// returns the injected error exactly as the plan dictates. A `None` plan
/// (production) is a no-op.
pub fn chaos_gate(plan: Option<&ChaosTaskPlan>, key: u64, attempt: u32) -> TaskResult<()> {
    match plan.map_or(ChaosAction::None, |p| p.action_for(key, attempt)) {
        ChaosAction::None => Ok(()),
        ChaosAction::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        ChaosAction::Panic(msg) => panic!("{msg}"),
        ChaosAction::Transient(msg) => Err(TaskError::Transient(msg)),
        ChaosAction::Fatal(msg) => Err(TaskError::Fatal(msg)),
    }
}

/// Identity of one attempt, passed to the task closure so fault plans and
/// diagnostics can key on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAttempt {
    /// Position of the task in the input sequence.
    pub index: usize,
    /// 1-based attempt number.
    pub attempt: u32,
}

fn panic_payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn backoff(cfg: &SupervisorConfig, attempt: u32) -> Duration {
    let mult = 1u32 << attempt.saturating_sub(1).min(16);
    cfg.backoff_base.saturating_mul(mult).min(cfg.backoff_cap)
}

/// The attempt loop shared by every supervised execution path.
fn attempt_loop<R>(
    index: usize,
    label: &str,
    cfg: &SupervisorConfig,
    mut run: impl FnMut(u32) -> TaskResult<R>,
) -> Result<R, TaskFailure> {
    let started = Instant::now();
    let mut attempt = 0u32;
    let over_deadline =
        |elapsed: Duration| cfg.task_timeout.is_some_and(|deadline| elapsed > deadline);
    let result = loop {
        attempt += 1;
        osn_obs::counter!("supervisor.attempts").inc();
        if attempt > 1 {
            osn_obs::counter!("supervisor.retries").inc();
        }
        let caught = catch_unwind(AssertUnwindSafe(|| run(attempt)));
        let elapsed = started.elapsed();
        let fail = |kind: FailureKind, payload: String| TaskFailure {
            index,
            label: label.to_string(),
            kind,
            payload,
            attempts: attempt,
            elapsed,
        };
        // A late attempt is quarantined whatever it returned: its value
        // never reaches the caller.
        if over_deadline(elapsed) {
            break Err(fail(
                FailureKind::TimedOut,
                format!(
                    "exceeded soft deadline of {:?}",
                    cfg.task_timeout.unwrap_or_default()
                ),
            ));
        }
        match caught {
            Ok(Ok(value)) => break Ok(value),
            Ok(Err(TaskError::Transient(msg))) => {
                if attempt <= cfg.retries {
                    std::thread::sleep(backoff(cfg, attempt));
                    continue;
                }
                break Err(fail(FailureKind::TransientExhausted, msg));
            }
            Ok(Err(TaskError::Fatal(msg))) => break Err(fail(FailureKind::Fatal, msg)),
            Err(payload) => break Err(fail(FailureKind::Panicked, panic_payload_string(payload))),
        }
    };
    if osn_obs::enabled() {
        osn_obs::histogram!("supervisor.task_us").record_duration(started.elapsed());
        match &result {
            Ok(_) => osn_obs::counter!("supervisor.tasks_ok").inc(),
            Err(f) => {
                osn_obs::counter!("supervisor.tasks_failed").inc();
                // Cold path: the dynamic-name registry lookup is fine.
                osn_obs::counter(&format!("supervisor.failed.{}", f.kind.as_str())).inc();
            }
        }
    }
    result
}

/// Run a single stateful task under supervision: catch-unwind isolation,
/// transient retries with backoff, and a post-hoc soft-deadline check.
/// The closure receives the 1-based attempt number.
pub fn supervised_call<R>(
    label: &str,
    cfg: &SupervisorConfig,
    run: impl FnMut(u32) -> TaskResult<R>,
) -> Result<R, TaskFailure> {
    attempt_loop(0, label, cfg, run)
}

/// Map `f` over `items` under supervision, preserving input order:
/// element `i` of the output is the verdict for item `i`. Labels default
/// to `task-<index>`; see [`try_par_map_labeled`] to attach meaningful
/// ones.
pub fn try_par_map<I, T, R, F>(
    items: I,
    cfg: &SupervisorConfig,
    f: F,
) -> Vec<Result<R, TaskFailure>>
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    T: Send,
    R: Send,
    F: Fn(TaskAttempt, &T) -> TaskResult<R> + Sync,
{
    try_par_map_labeled(items, cfg, |i, _| format!("task-{i}"), f)
}

/// [`try_par_map`] with a caller-supplied label per task (shown in
/// failures, manifests and quarantine records): one attempt loop per
/// item on `pool_map`'s workers.
pub fn try_par_map_labeled<I, T, R, F, L>(
    items: I,
    cfg: &SupervisorConfig,
    label: L,
    f: F,
) -> Vec<Result<R, TaskFailure>>
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    T: Send,
    R: Send,
    F: Fn(TaskAttempt, &T) -> TaskResult<R> + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    let workers = match cfg.workers {
        0 => default_workers(),
        n => n,
    };
    pool_map(
        items,
        workers,
        || (),
        |_, index, item| {
            let run = |attempt| f(TaskAttempt { index, attempt }, &item);
            attempt_loop(index, &label(index, &item), cfg, run)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_cfg() -> SupervisorConfig {
        SupervisorConfig {
            workers: 1,
            ..SupervisorConfig::default()
        }
    }

    fn par_cfg(workers: usize) -> SupervisorConfig {
        SupervisorConfig {
            workers,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn preserves_order_and_isolates_panics() {
        for workers in [1, 4] {
            let cfg = par_cfg(workers);
            let out = try_par_map(0..40u64, &cfg, |_, &x| {
                if x % 7 == 3 {
                    panic!("boom at {x}");
                }
                Ok(x * x)
            });
            assert_eq!(out.len(), 40);
            for (i, r) in out.iter().enumerate() {
                let x = i as u64;
                if x % 7 == 3 {
                    let f = r.as_ref().unwrap_err();
                    assert_eq!(f.kind, FailureKind::Panicked);
                    assert_eq!(f.index, i);
                    assert_eq!(f.attempts, 1);
                    assert!(f.payload.contains(&format!("boom at {x}")), "{f}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), x * x);
                }
            }
        }
    }

    #[test]
    fn transient_errors_retry_then_succeed() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts_seen = AtomicU32::new(0);
        let cfg = SupervisorConfig {
            workers: 2,
            retries: 2,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let out = try_par_map(0..4u64, &cfg, |att, &x| {
            if x == 2 && att.attempt < 3 {
                attempts_seen.fetch_add(1, Ordering::SeqCst);
                return Err(TaskError::Transient("flaky".into()));
            }
            Ok(x)
        });
        assert!(out.iter().all(|r| r.is_ok()), "retries must recover");
        assert_eq!(attempts_seen.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn transient_errors_exhaust_into_failure() {
        let cfg = SupervisorConfig {
            retries: 2,
            backoff_base: Duration::from_millis(1),
            ..seq_cfg()
        };
        let out = try_par_map(0..3u64, &cfg, |_, &x| {
            if x == 1 {
                Err(TaskError::Transient("always flaky".into()))
            } else {
                Ok(x)
            }
        });
        let f = out[1].as_ref().unwrap_err();
        assert_eq!(f.kind, FailureKind::TransientExhausted);
        assert_eq!(f.attempts, 3, "1 try + 2 retries");
        assert!(out[0].is_ok() && out[2].is_ok());
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let cfg = SupervisorConfig {
            retries: 5,
            ..seq_cfg()
        };
        let out = try_par_map([1u64], &cfg, |_, _| -> TaskResult<u64> {
            Err(TaskError::Fatal("no point".into()))
        });
        let f = out[0].as_ref().unwrap_err();
        assert_eq!(f.kind, FailureKind::Fatal);
        assert_eq!(f.attempts, 1);
    }

    #[test]
    fn late_task_quarantined_post_hoc_and_run_continues() {
        let cfg = SupervisorConfig {
            workers: 3,
            task_timeout: Some(Duration::from_millis(20)),
            ..SupervisorConfig::default()
        };
        let out = try_par_map(0..12u64, &cfg, |_, &x| {
            if x == 5 {
                std::thread::sleep(Duration::from_millis(150));
            }
            Ok(x)
        });
        assert_eq!(out.len(), 12);
        let f = out[5].as_ref().unwrap_err();
        assert_eq!(f.kind, FailureKind::TimedOut);
        assert!(f.elapsed >= Duration::from_millis(20));
        for (i, r) in out.iter().enumerate() {
            if i != 5 {
                assert_eq!(*r.as_ref().unwrap(), i as u64, "other tasks unaffected");
            }
        }
    }

    #[test]
    fn sequential_deadline_checked_post_hoc() {
        let cfg = SupervisorConfig {
            task_timeout: Some(Duration::from_millis(5)),
            ..seq_cfg()
        };
        let out = try_par_map([0u64, 1], &cfg, |_, &x| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            Ok(x)
        });
        assert_eq!(out[0].as_ref().unwrap_err().kind, FailureKind::TimedOut);
        assert_eq!(*out[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn labels_appear_in_failures() {
        let cfg = seq_cfg();
        let out = try_par_map_labeled(
            [7u64],
            &cfg,
            |_, &x| format!("day-{x}"),
            |_, _| -> TaskResult<u64> { panic!("poisoned snapshot") },
        );
        let f = out[0].as_ref().unwrap_err();
        assert_eq!(f.label, "day-7");
        let shown = f.to_string();
        assert!(shown.contains("day-7") && shown.contains("poisoned snapshot"));
    }

    #[test]
    fn supervised_call_retries_and_reports() {
        let cfg = SupervisorConfig {
            retries: 1,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let mut calls = 0;
        let ok = supervised_call("stateful", &cfg, |attempt| {
            calls += 1;
            if attempt == 1 {
                Err(TaskError::Transient("first try flaky".into()))
            } else {
                Ok(99)
            }
        });
        assert_eq!(ok.unwrap(), 99);
        assert_eq!(calls, 2);

        let err = supervised_call("stateful", &cfg, |_| -> TaskResult<u32> {
            panic!("state corrupted")
        })
        .unwrap_err();
        assert_eq!(err.kind, FailureKind::Panicked);
        assert!(err.payload.contains("state corrupted"));
    }

    #[test]
    fn chaos_gate_maps_plan_actions() {
        let plan = ChaosTaskPlan::from_spec("transient@1,fatal@2,panic@3,delay:1@4").unwrap();
        assert!(chaos_gate(None, 3, 1).is_ok());
        assert!(chaos_gate(Some(&plan), 0, 1).is_ok());
        assert!(matches!(
            chaos_gate(Some(&plan), 1, 1),
            Err(TaskError::Transient(_))
        ));
        assert!(matches!(
            chaos_gate(Some(&plan), 2, 1),
            Err(TaskError::Fatal(_))
        ));
        assert!(chaos_gate(Some(&plan), 4, 1).is_ok());
        let caught = catch_unwind(AssertUnwindSafe(|| chaos_gate(Some(&plan), 3, 1)));
        assert!(caught.is_err(), "panic action must panic");
    }

    #[test]
    fn empty_input() {
        let out: Vec<Result<u64, _>> =
            try_par_map(std::iter::empty::<u64>(), &par_cfg(4), |_, &x| Ok(x));
        assert!(out.is_empty());
    }

    #[test]
    fn chaos_plan_rules_match_key_and_attempt() {
        let plan = ChaosTaskPlan::default()
            .with_rule(12, None, ChaosAction::Panic("boom".into()))
            .with_rule(5, Some(1), ChaosAction::Transient("flaky".into()));
        assert_eq!(plan.action_for(12, 1), ChaosAction::Panic("boom".into()));
        assert_eq!(plan.action_for(12, 3), ChaosAction::Panic("boom".into()));
        assert_eq!(
            plan.action_for(5, 1),
            ChaosAction::Transient("flaky".into())
        );
        assert_eq!(plan.action_for(5, 2), ChaosAction::None, "retry recovers");
        assert_eq!(plan.action_for(7, 1), ChaosAction::None);
        assert!(!plan.is_empty());
        assert!(ChaosTaskPlan::default().is_empty());
    }

    #[test]
    fn chaos_plan_seeded_is_deterministic_and_attempt_sensitive() {
        let rates = ChaosRates {
            panic_one_in: 3,
            transient_one_in: 3,
            delay_one_in: 4,
            delay_max_ms: 20,
        };
        let a = ChaosTaskPlan::seeded(42, rates);
        let b = ChaosTaskPlan::seeded(42, rates);
        let mut fired = 0;
        let mut attempt_sensitive = false;
        for key in 0..200u64 {
            assert_eq!(a.action_for(key, 1), b.action_for(key, 1));
            if a.action_for(key, 1) != ChaosAction::None {
                fired += 1;
            }
            if a.action_for(key, 1) != a.action_for(key, 2) {
                attempt_sensitive = true;
            }
        }
        assert!(fired > 20, "rates of 1/3 must fire often ({fired}/200)");
        assert!(attempt_sensitive, "attempt must change the outcome");
    }

    #[test]
    fn chaos_plan_seeded_schedule_is_pinned() {
        // The seeded stream is part of the plan's contract: recorded
        // chaos drills replay only if (seed, key, attempt) keeps mapping
        // to the same action.
        let plan = ChaosTaskPlan::seeded(
            42,
            ChaosRates {
                panic_one_in: 6,
                transient_one_in: 4,
                delay_one_in: 2,
                delay_max_ms: 50,
            },
        );
        let schedule: Vec<String> = (0..12u64)
            .map(|key| match plan.action_for(key, 1 + key as u32 % 2) {
                ChaosAction::None => "-".to_string(),
                ChaosAction::Panic(_) => "P".to_string(),
                ChaosAction::Transient(_) => "T".to_string(),
                ChaosAction::Fatal(_) => "F".to_string(),
                ChaosAction::Delay(ms) => format!("D{ms}"),
            })
            .collect();
        assert_eq!(schedule.join(" "), "T - P D44 D42 P T P P T D3 T");
    }

    #[test]
    fn chaos_plan_spec_roundtrip() {
        let plan = ChaosTaskPlan::from_spec("panic@12#1, delay:200@5, transient@7, fatal@9#2")
            .expect("valid spec");
        assert!(matches!(plan.action_for(12, 1), ChaosAction::Panic(_)));
        assert_eq!(plan.action_for(12, 2), ChaosAction::None);
        assert_eq!(plan.action_for(5, 3), ChaosAction::Delay(200));
        assert!(matches!(plan.action_for(7, 4), ChaosAction::Transient(_)));
        assert!(matches!(plan.action_for(9, 2), ChaosAction::Fatal(_)));
        assert_eq!(plan.action_for(9, 1), ChaosAction::None);

        assert!(ChaosTaskPlan::from_spec("panic12").is_err());
        assert!(ChaosTaskPlan::from_spec("explode@3").is_err());
        assert!(ChaosTaskPlan::from_spec("panic@x").is_err());
        assert!(ChaosTaskPlan::from_spec("panic@3#y").is_err());
        assert!(ChaosTaskPlan::from_spec("delay:abc@3").is_err());
    }
}
