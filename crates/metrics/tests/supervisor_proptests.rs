//! Property-based tests for the supervised executor.
//!
//! A seeded [`ChaosTaskPlan`] is a *pure* function `(key, attempt) →
//! action`, so the same plan that injects faults inside the worker also
//! serves as the oracle: we can predict, per task, exactly which verdict
//! the supervisor must return and after how many attempts — then check
//! the parallel run against that prediction.

use osn_metrics::supervisor::{
    chaos_gate, try_par_map, ChaosAction, ChaosRates, ChaosTaskPlan, FailureKind, SupervisorConfig,
    TaskResult,
};
use proptest::prelude::*;
use std::time::Duration;

/// What the oracle predicts for one task.
#[derive(Debug, PartialEq, Eq)]
enum Expected {
    Ok { attempts: u32 },
    Fail { kind: FailureKind, attempts: u32 },
}

/// Replay the supervisor's attempt loop against the plan, purely.
fn predict(plan: &ChaosTaskPlan, key: u64, retries: u32) -> Expected {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match plan.action_for(key, attempt) {
            ChaosAction::None | ChaosAction::Delay(_) => return Expected::Ok { attempts: attempt },
            ChaosAction::Panic(_) => {
                return Expected::Fail {
                    kind: FailureKind::Panicked,
                    attempts: attempt,
                }
            }
            ChaosAction::Fatal(_) => {
                return Expected::Fail {
                    kind: FailureKind::Fatal,
                    attempts: attempt,
                }
            }
            ChaosAction::Transient(_) => {
                if attempt <= retries {
                    continue;
                }
                return Expected::Fail {
                    kind: FailureKind::TransientExhausted,
                    attempts: attempt,
                };
            }
        }
    }
}

fn chaos_cfg(workers: usize, retries: u32) -> SupervisorConfig {
    SupervisorConfig {
        workers,
        retries,
        backoff_base: Duration::from_micros(100),
        ..SupervisorConfig::default()
    }
}

proptest! {
    /// Against an arbitrary seeded fault mix: no task is lost or
    /// duplicated, order is preserved, every injected panic surfaces
    /// exactly once as a typed `TaskFailure`, and verdicts (including
    /// attempt counts) match the pure oracle.
    #[test]
    fn verdicts_match_chaos_oracle(
        seed in any::<u64>(),
        n in 1usize..48,
        workers in 1usize..5,
        retries in 0u32..3,
        panic_one_in in 2u32..8,
        transient_one_in in 2u32..8,
    ) {
        let plan = ChaosTaskPlan::seeded(
            seed,
            ChaosRates {
                panic_one_in,
                transient_one_in,
                delay_one_in: 0,
                delay_max_ms: 0,
            },
        );
        let cfg = chaos_cfg(workers, retries);
        let out = try_par_map(0..n as u64, &cfg, |att, &key| -> TaskResult<u64> {
            chaos_gate(Some(&plan), key, att.attempt)?;
            Ok(key.wrapping_mul(31) ^ 7)
        });

        // No lost or duplicated items: exactly one verdict per input.
        prop_assert_eq!(out.len(), n);
        for (i, verdict) in out.iter().enumerate() {
            let key = i as u64;
            let got = match verdict {
                Ok(value) => {
                    prop_assert_eq!(*value, key.wrapping_mul(31) ^ 7);
                    Expected::Ok { attempts: 0 } // attempts checked below for failures
                }
                Err(f) => {
                    prop_assert_eq!(f.index, i, "failure reported under wrong index");
                    prop_assert_eq!(f.label.clone(), format!("task-{i}"));
                    Expected::Fail { kind: f.kind, attempts: f.attempts }
                }
            };
            match (predict(&plan, key, retries), got) {
                (Expected::Ok { .. }, Expected::Ok { .. }) => {}
                (Expected::Fail { kind, attempts }, Expected::Fail { kind: gk, attempts: ga }) => {
                    prop_assert_eq!(kind, gk, "wrong failure kind for key {}", key);
                    prop_assert_eq!(attempts, ga, "wrong attempt count for key {}", key);
                }
                (want, got) => {
                    prop_assert!(false, "key {}: oracle {:?} but supervisor {:?}", key, want, got);
                }
            }
        }
    }

    /// A fault scheduled only for attempt 1 is healed by a single retry:
    /// the run is fully clean, and without retries that same plan fails
    /// exactly the scheduled task — nothing else.
    #[test]
    fn first_attempt_transients_recover_with_retry(
        n in 2usize..32,
        workers in 1usize..5,
        fault_at in any::<u64>(),
    ) {
        let fault_at = fault_at % n as u64;
        let plan = ChaosTaskPlan::default()
            .with_rule(fault_at, Some(1), ChaosAction::Transient("flaky once".into()));

        let run = |retries: u32| {
            try_par_map(0..n as u64, &chaos_cfg(workers, retries), |att, &key| -> TaskResult<u64> {
                chaos_gate(Some(&plan), key, att.attempt)?;
                Ok(key)
            })
        };

        let healed = run(1);
        prop_assert!(healed.iter().all(|r| r.is_ok()), "one retry must heal an attempt-1 fault");

        let unhealed = run(0);
        for (i, r) in unhealed.iter().enumerate() {
            if i as u64 == fault_at {
                let f = r.as_ref().unwrap_err();
                prop_assert_eq!(f.kind, FailureKind::TransientExhausted);
                prop_assert_eq!(f.attempts, 1);
            } else {
                prop_assert_eq!(*r.as_ref().unwrap(), i as u64);
            }
        }
    }

    /// Scheduled panics surface exactly once each, at the scheduled
    /// attempt, and never take neighbouring tasks down with them.
    #[test]
    fn scheduled_panics_isolated_exactly_once(
        n in 3usize..40,
        workers in 1usize..5,
        picks in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let mut panic_keys: Vec<u64> = picks.iter().map(|p| p % n as u64).collect();
        panic_keys.sort_unstable();
        panic_keys.dedup();
        let mut plan = ChaosTaskPlan::default();
        for &k in &panic_keys {
            plan = plan.with_rule(k, None, ChaosAction::Panic(format!("chaos-panic-{k}")));
        }

        let out = try_par_map(0..n as u64, &chaos_cfg(workers, 2), |att, &key| -> TaskResult<u64> {
            chaos_gate(Some(&plan), key, att.attempt)?;
            Ok(key + 1000)
        });
        prop_assert_eq!(out.len(), n);
        let mut surfaced = Vec::new();
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) => prop_assert_eq!(*v, i as u64 + 1000),
                Err(f) => {
                    prop_assert_eq!(f.kind, FailureKind::Panicked);
                    // Panics are never retried, even with retries budget.
                    prop_assert_eq!(f.attempts, 1);
                    prop_assert!(
                        f.payload.contains(&format!("chaos-panic-{i}")),
                        "payload lost: {}", f.payload
                    );
                    surfaced.push(i as u64);
                }
            }
        }
        prop_assert_eq!(surfaced, panic_keys, "each injected panic surfaces exactly once");
    }
}
