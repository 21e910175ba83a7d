//! Route execution over the pre-materialised [`SnapshotQuery`] engine.
//!
//! Every work-queue route runs under the same supervision machinery the
//! batch pipelines use (`osn_metrics::supervisor`): `catch_unwind`
//! isolation, transient retries, a post-hoc soft deadline, and the
//! shared failure taxonomy. The HTTP mapping is fixed:
//!
//! | [`FailureKind`]        | status | semantics                        |
//! |------------------------|--------|----------------------------------|
//! | `Panicked`             | 500    | handler bug; process stays up    |
//! | `Fatal`                | 500    | unrecoverable handler error      |
//! | `TransientExhausted`   | 503    | retryable pressure; back off     |
//! | `TimedOut`             | 503    | soft deadline blown; back off    |

use crate::http::Response;
use crate::router::Route;
use osn_core::query::SnapshotQuery;
use osn_metrics::supervisor::{
    chaos_gate, supervised_call, ChaosTaskPlan, FailureKind, SupervisorConfig, TaskFailure,
};
use std::time::Duration;

/// Supervision knobs for one request's handler work.
#[derive(Debug, Clone, Default)]
pub struct HandlerPolicy {
    /// Transient retries before giving up with a 503.
    pub retries: u32,
    /// Remaining soft budget for this request (already net of queue
    /// wait); `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection, keyed by snapshot day (chaos
    /// drills only; `None` in production).
    pub chaos: Option<ChaosTaskPlan>,
}

/// A handled request: the response plus the access-log reason token
/// (`"-"` for clean outcomes, a `FailureKind` name otherwise).
#[derive(Debug)]
pub struct Handled {
    /// What to write to the peer.
    pub response: Response,
    /// Access-log reason.
    pub reason: &'static str,
}

impl Handled {
    fn clean(response: Response) -> Handled {
        Handled {
            response,
            reason: "-",
        }
    }
}

fn failure_response(failure: &TaskFailure) -> Handled {
    let reason = failure.kind.as_str();
    let response = match failure.kind {
        FailureKind::Panicked | FailureKind::Fatal => {
            Response::text(500, &format!("handler failed: {reason}\n"))
        }
        FailureKind::TransientExhausted | FailureKind::TimedOut => {
            let mut r = Response::text(503, &format!("try again: {reason}\n"));
            r.retry_after = Some(1);
            r
        }
    };
    Handled { response, reason }
}

/// Pre-materialised answer lookup for one route.
type Lookup = fn(&SnapshotQuery, u32) -> Option<String>;

/// Execute a work-queue route. Fast-path routes (health probes, rejects)
/// never reach this function — the shard loop answers them inline.
pub fn handle(query: &SnapshotQuery, route: Route, policy: &HandlerPolicy) -> Handled {
    let (label, day, lookup): (&str, u64, Lookup) = match route {
        Route::Days => {
            // Chaos keys on snapshot day; /v1/days uses a reserved key
            // outside the day range so drills can target it separately.
            ("days", u64::MAX, |q, _| Some(q.days_json()))
        }
        Route::Metrics(day) => ("metrics", day as u64, SnapshotQuery::metrics_row_csv),
        Route::Communities(day) => (
            "communities",
            day as u64,
            SnapshotQuery::communities_row_csv,
        ),
        fast => unreachable!("fast-path route {fast:?} reached the work queue"),
    };
    let cfg = SupervisorConfig {
        workers: 1,
        retries: policy.retries,
        task_timeout: policy.deadline,
        backoff_base: Duration::from_millis(5),
        ..SupervisorConfig::default()
    };
    let chaos = policy.chaos.as_ref();
    let outcome = supervised_call(label, &cfg, |attempt| {
        chaos_gate(chaos, day, attempt)?;
        Ok(lookup(query, day as u32))
    });
    match outcome {
        Ok(Some(body)) => Handled::clean(match route {
            Route::Days => Response::json(200, body),
            _ => Response::csv(body),
        }),
        Ok(None) => Handled::clean(Response::text(404, &format!("no snapshot for day {day}\n"))),
        Err(failure) => failure_response(&failure),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_genstream::{TraceConfig, TraceGenerator};
    use osn_metrics::supervisor::ChaosAction;
    use std::sync::OnceLock;

    fn query() -> &'static SnapshotQuery {
        static Q: OnceLock<SnapshotQuery> = OnceLock::new();
        Q.get_or_init(|| {
            let log = TraceGenerator::new(TraceConfig::tiny()).generate();
            SnapshotQuery::builder()
                .metrics(osn_core::network::MetricSeriesConfig {
                    stride: 40,
                    path_sample: 30,
                    clustering_sample: 100,
                    workers: 2,
                    ..Default::default()
                })
                .communities(osn_core::communities::CommunityAnalysisConfig {
                    stride: 80,
                    ..Default::default()
                })
                .build(&log)
        })
    }

    #[test]
    fn metrics_route_serves_the_engine_row_verbatim() {
        let q = query();
        let day = q.metric_days()[0];
        let h = handle(q, Route::Metrics(day), &HandlerPolicy::default());
        assert_eq!(h.response.status, 200);
        assert_eq!(h.reason, "-");
        assert_eq!(
            String::from_utf8(h.response.body.into_vec()).unwrap(),
            q.metrics_row_csv(day).unwrap()
        );
    }

    #[test]
    fn missing_day_is_404_not_interpolated() {
        let q = query();
        let h = handle(q, Route::Metrics(99_999), &HandlerPolicy::default());
        assert_eq!(h.response.status, 404);
        assert_eq!(h.reason, "-");
    }

    #[test]
    fn days_route_returns_engine_json() {
        let q = query();
        let h = handle(q, Route::Days, &HandlerPolicy::default());
        assert_eq!(h.response.status, 200);
        assert_eq!(
            String::from_utf8(h.response.body.into_vec()).unwrap(),
            q.days_json()
        );
    }

    #[test]
    fn chaos_panic_maps_to_500_with_taxonomy_reason() {
        let q = query();
        let day = q.metric_days()[0];
        let policy = HandlerPolicy {
            chaos: Some(ChaosTaskPlan::default().with_rule(
                day as u64,
                None,
                ChaosAction::Panic("injected".into()),
            )),
            ..Default::default()
        };
        let h = handle(q, Route::Metrics(day), &policy);
        assert_eq!(h.response.status, 500);
        assert_eq!(h.reason, "panicked");
    }

    #[test]
    fn chaos_transient_retries_then_succeeds_or_sheds() {
        let q = query();
        let day = q.metric_days()[0];
        // Transient on attempt 1 only; one retry allowed → success.
        let policy = HandlerPolicy {
            retries: 1,
            chaos: Some(ChaosTaskPlan::default().with_rule(
                day as u64,
                Some(1),
                ChaosAction::Transient("blip".into()),
            )),
            ..Default::default()
        };
        let h = handle(q, Route::Metrics(day), &policy);
        assert_eq!(h.response.status, 200);
        // No retries → 503 with Retry-After and the taxonomy reason.
        let policy = HandlerPolicy {
            retries: 0,
            chaos: Some(ChaosTaskPlan::default().with_rule(
                day as u64,
                None,
                ChaosAction::Transient("pressure".into()),
            )),
            ..Default::default()
        };
        let h = handle(q, Route::Metrics(day), &policy);
        assert_eq!(h.response.status, 503);
        assert_eq!(h.response.retry_after, Some(1));
        assert_eq!(h.reason, "transient-exhausted");
    }

    #[test]
    fn blown_deadline_maps_to_503_timed_out() {
        let q = query();
        let day = q.metric_days()[0];
        let policy = HandlerPolicy {
            deadline: Some(Duration::from_millis(5)),
            chaos: Some(ChaosTaskPlan::default().with_rule(
                day as u64,
                None,
                ChaosAction::Delay(30),
            )),
            ..Default::default()
        };
        let h = handle(q, Route::Metrics(day), &policy);
        assert_eq!(h.response.status, 503);
        assert_eq!(h.reason, "timed-out");
    }
}
