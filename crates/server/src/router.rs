//! Path → route resolution, split out from handling so the shard loop
//! can make its fast-path decision (health probes, rejects) without
//! touching the query engine.
//!
//! Every externally-visible endpoint is documented *in this file*, as
//! data: [`Route::doc`] is a closed match (no wildcard arm), so adding a
//! route variant fails to compile until it is either documented or
//! explicitly marked as a non-endpoint, and the workspace-root `API.md`
//! is generated from the table (see [`api_markdown`] and the
//! `api_md_is_generated_from_the_route_table` test).

use crate::http::RequestHead;
use osn_graph::Day;

/// Where a request goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz` — liveness; answered by the shard loop even under
    /// full overload so probes never queue behind real work.
    Health,
    /// `GET /readyz` — readiness; also loop-answered.
    Ready,
    /// `GET /v1/meta` — trace identity + server version.
    Meta,
    /// `GET /v1/days` — trace identity + queryable day lists.
    Days,
    /// `GET /v1/stats` — server counters + telemetry snapshot as JSON;
    /// loop-answered so it stays readable under overload.
    Stats,
    /// `GET /v1/head` — live-ingest head state: published day, applied
    /// events, lag estimate, ingest health; loop-answered so staleness
    /// stays observable while the work queue sheds (or ingest wedges).
    Head,
    /// `GET /metrics` — Prometheus text exposition; also loop-answered.
    Prometheus,
    /// `GET /v1/metrics/{day}` — one Figure 1(c)–(f) CSV row.
    Metrics(Day),
    /// `GET /v1/communities/{day}` — one community-summary CSV row.
    Communities(Day),
    /// `POST /v1/events` — durable write plane: append one authenticated,
    /// idempotent event batch to the WAL-backed trace. Admission-checked
    /// in the shard loop (auth, rate budget, fsync queue, head lag), body
    /// read and applied on a worker.
    PostEvents,
    /// Known prefix, unparseable day segment.
    BadDay,
    /// No such path.
    NotFound,
    /// A method the target path does not serve.
    MethodNotAllowed,
}

/// One row of the generated HTTP reference: everything a client needs
/// to know about an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDoc {
    /// HTTP method.
    pub method: &'static str,
    /// Path pattern, e.g. `/v1/metrics/{day}`.
    pub path: &'static str,
    /// Which plane answers: the shard loop (never queued), or the worker
    /// queue unless the response cache has the answer.
    pub plane: &'static str,
    /// Response body on success.
    pub body: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

impl Route {
    /// True for routes the shard loop answers without the response cache
    /// or a handler; false for routes that may go through the bounded
    /// work queue.
    pub fn is_fast_path(self) -> bool {
        !matches!(
            self,
            Route::Days | Route::Metrics(_) | Route::Communities(_) | Route::PostEvents
        )
    }

    /// Representative instances of every variant, used to iterate the
    /// documentation table (parameterised variants use a placeholder
    /// day).
    pub const ALL: &'static [Route] = &[
        Route::Health,
        Route::Ready,
        Route::Meta,
        Route::Days,
        Route::Stats,
        Route::Head,
        Route::Prometheus,
        Route::Metrics(0),
        Route::Communities(0),
        Route::PostEvents,
        Route::BadDay,
        Route::NotFound,
        Route::MethodNotAllowed,
    ];

    /// Documentation for this route, or `None` for non-endpoints
    /// (error dispositions). The match is deliberately closed: adding a
    /// `Route` variant will not compile until it is documented here (or
    /// consciously declared a non-endpoint), which keeps `API.md`
    /// complete by construction.
    pub fn doc(self) -> Option<RouteDoc> {
        match self {
            Route::Health => Some(RouteDoc {
                method: "GET",
                path: "/healthz",
                plane: "loop",
                body: "`text/plain` — `ok`",
                summary: "Liveness probe; answered even under full overload.",
            }),
            Route::Ready => Some(RouteDoc {
                method: "GET",
                path: "/readyz",
                plane: "loop",
                body: "`application/json` — readiness + trace identity",
                summary: "Readiness probe; the query engine is always warm once the \
                          listener is up.",
            }),
            Route::Meta => Some(RouteDoc {
                method: "GET",
                path: "/v1/meta",
                plane: "loop",
                body: "`application/json` — trace identity, server version",
                summary: "What the served answers were built from: node/edge/day counts, \
                          trace fingerprint, crate version.",
            }),
            Route::Days => Some(RouteDoc {
                method: "GET",
                path: "/v1/days",
                plane: "loop on a cache hit, else workers",
                body: "`application/json` — metric + community day lists",
                summary: "Every queryable snapshot day, plus trace identity.",
            }),
            Route::Stats => Some(RouteDoc {
                method: "GET",
                path: "/v1/stats",
                plane: "loop",
                body: "`application/json` — server counters + telemetry snapshot",
                summary: "Serving-plane counters and the full telemetry snapshot; stays \
                          readable while the work queue sheds.",
            }),
            Route::Head => Some(RouteDoc {
                method: "GET",
                path: "/v1/head",
                plane: "loop",
                body: "`application/json` — ingest head state",
                summary: "Live-ingest head: published day, applied events, ingest lag and \
                          health, staleness of the served snapshot. In batch mode health is \
                          `complete` and lag is zero.",
            }),
            Route::Prometheus => Some(RouteDoc {
                method: "GET",
                path: "/metrics",
                plane: "loop",
                body: "`text/plain` — Prometheus exposition",
                summary: "Server counters and telemetry in Prometheus text format.",
            }),
            Route::Metrics(_) => Some(RouteDoc {
                method: "GET",
                path: "/v1/metrics/{day}",
                plane: "loop on a cache hit, else workers",
                body: "`text/csv` — header + one row",
                summary: "One Figure 1(c)–(f) row, byte-identical to `osn metrics` CSV \
                          output; 404 for a day with no snapshot.",
            }),
            Route::Communities(_) => Some(RouteDoc {
                method: "GET",
                path: "/v1/communities/{day}",
                plane: "loop on a cache hit, else workers",
                body: "`text/csv` — header + one row",
                summary: "One community-summary row, byte-identical to `osn communities` \
                          CSV output; 404 for a day with no snapshot.",
            }),
            Route::PostEvents => Some(RouteDoc {
                method: "POST",
                path: "/v1/events",
                plane: "workers",
                body: "`application/json` — `{\"seq\":N,\"events\":N,\"duplicate\":bool}`",
                summary: "Append one event batch (CSV `N`/`E` lines or JSON \
                          `{\"events\":[...]}`) to the WAL-backed trace. Requires \
                          `Authorization: Bearer <token>`; an `Idempotency-Key` header makes \
                          retries safe (duplicates answer `200`, first commit `201`). Shed \
                          with `429`/`503` + `Retry-After` under rate, fsync-queue, or \
                          head-lag pressure; `409` for out-of-order batches.",
            }),
            // Error dispositions, not endpoints.
            Route::BadDay | Route::NotFound | Route::MethodNotAllowed => None,
        }
    }
}

/// Render the workspace-root `API.md` from the route table. Pure
/// function of [`Route::ALL`] + [`Route::doc`], so the committed file
/// can be asserted stale-free by a unit test.
pub fn api_markdown() -> String {
    let mut out = String::from(
        "# HTTP API\n\n\
         `osn serve` endpoints. **Generated file — do not edit by hand.** This \
         document is rendered from the route table in \
         `crates/server/src/router.rs` (`Route::doc`); the \
         `api_md_is_generated_from_the_route_table` test fails when a route is \
         undocumented or this file is stale. Regenerate with:\n\n\
         ```sh\n\
         OSN_REGEN_API_MD=1 cargo test -p osn-server api_md\n\
         ```\n\n\
         Endpoints are `GET` unless the table says otherwise; a known path with \
         the wrong method is `405`. Unknown paths are `404`; a known prefix with \
         an unparseable `{day}` is `400`. Overload is shed with `503` (or `429` \
         for a per-token write budget) + `Retry-After`. The *loop* plane \
         (one `poll(2)` loop per shard) answers inline, before the bounded work \
         queue, so those endpoints stay responsive while the server sheds load; \
         it also answers every day endpoint whose answer is in the response \
         cache.\n\n\
         Connections are HTTP/1.1 keep-alive (pipelining included; \
         `Connection: close` honored). Answers to pipelined requests are \
         corked: they leave in one socket write once no complete request \
         is buffered, before a cache miss or a `POST /v1/events` body is \
         waited on, and at 64 KiB; sockets run with `TCP_NODELAY`. A worker \
         hands a kept-alive connection back to its loop after 1 ms without a \
         next request; an idle one is closed after `--keepalive-timeout`. The \
         day endpoints and \
         `/v1/days` additionally honor `Accept-Encoding: gzip`, answering \
         `Content-Encoding: gzip` whenever the precompressed body is smaller \
         than the plain one (tiny bodies always come back identity).\n\n\
         | Method | Path | Plane | Body | Description |\n\
         |---|---|---|---|---|\n",
    );
    for r in Route::ALL {
        if let Some(d) = r.doc() {
            out.push_str(&format!(
                "| {} | `{}` | {} | {} | {} |\n",
                d.method, d.path, d.plane, d.body, d.summary
            ));
        }
    }
    out
}

/// Resolve a parsed request head.
pub fn route(head: &RequestHead) -> Route {
    if head.method == "POST" {
        return if head.path == "/v1/events" {
            Route::PostEvents
        } else {
            Route::MethodNotAllowed
        };
    }
    if head.method != "GET" {
        return Route::MethodNotAllowed;
    }
    match head.path.as_str() {
        "/healthz" => Route::Health,
        "/readyz" => Route::Ready,
        "/v1/meta" => Route::Meta,
        "/v1/days" => Route::Days,
        "/v1/stats" => Route::Stats,
        "/v1/head" => Route::Head,
        // The write plane is POST-only.
        "/v1/events" => Route::MethodNotAllowed,
        "/metrics" => Route::Prometheus,
        path => {
            if let Some(day) = path.strip_prefix("/v1/metrics/") {
                match day.parse::<Day>() {
                    Ok(d) => Route::Metrics(d),
                    Err(_) => Route::BadDay,
                }
            } else if let Some(day) = path.strip_prefix("/v1/communities/") {
                match day.parse::<Day>() {
                    Ok(d) => Route::Communities(d),
                    Err(_) => Route::BadDay,
                }
            } else {
                Route::NotFound
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(method: &str, path: &str) -> RequestHead {
        RequestHead::new(method, path)
    }

    #[test]
    fn routes_resolve() {
        assert_eq!(route(&head("GET", "/healthz")), Route::Health);
        assert_eq!(route(&head("GET", "/readyz")), Route::Ready);
        assert_eq!(route(&head("GET", "/v1/meta")), Route::Meta);
        assert_eq!(route(&head("GET", "/v1/days")), Route::Days);
        assert_eq!(route(&head("GET", "/v1/stats")), Route::Stats);
        assert_eq!(route(&head("GET", "/v1/head")), Route::Head);
        assert_eq!(route(&head("GET", "/metrics")), Route::Prometheus);
        assert_eq!(route(&head("GET", "/v1/metrics/42")), Route::Metrics(42));
        assert_eq!(
            route(&head("GET", "/v1/communities/7")),
            Route::Communities(7)
        );
        assert_eq!(route(&head("GET", "/v1/metrics/xyz")), Route::BadDay);
        assert_eq!(route(&head("GET", "/v1/metrics/-3")), Route::BadDay);
        assert_eq!(route(&head("GET", "/nope")), Route::NotFound);
        assert_eq!(route(&head("POST", "/healthz")), Route::MethodNotAllowed);
        assert_eq!(route(&head("POST", "/v1/events")), Route::PostEvents);
        assert_eq!(route(&head("GET", "/v1/events")), Route::MethodNotAllowed);
        assert_eq!(route(&head("PUT", "/v1/events")), Route::MethodNotAllowed);
        assert_eq!(route(&head("POST", "/nope")), Route::MethodNotAllowed);
    }

    #[test]
    fn fast_path_split() {
        assert!(Route::Health.is_fast_path());
        assert!(Route::Meta.is_fast_path());
        assert!(Route::NotFound.is_fast_path());
        assert!(Route::Stats.is_fast_path());
        assert!(Route::Head.is_fast_path());
        assert!(Route::Prometheus.is_fast_path());
        assert!(!Route::Days.is_fast_path());
        assert!(!Route::Metrics(1).is_fast_path());
        assert!(!Route::Communities(1).is_fast_path());
        assert!(
            !Route::PostEvents.is_fast_path(),
            "body read + WAL append happen on a worker"
        );
    }

    #[test]
    fn every_resolvable_path_appears_in_the_docs() {
        // Each documented path pattern must resolve back to its variant
        // (with a sample day substituted), so the table can't document
        // paths the router doesn't actually serve.
        for r in Route::ALL {
            let Some(d) = r.doc() else { continue };
            let concrete = d.path.replace("{day}", "42");
            let resolved = route(&head(d.method, &concrete));
            let matches = match (r, resolved) {
                (Route::Metrics(_), Route::Metrics(42)) => true,
                (Route::Communities(_), Route::Communities(42)) => true,
                (a, b) => *a == b,
            };
            assert!(matches, "doc path {} resolved to {resolved:?}", d.path);
        }
    }

    /// `API.md` at the workspace root must be exactly what the route
    /// table renders. Run with `OSN_REGEN_API_MD=1` to (re)write it.
    #[test]
    fn api_md_is_generated_from_the_route_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../API.md");
        let expected = api_markdown();
        if std::env::var_os("OSN_REGEN_API_MD").is_some() {
            std::fs::write(path, &expected).expect("write API.md");
            return;
        }
        let committed = std::fs::read_to_string(path).unwrap_or_default();
        assert_eq!(
            committed, expected,
            "API.md is stale or missing a route. Regenerate with:\n  \
             OSN_REGEN_API_MD=1 cargo test -p osn-server api_md"
        );
    }
}
