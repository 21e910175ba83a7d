//! Pre-materialised snapshot query engine shared by `osn metrics` /
//! `osn communities` batch runs and the `osn serve` daemon.
//!
//! The contract is **byte identity**: a value served over HTTP must be
//! the exact bytes the batch CLI would have written to CSV for the same
//! trace and configuration. The query surface is *typed* — lookups
//! return [`MetricsRow`] / [`CommunityRow`] structs — and every wire
//! rendering (CSV row, CSV document, JSON) goes through one serializer
//! in this module, which reproduces `Table::to_csv`'s cell format
//! exactly (`f64` via `Display`, empty cell for a missing value). A
//! golden test asserts the rendered documents are byte-identical to
//! `Table::to_csv`, so the serializer cannot drift from the batch CLI.
//!
//! Build-time work is deliberately front-loaded: `osn serve` calls
//! [`SnapshotQuery::build`] exactly once at startup, after which every
//! request is a lookup in a sorted day index. The build path runs the
//! metric sweep unsupervised (no retries, no chaos): a trace that
//! cannot be analysed cleanly should fail loudly at startup, not serve
//! gaps.

use crate::communities::{track, CommunityAnalysisConfig};
use crate::network::{metric_series, MetricSeries, MetricSeriesConfig};
use osn_community::SnapshotSummary;
use osn_graph::{Day, EventLog};
use osn_stats::{Series, Table};
use std::fmt::Display;
use std::fmt::Write as _;

/// Configuration for both analysis families the engine materialises.
///
/// Marked `#[non_exhaustive]`: construct it with
/// [`SnapshotQuery::builder`] (or mutate a `Default`), so adding fields
/// is not a breaking change for downstream crates.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SnapshotQueryConfig {
    /// Figure 1(c)–(f) metric sweep parameters.
    pub metrics: MetricSeriesConfig,
    /// §4 community-tracking parameters.
    pub communities: CommunityAnalysisConfig,
}

/// Builder for [`SnapshotQuery`]: collects a [`SnapshotQueryConfig`]
/// without struct literals (the config is `#[non_exhaustive]`), then
/// runs the build.
#[derive(Debug, Clone, Default)]
pub struct SnapshotQueryBuilder {
    cfg: SnapshotQueryConfig,
}

impl SnapshotQueryBuilder {
    /// Set the metric-sweep parameters.
    pub fn metrics(mut self, metrics: MetricSeriesConfig) -> Self {
        self.cfg.metrics = metrics;
        self
    }

    /// Set the community-tracking parameters.
    pub fn communities(mut self, communities: CommunityAnalysisConfig) -> Self {
        self.cfg.communities = communities;
        self
    }

    /// The assembled configuration (for callers that need the config
    /// itself, e.g. to log it).
    pub fn config(&self) -> &SnapshotQueryConfig {
        &self.cfg
    }

    /// Run both sweeps and materialise the query engine.
    pub fn build(&self, log: &EventLog) -> SnapshotQuery {
        SnapshotQuery::build(log, &self.cfg)
    }
}

// ---------------------------------------------------------------------------
// The one serializer: CSV cells and JSON values
// ---------------------------------------------------------------------------

/// Append one CSV cell the way `Table::to_csv` renders it: `f64` through
/// `Display`, a missing value as an empty cell.
fn push_csv_cell(out: &mut String, v: Option<f64>) {
    out.push(',');
    if let Some(y) = v {
        let _ = write!(out, "{y}");
    }
}

/// Minimal single-line JSON object writer — the only JSON producer in
/// the query/serve stack, so `/v1/days`, `/v1/meta` and row renderings
/// cannot drift apart in formatting.
struct JsonObject {
    buf: String,
}

impl JsonObject {
    fn new() -> JsonObject {
        JsonObject { buf: "{".into() }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{key}\":");
    }

    /// A numeric field (`u32`/`u64`/integral `f64` all print via
    /// `Display`, matching the CSV cell format).
    fn num(mut self, key: &str, v: impl Display) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// An optional numeric field; `None` renders as `null`.
    fn opt_num(mut self, key: &str, v: Option<f64>) -> Self {
        self.key(key);
        match v {
            Some(y) => {
                let _ = write!(self.buf, "{y}");
            }
            None => self.buf.push_str("null"),
        }
        self
    }

    /// A string field. Values here are version strings and hex
    /// fingerprints; backslashes and quotes are escaped for safety.
    fn str_field(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
        self
    }

    /// An array of days: `[1,2,3]`.
    fn day_array(mut self, key: &str, days: &[Day]) -> Self {
        self.key(key);
        self.buf.push('[');
        for (i, d) in days.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{d}");
        }
        self.buf.push(']');
        self
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Typed rows
// ---------------------------------------------------------------------------

/// One Figure 1(c)–(f) snapshot row, typed.
///
/// `avg_degree` and `avg_clustering` are computed on every snapshot;
/// `avg_path_length` only every `path_every`-th snapshot and
/// `assortativity` only when defined (degree variance > 0) — absent
/// values render as empty CSV cells / JSON `null`, exactly like the
/// batch table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsRow {
    /// Snapshot day.
    pub day: Day,
    /// Figure 1(c): average node degree.
    pub avg_degree: Option<f64>,
    /// Figure 1(d): sampled average path length over the giant component.
    pub avg_path_length: Option<f64>,
    /// Figure 1(e): average clustering coefficient.
    pub avg_clustering: Option<f64>,
    /// Figure 1(f): degree assortativity.
    pub assortativity: Option<f64>,
}

impl MetricsRow {
    /// The CSV header of the metrics table, without trailing newline.
    pub const CSV_HEADER: &'static str =
        "day,avg_degree,avg_path_length,avg_clustering,assortativity";

    /// Render the row as one CSV line (no trailing newline), cell-for-
    /// cell identical to the batch `Table::to_csv` rendering.
    pub fn to_csv_row(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.day);
        push_csv_cell(&mut out, self.avg_degree);
        push_csv_cell(&mut out, self.avg_path_length);
        push_csv_cell(&mut out, self.avg_clustering);
        push_csv_cell(&mut out, self.assortativity);
        out
    }

    /// Render the row as a single-line JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .num("day", self.day)
            .opt_num("avg_degree", self.avg_degree)
            .opt_num("avg_path_length", self.avg_path_length)
            .opt_num("avg_clustering", self.avg_clustering)
            .opt_num("assortativity", self.assortativity)
            .finish()
    }
}

/// One per-snapshot community summary row, typed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityRow {
    /// Snapshot day.
    pub day: Day,
    /// Louvain modularity of the partition.
    pub modularity: Option<f64>,
    /// Number of tracked communities (≥ min size).
    pub tracked_communities: Option<f64>,
    /// Fraction of nodes covered by the five largest communities.
    pub top5_coverage: Option<f64>,
}

impl CommunityRow {
    /// The CSV header of the communities table, without trailing newline.
    pub const CSV_HEADER: &'static str = "day,modularity,tracked_communities,top5_coverage";

    /// Render the row as one CSV line (no trailing newline).
    pub fn to_csv_row(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.day);
        push_csv_cell(&mut out, self.modularity);
        push_csv_cell(&mut out, self.tracked_communities);
        push_csv_cell(&mut out, self.top5_coverage);
        out
    }

    /// Render the row as a single-line JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .num("day", self.day)
            .opt_num("modularity", self.modularity)
            .opt_num("tracked_communities", self.tracked_communities)
            .opt_num("top5_coverage", self.top5_coverage)
            .finish()
    }
}

/// Build the per-snapshot community summary table exactly the way
/// `osn communities` writes `communities.csv`. Kept here so the CLI and
/// the server share one definition of the schema.
pub fn communities_table(summaries: &[SnapshotSummary]) -> Table {
    let mut q = Series::new("modularity");
    let mut tracked = Series::new("tracked_communities");
    let mut cov = Series::new("top5_coverage");
    for s in summaries {
        q.push(s.day as f64, s.modularity);
        tracked.push(s.day as f64, s.num_tracked as f64);
        cov.push(s.day as f64, s.top5_coverage);
    }
    Table::new("day").with(q).with(tracked).with(cov)
}

/// The sorted, deduplicated day grid covered by a set of series — the
/// same merge `Table::to_csv` performs on its x values.
fn day_grid(series: &[&Series]) -> Vec<Day> {
    let mut days: Vec<Day> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x as Day))
        .collect();
    days.sort_unstable();
    days.dedup();
    days
}

fn lookup(s: &Series, day: Day) -> Option<f64> {
    let x = day as f64;
    s.points.iter().find(|&&(px, _)| px == x).map(|&(_, y)| y)
}

fn metric_rows(m: &MetricSeries) -> Vec<MetricsRow> {
    day_grid(&[
        &m.avg_degree,
        &m.path_length,
        &m.clustering,
        &m.assortativity,
    ])
    .into_iter()
    .map(|day| MetricsRow {
        day,
        avg_degree: lookup(&m.avg_degree, day),
        avg_path_length: lookup(&m.path_length, day),
        avg_clustering: lookup(&m.clustering, day),
        assortativity: lookup(&m.assortativity, day),
    })
    .collect()
}

fn community_rows(summaries: &[SnapshotSummary]) -> Vec<CommunityRow> {
    summaries
        .iter()
        .map(|s| CommunityRow {
            day: s.day,
            modularity: Some(s.modularity),
            tracked_communities: Some(s.num_tracked as f64),
            top5_coverage: Some(s.top5_coverage),
        })
        .collect()
}

/// Render a full CSV document from typed rows through the shared
/// serializer (header + one line per row, newline-terminated).
fn csv_document<R>(header: &str, rows: &[R], render: impl Fn(&R) -> String) -> String {
    let mut out = String::with_capacity(header.len() + 1 + rows.len() * 32);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(&render(r));
        out.push('\n');
    }
    out
}

/// Identity of the trace the engine was built from, for health /
/// readiness reporting.
#[derive(Debug, Clone, Copy)]
pub struct TraceMeta {
    /// Total node count.
    pub num_nodes: u32,
    /// Total undirected edge count.
    pub num_edges: u64,
    /// Number of trace days (`end_day + 1`).
    pub num_days: Day,
    /// Order-sensitive event-stream fingerprint.
    pub fingerprint: u64,
}

/// The engine: day-indexed typed rows plus their pre-rendered CSV
/// documents.
#[derive(Debug, Clone)]
pub struct SnapshotQuery {
    meta: TraceMeta,
    metric_rows: Vec<MetricsRow>,
    community_rows: Vec<CommunityRow>,
    metrics_csv: String,
    communities_csv: String,
}

impl SnapshotQuery {
    /// A builder collecting the (non-exhaustive) configuration.
    pub fn builder() -> SnapshotQueryBuilder {
        SnapshotQueryBuilder::default()
    }

    /// Run both analysis sweeps and freeze their typed rows and CSV
    /// renderings.
    ///
    /// # Panics
    /// Panics if the metric sweep fails on any snapshot; at build time
    /// that means the trace or the configuration is unusable and the
    /// caller should not come up.
    pub fn build(log: &EventLog, cfg: &SnapshotQueryConfig) -> SnapshotQuery {
        let _span = osn_obs::span!("query.build");
        let m = {
            let _s = osn_obs::span!("metrics");
            metric_series(log, &cfg.metrics)
        };
        let (summaries, _) = {
            let _s = osn_obs::span!("communities");
            track(log, &cfg.communities)
        };
        let metric_rows = metric_rows(&m);
        let community_rows = community_rows(&summaries);
        let metrics_csv =
            csv_document(MetricsRow::CSV_HEADER, &metric_rows, MetricsRow::to_csv_row);
        let communities_csv = csv_document(
            CommunityRow::CSV_HEADER,
            &community_rows,
            CommunityRow::to_csv_row,
        );
        SnapshotQuery {
            meta: TraceMeta {
                num_nodes: log.num_nodes(),
                num_edges: log.num_edges(),
                num_days: log.end_day() + 1,
                fingerprint: log.fingerprint(),
            },
            metric_rows,
            community_rows,
            metrics_csv,
            communities_csv,
        }
    }

    /// Trace identity summary.
    pub fn meta(&self) -> TraceMeta {
        self.meta
    }

    /// Days with a metrics row, ascending.
    pub fn metric_days(&self) -> Vec<Day> {
        self.metric_rows.iter().map(|r| r.day).collect()
    }

    /// Days with a communities row, ascending.
    pub fn community_days(&self) -> Vec<Day> {
        self.community_rows.iter().map(|r| r.day).collect()
    }

    /// The full metrics CSV, byte-identical to `osn metrics`'s
    /// `metrics.csv` for the same configuration.
    pub fn metrics_csv(&self) -> &str {
        &self.metrics_csv
    }

    /// The full communities CSV, byte-identical to `osn communities`'s
    /// `communities.csv` for the same configuration.
    pub fn communities_csv(&self) -> &str {
        &self.communities_csv
    }

    /// The typed metrics row for `day`, or `None` for a day with no
    /// snapshot (never interpolated).
    pub fn metrics_row(&self, day: Day) -> Option<MetricsRow> {
        let idx = self
            .metric_rows
            .binary_search_by_key(&day, |r| r.day)
            .ok()?;
        Some(self.metric_rows[idx])
    }

    /// The typed communities row for `day`, or `None`.
    pub fn communities_row(&self, day: Day) -> Option<CommunityRow> {
        let idx = self
            .community_rows
            .binary_search_by_key(&day, |r| r.day)
            .ok()?;
        Some(self.community_rows[idx])
    }

    /// CSV header + the metrics row for `day`, newline-terminated —
    /// byte-identical to the corresponding lines of
    /// [`Self::metrics_csv`] — or `None` for a day with no snapshot.
    pub fn metrics_row_csv(&self, day: Day) -> Option<String> {
        let row = self.metrics_row(day)?;
        Some(format!(
            "{}\n{}\n",
            MetricsRow::CSV_HEADER,
            row.to_csv_row()
        ))
    }

    /// CSV header + the communities row for `day`, or `None`.
    pub fn communities_row_csv(&self, day: Day) -> Option<String> {
        let row = self.communities_row(day)?;
        Some(format!(
            "{}\n{}\n",
            CommunityRow::CSV_HEADER,
            row.to_csv_row()
        ))
    }

    /// `/v1/days` body: one JSON line describing the trace and every
    /// queryable day.
    pub fn days_json(&self) -> String {
        JsonObject::new()
            .num("nodes", self.meta.num_nodes)
            .num("edges", self.meta.num_edges)
            .num("days", self.meta.num_days)
            .str_field("fingerprint", &format!("{:016x}", self.meta.fingerprint))
            .day_array("metric_days", &self.metric_days())
            .day_array("community_days", &self.community_days())
            .finish()
    }

    /// `/v1/meta` body: trace identity plus the serving crate's version.
    pub fn meta_json(&self, version: &str) -> String {
        JsonObject::new()
            .num("nodes", self.meta.num_nodes)
            .num("edges", self.meta.num_edges)
            .num("days", self.meta.num_days)
            .str_field("fingerprint", &format!("{:016x}", self.meta.fingerprint))
            .str_field("version", version)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::metric_series;
    use osn_genstream::{TraceConfig, TraceGenerator};

    fn tiny_log() -> EventLog {
        TraceGenerator::new(TraceConfig::tiny()).generate()
    }

    fn tiny_cfg() -> SnapshotQueryConfig {
        SnapshotQuery::builder()
            .metrics(MetricSeriesConfig {
                stride: 20,
                path_sample: 30,
                clustering_sample: 100,
                workers: 2,
                ..Default::default()
            })
            .communities(CommunityAnalysisConfig {
                stride: 40,
                ..Default::default()
            })
            .config()
            .clone()
    }

    /// The golden test: the typed-row serializer must render documents
    /// byte-identical to `Table::to_csv` — the batch CLI's renderer.
    #[test]
    fn serializer_is_byte_identical_to_table_to_csv() {
        let log = tiny_log();
        let cfg = tiny_cfg();
        let q = SnapshotQuery::build(&log, &cfg);

        let batch_metrics = metric_series(&log, &cfg.metrics).to_table().to_csv();
        assert_eq!(q.metrics_csv(), batch_metrics);

        let (summaries, _) = track(&log, &cfg.communities);
        let batch_comm = communities_table(&summaries).to_csv();
        assert_eq!(q.communities_csv(), batch_comm);
    }

    #[test]
    fn rows_are_verbatim_slices_of_the_batch_csv() {
        let log = tiny_log();
        let cfg = tiny_cfg();
        let q = SnapshotQuery::build(&log, &cfg);

        let batch = metric_series(&log, &cfg.metrics).to_table().to_csv();
        let days = q.metric_days();
        assert!(!days.is_empty());
        let lines: Vec<&str> = batch.lines().collect();
        for (i, &day) in days.iter().enumerate() {
            let row = q.metrics_row_csv(day).expect("indexed day must resolve");
            assert_eq!(row, format!("{}\n{}\n", lines[0], lines[i + 1]));
            // And the typed row round-trips to the same line.
            let typed = q.metrics_row(day).unwrap();
            assert_eq!(typed.day, day);
            assert_eq!(typed.to_csv_row(), lines[i + 1]);
        }
        // Non-snapshot days are absent, not interpolated.
        assert_eq!(q.metrics_row(days[0] + 1), None);
        assert_eq!(q.metrics_row_csv(100_000), None);
    }

    #[test]
    fn communities_rows_match_batch_table() {
        let log = tiny_log();
        let cfg = tiny_cfg();
        let q = SnapshotQuery::build(&log, &cfg);
        let (summaries, _) = track(&log, &cfg.communities);
        assert_eq!(q.communities_csv(), communities_table(&summaries).to_csv());
        let days = q.community_days();
        assert_eq!(days, summaries.iter().map(|s| s.day).collect::<Vec<_>>());
        let row = q.communities_row_csv(days[0]).unwrap();
        assert!(row.starts_with("day,modularity,tracked_communities,top5_coverage\n"));
        assert_eq!(row.lines().count(), 2);
        let typed = q.communities_row(days[0]).unwrap();
        assert_eq!(
            typed.tracked_communities,
            Some(summaries[0].num_tracked as f64)
        );
    }

    #[test]
    fn days_json_is_single_line_and_lists_both_grids() {
        let log = tiny_log();
        let q = SnapshotQuery::build(&log, &tiny_cfg());
        let json = q.days_json();
        assert_eq!(json.lines().count(), 1);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(&format!("\"nodes\":{}", log.num_nodes())));
        assert!(json.contains(&format!("\"fingerprint\":\"{:016x}\"", log.fingerprint())));
        assert!(json.contains("\"metric_days\":["));
        assert!(json.contains("\"community_days\":["));
    }

    #[test]
    fn meta_json_reports_trace_and_version() {
        let log = tiny_log();
        let q = SnapshotQuery::build(&log, &tiny_cfg());
        let json = q.meta_json("1.2.3");
        assert_eq!(json.lines().count(), 1);
        assert!(json.contains("\"version\":\"1.2.3\""));
        assert!(json.contains(&format!("\"days\":{}", log.end_day() + 1)));
    }

    #[test]
    fn row_json_uses_null_for_missing_cells() {
        let log = tiny_log();
        let mut cfg = tiny_cfg();
        // With path_every = 2 every second snapshot has no path length.
        cfg.metrics.path_every = 2;
        let q = SnapshotQuery::build(&log, &cfg);
        let days = q.metric_days();
        assert!(days.len() >= 2);
        let rows: Vec<MetricsRow> = days.iter().map(|&d| q.metrics_row(d).unwrap()).collect();
        let with_path = rows
            .iter()
            .find(|r| r.avg_path_length.is_some())
            .expect("some snapshot has a path length");
        let without = rows
            .iter()
            .find(|r| r.avg_path_length.is_none())
            .expect("path_every=2 leaves gaps");
        assert!(without.to_json().contains("\"avg_path_length\":null"));
        assert!(!with_path.to_json().contains("\"avg_path_length\":null"));
    }
}
