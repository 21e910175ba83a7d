//! Figure-reproduction harness.
//!
//! Regenerates the data behind every figure of *"Multi-scale Dynamics in
//! a Massive Online Social Network"* (IMC 2012) from a synthetic
//! Renren-like trace, writes one CSV per panel into `results/`, prints
//! the headline series, and evaluates a paper-vs-measured *shape check*
//! for each figure (the same checks EXPERIMENTS.md records).
//!
//! ```text
//! repro [--scale tiny|small|paper] [--seed N] [--out DIR]
//!       [--retries N] [--task-timeout SECS] [--strict] [--chaos SPEC]
//!       [fig1 … fig9 | all]
//! ```
//!
//! Every figure runs as a supervised task: a panic, deadline overrun or
//! exhausted retry budget fails that figure while the remaining figures
//! still run, and `<out>/run_manifest.csv` records what happened to each
//! one (plus any artifact that failed to write). Exit codes: `0` clean,
//! `4` degraded (some tasks failed, everything else produced), `1` hard
//! failure (or a degraded run under `--strict`), `2` usage error. The
//! `--chaos` spec (or `OSN_CHAOS`) injects seeded faults for drills:
//! figures are keyed 1–9 (5/6/7 share key 5), extras 10, and the fig1
//! metric sweep is keyed by snapshot day.

use osn_core::communities::{
    delta_sensitivity, destination_prediction, lifetime_cdf as community_lifetime_cdf,
    merge_prediction, merge_split_ratio, size_over_time, strongest_tie, top5_coverage, track,
    CommunityAnalysisConfig, MergePredictionConfig,
};
use osn_core::edges::{interarrival_pdf, lifetime_activity, min_age_series};
use osn_core::impact::{
    indegree_ratio_cdf, interarrival_cdf, lifetime_cdf as user_lifetime_cdf, membership, SizeBands,
};
use osn_core::merge::{
    active_users, cross_distance, duplicate_estimate, edges_per_day, internal_external_ratio,
    new_external_ratio, MergeAnalysisConfig,
};
use osn_core::models::{profile_model, render_profiles, ModelComparisonConfig};
use osn_core::network::{
    densification, effective_diameter_series, growth_series, import_view, metric_series_supervised,
    relative_growth, MetricSeriesConfig,
};
use osn_core::preferential::{alpha_series, edge_probability, AlphaConfig, DestinationRule};
use osn_core::report::{
    cdfs_table, gnuplot_script, render_checks_markdown, render_checks_text, write_csv,
    write_run_manifest, Check, ManifestEntry, PlotStyle,
};
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::{Day, EventLog};
use osn_metrics::supervisor::{chaos_gate, supervised_call, RunPolicy};
use osn_stats::{Series, Table};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Ctx {
    log: EventLog,
    /// The trace re-stamped with the paper's data layout: the competitor
    /// network is a single bulk import on the merge day. Figures 1 and 3
    /// consume this view (their merge-day jumps come from the import);
    /// everything else uses the raw log.
    import_log: EventLog,
    merge_day: Day,
    out: PathBuf,
    checks: Vec<Check>,
    /// Non-figure manifest rows accumulated while running: artifacts that
    /// failed to write, quarantined fig1 snapshot days, …
    manifest: Vec<ManifestEntry>,
}

impl Ctx {
    fn csv(&mut self, name: &str, table: &Table) {
        // A failed artifact write degrades the run (it is recorded in the
        // manifest) instead of aborting it.
        if let Err(e) = write_csv(&self.out, name, table) {
            self.artifact_error(format!("{name}.csv"), &e);
            return;
        }
        // Companion gnuplot script (the paper's own plotting toolchain).
        let style = if name.contains("growth") || name.contains("edges_per_day") {
            PlotStyle::LogY
        } else if name.contains("pe_")
            || name.contains("size")
            || name.contains("interarrival_pdf")
            || name.contains("ccdf")
            || name.contains("densification")
        {
            PlotStyle::LogLog
        } else {
            PlotStyle::Lines
        };
        if let Err(e) = gnuplot_script(&self.out, name, table, name, style) {
            self.artifact_error(format!("{name}.gp"), &e);
        }
    }

    fn artifact_error(&mut self, artifact: String, e: &std::io::Error) {
        eprintln!("warning: failed to write {artifact}: {e}");
        self.manifest.push(ManifestEntry::failed(
            artifact,
            "failed",
            1,
            0,
            format!("write failed: {e}"),
        ));
    }

    fn check(&mut self, name: &str, expected: &str, measured: String, pass: bool) {
        println!(
            "  [{}] {name}: paper \"{expected}\" | measured \"{measured}\"",
            if pass { "PASS" } else { "WARN" }
        );
        self.checks.push(Check::new(name, expected, measured, pass));
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn head_mean(s: &Series, k: usize) -> f64 {
    let ys: Vec<f64> = s.points.iter().take(k).map(|&(_, y)| y).collect();
    mean(&ys)
}

fn tail_mean(s: &Series, k: usize) -> f64 {
    let n = s.len();
    let ys: Vec<f64> = s.points[n.saturating_sub(k)..]
        .iter()
        .map(|&(_, y)| y)
        .collect();
    mean(&ys)
}

fn fig1(ctx: &mut Ctx, policy: &RunPolicy) {
    println!("== Figure 1: network growth and graph metrics over time ==");
    let growth = growth_series(&ctx.import_log);
    ctx.csv("fig1a_growth", &growth);
    let rel = relative_growth(&ctx.import_log);
    ctx.csv("fig1b_relative_growth", &rel);

    let nodes = &growth.series[0];
    let early = head_mean_nonzero(nodes, 30);
    let late = tail_mean(nodes, 30);
    ctx.check(
        "fig1a",
        "network grows exponentially (late daily adds >> early)",
        format!("daily node adds {:.1} early vs {:.1} late", early, late),
        late > early * 10.0,
    );
    let rel_nodes = &rel.series[0];
    let rel_early = head_mean(rel_nodes, 40);
    let rel_late = tail_mean(rel_nodes, 40);
    ctx.check(
        "fig1b",
        "relative growth fluctuates high early, stabilises low",
        format!("{:.2}%/day early vs {:.2}%/day late", rel_early, rel_late),
        rel_early > rel_late,
    );

    let cfg = MetricSeriesConfig::default();
    let t0 = Instant::now();
    // The metric sweep is the most expensive part of the harness, so it
    // runs supervised per snapshot day: a poisoned day is quarantined
    // (recorded in the manifest), not allowed to sink the whole figure.
    let (m, day_failures) = metric_series_supervised(&ctx.import_log, &cfg, policy);
    println!("  (metric sweep took {:?})", t0.elapsed());
    for df in &day_failures {
        eprintln!(
            "  warning: quarantined snapshot day {}: {}",
            df.day, df.failure
        );
        ctx.manifest.push(ManifestEntry::failed(
            format!("fig1/day-{}", df.day),
            "quarantined",
            df.failure.attempts,
            df.failure.elapsed.as_millis() as u64,
            format!("{}: {}", df.failure.kind, df.failure.payload),
        ));
    }
    ctx.csv(
        "fig1c_avg_degree",
        &Table::new("day").with(m.avg_degree.clone()),
    );
    ctx.csv(
        "fig1d_path_length",
        &Table::new("day").with(m.path_length.clone()),
    );
    ctx.csv(
        "fig1e_clustering",
        &Table::new("day").with(m.clustering.clone()),
    );
    ctx.csv(
        "fig1f_assortativity",
        &Table::new("day").with(m.assortativity.clone()),
    );

    let md = ctx.merge_day as f64;
    let deg_before = m
        .avg_degree
        .points
        .iter()
        .rev()
        .find(|&&(x, _)| x < md)
        .map(|&(_, y)| y);
    let deg_after = m.avg_degree.y_at_or_after(md + 1.0);
    let deg_drop = match (deg_before, deg_after) {
        (Some(b), Some(a)) => a < b,
        _ => false,
    };
    ctx.check(
        "fig1c",
        "average degree grows; sudden drop at the 5Q merge",
        format!(
            "degree {:.1} → {:.1} overall; {:.2} → {:.2} across merge day",
            m.avg_degree.points.first().map(|&(_, y)| y).unwrap_or(0.0),
            m.avg_degree.last_y().unwrap_or(0.0),
            deg_before.unwrap_or(f64::NAN),
            deg_after.unwrap_or(f64::NAN)
        ),
        m.avg_degree.last_y().unwrap_or(0.0) > head_mean(&m.avg_degree, 5) && deg_drop,
    );
    let path_before = m
        .path_length
        .points
        .iter()
        .rev()
        .find(|&&(x, _)| x < md)
        .map(|&(_, y)| y);
    let path_after = m.path_length.y_at_or_after(md);
    let jump = match (path_before, path_after) {
        (Some(b), Some(a)) => a > b,
        _ => false,
    };
    // Absolute APL levels are scale-bound (ln N / ln k; our N is 350×
    // smaller than Renren's), so the shape check focuses on the merge
    // jump and the post-merge recovery the paper describes.
    ctx.check(
        "fig1d",
        "path length jumps when loosely-connected 5Q joins, then resumes a slow drop",
        format!(
            "APL {:.2} → {:.2} across merge; {:.2} at trace end",
            path_before.unwrap_or(f64::NAN),
            path_after.unwrap_or(f64::NAN),
            m.path_length.last_y().unwrap_or(f64::NAN)
        ),
        jump,
    );
    ctx.check(
        "fig1e",
        "clustering high in the young network, decays slowly after",
        format!(
            "cc {:.3} early vs {:.3} final",
            head_mean(&m.clustering, 10),
            m.clustering.last_y().unwrap_or(0.0)
        ),
        head_mean(&m.clustering, 10) > m.clustering.last_y().unwrap_or(1.0),
    );
    let assort_early = head_mean(&m.assortativity, 10);
    let assort_late = tail_mean(&m.assortativity, 10);
    ctx.check(
        "fig1f",
        "assortativity strongly negative early, evens out near 0",
        format!("{:.2} early → {:.2} late", assort_early, assort_late),
        assort_early < assort_late && assort_late > -0.25 && assort_late < 0.3,
    );
}

fn head_mean_nonzero(s: &Series, k: usize) -> f64 {
    let ys: Vec<f64> = s
        .points
        .iter()
        .filter(|&&(_, y)| y > 0.0)
        .take(k)
        .map(|&(_, y)| y)
        .collect();
    mean(&ys)
}

fn fig2(ctx: &mut Ctx) {
    println!("== Figure 2: time dynamics of edge creation ==");
    let buckets = interarrival_pdf(&ctx.log, 36);
    let mut table = Table::new("gap_days");
    let mut exponents = Vec::new();
    for b in &buckets {
        table.push(b.pdf.clone());
        if let Some(f) = &b.fit {
            if b.count > 200 {
                exponents.push(-f.exponent);
            }
        }
    }
    ctx.csv("fig2a_interarrival_pdf", &table);
    let lo = exponents.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = exponents.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    ctx.check(
        "fig2a",
        "inter-arrival gaps power-law, exponent ≈1.8–2.5 per age bucket",
        format!(
            "decay exponents {:.2}–{:.2} over {} populated buckets",
            lo,
            hi,
            exponents.len()
        ),
        !exponents.is_empty() && lo > 1.0 && hi < 4.0,
    );

    let activity = lifetime_activity(&ctx.log, 30.0, 20, 20);
    ctx.csv(
        "fig2b_lifetime_activity",
        &Table::new("normalized_lifetime").with(activity.clone()),
    );
    let front: f64 = activity.points.iter().take(4).map(|&(_, y)| y).sum();
    let back: f64 = activity.points.iter().rev().take(4).map(|&(_, y)| y).sum();
    ctx.check(
        "fig2b",
        "users create most friendships early in their lifetime",
        format!(
            "first 20% of lifetime holds {:.0}% of edges vs {:.0}% in last 20%",
            front * 100.0,
            back * 100.0
        ),
        front > back * 1.5,
    );

    let min_age = min_age_series(&ctx.log);
    ctx.csv("fig2c_min_age", &min_age);
    let le30 = &min_age.series[2];
    let early = {
        let ys: Vec<f64> = le30
            .points
            .iter()
            .filter(|&&(x, _)| x > 60.0 && x <= 160.0)
            .map(|&(_, y)| y)
            .collect();
        mean(&ys)
    };
    let late = tail_mean(le30, 40);
    ctx.check(
        "fig2c",
        "share of edges driven by young nodes (≤30d) declines as network matures (95% → 48%)",
        format!(
            "≤30d share {:.0}% around day 100 vs {:.0}% at trace end",
            early * 100.0,
            late * 100.0
        ),
        early > late,
    );
}

fn fig3(ctx: &mut Ctx) {
    println!("== Figure 3: strength of preferential attachment ==");
    let acfg = AlphaConfig::default();
    let mid = ctx.log.num_edges() * 3 / 10;
    let log = ctx.import_log.clone();
    for (rule, name) in [
        (DestinationRule::HigherDegree, "fig3a_pe_higher_degree"),
        (DestinationRule::Random, "fig3b_pe_random"),
    ] {
        if let Some(ep) = edge_probability(&log, rule, &acfg, mid) {
            ctx.csv(name, &Table::new("degree").with(ep.points.clone()));
            let fit = ep.fit.expect("fit exists");
            let label = if rule == DestinationRule::HigherDegree {
                "fig3a"
            } else {
                "fig3b"
            };
            ctx.check(
                label,
                "pe(d) ∝ d^α fits tightly (paper MSE ≈ 1e-10 at its scale)",
                format!(
                    "α {:.2}, MSE {:.2e} at {} edges",
                    fit.exponent, fit.mse, ep.edge_count
                ),
                fit.mse < 1e-2 && fit.exponent > 0.0,
            );
        }
    }

    let hi = alpha_series(&log, DestinationRule::HigherDegree, &acfg);
    let lo = alpha_series(&log, DestinationRule::Random, &acfg);
    let mut table = Table::new("edge_count");
    table.push(hi.to_series());
    table.push(lo.to_series());
    ctx.csv("fig3c_alpha", &table);
    if let Some(coeffs) = hi.polynomial_fit(5) {
        println!("  degree-5 polynomial fit of α(n): {coeffs:.3?}");
    }
    let hs = hi.to_series();
    let ls = lo.to_series();
    let n = hs.len();
    let early = head_mean(&hs, (n / 5).max(2));
    let late = tail_mean(&hs, (n / 5).max(2));
    ctx.check(
        "fig3c-decay",
        "α decays as the network grows (1.25 → 0.65)",
        format!(
            "higher-degree α {:.2} early → {:.2} late over {} windows",
            early, late, n
        ),
        late < early,
    );
    let gap: Vec<f64> = hs
        .points
        .iter()
        .zip(ls.points.iter())
        .map(|(&(_, a), &(_, b))| a - b)
        .collect();
    ctx.check(
        "fig3c-bound",
        "higher-degree destination rule always above random (gap ≈ 0.2)",
        format!("mean gap {:.2}", mean(&gap)),
        mean(&gap) > 0.0,
    );
    // Merge-day ripple: α in the window spanning the merge vs neighbours.
    let merge_edges = log
        .events()
        .iter()
        .take(log.first_event_at_or_after(osn_graph::Time::day_start(ctx.merge_day + 3)))
        .filter(|e| e.is_edge())
        .count() as f64;
    if let Some(idx) = hs.points.iter().position(|&(x, _)| x >= merge_edges) {
        if idx >= 2 && idx + 2 < hs.len() {
            let at = hs.points[idx].1;
            let around = mean(&[hs.points[idx - 2].1, hs.points[idx + 2].1]);
            ctx.check(
                "fig3c-ripple",
                "merge day produces a one-off surge in α",
                format!("α {:.2} at merge window vs {:.2} nearby", at, around),
                at > around - 0.15,
            );
        }
    }
}

fn fig4(ctx: &mut Ctx, scale: Scale) {
    println!("== Figure 4: community tracking and δ sensitivity ==");
    let deltas = [0.0001, 0.001, 0.01, 0.1, 0.3];
    let cfg = community_cfg(scale);
    let reference = (ctx.log.end_day() as f64 * 0.78) as Day; // day-602 analogue
    let t0 = Instant::now();
    let sweep = delta_sensitivity(&ctx.log, &deltas, &cfg, reference, deltas.len());
    println!("  (δ sweep took {:?})", t0.elapsed());
    ctx.csv("fig4a_modularity", &sweep.modularity);
    ctx.csv("fig4b_similarity", &sweep.similarity);
    let mut sizes = Table::new("community_size");
    for (_, s) in &sweep.size_distributions {
        sizes.push(s.clone());
    }
    ctx.csv("fig4c_size_distribution", &sizes);

    let late_q: Vec<f64> = sweep
        .modularity
        .series
        .iter()
        .map(|s| tail_mean(s, 8))
        .collect();
    ctx.check(
        "fig4a",
        "modularity ≥ 0.3–0.4 for every δ once the network matures",
        format!(
            "late modularity per δ: {:?}",
            late_q
                .iter()
                .map(|q| (q * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
        late_q.iter().all(|&q| q > 0.25),
    );
    let sims: Vec<f64> = sweep
        .similarity
        .series
        .iter()
        .map(|s| tail_mean(s, 8))
        .collect();
    ctx.check(
        "fig4b",
        "tracking similarity is substantial (communities are stable between snapshots)",
        format!(
            "late avg similarity per δ: {:?}",
            sims.iter()
                .map(|q| (q * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
        sims.iter().any(|&s| s > 0.4),
    );
    let spans: Vec<usize> = sweep
        .size_distributions
        .iter()
        .map(|(_, s)| s.len())
        .collect();
    ctx.check(
        "fig4c",
        "community sizes span orders of magnitude at the reference day",
        format!("distinct community sizes per δ: {spans:?}"),
        spans.iter().any(|&k| k >= 5),
    );
}

fn community_cfg(scale: Scale) -> CommunityAnalysisConfig {
    CommunityAnalysisConfig {
        stride: match scale {
            Scale::Tiny => 10,
            Scale::Small => 6,
            Scale::Paper => 3,
        },
        ..CommunityAnalysisConfig::default()
    }
}

fn fig5_6(ctx: &mut Ctx, scale: Scale) {
    println!("== Figures 5 & 6: community statistics, merging and splitting ==");
    let cfg = community_cfg(scale);
    let t0 = Instant::now();
    let (summaries, output) = track(&ctx.log, &cfg);
    println!(
        "  (tracking {} snapshots took {:?})",
        summaries.len(),
        t0.elapsed()
    );

    // Figure 5(a): size distributions at three days after the merge.
    let end = ctx.log.end_day();
    let days = [
        ctx.merge_day + (end - ctx.merge_day) / 25,
        ctx.merge_day + (end - ctx.merge_day) / 2,
        end - 1,
    ];
    let dists = size_over_time(&summaries, &days);
    let mut t = Table::new("community_size");
    for (_, s) in &dists {
        t.push(s.clone());
    }
    ctx.csv("fig5a_size_over_time", &t);
    let counts: Vec<usize> = dists
        .iter()
        .map(|(_, s)| s.points.iter().map(|&(_, c)| c as usize).sum())
        .collect();
    ctx.check(
        "fig5a",
        "many small communities, long tail of large ones, drift to larger over time",
        format!("tracked communities at sampled days: {counts:?}"),
        counts.last().copied().unwrap_or(0) >= 5,
    );

    let cov = top5_coverage(&summaries);
    ctx.csv("fig5b_top5_coverage", &Table::new("day").with(cov.clone()));
    ctx.check(
        "fig5b",
        "top-5 communities cover a growing majority of the network (→ >60%)",
        format!(
            "final top-5 coverage {:.0}%",
            cov.last_y().unwrap_or(0.0) * 100.0
        ),
        cov.last_y().unwrap_or(0.0) > 0.4,
    );

    let lc = community_lifetime_cdf(&output);
    ctx.csv(
        "fig5c_lifetime_cdf",
        &cdfs_table(&[("community_lifetime_days", &lc)], 64),
    );
    let snap_span = cfg.stride as f64;
    ctx.check(
        "fig5c",
        "communities are short-lived: 20% die within one snapshot, 60% within 30 days",
        format!(
            "{:.0}% die within one snapshot, {:.0}% within 30 days (n={})",
            lc.eval(snap_span) * 100.0,
            lc.eval(30.0) * 100.0,
            lc.len()
        ),
        lc.len() > 5 && lc.eval(30.0) > 0.2,
    );

    // Figure 6(a).
    let (merges, splits) = merge_split_ratio(&output);
    ctx.csv(
        "fig6a_merge_split_ratio",
        &cdfs_table(&[("merge_ratio", &merges), ("split_ratio", &splits)], 64),
    );
    ctx.check(
        "fig6a",
        "merges absorb much smaller partners (80% of ratios < 0.005 at Renren scale); splits are balanced",
        format!(
            "median merge ratio {:.3} (n={}) vs median split ratio {:.3} (n={})",
            merges.median().unwrap_or(f64::NAN),
            merges.len(),
            splits.median().unwrap_or(f64::NAN),
            splits.len()
        ),
        !merges.is_empty()
            && (splits.is_empty()
                || merges.median().unwrap_or(1.0) < splits.median().unwrap_or(0.0)),
    );

    // Figure 6(b).
    let mp_cfg = MergePredictionConfig {
        exclude_day: Some(ctx.merge_day),
        ..Default::default()
    };
    match merge_prediction(&output, &mp_cfg) {
        Some(mp) => {
            let mut t = Table::new("community_age_days");
            t.push(mp.merge_accuracy.clone());
            t.push(mp.no_merge_accuracy.clone());
            ctx.csv("fig6b_merge_prediction", &t);
            let acc = mp.confusion.accuracy().unwrap_or(0.0);
            let pr = mp.confusion.positive_recall().unwrap_or(0.0);
            let nr = mp.confusion.negative_recall().unwrap_or(0.0);
            ctx.check(
                "fig6b",
                "SVM predicts merges with ≈75% accuracy (and ≈77% for no-merge)",
                format!(
                    "accuracy {:.0}%, merge recall {:.0}%, no-merge recall {:.0}% on {} samples ({:.0}% positive)",
                    acc * 100.0,
                    pr * 100.0,
                    nr * 100.0,
                    mp.samples,
                    mp.positive_fraction * 100.0
                ),
                acc > 0.55 && pr > 0.3 && nr > 0.3,
            );
        }
        None => ctx.check(
            "fig6b",
            "SVM predicts merges with ≈75% accuracy",
            "not enough merge samples at this scale".into(),
            false,
        ),
    }

    // Figure 6(c).
    let (tie_series, tie_frac) = strongest_tie(&output);
    ctx.csv("fig6c_strongest_tie", &Table::new("day").with(tie_series));
    match (tie_frac, destination_prediction(&output)) {
        (Some(f), Some(dp)) => ctx.check(
            "fig6c",
            "merged communities join their strongest-tie partner with ≈99% probability",
            format!(
                "strongest-tie {:.0}%, top-3 tie {:.0}%, mean tie rank {:.1} over {} merges                  (uniform-destination baseline would be a few %)",
                f * 100.0,
                dp.top3 * 100.0,
                dp.mean_rank,
                dp.evaluated
            ),
            f > 0.15 || dp.top3 > 0.5,
        ),
        _ => ctx.check("fig6c", "strongest-tie merges", "no evaluable merges".into(), false),
    }

    // Figure 7 reuses the tracker output.
    fig7(ctx, &output);
}

fn fig7(ctx: &mut Ctx, output: &osn_community::TrackerOutput) {
    println!("== Figure 7: impact of community membership on users ==");
    let members = membership(output);
    let (inside, outside) = interarrival_cdf(&ctx.log, &members);
    ctx.csv(
        "fig7a_interarrival",
        &cdfs_table(
            &[
                ("community_users", &inside),
                ("non_community_users", &outside),
            ],
            64,
        ),
    );
    ctx.check(
        "fig7a",
        "community users create edges more frequently than stand-alone users",
        format!(
            "median gap {:.2}d inside vs {:.2}d outside (n {} / {})",
            inside.median().unwrap_or(f64::NAN),
            outside.median().unwrap_or(f64::NAN),
            inside.len(),
            outside.len()
        ),
        match (inside.median(), outside.median()) {
            (Some(i), Some(o)) => i < o,
            _ => false,
        },
    );

    let bands = SizeBands::scaled_default();
    let (banded, non) = user_lifetime_cdf(&ctx.log, &members, &bands);
    let mut named: Vec<(&str, &osn_stats::Cdf)> = Vec::new();
    for (i, c) in banded.iter().enumerate() {
        named.push((&bands.bands[i].2, c));
    }
    named.push(("non_community", &non));
    ctx.csv("fig7b_lifetime", &cdfs_table(&named, 64));
    let medians: Vec<f64> = banded
        .iter()
        .map(|c| c.median().unwrap_or(f64::NAN))
        .collect();
    ctx.check(
        "fig7b",
        "larger communities retain users longer; non-community users have the shortest lifetimes",
        format!(
            "median lifetimes by band {:?} vs non-community {:.0}d",
            medians.iter().map(|m| m.round()).collect::<Vec<_>>(),
            non.median().unwrap_or(f64::NAN)
        ),
        {
            let populated: Vec<f64> = medians.iter().copied().filter(|m| m.is_finite()).collect();
            !populated.is_empty()
                && non
                    .median()
                    .is_none_or(|nm| populated.iter().any(|&m| m > nm))
        },
    );

    let ratios = indegree_ratio_cdf(&ctx.log, output, &members, &bands);
    let mut named: Vec<(&str, &osn_stats::Cdf)> = Vec::new();
    for (i, c) in ratios.iter().enumerate() {
        named.push((&bands.bands[i].2, c));
    }
    ctx.csv("fig7c_indegree_ratio", &cdfs_table(&named, 64));
    let r_medians: Vec<f64> = ratios
        .iter()
        .map(|c| c.median().unwrap_or(f64::NAN))
        .collect();
    let populated: Vec<f64> = r_medians
        .iter()
        .copied()
        .filter(|m| m.is_finite())
        .collect();
    ctx.check(
        "fig7c",
        "users in larger communities keep a larger share of their edges inside (in-degree ratio)",
        format!(
            "median in-degree ratio by band {:?}",
            r_medians
                .iter()
                .map(|m| (m * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
        populated.len() >= 2 && populated.last().unwrap() >= populated.first().unwrap(),
    );
}

fn fig8(ctx: &mut Ctx) {
    println!("== Figure 8: the network merge — users and edges ==");
    let mcfg = MergeAnalysisConfig::default();
    if let Some(p99) = osn_core::edges::activity_threshold_days(&ctx.log, 0.99) {
        println!(
            "  (99% of users create an edge every {p99:.0} days on average; the paper's              equivalent statistic was 94 days and sets the activity threshold)"
        );
    }
    let (core_inactive, comp_inactive) = duplicate_estimate(&ctx.log, ctx.merge_day, &mcfg);
    ctx.check(
        "fig8-duplicates",
        "11% of Xiaonei and 28% of 5Q accounts go silent at the merge (duplicates)",
        format!(
            "{:.0}% core and {:.0}% competitor accounts inactive at day 0",
            core_inactive * 100.0,
            comp_inactive * 100.0
        ),
        comp_inactive > core_inactive && core_inactive > 0.05 && comp_inactive > 0.15,
    );

    let act = active_users(&ctx.log, ctx.merge_day, &mcfg);
    ctx.csv("fig8a_active_core", &act.core);
    ctx.csv("fig8b_active_competitor", &act.competitor);
    let core_all = &act.core.series[0];
    let comp_all = &act.competitor.series[0];
    ctx.check(
        "fig8ab",
        "activity declines over time; Xiaonei users stay more committed than 5Q users",
        format!(
            "active share {:.0}% → {:.0}% (core) vs {:.0}% → {:.0}% (competitor)",
            head_mean(core_all, 3),
            tail_mean(core_all, 3),
            head_mean(comp_all, 3),
            tail_mean(comp_all, 3)
        ),
        tail_mean(core_all, 3) > tail_mean(comp_all, 3)
            && head_mean(core_all, 3) >= tail_mean(core_all, 3),
    );

    let epd = edges_per_day(&ctx.log, ctx.merge_day);
    ctx.csv("fig8c_edges_per_day", &epd);
    let new = &epd.series[0];
    let internal = &epd.series[1];
    let external = &epd.series[2];
    // crossover day: first day new > internal, sustained-ish
    let cross_int = new
        .points
        .iter()
        .zip(internal.points.iter())
        .find(|((_, n), (_, i))| n > i)
        .map(|((x, _), _)| *x);
    let cross_ext = new
        .points
        .iter()
        .zip(external.points.iter())
        .find(|((_, n), (_, e))| n > e)
        .map(|((x, _), _)| *x);
    ctx.check(
        "fig8c",
        "edges to new users overtake external by ≈day 3 and internal by ≈day 19",
        format!(
            "new edges overtake external at day {:?} and internal at day {:?} after merge",
            cross_ext, cross_int
        ),
        cross_ext.is_some() && cross_int.is_some() && cross_ext.unwrap() <= cross_int.unwrap(),
    );
}

fn fig9(ctx: &mut Ctx) {
    println!("== Figure 9: the network merge — edge preferences and distance ==");
    let mcfg = MergeAnalysisConfig::default();
    let ie = internal_external_ratio(&ctx.log, ctx.merge_day, &mcfg);
    ctx.csv("fig9a_internal_external", &ie);
    let core_ratio = &ie.series[0];
    let comp_ratio = &ie.series[2];
    ctx.check(
        "fig9a",
        "both OSNs favour internal edges at first; Xiaonei stays internal-heavy, 5Q flips external",
        format!(
            "int/ext early: core {:.1}, competitor {:.1}; late: core {:.1}, competitor {:.1}",
            head_mean(core_ratio, 5),
            head_mean(comp_ratio, 5),
            tail_mean(core_ratio, 10),
            tail_mean(comp_ratio, 10)
        ),
        head_mean(core_ratio, 5) > 1.0 && tail_mean(core_ratio, 10) > tail_mean(comp_ratio, 10),
    );

    let ne = new_external_ratio(&ctx.log, ctx.merge_day, &mcfg);
    ctx.csv("fig9b_new_external", &ne);
    let core_cross = ne.series[0].first_x_where(|y| y >= 1.0);
    let comp_cross = ne.series[2].first_x_where(|y| y >= 1.0);
    ctx.check(
        "fig9b",
        "new edges overtake external for Xiaonei by ≈day 5 and 5Q by ≈day 32",
        format!(
            "new/ext crosses 1 at day {core_cross:?} (core) vs day {comp_cross:?} (competitor)"
        ),
        match (core_cross, comp_cross) {
            (Some(a), Some(b)) => a <= b,
            _ => false,
        },
    );

    let t0 = Instant::now();
    let dist = cross_distance(&ctx.log, ctx.merge_day, &mcfg);
    println!("  (cross-distance sweep took {:?})", t0.elapsed());
    ctx.csv("fig9c_cross_distance", &dist);
    let c2c = &dist.series[0];
    let first = c2c.points.first().map(|&(_, y)| y).unwrap_or(f64::NAN);
    let last = c2c.last_y().unwrap_or(f64::NAN);
    ctx.check(
        "fig9c",
        "average distance between the OSNs drops from >3 to <2 within ~47 days, asymptote ≈1.5",
        format!("distance {:.2} at merge → {:.2} at trace end", first, last),
        last < first && last < 2.5,
    );
}

/// Beyond-the-figures extensions: densification law, effective diameter,
/// degree CCDF, k-core profile, the generative-model comparison, and the
/// classifier cross-validation ablation.
fn extras(ctx: &mut Ctx, scale: Scale) {
    println!("== Extras: densification, diameter, degree tail, models ==");
    // Densification law over the import view (the paper's data layout).
    let (points, exponent) = densification(&ctx.import_log);
    ctx.csv("extra_densification", &Table::new("nodes").with(points));
    if let Some(a) = exponent {
        ctx.check(
            "extra-densification",
            "edges grow superlinearly in nodes (densification exponent > 1, per Leskovec [21])",
            format!("E ∝ N^{a:.2}"),
            a > 1.0 && a < 2.0,
        );
    }

    // Effective diameter over time.
    let ed = effective_diameter_series(&ctx.import_log, 30, 15, 120, 0, 7);
    ctx.csv(
        "extra_effective_diameter",
        &Table::new("day").with(ed.clone()),
    );
    if let (Some((_, first)), Some(last)) = (ed.points.first().copied(), ed.last_y()) {
        ctx.check(
            "extra-diameter",
            "effective diameter stays small-world throughout the growth",
            format!("90th-percentile distance {first:.1} → {last:.1}"),
            last < 10.0,
        );
    }

    // Final-day degree CCDF and k-core profile.
    let mut replayer = osn_graph::Replayer::new(&ctx.log);
    replayer.advance_to_end();
    let g = replayer.freeze();
    let ccdf = osn_metrics::degree_ccdf(&g);
    ctx.csv(
        "extra_degree_ccdf",
        &Table::new("degree").with(Series::from_points("ccdf", ccdf.clone())),
    );
    let tail_fit = osn_stats::powerlaw_fit(
        &ccdf.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
        &ccdf.iter().map(|&(_, y)| y).collect::<Vec<_>>(),
    );
    if let Some(fit) = tail_fit {
        ctx.check(
            "extra-degree-tail",
            "heavy-tailed degree distribution (power-law-ish CCDF)",
            format!(
                "CCDF exponent {:.2} over {} degree classes",
                fit.exponent,
                ccdf.len()
            ),
            fit.exponent < -0.5,
        );
    }
    // Modularity significance: compare against a degree-preserving
    // rewired null of the final snapshot.
    {
        use osn_community::{louvain, LouvainConfig};
        let mut rng = osn_stats::rng_from_seed(17);
        let swaps = (g.num_edges() as usize) * 3;
        let null = osn_metrics::degree_preserving_shuffle(&g, swaps, &mut rng);
        let q_real = louvain(&g, &LouvainConfig::with_delta(0.01), None).modularity;
        let q_null = louvain(&null, &LouvainConfig::with_delta(0.01), None).modularity;
        ctx.check(
            "extra-null-model",
            "observed modularity far exceeds the degree-preserving null (community structure is real, [19])",
            format!("Q {q_real:.2} observed vs {q_null:.2} rewired"),
            q_real > q_null + 0.1,
        );
    }

    // One-pass streaming metrics: exact transitivity over time, from the
    // engine's triangle and wedge counters. Day d samples the graph
    // through day d - 1.
    {
        use osn_metrics::{EngineConfig, EngineState};
        let cfg = EngineConfig::builder().track_triangles(true).build();
        let mut inc = EngineState::with_config(&ctx.log, &cfg);
        let mut series = Series::new("transitivity");
        let mut tri_series = Series::new("triangles");
        for day in (0..=ctx.log.end_day()).step_by(7) {
            if day > 0 {
                inc.advance_through_day(day - 1);
            }
            series.push(day as f64, inc.transitivity());
            tri_series.push(day as f64, inc.triangles() as f64);
        }
        inc.advance_through_day(ctx.log.end_day());
        let triangles = inc.triangles();
        let table = Table::new("day").with(series.clone()).with(tri_series);
        ctx.csv("extra_transitivity", &table);
        ctx.check(
            "extra-transitivity",
            "global transitivity decays as the network outgrows its dense infancy (cf. Fig 1e)",
            format!(
                "transitivity {:.3} at day 60 → {:.3} at trace end ({} exact triangles)",
                series.y_at_or_after(60.0).unwrap_or(f64::NAN),
                series.last_y().unwrap_or(f64::NAN),
                triangles
            ),
            series.y_at_or_after(60.0).unwrap_or(0.0) > series.last_y().unwrap_or(1.0),
        );
    }

    let profile = osn_metrics::core_profile(&g);
    ctx.csv(
        "extra_kcore_profile",
        &Table::new("k").with(Series::from_points(
            "nodes_in_k_core",
            profile
                .iter()
                .enumerate()
                .map(|(k, &c)| (k as f64, c as f64))
                .collect(),
        )),
    );
    println!(
        "  degeneracy (max coreness): {}",
        profile.len().saturating_sub(1)
    );

    // Generative-model comparison (skip at tiny scale: too noisy).
    if scale != Scale::Tiny {
        use osn_genstream::baselines::{barabasi_albert, forest_fire, BaselineConfig};
        let bcfg = BaselineConfig {
            nodes: 6_000,
            edges_per_node: 6,
            days: 500,
            seed: 3,
        };
        let mcfg = ModelComparisonConfig::default();
        let profiles = vec![
            profile_model("barabasi_albert", &barabasi_albert(&bcfg), &mcfg),
            profile_model("forest_fire", &forest_fire(&bcfg, 0.35), &mcfg),
            profile_model("full_generator", &ctx.log, &mcfg),
        ];
        print!("{}", render_profiles(&profiles));
        let full = &profiles[2];
        let ba = &profiles[0];
        ctx.check(
            "extra-models",
            "only a PA+random+locality model reproduces decaying α with high clustering & modularity (§3.3)",
            format!(
                "full generator: α decay {:.2}, cc {:.2}, Q {:.2}; BA: α decay {:.2}, cc {:.2}, Q {:.2}",
                full.alpha_decay().unwrap_or(f64::NAN),
                full.clustering,
                full.modularity,
                ba.alpha_decay().unwrap_or(f64::NAN),
                ba.clustering,
                ba.modularity
            ),
            full.clustering > ba.clustering && full.modularity > ba.modularity,
        );
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Tiny,
    Small,
    Paper,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut seed = None;
    let mut seeds: Option<u64> = None;
    let mut out = PathBuf::from("results");
    let mut figs: Vec<String> = Vec::new();
    let mut retries = 0u32;
    let mut task_timeout = None;
    let mut strict = false;
    let mut chaos_spec: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("paper") | None => Scale::Paper,
                    Some(other) => {
                        eprintln!("unknown scale '{other}' (tiny|small|paper)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()),
            "--seeds" => seeds = it.next().and_then(|s| s.parse().ok()),
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| "results".into())),
            "--retries" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => retries = n,
                None => {
                    eprintln!("--retries needs a non-negative integer");
                    return ExitCode::from(2);
                }
            },
            "--task-timeout" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(secs) if secs > 0.0 && secs.is_finite() => {
                    task_timeout = Some(std::time::Duration::from_secs_f64(secs));
                }
                _ => {
                    eprintln!("--task-timeout needs a positive number of seconds");
                    return ExitCode::from(2);
                }
            },
            "--strict" => strict = true,
            "--chaos" => chaos_spec = it.next(),
            other => figs.push(other.to_string()),
        }
    }
    if figs.is_empty() || figs.iter().any(|f| f == "all") {
        figs = (1..=9).map(|i| format!("fig{i}")).collect();
        figs.push("extras".into());
    }
    let chaos_spec = chaos_spec.or_else(|| std::env::var("OSN_CHAOS").ok());
    let chaos = match chaos_spec.as_deref().map(str::trim) {
        Some(spec) if !spec.is_empty() => {
            match osn_metrics::supervisor::ChaosTaskPlan::from_spec(spec) {
                Ok(plan) => Some(plan),
                Err(e) => {
                    eprintln!("bad chaos spec: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => None,
    };
    let policy = RunPolicy {
        retries,
        task_timeout,
        chaos,
    };

    // Robustness mode: rerun the whole harness over several seeds and
    // report per-check pass rates (are the paper's shapes stable under
    // the generator's randomness, or a one-seed accident?).
    if let Some(k) = seeds {
        let base = seed.unwrap_or(42);
        let mut pass_counts: std::collections::BTreeMap<String, (u32, u32)> = Default::default();
        let mut failed_tasks = 0usize;
        for i in 0..k {
            let s = base + i;
            println!("===== seed {s} ({}/{k}) =====", i + 1);
            let (checks, failed) = run_once(
                scale,
                Some(s),
                out.join(format!("seed_{s}")),
                &figs,
                &policy,
            );
            failed_tasks += failed;
            for c in checks {
                let e = pass_counts.entry(c.name).or_insert((0, 0));
                e.1 += 1;
                if c.pass {
                    e.0 += 1;
                }
            }
        }
        println!("\n========== robustness over {k} seeds ==========");
        for (name, (ok, total)) in &pass_counts {
            println!("  {name:<22} {ok}/{total}");
        }
        let all: u32 = pass_counts.values().map(|&(ok, _)| ok).sum();
        let tot: u32 = pass_counts.values().map(|&(_, t)| t).sum();
        println!("  overall: {all}/{tot} check-runs hold");
        return exit_for(failed_tasks, strict);
    }

    let (checks, failed_tasks) = run_once(scale, seed, out, &figs, &policy);
    let passed = checks.iter().filter(|c| c.pass).count();
    println!("\n{passed}/{} shape checks hold", checks.len());
    exit_for(failed_tasks, strict)
}

/// Exit code from the number of failed/quarantined manifest rows:
/// `0` clean, `4` degraded, `1` degraded under `--strict`.
fn exit_for(failed_tasks: usize, strict: bool) -> ExitCode {
    if failed_tasks == 0 {
        ExitCode::SUCCESS
    } else if strict {
        eprintln!(
            "error: run degraded: {failed_tasks} task(s) failed (promoted to failure by --strict)"
        );
        ExitCode::from(1)
    } else {
        eprintln!(
            "warning: run degraded: {failed_tasks} task(s) failed; all other outputs were produced \
             (see run_manifest.csv)"
        );
        ExitCode::from(4)
    }
}

/// The supervised task a figure argument belongs to. Figures 5/6/7 share
/// one tracking run, so they collapse into a single task.
fn task_for(fig: &str) -> Option<(&'static str, u64)> {
    Some(match fig {
        "fig1" => ("fig1", 1),
        "fig2" => ("fig2", 2),
        "fig3" => ("fig3", 3),
        "fig4" => ("fig4", 4),
        "fig5" | "fig6" | "fig7" => ("fig5-7", 5),
        "fig8" => ("fig8", 8),
        "fig9" => ("fig9", 9),
        "extras" => ("extras", 10),
        _ => return None,
    })
}

/// One full harness run; returns the evaluated checks and the number of
/// failed/quarantined manifest rows (0 = clean run).
fn run_once(
    scale: Scale,
    seed: Option<u64>,
    out: PathBuf,
    figs: &[String],
    policy: &RunPolicy,
) -> (Vec<Check>, usize) {
    let mut cfg = match scale {
        Scale::Tiny => TraceConfig::tiny(),
        Scale::Small => TraceConfig::small(),
        Scale::Paper => TraceConfig::default_paper(),
    };
    if let Some(s) = seed {
        cfg.seed = s;
    }
    let merge_day = cfg.merge.as_ref().map(|m| m.merge_day).unwrap_or(0);
    let t0 = Instant::now();
    let log = TraceGenerator::new(cfg).generate();
    println!(
        "trace: {} nodes, {} edges over {} days (generated in {:?}; seed {})\n",
        log.num_nodes(),
        log.num_edges(),
        log.end_day() + 1,
        t0.elapsed(),
        seed.unwrap_or(42),
    );

    let import_log = if merge_day > 0 {
        import_view(&log, merge_day)
    } else {
        log.clone()
    };
    let mut ctx = Ctx {
        log,
        import_log,
        merge_day,
        out,
        checks: Vec::new(),
        manifest: Vec::new(),
    };

    let mut tasks: Vec<(&'static str, u64)> = Vec::new();
    for f in figs {
        match task_for(f) {
            Some(t) => {
                if !tasks.contains(&t) {
                    tasks.push(t);
                }
            }
            None => eprintln!("unknown figure '{f}' (fig1..fig9, extras, all)"),
        }
    }

    // Each figure is one supervised task: its panic (or injected chaos,
    // or deadline overrun) is caught, partial checks/manifest rows from
    // the failed attempt are rolled back, and the run moves on to the
    // next figure.
    let scfg = policy.supervisor_config(1);
    let mut rows: Vec<ManifestEntry> = Vec::new();
    for &(label, key) in &tasks {
        let started = Instant::now();
        let checks_mark = ctx.checks.len();
        let manifest_mark = ctx.manifest.len();
        let mut attempts_seen = 0u32;
        let result = supervised_call(label, &scfg, |attempt| {
            attempts_seen = attempt;
            if attempt > 1 {
                ctx.checks.truncate(checks_mark);
                ctx.manifest.truncate(manifest_mark);
            }
            chaos_gate(policy.chaos.as_ref(), key, attempt)?;
            match label {
                "fig1" => fig1(&mut ctx, policy),
                "fig2" => fig2(&mut ctx),
                "fig3" => fig3(&mut ctx),
                "fig4" => fig4(&mut ctx, scale),
                "fig5-7" => fig5_6(&mut ctx, scale),
                "fig8" => fig8(&mut ctx),
                "fig9" => fig9(&mut ctx),
                "extras" => extras(&mut ctx, scale),
                other => unreachable!("unmapped task {other}"),
            }
            Ok(())
        });
        match result {
            Ok(()) => rows.push(ManifestEntry::ok(
                label,
                attempts_seen.max(1),
                started.elapsed().as_millis() as u64,
            )),
            Err(failure) => {
                // Checks and per-day rows from the failed attempt are
                // half-complete; drop them and record the failure.
                ctx.checks.truncate(checks_mark);
                ctx.manifest.truncate(manifest_mark);
                eprintln!("warning: {failure}; continuing with the remaining figures");
                rows.push(ManifestEntry::failed(
                    label,
                    "failed",
                    failure.attempts,
                    failure.elapsed.as_millis() as u64,
                    format!("{}: {}", failure.kind, failure.payload),
                ));
            }
        }
        println!();
    }

    println!("================ shape-check summary ================");
    print!("{}", render_checks_text(&ctx.checks));
    let md = render_checks_markdown(&ctx.checks);
    std::fs::create_dir_all(&ctx.out).ok();
    if let Err(e) = std::fs::write(ctx.out.join("checks.md"), md) {
        ctx.artifact_error("checks.md".into(), &e);
    }
    rows.append(&mut ctx.manifest);
    let failed = rows.iter().filter(|r| r.status != "ok").count();
    match write_run_manifest(&ctx.out, &rows) {
        Ok(path) => println!("run manifest: {}", path.display()),
        // The manifest is the degraded-run contract; without it the run
        // cannot claim to have recorded what happened.
        Err(e) => {
            eprintln!("error: failed to write run_manifest.csv: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "CSVs, gnuplot scripts and checks.md written to {}",
        ctx.out.display()
    );
    (ctx.checks, failed)
}
