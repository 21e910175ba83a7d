//! §4.1–4.3 — community evolution (Figures 4, 5 and 6).

use crate::network::DayFailure;
use osn_community::{
    CommunityTracker, EvolutionEvent, LouvainConfig, SnapshotSummary, TrackerConfig, TrackerOutput,
};
use osn_graph::{CsrGraph, DailySnapshots, Day, EventLog};
use osn_metrics::parallel::par_map;
use osn_metrics::supervisor::{chaos_gate, supervised_call, RunPolicy, TaskFailure};
use osn_mlkit::{
    k_fold, train_test_split, ConfusionMatrix, LinearSvm, LogisticConfig, LogisticRegression,
    StandardScaler, SvmConfig,
};
use osn_stats::{Cdf, Series, Table};

/// Parameters of a community tracking run.
#[derive(Debug, Clone, Copy)]
pub struct CommunityAnalysisConfig {
    /// First snapshot day (paper: day 20, "when the network is large
    /// enough to support communities").
    pub first_day: Day,
    /// Snapshot stride in days (paper: 3).
    pub stride: Day,
    /// Minimum tracked community size (paper: 10).
    pub min_size: u32,
    /// Louvain improvement threshold δ (paper settles on 0.04).
    pub delta: f64,
    /// RNG seed for Louvain node ordering.
    pub seed: u64,
}

impl Default for CommunityAnalysisConfig {
    fn default() -> Self {
        CommunityAnalysisConfig {
            first_day: 20,
            stride: 3,
            min_size: 10,
            delta: 0.04,
            seed: 0,
        }
    }
}

impl CommunityAnalysisConfig {
    pub(crate) fn tracker_config(&self) -> TrackerConfig {
        TrackerConfig {
            min_size: self.min_size,
            louvain: LouvainConfig {
                delta: self.delta,
                seed: self.seed,
                ..LouvainConfig::default()
            },
        }
    }
}

/// Observe one snapshot under supervision: the chaos gate and
/// [`CommunityTracker::step`] run under [`supervised_call`] (panic
/// isolation, retries, post-hoc deadline), and the step is committed
/// only when the task succeeds. A failed or late observation leaves the
/// tracker as it was, so the next snapshot warm-starts from the last
/// good one.
pub(crate) fn observe_supervised(
    tracker: &mut CommunityTracker,
    day: Day,
    g: &CsrGraph,
    policy: &RunPolicy,
) -> Result<SnapshotSummary, TaskFailure> {
    let scfg = policy.supervisor_config(1);
    let current = &*tracker;
    let step = supervised_call(&format!("day-{day}"), &scfg, |attempt| {
        chaos_gate(policy.chaos.as_ref(), day as u64, attempt)?;
        Ok(current.step(day, g))
    })?;
    Ok(tracker.commit(step))
}

/// Run the tracker over every snapshot of the log, each observation
/// supervised by `policy`.
///
/// A snapshot whose observation fails (panic, fatal error, exhausted
/// retries, or deadline overrun) is *quarantined*: it has no summary,
/// the tracker skips it, and it is reported in the second tuple element.
/// Supervision policy never affects the results of the snapshots that
/// succeed, given the same quarantined days.
pub fn track_supervised(
    log: &EventLog,
    cfg: &CommunityAnalysisConfig,
    policy: &RunPolicy,
) -> ((Vec<SnapshotSummary>, TrackerOutput), Vec<DayFailure>) {
    let mut tracker = CommunityTracker::new(cfg.tracker_config());
    let mut summaries = Vec::new();
    let mut failures = Vec::new();
    for snap in DailySnapshots::new(log, cfg.first_day, cfg.stride) {
        match observe_supervised(&mut tracker, snap.day, &snap.graph, policy) {
            Ok(summary) => summaries.push(summary),
            Err(failure) => failures.push(DayFailure {
                day: snap.day,
                failure,
            }),
        }
    }
    ((summaries, tracker.finish()), failures)
}

/// Run the tracker over every snapshot of the log.
///
/// Infallible facade over [`track_supervised`]: no retries, no deadline,
/// and a failed observation is re-raised as a panic carrying the day and
/// the original payload.
pub fn track(
    log: &EventLog,
    cfg: &CommunityAnalysisConfig,
) -> (Vec<SnapshotSummary>, TrackerOutput) {
    let (out, failures) = track_supervised(log, cfg, &RunPolicy::default());
    if let Some(df) = failures.first() {
        panic!(
            "community tracking failed on day {}: {}",
            df.day, df.failure
        );
    }
    out
}

/// Figure 4 output: one modularity and one similarity series per δ, plus
/// the community-size distribution at a reference day per δ.
#[derive(Debug, Clone)]
pub struct DeltaSweep {
    /// Figure 4(a): modularity over time, one series per δ.
    pub modularity: Table,
    /// Figure 4(b): average continuation similarity over time, per δ.
    pub similarity: Table,
    /// Figure 4(c): size distribution at the reference day, per δ:
    /// `(delta, (size, count) series)`.
    pub size_distributions: Vec<(f64, Series)>,
}

/// Figure 4: sensitivity of tracking quality/stability to δ. Runs one
/// tracker per δ value in parallel.
pub fn delta_sensitivity(
    log: &EventLog,
    deltas: &[f64],
    cfg: &CommunityAnalysisConfig,
    reference_day: Day,
    workers: usize,
) -> DeltaSweep {
    let runs: Vec<(f64, Vec<SnapshotSummary>)> =
        par_map(deltas.iter().copied(), workers.max(1), |delta| {
            let mut c = *cfg;
            c.delta = delta;
            let (summaries, _) = track(log, &c);
            (delta, summaries)
        });
    let mut modularity = Table::new("day");
    let mut similarity = Table::new("day");
    let mut size_distributions = Vec::new();
    for (delta, summaries) in &runs {
        let mut mseries = Series::new(format!("modularity_delta_{delta}"));
        let mut sseries = Series::new(format!("similarity_delta_{delta}"));
        for s in summaries {
            mseries.push(s.day as f64, s.modularity);
            if let Some(sim) = s.avg_similarity {
                sseries.push(s.day as f64, sim);
            }
        }
        modularity.push(mseries);
        similarity.push(sseries);
        // Size distribution at the snapshot closest to the reference day.
        if let Some(snap) = summaries
            .iter()
            .min_by_key(|s| s.day.abs_diff(reference_day))
        {
            size_distributions.push((*delta, size_distribution_series(&snap.sizes, *delta)));
        }
    }
    DeltaSweep {
        modularity,
        similarity,
        size_distributions,
    }
}

/// The paper's δ-selection procedure (§4.1): run the sweep, score each
/// δ by the balance of late modularity (quality) and late average
/// similarity (robustness), and return the winner together with the
/// per-δ scores. The paper runs this twice — a coarse sweep over
/// {1e-4 … 0.3} and a fine one over [0.01, 0.1] — and lands on 0.04.
pub fn select_delta(
    log: &EventLog,
    deltas: &[f64],
    cfg: &CommunityAnalysisConfig,
    workers: usize,
) -> (f64, Vec<(f64, f64)>) {
    let reference = log.end_day();
    let sweep = delta_sensitivity(log, deltas, cfg, reference, workers);
    let tail_mean = |s: &Series| {
        let k = (s.len() / 4).max(1);
        let n = s.len();
        if n == 0 {
            return 0.0;
        }
        s.points[n - k..].iter().map(|&(_, y)| y).sum::<f64>() / k as f64
    };
    let mut scores = Vec::new();
    for (i, &delta) in deltas.iter().enumerate() {
        let q = tail_mean(&sweep.modularity.series[i]);
        let sim = tail_mean(&sweep.similarity.series[i]);
        // equal-weight balance of quality and stability
        scores.push((delta, q + sim));
    }
    let best = scores
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(d, _)| d)
        .unwrap_or(0.04);
    (best, scores)
}

/// Histogram of community sizes as `(size, count)` points.
fn size_distribution_series(sizes: &[u32], delta: f64) -> Series {
    let mut counts = std::collections::BTreeMap::new();
    for &s in sizes {
        *counts.entry(s).or_insert(0u32) += 1;
    }
    Series::from_points(
        format!("count_delta_{delta}"),
        counts
            .into_iter()
            .map(|(s, c)| (s as f64, c as f64))
            .collect(),
    )
}

/// Figure 5(a): community size distributions at the snapshots closest to
/// the requested days.
pub fn size_over_time(summaries: &[SnapshotSummary], days: &[Day]) -> Vec<(Day, Series)> {
    days.iter()
        .filter_map(|&d| {
            summaries.iter().min_by_key(|s| s.day.abs_diff(d)).map(|s| {
                let mut series = size_distribution_series(&s.sizes, 0.0);
                series.name = format!("count_day_{}", s.day);
                (s.day, series)
            })
        })
        .collect()
}

/// Figure 5(b): fraction of all nodes covered by the five largest tracked
/// communities, over time.
pub fn top5_coverage(summaries: &[SnapshotSummary]) -> Series {
    Series::from_points(
        "top5_coverage",
        summaries
            .iter()
            .map(|s| (s.day as f64, s.top5_coverage))
            .collect(),
    )
}

/// Figure 5(c): CDF of community lifetimes in days (dead communities
/// only; still-alive communities are right-censored and excluded, as in
/// the paper).
pub fn lifetime_cdf(output: &TrackerOutput) -> Cdf {
    Cdf::from_samples(
        output
            .records
            .iter()
            .filter_map(|r| r.lifetime().map(|l| l as f64))
            .collect(),
    )
}

/// Figure 6(a): CDFs of the size ratio (second-largest / largest) for
/// merge and split events.
pub fn merge_split_ratio(output: &TrackerOutput) -> (Cdf, Cdf) {
    let mut merges = Vec::new();
    let mut splits = Vec::new();
    for e in &output.events {
        match e {
            EvolutionEvent::Merge { .. } => {
                if let Some(r) = e.size_ratio() {
                    merges.push(r);
                }
            }
            EvolutionEvent::Split { .. } => {
                if let Some(r) = e.size_ratio() {
                    splits.push(r);
                }
            }
            _ => {}
        }
    }
    (Cdf::from_samples(merges), Cdf::from_samples(splits))
}

/// Figure 6(c): per merge-death, whether the destination was the
/// strongest-tie community. Returns `(day, 1.0 or 0.0)` points plus the
/// overall fraction of strongest-tie merges (paper: ≈99%).
pub fn strongest_tie(output: &TrackerOutput) -> (Series, Option<f64>) {
    let mut s = Series::new("merged_with_strongest_tie");
    let mut yes = 0u64;
    let mut total = 0u64;
    for e in &output.events {
        if let EvolutionEvent::Death {
            day,
            strongest_tie: Some(tie),
            ..
        } = e
        {
            s.push(*day as f64, if *tie { 1.0 } else { 0.0 });
            total += 1;
            if *tie {
                yes += 1;
            }
        }
    }
    let frac = if total > 0 {
        Some(yes as f64 / total as f64)
    } else {
        None
    };
    (s, frac)
}

/// Merge-destination prediction quality (the paper's closing §4.3
/// claim: inter-community edge count predicts the merge destination).
#[derive(Debug, Clone, Copy, Default)]
pub struct DestinationPrediction {
    /// Number of evaluable merge-deaths.
    pub evaluated: u32,
    /// Fraction whose destination was the strongest-tie community.
    pub top1: f64,
    /// Fraction whose destination was within the top 3 tie counts.
    pub top3: f64,
    /// Mean tie rank of the destination.
    pub mean_rank: f64,
}

/// Evaluate tie-count destination prediction over all merge-deaths.
/// Returns `None` when no death carries a tie rank.
pub fn destination_prediction(output: &TrackerOutput) -> Option<DestinationPrediction> {
    let mut evaluated = 0u32;
    let mut top1 = 0u32;
    let mut top3 = 0u32;
    let mut rank_sum = 0u64;
    for e in &output.events {
        if let EvolutionEvent::Death {
            tie_rank: Some(rank),
            ..
        } = e
        {
            evaluated += 1;
            rank_sum += *rank as u64;
            if *rank == 1 {
                top1 += 1;
            }
            if *rank <= 3 {
                top3 += 1;
            }
        }
    }
    if evaluated == 0 {
        return None;
    }
    Some(DestinationPrediction {
        evaluated,
        top1: top1 as f64 / evaluated as f64,
        top3: top3 as f64 / evaluated as f64,
        mean_rank: rank_sum as f64 / evaluated as f64,
    })
}

/// Configuration of the Figure 6(b) merge predictor.
#[derive(Debug, Clone, Copy)]
pub struct MergePredictionConfig {
    /// Train fraction of the sample set.
    pub train_frac: f64,
    /// SVM hyper-parameters.
    pub svm: SvmConfig,
    /// Exclude samples whose snapshot day equals this (the paper drops
    /// communities created on the network-merge day).
    pub exclude_day: Option<Day>,
    /// Split / RNG seed.
    pub seed: u64,
    /// Age-bin width in days for the accuracy curves.
    pub age_bin_days: u32,
}

impl Default for MergePredictionConfig {
    fn default() -> Self {
        MergePredictionConfig {
            train_frac: 0.7,
            svm: SvmConfig {
                lambda: 1e-4,
                iterations: 300_000,
                positive_weight: 1.0,
                seed: 0,
            },
            exclude_day: None,
            seed: 0,
            age_bin_days: 10,
        }
    }
}

/// Figure 6(b) output.
#[derive(Debug, Clone)]
pub struct MergePrediction {
    /// Recall of "will merge" per community-age bin (x = age in days).
    pub merge_accuracy: Series,
    /// Recall of "will not merge" per community-age bin.
    pub no_merge_accuracy: Series,
    /// Overall confusion matrix on the test split.
    pub confusion: ConfusionMatrix,
    /// Number of samples (train + test).
    pub samples: usize,
    /// Fraction of positive (merged) samples.
    pub positive_fraction: f64,
}

/// The 13 features of one sample: {size, in-degree ratio, self-similarity}
/// × {current value, std over history, Δ¹ sign, Δ² sign} plus the
/// community age — exactly the feature families §4.3 describes.
fn features(rec: &osn_community::CommunityRecord, i: usize) -> Vec<f64> {
    let h = &rec.history;
    let size = |k: usize| h[k].size as f64;
    let idr = |k: usize| h[k].in_degree_ratio();
    let sim = |k: usize| h[k].similarity_to_prev;
    let metrics: [&dyn Fn(usize) -> f64; 3] = [&size, &idr, &sim];
    let mut out = Vec::with_capacity(13);
    for m in &metrics {
        out.push(m(i));
    }
    for m in &metrics {
        // std over history up to i
        let vals: Vec<f64> = (0..=i).map(&m).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        out.push(var.sqrt());
    }
    for m in &metrics {
        // first-order change indicator
        out.push((m(i) - m(i - 1)).signum());
    }
    for m in &metrics {
        // second-order change indicator (acceleration)
        let d1 = m(i) - m(i - 1);
        let d0 = m(i - 1) - m(i - 2);
        out.push((d1 - d0).signum());
    }
    out.push((h[i].day - rec.birth_day) as f64);
    out
}

/// Figure 6(b): train an SVM on per-community structural features and
/// report merge / no-merge prediction accuracy as a function of
/// community age.
///
/// Returns `None` when there are not enough samples of both classes.
pub fn merge_prediction(
    output: &TrackerOutput,
    cfg: &MergePredictionConfig,
) -> Option<MergePrediction> {
    let (xs, ys, ages) = collect_merge_samples(output, cfg)?;
    let positives = ys.iter().filter(|&&y| y > 0.0).count();

    let (train_idx, test_idx) = train_test_split(xs.len(), cfg.train_frac, cfg.seed);
    let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
    let scaler = StandardScaler::fit(&train_x);
    let train_x = scaler.transform(&train_x);
    let train_y: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();

    // Rebalance: weight positives by the class ratio.
    let pos_in_train = train_y.iter().filter(|&&y| y > 0.0).count().max(1);
    let mut svm_cfg = cfg.svm;
    svm_cfg.positive_weight = (train_y.len() as f64 / pos_in_train as f64 / 2.0).clamp(1.0, 50.0);
    let svm = LinearSvm::train(&train_x, &train_y, &svm_cfg);

    let mut confusion = ConfusionMatrix::default();
    let mut by_age: std::collections::BTreeMap<u32, ConfusionMatrix> = Default::default();
    for &i in &test_idx {
        let mut x = xs[i].clone();
        scaler.transform_row(&mut x);
        let pred = svm.predict(&x);
        confusion.push(ys[i], pred);
        let bin = ages[i] / cfg.age_bin_days * cfg.age_bin_days;
        by_age.entry(bin).or_default().push(ys[i], pred);
    }

    let mut merge_accuracy = Series::new("merge_recall_pct");
    let mut no_merge_accuracy = Series::new("no_merge_recall_pct");
    for (bin, m) in &by_age {
        if let Some(r) = m.positive_recall() {
            merge_accuracy.push(*bin as f64, 100.0 * r);
        }
        if let Some(r) = m.negative_recall() {
            no_merge_accuracy.push(*bin as f64, 100.0 * r);
        }
    }
    Some(MergePrediction {
        merge_accuracy,
        no_merge_accuracy,
        confusion,
        samples: xs.len(),
        positive_fraction: positives as f64 / ys.len() as f64,
    })
}

/// Classifier ablation for Figure 6(b): k-fold cross-validated accuracy
/// of the SVM versus logistic regression on the same feature matrix.
/// Returns `(svm_folds, logistic_folds)` or `None` when there are too
/// few samples of either class.
pub fn merge_prediction_crossval(
    output: &TrackerOutput,
    cfg: &MergePredictionConfig,
    folds: usize,
) -> Option<(Vec<ConfusionMatrix>, Vec<ConfusionMatrix>)> {
    let (xs, ys, _) = collect_merge_samples(output, cfg)?;
    let scaler = StandardScaler::fit(&xs);
    let xs = scaler.transform(&xs);
    let positives = ys.iter().filter(|&&y| y > 0.0).count().max(1);
    let weight = (ys.len() as f64 / positives as f64 / 2.0).clamp(1.0, 50.0);
    let svm_cfg = SvmConfig {
        positive_weight: weight,
        ..cfg.svm
    };
    let svm_folds = k_fold(
        &xs,
        &ys,
        folds,
        cfg.seed,
        |tx, ty| LinearSvm::train(tx, ty, &svm_cfg),
        |m, x| m.predict(x),
    );
    let log_cfg = LogisticConfig {
        positive_weight: weight,
        ..LogisticConfig::default()
    };
    let log_folds = k_fold(
        &xs,
        &ys,
        folds,
        cfg.seed,
        |tx, ty| LogisticRegression::train(tx, ty, &log_cfg),
        |m, x| m.predict(x),
    );
    Some((svm_folds, log_folds))
}

/// The 13-feature rows, ±1 labels, and per-sample community ages used by
/// the merge predictors.
type MergeSamples = (Vec<Vec<f64>>, Vec<f64>, Vec<u32>);

/// Shared sample extraction for the merge predictors.
fn collect_merge_samples(
    output: &TrackerOutput,
    cfg: &MergePredictionConfig,
) -> Option<MergeSamples> {
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut ages: Vec<u32> = Vec::new();
    for rec in &output.records {
        let n = rec.history.len();
        if n < 3 {
            continue;
        }
        if cfg.exclude_day == Some(rec.birth_day) {
            continue;
        }
        for i in 2..n {
            let is_last = i == n - 1;
            let label = if is_last {
                match (&rec.death_day, &rec.merged_into) {
                    (Some(_), Some(_)) => 1.0,
                    (Some(_), None) => -1.0,
                    (None, _) => continue,
                }
            } else {
                -1.0
            };
            xs.push(features(rec, i));
            ys.push(label);
            ages.push(rec.history[i].day - rec.birth_day);
        }
    }
    let positives = ys.iter().filter(|&&y| y > 0.0).count();
    if positives < 5 || ys.len() - positives < 5 {
        return None;
    }
    Some((xs, ys, ages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_genstream::{TraceConfig, TraceGenerator};

    fn tiny_log() -> EventLog {
        TraceGenerator::new(TraceConfig::tiny()).generate()
    }

    fn tiny_cfg() -> CommunityAnalysisConfig {
        CommunityAnalysisConfig {
            first_day: 20,
            stride: 10,
            min_size: 8,
            delta: 0.01,
            seed: 1,
        }
    }

    #[test]
    fn tracking_produces_strong_communities() {
        let log = tiny_log();
        let (summaries, output) = track(&log, &tiny_cfg());
        assert!(summaries.len() > 5);
        // Triadic closure plants significant community structure.
        let late = &summaries[summaries.len() - 1];
        assert!(late.modularity > 0.3, "modularity {}", late.modularity);
        assert!(late.num_tracked >= 2);
        assert!(!output.records.is_empty());
        // similarity defined after the first snapshot with continuity
        assert!(summaries.iter().skip(3).any(|s| s.avg_similarity.is_some()));
    }

    #[test]
    fn delta_sweep_orders_quality() {
        let log = tiny_log();
        let sweep = delta_sensitivity(&log, &[0.001, 0.3], &tiny_cfg(), 140, 2);
        assert_eq!(sweep.modularity.series.len(), 2);
        let fine_last = sweep.modularity.series[0].last_y().unwrap();
        let coarse_last = sweep.modularity.series[1].last_y().unwrap();
        assert!(
            fine_last >= coarse_last - 0.05,
            "fine {fine_last} coarse {coarse_last}"
        );
        assert_eq!(sweep.size_distributions.len(), 2);
    }

    #[test]
    fn lifetimes_and_coverage() {
        let log = tiny_log();
        let (summaries, output) = track(&log, &tiny_cfg());
        let cov = top5_coverage(&summaries);
        assert_eq!(cov.len(), summaries.len());
        assert!(cov.points.iter().all(|&(_, y)| (0.0..=1.0).contains(&y)));
        let lc = lifetime_cdf(&output);
        // communities churn in a growing network: some die
        assert!(!lc.is_empty(), "no dead communities");
        // all lifetimes non-negative
        assert!(lc.quantile(0.0).unwrap() >= 0.0);
    }

    #[test]
    fn merge_ratio_smaller_than_split_ratio() {
        let log = tiny_log();
        let (_, output) = track(&log, &tiny_cfg());
        let (merges, splits) = merge_split_ratio(&output);
        assert!(!merges.is_empty(), "no merges detected");
        // Merges are asymmetric (small into large): median ratio well below 1.
        assert!(merges.median().unwrap() < 0.8);
        // splits (if any) are more balanced on average than merges
        if splits.len() >= 3 {
            assert!(splits.mean().unwrap() >= merges.mean().unwrap() * 0.8);
        }
    }

    #[test]
    fn strongest_tie_mostly_holds() {
        let log = tiny_log();
        let (_, output) = track(&log, &tiny_cfg());
        let (series, frac) = strongest_tie(&output);
        // The tiny trace has too few merge-deaths for the fraction itself
        // to be stable (the full-scale shape is recorded in
        // EXPERIMENTS.md); assert structural consistency only.
        assert!(series.points.iter().all(|&(_, y)| y == 0.0 || y == 1.0));
        if let Some(f) = frac {
            assert!((0.0..=1.0).contains(&f));
            assert!(!series.is_empty());
        } else {
            assert!(series.is_empty());
        }
    }

    #[test]
    fn size_over_time_picks_closest_days() {
        let log = tiny_log();
        let (summaries, _) = track(&log, &tiny_cfg());
        let dists = size_over_time(&summaries, &[90, 150]);
        assert_eq!(dists.len(), 2);
        // The later snapshot must be populated; the earlier one may still
        // be (the tiny network is small at day 90).
        assert!(!dists.last().unwrap().1.is_empty());
        for (_, s) in &dists {
            // size distribution: sizes ≥ min_size
            assert!(s.points.iter().all(|&(x, _)| x >= 8.0));
        }
    }

    #[test]
    fn delta_selection_scores_all_candidates() {
        let log = tiny_log();
        let (best, scores) = select_delta(&log, &[0.01, 0.3], &tiny_cfg(), 2);
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().any(|&(d, _)| d == best));
        assert!(scores.iter().all(|&(_, s)| s.is_finite() && s >= 0.0));
    }

    #[test]
    fn destination_prediction_consistency() {
        let log = tiny_log();
        let (_, output) = track(&log, &tiny_cfg());
        if let Some(dp) = destination_prediction(&output) {
            assert!(dp.evaluated > 0);
            assert!((0.0..=1.0).contains(&dp.top1));
            assert!(dp.top3 >= dp.top1);
            assert!(dp.mean_rank >= 1.0);
        }
    }

    #[test]
    fn crossval_covers_every_sample_once() {
        let log = tiny_log();
        let (_, output) = track(&log, &tiny_cfg());
        let cfg = MergePredictionConfig::default();
        if let Some((svm_folds, log_folds)) = merge_prediction_crossval(&output, &cfg, 4) {
            let svm_total: u64 = svm_folds.iter().map(|f| f.total()).sum();
            let log_total: u64 = log_folds.iter().map(|f| f.total()).sum();
            assert_eq!(svm_total, log_total);
            assert!(svm_total > 0);
        }
    }

    #[test]
    fn merge_prediction_runs_or_reports_scarcity() {
        let log = tiny_log();
        let (_, output) = track(&log, &tiny_cfg());
        match merge_prediction(&output, &MergePredictionConfig::default()) {
            Some(mp) => {
                assert!(mp.samples > 10);
                assert!(mp.positive_fraction > 0.0 && mp.positive_fraction < 1.0);
                assert!(mp.confusion.total() > 0);
            }
            None => {
                // acceptable on a tiny trace: not enough merge samples
            }
        }
    }
}
