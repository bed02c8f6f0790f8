//! Simulation reports: the quantities the paper's evaluation plots.

use hare_cluster::{SimDuration, SimTime};
use hare_core::JobInfo;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Per-GPU accounting.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GpuReport {
    /// Time spent computing (training steps).
    pub busy: SimDuration,
    /// Computing time weighted by the running model's SM-utilization cap —
    /// what `nvidia-smi` style utilization plots (Figs. 3/6/8) show.
    pub effective_busy: SimDuration,
    /// Time spent in task switches.
    pub switching: SimDuration,
    /// Number of task switches performed.
    pub switch_count: u32,
    /// Speculative-cache hits among those switches.
    pub cache_hits: u32,
}

/// One utilization interval of a GPU's timeline (only recorded when the
/// simulation asks for timelines).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UtilSpan {
    /// Interval start.
    pub from: SimTime,
    /// Interval end.
    pub to: SimTime,
    /// Utilization level in [0, 1] (0 = idle/switching, model cap while
    /// training).
    pub level: f64,
}

/// Fault-injection and recovery accounting of one run (all zero in a
/// fault-free simulation).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultMetrics {
    /// GPU failure events that took effect.
    pub gpu_failures: u32,
    /// Transient failures that recovered (GPU rejoined the ready set).
    pub gpu_recoveries: u32,
    /// Sum of failure-to-rejoin downtimes across recovered GPUs.
    pub recovery_latency: SimDuration,
    /// Compute wall-clock thrown away: partial runs killed by failures
    /// plus speculation copies that lost their race.
    pub lost_work: SimDuration,
    /// Wall-clock of full task re-executions forced by failures (the
    /// unacknowledged work, re-run elsewhere — not silently free).
    pub reexec_work: SimDuration,
    /// Tasks that executed again after a failure killed their first run.
    pub reexecuted_tasks: u32,
    /// Rounds whose barrier was fed by at least one re-executed or
    /// speculative gradient — rounds that degraded to the relaxed quorum.
    pub degraded_rounds: u32,
    /// Gradients dropped (relaxed quorum already had `|D_r|` contributions,
    /// or a duplicate finished after its twin).
    pub dropped_gradients: u64,
    /// Gradients accepted into round averages — exactly
    /// `Σ_jobs rounds × sync_scale` in every completed run, faults or not.
    pub gradients_accepted: u64,
    /// Speculative task copies launched against stragglers.
    pub speculated_tasks: u32,
    /// Extra wall-clock added to training by straggler slowdown windows.
    pub straggler_delay: SimDuration,
    /// Extra wall-clock added to checkpoint fetches by storage faults.
    pub storage_stall: SimDuration,
}

/// Everything one simulation run produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Policy name.
    pub scheme: String,
    /// Completion time per job.
    pub completion: Vec<SimTime>,
    /// JCT (completion − arrival) per job.
    pub jct: Vec<SimDuration>,
    /// Job weights (copied for weighted aggregates).
    pub weights: Vec<f64>,
    /// Σ wₙ Cₙ in seconds — the paper's objective.
    pub weighted_completion: f64,
    /// Σ wₙ (Cₙ − aₙ) in seconds.
    pub weighted_jct: f64,
    /// Latest completion.
    pub makespan: SimTime,
    /// Per-GPU accounting.
    pub gpus: Vec<GpuReport>,
    /// Bytes fetched from shared checkpoint storage.
    pub storage_fetched: hare_cluster::Bytes,
    /// Checkpoint accesses served machine-locally.
    pub storage_local_hits: u64,
    /// Fault-injection accounting (all zero without a fault plan).
    pub faults: FaultMetrics,
    /// Optional per-GPU utilization timelines.
    pub timelines: Option<Vec<Vec<UtilSpan>>>,
}

impl SimReport {
    /// Mean JCT in seconds.
    pub fn mean_jct(&self) -> f64 {
        if self.jct.is_empty() {
            return 0.0;
        }
        self.jct.iter().map(|d| d.as_secs_f64()).sum::<f64>() / self.jct.len() as f64
    }

    /// Fraction of jobs with JCT ≤ `limit` (Fig.-13 style statements like
    /// "90.5% of jobs complete within 25 minutes").
    pub fn fraction_within(&self, limit: SimDuration) -> f64 {
        if self.jct.is_empty() {
            return 0.0;
        }
        self.jct.iter().filter(|&&d| d <= limit).count() as f64 / self.jct.len() as f64
    }

    /// Mean busy-fraction across GPUs over the makespan.
    pub fn mean_utilization(&self) -> f64 {
        let span = self.makespan.as_secs_f64();
        if span <= 0.0 || self.gpus.is_empty() {
            return 0.0;
        }
        self.gpus
            .iter()
            .map(|g| g.busy.as_secs_f64() / span)
            .sum::<f64>()
            / self.gpus.len() as f64
    }

    /// Total switching overhead across GPUs.
    pub fn total_switching(&self) -> SimDuration {
        self.gpus.iter().map(|g| g.switching).sum()
    }

    /// Total switches and cache hits.
    pub fn switch_stats(&self) -> (u32, u32) {
        (
            self.gpus.iter().map(|g| g.switch_count).sum(),
            self.gpus.iter().map(|g| g.cache_hits).sum(),
        )
    }
}

/// Per-job completion aggregates shared by the engine's realized
/// [`SimReport`] and the planner's expectation report: JCTs, the weighted
/// objective sums and the makespan, all derived from the completion vector
/// in job-index order so both callers produce bit-identical floats.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletionStats {
    /// JCT (completion − arrival) per job.
    pub jct: Vec<SimDuration>,
    /// Job weights, copied for the report.
    pub weights: Vec<f64>,
    /// Σ wₙ Cₙ in seconds.
    pub weighted_completion: f64,
    /// Σ wₙ (Cₙ − aₙ) in seconds.
    pub weighted_jct: f64,
    /// Latest completion.
    pub makespan: SimTime,
}

/// Derive [`CompletionStats`] from per-job completion times. Sums run in
/// job-index order — f64 addition is order-sensitive, and golden-snapshot
/// tests pin these outputs bit for bit. An empty completion set (a report
/// aggregated from zero jobs) is legal and yields all-zero stats.
pub fn completion_stats(completion: &[SimTime], jobs: &[JobInfo]) -> CompletionStats {
    let arrivals: Vec<SimTime> = jobs.iter().map(|j| j.arrival).collect();
    let weights: Vec<f64> = jobs.iter().map(|j| j.weight).collect();
    completion_stats_parts(completion, &arrivals, &weights)
}

/// [`completion_stats`] over bare per-job arrival/weight columns, for
/// callers that never materialize full [`JobInfo`] rows (the sharded
/// datacenter run aggregates 100k+ streamed jobs whose per-GPU time
/// matrices exist only cell-locally and one cell at a time). Identical
/// arithmetic, in the same job-index order, as the `JobInfo` entry point.
pub fn completion_stats_parts(
    completion: &[SimTime],
    arrivals: &[SimTime],
    weights: &[f64],
) -> CompletionStats {
    debug_assert_eq!(completion.len(), arrivals.len());
    debug_assert_eq!(completion.len(), weights.len());
    let jct: Vec<SimDuration> = completion
        .iter()
        .zip(arrivals)
        .map(|(&c, &a)| c.saturating_since(a))
        .collect();
    let weights = weights.to_vec();
    let weighted_completion = completion
        .iter()
        .zip(&weights)
        .map(|(c, w)| c.as_secs_f64() * w)
        .sum();
    let weighted_jct = jct
        .iter()
        .zip(&weights)
        .map(|(d, w)| d.as_secs_f64() * w)
        .sum();
    let makespan = completion.iter().copied().max().unwrap_or(SimTime::ZERO);
    CompletionStats {
        jct,
        weights,
        weighted_completion,
        weighted_jct,
        makespan,
    }
}

/// Minimal JSON string escaping (scheme names are plain ASCII, but the
/// serializer should never emit malformed JSON regardless).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `{:?}` on f64 prints the shortest decimal that round-trips, which is a
/// deterministic function of the bits — exactly what the golden-snapshot
/// fixtures need. (It never prints `1` for `1.0`, so output stays valid
/// JSON numbers.) Non-finite values have no JSON number representation —
/// `{:?}` would print literal `NaN`/`inf` and corrupt the document — so
/// they serialize as `null`, keeping the writer total over all inputs.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn push_u64_seq(out: &mut String, vals: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

impl SimReport {
    /// Deterministic, dependency-free JSON rendering with a fixed field
    /// order and integer-microsecond times. Every field is rendered, so
    /// the golden-snapshot determinism test, which diffs exactly this
    /// output against committed fixtures, compares whole reports. The
    /// output is valid JSON for every input: non-finite floats become
    /// `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"scheme\":");
        push_json_str(&mut s, &self.scheme);
        s.push_str(",\"completion\":");
        push_u64_seq(&mut s, self.completion.iter().map(|t| t.as_micros()));
        s.push_str(",\"jct\":");
        push_u64_seq(&mut s, self.jct.iter().map(|d| d.as_micros()));
        s.push_str(",\"weights\":[");
        for (i, w) in self.weights.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_f64(&mut s, *w);
        }
        s.push_str("],\"weighted_completion\":");
        push_f64(&mut s, self.weighted_completion);
        s.push_str(",\"weighted_jct\":");
        push_f64(&mut s, self.weighted_jct);
        let _ = write!(s, ",\"makespan\":{}", self.makespan.as_micros());
        s.push_str(",\"gpus\":[");
        for (i, g) in self.gpus.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"busy\":{},\"effective_busy\":{},\"switching\":{},\"switch_count\":{},\"cache_hits\":{}}}",
                g.busy.as_micros(),
                g.effective_busy.as_micros(),
                g.switching.as_micros(),
                g.switch_count,
                g.cache_hits
            );
        }
        let _ = write!(
            s,
            "],\"storage_fetched\":{},\"storage_local_hits\":{}",
            self.storage_fetched.as_u64(),
            self.storage_local_hits
        );
        let f = &self.faults;
        let _ = write!(
            s,
            ",\"faults\":{{\"gpu_failures\":{},\"gpu_recoveries\":{},\"recovery_latency\":{},\
             \"lost_work\":{},\"reexec_work\":{},\"reexecuted_tasks\":{},\"degraded_rounds\":{},\
             \"dropped_gradients\":{},\"gradients_accepted\":{},\"speculated_tasks\":{},\
             \"straggler_delay\":{},\"storage_stall\":{}}}",
            f.gpu_failures,
            f.gpu_recoveries,
            f.recovery_latency.as_micros(),
            f.lost_work.as_micros(),
            f.reexec_work.as_micros(),
            f.reexecuted_tasks,
            f.degraded_rounds,
            f.dropped_gradients,
            f.gradients_accepted,
            f.speculated_tasks,
            f.straggler_delay.as_micros(),
            f.storage_stall.as_micros()
        );
        s.push_str(",\"timelines\":");
        match &self.timelines {
            None => s.push_str("null"),
            Some(lines) => {
                s.push('[');
                for (i, line) in lines.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push('[');
                    for (k, span) in line.iter().enumerate() {
                        if k > 0 {
                            s.push(',');
                        }
                        let _ = write!(
                            s,
                            "{{\"from\":{},\"to\":{},\"level\":",
                            span.from.as_micros(),
                            span.to.as_micros()
                        );
                        push_f64(&mut s, span.level);
                        s.push('}');
                    }
                    s.push(']');
                }
                s.push(']');
            }
        }
        s.push('}');
        s
    }
}

/// Empirical CDF of JCTs: sorted (seconds, cumulative fraction) points —
/// exactly what Fig. 13 plots.
pub fn jct_cdf(jcts: &[SimDuration]) -> Vec<(f64, f64)> {
    let mut xs: Vec<f64> = jcts.iter().map(|d| d.as_secs_f64()).collect();
    xs.sort_by(f64::total_cmp);
    let n = xs.len() as f64;
    xs.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            scheme: "test".into(),
            completion: vec![SimTime::from_secs(10), SimTime::from_secs(20)],
            jct: vec![SimDuration::from_secs(10), SimDuration::from_secs(15)],
            weights: vec![1.0, 2.0],
            weighted_completion: 50.0,
            weighted_jct: 40.0,
            makespan: SimTime::from_secs(20),
            gpus: vec![
                GpuReport {
                    busy: SimDuration::from_secs(10),
                    effective_busy: SimDuration::from_secs(9),
                    switching: SimDuration::from_millis(100),
                    switch_count: 4,
                    cache_hits: 2,
                },
                GpuReport {
                    busy: SimDuration::from_secs(20),
                    effective_busy: SimDuration::from_secs(20),
                    switching: SimDuration::ZERO,
                    switch_count: 0,
                    cache_hits: 0,
                },
            ],
            storage_fetched: hare_cluster::Bytes::ZERO,
            storage_local_hits: 0,
            faults: FaultMetrics::default(),
            timelines: None,
        }
    }

    /// A report aggregated from zero jobs on zero GPUs — what heavy fault
    /// plans or empty sweep cells can produce upstream.
    fn empty_report() -> SimReport {
        SimReport {
            scheme: "empty".into(),
            completion: Vec::new(),
            jct: Vec::new(),
            weights: Vec::new(),
            weighted_completion: 0.0,
            weighted_jct: 0.0,
            makespan: SimTime::ZERO,
            gpus: Vec::new(),
            storage_fetched: hare_cluster::Bytes::ZERO,
            storage_local_hits: 0,
            faults: FaultMetrics::default(),
            timelines: None,
        }
    }

    #[test]
    fn empty_report_aggregates_are_zero_not_nan() {
        let r = empty_report();
        assert_eq!(r.mean_jct(), 0.0);
        assert_eq!(r.fraction_within(SimDuration::from_secs(60)), 0.0);
        assert_eq!(r.mean_utilization(), 0.0);
        assert_eq!(r.total_switching(), SimDuration::ZERO);
        assert_eq!(r.switch_stats(), (0, 0));
    }

    #[test]
    fn zero_gpu_report_with_jobs_has_zero_utilization() {
        let mut r = report();
        r.gpus.clear();
        assert_eq!(r.mean_utilization(), 0.0);
        assert!(serde_json::from_str(&r.to_json()).is_ok());
    }

    #[test]
    fn completion_stats_of_empty_set_is_total() {
        let stats = completion_stats(&[], &[]);
        assert_eq!(stats.makespan, SimTime::ZERO);
        assert_eq!(stats.weighted_completion, 0.0);
        assert_eq!(stats.weighted_jct, 0.0);
        assert!(stats.jct.is_empty() && stats.weights.is_empty());
    }

    #[test]
    fn empty_report_serializes_to_valid_json() {
        let json = empty_report().to_json();
        let v = serde_json::from_str(&json).expect("empty report JSON parses");
        assert_eq!(
            v.get("scheme").and_then(serde_json::Value::as_str),
            Some("empty")
        );
        assert_eq!(
            v.get("completion").and_then(serde_json::Value::as_array),
            Some(&Vec::new())
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut r = report();
        r.weights = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        r.weighted_completion = f64::NAN;
        r.weighted_jct = f64::INFINITY;
        r.timelines = Some(vec![vec![UtilSpan {
            from: SimTime::ZERO,
            to: SimTime::from_secs(1),
            level: f64::NAN,
        }]]);
        let json = r.to_json();
        let v = serde_json::from_str(&json).expect("NaN-laden report still parses");
        assert!(v.get("weighted_completion").unwrap().is_null());
        assert!(v.get("weighted_jct").unwrap().is_null());
        let weights = v.get("weights").unwrap().as_array().unwrap();
        assert!(weights[0].is_null() && weights[1].is_null() && weights[2].is_null());
        assert_eq!(weights[3].as_f64(), Some(1.5));
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert!((r.mean_jct() - 12.5).abs() < 1e-12);
        assert!((r.mean_utilization() - 0.75).abs() < 1e-12);
        assert_eq!(r.total_switching(), SimDuration::from_millis(100));
        assert_eq!(r.switch_stats(), (4, 2));
    }

    #[test]
    fn fraction_within() {
        let r = report();
        assert_eq!(r.fraction_within(SimDuration::from_secs(9)), 0.0);
        assert_eq!(r.fraction_within(SimDuration::from_secs(10)), 0.5);
        assert_eq!(r.fraction_within(SimDuration::from_secs(60)), 1.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let jcts = vec![
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
        ];
        let cdf = jct_cdf(&jcts);
        assert_eq!(cdf.len(), 3);
        assert!((cdf[0].0 - 1.0).abs() < 1e-12);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }
}
