//! Property tests pinning the contract of the dependency-free JSON
//! serializers: `SimReport::to_json` and `ServeReport::to_json` (with its
//! two histograms) must produce *valid* JSON for every input — including
//! NaN/infinite floats (serialized as `null`), hostile scheme names
//! (quotes, backslashes, control characters), empty reports, and reports
//! produced by real runs under random fault plans. Validity is checked by
//! re-parsing with the strict `serde_json` parser.

#![allow(clippy::unwrap_used)]

use hare_cluster::{Bytes, Cluster, SimDuration, SimTime};
use hare_sim::{
    AdmissionCounters, FaultMetrics, FaultPlan, GpuFault, GpuReport, Histogram, ServeReport,
    SimReport, SimWorkload, Simulation, StragglerWindow, UtilSpan,
};
use hare_workload::{testbed_trace, ProfileDb};
use proptest::prelude::*;

/// Every f64 bit pattern: NaNs (quiet and signaling), ±inf, subnormals,
/// -0.0 — the serializer must stay total over all of them.
fn wild_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Strings that stress the JSON escaper: quotes, backslashes, control
/// characters, and multi-byte scalars.
fn wild_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0xD800, 0..16).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
            .collect()
    })
}

fn arb_report() -> impl Strategy<Value = SimReport> {
    let parts = (
        wild_string(),
        prop::collection::vec(any::<u64>(), 0..6),
        prop::collection::vec(wild_f64(), 0..6),
        (wild_f64(), wild_f64(), any::<u64>()),
        prop::collection::vec((any::<u64>(), any::<u32>()), 0..4),
        (any::<bool>(), prop::collection::vec(wild_f64(), 0..4)),
    );
    parts.prop_map(
        |(scheme, times, weights, (wc, wjct, makespan), gpus, (with_tl, levels))| SimReport {
            scheme,
            completion: times.iter().map(|&t| SimTime::from_micros(t)).collect(),
            jct: times.iter().map(|&t| SimDuration::from_micros(t)).collect(),
            weights,
            weighted_completion: wc,
            weighted_jct: wjct,
            makespan: SimTime::from_micros(makespan),
            gpus: gpus
                .iter()
                .map(|&(us, n)| GpuReport {
                    busy: SimDuration::from_micros(us),
                    effective_busy: SimDuration::from_micros(us / 2),
                    switching: SimDuration::from_micros(us / 3),
                    switch_count: n,
                    cache_hits: n / 2,
                })
                .collect(),
            storage_fetched: Bytes::new(makespan),
            storage_local_hits: makespan / 7,
            faults: FaultMetrics::default(),
            timelines: with_tl.then(|| {
                vec![levels
                    .iter()
                    .enumerate()
                    .map(|(i, &level)| UtilSpan {
                        from: SimTime::from_micros(i as u64),
                        to: SimTime::from_micros(i as u64 + 1),
                        level,
                    })
                    .collect()]
            }),
        },
    )
}

/// A histogram over `bounds` with bucket counts from `counts` (padded or
/// cut to fit) and an arbitrary sum.
fn histogram(bounds: &[f64], counts: &[u64], sum: f64) -> Histogram {
    let mut counts = counts.to_vec();
    counts.resize(bounds.len() + 1, 0);
    Histogram::from_parts(bounds, counts, sum).unwrap()
}

fn arb_serve_report() -> impl Strategy<Value = ServeReport> {
    let parts = (
        (wild_string(), any::<u64>(), any::<u64>()),
        (wild_f64(), wild_f64(), wild_f64()),
        (wild_f64(), wild_f64()),
        prop::collection::vec(0u64..1_000_000, 0..12),
        prop::collection::vec((wild_string(), any::<u64>()), 0..5),
    );
    parts.prop_map(
        |(
            (scheme, end, n),
            (decisions_per_sec, min_budget_level, mean_jct_secs),
            (lsum, wsum),
            counts,
            rungs,
        )| {
            ServeReport {
                scheme,
                end: SimTime::from_micros(end),
                counters: AdmissionCounters {
                    offered: n,
                    deferred_pending: n / 3,
                    ..AdmissionCounters::default()
                },
                completed: n,
                decisions: n / 2,
                decisions_per_sec,
                decision_work: n,
                decision_latency: histogram(&[0.001, 0.01, 0.1], &counts, lsum),
                queue_wait: histogram(&[1.0, 60.0], &counts[counts.len() / 2..], wsum),
                rung_hits: rungs.into_iter().collect(),
                queue_depth_max: n as usize,
                queue_depth_at_drain: (n / 5) as usize,
                min_budget_level,
                budget_transitions: n as u32,
                mean_jct_secs,
                requeued: n,
                lease_expiries: n,
                lease_rejoins: n,
                lease_lost: n,
            }
        },
    )
}

fn assert_valid_json(what: &str, text: &str) {
    if let Err(e) = serde_json::from_str(text) {
        panic!("{what} produced invalid JSON ({e}):\n{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `SimReport::to_json` is total: any field contents — hostile scheme
    /// strings, non-finite floats, empty vectors — still parse.
    #[test]
    fn report_json_always_parses(report in arb_report()) {
        assert_valid_json("SimReport::to_json", &report.to_json());
    }

    /// Same for the serve report: hostile scheme and rung names, and
    /// every f64 bit pattern in its float fields and histogram sums (a
    /// NaN must render as null, not `NaN`).
    #[test]
    fn serve_report_json_always_parses(report in arb_serve_report()) {
        assert_valid_json("ServeReport::to_json", &report.to_json());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end: reports from real simulations under random fault plans
    /// (transient/permanent failures, stragglers) serialize to valid JSON.
    #[test]
    fn fault_run_reports_serialize_to_valid_json(
        case in (
            1u64..6,
            prop::collection::vec((0usize..15, 60u64..900, any::<bool>(), 60u64..600), 0..3),
            prop::collection::vec((0usize..15, 0u64..300, 1u64..600), 0..2),
        )
    ) {
        let (seed, faults, stragglers) = case;
        let db = ProfileDb::with_noise(seed, 0.0);
        let mut trace = testbed_trace(seed);
        trace.truncate(4);
        let w = SimWorkload::build(Cluster::testbed15(), trace, &db);

        let mut plan = FaultPlan::default();
        for (i, &(gpu, at, transient, down)) in faults.iter().enumerate() {
            // Space the windows out so transient windows never overlap a
            // permanent loss of the same GPU (plan validity).
            plan.gpu_faults.push(GpuFault {
                gpu: (gpu + i) % 15,
                at: SimTime::from_secs(at + i as u64 * 2_000),
                recover_after: transient.then(|| SimDuration::from_secs(down)),
            });
        }
        for &(gpu, from, len) in &stragglers {
            plan.stragglers.push(StragglerWindow {
                gpu,
                from: SimTime::from_secs(from),
                until: SimTime::from_secs(from + len),
                slowdown: 2.0,
            });
        }
        let report = Simulation::new(&w)
            .with_seed(seed)
            .with_fault_plan(&plan)
            .run(&mut hare_baselines_stub::policy())
            .expect("simulation");
        assert_valid_json("SimReport::to_json (fault run)", &report.to_json());
    }
}

/// hare-sim cannot depend on hare-baselines (dependency direction), so the
/// fault-plan property drives the engine with a minimal greedy policy:
/// every ready task goes to the first idle GPU.
mod hare_baselines_stub {
    use hare_sim::{Policy, SimView};

    #[derive(Debug, Default)]
    pub struct FirstFit;

    impl Policy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
        }
        fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
            for (task, gpu) in view.ready.iter().zip(view.idle_gpus.iter()) {
                out.push((task, gpu));
            }
        }
    }

    pub fn policy() -> FirstFit {
        FirstFit
    }
}
