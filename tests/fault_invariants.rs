//! Chaos property tests for the fault-injection & recovery subsystem:
//! arbitrary sanitized fault plans — transient and permanent GPU
//! failures, straggler windows, NIC/backbone degradation, checkpoint
//! store outages and latency spikes, optional speculation — thrown at
//! every scheduler, checking the invariants recovery must preserve no
//! matter what the plan looks like:
//!
//! 1. the run completes (`Ok`), every job finishes, never before arrival;
//! 2. gradient conservation: exactly `Σ_jobs rounds × sync_scale`
//!    gradients are accepted into round averages, faults or not — lost
//!    work is re-executed, late duplicates are dropped by the relaxed
//!    quorum rather than double-counted;
//! 3. fault accounting is internally consistent (recoveries never exceed
//!    failures, re-execution and lost work only exist when something
//!    failed or speculated);
//! 4. runs are bit-for-bit deterministic under identical plans;
//! 5. speculation armed at a threshold no straggler reaches changes
//!    neither the report nor the number of events processed;
//! 6. every dispatch offer has a cause the policy can observe.

use hare::baselines::{
    build_simulation, GavelFifo, HareOnline, ReplanBudget, RunOptions, SchedAllox, SchedHomo,
    Scheme, Srtf,
};
use hare::cluster::{Cluster, SimDuration, SimTime};
use hare::core::HareScheduler;
use hare::sim::{
    FaultPlan, FaultProfile, GpuFault, NetworkFault, OfflineReplay, Policy, SimError, SimReport,
    SimView, SimWorkload, SolverDegradation, SpeculationConfig, StorageFault, StorageFaultKind,
    StragglerWindow,
};
use hare::solver::SolveBudget;
use hare::workload::{testbed_trace, JobId, JobSpec, ModelKind, ProfileDb};
use proptest::prelude::*;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// The paper's testbed: 15 GPUs across 4 machines.
const N_GPUS: usize = 15;
/// Permanent-loss cap: the widest trace gang (`sync_scale` 6) must still
/// fit on the surviving GPUs even while every transient window overlaps.
const MAX_PERMANENT: usize = 3;

fn workload(seed: u64) -> SimWorkload {
    let db = ProfileDb::with_noise(seed, 0.0);
    let mut trace = testbed_trace(seed);
    trace.truncate(4);
    SimWorkload::build(Cluster::testbed15(), trace, &db)
}

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// Raw GPU faults sanitized into a valid plan fragment: per-GPU down
/// windows made disjoint (later overlapping windows dropped) and
/// permanent losses capped so the cluster stays schedulable.
fn gpu_faults() -> impl Strategy<Value = Vec<GpuFault>> {
    prop::collection::vec(
        (0usize..N_GPUS, 0u64..2_400, any::<bool>(), 30u64..1_200),
        0..6,
    )
    .prop_map(|raw| {
        let mut faults: Vec<GpuFault> = raw
            .into_iter()
            .map(|(gpu, at, transient, down)| GpuFault {
                gpu,
                at: t(at),
                recover_after: transient.then(|| SimDuration::from_secs(down)),
            })
            .collect();
        faults.sort_by_key(|f| (f.gpu, f.at));
        let mut out: Vec<GpuFault> = Vec::new();
        let mut permanent = 0;
        for f in faults {
            let overlaps = out.iter().any(|p| {
                p.gpu == f.gpu
                    && match p.recover_after {
                        None => true,
                        Some(d) => f.at < p.at + d,
                    }
            });
            if overlaps {
                continue;
            }
            if f.recover_after.is_none() {
                if permanent == MAX_PERMANENT {
                    continue;
                }
                permanent += 1;
            }
            out.push(f);
        }
        out
    })
}

/// Straggler windows; overlaps are legal (the engine takes the worst
/// factor), so only `from < until` and `slowdown ≥ 1` need construction.
fn stragglers() -> impl Strategy<Value = Vec<StragglerWindow>> {
    prop::collection::vec(
        (0usize..N_GPUS, 0u64..4_000, 60u64..1_800, 1.0f64..4.0),
        0..5,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(gpu, from, len, slowdown)| StragglerWindow {
                gpu,
                from: t(from),
                until: t(from + len),
                slowdown,
            })
            .collect()
    })
}

fn network_faults() -> impl Strategy<Value = Vec<NetworkFault>> {
    prop::collection::vec((0usize..5, 0u64..4_000, 60u64..1_500, 0.05f64..1.0), 0..4).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(m, from, len, factor)| NetworkFault {
                    // Machine 4 does not exist: index 4 means the backbone.
                    machine: (m < 4).then_some(m),
                    from: t(from),
                    until: t(from + len),
                    factor,
                })
                .collect()
        },
    )
}

fn storage_faults() -> impl Strategy<Value = Vec<StorageFault>> {
    prop::collection::vec((0u64..3_000, 30u64..600, 1.0f64..5.0, any::<bool>()), 0..3).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(from, len, slow, outage)| StorageFault {
                    from: t(from),
                    until: t(from + len),
                    kind: if outage {
                        StorageFaultKind::Outage
                    } else {
                        StorageFaultKind::Slowdown(slow)
                    },
                })
                .collect()
        },
    )
}

/// Solver brownout windows; overlaps are legal (the engine takes the
/// minimum open factor), so only `from < until` and `factor ∈ (0, 1]`
/// need construction.
fn solver_degradations() -> impl Strategy<Value = Vec<SolverDegradation>> {
    prop::collection::vec((0u64..4_000, 60u64..1_800, 0.0001f64..1.0), 0..3).prop_map(|raw| {
        raw.into_iter()
            .map(|(from, len, factor)| SolverDegradation {
                from: t(from),
                until: t(from + len),
                factor,
            })
            .collect()
    })
}

fn speculation() -> impl Strategy<Value = Option<SpeculationConfig>> {
    (any::<bool>(), 1.2f64..3.0)
        .prop_map(|(on, threshold)| on.then_some(SpeculationConfig { threshold }))
}

/// A full sanitized chaos plan plus the workload seed it runs against.
fn chaos() -> impl Strategy<Value = (u64, FaultPlan)> {
    (
        0u64..48,
        gpu_faults(),
        stragglers(),
        network_faults(),
        storage_faults(),
        solver_degradations(),
        speculation(),
    )
        .prop_map(
            |(
                seed,
                gpu_faults,
                stragglers,
                network_faults,
                storage_faults,
                solver_degradations,
                speculation,
            )| {
                (
                    seed,
                    FaultPlan {
                        gpu_faults,
                        stragglers,
                        network_faults,
                        storage_faults,
                        solver_degradations,
                        speculation,
                    },
                )
            },
        )
}

/// A fresh policy for `scheme`; Hare replays its own offline plan.
fn policy(w: &SimWorkload, scheme: Scheme) -> Box<dyn Policy> {
    match scheme {
        Scheme::Hare => {
            let out = HareScheduler::default().schedule(&w.problem);
            Box::new(OfflineReplay::new("Hare", w, &out.schedule))
        }
        Scheme::GavelFifo => Box::new(GavelFifo::new()),
        Scheme::Srtf => Box::new(Srtf::new()),
        Scheme::SchedHomo => Box::new(SchedHomo::new()),
        Scheme::SchedAllox => Box::new(SchedAllox::new()),
    }
}

/// A run's report and the number of events its engine processed.
fn run_counted(
    w: &SimWorkload,
    plan: &FaultPlan,
    scheme: Scheme,
) -> Result<(SimReport, u64), SimError> {
    let opts = RunOptions {
        noise: 0.0,
        ..RunOptions::default()
    };
    build_simulation(scheme, w, opts, plan).run_counted(policy(w, scheme).as_mut())
}

fn run_one(w: &SimWorkload, plan: &FaultPlan, scheme: Scheme) -> Result<SimReport, SimError> {
    run_counted(w, plan, scheme).map(|(report, _)| report)
}

/// Online Hare's report and event count.
fn run_online_counted(w: &SimWorkload, plan: &FaultPlan) -> Result<(SimReport, u64), SimError> {
    let opts = RunOptions {
        noise: 0.0,
        ..RunOptions::default()
    };
    build_simulation(Scheme::Hare, w, opts, plan).run_counted(&mut HareOnline::new())
}

fn run_online(w: &SimWorkload, plan: &FaultPlan) -> Result<SimReport, SimError> {
    run_online_counted(w, plan).map(|(report, _)| report)
}

/// Online Hare on a shoestring solver budget: every replan runs the
/// anytime ladder with almost no pivots/nodes to spend. Returns the
/// policy too so tests can inspect which rungs produced the plans.
fn run_online_tiny_budget(
    w: &SimWorkload,
    plan: &FaultPlan,
) -> Result<(SimReport, HareOnline), SimError> {
    let opts = RunOptions {
        noise: 0.0,
        ..RunOptions::default()
    };
    let mut policy = HareOnline::with_budget(ReplanBudget {
        budget: SolveBudget::capped(1, 1),
        ..ReplanBudget::default()
    });
    let report = build_simulation(Scheme::Hare, w, opts, plan).run(&mut policy)?;
    Ok((report, policy))
}

/// Wraps a policy and counts the dispatch offers nothing observable
/// caused: the first call at a new clock reading with an empty change log
/// and no failure or recovery callback since the previous call.
struct OfferProbe {
    inner: Box<dyn Policy>,
    last_now: Option<SimTime>,
    notified: bool,
    uncaused: u32,
}

impl Policy for OfferProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        if self.last_now != Some(view.now) && view.changes.is_empty() && !self.notified {
            self.uncaused += 1;
        }
        self.last_now = Some(view.now);
        self.notified = false;
        self.inner.dispatch(view, out);
    }

    fn on_gpu_failure(&mut self, gpu: usize, requeued: &[usize]) {
        self.notified = true;
        self.inner.on_gpu_failure(gpu, requeued);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.notified = true;
        self.inner.on_gpu_recovery(gpu);
    }
}

/// The recovery invariants every completed chaos run must satisfy.
fn check_invariants(w: &SimWorkload, plan: &FaultPlan, report: &SimReport) {
    let n = w.problem.jobs.len();
    assert_eq!(report.completion.len(), n, "{}: jobs lost", report.scheme);
    for (j, info) in w.problem.jobs.iter().enumerate() {
        assert!(
            report.completion[j] >= info.arrival,
            "{}: job {j} completed at {} before arriving at {}",
            report.scheme,
            report.completion[j],
            info.arrival
        );
    }
    assert!(report.weighted_jct.is_finite() && report.weighted_jct > 0.0);

    // Gradient conservation: re-execution and quorum drops must balance
    // to exactly the fault-free count.
    let expected: u64 = w
        .problem
        .jobs
        .iter()
        .map(|j| j.rounds as u64 * j.sync_scale as u64)
        .sum();
    let f = &report.faults;
    assert_eq!(
        f.gradients_accepted, expected,
        "{}: accepted {} gradients, expected {expected}",
        report.scheme, f.gradients_accepted
    );

    // Accounting consistency.
    assert!(f.gpu_recoveries <= f.gpu_failures);
    let transients = plan
        .gpu_faults
        .iter()
        .filter(|g| g.recover_after.is_some())
        .count() as u32;
    assert!(f.gpu_recoveries <= transients);
    let quiet = f.gpu_failures == 0 && f.speculated_tasks == 0;
    if quiet {
        assert_eq!(
            f.reexecuted_tasks, 0,
            "{}: re-exec without cause",
            report.scheme
        );
        assert_eq!(
            f.dropped_gradients, 0,
            "{}: drops without cause",
            report.scheme
        );
        assert!(
            f.lost_work.is_zero(),
            "{}: lost work without cause",
            report.scheme
        );
    }
    if plan.stragglers.is_empty() && plan.speculation.is_none() {
        assert!(f.straggler_delay.is_zero());
    }
    if plan.storage_faults.is_empty() {
        assert!(f.storage_stall.is_zero());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hare_replay_survives_chaos(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let report = run_one(&w, &plan, Scheme::Hare).expect("chaos run failed");
        check_invariants(&w, &plan, &report);
    }

    #[test]
    fn gavel_fifo_survives_chaos(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let report = run_one(&w, &plan, Scheme::GavelFifo).expect("chaos run failed");
        check_invariants(&w, &plan, &report);
    }

    #[test]
    fn srtf_survives_chaos(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let report = run_one(&w, &plan, Scheme::Srtf).expect("chaos run failed");
        check_invariants(&w, &plan, &report);
    }

    #[test]
    fn sched_homo_survives_chaos(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let report = run_one(&w, &plan, Scheme::SchedHomo).expect("chaos run failed");
        check_invariants(&w, &plan, &report);
    }

    #[test]
    fn sched_allox_survives_chaos(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let report = run_one(&w, &plan, Scheme::SchedAllox).expect("chaos run failed");
        check_invariants(&w, &plan, &report);
    }

    #[test]
    fn hare_online_survives_chaos(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let report = run_online(&w, &plan).expect("chaos run failed");
        check_invariants(&w, &plan, &report);
    }

    /// Graceful degradation under chaos: with a near-zero solve budget the
    /// ladder can never run the relaxation, yet every chaos plan must
    /// still complete with the full recovery invariants intact, served by
    /// the stale-plan/greedy rungs alone.
    #[test]
    fn budgeted_hare_online_survives_chaos_on_a_shoestring(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let (report, policy) = run_online_tiny_budget(&w, &plan).expect("chaos run failed");
        check_invariants(&w, &plan, &report);
        let hits = policy.rung_hits();
        let upper: u64 = hits[..2].iter().map(|(_, n)| n).sum();
        let lower: u64 = hits[2..].iter().map(|(_, n)| n).sum();
        prop_assert_eq!(upper, 0, "exact/relaxation rungs cannot fit in a 1-pivot budget");
        prop_assert!(lower > 0, "every replan must come from a degraded rung");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical plan, identical run: the whole fault pipeline (failure
    /// events, straggler integration, quorum drops, recovery rejoins) is
    /// replayable bit for bit.
    #[test]
    fn chaos_runs_are_deterministic(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        for scheme in Scheme::ALL {
            let a = run_one(&w, &plan, scheme).expect("chaos run failed");
            let b = run_one(&w, &plan, scheme).expect("chaos run failed");
            assert_eq!(a, b, "{scheme:?} diverged under an identical plan");
        }
        let a = run_online(&w, &plan).expect("chaos run failed");
        let b = run_online(&w, &plan).expect("chaos run failed");
        assert_eq!(a, b, "online Hare diverged under an identical plan");
    }

    /// A speculation threshold no straggler reaches launches no twin, and
    /// a failed GPU's in-flight events are retired the same way whether
    /// speculation is armed or not: the report and the number of events
    /// the engine processed both equal the speculation-off run's.
    #[test]
    fn a_speculation_that_never_fires_changes_nothing(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let off = FaultPlan { speculation: None, ..plan.clone() };
        let idle = FaultPlan {
            speculation: Some(SpeculationConfig { threshold: f64::MAX }),
            ..plan
        };
        for scheme in Scheme::ALL {
            let (a, a_events) = run_counted(&w, &off, scheme).expect("chaos run failed");
            let (b, b_events) = run_counted(&w, &idle, scheme).expect("chaos run failed");
            prop_assert_eq!(a.to_json(), b.to_json(), "{:?} report", scheme);
            prop_assert_eq!(a_events, b_events, "{:?} event count", scheme);
        }
        let (a, a_events) = run_online_counted(&w, &off).expect("chaos run failed");
        let (b, b_events) = run_online_counted(&w, &idle).expect("chaos run failed");
        prop_assert_eq!(a.to_json(), b.to_json(), "online Hare report");
        prop_assert_eq!(a_events, b_events, "online Hare event count");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine offers a dispatch only when something a policy can
    /// observe changed. A stale occupancy pop (its GPU failed after the
    /// event was scheduled) moves only the clock, so it is not offered.
    #[test]
    fn every_dispatch_offer_has_a_cause(case in chaos()) {
        let (seed, plan) = case;
        let w = workload(seed);
        let opts = RunOptions {
            noise: 0.0,
            ..RunOptions::default()
        };
        for scheme in Scheme::ALL {
            let mut probe = OfferProbe {
                inner: policy(&w, scheme),
                last_now: None,
                notified: false,
                uncaused: 0,
            };
            build_simulation(scheme, &w, opts, &plan)
                .run(&mut probe)
                .expect("chaos run failed");
            prop_assert_eq!(probe.uncaused, 0, "{:?}", scheme);
        }
    }
}

/// A generated plan spares one GPU from permanent loss, which does not
/// keep a gang scheme running: `harsh()` over 20,000 s on the testbed
/// loses most of its GPUs for good, and a 6-wide job arriving after the
/// losses can never be placed. Each gang baseline's run must end in the
/// typed `SimError::Deadlock` within a bounded time, not a panic or a
/// hang.
#[test]
fn a_generated_plan_leaving_too_few_gpus_is_a_typed_deadlock() {
    let horizon = SimDuration::from_secs(20_000);
    let plan = FaultProfile::harsh().generate(2, horizon, N_GPUS, 4);
    let lost = plan
        .gpu_faults
        .iter()
        .filter(|f| f.recover_after.is_none())
        .count();
    let wide = JobSpec::new(JobId(3), ModelKind::ResNet50, 2, 6).arriving_at(t(20_000));
    assert!(
        N_GPUS - lost < wide.sync_scale as usize,
        "the plan must leave fewer GPUs than the wide job needs ({lost} lost)"
    );
    let mut trace = testbed_trace(2);
    trace.truncate(3);
    trace.push(wide);
    let w = SimWorkload::build(Cluster::testbed15(), trace, &ProfileDb::with_noise(2, 0.0));
    for scheme in [
        Scheme::GavelFifo,
        Scheme::Srtf,
        Scheme::SchedHomo,
        Scheme::SchedAllox,
    ] {
        let (w, plan) = (w.clone(), plan.clone());
        let (tx, rx) = mpsc::channel();
        let worker = thread::spawn(move || {
            let _ = tx.send(run_one(&w, &plan, scheme));
        });
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{scheme:?}: no result within 60 s"));
        worker.join().expect("the run must not panic");
        assert!(
            matches!(result, Err(SimError::Deadlock { jobs_done, jobs: 4, .. }) if jobs_done < 4),
            "{scheme:?}: {result:?}"
        );
    }
}
