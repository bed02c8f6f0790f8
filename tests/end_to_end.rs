//! Cross-crate integration tests: trace generation → profiling →
//! scheduling → discrete-event execution → metrics, across all five
//! schemes.

use hare::baselines::{run_all, run_scheme, RunOptions, Scheme};
use hare::cluster::{Cluster, Heterogeneity};
use hare::core::{HareScheduler, SyncMode};
use hare::sim::{planned_report, OfflineReplay, SimWorkload, Simulation};
use hare::workload::{DomainMix, ProfileDb, TraceConfig};

fn workload(n_jobs: u32, seed: u64) -> SimWorkload {
    let db = ProfileDb::new(seed);
    let trace = TraceConfig {
        n_jobs,
        seed,
        ..TraceConfig::default()
    }
    .generate();
    SimWorkload::build(Cluster::testbed15(), trace, &db)
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let w = workload(14, 5);
        run_all(
            &w,
            RunOptions {
                seed: 5,
                ..RunOptions::default()
            },
        )
        .into_iter()
        .map(|r| r.weighted_completion)
        .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn every_scheme_completes_every_job_and_respects_arrivals() {
    let w = workload(18, 9);
    for report in run_all(&w, RunOptions::default()) {
        assert_eq!(report.completion.len(), 18, "{}", report.scheme);
        for (n, c) in report.completion.iter().enumerate() {
            assert!(
                *c > w.problem.jobs[n].arrival,
                "{}: job {n} completed before arriving",
                report.scheme
            );
        }
        assert!(report.makespan >= *report.completion.iter().max().unwrap());
    }
}

#[test]
fn hare_beats_every_baseline_on_the_testbed_workload() {
    let w = workload(30, 2);
    let reports = run_all(&w, RunOptions::default());
    let hare = reports[0].weighted_jct;
    for r in &reports[1..] {
        assert!(
            hare < r.weighted_jct,
            "Hare ({hare:.0}) lost to {} ({:.0})",
            r.scheme,
            r.weighted_jct
        );
    }
}

#[test]
fn hare_schedule_validates_and_replays_within_tolerance() {
    let w = workload(12, 11);
    let out = HareScheduler::default().schedule(&w.problem);
    out.schedule
        .validate(&w.problem, SyncMode::Relaxed)
        .expect("Algorithm 1 must emit a feasible schedule");

    let planned = planned_report(&w, &out.schedule, "plan");
    let mut replay = OfflineReplay::new("Hare", &w, &out.schedule);
    let simulated = Simulation::new(&w)
        .with_noise(0.0)
        .run(&mut replay)
        .expect("simulation");
    let gap = (simulated.weighted_completion - planned.weighted_completion).abs()
        / planned.weighted_completion;
    assert!(gap < 0.05, "plan-vs-execution gap {gap:.3} exceeds 5%");
}

#[test]
fn higher_heterogeneity_grows_hares_lead_over_oblivious_scheduling() {
    let run = |level: Heterogeneity| {
        let db = ProfileDb::new(21);
        let trace = TraceConfig {
            n_jobs: 30,
            mean_interarrival: hare::cluster::SimDuration::from_secs(5),
            seed: 21,
            ..TraceConfig::default()
        }
        .generate();
        let w = SimWorkload::build(Cluster::with_heterogeneity(level, 16), trace, &db);
        let hare = run_scheme(Scheme::Hare, &w, RunOptions::default()).weighted_jct;
        let homo = run_scheme(Scheme::SchedHomo, &w, RunOptions::default()).weighted_jct;
        homo / hare
    };
    let low = run(Heterogeneity::Low);
    let high = run(Heterogeneity::High);
    assert!(
        high > low,
        "heterogeneity should widen the gap: low {low:.2} high {high:.2}"
    );
}

#[test]
fn mix_shifts_total_load_as_in_fig17() {
    let run = |mix: DomainMix| {
        let db = ProfileDb::new(31);
        let trace = TraceConfig {
            n_jobs: 24,
            mix,
            seed: 31,
            ..TraceConfig::default()
        }
        .generate();
        let w = SimWorkload::build(Cluster::testbed15(), trace, &db);
        run_scheme(Scheme::Hare, &w, RunOptions::default()).weighted_jct
    };
    let nlp_heavy = run(DomainMix::emphasising(hare::workload::Domain::Nlp, 0.7));
    let rec_heavy = run(DomainMix::emphasising(hare::workload::Domain::Rec, 0.7));
    assert!(
        nlp_heavy > rec_heavy,
        "NLP-heavy ({nlp_heavy:.0}) must exceed Rec-heavy ({rec_heavy:.0})"
    );
}

#[test]
fn extension_policies_complete_and_rank_sensibly() {
    use hare::baselines::{HareOnline, TimeSlice};
    let w = workload(16, 23);
    let online = Simulation::new(&w)
        .run(&mut HareOnline::new())
        .expect("simulation");
    let slice = Simulation::new(&w)
        .run(&mut TimeSlice::new())
        .expect("simulation");
    let fifo = run_scheme(Scheme::GavelFifo, &w, RunOptions::default());
    assert_eq!(online.completion.len(), 16);
    assert_eq!(slice.completion.len(), 16);
    // Online Hare should beat FIFO even without clairvoyance.
    assert!(online.weighted_jct < fifo.weighted_jct);
    // Time slicing under Hare's fast switching remains competitive.
    assert!(slice.weighted_jct < fifo.weighted_jct * 2.0);
}

#[test]
fn allreduce_cluster_runs_end_to_end() {
    use hare::cluster::{NetworkModel, SyncScheme};
    let db = ProfileDb::new(3);
    let trace = TraceConfig {
        n_jobs: 10,
        seed: 3,
        ..TraceConfig::default()
    }
    .generate();
    let cluster = Cluster::testbed15()
        .with_network(NetworkModel::default().with_scheme(SyncScheme::RingAllReduce));
    let w = SimWorkload::build(cluster, trace, &db);
    let report = run_scheme(Scheme::Hare, &w, RunOptions::default());
    assert_eq!(report.completion.len(), 10);
}

#[test]
fn switching_runtime_matters_under_preemptive_sharing() {
    use hare::memory::SwitchPolicy;
    let w = workload(10, 17);
    let out = HareScheduler::default().schedule(&w.problem);
    let run = |policy| {
        let mut replay = OfflineReplay::new("Hare", &w, &out.schedule);
        Simulation::new(&w)
            .with_noise(0.0)
            .with_switch_policy(policy)
            .run(&mut replay)
            .expect("simulation")
    };
    let hare = run(SwitchPolicy::Hare);
    let default = run(SwitchPolicy::Default);
    assert!(hare.weighted_completion < default.weighted_completion);
    assert!(hare.total_switching() < default.total_switching());
}
