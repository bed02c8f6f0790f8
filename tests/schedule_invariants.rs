//! Property-based tests (proptest) on the scheduler and schedule
//! validator: every generated problem must yield a feasible, deterministic
//! Algorithm-1 schedule whose metrics are internally consistent.

use hare::core::{
    hare_schedule, AssignmentRule, HareScheduler, JobInfo, PriorityOrder, SchedProblem, Schedule,
    SyncMode,
};
use hare_cluster::{SimDuration, SimTime};
use proptest::prelude::*;

/// Strategy: a problem with 1–3 GPUs and 1–4 jobs of 1–3 rounds x 1–3 tasks.
fn problems() -> impl Strategy<Value = SchedProblem> {
    let job = (
        1u32..=3,                                // rounds
        1u32..=3,                                // sync_scale
        1u32..=5,                                // weight
        0u64..5_000,                             // arrival ms
        prop::collection::vec(200u64..5_000, 3), // train ms per gpu (first n used)
        0u64..=100,                              // sync ms (bounded below min train)
    );
    (1usize..=3, prop::collection::vec(job, 1..=4)).prop_map(|(n_gpus, jobs)| {
        let jobs = jobs
            .into_iter()
            .map(|(rounds, scale, weight, arrival, train_ms, sync_ms)| {
                let train: Vec<SimDuration> = train_ms[..n_gpus]
                    .iter()
                    .map(|&ms| SimDuration::from_millis(ms))
                    .collect();
                let min_train = train.iter().min().unwrap().as_micros() / 1000;
                let sync = vec![SimDuration::from_millis(sync_ms.min(min_train)); n_gpus];
                JobInfo {
                    weight: weight as f64,
                    arrival: SimTime::from_millis(arrival),
                    rounds,
                    sync_scale: scale,
                    train,
                    sync,
                }
            })
            .collect();
        SchedProblem::new(n_gpus, jobs)
    })
}

/// Job completions by scanning every task for each job: the reference for
/// the one-pass `Schedule::job_completions`.
fn per_job_scan(s: &Schedule, p: &SchedProblem) -> Vec<SimTime> {
    (0..p.jobs.len())
        .map(|n| {
            (0..p.n_tasks())
                .filter(|&i| p.tasks[i].job == n)
                .map(|i| s.start[i] + p.train(i, s.gpu[i]) + p.sync(i, s.gpu[i]))
                .max()
                .unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn job_completions_match_the_per_job_scan(p in problems()) {
        for order in [PriorityOrder::Midpoint, PriorityOrder::Arrival] {
            let s = HareScheduler { order, ..HareScheduler::default() }.schedule(&p).schedule;
            let scan = per_job_scan(&s, &p);
            prop_assert_eq!(&s.job_completions(&p), &scan);
            let weighted: f64 = p.jobs.iter().zip(&scan)
                .map(|(job, c)| job.weight * c.as_secs_f64())
                .sum();
            prop_assert_eq!(s.weighted_completion(&p).to_bits(), weighted.to_bits());
            let jcts: Vec<SimDuration> = p.jobs.iter().zip(&scan)
                .map(|(job, c)| c.saturating_since(job.arrival))
                .collect();
            prop_assert_eq!(&s.jcts(&p), &jcts);
            let weighted_jct: f64 = p.jobs.iter().zip(&jcts)
                .map(|(job, jct)| job.weight * jct.as_secs_f64())
                .sum();
            prop_assert_eq!(s.weighted_jct(&p).to_bits(), weighted_jct.to_bits());
            prop_assert_eq!(s.makespan(&p), scan.into_iter().max().unwrap());
        }
    }

    #[test]
    fn algorithm1_always_emits_feasible_schedules(p in problems()) {
        let out = hare_schedule(&p);
        prop_assert!(out.schedule.validate(&p, SyncMode::Relaxed).is_ok());
        prop_assert_eq!(out.pi.len(), p.n_tasks());
    }

    #[test]
    fn every_variant_is_feasible(p in problems()) {
        for order in [PriorityOrder::Midpoint, PriorityOrder::Arrival, PriorityOrder::Smith] {
            for assignment in [AssignmentRule::EarliestAvailable, AssignmentRule::EarliestFinish] {
                let s = HareScheduler { order, assignment, ..HareScheduler::default() };
                let out = s.schedule(&p);
                prop_assert!(
                    out.schedule.validate(&p, SyncMode::Relaxed).is_ok(),
                    "{:?}/{:?}", order, assignment
                );
            }
        }
    }

    #[test]
    fn scheduling_is_deterministic(p in problems()) {
        let a = hare_schedule(&p);
        let b = hare_schedule(&p);
        prop_assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn objective_dominates_lower_bound_and_makespan_sane(p in problems()) {
        let out = hare_schedule(&p);
        let obj = out.schedule.weighted_completion(&p);
        prop_assert!(obj + 1e-9 >= out.lower_bound,
            "objective {} below certified bound {}", obj, out.lower_bound);
        // Makespan >= every job completion; weighted completion >= weighted jct.
        let makespan = out.schedule.makespan(&p);
        for c in out.schedule.job_completions(&p) {
            prop_assert!(c <= makespan);
        }
        prop_assert!(out.schedule.weighted_jct(&p) <= obj + 1e-9);
    }

    #[test]
    fn gpu_busy_time_never_exceeds_makespan(p in problems()) {
        let out = hare_schedule(&p);
        let makespan = out.schedule.makespan(&p);
        for busy in out.schedule.busy_time(&p) {
            prop_assert!(busy.as_micros() <= makespan.as_micros());
        }
        for util in out.schedule.utilization(&p) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&util));
        }
    }

    #[test]
    fn perturbing_weights_never_breaks_feasibility(p in problems(), scale in 1u32..10) {
        let mut p2 = p.clone();
        for job in &mut p2.jobs {
            job.weight *= scale as f64;
        }
        let out = hare_schedule(&p2);
        prop_assert!(out.schedule.validate(&p2, SyncMode::Relaxed).is_ok());
    }
}
