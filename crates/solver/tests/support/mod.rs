//! Test support shared by the solver's integration tests: the dense
//! tableau oracle and the random-instance strategy. Each test binary uses
//! a different subset, so unused items are expected.

#![allow(dead_code)]

pub mod dense;

use hare_solver::{Instance, JobMeta, Row, TaskMeta};
use proptest::prelude::*;

/// Random relaxation-shaped instances: 1 to `max_machines` machines and 1
/// to `max_jobs` jobs, each with 1–3 rounds of 1–2 tasks, weight 1–5 and a
/// release in [0, 5), every task drawing its own machine times in
/// [0.5, 8.0).
pub fn instances(max_machines: usize, max_jobs: usize) -> impl Strategy<Value = Instance> {
    let job = (1u32..=3, 1usize..=2, 1u32..=5, 0.0f64..5.0);
    (
        1usize..=max_machines,
        prop::collection::vec(job, 1..=max_jobs),
    )
        .prop_flat_map(|(n_machines, jobs_meta)| {
            let total_tasks: usize = jobs_meta
                .iter()
                .map(|&(rounds, scale, _, _)| rounds as usize * scale)
                .sum();
            let times =
                prop::collection::vec(prop::collection::vec(0.5f64..8.0, n_machines), total_tasks);
            times.prop_map(move |times| {
                let mut tasks = Vec::new();
                let mut rows = Vec::new();
                let mut jobs = Vec::new();
                for (j, &(rounds, scale, weight, release)) in jobs_meta.iter().enumerate() {
                    jobs.push(JobMeta {
                        weight: weight as f64,
                        release,
                        rounds,
                    });
                    for r in 0..rounds {
                        for _ in 0..scale {
                            // Every task draws its own times, so gets its own row.
                            tasks.push(TaskMeta {
                                job: j,
                                round: r,
                                row: rows.len(),
                            });
                            rows.push(Row::new(times[rows.len()].clone(), vec![0.1; n_machines]));
                        }
                    }
                }
                Instance {
                    n_machines,
                    jobs,
                    rows,
                    tasks,
                }
            })
        })
}
