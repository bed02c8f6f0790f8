//! Solver performance report: writes `BENCH_solver.json` at the repo root.
//!
//! Records, for a ladder of relaxation programs, the median revised-simplex
//! solve time; for the warm-started Queyranne cut loop, its cut, solve and
//! pivot counts and median time; and for the exact branch-and-bound, node
//! counts and times on the Fig. 1 instance and a 14-task symmetric
//! instance.
//!
//! Run with `cargo run --release -p hare-bench --bin solver_report`.

#![warn(clippy::unwrap_used)]

use hare_solver::{
    fig1_instance, relax, solve_exact, Instance, InstanceBuilder, LpOutcome, RelaxOptions,
};
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 9;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall-clock milliseconds of `f` over [`REPS`] runs.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(samples)
}

/// A relaxation-shaped instance: `jobs` jobs × `rounds` rounds × `width`
/// tasks per round on `machines` machines, heterogeneous speeds.
fn instance(jobs: usize, rounds: usize, width: usize, machines: usize) -> Instance {
    let mut b = InstanceBuilder::new(machines);
    for j in 0..jobs {
        let job = b.job(1.0 + (j % 3) as f64, 0.25 * j as f64);
        for r in 0..rounds {
            let tasks: Vec<Vec<f64>> = (0..width)
                .map(|w| {
                    (0..machines)
                        .map(|m| 1.0 + ((j + r + w + m) % 5) as f64 * 0.75)
                        .collect()
                })
                .collect();
            b.round(job, &tasks);
        }
    }
    b.build()
}

fn obj(outcome: LpOutcome) -> f64 {
    match outcome {
        LpOutcome::Optimal { objective, .. } => objective,
        other => panic!("expected optimal, got {other:?}"),
    }
}

fn main() {
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p hare-bench --bin solver_report\",\n  \"reps_per_median\": {REPS},"
    );

    // --- Revised simplex on relaxation programs ----------------------
    println!("LP ladder (revised simplex):");
    json.push_str("  \"lp\": [\n");
    let ladder = [
        ("small_30_tasks", instance(10, 3, 1, 3)),
        ("medium_72_tasks", instance(12, 3, 2, 4)),
        ("large_120_tasks", instance(30, 2, 2, 4)),
    ];
    let n_cases = ladder.len();
    for (k, (name, inst)) in ladder.into_iter().enumerate() {
        let lp = relax::base_program(&inst);
        let revised_ms = time_ms(|| lp.solve());
        let objective = obj(lp.solve());
        println!(
            "  {name:<16} vars={:<4} rows={:<4} revised {revised_ms:.3} ms (objective {objective:.4})",
            lp.objective.len(),
            lp.constraints.len(),
        );
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"n_vars\": {}, \"n_rows\": {}, \"revised_median_ms\": {revised_ms:.4}}}{}",
            lp.objective.len(),
            lp.constraints.len(),
            if k + 1 < n_cases { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // --- Warm-started cut loop ---------------------------------------
    // A contended instance (many jobs, few machines) so separation finds
    // cuts every round.
    let mut b = InstanceBuilder::new(2);
    for j in 0..36 {
        let job = b.job(1.0 + (j % 4) as f64, 0.0);
        b.round(job, &[vec![1.0 + (j % 3) as f64 * 0.5, 2.0]]);
    }
    let contended = b.build();
    let opts = RelaxOptions::default();
    let warm = relax::solve(&contended, &opts);
    let warm_ms = time_ms(|| relax::solve(&contended, &opts));
    println!(
        "cut loop: {} cuts, {} LP solves, {} pivots / {warm_ms:.3} ms",
        warm.stats.cuts, warm.stats.lp_solves, warm.stats.revised_pivots
    );
    let _ = writeln!(
        json,
        "  \"cut_loop\": {{\"instance\": \"contended_36_tasks\", \"cuts\": {}, \"lp_solves\": {}, \"warm_revised_pivots\": {}, \"warm_median_ms\": {warm_ms:.4}}},",
        warm.stats.cuts, warm.stats.lp_solves, warm.stats.revised_pivots
    );

    // --- Branch and bound --------------------------------------------
    println!("branch-and-bound:");
    json.push_str("  \"bb\": [\n");
    let mut sym = InstanceBuilder::new(2);
    let j1 = sym.job(2.0, 0.0);
    let j2 = sym.job(1.0, 0.0);
    for _ in 0..7 {
        sym.round(j1, &[vec![1.0, 1.0]]);
        sym.round(j2, &[vec![1.5, 1.5]]);
    }
    let bb_cases = [
        ("fig1_9_tasks", fig1_instance()),
        ("symmetric_14_tasks", sym.build()),
    ];
    let n_bb = bb_cases.len();
    for (k, (name, inst)) in bb_cases.into_iter().enumerate() {
        let sol = solve_exact(&inst);
        let ms = time_ms(|| solve_exact(&inst));
        println!("  {name:<20} nodes={:<8} {ms:.3} ms", sol.nodes);
        let _ = writeln!(
            json,
            "    {{\"instance\": \"{name}\", \"n_tasks\": {}, \"nodes\": {}, \"objective\": {:.4}, \"median_ms\": {ms:.4}}}{}",
            inst.n_tasks(),
            sol.nodes,
            sol.objective,
            if k + 1 < n_bb { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    hare_experiments::write_record("BENCH_solver.json", &json, false);
}
