//! Solver benchmarks: simplex LPs, Hungarian matching, the Hare_Sched_RL
//! relaxation in both modes, and the exact branch-and-bound certifier.

#![warn(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hare_solver::{
    fig1_instance, min_cost_matching, relax, solve_exact, Cmp, InstanceBuilder, LinearProgram,
    RelaxOptions,
};
use std::hint::black_box;

fn simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/simplex");
    for n in [10usize, 40] {
        // Covering LP: minimize sum(x) s.t. band constraints.
        let mut lp = LinearProgram::minimize(vec![1.0; n]);
        for i in 0..n {
            let j = (i + 1) % n;
            lp.constrain(vec![(i, 1.0), (j, 2.0)], Cmp::Ge, 3.0 + (i % 5) as f64);
        }
        group.bench_with_input(BenchmarkId::new("revised", n), &lp, |b, lp| {
            b.iter(|| black_box(lp.solve()));
        });
    }
    group.finish();
}

fn hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/hungarian");
    for n in [20usize, 80, 200] {
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| (((i * 31 + j * 17) % 97) as f64) + 1.0)
                    .collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &cost, |b, cost| {
            b.iter(|| black_box(min_cost_matching(cost)));
        });
    }
    group.finish();
}

fn relaxation(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/relaxation");
    group.sample_size(10);
    // LP mode on the toy instance.
    let toy = fig1_instance();
    group.bench_function("lp_mode/fig1", |b| {
        b.iter(|| black_box(relax::solve(&toy, &RelaxOptions::default())));
    });
    // The warm-started cut loop on a contended instance where the
    // Queyranne separation fires every round.
    let mut contended = InstanceBuilder::new(2);
    for j in 0..36 {
        let job = contended.job(1.0 + (j % 4) as f64, 0.0);
        contended.round(job, &[vec![1.0 + (j % 3) as f64 * 0.5, 2.0]]);
    }
    let contended = contended.build();
    group.bench_function("cut_loop/warm", |b| {
        b.iter(|| black_box(relax::solve(&contended, &RelaxOptions::default())));
    });
    // Combinatorial mode on a synthetic 4000-task instance.
    let mut builder = InstanceBuilder::new(16);
    for j in 0..200 {
        let job = builder.job(1.0 + (j % 5) as f64, j as f64);
        for _ in 0..10 {
            let p: Vec<f64> = (0..16).map(|m| 1.0 + ((j + m) % 7) as f64).collect();
            builder.round(job, &[p.clone(), p]);
        }
    }
    let large = builder.build();
    group.bench_function("combinatorial/4000tasks", |b| {
        let opts = RelaxOptions {
            lp_task_limit: 0,
            ..RelaxOptions::default()
        };
        b.iter(|| black_box(relax::solve(&large, &opts)));
    });
    group.finish();
}

fn branch_and_bound(c: &mut Criterion) {
    c.bench_function("solver/bb/fig1", |b| {
        let inst = fig1_instance();
        b.iter(|| black_box(solve_exact(&inst)));
    });
}

criterion_group!(benches, simplex, hungarian, relaxation, branch_and_bound);
criterion_main!(benches);
