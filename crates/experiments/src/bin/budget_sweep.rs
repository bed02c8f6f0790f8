//! Extension experiment: degraded-solver sweep — weighted JCT vs replan
//! budget for online Hare's anytime ladder.
//!
//! Online Hare's replanner runs a graceful-degradation ladder (exact →
//! relaxation → stale-plan repair → greedy) under a [`SolveBudget`]. This
//! sweep caps the budget across five orders of magnitude and reports, per
//! rung, how often it produced the installed plan, plus the wJCT cost of
//! shrinking the solver's allowance. The unbudgeted row is the legacy
//! always-exact-relaxation replanner and serves as the baseline.
//!
//! Supports `--small` (12 jobs) and `--journal PATH` for crash-consistent
//! resume, like the fault sweep.

use hare_baselines::{HareOnline, ReplanBudget};
use hare_cluster::Cluster;
use hare_core::AnytimeOptions;
use hare_experiments::{journaled_cells, paper_line, parse_args, testbed_workload, Journal, Table};
use hare_sim::{SimWorkload, Simulation};
use hare_solver::SolveBudget;
use hare_workload::{ProfileDb, TraceConfig};

fn build_workload(seed: u64, small: bool) -> SimWorkload {
    if small {
        let db = ProfileDb::new(seed);
        let trace = TraceConfig {
            n_jobs: 12,
            seed,
            ..TraceConfig::default()
        }
        .generate();
        SimWorkload::build(Cluster::testbed15(), trace, &db)
    } else {
        testbed_workload(seed)
    }
}

/// Simulate one budget rung; returns (wJCT, `|`-separated display cells:
/// replans, per-rung hits, total simulated solver latency).
fn run_cell(w: &SimWorkload, seed: u64, budget: Option<SolveBudget>) -> (f64, String) {
    let mut policy = match budget {
        Some(b) => HareOnline::with_budget(ReplanBudget {
            budget: b,
            options: AnytimeOptions {
                // Let small early bursts use the exact rung when the node
                // budget allows, so all four rungs are exercised.
                exact_task_limit: 9,
                ..AnytimeOptions::default()
            },
        }),
        None => HareOnline::new(),
    };
    let report = Simulation::new(w)
        .with_seed(seed)
        .run(&mut policy)
        .expect("simulation");
    let hits = policy.rung_hits();
    let note = format!(
        "{}|{}|{}|{}|{}|{:.2}",
        policy.replans(),
        hits[0].1,
        hits[1].1,
        hits[2].1,
        hits[3].1,
        policy.solver_latency().as_secs_f64(),
    );
    (report.weighted_jct, note)
}

fn main() {
    let (seeds, _csv, extra) = parse_args();
    let seed = seeds[0];
    let small = extra.iter().any(|a| a == "--small");
    let w = build_workload(seed, small);

    // Budget ladder: pivot cap (LP) and node cap (B&B) shrink together.
    let ladder: [(&str, Option<SolveBudget>); 7] = [
        ("unbudgeted", None),
        ("200k (default)", Some(ReplanBudget::default().budget)),
        ("100k", Some(SolveBudget::capped(100_000, 50_000))),
        ("10k", Some(SolveBudget::capped(10_000, 5_000))),
        ("1k", Some(SolveBudget::capped(1_000, 500))),
        ("100", Some(SolveBudget::capped(100, 50))),
        ("0", Some(SolveBudget::capped(0, 0))),
    ];

    let mut table = Table::new(&[
        "solve budget",
        "weighted JCT",
        "vs unbudgeted",
        "replans",
        "exact",
        "relaxation",
        "stale-plan",
        "greedy",
        "solver latency (s)",
    ]);
    // The ladder's rungs are independent simulations: run them on the
    // shared pool, journaling each finished cell. Results come back in
    // ladder order, so the table below is unchanged.
    let results = journaled_cells(
        &extra,
        &ladder,
        |&(label, _)| Journal::key("budget_sweep", label, seed),
        |&(_, budget)| run_cell(&w, seed, budget),
    );

    let base = results[0].0;
    for ((label, _), (wjct, note)) in ladder.iter().zip(&results) {
        let mut row = vec![
            label.to_string(),
            format!("{wjct:.0}"),
            format!("{:.2}x", wjct / base),
        ];
        row.extend(note.split('|').map(String::from));
        table.row(row);
    }
    table.print(&format!(
        "Extension — wJCT vs solve budget, online Hare anytime ladder ({} jobs, seed {seed})",
        w.problem.jobs.len()
    ));

    // Headlines. The default budget should cost at most a little — and
    // often *wins*: the ladder's best-of selection installs whichever
    // rung's plan has the lower planned objective, so when the greedy
    // Smith order beats the relaxation midpoints on a sub-problem the
    // budgeted replanner takes the better plan, where the legacy path
    // always takes the relaxation.
    let default_ratio = results[1].0 / base;
    paper_line(
        "anytime ladder at the default budget",
        "(extension; best-of selection may beat always-relaxation)",
        &format!("{default_ratio:.2}x vs unbudgeted"),
        default_ratio < 1.2,
    );
    // Zero budget is the floor of the ladder: only stale-plan repair and
    // the greedy rung remain, yet every plan must still materialize.
    let floor = results.last().expect("ladder is non-empty");
    paper_line(
        "zero-budget floor still schedules",
        "(graceful degradation: greedy/stale rungs only)",
        &format!("{:.2}x vs unbudgeted", floor.0 / base),
        floor.0.is_finite(),
    );
}
