//! `batch_plan`: the paper's offline setting at the datacenter cell
//! shape. A seeded arrival stream on a high-heterogeneity cluster is
//! routed by the gateway into 64-GPU cells; each cell builds its
//! workload, plans with Algorithm 1 and replays the plan through the
//! engine.

use crate::spans::Ctx;
use crate::workload::{derive_seed, PassOut, Workload};
use crate::wrap::TimedPolicy;
use hare_baselines::{build_simulation, RunOptions, Scheme};
use hare_cluster::{Cluster, Heterogeneity, SimTime};
use hare_core::{HareScheduler, SyncMode};
use hare_sim::{FaultPlan, GatewayConfig, OfflineReplay, ShardedTrace, SimWorkload};
use hare_solver::relax::{self, RelaxOptions};
use hare_solver::{certified_lower_bound, SolveTrace};
use hare_workload::{JobSpec, OpenArrivalConfig, ProfileDb, StreamedTrace};

/// Independent regions per pass, each its own cluster, arrival stream
/// and gateway; more regions average out how unevenly one gateway fills
/// its cells.
const REGIONS: u64 = 12;
/// GPUs per region (cells of 64).
const GPUS: u32 = 128;
/// Cells the gateway routes into.
const CELLS: usize = 2;
/// Jobs in each region's arrival stream.
const JOBS: u64 = 256;

pub struct BatchPlan {
    cluster: Cluster,
    streams: Vec<Vec<JobSpec>>,
    db: ProfileDb,
    sim_seed: u64,
}

/// The first `n_jobs` arrivals of a seeded stream calibrated to `cluster`.
pub fn arrival_specs(cluster: &Cluster, n_jobs: u64, seed: u64) -> Vec<JobSpec> {
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    let arrivals = OpenArrivalConfig {
        seed,
        ..OpenArrivalConfig::default()
    }
    .calibrated(&counts);
    StreamedTrace::new(&arrivals, n_jobs)
        .map(|a| a.spec)
        .collect()
}

/// Jobs of `specs` that a merged report does not show finished after
/// their arrival (all of them if the report covers other jobs).
pub fn unfinished(completion: &[SimTime], specs: &[JobSpec]) -> usize {
    if completion.len() != specs.len() {
        return specs.len();
    }
    completion
        .iter()
        .zip(specs)
        .filter(|(c, s)| **c < s.arrival || c.as_secs_f64() <= 0.0)
        .count()
}

impl BatchPlan {
    pub fn setup(seed: u64) -> BatchPlan {
        let cluster = Cluster::with_heterogeneity(Heterogeneity::High, GPUS);
        let streams = (0..REGIONS)
            .map(|r| arrival_specs(&cluster, JOBS, derive_seed(seed, 100 + r)))
            .collect();
        BatchPlan {
            cluster,
            streams,
            db: ProfileDb::new(derive_seed(seed, 2)),
            sim_seed: derive_seed(seed, 3),
        }
    }
}

impl Workload for BatchPlan {
    fn pass(&mut self, ctx: &Ctx, check: bool) -> PassOut {
        let mut out = PassOut::default();
        // Solver work units are a deterministic counter, kept in every
        // pass; recording them costs a few span pushes per solve.
        let solve_trace = SolveTrace::new();
        let opts = RunOptions {
            seed: self.sim_seed,
            ..RunOptions::default()
        };
        let (mut jct_sum, mut makespan_sum, mut switch_secs) = (0.0, 0.0, 0.0);
        let (mut switches, mut hits, mut max_cell) = (0u64, 0u64, 0u64);
        for (region, specs) in self.streams.iter().enumerate() {
            let sharded = ctx.span("shard.route", || {
                ShardedTrace::route(
                    &self.cluster,
                    CELLS,
                    &GatewayConfig::default(),
                    specs.iter().cloned(),
                )
            });
            let mut failures = Vec::new();
            let merged = ctx.span("shard.run_with", || {
                sharded.run_with(|ci, cell, specs| {
                    ctx.span("shard.cell", || {
                        let w = ctx.span("workload.build", || {
                            SimWorkload::build(cell.cluster().clone(), specs.to_vec(), &self.db)
                        });
                        let plan = ctx.span("core.schedule", || {
                            HareScheduler::default().schedule_traced(&w.problem, Some(&solve_trace))
                        });
                        if ctx.traced() {
                            let inst = ctx.exclude(|| w.problem.to_instance());
                            ctx.probe("solver.relax", || {
                                relax::solve_traced(&inst, &RelaxOptions::default(), None)
                            });
                            ctx.probe("solver.lower_bound", || certified_lower_bound(&inst));
                        }
                        if check {
                            ctx.exclude(|| {
                                let at = format!("region {region} cell {ci}");
                                if let Err(e) =
                                    plan.schedule.validate(&w.problem, SyncMode::Relaxed)
                                {
                                    failures.push(format!("{at}: invalid schedule: {e}"));
                                }
                                let wc = plan.schedule.weighted_completion(&w.problem);
                                if wc.is_nan() || wc < plan.lower_bound {
                                    failures.push(format!(
                                        "{at}: weighted completion {wc} below lower bound {}",
                                        plan.lower_bound
                                    ));
                                }
                            });
                        }
                        let mut replay = ctx.span("sim.replay_new", || {
                            OfflineReplay::new("Hare", &w, &plan.schedule)
                        });
                        let sim = build_simulation(Scheme::Hare, &w, opts, &FaultPlan::default());
                        ctx.span("sim.run", || {
                            if ctx.traced() {
                                let mut timed = TimedPolicy::new(&mut replay);
                                let r = sim.run_counted(&mut timed);
                                ctx.rollup("dispatch.Hare", timed.secs, timed.calls);
                                r
                            } else {
                                sim.run_counted(&mut replay)
                            }
                        })
                    })
                })
            });
            out.failures.append(&mut failures);
            let merged = match merged {
                Ok(m) => m,
                Err(e) => {
                    out.failures
                        .push(format!("region {region}: sharded run failed: {e}"));
                    continue;
                }
            };
            let rep = &merged.report;
            if check {
                ctx.exclude(|| match unfinished(&rep.completion, specs) {
                    0 => {}
                    n => out.failures.push(format!(
                        "region {region}: {n} jobs never completed in the merged report"
                    )),
                });
            }
            out.offered += specs.len() as u64;
            out.completed += rep.completion.len() as u64;
            out.events += merged.events_total;
            jct_sum += rep.mean_jct();
            makespan_sum += rep.makespan.as_secs_f64();
            switch_secs += rep.total_switching().as_secs_f64();
            let (s, h) = rep.switch_stats();
            switches += s as u64;
            hits += h as u64;
            let cell_max = merged.cells.iter().map(|c| c.jobs).max().unwrap_or(0);
            max_cell = max_cell.max(cell_max as u64);
        }
        let regions = self.streams.len() as f64;
        out.mean_jct_s = jct_sum / regions;
        out.makespan_s = makespan_sum / regions;
        out.count("sim.events", out.events);
        out.count("jobs.completed", out.completed);
        out.count("shard.max_cell_jobs", max_cell);
        out.count("memory.switches", switches);
        out.count("memory.cache_hits", hits);
        out.count_f64("quality.mean_jct_s", out.mean_jct_s);
        out.count_f64("quality.makespan_s", out.makespan_s);
        out.count("solver.work_units", solve_trace.cursor());
        out.layer.insert(
            "shard.max_cell_jobs_frac".into(),
            max_cell as f64 / JOBS as f64,
        );
        out.layer.insert("memory.switch_sim_s".into(), switch_secs);
        out
    }
}
