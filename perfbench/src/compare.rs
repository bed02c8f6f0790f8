//! `sim_compare`: the four comparison baselines over routed,
//! cell-partitioned traces with a shallow queue (about two jobs per
//! GPU). The engine and policy dispatch do all the work; the relaxation
//! solver does none.

use crate::batch::{arrival_specs, unfinished};
use crate::spans::Ctx;
use crate::workload::{derive_seed, PassOut, Workload};
use crate::wrap::TimedPolicy;
use hare_baselines::{
    build_simulation, GavelFifo, RunOptions, SchedAllox, SchedHomo, Scheme, Srtf,
};
use hare_cluster::{Cluster, Heterogeneity};
use hare_sim::{FaultPlan, GatewayConfig, Policy, ShardedTrace, SimWorkload};
use hare_workload::{JobSpec, ProfileDb};

/// Independent regions per pass (see `batch_plan`).
const REGIONS: u64 = 16;
/// GPUs per region (cells of 64).
const GPUS: u32 = 128;
/// Cells the gateway routes into.
const CELLS: usize = 2;
/// Jobs in each region's arrival stream: two per GPU.
const JOBS: u64 = 256;

/// The compared schemes, in the paper's plotting order.
const BASELINES: [Scheme; 4] = [
    Scheme::GavelFifo,
    Scheme::Srtf,
    Scheme::SchedHomo,
    Scheme::SchedAllox,
];

fn policy(scheme: Scheme) -> Box<dyn Policy> {
    match scheme {
        Scheme::GavelFifo => Box::new(GavelFifo::new()),
        Scheme::Srtf => Box::new(Srtf::new()),
        Scheme::SchedHomo => Box::new(SchedHomo::new()),
        Scheme::SchedAllox => Box::new(SchedAllox::new()),
        Scheme::Hare => unreachable!("Hare is the batch_plan workload"),
    }
}

pub struct SimCompare {
    cluster: Cluster,
    streams: Vec<Vec<JobSpec>>,
    db: ProfileDb,
    sim_seed: u64,
}

impl SimCompare {
    pub fn setup(seed: u64) -> SimCompare {
        let cluster = Cluster::with_heterogeneity(Heterogeneity::High, GPUS);
        let streams = (0..REGIONS)
            .map(|r| arrival_specs(&cluster, JOBS, derive_seed(seed, 200 + r)))
            .collect();
        SimCompare {
            cluster,
            streams,
            db: ProfileDb::new(derive_seed(seed, 12)),
            sim_seed: derive_seed(seed, 13),
        }
    }
}

impl Workload for SimCompare {
    fn pass(&mut self, ctx: &Ctx, check: bool) -> PassOut {
        let mut out = PassOut::default();
        let opts = RunOptions {
            seed: self.sim_seed,
            ..RunOptions::default()
        };
        let (mut jct_sum, mut makespan_sum, mut switch_secs) = (0.0, 0.0, 0.0);
        let mut runs = 0.0;
        let mut max_cell = 0u64;
        for (region, specs) in self.streams.iter().enumerate() {
            let sharded = ctx.span("shard.route", || {
                ShardedTrace::route(
                    &self.cluster,
                    CELLS,
                    &GatewayConfig::default(),
                    specs.iter().cloned(),
                )
            });
            let cell_max = sharded.cell_specs().iter().map(Vec::len).max().unwrap_or(0);
            max_cell = max_cell.max(cell_max as u64);
            for scheme in BASELINES {
                let name = scheme.name();
                let merged = ctx.span("shard.run_with", || {
                    sharded.run_with(|_ci, cell, specs| {
                        ctx.span("shard.cell", || {
                            let w = ctx.span("workload.build", || {
                                SimWorkload::build(cell.cluster().clone(), specs.to_vec(), &self.db)
                            });
                            let sim = build_simulation(scheme, &w, opts, &FaultPlan::default());
                            let mut p = policy(scheme);
                            ctx.span("sim.run", || {
                                if ctx.traced() {
                                    let mut timed = TimedPolicy::new(p.as_mut());
                                    let r = sim.run_counted(&mut timed);
                                    ctx.rollup(
                                        &format!("dispatch.{name}"),
                                        timed.secs,
                                        timed.calls,
                                    );
                                    r
                                } else {
                                    sim.run_counted(p.as_mut())
                                }
                            })
                        })
                    })
                });
                let merged = match merged {
                    Ok(m) => m,
                    Err(e) => {
                        out.failures
                            .push(format!("region {region} {name}: sharded run failed: {e}"));
                        continue;
                    }
                };
                let rep = &merged.report;
                if check {
                    ctx.exclude(|| match unfinished(&rep.completion, specs) {
                        0 => {}
                        n => out
                            .failures
                            .push(format!("region {region} {name}: {n} jobs never completed")),
                    });
                }
                out.offered += specs.len() as u64;
                out.completed += rep.completion.len() as u64;
                out.events += merged.events_total;
                jct_sum += rep.mean_jct();
                makespan_sum += rep.makespan.as_secs_f64();
                switch_secs += rep.total_switching().as_secs_f64();
                runs += 1.0;
                let (switches, _) = rep.switch_stats();
                *out.counts.entry(format!("sim.events.{name}")).or_insert(0) += merged.events_total;
                *out.counts.entry("memory.switches".into()).or_insert(0) += switches as u64;
            }
        }
        out.mean_jct_s = jct_sum / runs;
        out.makespan_s = makespan_sum / runs;
        out.count("sim.events", out.events);
        out.count("jobs.completed", out.completed);
        out.count("shard.max_cell_jobs", max_cell);
        out.count_f64("quality.mean_jct_s", out.mean_jct_s);
        out.count_f64("quality.makespan_s", out.makespan_s);
        out.layer.insert(
            "shard.max_cell_jobs_frac".into(),
            max_cell as f64 / JOBS as f64,
        );
        out.layer.insert("memory.switch_sim_s".into(), switch_secs);
        out
    }
}
