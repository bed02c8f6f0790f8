//! The five-scheme comparison suite used by every end-to-end experiment
//! (Figs. 12–19): Hare plus the four baselines of Section 7.1, each run
//! under its natural task-switching runtime.

use crate::{GavelFifo, SchedAllox, SchedHomo, Srtf};
use hare_core::HareScheduler;
use hare_memory::SwitchPolicy;
use hare_sim::{
    FaultPlan, OfflineReplay, ShardReport, ShardedTrace, SimReport, SimWorkload, Simulation,
};
use hare_workload::ProfileDb;
use serde::{Deserialize, Serialize};

/// The schemes compared throughout the evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Hare: Algorithm 1 + relaxed sync + fast switching.
    Hare,
    /// Gavel-style FIFO on fastest available GPUs.
    GavelFifo,
    /// Shortest remaining time first.
    Srtf,
    /// Zhang et al. \[47\]: parallelism-aware but heterogeneity-oblivious.
    SchedHomo,
    /// AlloX \[24\]: heterogeneity-aware min-cost matching, job-level.
    SchedAllox,
}

impl Scheme {
    /// All five, in the paper's plotting order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Hare,
        Scheme::GavelFifo,
        Scheme::Srtf,
        Scheme::SchedHomo,
        Scheme::SchedAllox,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Hare => "Hare",
            Scheme::GavelFifo => "Gavel_FIFO",
            Scheme::Srtf => "SRTF",
            Scheme::SchedHomo => "Sched_Homo",
            Scheme::SchedAllox => "Sched_Allox",
        }
    }

    /// The switching runtime each scheme ships with: Hare brings its own
    /// fast switching; the baselines run a PipeSwitch-grade runtime (they
    /// preempt rarely, so this flatters rather than hurts them).
    pub fn switch_policy(self) -> SwitchPolicy {
        match self {
            Scheme::Hare => SwitchPolicy::Hare,
            _ => SwitchPolicy::PipeSwitch,
        }
    }
}

/// Options for one suite run.
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct RunOptions {
    /// Realized-duration noise level.
    pub noise: f64,
    /// Noise seed.
    pub seed: u64,
    /// Record per-GPU utilization timelines.
    pub timelines: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            noise: 0.02,
            seed: 0,
            timelines: false,
        }
    }
}

/// Build the configured simulation for one scheme (shared by the healthy
/// and fault-injected entry points, so the two can never drift apart).
pub fn build_simulation<'a>(
    scheme: Scheme,
    workload: &'a SimWorkload,
    opts: RunOptions,
    plan: &FaultPlan,
) -> Simulation<'a> {
    let mut sim = Simulation::new(workload)
        .with_switch_policy(scheme.switch_policy())
        .with_noise(opts.noise)
        .with_seed(opts.seed);
    if opts.timelines {
        sim = sim.with_timelines();
    }
    if !plan.is_empty() {
        sim = sim.with_fault_plan(plan);
    }
    sim
}

/// Run one scheme on a workload.
pub fn run_scheme(scheme: Scheme, workload: &SimWorkload, opts: RunOptions) -> SimReport {
    run_scheme_faulted(scheme, workload, opts, &FaultPlan::default())
}

/// Run one scheme on a workload under a fault plan (the fault-sweep
/// experiment's entry point). Panics on a malformed plan — experiment
/// plans are authored, not user input.
pub fn run_scheme_faulted(
    scheme: Scheme,
    workload: &SimWorkload,
    opts: RunOptions,
    plan: &FaultPlan,
) -> SimReport {
    run_counted_with_plan(scheme, workload, opts, plan).0
}

/// Run one scheme's simulation and return the processed-event count along
/// with the report (the sharded merge and the bench binary both need the
/// denominator).
pub fn run_scheme_counted(
    scheme: Scheme,
    workload: &SimWorkload,
    opts: RunOptions,
) -> (SimReport, u64) {
    run_counted_with_plan(scheme, workload, opts, &FaultPlan::default())
}

/// The single dispatch point every entry above funnels through.
fn run_counted_with_plan(
    scheme: Scheme,
    workload: &SimWorkload,
    opts: RunOptions,
    plan: &FaultPlan,
) -> (SimReport, u64) {
    let sim = build_simulation(scheme, workload, opts, plan);
    match scheme {
        Scheme::Hare => {
            let out = HareScheduler::default().schedule(&workload.problem);
            let mut policy = OfflineReplay::new("Hare", workload, &out.schedule);
            sim.run_counted(&mut policy)
        }
        Scheme::GavelFifo => sim.run_counted(&mut GavelFifo::new()),
        Scheme::Srtf => sim.run_counted(&mut Srtf::new()),
        Scheme::SchedHomo => sim.run_counted(&mut SchedHomo::new()),
        Scheme::SchedAllox => sim.run_counted(&mut SchedAllox::new()),
    }
    .expect("simulation failed")
}

/// Run one scheme over a routed, cell-partitioned trace: each cell gets
/// its own preparation stage ([`SimWorkload::build`] over the cell's
/// cluster and routed jobs) and its own scheduler instance — Hare re-plans
/// within every cell it owns, exactly as in the unsharded path — and the
/// per-cell reports merge into one global report. With a 1-cell trace the
/// merged report is bit-identical to [`run_scheme`]'s. Workloads are
/// built and dropped one cell at a time, so peak memory stays one cell's
/// jobs × GPUs matrices rather than the datacenter's.
pub fn run_scheme_sharded(
    scheme: Scheme,
    trace: &ShardedTrace,
    db: &ProfileDb,
    opts: RunOptions,
) -> ShardReport {
    trace
        .run_with(|_cell_idx, cell, specs| {
            let w = SimWorkload::build(cell.cluster().clone(), specs.to_vec(), db);
            Ok(run_scheme_counted(scheme, &w, opts))
        })
        .expect("sharded simulation failed")
}

/// Run all five schemes.
pub fn run_all(workload: &SimWorkload, opts: RunOptions) -> Vec<SimReport> {
    Scheme::ALL
        .iter()
        .map(|&s| run_scheme(s, workload, opts))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_cluster::Cluster;
    use hare_workload::{testbed_trace, ProfileDb};

    #[test]
    fn all_schemes_complete_and_hare_wins() {
        let db = ProfileDb::with_noise(1, 0.0);
        let mut trace = testbed_trace(21);
        trace.truncate(16);
        let w = SimWorkload::build(Cluster::testbed15(), trace, &db);
        let reports = run_all(&w, RunOptions::default());
        assert_eq!(reports.len(), 5);
        let hare = reports[0].weighted_completion;
        for r in &reports {
            assert_eq!(r.completion.len(), 16, "{} incomplete", r.scheme);
            assert!(r.weighted_completion > 0.0);
        }
        // Hare should beat the heterogeneity-oblivious and job-level
        // schemes on a heterogeneous cluster. (Exact factors are the
        // experiments' business; here we just require strict wins over the
        // weakest baselines.)
        let fifo = reports[1].weighted_completion;
        assert!(
            hare < fifo,
            "Hare ({hare:.1}) should beat Gavel_FIFO ({fifo:.1})"
        );
    }

    #[test]
    fn every_scheme_survives_transient_failure_and_stragglers() {
        use hare_cluster::{SimDuration, SimTime};
        use hare_sim::{GpuFault, StragglerWindow};
        let db = ProfileDb::with_noise(1, 0.0);
        let mut trace = testbed_trace(29);
        trace.truncate(10);
        let w = SimWorkload::build(Cluster::testbed15(), trace, &db);
        let mut plan = FaultPlan::default();
        plan.gpu_faults.push(GpuFault {
            gpu: 0,
            at: SimTime::from_secs(120),
            recover_after: Some(SimDuration::from_secs(180)),
        });
        plan.gpu_faults.push(GpuFault {
            gpu: 1,
            at: SimTime::from_secs(400),
            recover_after: None,
        });
        plan.stragglers.push(StragglerWindow {
            gpu: 2,
            from: SimTime::from_secs(60),
            until: SimTime::from_secs(600),
            slowdown: 2.0,
        });
        let opts = RunOptions {
            noise: 0.0,
            ..RunOptions::default()
        };
        for scheme in Scheme::ALL {
            let healthy = run_scheme(scheme, &w, opts);
            let faulted = run_scheme_faulted(scheme, &w, opts, &plan);
            assert_eq!(faulted.completion.len(), 10, "{} incomplete", scheme.name());
            assert!(
                faulted.weighted_completion >= healthy.weighted_completion,
                "{}: faults must not speed the workload up ({} < {})",
                scheme.name(),
                faulted.weighted_completion,
                healthy.weighted_completion
            );
            assert_eq!(faulted.faults.gpu_failures, 2, "{}", scheme.name());
            assert_eq!(faulted.faults.gpu_recoveries, 1, "{}", scheme.name());
        }
    }
}
