//! Completeness of the engine's change log ([`SimView::changes`]): a
//! policy that rebuilds the ready and idle sets from the log, its own
//! assignments and `on_gpu_failure`'s requeued tasks alone must hold
//! exactly the engine's sets at every dispatch call — for every shipped
//! policy, on a healthy run and under the golden composite fault plan.

mod support;

use hare_baselines::{
    build_simulation, GavelFifo, HareOnline, RunOptions, SchedAllox, SchedHomo, Scheme, Srtf,
    TimeSlice,
};
use hare_core::HareScheduler;
use hare_sim::{Change, FaultPlan, OfflineReplay, Policy, SimView, SimWorkload};
use std::collections::BTreeSet;

/// Wraps a policy and mirrors the engine's sets from the log.
struct Mirror<'a> {
    inner: &'a mut dyn Policy,
    ready: BTreeSet<usize>,
    /// The engine starts with every GPU idle.
    idle: BTreeSet<usize>,
    completed: BTreeSet<usize>,
    /// Entries seen per kind: released, completed, GPU idle, GPU busy.
    seen: [usize; 4],
}

impl<'a> Mirror<'a> {
    fn new(inner: &'a mut dyn Policy, n_gpus: usize) -> Self {
        Mirror {
            inner,
            ready: BTreeSet::new(),
            idle: (0..n_gpus).collect(),
            completed: BTreeSet::new(),
            seen: [0; 4],
        }
    }
}

impl Policy for Mirror<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        for change in view.changes {
            match change {
                Change::Released { job, tasks } => {
                    self.seen[0] += 1;
                    assert_eq!(p.round_range(*job, view.synced_rounds[*job]), *tasks);
                    for t in tasks.clone() {
                        assert!(self.ready.insert(t), "task {t} released twice");
                    }
                }
                Change::Completed { job } => {
                    self.seen[1] += 1;
                    assert!(self.completed.insert(*job), "job {job} completed twice");
                }
                Change::GpuIdle { gpu } => {
                    self.seen[2] += 1;
                    assert!(self.idle.insert(*gpu), "GPU {gpu} was already idle");
                }
                Change::GpuBusy { gpu } => {
                    self.seen[3] += 1;
                    assert!(self.idle.remove(gpu), "GPU {gpu} was not idle");
                }
            }
        }
        let name = self.inner.name();
        assert!(
            self.ready.iter().copied().eq(view.ready.iter()),
            "{name}: ready set drifted from the log at {}",
            view.now
        );
        assert!(
            self.idle.iter().copied().eq(view.idle_gpus.iter()),
            "{name}: idle set drifted from the log at {}",
            view.now
        );
        let done = (0..p.jobs.len()).filter(|&j| view.synced_rounds[j] == p.jobs[j].rounds);
        assert!(
            self.completed.iter().copied().eq(done),
            "{name}: completions drifted from the log at {}",
            view.now
        );
        self.inner.dispatch(view, out);
        for &(task, gpu) in out.iter() {
            self.ready.remove(&task);
            self.idle.remove(&gpu);
        }
    }

    fn on_gpu_failure(&mut self, gpu: usize, requeued: &[usize]) {
        self.ready.extend(requeued);
        self.inner.on_gpu_failure(gpu, requeued);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.inner.on_gpu_recovery(gpu);
    }
}

/// Every shipped policy, mirrored; returns the log entries seen per kind,
/// summed over the policies.
fn mirror_all(w: &SimWorkload, plan: &FaultPlan) -> [usize; 4] {
    let plan_out = HareScheduler::default().schedule(&w.problem);
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(OfflineReplay::new("Hare", w, &plan_out.schedule)),
        Box::new(GavelFifo::new()),
        Box::new(Srtf::new()),
        Box::new(SchedHomo::new()),
        Box::new(SchedAllox::new()),
        Box::new(HareOnline::new()),
        Box::new(TimeSlice::new()),
    ];
    let mut seen = [0; 4];
    for mut policy in policies {
        let sim = build_simulation(Scheme::Hare, w, RunOptions::default(), plan);
        let mut mirror = Mirror::new(policy.as_mut(), w.cluster.gpu_count());
        let report = sim.run(&mut mirror).expect("simulation");
        assert_eq!(report.completion.len(), w.problem.jobs.len());
        for (total, n) in seen.iter_mut().zip(mirror.seen) {
            *total += n;
        }
    }
    seen
}

#[test]
fn change_log_rebuilds_the_sets_on_a_healthy_run() {
    let seen = mirror_all(&support::golden_workload(), &FaultPlan::default());
    assert!(seen[0] > 0 && seen[1] > 0 && seen[2] > 0, "{seen:?}");
    assert_eq!(
        seen[3], 0,
        "nothing leaves the idle set unasked without faults"
    );
}

#[test]
fn change_log_rebuilds_the_sets_under_the_composite_fault_plan() {
    let seen = mirror_all(&support::golden_workload(), &support::composite_plan());
    assert!(seen.iter().all(|&n| n > 0), "every kind of entry: {seen:?}");
}
