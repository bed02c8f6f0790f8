//! Timing wrappers around the two scheduler traits the engines call in a
//! loop. Both delegate every method, so wrapped runs produce the same
//! reports as bare ones.

use hare_cluster::Cluster;
use hare_sim::{PendingJob, PlanOutcome, Policy, QueueScheduler, SimView};
use std::time::Instant;

/// A [`Policy`] whose `dispatch` calls are timed and counted.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn Policy,
    pub secs: f64,
    pub calls: u64,
}

impl<'a> TimedPolicy<'a> {
    pub fn new(inner: &'a mut dyn Policy) -> Self {
        TimedPolicy {
            inner,
            secs: 0.0,
            calls: 0,
        }
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let t = Instant::now();
        self.inner.dispatch(view, out);
        self.secs += t.elapsed().as_secs_f64();
        self.calls += 1;
    }

    fn on_gpu_failure(&mut self, gpu: usize, requeued: &[usize]) {
        self.inner.on_gpu_failure(gpu, requeued);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.inner.on_gpu_recovery(gpu);
    }
}

/// One timed `plan` call.
#[derive(Copy, Clone, Debug)]
pub struct PlanSample {
    pub rung: &'static str,
    pub ms: f64,
    pub work: u64,
}

/// A [`QueueScheduler`] whose `plan` calls are timed, with the rung each
/// returned.
pub struct TimedSched<S> {
    inner: S,
    pub samples: Vec<PlanSample>,
}

impl<S> TimedSched<S> {
    pub fn new(inner: S) -> Self {
        TimedSched {
            inner,
            samples: Vec::new(),
        }
    }
}

impl<S: QueueScheduler> QueueScheduler for TimedSched<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, window: &[&PendingJob], cluster: &Cluster, budget_frac: f64) -> PlanOutcome {
        let t = Instant::now();
        let out = self.inner.plan(window, cluster, budget_frac);
        self.samples.push(PlanSample {
            rung: out.rung,
            ms: t.elapsed().as_secs_f64() * 1e3,
            work: out.work,
        });
        out
    }

    fn save_state(&self) -> String {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &str) {
        self.inner.load_state(state);
    }

    fn on_lease_expired(&mut self, gpu: usize) {
        self.inner.on_lease_expired(gpu);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.inner.on_gpu_recovery(gpu);
    }
}
