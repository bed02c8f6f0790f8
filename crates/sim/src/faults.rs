//! Fault injection and recovery: plans, seeded generators, and the
//! piecewise slowdown-window arithmetic shared by the engine and the
//! checkpoint store.
//!
//! A [`FaultPlan`] is a *static, declarative* description of everything
//! that goes wrong during a run: GPU outages (transient or permanent),
//! straggler slowdown windows, per-machine NIC degradation, and
//! checkpoint-store outages or latency spikes. Because the plan is fixed
//! up front, every fault path stays bit-for-bit deterministic in
//! (workload, policy, seed, plan) — the property all experiments inherit.
//!
//! Plans come from two places: scripted events (the fault-sweep
//! experiment) or a [`FaultProfile`] — a seeded generator drawing
//! exponential inter-event gaps from MTBF/MTTR means, the classic
//! reliability model.

use hare_cluster::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error surfaced by [`crate::Simulation::run`]: a malformed fault plan, a
/// policy violating the dispatch contract, or a wedged simulation. All
/// variants used to be `panic!`s; returning them lets callers degrade
/// gracefully on bad inputs.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The fault plan references non-existent hardware or has inconsistent
    /// windows (overlapping outages of one GPU, factors out of range, …).
    InvalidFaultPlan(String),
    /// The policy dispatched a task that is not ready or a GPU that is not
    /// idle/alive.
    PolicyViolation(String),
    /// No events remain but jobs are incomplete — the policy stopped
    /// dispatching, or every GPU died permanently.
    Deadlock {
        /// Simulation time at which the queue drained.
        at: SimTime,
        /// Jobs completed so far.
        jobs_done: usize,
        /// Total jobs in the workload.
        jobs: usize,
        /// Ready (undispatched) tasks at the deadlock.
        ready: usize,
        /// Idle live GPUs at the deadlock.
        idle: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            SimError::PolicyViolation(why) => write!(f, "policy violation: {why}"),
            SimError::Deadlock {
                at,
                jobs_done,
                jobs,
                ready,
                idle,
            } => write!(
                f,
                "simulation deadlock at {at}: {jobs_done}/{jobs} jobs done, {ready} ready \
                 tasks, {idle} idle GPUs — the policy stopped dispatching"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// One GPU outage: the GPU leaves service at `at`; with `recover_after`
/// set it rejoins that much later (transient fault), otherwise it is gone
/// for good.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuFault {
    /// GPU index.
    pub gpu: usize,
    /// Failure instant.
    pub at: SimTime,
    /// Downtime before the GPU rejoins; `None` = permanent.
    pub recover_after: Option<SimDuration>,
}

/// A straggler window: while it is open, every training step on `gpu`
/// takes `slowdown`× its nominal wall-clock time (thermal throttling, a
/// noisy neighbour, ECC retirement storms). Applies to in-flight *and*
/// future batches via piecewise integration.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StragglerWindow {
    /// Affected GPU.
    pub gpu: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Multiplicative wall-clock factor, ≥ 1.
    pub slowdown: f64,
}

/// NIC bandwidth degradation: while open, the named machine's NIC (or,
/// with `machine == None`, the backbone every flow crosses) delivers only
/// `factor` of its bandwidth. A near-zero factor models a partition.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkFault {
    /// Affected machine index, or `None` for the shared backbone (hits the
    /// PS side of every sync).
    pub machine: Option<usize>,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Remaining bandwidth fraction, in (0, 1].
    pub factor: f64,
}

/// What a checkpoint-store fault does to in-window fetches.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StorageFaultKind {
    /// The store serves nothing: fetches stall until the window closes.
    Outage,
    /// A latency spike: fetch progress is slowed by this factor (≥ 1).
    Slowdown(f64),
}

/// A checkpoint-store outage or latency spike (the HDFS of Fig. 9 having
/// a bad day). First-touch fetches overlapping the window are stretched
/// by piecewise integration.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StorageFault {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Outage or slowdown.
    pub kind: StorageFaultKind,
}

/// A solver-degradation window: while it is open, the scheduler's replan
/// budget is multiplied by `factor` (a control-plane brownout — the solver
/// host is overloaded, so each replan gets only a fraction of its normal
/// pivot/node budget and the anytime ladder degrades to lower rungs).
/// Only budget-aware policies react; others ignore it.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolverDegradation {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Remaining budget fraction, in (0, 1].
    pub factor: f64,
}

/// Speculative re-execution config (the relaxed-sync escape hatch): when a
/// round is waiting on exactly one gradient and the GPU computing it is
/// currently straggling by at least `threshold`, the engine clones the
/// task onto the fastest idle GPU; the first copy to finish feeds the PS
/// and the loser's gradient is dropped by the quorum.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeculationConfig {
    /// Minimum live slowdown factor that triggers a speculative copy.
    pub threshold: f64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig { threshold: 1.5 }
    }
}

/// Everything injected into one run. Empty by default; see the field docs
/// for each fault class. Validated against the cluster before the run
/// starts — [`crate::Simulation::run`] returns
/// [`SimError::InvalidFaultPlan`] rather than aborting on bad plans.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// GPU outages (transient and permanent).
    pub gpu_faults: Vec<GpuFault>,
    /// Straggler slowdown windows.
    pub stragglers: Vec<StragglerWindow>,
    /// NIC / backbone degradation windows.
    pub network_faults: Vec<NetworkFault>,
    /// Checkpoint-store outage / latency windows.
    pub storage_faults: Vec<StorageFault>,
    /// Solver-budget brownout windows (control-plane degradation).
    pub solver_degradations: Vec<SolverDegradation>,
    /// Enable speculative re-execution of straggling last gradients.
    pub speculation: Option<SpeculationConfig>,
}

impl FaultPlan {
    /// Check the plan against a cluster of `n_gpus` GPUs on `n_machines`
    /// machines: indices in range, factors in their domains, and no GPU
    /// with overlapping down-windows (a GPU cannot fail while already
    /// down; a permanent failure must be its last).
    pub fn validate(&self, n_gpus: usize, n_machines: usize) -> Result<(), SimError> {
        let bad = |why: String| Err(SimError::InvalidFaultPlan(why));
        for f in &self.gpu_faults {
            if f.gpu >= n_gpus {
                return bad(format!(
                    "GPU fault on GPU {} of a {n_gpus}-GPU cluster",
                    f.gpu
                ));
            }
            if f.recover_after.is_some_and(|d| d.is_zero()) {
                return bad(format!(
                    "GPU {} fault at {} recovers instantly",
                    f.gpu, f.at
                ));
            }
        }
        // Down-windows of the same GPU must be disjoint.
        let mut downs: Vec<(usize, SimTime, Option<SimTime>)> = self
            .gpu_faults
            .iter()
            .map(|f| (f.gpu, f.at, f.recover_after.map(|d| f.at + d)))
            .collect();
        downs.sort_by_key(|&(gpu, at, _)| (gpu, at));
        for w in downs.windows(2) {
            let ((g0, _, until0), (g1, at1, _)) = (w[0], w[1]);
            if g0 != g1 {
                continue;
            }
            match until0 {
                None => {
                    return bad(format!("GPU {g0} fails at {at1} after failing permanently"));
                }
                Some(up) if at1 < up => {
                    return bad(format!("GPU {g0} fails at {at1} while already down"));
                }
                Some(_) => {}
            }
        }
        for s in &self.stragglers {
            if s.gpu >= n_gpus {
                return bad(format!(
                    "straggler on GPU {} of a {n_gpus}-GPU cluster",
                    s.gpu
                ));
            }
            if s.from >= s.until {
                return bad(format!(
                    "straggler window [{}, {}) is empty",
                    s.from, s.until
                ));
            }
            if !s.slowdown.is_finite() || s.slowdown < 1.0 {
                return bad(format!("straggler slowdown {} is not ≥ 1", s.slowdown));
            }
        }
        for n in &self.network_faults {
            if let Some(m) = n.machine {
                if m >= n_machines {
                    return bad(format!(
                        "network fault on machine {m} of a {n_machines}-machine cluster"
                    ));
                }
            }
            if n.from >= n.until {
                return bad(format!("network window [{}, {}) is empty", n.from, n.until));
            }
            if !n.factor.is_finite() || n.factor <= 0.0 || n.factor > 1.0 {
                return bad(format!("network factor {} is not in (0, 1]", n.factor));
            }
        }
        for s in &self.storage_faults {
            if s.from >= s.until {
                return bad(format!("storage window [{}, {}) is empty", s.from, s.until));
            }
            if let StorageFaultKind::Slowdown(f) = s.kind {
                if !f.is_finite() || f < 1.0 {
                    return bad(format!("storage slowdown {f} is not ≥ 1"));
                }
            }
        }
        for s in &self.solver_degradations {
            if s.from >= s.until {
                return bad(format!(
                    "solver-degradation window [{}, {}) is empty",
                    s.from, s.until
                ));
            }
            if !s.factor.is_finite() || s.factor <= 0.0 || s.factor > 1.0 {
                return bad(format!(
                    "solver-degradation factor {} is not in (0, 1]",
                    s.factor
                ));
            }
        }
        if let Some(spec) = &self.speculation {
            if !spec.threshold.is_finite() || spec.threshold <= 1.0 {
                return bad(format!(
                    "speculation threshold {} is not > 1",
                    spec.threshold
                ));
            }
        }
        Ok(())
    }

    /// Straggler windows of one GPU as `(from, until, slowdown)` triples
    /// for [`SlowdownProfile::new`], sorted by start.
    pub fn straggler_windows(&self, gpu: usize) -> Vec<(SimTime, SimTime, f64)> {
        let mut ws: Vec<_> = self
            .stragglers
            .iter()
            .filter(|s| s.gpu == gpu)
            .map(|s| (s.from, s.until, s.slowdown))
            .collect();
        ws.sort_by_key(|&(from, until, _)| (from, until));
        ws
    }

    /// Solver-budget fraction available at `t`: the *worst* (smallest)
    /// factor among open degradation windows, 1.0 when none are open.
    pub fn solver_frac_at(&self, t: SimTime) -> f64 {
        self.solver_degradations
            .iter()
            .filter(|s| s.from <= t && t < s.until)
            .map(|s| s.factor)
            .fold(1.0, f64::min)
    }
}

/// A silently-dead worker window for the serve loop's lease machinery:
/// the GPU stops heartbeating at `from` and — unlike a [`GpuFault`] —
/// the scheduler receives **no failure event**; only missed heartbeats
/// reveal the death, after the lease timeout. Work in flight on the GPU
/// when the window opens is lost (requeued once the lease expires). With
/// `until` set the worker comes back and resumes heartbeating; `None` is
/// a permanent silent death.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SilentWorkerFault {
    /// Affected GPU.
    pub gpu: usize,
    /// Instant heartbeats stop (inclusive).
    pub from: SimTime,
    /// Instant heartbeats resume (exclusive); `None` = never.
    pub until: Option<SimTime>,
}

/// An injected scheduler crash: the serve loop aborts at the start of
/// the given decision epoch (1-based), returning
/// [`crate::RecoveryError::InjectedCrash`] and leaving its WAL behind
/// for `--recover`. Applies to fresh runs only — recovery strips it.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedulerCrash {
    /// Decision epoch (1-based) at whose start the loop dies.
    pub at_epoch: u64,
}

/// Everything injected into one serve run — the continuous-service
/// analogue of [`FaultPlan`]. Empty by default.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeFaultPlan {
    /// Silently-dead worker windows (lease-detected).
    pub silent_workers: Vec<SilentWorkerFault>,
    /// Scheduler crash injection.
    pub crash: Option<SchedulerCrash>,
}

impl ServeFaultPlan {
    /// Check the plan against a cluster of `n_gpus` GPUs: indices in
    /// range, windows non-empty and per-GPU disjoint (permanent death
    /// last), silent deaths only when the lease machinery that can
    /// detect them is on, and a crash epoch ≥ 1.
    pub fn validate(&self, n_gpus: usize, leases_enabled: bool) -> Result<(), SimError> {
        let bad = |why: String| Err(SimError::InvalidFaultPlan(why));
        if !self.silent_workers.is_empty() && !leases_enabled {
            return bad(
                "silent worker faults without lease-based liveness would never be detected"
                    .to_string(),
            );
        }
        for f in &self.silent_workers {
            if f.gpu >= n_gpus {
                return bad(format!(
                    "silent worker fault on GPU {} of a {n_gpus}-GPU cluster",
                    f.gpu
                ));
            }
            if f.until.is_some_and(|u| u <= f.from) {
                return bad(format!(
                    "silent-death window [{}, {}) of GPU {} is empty",
                    f.from,
                    f.until.unwrap_or(SimTime::MAX),
                    f.gpu
                ));
            }
        }
        let mut windows: Vec<(usize, SimTime, Option<SimTime>)> = self
            .silent_workers
            .iter()
            .map(|f| (f.gpu, f.from, f.until))
            .collect();
        windows.sort_by_key(|&(gpu, from, _)| (gpu, from));
        for w in windows.windows(2) {
            let ((g0, _, until0), (g1, from1, _)) = (w[0], w[1]);
            if g0 != g1 {
                continue;
            }
            match until0 {
                None => {
                    return bad(format!(
                        "GPU {g0} dies silently at {from1} after dying permanently"
                    ));
                }
                Some(up) if from1 < up => {
                    return bad(format!(
                        "GPU {g0} dies silently at {from1} while already dead"
                    ));
                }
                Some(_) => {}
            }
        }
        if let Some(c) = &self.crash {
            if c.at_epoch == 0 {
                return bad("scheduler crash at epoch 0: epochs are 1-based".to_string());
            }
        }
        Ok(())
    }
}

/// Precompiled piecewise-constant slowdown profile over a set of
/// `(from, until, slowdown)` windows: progress accrues at rate `1/s`
/// inside a window of factor `s`, overlaps take the worst factor, and
/// `f64::INFINITY` stalls progress entirely (storage outages). Built once,
/// so the hot path looks up a factor with one binary search and
/// integrates work without rescanning every window per boundary.
///
/// `edges` is the sorted, deduplicated union of all window endpoints;
/// `factors[i]` is the active factor on the half-open segment
/// `[edges[i-1], edges[i])` (with `factors[0]` covering everything before
/// the first edge and `factors[edges.len()]` everything after the last —
/// both 1.0 by construction).
///
/// The tests check it bit for bit against a per-call scan of the windows.
/// [`SlowdownProfile::finish_over`] therefore visits every edge in order
/// with the same f64 operations (`remaining -= span / s`, final
/// `(remaining * s).round()`) and never merges equal-factor segments,
/// because `a/s + b/s` and `(a+b)/s` can differ in the last ulp.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowdownProfile {
    edges: Vec<SimTime>,
    factors: Vec<f64>,
}

impl SlowdownProfile {
    /// Compile a window set (as produced by
    /// [`FaultPlan::straggler_windows`]) into its segment decomposition.
    pub fn new(windows: &[(SimTime, SimTime, f64)]) -> Self {
        let mut edges: Vec<SimTime> = windows.iter().flat_map(|&(f, u, _)| [f, u]).collect();
        edges.sort_unstable();
        edges.dedup();
        let mut factors = Vec::with_capacity(edges.len() + 1);
        factors.push(1.0);
        for &seg_start in &edges {
            let f = windows
                .iter()
                .filter(|&&(from, until, _)| from <= seg_start && seg_start < until)
                .map(|&(_, _, s)| s)
                .fold(1.0, f64::max);
            factors.push(f);
        }
        SlowdownProfile { edges, factors }
    }

    /// True when no windows were compiled in (every lookup returns 1.0).
    pub fn is_trivial(&self) -> bool {
        self.edges.is_empty()
    }

    /// Maximum slowdown factor active at `t` (1.0 outside all windows).
    pub fn slowdown_at(&self, t: SimTime) -> f64 {
        self.factors[self.edges.partition_point(|&e| e <= t)]
    }

    /// Wall-clock completion of `work` (nominal time) started at `start`;
    /// exactly `start + work` when no window is open along the way.
    pub fn finish_over(&self, start: SimTime, work: SimDuration) -> SimTime {
        let mut remaining = work.as_micros() as f64;
        if remaining <= 0.0 {
            return start;
        }
        let mut t = start;
        let mut idx = self.edges.partition_point(|&e| e <= t);
        loop {
            let s = self.factors[idx];
            if let Some(&b) = self.edges.get(idx) {
                let span = b.saturating_since(t).as_micros() as f64;
                let progressed = span / s; // s = ∞ ⇒ no progress
                if progressed < remaining {
                    remaining -= progressed;
                    t = b;
                    idx += 1;
                } else {
                    return t + SimDuration::from_micros((remaining * s).round() as u64);
                }
            } else {
                debug_assert!(s.is_finite(), "open-ended window with infinite slowdown");
                return t + SimDuration::from_micros((remaining * s).round() as u64);
            }
        }
    }
}

/// Seeded fault-plan generator over MTBF/MTTR means: per-GPU failures and
/// straggler windows, per-machine NIC degradation, and global storage
/// windows, all with exponential inter-event gaps. A `None` MTBF disables
/// that fault class. The draw order is fixed, so a (profile, seed,
/// cluster) triple always yields the same plan.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultProfile {
    /// Mean time between failures per GPU (`None` = no GPU faults).
    pub gpu_mtbf: Option<SimDuration>,
    /// Mean downtime of a transient GPU failure.
    pub gpu_mttr: SimDuration,
    /// Probability that a GPU failure is permanent.
    pub permanent_fraction: f64,
    /// Mean time between straggler windows per GPU (`None` = none).
    pub straggler_mtbf: Option<SimDuration>,
    /// Mean straggler-window length.
    pub straggler_duration: SimDuration,
    /// Straggler slowdowns are drawn uniformly from `[1.2, max_slowdown)`.
    pub max_slowdown: f64,
    /// Mean time between NIC degradations per machine (`None` = none).
    pub net_mtbf: Option<SimDuration>,
    /// Mean NIC-degradation window length.
    pub net_duration: SimDuration,
    /// NIC factors are drawn uniformly from `[min_net_factor, 1.0)`.
    pub min_net_factor: f64,
    /// Mean time between checkpoint-store faults (`None` = none).
    pub storage_mtbf: Option<SimDuration>,
    /// Mean storage-fault window length.
    pub storage_duration: SimDuration,
}

impl FaultProfile {
    /// A quiet cluster: rare transient GPU faults only.
    pub fn calm() -> Self {
        FaultProfile {
            gpu_mtbf: Some(SimDuration::from_secs(4000)),
            gpu_mttr: SimDuration::from_secs(120),
            permanent_fraction: 0.0,
            straggler_mtbf: None,
            straggler_duration: SimDuration::from_secs(180),
            max_slowdown: 2.5,
            net_mtbf: None,
            net_duration: SimDuration::from_secs(240),
            min_net_factor: 0.3,
            storage_mtbf: None,
            storage_duration: SimDuration::from_secs(60),
        }
    }

    /// A stressed cluster: every fault class active at moderate rates.
    pub fn harsh() -> Self {
        FaultProfile {
            gpu_mtbf: Some(SimDuration::from_secs(1200)),
            gpu_mttr: SimDuration::from_secs(180),
            permanent_fraction: 0.1,
            straggler_mtbf: Some(SimDuration::from_secs(900)),
            straggler_duration: SimDuration::from_secs(240),
            max_slowdown: 3.0,
            net_mtbf: Some(SimDuration::from_secs(1500)),
            net_duration: SimDuration::from_secs(300),
            min_net_factor: 0.25,
            storage_mtbf: Some(SimDuration::from_secs(2000)),
            storage_duration: SimDuration::from_secs(90),
        }
    }

    /// Scale every fault rate by `intensity` (MTBFs divided by it): 0
    /// disables all faults, 1 is this profile, 2 doubles the fault rates.
    pub fn scaled(mut self, intensity: f64) -> Self {
        assert!(intensity >= 0.0 && intensity.is_finite());
        let scale = |mtbf: Option<SimDuration>| {
            if intensity == 0.0 {
                None
            } else {
                mtbf.map(|d| d.mul_f64(1.0 / intensity))
            }
        };
        self.gpu_mtbf = scale(self.gpu_mtbf);
        self.straggler_mtbf = scale(self.straggler_mtbf);
        self.net_mtbf = scale(self.net_mtbf);
        self.storage_mtbf = scale(self.storage_mtbf);
        self
    }

    /// Draw a plan covering `[0, horizon)` for a cluster of `n_gpus` GPUs
    /// on `n_machines` machines. At least one GPU is always spared a
    /// permanent failure, but that does not keep a gang scheme running: a
    /// plan may leave fewer GPUs than a job's `sync_scale` (`harsh()` over
    /// 20,000 s on the testbed loses 12–14 of its 15), and a run that then
    /// cannot place that job returns [`SimError::Deadlock`]. The result
    /// always passes [`FaultPlan::validate`] for the same cluster shape.
    pub fn generate(
        &self,
        seed: u64,
        horizon: SimDuration,
        n_gpus: usize,
        n_machines: usize,
    ) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17_5eed_c0de_0001);
        let end = SimTime::ZERO + horizon;
        let mut plan = FaultPlan::default();
        let mut permanents = 0usize;
        for gpu in 0..n_gpus {
            if let Some(mtbf) = self.gpu_mtbf {
                let mut t = SimTime::ZERO + exp_sample(&mut rng, mtbf);
                while t < end {
                    let permanent = rng.gen_range(0.0..1.0) < self.permanent_fraction
                        && permanents + 1 < n_gpus;
                    if permanent {
                        permanents += 1;
                        plan.gpu_faults.push(GpuFault {
                            gpu,
                            at: t,
                            recover_after: None,
                        });
                        break;
                    }
                    let down = exp_sample(&mut rng, self.gpu_mttr).max(SimDuration::from_secs(5));
                    plan.gpu_faults.push(GpuFault {
                        gpu,
                        at: t,
                        recover_after: Some(down),
                    });
                    t = t + down + exp_sample(&mut rng, mtbf);
                }
            }
            if let Some(mtbf) = self.straggler_mtbf {
                let mut t = SimTime::ZERO + exp_sample(&mut rng, mtbf);
                while t < end {
                    let dur = exp_sample(&mut rng, self.straggler_duration)
                        .max(SimDuration::from_secs(10));
                    plan.stragglers.push(StragglerWindow {
                        gpu,
                        from: t,
                        until: t + dur,
                        slowdown: rng.gen_range(1.2..self.max_slowdown.max(1.21)),
                    });
                    t = t + dur + exp_sample(&mut rng, mtbf);
                }
            }
        }
        if let Some(mtbf) = self.net_mtbf {
            for machine in 0..n_machines {
                let mut t = SimTime::ZERO + exp_sample(&mut rng, mtbf);
                while t < end {
                    let dur =
                        exp_sample(&mut rng, self.net_duration).max(SimDuration::from_secs(10));
                    plan.network_faults.push(NetworkFault {
                        machine: Some(machine),
                        from: t,
                        until: t + dur,
                        factor: rng.gen_range(self.min_net_factor.clamp(0.01, 0.99)..1.0),
                    });
                    t = t + dur + exp_sample(&mut rng, mtbf);
                }
            }
        }
        if let Some(mtbf) = self.storage_mtbf {
            let mut t = SimTime::ZERO + exp_sample(&mut rng, mtbf);
            while t < end {
                let dur =
                    exp_sample(&mut rng, self.storage_duration).max(SimDuration::from_secs(5));
                let kind = if rng.gen_range(0.0..1.0) < 0.5 {
                    StorageFaultKind::Outage
                } else {
                    StorageFaultKind::Slowdown(rng.gen_range(2.0..8.0))
                };
                plan.storage_faults.push(StorageFault {
                    from: t,
                    until: t + dur,
                    kind,
                });
                t = t + dur + exp_sample(&mut rng, mtbf);
            }
        }
        plan
    }
}

/// One exponential draw with the given mean.
fn exp_sample(rng: &mut SmallRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(1.0e-12..1.0);
    SimDuration::from_micros((-u.ln() * mean.as_micros() as f64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Per-call window scans: the oracle `SlowdownProfile` must match bit
    // for bit.

    /// Maximum slowdown factor active at `t` among `(from, until, slowdown)`
    /// windows (1.0 when none are open).
    fn slowdown_at(windows: &[(SimTime, SimTime, f64)], t: SimTime) -> f64 {
        windows
            .iter()
            .filter(|&&(from, until, _)| from <= t && t < until)
            .map(|&(_, _, s)| s)
            .fold(1.0, f64::max)
    }

    /// Wall-clock completion of `work` (nominal compute time) started at
    /// `start` under slowdown windows: progress accrues at rate `1/s` inside
    /// a window of factor `s` (overlaps take the worst factor; `f64::INFINITY`
    /// stalls progress entirely, used for storage outages). With no windows
    /// this is exactly `start + work`.
    fn finish_over_windows(
        windows: &[(SimTime, SimTime, f64)],
        start: SimTime,
        work: SimDuration,
    ) -> SimTime {
        let mut t = start;
        let mut remaining = work.as_micros() as f64;
        if remaining <= 0.0 {
            return start;
        }
        loop {
            let s = slowdown_at(windows, t);
            let boundary = windows
                .iter()
                .flat_map(|&(from, until, _)| [from, until])
                .filter(|&b| b > t)
                .min();
            match boundary {
                Some(b) => {
                    let span = b.saturating_since(t).as_micros() as f64;
                    let progressed = span / s; // s = ∞ ⇒ no progress
                    if progressed < remaining {
                        remaining -= progressed;
                        t = b;
                    } else {
                        return t + SimDuration::from_micros((remaining * s).round() as u64);
                    }
                }
                None => {
                    debug_assert!(s.is_finite(), "open-ended window with infinite slowdown");
                    return t + SimDuration::from_micros((remaining * s).round() as u64);
                }
            }
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn empty_plan_validates() {
        assert!(FaultPlan::default().validate(4, 2).is_ok());
    }

    #[test]
    fn out_of_range_gpu_is_rejected() {
        let plan = FaultPlan {
            gpu_faults: vec![GpuFault {
                gpu: 9,
                at: t(1),
                recover_after: None,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(4, 2),
            Err(SimError::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn overlapping_downtime_is_rejected() {
        let plan = FaultPlan {
            gpu_faults: vec![
                GpuFault {
                    gpu: 0,
                    at: t(10),
                    recover_after: Some(d(100)),
                },
                GpuFault {
                    gpu: 0,
                    at: t(50),
                    recover_after: Some(d(10)),
                },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4, 2).is_err());
        // Same instants on different GPUs are fine.
        let plan = FaultPlan {
            gpu_faults: vec![
                GpuFault {
                    gpu: 0,
                    at: t(10),
                    recover_after: Some(d(100)),
                },
                GpuFault {
                    gpu: 1,
                    at: t(50),
                    recover_after: Some(d(10)),
                },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4, 2).is_ok());
    }

    #[test]
    fn failure_after_permanent_death_is_rejected() {
        let plan = FaultPlan {
            gpu_faults: vec![
                GpuFault {
                    gpu: 2,
                    at: t(10),
                    recover_after: None,
                },
                GpuFault {
                    gpu: 2,
                    at: t(500),
                    recover_after: Some(d(10)),
                },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4, 2).is_err());
    }

    #[test]
    fn bad_factors_are_rejected() {
        let straggler = FaultPlan {
            stragglers: vec![StragglerWindow {
                gpu: 0,
                from: t(0),
                until: t(10),
                slowdown: 0.5,
            }],
            ..FaultPlan::default()
        };
        assert!(straggler.validate(4, 2).is_err());
        let net = FaultPlan {
            network_faults: vec![NetworkFault {
                machine: Some(0),
                from: t(0),
                until: t(10),
                factor: 0.0,
            }],
            ..FaultPlan::default()
        };
        assert!(net.validate(4, 2).is_err());
        let storage = FaultPlan {
            storage_faults: vec![StorageFault {
                from: t(5),
                until: t(5),
                kind: StorageFaultKind::Outage,
            }],
            ..FaultPlan::default()
        };
        assert!(storage.validate(4, 2).is_err());
    }

    #[test]
    fn solver_degradation_validates_and_composes() {
        let plan = FaultPlan {
            solver_degradations: vec![
                SolverDegradation {
                    from: t(10),
                    until: t(100),
                    factor: 0.5,
                },
                SolverDegradation {
                    from: t(50),
                    until: t(200),
                    factor: 0.1,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4, 2).is_ok());
        assert_eq!(plan.solver_frac_at(t(0)), 1.0);
        assert_eq!(plan.solver_frac_at(t(20)), 0.5);
        // Overlap takes the worst factor; windows are half-open.
        assert_eq!(plan.solver_frac_at(t(60)), 0.1);
        assert_eq!(plan.solver_frac_at(t(150)), 0.1);
        assert_eq!(plan.solver_frac_at(t(200)), 1.0);

        let empty_window = FaultPlan {
            solver_degradations: vec![SolverDegradation {
                from: t(10),
                until: t(10),
                factor: 0.5,
            }],
            ..FaultPlan::default()
        };
        assert!(empty_window.validate(4, 2).is_err());
        let bad_factor = FaultPlan {
            solver_degradations: vec![SolverDegradation {
                from: t(0),
                until: t(10),
                factor: 1.5,
            }],
            ..FaultPlan::default()
        };
        assert!(bad_factor.validate(4, 2).is_err());
    }

    #[test]
    fn finish_without_windows_is_exact() {
        assert_eq!(finish_over_windows(&[], t(10), d(25)), t(35));
        assert_eq!(finish_over_windows(&[], t(10), SimDuration::ZERO), t(10));
    }

    #[test]
    fn finish_stretches_inside_window() {
        // Entirely inside a 2× window: doubled.
        let w = [(t(0), t(1000), 2.0)];
        assert_eq!(finish_over_windows(&w, t(10), d(20)), t(50));
        // Straddling the window end: the 20 wall-seconds inside the window
        // complete 10s of work, the remaining 10s run clean after it.
        let w = [(t(0), t(30), 2.0)];
        assert_eq!(finish_over_windows(&w, t(10), d(20)), t(40));
        // Window opens mid-run: 10s of work clean, the last 10s at 2×.
        let w = [(t(20), t(1000), 2.0)];
        assert_eq!(finish_over_windows(&w, t(10), d(20)), t(40));
    }

    #[test]
    fn overlapping_windows_take_worst_factor() {
        let w = [(t(0), t(100), 2.0), (t(0), t(100), 4.0)];
        assert_eq!(finish_over_windows(&w, t(0), d(10)), t(40));
        assert_eq!(slowdown_at(&w, t(50)), 4.0);
        assert_eq!(slowdown_at(&w, t(100)), 1.0);
    }

    #[test]
    fn outage_window_stalls_until_close() {
        // Work of 10s started at 0; store dark on [5, 65): 5s done, then a
        // 60s stall, then the last 5s.
        let w = [(t(5), t(65), f64::INFINITY)];
        assert_eq!(finish_over_windows(&w, t(0), d(10)), t(70));
        // Started inside the outage: nothing until 65.
        assert_eq!(finish_over_windows(&w, t(20), d(10)), t(75));
    }

    #[test]
    fn profile_matches_free_functions_exactly() {
        // Overlapping, nested, adjacent, and outage windows — the profile
        // must agree with the per-call scans bit for bit, including at the
        // half-open boundaries.
        let windows = [
            (t(10), t(100), 2.0),
            (t(50), t(200), 4.0),
            (t(100), t(150), 1.5),
            (t(400), t(460), f64::INFINITY),
        ];
        let profile = SlowdownProfile::new(&windows);
        assert!(!profile.is_trivial());
        for micros in (0..500_000_000u64).step_by(1_234_567) {
            let at = SimTime::ZERO + SimDuration::from_micros(micros);
            assert_eq!(
                profile.slowdown_at(at),
                slowdown_at(&windows, at),
                "at {at}"
            );
            for work_micros in [0u64, 1, 999_999, 17_000_000, 250_000_000] {
                let work = SimDuration::from_micros(work_micros);
                assert_eq!(
                    profile.finish_over(at, work),
                    finish_over_windows(&windows, at, work),
                    "start {at}, work {work}"
                );
            }
        }
        // Boundary instants exactly on edges.
        for edge_secs in [10u64, 50, 100, 150, 200, 400, 460] {
            let at = t(edge_secs);
            assert_eq!(profile.slowdown_at(at), slowdown_at(&windows, at));
            assert_eq!(
                profile.finish_over(at, d(75)),
                finish_over_windows(&windows, at, d(75))
            );
        }
    }

    #[test]
    fn trivial_profile_is_identity() {
        let profile = SlowdownProfile::new(&[]);
        assert!(profile.is_trivial());
        assert_eq!(profile.slowdown_at(t(5)), 1.0);
        assert_eq!(profile.finish_over(t(10), d(25)), t(35));
        assert_eq!(profile.finish_over(t(10), SimDuration::ZERO), t(10));
    }

    #[test]
    fn randomized_profile_equivalence() {
        // Seeded random window sets: the compiled profile must reproduce
        // the free functions everywhere we probe.
        let mut rng = SmallRng::seed_from_u64(0x510d_0d04);
        for _ in 0..50 {
            let n = rng.gen_range(0..6);
            let windows: Vec<(SimTime, SimTime, f64)> = (0..n)
                .map(|_| {
                    let from = rng.gen_range(0..2_000u64);
                    let len = rng.gen_range(1..800u64);
                    let s = if rng.gen_range(0.0..1.0) < 0.15 {
                        f64::INFINITY
                    } else {
                        rng.gen_range(1.0..6.0)
                    };
                    (t(from), t(from + len), s)
                })
                .collect();
            let profile = SlowdownProfile::new(&windows);
            for _ in 0..40 {
                let at = t(rng.gen_range(0..3_000u64));
                assert_eq!(profile.slowdown_at(at), slowdown_at(&windows, at));
                let work = d(rng.gen_range(0..1_500u64));
                assert_eq!(
                    profile.finish_over(at, work),
                    finish_over_windows(&windows, at, work)
                );
            }
        }
    }

    #[test]
    fn generated_plans_validate_and_are_deterministic() {
        let profile = FaultProfile::harsh();
        let a = profile.generate(7, d(3000), 15, 4);
        let b = profile.generate(7, d(3000), 15, 4);
        assert_eq!(a, b);
        assert_ne!(
            a,
            FaultPlan::default(),
            "harsh profile over 3000s must inject faults"
        );
        assert!(a.validate(15, 4).is_ok());
        let c = profile.generate(8, d(3000), 15, 4);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn scaled_zero_disables_everything() {
        let none = FaultProfile::harsh().scaled(0.0);
        let plan = none.generate(3, d(5000), 15, 4);
        assert_eq!(plan, FaultPlan::default());
        // Higher intensity means more GPU faults on average.
        let calm = FaultProfile::harsh().generate(3, d(5000), 15, 4);
        let wild = FaultProfile::harsh()
            .scaled(4.0)
            .generate(3, d(5000), 15, 4);
        assert!(wild.gpu_faults.len() >= calm.gpu_faults.len());
    }
}
