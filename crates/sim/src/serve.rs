//! Continuous-service mode: an always-on scheduling loop absorbing an
//! open arrival stream (DESIGN.md §12), with crash tolerance and
//! lease-based worker liveness layered on top (DESIGN.md §13).
//!
//! The batch engine ([`crate::engine`]) materializes a complete trace and
//! replays it to quiescence; a production scheduler never sees the end of
//! its workload. [`ServeLoop`] is the complementary *job-granularity*
//! continuous-service simulator:
//!
//! * arrivals are pulled **lazily** from an
//!   [`hare_workload::ArrivalStream`] — one at a time, as simulated time
//!   reaches them; nothing is materialized;
//! * every arrival passes the [`AdmissionController`] (token buckets →
//!   bounded fair queue, typed outcomes, conservation accounting);
//! * at each **decision epoch** the [`BudgetController`] turns queue
//!   depth + recent decision-latency p99 into a solver-budget fraction
//!   (with hysteresis), a pluggable [`QueueScheduler`] ranks the fair-
//!   queue head window under that fraction, and ranked jobs dispatch to
//!   idle GPUs. The decision's deterministic work is priced into
//!   simulated latency at [`SECS_PER_WORK_UNIT`] (the rate the online
//!   baselines charge too) and charged before the dispatched jobs start;
//! * a **drain** (arrival horizon exhausted, or an external stop flag —
//!   SIGTERM in `hare serve`) stops admission, *drains* the pending
//!   queue (counted separately from overload shedding), lets in-flight
//!   jobs finish, and produces the final [`ServeReport`].
//!
//! # Crash tolerance
//!
//! [`ServeLoop::run_with_wal`] journals every state transition to a
//! [`WalFile`] (group-committed at epoch boundaries) and, once the
//! records since the last snapshot outweigh it, writes a compacted
//! snapshot of the *complete* loop state — pending queue, token buckets,
//! in-flight placements, arrival-stream cursor, budget hysteresis,
//! scheduler-private state. After a crash (a real
//! SIGKILL, or an injected [`crate::faults::SchedulerCrash`]),
//! [`ServeLoop::recover`] loads the last snapshot and re-executes the
//! loop deterministically, *verifying* each regenerated transition
//! against the WAL suffix; the recovered [`ServeReport`] is
//! byte-identical to an uncrashed run's.
//!
//! # Lease-based liveness
//!
//! With [`ServeConfig::lease`] set, every GPU holds a heartbeated lease.
//! A [`crate::faults::SilentWorkerFault`] stops a worker's heartbeats
//! without any failure event; once the lease times out the scheduler
//! expires it ([`QueueScheduler::on_lease_expired`]), requeues the
//! worker's in-flight job with capped exponential backoff, and stops
//! dispatching to the GPU until heartbeats resume
//! ([`QueueScheduler::on_gpu_recovery`]). Jobs requeued more than
//! `MAX_REQUEUES` times are counted lost.
//!
//! Decision-latency p50/p99 (via [`Histogram::quantile`]) and
//! decisions/sec are first-class [`MetricsRegistry`] series. Everything
//! is simulated-time deterministic: two runs of the same config and
//! scheduler produce byte-identical reports.

use crate::admission::{
    AdmissionConfig, AdmissionController, AdmissionCounters, AdmissionOutcome, BudgetController,
    PendingJob, PressureCurve, RejectReason, TenantId,
};
use crate::dense::DenseSet;
use crate::faults::{SchedulerCrash, ServeFaultPlan};
use crate::metrics::{push_f64, push_json_str};
use crate::policy::SECS_PER_WORK_UNIT;
use crate::recovery::{
    crc32, dead_at, dead_during, last_heartbeat, LeaseConfig, RecoveryError, RecoveryStats,
    WalFile, WalOptions, WalSession,
};
use crate::registry::{Histogram, MetricsRegistry};
use crate::snapshot::{Reader, Writer};
use hare_cluster::{Cluster, GpuKind, SimDuration, SimTime};
use hare_workload::{ArrivalStream, JobSpec, OpenArrival, OpenArrivalConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// One scheduling decision over the planning window.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// One priority per job of the window handed to
    /// [`QueueScheduler::plan`], in window order. The loop stores each in
    /// its job's [`PendingJob::priority`] and dispatches by ascending
    /// priority, ties in window order. A count other than the window's is
    /// a scheduler bug and panics in the loop.
    pub priority: Vec<f64>,
    /// Deterministic work units spent deciding (priced into latency).
    pub work: u64,
    /// Which ladder rung (or heuristic) produced the plan — tallied into
    /// the report's rung-hit counts.
    pub rung: &'static str,
}

/// A scheduler ranking the pending-queue head under a budget fraction.
///
/// Implementations live in `hare-baselines` (the anytime-ladder scheduler
/// and an SRTF heuristic); the trait keeps `hare-sim` solver-free.
pub trait QueueScheduler {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Rank `window` (fair-queue order, never empty) for dispatch onto
    /// `cluster`, spending at most `budget_frac` of the full solve
    /// budget.
    fn plan(&mut self, window: &[&PendingJob], cluster: &Cluster, budget_frac: f64) -> PlanOutcome;

    /// Scheduler-wide state for crash snapshots, as one line using only
    /// `:,|` separators (it nests inside the snapshot's `;`/`=` framing;
    /// [`crate::snapshot`]'s `Writer` and `Reader` write and read that
    /// grammar). Stateless schedulers (the default) return `""`; a
    /// scheduler whose plans depend on mutable state of its own must
    /// round-trip it here or recovery will diverge. State of one job
    /// belongs on the job: the snapshot already carries each live job's
    /// [`PendingJob::priority`].
    fn save_state(&self) -> String {
        String::new()
    }

    /// Restore the state produced by [`QueueScheduler::save_state`].
    fn load_state(&mut self, _state: &str) {}

    /// GPU `gpu`'s lease expired: it stopped heartbeating and is out of
    /// service until further notice. Its in-flight job (if any) is
    /// requeued by the loop itself.
    fn on_lease_expired(&mut self, _gpu: usize) {}

    /// GPU `gpu` resumed heartbeating after an expiry and rejoined the
    /// dispatchable set.
    fn on_gpu_recovery(&mut self, _gpu: usize) {}
}

/// Configuration of one serve run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Open arrival stream (process, load factor, tenants, seed).
    pub arrivals: OpenArrivalConfig,
    /// Admission control (quotas, queue bound).
    pub admission: AdmissionConfig,
    /// Backpressure → budget mapping.
    pub pressure: PressureCurve,
    /// Decision epoch length.
    pub decision_interval: SimDuration,
    /// Stop generating arrivals at this simulated instant, then drain.
    pub horizon: SimTime,
    /// Lease-based worker liveness; `None` trusts every GPU forever
    /// (required `Some` to inject silent-worker faults).
    pub lease: Option<LeaseConfig>,
    /// Injected failures (silent worker deaths, a scheduler crash).
    pub faults: ServeFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            arrivals: OpenArrivalConfig::default(),
            admission: AdmissionConfig::default(),
            pressure: PressureCurve::default(),
            decision_interval: SimDuration::from_secs(5),
            horizon: SimTime::from_secs(3_600),
            lease: None,
            faults: ServeFaultPlan::default(),
        }
    }
}

impl ServeConfig {
    /// The unthrottled baseline: same arrivals, but no admission caps
    /// and no brownout — the configuration the resilience sweep compares
    /// against.
    pub fn unthrottled(mut self) -> Self {
        self.admission = AdmissionConfig::unthrottled();
        self.pressure = PressureCurve::disabled();
        self
    }
}

/// Maximum jobs the scheduler sees per decision: the fair-queue head,
/// which bounds per-decision solve cost.
const PLAN_WINDOW: usize = 16;
/// Recent decisions whose latency feeds the pressure controller's p99.
const LATENCY_WINDOW: usize = 64;
/// Hysteresis dwell: decision epochs of calm before the budget ascends
/// one level.
const ASCEND_DWELL: u32 = 5;
/// Decision-latency histogram buckets (seconds).
const LATENCY_BUCKETS_SECS: [f64; 9] = [0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 20.0, 60.0];
/// Queue-wait histogram buckets (seconds).
const WAIT_BUCKETS_SECS: [f64; 8] = [1.0, 10.0, 60.0, 300.0, 900.0, 3600.0, 14400.0, 86400.0];
/// Snapshot format version (bump on incompatible encoding changes).
const SNAPSHOT_VERSION: u32 = 2;

/// Sequential service time of one job on a GPU of the given kind: all its
/// tasks back to back (job-granularity serving has no intra-job
/// parallelism).
fn service_time_on(job: &JobSpec, kind: GpuKind) -> SimDuration {
    SimDuration::from_millis_f64(job.task_ms(kind) * job.task_count() as f64)
}

/// Speed-indexed idle-GPU tracker for the dispatch hot path.
///
/// The loop used to rebuild a `Vec` of idle GPUs every epoch by scanning
/// all of `0..n_gpus`, then `Vec::remove` each dispatch — O(epochs × |GPUs|)
/// before a single job moved. This structure is maintained incrementally
/// at every occupancy transition instead, with one [`DenseSet`] per GPU
/// *kind*: a job's service time depends only on the kind, so the GPU
/// minimizing `(service_time, gpu_id)` is found by comparing each kind's
/// lowest-id idle member — O(kinds) per dispatch, and byte-identical to
/// the full scan's `min_by_key` choice (within a kind the service time is
/// constant, so the kind's candidate is exactly its smallest id; across
/// kinds the same tuple comparison decides, ties falling to the lower id).
struct IdleGpus {
    /// One member set per kind present in the cluster.
    kinds: Vec<(GpuKind, DenseSet)>,
    /// GPU id → index into `kinds`.
    kind_idx: Vec<usize>,
    len: usize,
}

impl IdleGpus {
    /// Build from the current loop state: idle = no running job and no
    /// expired lease. Called once per `drive` entry (fresh, WAL-logged,
    /// and recovering runs alike), then maintained incrementally.
    fn new(cluster: &Cluster, st: &ServeState) -> Self {
        let n = cluster.gpu_count();
        let kinds: Vec<(GpuKind, DenseSet)> = cluster
            .kinds_present()
            .into_iter()
            .map(|k| (k, DenseSet::new(n)))
            .collect();
        let kind_idx = cluster
            .gpus()
            .iter()
            .map(|g| {
                kinds
                    .iter()
                    .position(|(k, _)| *k == g.kind)
                    .expect("every GPU's kind is present")
            })
            .collect();
        let mut idle = IdleGpus {
            kinds,
            kind_idx,
            len: 0,
        };
        for g in 0..n {
            if st.running[g].is_none() && !st.lease_expired[g] {
                idle.insert(g);
            }
        }
        idle
    }

    /// Mark a GPU idle (idempotent).
    fn insert(&mut self, gpu: usize) {
        if self.kinds[self.kind_idx[gpu]].1.insert(gpu) {
            self.len += 1;
        }
    }

    /// Mark a GPU non-idle (idempotent).
    fn remove(&mut self, gpu: usize) {
        if self.kinds[self.kind_idx[gpu]].1.remove(gpu) {
            self.len -= 1;
        }
    }

    /// True when no GPU is dispatchable.
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The idle GPU serving `job` fastest, lowest id breaking ties —
    /// the same choice as `min_by_key(|g| (service_time(job, g), g))`
    /// over the full idle scan.
    fn best_for(&self, job: &JobSpec) -> Option<usize> {
        let mut best: Option<(SimDuration, usize)> = None;
        for (kind, set) in &self.kinds {
            let Some(g) = set.first() else { continue };
            let cand = (service_time_on(job, *kind), g);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        best.map(|(_, g)| g)
    }
}

/// Final report of one serve run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Scheduler name.
    pub scheme: String,
    /// Simulated instant the loop finished draining.
    pub end: SimTime,
    /// Admission conservation counters at the end of the run (the
    /// `drained` / `shed` split lives here: `drained` is the graceful
    /// wind-down residue, `shed` genuine overload loss).
    pub counters: AdmissionCounters,
    /// Jobs that finished service.
    pub completed: u64,
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// Decisions per simulated second.
    pub decisions_per_sec: f64,
    /// Decision-latency distribution (simulated seconds).
    pub decision_latency: Histogram,
    /// Plans per rung name (ladder descent shows up here).
    pub rung_hits: BTreeMap<String, u64>,
    /// Peak pending-queue depth.
    pub queue_depth_max: usize,
    /// Pending-queue depth when the drain began (all drained).
    pub queue_depth_at_drain: usize,
    /// Deepest solver-budget level the controller reached.
    pub min_budget_level: f64,
    /// Budget-level transitions (both directions).
    pub budget_transitions: u32,
    /// Mean completion time of finished jobs (arrival → service end),
    /// seconds; zero when nothing completed.
    pub mean_jct_secs: f64,
    /// Jobs requeued after a lease expiry (entries into the backoff
    /// pool; one job can contribute several times).
    pub requeued: u64,
    /// Lease expiries across the run.
    pub lease_expiries: u64,
    /// Lease rejoins (heartbeats resumed after an expiry).
    pub lease_rejoins: u64,
    /// Jobs dropped after exceeding the lease requeue budget.
    pub lease_lost: u64,
    /// Every figure above (plus the queue-wait histogram) as registry
    /// series, for uniform JSON export.
    pub metrics: MetricsRegistry,
}

impl ServeReport {
    /// Decision-latency quantile in simulated seconds.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.decision_latency.quantile(q)
    }

    /// Deterministic JSON rendering (scheme + headline figures + the
    /// full metrics registry). Not a golden-pinned format — serve mode
    /// is new — but byte-stable for a given run.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\"scheme\":");
        push_json_str(&mut s, &self.scheme);
        let _ = write!(
            s,
            ",\"end_secs\":{},\"completed\":{},\"decisions\":{}",
            self.end.as_secs_f64(),
            self.completed,
            self.decisions,
        );
        let _ = write!(
            s,
            ",\"drained\":{},\"shed\":{},\"requeued\":{},\"lease_lost\":{}",
            self.counters.drained, self.counters.shed, self.requeued, self.lease_lost,
        );
        s.push_str(",\"decision_latency_p50\":");
        push_f64(&mut s, self.latency_quantile(0.5).unwrap_or(f64::NAN));
        s.push_str(",\"decision_latency_p99\":");
        push_f64(&mut s, self.latency_quantile(0.99).unwrap_or(f64::NAN));
        s.push_str(",\"decisions_per_sec\":");
        push_f64(&mut s, self.decisions_per_sec);
        s.push_str(",\"metrics\":");
        s.push_str(&self.metrics.to_json());
        s.push('}');
        s
    }
}

/// A dispatched job in service on one GPU.
#[derive(Clone, Debug)]
struct Running {
    job: PendingJob,
    started: SimTime,
    /// Completion instant; [`SimTime::MAX`] for a zombie whose worker
    /// died mid-service (the completion was suppressed; the lease
    /// machinery will requeue it).
    done_at: SimTime,
}

/// A job waiting out its requeue backoff after a lease expiry.
#[derive(Clone, Debug)]
struct PoolEntry {
    job: PendingJob,
    ready_at: SimTime,
}

/// The complete, snapshotable state of one serve run — everything
/// [`ServeLoop::drive`] mutates. Encoding this (plus the arrival-stream
/// cursor and scheduler-private state) *is* the crash snapshot.
struct ServeState {
    now: SimTime,
    /// Decision epochs processed (1-based once the first epoch runs).
    epoch_index: u64,
    admission: AdmissionController,
    budget: BudgetController,
    running: Vec<Option<Running>>,
    /// Per-GPU "lease currently expired" flags.
    lease_expired: Vec<bool>,
    /// Requeue backoff pool, FIFO.
    pool: Vec<PoolEntry>,
    latency_hist: Histogram,
    wait_hist: Histogram,
    recent: Vec<f64>,
    recent_at: usize,
    decisions: u64,
    rung_hits: BTreeMap<String, u64>,
    completed: u64,
    jct_sum: f64,
    depth_max: usize,
    depth_at_drain: usize,
    work_total: u64,
    requeued: u64,
    lease_expiries: u64,
    lease_rejoins: u64,
    lease_lost: u64,
}

/// Log one WAL transition, formatting only when a session is attached
/// (plain runs pay nothing).
fn wal_log(
    session: &mut Option<&mut WalSession<'_>>,
    f: impl FnOnce() -> String,
) -> Result<(), RecoveryError> {
    match session {
        Some(s) => s.log(&f()),
        None => Ok(()),
    }
}

/// One-letter admission outcome code for `arr` WAL records.
fn outcome_code(o: AdmissionOutcome) -> String {
    match o {
        AdmissionOutcome::Admitted => "a".to_string(),
        AdmissionOutcome::Deferred { retry_at } => format!("d{}", retry_at.as_micros()),
        AdmissionOutcome::Rejected(RejectReason::RateLimited) => "rl".to_string(),
        AdmissionOutcome::Rejected(RejectReason::QueueFull) => "qf".to_string(),
        AdmissionOutcome::Rejected(RejectReason::Draining) => "dr".to_string(),
    }
}

/// Requeues after which a job coming off a dead worker is counted lost.
const MAX_REQUEUES: u32 = 8;
/// Base backoff before a requeued job is eligible to dispatch again.
const REQUEUE_BACKOFF: SimDuration = SimDuration::from_secs(5);
/// Upper bound on the exponential requeue backoff.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(300);

/// Backoff before requeue attempt `attempt` (0-based) re-enters the
/// queue: `REQUEUE_BACKOFF · 2^attempt`, capped at `BACKOFF_CAP`.
fn requeue_backoff(attempt: u32) -> SimDuration {
    let base = REQUEUE_BACKOFF.as_micros();
    let mult = 1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX);
    SimDuration::from_micros(base.saturating_mul(mult).min(BACKOFF_CAP.as_micros()))
}

/// Route a job coming off a dead worker: drained if the run is winding
/// down, lost if it exhausted its requeue budget, otherwise into the
/// backoff pool with its requeue count bumped.
fn requeue_job(
    st: &mut ServeState,
    session: &mut Option<&mut WalSession<'_>>,
    now: SimTime,
    mut job: PendingJob,
) -> Result<(), RecoveryError> {
    let id = job.spec.id.0;
    let requeues = job.requeues;
    if st.admission.is_draining() {
        st.admission.count_drained(1);
        wal_log(session, || format!("dreq {id}"))?;
    } else if requeues >= MAX_REQUEUES {
        st.lease_lost += 1;
        wal_log(session, || format!("lost {id}"))?;
    } else {
        let ready_at = now + requeue_backoff(requeues);
        st.requeued += 1;
        wal_log(session, || {
            format!("req {id} {} {requeues}", ready_at.as_micros())
        })?;
        job.requeues += 1;
        st.pool.push(PoolEntry { job, ready_at });
    }
    Ok(())
}

/// The continuous-service loop.
pub struct ServeLoop {
    cluster: Cluster,
    cfg: ServeConfig,
}

impl ServeLoop {
    /// A loop serving `cfg.arrivals` on `cluster`.
    pub fn new(cluster: Cluster, cfg: ServeConfig) -> Self {
        assert!(!cfg.decision_interval.is_zero(), "zero decision interval");
        if let Some(lease) = &cfg.lease {
            if let Err(e) = lease.validate() {
                panic!("invalid lease config: {e}");
            }
        }
        if let Err(e) = cfg
            .faults
            .validate(cluster.gpu_count(), cfg.lease.is_some())
        {
            panic!("invalid serve fault plan: {e}");
        }
        ServeLoop { cluster, cfg }
    }

    /// Sequential service time of `job` on GPU `gpu` (all tasks back to
    /// back on that one GPU — the serve loop schedules at job
    /// granularity; intra-job parallelism is the batch engine's domain).
    fn service_time(&self, job: &JobSpec, gpu: usize) -> SimDuration {
        service_time_on(job, self.cluster.gpus()[gpu].kind)
    }

    /// Silent-death windows per GPU, sorted by open instant.
    fn death_windows(&self) -> Vec<Vec<(SimTime, Option<SimTime>)>> {
        let mut w = vec![Vec::new(); self.cluster.gpu_count()];
        for f in &self.cfg.faults.silent_workers {
            w[f.gpu].push((f.from, f.until));
        }
        for v in &mut w {
            v.sort_by_key(|&(from, _)| from);
        }
        w
    }

    /// CRC fingerprint of everything that must match between the run
    /// that wrote a snapshot and the run recovering from it. The crash
    /// injection is excluded: recovery deliberately strips it.
    fn fingerprint(&self, scheme: &str) -> u32 {
        let mut cfg = self.cfg.clone();
        cfg.faults.crash = None;
        let kinds: Vec<_> = self.cluster.gpus().iter().map(|g| g.kind).collect();
        crc32(format!("{SNAPSHOT_VERSION}|{scheme}|{cfg:?}|{kinds:?}").as_bytes())
    }

    fn fresh_state(&self) -> ServeState {
        let n = self.cluster.gpu_count();
        ServeState {
            now: SimTime::ZERO,
            epoch_index: 0,
            admission: AdmissionController::new(self.cfg.admission.clone()),
            budget: BudgetController::new(self.cfg.pressure, ASCEND_DWELL),
            running: vec![None; n],
            lease_expired: vec![false; n],
            pool: Vec::new(),
            latency_hist: Histogram::new(&LATENCY_BUCKETS_SECS),
            wait_hist: Histogram::new(&WAIT_BUCKETS_SECS),
            recent: Vec::with_capacity(LATENCY_WINDOW),
            recent_at: 0,
            decisions: 0,
            rung_hits: BTreeMap::new(),
            completed: 0,
            jct_sum: 0.0,
            depth_max: 0,
            depth_at_drain: 0,
            work_total: 0,
            requeued: 0,
            lease_expiries: 0,
            lease_rejoins: 0,
            lease_lost: 0,
        }
    }

    /// Run to drain with no external stop signal.
    pub fn run(&self, scheduler: &mut dyn QueueScheduler) -> ServeReport {
        static NEVER: AtomicBool = AtomicBool::new(false);
        self.run_with_stop(scheduler, &NEVER, None)
    }

    /// Run until the arrival horizon drains or `stop` becomes true
    /// (checked every epoch; SIGTERM handlers set it). `pace` sleeps that
    /// long per decision epoch in *wall-clock* time — live-service pacing
    /// so an external signal can land mid-run; `None` runs flat out.
    /// Pacing ends once draining: the drain itself is pure simulation.
    ///
    /// Panics on an injected [`SchedulerCrash`] — crashing without a WAL
    /// leaves nothing to recover; use [`ServeLoop::run_with_wal`].
    pub fn run_with_stop(
        &self,
        scheduler: &mut dyn QueueScheduler,
        stop: &AtomicBool,
        pace: Option<std::time::Duration>,
    ) -> ServeReport {
        let mut st = self.fresh_state();
        let mut stream = self.cfg.arrivals.stream();
        let mut next_arrival = stream.next().filter(|a| a.spec.arrival < self.cfg.horizon);
        match self.drive(
            scheduler,
            &mut st,
            &mut stream,
            &mut next_arrival,
            None,
            self.cfg.faults.crash,
            stop,
            pace,
        ) {
            Ok(()) => self.finish(scheduler, st),
            Err(e) => panic!("serve run failed without a WAL: {e}"),
        }
    }

    /// Run with write-ahead logging: every transition is journaled to
    /// `wal.path` and group-committed at epoch boundaries, and once the
    /// records since the last snapshot outweigh it the log is compacted
    /// into a full state snapshot instead. An injected
    /// [`SchedulerCrash`] (or a real kill) leaves a WAL that
    /// [`ServeLoop::recover`] resumes from.
    pub fn run_with_wal(
        &self,
        scheduler: &mut dyn QueueScheduler,
        wal: &WalOptions,
        stop: &AtomicBool,
        pace: Option<std::time::Duration>,
    ) -> Result<ServeReport, RecoveryError> {
        let mut file = WalFile::create(&wal.path)?;
        let mut session = WalSession::new(&mut file, Vec::new());
        let mut st = self.fresh_state();
        let mut stream = self.cfg.arrivals.stream();
        let mut next_arrival = stream.next().filter(|a| a.spec.arrival < self.cfg.horizon);
        // Initial snapshot: recovery works from the first record on.
        session.snapshot(&self.encode_snapshot(&st, scheduler, &stream, next_arrival.is_some()))?;
        self.drive(
            scheduler,
            &mut st,
            &mut stream,
            &mut next_arrival,
            Some(&mut session),
            self.cfg.faults.crash,
            stop,
            pace,
        )?;
        Ok(self.finish(scheduler, st))
    }

    /// Recover a crashed (or completed) WAL-logged run: load the last
    /// valid snapshot, re-execute deterministically while verifying
    /// every regenerated transition against the WAL suffix, then keep
    /// serving live. The returned report is byte-identical to what an
    /// uncrashed run would have produced. Any injected crash in the
    /// config is ignored — recovery must not crash again.
    pub fn recover(
        &self,
        scheduler: &mut dyn QueueScheduler,
        wal: &WalOptions,
        stop: &AtomicBool,
        pace: Option<std::time::Duration>,
    ) -> Result<(ServeReport, RecoveryStats), RecoveryError> {
        let (mut file, blob, suffix) = WalFile::open_for_recovery(&wal.path)?;
        let (mut st, cursor, buffered) = self.decode_snapshot(&blob, scheduler)?;

        // Every arrival drawn was offered except the last one, which is
        // buffered, past the horizon or dropped at the drain. Checking
        // that bounds the fast-forward below by the snapshot's own count.
        let offered = st.admission.counters().offered;
        if cursor != offered + 1 {
            return Err(RecoveryError::Corrupt {
                line: 0,
                why: format!("arrival cursor {cursor} after {offered} offered arrivals"),
            });
        }
        // Resume the arrival stream at the snapshot's cursor. The last
        // draw is re-drawn (same seed ⇒ same value) so the horizon
        // filter re-applies; a draining snapshot pinned arrivals off.
        let mut stream = self.cfg.arrivals.stream();
        let mut next_arrival = if st.admission.is_draining() {
            stream.fast_forward(cursor);
            None
        } else {
            stream.fast_forward(cursor - 1);
            stream.next().filter(|a| a.spec.arrival < self.cfg.horizon)
        };
        if !st.admission.is_draining() && next_arrival.is_some() != buffered {
            return Err(RecoveryError::Corrupt {
                line: 0,
                why: "arrival stream does not reproduce the snapshot's buffered arrival"
                    .to_string(),
            });
        }

        let resumed_at = st.now;
        let mut session = WalSession::new(&mut file, suffix);
        self.drive(
            scheduler,
            &mut st,
            &mut stream,
            &mut next_arrival,
            Some(&mut session),
            None, // recovery strips the injected crash
            stop,
            pace,
        )?;
        let stats = RecoveryStats {
            resumed_at,
            replayed: session.replayed(),
        };
        Ok((self.finish(scheduler, st), stats))
    }

    /// The event loop proper, shared by fresh, WAL-logged, and
    /// recovering runs. With a session attached every transition is
    /// logged (verified while the replay suffix lasts, appended after);
    /// wall-clock pacing and the external stop flag are suppressed
    /// during replay — the WAL already knows what happened.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        scheduler: &mut dyn QueueScheduler,
        st: &mut ServeState,
        stream: &mut ArrivalStream,
        next_arrival: &mut Option<OpenArrival>,
        mut session: Option<&mut WalSession<'_>>,
        crash: Option<SchedulerCrash>,
        stop: &AtomicBool,
        pace: Option<std::time::Duration>,
    ) -> Result<(), RecoveryError> {
        let horizon = self.cfg.horizon;
        let deaths = self.death_windows();
        let mut epoch = st.now + self.cfg.decision_interval;
        let mut finished = false;
        // Maintained incrementally at every occupancy transition below;
        // rebuilding from `st` here covers fresh and recovered runs alike.
        let mut idle = IdleGpus::new(&self.cluster, st);

        loop {
            // Next event: arrival (until drain), completion, or epoch.
            let next_completion = st
                .running
                .iter()
                .flatten()
                .map(|r| r.done_at)
                .min()
                .unwrap_or(SimTime::MAX);
            let arrival_t = match (&next_arrival, st.admission.is_draining()) {
                (Some(a), false) => a.spec.arrival,
                _ => SimTime::MAX,
            };

            if arrival_t <= next_completion && arrival_t <= epoch {
                st.now = arrival_t;
                let a = next_arrival.take().expect("arrival_t was finite");
                let id = a.spec.id.0;
                let outcome = st.admission.offer(st.now, TenantId(a.tenant), a.spec);
                wal_log(&mut session, || {
                    format!("arr {id} {}", outcome_code(outcome))
                })?;
                st.depth_max = st.depth_max.max(st.admission.depth());
                *next_arrival = stream.next().filter(|n| n.spec.arrival < horizon);
                continue;
            }
            if next_completion <= epoch {
                st.now = next_completion;
                for (gpu, gpu_deaths) in deaths.iter().enumerate() {
                    if st.running[gpu]
                        .as_ref()
                        .is_some_and(|r| r.done_at == st.now)
                    {
                        let r = st.running[gpu].take().expect("checked is_some");
                        let id = r.job.spec.id.0;
                        if self.cfg.lease.is_some() && dead_during(r.started, st.now, gpu_deaths) {
                            // The worker died mid-service: no completion
                            // happened. Park the job as a zombie; the
                            // lease machinery requeues it.
                            wal_log(&mut session, || {
                                format!("zomb {gpu} {id} {}", st.now.as_micros())
                            })?;
                            st.running[gpu] = Some(Running {
                                done_at: SimTime::MAX,
                                ..r
                            });
                        } else {
                            st.completed += 1;
                            st.jct_sum += st.now.saturating_since(r.job.spec.arrival).as_secs_f64();
                            wal_log(&mut session, || {
                                format!("comp {gpu} {id} {}", st.now.as_micros())
                            })?;
                            // An expired lease would have reclaimed the job
                            // before its completion event, so this GPU is
                            // dispatchable again.
                            idle.insert(gpu);
                        }
                    }
                }
                continue;
            }

            // Decision epoch.
            st.now = epoch;
            epoch += self.cfg.decision_interval;
            st.epoch_index += 1;

            // Injected crash: die at the top of the epoch, leaving the
            // buffered (un-fsynced) WAL tail to be regenerated by
            // recovery — exactly what a real kill loses.
            if let Some(c) = crash {
                if st.epoch_index == c.at_epoch {
                    return Err(RecoveryError::InjectedCrash { at: st.now });
                }
            }

            let replaying = session.as_ref().is_some_and(|s| s.replaying());
            if let Some(d) = pace {
                if !st.admission.is_draining() && !replaying {
                    std::thread::sleep(d);
                }
            }

            'epoch: {
                // Lease maintenance: expiries, rejoins, and jobs whose
                // worker is known to have died under them.
                if let Some(lease) = &self.cfg.lease {
                    for (gpu, gpu_deaths) in deaths.iter().enumerate() {
                        let lh = last_heartbeat(st.now, lease.heartbeat, gpu_deaths)
                            .unwrap_or(SimTime::ZERO);
                        let live = st.now.saturating_since(lh) <= lease.timeout;
                        if st.lease_expired[gpu] {
                            if live {
                                st.lease_expired[gpu] = false;
                                st.lease_rejoins += 1;
                                scheduler.on_gpu_recovery(gpu);
                                wal_log(&mut session, || format!("rejoin {gpu}"))?;
                                // An expired GPU never carries a running
                                // job (expiry reclaimed it), so the rejoin
                                // makes it dispatchable immediately.
                                idle.insert(gpu);
                            }
                        } else if !live {
                            st.lease_expired[gpu] = true;
                            st.lease_expiries += 1;
                            scheduler.on_lease_expired(gpu);
                            wal_log(&mut session, || format!("exp {gpu}"))?;
                            idle.remove(gpu);
                            if let Some(r) = st.running[gpu].take() {
                                requeue_job(st, &mut session, st.now, r.job)?;
                            }
                        }
                        // A revived worker's heartbeat reveals it lost
                        // its job even if the lease never lapsed.
                        let doomed = st.running[gpu].as_ref().is_some_and(|r| {
                            !dead_at(st.now, gpu_deaths)
                                && dead_during(r.started, st.now, gpu_deaths)
                        });
                        if doomed {
                            let r = st.running[gpu].take().expect("checked some");
                            wal_log(&mut session, || format!("wlost {gpu} {}", r.job.spec.id.0))?;
                            requeue_job(st, &mut session, st.now, r.job)?;
                            // The worker is back (not dead now, lease
                            // intact) and its old job is requeued: idle.
                            idle.insert(gpu);
                        }
                    }
                }

                // Drain: an external stop (live only — replay re-learns
                // it from the WAL's own drain record) or arrival
                // exhaustion.
                let stop_now = !replaying && stop.load(Ordering::SeqCst);
                let logged_drain = replaying
                    && session
                        .as_ref()
                        .is_some_and(|s| s.peek_drain_at(st.now.as_micros()));
                let drain_due = stop_now || next_arrival.is_none() || logged_drain;
                if drain_due && !st.admission.is_draining() {
                    st.depth_at_drain = st.admission.depth();
                    st.admission.begin_drain();
                    let q = st.admission.drain_all().len();
                    let p = st.pool.len();
                    st.admission.count_drained(p as u64);
                    st.pool.clear();
                    *next_arrival = None;
                    wal_log(&mut session, || {
                        format!("drain {} {q} {p}", st.now.as_micros())
                    })?;
                }
                if st.admission.is_draining() {
                    if st.running.iter().all(Option::is_none) && st.pool.is_empty() {
                        finished = true;
                    }
                    break 'epoch;
                }

                // Ripened requeues re-enter the fair queue (FIFO).
                let mut i = 0;
                while i < st.pool.len() {
                    if st.pool[i].ready_at <= st.now {
                        let e = st.pool.remove(i);
                        let id = e.job.spec.id.0;
                        let seq = st.admission.readmit(e.job);
                        st.depth_max = st.depth_max.max(st.admission.depth());
                        wal_log(&mut session, || format!("readd {id} {seq}"))?;
                    } else {
                        i += 1;
                    }
                }

                st.admission.poll(st.now);
                st.depth_max = st.depth_max.max(st.admission.depth());
                let c = st.admission.counters();
                wal_log(&mut session, || {
                    format!(
                        "ep {} {} {} {} {} {}",
                        st.epoch_index,
                        st.now.as_micros(),
                        c.offered,
                        c.admitted,
                        c.rejected(),
                        st.admission.depth()
                    )
                })?;

                // Backpressure: depth + recent decision-latency p99 →
                // budget.
                let p99 = if st.recent.is_empty() {
                    0.0
                } else {
                    let mut v = st.recent.clone();
                    v.sort_by(f64::total_cmp);
                    v[((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len()) - 1]
                };
                let before = st.budget.level_idx();
                let frac = st.budget.update(st.admission.depth(), p99);
                if st.budget.level_idx() != before {
                    wal_log(&mut session, || format!("budget {}", st.budget.level_idx()))?;
                }

                if idle.is_empty() || st.admission.depth() == 0 {
                    break 'epoch;
                }

                // Plan over the fair-queue head window.
                let window = st.admission.peek_window(PLAN_WINDOW);
                let window_seqs: Vec<u64> = window.iter().map(|p| p.seq).collect();
                let outcome = scheduler.plan(&window, &self.cluster, frac);
                assert_eq!(
                    outcome.priority.len(),
                    window_seqs.len(),
                    "scheduler must return one priority per window job"
                );
                let latency_secs = outcome.work as f64 * SECS_PER_WORK_UNIT;
                let latency = SimDuration::from_secs_f64(latency_secs);
                st.decisions += 1;
                st.work_total += outcome.work;
                st.latency_hist.record(latency_secs);
                if st.recent.len() < LATENCY_WINDOW {
                    st.recent.push(latency_secs);
                } else {
                    st.recent[st.recent_at] = latency_secs;
                    st.recent_at = (st.recent_at + 1) % LATENCY_WINDOW;
                }
                *st.rung_hits.entry(outcome.rung.to_string()).or_insert(0) += 1;
                wal_log(&mut session, || {
                    format!("plan {} {}", outcome.rung, outcome.work)
                })?;

                // Each job keeps its priority; dispatch by ascending
                // priority (a stable sort: ties in window order), each
                // job onto the idle GPU that serves it fastest. Decision
                // latency is charged up front.
                let mut order: Vec<(f64, u64)> =
                    outcome.priority.iter().copied().zip(window_seqs).collect();
                for &(h, seq) in &order {
                    st.admission.set_priority(seq, h);
                }
                order.sort_by(|a, b| a.0.total_cmp(&b.0));
                for (_, seq) in order {
                    if idle.is_empty() {
                        break;
                    }
                    let job = st
                        .admission
                        .take(seq)
                        .expect("window entries stay live until taken");
                    let gpu = idle
                        .best_for(&job.spec)
                        .expect("idle is non-empty: checked above");
                    idle.remove(gpu);
                    st.wait_hist
                        .record(st.now.saturating_since(job.admitted_at).as_secs_f64());
                    let done_at = st.now + latency + self.service_time(&job.spec, gpu);
                    wal_log(&mut session, || {
                        format!("disp {} {gpu} {}", job.spec.id.0, done_at.as_micros())
                    })?;
                    st.running[gpu] = Some(Running {
                        job,
                        started: st.now,
                        done_at,
                    });
                }
            }

            // Epoch postlude: snapshot (compacting the log) once the
            // records since the last one outweigh it, group-commit
            // otherwise. Both are no-ops during replay.
            if let Some(s) = session.as_deref_mut().filter(|_| !finished) {
                if s.snapshot_due() {
                    let blob = self.encode_snapshot(st, scheduler, stream, next_arrival.is_some());
                    s.snapshot(&blob)?;
                } else {
                    s.commit()?;
                }
            }
            if finished {
                break;
            }
        }

        wal_log(&mut session, || {
            format!("end {} {}", st.now.as_micros(), st.completed)
        })?;
        if let Some(s) = session {
            s.commit()?;
        }
        Ok(())
    }

    /// Build the final report from a drained state.
    fn finish(&self, scheduler: &dyn QueueScheduler, st: ServeState) -> ServeReport {
        let counters = st.admission.counters();
        let elapsed = st.now.as_secs_f64().max(1e-9);
        let decisions_per_sec = st.decisions as f64 / elapsed;
        let mean_jct_secs = if st.completed > 0 {
            st.jct_sum / st.completed as f64
        } else {
            0.0
        };

        let mut metrics = MetricsRegistry::new();
        metrics.add("serve.offered", counters.offered);
        metrics.add("serve.admitted", counters.admitted);
        metrics.add(
            "serve.rejected_rate_limited",
            counters.rejected_rate_limited,
        );
        metrics.add("serve.rejected_queue_full", counters.rejected_queue_full);
        metrics.add("serve.rejected_draining", counters.rejected_draining);
        metrics.add("serve.deferrals", counters.deferrals);
        metrics.add("serve.shed", counters.shed);
        metrics.add("serve.drained", counters.drained);
        metrics.add("serve.readmitted", counters.readmitted);
        metrics.add("serve.completed", st.completed);
        metrics.add("serve.decisions", st.decisions);
        metrics.add("serve.decision_work", st.work_total);
        metrics.add("serve.queue_depth_max", st.depth_max as u64);
        metrics.add("serve.requeued", st.requeued);
        metrics.add("serve.lease_expiries", st.lease_expiries);
        metrics.add("serve.lease_rejoins", st.lease_rejoins);
        metrics.add("serve.lease_lost", st.lease_lost);
        metrics.set_gauge("serve.decisions_per_sec", decisions_per_sec);
        metrics.set_gauge(
            "serve.decision_latency_p50",
            st.latency_hist.quantile(0.5).unwrap_or(0.0),
        );
        metrics.set_gauge(
            "serve.decision_latency_p99",
            st.latency_hist.quantile(0.99).unwrap_or(0.0),
        );
        metrics.set_gauge("serve.min_budget_level", st.budget.min_level());
        metrics.set_gauge("serve.budget_transitions", st.budget.transitions() as f64);
        metrics.set_gauge("serve.mean_jct_secs", mean_jct_secs);
        for (rung, hits) in &st.rung_hits {
            metrics.add(&format!("serve.rung.{rung}"), *hits);
        }
        metrics.insert_histogram("serve.decision_latency_secs", st.latency_hist.clone());
        metrics.insert_histogram("serve.queue_wait_secs", st.wait_hist);

        ServeReport {
            scheme: scheduler.name().to_string(),
            end: st.now,
            counters,
            completed: st.completed,
            decisions: st.decisions,
            decisions_per_sec,
            decision_latency: st.latency_hist,
            rung_hits: st.rung_hits,
            queue_depth_max: st.depth_max,
            queue_depth_at_drain: st.depth_at_drain,
            min_budget_level: st.budget.min_level(),
            budget_transitions: st.budget.transitions(),
            mean_jct_secs,
            requeued: st.requeued,
            lease_expiries: st.lease_expiries,
            lease_rejoins: st.lease_rejoins,
            lease_lost: st.lease_lost,
            metrics,
        }
    }

    /// Encode the complete loop state as the single-line snapshot blob
    /// (the grammar is [`crate::snapshot`]'s).
    fn encode_snapshot(
        &self,
        st: &ServeState,
        scheduler: &dyn QueueScheduler,
        stream: &ArrivalStream,
        buffered: bool,
    ) -> String {
        let sched_state = scheduler.save_state();
        assert!(
            !sched_state.contains([';', '=', ' ', '\n']),
            "scheduler state must avoid the snapshot framing characters"
        );
        let mut w = Writer::default();
        w.section("v").int(SNAPSHOT_VERSION);
        w.section("fp")
            .hex(self.fingerprint(scheduler.name()).into(), 8);
        w.section("now").time(st.now);
        w.section("ei").int(st.epoch_index);
        w.section("cur").int(stream.cursor());
        w.section("buf").int(buffered);
        st.admission.save(w.section("ac"));
        st.budget.save(w.section("bc"));
        w.section("run").list(&st.running, |w, slot| match slot {
            None => w.text("-"),
            Some(r) => r.job.save(w).time(r.started).time(r.done_at),
        });
        w.section("ls").flags(st.lease_expired.iter().copied());
        w.section("pool")
            .list(&st.pool, |w, e| e.job.save(w).time(e.ready_at));
        w.section("lh").hist(&st.latency_hist);
        w.section("wh").hist(&st.wait_hist);
        w.section("rc").list(&st.recent, |w, &v| w.f64(v));
        w.section("ra").int(st.recent_at as u64);
        w.section("ct")
            .int(st.decisions)
            .int(st.completed)
            .f64(st.jct_sum)
            .int(st.depth_max as u64)
            .int(st.depth_at_drain as u64)
            .int(st.work_total)
            .int(st.requeued)
            .int(st.lease_expiries)
            .int(st.lease_rejoins)
            .int(st.lease_lost);
        w.section("rh").list(&st.rung_hits, |w, (rung, &hits)| {
            assert!(
                !rung.contains([':', ',', ';', '=']),
                "rung names must avoid snapshot framing characters"
            );
            w.text(rung).int(hits)
        });
        w.section("ss").text(&sched_state);
        w.finish()
    }

    /// Inverse of [`Self::encode_snapshot`]: restores `scheduler` and
    /// returns `(state, arrival_cursor, arrival_buffered)`.
    fn decode_snapshot(
        &self,
        blob: &str,
        scheduler: &mut dyn QueueScheduler,
    ) -> Result<(ServeState, u64, bool), RecoveryError> {
        let mut r = Reader::new(blob);
        r.section("v", |r| {
            r.int::<u32>("version").filter(|&v| v == SNAPSHOT_VERSION)
        })?;
        let expected = r.section("fp", |r| r.hex("fingerprint", 8))? as u32;
        let got = self.fingerprint(scheduler.name());
        if expected != got {
            return Err(RecoveryError::ConfigMismatch { expected, got });
        }
        let mut st = self.fresh_state();
        st.now = r.section("now", |r| r.time("now"))?;
        st.epoch_index = r.section("ei", |r| r.int("epoch"))?;
        let cursor = r.section("cur", |r| r.int("cursor"))?;
        let buffered = r.section("buf", |r| r.flag("buffered"))?;
        st.admission = r.section("ac", |r| {
            AdmissionController::load(self.cfg.admission.clone(), r)
        })?;
        st.budget = r.section("bc", |r| {
            BudgetController::load(self.cfg.pressure, ASCEND_DWELL, r)
        })?;

        let n_gpus = self.cluster.gpu_count();
        st.running = r.section("run", |r| {
            let slot = |r: &mut Reader| {
                if r.idle() {
                    return Some(None);
                }
                Some(Some(Running {
                    job: PendingJob::load(r)?,
                    started: r.time("started")?,
                    done_at: r.time("done_at")?,
                }))
            };
            r.list(slot).filter(|slots| slots.len() == n_gpus)
        })?;
        st.lease_expired = r.section("ls", |r| r.flags("lease expired", n_gpus))?;
        st.pool = r.section("pool", |r| {
            r.list(|r| {
                Some(PoolEntry {
                    job: PendingJob::load(r)?,
                    ready_at: r.time("ready_at")?,
                })
            })
        })?;
        st.latency_hist = r.section("lh", |r| r.hist(&LATENCY_BUCKETS_SECS))?;
        st.wait_hist = r.section("wh", |r| r.hist(&WAIT_BUCKETS_SECS))?;
        st.recent = r.section("rc", |r| {
            r.list(|r| r.f64("latency"))
                .filter(|v| v.len() <= LATENCY_WINDOW)
        })?;
        // The ring's cursor moves only once the ring is full.
        let ring = st.recent.len();
        let cursor_end = if ring == LATENCY_WINDOW { ring } else { 1 };
        st.recent_at = r.section("ra", |r| r.int("cursor").filter(|&at| at < cursor_end))?;
        r.section("ct", |r| {
            st.decisions = r.int("decisions")?;
            st.completed = r.int("completed")?;
            st.jct_sum = r.f64("jct sum")?;
            st.depth_max = r.int("depth_max")?;
            st.depth_at_drain = r.int("depth_at_drain")?;
            st.work_total = r.int("work_total")?;
            st.requeued = r.int("requeued")?;
            st.lease_expiries = r.int("lease_expiries")?;
            st.lease_rejoins = r.int("lease_rejoins")?;
            st.lease_lost = r.int("lease_lost")?;
            Some(())
        })?;
        let hits = r.section("rh", |r| {
            r.list(|r| Some((r.text("rung")?.to_string(), r.int("hits")?)))
        })?;
        st.rung_hits = hits.into_iter().collect();
        let sched_state = r.section("ss", |r| Some(r.raw()))?;
        r.finish()?;
        scheduler.load_state(sched_state);
        Ok((st, cursor, buffered))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::admission::TokenBucketConfig;
    use crate::faults::SilentWorkerFault;
    use hare_workload::estimate_capacity_jobs_per_sec;
    use std::path::PathBuf;

    /// Trivial FIFO scheduler: dispatch in fair-queue order, flat work.
    struct Fifo;

    impl QueueScheduler for Fifo {
        fn name(&self) -> &'static str {
            "FIFO"
        }
        fn plan(&mut self, window: &[&PendingJob], _cluster: &Cluster, _frac: f64) -> PlanOutcome {
            PlanOutcome {
                priority: (0..window.len()).map(|i| i as f64).collect(),
                work: window.len() as u64 * 10,
                rung: "fifo",
            }
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        // Base 5 s, cap 300 s.
        assert_eq!(requeue_backoff(0), SimDuration::from_secs(5));
        assert_eq!(requeue_backoff(1), SimDuration::from_secs(10));
        assert_eq!(requeue_backoff(3), SimDuration::from_secs(40));
        assert_eq!(requeue_backoff(10), SimDuration::from_secs(300), "capped");
        assert_eq!(
            requeue_backoff(200),
            SimDuration::from_secs(300),
            "no overflow"
        );
    }

    fn config(load: f64, horizon_secs: u64) -> ServeConfig {
        let cluster = Cluster::testbed15();
        let mut arrivals = OpenArrivalConfig {
            load_factor: load,
            seed: 11,
            ..OpenArrivalConfig::default()
        };
        let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
        arrivals.capacity_jobs_per_sec =
            estimate_capacity_jobs_per_sec(&counts, &arrivals, OpenArrivalConfig::CAPACITY_SAMPLES);
        ServeConfig {
            arrivals,
            horizon: SimTime::from_secs(horizon_secs),
            admission: AdmissionConfig {
                queue_capacity: 64,
                bucket: TokenBucketConfig {
                    rate_per_sec: 1.0,
                    burst: 32.0,
                },
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    fn tmp_wal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hare-serve-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn serves_to_drain_and_conserves() {
        let cfg = config(0.7, 2_000);
        let report = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut Fifo);
        assert!(report.completed > 0, "jobs completed");
        assert!(report.counters.conserved(), "{:?}", report.counters);
        assert_eq!(
            report.counters.admitted,
            report.completed + report.counters.drained,
            "admitted jobs either completed or were drained at wind-down"
        );
        assert_eq!(report.counters.shed, 0, "a graceful drain is not overload");
        assert!(report.decisions > 0);
        assert!(report.latency_quantile(0.99).is_some());
        assert!(report.mean_jct_secs > 0.0);
    }

    #[test]
    fn deterministic_byte_identical_reports() {
        let cfg = config(1.3, 1_200);
        let a = ServeLoop::new(Cluster::testbed15(), cfg.clone()).run(&mut Fifo);
        let b = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut Fifo);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert!(serde_json::from_str(&a.to_json()).is_ok());
    }

    #[test]
    fn overload_keeps_the_queue_bounded() {
        let cfg = config(2.5, 3_000);
        let cap = cfg.admission.queue_capacity;
        let report = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut Fifo);
        assert!(report.queue_depth_max <= cap, "bounded queue");
        assert!(
            report.counters.rejected() > 0 || report.counters.drained > 0,
            "overload must reject or leave a drain residue: {:?}",
            report.counters
        );
        assert!(report.counters.conserved());
    }

    #[test]
    fn stop_flag_triggers_a_clean_drain() {
        // A pre-set stop flag: the loop must drain at the first epoch and
        // still produce a valid, conserved report.
        let cfg = config(1.0, 100_000);
        let stop = AtomicBool::new(true);
        let report =
            ServeLoop::new(Cluster::testbed15(), cfg).run_with_stop(&mut Fifo, &stop, None);
        assert!(report.end < SimTime::from_secs(100));
        assert!(report.counters.conserved());
    }

    #[test]
    fn unthrottled_config_never_rejects() {
        let cfg = config(1.5, 1_000).unthrottled();
        let report = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut Fifo);
        assert_eq!(report.counters.rejected(), 0);
        assert_eq!(report.counters.deferrals, 0);
        assert_eq!(report.min_budget_level, 1.0, "no brownout when disabled");
        assert!(report.counters.conserved());
    }

    #[test]
    fn wal_run_matches_plain_run() {
        let cfg = config(1.2, 1_500);
        let golden = ServeLoop::new(Cluster::testbed15(), cfg.clone()).run(&mut Fifo);
        let path = tmp_wal("match");
        let stop = AtomicBool::new(false);
        let wal = WalOptions::new(&path);
        let report = ServeLoop::new(Cluster::testbed15(), cfg)
            .run_with_wal(&mut Fifo, &wal, &stop, None)
            .unwrap();
        assert_eq!(report, golden, "journaling must not perturb the run");
        assert_eq!(report.to_json(), golden.to_json());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_and_recover_is_byte_identical() {
        let cfg = config(1.2, 1_500);
        let golden = ServeLoop::new(Cluster::testbed15(), cfg.clone()).run(&mut Fifo);
        for at_epoch in [1, 7, 40, 220] {
            let mut cfg = cfg.clone();
            cfg.faults.crash = Some(SchedulerCrash { at_epoch });
            let path = tmp_wal(&format!("crash-{at_epoch}"));
            let wal = WalOptions::new(&path);
            let stop = AtomicBool::new(false);
            let loop_ = ServeLoop::new(Cluster::testbed15(), cfg);
            let err = loop_
                .run_with_wal(&mut Fifo, &wal, &stop, None)
                .expect_err("crash fires");
            assert!(matches!(err, RecoveryError::InjectedCrash { .. }), "{err}");
            let (report, stats) = loop_.recover(&mut Fifo, &wal, &stop, None).unwrap();
            assert_eq!(report, golden, "crash at epoch {at_epoch}");
            assert_eq!(report.to_json(), golden.to_json());
            assert!(stats.resumed_at <= SimTime::from_micros(err.crash_instant()));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn the_log_after_the_last_snapshot_is_smaller_than_the_snapshot() {
        // The size rule's replay bound: whichever epoch the run dies in,
        // the committed records after the last `snap` line weigh fewer
        // bytes than that line, so recovery reads at most one snapshot's
        // worth of suffix.
        for at_epoch in [3, 20, 57, 111, 222, 290] {
            let mut cfg = config(1.2, 1_500);
            cfg.faults.crash = Some(SchedulerCrash { at_epoch });
            let path = tmp_wal(&format!("bound-{at_epoch}"));
            let err = ServeLoop::new(Cluster::testbed15(), cfg)
                .run_with_wal(
                    &mut Fifo,
                    &WalOptions::new(&path),
                    &AtomicBool::new(false),
                    None,
                )
                .expect_err("crash fires");
            assert!(matches!(err, RecoveryError::InjectedCrash { .. }), "{err}");
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            let snap = lines
                .iter()
                .rposition(|line| line[9..].starts_with("snap "))
                .expect("the WAL holds a snapshot");
            let suffix: usize = lines[snap + 1..].iter().map(|line| line.len()).sum();
            assert!(
                suffix < lines[snap].len(),
                "crash at epoch {at_epoch}: {suffix} bytes of records after a {}-byte snapshot",
                lines[snap].len()
            );
        }
    }

    impl RecoveryError {
        fn crash_instant(&self) -> u64 {
            match self {
                RecoveryError::InjectedCrash { at } => at.as_micros(),
                other => panic!("expected InjectedCrash, got {other}"),
            }
        }
    }

    #[test]
    fn recovering_a_completed_wal_replays_to_the_same_report() {
        let cfg = config(0.9, 1_000);
        let path = tmp_wal("completed");
        let wal = WalOptions::new(&path);
        let stop = AtomicBool::new(false);
        let loop_ = ServeLoop::new(Cluster::testbed15(), cfg);
        let report = loop_.run_with_wal(&mut Fifo, &wal, &stop, None).unwrap();
        let (recovered, stats) = loop_.recover(&mut Fifo, &wal, &stop, None).unwrap();
        assert_eq!(recovered, report);
        assert!(stats.replayed > 0, "the whole suffix replays");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_rejects_a_changed_config() {
        let cfg = config(1.0, 800);
        let path = tmp_wal("fingerprint");
        let wal = WalOptions::new(&path);
        let stop = AtomicBool::new(false);
        ServeLoop::new(Cluster::testbed15(), cfg.clone())
            .run_with_wal(&mut Fifo, &wal, &stop, None)
            .unwrap();
        let mut other = cfg;
        other.horizon += SimDuration::from_secs(1);
        let err = ServeLoop::new(Cluster::testbed15(), other)
            .recover(&mut Fifo, &wal, &stop, None)
            .expect_err("fingerprint mismatch");
        assert!(matches!(err, RecoveryError::ConfigMismatch { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn silent_death_expires_the_lease_and_requeues_work() {
        let mut cfg = config(1.5, 2_500);
        cfg.lease = Some(LeaseConfig::default());
        // Every worker goes silent mid-run and revives later: whatever
        // was in flight at the blackout must requeue and finish after.
        cfg.faults.silent_workers = (0..Cluster::testbed15().gpu_count())
            .map(|gpu| SilentWorkerFault {
                gpu,
                from: SimTime::from_secs(600),
                until: Some(SimTime::from_secs(900)),
            })
            .collect();
        let report = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut Fifo);
        assert!(report.lease_expiries >= 2, "deaths detected");
        assert!(report.lease_rejoins >= 1, "workers rejoin after revival");
        assert!(report.requeued > 0, "in-flight work requeued");
        assert!(
            report.counters.readmitted > 0,
            "requeues re-entered the queue"
        );
        assert!(report.counters.conserved());
        assert_eq!(
            report.counters.admitted,
            report.completed + report.counters.drained + report.counters.shed + report.lease_lost,
            "lease accounting closes the conservation identity: {report:?}"
        );
    }

    #[test]
    fn crash_recovery_with_leases_and_silent_faults() {
        let mut cfg = config(0.8, 1_500);
        cfg.lease = Some(LeaseConfig::default());
        cfg.faults.silent_workers = vec![SilentWorkerFault {
            gpu: 1,
            from: SimTime::from_secs(60),
            until: Some(SimTime::from_secs(500)),
        }];
        let golden = ServeLoop::new(Cluster::testbed15(), cfg.clone()).run(&mut Fifo);
        let mut crash_cfg = cfg;
        crash_cfg.faults.crash = Some(SchedulerCrash { at_epoch: 25 });
        let path = tmp_wal("lease-crash");
        let wal = WalOptions::new(&path);
        let stop = AtomicBool::new(false);
        let loop_ = ServeLoop::new(Cluster::testbed15(), crash_cfg);
        loop_
            .run_with_wal(&mut Fifo, &wal, &stop, None)
            .expect_err("crash fires");
        let (report, _) = loop_.recover(&mut Fifo, &wal, &stop, None).unwrap();
        assert_eq!(report, golden);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_round_trips_mid_run_state() {
        // Encode/decode identity on a non-trivial mid-run state, checked
        // indirectly: crash exactly between snapshots so recovery must
        // decode a snapshot with running jobs, a busy queue, and recent
        // latencies, then verify a long replay suffix.
        let cfg = config(1.6, 1_200);
        let golden = ServeLoop::new(Cluster::testbed15(), cfg.clone()).run(&mut Fifo);
        let mut cfg = cfg;
        cfg.faults.crash = Some(SchedulerCrash { at_epoch: 40 });
        let path = tmp_wal("roundtrip");
        let wal = WalOptions::new(&path);
        let stop = AtomicBool::new(false);
        let loop_ = ServeLoop::new(Cluster::testbed15(), cfg);
        loop_
            .run_with_wal(&mut Fifo, &wal, &stop, None)
            .expect_err("crash fires");
        let (report, stats) = loop_.recover(&mut Fifo, &wal, &stop, None).unwrap();
        assert_eq!(report, golden);
        assert!(stats.replayed > 0, "suffix was verified, not skipped");
        std::fs::remove_file(&path).unwrap();
    }
}
