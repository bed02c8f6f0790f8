//! `serve_wal`: the continuous-service loop with write-ahead logging.
//! `LadderServe` serves a bursty open-loop arrival stream at about twice
//! the calibrated capacity of a high-heterogeneity cluster, with the WAL
//! and periodic snapshots on. A scheduler crash is injected late in the
//! horizon and `ServeLoop::recover` runs on to the end.

use crate::spans::Ctx;
use crate::workload::{derive_seed, PassOut, Workload};
use crate::wrap::TimedSched;
use hare_baselines::LadderServe;
use hare_cluster::{Cluster, Heterogeneity, SimDuration, SimTime};
use hare_sim::{RecoveryError, SchedulerCrash, ServeConfig, ServeLoop, ServeReport, WalOptions};
use hare_workload::{ArrivalProcess, OpenArrivalConfig};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

/// GPUs in the cluster.
const GPUS: u32 = 256;
/// Arrivals stop at this simulated second, then the queue drains.
const HORIZON_SECS: u64 = 40_000;
/// Decision epoch. Every epoch with a transition ends in an fsync'd group
/// commit; 30 s epochs (the loop's default is 5 s) keep fsync latency,
/// which the host varies widely, a minority of the pass.
const EPOCH_SECS: u64 = 30;
/// Offered load over calibrated capacity.
const LOAD: f64 = 2.0;
/// Tenants' summed token rate over calibrated capacity.
const BUCKET: f64 = 2.0;
/// The crash lands at this share of the horizon's decision epochs.
const CRASH_AT: f64 = 0.8;

static NEVER: AtomicBool = AtomicBool::new(false);

pub struct ServeWal {
    crashing: ServeLoop,
    plain: ServeLoop,
    wal: WalOptions,
    /// `to_json` of the uncrashed run, computed once.
    reference: Option<String>,
}

impl ServeWal {
    pub fn setup(seed: u64, out_dir: &str) -> ServeWal {
        let cluster = Cluster::with_heterogeneity(Heterogeneity::High, GPUS);
        let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
        let arrivals = OpenArrivalConfig {
            process: ArrivalProcess::Bursty {
                on_fraction: 0.25,
                boost: 3.0,
                mean_cycle: SimDuration::from_secs(600),
            },
            load_factor: LOAD,
            seed: derive_seed(seed, 21),
            ..OpenArrivalConfig::default()
        }
        .calibrated(&counts);
        let mut cfg = ServeConfig {
            arrivals,
            horizon: SimTime::from_secs(HORIZON_SECS),
            decision_interval: SimDuration::from_secs(EPOCH_SECS),
            ..ServeConfig::default()
        };
        // Tenant quotas sized so admission, not the token bucket alone,
        // bounds the queue: bursts then fill windows past the exact
        // rung's limit and the relaxation rung runs too.
        cfg.admission.bucket.rate_per_sec =
            BUCKET * arrivals.capacity_jobs_per_sec / arrivals.n_tenants as f64;
        cfg.admission.bucket.burst = 32.0;
        let epochs = HORIZON_SECS / EPOCH_SECS;
        let mut crash_cfg = cfg.clone();
        crash_cfg.faults.crash = Some(SchedulerCrash {
            at_epoch: (epochs as f64 * CRASH_AT) as u64,
        });
        let mut path = PathBuf::from(out_dir);
        path.push(format!("serve-{}.wal", std::process::id()));
        ServeWal {
            crashing: ServeLoop::new(cluster.clone(), crash_cfg),
            plain: ServeLoop::new(cluster, cfg),
            wal: WalOptions::new(path),
            reference: None,
        }
    }

    fn reference(&mut self) -> &str {
        let plain = &self.plain;
        self.reference
            .get_or_insert_with(|| plain.run(&mut LadderServe::new()).to_json())
    }
}

impl Workload for ServeWal {
    fn pass(&mut self, ctx: &Ctx, check: bool) -> PassOut {
        let mut out = PassOut::default();
        let mut first = TimedSched::new(LadderServe::new());
        let crashed = ctx.span("serve.run_with_wal", || {
            let r = self
                .crashing
                .run_with_wal(&mut first, &self.wal, &NEVER, None);
            rollup_plans(ctx, &first);
            r
        });
        match crashed {
            Err(RecoveryError::InjectedCrash { .. }) => {}
            Ok(_) => out
                .failures
                .push("the horizon drained before the injected crash".into()),
            Err(e) => {
                out.failures.push(format!("WAL run failed: {e}"));
                return out;
            }
        }
        let wal_bytes = std::fs::metadata(&self.wal.path).map_or(0, |m| m.len());
        let mut second = TimedSched::new(LadderServe::new());
        let t = std::time::Instant::now();
        let recovered = ctx.span("recovery.recover", || {
            let r = self.crashing.recover(&mut second, &self.wal, &NEVER, None);
            rollup_plans(ctx, &second);
            r
        });
        out.recover_s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&self.wal.path);
        let (report, stats) = match recovered {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(format!("recovery failed: {e}"));
                return out;
            }
        };
        if ctx.traced() {
            let plain = &self.plain;
            let reference = ctx.probe("serve.run", || plain.run(&mut LadderServe::new()));
            self.reference.get_or_insert_with(|| reference.to_json());
        }
        if check {
            ctx.exclude(|| {
                if !report.counters.conserved() {
                    out.failures.push("admission counters not conserved".into());
                }
                if report.to_json() != self.reference() {
                    out.failures
                        .push("recovered report differs from the uncrashed run".into());
                }
            });
        }
        out.plans = first.samples;
        out.plans.extend(second.samples);
        fill(&mut out, &report);
        out.count("recovery.replayed", stats.replayed);
        out.count("recovery.wal_bytes", wal_bytes);
        out
    }
}

/// Fold a scheduler's timed plans into the open span, one rollup per rung.
fn rollup_plans(ctx: &Ctx, sched: &TimedSched<LadderServe>) {
    let mut by_rung: std::collections::BTreeMap<&str, (f64, u64)> = Default::default();
    for s in &sched.samples {
        let e = by_rung.entry(s.rung).or_insert((0.0, 0));
        e.0 += s.ms / 1e3;
        e.1 += 1;
    }
    for (rung, (secs, calls)) in by_rung {
        ctx.rollup(&format!("plan.{rung}"), secs, calls);
    }
}

/// Quality figures and deterministic counters from the recovered report.
fn fill(out: &mut PassOut, r: &ServeReport) {
    let c = &r.counters;
    out.offered = c.offered;
    out.completed = r.completed;
    out.mean_jct_s = r.mean_jct_secs;
    out.makespan_s = r.end.as_secs_f64();
    for (rung, hits) in &r.rung_hits {
        out.count(&format!("core.rung_hits.{rung}"), *hits);
    }
    let work: u64 = out.plans.iter().map(|p| p.work).sum();
    out.count("core.plan_work", work);
    out.count("serve.decisions", r.decisions);
    out.count("serve.plan_calls", out.plans.len() as u64);
    out.count("jobs.completed", r.completed);
    out.count("admission.offered", c.offered);
    out.count("admission.admitted", c.admitted);
    out.count(
        "admission.rejected",
        c.rejected_rate_limited + c.rejected_queue_full + c.rejected_draining,
    );
    out.count("admission.shed", c.shed);
    out.count("admission.queue_depth_max", r.queue_depth_max as u64);
    out.count_f64("quality.mean_jct_s", r.mean_jct_secs);
}
