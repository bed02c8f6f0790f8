//! `hare serve` — the continuous-service mode against an open arrival
//! stream, with overload control and graceful SIGTERM drain.
//!
//! The command runs [`hare_sim::ServeLoop`] on a live (optionally
//! wall-clock-paced) simulation: open arrivals pass admission control,
//! a queue scheduler plans at every decision epoch under the brownout
//! controller's budget, and SIGTERM/SIGINT trigger a graceful drain —
//! admission stops, the pending queue is shed, in-flight jobs finish,
//! the journal and the final JSON report are flushed, and the process
//! exits 0. That drain path is exercised by the CI smoke step.
//!
//! With `--wal FILE` every state transition is write-ahead logged (and
//! compacted into a snapshot once the records since the last one
//! outweigh it), so a crash — injected via `--crash-at N` or a real
//! SIGKILL — leaves a log that `--recover` resumes from
//! deterministically: the recovered report is byte-identical to an
//! uninterrupted run (DESIGN.md §13). The CI kill-and-recover step diffs
//! exactly that. `--lease-timeout S` turns on lease-based GPU liveness:
//! silently-dead workers are detected by missed heartbeats and their
//! in-flight jobs requeued with backoff.

use crate::args::Options;
use hare_baselines::{LadderServe, SrtfServe};
use hare_cluster::{SimDuration, SimTime};
use hare_experiments::Journal;
use hare_sim::{
    LeaseConfig, QueueScheduler, RecoveryError, SchedulerCrash, ServeConfig, ServeLoop,
    ServeReport, WalOptions,
};
use hare_workload::{estimate_capacity_jobs_per_sec, ArrivalProcess, OpenArrivalConfig};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; checked by the serve loop at every epoch.
static STOP: AtomicBool = AtomicBool::new(false);

/// Route SIGTERM and SIGINT to a graceful drain instead of sudden death.
/// Raw `signal(2)` via the C runtime — no external crates; storing to an
/// atomic is async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Parse `--process poisson|bursty|diurnal` with the sweep's canonical
/// shape parameters.
fn process(opts: &Options) -> Result<ArrivalProcess, String> {
    match opts.get("process", "poisson") {
        "poisson" => Ok(ArrivalProcess::Poisson),
        "bursty" => Ok(ArrivalProcess::Bursty {
            on_fraction: 0.25,
            boost: 3.0,
            mean_cycle: SimDuration::from_secs(600),
        }),
        "diurnal" => Ok(ArrivalProcess::Diurnal {
            period: SimDuration::from_secs(3600),
            amplitude: 0.9,
        }),
        other => Err(format!("unknown arrival process {other:?}")),
    }
}

/// Highest offered arrival rate `hare serve` accepts: one job per
/// microsecond of simulated time.
const MAX_OFFERED_JOBS_PER_SEC: f64 = 1e6;

/// Build the serve configuration from the command line.
fn config(opts: &Options) -> Result<ServeConfig, String> {
    let cluster = opts.cluster()?;
    let load: f64 = opts.num("load", 0.8)?;
    if !(load > 0.0 && load.is_finite()) {
        return Err("--load must be positive".into());
    }
    let seed: u64 = opts.num("seed", 1)?;
    let horizon_secs: u64 = if opts.has("smoke") {
        600
    } else {
        opts.num("horizon", 3_600)?
    };
    if horizon_secs == 0 {
        return Err("--horizon must be positive".into());
    }
    let mut arrivals = OpenArrivalConfig {
        process: process(opts)?,
        load_factor: load,
        mix: opts.mix()?,
        seed,
        ..OpenArrivalConfig::default()
    };
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    arrivals.capacity_jobs_per_sec = estimate_capacity_jobs_per_sec(&counts, &arrivals, 256);
    // Above this offered rate the mean inter-arrival gap falls below the
    // simulator's 1 µs clock: gaps round to zero and simulated time never
    // reaches the next decision epoch.
    let rate = arrivals.rate_jobs_per_sec();
    if rate > MAX_OFFERED_JOBS_PER_SEC {
        return Err(format!(
            "--load {} offers {rate:.3e} jobs/s, above the simulator's limit of {MAX_OFFERED_JOBS_PER_SEC:.0e} jobs/s (1 µs clock)",
            opts.get("load", "")
        ));
    }
    let mut cfg = ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(horizon_secs),
        ..ServeConfig::default()
    };
    if opts.has("unthrottled") {
        cfg = cfg.unthrottled();
    }
    if opts.has("lease-timeout") {
        let timeout: u64 = opts.num("lease-timeout", 60)?;
        if timeout == 0 {
            return Err("--lease-timeout must be positive".into());
        }
        let lease = LeaseConfig {
            heartbeat: SimDuration::from_secs(opts.num("heartbeat", 10)?),
            timeout: SimDuration::from_secs(timeout),
        };
        lease.validate()?;
        cfg.lease = Some(lease);
    } else if opts.has("heartbeat") {
        return Err("--heartbeat needs --lease-timeout (leases are off without it)".into());
    }
    if opts.has("crash-at") {
        let at_epoch: u64 = opts.num("crash-at", 0)?;
        if at_epoch == 0 {
            return Err("--crash-at must be a decision epoch >= 1".into());
        }
        cfg.faults.crash = Some(SchedulerCrash { at_epoch });
    }
    Ok(cfg)
}

/// Human-readable run summary (the JSON carries the full registry).
fn print_summary(report: &ServeReport, stopped: bool) {
    let c = &report.counters;
    println!(
        "serve [{}]: drained at {} ({})",
        report.scheme,
        report.end,
        if stopped { "signal" } else { "horizon" }
    );
    println!(
        "  offered {}  admitted {}  rejected {}  deferred {}  drained {}  shed {}  completed {}",
        c.offered,
        c.admitted,
        c.rejected(),
        c.deferrals,
        c.drained,
        c.shed,
        report.completed
    );
    if report.requeued + report.lease_expiries + report.lease_rejoins + report.lease_lost > 0 {
        println!(
            "  leases: {} expiries  {} rejoins  {} requeues  {} jobs lost",
            report.lease_expiries, report.lease_rejoins, report.requeued, report.lease_lost
        );
    }
    println!(
        "  decisions {}  ({:.4}/s)  latency p50 {:.3}s  p99 {:.3}s",
        report.decisions,
        report.decisions_per_sec,
        report.latency_quantile(0.5).unwrap_or(0.0),
        report.latency_quantile(0.99).unwrap_or(0.0),
    );
    let rungs: Vec<String> = report
        .rung_hits
        .iter()
        .map(|(r, n)| format!("{r}:{n}"))
        .collect();
    println!(
        "  queue max {}  queued-at-drain {}  min budget {:.2}  rungs [{}]",
        report.queue_depth_max,
        report.queue_depth_at_drain,
        report.min_budget_level,
        rungs.join(" ")
    );
    if !c.conserved() {
        // Cannot happen (property-tested); keep the loud check anyway.
        eprintln!("warning: admission conservation violated: {c:?}");
    }
}

/// Print the cells of a serve journal and exit.
fn replay_journal(path: &str) -> Result<(), String> {
    let journal = Journal::open(path).map_err(|e| format!("cannot open journal {path:?}: {e}"))?;
    println!("journal {path}: {} completed cell(s)", journal.len());
    Ok(())
}

/// The flags `hare serve` reads.
pub const FLAGS: &str = "cluster bandwidth mix seed load process horizon smoke unthrottled \
    scheduler pace-ms journal replay-journal out wal recover crash-at lease-timeout heartbeat";

/// Entry point for `hare serve`.
pub fn serve(opts: &Options) -> Result<(), String> {
    if opts.has("replay-journal") {
        return replay_journal(opts.get("replay-journal", ""));
    }
    let cfg = config(opts)?;
    let cluster = opts.cluster()?;
    let seed: u64 = opts.num("seed", 1)?;
    let pace_ms: u64 = opts.num("pace-ms", 0)?;
    let pace = (pace_ms > 0).then(|| std::time::Duration::from_millis(pace_ms));
    let wal_path = opts.get("wal", "").to_string();
    let recover = opts.has("recover");
    if recover && wal_path.is_empty() {
        return Err("--recover needs --wal FILE (the log to recover from)".into());
    }
    if opts.has("crash-at") && wal_path.is_empty() {
        return Err("--crash-at needs --wal FILE (a crash without a WAL is unrecoverable)".into());
    }
    install_signal_handlers();

    let mut ladder;
    let mut srtf;
    let scheduler: &mut dyn QueueScheduler = match opts.get("scheduler", "ladder") {
        "ladder" => {
            ladder = LadderServe::new();
            &mut ladder
        }
        "srtf" => {
            srtf = SrtfServe::new();
            &mut srtf
        }
        other => return Err(format!("unknown scheduler {other:?}")),
    };

    eprintln!(
        "serving load {:.2} ({:.4} jobs/s offered) on {} GPUs; horizon {}; \
         SIGTERM/SIGINT drain gracefully",
        cfg.arrivals.load_factor,
        cfg.arrivals.rate_jobs_per_sec(),
        cluster.gpu_count(),
        cfg.horizon,
    );
    let serve_loop = ServeLoop::new(cluster, cfg);
    let report = if wal_path.is_empty() {
        serve_loop.run_with_stop(scheduler, &STOP, pace)
    } else {
        let wal = WalOptions::new(&wal_path);
        if recover {
            let (report, stats) = serve_loop
                .recover(scheduler, &wal, &STOP, pace)
                .map_err(|e| format!("recovery from {wal_path:?} failed: {e}"))?;
            eprintln!(
                "recovered from {wal_path}: resumed at {}, {} WAL record(s) replayed",
                stats.resumed_at, stats.replayed
            );
            report
        } else {
            match serve_loop.run_with_wal(scheduler, &wal, &STOP, pace) {
                Ok(report) => report,
                Err(e @ RecoveryError::InjectedCrash { .. }) => {
                    return Err(format!(
                        "{e}; the WAL at {wal_path:?} is ready for --recover"
                    ));
                }
                Err(e) => return Err(format!("serve with WAL {wal_path:?} failed: {e}")),
            }
        }
    };
    let stopped = STOP.load(Ordering::SeqCst);
    print_summary(&report, stopped);

    // Flush the final cell durably before exiting: key by configuration
    // so a later identical run can find (or audit) this result.
    if opts.has("journal") {
        let path = opts.get("journal", "");
        if path.is_empty() {
            return Err("--journal needs a file path".into());
        }
        let mut journal =
            Journal::open(path).map_err(|e| format!("cannot open journal {path:?}: {e}"))?;
        let scenario = format!(
            "serve load={:.2} process={} {}",
            opts.num::<f64>("load", 0.8)?,
            opts.get("process", "poisson"),
            if stopped { "sigterm" } else { "horizon" }
        );
        let note = format!(
            "completed={} shed={} rejected={} p99={:.3}",
            report.completed,
            report.counters.shed,
            report.counters.rejected(),
            report.latency_quantile(0.99).unwrap_or(0.0)
        );
        journal
            .record(
                &Journal::key(&report.scheme, &scenario, seed),
                report.mean_jct_secs,
                &note,
            )
            .map_err(|e| format!("cannot write journal {path:?}: {e}"))?;
    }

    let json = report.to_json();
    let out = opts.get("out", "");
    if out.is_empty() {
        println!("{json}");
    } else {
        std::fs::write(out, &json).map_err(|e| format!("cannot write {out:?}: {e}"))?;
        println!("wrote report JSON to {out}");
    }
    Ok(())
}
