//! Chaos test: kill the *real* serve stack at an arbitrary epoch and
//! recover. The scenario is the full production configuration — the
//! [`LadderServe`] anytime scheduler (whose stale-plan seeds are the
//! priorities the queued, running and requeued jobs carry through the
//! snapshot), lease-based liveness, a transient cluster blackout
//! plus a permanent worker death — and the property is the tentpole
//! acceptance: for *every* sampled crash epoch, wherever the size rule
//! left the last snapshot before it, the recovered
//! [`hare_sim::ServeReport`] equals the uncrashed golden run
//! byte-for-byte, including its JSON rendering.

#![allow(clippy::unwrap_used)]

use hare_baselines::LadderServe;
use hare_cluster::{Cluster, SimTime};
use hare_sim::{
    RecoveryError, SchedulerCrash, ServeConfig, ServeLoop, SilentWorkerFault, WalOptions,
};
use hare_workload::{estimate_capacity_jobs_per_sec, OpenArrivalConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn tmp_wal() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("hare-serve-chaos-{}-{n}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Overloaded arrivals on the heterogeneous testbed with leases on and
/// two fault shapes: every worker silent for [400 s, 800 s) (expiry →
/// requeue → rejoin) and GPU 9 dead for good from 1200 s.
fn config() -> ServeConfig {
    let cluster = Cluster::testbed15();
    let mut arrivals = OpenArrivalConfig {
        load_factor: 1.4,
        seed: 5,
        ..OpenArrivalConfig::default()
    };
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    arrivals.capacity_jobs_per_sec =
        estimate_capacity_jobs_per_sec(&counts, &arrivals, OpenArrivalConfig::CAPACITY_SAMPLES);
    let mut cfg = ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(1_600),
        lease: Some(hare_sim::LeaseConfig::default()),
        ..ServeConfig::default()
    };
    cfg.faults.silent_workers = (0..cluster.gpu_count())
        .map(|gpu| SilentWorkerFault {
            gpu,
            from: SimTime::from_secs(400),
            until: Some(SimTime::from_secs(800)),
        })
        .chain(std::iter::once(SilentWorkerFault {
            gpu: 9,
            from: SimTime::from_secs(1_200),
            until: None,
        }))
        .collect();
    cfg
}

/// The golden (uncrashed) run, computed once per process.
fn golden() -> &'static (hare_sim::ServeReport, String) {
    static GOLDEN: std::sync::OnceLock<(hare_sim::ServeReport, String)> =
        std::sync::OnceLock::new();
    GOLDEN.get_or_init(|| {
        let report = ServeLoop::new(Cluster::testbed15(), config()).run(&mut LadderServe::new());
        assert!(report.lease_expiries > 0, "scenario must exercise leases");
        let json = report.to_json();
        (report, json)
    })
}

proptest::proptest! {
    // Each case is two full simulations against a shared golden.
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn recovery_matches_golden_at_an_arbitrary_crash_epoch(
        crash_epoch in 1u64..340,
    ) {
        let (golden, golden_json) = golden();
        let mut cfg = config();
        cfg.faults.crash = Some(SchedulerCrash { at_epoch: crash_epoch });
        let path = tmp_wal();
        let wal = WalOptions::new(&path);
        let stop = AtomicBool::new(false);
        let serve = ServeLoop::new(Cluster::testbed15(), cfg);
        match serve.run_with_wal(&mut LadderServe::new(), &wal, &stop, None) {
            Ok(report) => prop_assert_eq!(&report, golden), // drained first
            Err(RecoveryError::InjectedCrash { .. }) => {}
            Err(e) => panic!("WAL run failed: {e}"),
        }
        let (recovered, stats) = serve
            .recover(&mut LadderServe::new(), &wal, &stop, None)
            .unwrap_or_else(|e| panic!("recovery failed: {e}"));
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(&recovered, golden);
        prop_assert_eq!(recovered.to_json(), golden_json.as_str());
        prop_assert!(stats.resumed_at <= recovered.end);
    }
}
