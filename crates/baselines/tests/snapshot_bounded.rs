//! The crash snapshot holds the live system, not the jobs served.
//!
//! A WAL'd [`LadderServe`] run below capacity, with leases, is crashed
//! once early and once ten times later, and the last `snap` record before
//! each crash is compared. The queue and the running set are about the
//! same size at both instants, so the later snapshot must be too: a
//! snapshot that kept something per job ever planned would grow with the
//! run.

#![allow(clippy::unwrap_used)]

use hare_baselines::LadderServe;
use hare_cluster::{Cluster, SimTime};
use hare_sim::{LeaseConfig, RecoveryError, SchedulerCrash, ServeConfig, ServeLoop, WalOptions};
use hare_workload::{estimate_capacity_jobs_per_sec, OpenArrivalConfig};
use std::sync::atomic::AtomicBool;

/// The last snapshot of a run of `horizon_secs` at load 0.8 on the
/// testbed, crashed at `epoch`.
fn snapshot_before(epoch: u64, horizon_secs: u64) -> String {
    let cluster = Cluster::testbed15();
    let mut arrivals = OpenArrivalConfig {
        load_factor: 0.8,
        seed: 7,
        ..OpenArrivalConfig::default()
    };
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    arrivals.capacity_jobs_per_sec =
        estimate_capacity_jobs_per_sec(&counts, &arrivals, OpenArrivalConfig::CAPACITY_SAMPLES);
    let mut cfg = ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(horizon_secs),
        lease: Some(LeaseConfig::default()),
        ..ServeConfig::default()
    };
    cfg.faults.crash = Some(SchedulerCrash { at_epoch: epoch });

    let mut path = std::env::temp_dir();
    path.push(format!(
        "hare-snapshot-bounded-{epoch}-{}.wal",
        std::process::id()
    ));
    let wal = WalOptions::new(&path);
    let err = ServeLoop::new(cluster, cfg)
        .run_with_wal(&mut LadderServe::new(), &wal, &AtomicBool::new(false), None)
        .expect_err("the injected crash fires before the drain");
    assert!(matches!(err, RecoveryError::InjectedCrash { .. }), "{err}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    text.lines()
        .filter_map(|line| line.split_once(' ')?.1.strip_prefix("snap "))
        .next_back()
        .expect("the WAL holds a snapshot")
        .to_string()
}

#[test]
fn the_snapshot_is_bounded_by_live_state_not_by_jobs_served() {
    let short = snapshot_before(900, 5_000).len();
    let long = snapshot_before(9_000, 50_000).len();
    assert!(
        long <= 2 * short,
        "the snapshot grew from {short} bytes at epoch 900 to {long} at epoch 9,000"
    );
}
