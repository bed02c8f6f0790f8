//! Property test: crash recovery is byte-exact under *random* serve
//! configurations. For arbitrary load, horizon, crash epoch, lease
//! setting, and arrival seed, a run that crashes at the
//! injected epoch and is then recovered from its WAL must produce a
//! [`ServeReport`] equal — down to the JSON rendering — to the same
//! configuration run without any crash. The scheduler under test is
//! deliberately *stateful* (its dispatch order depends on a counter that
//! only survives through `save_state`/`load_state`), so a broken
//! scheduler-state round-trip shows up as divergence, not silence.

#![allow(clippy::unwrap_used)]

use hare_cluster::{Cluster, SimTime};
use hare_sim::{
    LeaseConfig, PendingJob, PlanOutcome, QueueScheduler, RecoveryError, SchedulerCrash,
    ServeConfig, ServeLoop, SilentWorkerFault, WalOptions,
};
use hare_workload::{estimate_capacity_jobs_per_sec, OpenArrivalConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A stateful scheduler: every plan rotates the dispatch order by a
/// persistent counter (window job `shift` first), so two runs agree only
/// if that counter is carried across the crash by the snapshot's
/// scheduler-state section.
#[derive(Default)]
struct Rotor {
    turns: u64,
}

impl QueueScheduler for Rotor {
    fn name(&self) -> &'static str {
        "Rotor"
    }

    fn plan(&mut self, window: &[&PendingJob], _cluster: &Cluster, _frac: f64) -> PlanOutcome {
        self.turns += 1;
        let n = window.len();
        let shift = (self.turns as usize) % n;
        PlanOutcome {
            priority: (0..n).map(|j| ((j + n - shift) % n) as f64).collect(),
            work: 10 * n as u64 + self.turns % 7,
            rung: "rotor",
        }
    }

    fn save_state(&self) -> String {
        self.turns.to_string()
    }

    fn load_state(&mut self, state: &str) {
        self.turns = state.parse().expect("rotor snapshot state");
    }
}

/// A fresh WAL path per proptest case (cases run in one process).
fn tmp_wal() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("hare-recovery-prop-{}-{n}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn config(load: f64, horizon_secs: u64, seed: u64, leases: bool) -> ServeConfig {
    let cluster = Cluster::testbed15();
    let mut arrivals = OpenArrivalConfig {
        load_factor: load,
        seed,
        ..OpenArrivalConfig::default()
    };
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    arrivals.capacity_jobs_per_sec =
        estimate_capacity_jobs_per_sec(&counts, &arrivals, OpenArrivalConfig::CAPACITY_SAMPLES);
    let mut cfg = ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(horizon_secs),
        ..ServeConfig::default()
    };
    if leases {
        cfg.lease = Some(LeaseConfig::default());
        // A cluster-wide blackout in the middle third of the horizon:
        // leases expire, in-flight work requeues with backoff, workers
        // rejoin — all of it state the snapshot must carry.
        cfg.faults.silent_workers = (0..cluster.gpu_count())
            .map(|gpu| SilentWorkerFault {
                gpu,
                from: SimTime::from_secs(horizon_secs / 3),
                until: Some(SimTime::from_secs(2 * horizon_secs / 3)),
            })
            .collect();
    }
    cfg
}

proptest::proptest! {
    // Each case runs three full simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn crash_recovery_is_byte_exact_for_random_configs(
        load_pct in 40u32..180,
        horizon_secs in 300u64..900,
        crash_epoch in 1u64..160,
        leases in any::<bool>(),
        seed in 1u64..1000,
    ) {
        let load = f64::from(load_pct) / 100.0;
        let cfg = config(load, horizon_secs, seed, leases);
        let golden =
            ServeLoop::new(Cluster::testbed15(), cfg.clone()).run(&mut Rotor::default());

        let mut crashed_cfg = cfg;
        crashed_cfg.faults.crash = Some(SchedulerCrash { at_epoch: crash_epoch });
        let path = tmp_wal();
        let wal = WalOptions::new(&path);
        let stop = AtomicBool::new(false);
        let serve = ServeLoop::new(Cluster::testbed15(), crashed_cfg);
        // A crash epoch past the drain leaves a *completed* WAL; recovery
        // must replay that to the same report too, so both arms proceed.
        match serve.run_with_wal(&mut Rotor::default(), &wal, &stop, None) {
            Ok(report) => prop_assert_eq!(&report, &golden),
            Err(RecoveryError::InjectedCrash { .. }) => {}
            Err(e) => panic!("WAL run failed: {e}"),
        }
        // Recover with a cold scheduler: its counter must come back from
        // the snapshot, not survive in memory.
        let (recovered, _stats) = serve
            .recover(&mut Rotor::default(), &wal, &stop, None)
            .unwrap_or_else(|e| panic!("recovery failed: {e}"));
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(&recovered, &golden);
        prop_assert_eq!(recovered.to_json(), golden.to_json());
    }
}
