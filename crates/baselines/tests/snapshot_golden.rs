//! Golden fixtures for the version-1 crash-snapshot bytes.
//!
//! A WAL'd [`LadderServe`] run on the testbed, with leases and a partial
//! silent-worker blackout, is crashed at a few pinned decision epochs.
//! Each run snapshots every `epoch − 1` epochs, so the last `snap` record
//! is the state at the end of the epoch before the crash. That record
//! must equal the committed fixture byte for byte: the snapshot grammar
//! is an on-disk format, and a refactor of its encoder must not move a
//! single byte without bumping `SNAPSHOT_VERSION`.
//!
//! Each fixture is then written alone, CRC-framed, into a fresh WAL, and
//! [`ServeLoop::recover`] from it must reproduce the uncrashed run's
//! report, JSON included — so the fixtures also pin the decoder.
//!
//! Between them the fixtures carry every list-shaped section with
//! content: busy GPUs (`run`), the requeue backoff pool (`pool`),
//! requeue tags (`rt`), a non-empty admission queue and the recent
//! latency ring (`rc`).
//!
//! Re-bless only together with a `SNAPSHOT_VERSION` bump:
//! `HARE_BLESS=1 cargo test -p hare-baselines --test snapshot_golden`

#![allow(clippy::unwrap_used)]

use hare_baselines::LadderServe;
use hare_cluster::{Cluster, SimTime};
use hare_sim::{
    crc32, LeaseConfig, RecoveryError, SchedulerCrash, ServeConfig, ServeLoop, ServeReport,
    SilentWorkerFault, WalOptions,
};
use hare_workload::{estimate_capacity_jobs_per_sec, OpenArrivalConfig};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

/// Crash epochs. Epoch 400 is before the blackout. GPUs 0–7 go silent
/// at 4,000 s, so their leases expire at the 4,055 s epoch (811): the
/// snapshot before crash 812 holds the backoff pool, the one before 813
/// the readmitted jobs' requeue tags. By then the recent-latency ring is
/// full and its cursor is past zero.
const CRASH_EPOCHS: [u64; 3] = [400, 812, 813];

/// Overloaded arrivals on the heterogeneous testbed with leases on and
/// eight of its fifteen GPUs silent over [4,000 s, 4,300 s).
fn config() -> ServeConfig {
    let cluster = Cluster::testbed15();
    let mut arrivals = OpenArrivalConfig {
        load_factor: 1.6,
        seed: 7,
        ..OpenArrivalConfig::default()
    };
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    arrivals.capacity_jobs_per_sec =
        estimate_capacity_jobs_per_sec(&counts, &arrivals, OpenArrivalConfig::CAPACITY_SAMPLES);
    let mut cfg = ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(5_000),
        lease: Some(LeaseConfig::default()),
        ..ServeConfig::default()
    };
    cfg.faults.silent_workers = (0..8)
        .map(|gpu| SilentWorkerFault {
            gpu,
            from: SimTime::from_secs(4_000),
            until: Some(SimTime::from_secs(4_300)),
        })
        .collect();
    cfg
}

fn fixture_path(epoch: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/snapshot_v1")
        .join(format!("ladder_crash_{epoch}.snap"))
}

fn tmp_wal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hare-snapshot-golden-{name}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The blob of the last `snap` record in the WAL at `path`.
fn last_snapshot(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .filter_map(|line| line.split_once(' ')?.1.strip_prefix("snap "))
        .next_back()
        .expect("the WAL holds a snapshot")
        .to_string()
}

/// The value of section `key` in a snapshot blob.
fn section<'a>(blob: &'a str, key: &str) -> &'a str {
    blob.split(';')
        .find_map(|s| s.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("snapshot has no {key} section"))
}

/// Crash a WAL'd run at `epoch` and return its last snapshot blob.
fn crashed_snapshot(epoch: u64) -> String {
    let mut cfg = config();
    cfg.faults.crash = Some(SchedulerCrash { at_epoch: epoch });
    let path = tmp_wal(&format!("crash-{epoch}"));
    let mut wal = WalOptions::new(&path);
    wal.snapshot_every = epoch - 1;
    let stop = AtomicBool::new(false);
    let err = ServeLoop::new(Cluster::testbed15(), cfg)
        .run_with_wal(&mut LadderServe::new(), &wal, &stop, None)
        .expect_err("the injected crash fires before the drain");
    assert!(matches!(err, RecoveryError::InjectedCrash { .. }), "{err}");
    let blob = last_snapshot(&path);
    std::fs::remove_file(&path).unwrap();
    blob
}

/// Recover from a WAL holding `blob` alone as a CRC-framed `snap` record.
fn recover_from(blob: &str, epoch: u64) -> ServeReport {
    let path = tmp_wal(&format!("fixture-{epoch}"));
    let payload = format!("snap {blob}");
    std::fs::write(
        &path,
        format!("{:08x} {payload}\n", crc32(payload.as_bytes())),
    )
    .unwrap();
    let wal = WalOptions::new(&path);
    let stop = AtomicBool::new(false);
    let (report, stats) = ServeLoop::new(Cluster::testbed15(), config())
        .recover(&mut LadderServe::new(), &wal, &stop, None)
        .unwrap_or_else(|e| panic!("recovering fixture {epoch}: {e}"));
    assert_eq!(stats.replayed, 0, "the fixture WAL has no suffix");
    std::fs::remove_file(&path).unwrap();
    report
}

#[test]
fn v1_snapshots_match_the_committed_fixtures() {
    let golden = ServeLoop::new(Cluster::testbed15(), config()).run(&mut LadderServe::new());
    assert!(golden.lease_expiries > 0, "the scenario exercises leases");
    let bless = std::env::var_os("HARE_BLESS").is_some();
    let mut fixtures = Vec::new();
    for epoch in CRASH_EPOCHS {
        let got = crashed_snapshot(epoch);
        let path = fixture_path(epoch);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with HARE_BLESS=1 to generate",
                path.display()
            )
        });
        assert_eq!(
            got, want,
            "the snapshot before crash epoch {epoch} drifted from its v1 fixture: \
             the encoding changed without a SNAPSHOT_VERSION bump"
        );
        let recovered = recover_from(&want, epoch);
        assert_eq!(recovered, golden, "recovery from fixture {epoch}");
        assert_eq!(recovered.to_json(), golden.to_json());
        fixtures.push(want);
    }

    // The fixtures cover every list-shaped section with content.
    let any = |f: &dyn Fn(&str) -> bool| fixtures.iter().any(|b| f(b));
    assert!(
        any(&|b| section(b, "run").split(',').any(|slot| slot != "-")),
        "a busy GPU"
    );
    assert!(any(&|b| !section(b, "pool").is_empty()), "a backoff pool");
    assert!(any(&|b| !section(b, "rt").is_empty()), "requeue tags");
    assert!(any(&|b| !section(b, "rc").is_empty()), "recent latencies");
    // The admission section's sixth `|` group is its pending queue.
    assert!(
        any(&|b| !section(b, "ac").split('|').nth(5).unwrap().is_empty()),
        "a pending queue"
    );
}
