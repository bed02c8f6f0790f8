//! Corrupt crash snapshots are typed errors, never panics.
//!
//! A real mid-run snapshot (leases expiring one GPU at a time, so busy
//! GPUs, the requeue backoff pool, a pending queue holding a requeued
//! job and a full recent-latency ring are all present at once) is
//! rewritten one section at a time, re-framed under a fresh CRC and
//! recovered. Every rewrite must come back as a [`RecoveryError`]:
//! malformed text is `Corrupt`, and a well-formed fingerprint of another
//! configuration is `ConfigMismatch`. The scheduler-private `ss` section
//! belongs to the scheduler and is not rewritten here. A zombie (a busy
//! slot whose completion the loop suppressed) is `Corrupt` unless the
//! lease machinery can reclaim it, and so is a latency or queue-wait
//! histogram whose bucket counts overflow or disagree with the decision
//! and admission counters. Every recovery runs under a bounded wait, so
//! one that hangs fails its test instead of stalling the suite.

#![allow(clippy::unwrap_used)]

use hare_cluster::{Cluster, SimDuration, SimTime};
use hare_sim::{
    crc32, LeaseConfig, PendingJob, PlanOutcome, QueueScheduler, RecoveryError, SchedulerCrash,
    ServeConfig, ServeLoop, ServeReport, SilentWorkerFault, WalOptions,
};
use hare_workload::{estimate_capacity_jobs_per_sec, OpenArrivalConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Dispatch in fair-queue order at a flat work price.
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

/// The epoch whose closing snapshot, one the size rule writes, is
/// corrupted. GPUs 0–3 fall silent 10 s apart from 3,975 s, so their
/// leases expire at alternate epochs from 807 on: at 809 one job sits in
/// the backoff pool while an earlier one waits in the queue with its
/// requeue count.
const SNAPSHOT_EPOCH: u64 = 809;

/// The epoch whose closing snapshot holds a zombie under
/// [`zombie_config`]: GPU 0's job completes at 1,077.7 s, after its worker
/// fell silent, and the long lease keeps the zombie until about 2,500 s.
const ZOMBIE_EPOCH: u64 = 278;

/// Leases off, like `hare serve --load 1.3 --horizon 400 --seed 7`.
fn unleased_config(load_factor: f64, horizon_secs: u64) -> ServeConfig {
    let cluster = Cluster::testbed15();
    let mut arrivals = OpenArrivalConfig {
        load_factor,
        seed: 7,
        ..OpenArrivalConfig::default()
    };
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    arrivals.capacity_jobs_per_sec =
        estimate_capacity_jobs_per_sec(&counts, &arrivals, OpenArrivalConfig::CAPACITY_SAMPLES);
    ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(horizon_secs),
        ..ServeConfig::default()
    }
}

fn config(horizon_secs: u64) -> ServeConfig {
    let mut cfg = unleased_config(1.6, horizon_secs);
    cfg.lease = Some(LeaseConfig::default());
    cfg.faults.silent_workers = (0..4)
        .map(|gpu| SilentWorkerFault {
            gpu,
            from: SimTime::from_secs(3_975 + 10 * gpu as u64),
            until: Some(SimTime::from_secs(4_300)),
        })
        .collect();
    cfg
}

/// A leased run in which GPU 0 falls silent for good at 1,000 s, under a
/// lease that outlives the job it was serving: that job becomes a zombie
/// and stays one across a snapshot.
fn zombie_config() -> ServeConfig {
    let mut cfg = unleased_config(1.6, 5_000);
    cfg.lease = Some(LeaseConfig {
        heartbeat: SimDuration::from_secs(10),
        timeout: SimDuration::from_secs(1_500),
    });
    cfg.faults.silent_workers = vec![SilentWorkerFault {
        gpu: 0,
        from: SimTime::from_secs(1_000),
        until: None,
    }];
    cfg
}

fn tmp_wal() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hare-snapshot-corruption-{}-{n}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The last snapshot in the WAL of a run of `cfg` that crashes at the
/// top of epoch `crash_at`.
fn last_snapshot(cfg: ServeConfig, crash_at: u64) -> String {
    let mut cfg = cfg;
    cfg.faults.crash = Some(SchedulerCrash { at_epoch: crash_at });
    let path = tmp_wal();
    let wal = WalOptions::new(&path);
    let stop = AtomicBool::new(false);
    let err = ServeLoop::new(Cluster::testbed15(), cfg)
        .run_with_wal(&mut Fifo, &wal, &stop, None)
        .expect_err("the crash fires before the drain");
    assert!(matches!(err, RecoveryError::InjectedCrash { .. }), "{err}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    text.lines()
        .filter_map(|line| line.split_once(' ')?.1.strip_prefix("snap "))
        .next_back()
        .expect("the WAL holds a snapshot")
        .to_string()
}

/// The snapshot a WAL'd run of `cfg` writes at the end of epoch `epoch`,
/// which must be one its size rule writes.
fn snapshot_at(cfg: ServeConfig, epoch: u64) -> String {
    let blob = last_snapshot(cfg, epoch + 1);
    assert_eq!(
        value(&sections(&blob), "ei"),
        epoch.to_string(),
        "the size rule no longer snapshots at epoch {epoch}"
    );
    blob
}

/// Recover under `cfg` from a WAL holding `blob` alone as a CRC-framed
/// `snap` record. The recovery runs on its own thread and fails the test
/// if it has not returned within a minute, instead of hanging it.
fn recover_under(cfg: ServeConfig, blob: &str) -> Result<ServeReport, RecoveryError> {
    let path = tmp_wal();
    let payload = format!("snap {blob}");
    std::fs::write(
        &path,
        format!("{:08x} {payload}\n", crc32(payload.as_bytes())),
    )
    .unwrap();
    let (tx, rx) = mpsc::channel();
    let wal = WalOptions::new(&path);
    let worker = std::thread::spawn(move || {
        let stop = AtomicBool::new(false);
        let out = ServeLoop::new(Cluster::testbed15(), cfg).recover(&mut Fifo, &wal, &stop, None);
        tx.send(out.map(|(report, _)| report)).unwrap();
    });
    let out = match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => out,
        // The sender went away unused: the recovery panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the recovery panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("recovery did not return within 60 s"),
    };
    worker.join().unwrap();
    std::fs::remove_file(&path).unwrap();
    out
}

/// Recover under [`config`]`(5_000)`, the configuration of [`snapshot`].
fn recover(blob: &str) -> Result<(), RecoveryError> {
    recover_under(config(5_000), blob).map(|_| ())
}

/// The snapshot's `key=value` sections, in order.
fn sections(blob: &str) -> Vec<(String, String)> {
    blob.split(';')
        .map(|s| {
            let (k, v) = s.split_once('=').unwrap();
            (k.to_string(), v.to_string())
        })
        .collect()
}

fn join(sections: &[(String, String)]) -> String {
    let parts: Vec<String> = sections.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(";")
}

fn value<'a>(blob: &'a [(String, String)], key: &str) -> &'a str {
    &blob.iter().find(|(k, _)| k == key).unwrap().1
}

/// `blob` with section `key`'s value replaced by `f(value)`.
fn edit(blob: &str, key: &str, f: impl FnOnce(&str) -> String) -> String {
    let mut s = sections(blob);
    let slot = s.iter_mut().find(|(k, _)| k == key).unwrap();
    slot.1 = f(&slot.1);
    join(&s)
}

/// Fields of a job record (`PendingJob`): tenant, the 8 job fields,
/// admission instant, start tag, seq, priority, requeues.
const PRIORITY: usize = 12;
const REQUEUES: usize = 13;

/// Fields of a busy `run` slot: the job record, then started and done_at.
const DONE_AT: usize = REQUEUES + 2;

/// A zombie's `done_at`, [`SimTime::MAX`] in microseconds: the loop parks
/// a job whose worker died under it there until a lease reclaims it.
const ZOMBIE: &str = "18446744073709551615";

/// `blob` with its first busy `run` slot at or above GPU `from` turned
/// into a zombie.
fn with_zombie(blob: &str, from: usize) -> String {
    edit(blob, "run", |v| {
        let mut slots: Vec<String> = v.split(',').map(str::to_string).collect();
        let gpu = (from..slots.len())
            .find(|&g| slots[g] != "-")
            .expect("a busy GPU");
        slots[gpu] = set_field(&slots[gpu], DONE_AT, ZOMBIE);
        slots.join(",")
    })
}

/// `record` with its `i`-th `:`-joined field replaced by `v`.
fn set_field(record: &str, i: usize, v: &str) -> String {
    let mut fields: Vec<&str> = record.split(':').collect();
    fields[i] = v;
    fields.join(":")
}

/// `list` with its first item that is not an idle slot replaced by
/// `f(item)`.
fn edit_item(list: &str, sep: char, f: &dyn Fn(&str) -> String) -> String {
    let mut items: Vec<String> = list.split(sep).map(str::to_string).collect();
    let i = items.iter().position(|it| it != "-").unwrap();
    items[i] = f(&items[i]);
    items.join(&sep.to_string())
}

/// A rewrite of one record's text.
type Rewrite = fn(&str) -> String;

/// The three field-level faults, applied to one `:`-joined record: its
/// last field made non-numeric, its last field dropped, a field added.
/// (The last field, because a rung tally's first field is a name.)
fn field_faults() -> [(&'static str, Rewrite); 3] {
    [
        ("non-numeric field", |r| match r.rsplit_once(':') {
            Some((head, _)) => format!("{head}:x"),
            None => "x".to_string(),
        }),
        ("missing field", |r| match r.rsplit_once(':') {
            Some((head, _)) => head.to_string(),
            None => String::new(),
        }),
        ("extra field", |r| format!("{r}:0")),
    ]
}

/// Every rewrite of `blob` that must fail as `Corrupt`, labelled.
fn corrupt_cases(blob: &str) -> Vec<(String, String)> {
    let mut cases = Vec::new();
    let mut push = |label: String, mutated: String| {
        assert_ne!(mutated, blob, "case {label} changes the snapshot");
        cases.push((label, mutated));
    };
    let orig = sections(blob);

    // Whole-value sections: scalars and fixed records.
    for key in [
        "v", "fp", "now", "ei", "cur", "buf", "bc", "lh", "wh", "ra", "ct",
    ] {
        for (fault, f) in field_faults() {
            push(format!("{key}: {fault}"), edit(blob, key, f));
        }
    }
    // List sections: the fault lands inside one item.
    for (key, sep) in [("run", ','), ("pool", ','), ("rh", ',')] {
        for (fault, f) in field_faults() {
            push(
                format!("{key} item: {fault}"),
                edit(blob, key, |v| edit_item(v, sep, &f)),
            );
        }
    }
    // `rc` items are single floats.
    push(
        "rc item: not hex".into(),
        edit(blob, "rc", |v| edit_item(v, ',', &|_| "zz".into())),
    );
    push(
        "rc item: missing".into(),
        edit(blob, "rc", |v| edit_item(v, ',', &|_| String::new())),
    );
    push(
        "rc item: extra field".into(),
        edit(blob, "rc", |v| edit_item(v, ',', &|it| format!("{it}:0"))),
    );
    // `ls` is one flag character per GPU.
    push(
        "ls: not a flag".into(),
        edit(blob, "ls", |v| format!("x{}", &v[1..])),
    );
    push(
        "ls: missing flag".into(),
        edit(blob, "ls", |v| v[1..].to_string()),
    );
    push(
        "ls: extra flag".into(),
        edit(blob, "ls", |v| format!("{v}0")),
    );
    // The admission section: counters, tenants and queue records, its
    // draining flag, and its group count.
    for (group, name) in [(0, "counters"), (4, "tenant"), (5, "queue")] {
        for (fault, f) in field_faults() {
            push(
                format!("ac {name}: {fault}"),
                edit(blob, "ac", |v| {
                    let mut g: Vec<String> = v.split('|').map(str::to_string).collect();
                    g[group] = edit_item(&g[group], ',', &f);
                    g.join("|")
                }),
            );
        }
    }
    push(
        "ac queue: two entries with one seq".into(),
        edit(blob, "ac", |v| {
            let mut g: Vec<String> = v.split('|').map(str::to_string).collect();
            let first = g[5].split(',').next().unwrap().to_string();
            // The same job under another finish tag: one seq, two keys.
            let twin = format!(
                "{:016x}{}",
                u64::from_str_radix(&first[..16], 16).unwrap() + 1,
                &first[16..]
            );
            g[5] = format!("{twin},{}", g[5]);
            g.join("|")
        }),
    );
    push(
        "ac: draining flag 2".into(),
        edit(blob, "ac", |v| {
            let mut g: Vec<&str> = v.split('|').collect();
            g[3] = "2";
            g.join("|")
        }),
    );
    push(
        "ac: tenant initialized flag 2".into(),
        edit(blob, "ac", |v| {
            let mut g: Vec<String> = v.split('|').map(str::to_string).collect();
            g[4] = edit_item(&g[4], ',', &|t| {
                format!("{}:2", t.rsplit_once(':').unwrap().0)
            });
            g.join("|")
        }),
    );
    push(
        "ac: missing group".into(),
        edit(blob, "ac", |v| v.rsplit_once('|').unwrap().0.to_string()),
    );
    push(
        "ac: extra group".into(),
        edit(blob, "ac", |v| format!("{v}|")),
    );
    // Only the spellings the writer uses: no sign, lowercase hex.
    push(
        "now: a plus sign".into(),
        edit(blob, "now", |v| format!("+{v}")),
    );
    push(
        "rc item: uppercase hex".into(),
        edit(blob, "rc", |v| edit_item(v, ',', &|it| it.to_uppercase())),
    );
    // The previous version's snapshot is not read.
    push("v: version 1".into(), edit(blob, "v", |_| "1".into()));
    // Flags and narrowing.
    push("buf: flag 2".into(), edit(blob, "buf", |_| "2".into()));
    let too_big = (u64::from(u32::MAX) + 1).to_string();
    for key in ["run", "pool"] {
        push(
            format!("{key} requeues past u32"),
            edit(blob, key, |v| {
                edit_item(v, ',', &|it| set_field(it, REQUEUES, &too_big))
            }),
        );
        push(
            format!("{key} priority not hex"),
            edit(blob, key, |v| {
                edit_item(v, ',', &|it| set_field(it, PRIORITY, "zz"))
            }),
        );
    }
    push(
        "ac queue priority not hex".into(),
        edit(blob, "ac", |v| {
            let mut g: Vec<String> = v.split('|').map(str::to_string).collect();
            // A queue record is the finish tag, then the job record.
            g[5] = edit_item(&g[5], ',', &|it| set_field(it, 1 + PRIORITY, "zz"));
            g.join("|")
        }),
    );
    // The latency-ring cursor must be 0 until the ring is full.
    let short_rc: Vec<&str> = value(&orig, "rc").split(',').take(10).collect();
    push(
        "ra nonzero under a partial ring".into(),
        edit(&edit(blob, "rc", |_| short_rc.join(",")), "ra", |_| {
            "4".into()
        }),
    );
    // Framing: an unknown section, a duplicate, two sections swapped.
    let mut extra = orig.clone();
    extra.insert(extra.len() - 1, ("zz".into(), "1".into()));
    push("unknown section".into(), join(&extra));
    let mut dup = orig.clone();
    let now = dup.iter().position(|(k, _)| k == "now").unwrap();
    dup.insert(now + 1, dup[now].clone());
    push("duplicate section".into(), join(&dup));
    let mut swapped = orig.clone();
    swapped.swap(now, now + 1);
    push("now and ei swapped".into(), join(&swapped));
    let lh = swapped.iter().position(|(k, _)| k == "lh").unwrap();
    let mut swapped = orig.clone();
    swapped.swap(lh, lh + 1);
    push("lh and wh swapped".into(), join(&swapped));
    cases
}

fn snapshot() -> String {
    let blob = snapshot_at(config(5_000), SNAPSHOT_EPOCH);
    let s = sections(&blob);
    // The rewrites below land inside real items of every list section.
    assert!(value(&s, "run").split(',').any(|slot| slot != "-"));
    assert!(!value(&s, "pool").is_empty());
    assert!(!value(&s, "rh").is_empty());
    let queue = value(&s, "ac").split('|').nth(5).unwrap();
    assert!(
        queue.split(',').any(|job| {
            let requeues = job.split(':').nth(1 + REQUEUES);
            requeues.is_some_and(|n| n != "0")
        }),
        "a requeued job waits in the queue"
    );
    assert_eq!(
        value(&s, "rc").split(',').count(),
        64,
        "a full latency ring"
    );
    assert_ne!(value(&s, "ra"), "0");
    blob
}

#[test]
fn the_unmodified_snapshot_recovers() {
    let clean = ServeLoop::new(Cluster::testbed15(), config(5_000)).run(&mut Fifo);
    let recovered = recover_under(config(5_000), &snapshot()).unwrap();
    assert_eq!(recovered.to_json(), clean.to_json());
}

#[test]
fn every_histogram_bucket_at_u64_max_is_corrupt() {
    // A bucket count no run reaches: the counts' total overflows, or it
    // disagrees with the decision and queue counters.
    let blob = snapshot();
    let mut wrong = Vec::new();
    for key in ["lh", "wh"] {
        let fields = value(&sections(&blob), key).split(':').count();
        // The bucket counts, then the sum.
        for bucket in 0..fields - 1 {
            let mutated = edit(&blob, key, |v| set_field(v, bucket, &u64::MAX.to_string()));
            match recover(&mutated) {
                Err(RecoveryError::Corrupt { .. }) => {}
                other => wrong.push(format!("{key} bucket {bucket}: {other:?}")),
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "not rejected as Corrupt:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn an_out_of_range_latency_cursor_is_corrupt_not_a_panic() {
    let blob = edit(&snapshot(), "ra", |_| "999".into());
    let err = recover(&blob).expect_err("ra=999 is outside the 64-entry ring");
    assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
}

#[test]
fn an_arrival_cursor_past_the_offers_is_corrupt_not_a_hang() {
    // Recovery fast-forwards the arrival stream to the cursor; one past
    // u32::MAX would draw for hours and then overflow the job ids.
    let far = (u64::from(u32::MAX) + 2).to_string();
    let err = recover(&edit(&snapshot(), "cur", |_| far))
        .expect_err("the cursor must equal the offered arrivals plus one");
    assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
}

#[test]
fn every_malformed_section_is_a_typed_error() {
    let blob = snapshot();
    let mut wrong = Vec::new();
    for (label, mutated) in corrupt_cases(&blob) {
        match recover(&mutated) {
            Err(RecoveryError::Corrupt { .. }) => {}
            other => wrong.push(format!("{label}: {other:?}")),
        }
    }
    assert!(
        wrong.is_empty(),
        "not rejected as Corrupt:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn a_fingerprint_from_another_config_is_a_config_mismatch() {
    let blob = snapshot();
    let other = sections(&snapshot_at(config(6_000), 0));
    let err = recover(&edit(&blob, "fp", |_| value(&other, "fp").to_string()))
        .expect_err("another config's fingerprint");
    assert!(matches!(err, RecoveryError::ConfigMismatch { .. }), "{err}");
}

#[test]
fn a_zombie_no_lease_can_reclaim_is_corrupt_not_a_hang() {
    // GPUs 4 and up have no silent-death window, so no lease expiry or
    // revived worker would ever take such a zombie off its GPU.
    let err = recover(&with_zombie(&snapshot(), 4)).expect_err("a zombie on a GPU that never died");
    assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
}

#[test]
fn a_zombie_without_leases_is_corrupt_not_a_hang() {
    let cfg = unleased_config(1.3, 400);
    let blob = last_snapshot(cfg.clone(), 30);
    let err = recover_under(cfg, &with_zombie(&blob, 0)).expect_err("a zombie with leases off");
    assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
}

#[test]
fn a_snapshot_holding_a_reclaimable_zombie_recovers_byte_identically() {
    let blob = snapshot_at(zombie_config(), ZOMBIE_EPOCH);
    let s = sections(&blob);
    let slot = value(&s, "run").split(',').next().unwrap();
    assert!(
        slot.ends_with(&format!(":{ZOMBIE}")),
        "GPU 0 holds a zombie: {slot}"
    );
    let clean = ServeLoop::new(Cluster::testbed15(), zombie_config()).run(&mut Fifo);
    let recovered = recover_under(zombie_config(), &blob).unwrap();
    assert_eq!(recovered.to_json(), clean.to_json());
}
