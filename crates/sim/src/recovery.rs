//! Crash tolerance for the continuous-service mode (DESIGN.md §13):
//! write-ahead logging with compacted snapshots, deterministic replay,
//! and the lease state machine that guards against silently-dead workers.
//!
//! The serve loop ([`crate::ServeLoop`]) is a deterministic state
//! machine; this module makes it *crash-tolerant* without giving that
//! up:
//!
//! * [`WalFile`] — an append-only, line-framed, CRC32-checked log with
//!   the same durability discipline and the same loader
//!   ([`load_line_log`]) as `hare-experiments::journal` (fsynced appends,
//!   torn tails truncated on open). Every serve-loop
//!   state transition (arrival admission/reject/defer, dispatch,
//!   completion, drain, budget-level change, lease events) becomes one
//!   record; records are group-committed at decision-epoch boundaries —
//!   an un-fsynced tail is harmless because replay *re-executes* from
//!   the last snapshot and regenerates whatever the tail would have
//!   said.
//! * **Snapshots** — periodically the loop encodes its complete state
//!   (pending queue, token buckets, in-flight placements, arrival-stream
//!   cursor, hysteresis state, scheduler-private state) as one `snap`
//!   record, written via write-temp + atomic-rename so the log is
//!   *compacted* in the same motion: after a snapshot the file is
//!   `[snapshot][records since]` and never grows without bound.
//! * **Recovery** — load the last valid snapshot, then re-execute the
//!   loop deterministically while *verifying* each regenerated
//!   transition against the WAL suffix (`WalSession`); any mismatch is
//!   a [`RecoveryError::Divergence`] (corrupt snapshot, changed config,
//!   or nondeterministic scheduler) instead of silent state skew. The
//!   recovered run's final report is byte-identical to an uncrashed run
//!   — the property `crash_sweep` and the CI SIGKILL step assert.
//! * [`LeaseConfig`] — workers hold heartbeated leases; a worker that
//!   stops heartbeating (a [`crate::faults::SilentWorkerFault`], distinct
//!   from the batch engine's *explicit* failure events) loses its lease
//!   after `timeout`, its in-flight job is requeued with capped
//!   exponential backoff, and it rejoins through the scheduler's
//!   `on_gpu_recovery` hook once heartbeats resume.

use hare_cluster::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the per-record checksum shared by the WAL
/// and `hare-experiments::journal`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Load a line-framed, append-only log — the WAL and the experiment
/// journal. Hands each newline-terminated line of `path` to `accept`, in
/// file order and without its newline, and stops at the first line it
/// rejects; a torn final line (no newline: the writer died mid-append) is
/// never offered. The file is then truncated to the end of the last
/// accepted line and fsynced, so later appends follow trusted records
/// only. Returns how many complete lines were cut off: the rejected one
/// and every one after it. A missing file is a `NotFound` error.
pub fn load_line_log(path: &Path, mut accept: impl FnMut(&[u8]) -> bool) -> io::Result<usize> {
    let bytes = std::fs::read(path)?;
    let complete = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |end| end + 1);
    let mut keep = 0;
    for line in bytes[..complete].split_inclusive(|&b| b == b'\n') {
        if !accept(&line[..line.len() - 1]) {
            break;
        }
        keep += line.len();
    }
    if keep < bytes.len() {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.sync_data()?;
    }
    Ok(bytes[keep..complete]
        .iter()
        .filter(|&&b| b == b'\n')
        .count())
}

/// Why a recovery attempt (or a WAL-logged run) failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The WAL file could not be read or written.
    Io(io::Error),
    /// The WAL holds no valid snapshot to recover from.
    NoSnapshot,
    /// A snapshot or record failed to decode.
    Corrupt {
        /// 1-based line of the offending record (0 when unknown).
        line: usize,
        /// What failed to parse.
        why: String,
    },
    /// The snapshot was written under a different serve configuration
    /// (or scheduler) than the one recovering.
    ConfigMismatch {
        /// Fingerprint stored in the snapshot.
        expected: u32,
        /// Fingerprint of the recovering configuration.
        got: u32,
    },
    /// Deterministic replay regenerated a transition that differs from
    /// the WAL — corrupt state, changed config, or a nondeterministic
    /// scheduler.
    Divergence {
        /// Index of the diverging record within the replayed suffix.
        record: u64,
        /// What the WAL says happened.
        expected: String,
        /// What replay produced.
        got: String,
    },
    /// An injected [`crate::faults::SchedulerCrash`] fired — the run
    /// aborted mid-flight on purpose, leaving the WAL for recovery.
    InjectedCrash {
        /// Simulated instant of the crash.
        at: SimTime,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "WAL I/O error: {e}"),
            RecoveryError::NoSnapshot => write!(f, "WAL holds no valid snapshot"),
            RecoveryError::Corrupt { line, why } => {
                write!(f, "corrupt WAL (line {line}): {why}")
            }
            RecoveryError::ConfigMismatch { expected, got } => write!(
                f,
                "serve config fingerprint {got:08x} does not match snapshot {expected:08x}"
            ),
            RecoveryError::Divergence {
                record,
                expected,
                got,
            } => write!(
                f,
                "replay diverged from WAL at suffix record {record}: \
                 log says {expected:?}, replay produced {got:?}"
            ),
            RecoveryError::InjectedCrash { at } => {
                write!(f, "injected scheduler crash at {at}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// Where the WAL lives and how often the loop snapshots into it.
#[derive(Clone, Debug)]
pub struct WalOptions {
    /// Log file path.
    pub path: PathBuf,
    /// Decision epochs between compacted snapshots (≥ 1). Smaller means
    /// shorter replay after a crash but more snapshot I/O — the
    /// trade-off `crash_sweep` measures.
    pub snapshot_every: u64,
}

impl WalOptions {
    /// Options with the default cadence (a snapshot every 20 epochs).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalOptions {
            path: path.into(),
            snapshot_every: 20,
        }
    }
}

/// What `hare serve --recover` reports about the recovery itself (kept
/// out of [`crate::ServeReport`] so recovered reports stay byte-identical
/// to uncrashed ones).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Simulated instant of the snapshot the run resumed from.
    pub resumed_at: SimTime,
    /// WAL suffix records replayed (verified) after the snapshot.
    pub replayed: u64,
}

/// The append-only, CRC-framed log file.
///
/// On-disk format: one record per line, `crc32-as-8-hex SP payload`,
/// where the CRC covers the payload bytes. A snapshot is a record whose
/// payload is `snap SP blob`. Appends are buffered and made durable by
/// [`WalFile::commit`] (write + flush + fsync) — the serve loop commits
/// at every decision epoch (group commit). [`WalFile::write_snapshot`]
/// compacts: the file is atomically replaced by `[snapshot]` via
/// write-temp + rename.
#[derive(Debug)]
pub struct WalFile {
    path: PathBuf,
    file: File,
    buf: String,
    appended: u64,
}

impl WalFile {
    /// Create (truncating any previous log) a fresh WAL at `path`.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<WalFile> {
        let path = path.into();
        let file = File::create(&path)?;
        Ok(WalFile {
            path,
            file,
            buf: String::new(),
            appended: 0,
        })
    }

    /// Open an existing WAL for recovery: validate every record's CRC,
    /// truncate the file at the first invalid record (torn tail or
    /// in-place corruption), and return the last valid snapshot blob
    /// plus the record payloads after it — the replay suffix.
    pub fn open_for_recovery(
        path: impl Into<PathBuf>,
    ) -> Result<(WalFile, String, Vec<String>), RecoveryError> {
        let path = path.into();
        let mut payloads: Vec<String> = Vec::new();
        load_line_log(&path, |line| {
            // Not UTF-8, bad framing or a CRC mismatch: stop here.
            let Some(payload) = std::str::from_utf8(line).ok().and_then(decode_record) else {
                return false;
            };
            payloads.push(payload.to_string());
            true
        })?;
        let snap_at = payloads
            .iter()
            .rposition(|p| p.starts_with("snap "))
            .ok_or(RecoveryError::NoSnapshot)?;
        let blob = payloads[snap_at]["snap ".len()..].to_string();
        let suffix = payloads.split_off(snap_at + 1);
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok((
            WalFile {
                path,
                file,
                buf: String::new(),
                appended: 0,
            },
            blob,
            suffix,
        ))
    }

    /// Records appended (buffered or committed) since open.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Buffer one record. `payload` must be a single line.
    pub fn append(&mut self, payload: &str) {
        debug_assert!(!payload.contains('\n'), "WAL payloads must be single-line");
        let _ = {
            use std::fmt::Write as _;
            writeln!(self.buf, "{:08x} {payload}", crc32(payload.as_bytes()))
        };
        self.appended += 1;
    }

    /// Make every buffered record durable: write, flush, fsync.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(self.buf.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.buf.clear();
        Ok(())
    }

    /// Write a compacted snapshot: the log is atomically replaced by a
    /// single `snap` record carrying `blob` (uncommitted pre-snapshot
    /// records are subsumed by the snapshot and dropped). Crash-safe:
    /// the new file is fsynced before the rename, and a crash mid-write
    /// leaves the previous log intact.
    pub fn write_snapshot(&mut self, blob: &str) -> io::Result<()> {
        debug_assert!(!blob.contains('\n'), "snapshot blobs must be single-line");
        self.buf.clear();
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            let payload = format!("snap {blob}");
            writeln!(f, "{:08x} {payload}", crc32(payload.as_bytes()))?;
            f.flush()?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        self.appended += 1;
        Ok(())
    }
}

/// Decode one framed line into its payload; `None` on bad framing or a
/// CRC mismatch.
fn decode_record(line: &str) -> Option<&str> {
    let (crc_hex, payload) = line.split_once(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc_hex.len() != 8 || crc != crc32(payload.as_bytes()) {
        return None;
    }
    Some(payload)
}

/// The serve loop's handle on the WAL: while a replay suffix remains,
/// every logged transition is *verified* against it; once the suffix is
/// exhausted the session switches to live appends. Fresh runs start with
/// an empty suffix.
#[derive(Debug)]
pub(crate) struct WalSession<'a> {
    wal: &'a mut WalFile,
    suffix: VecDeque<String>,
    replayed: u64,
}

impl<'a> WalSession<'a> {
    pub(crate) fn new(wal: &'a mut WalFile, suffix: Vec<String>) -> Self {
        WalSession {
            wal,
            suffix: suffix.into(),
            replayed: 0,
        }
    }

    /// True while WAL records remain to verify against.
    pub(crate) fn replaying(&self) -> bool {
        !self.suffix.is_empty()
    }

    /// Suffix records verified so far.
    pub(crate) fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Log one transition: verify against the replay suffix, or append.
    pub(crate) fn log(&mut self, payload: &str) -> Result<(), RecoveryError> {
        match self.suffix.pop_front() {
            Some(expected) => {
                if expected != payload {
                    return Err(RecoveryError::Divergence {
                        record: self.replayed,
                        expected,
                        got: payload.to_string(),
                    });
                }
                self.replayed += 1;
                Ok(())
            }
            None => {
                self.wal.append(payload);
                Ok(())
            }
        }
    }

    /// True when the next suffix record is a drain transition at `t_us`
    /// — how replay re-learns that an *external* stop signal (SIGTERM)
    /// triggered a drain in the original run.
    pub(crate) fn peek_drain_at(&self, t_us: u64) -> bool {
        self.suffix
            .front()
            .and_then(|p| p.strip_prefix("drain "))
            .and_then(|rest| rest.split(' ').next())
            .and_then(|t| t.parse::<u64>().ok())
            .is_some_and(|t| t == t_us)
    }

    /// Group-commit buffered records (no-op while replaying).
    pub(crate) fn commit(&mut self) -> Result<(), RecoveryError> {
        if !self.replaying() {
            self.wal.commit()?;
        }
        Ok(())
    }

    /// Write a compacted snapshot (no-op while replaying: the on-disk
    /// history already covers this point).
    pub(crate) fn snapshot(&mut self, blob: &str) -> Result<(), RecoveryError> {
        if !self.replaying() {
            self.wal.write_snapshot(blob)?;
        }
        Ok(())
    }
}

/// Lease-based worker liveness (DESIGN.md §13).
///
/// Every worker heartbeats every `heartbeat`; the scheduler holds a
/// lease per worker that expires `timeout` after the last heartbeat.
/// Expiry requeues the worker's in-flight job with exponential backoff,
/// and a job requeued too often is shed as lost (both policies are
/// constants of the serve loop). A worker whose heartbeats resume rejoins
/// through the scheduler's `on_gpu_recovery` hook.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeaseConfig {
    /// Worker heartbeat interval.
    pub heartbeat: SimDuration,
    /// Lease lifetime after the last heartbeat (≥ `heartbeat`).
    pub timeout: SimDuration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            heartbeat: SimDuration::from_secs(10),
            timeout: SimDuration::from_secs(60),
        }
    }
}

impl LeaseConfig {
    /// Basic sanity checks (positive heartbeat, timeout ≥ heartbeat).
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat.is_zero() {
            return Err("lease heartbeat must be positive".into());
        }
        if self.timeout < self.heartbeat {
            return Err("lease timeout must be at least one heartbeat".into());
        }
        Ok(())
    }
}

/// The last heartbeat a worker managed at or before `now`, given its
/// silent-death windows `[from, until)` (`until == None` = never
/// revives). Heartbeats tick at multiples of `heartbeat` from t = 0;
/// `None` means the worker never heartbeated at all.
pub(crate) fn last_heartbeat(
    now: SimTime,
    heartbeat: SimDuration,
    deaths: &[(SimTime, Option<SimTime>)],
) -> Option<SimTime> {
    let hb = heartbeat.as_micros().max(1);
    let mut t = now.as_micros() / hb * hb;
    loop {
        let covering = deaths
            .iter()
            .find(|(from, until)| from.as_micros() <= t && until.is_none_or(|u| t < u.as_micros()));
        match covering {
            None => return Some(SimTime::from_micros(t)),
            Some((from, _)) => {
                if from.as_micros() == 0 {
                    return None;
                }
                // Last heartbeat strictly before the window opened.
                t = (from.as_micros() - 1) / hb * hb;
            }
        }
    }
}

/// True when any silent-death window of this worker overlaps the
/// in-service interval `[started, done]` — the completion must then be
/// suppressed (a dead worker does no work).
pub(crate) fn dead_during(
    started: SimTime,
    done: SimTime,
    deaths: &[(SimTime, Option<SimTime>)],
) -> bool {
    deaths
        .iter()
        .any(|(from, until)| *from <= done && until.is_none_or(|u| started < u))
}

/// True when the worker is inside a silent-death window at `now`.
pub(crate) fn dead_at(now: SimTime, deaths: &[(SimTime, Option<SimTime>)]) -> bool {
    deaths
        .iter()
        .any(|(from, until)| *from <= now && until.is_none_or(|u| now < u))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hare-wal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn wal_round_trips_snapshot_and_suffix() {
        let path = tmp("roundtrip");
        let mut wal = WalFile::create(&path).unwrap();
        wal.write_snapshot("state-zero").unwrap();
        wal.append("ep 1");
        wal.append("disp 3 0 100");
        wal.commit().unwrap();
        wal.write_snapshot("state-one").unwrap();
        wal.append("ep 2");
        wal.commit().unwrap();
        drop(wal);

        let (_, blob, suffix) = WalFile::open_for_recovery(&path).unwrap();
        assert_eq!(blob, "state-one", "last snapshot wins (compaction)");
        assert_eq!(suffix, vec!["ep 2".to_string()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_and_corruption_truncate() {
        let path = tmp("torn");
        let mut wal = WalFile::create(&path).unwrap();
        wal.write_snapshot("s").unwrap();
        wal.append("a 1");
        wal.append("b 2");
        wal.commit().unwrap();
        // Corrupt record "b 2" in place (flip a payload byte).
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes.windows(3).rposition(|w| w == b"b 2").unwrap();
        bytes[pos] = b'X';
        // And add a torn tail.
        bytes.extend_from_slice(b"deadbeef torn-record-without-newl");
        std::fs::write(&path, &bytes).unwrap();

        let (_, blob, suffix) = WalFile::open_for_recovery(&path).unwrap();
        assert_eq!(blob, "s");
        assert_eq!(suffix, vec!["a 1".to_string()], "truncated at corruption");
        // The file itself was truncated: reopening sees the same view.
        let (_, _, suffix2) = WalFile::open_for_recovery(&path).unwrap();
        assert_eq!(suffix2, suffix);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_snapshot_is_an_error() {
        let path = tmp("nosnap");
        let mut wal = WalFile::create(&path).unwrap();
        wal.append("ep 1");
        wal.commit().unwrap();
        drop(wal);
        assert!(matches!(
            WalFile::open_for_recovery(&path),
            Err(RecoveryError::NoSnapshot)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn session_verifies_then_appends() {
        let path = tmp("session");
        let mut wal = WalFile::create(&path).unwrap();
        let mut s = WalSession::new(&mut wal, vec!["a".into(), "b".into()]);
        assert!(s.replaying());
        s.log("a").unwrap();
        s.log("b").unwrap();
        assert!(!s.replaying());
        assert_eq!(s.replayed(), 2);
        s.log("c").unwrap(); // live append now
        s.commit().unwrap();
        drop(s);
        assert_eq!(wal.appended(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn session_divergence_is_detected() {
        let path = tmp("diverge");
        let mut wal = WalFile::create(&path).unwrap();
        let mut s = WalSession::new(&mut wal, vec!["a".into()]);
        let err = s.log("not-a").unwrap_err();
        assert!(matches!(err, RecoveryError::Divergence { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn heartbeats_skip_death_windows() {
        let hb = SimDuration::from_secs(10);
        let t = SimTime::from_secs;
        // Alive: last heartbeat is the last multiple of 10.
        assert_eq!(last_heartbeat(t(37), hb, &[]), Some(t(30)));
        // Dead in [25, 55): at t=57 the last live heartbeat is t=20.
        let deaths = [(t(25), Some(t(55)))];
        assert_eq!(last_heartbeat(t(47), hb, &deaths), Some(t(20)));
        // After revival the next tick counts again.
        assert_eq!(last_heartbeat(t(62), hb, &deaths), Some(t(60)));
        // Dead from t=0 forever: never heartbeated.
        assert_eq!(last_heartbeat(t(99), hb, &[(t(0), None)]), None);
    }

    #[test]
    fn dead_during_detects_overlap() {
        let t = SimTime::from_secs;
        let deaths = [(t(50), Some(t(60)))];
        assert!(dead_during(t(40), t(55), &deaths), "dies mid-service");
        assert!(dead_during(t(55), t(70), &deaths), "starts while dead");
        assert!(!dead_during(t(60), t(70), &deaths), "after revival");
        assert!(!dead_during(t(10), t(49), &deaths), "before death");
    }

    #[test]
    fn lease_config_validation() {
        assert!(LeaseConfig::default().validate().is_ok());
        let c = LeaseConfig {
            timeout: SimDuration::from_secs(1),
            ..LeaseConfig::default()
        };
        assert!(c.validate().is_err(), "timeout below heartbeat");
    }
}
