//! Crash-consistent experiment journal: resumable sweeps.
//!
//! Long sweeps (the fault sweep, the large-scale figure binaries) run many
//! independent (scenario, seed) cells. Killing such a run — a CI timeout,
//! a preempted node — used to throw every finished cell away. The journal
//! makes runs resumable: each completed cell is appended as one line, and
//! on restart completed cells are read back instead of re-simulated.
//! Because every cell is deterministic in (workload, scheme, plan, seed),
//! a resumed run's final output is byte-identical to an uninterrupted one
//! — the property the CI kill-and-resume step asserts.
//!
//! Crash consistency comes from the append-only, line-framed format: a
//! line is the atomic unit, each record is flushed and fsynced before the
//! cell is considered durable, and a torn final line (the process died
//! mid-write) is ignored *and truncated away* on load, so a resumed
//! run's appends start on a fresh line. Loading goes through
//! [`hare_sim::recovery::load_line_log`], the loader the serve WAL uses.
//! Duplicate keys are legal; the last complete record wins.
//!
//! The format is deliberately dependency-free (no JSON library in the
//! offline vendor set): one record per line,
//! `key TAB f64-bits-as-hex TAB note TAB crc32-as-8-hex`, where the CRC
//! (the [`hare_sim::crc32`] shared with the serve WAL) covers the first
//! three fields. The primary value (a weighted JCT, a mean, …) travels as
//! the hex of [`f64::to_bits`], so reloading is bit-exact — no decimal
//! round-tripping. The free-form `note` carries preformatted report text
//! (it must not contain tabs or newlines). That is the only record
//! format: any complete line that is not a verified record (a CRC that
//! does not match, a field missing or extra, a line that is not UTF-8) is
//! *in-place corruption*, not a torn append. Everything from the first
//! such line on is untrusted, truncated away on open, and surfaced
//! through [`Journal::dropped`], so its cells re-run.

use crate::harness::parallel_map;
use hare_sim::crc32;
use hare_sim::recovery::load_line_log;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::Mutex;

/// An append-only journal of completed experiment cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    done: BTreeMap<String, (f64, String)>,
    dropped: usize,
}

impl Journal {
    /// Open (or create) the journal at `path`, loading every complete
    /// record. A torn tail is truncated away so that a later [`record`]
    /// starts on a fresh line, and a line that is not a verified record
    /// truncates *from that line onward* (in-place corruption invalidates
    /// everything after it). The number of lines lost that way is
    /// [`dropped`].
    ///
    /// [`record`]: Journal::record
    /// [`dropped`]: Journal::dropped
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let mut done = BTreeMap::new();
        // The writer only emits UTF-8, so other bytes are disk damage.
        let loaded = load_line_log(&path, |line| {
            let record = std::str::from_utf8(line).ok().and_then(parse_record);
            if let Some((key, value, note)) = record {
                done.insert(key.to_string(), (value, note.to_string()));
            }
            record.is_some()
        });
        let dropped = match loaded {
            Ok(dropped) => dropped,
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        Ok(Journal {
            path,
            done,
            dropped,
        })
    }

    /// The canonical cell key of a (scheme, scenario, seed) triple.
    pub fn key(scheme: &str, scenario: &str, seed: u64) -> String {
        format!("{scheme}/{scenario}/{seed}")
    }

    /// The value and note of a completed cell, if journaled.
    pub fn get(&self, key: &str) -> Option<(f64, &str)> {
        self.done.get(key).map(|(v, note)| (*v, note.as_str()))
    }

    /// Number of completed cells.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True when no cell has completed yet.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Lines discarded on open because one failed to verify (that line and
    /// everything after it). Zero for a healthy journal; a sweep can use
    /// this to warn that cells will re-run.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Record a completed cell durably: append one CRC-framed line,
    /// flush, and fsync before returning, so a kill after this call
    /// never loses the cell. `key` and `note` must not contain tabs or
    /// newlines.
    pub fn record(&mut self, key: &str, value: f64, note: &str) -> io::Result<()> {
        assert!(
            !key.contains(['\t', '\n']) && !note.contains(['\t', '\n']),
            "journal keys/notes must be single-line and tab-free"
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let payload = format!("{key}\t{:016x}\t{note}", value.to_bits());
        writeln!(file, "{payload}\t{:08x}", crc32(payload.as_bytes()))?;
        file.flush()?;
        file.sync_data()?;
        self.done.insert(key.to_string(), (value, note.to_string()));
        Ok(())
    }
}

/// Run every cell of a sweep on the shared pool ([`parallel_map`]) and
/// return each cell's `(value, note)` in cell order.
///
/// With `--journal PATH` among `args` the sweep is resumable: a cell whose
/// `key` the journal at `PATH` holds is read back instead of run, and
/// every cell run is recorded durably as soon as it finishes. The notices
/// (records dropped as corrupt, cells resumed) go to stderr, so a resumed
/// sweep prints the same stdout as an uninterrupted one.
pub fn journaled_cells<T: Sync>(
    args: &[String],
    cells: &[T],
    key: impl Fn(&T) -> String + Sync,
    run: impl Fn(&T) -> (f64, String) + Sync,
) -> Vec<(f64, String)> {
    let journal = args.iter().position(|a| a == "--journal").map(|i| {
        let path = args.get(i + 1).expect("--journal requires a PATH argument");
        Journal::open(path).expect("open resume journal")
    });
    if let Some(j) = &journal {
        if j.dropped() > 0 {
            eprintln!(
                "journal corruption: {} record(s) dropped; those cells re-run",
                j.dropped()
            );
        }
        if !j.is_empty() {
            eprintln!("resuming: {} journaled cell(s) will be replayed", j.len());
        }
    }
    // Shared by the pool's workers: lookups and the durable append of
    // every finished cell go through this mutex, one line at a time.
    let journal = Mutex::new(journal);
    parallel_map(cells, |cell| {
        let key = key(cell);
        let journaled = journal
            .lock()
            .expect("journal lock")
            .as_ref()
            .and_then(|j| j.get(&key).map(|(v, note)| (v, note.to_string())));
        if let Some(done) = journaled {
            return done;
        }
        let (v, note) = run(cell);
        if let Some(j) = journal.lock().expect("journal lock").as_mut() {
            j.record(&key, v, &note).expect("journal write");
        }
        (v, note)
    })
}

/// Parse one complete journal line: four tab-separated fields (notes are
/// tab-free, so the count is unambiguous) whose CRC verifies. `None` for
/// anything else.
fn parse_record(line: &str) -> Option<(&str, f64, &str)> {
    let fields: Vec<&str> = line.split('\t').collect();
    let [key, bits, note, crc] = fields[..] else {
        return None;
    };
    let crc = u32::from_str_radix(crc, 16).ok()?;
    let payload_len = key.len() + 1 + bits.len() + 1 + note.len();
    if crc != crc32(&line.as_bytes()[..payload_len]) || key.is_empty() {
        return None;
    }
    let bits = u64::from_str_radix(bits, 16).ok()?;
    Some((key, f64::from_bits(bits), note))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hare-journal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn round_trips_bit_exact_values() {
        let path = tmp("roundtrip");
        let mut j = Journal::open(&path).unwrap();
        assert!(j.is_empty());
        let v = 12345.6789f64 / 3.1;
        j.record(&Journal::key("Hare", "L3 harsh", 7), v, "note text")
            .unwrap();
        j.record("plain-key", f64::NAN, "").unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 0);
        let (got, note) = j.get(&Journal::key("Hare", "L3 harsh", 7)).unwrap();
        assert_eq!(got.to_bits(), v.to_bits(), "bit-exact reload");
        assert_eq!(note, "note text");
        let (nan, _) = j.get("plain-key").unwrap();
        assert!(nan.is_nan());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored_and_last_record_wins() {
        let path = tmp("torn");
        let mut j = Journal::open(&path).unwrap();
        j.record("cell", 1.0, "first").unwrap();
        j.record("cell", 2.0, "second").unwrap();
        // Simulate a crash mid-append: a record without its newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("cell\tdeadbeefdeadbeef");
        std::fs::write(&path, &text).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.dropped(), 0, "a torn tail is not corruption");
        let (v, note) = j.get("cell").unwrap();
        assert_eq!(v, 2.0, "last complete record wins; torn tail ignored");
        assert_eq!(note, "second");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_lines_truncate_like_corruption() {
        // A line without the four CRC-framed fields is corruption like any
        // other: it and every line after it are truncated away.
        let path = tmp("malformed");
        let mut j = Journal::open(&path).unwrap();
        j.record("ok", 1.0, "n").unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not a record\nold\t4000000000000000\tlegacy note\n");
        std::fs::write(&path, &text).unwrap();
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.dropped(), 2, "the first malformed line and its successor");
        assert_eq!(j.get("ok").unwrap().0, 1.0);
        assert_eq!(j.get("old"), None, "a CRC-less record does not load");
        // The file was truncated at the first malformed line, so new
        // appends follow the verified prefix.
        j.record("new", 3.0, "").unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.len(), j.dropped()), (2, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_mismatch_truncates_from_the_first_bad_record() {
        // Overwrite the 'c' of record "b"'s note: 'X' fails its CRC, and
        // 'c' with its high bit flipped leaves the line not even UTF-8.
        // Either way "b" AND every (intact) record after it must go.
        let cases = [
            ("crc", &["a", "b", "c"][..], b'X'),
            ("crc-high-bit", &["a", "b"][..], b'c' ^ 0x80),
        ];
        for (name, keys, corrupt) in cases {
            let path = tmp(name);
            let mut j = Journal::open(&path).unwrap();
            for (i, &key) in keys.iter().enumerate() {
                let note = if key == "b" { "corrupt-me" } else { "keep" };
                j.record(key, i as f64, note).unwrap();
            }
            drop(j);
            let mut bytes = std::fs::read(&path).unwrap();
            let pos = bytes
                .windows("corrupt-me".len())
                .position(|w| w == b"corrupt-me")
                .unwrap();
            bytes[pos] = corrupt;
            std::fs::write(&path, &bytes).unwrap();

            let j = Journal::open(&path).unwrap();
            assert_eq!(
                j.len(),
                1,
                "{name}: only the pre-corruption prefix survives"
            );
            assert_eq!(
                j.dropped(),
                keys.len() - 1,
                "{name}: the bad record and its successors"
            );
            assert!(j.get("a").is_some());
            for key in &keys[1..] {
                assert!(j.get(key).is_none(), "{name}: {key}");
            }
            // The file was physically truncated: a reopen is clean.
            let j = Journal::open(&path).unwrap();
            assert_eq!((j.len(), j.dropped()), (1, 0), "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let j = Journal::open(tmp("missing")).unwrap();
        assert!(j.is_empty());
        assert_eq!(j.get("anything"), None);
    }
}
