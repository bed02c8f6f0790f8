//! The crash snapshot's one codec. The grammar is stated in DESIGN.md
//! §13; this module is the only code that writes or reads it.
//!
//! Each stateful type keeps its own field order and saves itself through
//! a [`Writer`] and loads itself through a [`Reader`]. The reader takes
//! sections in the order they were written, reads every record to its
//! last field, and answers any malformed, missing or left-over field
//! with a [`RecoveryError::Corrupt`] that names it.

use crate::histogram::Histogram;
use crate::recovery::RecoveryError;
use hare_cluster::SimTime;
use hare_workload::{JobId, JobSpec, ModelKind};
use std::fmt::{Display, Write as _};

/// Appends typed fields to one snapshot line. A default writer holds a
/// bare value without sections, such as a scheduler's private state.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// A field precedes in this record, so the next one takes a `:`.
    joined: bool,
}

impl Writer {
    /// The line written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self, c: char) -> &mut Self {
        self.out.push(c);
        self.joined = false;
        self
    }

    /// Open section `key`.
    pub fn section(&mut self, key: &str) -> &mut Self {
        if !self.out.is_empty() {
            self.out.push(';');
        }
        self.out.push_str(key);
        self.sep('=')
    }

    /// Start the next `|` group.
    pub fn group(&mut self) -> &mut Self {
        self.sep('|')
    }

    /// `,`-separated items, each written by `f` as one record.
    pub fn list<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.sep(',');
            }
            f(self, item);
        }
        self
    }

    /// An integer in decimal; a flag is an integer, `0` or `1`.
    pub fn int(&mut self, v: impl Into<u64>) -> &mut Self {
        self.text(v.into())
    }

    /// An integer as exactly `digits` lowercase hex digits.
    pub fn hex(&mut self, v: u64, digits: usize) -> &mut Self {
        self.text(format_args!("{v:0digits$x}"))
    }

    /// A float, as the 16 hex digits of its bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.hex(v.to_bits(), 16)
    }

    /// An instant, in microseconds.
    pub fn time(&mut self, t: SimTime) -> &mut Self {
        self.int(t.as_micros())
    }

    /// A run of flags, one `0`/`1` character each.
    pub fn flags(&mut self, bits: impl IntoIterator<Item = bool>) -> &mut Self {
        let run: String = bits
            .into_iter()
            .map(|b| if b { '1' } else { '0' })
            .collect();
        self.text(run)
    }

    /// A field written as it displays: text the caller has checked is
    /// free of the framing characters.
    pub fn text(&mut self, v: impl Display) -> &mut Self {
        if std::mem::replace(&mut self.joined, true) {
            self.out.push(':');
        }
        let _ = write!(self.out, "{v}");
        self
    }

    /// A job as 8 fields: id, model (its index in [`ModelKind::ALL`]),
    /// batch size, rounds, sync scale, batches per task, weight, arrival.
    pub fn job(&mut self, s: &JobSpec) -> &mut Self {
        let model = ModelKind::ALL.iter().position(|&m| m == s.model);
        self.int(s.id.0)
            .int(model.expect("every ModelKind is in ALL") as u64)
            .int(s.batch_size)
            .int(s.rounds)
            .int(s.sync_scale)
            .int(s.batches_per_task)
            .f64(s.weight)
            .time(s.arrival)
    }

    /// A histogram as its bucket counts, then its sum (the bounds are
    /// constants of the reader).
    pub fn hist(&mut self, h: &Histogram) -> &mut Self {
        for &c in h.counts() {
            self.int(c);
        }
        self.f64(h.sum())
    }
}

/// Reads a [`Writer`]'s line back, field by field, in the order written.
///
/// A read returns `None` at the first field it cannot take;
/// [`Reader::section`] and [`Reader::value`] turn that into a
/// [`RecoveryError::Corrupt`] naming the section, the field and the text
/// found there.
#[derive(Debug, Default)]
pub struct Reader<'a> {
    /// The unread text.
    rest: &'a str,
    /// The open section's key.
    key: &'a str,
    /// The field being read, and the text it starts at.
    field: (&'a str, &'a str),
    /// A field was read in this record, so the next one follows a `:`.
    joined: bool,
}

impl<'a> Reader<'a> {
    /// Read a bare value (a [`Writer`] that opened no section) with
    /// `read`, to its end.
    pub fn value<T>(
        value: &'a str,
        read: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Result<T, RecoveryError> {
        let mut r = Reader::new(value);
        let value = read(&mut r).ok_or_else(|| r.error())?;
        r.finish().map(|()| value)
    }

    /// A reader over a snapshot line.
    pub fn new(line: &'a str) -> Self {
        Reader {
            rest: line,
            ..Reader::default()
        }
    }

    fn error(&self) -> RecoveryError {
        let (field, at) = self.field;
        let at: String = at.chars().take(48).collect();
        let why = format!("snapshot section {:?}, field {field}: at {at:?}", self.key);
        RecoveryError::Corrupt { line: 0, why }
    }

    /// Read section `key`, which must come next, with `read`, to its last
    /// field.
    pub fn section<T>(
        &mut self,
        key: &'a str,
        read: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Result<T, RecoveryError> {
        let first = std::mem::replace(&mut self.key, key).is_empty();
        self.field = ("key", self.rest);
        let text = if first {
            Some(self.rest)
        } else {
            self.rest.strip_prefix(';')
        };
        let value = text.and_then(|t| t.strip_prefix(key)?.strip_prefix('='));
        self.rest = value.ok_or_else(|| self.error())?;
        self.joined = false;
        let value = read(self).ok_or_else(|| self.error())?;
        if !self.rest.starts_with(';') {
            self.finish()?;
        }
        Ok(value)
    }

    /// Check that nothing is left unread.
    pub fn finish(&mut self) -> Result<(), RecoveryError> {
        self.field = ("end", self.rest);
        match self.rest {
            "" => Ok(()),
            _ => Err(self.error()),
        }
    }

    /// Step past the next `|`.
    pub fn group(&mut self) -> Option<&mut Self> {
        self.field = ("group", self.rest);
        self.rest = self.rest.strip_prefix('|')?;
        self.joined = false;
        Some(self)
    }

    /// `,`-separated items up to the end of the group or section, each
    /// read by `f`. A field `f` leaves unread fails the next read; a
    /// failed check on the items names the field `item count`.
    pub fn list<T>(&mut self, mut f: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let start = self.rest;
        let mut items = Vec::new();
        let mut more = !(self.rest.is_empty() || self.rest.starts_with(['|', ';']));
        while more {
            self.joined = false;
            items.push(f(self)?);
            more = self.rest.starts_with(',');
            self.rest = self.rest.strip_prefix(',').unwrap_or(self.rest);
        }
        self.field = ("item count", start);
        Some(items)
    }

    /// The next field, as text.
    pub fn text(&mut self, field: &'a str) -> Option<&'a str> {
        self.field = (field, self.rest);
        if std::mem::replace(&mut self.joined, true) {
            self.rest = self.rest.strip_prefix(':')?;
        }
        Some(self.take(&[':', ',', '|', ';']))
    }

    /// The rest of the open section, whatever its separators.
    pub fn raw(&mut self) -> &'a str {
        self.take(&[';'])
    }

    fn take(&mut self, ends: &[char]) -> &'a str {
        let end = self.rest.find(ends).unwrap_or(self.rest.len());
        let (taken, rest) = self.rest.split_at(end);
        self.rest = rest;
        taken
    }

    /// A decimal integer that fits `T`.
    pub fn int<T: std::str::FromStr>(&mut self, field: &'a str) -> Option<T> {
        let int = self.text(field)?;
        let decimal = int.bytes().all(|b| b.is_ascii_digit());
        decimal.then(|| int.parse().ok())?
    }

    /// An integer written as exactly `digits` lowercase hex digits.
    pub fn hex(&mut self, field: &'a str, digits: usize) -> Option<u64> {
        let hex = self.text(field)?;
        let lower_hex = hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        (lower_hex && hex.len() == digits).then(|| u64::from_str_radix(hex, 16).ok())?
    }

    /// A float written as 16 hex digits.
    pub fn f64(&mut self, field: &'a str) -> Option<f64> {
        self.hex(field, 16).map(f64::from_bits)
    }

    /// An instant in microseconds.
    pub fn time(&mut self, field: &'a str) -> Option<SimTime> {
        self.int(field).map(SimTime::from_micros)
    }

    /// A run of exactly `n` flags.
    pub fn flags(&mut self, field: &'a str, n: usize) -> Option<Vec<bool>> {
        let flag = |b| (b == b'0' || b == b'1').then_some(b == b'1');
        let flags: Vec<bool> = self.text(field)?.bytes().map(flag).collect::<Option<_>>()?;
        (flags.len() == n).then_some(flags)
    }

    /// One flag.
    pub fn flag(&mut self, field: &'a str) -> Option<bool> {
        Some(self.flags(field, 1)?[0])
    }

    /// True, and consumed, when the next item is an idle GPU slot, `-`.
    pub fn idle(&mut self) -> bool {
        let idle = self.rest.starts_with('-');
        self.rest = &self.rest[usize::from(idle)..];
        self.joined |= idle;
        idle
    }

    /// A job written by [`Writer::job`].
    pub fn job(&mut self) -> Option<JobSpec> {
        Some(JobSpec {
            id: JobId(self.int("job id")?),
            model: *ModelKind::ALL.get(self.int::<usize>("model")?)?,
            batch_size: self.int("batch size")?,
            rounds: self.int("rounds")?,
            sync_scale: self.int("sync scale")?,
            batches_per_task: self.int("batches per task")?,
            weight: self.f64("weight")?,
            arrival: self.time("arrival")?,
        })
    }

    /// A histogram written by [`Writer::hist`], over its `bounds`.
    pub fn hist(&mut self, bounds: &[f64]) -> Option<Histogram> {
        let counts = (0..=bounds.len()).map(|_| self.int("bucket count"));
        let counts = counts.collect::<Option<Vec<u64>>>()?;
        let sum = self.f64("sum")?;
        self.field.0 = "bucket total";
        Histogram::from_parts(bounds, counts, sum)
    }
}
