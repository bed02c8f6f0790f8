//! Wall-clock spans for the traced run, and the pass context that keeps
//! output checks and probe calls out of the timed region.
//!
//! A span is one timed call into a layer's public function: name, start,
//! end and parent. Calls too frequent to record one by one (a policy's
//! `dispatch`, a queue scheduler's `plan`) are folded into a *rollup*:
//! one total and a call count under the span that was open. A layer's
//! self time is its span time minus its child spans and rollups.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Seconds since the recorder's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Time spent in excluded work (checks, probes) while the span was
    /// open; not part of the span's duration.
    pub excluded: f64,
}

impl Span {
    /// Wall time of the call, excluded work removed.
    pub fn duration(&self) -> f64 {
        self.end - self.start - self.excluded
    }
}

/// Many short calls folded into one total under a parent span.
#[derive(Clone, Debug)]
pub struct Rollup {
    pub name: String,
    pub parent: Option<usize>,
    pub total: f64,
    pub calls: u64,
}

/// Span buffer for one traced pass.
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    rollups: RefCell<Vec<Rollup>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            rollups: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn enter(&self, name: &str) -> usize {
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            start: self.now(),
            end: 0.0,
            parent,
            excluded: 0.0,
        });
        let id = spans.len() - 1;
        self.stack.borrow_mut().push(id);
        id
    }

    fn exit(&self, id: usize) {
        let end = self.now();
        self.spans.borrow_mut()[id].end = end;
        let top = self.stack.borrow_mut().pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Charge `secs` of excluded work to every open span.
    fn exclude(&self, secs: f64) {
        let mut spans = self.spans.borrow_mut();
        for &id in self.stack.borrow().iter() {
            spans[id].excluded += secs;
        }
    }

    fn rollup(&self, name: &str, total: f64, calls: u64) {
        let parent = self.stack.borrow().last().copied();
        self.rollups.borrow_mut().push(Rollup {
            name: name.to_string(),
            parent,
            total,
            calls,
        });
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Summed duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span name: duration minus child spans and rollups.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut child = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        for r in self.rollups.borrow().iter() {
            if let Some(p) = r.parent {
                child[p] += r.total;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child) {
            *out.entry(s.name.clone()).or_insert(0.0) += s.duration() - c;
        }
        out
    }

    /// Rollup totals and call counts per name.
    pub fn rollups(&self) -> BTreeMap<String, (f64, u64)> {
        let mut out = BTreeMap::new();
        for r in self.rollups.borrow().iter() {
            let e = out.entry(r.name.clone()).or_insert((0.0, 0));
            e.0 += r.total;
            e.1 += r.calls;
        }
        out
    }

    /// Append this pass's spans and rollups to `json` as array elements.
    pub fn write_json(&self, pass: usize, json: &mut String) {
        for (id, s) in self.spans.borrow().iter().enumerate() {
            if !json.ends_with('[') {
                json.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                json,
                "\n{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\
                 \"parent\":{parent},\"excluded\":{}}}",
                s.name, s.start, s.end, s.excluded
            );
        }
        for r in self.rollups.borrow().iter() {
            if !json.ends_with('[') {
                json.push(',');
            }
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                json,
                "\n{{\"pass\":{pass},\"rollup\":\"{}\",\"parent\":{parent},\"total\":{},\"calls\":{}}}",
                r.name, r.total, r.calls
            );
        }
    }
}

/// What one pass runs under: an optional recorder plus the clock of work
/// kept out of the timed region.
pub struct Ctx<'a> {
    rec: Option<&'a Recorder>,
    excluded: Cell<f64>,
    probes: RefCell<BTreeMap<&'static str, f64>>,
}

impl<'a> Ctx<'a> {
    pub fn new(rec: Option<&'a Recorder>) -> Ctx<'a> {
        Ctx {
            rec,
            excluded: Cell::new(0.0),
            probes: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn traced(&self) -> bool {
        self.rec.is_some()
    }

    /// Run `f` as a span named `name` (a plain call when untraced).
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        match self.rec {
            Some(rec) => {
                let id = rec.enter(name);
                let out = f();
                rec.exit(id);
                out
            }
            None => f(),
        }
    }

    /// Fold `calls` calls totalling `secs` into the open span.
    pub fn rollup(&self, name: &str, secs: f64, calls: u64) {
        if let Some(rec) = self.rec {
            rec.rollup(name, secs, calls);
        }
    }

    /// Run `f` outside the timed region (output checks).
    pub fn exclude<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.excluded.set(self.excluded.get() + secs);
        if let Some(rec) = self.rec {
            rec.exclude(secs);
        }
        out
    }

    /// Run `f` outside the timed region and record its wall time under
    /// `name` — a separate call that measures work the library does
    /// inside a call the benchmark cannot split.
    pub fn probe<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = self.exclude(f);
        *self.probes.borrow_mut().entry(name).or_insert(0.0) += t.elapsed().as_secs_f64();
        out
    }

    /// Seconds of excluded work so far.
    pub fn excluded(&self) -> f64 {
        self.excluded.get()
    }

    /// Probe totals by name.
    pub fn probes(&self) -> BTreeMap<&'static str, f64> {
        self.probes.borrow().clone()
    }
}
