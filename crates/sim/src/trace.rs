//! Execution tracing: a zero-cost-when-disabled hook layer over the
//! simulator (and, via the baselines, the solver), plus a Chrome
//! trace-event JSON exporter loadable in Perfetto / `chrome://tracing`.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** The engine holds an
//!    `Option<Arc<ChromeTraceSink>>`; every hook is a single
//!    `if let Some(..)` branch on the event path, and the default is
//!    `None`. The `sim_report --smoke` benchmark guards this (see
//!    BENCH_sim.json).
//! 2. **Determinism.** Sinks are fed in event-handling order, which the
//!    engine already fixes bit-exactly. Solver spans use a *work-unit*
//!    clock (pivots, B&B nodes), never wall-clock, so traces are
//!    reproducible across machines and thread counts.
//! 3. **Golden fixtures untouched.** Tracing never feeds back into the
//!    simulation: a sink only observes. The golden-snapshot suite runs
//!    once with a live sink attached to prove report bytes are unchanged.
//!
//! The Chrome trace-event format reference is the "Trace Event Format"
//! document; we emit only `"X"` (complete), `"i"` (instant) and `"M"`
//! (metadata) phases, which every viewer understands.

use hare_cluster::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Which phase of a task's life a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskPhase {
    /// Model switching (stop + fetch + resume) before training starts.
    Switch,
    /// The training computation itself.
    Train,
}

/// A point event on the simulation clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimInstant {
    /// A job entered the system.
    JobArrival {
        /// Job index.
        job: usize,
    },
    /// A job finished its final synchronization round.
    JobComplete {
        /// Job index.
        job: usize,
    },
    /// A running task was preempted before finishing.
    Preempt {
        /// Task index.
        task: usize,
    },
    /// A GPU failed.
    GpuFailure,
    /// A failed GPU came back.
    GpuRecovery,
}

/// One buffered trace event, already resolved to Chrome trace fields.
#[derive(Clone, Debug)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    /// 'X' (complete) or 'i' (instant).
    ph: char,
    pid: u32,
    tid: u64,
    /// Microseconds.
    ts: u64,
    /// Microseconds; only meaningful for 'X'.
    dur: u64,
    /// Pre-rendered JSON fragments, e.g. `("job", "3")`.
    args: Vec<(&'static str, String)>,
}

/// The simulator process in the exported trace.
const PID_SIM: u32 = 0;
/// The solver process in the exported trace.
const PID_SOLVER: u32 = 1;
/// Simulator-track offset for per-job synchronization rows.
const TID_SYNC_BASE: u64 = 10_000;
/// Simulator track for instants not tied to a GPU or a job.
const TID_MISC: u64 = 9_999;

/// The trace sink: it buffers everything the simulation and the solver
/// report and renders Chrome trace-event JSON (an object with a
/// `traceEvents` array), loadable in Perfetto or `chrome://tracing`.
///
/// Hooks take `&self` (the buffer sits behind a mutex), so one sink is
/// shared through an `Arc` by the engine and by online Hare, and across
/// the parallel experiment harness's runs.
///
/// Layout: pid 0 is the simulator — one thread row per GPU, plus one
/// row per job for synchronization spans; pid 1 is the solver, whose
/// spans live on a deterministic work-unit clock rendered as
/// microseconds after the anchoring simulation time.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl ChromeTraceSink {
    /// An empty sink.
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::default()
    }

    fn push(&self, ev: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ev);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the buffered events as Chrome trace-event JSON. Metadata
    /// events naming processes and threads come first, then the payload
    /// in recording order.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = String::with_capacity(4096 + events.len() * 128);
        s.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut meta = |s: &mut String, name: &str, pid: u32, tid: Option<u64>, label: &str| {
            if !std::mem::take(&mut first) {
                s.push(',');
            }
            let _ = write!(s, "{{\"name\":{name:?},\"ph\":\"M\",\"pid\":{pid}");
            if let Some(t) = tid {
                let _ = write!(s, ",\"tid\":{t}");
            }
            let _ = write!(s, ",\"args\":{{\"name\":{label:?}}}}}");
        };
        meta(&mut s, "process_name", PID_SIM, None, "simulator");
        meta(&mut s, "process_name", PID_SOLVER, None, "solver");
        // Name every distinct simulator thread row we actually used.
        let mut tids: Vec<(u32, u64)> = events.iter().map(|e| (e.pid, e.tid)).collect();
        tids.sort_unstable();
        tids.dedup();
        for (pid, tid) in tids {
            let label = match (pid, tid) {
                (PID_SOLVER, _) => "solver".to_string(),
                (_, TID_MISC) => "events".to_string(),
                (_, t) if t >= TID_SYNC_BASE => format!("job {} sync", t - TID_SYNC_BASE),
                (_, t) => format!("gpu {t}"),
            };
            meta(&mut s, "thread_name", pid, Some(tid), &label);
        }
        for ev in events.iter() {
            s.push(',');
            let _ = write!(
                s,
                "{{\"name\":{:?},\"cat\":{:?},\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                ev.name, ev.cat, ev.ph, ev.pid, ev.tid, ev.ts
            );
            if ev.ph == 'X' {
                let _ = write!(s, ",\"dur\":{}", ev.dur);
            }
            if ev.ph == 'i' {
                // Thread-scoped instants render as small arrows.
                s.push_str(",\"s\":\"t\"");
            }
            s.push_str(",\"args\":{");
            for (i, (k, v)) in ev.args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{k:?}:{v}");
            }
            s.push_str("}}");
        }
        s.push_str("]}");
        s
    }

    /// A task occupied `gpu` from `from` to `to` in the given phase.
    pub fn task_span(
        &self,
        phase: TaskPhase,
        gpu: usize,
        task: usize,
        job: usize,
        from: SimTime,
        to: SimTime,
    ) {
        let (name, cat) = match phase {
            TaskPhase::Switch => (format!("switch j{job}/t{task}"), "switch"),
            TaskPhase::Train => (format!("train j{job}/t{task}"), "train"),
        };
        self.push(TraceEvent {
            name,
            cat,
            ph: 'X',
            pid: PID_SIM,
            tid: gpu as u64,
            ts: from.as_micros(),
            dur: to.saturating_since(from).as_micros(),
            args: vec![("job", job.to_string()), ("task", task.to_string())],
        });
    }

    /// Job `job` synchronized round `round` from `from` to `to`.
    pub fn sync_span(&self, job: usize, round: usize, from: SimTime, to: SimTime) {
        self.push(TraceEvent {
            name: format!("sync j{job} r{round}"),
            cat: "sync",
            ph: 'X',
            pid: PID_SIM,
            tid: TID_SYNC_BASE + job as u64,
            ts: from.as_micros(),
            dur: to.saturating_since(from).as_micros(),
            args: vec![("job", job.to_string()), ("round", round.to_string())],
        });
    }

    /// A point event, optionally pinned to a GPU track.
    pub fn instant(&self, what: SimInstant, gpu: Option<usize>, at: SimTime) {
        let (name, args): (String, Vec<(&'static str, String)>) = match what {
            SimInstant::JobArrival { job } => {
                (format!("arrive j{job}"), vec![("job", job.to_string())])
            }
            SimInstant::JobComplete { job } => {
                (format!("complete j{job}"), vec![("job", job.to_string())])
            }
            SimInstant::Preempt { task } => {
                (format!("preempt t{task}"), vec![("task", task.to_string())])
            }
            SimInstant::GpuFailure => ("gpu failure".to_string(), vec![]),
            SimInstant::GpuRecovery => ("gpu recovery".to_string(), vec![]),
        };
        let tid = match (gpu, what) {
            (Some(g), _) => g as u64,
            (None, SimInstant::JobArrival { job } | SimInstant::JobComplete { job }) => {
                TID_SYNC_BASE + job as u64
            }
            (None, _) => TID_MISC,
        };
        self.push(TraceEvent {
            name,
            cat: "lifecycle",
            ph: 'i',
            pid: PID_SIM,
            tid,
            ts: at.as_micros(),
            dur: 0,
            args,
        });
    }

    /// The online scheduler replanned at `at`; the chosen plan came from
    /// `rung` after `work` solver work units, charged as `latency` on the
    /// simulation clock.
    pub fn replan(&self, at: SimTime, latency: SimDuration, rung: &str, work: u64) {
        self.push(TraceEvent {
            name: format!("replan ({rung})"),
            cat: "replan",
            ph: 'X',
            pid: PID_SOLVER,
            tid: 0,
            ts: at.as_micros(),
            dur: latency.as_micros(),
            args: vec![("work", work.to_string()), ("rung", format!("{rung:?}"))],
        });
    }

    /// A solver phase ran from `start_work` to `end_work` on the solver's
    /// deterministic work-unit clock, anchored at simulation time
    /// `anchor`. `detail` is phase-specific (cut round, branch index,
    /// rung outcome, ...).
    pub fn solver_span(
        &self,
        phase: &str,
        anchor: SimTime,
        start_work: u64,
        end_work: u64,
        detail: u64,
    ) {
        self.push(TraceEvent {
            name: phase.to_string(),
            cat: "solver",
            ph: 'X',
            pid: PID_SOLVER,
            tid: 0,
            // Work units rendered as microseconds past the anchor: the
            // absolute positions are fictitious but ordering and nesting
            // are exact and deterministic.
            ts: anchor.as_micros() + start_work,
            dur: end_work.saturating_sub(start_work),
            args: vec![("detail", detail.to_string())],
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_is_valid_json_with_expected_events() {
        let sink = ChromeTraceSink::new();
        sink.task_span(
            TaskPhase::Switch,
            0,
            3,
            1,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        sink.task_span(
            TaskPhase::Train,
            0,
            3,
            1,
            SimTime::from_secs(2),
            SimTime::from_secs(5),
        );
        sink.sync_span(1, 0, SimTime::from_secs(5), SimTime::from_secs(6));
        sink.instant(SimInstant::GpuFailure, Some(2), SimTime::from_secs(4));
        sink.instant(SimInstant::JobArrival { job: 1 }, None, SimTime::ZERO);
        sink.replan(
            SimTime::from_secs(3),
            SimDuration::from_micros(250),
            "relaxation",
            40,
        );
        sink.solver_span("lp_round", SimTime::from_secs(3), 0, 40, 1);
        assert_eq!(sink.len(), 7);

        let json = sink.to_chrome_json();
        let v = serde_json::from_str(&json).expect("chrome trace parses");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 7 payload events plus metadata.
        assert!(events.len() > 7);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"train j1/t3"));
        assert!(names.contains(&"sync j1 r0"));
        assert!(names.contains(&"replan (relaxation)"));
        assert!(names.contains(&"lp_round"));
        // Train span timing survives the round trip.
        let train = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("train j1/t3"))
            .unwrap();
        assert_eq!(train.get("ts").unwrap().as_u64(), Some(2_000_000));
        assert_eq!(train.get("dur").unwrap().as_u64(), Some(3_000_000));
        assert_eq!(train.get("pid").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn empty_sink_still_exports_valid_json() {
        let sink = ChromeTraceSink::new();
        assert!(sink.is_empty());
        let json = sink.to_chrome_json();
        assert!(serde_json::from_str(&json).is_ok());
    }
}
