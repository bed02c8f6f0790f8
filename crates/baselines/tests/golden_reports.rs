//! Golden-snapshot determinism guard for the simulation engine.
//!
//! Every scheduler runs a fixed small workload under a healthy and a
//! composite fault configuration; the resulting [`SimReport`]s, rendered
//! through the dependency-free `SimReport::to_json` serializer, must match
//! the committed fixtures byte for byte. Any engine change that alters a
//! single event ordering, float summation order, or metric value fails
//! here — which is exactly the guarantee the hot-path optimization work
//! relies on: *faster, not different*.
//!
//! To regenerate fixtures after an intentional behavior change:
//!
//! ```text
//! HARE_BLESS=1 cargo test -p hare-baselines --test golden_reports
//! ```
//!
//! and commit the diff (reviewing it as a semantic change, not noise).

mod support;

use hare_baselines::{build_simulation, run_scheme_faulted, HareOnline, RunOptions, Scheme};
use hare_sim::{FaultPlan, SimReport, SimWorkload};
use std::fs;
use std::path::PathBuf;
use support::{composite_plan, golden_workload as workload};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(format!("{name}.json"))
}

/// Compare one report against its committed fixture (or rewrite the
/// fixture under `HARE_BLESS=1`).
fn check(name: &str, report: &SimReport) {
    let got = report.to_json();
    let path = fixture_path(name);
    if std::env::var_os("HARE_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("fixture dir has a parent"))
            .expect("create fixture dir");
        fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with HARE_BLESS=1 to generate",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "SimReport for {name} drifted from its golden fixture — the engine \
         changed observable behavior (re-bless with HARE_BLESS=1 only if \
         the change is intentional)"
    );
}

fn online_report(w: &SimWorkload, opts: RunOptions, plan: &FaultPlan) -> SimReport {
    build_simulation(Scheme::Hare, w, opts, plan)
        .run(&mut HareOnline::new())
        .expect("simulation failed")
}

#[test]
fn reports_match_golden_fixtures() {
    let w = workload();
    let healthy = FaultPlan::default();
    let faulted = composite_plan();
    let opts = RunOptions::default();
    for scheme in Scheme::ALL {
        let name = scheme.name();
        check(
            &format!("{name}_healthy"),
            &run_scheme_faulted(scheme, &w, opts, &healthy),
        );
        check(
            &format!("{name}_faulted"),
            &run_scheme_faulted(scheme, &w, opts, &faulted),
        );
    }
    check("Hare_Online_healthy", &online_report(&w, opts, &healthy));
    check("Hare_Online_faulted", &online_report(&w, opts, &faulted));
    // One timeline-recording run, so UtilSpan serialization is pinned too.
    let tl_opts = RunOptions {
        timelines: true,
        ..opts
    };
    check(
        "Gavel_FIFO_timelines",
        &run_scheme_faulted(Scheme::GavelFifo, &w, tl_opts, &faulted),
    );
}

/// Observability must be a pure observer: attaching a `ChromeTraceSink`
/// to both the engine and online Hare must reproduce the *same committed
/// fixtures* byte for byte. (This test never blesses — it always compares
/// against the fixtures the untraced run above maintains, so a tracing
/// hook that perturbs event order or float summation fails here even
/// under `HARE_BLESS=1`.)
#[test]
fn tracing_leaves_reports_byte_identical() {
    use hare_sim::ChromeTraceSink;
    use std::sync::Arc;

    let w = workload();
    let opts = RunOptions::default();
    for (suffix, plan) in [
        ("healthy", FaultPlan::default()),
        ("faulted", composite_plan()),
    ] {
        let sink = Arc::new(ChromeTraceSink::new());
        let report = build_simulation(Scheme::Hare, &w, opts, &plan)
            .with_trace(sink.clone())
            .run(&mut HareOnline::new().with_trace(sink.clone()))
            .expect("traced simulation failed");
        assert!(!sink.is_empty(), "the traced run must record events");
        let got = report.to_json();
        let path = fixture_path(&format!("Hare_Online_{suffix}"));
        let want = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
        assert_eq!(
            got, want,
            "tracing changed the Hare_Online_{suffix} report bytes — the \
             observability layer must not perturb simulation behavior"
        );
    }
}
