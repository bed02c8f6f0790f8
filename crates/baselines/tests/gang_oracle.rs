//! The policies that dispatch from the change log against the per-call
//! oracles in `support/oracle.rs`: on small random workloads under random
//! fault plans (transient and permanent GPU failures, stragglers with
//! speculation armed, network and checkpoint-store faults), each of the
//! four gang baselines and Hare's plan replay must produce a report
//! byte-identical to the policy it replaced, which rebuilt every decision
//! from the view on every call.

mod support;

use hare_baselines::{
    build_simulation, GavelFifo, RunOptions, SchedAllox, SchedHomo, Scheme, Srtf,
};
use hare_core::hare_schedule;
use hare_sim::{FaultPlan, OfflineReplay, Policy, SimWorkload};
use proptest::prelude::*;
use support::oracle;

/// The new policy and its oracle for one scheme on `w`; Hare's pair
/// replays the same plan.
fn pair(scheme: Scheme, w: &SimWorkload) -> (Box<dyn Policy>, Box<dyn Policy>) {
    match scheme {
        Scheme::Hare => {
            let plan = hare_schedule(&w.problem).schedule;
            (
                Box::new(OfflineReplay::new("Hare", w, &plan)),
                Box::new(oracle::OfflineReplay::new(w, &plan)),
            )
        }
        Scheme::GavelFifo => (
            Box::new(GavelFifo::new()),
            Box::<oracle::GavelFifo>::default(),
        ),
        Scheme::Srtf => (Box::new(Srtf::new()), Box::<oracle::Srtf>::default()),
        Scheme::SchedHomo => (
            Box::new(SchedHomo::new()),
            Box::<oracle::SchedHomo>::default(),
        ),
        Scheme::SchedAllox => (
            Box::new(SchedAllox::new()),
            Box::<oracle::SchedAllox>::default(),
        ),
    }
}

/// Run every scheme and its oracle on one workload and plan; the reports
/// (or errors) must agree byte for byte.
fn assert_agree(w: &SimWorkload, plan: &FaultPlan, seed: u64) {
    let opts = RunOptions {
        seed,
        ..RunOptions::default()
    };
    for scheme in Scheme::ALL {
        let sim = build_simulation(scheme, w, opts, plan);
        let (mut new, mut old) = pair(scheme, w);
        let render = |p: &mut dyn Policy| match sim.run(p) {
            Ok(report) => report.to_json(),
            Err(e) => format!("error: {e:?}"),
        };
        let (got, want) = (render(new.as_mut()), render(old.as_mut()));
        assert!(
            got == want,
            "{} diverged from its oracle on {} jobs under {plan:?}\n got: {got}\nwant: {want}",
            scheme.name(),
            w.problem.jobs.len()
        );
    }
}

proptest! {
    // 256 cases: a GPU that goes idle and is taken by a speculation twin
    // before its queue head is released (the replay's `GpuBusy` path)
    // first shows up at case 132.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gang_core_matches_the_oracle_under_random_faults(
        w in support::small_workloads(),
        plan in support::fault_plans(),
        seed in 0u64..1_000,
    ) {
        assert_agree(&w, &plan, seed);
    }
}
