//! The incremental gang core against the per-call oracle in
//! `support/oracle.rs`: on small random workloads under random fault plans
//! (transient and permanent GPU failures, stragglers with speculation
//! armed, network and checkpoint-store faults), each of the four gang
//! baselines must produce a report byte-identical to the policy it
//! replaced, which rebuilt every decision from the view on every call.

mod support;

use hare_baselines::{
    build_simulation, GavelFifo, RunOptions, SchedAllox, SchedHomo, Scheme, Srtf,
};
use hare_sim::{FaultPlan, Policy, SimWorkload};
use proptest::prelude::*;
use support::oracle;

/// The new policy and its oracle for one gang scheme.
fn pair(scheme: Scheme) -> (Box<dyn Policy>, Box<dyn Policy>) {
    match scheme {
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
        Scheme::Hare => unreachable!("Hare replays a plan, it has no gang core"),
    }
}

/// Run every gang scheme and its oracle on one workload and plan; the
/// reports (or errors) must agree byte for byte.
fn assert_agree(w: &SimWorkload, plan: &FaultPlan, seed: u64) {
    let opts = RunOptions {
        seed,
        ..RunOptions::default()
    };
    for scheme in Scheme::ALL.into_iter().filter(|&s| s != Scheme::Hare) {
        let sim = build_simulation(scheme, w, opts, plan);
        let (mut new, mut old) = pair(scheme);
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gang_core_matches_the_oracle_under_random_faults(
        w in support::small_workloads(),
        plan in support::fault_plans(),
        seed in 0u64..1_000,
    ) {
        assert_agree(&w, &plan, seed);
    }
}
