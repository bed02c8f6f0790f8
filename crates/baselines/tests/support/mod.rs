//! Test support shared by the baselines' integration tests: the golden
//! workload and composite fault plan, small random runs with random fault
//! plans, and the per-call oracle of the gang baselines. Each test binary
//! uses a different subset, so unused items are expected.

#![allow(dead_code)]

pub mod oracle;

use hare_cluster::{Cluster, SimDuration, SimTime};
use hare_sim::{
    FaultPlan, GpuFault, NetworkFault, SimWorkload, SpeculationConfig, StorageFault,
    StorageFaultKind, StragglerWindow,
};
use hare_workload::{ProfileDb, TraceConfig};
use proptest::prelude::*;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// The golden fixture workload: 12 jobs on the 15-GPU testbed (the
/// fault-sweep smoke configuration), seed 7.
pub fn golden_workload() -> SimWorkload {
    let db = ProfileDb::new(7);
    let trace = TraceConfig {
        n_jobs: 12,
        seed: 7,
        ..TraceConfig::default()
    }
    .generate();
    SimWorkload::build(Cluster::testbed15(), trace, &db)
}

/// A composite plan touching every fault subsystem at once: transient and
/// permanent GPU loss, stragglers (with speculation armed so twins
/// launch), network degradation, and checkpoint-store outage/slowdown.
pub fn composite_plan() -> FaultPlan {
    let mut plan = FaultPlan {
        speculation: Some(SpeculationConfig { threshold: 1.5 }),
        ..FaultPlan::default()
    };
    plan.gpu_faults.push(GpuFault {
        gpu: 0,
        at: t(120),
        recover_after: Some(SimDuration::from_secs(300)),
    });
    plan.gpu_faults.push(GpuFault {
        gpu: 1,
        at: t(400),
        recover_after: None,
    });
    plan.stragglers.push(StragglerWindow {
        gpu: 2,
        from: t(60),
        until: t(900),
        slowdown: 2.5,
    });
    plan.stragglers.push(StragglerWindow {
        gpu: 5,
        from: t(1_000),
        until: t(4_000),
        slowdown: 3.0,
    });
    plan.network_faults.push(NetworkFault {
        machine: None,
        from: t(200),
        until: t(1_400),
        factor: 0.4,
    });
    plan.storage_faults.push(StorageFault {
        from: t(30),
        until: t(120),
        kind: StorageFaultKind::Outage,
    });
    plan.storage_faults.push(StorageFault {
        from: t(600),
        until: t(1_200),
        kind: StorageFaultKind::Slowdown(2.0),
    });
    plan
}

/// GPUs of the 15-GPU testbed the random runs use.
const N_GPUS: usize = 15;
/// Permanent-loss cap: the widest trace gang (`sync_scale` 6) must still
/// fit on the surviving GPUs even while every transient window overlaps.
const MAX_PERMANENT: usize = 3;

/// Random GPU faults, sanitized: per-GPU down windows disjoint, at most
/// [`MAX_PERMANENT`] permanent losses.
fn gpu_faults() -> impl Strategy<Value = Vec<GpuFault>> {
    prop::collection::vec(
        (0usize..N_GPUS, 0u64..2_400, any::<bool>(), 30u64..1_200),
        0..6,
    )
    .prop_map(|raw| {
        let mut faults: Vec<GpuFault> = raw
            .into_iter()
            .map(|(gpu, at, transient, down)| GpuFault {
                gpu,
                at: t(at),
                recover_after: transient.then(|| SimDuration::from_secs(down)),
            })
            .collect();
        faults.sort_by_key(|f| (f.gpu, f.at));
        let mut out: Vec<GpuFault> = Vec::new();
        let mut permanent = 0;
        for f in faults {
            let overlaps = out.iter().any(|p| {
                p.gpu == f.gpu
                    && match p.recover_after {
                        None => true,
                        Some(d) => f.at < p.at + d,
                    }
            });
            if overlaps {
                continue;
            }
            if f.recover_after.is_none() {
                if permanent == MAX_PERMANENT {
                    continue;
                }
                permanent += 1;
            }
            out.push(f);
        }
        out
    })
}

/// Random fault plans: GPU failures, stragglers with speculation armed
/// half the time, network and checkpoint-store faults.
pub fn fault_plans() -> impl Strategy<Value = FaultPlan> {
    let stragglers = prop::collection::vec(
        (0usize..N_GPUS, 0u64..4_000, 60u64..1_800, 1.0f64..4.0),
        0..5,
    );
    let network = prop::collection::vec((0usize..5, 0u64..4_000, 60u64..1_500, 0.05f64..1.0), 0..3);
    let storage =
        prop::collection::vec((0u64..3_000, 30u64..600, 1.0f64..5.0, any::<bool>()), 0..3);
    let speculation = (any::<bool>(), 1.2f64..3.0);
    (gpu_faults(), stragglers, network, storage, speculation).prop_map(
        |(gpu_faults, stragglers, network, storage, (speculate, threshold))| FaultPlan {
            gpu_faults,
            stragglers: stragglers
                .into_iter()
                .map(|(gpu, from, len, slowdown)| StragglerWindow {
                    gpu,
                    from: t(from),
                    until: t(from + len),
                    slowdown,
                })
                .collect(),
            network_faults: network
                .into_iter()
                .map(|(m, from, len, factor)| NetworkFault {
                    // Machine 4 does not exist: index 4 means the backbone.
                    machine: (m < 4).then_some(m),
                    from: t(from),
                    until: t(from + len),
                    factor,
                })
                .collect(),
            storage_faults: storage
                .into_iter()
                .map(|(from, len, slow, outage)| StorageFault {
                    from: t(from),
                    until: t(from + len),
                    kind: if outage {
                        StorageFaultKind::Outage
                    } else {
                        StorageFaultKind::Slowdown(slow)
                    },
                })
                .collect(),
            solver_degradations: Vec::new(),
            speculation: speculate.then_some(SpeculationConfig { threshold }),
        },
    )
}

/// Small random workloads on the testbed: 2–10 jobs arriving every 5 or
/// 20 s on average, so gangs queue, block and free up through the run.
pub fn small_workloads() -> impl Strategy<Value = SimWorkload> {
    (0u64..10_000, 2u32..=10, any::<bool>()).prop_map(|(seed, n_jobs, dense)| {
        let trace = TraceConfig {
            n_jobs,
            seed,
            mean_interarrival: SimDuration::from_secs(if dense { 5 } else { 20 }),
            ..TraceConfig::default()
        }
        .generate();
        SimWorkload::build(Cluster::testbed15(), trace, &ProfileDb::new(seed))
    })
}
