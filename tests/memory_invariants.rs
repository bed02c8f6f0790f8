//! Property-based tests on the fast-task-switching substrate: the
//! speculative cache's byte accounting and correctness, and switching-cost
//! monotonicity across arbitrary task sequences.

use hare::cluster::{Bytes, GpuKind, SimDuration};
use hare::memory::{
    plan_cache, switch_time, PrevTask, SpeculativeCache, SwitchPolicy, SwitchRequest, TaskModelRef,
};
use hare::workload::{JobId, ModelKind};
use proptest::prelude::*;

fn models() -> impl Strategy<Value = ModelKind> {
    prop::sample::select(ModelKind::WORKLOAD.to_vec())
}

fn sequences() -> impl Strategy<Value = Vec<TaskModelRef>> {
    prop::collection::vec((0u32..6, models()), 1..40).prop_map(|v| {
        v.into_iter()
            .map(|(job, model)| TaskModelRef {
                job: JobId(job),
                model,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn cache_hits_require_an_earlier_same_job_occurrence(seq in sequences()) {
        for gpu in [GpuKind::V100, GpuKind::M60] {
            let plan = plan_cache(&seq, gpu);
            prop_assert_eq!(plan.hits.len(), seq.len());
            for (i, &hit) in plan.hits.iter().enumerate() {
                if hit {
                    let earlier = seq[..i]
                        .iter()
                        .any(|t| t.job == seq[i].job && t.model == seq[i].model);
                    prop_assert!(earlier, "hit at {} without prior occurrence", i);
                }
            }
            // First occurrence of every (job, model) is always a miss.
            let mut seen = Vec::new();
            for (i, t) in seq.iter().enumerate() {
                if !seen.contains(&(t.job, t.model)) {
                    prop_assert!(!plan.hits[i], "first occurrence hit at {}", i);
                    seen.push((t.job, t.model));
                }
            }
            prop_assert!(plan.peak <= gpu.spec().memory);
        }
    }

    #[test]
    fn ample_memory_means_no_evictions_and_max_hits(seq in sequences()) {
        // Distinct (job, model) working sets on a V100: graph models only,
        // which always all fit.
        let tiny: Vec<TaskModelRef> = seq
            .iter()
            .map(|t| TaskModelRef {
                job: t.job,
                model: ModelKind::GraphSage,
            })
            .collect();
        let plan = plan_cache(&tiny, GpuKind::V100);
        prop_assert_eq!(plan.evictions, 0);
        let distinct = {
            let mut d = tiny.clone();
            d.sort_by_key(|t| t.job.0);
            d.dedup();
            d.len()
        };
        let misses = plan.hits.iter().filter(|&&h| !h).count();
        prop_assert_eq!(misses, distinct);
    }

    #[test]
    fn switch_cost_ordering_holds_everywhere(
        prev in models(),
        next in models(),
        gpu in prop::sample::select(vec![GpuKind::V100, GpuKind::T4, GpuKind::K80, GpuKind::M60]),
        step_ms in 20u64..2_000,
    ) {
        let req = SwitchRequest {
            gpu,
            prev: Some(PrevTask { model: prev, step_time: SimDuration::from_millis(step_ms) }),
            next,
            cache_hit: false,
        };
        let d = switch_time(SwitchPolicy::Default, &req).total();
        let p = switch_time(SwitchPolicy::PipeSwitch, &req).total();
        let h = switch_time(SwitchPolicy::Hare, &req).total();
        prop_assert!(h <= p, "{next} on {gpu}: hare {h} > pipeswitch {p}");
        prop_assert!(p < d);
        // A cache hit is never slower than a miss.
        let hit = switch_time(SwitchPolicy::Hare, &SwitchRequest { cache_hit: true, ..req }).total();
        prop_assert!(hit <= h);
    }

    #[test]
    fn cache_peak_is_resident_weights_plus_running_activations(
        ops in prop::collection::vec((0u32..6, models(), 0u8..8), 1..60),
    ) {
        for gpu in [GpuKind::V100, GpuKind::M60] {
            let capacity = gpu.spec().memory;
            let mut cache = SpeculativeCache::new(gpu);
            // The reference: resident (job, model) pairs, least recently
            // used first, and the fold of "resident weights + this task's
            // activations" over every admitted task.
            let mut resident: Vec<TaskModelRef> = Vec::new();
            let weights = |r: &[TaskModelRef]| -> Bytes {
                r.iter().map(|t| t.model.spec().param_bytes).sum()
            };
            let (mut peak, mut evictions) = (Bytes::ZERO, 0u32);
            for &(job, model, op) in &ops {
                let job = JobId(job);
                if op == 0 {
                    cache.retire_job(job);
                    resident.retain(|t| t.job != job);
                    continue;
                }
                let task = TaskModelRef { job, model };
                let spec = model.spec();
                let hit = resident.contains(&task);
                let need = spec.activation_bytes + if hit { Bytes::ZERO } else { spec.param_bytes };
                while capacity - weights(&resident) < need {
                    let victim = resident.iter().position(|&t| t != task);
                    resident.remove(victim.expect("a single task always fits"));
                    evictions += 1;
                }
                resident.retain(|&t| t != task);
                resident.push(task);
                peak = peak.max(weights(&resident) + spec.activation_bytes);
                prop_assert_eq!(cache.admit(task), hit);
                prop_assert_eq!(cache.peak(), peak);
                prop_assert_eq!(cache.evictions(), evictions);
                prop_assert!(cache.peak() <= capacity);
            }
        }
    }
}
