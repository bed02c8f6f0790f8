//! Walkthrough of the fast-task-switching subsystem (Section 4): early
//! task cleaning, speculative memory management, and the resulting switch
//! costs under the three runtimes.
//!
//! ```sh
//! cargo run --release --example switching_showcase
//! ```

use hare::cluster::{GpuKind, SimDuration};
use hare::memory::{
    cleaning, plan_cache, switch_time, transfer, PrevTask, SwitchPolicy, SwitchRequest,
    TaskModelRef,
};
use hare::workload::{JobId, ModelKind};

fn main() {
    let gpu = GpuKind::V100;

    // --- Early task cleaning ---------------------------------------------
    let bert = ModelKind::BertBase.spec();
    let step = SimDuration::from_millis_f64(ModelKind::BertBase.batch_ms(gpu));
    let next = transfer::pipeline(ModelKind::ResNet50, gpu);
    println!(
        "early cleaning during one BERT step ({step}): wipes {} of activations \
         across {} layer groups",
        bert.activation_bytes, bert.layer_groups
    );
    println!(
        "the successor's first layer group ({}) can preload {} before the step ends \
         (its transfer takes {})\n",
        next.group_bytes,
        cleaning::overlap_window(ModelKind::BertBase, step, next.group_bytes),
        next.first_group
    );

    // --- Speculative memory management ------------------------------------
    let seq: Vec<TaskModelRef> = (0..12)
        .map(|i| TaskModelRef {
            job: JobId(i % 3),
            model: [ModelKind::ResNet50, ModelKind::GraphSage, ModelKind::Vgg19][(i % 3) as usize],
        })
        .collect();
    let plan = plan_cache(&seq, gpu);
    println!(
        "speculative cache over a 12-task interleaving of 3 jobs: hit rate {:.0}%, \
         {} evictions, peak memory {}",
        plan.hit_rate() * 100.0,
        plan.evictions,
        plan.peak
    );

    // --- Switch costs under the three runtimes ----------------------------
    println!("\nswitch GraphSAGE -> ResNet50 on a V100:");
    for policy in SwitchPolicy::ALL {
        for hit in [false, true] {
            if hit && policy != SwitchPolicy::Hare {
                continue;
            }
            let b = switch_time(
                policy,
                &SwitchRequest {
                    gpu,
                    prev: Some(PrevTask {
                        model: ModelKind::GraphSage,
                        step_time: SimDuration::from_millis_f64(ModelKind::GraphSage.batch_ms(gpu)),
                    }),
                    next: ModelKind::ResNet50,
                    cache_hit: hit,
                },
            );
            println!(
                "  {:<10}{} total {:>10}  (cleanup {} | context {} | framework {} | transfer {} | software {})",
                policy.name(),
                if hit { " (cache hit)" } else { "            " },
                b.total().to_string(),
                b.cleanup,
                b.context,
                b.framework,
                b.transfer,
                b.software
            );
        }
    }
}
