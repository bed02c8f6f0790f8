//! Early task cleaning (Section 4).
//!
//! Native PyTorch (and PipeSwitch) frees a task's GPU memory *after* the
//! task completes. Hare instead deletes each layer's intermediate data as
//! soon as that layer's backward pass finishes. The content is wiped, not
//! just unreferenced (the security benefit), and the released memory can
//! host the *next* task's first layer groups while the predecessor is
//! still finishing, hiding transfer latency. The second benefit is the one
//! a switch's cost sees, and the one modelled here.

use hare_cluster::{Bytes, SimDuration};
use hare_workload::ModelKind;

/// Fraction of a training step spent in the backward pass (forward ≈ 1/3,
/// backward ≈ 2/3 — the usual 1:2 rule of thumb for SGD training).
pub const BACKWARD_FRAC: f64 = 2.0 / 3.0;

/// How long before a predecessor task of `model`, whose full step
/// (forward + backward) takes `step_time`, ends its early cleaning has
/// freed `needed` bytes — the window during which the successor's preload
/// can overlap the predecessor's tail. Zero if it never frees that much.
///
/// The backward pass walks the `G` layer groups in reverse and wipes each
/// group's intermediate data as its backward completes: by
/// `(G − g)·⌊backward/G⌋` before the step ends, `g·⌊activation/G⌋` bytes
/// are free. The window is the offset of the first group `g` whose
/// release covers `needed`.
pub fn overlap_window(model: ModelKind, step_time: SimDuration, needed: Bytes) -> SimDuration {
    let spec = model.spec();
    let groups = spec.layer_groups.max(1) as u64;
    let per_group = spec.activation_bytes.as_u64() / groups;
    let first = match (needed.as_u64(), per_group) {
        (0, _) => 1,
        (_, 0) => return SimDuration::ZERO,
        (needed, per_group) => needed.div_ceil(per_group),
    };
    if first > groups {
        return SimDuration::ZERO;
    }
    step_time.mul_f64(BACKWARD_FRAC) / groups * (groups - first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::pipeline;
    use hare_cluster::GpuKind;

    /// The freed-bytes timeline scanned event by event: group `g`
    /// (1-based, backward order) has freed `g` groups' bytes by
    /// `(G − g)` group times before the step ends, and the window is the
    /// earliest event that frees `needed`.
    fn scanned_window(model: ModelKind, step_time: SimDuration, needed: Bytes) -> SimDuration {
        let spec = model.spec();
        let groups = spec.layer_groups.max(1) as u64;
        let per_group_time = step_time.mul_f64(BACKWARD_FRAC) / groups;
        let per_group_bytes = spec.activation_bytes.as_u64() / groups;
        (1..=groups)
            .map(|g| (per_group_time * (groups - g), per_group_bytes * g))
            .find(|&(_, freed)| freed >= needed.as_u64())
            .map(|(offset, _)| offset)
            .unwrap_or(SimDuration::ZERO)
    }

    #[test]
    fn closed_form_matches_the_event_scan() {
        for model in ModelKind::ALL {
            let spec = model.spec();
            let groups = spec.layer_groups.max(1) as u64;
            let per_group = spec.activation_bytes.as_u64() / groups;
            // Zero, every multiple of a group's bytes and its neighbours,
            // and more than the model ever frees.
            let mut needs = vec![0, 1, spec.activation_bytes.as_u64() + 1, u64::MAX];
            for k in 1..=groups + 1 {
                let exact = per_group * k;
                needs.extend([exact.saturating_sub(1), exact, exact + 1]);
            }
            for step_us in [0, 1, 7, 999, 55_000, 143_750, 2_000_000, 86_400_000_000] {
                let step = SimDuration::from_micros(step_us);
                for &needed in &needs {
                    let needed = Bytes::new(needed);
                    assert_eq!(
                        overlap_window(model, step, needed),
                        scanned_window(model, step, needed),
                        "{model}, step {step}, needed {needed}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_last_group_frees_at_the_step_end() {
        let step = SimDuration::from_millis(60);
        let spec = ModelKind::ResNet50.spec();
        let groups = spec.layer_groups as u64;
        let all = Bytes::new(spec.activation_bytes.as_u64() / groups * groups);
        // Integer division may shave a few bytes per group; within a group.
        assert!(spec.activation_bytes.as_u64() - all.as_u64() < groups);
        assert_eq!(
            overlap_window(ModelKind::ResNet50, step, all),
            SimDuration::ZERO
        );
        let first = overlap_window(ModelKind::ResNet50, step, Bytes::ZERO);
        assert_eq!(
            first,
            step.mul_f64(BACKWARD_FRAC) / groups * (groups - 1),
            "the first group frees one group time into the backward pass"
        );
    }

    #[test]
    fn overlap_window_scales_with_need() {
        let step = SimDuration::from_millis(68);
        let small = overlap_window(ModelKind::Vgg19, step, Bytes::mib(1));
        let large = overlap_window(ModelKind::Vgg19, step, Bytes::mib(1000));
        assert!(small > large);
        // Needing more than is ever freed gives no overlap.
        assert_eq!(
            overlap_window(ModelKind::Vgg19, step, Bytes::gib(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn first_group_preload_fits_well_within_backward() {
        // The fig-7/table-3 scenario: the successor needs one layer group
        // resident before it can start; early cleaning frees that much long
        // before the predecessor finishes.
        let step = SimDuration::from_millis(68); // VGG19 on V100
        let next = pipeline(ModelKind::ResNet50, GpuKind::V100);
        let window = overlap_window(ModelKind::Vgg19, step, next.group_bytes);
        assert!(
            window > next.first_group,
            "window {window} should exceed first-group transfer {}",
            next.first_group
        );
    }
}
