//! Host↔device model transfers over PCIe.
//!
//! The Default protocol moves the whole parameter set before the task can
//! start. PipeSwitch exploits the layered structure of neural networks: it
//! splits the parameters into layer groups and pipelines group transmission
//! with execution, so only the *first* group's transfer sits on the critical
//! path (Section 4, citing PipeSwitch \[8\]).

use hare_cluster::{Bytes, GpuKind, SimDuration};
use hare_workload::ModelKind;
use serde::{Deserialize, Serialize};

/// Time to move the full parameter set of `model` onto `gpu` over PCIe.
pub fn full_transfer(model: ModelKind, gpu: GpuKind) -> SimDuration {
    gpu.spec().pcie.transfer_time(model.spec().param_bytes)
}

/// A pipelined (grouped) transfer plan.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pipeline {
    /// Size of one layer group (the last group may be smaller; irrelevant
    /// for costs).
    pub group_bytes: Bytes,
    /// Transfer time of the first group — the exposed startup latency.
    pub first_group: SimDuration,
}

/// Build the pipelined transfer plan for `model` on `gpu`.
pub fn pipeline(model: ModelKind, gpu: GpuKind) -> Pipeline {
    let spec = model.spec();
    let groups = spec.layer_groups.max(1);
    let group_bytes = Bytes::new(spec.param_bytes.as_u64().div_ceil(groups as u64));
    Pipeline {
        group_bytes,
        first_group: gpu.spec().pcie.transfer_time(group_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_exposes_only_first_group() {
        for m in ModelKind::ALL {
            let p = pipeline(m, GpuKind::V100);
            let groups = m.spec().layer_groups;
            let total = full_transfer(m, GpuKind::V100);
            assert!(p.first_group < total || groups == 1);
            // First group is ~1/groups of the total.
            let expected = total.as_millis_f64() / groups as f64;
            let got = p.first_group.as_millis_f64();
            assert!(
                (got - expected).abs() / expected < 0.05,
                "{m}: first={got:.3} expected~{expected:.3}"
            );
        }
    }

    #[test]
    fn full_transfer_matches_pcie_rate() {
        // VGG19 is 548 MiB over 15.75 GB/s: ~36.5 ms.
        let t = full_transfer(ModelKind::Vgg19, GpuKind::V100);
        let ms = t.as_millis_f64();
        assert!((ms - 36.5).abs() < 1.0, "got {ms:.2}ms");
    }

    #[test]
    fn graph_models_transfer_almost_instantly() {
        let t = full_transfer(ModelKind::GraphSage, GpuKind::K80);
        assert!(t < SimDuration::from_millis(1));
    }

    #[test]
    fn group_bytes_cover_params() {
        for m in ModelKind::ALL {
            let p = pipeline(m, GpuKind::T4);
            let groups = m.spec().layer_groups as u64;
            assert!(Bytes::new(p.group_bytes.as_u64() * groups) >= m.spec().param_bytes);
        }
    }
}
