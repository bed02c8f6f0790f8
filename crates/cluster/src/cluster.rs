//! Cluster topology: a set of GPUs spread over host machines.
//!
//! Builders cover the paper's configurations: the exact 15-GPU testbed
//! (8 V100 + 4 T4 + 1 K80 + 2 M60 on 4 EC2 instances, Section 7.1), the
//! homogeneous/mixed clusters of Fig. 5, and the three heterogeneity levels
//! of Fig. 16.

use crate::gpu::{Gpu, GpuId, GpuKind, MachineId};
use crate::network::NetworkModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The heterogeneity levels studied in Fig. 16.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Heterogeneity {
    /// Only V100 GPUs.
    Low,
    /// An even mix of V100 and K80.
    Mid,
    /// An even mix of V100, T4, K80 and M60 (the testbed's flavour).
    High,
}

impl Heterogeneity {
    /// The GPU kinds participating at this level.
    pub fn kinds(self) -> &'static [GpuKind] {
        match self {
            Heterogeneity::Low => &[GpuKind::V100],
            Heterogeneity::Mid => &[GpuKind::V100, GpuKind::K80],
            Heterogeneity::High => &[GpuKind::V100, GpuKind::T4, GpuKind::K80, GpuKind::M60],
        }
    }
}

/// A heterogeneous GPU cluster.
///
/// GPU ids are dense (`0..gpu_count`), machine ids dense (`0..machine_count`),
/// so per-GPU and per-machine state can live in plain vectors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cluster {
    gpus: Vec<Gpu>,
    machine_count: u32,
    network: NetworkModel,
}

impl Cluster {
    /// Build a cluster from (kind, count) pairs, packing `gpus_per_machine`
    /// GPUs of the same kind onto each machine (mirroring how cloud GPU
    /// instances are provisioned).
    pub fn from_counts(counts: &[(GpuKind, u32)], gpus_per_machine: u32) -> Self {
        assert!(gpus_per_machine > 0, "need at least one GPU per machine");
        let mut gpus = Vec::new();
        let mut machine = 0u32;
        for &(kind, count) in counts {
            let mut placed = 0;
            while placed < count {
                let here = (count - placed).min(gpus_per_machine);
                for _ in 0..here {
                    gpus.push(Gpu {
                        id: GpuId(gpus.len() as u32),
                        kind,
                        machine: MachineId(machine),
                    });
                }
                placed += here;
                machine += 1;
            }
        }
        assert!(!gpus.is_empty(), "empty cluster");
        Cluster {
            gpus,
            machine_count: machine,
            network: NetworkModel::default(),
        }
    }

    /// The paper's 15-GPU testbed: 8 V100, 4 T4, 1 K80, 2 M60 on 4 machines
    /// (V100s on two 4-GPU instances, T4s on one, K80+M60s together).
    pub fn testbed15() -> Self {
        let mut gpus = Vec::with_capacity(15);
        let mut push = |kind, machine: u32| {
            gpus.push(Gpu {
                id: GpuId(gpus.len() as u32),
                kind,
                machine: MachineId(machine),
            });
        };
        for _ in 0..4 {
            push(GpuKind::V100, 0);
        }
        for _ in 0..4 {
            push(GpuKind::V100, 1);
        }
        for _ in 0..4 {
            push(GpuKind::T4, 2);
        }
        push(GpuKind::K80, 3);
        push(GpuKind::M60, 3);
        push(GpuKind::M60, 3);
        Cluster {
            gpus,
            machine_count: 4,
            network: NetworkModel::default(),
        }
    }

    /// A homogeneous cluster of `n` GPUs of one kind, 4 per machine.
    pub fn homogeneous(kind: GpuKind, n: u32) -> Self {
        Cluster::from_counts(&[(kind, n)], 4)
    }

    /// A cluster of `n` GPUs at the given Fig.-16 heterogeneity level,
    /// splitting `n` as evenly as possible across the participating kinds
    /// (earlier kinds absorb the remainder).
    pub fn with_heterogeneity(level: Heterogeneity, n: u32) -> Self {
        let kinds = level.kinds();
        let k = kinds.len() as u32;
        assert!(n >= k, "need at least one GPU per kind");
        let base = n / k;
        let extra = n % k;
        let counts: Vec<(GpuKind, u32)> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| (kind, base + u32::from((i as u32) < extra)))
            .collect();
        Cluster::from_counts(&counts, 4)
    }

    /// Assemble a cluster from pre-built parts. Used by the cell
    /// partitioner, which renumbers an existing cluster's GPUs/machines
    /// into dense per-cell id spaces; callers must hand in dense,
    /// consistent ids (debug-asserted).
    pub(crate) fn from_parts(gpus: Vec<Gpu>, machine_count: u32, network: NetworkModel) -> Self {
        assert!(!gpus.is_empty(), "empty cluster");
        debug_assert!(gpus.iter().enumerate().all(|(i, g)| g.id.index() == i));
        debug_assert!(gpus.iter().all(|g| g.machine.0 < machine_count));
        Cluster {
            gpus,
            machine_count,
            network,
        }
    }

    /// Replace the network model (e.g. for the Fig.-18 bandwidth sweep).
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// The network model connecting the machines.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Number of host machines.
    pub fn machine_count(&self) -> usize {
        self.machine_count as usize
    }

    /// All GPUs, ordered by dense id.
    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    /// Look up one GPU.
    pub fn gpu(&self, id: GpuId) -> &Gpu {
        &self.gpus[id.index()]
    }

    /// GPU ids only (handy for schedulers).
    pub fn gpu_ids(&self) -> impl Iterator<Item = GpuId> + '_ {
        self.gpus.iter().map(|g| g.id)
    }

    /// Count of GPUs per kind, in a deterministic order.
    pub fn count_by_kind(&self) -> BTreeMap<GpuKind, u32> {
        let mut m = BTreeMap::new();
        for g in &self.gpus {
            *m.entry(g.kind).or_insert(0) += 1;
        }
        m
    }

    /// Distinct kinds present, fastest first.
    pub fn kinds_present(&self) -> Vec<GpuKind> {
        GpuKind::ALL
            .into_iter()
            .filter(|k| self.gpus.iter().any(|g| g.kind == *k))
            .collect()
    }

    /// True if two GPUs share a host machine (their PS traffic does not
    /// cross the data-center network).
    pub fn same_machine(&self, a: GpuId, b: GpuId) -> bool {
        self.gpu(a).machine == self.gpu(b).machine
    }

    /// GPUs of the given kind.
    pub fn gpus_of_kind(&self, kind: GpuKind) -> impl Iterator<Item = &Gpu> + '_ {
        self.gpus.iter().filter(move |g| g.kind == kind)
    }

    /// One value per GPU, in id order, for a quantity that depends on a
    /// GPU only through its kind: `f` runs once per kind present (in
    /// order of first appearance) and its result is copied to that kind's
    /// GPUs.
    pub fn per_kind<T: Copy>(&self, mut f: impl FnMut(GpuKind) -> T) -> Vec<T> {
        let mut by_kind: [Option<T>; GpuKind::ALL.len()] = [None; GpuKind::ALL.len()];
        self.gpus
            .iter()
            .map(|g| *by_kind[g.kind as usize].get_or_insert_with(|| f(g.kind)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_paper() {
        let c = Cluster::testbed15();
        assert_eq!(c.gpu_count(), 15);
        assert_eq!(c.machine_count(), 4);
        let counts = c.count_by_kind();
        assert_eq!(counts[&GpuKind::V100], 8);
        assert_eq!(counts[&GpuKind::T4], 4);
        assert_eq!(counts[&GpuKind::K80], 1);
        assert_eq!(counts[&GpuKind::M60], 2);
    }

    #[test]
    fn ids_are_dense_and_consistent() {
        let c = Cluster::testbed15();
        for (i, g) in c.gpus().iter().enumerate() {
            assert_eq!(g.id.index(), i);
            assert_eq!(c.gpu(g.id).id, g.id);
        }
    }

    #[test]
    fn from_counts_packs_machines() {
        let c = Cluster::from_counts(&[(GpuKind::V100, 6), (GpuKind::K80, 3)], 4);
        assert_eq!(c.gpu_count(), 9);
        // 6 V100s -> machines 0 (4) and 1 (2); 3 K80s -> machine 2.
        assert_eq!(c.machine_count(), 3);
        assert_eq!(c.gpu(GpuId(0)).machine, MachineId(0));
        assert_eq!(c.gpu(GpuId(4)).machine, MachineId(1));
        assert_eq!(c.gpu(GpuId(6)).machine, MachineId(2));
    }

    #[test]
    fn heterogeneity_levels_split_evenly() {
        let c = Cluster::with_heterogeneity(Heterogeneity::High, 160);
        let counts = c.count_by_kind();
        for kind in Heterogeneity::High.kinds() {
            assert_eq!(counts[kind], 40);
        }
        let c = Cluster::with_heterogeneity(Heterogeneity::Mid, 161);
        let counts = c.count_by_kind();
        assert_eq!(counts[&GpuKind::V100] + counts[&GpuKind::K80], 161);
        assert!(counts[&GpuKind::V100] - counts[&GpuKind::K80] <= 1);
    }

    #[test]
    fn low_heterogeneity_is_homogeneous() {
        let c = Cluster::with_heterogeneity(Heterogeneity::Low, 16);
        assert_eq!(c.kinds_present(), vec![GpuKind::V100]);
    }

    #[test]
    fn same_machine_detection() {
        let c = Cluster::testbed15();
        assert!(c.same_machine(GpuId(0), GpuId(3)));
        assert!(!c.same_machine(GpuId(0), GpuId(4)));
        assert!(c.same_machine(GpuId(13), GpuId(14))); // the two M60s
    }

    #[test]
    fn gpus_of_kind_filters() {
        let c = Cluster::testbed15();
        assert_eq!(c.gpus_of_kind(GpuKind::V100).count(), 8);
        assert_eq!(c.gpus_of_kind(GpuKind::K80).count(), 1);
    }

    #[test]
    fn per_kind_equals_per_gpu_evaluation_once_per_kind() {
        let f = |k: GpuKind| k.generic_speedup() * 3.0 + k.name().len() as f64;
        for c in [
            Cluster::testbed15(),
            Cluster::homogeneous(GpuKind::T4, 9),
            Cluster::with_heterogeneity(Heterogeneity::High, 37),
            Cluster::from_counts(
                &[(GpuKind::K80, 3), (GpuKind::V100, 2), (GpuKind::M60, 1)],
                2,
            ),
        ] {
            let mut calls = Vec::new();
            let got = c.per_kind(|k| {
                calls.push(k);
                f(k)
            });
            let want: Vec<f64> = c.gpus().iter().map(|g| f(g.kind)).collect();
            assert_eq!(got, want);
            calls.sort();
            let mut present = c.kinds_present();
            present.sort();
            assert_eq!(calls, present, "one call per kind present");
        }
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_cluster_rejected() {
        let _ = Cluster::from_counts(&[], 4);
    }
}
