//! Data-center network model for parameter-server synchronization.
//!
//! The testbed connects machines with 25 Gbps Ethernet (Section 7.1); the
//! Fig.-18 sweep varies that from 10 to 25 Gbps. Gradient synchronization for
//! a round is one push + one pull of the gradient payload per worker; workers
//! sharing a machine share that machine's NIC, and the (sharded) parameter
//! server side can also be made a bottleneck via [`NetworkModel::ps_shards`].

use crate::gpu::MachineId;
use crate::units::{Bandwidth, Bytes, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a job's workers exchange gradients each round (Section 8 surveys
/// both families; the paper's system uses the PS scheme).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncScheme {
    /// Parameter server: each worker pushes and pulls the payload;
    /// colocated workers share their machine's NIC, and the PS side can
    /// bottleneck (the default, as in the paper).
    #[default]
    ParameterServer,
    /// Bandwidth-optimal ring all-reduce: every worker sends/receives
    /// `2(k-1)/k` of the payload; the ring is paced by its slowest link,
    /// and all workers finish together.
    RingAllReduce,
}

/// Network configuration connecting the cluster's machines.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Per-machine NIC bandwidth (full duplex assumed).
    pub nic: Bandwidth,
    /// Intra-machine transport (PCIe peer traffic / host staging).
    pub intra_machine: Bandwidth,
    /// Protocol efficiency: fraction of line rate usable by gradient flows
    /// (TCP + gRPC framing overheads).
    pub efficiency: f64,
    /// Fraction of the raw FP32 parameter size actually shipped per
    /// direction. Production PS stacks ship FP16 gradients, so 0.5 by
    /// default; this also keeps sync time below training time, the paper's
    /// standing assumption (Section 5.1).
    pub gradient_factor: f64,
    /// Number of parameter-server shards the payload is spread across.
    /// More shards raise the PS-side aggregate bandwidth.
    pub ps_shards: u32,
    /// Gradient-exchange scheme.
    pub scheme: SyncScheme,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            nic: Bandwidth::gbps(25.0),
            intra_machine: Bandwidth::gigabytes_per_sec(15.75),
            efficiency: 0.9,
            gradient_factor: 0.5,
            ps_shards: 4,
            scheme: SyncScheme::ParameterServer,
        }
    }
}

impl NetworkModel {
    /// Same model with a different NIC speed (Fig.-18 sweep).
    pub fn with_nic(mut self, nic: Bandwidth) -> Self {
        self.nic = nic;
        self
    }

    /// Bytes shipped per direction per worker for a model with `param_bytes`
    /// of FP32 parameters.
    pub fn payload(&self, param_bytes: Bytes) -> Bytes {
        param_bytes.mul_f64(self.gradient_factor)
    }

    /// Same model with a different sync scheme.
    pub fn with_scheme(mut self, scheme: SyncScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// When a training round's synchronization barrier completes, under
    /// the configured [`SyncScheme`]: the latest over the round's workers
    /// of train finish plus sync time. Allocates nothing.
    ///
    /// `finished[i]` is when worker `i` finished training and
    /// `machines[i]` the machine hosting its GPU. `extra_flows` unrelated
    /// gradient flows contend on every NIC — the cross-job congestion a
    /// busy cluster exhibits (the simulator passes the number of other
    /// jobs currently synchronizing). Under NIC degradation (fault
    /// injection), `machine_factors[m]` is the fraction of machine `m`'s
    /// NIC bandwidth still delivered (missing entries = 1.0), and
    /// `backbone` scales every inter-machine link — the PS side and all
    /// cross-machine flows. Factors must lie in (0, 1]; a healthy network
    /// is `&[]` and 1.0.
    ///
    /// PS scheme: each worker pushes and pulls `payload(param_bytes)` at
    /// the minimum of its machine-NIC fair share (shared with its
    /// colocated co-workers) and the PS-side fair share. A worker's time
    /// depends only on its machine, so the shared terms are computed once
    /// per round and each machine's transfer once, from its latest
    /// finish. Ring all-reduce: every worker gets the same time, so the
    /// barrier is the latest finish plus that time.
    pub fn round_barrier(
        &self,
        param_bytes: Bytes,
        finished: &[SimTime],
        machines: &[MachineId],
        extra_flows: u32,
        machine_factors: &[f64],
        backbone: f64,
    ) -> SimTime {
        debug_assert_eq!(finished.len(), machines.len());
        if self.scheme == SyncScheme::RingAllReduce {
            let last = *finished.iter().max().expect("non-empty round");
            return last
                + self.allreduce_sync_time(
                    param_bytes,
                    machines,
                    extra_flows,
                    machine_factors,
                    backbone,
                );
        }
        let payload = self.payload(param_bytes);
        let nic = self.nic.mul_f64(self.efficiency);
        // PS-side aggregate: shards ride independent NICs, contended by
        // the other jobs' flows as well, throttled with the backbone.
        let ps_side = degrade(nic.mul_f64(self.ps_shards as f64), backbone)
            .shared(machines.len() as u32 + extra_flows);
        let mut done = SimTime::ZERO;
        for (i, &machine) in machines.iter().enumerate() {
            if machines[..i].contains(&machine) {
                continue; // this machine's workers are already counted
            }
            let (mut colocated, mut latest) = (0u32, SimTime::ZERO);
            for (&m, &t) in machines[i..].iter().zip(&finished[i..]) {
                if m == machine {
                    colocated += 1;
                    latest = latest.max(t);
                }
            }
            let factor = nic_factor(machine_factors, machine) * backbone;
            let rate = degrade(nic, factor)
                .shared(colocated + extra_flows)
                .min(ps_side);
            // Push + pull.
            done = done.max(latest + rate.transfer_time(payload) * 2);
        }
        done
    }

    /// Ring all-reduce: each worker transfers `2(k-1)/k` of the payload.
    /// Ring links between colocated workers run at the intra-machine rate;
    /// links crossing machines share the endpoints' NICs. The whole ring is
    /// paced by its slowest link, so every worker gets the same time.
    fn allreduce_sync_time(
        &self,
        param_bytes: Bytes,
        machines: &[MachineId],
        extra_flows: u32,
        machine_factors: &[f64],
        backbone: f64,
    ) -> SimDuration {
        let k = machines.len();
        if k == 1 {
            // Nothing to exchange with a single worker.
            return SimDuration::ZERO;
        }
        let volume = self
            .payload(param_bytes)
            .mul_f64(2.0 * (k as f64 - 1.0) / k as f64);
        // Ring edge `i` joins worker `i` to worker `i + 1` (mod k).
        let edge = |i: usize| (machines[i], machines[(i + 1) % k]);
        // Cross-machine ring degree: each ring edge leaving a machine is
        // one flow on its NIC.
        let flows = |m: MachineId| {
            (0..k)
                .map(edge)
                .filter(|&(a, b)| a != b && (a == m || b == m))
                .count() as u32
        };
        let link = |(a, b): (MachineId, MachineId)| {
            if a == b {
                return self.intra_machine;
            }
            let factor =
                nic_factor(machine_factors, a).min(nic_factor(machine_factors, b)) * backbone;
            degrade(self.nic.mul_f64(self.efficiency), factor)
                .shared(flows(a).max(flows(b)) + extra_flows)
        };
        let slowest = (0..k)
            .map(edge)
            .map(link)
            .fold(self.intra_machine, Ord::min);
        slowest.transfer_time(volume)
    }
}

/// Remaining NIC fraction of `machine` (missing entries = healthy).
fn nic_factor(machine_factors: &[f64], machine: MachineId) -> f64 {
    machine_factors.get(machine.index()).copied().unwrap_or(1.0)
}

/// Scale a bandwidth by a degradation factor, bypassing the float
/// round-trip entirely when healthy so fault-free runs stay bit-identical.
fn degrade(bw: Bandwidth, factor: f64) -> Bandwidth {
    debug_assert!(factor > 0.0 && factor <= 1.0, "degradation factor {factor}");
    if factor == 1.0 {
        bw
    } else {
        bw.mul_f64(factor)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(i: u32) -> MachineId {
        MachineId(i)
    }

    /// Synchronization time of worker `worker` in one round, computed
    /// per worker from scratch: the oracle for
    /// [`NetworkModel::round_barrier`], whose barrier must equal the
    /// latest `finished[i]` plus this time (arguments as there).
    fn worker_sync_time(
        net: &NetworkModel,
        param_bytes: Bytes,
        machines: &[MachineId],
        worker: usize,
        extra_flows: u32,
        machine_factors: &[f64],
        backbone: f64,
    ) -> SimDuration {
        if net.scheme == SyncScheme::RingAllReduce {
            return net.allreduce_sync_time(
                param_bytes,
                machines,
                extra_flows,
                machine_factors,
                backbone,
            );
        }
        let machine = machines[worker];
        let colocated = machines.iter().filter(|&&m| m == machine).count() as u32;
        let ps_side = degrade(
            net.nic
                .mul_f64(net.efficiency)
                .mul_f64(net.ps_shards as f64),
            backbone,
        )
        .shared(machines.len() as u32 + extra_flows);
        let factor = nic_factor(machine_factors, machine) * backbone;
        let worker_side =
            degrade(net.nic.mul_f64(net.efficiency), factor).shared(colocated + extra_flows);
        let rate = worker_side.min(ps_side);
        rate.transfer_time(net.payload(param_bytes)) * 2
    }

    /// Every worker's sync time on a healthy, uncontended network.
    fn sync_times(net: &NetworkModel, bytes: Bytes, machines: &[MachineId]) -> Vec<SimDuration> {
        degraded_times(net, bytes, machines, 0, &[], 1.0)
    }

    /// Every worker's sync time, in input order.
    fn degraded_times(
        net: &NetworkModel,
        bytes: Bytes,
        machines: &[MachineId],
        extra_flows: u32,
        factors: &[f64],
        backbone: f64,
    ) -> Vec<SimDuration> {
        (0..machines.len())
            .map(|i| worker_sync_time(net, bytes, machines, i, extra_flows, factors, backbone))
            .collect()
    }

    /// The slowest worker's sync time.
    fn barrier(net: &NetworkModel, bytes: Bytes, machines: &[MachineId]) -> SimDuration {
        sync_times(net, bytes, machines).into_iter().max().unwrap()
    }

    /// A NIC factor: healthy (1.0) half the time, else degraded.
    fn nic_fraction() -> impl Strategy<Value = f64> {
        (any::<bool>(), 0.05f64..1.0).prop_map(|(healthy, f)| if healthy { 1.0 } else { f })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn round_barrier_is_the_latest_worker_finish_plus_sync(
            round in prop::collection::vec((0u32..4, 0u64..5_000_000), 1..=8),
            extra_flows in 0u32..6,
            factors in prop::collection::vec(nic_fraction(), 0..5),
            backbone in nic_fraction(),
            mib in 1u64..2048,
            shards in 1u32..6,
            ring in any::<bool>(),
        ) {
            let scheme = if ring {
                SyncScheme::RingAllReduce
            } else {
                SyncScheme::ParameterServer
            };
            let net = NetworkModel {
                ps_shards: shards,
                ..NetworkModel::default()
            }
            .with_scheme(scheme);
            let machines: Vec<MachineId> = round.iter().map(|&(mc, _)| m(mc)).collect();
            let finished: Vec<SimTime> =
                round.iter().map(|&(_, us)| SimTime::from_micros(us)).collect();
            let bytes = Bytes::mib(mib);
            let want = (0..machines.len())
                .map(|i| {
                    finished[i]
                        + worker_sync_time(
                            &net, bytes, &machines, i, extra_flows, &factors, backbone,
                        )
                })
                .max()
                .unwrap();
            let got =
                net.round_barrier(bytes, &finished, &machines, extra_flows, &factors, backbone);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn lone_worker_uses_full_nic() {
        let net = NetworkModel::default();
        let times = sync_times(&net, Bytes::mib(100), &[m(0)]);
        assert_eq!(times.len(), 1);
        // payload = 50 MiB, rate = min(22.5 Gbps, 4*22.5/1) = 22.5 Gbps
        let expected = Bandwidth::gbps(22.5).transfer_time(Bytes::mib(50)) * 2;
        assert_eq!(times[0], expected);
    }

    #[test]
    fn colocated_workers_share_nic() {
        let net = NetworkModel::default();
        let alone = sync_times(&net, Bytes::mib(100), &[m(0)])[0];
        let shared = sync_times(&net, Bytes::mib(100), &[m(0), m(0)]);
        assert_eq!(shared[0], shared[1]);
        assert!(shared[0] > alone, "sharing a NIC must slow the flow");
    }

    #[test]
    fn spread_workers_hit_ps_side_limit() {
        let net = NetworkModel {
            ps_shards: 1,
            ..NetworkModel::default()
        };
        // 8 workers on 8 machines: worker side is full NIC but the single
        // PS shard splits its NIC 8 ways.
        let machines: Vec<MachineId> = (0..8).map(m).collect();
        let times = sync_times(&net, Bytes::mib(100), &machines);
        let lone = sync_times(&net, Bytes::mib(100), &[m(0)])[0];
        assert!(times[0] > lone);
    }

    #[test]
    fn barrier_is_worst_worker() {
        let net = NetworkModel::default();
        let machines = [m(0), m(0), m(0), m(1)];
        let times = sync_times(&net, Bytes::mib(200), &machines);
        // The three colocated workers are slower than the lone one, and
        // the barrier waits for them.
        assert!(times[0] > times[3]);
        assert_eq!(barrier(&net, Bytes::mib(200), &machines), times[0]);
    }

    #[test]
    fn faster_nic_shortens_sync() {
        let slow = NetworkModel::default().with_nic(Bandwidth::gbps(10.0));
        let fast = NetworkModel::default().with_nic(Bandwidth::gbps(25.0));
        let machines = [m(0), m(1)];
        assert!(
            barrier(&slow, Bytes::mib(100), &machines) > barrier(&fast, Bytes::mib(100), &machines)
        );
    }

    #[test]
    fn payload_applies_gradient_factor() {
        let net = NetworkModel::default();
        assert_eq!(net.payload(Bytes::mib(100)), Bytes::mib(50));
    }

    #[test]
    fn allreduce_single_worker_is_free() {
        let net = NetworkModel::default().with_scheme(SyncScheme::RingAllReduce);
        assert_eq!(
            sync_times(&net, Bytes::mib(100), &[m(0)]),
            vec![SimDuration::ZERO]
        );
    }

    #[test]
    fn allreduce_all_workers_finish_together() {
        let net = NetworkModel::default().with_scheme(SyncScheme::RingAllReduce);
        let times = sync_times(&net, Bytes::mib(200), &[m(0), m(0), m(1), m(2)]);
        for w in times.windows(2) {
            assert_eq!(w[0], w[1], "ring barrier must be uniform");
        }
        assert!(times[0] > SimDuration::ZERO);
    }

    #[test]
    fn allreduce_volume_approaches_2x_payload() {
        let net = NetworkModel::default().with_scheme(SyncScheme::RingAllReduce);
        // k=2 -> 2*(1)/2 = 1x payload; k=8 -> 2*7/8 = 1.75x payload.
        let two = sync_times(&net, Bytes::mib(100), &[m(0), m(1)])[0];
        let eight: Vec<MachineId> = (0..8).map(m).collect();
        let eight_t = sync_times(&net, Bytes::mib(100), &eight)[0];
        assert!(eight_t > two, "larger rings move more data per worker");
    }

    #[test]
    fn intra_machine_ring_is_much_faster() {
        let net = NetworkModel::default().with_scheme(SyncScheme::RingAllReduce);
        let local = sync_times(&net, Bytes::mib(200), &[m(0), m(0)])[0];
        let cross = sync_times(&net, Bytes::mib(200), &[m(0), m(1)])[0];
        assert!(
            local < cross,
            "PCIe ring ({local}) should beat the 25Gbps network ({cross})"
        );
    }

    #[test]
    fn allreduce_vs_ps_crossover() {
        // With one PS shard and many spread workers, all-reduce's constant
        // 2(k-1)/k volume beats the PS's k-way incast.
        let machines: Vec<MachineId> = (0..8).map(m).collect();
        let ps = NetworkModel {
            ps_shards: 1,
            ..NetworkModel::default()
        };
        let ar = ps.with_scheme(SyncScheme::RingAllReduce);
        let ps_t = barrier(&ps, Bytes::mib(400), &machines);
        let ar_t = sync_times(&ar, Bytes::mib(400), &machines)[0];
        assert!(
            ar_t < ps_t,
            "all-reduce {ar_t} should beat 1-shard PS {ps_t}"
        );
    }

    #[test]
    fn healthy_degraded_path_is_bit_identical() {
        let net = NetworkModel::default();
        let machines = [m(0), m(0), m(1)];
        let plain = degraded_times(&net, Bytes::mib(200), &machines, 2, &[], 1.0);
        let degraded = degraded_times(&net, Bytes::mib(200), &machines, 2, &[1.0, 1.0], 1.0);
        assert_eq!(plain, degraded);
    }

    #[test]
    fn nic_degradation_slows_only_that_machine() {
        let net = NetworkModel::default();
        let machines = [m(0), m(1)];
        let healthy = degraded_times(&net, Bytes::mib(200), &machines, 0, &[], 1.0);
        let degraded = degraded_times(&net, Bytes::mib(200), &machines, 0, &[0.25], 1.0);
        assert!(degraded[0] > healthy[0], "machine 0's worker must slow");
        assert_eq!(degraded[1], healthy[1], "machine 1 is untouched");
    }

    #[test]
    fn backbone_degradation_slows_everyone() {
        let net = NetworkModel::default();
        let machines = [m(0), m(1), m(2)];
        let healthy = degraded_times(&net, Bytes::mib(200), &machines, 0, &[], 1.0);
        let degraded = degraded_times(&net, Bytes::mib(200), &machines, 0, &[], 0.5);
        for (h, d) in healthy.iter().zip(&degraded) {
            assert!(d > h, "backbone cut must slow every worker");
        }
    }
}
