//! The policies as they dispatched before they read the change log. The
//! gang baselines predate the incremental core: every call rebuilds its
//! inputs from the view — a `BTreeMap` of the ready tasks, the sorted
//! idle list, a scan for completed jobs and the repair pool — and decides
//! from scratch. The dispatch logic is unchanged apart from reading the
//! set views; it is the oracle the differential test holds
//! `hare_baselines::common::GangPolicy` to. [`OfflineReplay`] is the
//! plan replay that scans every idle GPU on every call, the oracle of
//! `hare_sim::OfflineReplay`.

use hare_cluster::SimTime;
use hare_core::Schedule;
use hare_sim::{Policy, SimView, SimWorkload};
use hare_solver::min_cost_matching;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Group the ready tasks by owning job (every ready task of a job belongs
/// to its single currently-released round).
fn ready_by_job(view: &SimView<'_>) -> BTreeMap<usize, Vec<usize>> {
    let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for t in view.ready.iter() {
        map.entry(view.workload.problem.tasks[t].job)
            .or_default()
            .push(t);
    }
    map
}

/// The idle GPUs, fastest first (by generic FP32 speedup, ties by index).
fn fastest_idle(view: &SimView<'_>) -> Vec<usize> {
    let mut idle: Vec<usize> = view.idle_gpus.iter().collect();
    idle.sort_by(|&a, &b| {
        let sa = view.workload.cluster.gpus()[a].kind.generic_speedup();
        let sb = view.workload.cluster.gpus()[b].kind.generic_speedup();
        sb.total_cmp(&sa).then(a.cmp(&b))
    });
    idle
}

/// Best-case seconds of one round of a job.
fn best_round_secs(view: &SimView<'_>, job: usize) -> f64 {
    let info = &view.workload.problem.jobs[job];
    info.train
        .iter()
        .zip(&info.sync)
        .map(|(t, s)| t.as_secs_f64() + s.as_secs_f64())
        .fold(f64::MAX, f64::min)
}

/// Mean task seconds of one round across GPUs.
fn mean_round_secs(view: &SimView<'_>, job: usize) -> f64 {
    let info = &view.workload.problem.jobs[job];
    info.train.iter().map(|t| t.as_secs_f64()).sum::<f64>() / info.train.len() as f64
}

/// True when the job has fully completed.
fn job_done(view: &SimView<'_>, job: usize) -> bool {
    view.synced_rounds[job] >= view.workload.problem.jobs[job].rounds
}

/// GPU reservations for policies that dedicate gangs to jobs.
#[derive(Debug, Default)]
struct Reservations {
    reserved: BTreeSet<usize>,
}

impl Reservations {
    fn reserve(&mut self, gpus: &[usize]) {
        for &g in gpus {
            assert!(self.reserved.insert(g), "GPU {g} doubly reserved");
        }
    }

    fn release(&mut self, gpus: &[usize]) {
        for &g in gpus {
            assert!(self.reserved.remove(&g), "GPU {g} was not reserved");
        }
    }

    fn is_free(&self, gpu: usize) -> bool {
        !self.reserved.contains(&gpu)
    }

    fn filter_free(&self, gpus: &mut Vec<usize>) {
        gpus.retain(|g| self.is_free(*g));
    }
}

/// Release the reservations of every placed job that has completed.
fn release_completed(
    view: &SimView<'_>,
    placed: &mut [Option<Vec<usize>>],
    reservations: &mut Reservations,
) {
    for (job, slot) in placed.iter_mut().enumerate() {
        if slot.is_some() && job_done(view, job) {
            let gang = slot.take().expect("is_some checked above");
            reservations.release(&gang);
        }
    }
}

/// Swap every down gang member for the first free GPU of `pool`.
fn repair_gangs(
    mut pool: Vec<usize>,
    down: &BTreeSet<usize>,
    placed: &mut [Option<Vec<usize>>],
    reservations: &mut Reservations,
) {
    if down.is_empty() {
        return;
    }
    pool.retain(|&g| reservations.is_free(g) && !down.contains(&g));
    for slot in placed.iter_mut() {
        let Some(gang) = slot else { continue };
        for member in gang.iter_mut() {
            if down.contains(member) && !pool.is_empty() {
                let new = pool.remove(0);
                reservations.release(&[*member]);
                reservations.reserve(&[new]);
                *member = new;
            }
        }
    }
}

/// The kind-blind pseudo-random GPU permutation.
fn oblivious_order(gpus: &mut [usize]) {
    gpus.sort_by_key(|&g| (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
}

/// Dispatch a placed job's released tasks onto its idle gang members.
fn continue_on_gang(
    tasks: &[usize],
    gang: &[usize],
    idle: &mut Vec<usize>,
    out: &mut Vec<(usize, usize)>,
) {
    let avail: Vec<usize> = gang.iter().copied().filter(|g| idle.contains(g)).collect();
    for (&task, &gpu) in tasks.iter().zip(avail.iter()) {
        out.push((task, gpu));
        idle.retain(|&g| g != gpu);
    }
}

/// Gavel_FIFO: arrival-order admission with head-of-line blocking,
/// fastest-first gangs.
#[derive(Debug, Default)]
pub struct GavelFifo {
    placed: Vec<Option<Vec<usize>>>,
    reservations: Reservations,
    down: BTreeSet<usize>,
}

impl Policy for GavelFifo {
    fn name(&self) -> String {
        "Gavel_FIFO".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        if self.placed.len() < p.jobs.len() {
            self.placed.resize(p.jobs.len(), None);
        }
        release_completed(view, &mut self.placed, &mut self.reservations);
        let fast_all = fastest_idle(view);
        if !self.down.is_empty() {
            repair_gangs(
                fast_all.clone(),
                &self.down,
                &mut self.placed,
                &mut self.reservations,
            );
        }
        let ready = ready_by_job(view);
        let mut idle: Vec<usize> = view.idle_gpus.iter().collect();
        for (&job, tasks) in &ready {
            if let Some(gang) = &self.placed[job] {
                continue_on_gang(tasks, gang, &mut idle, out);
            }
        }
        for job in 0..p.jobs.len() {
            if self.placed[job].is_some() || !view.arrived[job] {
                continue;
            }
            if job_done(view, job) {
                continue;
            }
            let Some(tasks) = ready.get(&job) else {
                continue;
            };
            let need = p.jobs[job].sync_scale as usize;
            let fast: Vec<usize> = fast_all
                .iter()
                .copied()
                .filter(|&g| idle.contains(&g) && self.reservations.is_free(g))
                .collect();
            if fast.len() < need {
                break;
            }
            let gang: Vec<usize> = fast[..need].to_vec();
            for (&task, &gpu) in tasks.iter().zip(gang.iter()) {
                out.push((task, gpu));
                idle.retain(|&g| g != gpu);
            }
            self.reservations.reserve(&gang);
            self.placed[job] = Some(gang);
        }
    }

    fn on_gpu_failure(&mut self, gpu: usize, _requeued: &[usize]) {
        self.down.insert(gpu);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.down.remove(&gpu);
    }
}

/// SRTF: shortest-remaining-first admission onto kind-blind gangs.
#[derive(Debug, Default)]
pub struct Srtf {
    placed: Vec<Option<Vec<usize>>>,
    reservations: Reservations,
    down: BTreeSet<usize>,
    round_best: Vec<f64>,
}

impl Policy for Srtf {
    fn name(&self) -> String {
        "SRTF".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        if self.placed.len() < p.jobs.len() {
            self.placed.resize(p.jobs.len(), None);
        }
        while self.round_best.len() < p.jobs.len() {
            self.round_best
                .push(best_round_secs(view, self.round_best.len()));
        }
        release_completed(view, &mut self.placed, &mut self.reservations);
        let mut repair_pool: Vec<usize> = view.idle_gpus.iter().collect();
        oblivious_order(&mut repair_pool);
        repair_gangs(
            repair_pool,
            &self.down,
            &mut self.placed,
            &mut self.reservations,
        );
        let ready = ready_by_job(view);
        let mut idle: Vec<usize> = view.idle_gpus.iter().collect();
        for (&job, tasks) in &ready {
            if let Some(gang) = &self.placed[job] {
                continue_on_gang(tasks, gang, &mut idle, out);
            }
        }
        let mut waiting: Vec<(f64, usize)> = ready
            .keys()
            .copied()
            .filter(|&j| self.placed[j].is_none())
            .map(|j| {
                let remaining = p.jobs[j].rounds - view.synced_rounds[j];
                (remaining as f64 * self.round_best[j], j)
            })
            .collect();
        waiting.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut free: Vec<usize> = idle
            .iter()
            .copied()
            .filter(|&g| self.reservations.is_free(g))
            .collect();
        oblivious_order(&mut free);
        for (_, job) in waiting {
            let need = p.jobs[job].sync_scale as usize;
            if free.len() < need {
                continue;
            }
            let gang: Vec<usize> = free.drain(..need).collect();
            for (&task, &gpu) in ready[&job].iter().zip(gang.iter()) {
                out.push((task, gpu));
            }
            self.reservations.reserve(&gang);
            self.placed[job] = Some(gang);
        }
    }

    fn on_gpu_failure(&mut self, gpu: usize, _requeued: &[usize]) {
        self.down.insert(gpu);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.down.remove(&gpu);
    }
}

/// Sched_Homo: weighted remaining *mean* work admission onto kind-blind
/// gangs.
#[derive(Debug, Default)]
pub struct SchedHomo {
    placed: Vec<Option<Vec<usize>>>,
    reservations: Reservations,
    down: BTreeSet<usize>,
    round_mean: Vec<f64>,
}

impl Policy for SchedHomo {
    fn name(&self) -> String {
        "Sched_Homo".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        if self.placed.len() < p.jobs.len() {
            self.placed.resize(p.jobs.len(), None);
        }
        while self.round_mean.len() < p.jobs.len() {
            self.round_mean
                .push(mean_round_secs(view, self.round_mean.len()));
        }
        release_completed(view, &mut self.placed, &mut self.reservations);
        let mut repair_pool: Vec<usize> = view.idle_gpus.iter().collect();
        oblivious_order(&mut repair_pool);
        repair_gangs(
            repair_pool,
            &self.down,
            &mut self.placed,
            &mut self.reservations,
        );
        let ready = ready_by_job(view);
        let mut idle: Vec<usize> = view.idle_gpus.iter().collect();
        for (&job, tasks) in &ready {
            if let Some(gang) = &self.placed[job] {
                continue_on_gang(tasks, gang, &mut idle, out);
            }
        }
        let mut waiting: Vec<(f64, usize)> = ready
            .keys()
            .copied()
            .filter(|&j| self.placed[j].is_none())
            .map(|j| {
                let remaining = p.jobs[j].rounds - view.synced_rounds[j];
                (remaining as f64 * self.round_mean[j] / p.jobs[j].weight, j)
            })
            .collect();
        waiting.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.reservations.filter_free(&mut idle);
        oblivious_order(&mut idle);
        for (_, job) in waiting {
            let need = p.jobs[job].sync_scale as usize;
            if idle.len() < need {
                continue;
            }
            let gang: Vec<usize> = idle.drain(..need).collect();
            for (&task, &gpu) in ready[&job].iter().zip(gang.iter()) {
                out.push((task, gpu));
            }
            self.reservations.reserve(&gang);
            self.placed[job] = Some(gang);
        }
    }

    fn on_gpu_failure(&mut self, gpu: usize, _requeued: &[usize]) {
        self.down.insert(gpu);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.down.remove(&gpu);
    }
}

/// The matching's dynamic input: waiting jobs with their synced-round
/// progress, plus the free idle GPUs.
type MatchInput = (Vec<(usize, u32)>, Vec<usize>);

/// Sched_Allox: min-cost matching of waiting jobs onto free GPUs ×
/// positions, skipped while its input repeats the last no-commit input.
#[derive(Debug, Default)]
pub struct SchedAllox {
    placed: Vec<Option<Vec<usize>>>,
    reservations: Reservations,
    down: BTreeSet<usize>,
    noop_input: Option<MatchInput>,
}

impl Policy for SchedAllox {
    fn name(&self) -> String {
        "Sched_Allox".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        if self.placed.len() < p.jobs.len() {
            self.placed.resize(p.jobs.len(), None);
        }
        release_completed(view, &mut self.placed, &mut self.reservations);
        repair_gangs(
            fastest_idle(view),
            &self.down,
            &mut self.placed,
            &mut self.reservations,
        );
        let ready = ready_by_job(view);
        let mut idle: Vec<usize> = view.idle_gpus.iter().collect();
        for (&job, tasks) in &ready {
            if let Some(gang) = &self.placed[job] {
                continue_on_gang(tasks, gang, &mut idle, out);
            }
        }
        let waiting: Vec<usize> = ready
            .keys()
            .copied()
            .filter(|&j| self.placed[j].is_none())
            .collect();
        self.reservations.filter_free(&mut idle);
        if waiting.is_empty() || idle.is_empty() {
            return;
        }
        let input: MatchInput = (
            waiting
                .iter()
                .map(|&j| (j, view.synced_rounds[j]))
                .collect(),
            idle.clone(),
        );
        if self.noop_input.as_ref() == Some(&input) {
            return;
        }
        let positions = waiting.len().div_ceil(idle.len());
        let cols: Vec<(usize, usize)> = idle
            .iter()
            .flat_map(|&g| (1..=positions).map(move |k| (g, k)))
            .collect();
        let cost: Vec<Vec<f64>> = waiting
            .iter()
            .map(|&j| {
                let info = &p.jobs[j];
                let remaining = (info.rounds - view.synced_rounds[j]) as f64;
                cols.iter()
                    .map(|&(g, k)| {
                        let round = info.train[g].as_secs_f64() + info.sync[g].as_secs_f64();
                        info.weight * k as f64 * remaining * round
                    })
                    .collect()
            })
            .collect();
        let matching = min_cost_matching(&cost);
        let mut commits: Vec<(f64, usize, usize)> = matching
            .assignment
            .iter()
            .enumerate()
            .filter_map(|(row, &col)| {
                let (gpu, k) = cols[col];
                (k == 1).then(|| (cost[row][col], waiting[row], gpu))
            })
            .collect();
        commits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut committed = false;
        for (_, job, anchor) in commits {
            if !idle.contains(&anchor) {
                continue;
            }
            let need = p.jobs[job].sync_scale as usize;
            if idle.len() < need {
                continue;
            }
            let kind = view.workload.cluster.gpus()[anchor].kind;
            let mut gang = vec![anchor];
            let mut rest: Vec<usize> = idle.iter().copied().filter(|&g| g != anchor).collect();
            rest.sort_by(|&a, &b| {
                let ka = view.workload.cluster.gpus()[a].kind;
                let kb = view.workload.cluster.gpus()[b].kind;
                (kb == kind)
                    .cmp(&(ka == kind))
                    .then(kb.generic_speedup().total_cmp(&ka.generic_speedup()))
                    .then(a.cmp(&b))
            });
            gang.extend(rest.into_iter().take(need - 1));
            if gang.len() < need {
                continue;
            }
            idle.retain(|g| !gang.contains(g));
            for (&task, &gpu) in ready[&job].iter().zip(gang.iter()) {
                out.push((task, gpu));
            }
            self.reservations.reserve(&gang);
            self.placed[job] = Some(gang);
            committed = true;
        }
        self.noop_input = (!committed).then_some(input);
    }

    fn on_gpu_failure(&mut self, gpu: usize, _requeued: &[usize]) {
        self.down.insert(gpu);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.down.remove(&gpu);
    }
}

/// Replay a precomputed schedule's per-GPU sequences in order, scanning
/// every idle GPU's queue head on every call.
pub struct OfflineReplay {
    /// Remaining task queue per GPU (planned order).
    queues: Vec<VecDeque<usize>>,
    /// Planned start per task; queues keep ascending planned starts.
    planned: Vec<SimTime>,
    /// Generic speedup per GPU (failure migration prefers faster, emptier
    /// survivors).
    speedup: Vec<f64>,
    /// GPUs reported failed.
    failed: Vec<usize>,
}

impl OfflineReplay {
    /// The queues of `schedule`'s per-GPU sequences.
    pub fn new(workload: &SimWorkload, schedule: &Schedule) -> Self {
        OfflineReplay {
            queues: schedule
                .gpu_sequences(&workload.problem)
                .into_iter()
                .map(VecDeque::from)
                .collect(),
            planned: schedule.start.clone(),
            speedup: workload
                .cluster
                .gpus()
                .iter()
                .map(|g| g.kind.generic_speedup())
                .collect(),
            failed: Vec::new(),
        }
    }

    /// Put each orphan, in planned-start order, on the survivor with the
    /// least speed-normalized backlog, inserted by planned start.
    fn assign_by_planned_start(&mut self, orphans: Vec<usize>) {
        for task in orphans {
            let target = (0..self.queues.len())
                .filter(|g| !self.failed.contains(g))
                .min_by(|&a, &b| {
                    let ka = (self.queues[a].len() as f64 + 1.0) / self.speedup[a];
                    let kb = (self.queues[b].len() as f64 + 1.0) / self.speedup[b];
                    ka.total_cmp(&kb).then(a.cmp(&b))
                })
                .expect("at least one surviving GPU");
            let queue = &mut self.queues[target];
            let pos = queue
                .iter()
                .position(|&t| self.planned[t] > self.planned[task])
                .unwrap_or(queue.len());
            queue.insert(pos, task);
        }
    }
}

impl Policy for OfflineReplay {
    fn name(&self) -> String {
        "Hare".into()
    }

    fn on_gpu_failure(&mut self, gpu: usize, requeued: &[usize]) {
        let mut orphans: Vec<usize> = self.queues[gpu].drain(..).collect();
        orphans.extend_from_slice(requeued);
        orphans.sort_by_key(|&t| (self.planned[t], t));
        self.failed.push(gpu);
        self.assign_by_planned_start(orphans);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.failed.retain(|&g| g != gpu);
        let mut orphans: Vec<usize> = self.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
        orphans.sort_by_key(|&t| (self.planned[t], t));
        self.assign_by_planned_start(orphans);
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        for gpu in view.idle_gpus.iter() {
            if let Some(&head) = self.queues[gpu].front() {
                if view.ready.contains(head) {
                    self.queues[gpu].pop_front();
                    out.push((head, gpu));
                }
            }
        }
    }
}
