//! Shared helpers for the baseline policies.

use hare_sim::SimView;
use std::collections::BTreeMap;

/// Group the ready tasks by owning job (every ready task of a job belongs
/// to its single currently-released round).
pub fn ready_by_job(view: &SimView<'_>) -> BTreeMap<usize, Vec<usize>> {
    let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &t in view.ready {
        map.entry(view.workload.problem.tasks[t].job)
            .or_default()
            .push(t);
    }
    map
}

/// The idle GPUs, fastest first (by generic FP32 speedup, ties by index) —
/// Gavel's "assign jobs to fastest available GPUs".
pub fn fastest_idle(view: &SimView<'_>) -> Vec<usize> {
    let mut idle: Vec<usize> = view.idle_gpus.to_vec();
    idle.sort_by(|&a, &b| {
        let sa = view.workload.cluster.gpus()[a].kind.generic_speedup();
        let sb = view.workload.cluster.gpus()[b].kind.generic_speedup();
        // total_cmp: a NaN speedup (corrupt profile) must not panic the
        // scheduler mid-run; it just sorts deterministically to one end.
        sb.total_cmp(&sa).then(a.cmp(&b))
    });
    idle
}

/// Best-case seconds of one round of a job (fastest-GPU task time + its
/// sync). Static over the whole run — hot dispatch paths cache it per job
/// instead of re-folding over every GPU inside a sort comparator.
pub fn best_round_secs(view: &SimView<'_>, job: usize) -> f64 {
    let info = &view.workload.problem.jobs[job];
    info.train
        .iter()
        .zip(&info.sync)
        .map(|(t, s)| t.as_secs_f64() + s.as_secs_f64())
        .fold(f64::MAX, f64::min)
}

/// Mean task seconds of one round across GPUs — the homogeneity
/// assumption's per-round estimate. Static over the whole run.
pub fn mean_round_secs(view: &SimView<'_>, job: usize) -> f64 {
    let info = &view.workload.problem.jobs[job];
    info.train.iter().map(|t| t.as_secs_f64()).sum::<f64>() / info.train.len() as f64
}

/// True when the job has fully completed.
pub fn job_done(view: &SimView<'_>, job: usize) -> bool {
    view.synced_rounds[job] >= view.workload.problem.jobs[job].rounds
}

/// GPU reservations for policies that dedicate gangs to jobs.
///
/// The engine marks a GPU idle the moment its task finishes *training*,
/// but a dedicated-gang policy must not hand that GPU to another job while
/// the owning job is merely between rounds (synchronizing). Policies
/// reserve the gang at placement and release it when the job completes.
#[derive(Debug, Default)]
pub struct Reservations {
    reserved: std::collections::BTreeSet<usize>,
}

impl Reservations {
    /// Reserve a gang.
    pub fn reserve(&mut self, gpus: &[usize]) {
        for &g in gpus {
            assert!(self.reserved.insert(g), "GPU {g} doubly reserved");
        }
    }

    /// Release a gang.
    pub fn release(&mut self, gpus: &[usize]) {
        for &g in gpus {
            assert!(self.reserved.remove(&g), "GPU {g} was not reserved");
        }
    }

    /// Is this GPU free of reservations?
    pub fn is_free(&self, gpu: usize) -> bool {
        !self.reserved.contains(&gpu)
    }

    /// Keep only unreserved GPUs.
    pub fn filter_free(&self, gpus: &mut Vec<usize>) {
        gpus.retain(|g| self.is_free(*g));
    }
}

/// Release the reservations of every placed job that has completed.
pub fn release_completed(
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

/// Repair dedicated gangs broken by GPU failures: every gang member in
/// `down` is swapped for the first free GPU of `pool` — the caller orders
/// the pool by its *own* placement preference (fastest-first for a
/// heterogeneity-aware policy, kind-blind for an oblivious one), so a
/// failure never upgrades a scheduler beyond its own discipline. When no
/// replacement is free the hole stays — the paired task simply waits for
/// a later dispatch round (or for the member to recover), which is safe
/// because every completion and recovery re-opens a dispatch opportunity.
pub fn repair_gangs(
    mut pool: Vec<usize>,
    down: &std::collections::BTreeSet<usize>,
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

/// The kind-blind pseudo-random GPU permutation shared by the
/// heterogeneity-oblivious policies (index order would accidentally
/// correlate with speed, since cluster builders list kinds in blocks).
pub fn oblivious_order(gpus: &mut [usize]) {
    gpus.sort_by_key(|&g| (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
}

/// Dispatch a placed job's released tasks onto its gang, pairing each task
/// with an *idle* gang member only. In a healthy run every member is idle
/// whenever the round releases, so this is the plain gang dispatch; under
/// fault injection a member can be down (its task waits) or a single
/// re-released task can meet a partially-busy gang.
pub fn continue_on_gang(
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

#[cfg(test)]
mod tests {
    /// Regression: the float-keyed sorts in the policies (fastest-idle by
    /// speedup, HareOnline dispatch by priority, AlloX gang filling by
    /// speedup) once used `partial_cmp().expect(..)`, which panics the
    /// whole simulation when any key is NaN. They all use `total_cmp`
    /// now; this pins the contract on the exact comparator shape they
    /// share: no panic, deterministic order, NaN sorted to a fixed end.
    #[test]
    fn float_keyed_sorts_tolerate_nan_without_panicking() {
        // Descending-value comparator, as in fastest_idle / AlloX.
        let mut desc: Vec<(usize, f64)> =
            vec![(0, 1.0), (1, f64::NAN), (2, 2.5), (3, f64::NAN), (4, 0.5)];
        desc.sort_by(|&(a, sa), &(b, sb)| sb.total_cmp(&sa).then(a.cmp(&b)));
        let order: Vec<usize> = desc.iter().map(|&(i, _)| i).collect();
        // Positive NaN is total_cmp's maximum, so descending puts it first;
        // what matters is that the order is total and reproducible.
        assert_eq!(order, vec![1, 3, 2, 0, 4]);

        // Ascending-priority comparator, as in HareOnline::dispatch.
        let mut asc: Vec<(usize, f64)> =
            vec![(0, f64::INFINITY), (1, 3.0), (2, f64::NAN), (3, 1.0)];
        asc.sort_by(|&(a, pa), &(b, pb)| pa.total_cmp(&pb).then(a.cmp(&b)));
        let order: Vec<usize> = asc.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, vec![3, 1, 0, 2], "NaN sorts after +inf, stably");
    }
}
