//! Min-cost bipartite matching (Hungarian algorithm, O(n³)).
//!
//! AlloX \[24\] schedules jobs by transforming placement into a min-cost
//! bipartite matching between jobs and (machine, position) slots; the
//! `hare-baselines` crate builds that matching on top of this module. The
//! implementation is the classic potentials-based Hungarian algorithm on a
//! dense cost matrix, supporting rectangular instances (rows ≤ cols) by
//! leaving surplus columns unmatched.

use serde::{Deserialize, Serialize};

/// Result of a min-cost assignment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matching {
    /// `assignment[r]` = column matched to row `r`.
    pub assignment: Vec<usize>,
    /// Total cost of the matching.
    pub cost: f64,
}

/// Solve min-cost assignment on a dense `rows x cols` cost matrix
/// (`cost[r][c]`), `rows <= cols`. Every row is matched to a distinct
/// column minimizing total cost. Costs must be finite.
///
/// ```
/// use hare_solver::min_cost_matching;
/// let cost = vec![vec![10.0, 1.0], vec![1.0, 10.0]];
/// let m = min_cost_matching(&cost);
/// assert_eq!(m.assignment, vec![1, 0]);
/// assert_eq!(m.cost, 2.0);
/// ```
pub fn min_cost_matching(cost: &[Vec<f64>]) -> Matching {
    let n = cost.len();
    assert!(n > 0, "empty matching instance");
    let m = cost[0].len();
    assert!(cost.iter().all(|row| row.len() == m), "ragged cost matrix");
    assert!(n <= m, "need rows <= cols ({n} > {m})");
    assert!(
        cost.iter().flatten().all(|c| c.is_finite()),
        "non-finite cost"
    );

    // Hungarian with potentials; 1-based internal arrays (classic form).
    let inf = f64::INFINITY;
    let mut u = vec![0.0; n + 1];
    let mut v = vec![0.0; m + 1];
    let mut p = vec![0usize; m + 1]; // p[col] = row matched to col (0 = none)
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total: f64 = assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[r][c])
        .sum();
    Matching {
        assignment,
        cost: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(cost: &[Vec<f64>]) -> f64 {
        // Try all injective row->col maps.
        let n = cost.len();
        let m = cost[0].len();
        let mut best = f64::INFINITY;
        let mut cols: Vec<usize> = (0..m).collect();
        permute(&mut cols, 0, n, &mut |perm| {
            let c: f64 = (0..n).map(|r| cost[r][perm[r]]).sum();
            if c < best {
                best = c;
            }
        });
        best
    }

    fn permute(cols: &mut [usize], k: usize, n: usize, f: &mut impl FnMut(&[usize])) {
        if k == n {
            f(&cols[..n]);
            return;
        }
        for i in k..cols.len() {
            cols.swap(k, i);
            permute(cols, k + 1, n, f);
            cols.swap(k, i);
        }
    }

    #[test]
    fn trivial_identity() {
        let cost = vec![vec![1.0, 9.0], vec![9.0, 1.0]];
        let m = min_cost_matching(&cost);
        assert_eq!(m.assignment, vec![0, 1]);
        assert!((m.cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn forced_cross_assignment() {
        let cost = vec![vec![10.0, 1.0], vec![1.0, 10.0]];
        let m = min_cost_matching(&cost);
        assert_eq!(m.assignment, vec![1, 0]);
        assert!((m.cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn square_matches_brute_force() {
        // Deterministic pseudo-random 6x6.
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 1000) as f64 / 10.0
        };
        for _ in 0..20 {
            let cost: Vec<Vec<f64>> = (0..6).map(|_| (0..6).map(|_| next()).collect()).collect();
            let m = min_cost_matching(&cost);
            let bf = brute_force(&cost);
            assert!(
                (m.cost - bf).abs() < 1e-9,
                "hungarian {} vs brute {bf}",
                m.cost
            );
            // Assignment must be a permutation.
            let mut seen = [false; 6];
            for &c in &m.assignment {
                assert!(!seen[c]);
                seen[c] = true;
            }
        }
    }

    #[test]
    fn rectangular_matches_brute_force() {
        let mut seed = 777u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 1000) as f64 / 10.0
        };
        for _ in 0..10 {
            let cost: Vec<Vec<f64>> = (0..4).map(|_| (0..7).map(|_| next()).collect()).collect();
            let m = min_cost_matching(&cost);
            let bf = brute_force(&cost);
            assert!((m.cost - bf).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_costs_are_fine() {
        let cost = vec![vec![-5.0, 2.0], vec![3.0, -4.0]];
        let m = min_cost_matching(&cost);
        assert!((m.cost - (-9.0)).abs() < 1e-12);
    }

    #[test]
    fn allox_shaped_instance() {
        // 3 jobs onto 2 machines x 2 positions = 4 slots: cost of slot
        // (m, k) for job j is k * t[j][m] (completion-position weighting),
        // the AlloX construction.
        let t = [[2.0, 4.0], [3.0, 3.0], [10.0, 1.0]];
        let mut cost = vec![vec![0.0; 4]; 3];
        for (j, tj) in t.iter().enumerate() {
            for machine in 0..2 {
                for pos in 1..=2usize {
                    cost[j][machine * 2 + (pos - 1)] = pos as f64 * tj[machine];
                }
            }
        }
        let m = min_cost_matching(&cost);
        let bf = brute_force(&cost);
        assert!((m.cost - bf).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "rows <= cols")]
    fn too_many_rows_rejected() {
        let cost = vec![vec![1.0], vec![2.0]];
        min_cost_matching(&cost);
    }
}
