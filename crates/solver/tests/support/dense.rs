//! The dense two-phase tableau simplex: the independent oracle the sparse
//! revised simplex in `hare_solver::lp` is checked against. It shares no
//! code with the library — only the [`LinearProgram`] it reads and the
//! [`LpOutcome`] it returns — so agreement between the two is evidence,
//! not an echo.

use hare_solver::{Cmp, Constraint, LinearProgram, LpOutcome};

const EPS: f64 = 1e-9;

/// Flip a constraint so its RHS is non-negative; returns (new sense, flipped?).
fn normalized_sense(c: &Constraint) -> (Cmp, bool) {
    if c.rhs >= 0.0 {
        (c.cmp, false)
    } else {
        let flipped = match c.cmp {
            Cmp::Le => Cmp::Ge,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
        };
        (flipped, true)
    }
}

enum SimplexEnd {
    Optimal(f64),
    Unbounded,
}

/// Solve `lp` with the dense tableau.
pub fn solve(lp: &LinearProgram) -> LpOutcome {
    Tableau::build(lp).solve()
}

/// Dense simplex tableau. Columns: structural vars, then slack/surplus,
/// then artificials, then RHS.
struct Tableau {
    rows: Vec<Vec<f64>>, // one per constraint
    /// Basis: column index basic in each row.
    basis: Vec<usize>,
    n_struct: usize,
    n_slack: usize,
    n_art: usize,
    objective: Vec<f64>, // structural objective (minimize)
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Tableau {
        let n_struct = lp.objective.len();
        let m = lp.constraints.len();

        // Count slack/surplus and artificial columns.
        let mut n_slack = 0;
        let mut n_art = 0;
        for c in &lp.constraints {
            // Normalize to non-negative RHS first; sense may flip.
            let (cmp, _) = normalized_sense(c);
            match cmp {
                Cmp::Le => n_slack += 1,
                Cmp::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Cmp::Eq => n_art += 1,
            }
        }

        let width = n_struct + n_slack + n_art + 1;
        let mut rows = vec![vec![0.0; width]; m];
        let mut basis = vec![usize::MAX; m];
        let mut slack_at = n_struct;
        let mut art_at = n_struct + n_slack;

        for (r, c) in lp.constraints.iter().enumerate() {
            let (cmp, flip) = normalized_sense(c);
            let sign = if flip { -1.0 } else { 1.0 };
            for &(j, v) in &c.terms {
                rows[r][j] = sign * v;
            }
            rows[r][width - 1] = sign * c.rhs;
            match cmp {
                Cmp::Le => {
                    rows[r][slack_at] = 1.0;
                    basis[r] = slack_at;
                    slack_at += 1;
                }
                Cmp::Ge => {
                    rows[r][slack_at] = -1.0; // surplus
                    slack_at += 1;
                    rows[r][art_at] = 1.0;
                    basis[r] = art_at;
                    art_at += 1;
                }
                Cmp::Eq => {
                    rows[r][art_at] = 1.0;
                    basis[r] = art_at;
                    art_at += 1;
                }
            }
        }

        Tableau {
            rows,
            basis,
            n_struct,
            n_slack,
            n_art,
            objective: lp.objective.clone(),
        }
    }

    fn width(&self) -> usize {
        self.n_struct + self.n_slack + self.n_art + 1
    }

    fn solve(mut self) -> LpOutcome {
        // Phase 1: minimize the artificial sum (skipped when none exist).
        if self.n_art > 0 {
            let art_lo = self.n_struct + self.n_slack;
            let art_hi = art_lo + self.n_art;
            let mut cost = vec![0.0; self.width() - 1];
            cost[art_lo..art_hi].fill(1.0);
            match self.optimize(&cost, art_hi) {
                SimplexEnd::Optimal(v) if v > 1e-7 => return LpOutcome::Infeasible,
                SimplexEnd::Optimal(_) => {}
                // Phase 1 objective is bounded below by 0.
                SimplexEnd::Unbounded => unreachable!("phase 1 cannot be unbounded"),
            }
            // Drive any artificial still in the basis out (degenerate rows).
            for r in 0..self.rows.len() {
                if self.basis[r] >= art_lo {
                    let pivot_col = (0..art_lo).find(|&j| self.rows[r][j].abs() > EPS);
                    match pivot_col {
                        Some(j) => self.pivot(r, j),
                        None => {
                            // Redundant row: zero it out; keep artificial
                            // basic at value 0 and forbid re-entry by never
                            // pricing artificial columns in phase 2.
                        }
                    }
                }
            }
        }

        // Phase 2: original objective; artificial columns are excluded from
        // pricing (column bound art_lo).
        let mut cost = vec![0.0; self.width() - 1];
        cost[..self.n_struct].copy_from_slice(&self.objective);
        let art_lo = self.n_struct + self.n_slack;
        match self.optimize(&cost, art_lo) {
            SimplexEnd::Optimal(obj) => {
                let mut x = vec![0.0; self.n_struct];
                let rhs_col = self.width() - 1;
                for (r, &b) in self.basis.iter().enumerate() {
                    if b < self.n_struct {
                        x[b] = self.rows[r][rhs_col];
                    }
                }
                LpOutcome::Optimal { x, objective: obj }
            }
            SimplexEnd::Unbounded => LpOutcome::Unbounded,
        }
    }

    /// Primal simplex over columns `0..col_limit` with Bland's rule.
    /// Returns the optimal objective value for `cost`.
    fn optimize(&mut self, cost: &[f64], col_limit: usize) -> SimplexEnd {
        let rhs_col = self.width() - 1;
        loop {
            // Reduced costs: c_j - c_B · B^-1 A_j, computed directly from
            // the current tableau (rows are already B^-1 A).
            let mut entering = None;
            for j in 0..col_limit {
                if self.basis.contains(&j) {
                    continue;
                }
                let mut red = cost[j];
                for (r, &b) in self.basis.iter().enumerate() {
                    let cb = if b < cost.len() { cost[b] } else { 0.0 };
                    if cb != 0.0 {
                        red -= cb * self.rows[r][j];
                    }
                }
                if red < -EPS {
                    entering = Some(j); // Bland: first improving column
                    break;
                }
            }
            let Some(j) = entering else {
                // Optimal: objective = c_B · x_B.
                let mut obj = 0.0;
                for (r, &b) in self.basis.iter().enumerate() {
                    let cb = if b < cost.len() { cost[b] } else { 0.0 };
                    obj += cb * self.rows[r][rhs_col];
                }
                return SimplexEnd::Optimal(obj);
            };

            // Ratio test (Bland: smallest basis index tie-break).
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for r in 0..self.rows.len() {
                let a = self.rows[r][j];
                if a > EPS {
                    let ratio = self.rows[r][rhs_col] / a;
                    let better = ratio < best - EPS
                        || (ratio < best + EPS
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if better {
                        best = ratio;
                        leave = Some(r);
                    }
                }
            }
            match leave {
                Some(r) => self.pivot(r, j),
                None => return SimplexEnd::Unbounded,
            }
        }
    }

    fn pivot(&mut self, r: usize, j: usize) {
        let piv = self.rows[r][j];
        debug_assert!(piv.abs() > EPS, "pivot on ~zero element");
        let inv = 1.0 / piv;
        for v in &mut self.rows[r] {
            *v *= inv;
        }
        let pivot_row = self.rows[r].clone();
        for (rr, row) in self.rows.iter_mut().enumerate() {
            if rr != r {
                let factor = row[j];
                if factor.abs() > EPS {
                    for (v, &p) in row.iter_mut().zip(&pivot_row) {
                        *v -= factor * p;
                    }
                }
            }
        }
        self.basis[r] = j;
    }
}
