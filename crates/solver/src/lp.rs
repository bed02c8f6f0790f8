//! Linear programming: a sparse revised simplex with warm-started
//! constraint generation.
//!
//! The paper solves its relaxed scheduling problem with CPLEX/Gurobi; those
//! are unavailable here, so this module provides the LP solver the
//! relaxation's constraint-generation mode (see [`crate::relax`]) is built
//! on. [`RevisedSimplex`] is a revised primal simplex over *sparse*
//! constraint columns with an explicitly maintained basis inverse, behind
//! the [`LinearProgram`] / [`LpOutcome`] API. The relaxation's rows carry
//! 1–2 nonzeros each, so pricing by `c_j − y·A_j` over sparse columns does
//! O(nnz) work where a dense tableau spends O(m·width) flops per iteration.
//! The basis survives [`RevisedSimplex::add_constraint`], so constraint
//! generation re-optimizes from the previous optimal basis (a one-row
//! Phase I on the new cut) instead of re-running two full phases — this is
//! what makes the cut loop in [`crate::relax`] cheap enough to re-run on
//! every online batch. The crate's tests check it against an independent
//! dense two-phase tableau.
//!
//! Bland's anti-cycling rule guarantees termination and keeps runs
//! deterministic. Conventions: minimize `c·x` subject to sparse row
//! constraints with `<=`, `>=` or `=` senses, and `x >= 0`.

use serde::{Deserialize, Serialize};

/// Constraint sense.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cmp {
    /// `row · x <= rhs`
    Le,
    /// `row · x >= rhs`
    Ge,
    /// `row · x = rhs`
    Eq,
}

/// One sparse constraint row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// (variable index, coefficient) pairs; indices must be unique.
    pub terms: Vec<(usize, f64)>,
    /// Sense.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: minimize `objective · x` over `x >= 0`.
///
/// ```
/// use hare_solver::{LinearProgram, LpOutcome, Cmp};
///
/// // minimize x + y  s.t.  x + 2y >= 4,  3x + y >= 6
/// let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
/// lp.constrain(vec![(0, 1.0), (1, 2.0)], Cmp::Ge, 4.0);
/// lp.constrain(vec![(0, 3.0), (1, 1.0)], Cmp::Ge, 6.0);
/// let LpOutcome::Optimal { objective, .. } = lp.solve() else { panic!() };
/// assert!((objective - 2.8).abs() < 1e-6);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LinearProgram {
    /// Objective coefficients; its length fixes the variable count.
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// Result of solving an LP.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LpOutcome {
    /// Optimal solution found.
    Optimal {
        /// Optimal point.
        x: Vec<f64>,
        /// Optimal objective value.
        objective: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The simplex lost the accuracy to decide: Phase I, whose objective
    /// is bounded below by 0, found no leaving row. The program's status
    /// is unknown; long banded programs end here.
    IllConditioned,
}

impl LinearProgram {
    /// A program minimizing `objective · x`, over one variable per
    /// objective coefficient.
    pub fn minimize(objective: Vec<f64>) -> Self {
        LinearProgram {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Add one constraint; panics on out-of-range or duplicate indices.
    pub fn constrain(&mut self, terms: Vec<(usize, f64)>, cmp: Cmp, rhs: f64) {
        let n = self.objective.len();
        let mut seen = vec![false; n];
        for &(i, _) in &terms {
            assert!(i < n, "constraint references variable {i} of {n}");
            assert!(!seen[i], "duplicate variable {i} in constraint");
            seen[i] = true;
        }
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// Solve with the sparse revised simplex.
    pub fn solve(&self) -> LpOutcome {
        RevisedSimplex::new(self).solve()
    }
}

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

// ---------------------------------------------------------------------
// Sparse revised simplex
// ---------------------------------------------------------------------

/// Refactorize (rebuild `B⁻¹` from the basis columns) after
/// `max(REFACTOR_FLOOR, m)` product-form updates, bounding numerical
/// drift. Scaling the interval with the row count keeps the O(m³) rebuild
/// amortized to O(m²) per pivot — the same order as the pivot update.
const REFACTOR_FLOOR: u64 = 64;

/// Role of one standard-form column.
#[derive(Clone, Debug, PartialEq)]
enum Col {
    /// Structural variable with a sparse column (row, coefficient).
    Structural(Vec<(usize, f64)>),
    /// Slack (+1) or surplus (−1) singleton in one row.
    Unit { row: usize, sign: f64 },
    /// Artificial singleton (sign chosen so its basic value is ≥ 0).
    Artificial { row: usize, sign: f64 },
}

/// Incremental sparse revised simplex.
///
/// Construct from a [`LinearProgram`], call [`solve`](Self::solve), then
/// freely interleave [`add_constraint`](Self::add_constraint) and further
/// `solve` calls: each re-solve starts from the previous optimal basis and
/// only spends a one-row Phase I on the newly violated constraint.
///
/// ```
/// use hare_solver::{Cmp, LinearProgram, LpOutcome, RevisedSimplex};
///
/// let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
/// lp.constrain(vec![(0, 1.0), (1, 2.0)], Cmp::Ge, 4.0);
/// let mut simplex = RevisedSimplex::new(&lp);
/// let LpOutcome::Optimal { objective, .. } = simplex.solve() else { panic!() };
/// assert!((objective - 2.0).abs() < 1e-6);
///
/// // Warm re-solve after a cut: the basis is reused.
/// simplex.add_constraint(vec![(0, 3.0), (1, 1.0)], Cmp::Ge, 6.0);
/// let LpOutcome::Optimal { objective, .. } = simplex.solve() else { panic!() };
/// assert!((objective - 2.8).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct RevisedSimplex {
    n_struct: usize,
    objective: Vec<f64>,
    /// Standard-form columns; structural first, then per-row extras.
    cols: Vec<Col>,
    /// Normalized (non-negative) RHS per row.
    rhs: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    /// Whether each column is currently basic.
    in_basis: Vec<bool>,
    /// Explicit basis inverse, row-major `m × m`.
    binv: Vec<Vec<f64>>,
    /// Current basic values `B⁻¹ rhs`, one per row.
    xb: Vec<f64>,
    pivots: u64,
    pivots_since_refactor: u64,
    refactorizations: u64,
}

impl RevisedSimplex {
    /// Build the standard form of `lp`. No pivoting happens yet.
    pub fn new(lp: &LinearProgram) -> Self {
        let n_struct = lp.objective.len();
        let mut s = RevisedSimplex {
            n_struct,
            objective: lp.objective.clone(),
            cols: (0..n_struct).map(|_| Col::Structural(Vec::new())).collect(),
            rhs: Vec::new(),
            basis: Vec::new(),
            in_basis: vec![false; n_struct],
            binv: Vec::new(),
            xb: Vec::new(),
            pivots: 0,
            pivots_since_refactor: 0,
            refactorizations: 0,
        };
        for c in &lp.constraints {
            s.push_row(c);
        }
        s
    }

    /// Total simplex pivots performed so far (all phases, all re-solves).
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// How many times `B⁻¹` was rebuilt from scratch.
    pub fn refactorizations(&self) -> u64 {
        self.refactorizations
    }

    /// Append one row, choosing its basic column so the current point stays
    /// a basis: the row's own slack/surplus when the current solution
    /// satisfies it, otherwise an artificial at the violation amount (to be
    /// driven out by the next [`solve`](Self::solve) — "Phase I on one
    /// row"). `B⁻¹` is extended in O(m²) without disturbing the basis.
    pub fn add_constraint(&mut self, terms: Vec<(usize, f64)>, cmp: Cmp, rhs: f64) {
        for &(i, _) in &terms {
            assert!(i < self.n_struct, "constraint references variable {i}");
        }
        self.push_row(&Constraint { terms, cmp, rhs });
    }

    fn push_row(&mut self, c: &Constraint) {
        let (cmp, flip) = normalized_sense(c);
        let sign = if flip { -1.0 } else { 1.0 };
        let row = self.rhs.len();
        let rhs = sign * c.rhs;

        // Row activity at the *current* point (structural values; all
        // nonbasic structurals sit at 0). Before the first solve the basis
        // is empty, so activity is simply 0 for every row.
        let x = self.structural_values();
        let mut activity = 0.0;
        for &(j, v) in &c.terms {
            activity += sign * v * x[j];
        }

        // Extend the sparse structural columns.
        for &(j, v) in &c.terms {
            let Col::Structural(col) = &mut self.cols[j] else {
                unreachable!("structural ids precede extras")
            };
            col.push((row, sign * v));
        }

        // The row's own slack/surplus column (none for equalities).
        let own = match cmp {
            Cmp::Le => Some(self.push_col(Col::Unit { row, sign: 1.0 })),
            Cmp::Ge => Some(self.push_col(Col::Unit { row, sign: -1.0 })),
            Cmp::Eq => None,
        };

        // Pick the entering basic column for the new row: the slack/surplus
        // when it would sit at a non-negative value, else an artificial
        // whose sign makes its value the (positive) violation.
        let slack_value = match cmp {
            Cmp::Le => rhs - activity,
            Cmp::Ge => activity - rhs,
            Cmp::Eq => -1.0, // always take the artificial path
        };
        let (basic_col, basic_sign, basic_value) = if slack_value >= -EPS {
            let col = own.expect("Eq rows never take the slack path");
            let sign = match cmp {
                Cmp::Le => 1.0,
                _ => -1.0,
            };
            (col, sign, slack_value.max(0.0))
        } else {
            let diff = rhs - activity;
            let sign = if diff >= 0.0 { 1.0 } else { -1.0 };
            let col = self.push_col(Col::Artificial { row, sign });
            (col, sign, diff.abs())
        };

        // Extend B⁻¹: with the new basic column carrying coefficient σ in
        // the new row, B'⁻¹ = [[B⁻¹, 0], [−σ·a_Bᵀ B⁻¹, σ]] where a_B holds
        // the new row's coefficients on the old basic columns.
        let m = row;
        // Nonzero coefficients of the new row on the old basic columns.
        // Before the first solve every basic column is another row's
        // slack/artificial, so this list is empty and the bordering below
        // is O(m) — constructing an n-row program stays O(n·m), not O(n·m²).
        let a_b: Vec<(usize, f64)> = self
            .basis
            .iter()
            .enumerate()
            .filter_map(|(r, &b)| {
                let v = self.coeff_in_row(b, row, &c.terms, sign);
                (v != 0.0).then_some((r, v))
            })
            .collect();
        let mut last = vec![0.0; m + 1];
        if !a_b.is_empty() {
            for (k, lk) in last.iter_mut().take(m).enumerate() {
                let mut dot = 0.0;
                for &(r, ab) in &a_b {
                    dot += ab * self.binv[r][k];
                }
                *lk = -basic_sign * dot;
            }
        }
        last[m] = basic_sign;
        for r in 0..m {
            self.binv[r].push(0.0);
        }
        self.binv.push(last);

        self.rhs.push(rhs);
        self.basis.push(basic_col);
        self.in_basis[basic_col] = true;
        self.xb.push(basic_value);
    }

    fn push_col(&mut self, col: Col) -> usize {
        self.cols.push(col);
        self.in_basis.push(false);
        self.cols.len() - 1
    }

    /// Coefficient of column `col` in `new_row` (whose structural terms are
    /// `terms` scaled by `sign`). Only structural columns can intersect a
    /// freshly added row; every unit/artificial column lives in an older row.
    fn coeff_in_row(&self, col: usize, new_row: usize, terms: &[(usize, f64)], sign: f64) -> f64 {
        match &self.cols[col] {
            Col::Structural(_) => terms
                .iter()
                .find(|&&(j, _)| j == col)
                .map(|&(_, v)| sign * v)
                .unwrap_or(0.0),
            Col::Unit { row, .. } | Col::Artificial { row, .. } => {
                debug_assert_ne!(*row, new_row);
                0.0
            }
        }
    }

    /// Current structural variable values.
    fn structural_values(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n_struct];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                x[b] = self.xb[r];
            }
        }
        x
    }

    /// Solve from the current basis: a Phase I over any positive artificials
    /// (skipped when none), then Phase II on the real objective. Warm when
    /// called after [`add_constraint`](Self::add_constraint). A solve that
    /// loses its accuracy returns [`LpOutcome::IllConditioned`].
    pub fn solve(&mut self) -> LpOutcome {
        self.solve_under(u64::MAX)
            .expect("uncapped solve cannot abort")
    }

    /// [`RevisedSimplex::solve`] under an absolute pivot cap, checked
    /// before every pivot: it returns `None` once
    /// [`RevisedSimplex::pivots`] reaches `max_pivots` (the cap exhausted
    /// by cycling or a pathological cut sequence), leaving the simplex
    /// mid-flight. The cap counts the *total* pivots of this object; the
    /// cut loop in [`crate::relax`] apportions a
    /// [`SolveBudget`](crate::SolveBudget)'s `pivot_cap` across re-solves.
    pub fn solve_under(&mut self, max_pivots: u64) -> Option<LpOutcome> {
        // Phase I only if some artificial is basic at a positive value.
        let needs_phase1 = self
            .basis
            .iter()
            .zip(&self.xb)
            .any(|(&b, &v)| matches!(self.cols[b], Col::Artificial { .. }) && v > 1e-7);
        if needs_phase1 {
            let cost: Vec<f64> = self
                .cols
                .iter()
                .map(|c| match c {
                    Col::Artificial { .. } => 1.0,
                    _ => 0.0,
                })
                .collect();
            match self.optimize(&cost, true, max_pivots) {
                SimplexEnd::Optimal(v) if v > 1e-7 => return Some(LpOutcome::Infeasible),
                SimplexEnd::Optimal(_) => {}
                // Phase I is bounded below by 0: only lost accuracy gets here.
                SimplexEnd::Unbounded => return Some(LpOutcome::IllConditioned),
                SimplexEnd::Aborted => return None,
            }
            self.expel_artificials();
        }

        let mut cost = vec![0.0; self.cols.len()];
        cost[..self.n_struct].copy_from_slice(&self.objective);
        match self.optimize(&cost, false, max_pivots) {
            SimplexEnd::Optimal(_) => {
                let x = self.structural_values();
                let objective = x.iter().zip(&self.objective).map(|(xi, ci)| xi * ci).sum();
                Some(LpOutcome::Optimal { x, objective })
            }
            SimplexEnd::Unbounded => Some(LpOutcome::Unbounded),
            SimplexEnd::Aborted => None,
        }
    }

    /// Primal simplex with Bland's rule. `allow_artificial` admits
    /// artificial columns into pricing (Phase I only); `max_pivots` is
    /// [`RevisedSimplex::solve_under`]'s.
    fn optimize(&mut self, cost: &[f64], allow_artificial: bool, max_pivots: u64) -> SimplexEnd {
        let m = self.rhs.len();
        if m == 0 {
            // Unconstrained: optimum 0 unless some objective coefficient is
            // negative (then x_j → ∞ is unbounded).
            if self.objective.iter().any(|&c| c < -EPS) && !allow_artificial {
                return SimplexEnd::Unbounded;
            }
            return SimplexEnd::Optimal(0.0);
        }
        // Duals y = c_B · B⁻¹, computed once and then maintained per pivot:
        // when column j (reduced cost rc) enters at row r, the new duals are
        // y + rc·(row r of the updated B⁻¹) — an O(m) update replacing the
        // O(m²) recomputation. Rebuilt from scratch after refactorization.
        let mut y = self.compute_y(cost);
        loop {
            // Price sparse columns: reduced cost c_j − y·A_j; Bland picks
            // the first improving column index.
            let mut entering = None;
            for (j, col) in self.cols.iter().enumerate() {
                if self.in_basis[j] {
                    continue;
                }
                let red = match col {
                    Col::Structural(terms) => {
                        let mut dot = 0.0;
                        for &(r, v) in terms {
                            dot += y[r] * v;
                        }
                        cost[j] - dot
                    }
                    Col::Unit { row, sign } => cost[j] - y[*row] * sign,
                    Col::Artificial { row, sign } => {
                        if !allow_artificial {
                            continue;
                        }
                        cost[j] - y[*row] * sign
                    }
                };
                if red < -EPS {
                    entering = Some((j, red));
                    break;
                }
            }
            let Some((j, rc)) = entering else {
                let mut obj = 0.0;
                for (r, &b) in self.basis.iter().enumerate() {
                    obj += cost[b] * self.xb[r];
                }
                return SimplexEnd::Optimal(obj);
            };

            // Direction d = B⁻¹ A_j (O(m · nnz_j)).
            let d = self.ftran(j);

            // Ratio test (Bland: smallest basis index on ties).
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for (r, &dr) in d.iter().enumerate() {
                if dr > EPS {
                    let ratio = self.xb[r] / dr;
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
                Some(r) => {
                    if self.pivots >= max_pivots {
                        return SimplexEnd::Aborted;
                    }
                    let refactors = self.refactorizations;
                    self.pivot(r, j, &d);
                    if self.refactorizations != refactors {
                        y = self.compute_y(cost); // product-form history reset
                    } else {
                        // y' = y + rc · (updated row r of B⁻¹); see above.
                        for (yk, bk) in y.iter_mut().zip(&self.binv[r]) {
                            *yk += rc * bk;
                        }
                    }
                }
                None => return SimplexEnd::Unbounded,
            }
        }
    }

    /// Duals `y = c_B · B⁻¹` from scratch (O(m²), skipping zero-cost rows).
    fn compute_y(&self, cost: &[f64]) -> Vec<f64> {
        let m = self.rhs.len();
        let mut y = vec![0.0; m];
        for (r, &b) in self.basis.iter().enumerate() {
            let cb = cost[b];
            if cb != 0.0 {
                for (yk, bk) in y.iter_mut().zip(&self.binv[r]) {
                    *yk += cb * bk;
                }
            }
        }
        y
    }

    /// `B⁻¹ A_j` for column `j`.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let m = self.rhs.len();
        let mut d = vec![0.0; m];
        match &self.cols[j] {
            Col::Structural(terms) => {
                for &(row, v) in terms {
                    if v != 0.0 {
                        for (dr, brow) in d.iter_mut().zip(&self.binv) {
                            *dr += brow[row] * v;
                        }
                    }
                }
            }
            Col::Unit { row, sign } | Col::Artificial { row, sign } => {
                for (dr, brow) in d.iter_mut().zip(&self.binv) {
                    *dr = brow[*row] * sign;
                }
            }
        }
        d
    }

    /// Product-form update of `B⁻¹` and `x_B` for entering column `j`
    /// leaving at row `r` with direction `d`.
    fn pivot(&mut self, r: usize, j: usize, d: &[f64]) {
        let m = self.rhs.len();
        let piv = d[r];
        debug_assert!(piv.abs() > EPS, "pivot on ~zero element");
        let theta = self.xb[r] / piv;

        let inv = 1.0 / piv;
        for k in 0..m {
            self.binv[r][k] *= inv;
        }
        let pivot_row = self.binv[r].clone();
        for (rr, row) in self.binv.iter_mut().enumerate() {
            if rr != r {
                let factor = d[rr];
                if factor.abs() > EPS {
                    for (v, &p) in row.iter_mut().zip(&pivot_row) {
                        *v -= factor * p;
                    }
                }
            }
        }
        for (rr, xb) in self.xb.iter_mut().enumerate() {
            if rr != r {
                *xb -= d[rr] * theta;
                if *xb < 0.0 && *xb > -1e-9 {
                    *xb = 0.0; // clamp tiny negative drift
                }
            }
        }
        self.xb[r] = theta;

        self.in_basis[self.basis[r]] = false;
        self.basis[r] = j;
        self.in_basis[j] = true;

        self.pivots += 1;
        self.pivots_since_refactor += 1;
        if self.pivots_since_refactor >= REFACTOR_FLOOR.max(m as u64) {
            self.refactorize();
        }
    }

    /// Drive basic artificials out of the basis after Phase I. Rows where no
    /// real column has a nonzero tableau entry are redundant: the artificial
    /// stays basic at 0 and (being excluded from Phase-II pricing) inert.
    fn expel_artificials(&mut self) {
        let m = self.rhs.len();
        for r in 0..m {
            if !matches!(self.cols[self.basis[r]], Col::Artificial { .. }) {
                continue;
            }
            // Tableau row r over column j is (e_r B⁻¹) · A_j.
            let entering = (0..self.cols.len()).find(|&j| {
                if self.in_basis[j] || matches!(self.cols[j], Col::Artificial { .. }) {
                    return false;
                }
                self.row_dot(r, j).abs() > EPS
            });
            if let Some(j) = entering {
                let d = self.ftran(j);
                self.pivot(r, j, &d);
            }
        }
    }

    /// `(e_r B⁻¹) · A_j` — one tableau entry.
    fn row_dot(&self, r: usize, j: usize) -> f64 {
        match &self.cols[j] {
            Col::Structural(terms) => terms.iter().map(|&(row, v)| self.binv[r][row] * v).sum(),
            Col::Unit { row, sign } | Col::Artificial { row, sign } => self.binv[r][*row] * sign,
        }
    }

    /// Rebuild `B⁻¹` (and `x_B`) from the basis columns by Gauss–Jordan
    /// elimination with partial pivoting, clearing accumulated product-form
    /// rounding. O(m³), amortized over the `max(REFACTOR_FLOOR, m)` pivots
    /// between rebuilds.
    fn refactorize(&mut self) {
        let m = self.rhs.len();
        // Dense B from the basis columns.
        let mut b = vec![vec![0.0; m]; m];
        for (c, &col) in self.basis.iter().enumerate() {
            match &self.cols[col] {
                Col::Structural(terms) => {
                    for &(row, v) in terms {
                        b[row][c] = v;
                    }
                }
                Col::Unit { row, sign } | Col::Artificial { row, sign } => {
                    b[*row][c] = *sign;
                }
            }
        }
        // Invert via [B | I] -> [I | B⁻¹].
        let mut inv: Vec<Vec<f64>> = (0..m)
            .map(|r| (0..m).map(|c| if r == c { 1.0 } else { 0.0 }).collect())
            .collect();
        for col in 0..m {
            let piv_row = (col..m)
                .max_by(|&a, &b_| b[a][col].abs().total_cmp(&b[b_][col].abs()))
                .expect("non-empty");
            if b[piv_row][col].abs() <= EPS {
                // Basis numerically singular — keep the product-form inverse
                // (still consistent enough for Bland to proceed).
                self.pivots_since_refactor = 0;
                return;
            }
            b.swap(col, piv_row);
            inv.swap(col, piv_row);
            let inv_piv = 1.0 / b[col][col];
            for k in 0..m {
                b[col][k] *= inv_piv;
                inv[col][k] *= inv_piv;
            }
            for r in 0..m {
                if r != col {
                    let f = b[r][col];
                    if f != 0.0 {
                        for k in 0..m {
                            b[r][k] -= f * b[col][k];
                            inv[r][k] -= f * inv[col][k];
                        }
                    }
                }
            }
        }
        // Note basis columns were laid out as B[:, c] = A_{basis[c]}, so the
        // inverse maps straight back.
        self.binv = inv;
        let mut xb = vec![0.0; m];
        for (xr, brow) in xb.iter_mut().zip(&self.binv) {
            for (bk, rk) in brow.iter().zip(&self.rhs) {
                *xr += bk * rk;
            }
            if *xr < 0.0 && *xr > -1e-9 {
                *xr = 0.0;
            }
        }
        self.xb = xb;
        self.pivots_since_refactor = 0;
        self.refactorizations += 1;
    }
}

enum SimplexEnd {
    Optimal(f64),
    Unbounded,
    /// The pivot cap stopped the solve before optimality.
    Aborted,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    #[test]
    fn budgeted_solve_matches_the_plain_solve() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 1.0), (1, 2.0)], Cmp::Ge, 4.0);
        lp.constrain(vec![(0, 3.0), (1, 1.0)], Cmp::Ge, 6.0);

        // An uncapped budgeted solve matches the plain solve bit-for-bit,
        // and the cap does not linger into the next plain solve.
        let mut s = RevisedSimplex::new(&lp);
        let budgeted = s
            .solve_under(u64::MAX)
            .expect("an uncapped solve cannot abort");
        let mut u = RevisedSimplex::new(&lp);
        assert_eq!(u.solve(), budgeted);
        assert_eq!(s.solve(), budgeted);
    }

    #[test]
    fn warm_add_constraint_matches_cold_resolve() {
        // Build the scheduling-shaped LP incrementally: solve, add the
        // volume cut warm, and compare against a cold solve of the full
        // program.
        let mut lp = LinearProgram::minimize(vec![0.0, 0.0, 2.0, 1.0]);
        lp.constrain(vec![(0, 1.0)], Cmp::Ge, 0.0);
        lp.constrain(vec![(1, 1.0)], Cmp::Ge, 1.0);
        lp.constrain(vec![(2, 1.0), (0, -1.0)], Cmp::Ge, 3.0);
        lp.constrain(vec![(3, 1.0), (1, -1.0)], Cmp::Ge, 5.0);

        let mut warm = RevisedSimplex::new(&lp);
        let LpOutcome::Optimal { .. } = warm.solve() else {
            panic!()
        };
        let pivots_before_cut = warm.pivots();
        warm.add_constraint(vec![(0, 3.0), (1, 5.0)], Cmp::Ge, 7.5);
        let LpOutcome::Optimal { x, objective } = warm.solve() else {
            panic!()
        };
        assert!((objective - 12.5).abs() < 1e-6, "warm obj={objective}");
        assert!((x[0]).abs() < 1e-6 && (x[1] - 1.5).abs() < 1e-6);

        lp.constrain(vec![(0, 3.0), (1, 5.0)], Cmp::Ge, 7.5);
        let mut cold = RevisedSimplex::new(&lp);
        let LpOutcome::Optimal {
            objective: cold_obj,
            ..
        } = cold.solve()
        else {
            panic!()
        };
        assert!((objective - cold_obj).abs() < 1e-9);
        // The warm re-solve must be cheaper than re-running everything.
        let warm_resolve_pivots = warm.pivots() - pivots_before_cut;
        assert!(
            warm_resolve_pivots < cold.pivots(),
            "warm {warm_resolve_pivots} vs cold {}",
            cold.pivots()
        );
    }

    #[test]
    fn warm_add_of_satisfied_constraint_is_free() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 1.0), (1, 2.0)], Cmp::Ge, 4.0);
        let mut s = RevisedSimplex::new(&lp);
        let LpOutcome::Optimal { objective, .. } = s.solve() else {
            panic!()
        };
        assert!((objective - 2.0).abs() < 1e-6);
        let before = s.pivots();
        // Already satisfied by the optimum (y = 2 ≥ 1): slack basis, no work.
        s.add_constraint(vec![(1, 1.0)], Cmp::Le, 5.0);
        let LpOutcome::Optimal { objective, .. } = s.solve() else {
            panic!()
        };
        assert!((objective - 2.0).abs() < 1e-6);
        assert_eq!(s.pivots(), before, "satisfied row must not pivot");
    }

    #[test]
    fn brute_force_vertex_agreement() {
        // Random-ish small LPs: compare simplex with brute-force vertex
        // enumeration over constraint pairs (2 vars).
        #[allow(clippy::type_complexity)]
        let cases: Vec<(Vec<f64>, Vec<(f64, f64, f64)>)> = vec![
            (
                vec![1.0, 2.0],
                vec![(1.0, 1.0, 3.0), (2.0, 1.0, 4.0), (1.0, 3.0, 6.0)],
            ),
            (
                vec![3.0, 1.0],
                vec![(1.0, 2.0, 2.0), (2.0, 1.0, 2.0), (1.0, 1.0, 1.5)],
            ),
        ];
        for (c, rows) in cases {
            // Constraints are a*x + b*y >= r (covering-type); x,y >= 0.
            let mut lp = LinearProgram::minimize(c.clone());
            for &(a, b, r) in &rows {
                lp.constrain(vec![(0, a), (1, b)], Cmp::Ge, r);
            }
            let got = match lp.solve() {
                LpOutcome::Optimal { objective, .. } => objective,
                other => panic!("{other:?}"),
            };
            // Enumerate candidate vertices: constraint intersections and
            // axis intercepts; keep feasible ones.
            let mut best = f64::INFINITY;
            let mut candidates: Vec<(f64, f64)> = Vec::new();
            for i in 0..rows.len() {
                let (a1, b1, r1) = rows[i];
                candidates.push((r1 / a1, 0.0));
                candidates.push((0.0, r1 / b1));
                for (a2, b2, r2) in rows.iter().skip(i + 1).copied() {
                    let det = a1 * b2 - a2 * b1;
                    if det.abs() > 1e-9 {
                        candidates.push(((r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det));
                    }
                }
            }
            for (x, y) in candidates {
                if x >= -1e-9
                    && y >= -1e-9
                    && rows.iter().all(|&(a, b, r)| a * x + b * y >= r - 1e-9)
                {
                    best = best.min(c[0] * x + c[1] * y);
                }
            }
            assert!((got - best).abs() < 1e-6, "simplex {got} vs brute {best}");
        }
    }
}
