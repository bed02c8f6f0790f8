//! Deterministic solve budgets.
//!
//! A production scheduler cannot let one pathological instance stall a
//! replan indefinitely: every solver in this crate — the revised simplex,
//! the Queyranne cut loop, and branch-and-bound — checks a [`SolveBudget`]
//! cooperatively (on every pivot and search node) so a solve can be
//! bounded up front. An aborted solve returns `None`; callers fall down the
//! degradation ladder (see `hare-core::anytime`) instead of panicking or
//! hanging.
//!
//! Both caps count work units, not wall time: the same instance under the
//! same caps always aborts at the same point, so a budgeted solve is a pure
//! function of its instance, options and budget.

/// A budget for one solve: how much work it may do before aborting.
///
/// The default is unlimited on every axis, under which every budgeted
/// entry point behaves exactly like its unbudgeted counterpart.
#[derive(Copy, Clone, Debug)]
pub struct SolveBudget {
    /// Maximum simplex pivots across the whole solve (Phase I + II and
    /// every cut-round re-solve combined). `u64::MAX` = unlimited.
    pub pivot_cap: u64,
    /// Maximum branch-and-bound nodes. `u64::MAX` = unlimited.
    pub node_cap: u64,
}

impl Default for SolveBudget {
    fn default() -> Self {
        SolveBudget::UNLIMITED
    }
}

impl SolveBudget {
    /// No limits: budgeted solves behave exactly like unbudgeted ones.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        pivot_cap: u64::MAX,
        node_cap: u64::MAX,
    };

    /// A cap on pivots and nodes.
    pub fn capped(pivot_cap: u64, node_cap: u64) -> Self {
        SolveBudget {
            pivot_cap,
            node_cap,
        }
    }

    /// True when nothing can ever trip this budget.
    pub fn is_unlimited(&self) -> bool {
        self.pivot_cap == u64::MAX && self.node_cap == u64::MAX
    }

    /// The budget with every cap scaled by `frac` (clamped to `[0, 1]`);
    /// unlimited axes stay unlimited. This is how the simulator's
    /// `SolverDegradation` fault shrinks a policy's configured budget.
    pub fn scaled(&self, frac: f64) -> Self {
        let frac = frac.clamp(0.0, 1.0);
        let scale = |cap: u64| {
            if cap == u64::MAX {
                u64::MAX
            } else {
                (cap as f64 * frac) as u64
            }
        };
        SolveBudget {
            pivot_cap: scale(self.pivot_cap),
            node_cap: scale(self.node_cap),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_default_and_scales_to_itself() {
        let b = SolveBudget::default();
        assert!(b.is_unlimited());
        let s = b.scaled(0.25);
        assert_eq!(s.pivot_cap, u64::MAX);
        assert_eq!(s.node_cap, u64::MAX);
    }

    #[test]
    fn scaling_shrinks_finite_caps() {
        let b = SolveBudget::capped(1000, 40);
        let s = b.scaled(0.5);
        assert_eq!(s.pivot_cap, 500);
        assert_eq!(s.node_cap, 20);
        // Clamped domain: garbage fractions cannot inflate the budget.
        assert_eq!(b.scaled(7.0).pivot_cap, 1000);
        assert_eq!(b.scaled(-1.0).pivot_cap, 0);
    }
}
