//! Atomic-operation planning.
//!
//! Section III.B of the paper: "all operations, namely sense (Se), compute
//! (Cp), transmit (Tr), sleep (Sp), and backup (Bk), are divided into atomic
//! operations, which are executed uninterrupted.  These atomic operations are
//! determined based on the system's maximum storage power and should only
//! begin when sufficient power is available.  We will iteratively use three
//! policies to determine optimal atomic operations to maximize efficiency."
//!
//! This module performs that division at design time: given the energy and
//! duration of each node-level operation and the energy the storage element
//! can actually dedicate to one uninterrupted burst, it produces the list of
//! atomic sub-operations the FSM schedules between threshold checks.

use std::fmt;

use tech45::constants::{E_COMPUTE, E_MAX, E_SENSE, E_TRANSMIT};
use tech45::units::{Energy, Seconds};

use crate::error::DiacError;
use crate::policy::Policy;

/// One node-level operation to be divided into atomic pieces.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationSpec {
    /// Operation name (`"sense"`, `"compute"`, `"transmit"`, …).
    pub name: String,
    /// Total energy of the operation.
    pub energy: Energy,
    /// Total duration of the operation.
    pub duration: Seconds,
}

impl OperationSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: impl Into<String>, energy: Energy, duration: Seconds) -> Self {
        Self { name: name.into(), energy, duration }
    }

    /// The paper's three operations (2 / 4 / 9 mJ).
    #[must_use]
    pub fn paper_operations() -> Vec<Self> {
        vec![
            Self::new("sense", E_SENSE, Seconds::new(0.5)),
            Self::new("compute", E_COMPUTE, Seconds::new(2.0)),
            Self::new("transmit", E_TRANSMIT, Seconds::new(1.0)),
        ]
    }
}

/// One atomic (uninterruptible) piece of an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicOperation {
    /// Name of the piece (`"compute[1/3]"`).
    pub name: String,
    /// Parent operation name.
    pub parent: String,
    /// Energy of this piece.
    pub energy: Energy,
    /// Duration of this piece.
    pub duration: Seconds,
}

impl fmt::Display for AtomicOperation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2} mJ over {:.2} s",
            self.name,
            self.energy.as_millijoules(),
            self.duration.as_seconds()
        )
    }
}

/// The full atomic plan of a node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AtomicPlan {
    /// The atomic operations in execution order.
    pub operations: Vec<AtomicOperation>,
    /// The per-burst energy budget the plan was built for.
    pub burst_budget: Energy,
}

impl fmt::Display for AtomicPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "atomic plan ({} pieces, budget {:.2} mJ):",
            self.operations.len(),
            self.burst_budget.as_millijoules()
        )?;
        for op in &self.operations {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

/// Divides the node-level operations into atomic pieces that each fit within
/// `burst_budget` of stored energy, following the selected policy:
///
/// * `Policy1` splits every operation into the smallest pieces that still
///   make progress (half the budget each) — maximum resiliency;
/// * `Policy2` packs pieces as large as the budget allows — maximum
///   efficiency;
/// * `Policy3` targets three quarters of the budget — the compromise used in
///   the evaluation.
///
/// # Errors
///
/// Returns [`DiacError::InvalidConfig`] if the budget is non-positive or
/// exceeds what the storage element can physically hold.
pub fn plan_atomic_operations(
    operations: &[OperationSpec],
    burst_budget: Energy,
    policy: Policy,
) -> Result<AtomicPlan, DiacError> {
    if burst_budget.is_non_positive() {
        return Err(DiacError::InvalidConfig {
            message: "the atomic burst budget must be positive".to_string(),
        });
    }
    if burst_budget > E_MAX {
        return Err(DiacError::InvalidConfig {
            message: format!(
                "the atomic burst budget ({}) exceeds the storage capacity ({})",
                burst_budget, E_MAX
            ),
        });
    }
    let target = match policy {
        Policy::Policy1 => burst_budget * 0.5,
        Policy::Policy2 => burst_budget,
        Policy::Policy3 => burst_budget * 0.75,
    };
    let mut plan = AtomicPlan { operations: Vec::new(), burst_budget };
    for op in operations {
        if op.energy.is_non_positive() {
            continue;
        }
        let pieces = (op.energy.ratio(target)).ceil().max(1.0) as usize;
        let piece_energy = op.energy / pieces as f64;
        let piece_duration = op.duration / pieces as f64;
        for i in 0..pieces {
            plan.operations.push(AtomicOperation {
                name: format!("{}[{}/{}]", op.name, i + 1, pieces),
                parent: op.name.clone(),
                energy: piece_energy,
                duration: piece_duration,
            });
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(mj: f64) -> Energy {
        Energy::from_millijoules(mj)
    }

    /// Number of atomic operations belonging to one parent operation.
    fn pieces_of(plan: &AtomicPlan, parent: &str) -> usize {
        plan.operations.iter().filter(|o| o.parent == parent).count()
    }

    /// Whether every atomic operation fits the burst budget.
    fn fits_budget(plan: &AtomicPlan) -> bool {
        let largest = plan.operations.iter().map(|o| o.energy).fold(Energy::ZERO, Energy::max);
        largest <= plan.burst_budget * (1.0 + 1e-9)
    }

    #[test]
    fn the_paper_operations_fit_a_10mj_burst_under_every_policy() {
        for policy in Policy::ALL {
            let plan =
                plan_atomic_operations(&OperationSpec::paper_operations(), budget(10.0), policy)
                    .unwrap();
            assert!(fits_budget(&plan), "{policy}: {plan}");
            let total: Energy = plan.operations.iter().map(|o| o.energy).sum();
            assert!((total.as_millijoules() - 15.0).abs() < 1e-9, "splitting must conserve energy");
        }
    }

    #[test]
    fn policy1_produces_more_pieces_than_policy2() {
        let ops = OperationSpec::paper_operations();
        let p1 = plan_atomic_operations(&ops, budget(10.0), Policy::Policy1).unwrap();
        let p2 = plan_atomic_operations(&ops, budget(10.0), Policy::Policy2).unwrap();
        let p3 = plan_atomic_operations(&ops, budget(10.0), Policy::Policy3).unwrap();
        assert!(p1.operations.len() > p2.operations.len());
        assert!(p3.operations.len() >= p2.operations.len());
        assert!(p1.operations.len() >= p3.operations.len());
    }

    #[test]
    fn a_tight_budget_splits_the_transmit_operation() {
        let plan = plan_atomic_operations(
            &OperationSpec::paper_operations(),
            budget(5.0),
            Policy::Policy3,
        )
        .unwrap();
        assert!(pieces_of(&plan, "transmit") >= 3, "{plan}");
        assert!(pieces_of(&plan, "sense") >= 1);
        assert!(fits_budget(&plan));
    }

    #[test]
    fn degenerate_budgets_are_rejected() {
        let ops = OperationSpec::paper_operations();
        assert!(plan_atomic_operations(&ops, Energy::ZERO, Policy::Policy3).is_err());
        assert!(plan_atomic_operations(&ops, budget(40.0), Policy::Policy3).is_err());
    }

    #[test]
    fn zero_energy_operations_are_skipped() {
        let ops = vec![
            OperationSpec::new("noop", Energy::ZERO, Seconds::ZERO),
            OperationSpec::new("real", budget(2.0), Seconds::new(1.0)),
        ];
        let plan = plan_atomic_operations(&ops, budget(10.0), Policy::Policy2).unwrap();
        assert_eq!(pieces_of(&plan, "noop"), 0);
        assert_eq!(pieces_of(&plan, "real"), 1);
    }

    #[test]
    fn display_lists_every_piece() {
        let plan = plan_atomic_operations(
            &OperationSpec::paper_operations(),
            budget(8.0),
            Policy::Policy3,
        )
        .unwrap();
        let text = plan.to_string();
        assert!(text.contains("transmit[1/"));
        assert!(text.contains("mJ"));
    }
}
