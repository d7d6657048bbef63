//! Timing validation of the NV-enhanced tree.
//!
//! After code generation the paper's flow checks the design "for possible
//! timing violations".  Two constraints are checked here:
//!
//! * **path constraint** — the combinational path between two consecutive
//!   NVM boundaries (plus the boundary's write latency) must fit inside the
//!   clock period of the intermittent node;
//! * **burst constraint** — the total delay of the work protected by one
//!   boundary must fit inside the shortest harvesting burst, otherwise the
//!   design can never finish an atomic region before the next power failure.

use std::collections::HashMap;
use std::fmt;

use tech45::units::Seconds;

use crate::replacement::NvEnhancedTree;
use crate::tree::OperandId;

/// Timing constraints to validate against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConstraints {
    /// Clock period of the node.
    pub clock_period: Seconds,
    /// Duration of the shortest usable harvesting burst.
    pub min_burst: Seconds,
}

impl Default for TimingConstraints {
    fn default() -> Self {
        Self {
            // A conservative 50 MHz clock for a 45 nm batteryless node and a
            // 10 ms minimum burst (RFID readers energise tags for far longer).
            clock_period: Seconds::from_nanos(20.0),
            min_burst: Seconds::from_millis(10.0),
        }
    }
}

/// One timing violation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingViolation {
    /// Name of the operand (or path end point) violating the constraint.
    pub path: String,
    /// Required maximum delay.
    pub required: Seconds,
    /// Actual delay.
    pub actual: Seconds,
    /// Which constraint was violated.
    pub constraint: &'static str,
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} needs {:.3e} s but takes {:.3e} s",
            self.constraint,
            self.path,
            self.required.as_seconds(),
            self.actual.as_seconds()
        )
    }
}

/// Result of a timing validation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingReport {
    /// All violations found (empty when the design is clean).
    pub violations: Vec<TimingViolation>,
    /// The longest unprotected path (between boundaries) observed.
    pub worst_path: Seconds,
    /// The critical path of the whole tree.
    pub critical_path: Seconds,
}

impl TimingReport {
    /// Whether the design meets all constraints.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "timing clean (worst unprotected path {:.3e} s, critical path {:.3e} s)",
                self.worst_path.as_seconds(),
                self.critical_path.as_seconds()
            )
        } else {
            writeln!(f, "{} timing violations:", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Validates the timing of an NV-enhanced tree.
#[must_use]
pub fn validate_timing(enhanced: &NvEnhancedTree, constraints: &TimingConstraints) -> TimingReport {
    let tree = enhanced.tree();
    let write_latency = enhanced.summary().backup_latency;

    // Longest delay accumulated since the last NVM boundary, per operand.
    let mut unprotected: HashMap<OperandId, Seconds> = HashMap::new();
    let mut report =
        TimingReport { critical_path: tree.critical_path(), ..TimingReport::default() };

    for id in tree.topological_order() {
        let op = tree.operand(id);
        let inherited = op
            .children
            .iter()
            .filter_map(|c| unprotected.get(c).copied())
            .fold(Seconds::ZERO, Seconds::max);
        let own = inherited + op.dict.delay();
        report.worst_path = report.worst_path.max(own);

        if op.dict.nvm_boundary {
            // The atomic region ending here (plus committing the boundary)
            // must fit in one harvesting burst.
            let total = own + write_latency;
            if total > constraints.min_burst {
                report.violations.push(TimingViolation {
                    path: op.name.clone(),
                    required: constraints.min_burst,
                    actual: total,
                    constraint: "burst constraint",
                });
            }
            unprotected.insert(id, Seconds::ZERO);
        } else {
            unprotected.insert(id, own);
        }

        // Each individual operand is evaluated within a clock cycle of the
        // sequential wrapper, so its own critical path must fit the period.
        if op.dict.delay() > constraints.clock_period {
            report.violations.push(TimingViolation {
                path: op.name.clone(),
                required: constraints.clock_period,
                actual: op.dict.delay(),
                constraint: "clock period",
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::{insert_nvm_boundaries, ReplacementConfig};
    use crate::tree::OperandTree;
    use netlist::suite::BenchmarkSuite;

    fn enhanced(circuit: &str) -> NvEnhancedTree {
        let nl = BenchmarkSuite::diac_paper().materialize(circuit).unwrap();
        let tree = OperandTree::from_netlist(&nl).unwrap();
        insert_nvm_boundaries(tree, &ReplacementConfig::default()).unwrap()
    }

    #[test]
    fn realistic_designs_meet_default_constraints() {
        for circuit in ["s27", "s298", "s344"] {
            let report = validate_timing(&enhanced(circuit), &TimingConstraints::default());
            assert!(report.is_clean(), "{circuit}: {report}");
            assert!(report.critical_path.value() > 0.0);
            assert!(report.worst_path.value() > 0.0);
        }
    }

    #[test]
    fn impossible_constraints_produce_violations() {
        let constraints = TimingConstraints {
            clock_period: Seconds::from_picos(1.0),
            min_burst: Seconds::from_picos(1.0),
        };
        let report = validate_timing(&enhanced("s298"), &constraints);
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| v.constraint == "clock period"));
        assert!(report.violations.iter().any(|v| v.constraint == "burst constraint"));
        let text = report.to_string();
        assert!(text.contains("violations"));
    }

    #[test]
    fn clean_report_displays_the_paths() {
        let report = validate_timing(&enhanced("s27"), &TimingConstraints::default());
        assert!(report.to_string().contains("timing clean"));
    }

    #[test]
    fn worst_unprotected_path_is_at_most_the_critical_path() {
        let report = validate_timing(&enhanced("s400"), &TimingConstraints::default());
        assert!(report.worst_path <= report.critical_path + Seconds::from_picos(1.0));
    }

    #[test]
    fn violation_display_mentions_the_path_name() {
        let v = TimingViolation {
            path: "op3_1".to_string(),
            required: Seconds::from_nanos(1.0),
            actual: Seconds::from_nanos(2.0),
            constraint: "clock period",
        };
        let text = v.to_string();
        assert!(text.contains("op3_1") && text.contains("clock period"));
    }
}
