//! DIAC — Design Exploration of Intermittent-Aware Computing.
//!
//! This crate implements the paper's primary contribution: a synthesis
//! methodology that takes a gate-level design and produces an
//! *intermittent-aware* implementation able to make forward progress across
//! power failures with the minimum energy spent on non-volatile backups.
//!
//! The flow follows Fig. 1 of the paper:
//!
//! 1. **Tree generator** ([`tree`]): the netlist is clustered into an operand
//!    tree; every node carries a *feature dictionary* ([`feature`]) with its
//!    fan-in, fan-out, level, delay, and power figures obtained from the
//!    45 nm surrogate models in [`tech45`].
//! 2. **Policies** ([`policy`]): Policy1 splits over-sized operands, Policy2
//!    merges under-sized ones, Policy3 applies both — trading resiliency
//!    against efficiency exactly as Fig. 2 illustrates.
//! 3. **Replacement** ([`replacement`]): the tree is traversed from the
//!    leaves towards the roots, accumulating unsaved energy; NVM boundaries
//!    are inserted following the paper's three criteria (upper levels, high
//!    power cones, high fan-in/fan-out nodes).
//! 4. **Code generation and validation** ([`codegen`], [`timing`],
//!    [`verify`]): the NV-enhanced tree is emitted as structural HDL,
//!    checked for timing violations, and — opt-in — materialised as a
//!    replaced netlist ([`verify::replaced_netlist`]) and checked for
//!    functional equivalence against the original by seeded random-vector
//!    simulation ([`CircuitArtifacts::verify_replacement`]).
//! 5. **Evaluation** ([`pdp`], [`schemes`]): the four intermittent-computing
//!    schemes the paper compares (NV-based, NV-Clustering, DIAC, Optimized
//!    DIAC) are priced with a shared power-delay-product model under an
//!    intermittency profile.  The scheme-independent products (figures,
//!    operand tree, restructuring, replacement) are computed once per
//!    circuit by the [`pipeline`] and shared across schemes and sweep
//!    points; [`explore`] sweeps the design space on top of it.
//!
//! # Quick example
//!
//! ```
//! use diac_core::prelude::*;
//! use netlist::parser::parse_bench;
//!
//! let nl = parse_bench("s27", netlist::embedded::S27_BENCH)?;
//! let ctx = SchemeContext::default();
//! let comparison = compare_all_schemes(&nl, &ctx)?;
//! let diac = comparison.result(SchemeKind::DiacOptimized).expect("present");
//! let nv = comparison.result(SchemeKind::NvBased).expect("present");
//! assert!(diac.breakdown.pdp() < nv.breakdown.pdp());
//! # Ok::<(), diac_core::DiacError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod codegen;
mod error;
pub mod explore;
pub mod feature;
pub mod pdp;
pub mod pipeline;
pub mod policy;
pub mod replacement;
pub mod schemes;
pub mod timing;
pub mod tree;
pub mod verify;

pub use error::DiacError;
pub use feature::FeatureDict;
pub use pdp::{IntermittencyProfile, PdpBreakdown};
pub use pipeline::{CircuitArtifacts, SynthesisPipeline};
pub use policy::{Policy, PolicyBounds};
pub use replacement::{NvEnhancedTree, ReplacementConfig, ReplacementSummary};
pub use schemes::{compare_all_schemes, SchemeComparison, SchemeContext, SchemeKind, SchemeResult};
pub use tree::{Operand, OperandId, OperandTree};
pub use verify::replaced_netlist;

pub use atomic::{plan_atomic_operations, AtomicOperation, AtomicPlan, OperationSpec};

/// Commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use crate::atomic::{plan_atomic_operations, AtomicOperation, AtomicPlan, OperationSpec};
    pub use crate::codegen::generate_hdl;
    pub use crate::explore::{DesignPoint, ExplorationConfig, Explorer};
    pub use crate::feature::FeatureDict;
    pub use crate::pdp::{IntermittencyProfile, PdpBreakdown};
    pub use crate::pipeline::{CircuitArtifacts, SynthesisPipeline};
    pub use crate::policy::{Policy, PolicyBounds};
    pub use crate::replacement::{NvEnhancedTree, ReplacementConfig, ReplacementSummary};
    pub use crate::schemes::{
        compare_all_schemes, SchemeComparison, SchemeContext, SchemeKind, SchemeResult,
    };
    pub use crate::timing::{validate_timing, TimingReport};
    pub use crate::tree::{Operand, OperandId, OperandTree};
    pub use crate::verify::replaced_netlist;
    pub use crate::DiacError;
}
