//! Quickstart: the full DIAC flow on the ISCAS-89 `s27` circuit.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The example walks the pipeline end to end: parse the netlist, build the
//! operand tree, restructure it with Policy3, insert NVM boundaries, generate
//! and timing-check the HDL, compare the four intermittent-computing schemes,
//! and finally run the synthesized node through the runtime FSM simulator
//! under an RFID-like harvest source.

use diac_core::prelude::*;
use ehsim::source::RfidSource;
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use netlist::parser::parse_bench;
use tech45::units::Seconds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The design under test: the embedded ISCAS-89 s27 circuit.
    let netlist = parse_bench("s27", netlist::embedded::S27_BENCH)?;
    println!("{netlist}\n");

    // 2. Tree generation and Policy3 restructuring.
    let mut tree = OperandTree::from_netlist(&netlist)?;
    let bounds = PolicyBounds::relative_to(&tree, 0.25, 0.02);
    diac_core::policy::apply_policy(&mut tree, Policy::Policy3, &bounds)?;
    println!("{tree}\n");

    // 3. NVM boundary insertion (the replacement procedure).
    let enhanced =
        diac_core::replacement::insert_nvm_boundaries(tree, &ReplacementConfig::default())?;
    println!("replacement: {}\n", enhanced.summary());

    // 4. Code generation and timing validation.
    let hdl = generate_hdl(&enhanced)?;
    println!(
        "generated module `{}`: {} lines, {} operand blocks, {} NV registers",
        hdl.module,
        hdl.line_count(),
        hdl.operand_blocks,
        hdl.nv_registers
    );
    let report = validate_timing(&enhanced, &diac_core::timing::TimingConstraints::default());
    println!("{report}\n");

    // 5. Compare the four schemes under a typical RFID intermittency profile.
    let ctx = SchemeContext::default();
    let comparison = compare_all_schemes(&netlist, &ctx)?;
    println!("normalized PDP (NV-based = 1.00):");
    for kind in SchemeKind::ALL {
        println!("  {:<15} {:.3}", kind.to_string(), comparison.normalized_pdp(kind));
    }
    println!();

    // 6. Run the node FSM against a bursty RFID source for an hour.
    let source = RfidSource::typical(7);
    let mut exec = IntermittentExecutor::with_source(FsmConfig::paper_default(), source);
    let stats = exec.run(Seconds::new(3600.0), Seconds::new(0.1));
    println!("one simulated hour on an RFID reader field:\n{stats}");
    Ok(())
}
