//! Code generation: emitting the NV-enhanced tree as structural HDL.
//!
//! Step 7 of the paper's flow converts the optimized tree back into HDL and
//! submits it to a commercial tool for validation.  Here the generator emits
//! a self-contained structural Verilog module: one `wire` per operand output,
//! one behavioural block per operand (annotated with its feature dictionary),
//! and one non-volatile backup register instantiation per NVM boundary.  The
//! emitted text is checked for internal consistency (every referenced signal
//! is declared exactly once) before being returned.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::error::DiacError;
use crate::replacement::NvEnhancedTree;

/// The generated HDL plus a few summary figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedHdl {
    /// Module name.
    pub module: String,
    /// The full Verilog text.
    pub text: String,
    /// Number of operand blocks emitted.
    pub operand_blocks: usize,
    /// Number of non-volatile backup registers instantiated.
    pub nv_registers: usize,
}

impl GeneratedHdl {
    /// Number of lines of the generated text.
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.text.lines().count()
    }
}

/// Generates structural HDL for an NV-enhanced tree.
///
/// # Errors
///
/// Returns [`DiacError::CodegenFailure`] if the emitted text fails the
/// internal consistency check (which would indicate a bug in the tree, not a
/// user error).
pub fn generate_hdl(enhanced: &NvEnhancedTree) -> Result<GeneratedHdl, DiacError> {
    let tree = enhanced.tree();
    let module = sanitize(tree.name());
    let mut text = String::new();
    let _ = writeln!(text, "// Generated by the DIAC code generator");
    let _ = writeln!(
        text,
        "// {} operands, {} NVM boundaries, technology {}",
        tree.len(),
        enhanced.summary().boundaries,
        enhanced.config().technology
    );
    let _ = writeln!(text, "module {module} (");
    let _ = writeln!(text, "    input  wire clk,");
    let _ = writeln!(text, "    input  wire power_interrupt,");
    let _ = writeln!(text, "    input  wire [{}:0] primary_in,", tree.leaves().len().max(1) - 1);
    let _ = writeln!(text, "    output wire [{}:0] primary_out", tree.roots().len().max(1) - 1);
    let _ = writeln!(text, ");");
    let _ = writeln!(text);

    // Wire declarations: one per operand.
    let mut declared: BTreeSet<String> = BTreeSet::new();
    for op in tree.iter() {
        let name = sanitize(&op.name);
        let _ = writeln!(text, "    wire [{}:0] {name}_y;", op.dict.fan_out.max(1) - 1);
        declared.insert(format!("{name}_y"));
    }
    let _ = writeln!(text);

    // Operand blocks in topological order.
    let mut nv_registers = 0_usize;
    let mut operand_blocks = 0_usize;
    for id in tree.topological_order() {
        let op = tree.operand(id);
        let name = sanitize(&op.name);
        let _ = writeln!(
            text,
            "    // operand {name}: level {}, {} gates, fan-in {}, fan-out {}, {:.3e} J",
            op.dict.level,
            op.dict.estimate.gate_count,
            op.dict.fan_in,
            op.dict.fan_out,
            op.dict.energy().as_joules()
        );
        let inputs: Vec<String> = if op.children.is_empty() {
            vec!["primary_in".to_string()]
        } else {
            op.children.iter().map(|&c| format!("{}_y", sanitize(&tree.operand(c).name))).collect()
        };
        let _ = writeln!(
            text,
            "    diac_operand #(.GATES({}), .LEVEL({})) u_{name} (.in({{{}}}), .out({name}_y));",
            op.dict.estimate.gate_count,
            op.dict.level,
            inputs.join(", ")
        );
        operand_blocks += 1;
        if op.dict.nvm_boundary {
            let _ = writeln!(
                text,
                "    diac_nv_boundary #(.BITS({})) u_{name}_nv (.clk(clk), .save(power_interrupt), .d({name}_y));",
                op.dict.boundary_bits
            );
            nv_registers += 1;
        }
        let _ = writeln!(text);
    }

    // Output assignment from the tree roots.
    let roots: Vec<String> =
        tree.roots().iter().map(|&r| format!("{}_y", sanitize(&tree.operand(r).name))).collect();
    let _ = writeln!(text, "    assign primary_out = {{{}}};", roots.join(", "));
    let _ = writeln!(text, "endmodule");

    // Consistency check: every `_y` signal referenced must have been declared.
    for token in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if token.ends_with("_y") && !declared.contains(token) {
            return Err(DiacError::CodegenFailure {
                message: format!("signal `{token}` is referenced but never declared"),
            });
        }
    }

    Ok(GeneratedHdl { module, text, operand_blocks, nv_registers })
}

/// Makes a name safe to use as a Verilog identifier.
fn sanitize(name: &str) -> String {
    let mut out: String =
        name.chars().map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 'm');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::{insert_nvm_boundaries, ReplacementConfig};
    use crate::tree::OperandTree;
    use netlist::parser::parse_bench;

    fn enhanced_s27() -> NvEnhancedTree {
        let nl = parse_bench("s27", netlist::embedded::S27_BENCH).unwrap();
        let tree = OperandTree::from_netlist(&nl).unwrap();
        insert_nvm_boundaries(tree, &ReplacementConfig::default()).unwrap()
    }

    #[test]
    fn generated_hdl_has_module_structure() {
        let hdl = generate_hdl(&enhanced_s27()).unwrap();
        assert_eq!(hdl.module, "s27");
        assert!(hdl.text.starts_with("// Generated"));
        assert!(hdl.text.contains("module s27 ("));
        assert!(hdl.text.trim_end().ends_with("endmodule"));
        assert!(hdl.line_count() > 10);
    }

    #[test]
    fn one_block_per_operand_and_one_nv_register_per_boundary() {
        let enhanced = enhanced_s27();
        let hdl = generate_hdl(&enhanced).unwrap();
        assert_eq!(hdl.operand_blocks, enhanced.tree().len());
        assert_eq!(hdl.nv_registers, enhanced.summary().boundaries);
        assert_eq!(hdl.text.matches("diac_operand").count(), hdl.operand_blocks);
        assert_eq!(hdl.text.matches("diac_nv_boundary").count(), hdl.nv_registers);
    }

    #[test]
    fn every_operand_name_appears_in_the_text() {
        let enhanced = enhanced_s27();
        let hdl = generate_hdl(&enhanced).unwrap();
        for op in enhanced.tree().iter() {
            assert!(hdl.text.contains(&sanitize(&op.name)), "{}", op.name);
        }
    }

    #[test]
    fn sanitize_handles_odd_names() {
        assert_eq!(sanitize("op1_2"), "op1_2");
        assert_eq!(sanitize("9lives"), "m9lives");
        assert_eq!(sanitize("a-b c"), "a_b_c");
        assert_eq!(sanitize(""), "m");
    }
}
