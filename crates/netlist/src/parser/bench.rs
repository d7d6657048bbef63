//! ISCAS-89 `.bench` format parser.

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder};

/// Parses ISCAS-85/89 `.bench` text into a [`Netlist`] called `name`.
///
/// The format is line oriented:
///
/// ```text
/// # comment
/// INPUT(G0)
/// OUTPUT(G17)
/// G14 = NOT(G0)
/// G8  = AND(G14, G6)
/// G5  = DFF(G10)
/// ```
///
/// # Errors
///
/// Returns [`NetlistError::ParseLine`] for malformed lines,
/// [`NetlistError::UndefinedSignal`] for dangling references, and the other
/// structural errors from [`NetlistBuilder::finish`].
pub fn parse_bench(name: &str, text: &str) -> Result<Netlist, NetlistError> {
    let mut builder = NetlistBuilder::new(name);
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        if let Some(rest) = parse_directive(line, "INPUT") {
            let signal = parse_parenthesised(rest, lineno)?;
            builder.add_input(signal);
        } else if let Some(rest) = parse_directive(line, "OUTPUT") {
            let signal = parse_parenthesised(rest, lineno)?;
            builder.mark_output_name(signal);
        } else if let Some((target, rhs)) = line.split_once('=') {
            let target = target.trim();
            if target.is_empty() {
                return Err(NetlistError::ParseLine {
                    line: lineno,
                    message: "assignment with empty left-hand side".to_string(),
                });
            }
            let (kind, args) = parse_function(rhs.trim(), lineno)?;
            builder.add_gate_by_names(target, kind, args)?;
        } else {
            return Err(NetlistError::ParseLine {
                line: lineno,
                message: format!("unrecognised statement `{line}`"),
            });
        }
    }
    builder.finish()
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Matches `DIRECTIVE(...)` case-insensitively and returns the `(...)` part.
fn parse_directive<'a>(line: &'a str, directive: &str) -> Option<&'a str> {
    let head = line.get(..directive.len())?;
    if head.eq_ignore_ascii_case(directive) {
        let rest = line[directive.len()..].trim_start();
        if rest.starts_with('(') {
            return Some(rest);
        }
    }
    None
}

fn parse_parenthesised(rest: &str, lineno: usize) -> Result<String, NetlistError> {
    let inner =
        rest.strip_prefix('(').and_then(|s| s.trim_end().strip_suffix(')')).ok_or_else(|| {
            NetlistError::ParseLine { line: lineno, message: "expected `(signal)`".to_string() }
        })?;
    let signal = inner.trim();
    if signal.is_empty() || signal.contains(',') {
        return Err(NetlistError::ParseLine {
            line: lineno,
            message: "expected exactly one signal name".to_string(),
        });
    }
    Ok(signal.to_string())
}

fn parse_function(rhs: &str, lineno: usize) -> Result<(GateKind, Vec<String>), NetlistError> {
    let open = rhs.find('(').ok_or_else(|| NetlistError::ParseLine {
        line: lineno,
        message: format!("expected `FUNC(args)` on the right-hand side, found `{rhs}`"),
    })?;
    let close = rhs.rfind(')').ok_or_else(|| NetlistError::ParseLine {
        line: lineno,
        message: "missing closing parenthesis".to_string(),
    })?;
    if close < open {
        return Err(NetlistError::ParseLine {
            line: lineno,
            message: "mismatched parentheses".to_string(),
        });
    }
    let func = rhs[..open].trim();
    let kind = match func.to_ascii_uppercase().as_str() {
        "AND" => GateKind::And,
        "NAND" => GateKind::Nand,
        "OR" => GateKind::Or,
        "NOR" => GateKind::Nor,
        "XOR" => GateKind::Xor,
        "XNOR" => GateKind::Xnor,
        "NOT" | "INV" => GateKind::Not,
        "BUF" | "BUFF" => GateKind::Buf,
        "MUX" => GateKind::Mux,
        "DFF" | "FF" => GateKind::Dff,
        other => {
            return Err(NetlistError::ParseLine {
                line: lineno,
                message: format!("unknown gate function `{other}`"),
            })
        }
    };
    let args: Vec<String> = rhs[open + 1..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if args.is_empty() {
        return Err(NetlistError::ParseLine {
            line: lineno,
            message: "gate has no fan-in arguments".to_string(),
        });
    }
    Ok((kind, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedded::S27_BENCH;

    #[test]
    fn parses_the_embedded_s27() {
        let nl = parse_bench("s27", S27_BENCH).unwrap();
        assert_eq!(nl.primary_inputs().len(), 4);
        assert_eq!(nl.primary_outputs().len(), 1);
        assert_eq!(nl.flip_flop_count(), 3);
        assert_eq!(nl.combinational_count(), 10);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\nINPUT(a)\n  # another\nOUTPUT(g)\ng = NOT(a)  # trailing\n";
        let nl = parse_bench("c", text).unwrap();
        assert_eq!(nl.gate_count(), 2);
    }

    #[test]
    fn lowercase_and_spacing_variants_parse() {
        let text = "input ( a )\ninput(b)\noutput(g)\ng = nand( a , b )\n";
        let nl = parse_bench("c", text).unwrap();
        assert_eq!(nl.combinational_count(), 1);
        assert_eq!(nl.gate(nl.find("g").unwrap()).kind, GateKind::Nand);
    }

    #[test]
    fn unknown_function_is_an_error() {
        let err = parse_bench("c", "INPUT(a)\ng = FROB(a)\n").unwrap_err();
        assert!(matches!(err, NetlistError::ParseLine { line: 2, .. }));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse_bench("c", "INPUT a\n").is_err());
        assert!(parse_bench("c", "INPUT(a, b)\n").is_err());
        assert!(parse_bench("c", " = NOT(a)\n").is_err());
        assert!(parse_bench("c", "g = NOT(a\n").is_err());
        assert!(parse_bench("c", "g = NOT()\nINPUT(a)\n").is_err());
        assert!(parse_bench("c", "garbage\n").is_err());
    }

    #[test]
    fn a_repeated_input_is_an_error() {
        let err = parse_bench("c", "INPUT(a)\nINPUT(a)\nOUTPUT(g)\ng = NOT(a)\n").unwrap_err();
        assert_eq!(err, NetlistError::DuplicateGate { name: "a".into() });
    }

    #[test]
    fn dangling_reference_is_an_error() {
        let err = parse_bench("c", "INPUT(a)\nOUTPUT(g)\ng = AND(a, ghost)\n").unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedSignal { .. }));
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(matches!(parse_bench("c", "# only comments\n"), Err(NetlistError::EmptyNetlist)));
    }
}
