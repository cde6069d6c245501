//! A plain-text on-disk format for machine descriptions (`.mach` files).
//!
//! A corpus directory (see `regpipe suite --corpus`) may carry one
//! `.mach` file describing the machine its loops should be compiled for;
//! this module is that file's parser and printer. The full grammar is
//! specified in `docs/formats.md` alongside the `.ddg` format; this doc
//! comment and that spec are kept in agreement.
//!
//! One directive per line; `#` starts a comment that runs to the end of
//! the line. A description starts from the [`MachineConfig::custom`]
//! baseline — one unit per class, adder and multiplier latency 4, the
//! paper's fixed latencies (store 1, load 2, div 17, sqrt 30, copy 1),
//! and a non-pipelined div/sqrt class — and each directive overrides one
//! parameter:
//!
//! ```text
//! machine P3L5            # name (optional; default "custom")
//! units mem 3             # unit count per class: mem|add|mul|divsqrt
//! units add 3
//! units mul 3
//! units divsqrt 1
//! latency add 5           # per-op latency: load|store|add|mul|div|sqrt|copy
//! latency mul 5
//! pipelined mem on        # per-class pipelining: on|off
//! pipelined divsqrt off
//! ```
//!
//! [`format()`](fn@format) renders a machine canonically (every parameter explicit, in
//! a fixed order) and [`parse`] round-trips it:
//!
//! ```
//! use regpipe_machine::{textfmt, MachineConfig};
//!
//! let m = MachineConfig::p2l6();
//! let text = textfmt::format(&m);
//! assert_eq!(textfmt::parse(&text)?, m);
//! # Ok::<(), regpipe_machine::textfmt::ParseError>(())
//! ```
//!
//! Only 4-class machines are expressible; the didactic
//! [`MachineConfig::uniform`] machine stays a programmatic (and CLI
//! `--machine uniform:<units>,<latency>`) construct.

use regpipe_ddg::OpKind;

use crate::config::{FuClass, MachineConfig};

/// The shared text-format error type: 1-based line, message, and (when the
/// text came from disk, via [`parse_named`]) the offending file. Machine
/// descriptions and `.ddg` loops render errors identically
/// (`file:line: message`), so corpus loaders handle one shape.
pub use regpipe_ddg::textfmt::ParseError;

/// The four overridable classes, with their format spellings.
const CLASSES: [(FuClass, &str); 4] = [
    (FuClass::Memory, "mem"),
    (FuClass::Adder, "add"),
    (FuClass::Multiplier, "mul"),
    (FuClass::DivSqrt, "divsqrt"),
];

fn parse_class(s: &str) -> Option<FuClass> {
    CLASSES.iter().find(|(_, name)| *name == s).map(|&(c, _)| c)
}

/// Renders `machine` canonically: name, then every unit count, latency and
/// pipelining flag explicitly, in a fixed order. [`parse`] round-trips it.
///
/// # Panics
///
/// Panics on a [uniform](MachineConfig::is_uniform) machine — the format
/// describes 4-class machines only.
pub fn format(machine: &MachineConfig) -> String {
    assert!(
        !machine.is_uniform(),
        "the machine-description format covers 4-class machines only"
    );
    let mut out = String::new();
    out.push_str(&format!("machine {}\n", sanitize_name(machine.name())));
    for (class, name) in CLASSES {
        out.push_str(&format!("units {name} {}\n", machine.units(class)));
    }
    for kind in OpKind::ALL {
        out.push_str(&format!("latency {} {}\n", kind.name(), machine.latency(kind)));
    }
    for (class, name) in CLASSES {
        let flag = if machine.is_pipelined(class) { "on" } else { "off" };
        out.push_str(&format!("pipelined {name} {flag}\n"));
    }
    out
}

/// Replaces whitespace and `#` in a machine name so it survives a round
/// trip (whitespace would split the token, `#` would start a comment);
/// an empty name falls back to the parser's default.
fn sanitize_name(name: &str) -> String {
    let cleaned: String =
        name.chars().map(|c| if c.is_whitespace() || c == '#' { '_' } else { c }).collect();
    if cleaned.is_empty() {
        "custom".to_string()
    } else {
        cleaned
    }
}

/// [`parse`], with the source file name attached to any error.
///
/// # Errors
///
/// As [`parse`], with [`ParseError::file`] set to `file`.
pub fn parse_named(text: &str, file: impl Into<String>) -> Result<MachineConfig, ParseError> {
    parse(text).map_err(|e| e.with_file(file))
}

/// Parses a machine description into a [`MachineConfig`].
///
/// Starts from the [`MachineConfig::custom`] baseline (units 1/1/1/1,
/// adder and multiplier latency 4) and applies the directives in order;
/// later directives override earlier ones.
///
/// # Errors
///
/// [`ParseError`] on an unknown directive, class or op name, a malformed
/// or zero count/latency, or empty input.
pub fn parse(text: &str) -> Result<MachineConfig, ParseError> {
    let mut machine = MachineConfig::custom("custom", 1, 1, 1, 1, 4, 4);
    let mut saw_directive = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        saw_directive = true;
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("non-empty line");
        match keyword {
            "machine" => {
                let name = words
                    .next()
                    .ok_or_else(|| (line_no, "missing machine name".to_string()))?;
                machine = rename(machine, name);
            }
            "units" => {
                let (class, count) = class_and_number(line_no, &mut words, "unit count")?;
                machine.set_units(class, count);
            }
            "latency" => {
                let op_str =
                    words.next().ok_or_else(|| (line_no, "missing op kind".to_string()))?;
                let op = OpKind::parse(op_str)
                    .ok_or_else(|| (line_no, format!("unknown op kind '{op_str}'")))?;
                let lat = positive_number(line_no, words.next(), "latency")?;
                machine.set_latency(op, lat);
            }
            "pipelined" => {
                let class_str =
                    words.next().ok_or_else(|| (line_no, "missing class name".to_string()))?;
                let class = parse_class(class_str)
                    .ok_or_else(|| (line_no, format!("unknown class '{class_str}'")))?;
                let flag = match words.next() {
                    Some("on") => true,
                    Some("off") => false,
                    other => {
                        return Err((
                            line_no,
                            format!("expected 'on' or 'off', got '{}'", other.unwrap_or("")),
                        )
                            .into())
                    }
                };
                machine.set_pipelined(class, flag);
            }
            other => {
                return Err((line_no, format!("unknown directive '{other}'")).into());
            }
        }
        if let Some(extra) = words.next() {
            return Err((line_no, format!("trailing input '{extra}'")).into());
        }
    }
    if !saw_directive {
        return Err((0usize, "empty machine description".to_string()).into());
    }
    Ok(machine)
}

/// Rebuilds `machine` under a new name (the name is immutable on
/// [`MachineConfig`]; every other parameter is carried over).
fn rename(machine: MachineConfig, name: &str) -> MachineConfig {
    let mut renamed = MachineConfig::custom(
        name,
        machine.units(FuClass::Memory),
        machine.units(FuClass::Adder),
        machine.units(FuClass::Multiplier),
        machine.units(FuClass::DivSqrt),
        machine.latency(OpKind::Add),
        machine.latency(OpKind::Mul),
    );
    for kind in OpKind::ALL {
        renamed.set_latency(kind, machine.latency(kind));
    }
    for (class, _) in CLASSES {
        renamed.set_pipelined(class, machine.is_pipelined(class));
    }
    renamed
}

fn class_and_number<'a>(
    line_no: usize,
    words: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<(FuClass, u32), ParseError> {
    let class_str = words.next().ok_or_else(|| (line_no, "missing class name".to_string()))?;
    let class = parse_class(class_str)
        .ok_or_else(|| (line_no, format!("unknown class '{class_str}'")))?;
    let n = positive_number(line_no, words.next(), what)?;
    Ok((class, n))
}

fn positive_number(line_no: usize, word: Option<&str>, what: &str) -> Result<u32, ParseError> {
    let raw = word.ok_or_else(|| (line_no, format!("missing {what}")))?;
    match raw.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err((line_no, format!("{what} must be a positive integer, got '{raw}'")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machines_round_trip() {
        for m in MachineConfig::paper_configs() {
            let text = format(&m);
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed, m, "{} round-trips", m.name());
            // Canonical printing is a fixed point.
            assert_eq!(format(&parsed), text);
        }
    }

    #[test]
    fn defaults_mirror_custom_baseline() {
        let m = parse("machine m\n").unwrap();
        assert_eq!(m, MachineConfig::custom("m", 1, 1, 1, 1, 4, 4));
        assert!(!m.is_pipelined(FuClass::DivSqrt));
        assert_eq!(m.latency(OpKind::Sqrt), 30);
    }

    #[test]
    fn directives_override_in_order() {
        let m = parse(
            "machine big\nunits mem 4\nunits mem 3 # later wins\nlatency mul 7\n\
             pipelined mul off\npipelined divsqrt on\n",
        )
        .unwrap();
        assert_eq!(m.name(), "big");
        assert_eq!(m.units(FuClass::Memory), 3);
        assert_eq!(m.latency(OpKind::Mul), 7);
        assert!(!m.is_pipelined(FuClass::Multiplier));
        assert!(m.is_pipelined(FuClass::DivSqrt));
        assert_eq!(m.occupancy(OpKind::Mul), 7, "non-pipelined class occupies full latency");
        assert_eq!(m.occupancy(OpKind::Div), 1, "re-pipelined divider accepts every cycle");
    }

    #[test]
    fn comments_blank_lines_and_name_defaults() {
        let m = parse("\n# a header\nunits add 2 # trailing\n").unwrap();
        assert_eq!(m.name(), "custom");
        assert_eq!(m.units(FuClass::Adder), 2);
    }

    #[test]
    fn errors_name_line_and_problem() {
        for (text, line, needle) in [
            ("machine m\nunits foo 2\n", 2, "unknown class 'foo'"),
            ("units mem 0\n", 1, "positive integer"),
            ("units mem two\n", 1, "positive integer"),
            ("latency wibble 3\n", 1, "unknown op kind 'wibble'"),
            ("pipelined mem maybe\n", 1, "expected 'on' or 'off'"),
            ("frequency 3GHz\n", 1, "unknown directive 'frequency'"),
            ("units mem 2 extra\n", 1, "trailing input 'extra'"),
            ("machine\n", 1, "missing machine name"),
            ("latency add\n", 1, "missing latency"),
            ("", 0, "empty machine description"),
            ("# only comments\n", 0, "empty machine description"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}");
            assert!(err.message.contains(needle), "{text:?}: {err}");
        }
    }

    /// Regression: names containing `#` (comment starter) or whitespace,
    /// or empty names, used to break the format→parse round trip.
    #[test]
    fn hostile_names_still_round_trip() {
        for name in ["v2#fast", "two words", ""] {
            let m = MachineConfig::custom(name, 2, 2, 2, 2, 5, 5);
            let parsed = parse(&format(&m)).unwrap();
            assert_eq!(parsed.units(FuClass::Memory), 2, "{name:?}");
            assert_eq!(parsed.latency(OpKind::Add), 5, "{name:?}");
            assert!(!parsed.name().is_empty(), "{name:?}");
        }
        let m = MachineConfig::custom("v2#fast", 1, 1, 1, 1, 4, 4);
        assert_eq!(parse(&format(&m)).unwrap().name(), "v2_fast");
    }

    #[test]
    fn named_parse_renders_file_in_message() {
        let err = parse_named("units mem 0\n", "d/machine.mach").unwrap_err();
        assert_eq!(err.file.as_deref(), Some("d/machine.mach"));
        assert!(err.to_string().starts_with("d/machine.mach:1: "), "{err}");
    }

    #[test]
    #[should_panic(expected = "4-class machines only")]
    fn formatting_a_uniform_machine_panics() {
        let _ = format(&MachineConfig::uniform(4, 2));
    }
}
