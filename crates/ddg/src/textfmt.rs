//! A plain-text interchange format for dependence graphs.
//!
//! This module is the `.ddg` frontend: every loop that enters `regpipe`
//! from disk — single files via `regpipe compile`, whole corpus
//! directories via `regpipe suite --corpus` — goes through [`parse`].
//! The full grammar is specified in `docs/formats.md` (EBNF plus a worked
//! example); this doc comment and that spec are kept in agreement.
//!
//! One declaration per line; `#` starts a comment that runs to the end of
//! the line. The declarations are:
//!
//! ```text
//! loop fig2                  # loop name (optional; default "anonymous")
//! op Ld load                 # operation: name + kind
//! op mul1 mul
//! op add1 add
//! op St store
//! edge Ld -> mul1 reg 0      # dependence: source -> target kind distance
//! edge Ld -> add1 reg 3
//! edge mul1 -> add1 reg 0
//! edge add1 -> St reg 0
//! inv a uses mul1            # loop-invariant value and its consumers
//! nospill Ld                 # forbid spilling the value Ld defines
//! ```
//!
//! Op kinds are `load` (alias `ld`), `store` (alias `st`), `add`, `mul`,
//! `div`, `sqrt`, `copy`. Edge kinds are `reg`, `mem`, `ord`; the trailing
//! integer is the dependence distance in iterations (default 0); `reg!`
//! declares a bonded edge and `reg!+k` a bond staggered by `k` cycles.
//! Op names must be unique within a loop and must not contain whitespace.
//!
//! [`format()`](fn@format) renders a graph in the same syntax, and the two functions
//! round-trip — parse, print, parse again and the graphs agree:
//!
//! ```
//! use regpipe_ddg::textfmt::{format, parse};
//!
//! let text = "loop l\nop a load\nop b add\nop c store\n\
//!             edge a -> b reg 2\nedge b -> c reg 0\ninv k uses b\n";
//! let once = parse(text)?;
//! let again = parse(&format(&once))?;
//! assert_eq!(format(&once), format(&again));
//! assert_eq!(once.num_ops(), again.num_ops());
//! assert_eq!(once.max_distance(), again.max_distance());
//! # Ok::<(), regpipe_ddg::textfmt::ParseError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::edge::{Edge, EdgeKind};
use crate::graph::Ddg;
use crate::op::{OpId, OpKind};
use crate::validate::DdgError;

/// A parse failure, with the 1-based line number and (when the text came
/// from disk) the offending file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// The file being parsed, if known (set by [`parse_named`]). Corpus
    /// loaders must populate this so a bad file in a thousand-loop
    /// directory is actionable.
    pub file: Option<String>,
    /// Line where the problem was found (0 for whole-input problems such
    /// as validation failures).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// Attaches the source file name, making the rendered message
    /// `file:line: message` instead of `line N: message`.
    pub fn with_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.file {
            Some(file) => write!(f, "{}:{}: {}", file, self.line, self.message),
            None => write!(f, "line {}: {}", self.line, self.message),
        }
    }
}

impl Error for ParseError {}

impl From<(usize, String)> for ParseError {
    fn from((line, message): (usize, String)) -> Self {
        ParseError { file: None, line, message }
    }
}

/// Renders `ddg` in the text format; [`parse`] round-trips it.
pub fn format(ddg: &Ddg) -> String {
    // About one short line per op and edge; one allocation for typical
    // kernels.
    let mut out = String::with_capacity(32 * (2 + ddg.num_ops() + ddg.num_edges()));
    write_canonical(ddg, &mut out);
    out
}

/// Where [`write_canonical`] puts the text: a `String` ([`format()`]) or
/// the content hash's FNV-1a state, which then never builds the text.
pub(crate) trait TextSink {
    fn put(&mut self, s: &str);
}

impl TextSink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// Writes the canonical text of `ddg` piece by piece: the one definition
/// of the bytes [`format()`] returns and [`crate::content_hash`] hashes.
pub(crate) fn write_canonical(ddg: &Ddg, out: &mut impl TextSink) {
    out.put("loop ");
    put_name(out, ddg.name());
    out.put("\n");
    for (_, node) in ddg.ops() {
        out.put("op ");
        put_name(out, node.name());
        out.put(" ");
        out.put(node.kind().name());
        out.put("\n");
    }
    for e in ddg.edges() {
        out.put("edge ");
        put_name(out, ddg.op(e.from()).name());
        out.put(" -> ");
        put_name(out, ddg.op(e.to()).name());
        match (e.kind(), e.is_fixed(), e.stagger()) {
            (EdgeKind::RegFlow, true, 0) => out.put(" reg! "),
            (EdgeKind::RegFlow, true, s) => {
                out.put(" reg!+");
                put_u32(out, s);
                out.put(" ");
            }
            (EdgeKind::RegFlow, false, _) => out.put(" reg "),
            (EdgeKind::Mem, _, _) => out.put(" mem "),
            (EdgeKind::Order, _, _) => out.put(" ord "),
        }
        put_u32(out, e.distance());
        out.put("\n");
    }
    for (_, inv) in ddg.invariants() {
        out.put("inv ");
        put_name(out, inv.name());
        out.put(" uses");
        for u in inv.uses() {
            out.put(" ");
            put_name(out, ddg.op(*u).name());
        }
        out.put("\n");
    }
    for id in ddg.op_ids() {
        if ddg.is_value_marked_non_spillable(id) {
            out.put("nospill ");
            put_name(out, ddg.op(id).name());
            out.put("\n");
        }
    }
}

/// Writes `n` in decimal.
fn put_u32(out: &mut impl TextSink, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// [`parse`], with the source file name attached to any error.
///
/// This is the entry point disk frontends (the CLI, the corpus loader)
/// must use: the rendered error then reads `file:line: message`, which is
/// what makes a bad file in a large corpus directory actionable.
///
/// # Errors
///
/// As [`parse`], with [`ParseError::file`] set to `file`.
pub fn parse_named(text: &str, file: impl Into<String>) -> Result<Ddg, ParseError> {
    parse(text).map_err(|e| e.with_file(file))
}

/// Parses the text format into a validated graph.
///
/// # Errors
///
/// [`ParseError`] on malformed input; the graph is also
/// [validated](Ddg::validate), with violations reported on line 0.
pub fn parse(text: &str) -> Result<Ddg, ParseError> {
    let mut name = String::from("anonymous");
    let mut ops: Vec<(String, OpKind)> = Vec::new();
    let mut by_name: HashMap<String, OpId> = HashMap::new();
    let mut g: Option<Ddg> = None;

    let ensure_graph = |g: &mut Option<Ddg>, name: &str| {
        if g.is_none() {
            *g = Some(Ddg::new(name));
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("non-empty line");
        match keyword {
            "loop" => {
                name = words
                    .next()
                    .ok_or_else(|| (line_no, "missing loop name".to_string()))?
                    .to_string();
                if let Some(g) = &mut g {
                    g.set_name(&name);
                } else {
                    g = Some(Ddg::new(&name));
                }
            }
            "op" => {
                ensure_graph(&mut g, &name);
                let op_name =
                    words.next().ok_or_else(|| (line_no, "missing op name".to_string()))?;
                let kind_str =
                    words.next().ok_or_else(|| (line_no, "missing op kind".to_string()))?;
                let kind = OpKind::parse(kind_str)
                    .ok_or_else(|| (line_no, format!("unknown op kind '{kind_str}'")))?;
                if by_name.contains_key(op_name) {
                    return Err((line_no, format!("duplicate op '{op_name}'")).into());
                }
                let id = g.as_mut().expect("ensured").add_op(kind, op_name);
                by_name.insert(op_name.to_string(), id);
                ops.push((op_name.to_string(), kind));
            }
            "edge" => {
                let g =
                    g.as_mut().ok_or_else(|| (line_no, "edge before any op".to_string()))?;
                let from =
                    words.next().ok_or_else(|| (line_no, "missing edge source".to_string()))?;
                let arrow = words.next();
                if arrow != Some("->") {
                    return Err((line_no, "expected '->'".to_string()).into());
                }
                let to =
                    words.next().ok_or_else(|| (line_no, "missing edge target".to_string()))?;
                let kind_str = words.next().unwrap_or("reg");
                let distance: u32 = match words.next() {
                    Some(d) => {
                        d.parse().map_err(|_| (line_no, format!("bad distance '{d}'")))?
                    }
                    None => 0,
                };
                let &f = by_name
                    .get(from)
                    .ok_or_else(|| (line_no, format!("unknown op '{from}'")))?;
                let &t =
                    by_name.get(to).ok_or_else(|| (line_no, format!("unknown op '{to}'")))?;
                let edge = if let Some(stagger) = kind_str.strip_prefix("reg!+") {
                    let s: u32 = stagger
                        .parse()
                        .map_err(|_| (line_no, format!("bad stagger '{stagger}'")))?;
                    Edge::fixed_staggered(f, t, s)
                } else if kind_str == "reg!" {
                    Edge::fixed(f, t)
                } else {
                    let kind = match kind_str {
                        "reg" => EdgeKind::RegFlow,
                        "mem" => EdgeKind::Mem,
                        "ord" => EdgeKind::Order,
                        other => {
                            return Err((line_no, format!("unknown edge kind '{other}'")).into())
                        }
                    };
                    Edge::new(f, t, kind, distance)
                };
                g.add_edge(edge);
            }
            "inv" => {
                let g = g.as_mut().ok_or_else(|| (line_no, "inv before any op".to_string()))?;
                let inv_name = words
                    .next()
                    .ok_or_else(|| (line_no, "missing invariant name".to_string()))?;
                if words.next() != Some("uses") {
                    return Err((line_no, "expected 'uses'".to_string()).into());
                }
                let mut uses = Vec::new();
                for u in words {
                    let &id =
                        by_name.get(u).ok_or_else(|| (line_no, format!("unknown op '{u}'")))?;
                    uses.push(id);
                }
                g.add_invariant(inv_name, &uses);
            }
            "nospill" => {
                let g =
                    g.as_mut().ok_or_else(|| (line_no, "nospill before any op".to_string()))?;
                let op_name =
                    words.next().ok_or_else(|| (line_no, "missing op name".to_string()))?;
                let &id = by_name
                    .get(op_name)
                    .ok_or_else(|| (line_no, format!("unknown op '{op_name}'")))?;
                g.mark_value_non_spillable(id);
            }
            other => {
                return Err((line_no, format!("unknown keyword '{other}'")).into());
            }
        }
    }
    let g = g.ok_or_else(|| (0usize, "empty input".to_string()))?;
    g.validate().map_err(|e: DdgError| ParseError {
        file: None,
        line: 0,
        message: e.to_string(),
    })?;
    Ok(g)
}

/// Writes a name so that it survives a round trip: whitespace and `#`
/// become `_` (whitespace would split the token, `#` would start a
/// comment), and an empty name becomes `_` so declarations keep their
/// arity. A clean name is written as one piece.
fn put_name(out: &mut impl TextSink, name: &str) {
    if name.is_empty() {
        return out.put("_");
    }
    let mut rest = name;
    while let Some((i, c)) = rest.char_indices().find(|&(_, c)| c.is_whitespace() || c == '#') {
        out.put(&rest[..i]);
        out.put("_");
        rest = &rest[i + c.len_utf8()..];
    }
    out.put(rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;

    const FIG2: &str = "
# the paper's example
loop fig2
op Ld load
op mul1 mul
op add1 add
op St store
edge Ld -> mul1 reg 0
edge Ld -> add1 reg 3
edge mul1 -> add1 reg
edge add1 -> St reg 0
inv a uses mul1
";

    #[test]
    fn parses_the_example() {
        let g = parse(FIG2).unwrap();
        assert_eq!(g.name(), "fig2");
        assert_eq!(g.num_ops(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_invariants(), 1);
        assert_eq!(g.max_distance(), 3);
    }

    #[test]
    fn round_trips() {
        let g = parse(FIG2).unwrap();
        let text = format(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g2.num_ops(), g.num_ops());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.num_invariants(), g.num_invariants());
        let e1: Vec<_> =
            g.edges().map(|e| (e.from(), e.to(), e.kind(), e.distance())).collect();
        let e2: Vec<_> =
            g2.edges().map(|e| (e.from(), e.to(), e.kind(), e.distance())).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn bonds_and_staggers_round_trip() {
        let mut b = DdgBuilder::new("bonds");
        let l1 = b.add_op(OpKind::Load, "l1");
        let l2 = b.add_op(OpKind::Load, "l2");
        let c = b.add_op(OpKind::Add, "c");
        b.bond(l1, c);
        b.bond_staggered(l2, c, 2);
        b.mem(c, l1, 1); // just to exercise mem edges (add -> load is fine)
        let g = b.build().unwrap();
        let g2 = parse(&format(&g)).unwrap();
        let fixed: Vec<_> = g2.edges().filter(|e| e.is_fixed()).map(|e| e.stagger()).collect();
        assert_eq!(fixed, vec![0, 2]);
    }

    #[test]
    fn nospill_round_trips() {
        let mut b = DdgBuilder::new("ns");
        let l = b.add_op(OpKind::Load, "l");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(l, s);
        let mut g = b.build().unwrap();
        g.mark_value_non_spillable(l);
        let g2 = parse(&format(&g)).unwrap();
        assert!(g2.is_value_marked_non_spillable(OpId::new(0)));
    }

    /// Regression: errors from disk-backed parses used to render only a
    /// line number ("line 3: ..."), leaving the user to guess which of a
    /// corpus directory's files was broken. [`parse_named`] must stamp the
    /// file onto the error and the rendered message must lead with it.
    #[test]
    fn errors_from_named_parses_render_the_file_path() {
        let err =
            parse_named("loop x\nop a add\nedge a -> b reg 0\n", "corpus/bad.ddg").unwrap_err();
        assert_eq!(err.file.as_deref(), Some("corpus/bad.ddg"));
        assert_eq!(err.line, 3);
        assert_eq!(err.to_string(), "corpus/bad.ddg:3: unknown op 'b'");
        // Validation failures (line 0) also carry the file.
        let err = parse_named("", "empty.ddg").unwrap_err();
        assert_eq!(err.to_string(), "empty.ddg:0: empty input");
        // A successful named parse is just a parse.
        assert!(parse_named("loop x\nop a add\n", "ok.ddg").is_ok());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("loop x\nop a add\nedge a -> b reg 0\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown op 'b'"));
        assert_eq!(err.file, None);
        assert_eq!(err.to_string(), "line 3: unknown op 'b'");

        let err = parse("loop x\nop a wibble\n").unwrap_err();
        assert_eq!(err.line, 2);

        let err = parse("loop x\nop a add\nop a add\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn validation_failures_are_reported() {
        // A zero-distance cycle parses but fails validation.
        let err = parse("loop x\nop a add\nop b add\nedge a -> b reg 0\nedge b -> a reg 0\n")
            .unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let g = parse("\n# hi\nloop l # trailing\nop a add # yes\n").unwrap();
        assert_eq!(g.num_ops(), 1);
    }

    /// Regression: a `#` inside an op or loop name used to truncate the
    /// rendered line at the comment marker, breaking the round trip.
    #[test]
    fn names_with_comment_markers_are_sanitized() {
        let mut b = DdgBuilder::new("l#1");
        let a = b.add_op(OpKind::Load, "ld#x");
        let s = b.add_op(OpKind::Store, "st");
        b.reg(a, s);
        let g2 = parse(&format(&b.build().unwrap())).unwrap();
        assert_eq!(g2.name(), "l_1");
        assert_eq!(g2.op(OpId::new(0)).name(), "ld_x");
        assert_eq!(g2.num_edges(), 1);
    }

    #[test]
    fn names_with_spaces_are_sanitized() {
        let mut b = DdgBuilder::new("my loop");
        b.add_op(OpKind::Load, "ld x[i]");
        let g = b.build().unwrap();
        let g2 = parse(&format(&g)).unwrap();
        assert_eq!(g2.name(), "my_loop");
        assert_eq!(g2.op(OpId::new(0)).name(), "ld_x[i]");
    }
}
