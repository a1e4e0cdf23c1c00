//! The certificate format and its compact line-based wire encoding.
//!
//! A [`Certificate`] pairs a *claim* (the answer an untrusted producer
//! asserts) with *evidence* the trusted checker can replay:
//!
//! * **`Trace`** — Theorem 3.5's iteration trace for FO/FP/PFP queries: a
//!   flat event stream of `begin`/`step`/`conv`/`cycle` records per
//!   fixpoint, carrying only the per-round relation *deltas* (`l·n^k`
//!   tuples instead of the `n^{kl}` evaluation);
//! * **`Derivation`** — a Datalog derivation tree: one step per derived
//!   tuple naming the rule and the premise tuples of every body atom, plus
//!   the semi-naive round count as metadata;
//! * **`Witness`** — the existential witness relations of a satisfiable
//!   ESO sentence.
//!
//! The encoding is a stable, line-oriented text format (one token-separated
//! record per line) so certificates can be pinned in golden tests, diffed,
//! and carried over the server's line-JSON protocol as a single string
//! field. Encoding is canonical: claim rows, witness rows and step deltas
//! are sorted, so `parse(encode(c)) == c` and goldens are deterministic.

use std::fmt;

use bvq_relation::{Elem, Relation, Tuple};

/// Format version emitted in the header line.
pub const FORMAT_VERSION: u32 = 1;

/// Hard cap on the number of lines a certificate may decode from —
/// denial-of-service hygiene for certificates arriving off the wire.
pub const MAX_LINES: usize = 1 << 22;

/// The answer the producer claims; the checker validates the evidence and
/// then confirms the claim against its own replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Claim {
    /// A sentence's truth value.
    Boolean(bool),
    /// A query answer relation (rows sorted and deduplicated).
    Rows {
        /// The answer arity (`|output|`).
        arity: usize,
        /// The claimed tuples, sorted.
        rows: Vec<Tuple>,
    },
}

impl Claim {
    /// Builds a canonical (sorted, deduplicated) row claim.
    pub fn rows(arity: usize, mut rows: Vec<Tuple>) -> Claim {
        rows.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        rows.dedup();
        Claim::Rows { arity, rows }
    }

    /// Builds a row claim from a relation.
    pub fn from_relation(rel: &Relation) -> Claim {
        Claim::Rows {
            arity: rel.arity(),
            rows: rel.sorted(),
        }
    }
}

/// One record of a fixpoint iteration trace. `fix` identifies the
/// `Fix` operator by its pre-order index in the query formula — the
/// checker derives the same numbering independently, so the certificate
/// never names engine-internal identifiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FixEvent {
    /// Iteration of fixpoint `fix` (re)starts from its seed value
    /// (∅ for lfp/ifp/pfp, the full space for gfp).
    Begin {
        /// Pre-order fixpoint index.
        fix: usize,
    },
    /// One iteration round's delta: `add` joins the relation, `del`
    /// leaves it. Monotone traces use one side only; PFP rounds may use
    /// both.
    Step {
        /// Pre-order fixpoint index.
        fix: usize,
        /// Tuples added this round (sorted).
        add: Vec<Tuple>,
        /// Tuples removed this round (sorted).
        del: Vec<Tuple>,
    },
    /// The iteration reached a fixpoint; the current value is final.
    Converged {
        /// Pre-order fixpoint index.
        fix: usize,
    },
    /// The PFP iteration revisited the state it had after round
    /// `back_to` — a cycle, so the iteration diverges and the fixpoint
    /// denotes the empty relation (§2.2).
    Cycle {
        /// Pre-order fixpoint index.
        fix: usize,
        /// The earlier round whose state recurred (0 = the seed).
        back_to: usize,
    },
}

impl FixEvent {
    /// The fixpoint index the event belongs to.
    pub fn fix(&self) -> usize {
        match self {
            FixEvent::Begin { fix }
            | FixEvent::Step { fix, .. }
            | FixEvent::Converged { fix }
            | FixEvent::Cycle { fix, .. } => *fix,
        }
    }
}

/// One derived tuple of a Datalog derivation tree: the rule that produced
/// it and the premise tuple matched against each body atom, in body
/// order. Premises must be EDB tuples or tuples derived by *earlier*
/// steps, which is what makes the list a tree (pointers only go
/// backwards).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivStep {
    /// Index of the producing rule in the program.
    pub rule: usize,
    /// The derived head tuple.
    pub tuple: Tuple,
    /// One premise tuple per body atom, in body order.
    pub premises: Vec<Tuple>,
}

/// The evidence side of a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Evidence {
    /// Fixpoint iteration trace (FO queries have an empty event list —
    /// the claim replay is the entire check).
    Trace {
        /// The event stream, in emission order.
        events: Vec<FixEvent>,
    },
    /// Datalog derivation tree.
    Derivation {
        /// Semi-naive rounds the producer needed (completeness
        /// metadata; the checker's one-round saturation check is the
        /// binding evidence).
        rounds: u64,
        /// Derivation steps, in derivation order.
        steps: Vec<DerivStep>,
    },
    /// ESO existential witness: one relation per quantified symbol.
    Witness {
        /// `(name, relation)` pairs, sorted by name.
        rels: Vec<(String, Relation)>,
    },
}

/// A certificate: a claimed answer plus replayable evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The claimed answer.
    pub claim: Claim,
    /// The evidence the checker replays.
    pub evidence: Evidence,
}

impl Certificate {
    /// The kind tag used in the header line: `fp`, `datalog` or `eso`.
    pub fn kind(&self) -> &'static str {
        match self.evidence {
            Evidence::Trace { .. } => "fp",
            Evidence::Derivation { .. } => "datalog",
            Evidence::Witness { .. } => "eso",
        }
    }

    /// Serializes to the canonical text encoding.
    pub fn encode(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "bvqcert {} {}", FORMAT_VERSION, self.kind());
        match &self.claim {
            Claim::Boolean(b) => {
                let _ = writeln!(out, "claim bool {b}");
            }
            Claim::Rows { arity, rows } => {
                let _ = writeln!(out, "claim rows {arity} {}", rows.len());
                for r in rows {
                    out.push_str("row ");
                    push_tuple(&mut out, r);
                    out.push('\n');
                }
            }
        }
        match &self.evidence {
            Evidence::Trace { events } => {
                for e in events {
                    match e {
                        FixEvent::Begin { fix } => {
                            let _ = writeln!(out, "begin {fix}");
                        }
                        FixEvent::Step { fix, add, del } => {
                            let _ = write!(out, "step {fix}");
                            for t in add {
                                out.push_str(" +");
                                push_tuple(&mut out, t);
                            }
                            for t in del {
                                out.push_str(" -");
                                push_tuple(&mut out, t);
                            }
                            out.push('\n');
                        }
                        FixEvent::Converged { fix } => {
                            let _ = writeln!(out, "conv {fix}");
                        }
                        FixEvent::Cycle { fix, back_to } => {
                            let _ = writeln!(out, "cycle {fix} {back_to}");
                        }
                    }
                }
            }
            Evidence::Derivation { rounds, steps } => {
                let _ = writeln!(out, "rounds {rounds}");
                for s in steps {
                    out.push_str("step ");
                    push_number(&mut out, s.rule);
                    out.push(' ');
                    push_tuple(&mut out, &s.tuple);
                    out.push_str(" :");
                    for p in &s.premises {
                        out.push(' ');
                        push_tuple(&mut out, p);
                    }
                    out.push('\n');
                }
            }
            Evidence::Witness { rels } => {
                for (name, rel) in rels {
                    let _ = writeln!(out, "witness {name} {} {}", rel.arity(), rel.len());
                    for t in rel.sorted() {
                        out.push_str("row ");
                        push_tuple(&mut out, &t);
                        out.push('\n');
                    }
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses the text encoding produced by [`Certificate::encode`].
    pub fn parse(text: &str) -> Result<Certificate, ParseError> {
        Parser::new(text).parse()
    }
}

/// A parse failure: the offending 1-based line and a reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Appends a tuple in its wire form `e1,e2,…` (`()` at arity 0).
fn push_tuple(out: &mut String, t: &Tuple) {
    let Some((first, rest)) = t.as_slice().split_first() else {
        out.push_str("()");
        return;
    };
    push_number(out, *first as usize);
    for e in rest {
        out.push(',');
        push_number(out, *e as usize);
    }
}

/// Appends `n` in decimal, skipping the formatting machinery a `{}`
/// argument goes through: certificates hold thousands of tuples.
fn push_number(out: &mut String, mut n: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits"));
}

fn parse_tuple(s: &str) -> Result<Tuple, String> {
    if s == "()" {
        return Ok(Tuple::unit());
    }
    let parse = |part: &str| parse_elem(part).ok_or_else(|| format!("bad tuple element `{part}`"));
    // Most tuples fit inline: fill a stack buffer, not a fresh Vec.
    let mut inline = [0; Tuple::INLINE];
    let mut len = 0;
    for part in s.split(',') {
        if len == Tuple::INLINE {
            let elems = s.split(',').map(parse).collect::<Result<Vec<_>, _>>()?;
            return Ok(Tuple::from_slice(&elems));
        }
        inline[len] = parse(part)?;
        len += 1;
    }
    Ok(Tuple::from_slice(&inline[..len]))
}

/// An element as `str::parse::<Elem>` reads it (an optional `+`, then
/// decimal digits, no overflow), without its generic machinery: a
/// certificate carries one per tuple position, tens of thousands of them.
fn parse_elem(s: &str) -> Option<Elem> {
    let digits = s.strip_prefix('+').unwrap_or(s);
    if digits.is_empty() {
        return None;
    }
    digits.bytes().try_fold(0 as Elem, |acc, b| {
        let d = b.checked_sub(b'0').filter(|d| *d < 10)?;
        acc.checked_mul(10)?.checked_add(Elem::from(d))
    })
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().enumerate(),
            line: 0,
        }
    }

    fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            reason: reason.into(),
        }
    }

    fn next_line(&mut self) -> Result<&'a str, ParseError> {
        match self.lines.next() {
            Some((i, l)) => {
                self.line = i + 1;
                if self.line > MAX_LINES {
                    return Err(self.err("certificate exceeds the line cap"));
                }
                Ok(l.trim_end())
            }
            None => {
                self.line += 1;
                Err(self.err("unexpected end of certificate (missing `end`)"))
            }
        }
    }

    fn parse_usize(&self, s: &str, what: &str) -> Result<usize, ParseError> {
        s.parse::<usize>()
            .map_err(|_| self.err(format!("bad {what} `{s}`")))
    }

    fn parse(mut self) -> Result<Certificate, ParseError> {
        let header = self.next_line()?;
        let mut h = header.split_whitespace();
        if h.next() != Some("bvqcert") {
            return Err(self.err("missing `bvqcert` header"));
        }
        let version = h.next().ok_or_else(|| self.err("missing version"))?;
        if version != FORMAT_VERSION.to_string() {
            return Err(self.err(format!("unsupported version `{version}`")));
        }
        let kind = h
            .next()
            .ok_or_else(|| self.err("missing kind"))?
            .to_string();
        if h.next().is_some() {
            return Err(self.err("trailing tokens after header"));
        }
        let claim = self.parse_claim()?;
        let evidence = match kind.as_str() {
            "fp" => self.parse_trace()?,
            "datalog" => self.parse_derivation()?,
            "eso" => self.parse_witness()?,
            other => return Err(self.err(format!("unknown certificate kind `{other}`"))),
        };
        if self.lines.next().is_some() {
            self.line += 1;
            return Err(self.err("trailing lines after `end`"));
        }
        Ok(Certificate { claim, evidence })
    }

    fn parse_claim(&mut self) -> Result<Claim, ParseError> {
        let line = self.next_line()?;
        let mut it = line.split_whitespace();
        if it.next() != Some("claim") {
            return Err(self.err("expected `claim` line"));
        }
        match it.next() {
            Some("bool") => {
                let v = match it.next() {
                    Some("true") => true,
                    Some("false") => false,
                    other => return Err(self.err(format!("bad boolean claim `{other:?}`"))),
                };
                Ok(Claim::Boolean(v))
            }
            Some("rows") => {
                let arity =
                    self.parse_usize(it.next().ok_or_else(|| self.err("missing arity"))?, "arity")?;
                let count =
                    self.parse_usize(it.next().ok_or_else(|| self.err("missing count"))?, "count")?;
                if count > MAX_LINES {
                    return Err(self.err("row count exceeds the line cap"));
                }
                let mut rows = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let l = self.next_line()?;
                    let rest = l
                        .strip_prefix("row ")
                        .or(if l == "row" { Some("()") } else { None })
                        .ok_or_else(|| self.err("expected `row` line"))?;
                    let t = parse_tuple(rest.trim()).map_err(|e| self.err(e))?;
                    if t.arity() != arity {
                        return Err(self.err(format!(
                            "row arity {} does not match claim arity {arity}",
                            t.arity()
                        )));
                    }
                    rows.push(t);
                }
                Ok(Claim::Rows { arity, rows })
            }
            other => Err(self.err(format!("bad claim form `{other:?}`"))),
        }
    }

    fn parse_trace(&mut self) -> Result<Evidence, ParseError> {
        let mut events = Vec::new();
        loop {
            let line = self.next_line()?;
            let mut it = line.split_whitespace();
            match it.next() {
                Some("end") => break,
                Some("begin") => {
                    let fix =
                        self.parse_usize(it.next().ok_or_else(|| self.err("missing fix"))?, "fix")?;
                    events.push(FixEvent::Begin { fix });
                }
                Some("conv") => {
                    let fix =
                        self.parse_usize(it.next().ok_or_else(|| self.err("missing fix"))?, "fix")?;
                    events.push(FixEvent::Converged { fix });
                }
                Some("cycle") => {
                    let fix =
                        self.parse_usize(it.next().ok_or_else(|| self.err("missing fix"))?, "fix")?;
                    let back_to = self.parse_usize(
                        it.next().ok_or_else(|| self.err("missing round"))?,
                        "round",
                    )?;
                    events.push(FixEvent::Cycle { fix, back_to });
                }
                Some("step") => {
                    let fix =
                        self.parse_usize(it.next().ok_or_else(|| self.err("missing fix"))?, "fix")?;
                    let mut add = Vec::new();
                    let mut del = Vec::new();
                    for tok in it {
                        if let Some(rest) = tok.strip_prefix('+') {
                            add.push(parse_tuple(rest).map_err(|e| self.err(e))?);
                        } else if let Some(rest) = tok.strip_prefix('-') {
                            del.push(parse_tuple(rest).map_err(|e| self.err(e))?);
                        } else {
                            return Err(self.err(format!("bad delta token `{tok}`")));
                        }
                    }
                    events.push(FixEvent::Step { fix, add, del });
                }
                other => return Err(self.err(format!("bad trace record `{other:?}`"))),
            }
        }
        Ok(Evidence::Trace { events })
    }

    fn parse_derivation(&mut self) -> Result<Evidence, ParseError> {
        let line = self.next_line()?;
        let mut it = line.split_whitespace();
        if it.next() != Some("rounds") {
            return Err(self.err("expected `rounds` line"));
        }
        let rounds = it
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| self.err("bad round count"))?;
        let mut steps = Vec::new();
        loop {
            let line = self.next_line()?;
            if line == "end" {
                break;
            }
            let mut it = line.split_whitespace();
            if it.next() != Some("step") {
                return Err(self.err("expected `step` or `end`"));
            }
            let rule =
                self.parse_usize(it.next().ok_or_else(|| self.err("missing rule"))?, "rule")?;
            let tuple = parse_tuple(it.next().ok_or_else(|| self.err("missing head tuple"))?)
                .map_err(|e| self.err(e))?;
            if it.next() != Some(":") {
                return Err(self.err("expected `:` before premises"));
            }
            let mut premises = Vec::new();
            for tok in it {
                premises.push(parse_tuple(tok).map_err(|e| self.err(e))?);
            }
            steps.push(DerivStep {
                rule,
                tuple,
                premises,
            });
        }
        Ok(Evidence::Derivation { rounds, steps })
    }

    fn parse_witness(&mut self) -> Result<Evidence, ParseError> {
        let mut rels = Vec::new();
        loop {
            let line = self.next_line()?;
            if line == "end" {
                break;
            }
            let mut it = line.split_whitespace();
            if it.next() != Some("witness") {
                return Err(self.err("expected `witness` or `end`"));
            }
            let name = it
                .next()
                .ok_or_else(|| self.err("missing witness name"))?
                .to_string();
            let arity =
                self.parse_usize(it.next().ok_or_else(|| self.err("missing arity"))?, "arity")?;
            let count =
                self.parse_usize(it.next().ok_or_else(|| self.err("missing count"))?, "count")?;
            if count > MAX_LINES {
                return Err(self.err("row count exceeds the line cap"));
            }
            let mut rel = Relation::new(arity);
            for _ in 0..count {
                let l = self.next_line()?;
                let rest = l
                    .strip_prefix("row ")
                    .or(if l == "row" { Some("()") } else { None })
                    .ok_or_else(|| self.err("expected `row` line"))?;
                let t = parse_tuple(rest.trim()).map_err(|e| self.err(e))?;
                if t.arity() != arity {
                    return Err(self.err(format!(
                        "witness row arity {} does not match {arity}",
                        t.arity()
                    )));
                }
                rel.insert(t);
            }
            rels.push((name, rel));
        }
        Ok(Evidence::Witness { rels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(elems: &[Elem]) -> Tuple {
        Tuple::from_slice(elems)
    }

    #[test]
    fn elements_parse_as_str_parse_does() {
        for s in [
            "0",
            "7",
            "+7",
            "007",
            "4294967295",
            "4294967296",
            "",
            "+",
            "-1",
            "-0",
            " 1",
            "1 ",
            "1a",
            "++1",
            "99999999999",
        ] {
            assert_eq!(parse_elem(s), s.parse::<Elem>().ok(), "`{s}`");
        }
    }

    #[test]
    fn trace_round_trips() {
        let cert = Certificate {
            claim: Claim::rows(1, vec![t(&[2]), t(&[0]), t(&[1])]),
            evidence: Evidence::Trace {
                events: vec![
                    FixEvent::Begin { fix: 0 },
                    FixEvent::Step {
                        fix: 0,
                        add: vec![t(&[0])],
                        del: vec![],
                    },
                    FixEvent::Step {
                        fix: 0,
                        add: vec![t(&[1]), t(&[2])],
                        del: vec![t(&[0])],
                    },
                    FixEvent::Cycle { fix: 0, back_to: 1 },
                ],
            },
        };
        let text = cert.encode();
        assert!(text.starts_with("bvqcert 1 fp\nclaim rows 1 3\nrow 0\n"));
        assert!(text.ends_with("end\n"));
        assert_eq!(Certificate::parse(&text).unwrap(), cert);
    }

    #[test]
    fn derivation_round_trips() {
        let cert = Certificate {
            claim: Claim::rows(2, vec![t(&[0, 1])]),
            evidence: Evidence::Derivation {
                rounds: 3,
                steps: vec![DerivStep {
                    rule: 1,
                    tuple: t(&[0, 1]),
                    premises: vec![t(&[0, 2]), t(&[2, 1])],
                }],
            },
        };
        let text = cert.encode();
        assert!(text.contains("step 1 0,1 : 0,2 2,1\n"));
        assert_eq!(Certificate::parse(&text).unwrap(), cert);
    }

    #[test]
    fn witness_round_trips_including_nullary() {
        let mut prop = Relation::new(0);
        prop.insert(Tuple::unit());
        let cert = Certificate {
            claim: Claim::Boolean(true),
            evidence: Evidence::Witness {
                rels: vec![
                    ("C1".to_string(), Relation::from_tuples(1, [[0u32], [2]])),
                    ("P".to_string(), prop),
                ],
            },
        };
        let text = cert.encode();
        assert!(text.contains("witness P 0 1\nrow ()\n"));
        assert_eq!(Certificate::parse(&text).unwrap(), cert);
    }

    #[test]
    fn malformed_inputs_are_structured_errors() {
        for (text, needle) in [
            ("", "end of certificate"),
            ("bvqzert 1 fp\nclaim bool true\nend\n", "header"),
            ("bvqcert 9 fp\nclaim bool true\nend\n", "version"),
            ("bvqcert 1 zap\nclaim bool true\nend\n", "kind"),
            ("bvqcert 1 fp\nclaim rows 2 1\nrow 0\nend\n", "arity"),
            (
                "bvqcert 1 fp\nclaim rows 1 2\nrow 0\nend\n",
                "expected `row`",
            ),
            ("bvqcert 1 fp\nclaim bool true\nstep 0 *3\nend\n", "delta"),
            ("bvqcert 1 fp\nclaim bool true\n", "end of certificate"),
            ("bvqcert 1 fp\nclaim bool true\nend\nextra\n", "trailing"),
        ] {
            let err = Certificate::parse(text).unwrap_err();
            assert!(
                err.reason.contains(needle),
                "`{text}` → `{}` (wanted `{needle}`)",
                err.reason
            );
        }
    }
}
