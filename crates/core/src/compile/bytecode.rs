//! The register bytecode: ISA, lowering from the compiled IR, and the
//! human-readable listing shown by `explain`.
//!
//! A program is lowered to straight-line blocks of ops over an infinite
//! register file of cylinders (subsets of `D^k`, ≤ `k`-ary by
//! construction — the paper's bound made structural, again). Three block
//! kinds exist:
//!
//! * the **prelude**, run once per evaluation — holds globally CSE'd atom
//!   / equality loads and, in the optimized variant, every maximal *pure*
//!   subformula hoisted out of fixpoint bodies (pure = mentions no
//!   recursion variable), so loop-invariant work is paid once instead of
//!   once per round;
//! * the **entry** block — the top-level formula;
//! * one **body** block per fixpoint operator, re-run every round by the
//!   loop opcodes.
//!
//! Binary connectives are in-place on their destination register; the
//! `φ ∧ ¬ψ` shape fuses to a one-pass [`Op::AndNot`]
//! ([`CylinderOps::and_not_with`](bvq_relation::CylinderOps::and_not_with)).
//! Registers written by a block are dropped eagerly after their last use,
//! so peak memory stays close to the interpreter's recursion depth.

use std::collections::HashMap;
use std::sync::Arc;

use bvq_logic::{FixKind, Term};
use bvq_relation::{CoordSource, Database, Elem, RelId};

use crate::delta::Seminaive;
use crate::fp::fix_read_map;
use crate::ir::{AtomSource, Node, NodeRef, Program};
use crate::EvalError;

/// A register index (a slot holding one cylinder).
pub(crate) type Reg = u32;

/// Which lowering pipeline produced a [`Bytecode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Direct transliteration of the IR: no CSE, no hoisting, no fusion.
    Basic,
    /// CSE'd loads, loop-invariant hoisting, fused `AndNot`.
    Optimized,
}

impl Variant {
    /// The label used in listings and explain output.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Basic => "basic",
            Variant::Optimized => "optimized",
        }
    }
}

/// One bytecode instruction.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// `dst ← ∅` or `dst ← D^k`.
    LoadConst { dst: Reg, full: bool },
    /// `dst ← atom` (a database relation filtered/projected per the
    /// argument terms — slot into [`Bytecode::atoms`]).
    LoadAtom { dst: Reg, slot: u32 },
    /// `dst ← {ā : ā[i] = ā[j]}`.
    LoadEq { dst: Reg, i: u32, j: u32 },
    /// `dst ← {ā : ā[i] = c}`.
    LoadConstEq { dst: Reg, i: u32, c: Elem },
    /// `dst ← src` (copy-on-mutate of a pinned register).
    Copy { dst: Reg, src: Reg },
    /// `dst ← ¬dst` (in place).
    Not { dst: Reg },
    /// `dst ← dst ∧ src` (in place).
    And { dst: Reg, src: Reg },
    /// `dst ← dst ∖ src` — fused `dst ∧ ¬src`, one pass.
    AndNot { dst: Reg, src: Reg },
    /// `dst ← dst ∨ src` (in place).
    Or { dst: Reg, src: Reg },
    /// `dst ← ∃ coord. src`.
    Exists { dst: Reg, src: Reg, coord: u32 },
    /// `dst ← ∀ coord. src`.
    Forall { dst: Reg, src: Reg, coord: u32 },
    /// `dst ← fix_values[fix].preimage(maps[map])` — read a recursion
    /// variable through its argument terms.
    ReadFix { dst: Reg, fix: u32, map: u32 },
    /// Run the fixpoint loop for `fix` and store its applied value.
    Fix { dst: Reg, fix: u32 },
    /// Release a dead register (memory hygiene; no semantic effect).
    Drop { reg: Reg },
}

/// A pre-resolved database atom load: relation id plus argument terms
/// (constants are selected out at load time, exactly as the interpreter's
/// `load_atom`).
#[derive(Clone, Debug)]
pub(crate) struct AtomSpec {
    pub rel: RelId,
    pub args: Vec<Term>,
    /// Rendered form for the listing, e.g. `E(x1, x2)`.
    pub display: String,
}

/// The compiled loop for one fixpoint operator.
#[derive(Clone, Debug)]
pub(crate) struct FixCode {
    pub kind: FixKind,
    /// Run once per loop entry, before the first round: reads of
    /// *enclosing* recursion variables, which cannot move while this
    /// loop iterates (their own loops only advance between invocations
    /// of this one). The optimized variant hoists them here so the
    /// preimage gather is paid once per invocation, not once per round.
    pub setup: Vec<Op>,
    /// The body block, re-run every round.
    pub body: Vec<Op>,
    /// The register the body leaves its value in.
    pub out: Reg,
    /// Slot of the coordinate map applying the fixpoint through its
    /// argument terms.
    pub apply_map: u32,
    /// Fixpoints to reset when this one's value moves (Emerson–Lei).
    pub toplevel_opposite: Vec<u32>,
    /// Surface name of the recursion variable (listings).
    pub name: String,
    /// Bound coordinates, in binder order (certificate trace steps).
    pub bound: Vec<usize>,
    /// The IR's seminaive round plan, when the fixpoint is eligible.
    pub seminaive: Option<Arc<Seminaive>>,
}

/// A lowered program: blocks, registers, and the interned side tables.
#[derive(Clone, Debug)]
pub(crate) struct Bytecode {
    pub variant: Variant,
    /// Run once per evaluation: CSE'd loads and hoisted pure subtrees.
    pub prelude: Vec<Op>,
    /// The top-level block.
    pub entry: Vec<Op>,
    /// Register holding the final value after `entry`.
    pub result: Reg,
    /// Total register-file size.
    pub nregs: usize,
    pub atoms: Vec<AtomSpec>,
    pub maps: Vec<Vec<CoordSource>>,
    /// Parallel to `Program::fixes`.
    pub fixes: Vec<FixCode>,
}

impl Bytecode {
    /// Ops across all blocks (listing header, cost accounting).
    pub fn op_count(&self) -> usize {
        self.prelude.len()
            + self.entry.len()
            + self
                .fixes
                .iter()
                .map(|f| f.setup.len() + f.body.len())
                .sum::<usize>()
    }
}

/// A lowered value: the register it lives in, and whether the current
/// lowering owns it (owned registers may be mutated in place; pinned ones
/// must be copied first).
#[derive(Clone, Copy)]
struct Val {
    reg: Reg,
    owned: bool,
}

struct Lowerer<'a> {
    prog: &'a Program,
    db: &'a Database,
    k: usize,
    variant: Variant,
    /// Per-node purity: no recursion-variable reads, no fixpoints below.
    pure: Vec<bool>,
    /// Per-node canonical structural key (CSE).
    keys: Vec<String>,
    buf: Vec<Op>,
    prelude: Vec<Op>,
    atoms: Vec<AtomSpec>,
    atom_keys: HashMap<String, u32>,
    maps: Vec<Vec<CoordSource>>,
    fixes: Vec<Option<FixCode>>,
    /// Per-fixpoint setup blocks under construction (loop-invariant
    /// recursion-variable reads land here in the optimized variant).
    fix_setups: Vec<Vec<Op>>,
    /// Fixpoints currently being lowered, innermost last.
    fix_stack: Vec<usize>,
    /// `(fix, node key)` → register pinned in that fixpoint's setup.
    setup_pinned: HashMap<(usize, String), Reg>,
    /// Structural key → pinned register (CSE'd loads, hoisted subtrees).
    pinned: HashMap<String, Reg>,
    nregs: Reg,
    /// Fixpoint-nesting depth during lowering.
    depth: usize,
    /// Whether the current emission target is the prelude.
    to_prelude: bool,
}

/// Lowers a compiled program to bytecode.
pub(crate) fn lower(
    prog: &Program,
    db: &Database,
    k: usize,
    variant: Variant,
) -> Result<Bytecode, EvalError> {
    let (pure, keys) = analyze(prog);
    let mut lw = Lowerer {
        prog,
        db,
        k,
        variant,
        pure,
        keys,
        buf: Vec::new(),
        prelude: Vec::new(),
        atoms: Vec::new(),
        atom_keys: HashMap::new(),
        maps: Vec::new(),
        fixes: vec![None; prog.fixes.len()],
        fix_setups: vec![Vec::new(); prog.fixes.len()],
        fix_stack: Vec::new(),
        setup_pinned: HashMap::new(),
        pinned: HashMap::new(),
        nregs: 0,
        depth: 0,
        to_prelude: false,
    };
    let root = lw.lower(prog.root)?;
    let mut entry = std::mem::take(&mut lw.buf);
    insert_drops(&mut entry, root.reg);
    let mut bc = Bytecode {
        variant,
        prelude: std::mem::take(&mut lw.prelude),
        entry,
        result: root.reg,
        nregs: lw.nregs as usize,
        atoms: std::mem::take(&mut lw.atoms),
        maps: std::mem::take(&mut lw.maps),
        fixes: lw
            .fixes
            .into_iter()
            .map(|f| f.expect("every fixpoint reachable from the root is lowered"))
            .collect(),
    };
    for fc in &mut bc.fixes {
        insert_drops(&mut fc.body, fc.out);
    }
    Ok(bc)
}

/// Forward pass over the arena (children precede parents) computing
/// purity and canonical structural keys for CSE.
fn analyze(prog: &Program) -> (Vec<bool>, Vec<String>) {
    let n = prog.nodes.len();
    let mut pure = vec![false; n];
    let mut keys = vec![String::new(); n];
    let term = |t: &Term| match t {
        Term::Var(v) => format!("v{}", v.index()),
        Term::Const(c) => format!("k{c}"),
    };
    for i in 0..n {
        let (p, key) = match &prog.nodes[i] {
            Node::Const(b) => (true, format!("c{b}")),
            Node::Eq(a, b) => {
                let (ka, kb) = (term(a), term(b));
                // Equality is symmetric: canonicalize the order.
                let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
                (true, format!("eq:{lo}:{hi}"))
            }
            Node::Atom { source, args } => {
                let args: Vec<String> = args.iter().map(&term).collect();
                match source {
                    AtomSource::Db(id) => (true, format!("a{}:{}", id.0, args.join(","))),
                    AtomSource::External(s) => (true, format!("x{}:{}", s, args.join(","))),
                    AtomSource::Fix(f) => (false, format!("r{}:{}", f, args.join(","))),
                }
            }
            Node::Not(g) => (pure[*g as usize], format!("n({})", keys[*g as usize])),
            Node::And(a, b) | Node::Or(a, b) => {
                let (ka, kb) = (keys[*a as usize].clone(), keys[*b as usize].clone());
                // Commutative: canonicalize the order.
                let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
                let tag = if matches!(prog.nodes[i], Node::And(..)) {
                    "&"
                } else {
                    "|"
                };
                (
                    pure[*a as usize] && pure[*b as usize],
                    format!("{tag}({lo},{hi})"),
                )
            }
            Node::Exists(v, g) => (pure[*g as usize], format!("e{v}({})", keys[*g as usize])),
            Node::Forall(v, g) => (pure[*g as usize], format!("u{v}({})", keys[*g as usize])),
            Node::Fix { fix } => (false, format!("F{fix}")),
        };
        pure[i] = p;
        keys[i] = key;
    }
    (pure, keys)
}

impl<'a> Lowerer<'a> {
    fn fresh(&mut self) -> Reg {
        let r = self.nregs;
        self.nregs += 1;
        r
    }

    fn emit(&mut self, op: Op) {
        if self.to_prelude {
            self.prelude.push(op);
        } else {
            self.buf.push(op);
        }
    }

    /// Returns a register the caller may mutate in place.
    fn owned(&mut self, v: Val) -> Reg {
        if v.owned {
            v.reg
        } else {
            let dst = self.fresh();
            self.emit(Op::Copy { dst, src: v.reg });
            dst
        }
    }

    fn node(&self, r: NodeRef) -> &Node {
        &self.prog.nodes[r as usize]
    }

    fn lower(&mut self, node: NodeRef) -> Result<Val, EvalError> {
        // Optimized variant: pure leaves are always CSE'd into the
        // prelude; pure composites are hoisted there when they sit inside
        // a fixpoint body (loop-invariant code motion).
        if self.variant == Variant::Optimized && self.pure[node as usize] {
            let leaf = matches!(self.node(node), Node::Atom { .. } | Node::Eq(..));
            if leaf || (!self.to_prelude && self.depth > 0) {
                let reg = self.lower_pinned(node)?;
                return Ok(Val { reg, owned: false });
            }
        }
        self.lower_inline(node)
    }

    /// Lowers a pure subtree into the prelude, pinning (and CSE-keying)
    /// its result register.
    fn lower_pinned(&mut self, node: NodeRef) -> Result<Reg, EvalError> {
        let key = self.keys[node as usize].clone();
        if let Some(&reg) = self.pinned.get(&key) {
            return Ok(reg);
        }
        let was = self.to_prelude;
        self.to_prelude = true;
        let v = self.lower_inline(node)?;
        self.to_prelude = was;
        self.pinned.insert(key, v.reg);
        Ok(v.reg)
    }

    fn lower_inline(&mut self, node: NodeRef) -> Result<Val, EvalError> {
        // Inside the prelude, pure children still go through the CSE map.
        if self.to_prelude {
            if let Some(&reg) = self.pinned.get(&self.keys[node as usize]) {
                return Ok(Val { reg, owned: false });
            }
        }
        let n = self.db.domain_size();
        match self.node(node).clone() {
            Node::Const(b) => {
                let dst = self.fresh();
                self.emit(Op::LoadConst { dst, full: b });
                Ok(Val {
                    reg: dst,
                    owned: true,
                })
            }
            Node::Eq(a, b) => {
                let dst = self.fresh();
                match (a, b) {
                    (Term::Var(x), Term::Var(y)) => self.emit(Op::LoadEq {
                        dst,
                        i: x.index() as u32,
                        j: y.index() as u32,
                    }),
                    (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                        if c as usize >= n {
                            return Err(EvalError::ConstOutOfDomain(c));
                        }
                        self.emit(Op::LoadConstEq {
                            dst,
                            i: x.index() as u32,
                            c,
                        });
                    }
                    (Term::Const(c), Term::Const(d)) => {
                        if c as usize >= n || d as usize >= n {
                            return Err(EvalError::ConstOutOfDomain(c.max(d)));
                        }
                        self.emit(Op::LoadConst { dst, full: c == d });
                    }
                }
                Ok(Val {
                    reg: dst,
                    owned: true,
                })
            }
            Node::Atom { source, args } => match source {
                AtomSource::Db(id) => {
                    let slot = self.intern_atom(id, &args);
                    let dst = self.fresh();
                    self.emit(Op::LoadAtom { dst, slot });
                    Ok(Val {
                        reg: dst,
                        owned: true,
                    })
                }
                AtomSource::Fix(fix) => {
                    let map = fix_read_map(self.k, &self.prog.fixes[fix].bound, &args)?;
                    let slot = self.intern_map(map);
                    // A read of an *enclosing* recursion variable is
                    // invariant across the current loop's rounds: hoist
                    // it into the loop's setup block (optimized variant).
                    if self.variant == Variant::Optimized && !self.to_prelude {
                        if let Some(&cur) = self.fix_stack.last() {
                            if cur != fix {
                                let key = (cur, self.keys[node as usize].clone());
                                if let Some(&reg) = self.setup_pinned.get(&key) {
                                    return Ok(Val { reg, owned: false });
                                }
                                let dst = self.fresh();
                                self.fix_setups[cur].push(Op::ReadFix {
                                    dst,
                                    fix: fix as u32,
                                    map: slot,
                                });
                                self.setup_pinned.insert(key, dst);
                                return Ok(Val {
                                    reg: dst,
                                    owned: false,
                                });
                            }
                        }
                    }
                    let dst = self.fresh();
                    self.emit(Op::ReadFix {
                        dst,
                        fix: fix as u32,
                        map: slot,
                    });
                    Ok(Val {
                        reg: dst,
                        owned: true,
                    })
                }
                AtomSource::External(_) => Err(EvalError::UnsupportedConstruct(
                    "external relation variables in compiled plans",
                )),
            },
            Node::Not(g) => {
                let v = self.lower(g)?;
                let dst = self.owned(v);
                self.emit(Op::Not { dst });
                Ok(Val {
                    reg: dst,
                    owned: true,
                })
            }
            Node::And(a, b) => {
                // Fuse φ ∧ ¬ψ into a one-pass AndNot (optimized variant).
                if self.variant == Variant::Optimized {
                    if let Node::Not(nb) = *self.node(b) {
                        let va = self.lower(a)?;
                        let dst = self.owned(va);
                        let vb = self.lower(nb)?;
                        self.emit(Op::AndNot { dst, src: vb.reg });
                        return Ok(Val {
                            reg: dst,
                            owned: true,
                        });
                    }
                    if let Node::Not(na) = *self.node(a) {
                        let vb = self.lower(b)?;
                        let dst = self.owned(vb);
                        let va = self.lower(na)?;
                        self.emit(Op::AndNot { dst, src: va.reg });
                        return Ok(Val {
                            reg: dst,
                            owned: true,
                        });
                    }
                }
                let va = self.lower(a)?;
                let vb = self.lower(b)?;
                let (dst, src) = self.pick_dst(va, vb);
                self.emit(Op::And { dst, src });
                Ok(Val {
                    reg: dst,
                    owned: true,
                })
            }
            Node::Or(a, b) => {
                let va = self.lower(a)?;
                let vb = self.lower(b)?;
                let (dst, src) = self.pick_dst(va, vb);
                self.emit(Op::Or { dst, src });
                Ok(Val {
                    reg: dst,
                    owned: true,
                })
            }
            Node::Exists(coord, g) => {
                let v = self.lower(g)?;
                let dst = if v.owned { v.reg } else { self.fresh() };
                self.emit(Op::Exists {
                    dst,
                    src: v.reg,
                    coord: coord as u32,
                });
                Ok(Val {
                    reg: dst,
                    owned: true,
                })
            }
            Node::Forall(coord, g) => {
                let v = self.lower(g)?;
                let dst = if v.owned { v.reg } else { self.fresh() };
                self.emit(Op::Forall {
                    dst,
                    src: v.reg,
                    coord: coord as u32,
                });
                Ok(Val {
                    reg: dst,
                    owned: true,
                })
            }
            Node::Fix { fix } => {
                self.lower_fix(fix)?;
                let dst = self.fresh();
                self.emit(Op::Fix {
                    dst,
                    fix: fix as u32,
                });
                Ok(Val {
                    reg: dst,
                    owned: true,
                })
            }
        }
    }

    /// For a commutative in-place op, mutate an owned operand when one
    /// exists (avoids a Copy).
    fn pick_dst(&mut self, va: Val, vb: Val) -> (Reg, Reg) {
        if va.owned {
            (va.reg, vb.reg)
        } else if vb.owned {
            (vb.reg, va.reg)
        } else {
            (self.owned(va), vb.reg)
        }
    }

    fn lower_fix(&mut self, fix: usize) -> Result<(), EvalError> {
        if self.fixes[fix].is_some() {
            return Ok(());
        }
        let info = &self.prog.fixes[fix];
        let (body, kind, name) = (info.body, info.kind, info.name.clone());
        let bound = info.bound.clone();
        let seminaive = info.seminaive.as_ref().ok().cloned();
        let apply_map = {
            let map = fix_read_map(self.k, &info.bound, &info.args)?;
            self.intern_map(map)
        };
        let toplevel_opposite: Vec<u32> =
            info.toplevel_opposite.iter().map(|&f| f as u32).collect();
        let saved = std::mem::take(&mut self.buf);
        self.depth += 1;
        self.fix_stack.push(fix);
        let out = {
            let v = self.lower(body)?;
            // The loop compares the body's value against the previous
            // round and takes it out of the register; it must be owned.
            self.owned(v)
        };
        self.fix_stack.pop();
        self.depth -= 1;
        let body_ops = std::mem::replace(&mut self.buf, saved);
        self.fixes[fix] = Some(FixCode {
            kind,
            setup: std::mem::take(&mut self.fix_setups[fix]),
            body: body_ops,
            out,
            apply_map,
            toplevel_opposite,
            name,
            bound,
            seminaive,
        });
        Ok(())
    }

    fn intern_atom(&mut self, rel: RelId, args: &[Term]) -> u32 {
        let key = format!(
            "{}:{}",
            rel.0,
            args.iter()
                .map(|t| match t {
                    Term::Var(v) => format!("v{}", v.index()),
                    Term::Const(c) => format!("k{c}"),
                })
                .collect::<Vec<_>>()
                .join(",")
        );
        if let Some(&slot) = self.atom_keys.get(&key) {
            return slot;
        }
        let display = format!(
            "{}({})",
            self.db.schema().name(rel),
            args.iter()
                .map(|t| match t {
                    Term::Var(v) => format!("x{}", v.index() + 1),
                    Term::Const(c) => c.to_string(),
                })
                .collect::<Vec<_>>()
                .join(", ")
        );
        let slot = self.atoms.len() as u32;
        self.atoms.push(AtomSpec {
            rel,
            args: args.to_vec(),
            display,
        });
        self.atom_keys.insert(key, slot);
        slot
    }

    fn intern_map(&mut self, map: Vec<CoordSource>) -> u32 {
        if let Some(i) = self.maps.iter().position(|m| *m == map) {
            return i as u32;
        }
        self.maps.push(map);
        (self.maps.len() - 1) as u32
    }
}

/// Inserts [`Op::Drop`]s after the last use of every register *defined*
/// in the block (except its result), bounding peak live cylinders.
/// Registers defined elsewhere (prelude, enclosing blocks) are never
/// dropped here.
fn insert_drops(ops: &mut Vec<Op>, result: Reg) {
    use std::collections::HashSet;
    let mut defined: HashSet<Reg> = HashSet::new();
    for op in ops.iter() {
        if let Some(d) = op_dst(op) {
            defined.insert(d);
        }
    }
    defined.remove(&result);
    // Last index at which each defined register appears (as dst or src).
    let mut last: HashMap<Reg, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        for r in op_regs(op) {
            if defined.contains(&r) {
                last.insert(r, i);
            }
        }
    }
    let mut out: Vec<Op> = Vec::with_capacity(ops.len() + last.len());
    for (i, op) in ops.drain(..).enumerate() {
        out.push(op);
        let mut dead: Vec<Reg> = last
            .iter()
            .filter(|&(_, &li)| li == i)
            .map(|(&r, _)| r)
            .collect();
        dead.sort_unstable();
        for reg in dead {
            out.push(Op::Drop { reg });
        }
    }
    *ops = out;
}

pub(crate) fn op_dst(op: &Op) -> Option<Reg> {
    match op {
        Op::LoadConst { dst, .. }
        | Op::LoadAtom { dst, .. }
        | Op::LoadEq { dst, .. }
        | Op::LoadConstEq { dst, .. }
        | Op::Copy { dst, .. }
        | Op::Not { dst }
        | Op::And { dst, .. }
        | Op::AndNot { dst, .. }
        | Op::Or { dst, .. }
        | Op::Exists { dst, .. }
        | Op::Forall { dst, .. }
        | Op::ReadFix { dst, .. }
        | Op::Fix { dst, .. } => Some(*dst),
        Op::Drop { .. } => None,
    }
}

pub(crate) fn op_regs(op: &Op) -> Vec<Reg> {
    match op {
        Op::LoadConst { dst, .. }
        | Op::LoadAtom { dst, .. }
        | Op::LoadEq { dst, .. }
        | Op::LoadConstEq { dst, .. }
        | Op::ReadFix { dst, .. }
        | Op::Fix { dst, .. }
        | Op::Not { dst } => vec![*dst],
        Op::Copy { dst, src }
        | Op::And { dst, src }
        | Op::AndNot { dst, src }
        | Op::Or { dst, src }
        | Op::Exists { dst, src, .. }
        | Op::Forall { dst, src, .. } => vec![*dst, *src],
        Op::Drop { reg } => vec![*reg],
    }
}

/// Renders one op for the listing.
fn render_op(op: &Op, bc: &Bytecode, out: &mut String, indent: &str) {
    use std::fmt::Write;
    let _ = match op {
        Op::LoadConst { dst, full } => writeln!(
            out,
            "{indent}r{dst} ← {}",
            if *full { "full" } else { "empty" }
        ),
        Op::LoadAtom { dst, slot } => writeln!(
            out,
            "{indent}r{dst} ← atom {}",
            bc.atoms[*slot as usize].display
        ),
        Op::LoadEq { dst, i, j } => {
            writeln!(out, "{indent}r{dst} ← eq x{} = x{}", i + 1, j + 1)
        }
        Op::LoadConstEq { dst, i, c } => {
            writeln!(out, "{indent}r{dst} ← eq x{} = {c}", i + 1)
        }
        Op::Copy { dst, src } => writeln!(out, "{indent}r{dst} ← copy r{src}"),
        Op::Not { dst } => writeln!(out, "{indent}r{dst} ← not r{dst}"),
        Op::And { dst, src } => writeln!(out, "{indent}r{dst} ← and r{dst}, r{src}"),
        Op::AndNot { dst, src } => writeln!(out, "{indent}r{dst} ← and-not r{dst}, r{src}"),
        Op::Or { dst, src } => writeln!(out, "{indent}r{dst} ← or r{dst}, r{src}"),
        Op::Exists { dst, src, coord } => {
            writeln!(out, "{indent}r{dst} ← exists x{} r{src}", coord + 1)
        }
        Op::Forall { dst, src, coord } => {
            writeln!(out, "{indent}r{dst} ← forall x{} r{src}", coord + 1)
        }
        Op::ReadFix { dst, fix, .. } => {
            let name = &bc.fixes[*fix as usize].name;
            writeln!(out, "{indent}r{dst} ← read-fix {name} (f{fix})")
        }
        Op::Fix { dst, fix } => {
            let fc = &bc.fixes[*fix as usize];
            let kind = match fc.kind {
                FixKind::Lfp => "lfp",
                FixKind::Gfp => "gfp",
                FixKind::Ifp => "ifp",
                FixKind::Pfp => "pfp",
            };
            writeln!(out, "{indent}r{dst} ← {kind}-loop {} (f{fix})", fc.name)
        }
        Op::Drop { reg } => writeln!(out, "{indent}drop r{reg}"),
    };
}

/// Renders the full bytecode listing shown by `explain`.
pub(crate) fn listing(bc: &Bytecode) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        ";; bytecode ({}): {} ops, {} registers, {} atoms, {} fixpoints",
        bc.variant.label(),
        bc.op_count(),
        bc.nregs,
        bc.atoms.len(),
        bc.fixes.len()
    );
    if !bc.prelude.is_empty() {
        let _ = writeln!(out, "prelude:");
        for op in &bc.prelude {
            render_op(op, bc, &mut out, "  ");
        }
    }
    let _ = writeln!(out, "entry:");
    for op in &bc.entry {
        render_op(op, bc, &mut out, "  ");
    }
    let _ = writeln!(out, "  result r{}", bc.result);
    for (i, fc) in bc.fixes.iter().enumerate() {
        let kind = match fc.kind {
            FixKind::Lfp => "lfp",
            FixKind::Gfp => "gfp",
            FixKind::Ifp => "ifp",
            FixKind::Pfp => "pfp",
        };
        let _ = writeln!(out, "f{i} ({kind} {}):", fc.name);
        if !fc.setup.is_empty() {
            let _ = writeln!(out, "  setup:");
            for op in &fc.setup {
                render_op(op, bc, &mut out, "    ");
            }
        }
        for op in &fc.body {
            render_op(op, bc, &mut out, "  ");
        }
        let _ = writeln!(out, "  out r{}", fc.out);
    }
    out
}
