//! The bytecode executor: a register machine over one cylinder backend.
//!
//! Semantics mirror the interpreting [`Engine`](crate::fp::Engine)
//! exactly — same Kleene/Emerson–Lei rounds, same inflationary union,
//! same Brent cycle detection for `PFP`, same between-round deadline
//! checks — but with none of the interpreter's per-node costs: no arena
//! clones, no per-node statistics popcounts, and (in the optimized
//! variant) no per-round reloads of loop-invariant subformulas. The
//! compiled-vs-interpreted fuzz oracle holds the two paths equal on
//! every generated case.

use std::time::Instant;

use bvq_cert::FixEvent;
use bvq_logic::FixKind;
use bvq_relation::{CoordSource, CylCtx, CylinderOps, Database, EvalConfig, EvalStats, Relation};

use crate::certgen::TraceRecorder;
use crate::delta;
use crate::fp::{answer, load_atom};
use crate::EvalError;

use super::bytecode::{Bytecode, FixCode, Op};

/// Outcome of running one bytecode program.
pub(crate) struct MachineResult {
    pub answer: Relation,
    pub stats: EvalStats,
}

struct Machine<'b, 'd, C: CylinderOps> {
    bc: &'b Bytecode,
    db: &'d Database,
    ctx: CylCtx,
    regs: Vec<Option<C>>,
    fix_values: Vec<Option<C>>,
    /// Restart every fixpoint from bottom (the `PFP` evaluator's
    /// strategy); otherwise Emerson–Lei warm starts.
    naive: bool,
    deadline: Option<Instant>,
    ops_applied: u64,
    rounds: u64,
    /// The certificate trace the fixpoint loops write, when recording.
    /// A recording run starts every fixpoint from its seed, and still
    /// runs seminaive rounds.
    recorder: Option<TraceRecorder>,
}

/// Runs the bytecode on the backend selected by `ctx` and projects the
/// result onto the output coordinates (reading only the output slice when
/// `slice`; see [`output_slice`](crate::fp::output_slice)). With `rec`,
/// the fixpoint loops write their certificate trace into it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<C: CylinderOps>(
    bc: &Bytecode,
    db: &Database,
    ctx: CylCtx,
    naive: bool,
    cfg: &EvalConfig,
    coords: &[usize],
    slice: bool,
    mut rec: Option<&mut TraceRecorder>,
) -> Result<MachineResult, EvalError> {
    let mut m = Machine::<C> {
        bc,
        db,
        ctx,
        regs: vec![None; bc.nregs],
        fix_values: vec![None; bc.fixes.len()],
        naive,
        deadline: cfg.deadline(),
        ops_applied: 0,
        rounds: 0,
        recorder: rec.as_deref_mut().map(std::mem::take),
    };
    let ran = m
        .exec_block(&bc.prelude)
        .and_then(|()| m.exec_block(&bc.entry));
    if let Some(r) = rec {
        *r = m.recorder.take().expect("the machine keeps its recorder");
    }
    ran?;
    let result = m.regs[bc.result as usize]
        .take()
        .expect("entry block leaves its value in the result register");
    let count = result.count(&m.ctx);
    let mut stats = EvalStats::new();
    stats.max_arity = m.ctx.width();
    stats.max_cardinality = count;
    stats.total_tuples = count as u64;
    stats.operator_applications = m.ops_applied;
    stats.fixpoint_iterations = m.rounds;
    Ok(MachineResult {
        answer: answer(&result, &m.ctx, coords, slice),
        stats,
    })
}

impl<'b, 'd, C: CylinderOps> Machine<'b, 'd, C> {
    fn check_deadline(&self) -> Result<(), EvalError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(EvalError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    fn get(&self, r: u32) -> &C {
        self.regs[r as usize]
            .as_ref()
            .expect("register read before definition")
    }

    fn set(&mut self, r: u32, v: C) {
        self.regs[r as usize] = Some(v);
    }

    fn exec_block(&mut self, ops: &[Op]) -> Result<(), EvalError> {
        for op in ops {
            match *op {
                Op::Drop { reg } => {
                    self.regs[reg as usize] = None;
                    continue;
                }
                _ => self.ops_applied += 1,
            }
            match *op {
                Op::LoadConst { dst, full } => {
                    let v = if full {
                        C::full(&self.ctx)
                    } else {
                        C::empty(&self.ctx)
                    };
                    self.set(dst, v);
                }
                Op::LoadAtom { dst, slot } => {
                    let spec = &self.bc.atoms[slot as usize];
                    let v = load_atom(&self.ctx, self.db.relation(spec.rel), &spec.args)?;
                    self.set(dst, v);
                }
                Op::LoadEq { dst, i, j } => {
                    let v = C::equality(&self.ctx, i as usize, j as usize);
                    self.set(dst, v);
                }
                Op::LoadConstEq { dst, i, c } => {
                    if c as usize >= self.ctx.domain_size() {
                        return Err(EvalError::ConstOutOfDomain(c));
                    }
                    let v = C::const_eq(&self.ctx, i as usize, c);
                    self.set(dst, v);
                }
                Op::Copy { dst, src } => {
                    let v = self.get(src).clone();
                    self.set(dst, v);
                }
                Op::Not { dst } => {
                    let mut v = self.regs[dst as usize]
                        .take()
                        .expect("register read before definition");
                    v.not(&self.ctx);
                    self.set(dst, v);
                }
                Op::And { dst, src } => self.binop(dst, src, |ctx, a, b| a.and_with(ctx, b)),
                Op::AndNot { dst, src } => self.binop(dst, src, |ctx, a, b| a.and_not_with(ctx, b)),
                Op::Or { dst, src } => self.binop(dst, src, |ctx, a, b| a.or_with(ctx, b)),
                Op::Exists { dst, src, coord } => {
                    let v = self.get(src).exists(&self.ctx, coord as usize);
                    self.set(dst, v);
                }
                Op::Forall { dst, src, coord } => {
                    let v = self.get(src).forall(&self.ctx, coord as usize);
                    self.set(dst, v);
                }
                Op::ReadFix { dst, fix, map } => {
                    let m = &self.bc.maps[map as usize];
                    let cur = self.fix_values[fix as usize]
                        .as_ref()
                        .expect("recursion variable read outside its fixpoint");
                    // An identity map is a plain copy (one word-parallel
                    // pass); anything else goes through `preimage`.
                    let v = if is_identity(m) {
                        cur.clone()
                    } else {
                        cur.preimage(&self.ctx, m)
                    };
                    self.set(dst, v);
                }
                Op::Fix { dst, fix } => {
                    let v = self.run_fix(fix as usize)?;
                    self.set(dst, v);
                }
                Op::Drop { .. } => unreachable!("handled above"),
            }
        }
        Ok(())
    }

    /// Applies an in-place binary op `dst ← dst ⋄ src`.
    fn binop(&mut self, dst: u32, src: u32, f: impl FnOnce(&CylCtx, &mut C, &C)) {
        let mut a = self.regs[dst as usize]
            .take()
            .expect("register read before definition");
        f(&self.ctx, &mut a, self.get(src));
        self.set(dst, a);
    }

    fn bottom(&self, kind: FixKind) -> C {
        match kind {
            FixKind::Lfp | FixKind::Pfp | FixKind::Ifp => C::empty(&self.ctx),
            FixKind::Gfp => C::full(&self.ctx),
        }
    }

    /// One round: install the current approximation (moved in, taken
    /// back out — no per-round clone), run the body block, return
    /// `(previous, next)`.
    fn body_step(&mut self, fix: usize, fc: &'b FixCode, cur: C) -> Result<(C, C), EvalError> {
        self.check_deadline()?;
        self.rounds += 1;
        self.fix_values[fix] = Some(cur);
        self.exec_block(&fc.body)?;
        let next = self.regs[fc.out as usize]
            .take()
            .expect("fixpoint body leaves its value in the out register");
        let prev = self.fix_values[fix]
            .take()
            .expect("a fixpoint's own slot survives its body");
        Ok((prev, next))
    }

    /// Applies a converged fixpoint value through its argument terms.
    fn apply(&self, value: C, map: u32) -> C {
        let m = &self.bc.maps[map as usize];
        if is_identity(m) {
            value
        } else {
            value.preimage(&self.ctx, m)
        }
    }

    fn run_fix(&mut self, fix: usize) -> Result<C, EvalError> {
        let bc = self.bc;
        let fc = &bc.fixes[fix];
        // Loop-invariant reads of enclosing recursion variables, paid
        // once per loop entry instead of once per round.
        if !fc.setup.is_empty() {
            self.exec_block(&fc.setup)?;
        }
        match fc.kind {
            FixKind::Lfp | FixKind::Gfp => self.run_kleene(fix, fc),
            FixKind::Ifp => self.run_ifp(fix, fc),
            FixKind::Pfp => self.run_pfp(fix, fc),
        }
    }

    /// Records the round of `fix` that took its stage from `prev` to
    /// `next`, when recording.
    fn record_step(&mut self, fix: usize, fc: &FixCode, prev: &C, next: &C) {
        if let Some(rec) = &mut self.recorder {
            rec.step_between(&self.ctx, fix, &fc.bound, prev, next);
        }
    }

    /// μ/ν Kleene iteration, warm-started under Emerson–Lei exactly as
    /// the interpreter's `compute_fix`, and continued by the shared
    /// seminaive round loop after round 1 when the fixpoint is eligible.
    fn run_kleene(&mut self, fix: usize, fc: &'b FixCode) -> Result<C, EvalError> {
        let recording = self.recorder.is_some();
        let mut cur = match (self.naive, self.fix_values[fix].take()) {
            (false, Some(warm)) if !recording => warm,
            _ => self.bottom(fc.kind),
        };
        if let Some(rec) = &mut self.recorder {
            rec.push(FixEvent::Begin { fix });
        }
        let mut first = true;
        loop {
            let (prev, next) = self.body_step(fix, fc, cur)?;
            if next == prev {
                cur = prev;
                break;
            }
            if std::mem::take(&mut first) && (!self.naive || recording) {
                if let Some(plan) = &fc.seminaive {
                    let (db, ctx) = (self.db, self.ctx.clone());
                    if let Some(value) = delta::run_rounds(self, fix, plan, db, &ctx, &prev, &next)?
                    {
                        cur = value;
                        break;
                    }
                }
            }
            self.record_step(fix, fc, &prev, &next);
            cur = next;
            if !self.naive {
                // The variable moved: opposite-polarity sub-fixpoints
                // restart from scratch next time they run.
                for &d in &fc.toplevel_opposite {
                    self.fix_values[d as usize] = None;
                }
            }
        }
        if let Some(rec) = &mut self.recorder {
            rec.push(FixEvent::Converged { fix });
        }
        if self.naive {
            return Ok(self.apply(cur, fc.apply_map));
        }
        let value = self.apply(cur.clone(), fc.apply_map);
        self.fix_values[fix] = Some(cur);
        Ok(value)
    }

    /// Inflationary fixpoint: `Sᵢ₊₁ = Sᵢ ∪ φ(Sᵢ)`.
    fn run_ifp(&mut self, fix: usize, fc: &'b FixCode) -> Result<C, EvalError> {
        let mut cur = self.bottom(FixKind::Ifp);
        loop {
            let (prev, mut step) = self.body_step(fix, fc, cur)?;
            step.or_with(&self.ctx, &prev);
            if step == prev {
                cur = prev;
                break;
            }
            cur = step;
        }
        Ok(self.apply(cur, fc.apply_map))
    }

    /// Partial fixpoint with Brent cycle detection, mirroring the
    /// interpreter's `eval_pfp_fix`: a stabilising sequence (λ == 1)
    /// yields its limit, a proper cycle yields the empty relation.
    /// `body_step` leaves the slot empty after each step, so nested
    /// reads always see the value passed in (naive restarts).
    fn run_pfp(&mut self, fix: usize, fc: &'b FixCode) -> Result<C, EvalError> {
        if let Some(rec) = &mut self.recorder {
            rec.push(FixEvent::Begin { fix });
        }
        let mut tortoise = self.bottom(FixKind::Pfp);
        let mut hare = self.pfp_step(fix, fc, tortoise.clone())?;
        let (mut power, mut lam) = (1u64, 1u64);
        // The round that produced the hare.
        let mut hare_round = 1;
        while tortoise != hare {
            if power == lam {
                tortoise = hare.clone();
                power *= 2;
                lam = 0;
            }
            hare = self.pfp_step(fix, fc, hare)?;
            hare_round += 1;
            lam += 1;
        }
        if let Some(rec) = &mut self.recorder {
            // Every round of a cycle moves the stage, so the round count
            // indexes the recorded stages; the tortoise is `λ` behind.
            match lam {
                1 => rec.push(FixEvent::Converged { fix }),
                _ => rec.push(FixEvent::Cycle {
                    fix,
                    back_to: hare_round - lam as usize,
                }),
            }
        }
        Ok(if lam == 1 {
            self.apply(tortoise, fc.apply_map)
        } else {
            C::empty(&self.ctx)
        })
    }

    /// One PFP round from `cur`, recorded when recording.
    fn pfp_step(&mut self, fix: usize, fc: &'b FixCode, cur: C) -> Result<C, EvalError> {
        let (prev, next) = self.body_step(fix, fc, cur)?;
        self.record_step(fix, fc, &prev, &next);
        Ok(next)
    }
}

impl<C: CylinderOps> delta::Rounds for Machine<'_, '_, C> {
    fn open_round(&mut self) -> Result<(), EvalError> {
        self.check_deadline()?;
        self.rounds += 1;
        Ok(())
    }

    fn close_round(&mut self, _fix: usize, _round: u64, _rows: usize) {}

    fn recorder(&mut self) -> Option<&mut TraceRecorder> {
        self.recorder.as_mut()
    }
}

/// Whether a coordinate map is the identity, making its preimage a
/// plain copy.
fn is_identity(map: &[CoordSource]) -> bool {
    map.iter()
        .enumerate()
        .all(|(i, m)| matches!(m, CoordSource::Coord(j) if *j == i))
}
