//! Segment input/output determination (paper §2.1):
//!
//! > "The inputs of a code segment are those variables or array elements
//! > that have *upward-exposed reads* in the code segment, excluding those
//! > recognized by the compiler as invariants at the entry of the code
//! > segment. \[...\] The output variables are identified by liveness
//! > analysis. A variable computed by the code segment is an output
//! > variable if it remains live at the exit of the code segment."
//!
//! Plus the paper's *array reference analysis for array input/output*:
//! reads/writes through a pointer become whole-array operands keyed on the
//! pointee contents (the MPEG2 64-entry blocks), provided the pointer's
//! target is unambiguous and the pointer always carries the array's base
//! address.

use crate::invariance::invariant_vars;
use crate::segments::{Reject, SegKind, Segment};
use crate::usedef::{instr_effects, Effects};
use crate::vars::{name_of_var, type_of_var, VarId, VarMap};
use crate::Analyses;
use flow::bitset::BitSet;
use flow::cfg::Cfg;
use flow::dataflow::{backward_may, GenKill};
use minic::ast::{
    Block, Expr, ExprKind, MemoOperand, OperandShape, ScalarKind, StmtKind, Type, UnOp,
};
use minic::sema::{Checked, Res};
use std::collections::{BTreeSet, HashSet};

/// The determined interface of a segment.
#[derive(Debug, Clone)]
pub struct SegIo {
    /// Input operands (the hash key), sorted by name.
    pub inputs: Vec<MemoOperand>,
    /// Output operands, sorted by name.
    pub outputs: Vec<MemoOperand>,
    /// For function-body segments: the memoized return kind.
    pub ret: Option<ScalarKind>,
    /// Total key width in words.
    pub key_words: usize,
    /// Total output width in words (including the return slot).
    pub out_words: usize,
    /// Directly-named invariant global regions the segment reads, dropped
    /// from the key by the §2.1 invariance filter, that some instruction
    /// writes (a table filled in `main`): `(name, words)`, sorted by name.
    /// The dependency planner turns these into non-mutable validated
    /// dependencies so stored results also witness their contents.
    /// Regions nothing writes are left out: their initializer is all they
    /// can ever hold.
    pub invariant_reads: Vec<(String, usize)>,
    /// Names of input operands that resolve to globals, sorted. Key
    /// reduction (moving a mutable region out of the key into a validated
    /// dependency) applies only to these.
    pub global_inputs: Vec<String>,
}

impl SegIo {
    /// The list of input variable names — the §2.5 merge criterion
    /// ("multiple code segments with identical input variables").
    pub fn input_signature(&self) -> Vec<(String, OperandShape, ScalarKind)> {
        self.inputs
            .iter()
            .map(|op| (op.name.clone(), op.shape, op.elem))
            .collect()
    }
}

/// Computes inputs/outputs of `seg`.
///
/// # Errors
///
/// Rejects segments whose interface cannot be expressed as memo operands
/// (struct values, ambiguous pointers, pointer outputs, un-nameable
/// variables, ...) and segments with no inputs or no outputs.
pub fn seg_io(checked: &Checked, an: &Analyses, seg: &Segment) -> Result<SegIo, Reject> {
    let func = &checked.program.funcs[seg.func];
    let cfg = Cfg::build(&func.body);
    let varmap = VarMap::for_func(&checked.info, seg.func);
    let ctx = an.effect_ctx(checked, seg.func);

    // Per-block upward-exposed / kill sets plus aggregate effects.
    let nblocks = cfg.len();
    let mut gk = Vec::with_capacity(nblocks);
    let mut block_fx: Vec<Effects> = Vec::with_capacity(nblocks);
    for blk in &cfg.blocks {
        let mut ue = BitSet::new(varmap.len());
        let mut kill = BitSet::new(varmap.len());
        let mut agg = Effects::default();
        for instr in &blk.instrs {
            let fx = instr_effects(ctx, instr);
            for &u in &fx.uses {
                if let Some(i) = varmap.index_of(u) {
                    if !kill.contains(i) {
                        ue.insert(i);
                    }
                }
            }
            for &d in &fx.strong_defs {
                if let Some(i) = varmap.index_of(d) {
                    kill.insert(i);
                }
            }
            agg.uses.extend(fx.uses.iter().copied());
            agg.strong_defs.extend(fx.strong_defs.iter().copied());
            agg.weak_defs.extend(fx.weak_defs.iter().copied());
        }
        gk.push(GenKill { gen: ue, kill });
        block_fx.push(agg);
    }

    // Whole-function liveness; globals are live at exit.
    let g = cfg.graph();
    let mut boundary = BitSet::new(varmap.len());
    for (i, v) in varmap.iter() {
        if matches!(v, VarId::Global(_)) {
            boundary.insert(i);
        }
    }
    let live = backward_may(&g, &gk, &[cfg.exit], &boundary);

    // The segment's region.
    let region: HashSet<usize> = match seg.kind {
        SegKind::FuncBody => (0..nblocks).collect(),
        _ => cfg.region_of(&seg.body_stmt_ids(&checked.program)),
    };
    if region.is_empty() {
        return Err(Reject::Empty);
    }

    // Upward-exposed reads of the region: fixpoint restricted to region
    // blocks (exits contribute nothing).
    let mut rin: Vec<BitSet> = vec![BitSet::new(varmap.len()); nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &region {
            let mut out = BitSet::new(varmap.len());
            for &s in &cfg.blocks[b].succs {
                if region.contains(&s) {
                    out.union_with(&rin[s]);
                }
            }
            out.subtract(&gk[b].kill);
            out.union_with(&gk[b].gen);
            if out != rin[b] {
                rin[b] = out;
                changed = true;
            }
        }
    }
    let entries: Vec<usize> = match seg.kind {
        SegKind::FuncBody => vec![cfg.entry],
        _ => region
            .iter()
            .copied()
            .filter(|&b| cfg.blocks[b].preds.iter().any(|p| !region.contains(p)))
            .collect(),
    };
    let mut ue_vars: HashSet<VarId> = HashSet::new();
    for &e in &entries {
        for i in rin[e].iter() {
            ue_vars.insert(varmap.var_at(i));
        }
    }

    // Locals *declared inside* the segment have no value at segment entry
    // (weak array writes never kill, so a fully-initialized temporary like
    // fdct's `tmp[64]` still looks upward-exposed). They can be neither
    // inputs nor outputs: a correct program writes them before reading,
    // and their scope ends with the segment.
    let declared_inside: HashSet<VarId> = {
        let body_ids = seg.body_stmt_ids(&checked.program);
        checked.info.frames[seg.func]
            .decl_offsets
            .iter()
            .filter(|(stmt_id, _)| body_ids.contains(stmt_id))
            .map(|(_, &slot)| VarId::Local {
                func: seg.func,
                slot,
            })
            .collect()
    };

    // Drop invariants (and inside-declared locals) from the key. Inputs
    // and defs are walked in `VarId` order, so the first unsupported
    // operand a reject names is the same on every run.
    let invariants = invariant_vars(checked, an, seg, &ue_vars);
    let input_vars: BTreeSet<VarId> = ue_vars
        .difference(&invariants)
        .copied()
        .filter(|v| !declared_inside.contains(v))
        .collect();

    // Record which invariant *global* regions were dropped, so the
    // dependency planner can re-attach them as validated (non-mutable)
    // dependencies. Only regions some instruction writes are guarded: a
    // region nothing writes holds its initializer forever (the §2.1 test
    // that dropped it from the key), so its guard could never fail.
    // Unnameable or non-arithmetic regions are skipped: they simply stay
    // untracked, as before.
    let ever = an.modref.ever_modified();
    let mut invariant_reads: Vec<(String, usize)> = Vec::new();
    for &v in &invariants {
        if !matches!(v, VarId::Global(_)) || !ever.contains(&v) {
            continue;
        }
        let Some(ty) = type_of_var(&checked.info, &checked.program, v) else {
            continue;
        };
        let words = match &ty {
            Type::Int | Type::Float => 1,
            Type::Array(elem, n) if elem.is_arith() => *n,
            _ => continue,
        };
        let Ok(name) = nameable(checked, seg.func, v) else {
            continue;
        };
        invariant_reads.push((name, words));
    }
    invariant_reads.sort();
    invariant_reads.dedup();

    // Aggregate region defs and their liveness at region exits.
    let mut defs: BTreeSet<VarId> = BTreeSet::new();
    for &b in &region {
        defs.extend(block_fx[b].strong_defs.iter().copied());
        defs.extend(block_fx[b].weak_defs.iter().copied());
    }
    let mut live_after: HashSet<VarId> = HashSet::new();
    match seg.kind {
        SegKind::FuncBody => {
            // Locals die with the frame; only globals (boundary) survive.
            for i in boundary.iter() {
                live_after.insert(varmap.var_at(i));
            }
        }
        _ => {
            for (from, to) in cfg.region_exits(&region) {
                let _ = from;
                for i in live.entry[to].iter() {
                    live_after.insert(varmap.var_at(i));
                }
            }
        }
    }

    // Syntactic access scan of the body: named variables, pointer-mediated
    // reads/writes, and anything we cannot express.
    let scan = scan_accesses(checked, an, seg)?;

    // Build input operands.
    let mut inputs: Vec<MemoOperand> = Vec::new();
    let mut keyed_targets: HashSet<VarId> = HashSet::new();

    // Pass 1: pointer inputs become Deref operands over their unique
    // target, and record which targets their keys already cover.
    let mut ptr_inputs: Vec<(VarId, usize)> = Vec::new(); // (ptr var, words)
    for &v in &input_vars {
        let ty = type_of_var(&checked.info, &checked.program, v)
            .ok_or_else(|| Reject::UnsupportedOperand("unknown variable type".into()))?;
        if let Type::Ptr(elem) = &ty {
            if !elem.is_arith() {
                return Err(Reject::UnsupportedOperand(format!(
                    "pointer to non-arithmetic type {elem}"
                )));
            }
            // Only pointers actually read through need keying of contents;
            // a pointer used as a raw value is unsupported.
            if scan.ptr_value_uses.contains(&v) {
                return Err(Reject::UnsupportedOperand(
                    "pointer used as a raw value".into(),
                ));
            }
            let target = unique_target(an, v)
                .ok_or_else(|| Reject::UnsupportedOperand("ambiguous pointer target".into()))?;
            let words = target_extent(checked, target)
                .ok_or_else(|| Reject::UnsupportedOperand("pointer target has no extent".into()))?;
            if !pointer_bases_ok(checked, an, v, &mut HashSet::new()) {
                return Err(Reject::UnsupportedOperand(
                    "pointer may not carry the array base address".into(),
                ));
            }
            keyed_targets.insert(target);
            ptr_inputs.push((v, words));
        }
    }

    let mut global_inputs: Vec<String> = Vec::new();
    for &v in &input_vars {
        let ty = type_of_var(&checked.info, &checked.program, v)
            .ok_or_else(|| Reject::UnsupportedOperand("unknown variable type".into()))?;
        let name = nameable(checked, seg.func, v)?;
        let is_global = matches!(v, VarId::Global(_));
        match &ty {
            Type::Int => {
                if is_global {
                    global_inputs.push(name.clone());
                }
                inputs.push(MemoOperand::scalar(name, ScalarKind::Int));
            }
            Type::Float => {
                if is_global {
                    global_inputs.push(name.clone());
                }
                inputs.push(MemoOperand::scalar(name, ScalarKind::Float));
            }
            Type::Array(elem, n) => {
                if !elem.is_arith() {
                    return Err(Reject::UnsupportedOperand(format!(
                        "array of non-arithmetic type {elem}"
                    )));
                }
                // If the only accesses to this array go through an
                // already-keyed pointer, the Deref operand covers it.
                if keyed_targets.contains(&v) && !scan.named_vars.contains(&v) {
                    continue;
                }
                if is_global {
                    global_inputs.push(name.clone());
                }
                inputs.push(MemoOperand {
                    name,
                    shape: OperandShape::Array(*n),
                    elem: scalar_kind(elem),
                });
            }
            Type::Ptr(elem) => {
                let words = ptr_inputs
                    .iter()
                    .find(|(p, _)| *p == v)
                    .map(|&(_, w)| w)
                    .expect("collected in pass 1");
                inputs.push(MemoOperand {
                    name,
                    shape: OperandShape::Deref(words),
                    elem: scalar_kind(elem),
                });
            }
            Type::Struct(_) => return Err(Reject::UnsupportedOperand("struct-typed input".into())),
            Type::Func(_) => {
                return Err(Reject::UnsupportedOperand("function-pointer input".into()))
            }
            Type::Void => unreachable!("void variables rejected by sema"),
        }
    }

    // Build output operands.
    let mut outputs: Vec<MemoOperand> = Vec::new();
    let mut covered: HashSet<VarId> = HashSet::new();

    // Through-pointer writes restore through the pointer.
    for &p in &scan.ptr_writes {
        let target = unique_target(an, p)
            .ok_or_else(|| Reject::UnsupportedOperand("ambiguous written pointer".into()))?;
        let words = target_extent(checked, target)
            .ok_or_else(|| Reject::UnsupportedOperand("written target has no extent".into()))?;
        if !pointer_bases_ok(checked, an, p, &mut HashSet::new()) {
            return Err(Reject::UnsupportedOperand(
                "written pointer may not carry the array base address".into(),
            ));
        }
        let pty = type_of_var(&checked.info, &checked.program, p)
            .ok_or_else(|| Reject::UnsupportedOperand("unknown pointer type".into()))?;
        let Type::Ptr(elem) = pty else {
            return Err(Reject::UnsupportedOperand("non-pointer deref write".into()));
        };
        let name = nameable(checked, seg.func, p)?;
        outputs.push(MemoOperand {
            name,
            shape: OperandShape::Deref(words),
            elem: scalar_kind(&elem),
        });
        covered.insert(target);
    }

    for &v in &defs {
        if declared_inside.contains(&v) {
            continue; // scoped to the segment, dead at exit
        }
        if covered.contains(&v) && !scan.named_writes.contains(&v) {
            continue; // restored through the pointer already
        }
        let keep = match v {
            VarId::Global(_) => true,
            VarId::Local { func, .. } => {
                func == seg.func
                    && !matches!(seg.kind, SegKind::FuncBody)
                    && live_after.contains(&v)
            }
        };
        if let VarId::Local { func, .. } = v {
            if func != seg.func {
                // A callee wrote some other function's local through a
                // stored pointer — cannot name it here.
                if live_after.contains(&v) {
                    return Err(Reject::UnsupportedOperand(
                        "write to another function's local".into(),
                    ));
                }
                continue;
            }
        }
        if !keep {
            continue;
        }
        let ty = type_of_var(&checked.info, &checked.program, v)
            .ok_or_else(|| Reject::UnsupportedOperand("unknown output type".into()))?;
        let name = nameable(checked, seg.func, v)?;
        match &ty {
            Type::Int => outputs.push(MemoOperand::scalar(name, ScalarKind::Int)),
            Type::Float => outputs.push(MemoOperand::scalar(name, ScalarKind::Float)),
            Type::Array(elem, n) => {
                if !elem.is_arith() {
                    return Err(Reject::UnsupportedOperand(format!(
                        "array of non-arithmetic type {elem}"
                    )));
                }
                outputs.push(MemoOperand {
                    name,
                    shape: OperandShape::Array(*n),
                    elem: scalar_kind(elem),
                });
            }
            Type::Ptr(_) | Type::Func(_) => {
                return Err(Reject::UnsupportedOperand("pointer-valued output".into()))
            }
            Type::Struct(_) => {
                return Err(Reject::UnsupportedOperand("struct-typed output".into()))
            }
            Type::Void => unreachable!(),
        }
    }

    // Return value.
    let ret = match seg.kind {
        SegKind::FuncBody => match &func.ret {
            Type::Int => Some(ScalarKind::Int),
            Type::Float => Some(ScalarKind::Float),
            Type::Void => None,
            other => {
                return Err(Reject::UnsupportedOperand(format!(
                    "function returns {other}"
                )))
            }
        },
        _ => None,
    };

    inputs.sort_by(|a, b| a.name.cmp(&b.name));
    inputs.dedup();
    outputs.sort_by(|a, b| a.name.cmp(&b.name));
    outputs.dedup();
    global_inputs.sort();
    global_inputs.dedup();

    if inputs.is_empty() {
        return Err(Reject::NoInputs);
    }
    if outputs.is_empty() && ret.is_none() {
        return Err(Reject::NoOutputs);
    }

    let key_words = inputs.iter().map(|o| o.words()).sum();
    let out_words = outputs.iter().map(|o| o.words()).sum::<usize>() + usize::from(ret.is_some());
    Ok(SegIo {
        inputs,
        outputs,
        ret,
        key_words,
        out_words,
        invariant_reads,
        global_inputs,
    })
}

fn scalar_kind(ty: &Type) -> ScalarKind {
    match ty {
        Type::Float => ScalarKind::Float,
        _ => ScalarKind::Int,
    }
}

/// A variable is nameable for memo operands if its source name uniquely
/// resolves to it from the segment's scope.
fn nameable(checked: &Checked, func: usize, v: VarId) -> Result<String, Reject> {
    let name = name_of_var(&checked.info, &checked.program, v);
    if name.starts_with('<') {
        return Err(Reject::UnsupportedOperand("unnameable variable".into()));
    }
    // Count declarations of this name within the function; shadowing makes
    // the name ambiguous at transform time.
    let f = &checked.program.funcs[func];
    let mut count = f.params.iter().filter(|p| p.name == name).count();
    minic::visit::for_each_stmt(&f.body, |s| {
        if let StmtKind::Decl { name: n, .. } = &s.kind {
            if *n == name {
                count += 1;
            }
        }
    });
    match v {
        VarId::Global(_) => {
            if count > 0 {
                return Err(Reject::UnsupportedOperand(format!(
                    "global `{name}` shadowed in function"
                )));
            }
        }
        VarId::Local { .. } => {
            if count > 1 {
                return Err(Reject::UnsupportedOperand(format!(
                    "local `{name}` shadowed in function"
                )));
            }
        }
    }
    Ok(name)
}

/// The unique points-to target of `p`, if exactly one.
fn unique_target(an: &Analyses, p: VarId) -> Option<VarId> {
    let pts = an.pts.pointees(p);
    if pts.len() == 1 {
        Some(pts[0])
    } else {
        None
    }
}

/// Word extent of a pointer target: full array length, or 1 for a scalar.
fn target_extent(checked: &Checked, target: VarId) -> Option<usize> {
    let ty = type_of_var(&checked.info, &checked.program, target)?;
    match ty {
        Type::Array(elem, n) if elem.is_arith() => Some(n),
        Type::Int | Type::Float => Some(1),
        _ => None,
    }
}

/// Verifies that every value flowing into pointer variable `p` is the base
/// address of an array (whole-array decay or `&arr[0]`), possibly through
/// other base-carrying pointers. This justifies reading the target's full
/// extent starting at the pointer.
fn pointer_bases_ok(
    checked: &Checked,
    an: &Analyses,
    p: VarId,
    visiting: &mut HashSet<VarId>,
) -> bool {
    if !visiting.insert(p) {
        return true; // cycle: assume ok, the other sources decide
    }
    let VarId::Local { func, slot } = p else {
        // Global pointer: check assignments to it everywhere.
        return global_ptr_bases_ok(checked, an, p, visiting);
    };
    let f = &checked.program.funcs[func];
    let frame = &checked.info.frames[func];

    // Parameter? Then check every call site's actual.
    let param_pos = frame.param_offsets.iter().position(|&off| off == slot);
    let mut ok = true;

    if let Some(pos) = param_pos {
        for (ci, caller) in checked.program.funcs.iter().enumerate() {
            minic::visit::for_each_expr(&caller.body, |e| {
                if !ok {
                    return;
                }
                if let ExprKind::Call(callee, args) = &e.kind {
                    let mut c = callee.as_ref();
                    while let ExprKind::Unary(UnOp::Deref, inner) = &c.kind {
                        c = inner;
                    }
                    let targets: Vec<usize> = match checked.info.res.get(&c.id) {
                        Some(Res::Func(fi)) => vec![*fi],
                        Some(Res::Builtin(_)) => vec![],
                        _ => an.cg.callees[ci].clone(),
                    };
                    if targets.contains(&func) {
                        match args.get(pos) {
                            Some(arg) => {
                                if !base_expr_ok(checked, an, ci, arg, visiting) {
                                    ok = false;
                                }
                            }
                            None => ok = false,
                        }
                    }
                }
            });
            if !ok {
                return false;
            }
        }
    }

    // Assignments (and inc/dec) targeting the pointer inside its function.
    minic::visit::for_each_expr(&f.body, |e| {
        if !ok {
            return;
        }
        match &e.kind {
            ExprKind::Assign(l, r)
                if resolves_to(checked, func, l, p)
                    && !base_expr_ok(checked, an, func, r, visiting) =>
            {
                ok = false;
            }
            ExprKind::AssignOp(_, l, _) | ExprKind::IncDec(_, l)
                if resolves_to(checked, func, l, p) =>
            {
                ok = false; // pointer stepping breaks the base invariant
            }
            _ => {}
        }
    });
    // Declaration initializer.
    minic::visit::for_each_stmt(&f.body, |s| {
        if !ok {
            return;
        }
        if let StmtKind::Decl { init: Some(r), .. } = &s.kind {
            if frame.decl_offsets.get(&s.id) == Some(&slot)
                && !base_expr_ok(checked, an, func, r, visiting)
            {
                ok = false;
            }
        }
    });
    ok
}

fn global_ptr_bases_ok(
    checked: &Checked,
    an: &Analyses,
    p: VarId,
    visiting: &mut HashSet<VarId>,
) -> bool {
    let mut ok = true;
    for (fi, f) in checked.program.funcs.iter().enumerate() {
        minic::visit::for_each_expr(&f.body, |e| {
            if !ok {
                return;
            }
            match &e.kind {
                ExprKind::Assign(l, r)
                    if resolves_to(checked, fi, l, p)
                        && !base_expr_ok(checked, an, fi, r, visiting) =>
                {
                    ok = false;
                }
                ExprKind::AssignOp(_, l, _) | ExprKind::IncDec(_, l)
                    if resolves_to(checked, fi, l, p) =>
                {
                    ok = false;
                }
                _ => {}
            }
        });
        if !ok {
            return false;
        }
    }
    ok
}

fn resolves_to(checked: &Checked, func: usize, e: &Expr, v: VarId) -> bool {
    matches!(&e.kind, ExprKind::Var(_)) && VarId::of_expr(&checked.info, func, e) == Some(v)
}

/// Whether a pointer-producing expression denotes an array base.
fn base_expr_ok(
    checked: &Checked,
    an: &Analyses,
    func: usize,
    e: &Expr,
    visiting: &mut HashSet<VarId>,
) -> bool {
    match &e.kind {
        // Whole-array decay.
        ExprKind::Var(_) => match checked.info.expr_types.get(&e.id) {
            Some(Type::Array(..)) => true,
            Some(Type::Ptr(_)) => match VarId::of_expr(&checked.info, func, e) {
                Some(q) => pointer_bases_ok(checked, an, q, visiting),
                None => false,
            },
            _ => false,
        },
        // &arr[0]
        ExprKind::Unary(UnOp::Addr, lv) => match &lv.kind {
            ExprKind::Index(base, idx) => {
                matches!(idx.as_int_lit(), Some(0))
                    && matches!(checked.info.expr_types.get(&base.id), Some(Type::Array(..)))
            }
            _ => false,
        },
        // Null is fine (never dereferenced on the hit path without trapping
        // identically in both versions).
        ExprKind::IntLit(0) => true,
        ExprKind::Cast(_, inner) => base_expr_ok(checked, an, func, inner, visiting),
        _ => false,
    }
}

/// Syntactic access summary of a segment body.
struct ScanResult {
    /// Variables that appear by name anywhere in the body.
    named_vars: HashSet<VarId>,
    /// Variables written by name (directly, not through pointers).
    named_writes: HashSet<VarId>,
    /// Pointer variables written through (`*p = ...`, `p[i] = ...`).
    ptr_writes: Vec<VarId>,
    /// Pointer variables whose *value* is used beyond deref/index bases
    /// (copied, compared, cast, returned) — these would need the raw
    /// address in the key, which we do not support.
    ptr_value_uses: HashSet<VarId>,
}

fn scan_accesses(checked: &Checked, an: &Analyses, seg: &Segment) -> Result<ScanResult, Reject> {
    let _ = an;
    let func = seg.func;
    let body = seg.body(&checked.program);
    let mut res = ScanResult {
        named_vars: HashSet::new(),
        named_writes: HashSet::new(),
        ptr_writes: Vec::new(),
        ptr_value_uses: HashSet::new(),
    };
    let mut bad: Option<Reject> = None;
    scan_block(checked, func, body, &mut res, &mut bad);
    match bad {
        Some(r) => Err(r),
        None => {
            res.ptr_writes.sort_unstable();
            res.ptr_writes.dedup();
            Ok(res)
        }
    }
}

fn scan_block(
    checked: &Checked,
    func: usize,
    b: &Block,
    res: &mut ScanResult,
    bad: &mut Option<Reject>,
) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    scan_expr(checked, func, e, false, res, bad);
                }
            }
            StmtKind::Expr(e) => scan_expr(checked, func, e, false, res, bad),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                scan_expr(checked, func, cond, false, res, bad);
                scan_block(checked, func, then_blk, res, bad);
                if let Some(eb) = else_blk {
                    scan_block(checked, func, eb, res, bad);
                }
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                scan_expr(checked, func, cond, false, res, bad);
                scan_block(checked, func, body, res, bad);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    match &init.kind {
                        StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) => {
                            scan_expr(checked, func, e, false, res, bad)
                        }
                        _ => {}
                    }
                }
                if let Some(e) = cond {
                    scan_expr(checked, func, e, false, res, bad);
                }
                if let Some(e) = step {
                    scan_expr(checked, func, e, false, res, bad);
                }
                scan_block(checked, func, body, res, bad);
            }
            StmtKind::Return(Some(e)) => scan_expr(checked, func, e, false, res, bad),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(inner) => scan_block(checked, func, inner, res, bad),
            StmtKind::Profile(p) => scan_block(checked, func, &p.body, res, bad),
            StmtKind::Memo(m) => scan_block(checked, func, &m.body, res, bad),
        }
    }
}

/// `as_deref_base`: this Var is consumed as the base of a deref/index and
/// so is not a raw value use.
fn scan_expr(
    checked: &Checked,
    func: usize,
    e: &Expr,
    as_deref_base: bool,
    res: &mut ScanResult,
    bad: &mut Option<Reject>,
) {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) => {}
        ExprKind::Var(_) => {
            if let Some(v) = VarId::of_expr(&checked.info, func, e) {
                res.named_vars.insert(v);
                let is_ptr = matches!(checked.info.expr_types.get(&e.id), Some(Type::Ptr(_)));
                if is_ptr && !as_deref_base {
                    res.ptr_value_uses.insert(v);
                }
            }
        }
        ExprKind::Unary(UnOp::Deref, p) => scan_ptr_base(checked, func, p, res, bad),
        ExprKind::Unary(UnOp::Addr, lv) => {
            scan_expr(checked, func, lv, true, res, bad);
        }
        ExprKind::Unary(_, a) | ExprKind::Cast(_, a) => {
            scan_expr(checked, func, a, false, res, bad)
        }
        ExprKind::Binary(_, a, b) => {
            scan_expr(checked, func, a, false, res, bad);
            scan_expr(checked, func, b, false, res, bad);
        }
        ExprKind::IncDec(_, lv) => scan_write(checked, func, lv, res, bad),
        ExprKind::Assign(l, r) | ExprKind::AssignOp(_, l, r) => {
            scan_expr(checked, func, r, false, res, bad);
            scan_write(checked, func, l, res, bad);
        }
        ExprKind::Ternary(c, t, f) => {
            scan_expr(checked, func, c, false, res, bad);
            scan_expr(checked, func, t, false, res, bad);
            scan_expr(checked, func, f, false, res, bad);
        }
        ExprKind::Call(callee, args) => {
            // The callee name itself is not a data access.
            let mut c = callee.as_ref();
            while let ExprKind::Unary(UnOp::Deref, inner) = &c.kind {
                c = inner;
            }
            if !matches!(
                checked.info.res.get(&c.id),
                Some(Res::Func(_)) | Some(Res::Builtin(_))
            ) {
                scan_expr(checked, func, c, false, res, bad);
            }
            for a in args {
                // Passing a pointer onward keeps the callee's accesses
                // within the pts-based effects; the raw value does not
                // escape into data. Arrays decay here too.
                match &a.kind {
                    ExprKind::Var(_)
                        if matches!(
                            checked.info.expr_types.get(&a.id),
                            Some(Type::Ptr(_)) | Some(Type::Array(..))
                        ) =>
                    {
                        scan_expr(checked, func, a, true, res, bad);
                    }
                    _ => scan_expr(checked, func, a, false, res, bad),
                }
            }
        }
        ExprKind::Index(base, idx) => {
            scan_expr(checked, func, idx, false, res, bad);
            scan_ptr_base(checked, func, base, res, bad);
        }
        ExprKind::Member(base, _) => scan_expr(checked, func, base, true, res, bad),
        ExprKind::Arrow(base, _) => scan_ptr_base(checked, func, base, res, bad),
    }
}

fn scan_ptr_base(
    checked: &Checked,
    func: usize,
    base: &Expr,
    res: &mut ScanResult,
    bad: &mut Option<Reject>,
) {
    match &base.kind {
        ExprKind::Var(_) => scan_expr(checked, func, base, true, res, bad),
        // `*(p + i)`: the addition consumes p as a deref base.
        ExprKind::Binary(_, a, b) => {
            scan_ptr_base(checked, func, a, res, bad);
            scan_ptr_base(checked, func, b, res, bad);
        }
        _ => scan_expr(checked, func, base, false, res, bad),
    }
}

fn scan_write(
    checked: &Checked,
    func: usize,
    lv: &Expr,
    res: &mut ScanResult,
    bad: &mut Option<Reject>,
) {
    match &lv.kind {
        ExprKind::Var(_) => {
            if let Some(v) = VarId::of_expr(&checked.info, func, lv) {
                res.named_vars.insert(v);
                res.named_writes.insert(v);
            }
        }
        ExprKind::Unary(UnOp::Deref, p) | ExprKind::Arrow(p, _) => {
            record_ptr_write(checked, func, p, res, bad)
        }
        ExprKind::Index(base, idx) => {
            scan_expr(checked, func, idx, false, res, bad);
            let is_array = matches!(checked.info.expr_types.get(&base.id), Some(Type::Array(..)));
            if is_array {
                scan_write(checked, func, base, res, bad);
            } else {
                record_ptr_write(checked, func, base, res, bad);
            }
        }
        ExprKind::Member(base, _) => scan_write(checked, func, base, res, bad),
        _ => {
            *bad = Some(Reject::UnsupportedOperand(
                "write through a computed address".into(),
            ));
        }
    }
}

fn record_ptr_write(
    checked: &Checked,
    func: usize,
    p: &Expr,
    res: &mut ScanResult,
    bad: &mut Option<Reject>,
) {
    match &p.kind {
        ExprKind::Var(_) => {
            if let Some(v) = VarId::of_expr(&checked.info, func, p) {
                res.named_vars.insert(v);
                res.ptr_writes.push(v);
            } else {
                *bad = Some(Reject::UnsupportedOperand(
                    "write through unresolvable pointer".into(),
                ));
            }
        }
        ExprKind::Binary(_, a, b) => {
            // *(p + i) = ... — p is the pointer side.
            let a_ptr = matches!(
                checked.info.expr_types.get(&a.id),
                Some(Type::Ptr(_)) | Some(Type::Array(..))
            );
            let (pp, idx) = if a_ptr { (a, b) } else { (b, a) };
            scan_expr(checked, func, idx, false, res, bad);
            match &pp.kind {
                ExprKind::Var(_)
                    if matches!(checked.info.expr_types.get(&pp.id), Some(Type::Array(..))) =>
                {
                    // Array decay: a named array write.
                    if let Some(v) = VarId::of_expr(&checked.info, func, pp) {
                        res.named_vars.insert(v);
                        res.named_writes.insert(v);
                    }
                }
                _ => record_ptr_write(checked, func, pp, res, bad),
            }
        }
        _ => {
            *bad = Some(Reject::UnsupportedOperand(
                "write through a computed pointer expression".into(),
            ));
        }
    }
}
