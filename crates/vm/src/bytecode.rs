//! Flat bytecode compiler: lowered [`Module`] → one linear instruction
//! array with resolved jump offsets.
//!
//! The compiler is a single forward pass over the lowered IR. Expressions
//! compile to postfix stack code, which reproduces the tree-walker's
//! evaluation order (and therefore its trap order and cycle-charging
//! order) by construction. The parity-critical encodings:
//!
//! - Every point where the tree-walker charges cycles has a corresponding
//!   instruction that charges the same [`crate::cost::CostModel`] field:
//!   `TickBranch` before `if`/ternary/logic conditions, `WhileHead`/
//!   `ForHead`/`DoHead`/`LoopHeadCmp` at loop heads (which also run the
//!   cycle-budget check, exactly where the tree-walker does), `Binary`/
//!   `Unary` carrying their [`CostKind`], and so on.
//! - The tree-walker checks pointer-ness of a base address *before*
//!   evaluating the next operand (`PtrAdd`, `PtrDiff`, `Mem` places).
//!   A `CheckPtr` instruction is emitted right after the base so a
//!   type-confusion trap fires at the identical program point.
//! - `break`/`continue`/`return` that cross memo/profile regions unwind
//!   them at compile time: the compiler tracks the statically enclosing
//!   regions and emits the matching `MemoExit*`/`ProfileExit` sequence,
//!   innermost first — the same order the tree-walker's `Flow` propagation
//!   visits them.
//! - A memo hit that restores a return value jumps to a per-memo stub
//!   that unwinds the *enclosing* regions and returns, mirroring
//!   `Flow::Return` propagation from `exec_memo`'s hit path.
//!
//! Memo and profile descriptors are not copied into the instruction
//! stream; instructions carry small ids into side tables of borrowed
//! [`LMemo`]/[`LProfile`] references.

use crate::cost::CostModel;
use crate::lower::{
    Coerce, CostKind, LCallee, LExpr, LMemo, LPlace, LProfile, LStmt, Module, WriteCost,
};
use minic::ast::{BinOp, UnOp};
use minic::sema::Builtin;

/// A fused leaf operand of [`Instr::BinaryFast`]: reading it cannot trap
/// and its access charge is folded into the fused instruction's cost.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastArg {
    /// Integer constant (charges nothing, like `PushI`).
    I(i64),
    /// Frame slot (its `var_access` charge is folded in).
    Local(u32),
}

/// A statically based indexed load `base[idx]`: the base is the address
/// of a frame or global cell and the index is a leaf, so nothing but the
/// index conversion and the load itself can trap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdxLoad {
    /// Base address is a global cell (else a frame slot).
    pub(crate) global: bool,
    /// Global address or frame offset.
    pub(crate) base: u32,
    /// Leaf index operand.
    pub(crate) idx: FastArg,
    /// Element stride in words.
    pub(crate) stride: i64,
}

/// The operands of [`Instr::BranchIfIdxCmp`], `if (base[idx] OP rhs)`,
/// kept in [`BcModule::idx_conds`] so that [`Instr`] stays compact.
/// The three charges sit between the instruction's three trap points,
/// in the tree walker's order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdxCond {
    /// The comparison (any binary) operator.
    pub(crate) op: BinOp,
    /// The left operand's load.
    pub(crate) load: IdxLoad,
    /// Leaf right-hand operand.
    pub(crate) rhs: FastArg,
    /// Charged before the index conversion: `branch` + the index leaf.
    pub(crate) pre_cost: u32,
    /// Charged after it, before the load: `int_alu + mem_access`.
    pub(crate) load_cost: u32,
    /// Charged after the load, before the compare: the right leaf and
    /// the operator.
    pub(crate) cmp_cost: u32,
}

/// One bytecode instruction. Jump operands are absolute indices into
/// [`BcModule::code`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    /// Push an integer constant.
    PushI(i64),
    /// Push a float constant.
    PushF(f64),
    /// Push a function reference.
    PushFn(u32),
    /// Push `Uninit` (missing return value).
    PushUninit,
    /// Discard the top of the operand stack (expression statements).
    Pop,
    /// Read a frame slot (charges `var_access`).
    ReadLocal(u32),
    /// Read a global cell (charges `mem_access`).
    ReadGlobal(u32),
    /// Pop an address, load through it (charges `mem_access`).
    ReadMem,
    /// Fused `PtrAdd` + `ReadMem`: pop index and base, load through
    /// `base + idx * stride`. `cost` pre-sums `int_alu + mem_access`;
    /// no observable point separates the two charges, and the computed
    /// address is statically a pointer.
    PtrAddRead {
        /// Element stride in words.
        stride: i64,
        /// Pre-resolved `int_alu + mem_access`.
        cost: u32,
    },
    /// Fully fused indexed load `base[idx]` where the base is the
    /// address of a frame or global cell and the index is a leaf:
    /// replaces `AddrLocal`/`AddrGlobal` + leaf + `PtrAdd` + `ReadMem`.
    /// `pre_cost` is charged before the index's integer conversion (the
    /// leaf's access charge), `post_cost` after it (`int_alu +
    /// mem_access`), so cycle totals at every trap point match the
    /// unfused sequence.
    ReadIdx {
        /// The load.
        load: IdxLoad,
        /// Charged before the index conversion (leaf access charge).
        pre_cost: u32,
        /// Charged after it (`int_alu + mem_access`).
        post_cost: u32,
    },
    /// Push the address of a frame cell.
    AddrLocal(u32),
    /// Push the address of a global cell.
    AddrGlobal(u32),
    /// Assert the top of stack is a pointer (normalizing `Int(0)` to the
    /// null pointer), trapping otherwise — the tree-walker's eager
    /// `.as_ptr()?` on base addresses.
    CheckPtr,
    /// Pop index and base, push `base + idx * stride` (charges `int_alu`).
    PtrAdd(i64),
    /// Pop two pointers, push `(a - b) / stride` (charges `int_alu`).
    PtrDiff(i64),
    /// Unary operator with its pre-resolved cycle cost.
    Unary(UnOp, u64),
    /// Binary operator with its pre-resolved cycle cost.
    Binary(BinOp, u64),
    /// Fused binary over two leaf operands: both operand charges and the
    /// operation charge are pre-summed into `cost`. Equivalent to the
    /// unfused sequence — no budget check or probe can observe the
    /// intermediate cycle counts, and leaf reads cannot trap.
    BinaryFast {
        /// The operator.
        op: BinOp,
        /// Left operand.
        a: FastArg,
        /// Right operand.
        b: FastArg,
        /// Pre-resolved total cycle cost.
        cost: u64,
    },
    /// Pop a value, push its truthiness as `Int` (logic tail).
    Truthy,
    /// Charge a pre-resolved cycle cost (one `branch`, before
    /// conditions).
    Tick(u64),
    /// Short-circuit `&&`/`||`: pop the left value; if it decides the
    /// result, push it (as 0/1) and jump to `end`, else fall through to
    /// the right operand.
    ShortCircuit {
        /// true = `&&`, false = `||`.
        and: bool,
        /// Jump target when decided.
        end: u32,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy (ternary / `for` conditions).
    JumpIfFalse(u32),
    /// Pop; jump when truthy (`do..while` back edge).
    JumpIfTrue(u32),
    /// Fused `for`/ternary condition: `Tick(branch)`, [`Instr::BinaryFast`],
    /// and [`Instr::JumpIfFalse`] in one step. `cost` pre-sums the branch
    /// charge with the operand and operator charges — no budget check or
    /// probe can observe the intermediate counts, and leaf reads cannot
    /// trap, so trap and cycle order are unchanged.
    JumpIfFalseCmp {
        /// The comparison (any binary) operator.
        op: BinOp,
        /// Left operand.
        a: FastArg,
        /// Right operand.
        b: FastArg,
        /// Pre-resolved total cycle cost (branch + operands + op).
        cost: u32,
        /// Jump target when falsy.
        target: u32,
    },
    /// Fused `do..while` back edge: `Tick(branch)` + [`Instr::BinaryFast`]
    /// + [`Instr::JumpIfTrue`].
    JumpIfTrueCmp {
        /// The comparison (any binary) operator.
        op: BinOp,
        /// Left operand.
        a: FastArg,
        /// Right operand.
        b: FastArg,
        /// Pre-resolved total cycle cost (branch + operands + op).
        cost: u32,
        /// Jump target when truthy.
        target: u32,
    },
    /// `if` condition: pop, count taken/untaken, jump to `else_target`
    /// when untaken.
    BranchIf {
        /// Dense branch-counter pair index.
        branch_idx: u32,
        /// Jump target when the condition is false.
        else_target: u32,
    },
    /// Fused `if` condition: `Tick(branch)` + [`Instr::BinaryFast`] +
    /// [`Instr::BranchIf`].
    BranchIfCmp {
        /// The comparison (any binary) operator.
        op: BinOp,
        /// Left operand.
        a: FastArg,
        /// Right operand.
        b: FastArg,
        /// Pre-resolved total cycle cost (branch + operands + op).
        cost: u32,
        /// Dense branch-counter pair index.
        branch_idx: u32,
        /// Jump target when the condition is false.
        else_target: u32,
    },
    /// Fused `if (base[idx] OP rhs)`: the sequence `Tick(branch)`,
    /// [`Instr::ReadIdx`], the right leaf, [`Instr::Binary`] and
    /// [`Instr::BranchIf`] in one step. The index conversion, the load
    /// and the compare may each trap; the charges between them follow
    /// [`IdxCond`].
    BranchIfIdxCmp {
        /// Index into [`BcModule::idx_conds`].
        cond: u32,
        /// Dense branch-counter pair index.
        branch_idx: u32,
        /// Jump target when the condition is false.
        else_target: u32,
    },
    /// `while` head: cycle-budget check + pre-resolved
    /// `branch + loop_overhead`.
    WhileHead(u64),
    /// `while` condition outcome: pop; on true count the iteration and
    /// fall through, on false jump to `end`.
    LoopCond {
        /// Dense loop-counter index.
        loop_idx: u32,
        /// Jump target on loop exit.
        end: u32,
    },
    /// Fused `while`/`for` head over a leaf compare: the cycle-budget
    /// check, then one charge pre-summing `loop_overhead + branch` with
    /// the operand and operator charges, the compare, and on true the
    /// iteration count. Replaces `WhileHead` + [`Instr::LoopCond`] and
    /// `ForHead` + [`Instr::JumpIfFalseCmp`] + `LoopCount`.
    LoopHeadCmp {
        /// The comparison (any binary) operator.
        op: BinOp,
        /// Left operand.
        a: FastArg,
        /// Right operand.
        b: FastArg,
        /// Pre-resolved total cycle cost (overhead + branch + operands +
        /// op).
        cost: u32,
        /// Dense loop-counter index.
        loop_idx: u32,
        /// Jump target on loop exit.
        end: u32,
    },
    /// Fused `for` back edge: the `++`/`--` step of a frame slot (value
    /// discarded, as [`Instr::IncDecLocal`]), then the
    /// [`Instr::LoopHeadCmp`] at `head` run inline — budget check
    /// included, where the tree walker runs it. Emitted only after a
    /// fused head; `continue` lands here.
    LoopStep {
        /// Frame offset of the stepped variable.
        slot: u32,
        /// +1 or −1.
        delta: i64,
        /// `Some(stride)` when stepping a pointer.
        ptr_stride: Option<i64>,
        /// Write cost class.
        write_cost: WriteCost,
        /// The loop's `LoopHeadCmp`.
        head: u32,
    },
    /// `for` head: cycle-budget check + pre-resolved `loop_overhead`.
    ForHead(u64),
    /// `do..while` head: cycle-budget check + iteration count +
    /// pre-resolved `loop_overhead`.
    DoHead {
        /// Dense loop-counter index.
        loop_idx: u32,
        /// Pre-resolved `loop_overhead`.
        cost: u64,
    },
    /// Count one iteration of loop `loop_idx` (`for` loops, after the
    /// condition passes).
    LoopCount(u32),
    /// Local declaration initializer: pop, coerce, charge `var_access`,
    /// store directly into the frame slot.
    DeclStore {
        /// Frame offset.
        slot: u32,
        /// Store coercion.
        coerce: Coerce,
    },
    /// Assignment: pop value then address; coerce, charge the write,
    /// store, push the stored value.
    Store {
        /// Store coercion.
        coerce: Coerce,
        /// Write cost class.
        write_cost: WriteCost,
    },
    /// Fused assignment to a frame slot (the address never goes through
    /// the operand stack). `keep` is false in expression-statement
    /// position, where the stored value would be popped immediately.
    StoreLocal {
        /// Frame offset.
        slot: u32,
        /// Store coercion.
        coerce: Coerce,
        /// Write cost class.
        write_cost: WriteCost,
        /// Push the stored value (expression position).
        keep: bool,
    },
    /// Compound-assignment prelude: pop the address, load the old value,
    /// push address back then the old value.
    LoadDupAddr,
    /// Compound-assignment finish: pop rhs, old, address; combine, charge,
    /// store, push the new value.
    AssignOpFin {
        /// The arithmetic operator.
        op: BinOp,
        /// Pre-resolved operation cycle cost.
        cost: u64,
        /// Store coercion.
        coerce: Coerce,
        /// `Some(stride)` for pointer stepping.
        ptr_stride: Option<i64>,
        /// Write cost class.
        write_cost: WriteCost,
    },
    /// `++`/`--`: pop the address, read-modify-write, push old (postfix)
    /// or new (prefix).
    IncDecFin {
        /// +1 or −1.
        delta: i64,
        /// Postfix yields the old value.
        post: bool,
        /// `Some(stride)` when stepping a pointer.
        ptr_stride: Option<i64>,
        /// Write cost class.
        write_cost: WriteCost,
    },
    /// Fused `++`/`--` of a frame slot (no address round-trip through the
    /// operand stack); otherwise identical to `IncDecFin`. `keep` is
    /// false in value-discarding position (expression statements, `for`
    /// steps), where the yielded value would be popped immediately.
    IncDecLocal {
        /// Frame offset.
        slot: u32,
        /// +1 or −1.
        delta: i64,
        /// Postfix yields the old value.
        post: bool,
        /// `Some(stride)` when stepping a pointer.
        ptr_stride: Option<i64>,
        /// Write cost class.
        write_cost: WriteCost,
        /// Push the yielded value (expression position).
        keep: bool,
    },
    /// Pop, apply a store coercion, push (call arguments, return values).
    CoerceVal(Coerce),
    /// Direct call: the callee's arguments are the top `params.len()`
    /// stack values.
    CallFunc(u32),
    /// Builtin call.
    CallBuiltin {
        /// Which builtin.
        builtin: Builtin,
        /// Argument count on the stack.
        nargs: u32,
    },
    /// Indirect call: pop the function value, then as `CallFunc`.
    CallIndirect(u32),
    /// Cast to int (charges `int_alu`).
    CastInt,
    /// Cast to float (charges `float_alu`).
    CastFloat,
    /// Pop the return value, pop the frame, resume the caller (or halt
    /// when the frame was `main`'s).
    Ret,
    /// Memo segment entry: probe the table (or forced-miss when
    /// bypassed). On a hit, restore outputs and jump to `hit_target`
    /// (pushing the memoized return value first when the segment
    /// memoizes one); on a miss/bypass, push a runtime region and fall
    /// through to the body.
    MemoEnter {
        /// Index into [`BcModule::memos`].
        id: u32,
        /// Jump target on a hit (the return stub, or past the exit).
        hit_target: u32,
    },
    /// Memo body fell through its end: read outputs, record (unless the
    /// segment memoizes a return value — then the body failed to return
    /// and nothing is recorded), pop the region.
    MemoExitNormal(u32),
    /// Memo region unwound by `return`: read outputs, append the return
    /// value (peeked from the stack) and record when the segment memoizes
    /// one, pop the region.
    MemoExitRet(u32),
    /// Memo region unwound by `break`/`continue`: read outputs (for trap
    /// parity), record nothing, pop the region.
    MemoExitBreak(u32),
    /// Profile probe entry: record the input value set and nesting, push
    /// a region with the entry cycle count.
    ProfileEnter(u32),
    /// Profile probe exit: accumulate body cycles, pop the region.
    ProfileExit(u32),
}

/// A compiled module: one flat code array plus per-function entry points
/// and side tables for memo/profile descriptors.
#[derive(Debug, Clone)]
pub(crate) struct BcModule<'m> {
    /// All functions' code, concatenated.
    pub(crate) code: Vec<Instr>,
    /// Entry pc per function (parallel to `Module::funcs`).
    pub(crate) entries: Vec<u32>,
    /// Memo descriptors referenced by `MemoEnter`/`MemoExit*` ids.
    pub(crate) memos: Vec<&'m LMemo>,
    /// Pre-resolved `memo_overhead(key_words, out_words)` per memo id.
    pub(crate) memo_cost: Vec<u64>,
    /// Profile descriptors referenced by `ProfileEnter`/`ProfileExit` ids.
    pub(crate) profiles: Vec<&'m LProfile>,
    /// Operands of the `BranchIfIdxCmp` instructions.
    pub(crate) idx_conds: Vec<IdxCond>,
    /// Per function, the deepest its own code takes the operand stack
    /// above the depth at entry (see [`stack_bound`]). A frame entry
    /// reserves this many slots, so the dispatch loop never grows the
    /// stack between calls.
    pub(crate) max_stack: Vec<u32>,
}

/// Compiles a lowered module to flat bytecode. Cycle charges are
/// resolved against `cost` at compile time (the model is fixed for the
/// lifetime of a run), so the dispatch loop adds immediates instead of
/// re-classifying operations.
pub(crate) fn compile<'m>(module: &'m Module, cost: &CostModel) -> BcModule<'m> {
    let mut bc = BcModule {
        code: Vec::new(),
        entries: Vec::with_capacity(module.funcs.len()),
        memos: Vec::new(),
        memo_cost: Vec::new(),
        profiles: Vec::new(),
        idx_conds: Vec::new(),
        max_stack: Vec::with_capacity(module.funcs.len()),
    };
    let has_profiler = !module.profile_segments.is_empty();
    for func in &module.funcs {
        let entry = bc.code.len();
        bc.entries.push(entry as u32);
        let mut cx = FnCx {
            bc: &mut bc,
            cost,
            loops: Vec::new(),
            regions: Vec::new(),
            has_profiler,
        };
        cx.block(&func.body);
        debug_assert!(cx.loops.is_empty(), "unterminated loop context");
        debug_assert!(cx.regions.is_empty(), "unterminated region context");
        // A body that falls off its end returns Uninit; using the value
        // traps, same as the tree-walker.
        cx.emit(Instr::PushUninit);
        cx.emit(Instr::Ret);
        let bound = stack_bound(&bc, module, entry);
        bc.max_stack.push(bound);
    }
    bc
}

/// Operand-stack slots an instruction pops and then pushes on its
/// fall-through path (a callee's frame is its own; its return value is
/// the call's one push).
fn stack_effect(i: &Instr, module: &Module) -> (u32, u32) {
    match i {
        Instr::PushI(..)
        | Instr::PushF(..)
        | Instr::PushFn(..)
        | Instr::PushUninit
        | Instr::ReadLocal(..)
        | Instr::ReadGlobal(..)
        | Instr::ReadIdx { .. }
        | Instr::AddrLocal(..)
        | Instr::AddrGlobal(..)
        | Instr::BinaryFast { .. } => (0, 1),
        // A decided `ShortCircuit` pushes its 0/1 on the jump path only
        // (see `stack_bound`).
        Instr::Pop
        | Instr::ShortCircuit { .. }
        | Instr::JumpIfFalse(..)
        | Instr::JumpIfTrue(..)
        | Instr::BranchIf { .. }
        | Instr::LoopCond { .. }
        | Instr::DeclStore { .. }
        | Instr::Ret => (1, 0),
        Instr::ReadMem
        | Instr::CheckPtr
        | Instr::Unary(..)
        | Instr::Truthy
        | Instr::IncDecFin { .. }
        | Instr::CoerceVal(..)
        | Instr::CastInt
        | Instr::CastFloat => (1, 1),
        Instr::PtrAddRead { .. }
        | Instr::PtrAdd(..)
        | Instr::PtrDiff(..)
        | Instr::Binary(..)
        | Instr::Store { .. } => (2, 1),
        Instr::Tick(..)
        | Instr::Jump(..)
        | Instr::JumpIfFalseCmp { .. }
        | Instr::JumpIfTrueCmp { .. }
        | Instr::BranchIfCmp { .. }
        | Instr::BranchIfIdxCmp { .. }
        | Instr::WhileHead(..)
        | Instr::LoopHeadCmp { .. }
        | Instr::LoopStep { .. }
        | Instr::ForHead(..)
        | Instr::DoHead { .. }
        | Instr::LoopCount(..)
        | Instr::MemoEnter { .. }
        | Instr::MemoExitNormal(..)
        | Instr::MemoExitRet(..)
        | Instr::MemoExitBreak(..)
        | Instr::ProfileEnter(..)
        | Instr::ProfileExit(..) => (0, 0),
        Instr::StoreLocal { keep, .. } => (1, u32::from(*keep)),
        Instr::IncDecLocal { keep, .. } => (0, u32::from(*keep)),
        Instr::LoadDupAddr => (1, 2),
        Instr::AssignOpFin { .. } => (3, 1),
        Instr::CallFunc(fid) => (module.funcs[*fid as usize].params.len() as u32, 1),
        Instr::CallBuiltin { nargs, .. } => (*nargs, 1),
        Instr::CallIndirect(nargs) => (*nargs + 1, 1),
    }
}

/// Static stack-effect pass over the function whose code starts at
/// `entry` and runs to the end of `bc.code`: the deepest operand-stack
/// depth any reachable instruction sees, counted from 0 at entry (a call
/// moves its arguments into the callee's frame before the callee runs).
///
/// Every reachable pc gets exactly one depth. Structured control flow
/// brings every path into a jump target at the same depth, and every
/// `Ret` at depth 1; debug builds assert both.
fn stack_bound(bc: &BcModule<'_>, module: &Module, entry: usize) -> u32 {
    let code = &bc.code[entry..];
    let mut depth: Vec<Option<u32>> = vec![None; code.len()];
    let mut work = vec![(0usize, 0u32)];
    let mut max = 0;
    while let Some((at, d)) = work.pop() {
        if let Some(seen) = depth[at] {
            debug_assert_eq!(seen, d, "operand depth differs at pc {}", entry + at);
            continue;
        }
        depth[at] = Some(d);
        max = max.max(d);
        let instr = &code[at];
        let (pops, pushes) = stack_effect(instr, module);
        debug_assert!(d >= pops, "operand stack underflow at pc {}", entry + at);
        let after = d - pops + pushes;
        let local = |t: u32| t as usize - entry;
        match instr {
            Instr::Ret => debug_assert_eq!(d, 1, "return leaves operands behind"),
            Instr::Jump(t) => work.push((local(*t), after)),
            Instr::ShortCircuit { end, .. } => {
                work.push((local(*end), d));
                work.push((at + 1, after));
            }
            Instr::MemoEnter { id, hit_target } => {
                let ret = bc.memos[*id as usize].ret.is_some();
                work.push((local(*hit_target), after + u32::from(ret)));
                work.push((at + 1, after));
            }
            // Every other jump also falls through. (`LoopStep` never
            // does, but the pc after it is its head's exit target, so
            // the walk visits nothing extra.)
            _ => {
                if let Some(t) = jump_target(instr) {
                    work.push((local(t), after));
                }
                work.push((at + 1, after));
            }
        }
    }
    max
}

/// Statically enclosing memo/profile region (for unwind emission).
#[derive(Debug, Clone, Copy)]
enum StaticRegion {
    Memo(u32),
    Profile(u32),
}

/// Per-loop compile context: where break/continue jumps get patched and
/// how many regions were open at loop entry.
struct LoopCx {
    region_depth: usize,
    break_fixups: Vec<usize>,
    continue_fixups: Vec<usize>,
}

struct FnCx<'a, 'm> {
    bc: &'a mut BcModule<'m>,
    cost: &'a CostModel,
    loops: Vec<LoopCx>,
    regions: Vec<StaticRegion>,
    has_profiler: bool,
}

/// The jump operand of `instr`, if it carries one. This is the one list
/// of jump-carrying instructions: patching, the stack-bound pass and the
/// tests all go through it, so a new jump cannot escape any of them.
fn jump_target_mut(instr: &mut Instr) -> Option<&mut u32> {
    match instr {
        Instr::Jump(t)
        | Instr::JumpIfFalse(t)
        | Instr::JumpIfTrue(t)
        | Instr::JumpIfFalseCmp { target: t, .. }
        | Instr::JumpIfTrueCmp { target: t, .. }
        | Instr::ShortCircuit { end: t, .. }
        | Instr::LoopCond { end: t, .. }
        | Instr::LoopHeadCmp { end: t, .. }
        | Instr::LoopStep { head: t, .. }
        | Instr::BranchIf { else_target: t, .. }
        | Instr::BranchIfCmp { else_target: t, .. }
        | Instr::BranchIfIdxCmp { else_target: t, .. }
        | Instr::MemoEnter { hit_target: t, .. } => Some(t),
        _ => None,
    }
}

/// [`jump_target_mut`], read-only.
fn jump_target(instr: &Instr) -> Option<u32> {
    jump_target_mut(&mut { *instr }).copied()
}

/// Patches the jump operand of `instr`.
fn set_target(instr: &mut Instr, target: u32) {
    match jump_target_mut(instr) {
        Some(t) => *t = target,
        None => unreachable!("not a patchable jump: {instr:?}"),
    }
}

impl<'m> FnCx<'_, 'm> {
    fn here(&self) -> u32 {
        self.bc.code.len() as u32
    }

    fn op_cost(&self, ck: CostKind) -> u64 {
        match ck {
            CostKind::IntAlu => self.cost.int_alu,
            CostKind::IntMul => self.cost.int_mul,
            CostKind::IntDiv => self.cost.int_div,
            CostKind::FloatAlu => self.cost.float_alu,
            CostKind::FloatMul => self.cost.float_mul,
            CostKind::FloatDiv => self.cost.float_div,
        }
    }

    /// Recognizes a leaf operand eligible for [`Instr::BinaryFast`],
    /// returning it with its evaluation charge.
    fn fast_arg(&self, e: &LExpr) -> Option<(FastArg, u64)> {
        match e {
            LExpr::ConstI(v) => Some((FastArg::I(*v), 0)),
            LExpr::ReadLocal(off) => Some((FastArg::Local(*off), self.cost.var_access)),
            _ => None,
        }
    }

    /// Recognizes a condition that is one binary over leaf operands,
    /// eligible for compare-and-branch fusion. Returns the operator, the
    /// operands, and the pre-summed evaluation charge (`extra` folds in
    /// the branch tick when the caller elides it).
    fn fuse_cond(&self, cond: &LExpr, extra: u64) -> Option<(BinOp, FastArg, FastArg, u32)> {
        if let LExpr::Binary(op, a, b, ck) = cond {
            if let (Some((fa, ca)), Some((fb, cb))) = (self.fast_arg(a), self.fast_arg(b)) {
                let cost = extra + ca + cb + self.op_cost(*ck);
                let cost = u32::try_from(cost).expect("fused condition cost fits in u32");
                return Some((*op, fa, fb, cost));
            }
        }
        None
    }

    /// The fused head of a `while` or `for` loop whose condition is a
    /// leaf compare: the tree walker charges `loop_overhead + branch`
    /// right after the budget check, then evaluates the condition.
    fn loop_head(&self, cond: &LExpr, loop_idx: u32) -> Option<Instr> {
        let extra = self.cost.loop_overhead + self.cost.branch;
        let (op, a, b, cost) = self.fuse_cond(cond, extra)?;
        Some(Instr::LoopHeadCmp {
            op,
            a,
            b,
            cost,
            loop_idx,
            end: 0,
        })
    }

    /// Recognizes the address `base + idx * stride` of an [`IdxLoad`],
    /// returning it with the index leaf's evaluation charge.
    fn idx_load(&self, addr: &LExpr) -> Option<(IdxLoad, u64)> {
        let LExpr::PtrAdd(base, idx, stride) = addr else {
            return None;
        };
        let (global, base) = match &**base {
            LExpr::AddrGlobal(a) => (true, *a),
            LExpr::AddrLocal(off) => (false, *off),
            _ => return None,
        };
        let (idx, ci) = self.fast_arg(idx)?;
        let load = IdxLoad {
            global,
            base,
            idx,
            stride: *stride,
        };
        Some((load, ci))
    }

    /// Recognizes an `if` condition `base[idx] OP rhs` over an
    /// [`IdxLoad`] and a leaf, eligible for [`Instr::BranchIfIdxCmp`].
    fn fuse_idx_cond(&self, cond: &LExpr) -> Option<IdxCond> {
        let LExpr::Binary(op, lhs, rhs, ck) = cond else {
            return None;
        };
        let LExpr::ReadMem(addr) = &**lhs else {
            return None;
        };
        let (load, ci) = self.idx_load(addr)?;
        let (rhs, cr) = self.fast_arg(rhs)?;
        let fits = |c: u64| u32::try_from(c).expect("fused condition cost fits in u32");
        Some(IdxCond {
            op: *op,
            load,
            rhs,
            pre_cost: fits(self.cost.branch + ci),
            load_cost: fits(self.cost.int_alu + self.cost.mem_access),
            cmp_cost: fits(cr + self.op_cost(*ck)),
        })
    }

    /// Emits a `CheckPtr` for a base-address expression unless it
    /// statically evaluates to a `Ptr` value, on which `CheckPtr` charges
    /// nothing and can never trap.
    fn check_ptr(&mut self, base: &LExpr) {
        if !matches!(
            base,
            LExpr::AddrLocal(_) | LExpr::AddrGlobal(_) | LExpr::PtrAdd(..)
        ) {
            self.emit(Instr::CheckPtr);
        }
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.bc.code.push(i);
        self.bc.code.len() - 1
    }

    /// Patches the jump at `at` to land on the next emitted instruction.
    fn patch_here(&mut self, at: usize) {
        let target = self.here();
        set_target(&mut self.bc.code[at], target);
    }

    fn patch_to(&mut self, at: usize, target: u32) {
        set_target(&mut self.bc.code[at], target);
    }

    /// Emits region exits for a `break`/`continue` leaving every region
    /// opened inside the innermost loop, innermost region first — the
    /// order `Flow::Break`/`Flow::Continue` unwinds the tree-walker.
    fn emit_loop_unwind(&mut self, region_depth: usize) {
        let tail: Vec<StaticRegion> = self.regions[region_depth..].to_vec();
        for r in tail.into_iter().rev() {
            match r {
                StaticRegion::Memo(id) => self.emit(Instr::MemoExitBreak(id)),
                StaticRegion::Profile(id) => self.emit(Instr::ProfileExit(id)),
            };
        }
    }

    /// Emits region exits for a `return` leaving every open region of the
    /// current function, innermost first.
    fn emit_return_unwind(&mut self) {
        let tail: Vec<StaticRegion> = self.regions.clone();
        for r in tail.into_iter().rev() {
            match r {
                StaticRegion::Memo(id) => self.emit(Instr::MemoExitRet(id)),
                StaticRegion::Profile(id) => self.emit(Instr::ProfileExit(id)),
            };
        }
    }

    fn block(&mut self, stmts: &'m [LStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    /// Compiles an expression in value-discarding position (expression
    /// statements, `for` steps): plain stores and `++`/`--` of locals
    /// fuse away the push+`Pop` round trip.
    fn expr_discard(&mut self, e: &'m LExpr) {
        match e {
            LExpr::Assign {
                place: LPlace::Local(slot),
                value,
                coerce,
                write_cost,
            } => {
                self.expr(value);
                self.emit(Instr::StoreLocal {
                    slot: *slot,
                    coerce: *coerce,
                    write_cost: *write_cost,
                    keep: false,
                });
            }
            LExpr::IncDec {
                place: LPlace::Local(slot),
                delta,
                post,
                ptr_stride,
                write_cost,
            } => {
                self.emit(Instr::IncDecLocal {
                    slot: *slot,
                    delta: *delta,
                    post: *post,
                    ptr_stride: *ptr_stride,
                    write_cost: *write_cost,
                    keep: false,
                });
            }
            _ => {
                self.expr(e);
                self.emit(Instr::Pop);
            }
        }
    }

    fn stmt(&mut self, s: &'m LStmt) {
        match s {
            LStmt::Expr(e) => self.expr_discard(e),
            LStmt::Decl { slot, init } => {
                if let Some((e, coerce)) = init {
                    self.expr(e);
                    self.emit(Instr::DeclStore {
                        slot: *slot,
                        coerce: *coerce,
                    });
                }
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
                branch_idx,
            } => {
                let bi = if let Some((op, a, b, cost)) = self.fuse_cond(cond, self.cost.branch) {
                    self.emit(Instr::BranchIfCmp {
                        op,
                        a,
                        b,
                        cost,
                        branch_idx: *branch_idx,
                        else_target: 0,
                    })
                } else if let Some(ic) = self.fuse_idx_cond(cond) {
                    let id = self.bc.idx_conds.len() as u32;
                    self.bc.idx_conds.push(ic);
                    self.emit(Instr::BranchIfIdxCmp {
                        cond: id,
                        branch_idx: *branch_idx,
                        else_target: 0,
                    })
                } else {
                    self.emit(Instr::Tick(self.cost.branch));
                    self.expr(cond);
                    self.emit(Instr::BranchIf {
                        branch_idx: *branch_idx,
                        else_target: 0,
                    })
                };
                self.block(then_blk);
                if else_blk.is_empty() {
                    self.patch_here(bi);
                } else {
                    let j = self.emit(Instr::Jump(0));
                    self.patch_here(bi);
                    self.block(else_blk);
                    self.patch_here(j);
                }
            }
            LStmt::While {
                cond,
                body,
                loop_idx,
            } => {
                let top = self.here();
                let lc = if let Some(head) = self.loop_head(cond, *loop_idx) {
                    self.emit(head)
                } else {
                    self.emit(Instr::WhileHead(self.cost.branch + self.cost.loop_overhead));
                    self.expr(cond);
                    self.emit(Instr::LoopCond {
                        loop_idx: *loop_idx,
                        end: 0,
                    })
                };
                self.loops.push(LoopCx {
                    region_depth: self.regions.len(),
                    break_fixups: Vec::new(),
                    continue_fixups: Vec::new(),
                });
                self.block(body);
                self.emit(Instr::Jump(top));
                let lp = self.loops.pop().expect("loop context");
                let end = self.here();
                self.patch_to(lc, end);
                for f in lp.break_fixups {
                    self.patch_to(f, end);
                }
                // `continue` re-enters at the head (budget check + costs),
                // matching the tree-walker's next-iteration semantics.
                for f in lp.continue_fixups {
                    self.patch_to(f, top);
                }
            }
            LStmt::DoWhile {
                body,
                cond,
                loop_idx,
            } => {
                let top = self.here();
                self.emit(Instr::DoHead {
                    loop_idx: *loop_idx,
                    cost: self.cost.loop_overhead,
                });
                self.loops.push(LoopCx {
                    region_depth: self.regions.len(),
                    break_fixups: Vec::new(),
                    continue_fixups: Vec::new(),
                });
                self.block(body);
                let lp = self.loops.pop().expect("loop context");
                let cont = self.here();
                if let Some((op, a, b, cost)) = self.fuse_cond(cond, self.cost.branch) {
                    self.emit(Instr::JumpIfTrueCmp {
                        op,
                        a,
                        b,
                        cost,
                        target: top,
                    });
                } else {
                    self.emit(Instr::Tick(self.cost.branch));
                    self.expr(cond);
                    self.emit(Instr::JumpIfTrue(top));
                }
                let end = self.here();
                for f in lp.break_fixups {
                    self.patch_to(f, end);
                }
                for f in lp.continue_fixups {
                    self.patch_to(f, cont);
                }
            }
            LStmt::For {
                init,
                cond,
                step,
                body,
                loop_idx,
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                let top = self.here();
                let fused_head = cond.as_ref().and_then(|c| self.loop_head(c, *loop_idx));
                let fused = fused_head.is_some();
                let cond_fix = if let Some(head) = fused_head {
                    Some(self.emit(head))
                } else {
                    self.emit(Instr::ForHead(self.cost.loop_overhead));
                    let fix = cond.as_ref().map(|cond| {
                        self.emit(Instr::Tick(self.cost.branch));
                        self.expr(cond);
                        self.emit(Instr::JumpIfFalse(0))
                    });
                    self.emit(Instr::LoopCount(*loop_idx));
                    fix
                };
                self.loops.push(LoopCx {
                    region_depth: self.regions.len(),
                    break_fixups: Vec::new(),
                    continue_fixups: Vec::new(),
                });
                self.block(body);
                let lp = self.loops.pop().expect("loop context");
                let cont = self.here();
                match step {
                    Some(LExpr::IncDec {
                        place: LPlace::Local(slot),
                        delta,
                        ptr_stride,
                        write_cost,
                        ..
                    }) if fused => {
                        self.emit(Instr::LoopStep {
                            slot: *slot,
                            delta: *delta,
                            ptr_stride: *ptr_stride,
                            write_cost: *write_cost,
                            head: top,
                        });
                    }
                    _ => {
                        if let Some(step) = step {
                            self.expr_discard(step);
                        }
                        self.emit(Instr::Jump(top));
                    }
                }
                let end = self.here();
                if let Some(cf) = cond_fix {
                    self.patch_to(cf, end);
                }
                for f in lp.break_fixups {
                    self.patch_to(f, end);
                }
                for f in lp.continue_fixups {
                    self.patch_to(f, cont);
                }
            }
            LStmt::Seq(stmts) => self.block(stmts),
            LStmt::Break => {
                let depth = self
                    .loops
                    .last()
                    .expect("break outside loop rejected by sema")
                    .region_depth;
                self.emit_loop_unwind(depth);
                let j = self.emit(Instr::Jump(0));
                self.loops
                    .last_mut()
                    .expect("loop context")
                    .break_fixups
                    .push(j);
            }
            LStmt::Continue => {
                let depth = self
                    .loops
                    .last()
                    .expect("continue outside loop rejected by sema")
                    .region_depth;
                self.emit_loop_unwind(depth);
                let j = self.emit(Instr::Jump(0));
                self.loops
                    .last_mut()
                    .expect("loop context")
                    .continue_fixups
                    .push(j);
            }
            LStmt::Return(v) => {
                match v {
                    None => {
                        self.emit(Instr::PushUninit);
                    }
                    Some((e, coerce)) => {
                        self.expr(e);
                        if *coerce != Coerce::None {
                            self.emit(Instr::CoerceVal(*coerce));
                        }
                    }
                }
                self.emit_return_unwind();
                self.emit(Instr::Ret);
            }
            LStmt::Memo(m) => self.memo(m),
            LStmt::Profile(p) => self.profile(p),
        }
    }

    fn memo(&mut self, m: &'m LMemo) {
        let id = self.bc.memos.len() as u32;
        self.bc.memos.push(m);
        self.bc.memo_cost.push(
            self.cost
                .memo_overhead(m.key_words as usize, m.out_words as usize),
        );
        let enter = self.emit(Instr::MemoEnter { id, hit_target: 0 });
        self.regions.push(StaticRegion::Memo(id));
        self.block(&m.body);
        self.regions.pop();
        self.emit(Instr::MemoExitNormal(id));
        if m.ret.is_some() {
            // A hit restores the return value onto the stack and jumps to
            // this stub, which unwinds the *enclosing* regions and
            // returns — `Flow::Return` propagation from the hit path.
            let skip = self.emit(Instr::Jump(0));
            let stub = self.here();
            self.emit_return_unwind();
            self.emit(Instr::Ret);
            self.patch_here(skip);
            self.patch_to(enter, stub);
        } else {
            self.patch_here(enter);
        }
    }

    fn profile(&mut self, p: &'m LProfile) {
        if !self.has_profiler {
            // No probes in the module: Profile statements cannot occur,
            // but lowering is defensive — run the body uninstrumented,
            // exactly as the tree-walker's `profiler.is_none()` path.
            self.block(&p.body);
            return;
        }
        let id = self.bc.profiles.len() as u32;
        self.bc.profiles.push(p);
        self.emit(Instr::ProfileEnter(id));
        self.regions.push(StaticRegion::Profile(id));
        self.block(&p.body);
        self.regions.pop();
        self.emit(Instr::ProfileExit(id));
    }

    fn place(&mut self, p: &'m LPlace) {
        match p {
            LPlace::Local(off) => {
                self.emit(Instr::AddrLocal(*off));
            }
            LPlace::Global(a) => {
                self.emit(Instr::AddrGlobal(*a));
            }
            LPlace::Mem(e) => {
                // The tree-walker resolves the address (and traps on a
                // non-pointer) before evaluating the stored value.
                self.expr(e);
                self.check_ptr(e);
            }
        }
    }

    fn expr(&mut self, e: &'m LExpr) {
        match e {
            LExpr::ConstI(v) => {
                self.emit(Instr::PushI(*v));
            }
            LExpr::ConstF(v) => {
                self.emit(Instr::PushF(*v));
            }
            LExpr::ConstFn(f) => {
                self.emit(Instr::PushFn(*f));
            }
            LExpr::ReadLocal(off) => {
                self.emit(Instr::ReadLocal(*off));
            }
            LExpr::ReadGlobal(a) => {
                self.emit(Instr::ReadGlobal(*a));
            }
            LExpr::ReadMem(addr) => {
                let alu_mem = self.cost.int_alu + self.cost.mem_access;
                let alu_mem = u32::try_from(alu_mem).expect("access cost fits in u32");
                if let Some((load, ci)) = self.idx_load(addr) {
                    self.emit(Instr::ReadIdx {
                        load,
                        pre_cost: u32::try_from(ci).expect("leaf cost fits in u32"),
                        post_cost: alu_mem,
                    });
                    return;
                }
                if let LExpr::PtrAdd(base, idx, stride) = &**addr {
                    self.expr(base);
                    self.check_ptr(base);
                    self.expr(idx);
                    self.emit(Instr::PtrAddRead {
                        stride: *stride,
                        cost: alu_mem,
                    });
                    return;
                }
                self.expr(addr);
                self.emit(Instr::ReadMem);
            }
            LExpr::AddrLocal(off) => {
                self.emit(Instr::AddrLocal(*off));
            }
            LExpr::AddrGlobal(a) => {
                self.emit(Instr::AddrGlobal(*a));
            }
            LExpr::PtrAdd(base, idx, stride) => {
                self.expr(base);
                self.check_ptr(base);
                self.expr(idx);
                self.emit(Instr::PtrAdd(*stride));
            }
            LExpr::PtrDiff(a, b, stride) => {
                self.expr(a);
                self.check_ptr(a);
                self.expr(b);
                self.emit(Instr::PtrDiff(*stride));
            }
            LExpr::Unary(op, a, ck) => {
                self.expr(a);
                let c = self.op_cost(*ck);
                self.emit(Instr::Unary(*op, c));
            }
            LExpr::Binary(op, a, b, ck) => {
                if let (Some((fa, ca)), Some((fb, cb))) = (self.fast_arg(a), self.fast_arg(b)) {
                    let cost = ca + cb + self.op_cost(*ck);
                    self.emit(Instr::BinaryFast {
                        op: *op,
                        a: fa,
                        b: fb,
                        cost,
                    });
                    return;
                }
                self.expr(a);
                self.expr(b);
                let c = self.op_cost(*ck);
                self.emit(Instr::Binary(*op, c));
            }
            LExpr::Logic { and, a, b } => {
                self.emit(Instr::Tick(self.cost.branch));
                self.expr(a);
                let sc = self.emit(Instr::ShortCircuit { and: *and, end: 0 });
                self.expr(b);
                self.emit(Instr::Truthy);
                self.patch_here(sc);
            }
            LExpr::Ternary(c, t, f) => {
                let jf = if let Some((op, a, b, cost)) = self.fuse_cond(c, self.cost.branch) {
                    self.emit(Instr::JumpIfFalseCmp {
                        op,
                        a,
                        b,
                        cost,
                        target: 0,
                    })
                } else {
                    self.emit(Instr::Tick(self.cost.branch));
                    self.expr(c);
                    self.emit(Instr::JumpIfFalse(0))
                };
                self.expr(t);
                let j = self.emit(Instr::Jump(0));
                self.patch_here(jf);
                self.expr(f);
                self.patch_here(j);
            }
            LExpr::Assign {
                place,
                value,
                coerce,
                write_cost,
            } => {
                if let LPlace::Local(slot) = place {
                    self.expr(value);
                    self.emit(Instr::StoreLocal {
                        slot: *slot,
                        coerce: *coerce,
                        write_cost: *write_cost,
                        keep: true,
                    });
                    return;
                }
                self.place(place);
                self.expr(value);
                self.emit(Instr::Store {
                    coerce: *coerce,
                    write_cost: *write_cost,
                });
            }
            LExpr::AssignOp {
                op,
                place,
                value,
                cost,
                coerce,
                ptr_stride,
                write_cost,
            } => {
                self.place(place);
                self.emit(Instr::LoadDupAddr);
                self.expr(value);
                let c = self.op_cost(*cost);
                self.emit(Instr::AssignOpFin {
                    op: *op,
                    cost: c,
                    coerce: *coerce,
                    ptr_stride: *ptr_stride,
                    write_cost: *write_cost,
                });
            }
            LExpr::IncDec {
                place,
                delta,
                post,
                ptr_stride,
                write_cost,
            } => {
                if let LPlace::Local(slot) = place {
                    self.emit(Instr::IncDecLocal {
                        slot: *slot,
                        delta: *delta,
                        post: *post,
                        ptr_stride: *ptr_stride,
                        write_cost: *write_cost,
                        keep: true,
                    });
                    return;
                }
                self.place(place);
                self.emit(Instr::IncDecFin {
                    delta: *delta,
                    post: *post,
                    ptr_stride: *ptr_stride,
                    write_cost: *write_cost,
                });
            }
            LExpr::Call { callee, args } => {
                for (a, coerce) in args {
                    self.expr(a);
                    if *coerce != Coerce::None {
                        self.emit(Instr::CoerceVal(*coerce));
                    }
                }
                match callee {
                    LCallee::Func(fid) => {
                        self.emit(Instr::CallFunc(*fid));
                    }
                    LCallee::Builtin(b) => {
                        self.emit(Instr::CallBuiltin {
                            builtin: *b,
                            nargs: args.len() as u32,
                        });
                    }
                    LCallee::Ptr(e) => {
                        // The callee expression evaluates after the
                        // arguments, as in the tree-walker.
                        self.expr(e);
                        self.emit(Instr::CallIndirect(args.len() as u32));
                    }
                }
            }
            LExpr::CastInt(a) => {
                self.expr(a);
                self.emit(Instr::CastInt);
            }
            LExpr::CastFloat(a) => {
                self.expr(a);
                self.emit(Instr::CastFloat);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_src(src: &str) -> (Module, usize) {
        let checked = minic::compile(src).expect("compiles");
        let module = crate::lower::lower(&checked);
        let n = compile(&module, &CostModel::o0()).code.len();
        (module, n)
    }

    #[test]
    fn straight_line_compiles_compactly() {
        let (_, n) = compile_src("int main() { return 1 + 2; }");
        // PushI, PushI, Binary, Ret (+ implicit PushUninit/Ret tail).
        assert!(n <= 8, "unexpected code size {n}");
    }

    #[test]
    fn jumps_are_patched() {
        let checked = minic::compile(
            "int main() { int i; int s; s = 0; for (i = 0; i < 3; i++) { s = s + i; } return s; }",
        )
        .expect("compiles");
        let module = crate::lower::lower(&checked);
        let bc = compile(&module, &CostModel::o0());
        let mut jumps = 0;
        for (i, ins) in bc.code.iter().enumerate() {
            let Some(t) = jump_target(ins) else { continue };
            jumps += 1;
            assert!(
                (t as usize) < bc.code.len(),
                "instr {i} jumps out of bounds to {t}"
            );
        }
        assert!(jumps > 0, "the loop compiled without a jump");
    }

    /// The names of `f`'s instructions, in code order.
    fn shapes(src: &str, f: usize) -> Vec<String> {
        let checked = minic::compile(src).expect("compiles");
        let module = crate::lower::lower(&checked);
        let bc = compile(&module, &CostModel::o0());
        let start = bc.entries[f] as usize;
        let end = bc.entries.get(f + 1).map_or(bc.code.len(), |&e| e as usize);
        bc.code[start..end]
            .iter()
            .map(|i| {
                let name = format!("{i:?}");
                let cut = name.find([' ', '(']).unwrap_or(name.len());
                name[..cut].to_string()
            })
            .collect()
    }

    /// The loop-control and branch instructions among `shapes`.
    fn control(shapes: &[String]) -> Vec<&str> {
        const CONTROL: [&str; 12] = [
            "LoopHeadCmp",
            "LoopStep",
            "BranchIfIdxCmp",
            "BranchIfCmp",
            "BranchIf",
            "ForHead",
            "WhileHead",
            "LoopCount",
            "LoopCond",
            "JumpIfFalse",
            "JumpIfFalseCmp",
            "Jump",
        ];
        shapes
            .iter()
            .map(String::as_str)
            .filter(|s| CONTROL.contains(s))
            .collect()
    }

    #[test]
    fn loop_control_and_indexed_ifs_fuse() {
        let fused = shapes(
            "int a[8];
             int main() { int i; int n = 8; int s = 0;
                 for (i = 0; i < n; i++) if (a[i] != 0) s++;
                 return s; }",
            0,
        );
        assert_eq!(
            control(&fused),
            ["LoopHeadCmp", "BranchIfIdxCmp", "LoopStep"]
        );
        let down = shapes(
            "int main() { int i; int s = 0; int b[4];
                 for (i = 3; i >= 0; i--) { b[i] = i; if (b[i] > 1) continue; s++; }
                 return s; }",
            0,
        );
        assert_eq!(
            control(&down),
            ["LoopHeadCmp", "BranchIfIdxCmp", "Jump", "LoopStep"]
        );
        let wh = shapes(
            "int main() { int i = 0; int n = 5; while (i < n) i = i + 1; return i; }",
            0,
        );
        assert_eq!(control(&wh), ["LoopHeadCmp", "Jump"]);
    }

    #[test]
    fn unfusible_loops_keep_the_plain_sequence() {
        // A condition that is not a leaf compare keeps the head apart.
        let call = shapes(
            "int f(int n) { return n; }
             int main() { int i; int n = 4; int s = 0;
                 for (i = 0; i < f(n); i++) s = s + i;
                 return s; }",
            1,
        );
        assert_eq!(
            control(&call),
            ["ForHead", "JumpIfFalse", "LoopCount", "Jump"]
        );
        assert!(call.iter().any(|s| s == "IncDecLocal"));
        // A step that is not `++`/`--` keeps its store and back jump.
        let step = shapes(
            "int main() { int i; int s = 0; for (i = 0; i < 9; i += 2) s++; return s; }",
            0,
        );
        assert_eq!(control(&step), ["LoopHeadCmp", "Jump"]);
        assert!(step.iter().any(|s| s == "AssignOpFin"));
        let wh = shapes(
            "int f(int n) { return n; }
             int main() { int i = 0; while (i < f(3)) i++; return i; }",
            1,
        );
        assert_eq!(control(&wh), ["WhileHead", "LoopCond", "Jump"]);
    }

    #[test]
    fn every_function_gets_an_entry() {
        let checked = minic::compile(
            "int add(int a, int b) { return a + b; } int main() { return add(40, 2); }",
        )
        .expect("compiles");
        let module = crate::lower::lower(&checked);
        let bc = compile(&module, &CostModel::o0());
        assert_eq!(bc.entries.len(), module.funcs.len());
        let mut sorted = bc.entries.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), bc.entries.len(), "entries must be distinct");
    }

    #[test]
    fn stack_bound_counts_arguments_and_results() {
        let checked = minic::compile(
            "int f(int a, int b, int c) { return a * b + c; }
             int main() { int x = 2; return f(x, x + 1, f(1, 2, 3)) + x * 4; }",
        )
        .expect("compiles");
        let module = crate::lower::lower(&checked);
        let bc = compile(&module, &CostModel::o0());
        // main: x, (x+1), 1, 2, 3 are live at once before the inner call.
        assert_eq!(bc.max_stack[module.main as usize], 5);
        // f: `a * b` fuses to one push, then `c`.
        let f = (0..module.funcs.len()).find(|&i| i != module.main as usize);
        assert_eq!(bc.max_stack[f.expect("f")], 2);
    }
}

#[cfg(test)]
mod size_probe {
    /// Dispatch reads one `Instr` per step; keeping the enum within 48
    /// bytes (the widest pre-fusion variant) bounds cache traffic in the
    /// hot loop. Fused variants use `u32` costs to stay inside this.
    #[test]
    fn instr_stays_compact() {
        assert!(
            std::mem::size_of::<super::Instr>() <= 48,
            "Instr grew past 48 bytes: {}",
            std::mem::size_of::<super::Instr>()
        );
    }

    /// The operand stack and every memory cell are `Value`s: a tag word
    /// plus one 8-byte payload. A wider `Value` would add a word to every
    /// push, pop and frame access in the dispatch loop.
    #[test]
    fn value_stays_two_words() {
        assert_eq!(std::mem::size_of::<crate::value::Value>(), 16);
    }
}
