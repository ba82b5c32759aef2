//! The non-recursive bytecode dispatch loop.
//!
//! Executes a [`BcModule`] produced by [`crate::bytecode::compile`] with
//! MiniC call frames on an explicit stack (no Rust recursion, no
//! dedicated big-stack thread) and all memo/profile scratch buffers
//! preallocated on the machine, so the memo hit path — including the
//! bypassed-table forced-miss probe — performs **zero heap allocations**.
//!
//! The loop keeps its hot state in locals the compiler can hold in
//! registers: the program counter, the operand-stack pointer, the frame
//! base and the cycle counter. The operand stack is a slice indexed by
//! that pointer; every frame entry sizes it from the callee's static
//! bound ([`BcModule::max_stack`]), so a push never checks capacity. The
//! locals are written back to the machine only where out-of-line code
//! reads them: calls, returns, and memo and profile probes (DESIGN.md
//! §8d). Rarely executed instructions run out of line in `step_cold`,
//! which takes and returns that state by value, so the loop stays small
//! enough for the compiler to keep it in registers.
//!
//! Cycle/energy parity with the tree-walker is a hard contract: every
//! instruction charges exactly the cost the tree-walker charges at the
//! corresponding program point, the cycle-budget check runs at the same
//! points (call entry and loop heads), and traps fire in the same order.
//! The differential and property tests in `tests/` assert bit-for-bit
//! equal [`Outcome`]s across engines.

use crate::bytecode::{BcModule, FastArg, Instr};
use crate::cost::{cycles_to_seconds, CostModel};
use crate::deps_rt::DepRuntime;
use crate::interp::{
    binary_value, coerce_value, int_binary, make_profiler, mem_read, mem_write, read_operand_into,
    unary_value, write_operand_from, Outcome, RunConfig,
};
use crate::lower::{Module, WriteCost};
use crate::tables::TableHandles;
use crate::value::{PrintVal, Trap, Value};
use memo_runtime::TableState;
use minic::ast::BinOp;
use minic::sema::Builtin;

/// Sentinel return pc marking `main`'s frame: a `Ret` through it halts.
const HALT: u32 = u32::MAX;

/// A suspended caller: where to resume and the frame window to restore.
#[derive(Debug, Clone, Copy)]
struct FrameRec {
    ret_pc: u32,
    frame: usize,
    stack_top: usize,
}

/// A live memo/profile region. Memo regions remember whether the table
/// was armed (probed) and where their key starts in the shared arena;
/// profile regions remember the entry cycle count.
#[derive(Debug, Clone, Copy)]
struct Region {
    memo: bool,
    id: u32,
    armed: bool,
    key_start: u32,
    entry_cycles: u64,
}

/// How a `MemoEnter` probe resolved.
enum Probe {
    /// Run the body.
    Miss,
    /// Outputs restored: push the memoized return value, if the segment
    /// has one, and continue at the hit target.
    Hit(Option<Value>),
}

/// The dispatch loop's hot state, handed by value to and from
/// [`BcMachine::step_cold`].
#[derive(Debug, Clone, Copy)]
struct Regs {
    pc: u32,
    sp: usize,
    frame: usize,
    cycles: u64,
}

// The dispatch loop's primitives, shared by `exec` and `step_cold`. Each
// names the state it touches (the operand stack and its pointer, the
// frame base, the cycle counter, the machine) as arguments, because a
// module-level macro cannot see the caller's locals.

/// Pushes `v` onto the operand stack `stack` at `sp`.
macro_rules! push {
    ($stack:ident, $sp:ident, $v:expr) => {{
        let v = $v;
        $stack[$sp] = v;
        $sp += 1;
    }};
}

/// Pops the top of the operand stack `stack`.
macro_rules! pop {
    ($stack:ident, $sp:ident) => {{
        $sp -= 1;
        $stack[$sp]
    }};
}

/// Reads a fused leaf operand from `mem` in the frame at `frame`.
macro_rules! arg {
    ($mem:expr, $frame:ident, $a:expr) => {
        match $a {
            FastArg::I(v) => Value::Int(*v),
            FastArg::Local(off) => $mem[$frame + *off as usize],
        }
    };
}

/// The write charge of a [`WriteCost`] under the cost model `cost`.
macro_rules! write_charge {
    ($cost:ident, $c:expr) => {
        match $c {
            WriteCost::Var => $cost.var_access,
            WriteCost::Mem => $cost.mem_access,
        }
    };
}

/// Traps with [`Trap::CycleLimit`] once `cycles` exceeds `max`.
macro_rules! check_budget {
    ($cycles:ident, $max:expr) => {
        if $cycles > $max {
            return Err(Trap::CycleLimit);
        }
    };
}

/// Evaluates a machine method between a write-back of the `frame` and
/// `cycles` locals to the machine `m` and a reload of both, since the
/// method may read or advance them.
macro_rules! out_of_line {
    ($m:ident, $frame:ident, $cycles:ident, $e:expr) => {{
        $m.frame = $frame;
        $m.cycles = $cycles;
        let r = $e;
        $frame = $m.frame;
        $cycles = $m.cycles;
        r
    }};
}

/// Runs a compiled module to completion. Engine-agnostic setup and the
/// outcome layout match `run_on_current_thread` in `interp` exactly.
pub(crate) fn run_bc(
    module: &Module,
    bc: &BcModule<'_>,
    config: RunConfig,
) -> Result<Outcome, Trap> {
    let globals_len = module.globals.len();
    let mut mem = Vec::with_capacity(globals_len + 4096);
    mem.extend_from_slice(&module.globals);

    let profiler = make_profiler(module);

    let tables =
        crate::tables::take_handles(config.tables, config.shared_tables, module.table_count);

    let mut m = BcMachine {
        module,
        bc,
        mem,
        frame: 0,
        stack_top: globals_len,
        stack_limit: globals_len + config.stack_cells,
        depth: 0,
        max_depth: config.max_depth,
        cycles: 0,
        max_cycles: config.max_cycles,
        cost: config.cost,
        input: config.input,
        input_pos: 0,
        output: Vec::new(),
        tables,
        table_words: 0,
        func_calls: vec![0; module.funcs.len()],
        loop_counts: vec![0; module.loop_origins.len()],
        branch_counts: vec![0; module.branch_origins.len() * 2],
        profiler,
        stack: Vec::new(),
        frames: Vec::with_capacity(64),
        regions: Vec::with_capacity(16),
        key_arena: Vec::new(),
        out_scratch: Vec::new(),
        rec_scratch: Vec::new(),
        seen_scratch: Vec::new(),
        dep_rt: DepRuntime::new(module),
        fp_scratch: Vec::new(),
        validate: config.validate,
    };

    let entry = m.enter_function(module.main, &[], HALT)?;
    m.stack = grown(Vec::new(), bc.max_stack[module.main as usize] as usize);
    let ret = match m.exec(entry)? {
        Value::Int(v) => v,
        _ => 0,
    };
    let energy = config.energy.energy_joules(m.cycles, m.table_words);
    Ok(Outcome {
        output: m.output,
        ret,
        cycles: m.cycles,
        seconds: cycles_to_seconds(m.cycles),
        energy_joules: energy,
        table_words: m.table_words,
        func_calls: m.func_calls,
        loop_counts: m.loop_counts,
        branch_counts: m.branch_counts,
        tables: m.tables.into_tables(),
        profile: m.profiler,
    })
}

/// Grows the operand stack to at least `need` slots (a frame entry
/// deeper than any before it). Taking and returning the vector by value
/// keeps the caller's copy unaliased, so its pointer and length can stay
/// in registers.
#[cold]
#[inline(never)]
fn grown(mut stack: Vec<Value>, need: usize) -> Vec<Value> {
    let len = need.max(2 * stack.len());
    stack.resize(len, Value::Uninit);
    stack
}

/// [`binary_value`] with the `Int × Int` case inlined. Every other
/// operand class takes the shared path, so trap kinds and their order
/// are the tree walker's.
#[inline(always)]
fn binary(op: BinOp, x: Value, y: Value) -> Result<Value, Trap> {
    match (x, y) {
        (Value::Int(a), Value::Int(b)) => int_binary(op, a, b).map(Value::Int),
        _ => binary_value(op, x, y),
    }
}

/// Truthiness of `op(x, y)` for the compare-and-branch instructions,
/// with the same `Int × Int` fast path as [`binary`].
#[inline(always)]
fn condition(op: BinOp, x: Value, y: Value) -> Result<bool, Trap> {
    match (x, y) {
        (Value::Int(a), Value::Int(b)) => int_binary(op, a, b).map(|v| v != 0),
        _ => binary_value(op, x, y)?.truthy(),
    }
}

/// [`Value::truthy`] with the `Int` case tested first. The other kinds
/// go through a cold call, so the compiler cannot merge them back into a
/// jump table on the value kind: a condition costs one predictable
/// branch.
#[inline(always)]
fn truthy(v: Value) -> Result<bool, Trap> {
    match v {
        Value::Int(x) => Ok(x != 0),
        _ => truthy_slow(v),
    }
}

#[cold]
#[inline(never)]
fn truthy_slow(v: Value) -> Result<bool, Trap> {
    v.truthy()
}

/// Shared `++`/`--` read-modify-write (the `IncDecFin`/`IncDecLocal`
/// bodies): step the cell at `addr`, store it, and return the old and
/// new values. The caller charges `int_alu` plus the write; nothing
/// between the two charges can observe the cycle count.
#[inline(always)]
fn inc_dec(
    mem: &mut [Value],
    dep_rt: &mut DepRuntime,
    addr: usize,
    delta: i64,
    ptr_stride: Option<i64>,
) -> Result<(Value, Value), Trap> {
    let old = mem_read(mem, addr)?;
    if dep_rt.active() {
        dep_rt.note_read(addr);
    }
    let new = match (old, ptr_stride) {
        (Value::Int(v), _) => Value::Int(v.wrapping_add(delta)),
        (Value::Ptr(a), Some(stride)) => {
            Value::Ptr((a as i64).wrapping_add(delta * stride) as usize)
        }
        (Value::Float(v), _) => Value::Float(v + delta as f64),
        (Value::Uninit, _) => return Err(Trap::UninitRead),
        (_, _) => return Err(Trap::TypeConfusion("function")),
    };
    mem_write(mem, addr, new)?;
    dep_rt.note_write(addr, new);
    Ok((old, new))
}

struct BcMachine<'m, 'b> {
    module: &'m Module,
    bc: &'b BcModule<'m>,
    mem: Vec<Value>,
    /// Current frame base (absolute cell index). Like `cycles`, the
    /// dispatch loop keeps its own copy and writes it back only where
    /// out-of-line code reads it (`exec`).
    frame: usize,
    stack_top: usize,
    stack_limit: usize,
    depth: usize,
    max_depth: usize,
    cycles: u64,
    max_cycles: u64,
    cost: CostModel,
    input: Vec<i64>,
    input_pos: usize,
    output: Vec<PrintVal>,
    tables: TableHandles,
    table_words: u64,
    func_calls: Vec<u64>,
    loop_counts: Vec<u64>,
    branch_counts: Vec<u64>,
    profiler: Option<crate::profile::ProfileData>,
    /// Operand stack, at least `sp + max_stack[f]` slots long while
    /// function `f`'s frame is the innermost. The dispatch loop holds it
    /// in a local and returns it here when it stops.
    stack: Vec<Value>,
    /// Suspended callers.
    frames: Vec<FrameRec>,
    /// Live memo/profile regions, across all frames (profile nesting is
    /// observed globally, like the tree-walker's `profile_stack`).
    regions: Vec<Region>,
    /// Memo/profile key words under construction; nested regions stack
    /// their keys and truncate back on exit, so capacity is reused.
    key_arena: Vec<u64>,
    /// Reused lookup-output buffer.
    out_scratch: Vec<u64>,
    /// Reused record buffer.
    rec_scratch: Vec<u64>,
    /// Reused ancestor-dedup buffer for profile probes.
    seen_scratch: Vec<u32>,
    /// Chunk-epoch chains and recording frames for fingerprinted memos.
    dep_rt: DepRuntime,
    /// Reused fingerprint buffer (cleared per record).
    fp_scratch: Vec<u64>,
    /// Whether probes of fingerprinted segments run validation.
    validate: bool,
}

impl BcMachine<'_, '_> {
    #[inline]
    fn tick(&mut self, n: u64) {
        self.cycles += n;
    }

    #[inline]
    fn check_budget(&self) -> Result<(), Trap> {
        if self.cycles > self.max_cycles {
            Err(Trap::CycleLimit)
        } else {
            Ok(())
        }
    }

    /// Pushes a frame for `fid`, moving `args` (the caller's top
    /// operands, already popped) into it, and returns its entry pc. The
    /// caller reserves the callee's operand slots. Check/charge order
    /// matches the tree-walker's `call` exactly.
    fn enter_function(&mut self, fid: u32, args: &[Value], ret_pc: u32) -> Result<u32, Trap> {
        self.check_budget()?;
        if self.depth >= self.max_depth {
            return Err(Trap::StackOverflow);
        }
        self.depth += 1;
        self.tick(self.cost.call);
        self.func_calls[fid as usize] += 1;

        let func = &self.module.funcs[fid as usize];
        let new_base = self.stack_top;
        let new_top = new_base + func.frame as usize;
        if new_top > self.stack_limit {
            self.depth -= 1;
            return Err(Trap::StackOverflow);
        }
        if new_top > self.mem.len() {
            self.mem.resize(new_top, Value::Uninit);
        } else {
            self.mem[new_base..new_top].fill(Value::Uninit);
        }
        debug_assert_eq!(args.len(), func.params.len(), "arity checked by sema");
        self.frames.push(FrameRec {
            ret_pc,
            frame: self.frame,
            stack_top: self.stack_top,
        });
        self.frame = new_base;
        self.stack_top = new_top;
        for (&v, &(off, coerce)) in args.iter().zip(&func.params) {
            self.mem[new_base + off as usize] = coerce_value(v, coerce)?;
        }
        Ok(self.bc.entries[fid as usize])
    }

    /// Runs the dispatch loop from `entry`, with an empty operand stack
    /// and the machine's `frame`/`cycles`, until `main` returns its value.
    fn exec(&mut self, entry: u32) -> Result<Value, Trap> {
        let bc = self.bc;
        let code: &[Instr] = &bc.code;
        let cost = self.cost.clone();
        let max_cycles = self.max_cycles;
        let mut stack = std::mem::take(&mut self.stack);
        let mut pc = entry;
        let mut sp = 0;
        let mut frame = self.frame;
        let mut cycles = self.cycles;

        // A call: move the top `n` operands into `fid`'s new frame and
        // reserve the callee's operand slots above them.
        macro_rules! call {
            ($fid:expr, $n:expr) => {{
                let (fid, n) = ($fid, $n);
                sp -= n;
                pc = out_of_line!(
                    self,
                    frame,
                    cycles,
                    self.enter_function(fid, &stack[sp..sp + n], pc + 1)
                )?;
                let need = sp + bc.max_stack[fid as usize] as usize;
                if need > stack.len() {
                    stack = grown(stack, need);
                }
            }};
        }

        loop {
            let instr = &code[pc as usize];
            match instr {
                Instr::PushI(v) => {
                    push!(stack, sp, Value::Int(*v));
                    pc += 1;
                }
                Instr::PushF(v) => {
                    push!(stack, sp, Value::Float(*v));
                    pc += 1;
                }
                Instr::Pop => {
                    sp -= 1;
                    pc += 1;
                }
                Instr::ReadLocal(off) => {
                    cycles += cost.var_access;
                    push!(stack, sp, self.mem[frame + *off as usize]);
                    pc += 1;
                }
                Instr::ReadGlobal(a) => {
                    cycles += cost.mem_access;
                    let v = self.mem[*a as usize];
                    if self.dep_rt.active() {
                        self.dep_rt.note_read(*a as usize);
                    }
                    push!(stack, sp, v);
                    pc += 1;
                }
                Instr::PtrAddRead { stride, cost: c } => {
                    let i = pop!(stack, sp).as_int()?;
                    let b = pop!(stack, sp).as_ptr()?;
                    cycles += u64::from(*c);
                    let addr = (b as i64).wrapping_add(i.wrapping_mul(*stride)) as usize;
                    let v = mem_read(&self.mem, addr)?;
                    if self.dep_rt.active() {
                        self.dep_rt.note_read(addr);
                    }
                    push!(stack, sp, v);
                    pc += 1;
                }
                Instr::ReadIdx {
                    global,
                    base,
                    idx,
                    stride,
                    pre_cost,
                    post_cost,
                } => {
                    let iv = arg!(self.mem, frame, idx);
                    cycles += u64::from(*pre_cost);
                    let i = iv.as_int()?;
                    cycles += u64::from(*post_cost);
                    let b = if *global {
                        *base as usize
                    } else {
                        frame + *base as usize
                    };
                    let addr = (b as i64).wrapping_add(i.wrapping_mul(*stride)) as usize;
                    let v = mem_read(&self.mem, addr)?;
                    if self.dep_rt.active() {
                        self.dep_rt.note_read(addr);
                    }
                    push!(stack, sp, v);
                    pc += 1;
                }
                Instr::AddrLocal(off) => {
                    push!(stack, sp, Value::Ptr(frame + *off as usize));
                    pc += 1;
                }
                Instr::AddrGlobal(a) => {
                    push!(stack, sp, Value::Ptr(*a as usize));
                    pc += 1;
                }
                Instr::CheckPtr => {
                    let a = stack[sp - 1].as_ptr()?;
                    stack[sp - 1] = Value::Ptr(a);
                    pc += 1;
                }
                Instr::PtrAdd(stride) => {
                    let i = pop!(stack, sp).as_int()?;
                    let b = pop!(stack, sp).as_ptr()?;
                    cycles += cost.int_alu;
                    let delta = i.wrapping_mul(*stride);
                    push!(
                        stack,
                        sp,
                        Value::Ptr((b as i64).wrapping_add(delta) as usize)
                    );
                    pc += 1;
                }
                Instr::Binary(op, c) => {
                    let y = pop!(stack, sp);
                    let x = stack[sp - 1];
                    cycles += *c;
                    stack[sp - 1] = binary(*op, x, y)?;
                    pc += 1;
                }
                Instr::BinaryFast { op, a, b, cost: c } => {
                    let x = arg!(self.mem, frame, a);
                    let y = arg!(self.mem, frame, b);
                    cycles += *c;
                    push!(stack, sp, binary(*op, x, y)?);
                    pc += 1;
                }
                Instr::Tick(n) => {
                    cycles += *n;
                    pc += 1;
                }
                Instr::Jump(t) => pc = *t,
                Instr::JumpIfFalse(t) => {
                    if truthy(pop!(stack, sp))? {
                        pc += 1;
                    } else {
                        pc = *t;
                    }
                }
                Instr::JumpIfFalseCmp {
                    op,
                    a,
                    b,
                    cost: c,
                    target,
                } => {
                    let x = arg!(self.mem, frame, a);
                    let y = arg!(self.mem, frame, b);
                    cycles += u64::from(*c);
                    if condition(*op, x, y)? {
                        pc += 1;
                    } else {
                        pc = *target;
                    }
                }
                Instr::BranchIf {
                    branch_idx,
                    else_target,
                } => {
                    let taken = truthy(pop!(stack, sp))?;
                    let slot = (*branch_idx as usize) * 2 + usize::from(!taken);
                    self.branch_counts[slot] += 1;
                    if taken {
                        pc += 1;
                    } else {
                        pc = *else_target;
                    }
                }
                Instr::BranchIfCmp {
                    op,
                    a,
                    b,
                    cost: c,
                    branch_idx,
                    else_target,
                } => {
                    let x = arg!(self.mem, frame, a);
                    let y = arg!(self.mem, frame, b);
                    cycles += u64::from(*c);
                    let taken = condition(*op, x, y)?;
                    let slot = (*branch_idx as usize) * 2 + usize::from(!taken);
                    self.branch_counts[slot] += 1;
                    if taken {
                        pc += 1;
                    } else {
                        pc = *else_target;
                    }
                }
                Instr::WhileHead(c) => {
                    check_budget!(cycles, max_cycles);
                    cycles += *c;
                    pc += 1;
                }
                Instr::LoopCond { loop_idx, end } => {
                    if truthy(pop!(stack, sp))? {
                        self.loop_counts[*loop_idx as usize] += 1;
                        pc += 1;
                    } else {
                        pc = *end;
                    }
                }
                Instr::LoopCondCmp {
                    op,
                    a,
                    b,
                    cost: c,
                    loop_idx,
                    end,
                } => {
                    let x = arg!(self.mem, frame, a);
                    let y = arg!(self.mem, frame, b);
                    cycles += u64::from(*c);
                    if condition(*op, x, y)? {
                        self.loop_counts[*loop_idx as usize] += 1;
                        pc += 1;
                    } else {
                        pc = *end;
                    }
                }
                Instr::ForHead(c) => {
                    check_budget!(cycles, max_cycles);
                    cycles += *c;
                    pc += 1;
                }
                Instr::LoopCount(loop_idx) => {
                    self.loop_counts[*loop_idx as usize] += 1;
                    pc += 1;
                }
                Instr::DeclStore { slot, coerce } => {
                    let v = coerce_value(pop!(stack, sp), *coerce)?;
                    cycles += cost.var_access;
                    self.mem[frame + *slot as usize] = v;
                    pc += 1;
                }
                Instr::StoreLocal {
                    slot,
                    coerce,
                    write_cost,
                    keep,
                } => {
                    let v = coerce_value(pop!(stack, sp), *coerce)?;
                    cycles += write_charge!(cost, write_cost);
                    mem_write(&mut self.mem, frame + *slot as usize, v)?;
                    if *keep {
                        push!(stack, sp, v);
                    }
                    pc += 1;
                }
                Instr::IncDecLocal {
                    slot,
                    delta,
                    post,
                    ptr_stride,
                    write_cost,
                    keep,
                } => {
                    let addr = frame + *slot as usize;
                    let (old, new) =
                        inc_dec(&mut self.mem, &mut self.dep_rt, addr, *delta, *ptr_stride)?;
                    cycles += cost.int_alu + write_charge!(cost, write_cost);
                    if *keep {
                        push!(stack, sp, if *post { old } else { new });
                    }
                    pc += 1;
                }
                Instr::CoerceVal(c) => {
                    stack[sp - 1] = coerce_value(stack[sp - 1], *c)?;
                    pc += 1;
                }
                Instr::CallFunc(fid) => {
                    call!(*fid, self.module.funcs[*fid as usize].params.len());
                }
                Instr::CallIndirect(nargs) => match pop!(stack, sp) {
                    Value::Func(fid) => call!(fid, *nargs as usize),
                    Value::Uninit => return Err(Trap::UninitRead),
                    _ => return Err(Trap::NotAFunction),
                },
                Instr::Ret => {
                    // The return value stays where it is: the slot just
                    // above the caller's operands, as the call's result.
                    let fr = self.frames.pop().expect("call frame");
                    frame = fr.frame;
                    self.stack_top = fr.stack_top;
                    self.depth -= 1;
                    if fr.ret_pc == HALT {
                        self.cycles = cycles;
                        return Ok(stack[sp - 1]);
                    }
                    pc = fr.ret_pc;
                }
                _ => {
                    let r = self.step_cold(
                        instr,
                        &mut stack,
                        Regs {
                            pc,
                            sp,
                            frame,
                            cycles,
                        },
                    )?;
                    (pc, sp, frame, cycles) = (r.pc, r.sp, r.frame, r.cycles);
                }
            }
        }
    }

    /// The rarely executed instructions, out of line so that the loop in
    /// [`BcMachine::exec`] stays small enough to keep its state in
    /// registers. The state comes in and goes back by value; the operand
    /// stack is the loop's, already sized for the current frame.
    #[inline(never)]
    fn step_cold(&mut self, instr: &Instr, stack: &mut [Value], regs: Regs) -> Result<Regs, Trap> {
        let Regs {
            mut pc,
            mut sp,
            mut frame,
            mut cycles,
        } = regs;
        let cost = &self.cost;
        match instr {
            Instr::PushFn(f) => {
                push!(stack, sp, Value::Func(*f));
                pc += 1;
            }
            Instr::PushUninit => {
                push!(stack, sp, Value::Uninit);
                pc += 1;
            }
            Instr::ReadMem => {
                let a = pop!(stack, sp).as_ptr()?;
                cycles += cost.mem_access;
                let v = mem_read(&self.mem, a)?;
                if self.dep_rt.active() {
                    self.dep_rt.note_read(a);
                }
                push!(stack, sp, v);
                pc += 1;
            }
            Instr::PtrDiff(stride) => {
                let y = pop!(stack, sp).as_ptr()? as i64;
                let x = pop!(stack, sp).as_ptr()? as i64;
                cycles += cost.int_alu;
                push!(stack, sp, Value::Int((x - y) / *stride));
                pc += 1;
            }
            Instr::Unary(op, c) => {
                let v = stack[sp - 1];
                cycles += *c;
                stack[sp - 1] = unary_value(*op, v)?;
                pc += 1;
            }
            Instr::Truthy => {
                let v = truthy(stack[sp - 1])?;
                stack[sp - 1] = Value::Int(i64::from(v));
                pc += 1;
            }
            Instr::ShortCircuit { and, end } => {
                let x = truthy(pop!(stack, sp))?;
                let decided = if *and { !x } else { x };
                if decided {
                    push!(stack, sp, Value::Int(i64::from(x)));
                    pc = *end;
                } else {
                    pc += 1;
                }
            }
            Instr::JumpIfTrue(t) => {
                if truthy(pop!(stack, sp))? {
                    pc = *t;
                } else {
                    pc += 1;
                }
            }
            Instr::JumpIfTrueCmp {
                op,
                a,
                b,
                cost: c,
                target,
            } => {
                let x = arg!(self.mem, frame, a);
                let y = arg!(self.mem, frame, b);
                cycles += u64::from(*c);
                if condition(*op, x, y)? {
                    pc = *target;
                } else {
                    pc += 1;
                }
            }
            Instr::DoHead { loop_idx, cost: c } => {
                check_budget!(cycles, self.max_cycles);
                self.loop_counts[*loop_idx as usize] += 1;
                cycles += *c;
                pc += 1;
            }
            Instr::Store { coerce, write_cost } => {
                let v = pop!(stack, sp);
                let addr = stack[sp - 1].as_ptr()?;
                let v = coerce_value(v, *coerce)?;
                cycles += write_charge!(cost, write_cost);
                mem_write(&mut self.mem, addr, v)?;
                self.dep_rt.note_write(addr, v);
                stack[sp - 1] = v;
                pc += 1;
            }
            Instr::LoadDupAddr => {
                let addr = stack[sp - 1].as_ptr()?;
                let old = mem_read(&self.mem, addr)?;
                if self.dep_rt.active() {
                    self.dep_rt.note_read(addr);
                }
                stack[sp - 1] = Value::Ptr(addr);
                push!(stack, sp, old);
                pc += 1;
            }
            Instr::AssignOpFin {
                op,
                cost: c,
                coerce,
                ptr_stride,
                write_cost,
            } => {
                let rhs = pop!(stack, sp);
                let old = pop!(stack, sp);
                let addr = pop!(stack, sp).as_ptr()?;
                cycles += *c;
                let new = match ptr_stride {
                    Some(stride) => {
                        let base = old.as_ptr()? as i64;
                        let step = rhs.as_int()?.wrapping_mul(*stride);
                        let delta = if *op == BinOp::Sub { -step } else { step };
                        Value::Ptr(base.wrapping_add(delta) as usize)
                    }
                    None => coerce_value(binary(*op, old, rhs)?, *coerce)?,
                };
                cycles += write_charge!(cost, write_cost);
                mem_write(&mut self.mem, addr, new)?;
                self.dep_rt.note_write(addr, new);
                push!(stack, sp, new);
                pc += 1;
            }
            Instr::IncDecFin {
                delta,
                post,
                ptr_stride,
                write_cost,
            } => {
                let addr = pop!(stack, sp).as_ptr()?;
                let (old, new) =
                    inc_dec(&mut self.mem, &mut self.dep_rt, addr, *delta, *ptr_stride)?;
                cycles += cost.int_alu + write_charge!(cost, write_cost);
                push!(stack, sp, if *post { old } else { new });
                pc += 1;
            }
            Instr::CallBuiltin { builtin, nargs } => {
                cycles += cost.builtin;
                let base = sp - *nargs as usize;
                let result = match builtin {
                    Builtin::Print => {
                        let v = match stack[base] {
                            Value::Int(v) => PrintVal::Int(v),
                            Value::Float(v) => PrintVal::Float(v),
                            Value::Uninit => return Err(Trap::UninitRead),
                            _ => return Err(Trap::TypeConfusion("pointer")),
                        };
                        self.output.push(v);
                        Value::Uninit
                    }
                    Builtin::Input => {
                        let v = self.input.get(self.input_pos).copied().unwrap_or(0);
                        self.input_pos += 1;
                        Value::Int(v)
                    }
                    Builtin::Eof => Value::Int(i64::from(self.input_pos >= self.input.len())),
                    Builtin::Assert => {
                        if stack[base].truthy()? {
                            Value::Uninit
                        } else {
                            return Err(Trap::AssertFailed);
                        }
                    }
                };
                sp = base;
                push!(stack, sp, result);
                pc += 1;
            }
            Instr::CastInt => {
                let v = stack[sp - 1];
                cycles += cost.int_alu;
                stack[sp - 1] = match v {
                    Value::Int(x) => Value::Int(x),
                    Value::Float(x) => Value::Int(x as i64),
                    Value::Ptr(a) => Value::Int(a as i64),
                    Value::Uninit => return Err(Trap::UninitRead),
                    Value::Func(_) => return Err(Trap::TypeConfusion("function")),
                };
                pc += 1;
            }
            Instr::CastFloat => {
                let v = stack[sp - 1];
                cycles += cost.float_alu;
                stack[sp - 1] = match v {
                    Value::Int(x) => Value::Float(x as f64),
                    Value::Float(x) => Value::Float(x),
                    Value::Uninit => return Err(Trap::UninitRead),
                    _ => return Err(Trap::TypeConfusion("pointer")),
                };
                pc += 1;
            }
            Instr::MemoEnter { id, hit_target } => {
                match out_of_line!(self, frame, cycles, self.memo_enter(*id))? {
                    Probe::Miss => pc += 1,
                    Probe::Hit(ret) => {
                        if let Some(v) = ret {
                            push!(stack, sp, v);
                        }
                        pc = *hit_target;
                    }
                }
            }
            Instr::MemoExitNormal(id) => {
                out_of_line!(self, frame, cycles, self.memo_exit_normal(*id))?;
                pc += 1;
            }
            Instr::MemoExitRet(id) => {
                out_of_line!(self, frame, cycles, self.memo_exit_ret(*id, stack[sp - 1]))?;
                pc += 1;
            }
            Instr::MemoExitBreak(id) => {
                out_of_line!(self, frame, cycles, self.memo_exit_break(*id))?;
                pc += 1;
            }
            Instr::ProfileEnter(id) => {
                out_of_line!(self, frame, cycles, self.profile_enter(*id));
                pc += 1;
            }
            Instr::ProfileExit(id) => {
                self.profile_exit(*id, cycles);
                pc += 1;
            }
            _ => unreachable!("hot instruction in step_cold"),
        }
        Ok(Regs {
            pc,
            sp,
            frame,
            cycles,
        })
    }

    // ------------------------------------------------------------------
    // Memo and profile regions
    // ------------------------------------------------------------------

    /// Memo segment entry: mirrors `exec_memo` up to the hit/miss fork.
    fn memo_enter(&mut self, id: u32) -> Result<Probe, Trap> {
        let m = self.bc.memos[id as usize];
        // Bypassed table: pay only the guard branch, run the body with an
        // unarmed region; the forced-miss probe advances the epoch clock.
        // Shared stores never take this path — their guard state is per
        // shard and unknown before the key exists (`TableHandles::state`).
        if self.tables.state(m.table as usize) == TableState::Bypassed {
            self.tick(self.cost.branch);
            self.out_scratch.clear();
            let hit = self.tables.lookup(
                m.table as usize,
                m.slot as usize,
                &[],
                &mut self.out_scratch,
            );
            debug_assert!(!hit, "bypassed lookups are forced misses");
            self.regions.push(Region {
                memo: true,
                id,
                armed: false,
                key_start: self.key_arena.len() as u32,
                entry_cycles: 0,
            });
            return Ok(Probe::Miss);
        }

        let ks = self.key_arena.len();
        for op in &m.inputs {
            read_operand_into(
                &self.mem,
                self.frame,
                op,
                &mut self.key_arena,
                &mut self.dep_rt,
            )?;
        }
        self.tick(self.bc.memo_cost[id as usize]);
        self.table_words += (m.key_words + m.out_words) as u64;

        // Try-mark-green probe: identical charge and validator contract to
        // the tree-walker's `exec_memo` (fp costs come from the shared
        // `CostModel`, computed at runtime — `memo_cost` stays exact-match).
        let fp_words = m.fp_words as usize;
        let validating = fp_words > 0 && self.validate;
        if validating {
            self.tick(self.cost.fp_probe_cost(fp_words));
            self.table_words += fp_words as u64;
        }
        self.out_scratch.clear();
        let hit = {
            let dep_rt = &self.dep_rt;
            let mut validator = |fp: &[u64]| dep_rt.validate(&m.deps, fp);
            self.tables.lookup_dep(
                m.table as usize,
                m.slot as usize,
                &self.key_arena[ks..],
                &mut self.out_scratch,
                m.green,
                if validating {
                    Some(&mut validator)
                } else {
                    None
                },
            )
        };
        if hit {
            self.key_arena.truncate(ks);
            if self.dep_rt.active() && !m.deps.is_empty() {
                self.dep_rt.note_nested_hit(&m.deps);
            }
            let mut pos = 0usize;
            for op in &m.outputs {
                let n = op.words as usize;
                write_operand_from(
                    &mut self.mem,
                    self.frame,
                    op,
                    &self.out_scratch[pos..pos + n],
                    &mut self.dep_rt,
                )?;
                pos += n;
            }
            let ret = m.ret.map(|is_float| {
                let w = self.out_scratch[pos];
                if is_float {
                    Value::Float(f64::from_bits(w))
                } else {
                    Value::Int(w as i64)
                }
            });
            Ok(Probe::Hit(ret))
        } else {
            if fp_words > 0 {
                self.dep_rt.push_frame();
            }
            self.regions.push(Region {
                memo: true,
                id,
                armed: true,
                key_start: ks as u32,
                entry_cycles: 0,
            });
            Ok(Probe::Miss)
        }
    }

    /// Reads the segment's outputs into `rec_scratch` (trap parity: the
    /// tree-walker reads them on every miss exit, recording or not).
    fn read_outputs(&mut self, id: u32) -> Result<(), Trap> {
        let m = self.bc.memos[id as usize];
        self.rec_scratch.clear();
        for op in &m.outputs {
            read_operand_into(
                &self.mem,
                self.frame,
                op,
                &mut self.rec_scratch,
                &mut self.dep_rt,
            )?;
        }
        Ok(())
    }

    /// Memo body fell through its end (`Flow::Normal` in the tree-walker).
    fn memo_exit_normal(&mut self, id: u32) -> Result<(), Trap> {
        let r = self.regions.pop().expect("memo region");
        debug_assert!(r.memo && r.id == id, "region stack out of sync");
        if !r.armed {
            return Ok(());
        }
        self.read_outputs(id)?;
        let m = self.bc.memos[id as usize];
        let tracking = m.fp_words > 0;
        if m.ret.is_none() {
            self.fp_scratch.clear();
            if tracking {
                self.dep_rt
                    .pop_frame_build_fp(&m.deps, &mut self.fp_scratch);
                self.tick(self.cost.fp_record_cost(m.fp_words as usize));
                self.table_words += m.fp_words as u64;
            }
            self.table_words += m.out_words as u64;
            let ks = r.key_start as usize;
            self.tables.record_dep(
                m.table as usize,
                m.slot as usize,
                &self.key_arena[ks..],
                &self.rec_scratch,
                &self.fp_scratch,
            );
        } else if tracking {
            self.dep_rt.pop_frame();
        }
        // A body that memoizes a return value but fell through records
        // nothing (no bogus return slot), same as the tree-walker.
        self.key_arena.truncate(r.key_start as usize);
        Ok(())
    }

    /// Memo region unwound by `return`; `ret` is the return value on top
    /// of the operand stack (peeked, not popped — outer regions need it
    /// too).
    fn memo_exit_ret(&mut self, id: u32, ret: Value) -> Result<(), Trap> {
        let r = self.regions.pop().expect("memo region");
        debug_assert!(r.memo && r.id == id, "region stack out of sync");
        if !r.armed {
            return Ok(());
        }
        self.read_outputs(id)?;
        let m = self.bc.memos[id as usize];
        let tracking = m.fp_words > 0;
        if let Some(is_float) = m.ret {
            let w = if is_float {
                ret.as_float()?.to_bits()
            } else {
                ret.as_int()? as u64
            };
            self.rec_scratch.push(w);
            self.fp_scratch.clear();
            if tracking {
                self.dep_rt
                    .pop_frame_build_fp(&m.deps, &mut self.fp_scratch);
                self.tick(self.cost.fp_record_cost(m.fp_words as usize));
                self.table_words += m.fp_words as u64;
            }
            self.table_words += m.out_words as u64;
            let ks = r.key_start as usize;
            self.tables.record_dep(
                m.table as usize,
                m.slot as usize,
                &self.key_arena[ks..],
                &self.rec_scratch,
                &self.fp_scratch,
            );
        } else if tracking {
            self.dep_rt.pop_frame();
        }
        // ret=None with a Return flow: outputs were read (trap parity)
        // but nothing is recorded, same as the tree-walker's `_` arm.
        self.key_arena.truncate(r.key_start as usize);
        Ok(())
    }

    /// Memo region unwound by `break`/`continue`: outputs are read (they
    /// can trap) but never recorded.
    fn memo_exit_break(&mut self, id: u32) -> Result<(), Trap> {
        let r = self.regions.pop().expect("memo region");
        debug_assert!(r.memo && r.id == id, "region stack out of sync");
        if !r.armed {
            return Ok(());
        }
        self.read_outputs(id)?;
        if self.bc.memos[id as usize].fp_words > 0 {
            self.dep_rt.pop_frame();
        }
        self.key_arena.truncate(r.key_start as usize);
        Ok(())
    }

    fn profile_enter(&mut self, id: u32) {
        let bc = self.bc;
        let p = bc.profiles[id as usize];
        let ks = self.key_arena.len();
        let read = p.inputs.iter().try_for_each(|op| {
            read_operand_into(
                &self.mem,
                self.frame,
                op,
                &mut self.key_arena,
                &mut self.dep_rt,
            )
        });
        // Nesting is observed across all frames — the global view the
        // tree-walker's profile_stack provides.
        let ancestors = self
            .regions
            .iter()
            .filter(|r| !r.memo)
            .map(|r| bc.profiles[r.id as usize].seg);
        self.profiler
            .as_mut()
            .expect("profiler present")
            .record_probe(
                p.seg,
                read.is_ok().then(|| &self.key_arena[ks..]),
                ancestors,
                &mut self.seen_scratch,
            );
        self.key_arena.truncate(ks);
        self.regions.push(Region {
            memo: false,
            id,
            armed: false,
            key_start: 0,
            entry_cycles: self.cycles,
        });
    }

    fn profile_exit(&mut self, id: u32, cycles: u64) {
        let r = self.regions.pop().expect("profile region");
        debug_assert!(!r.memo && r.id == id, "region stack out of sync");
        let spent = cycles - r.entry_cycles;
        let seg = self.bc.profiles[id as usize].seg;
        if let Some(prof) = self.profiler.as_mut() {
            prof.segs[seg as usize].body_cycles += spent;
        }
    }
}
