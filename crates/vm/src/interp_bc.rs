//! The non-recursive bytecode dispatch loop.
//!
//! Executes a [`BcModule`] produced by [`crate::bytecode::compile`] with
//! MiniC call frames on an explicit stack (no Rust recursion, no
//! dedicated big-stack thread) and all memo/profile scratch buffers
//! preallocated on the machine, so the memo hit path — including the
//! bypassed-table forced-miss probe — performs **zero heap allocations**.
//!
//! Cycle/energy parity with the tree-walker is a hard contract: every
//! instruction charges exactly the cost the tree-walker charges at the
//! corresponding program point, the cycle-budget check runs at the same
//! points (call entry and loop heads), and traps fire in the same order.
//! The differential and property tests in `tests/` assert bit-for-bit
//! equal [`Outcome`]s across engines.

use crate::bytecode::{op_kind, BcModule, Instr};
use crate::cost::{cycles_to_seconds, CostModel};
use crate::deps_rt::DepRuntime;
use crate::interp::{
    binary_value, coerce_value, make_profiler, mem_read, mem_write, read_operand_into, unary_value,
    write_operand_from, Outcome, RunConfig,
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

    let tables = crate::tables::take_handles(
        config.tables,
        config.shared_tables,
        config.l1,
        module.table_count,
    );

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
        stack: Vec::with_capacity(256),
        frames: Vec::with_capacity(64),
        regions: Vec::with_capacity(16),
        key_arena: Vec::new(),
        out_scratch: Vec::new(),
        rec_scratch: Vec::new(),
        seen_scratch: Vec::new(),
        dep_rt: DepRuntime::new(module),
        fp_scratch: Vec::new(),
        validate: config.validate,
        trace: config
            .record_trace
            .then(|| Box::new(crate::specialize::DispatchTrace::new())),
        parked_trace: None,
    };

    let ret = m.exec()?;
    let ret = match ret {
        Value::Int(v) => v,
        _ => 0,
    };
    let energy = config.energy.energy_joules(m.cycles, m.table_words);
    let (tables, l1) = m.tables.into_parts();
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
        tables,
        l1,
        profile: m.profiler,
        trace: m.trace.or(m.parked_trace).map(|b| *b),
        spec: None,
    })
}

struct BcMachine<'m, 'b> {
    module: &'m Module,
    bc: &'b BcModule<'m>,
    mem: Vec<Value>,
    /// Current frame base (absolute cell index).
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
    /// Operand stack.
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
    /// Dispatch-pair trace, recorded only when `RunConfig::record_trace`
    /// is set (the pipeline's profiling run). Boxed so the common
    /// non-recording machine stays small.
    trace: Option<Box<crate::specialize::DispatchTrace>>,
    /// A saturated trace, moved out of `trace` so the dispatch loop's
    /// per-step check goes back to the cheap `None` path.
    parked_trace: Option<Box<crate::specialize::DispatchTrace>>,
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

    #[inline]
    fn charge_write(&mut self, c: WriteCost) {
        match c {
            WriteCost::Var => self.tick(self.cost.var_access),
            WriteCost::Mem => self.tick(self.cost.mem_access),
        }
    }

    #[inline]
    fn pop(&mut self) -> Value {
        self.stack.pop().expect("operand stack underflow")
    }

    #[inline]
    fn fast_arg(&self, a: &crate::bytecode::FastArg) -> Value {
        match a {
            crate::bytecode::FastArg::I(v) => Value::Int(*v),
            crate::bytecode::FastArg::Local(off) => self.mem[self.frame + *off as usize],
        }
    }

    /// Shared `++`/`--` read-modify-write (the `IncDecFin`/`IncDecLocal`
    /// bodies): charge `int_alu`, step, charge the write, push old/new
    /// (elided when `keep` is false — value-discarding position).
    fn inc_dec(
        &mut self,
        addr: usize,
        delta: i64,
        post: bool,
        ptr_stride: Option<i64>,
        write_cost: WriteCost,
        keep: bool,
    ) -> Result<(), Trap> {
        let old = mem_read(&self.mem, addr)?;
        if self.dep_rt.active() {
            self.dep_rt.note_read(addr);
        }
        self.tick(self.cost.int_alu);
        let new = match (old, ptr_stride) {
            (Value::Ptr(a), Some(stride)) => {
                Value::Ptr((a as i64).wrapping_add(delta * stride) as usize)
            }
            (Value::Int(v), _) => Value::Int(v.wrapping_add(delta)),
            (Value::Float(v), _) => Value::Float(v + delta as f64),
            (Value::Uninit, _) => return Err(Trap::UninitRead),
            (_, _) => return Err(Trap::TypeConfusion("function")),
        };
        self.charge_write(write_cost);
        mem_write(&mut self.mem, addr, new)?;
        self.dep_rt.note_write(addr, new);
        if keep {
            self.stack.push(if post { old } else { new });
        }
        Ok(())
    }

    /// Pushes a frame for `fid` (whose arguments are the top `nargs`
    /// operands) and returns its entry pc. Check/charge order matches the
    /// tree-walker's `call` exactly.
    fn enter_function(&mut self, fid: u32, nargs: usize, ret_pc: u32) -> Result<u32, Trap> {
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
        debug_assert_eq!(nargs, func.params.len(), "arity checked by sema");
        self.frames.push(FrameRec {
            ret_pc,
            frame: self.frame,
            stack_top: self.stack_top,
        });
        self.frame = new_base;
        self.stack_top = new_top;
        let argbase = self.stack.len() - nargs;
        for (i, &(off, coerce)) in func.params.iter().enumerate() {
            let v = coerce_value(self.stack[argbase + i], coerce)?;
            self.mem[new_base + off as usize] = v;
        }
        self.stack.truncate(argbase);
        Ok(self.bc.entries[fid as usize])
    }

    fn exec(&mut self) -> Result<Value, Trap> {
        let code: &[Instr] = &self.bc.code;
        let mut pc = self.enter_function(self.module.main, 0, HALT)?;
        loop {
            let instr = &code[pc as usize];
            if let Some(t) = self.trace.as_deref_mut() {
                // Profile probes are invisible to the trace, so a profiling
                // run mines the same pairs as the uninstrumented program.
                if !matches!(instr, Instr::ProfileEnter(_) | Instr::ProfileExit(_)) {
                    t.step(op_kind(instr));
                }
                if t.saturated() {
                    // Budget spent: park the recorder so the rest of the
                    // run pays only the `None` check every engine pays.
                    self.parked_trace = self.trace.take();
                }
            }
            match instr {
                Instr::PushI(v) => {
                    self.stack.push(Value::Int(*v));
                    pc += 1;
                }
                Instr::PushF(v) => {
                    self.stack.push(Value::Float(*v));
                    pc += 1;
                }
                Instr::PushFn(f) => {
                    self.stack.push(Value::Func(*f));
                    pc += 1;
                }
                Instr::PushUninit => {
                    self.stack.push(Value::Uninit);
                    pc += 1;
                }
                Instr::Pop => {
                    self.pop();
                    pc += 1;
                }
                Instr::ReadLocal(off) => {
                    self.tick(self.cost.var_access);
                    let v = self.mem[self.frame + *off as usize];
                    self.stack.push(v);
                    pc += 1;
                }
                Instr::ReadGlobal(a) => {
                    self.tick(self.cost.mem_access);
                    let v = self.mem[*a as usize];
                    if self.dep_rt.active() {
                        self.dep_rt.note_read(*a as usize);
                    }
                    self.stack.push(v);
                    pc += 1;
                }
                Instr::ReadMem => {
                    let a = self.pop().as_ptr()?;
                    self.tick(self.cost.mem_access);
                    let v = mem_read(&self.mem, a)?;
                    if self.dep_rt.active() {
                        self.dep_rt.note_read(a);
                    }
                    self.stack.push(v);
                    pc += 1;
                }
                Instr::PtrAddRead { stride, cost } => {
                    let i = self.pop().as_int()?;
                    let b = self.pop().as_ptr()?;
                    self.tick(u64::from(*cost));
                    let addr = (b as i64).wrapping_add(i.wrapping_mul(*stride)) as usize;
                    let v = mem_read(&self.mem, addr)?;
                    if self.dep_rt.active() {
                        self.dep_rt.note_read(addr);
                    }
                    self.stack.push(v);
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
                    let iv = self.fast_arg(idx);
                    self.tick(u64::from(*pre_cost));
                    let i = iv.as_int()?;
                    self.tick(u64::from(*post_cost));
                    let b = if *global {
                        *base as usize
                    } else {
                        self.frame + *base as usize
                    };
                    let addr = (b as i64).wrapping_add(i.wrapping_mul(*stride)) as usize;
                    let v = mem_read(&self.mem, addr)?;
                    if self.dep_rt.active() {
                        self.dep_rt.note_read(addr);
                    }
                    self.stack.push(v);
                    pc += 1;
                }
                Instr::AddrLocal(off) => {
                    self.stack.push(Value::Ptr(self.frame + *off as usize));
                    pc += 1;
                }
                Instr::AddrGlobal(a) => {
                    self.stack.push(Value::Ptr(*a as usize));
                    pc += 1;
                }
                Instr::CheckPtr => {
                    let a = self.pop().as_ptr()?;
                    self.stack.push(Value::Ptr(a));
                    pc += 1;
                }
                Instr::PtrAdd(stride) => {
                    let i = self.pop().as_int()?;
                    let b = self.pop().as_ptr()?;
                    self.tick(self.cost.int_alu);
                    let delta = i.wrapping_mul(*stride);
                    self.stack
                        .push(Value::Ptr((b as i64).wrapping_add(delta) as usize));
                    pc += 1;
                }
                Instr::PtrDiff(stride) => {
                    let y = self.pop().as_ptr()? as i64;
                    let x = self.pop().as_ptr()? as i64;
                    self.tick(self.cost.int_alu);
                    self.stack.push(Value::Int((x - y) / *stride));
                    pc += 1;
                }
                Instr::Unary(op, c) => {
                    let v = self.pop();
                    self.tick(*c);
                    self.stack.push(unary_value(*op, v)?);
                    pc += 1;
                }
                Instr::Binary(op, c) => {
                    let y = self.pop();
                    let x = self.pop();
                    self.tick(*c);
                    self.stack.push(binary_value(*op, x, y)?);
                    pc += 1;
                }
                Instr::BinaryFast { op, a, b, cost } => {
                    let x = self.fast_arg(a);
                    let y = self.fast_arg(b);
                    self.tick(*cost);
                    self.stack.push(binary_value(*op, x, y)?);
                    pc += 1;
                }
                Instr::Truthy => {
                    let v = self.pop().truthy()?;
                    self.stack.push(Value::Int(i64::from(v)));
                    pc += 1;
                }
                Instr::Tick(n) => {
                    self.tick(*n);
                    pc += 1;
                }
                Instr::ShortCircuit { and, end } => {
                    let x = self.pop().truthy()?;
                    let decided = if *and { !x } else { x };
                    if decided {
                        self.stack.push(Value::Int(i64::from(x)));
                        pc = *end;
                    } else {
                        pc += 1;
                    }
                }
                Instr::Jump(t) => pc = *t,
                Instr::JumpIfFalse(t) => {
                    if self.pop().truthy()? {
                        pc += 1;
                    } else {
                        pc = *t;
                    }
                }
                Instr::JumpIfTrue(t) => {
                    if self.pop().truthy()? {
                        pc = *t;
                    } else {
                        pc += 1;
                    }
                }
                Instr::JumpIfFalseCmp {
                    op,
                    a,
                    b,
                    cost,
                    target,
                } => {
                    let x = self.fast_arg(a);
                    let y = self.fast_arg(b);
                    self.tick(u64::from(*cost));
                    if binary_value(*op, x, y)?.truthy()? {
                        pc += 1;
                    } else {
                        pc = *target;
                    }
                }
                Instr::JumpIfTrueCmp {
                    op,
                    a,
                    b,
                    cost,
                    target,
                } => {
                    let x = self.fast_arg(a);
                    let y = self.fast_arg(b);
                    self.tick(u64::from(*cost));
                    if binary_value(*op, x, y)?.truthy()? {
                        pc = *target;
                    } else {
                        pc += 1;
                    }
                }
                Instr::BranchIf {
                    branch_idx,
                    else_target,
                } => {
                    let taken = self.pop().truthy()?;
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
                    cost,
                    branch_idx,
                    else_target,
                } => {
                    let x = self.fast_arg(a);
                    let y = self.fast_arg(b);
                    self.tick(u64::from(*cost));
                    let taken = binary_value(*op, x, y)?.truthy()?;
                    let slot = (*branch_idx as usize) * 2 + usize::from(!taken);
                    self.branch_counts[slot] += 1;
                    if taken {
                        pc += 1;
                    } else {
                        pc = *else_target;
                    }
                }
                Instr::WhileHead(c) => {
                    self.check_budget()?;
                    self.tick(*c);
                    pc += 1;
                }
                Instr::LoopCond { loop_idx, end } => {
                    if self.pop().truthy()? {
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
                    cost,
                    loop_idx,
                    end,
                } => {
                    let x = self.fast_arg(a);
                    let y = self.fast_arg(b);
                    self.tick(u64::from(*cost));
                    if binary_value(*op, x, y)?.truthy()? {
                        self.loop_counts[*loop_idx as usize] += 1;
                        pc += 1;
                    } else {
                        pc = *end;
                    }
                }
                Instr::ForHead(c) => {
                    self.check_budget()?;
                    self.tick(*c);
                    pc += 1;
                }
                Instr::DoHead { loop_idx, cost } => {
                    self.check_budget()?;
                    self.loop_counts[*loop_idx as usize] += 1;
                    self.tick(*cost);
                    pc += 1;
                }
                Instr::LoopCount(loop_idx) => {
                    self.loop_counts[*loop_idx as usize] += 1;
                    pc += 1;
                }
                Instr::DeclStore { slot, coerce } => {
                    let v = coerce_value(self.pop(), *coerce)?;
                    self.tick(self.cost.var_access);
                    let addr = self.frame + *slot as usize;
                    self.mem[addr] = v;
                    pc += 1;
                }
                Instr::Store { coerce, write_cost } => {
                    let v = self.pop();
                    let addr = self.pop().as_ptr()?;
                    let v = coerce_value(v, *coerce)?;
                    self.charge_write(*write_cost);
                    mem_write(&mut self.mem, addr, v)?;
                    self.dep_rt.note_write(addr, v);
                    self.stack.push(v);
                    pc += 1;
                }
                Instr::StoreLocal {
                    slot,
                    coerce,
                    write_cost,
                    keep,
                } => {
                    let v = coerce_value(self.pop(), *coerce)?;
                    self.charge_write(*write_cost);
                    mem_write(&mut self.mem, self.frame + *slot as usize, v)?;
                    if *keep {
                        self.stack.push(v);
                    }
                    pc += 1;
                }
                Instr::LoadDupAddr => {
                    let addr = self.pop().as_ptr()?;
                    let old = mem_read(&self.mem, addr)?;
                    if self.dep_rt.active() {
                        self.dep_rt.note_read(addr);
                    }
                    self.stack.push(Value::Ptr(addr));
                    self.stack.push(old);
                    pc += 1;
                }
                Instr::AssignOpFin {
                    op,
                    cost,
                    coerce,
                    ptr_stride,
                    write_cost,
                } => {
                    let rhs = self.pop();
                    let old = self.pop();
                    let addr = self.pop().as_ptr()?;
                    self.tick(*cost);
                    let new = match ptr_stride {
                        Some(stride) => {
                            let base = old.as_ptr()? as i64;
                            let step = rhs.as_int()?.wrapping_mul(*stride);
                            let delta = if *op == BinOp::Sub { -step } else { step };
                            Value::Ptr(base.wrapping_add(delta) as usize)
                        }
                        None => coerce_value(binary_value(*op, old, rhs)?, *coerce)?,
                    };
                    self.charge_write(*write_cost);
                    mem_write(&mut self.mem, addr, new)?;
                    self.dep_rt.note_write(addr, new);
                    self.stack.push(new);
                    pc += 1;
                }
                Instr::IncDecFin {
                    delta,
                    post,
                    ptr_stride,
                    write_cost,
                } => {
                    let addr = self.pop().as_ptr()?;
                    self.inc_dec(addr, *delta, *post, *ptr_stride, *write_cost, true)?;
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
                    let addr = self.frame + *slot as usize;
                    self.inc_dec(addr, *delta, *post, *ptr_stride, *write_cost, *keep)?;
                    pc += 1;
                }
                Instr::CoerceVal(c) => {
                    let v = coerce_value(self.pop(), *c)?;
                    self.stack.push(v);
                    pc += 1;
                }
                Instr::CallFunc(fid) => {
                    let nargs = self.module.funcs[*fid as usize].params.len();
                    pc = self.enter_function(*fid, nargs, pc + 1)?;
                }
                Instr::CallBuiltin { builtin, nargs } => {
                    self.tick(self.cost.builtin);
                    let base = self.stack.len() - *nargs as usize;
                    let result = match builtin {
                        Builtin::Print => {
                            let v = match self.stack[base] {
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
                            if self.stack[base].truthy()? {
                                Value::Uninit
                            } else {
                                return Err(Trap::AssertFailed);
                            }
                        }
                    };
                    self.stack.truncate(base);
                    self.stack.push(result);
                    pc += 1;
                }
                Instr::CallIndirect(nargs) => match self.pop() {
                    Value::Func(fid) => {
                        pc = self.enter_function(fid, *nargs as usize, pc + 1)?;
                    }
                    Value::Uninit => return Err(Trap::UninitRead),
                    _ => return Err(Trap::NotAFunction),
                },
                Instr::CastInt => {
                    let v = self.pop();
                    self.tick(self.cost.int_alu);
                    let v = match v {
                        Value::Int(x) => Value::Int(x),
                        Value::Float(x) => Value::Int(x as i64),
                        Value::Ptr(a) => Value::Int(a as i64),
                        Value::Uninit => return Err(Trap::UninitRead),
                        Value::Func(_) => return Err(Trap::TypeConfusion("function")),
                    };
                    self.stack.push(v);
                    pc += 1;
                }
                Instr::CastFloat => {
                    let v = self.pop();
                    self.tick(self.cost.float_alu);
                    let v = match v {
                        Value::Int(x) => Value::Float(x as f64),
                        Value::Float(x) => Value::Float(x),
                        Value::Uninit => return Err(Trap::UninitRead),
                        _ => return Err(Trap::TypeConfusion("pointer")),
                    };
                    self.stack.push(v);
                    pc += 1;
                }
                Instr::Ret => {
                    let v = self.pop();
                    let fr = self.frames.pop().expect("call frame");
                    self.frame = fr.frame;
                    self.stack_top = fr.stack_top;
                    self.depth -= 1;
                    if fr.ret_pc == HALT {
                        return Ok(v);
                    }
                    self.stack.push(v);
                    pc = fr.ret_pc;
                }
                Instr::MemoEnter { id, hit_target } => {
                    pc = self.memo_enter(*id, *hit_target, pc)?;
                }
                Instr::MemoExitNormal(id) => {
                    self.memo_exit_normal(*id)?;
                    pc += 1;
                }
                Instr::MemoExitRet(id) => {
                    self.memo_exit_ret(*id)?;
                    pc += 1;
                }
                Instr::MemoExitBreak(id) => {
                    self.memo_exit_break(*id)?;
                    pc += 1;
                }
                Instr::ProfileEnter(id) => {
                    self.profile_enter(*id);
                    pc += 1;
                }
                Instr::ProfileExit(id) => {
                    self.profile_exit(*id);
                    pc += 1;
                }
                // The generic compiler never emits specialized opcodes;
                // they exist only in plan-built `SpecCode`.
                Instr::Super2(_) | Instr::PushKnown { .. } => {
                    unreachable!("specialized opcode in generic bytecode")
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Memo and profile regions
    // ------------------------------------------------------------------

    /// Memo segment entry: mirrors `exec_memo` up to the hit/miss fork.
    /// Returns the next pc (`hit_target` on a hit, fall-through else).
    fn memo_enter(&mut self, id: u32, hit_target: u32, pc: u32) -> Result<u32, Trap> {
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
            return Ok(pc + 1);
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
            if let Some(is_float) = m.ret {
                let w = self.out_scratch[pos];
                self.stack.push(if is_float {
                    Value::Float(f64::from_bits(w))
                } else {
                    Value::Int(w as i64)
                });
            }
            Ok(hit_target)
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
            Ok(pc + 1)
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

    /// Memo region unwound by `return`; the return value is on top of the
    /// operand stack (peeked, not popped — outer regions need it too).
    fn memo_exit_ret(&mut self, id: u32) -> Result<(), Trap> {
        let r = self.regions.pop().expect("memo region");
        debug_assert!(r.memo && r.id == id, "region stack out of sync");
        if !r.armed {
            return Ok(());
        }
        self.read_outputs(id)?;
        let m = self.bc.memos[id as usize];
        let tracking = m.fp_words > 0;
        if let Some(is_float) = m.ret {
            let v = *self.stack.last().expect("return value");
            let w = if is_float {
                v.as_float()?.to_bits()
            } else {
                v.as_int()? as u64
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
        let p = self.bc.profiles[id as usize];
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
        let prof = self.profiler.as_mut().expect("profiler present");
        let seg = &mut prof.segs[p.seg as usize];
        seg.n += 1;
        if read.is_err() {
            // Counted, not fatal — see the tree-walker's `exec_profile`.
            seg.key_traps += 1;
        } else {
            let key = &self.key_arena[ks..];
            if let Some(c) = seg.distinct.get_mut(key) {
                *c += 1;
            } else {
                seg.distinct.insert(key.into(), 1);
            }
            // Count this execution under each distinct active ancestor
            // (profile regions only, across all frames — the global
            // nesting view the tree-walker's profile_stack provides).
            self.seen_scratch.clear();
            for r in &self.regions {
                if r.memo {
                    continue;
                }
                let outer = self.bc.profiles[r.id as usize].seg;
                if outer != p.seg && !self.seen_scratch.contains(&outer) {
                    self.seen_scratch.push(outer);
                    *seg.within.entry(outer).or_insert(0) += 1;
                }
            }
        }
        self.key_arena.truncate(ks);
        self.regions.push(Region {
            memo: false,
            id,
            armed: false,
            key_start: 0,
            entry_cycles: self.cycles,
        });
    }

    fn profile_exit(&mut self, id: u32) {
        let r = self.regions.pop().expect("profile region");
        debug_assert!(!r.memo && r.id == id, "region stack out of sync");
        let spent = self.cycles - r.entry_cycles;
        let seg = self.bc.profiles[id as usize].seg;
        if let Some(prof) = self.profiler.as_mut() {
            prof.segs[seg as usize].body_cycles += spent;
        }
    }
}
