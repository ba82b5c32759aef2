//! The specialized-tier dispatch loop (third engine).
//!
//! Executes a [`SpecCode`] built by [`crate::specialize::build`]: the
//! generic bytecode with mined `Super2` fusions substituted in place and
//! per-segment specialized clones appended. The loop is a copy of
//! `interp_bc` (same frame layout, same charge points, same memo/profile
//! region machinery) extended with three things:
//!
//! - `Super2(p)` executes both halves of fused pair `p` and advances the
//!   pc by two (the second half stays in place, so any jump landing on
//!   it executes it alone);
//! - `PushKnown` pushes a baked immediate while charging exactly the
//!   cost of the read it replaced;
//! - a **guard** at each planned `MemoEnter`: on a table miss with the
//!   built key equal to the plan's dominant key (and every folded slot
//!   holding the expected value class), execution jumps to the
//!   specialized clone; otherwise it *deopts* — falls through to the
//!   generic body, exactly once per missed probe, charging nothing.
//!
//! Observable equivalence with the other two engines is a hard contract
//! (DESIGN.md §8j); the differential and property suites assert
//! bit-for-bit equal [`Outcome`]s across all tier pairs.

use crate::bytecode::{BcModule, Instr};
use crate::cost::{cycles_to_seconds, CostModel};
use crate::deps_rt::DepRuntime;
use crate::interp::{
    binary_value, coerce_value, make_profiler, mem_read, mem_write, read_operand_into, unary_value,
    write_operand_from, Outcome, RunConfig,
};
use crate::lower::{Module, WriteCost};
use crate::specialize::{PairCode, SpecCode, SpecStats};
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

/// A live memo/profile region (see `interp_bc::Region`).
#[derive(Debug, Clone, Copy)]
struct Region {
    memo: bool,
    id: u32,
    armed: bool,
    key_start: u32,
    entry_cycles: u64,
}

/// Runs a specialized module to completion. Setup and outcome layout
/// match `interp_bc::run_bc` exactly; `Outcome::spec` additionally
/// reports the specialization counters.
pub(crate) fn run_spec(
    module: &Module,
    spec: &SpecCode<'_>,
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

    let mut m = SpecMachine {
        module,
        spec,
        bc: &spec.bc,
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
        stats: SpecStats {
            fused_sites: spec.fused,
            cloned_segments: spec.cloned,
            ..SpecStats::default()
        },
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
        trace: None,
        spec: Some(m.stats),
    })
}

struct SpecMachine<'m, 'b> {
    module: &'m Module,
    spec: &'b SpecCode<'m>,
    /// `&spec.bc`, held separately so memo/profile helpers read exactly
    /// like `interp_bc`'s.
    bc: &'b BcModule<'m>,
    mem: Vec<Value>,
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
    stack: Vec<Value>,
    frames: Vec<FrameRec>,
    regions: Vec<Region>,
    key_arena: Vec<u64>,
    out_scratch: Vec<u64>,
    rec_scratch: Vec<u64>,
    seen_scratch: Vec<u32>,
    dep_rt: DepRuntime,
    fp_scratch: Vec<u64>,
    validate: bool,
    /// Guard/fusion counters reported in [`Outcome::spec`].
    stats: SpecStats,
}

impl SpecMachine<'_, '_> {
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

    /// Shared `++`/`--` read-modify-write (see `interp_bc::inc_dec`).
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

    /// Pushes a frame for `fid` and returns its entry pc (identical
    /// check/charge order to `interp_bc::enter_function`).
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

    /// Executes one *linear* instruction (both halves of a `Super2` pair
    /// route through here). Linear instructions never transfer control,
    /// so no pc is involved; charges and traps are identical to the main
    /// dispatch arms.
    fn lin(&mut self, ins: &Instr) -> Result<(), Trap> {
        match ins {
            Instr::PushI(v) => self.stack.push(Value::Int(*v)),
            Instr::PushF(v) => self.stack.push(Value::Float(*v)),
            Instr::PushFn(f) => self.stack.push(Value::Func(*f)),
            Instr::PushUninit => self.stack.push(Value::Uninit),
            Instr::Pop => {
                self.pop();
            }
            Instr::ReadLocal(off) => {
                self.tick(self.cost.var_access);
                let v = self.mem[self.frame + *off as usize];
                self.stack.push(v);
            }
            Instr::ReadGlobal(a) => {
                self.tick(self.cost.mem_access);
                let v = self.mem[*a as usize];
                if self.dep_rt.active() {
                    self.dep_rt.note_read(*a as usize);
                }
                self.stack.push(v);
            }
            Instr::ReadMem => {
                let a = self.pop().as_ptr()?;
                self.tick(self.cost.mem_access);
                let v = mem_read(&self.mem, a)?;
                if self.dep_rt.active() {
                    self.dep_rt.note_read(a);
                }
                self.stack.push(v);
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
            }
            Instr::AddrLocal(off) => {
                self.stack.push(Value::Ptr(self.frame + *off as usize));
            }
            Instr::AddrGlobal(a) => self.stack.push(Value::Ptr(*a as usize)),
            Instr::CheckPtr => {
                let a = self.pop().as_ptr()?;
                self.stack.push(Value::Ptr(a));
            }
            Instr::PtrAdd(stride) => {
                let i = self.pop().as_int()?;
                let b = self.pop().as_ptr()?;
                self.tick(self.cost.int_alu);
                let delta = i.wrapping_mul(*stride);
                self.stack
                    .push(Value::Ptr((b as i64).wrapping_add(delta) as usize));
            }
            Instr::PtrDiff(stride) => {
                let y = self.pop().as_ptr()? as i64;
                let x = self.pop().as_ptr()? as i64;
                self.tick(self.cost.int_alu);
                self.stack.push(Value::Int((x - y) / *stride));
            }
            Instr::Unary(op, c) => {
                let v = self.pop();
                self.tick(*c);
                self.stack.push(unary_value(*op, v)?);
            }
            Instr::Binary(op, c) => {
                let y = self.pop();
                let x = self.pop();
                self.tick(*c);
                self.stack.push(binary_value(*op, x, y)?);
            }
            Instr::BinaryFast { op, a, b, cost } => {
                let x = self.fast_arg(a);
                let y = self.fast_arg(b);
                self.tick(*cost);
                self.stack.push(binary_value(*op, x, y)?);
            }
            Instr::Truthy => {
                let v = self.pop().truthy()?;
                self.stack.push(Value::Int(i64::from(v)));
            }
            Instr::Tick(n) => self.tick(*n),
            Instr::WhileHead(c) | Instr::ForHead(c) => {
                self.check_budget()?;
                self.tick(*c);
            }
            Instr::DoHead { loop_idx, cost } => {
                self.check_budget()?;
                self.loop_counts[*loop_idx as usize] += 1;
                self.tick(*cost);
            }
            Instr::LoopCount(loop_idx) => {
                self.loop_counts[*loop_idx as usize] += 1;
            }
            Instr::DeclStore { slot, coerce } => {
                let v = coerce_value(self.pop(), *coerce)?;
                self.tick(self.cost.var_access);
                let addr = self.frame + *slot as usize;
                self.mem[addr] = v;
            }
            Instr::Store { coerce, write_cost } => {
                let v = self.pop();
                let addr = self.pop().as_ptr()?;
                let v = coerce_value(v, *coerce)?;
                self.charge_write(*write_cost);
                mem_write(&mut self.mem, addr, v)?;
                self.dep_rt.note_write(addr, v);
                self.stack.push(v);
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
            }
            Instr::LoadDupAddr => {
                let addr = self.pop().as_ptr()?;
                let old = mem_read(&self.mem, addr)?;
                if self.dep_rt.active() {
                    self.dep_rt.note_read(addr);
                }
                self.stack.push(Value::Ptr(addr));
                self.stack.push(old);
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
            }
            Instr::IncDecFin {
                delta,
                post,
                ptr_stride,
                write_cost,
            } => {
                let addr = self.pop().as_ptr()?;
                self.inc_dec(addr, *delta, *post, *ptr_stride, *write_cost, true)?;
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
            }
            Instr::CoerceVal(c) => {
                let v = coerce_value(self.pop(), *c)?;
                self.stack.push(v);
            }
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
            }
            Instr::PushKnown { w, float, cost } => {
                self.tick(u64::from(*cost));
                self.stack.push(if *float {
                    Value::Float(f64::from_bits(*w))
                } else {
                    Value::Int(*w as i64)
                });
            }
            _ => unreachable!("non-linear instruction inside a Super2 pair"),
        }
        Ok(())
    }

    fn exec(&mut self) -> Result<Value, Trap> {
        let code: &[Instr] = &self.spec.bc.code;
        let mut pc = self.enter_function(self.module.main, 0, HALT)?;
        loop {
            match &code[pc as usize] {
                Instr::Super2(p) => {
                    match &self.spec.pairs[*p as usize] {
                        PairCode::PushIBinary { v, op, c } => {
                            let x = self.pop();
                            self.tick(*c);
                            let r = binary_value(*op, x, Value::Int(*v))?;
                            self.stack.push(r);
                        }
                        PairCode::BinaryPushI { op, c, v } => {
                            let y = self.pop();
                            let x = self.pop();
                            self.tick(*c);
                            let r = binary_value(*op, x, y)?;
                            self.stack.push(r);
                            self.stack.push(Value::Int(*v));
                        }
                        PairCode::BinaryBinary { op1, c1, op2, c2 } => {
                            let y = self.pop();
                            let x = self.pop();
                            self.tick(*c1);
                            let r1 = binary_value(*op1, x, y)?;
                            let x2 = self.pop();
                            self.tick(*c2);
                            let r2 = binary_value(*op2, x2, r1)?;
                            self.stack.push(r2);
                        }
                        PairCode::BinaryStore {
                            op,
                            c,
                            slot,
                            coerce,
                            write_cost,
                            keep,
                        } => {
                            let y = self.pop();
                            let x = self.pop();
                            self.tick(*c);
                            let v = coerce_value(binary_value(*op, x, y)?, *coerce)?;
                            self.charge_write(*write_cost);
                            mem_write(&mut self.mem, self.frame + *slot as usize, v)?;
                            if *keep {
                                self.stack.push(v);
                            }
                        }
                        PairCode::FastBinary {
                            op1,
                            a,
                            b,
                            c1,
                            op2,
                            c2,
                        } => {
                            let fa = self.fast_arg(a);
                            let fb = self.fast_arg(b);
                            self.tick(*c1);
                            let r1 = binary_value(*op1, fa, fb)?;
                            let x = self.pop();
                            self.tick(*c2);
                            let r2 = binary_value(*op2, x, r1)?;
                            self.stack.push(r2);
                        }
                        PairCode::FastStore {
                            op,
                            a,
                            b,
                            c,
                            slot,
                            coerce,
                            write_cost,
                            keep,
                        } => {
                            let fa = self.fast_arg(a);
                            let fb = self.fast_arg(b);
                            self.tick(*c);
                            let v = coerce_value(binary_value(*op, fa, fb)?, *coerce)?;
                            self.charge_write(*write_cost);
                            mem_write(&mut self.mem, self.frame + *slot as usize, v)?;
                            if *keep {
                                self.stack.push(v);
                            }
                        }
                        PairCode::ReadBinary { off, op, c } => {
                            self.tick(self.cost.var_access);
                            let v = self.mem[self.frame + *off as usize];
                            let x = self.pop();
                            self.tick(*c);
                            let r = binary_value(*op, x, v)?;
                            self.stack.push(r);
                        }
                        PairCode::ReadFast { off, op, a, b, c } => {
                            self.tick(self.cost.var_access);
                            let v = self.mem[self.frame + *off as usize];
                            self.stack.push(v);
                            let fa = self.fast_arg(a);
                            let fb = self.fast_arg(b);
                            self.tick(*c);
                            let r = binary_value(*op, fa, fb)?;
                            self.stack.push(r);
                        }
                        PairCode::FastRead { op, a, b, c, off } => {
                            let fa = self.fast_arg(a);
                            let fb = self.fast_arg(b);
                            self.tick(*c);
                            let r = binary_value(*op, fa, fb)?;
                            self.stack.push(r);
                            self.tick(self.cost.var_access);
                            let v = self.mem[self.frame + *off as usize];
                            self.stack.push(v);
                        }
                        PairCode::CountRead { loop_idx, off } => {
                            self.loop_counts[*loop_idx as usize] += 1;
                            self.tick(self.cost.var_access);
                            let v = self.mem[self.frame + *off as usize];
                            self.stack.push(v);
                        }
                        PairCode::Generic([a, b]) => {
                            self.lin(a)?;
                            self.lin(b)?;
                        }
                    }
                    pc += 2;
                }
                Instr::PushKnown { w, float, cost } => {
                    self.tick(u64::from(*cost));
                    self.stack.push(if *float {
                        Value::Float(f64::from_bits(*w))
                    } else {
                        Value::Int(*w as i64)
                    });
                    pc += 1;
                }
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
            }
        }
    }

    // ------------------------------------------------------------------
    // Memo and profile regions (identical to interp_bc except the guard
    // fork at the end of memo_enter's miss path)
    // ------------------------------------------------------------------

    /// Whether every folded slot currently holds the value class the
    /// guard baked in. An integer key word is bit-identical to a
    /// pointer's (`read_operand_into` encodes both raw), so a key match
    /// alone cannot prove the clone's immediates are faithful.
    fn folds_ok(&self, folds: &[(u32, bool)]) -> bool {
        folds
            .iter()
            .all(|&(off, float)| match self.mem[self.frame + off as usize] {
                Value::Int(_) => !float,
                Value::Float(_) => float,
                _ => false,
            })
    }

    /// Memo segment entry. The guard (if one is planned at this pc)
    /// fires only on a table miss: a matching key jumps to the
    /// specialized clone, a mismatch deopts — falls through to the
    /// generic body, exactly once per missed probe. Either way charges
    /// nothing: the guard is host-side control flow.
    fn memo_enter(&mut self, id: u32, hit_target: u32, pc: u32) -> Result<u32, Trap> {
        let m = self.bc.memos[id as usize];
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
            // Guard fork: only at the original MemoEnter pc (a cloned
            // nested MemoEnter sits elsewhere and takes the generic
            // path). Recording on exit happens under the *live* key in
            // the arena either way — a specialized run can never create
            // a specialized-keyed table entry.
            if let Some(g) = &self.spec.guards[id as usize] {
                if g.enter_pc == pc {
                    self.stats.guard_probes += 1;
                    if self.key_arena[ks..] == g.key[..] && self.folds_ok(&g.folds) {
                        self.stats.guard_hits += 1;
                        return Ok(g.target);
                    }
                    self.stats.deopts += 1;
                }
            }
            Ok(pc + 1)
        }
    }

    /// Reads the segment's outputs into `rec_scratch` (trap parity).
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

    /// Memo body fell through its end (generic or cloned copy alike).
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
        self.key_arena.truncate(r.key_start as usize);
        Ok(())
    }

    /// Memo region unwound by `return`.
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
            seg.key_traps += 1;
        } else {
            let key = &self.key_arena[ks..];
            if let Some(c) = seg.distinct.get_mut(key) {
                *c += 1;
            } else {
                seg.distinct.insert(key.into(), 1);
            }
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
