//! The tree-walking interpreter with cycle accounting.
//!
//! Executes a lowered [`Module`] under a [`CostModel`] and [`EnergyModel`],
//! collecting everything the reuse pipeline and the benchmark harness
//! need: cycles, energy, print output, per-function/loop/branch execution
//! counts (frequency profiling), value-set profiles (when the module
//! contains `Profile` probes), and memo-table statistics (when it contains
//! `Memo` segments).

use crate::cost::{cycles_to_seconds, CostModel};
use crate::deps_rt::DepRuntime;
use crate::energy::EnergyModel;
use crate::lower::{
    Coerce, CostKind, LCallee, LExpr, LMemo, LOperand, LPlace, LProfile, LStmt, Module, OpLoc,
    WriteCost,
};
use crate::profile::{ProbeScratch, ProfileData, SegProfile};
use crate::tables::TableHandles;
use crate::value::{PrintVal, Trap, Value};
use memo_runtime::{MemoTable, ShardedTable};
use minic::ast::{BinOp, UnOp};
use minic::sema::Builtin;
use std::sync::Arc;

/// Which execution engine runs the module.
///
/// Both engines charge identical cycle/energy costs and produce
/// bit-for-bit identical [`Outcome`]s; they differ only in host-side
/// execution strategy (see DESIGN.md, "Two execution engines").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The original recursive tree-walker (runs on a dedicated
    /// big-stack thread). The executable spec the bytecode engine is
    /// differentially tested against.
    Tree,
    /// The flat bytecode compiler + non-recursive dispatch loop
    /// (default: same results, much lower host wall-clock).
    #[default]
    Bytecode,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Tree => write!(f, "tree"),
            Engine::Bytecode => write!(f, "bytecode"),
        }
    }
}

/// Everything configurable about a run.
#[derive(Debug)]
pub struct RunConfig {
    /// Cycle cost model (O0 or O3).
    pub cost: CostModel,
    /// Energy model.
    pub energy: EnergyModel,
    /// Input stream consumed by the `input()` builtin.
    pub input: Vec<i64>,
    /// Memo tables, indexed by the module's table ids. Ignored when
    /// `shared_tables` is set.
    pub tables: Vec<MemoTable>,
    /// A shared, sharded reuse store to probe instead of `tables`. When
    /// set, the run's memo traffic goes to this store (which outlives the
    /// run and may be probed by other runs concurrently) and
    /// [`Outcome::tables`] comes back empty — statistics live in the
    /// store. Program results are identical either way; cycle counts and
    /// hit rates depend on the store's contents (DESIGN.md §8e).
    pub shared_tables: Option<Arc<Vec<ShardedTable>>>,
    /// Stack region size in cells.
    pub stack_cells: usize,
    /// Abort after this many cycles (runaway guard).
    pub max_cycles: u64,
    /// Maximum call depth. The tree-walker recurses on the Rust stack
    /// (up to ~10 KiB per MiniC call in debug builds); [`run`] executes it
    /// on a dedicated thread whose stack is sized for this depth. The
    /// bytecode engine keeps frames on an explicit stack and ignores the
    /// host stack entirely.
    pub max_depth: usize,
    /// Which execution engine to use.
    pub engine: Engine,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cost: CostModel::o0(),
            energy: EnergyModel::default(),
            input: Vec::new(),
            tables: Vec::new(),
            shared_tables: None,
            stack_cells: 1 << 20,
            max_cycles: u64::MAX,
            max_depth: 4096,
            engine: Engine::default(),
        }
    }
}

/// The result of a completed run.
#[derive(Debug)]
pub struct Outcome {
    /// Values printed by the program, in order.
    pub output: Vec<PrintVal>,
    /// `main`'s return value (0 if void).
    pub ret: i64,
    /// Total modelled cycles.
    pub cycles: u64,
    /// Modelled wall-clock seconds at the SA-1110's 206 MHz.
    pub seconds: f64,
    /// Modelled energy in joules.
    pub energy_joules: f64,
    /// Words moved through memo tables (drives the energy table term).
    pub table_words: u64,
    /// Calls per function (frequency profile).
    pub func_calls: Vec<u64>,
    /// Iterations per loop (dense loop index; see `Module::loop_origins`).
    pub loop_counts: Vec<u64>,
    /// Executions per `if` branch: `2i` = then, `2i+1` = else.
    pub branch_counts: Vec<u64>,
    /// The memo tables after the run (for stats and access histograms).
    pub tables: Vec<MemoTable>,
    /// Value-set profiles, if the module contained probes.
    pub profile: Option<ProfileData>,
}

impl Outcome {
    /// The printed output as one newline-separated string.
    pub fn output_text(&self) -> String {
        self.output
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs `module` to completion under `config`.
///
/// # Errors
///
/// Returns a [`Trap`] if the program faults (null deref, division by zero,
/// assertion failure, cycle budget, ...).
///
/// # Examples
///
/// ```
/// let checked = minic::compile("int main() { print(6 * 7); return 0; }").unwrap();
/// let module = vm::lower::lower(&checked);
/// let outcome = vm::run(&module, vm::RunConfig::default())?;
/// assert_eq!(outcome.output_text(), "42");
/// # Ok::<(), vm::value::Trap>(())
/// ```
pub fn run(module: &Module, config: RunConfig) -> Result<Outcome, Trap> {
    match config.engine {
        Engine::Bytecode => {
            // The dispatch loop keeps MiniC frames on an explicit stack,
            // so it runs on the caller's thread with no recursion.
            let bc = crate::bytecode::compile(module, &config.cost);
            crate::interp_bc::run_bc(module, &bc, config)
        }
        Engine::Tree => {
            // The tree-walker recurses on the Rust stack (one chain of
            // frames per MiniC call level), so execute on a thread whose
            // stack is sized to the configured depth: ~16 KiB per level
            // plus slack.
            let stack_bytes = (config.max_depth * 16 * 1024 + (8 << 20)).max(16 << 20);
            std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .name("vm-interp".into())
                    .stack_size(stack_bytes)
                    .spawn_scoped(scope, || run_on_current_thread(module, config))
                    .expect("spawn interpreter thread")
                    .join()
                    .expect("interpreter thread panicked")
            })
        }
    }
}

/// Builds the per-segment profiler when the module carries probes (both
/// engines share this so segment ordering is identical).
pub(crate) fn make_profiler(module: &Module) -> Option<ProfileData> {
    if module.profile_segments.is_empty() {
        None
    } else {
        Some(ProfileData {
            segs: module
                .profile_segments
                .iter()
                .map(|name| SegProfile {
                    name: name.clone(),
                    ..SegProfile::default()
                })
                .collect(),
        })
    }
}

fn run_on_current_thread(module: &Module, config: RunConfig) -> Result<Outcome, Trap> {
    let globals_len = module.globals.len();
    let mut mem = Vec::with_capacity(globals_len + 4096);
    mem.extend_from_slice(&module.globals);

    let profiler = make_profiler(module);

    let tables =
        crate::tables::take_handles(config.tables, config.shared_tables, module.table_count);

    let mut m = Machine {
        module,
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
        profile_stack: Vec::new(),
        key_arena: Vec::new(),
        out_scratch: Vec::new(),
        rec_scratch: Vec::new(),
        probe_scratch: ProbeScratch::default(),
        dep_rt: DepRuntime::new(module),
        fp_scratch: Vec::new(),
    };

    let ret = m.call(module.main, &[])?;
    let ret = match ret {
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

/// Statement execution outcome.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

struct Machine<'m> {
    module: &'m Module,
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
    profiler: Option<ProfileData>,
    profile_stack: Vec<(u32, u64)>,
    /// Memo/profile key words under construction. Nested segments stack
    /// their keys; each user truncates back to its start offset, so the
    /// buffer's capacity is reused and the hot path never allocates.
    key_arena: Vec<u64>,
    /// Reused lookup-output buffer (cleared per probe).
    out_scratch: Vec<u64>,
    /// Reused record buffer (cleared per miss).
    rec_scratch: Vec<u64>,
    /// Reused ancestor-dedup and key-packing buffers for profile probes.
    probe_scratch: ProbeScratch,
    /// Chunk-epoch chains and recording frames for fingerprinted memos.
    dep_rt: DepRuntime,
    /// Reused fingerprint buffer (cleared per record).
    fp_scratch: Vec<u64>,
}

impl<'m> Machine<'m> {
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
    fn read(&mut self, addr: usize) -> Result<Value, Trap> {
        if addr == 0 {
            return Err(Trap::NullDeref);
        }
        let v = match self.mem.get(addr) {
            Some(v) => *v,
            None => return Err(Trap::OutOfBounds(addr)),
        };
        if self.dep_rt.active() {
            self.dep_rt.note_read(addr);
        }
        Ok(v)
    }

    #[inline]
    fn write(&mut self, addr: usize, v: Value) -> Result<(), Trap> {
        if addr == 0 {
            return Err(Trap::NullDeref);
        }
        match self.mem.get_mut(addr) {
            Some(cell) => {
                *cell = v;
                self.dep_rt.note_write(addr, v);
                Ok(())
            }
            None => Err(Trap::OutOfBounds(addr)),
        }
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    fn call(&mut self, fid: u32, args: &[Value]) -> Result<Value, Trap> {
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
        let saved_frame = self.frame;
        let saved_top = self.stack_top;
        self.frame = new_base;
        self.stack_top = new_top;
        for (&(off, coerce), &arg) in func.params.iter().zip(args) {
            let v = coerce_value(arg, coerce)?;
            self.mem[new_base + off as usize] = v;
        }

        let flow = self.exec_block(&func.body);
        self.frame = saved_frame;
        self.stack_top = saved_top;
        self.depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Uninit), // missing return traps on use
        }
    }

    fn call_builtin(&mut self, b: Builtin, args: &[Value]) -> Result<Value, Trap> {
        self.tick(self.cost.builtin);
        match b {
            Builtin::Print => {
                let v = match args[0] {
                    Value::Int(v) => PrintVal::Int(v),
                    Value::Float(v) => PrintVal::Float(v),
                    Value::Uninit => return Err(Trap::UninitRead),
                    _ => return Err(Trap::TypeConfusion("pointer")),
                };
                self.output.push(v);
                Ok(Value::Uninit)
            }
            Builtin::Input => {
                let v = self.input.get(self.input_pos).copied().unwrap_or(0);
                self.input_pos += 1;
                Ok(Value::Int(v))
            }
            Builtin::Eof => Ok(Value::Int(i64::from(self.input_pos >= self.input.len()))),
            Builtin::Assert => {
                if args[0].truthy()? {
                    Ok(Value::Uninit)
                } else {
                    Err(Trap::AssertFailed)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn exec_block(&mut self, stmts: &[LStmt]) -> Result<Flow, Trap> {
        for s in stmts {
            match self.exec(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, s: &LStmt) -> Result<Flow, Trap> {
        match s {
            LStmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            LStmt::Decl { slot, init } => {
                if let Some((e, coerce)) = init {
                    let v = self.eval(e)?;
                    let v = coerce_value(v, *coerce)?;
                    self.tick(self.cost.var_access);
                    let addr = self.frame + *slot as usize;
                    self.mem[addr] = v;
                }
                Ok(Flow::Normal)
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
                branch_idx,
            } => {
                self.tick(self.cost.branch);
                let taken = self.eval(cond)?.truthy()?;
                let slot = (*branch_idx as usize) * 2 + usize::from(!taken);
                self.branch_counts[slot] += 1;
                if taken {
                    self.exec_block(then_blk)
                } else {
                    self.exec_block(else_blk)
                }
            }
            LStmt::While {
                cond,
                body,
                loop_idx,
            } => {
                loop {
                    self.check_budget()?;
                    self.tick(self.cost.branch + self.cost.loop_overhead);
                    if !self.eval(cond)?.truthy()? {
                        break;
                    }
                    self.loop_counts[*loop_idx as usize] += 1;
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            LStmt::DoWhile {
                body,
                cond,
                loop_idx,
            } => {
                loop {
                    self.check_budget()?;
                    self.loop_counts[*loop_idx as usize] += 1;
                    self.tick(self.cost.loop_overhead);
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    self.tick(self.cost.branch);
                    if !self.eval(cond)?.truthy()? {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            LStmt::For {
                init,
                cond,
                step,
                body,
                loop_idx,
            } => {
                if let Some(init) = init {
                    self.exec(init)?;
                }
                loop {
                    self.check_budget()?;
                    self.tick(self.cost.loop_overhead);
                    if let Some(cond) = cond {
                        self.tick(self.cost.branch);
                        if !self.eval(cond)?.truthy()? {
                            break;
                        }
                    }
                    self.loop_counts[*loop_idx as usize] += 1;
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    if let Some(step) = step {
                        self.eval(step)?;
                    }
                }
                Ok(Flow::Normal)
            }
            LStmt::Seq(stmts) => self.exec_block(stmts),
            LStmt::Break => Ok(Flow::Break),
            LStmt::Continue => Ok(Flow::Continue),
            LStmt::Return(v) => {
                let value = match v {
                    None => Value::Uninit,
                    Some((e, coerce)) => {
                        let raw = self.eval(e)?;
                        coerce_value(raw, *coerce)?
                    }
                };
                Ok(Flow::Return(value))
            }
            LStmt::Memo(m) => self.exec_memo(m),
            LStmt::Profile(p) => self.exec_profile(p),
        }
    }

    // ------------------------------------------------------------------
    // Memoization and profiling
    // ------------------------------------------------------------------

    fn exec_memo(&mut self, m: &LMemo) -> Result<Flow, Trap> {
        // Build the concatenated key (paper §2.1: bit patterns of the
        // inputs in a fixed order) on the shared arena; nested segments
        // stack above it.
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
        // A hit and a miss charge the same extra operations (§2.1).
        self.tick(
            self.cost
                .memo_overhead(m.key_words as usize, m.out_words as usize),
        );
        self.table_words += (m.key_words + m.out_words) as u64;

        // Fingerprinted segments validate stored dependency fingerprints
        // against the live chunk epochs (try-mark-green); fingerprint-free
        // entries never reach the validator.
        let fp_words = m.fp_words as usize;
        if fp_words > 0 {
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
                &mut validator,
            )
        };
        if hit {
            self.key_arena.truncate(ks);
            // A hit inside an enclosing recording stands in for the reads
            // the skipped body would have performed: taint the enclosing
            // frames with this segment's full dependency footprint.
            if self.dep_rt.active() && !m.deps.is_empty() {
                self.dep_rt.note_nested_hit(&m.deps);
            }
            // Restore outputs; optionally return the memoized value.
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
                let v = if is_float {
                    Value::Float(f64::from_bits(w))
                } else {
                    Value::Int(w as i64)
                };
                return Ok(Flow::Return(v));
            }
            return Ok(Flow::Normal);
        }

        // Miss: run the body — under a recording frame when the segment
        // is fingerprinted, so the entry can witness what it read — then
        // record outputs (and return value).
        let tracking = fp_words > 0;
        if tracking {
            self.dep_rt.push_frame();
        }
        let flow = self.exec_block(&m.body)?;
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
        let ret_flow = match (&flow, m.ret) {
            (Flow::Return(v), Some(is_float)) => {
                let w = if is_float {
                    v.as_float()?.to_bits()
                } else {
                    v.as_int()? as u64
                };
                self.rec_scratch.push(w);
                true
            }
            (Flow::Normal, None) => false,
            (Flow::Normal, Some(_)) => {
                // The body fell through without returning: don't record a
                // bogus return slot; skip recording entirely. The caller
                // will trap if it uses the missing value.
                if tracking {
                    self.dep_rt.pop_frame();
                }
                self.key_arena.truncate(ks);
                return Ok(Flow::Normal);
            }
            _ => {
                // Break/Continue cannot escape a legal segment.
                if tracking {
                    self.dep_rt.pop_frame();
                }
                self.key_arena.truncate(ks);
                return Ok(flow);
            }
        };
        self.fp_scratch.clear();
        if tracking {
            self.dep_rt
                .pop_frame_build_fp(&m.deps, &mut self.fp_scratch);
            self.tick(self.cost.fp_record_cost(fp_words));
            self.table_words += fp_words as u64;
        }
        self.table_words += m.out_words as u64;
        self.tables.record_dep(
            m.table as usize,
            m.slot as usize,
            &self.key_arena[ks..],
            &self.rec_scratch,
            &self.fp_scratch,
        );
        self.key_arena.truncate(ks);
        if ret_flow {
            Ok(flow)
        } else {
            Ok(Flow::Normal)
        }
    }

    fn exec_profile(&mut self, p: &LProfile) -> Result<Flow, Trap> {
        if self.profiler.is_none() {
            return self.exec_block(&p.body);
        }
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
        // A key that cannot be read (an uninitialised local on a path the
        // body never uses) is counted, not fatal: the probe must not
        // change what the program does.
        self.profiler
            .as_mut()
            .expect("profiler present")
            .record_probe(
                p.seg,
                read.is_ok().then(|| &self.key_arena[ks..]),
                self.profile_stack.iter().map(|&(outer, _)| outer),
                &mut self.probe_scratch,
            );
        self.key_arena.truncate(ks);
        let entry_cycles = self.cycles;
        self.profile_stack.push((p.seg, entry_cycles));
        let flow = self.exec_block(&p.body);
        self.profile_stack.pop();
        let spent = self.cycles - entry_cycles;
        if let Some(prof) = self.profiler.as_mut() {
            prof.segs[p.seg as usize].body_cycles += spent;
        }
        flow
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn place_addr(&mut self, p: &LPlace) -> Result<usize, Trap> {
        match p {
            LPlace::Local(off) => Ok(self.frame + *off as usize),
            LPlace::Global(a) => Ok(*a as usize),
            LPlace::Mem(e) => self.eval(e)?.as_ptr(),
        }
    }

    fn charge_write(&mut self, c: WriteCost) {
        match c {
            WriteCost::Var => self.tick(self.cost.var_access),
            WriteCost::Mem => self.tick(self.cost.mem_access),
        }
    }

    fn charge_op(&mut self, c: CostKind) {
        let n = match c {
            CostKind::IntAlu => self.cost.int_alu,
            CostKind::IntMul => self.cost.int_mul,
            CostKind::IntDiv => self.cost.int_div,
            CostKind::FloatAlu => self.cost.float_alu,
            CostKind::FloatMul => self.cost.float_mul,
            CostKind::FloatDiv => self.cost.float_div,
        };
        self.tick(n);
    }

    fn eval(&mut self, e: &LExpr) -> Result<Value, Trap> {
        match e {
            LExpr::ConstI(v) => Ok(Value::Int(*v)),
            LExpr::ConstF(v) => Ok(Value::Float(*v)),
            LExpr::ConstFn(f) => Ok(Value::Func(*f)),
            LExpr::ReadLocal(off) => {
                self.tick(self.cost.var_access);
                Ok(self.mem[self.frame + *off as usize])
            }
            LExpr::ReadGlobal(a) => {
                self.tick(self.cost.mem_access);
                let a = *a as usize;
                if self.dep_rt.active() {
                    self.dep_rt.note_read(a);
                }
                Ok(self.mem[a])
            }
            LExpr::ReadMem(addr) => {
                let a = self.eval(addr)?.as_ptr()?;
                self.tick(self.cost.mem_access);
                self.read(a)
            }
            LExpr::AddrLocal(off) => Ok(Value::Ptr(self.frame + *off as usize)),
            LExpr::AddrGlobal(a) => Ok(Value::Ptr(*a as usize)),
            LExpr::PtrAdd(base, idx, stride) => {
                let b = self.eval(base)?.as_ptr()?;
                let i = self.eval(idx)?.as_int()?;
                self.tick(self.cost.int_alu);
                let delta = i.wrapping_mul(*stride);
                Ok(Value::Ptr((b as i64).wrapping_add(delta) as usize))
            }
            LExpr::PtrDiff(a, b, stride) => {
                let x = self.eval(a)?.as_ptr()? as i64;
                let y = self.eval(b)?.as_ptr()? as i64;
                self.tick(self.cost.int_alu);
                Ok(Value::Int((x - y) / *stride))
            }
            LExpr::Unary(op, a, ck) => {
                let v = self.eval(a)?;
                self.charge_op(*ck);
                unary_value(*op, v)
            }
            LExpr::Binary(op, a, b, ck) => {
                let x = self.eval(a)?;
                let y = self.eval(b)?;
                self.charge_op(*ck);
                binary_value(*op, x, y)
            }
            LExpr::Logic { and, a, b } => {
                self.tick(self.cost.branch);
                let x = self.eval(a)?.truthy()?;
                let decided = if *and { !x } else { x };
                if decided {
                    Ok(Value::Int(i64::from(x)))
                } else {
                    let y = self.eval(b)?.truthy()?;
                    Ok(Value::Int(i64::from(y)))
                }
            }
            LExpr::Ternary(c, t, f) => {
                self.tick(self.cost.branch);
                if self.eval(c)?.truthy()? {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            LExpr::Assign {
                place,
                value,
                coerce,
                write_cost,
            } => {
                let addr = self.place_addr(place)?;
                let v = self.eval(value)?;
                let v = coerce_value(v, *coerce)?;
                self.charge_write(*write_cost);
                self.write(addr, v)?;
                Ok(v)
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
                let addr = self.place_addr(place)?;
                let old = self.read(addr)?;
                let rhs = self.eval(value)?;
                self.charge_op(*cost);
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
                self.write(addr, new)?;
                Ok(new)
            }
            LExpr::IncDec {
                place,
                delta,
                post,
                ptr_stride,
                write_cost,
            } => {
                let addr = self.place_addr(place)?;
                let old = self.read(addr)?;
                self.tick(self.cost.int_alu);
                let new = match (old, ptr_stride) {
                    (Value::Ptr(a), Some(stride)) => {
                        Value::Ptr((a as i64).wrapping_add(delta * stride) as usize)
                    }
                    (Value::Int(v), _) => Value::Int(v.wrapping_add(*delta)),
                    (Value::Float(v), _) => Value::Float(v + *delta as f64),
                    (Value::Uninit, _) => return Err(Trap::UninitRead),
                    (other, _) => {
                        let _ = other;
                        return Err(Trap::TypeConfusion("function"));
                    }
                };
                self.charge_write(*write_cost);
                self.write(addr, new)?;
                Ok(if *post { old } else { new })
            }
            LExpr::Call { callee, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for (a, coerce) in args {
                    let v = self.eval(a)?;
                    vals.push(coerce_value(v, *coerce)?);
                }
                match callee {
                    LCallee::Func(fid) => self.call(*fid, &vals),
                    LCallee::Builtin(b) => self.call_builtin(*b, &vals),
                    LCallee::Ptr(e) => match self.eval(e)? {
                        Value::Func(fid) => self.call(fid, &vals),
                        Value::Uninit => Err(Trap::UninitRead),
                        _ => Err(Trap::NotAFunction),
                    },
                }
            }
            LExpr::CastInt(a) => {
                let v = self.eval(a)?;
                self.tick(self.cost.int_alu);
                match v {
                    Value::Int(x) => Ok(Value::Int(x)),
                    Value::Float(x) => Ok(Value::Int(x as i64)),
                    Value::Ptr(a) => Ok(Value::Int(a as i64)),
                    Value::Uninit => Err(Trap::UninitRead),
                    Value::Func(_) => Err(Trap::TypeConfusion("function")),
                }
            }
            LExpr::CastFloat(a) => {
                let v = self.eval(a)?;
                self.tick(self.cost.float_alu);
                match v {
                    Value::Int(x) => Ok(Value::Float(x as f64)),
                    Value::Float(x) => Ok(Value::Float(x)),
                    Value::Uninit => Err(Trap::UninitRead),
                    _ => Err(Trap::TypeConfusion("pointer")),
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Helpers shared by both execution engines (the tree-walker above and the
// bytecode dispatch loop in `interp_bc`). Keeping them in one place is
// what makes the cycle/trap-parity contract auditable: an operation's
// semantics exist exactly once.
// ----------------------------------------------------------------------

/// Checked memory read (null + bounds), shared by both engines.
#[inline]
pub(crate) fn mem_read(mem: &[Value], addr: usize) -> Result<Value, Trap> {
    if addr == 0 {
        return Err(Trap::NullDeref);
    }
    match mem.get(addr) {
        Some(v) => Ok(*v),
        None => Err(Trap::OutOfBounds(addr)),
    }
}

/// Checked memory write (null + bounds), shared by both engines.
#[inline]
pub(crate) fn mem_write(mem: &mut [Value], addr: usize, v: Value) -> Result<(), Trap> {
    if addr == 0 {
        return Err(Trap::NullDeref);
    }
    match mem.get_mut(addr) {
        Some(cell) => {
            *cell = v;
            Ok(())
        }
        None => Err(Trap::OutOfBounds(addr)),
    }
}

/// Resolves a memo/profile operand to its base cell address.
pub(crate) fn operand_base(mem: &[Value], frame: usize, op: &LOperand) -> Result<usize, Trap> {
    match op.loc {
        OpLoc::Local(off) => Ok(frame + off as usize),
        OpLoc::Global(addr) => Ok(addr as usize),
        OpLoc::DerefLocal(off) => mem_read(mem, frame + off as usize)?.as_ptr(),
        OpLoc::DerefGlobal(addr) => mem_read(mem, addr as usize)?.as_ptr(),
    }
}

/// Appends an operand's bit pattern to `out` (key/record construction).
/// Appending to a caller-owned buffer keeps the hot path allocation-free.
/// Reads of tracked cells land in any active recording frames (an inner
/// memo's key build is a read the enclosing recording depends on).
pub(crate) fn read_operand_into(
    mem: &[Value],
    frame: usize,
    op: &LOperand,
    out: &mut Vec<u64>,
    dep: &mut DepRuntime,
) -> Result<(), Trap> {
    let base = operand_base(mem, frame, op)?;
    for i in 0..op.words as usize {
        let w = match mem_read(mem, base + i)? {
            Value::Int(v) => v as u64,
            Value::Float(v) => v.to_bits(),
            Value::Ptr(a) => a as u64,
            Value::Func(f) => f as u64,
            Value::Uninit => return Err(Trap::UninitRead),
        };
        out.push(w);
    }
    if dep.active() {
        for i in 0..op.words as usize {
            dep.note_read(base + i);
        }
    }
    Ok(())
}

/// Writes recorded words back into an operand's cells (memo hit restore).
/// Restored writes fold into the epoch chains like ordinary stores: a
/// restore changes tracked memory, so later validations must see it.
pub(crate) fn write_operand_from(
    mem: &mut [Value],
    frame: usize,
    op: &LOperand,
    words: &[u64],
    dep: &mut DepRuntime,
) -> Result<(), Trap> {
    let base = operand_base(mem, frame, op)?;
    for (i, &w) in words.iter().enumerate() {
        let v = if op.is_float {
            Value::Float(f64::from_bits(w))
        } else {
            Value::Int(w as i64)
        };
        mem_write(mem, base + i, v)?;
        dep.note_write(base + i, v);
    }
    Ok(())
}

/// Store-side coercion.
pub(crate) fn coerce_value(v: Value, c: Coerce) -> Result<Value, Trap> {
    match c {
        Coerce::None => Ok(v),
        Coerce::ToInt => match v {
            Value::Int(x) => Ok(Value::Int(x)),
            Value::Float(x) => Ok(Value::Int(x as i64)),
            Value::Uninit => Err(Trap::UninitRead),
            other => Err(Trap::TypeConfusion(match other {
                Value::Ptr(_) => "pointer",
                _ => "function",
            })),
        },
        Coerce::ToFloat => match v {
            Value::Int(x) => Ok(Value::Float(x as f64)),
            Value::Float(x) => Ok(Value::Float(x)),
            Value::Uninit => Err(Trap::UninitRead),
            _ => Err(Trap::TypeConfusion("pointer")),
        },
    }
}

/// Evaluates a unary operator (shared by both engines).
pub(crate) fn unary_value(op: UnOp, v: Value) -> Result<Value, Trap> {
    match op {
        UnOp::Neg => match v {
            Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
            Value::Float(x) => Ok(Value::Float(-x)),
            Value::Uninit => Err(Trap::UninitRead),
            _ => Err(Trap::TypeConfusion("pointer")),
        },
        UnOp::Not => Ok(Value::Int(i64::from(!v.truthy()?))),
        UnOp::BitNot => Ok(Value::Int(!v.as_int()?)),
        UnOp::Deref | UnOp::Addr => unreachable!("lowered away"),
    }
}

/// Evaluates a binary operator (shared by both engines).
pub(crate) fn binary_value(op: BinOp, a: Value, b: Value) -> Result<Value, Trap> {
    use BinOp::*;
    // Pointer comparisons (and null-literal comparisons).
    if matches!(a, Value::Ptr(_)) || matches!(b, Value::Ptr(_)) {
        let x = a.as_ptr()?;
        let y = b.as_ptr()?;
        let r = match op {
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
            Eq => x == y,
            Ne => x != y,
            _ => return Err(Trap::TypeConfusion("pointer")),
        };
        return Ok(Value::Int(i64::from(r)));
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_binary(op, x, y).map(Value::Int),
        _ => {
            let x = a.as_number()?;
            let y = b.as_number()?;
            float_binary(op, x, y)
        }
    }
}

/// The `Int × Int` case of [`binary_value`] (comparisons yield 0/1),
/// also inlined into the bytecode dispatch loop.
#[inline]
pub(crate) fn int_binary(op: BinOp, x: i64, y: i64) -> Result<i64, Trap> {
    use BinOp::*;
    let v = match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_div(y)
        }
        Rem => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        Shl => x.wrapping_shl(y as u32),
        Shr => x.wrapping_shr(y as u32),
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Lt => i64::from(x < y),
        Le => i64::from(x <= y),
        Gt => i64::from(x > y),
        Ge => i64::from(x >= y),
        Eq => i64::from(x == y),
        Ne => i64::from(x != y),
        LogAnd | LogOr => unreachable!("lowered to Logic"),
    };
    Ok(v)
}

fn float_binary(op: BinOp, x: f64, y: f64) -> Result<Value, Trap> {
    use BinOp::*;
    let v = match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Lt => return Ok(Value::Int(i64::from(x < y))),
        Le => return Ok(Value::Int(i64::from(x <= y))),
        Gt => return Ok(Value::Int(i64::from(x > y))),
        Ge => return Ok(Value::Int(i64::from(x >= y))),
        Eq => return Ok(Value::Int(i64::from(x == y))),
        Ne => return Ok(Value::Int(i64::from(x != y))),
        Rem | Shl | Shr | BitAnd | BitOr | BitXor => {
            return Err(Trap::TypeConfusion("float"));
        }
        LogAnd | LogOr => unreachable!("lowered to Logic"),
    };
    Ok(Value::Float(v))
}
