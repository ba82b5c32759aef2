//! Lowering: checked MiniC AST → executable VM IR.
//!
//! The interpreter never consults sema side tables at run time; this pass
//! resolves every variable to a frame offset or absolute global address,
//! folds struct field offsets and array strides into address arithmetic,
//! and attaches a [`CostKind`] to every operation so the cycle account is a
//! single table lookup per node.

use crate::value::Value;
use minic::ast::{
    BinOp, Block, Expr, ExprKind, FuncDef, MemoDep, MemoOperand, NodeId, OperandShape, Program,
    ScalarKind, Stmt, StmtKind, Type, UnOp,
};
use minic::sema::{Builtin, Checked, ConstVal, Res, SemaInfo};
use std::collections::HashMap;

/// Cost class of an operation (indexes into the cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Integer ALU / comparisons / pointer comparisons.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide or remainder.
    IntDiv,
    /// Float add/sub/compare.
    FloatAlu,
    /// Float multiply.
    FloatMul,
    /// Float divide.
    FloatDiv,
}

/// Store-side coercion derived from the destination's static type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coerce {
    /// Store as-is (pointers, function values).
    None,
    /// Truncate floats to int (C assignment semantics).
    ToInt,
    /// Promote ints to float.
    ToFloat,
}

impl Coerce {
    fn of_type(ty: &Type) -> Coerce {
        match ty {
            Type::Int => Coerce::ToInt,
            Type::Float => Coerce::ToFloat,
            _ => Coerce::None,
        }
    }
}

/// A memory location: frame slot, absolute global address, or computed.
#[derive(Debug, Clone)]
pub enum LPlace {
    /// Frame-relative cell.
    Local(u32),
    /// Absolute global cell.
    Global(u32),
    /// Address computed by an expression (must evaluate to a pointer).
    Mem(Box<LExpr>),
}

/// Callee of a lowered call.
#[derive(Debug, Clone)]
pub enum LCallee {
    /// Direct call by function index.
    Func(u32),
    /// VM builtin.
    Builtin(Builtin),
    /// Indirect call through a function-pointer value.
    Ptr(Box<LExpr>),
}

/// A lowered expression.
#[derive(Debug, Clone)]
pub enum LExpr {
    /// Integer constant.
    ConstI(i64),
    /// Float constant.
    ConstF(f64),
    /// Function reference constant.
    ConstFn(u32),
    /// Read a scalar local.
    ReadLocal(u32),
    /// Read a scalar global.
    ReadGlobal(u32),
    /// Load through a computed address.
    ReadMem(Box<LExpr>),
    /// Address of a frame cell.
    AddrLocal(u32),
    /// Address of a global cell.
    AddrGlobal(u32),
    /// `base + idx * stride` pointer arithmetic (stride in cells, signed).
    PtrAdd(Box<LExpr>, Box<LExpr>, i64),
    /// `(a - b) / stride` pointer difference.
    PtrDiff(Box<LExpr>, Box<LExpr>, i64),
    /// Unary op (never Deref/Addr — those lower to loads/addresses).
    Unary(UnOp, Box<LExpr>, CostKind),
    /// Binary arithmetic/comparison (no short-circuit ops).
    Binary(BinOp, Box<LExpr>, Box<LExpr>, CostKind),
    /// Short-circuit `&&`/`||`.
    Logic {
        /// true = `&&`, false = `||`.
        and: bool,
        /// Left operand.
        a: Box<LExpr>,
        /// Right operand (evaluated only if needed).
        b: Box<LExpr>,
    },
    /// `c ? t : f`.
    Ternary(Box<LExpr>, Box<LExpr>, Box<LExpr>),
    /// `place = value`, yielding the stored value.
    Assign {
        /// Destination.
        place: LPlace,
        /// Source expression.
        value: Box<LExpr>,
        /// Store coercion.
        coerce: Coerce,
        /// Cost of the destination access.
        write_cost: WriteCost,
    },
    /// `place op= value`.
    AssignOp {
        /// The arithmetic operator.
        op: BinOp,
        /// Destination (read-modify-write).
        place: LPlace,
        /// Right-hand side.
        value: Box<LExpr>,
        /// Operation cost class.
        cost: CostKind,
        /// Store coercion.
        coerce: Coerce,
        /// `Some(stride)` for pointer stepping (`p += i`).
        ptr_stride: Option<i64>,
        /// Cost of the destination access.
        write_cost: WriteCost,
    },
    /// `++`/`--` on a place.
    IncDec {
        /// Destination.
        place: LPlace,
        /// +1 or −1.
        delta: i64,
        /// Postfix (yield old value) vs prefix (yield new).
        post: bool,
        /// `Some(stride)` when stepping a pointer.
        ptr_stride: Option<i64>,
        /// Cost of the destination access.
        write_cost: WriteCost,
    },
    /// Function or builtin call.
    Call {
        /// Who is called.
        callee: LCallee,
        /// Arguments with per-parameter store coercions.
        args: Vec<(LExpr, Coerce)>,
    },
    /// Cast to int (floats truncate, pointers expose their address).
    CastInt(Box<LExpr>),
    /// Cast to float.
    CastFloat(Box<LExpr>),
}

/// Whether a store hits a register-allocatable slot or memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCost {
    /// Local scalar (free under O3).
    Var,
    /// Global or through-pointer (always memory).
    Mem,
}

/// Location of a memo/profile operand.
#[derive(Debug, Clone, Copy)]
pub enum OpLoc {
    /// Scalar or array starting at a frame offset.
    Local(u32),
    /// Scalar or array starting at a global address.
    Global(u32),
    /// Cells behind a pointer stored in a frame slot.
    DerefLocal(u32),
    /// Cells behind a pointer stored in a global.
    DerefGlobal(u32),
}

/// A lowered memo/profile operand.
#[derive(Debug, Clone, Copy)]
pub struct LOperand {
    /// Where the words live.
    pub loc: OpLoc,
    /// Number of 64-bit words.
    pub words: u32,
    /// Whether cells are floats (for decode on hits).
    pub is_float: bool,
}

/// A tracked global memory region some memoized segment depends on.
/// Regions are interned module-wide; each divides into at most 64
/// power-of-two chunks whose chained write epochs back fingerprint
/// validation.
#[derive(Debug, Clone, Copy)]
pub struct DepRegion {
    /// First global memory cell of the region.
    pub addr: u32,
    /// Extent in cells.
    pub words: u32,
    /// log2 of the chunk size in cells.
    pub shift: u32,
    /// Number of chunks (`ceil(words / 2^shift)`, 1..=64).
    pub chunks: u32,
    /// Offset of this region's first chunk epoch in the flat epoch array.
    pub epoch_off: u32,
}

/// One validated dependency of a lowered memo: a module dep region plus
/// its mutability (mutable deps make the segment green).
#[derive(Debug, Clone, Copy)]
pub struct LDep {
    /// Index into [`Module::dep_regions`].
    pub region: u32,
    /// Whether the program writes the region after initialization.
    pub mutable: bool,
}

/// A lowered memoized segment.
#[derive(Debug, Clone)]
pub struct LMemo {
    /// Runtime table index.
    pub table: u32,
    /// Slot within a merged table (0 otherwise).
    pub slot: u32,
    /// Input operands (the hash key).
    pub inputs: Vec<LOperand>,
    /// Output operands.
    pub outputs: Vec<LOperand>,
    /// Validated dependency regions (fingerprinted, not in the key).
    pub deps: Vec<LDep>,
    /// Memoized return value: `Some(is_float)`.
    pub ret: Option<bool>,
    /// Original body (runs on a miss).
    pub body: Vec<LStmt>,
    /// Total key words (cached).
    pub key_words: u32,
    /// Total output words including the return slot (cached).
    pub out_words: u32,
    /// Fingerprint words per table entry (`2 × deps.len()`, cached).
    pub fp_words: u32,
    /// Whether any dependency is mutable: a validated hit is then one
    /// exact matching would have recomputed (counted as a green hit).
    pub green: bool,
}

/// A lowered profiling probe.
#[derive(Debug, Clone)]
pub struct LProfile {
    /// Segment index in the profiling plan.
    pub seg: u32,
    /// Input operands recorded on entry.
    pub inputs: Vec<LOperand>,
    /// The body.
    pub body: Vec<LStmt>,
}

/// A lowered statement.
#[derive(Debug, Clone)]
pub enum LStmt {
    /// Expression for effect.
    Expr(LExpr),
    /// Local declaration: optional scalar initializer.
    Decl {
        /// Frame offset.
        slot: u32,
        /// Initializer and its coercion.
        init: Option<(LExpr, Coerce)>,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: LExpr,
        /// Then branch.
        then_blk: Vec<LStmt>,
        /// Else branch (possibly empty).
        else_blk: Vec<LStmt>,
        /// Dense index into branch counters (then = 2i, else = 2i+1).
        branch_idx: u32,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: LExpr,
        /// Body.
        body: Vec<LStmt>,
        /// Dense loop counter index.
        loop_idx: u32,
    },
    /// `do ... while` loop.
    DoWhile {
        /// Body.
        body: Vec<LStmt>,
        /// Condition.
        cond: LExpr,
        /// Dense loop counter index.
        loop_idx: u32,
    },
    /// `for` loop.
    For {
        /// Init statement.
        init: Option<Box<LStmt>>,
        /// Condition (None = always true).
        cond: Option<LExpr>,
        /// Step expression.
        step: Option<LExpr>,
        /// Body.
        body: Vec<LStmt>,
        /// Dense loop counter index.
        loop_idx: u32,
    },
    /// A nested `{ ... }` block (scoping already resolved; purely a
    /// statement sequence).
    Seq(Vec<LStmt>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return` with optional coerced value.
    Return(Option<(LExpr, Coerce)>),
    /// Memoized segment.
    Memo(LMemo),
    /// Profiling probe.
    Profile(LProfile),
}

/// A lowered function.
#[derive(Debug, Clone)]
pub struct LFunc {
    /// Name (diagnostics and frequency reports).
    pub name: String,
    /// Frame size in cells.
    pub frame: u32,
    /// Parameter frame offsets with store coercions, in order.
    pub params: Vec<(u32, Coerce)>,
    /// Body.
    pub body: Vec<LStmt>,
}

/// An executable module.
#[derive(Debug, Clone)]
pub struct Module {
    /// Functions, index-compatible with the checked program.
    pub funcs: Vec<LFunc>,
    /// Index of `main`.
    pub main: u32,
    /// Initial global memory (cell 0 reserved).
    pub globals: Vec<Value>,
    /// AST origin of each dense loop counter.
    pub loop_origins: Vec<NodeId>,
    /// AST origin and then/else flag of each dense branch counter pair
    /// (index `i` covers counters `2i` and `2i+1`).
    pub branch_origins: Vec<NodeId>,
    /// Names of profiled segments, by segment index.
    pub profile_segments: Vec<String>,
    /// Number of memo tables the module expects at run time.
    pub table_count: usize,
    /// Tracked dependency regions (union over all memos' deps).
    pub dep_regions: Vec<DepRegion>,
    /// Total chunk-epoch words across all dep regions.
    pub dep_epoch_words: u32,
}

/// Lowers a checked program.
///
/// # Panics
///
/// Panics only on internal inconsistencies (a program accepted by
/// [`minic::check`] always lowers).
///
/// # Examples
///
/// ```
/// let checked = minic::compile("int main() { return 40 + 2; }").unwrap();
/// let module = vm::lower::lower(&checked);
/// assert_eq!(module.funcs.len(), 1);
/// ```
pub fn lower(checked: &Checked) -> Module {
    let mut lw = Lowerer {
        info: &checked.info,
        program: &checked.program,
        loop_origins: Vec::new(),
        branch_origins: Vec::new(),
        profile_segments: Vec::new(),
        table_count: 0,
        current_func: 0,
        dep_regions: Vec::new(),
        dep_index: HashMap::new(),
        dep_epoch_words: 0,
    };
    let funcs: Vec<LFunc> = checked
        .program
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| lw.lower_func(i, f))
        .collect();
    let main = checked.info.main as u32;
    Module {
        funcs,
        main,
        globals: build_globals(&checked.info),
        loop_origins: lw.loop_origins,
        branch_origins: lw.branch_origins,
        profile_segments: lw.profile_segments,
        table_count: lw.table_count,
        dep_regions: lw.dep_regions,
        dep_epoch_words: lw.dep_epoch_words,
    }
}

/// Builds the initial global memory image: cell 0 reserved, then each
/// global zero-initialized per its element kinds, overridden by constant
/// initializers.
fn build_globals(info: &SemaInfo) -> Vec<Value> {
    let mut mem = vec![Value::Uninit; info.global_region];
    for g in &info.globals {
        let mut kinds = Vec::with_capacity(g.size);
        fill_default_kinds(info, &g.ty, &mut kinds);
        debug_assert_eq!(kinds.len(), g.size);
        for (i, v) in kinds.into_iter().enumerate() {
            mem[g.addr + i] = v;
        }
        if let Some(init) = &g.init {
            for (i, c) in init.iter().enumerate() {
                mem[g.addr + i] = match c {
                    ConstVal::Int(v) => Value::Int(*v),
                    ConstVal::Float(v) => Value::Float(*v),
                };
            }
        }
    }
    mem
}

fn fill_default_kinds(info: &SemaInfo, ty: &Type, out: &mut Vec<Value>) {
    match ty {
        Type::Int => out.push(Value::Int(0)),
        Type::Float => out.push(Value::Float(0.0)),
        Type::Ptr(_) => out.push(Value::Ptr(0)),
        Type::Func(_) => out.push(Value::Uninit),
        Type::Void => {}
        Type::Array(elem, n) => {
            for _ in 0..*n {
                fill_default_kinds(info, elem, out);
            }
        }
        Type::Struct(name) => {
            let layout = info.structs.get(name).expect("known struct").clone();
            for (_, fty, _) in &layout.fields {
                fill_default_kinds(info, fty, out);
            }
        }
    }
}

struct Lowerer<'c> {
    info: &'c SemaInfo,
    program: &'c Program,
    loop_origins: Vec<NodeId>,
    branch_origins: Vec<NodeId>,
    profile_segments: Vec<String>,
    table_count: usize,
    current_func: usize,
    dep_regions: Vec<DepRegion>,
    dep_index: HashMap<usize, u32>,
    dep_epoch_words: u32,
}

impl<'c> Lowerer<'c> {
    fn lower_func(&mut self, idx: usize, f: &FuncDef) -> LFunc {
        self.current_func = idx;
        let frame = &self.info.frames[idx];
        let params = f
            .params
            .iter()
            .zip(&frame.param_offsets)
            .map(|(p, &off)| (off as u32, Coerce::of_type(&p.ty)))
            .collect();
        LFunc {
            name: f.name.clone(),
            frame: frame.size as u32,
            params,
            body: self.lower_block(&f.body),
        }
    }

    fn lower_block(&mut self, b: &Block) -> Vec<LStmt> {
        b.stmts.iter().filter_map(|s| self.lower_stmt(s)).collect()
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Option<LStmt> {
        Some(match &s.kind {
            StmtKind::Decl { ty, init, .. } => {
                let slot = *self
                    .info
                    .frames
                    .get(self.current_frame_of(s))
                    .and_then(|f| f.decl_offsets.get(&s.id))
                    .expect("decl has a slot") as u32;
                let init = init
                    .as_ref()
                    .map(|e| (self.lower_expr(e), Coerce::of_type(ty)));
                LStmt::Decl { slot, init }
            }
            StmtKind::Expr(e) => LStmt::Expr(self.lower_expr(e)),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let branch_idx = self.branch_origins.len() as u32;
                self.branch_origins.push(s.id);
                LStmt::If {
                    cond: self.lower_expr(cond),
                    then_blk: self.lower_block(then_blk),
                    else_blk: else_blk
                        .as_ref()
                        .map(|b| self.lower_block(b))
                        .unwrap_or_default(),
                    branch_idx,
                }
            }
            StmtKind::While { cond, body } => {
                let loop_idx = self.push_loop(s.id);
                LStmt::While {
                    cond: self.lower_expr(cond),
                    body: self.lower_block(body),
                    loop_idx,
                }
            }
            StmtKind::DoWhile { body, cond } => {
                let loop_idx = self.push_loop(s.id);
                LStmt::DoWhile {
                    body: self.lower_block(body),
                    cond: self.lower_expr(cond),
                    loop_idx,
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let loop_idx = self.push_loop(s.id);
                LStmt::For {
                    init: init
                        .as_ref()
                        .and_then(|st| self.lower_stmt(st))
                        .map(Box::new),
                    cond: cond.as_ref().map(|e| self.lower_expr(e)),
                    step: step.as_ref().map(|e| self.lower_expr(e)),
                    body: self.lower_block(body),
                    loop_idx,
                }
            }
            StmtKind::Break => LStmt::Break,
            StmtKind::Continue => LStmt::Continue,
            StmtKind::Return(v) => LStmt::Return(v.as_ref().map(|e| {
                let coerce = Coerce::of_type(&self.current_ret_of(s));
                (self.lower_expr(e), coerce)
            })),
            StmtKind::Block(b) => {
                let inner = self.lower_block(b);
                if inner.is_empty() {
                    return None;
                }
                LStmt::Seq(inner)
            }
            StmtKind::Profile(p) => {
                let seg = p.seg_index as u32;
                while self.profile_segments.len() <= p.seg_index {
                    self.profile_segments.push(String::new());
                }
                self.profile_segments[p.seg_index] = p.segment.clone();
                LStmt::Profile(LProfile {
                    seg,
                    inputs: self.lower_operands(s.id, &p.inputs, 0),
                    body: self.lower_block(&p.body),
                })
            }
            StmtKind::Memo(m) => {
                self.table_count = self.table_count.max(m.table + 1);
                let inputs = self.lower_operands(s.id, &m.inputs, 0);
                let outputs = self.lower_operands(s.id, &m.outputs, m.inputs.len());
                let key_words: u32 = inputs.iter().map(|o| o.words).sum();
                let out_words: u32 =
                    outputs.iter().map(|o| o.words).sum::<u32>() + u32::from(m.ret.is_some());
                let deps: Vec<LDep> = m
                    .deps
                    .iter()
                    .map(|d| LDep {
                        region: self.intern_dep(d),
                        mutable: d.mutable,
                    })
                    .collect();
                let fp_words = 2 * deps.len() as u32;
                let green = deps.iter().any(|d| d.mutable);
                LStmt::Memo(LMemo {
                    table: m.table as u32,
                    slot: m.slot as u32,
                    inputs,
                    outputs,
                    deps,
                    ret: m.ret.map(|k| k == ScalarKind::Float),
                    body: self.lower_block(&m.body),
                    key_words,
                    out_words,
                    fp_words,
                    green,
                })
            }
        })
    }

    /// Interns the dep's global as a module dep region (deduplicated by
    /// global), assigning its chunk-epoch range on first sight.
    fn intern_dep(&mut self, dep: &MemoDep) -> u32 {
        let gid = *self
            .info
            .global_index
            .get(&dep.name)
            .expect("memo dep names a global (checked by sema)");
        if let Some(&idx) = self.dep_index.get(&gid) {
            return idx;
        }
        let g = &self.info.globals[gid];
        let shift = dep.chunk_shift();
        let chunks = dep.chunk_count() as u32;
        let idx = self.dep_regions.len() as u32;
        self.dep_regions.push(DepRegion {
            addr: g.addr as u32,
            words: dep.words as u32,
            shift,
            chunks,
            epoch_off: self.dep_epoch_words,
        });
        self.dep_epoch_words += chunks;
        self.dep_index.insert(gid, idx);
        idx
    }

    fn push_loop(&mut self, id: NodeId) -> u32 {
        let idx = self.loop_origins.len() as u32;
        self.loop_origins.push(id);
        idx
    }

    fn lower_operands(
        &self,
        stmt_id: NodeId,
        ops: &[MemoOperand],
        idx_base: usize,
    ) -> Vec<LOperand> {
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                let res = self
                    .info
                    .operand_res
                    .get(&(stmt_id, idx_base + i))
                    .expect("operand resolved by sema");
                let deref = matches!(op.shape, OperandShape::Deref(_));
                let loc = match (res, deref) {
                    (Res::Slot(off), false) => OpLoc::Local(*off as u32),
                    (Res::Slot(off), true) => OpLoc::DerefLocal(*off as u32),
                    (Res::Global(g), false) => OpLoc::Global(self.info.globals[*g].addr as u32),
                    (Res::Global(g), true) => OpLoc::DerefGlobal(self.info.globals[*g].addr as u32),
                    _ => panic!("memo operand resolves to a function"),
                };
                LOperand {
                    loc,
                    words: op.words() as u32,
                    is_float: op.elem == ScalarKind::Float,
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn ty(&self, e: &Expr) -> &Type {
        self.info.type_of(e)
    }

    fn elem_size(&self, ty: &Type) -> i64 {
        match ty {
            Type::Ptr(inner) | Type::Array(inner, _) => self.info.size_of(inner) as i64,
            other => panic!("elem_size of non-pointer type {other}"),
        }
    }

    fn cost_kind(&self, op: BinOp, is_float: bool) -> CostKind {
        match (op, is_float) {
            (BinOp::Mul, false) => CostKind::IntMul,
            (BinOp::Div | BinOp::Rem, false) => CostKind::IntDiv,
            (BinOp::Mul, true) => CostKind::FloatMul,
            (BinOp::Div, true) => CostKind::FloatDiv,
            (_, true) => CostKind::FloatAlu,
            (_, false) => CostKind::IntAlu,
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> LExpr {
        match &e.kind {
            ExprKind::IntLit(v) => LExpr::ConstI(*v),
            ExprKind::FloatLit(v) => LExpr::ConstF(*v),
            ExprKind::Var(_) => self.lower_var_read(e),
            ExprKind::Unary(UnOp::Deref, p) => {
                // Deref of a function-typed value is the identity (C).
                if matches!(self.ty(p), Type::Func(_)) {
                    return self.lower_expr(p);
                }
                // Deref yielding an array decays to the address itself.
                if matches!(self.ty(e), Type::Array(..)) {
                    return self.lower_expr(p);
                }
                LExpr::ReadMem(Box::new(self.lower_expr(p)))
            }
            ExprKind::Unary(UnOp::Addr, lv) => self.lower_addr(lv),
            ExprKind::Unary(op, a) => {
                let ck = if matches!(self.ty(a), Type::Float) {
                    CostKind::FloatAlu
                } else {
                    CostKind::IntAlu
                };
                LExpr::Unary(*op, Box::new(self.lower_expr(a)), ck)
            }
            ExprKind::Binary(op, a, b) => self.lower_binary(e, *op, a, b),
            ExprKind::IncDec(op, lv) => {
                let ty = minic::sema::decay(self.ty(lv));
                let ptr_stride = matches!(ty, Type::Ptr(_)).then(|| self.elem_size(&ty));
                let (place, write_cost) = self.lower_place(lv);
                LExpr::IncDec {
                    place,
                    delta: op.delta(),
                    post: !op.is_prefix(),
                    ptr_stride,
                    write_cost,
                }
            }
            ExprKind::Assign(l, r) => {
                let coerce = Coerce::of_type(&minic::sema::decay(self.ty(l)));
                let (place, write_cost) = self.lower_place(l);
                LExpr::Assign {
                    place,
                    value: Box::new(self.lower_expr(r)),
                    coerce,
                    write_cost,
                }
            }
            ExprKind::AssignOp(op, l, r) => {
                let lty = minic::sema::decay(self.ty(l));
                let ptr_stride = matches!(lty, Type::Ptr(_)).then(|| self.elem_size(&lty));
                let is_float = matches!(lty, Type::Float) || matches!(self.ty(r), Type::Float);
                let (place, write_cost) = self.lower_place(l);
                LExpr::AssignOp {
                    op: *op,
                    place,
                    value: Box::new(self.lower_expr(r)),
                    cost: self.cost_kind(*op, is_float),
                    coerce: Coerce::of_type(&lty),
                    ptr_stride,
                    write_cost,
                }
            }
            ExprKind::Ternary(c, t, f) => LExpr::Ternary(
                Box::new(self.lower_expr(c)),
                Box::new(self.lower_expr(t)),
                Box::new(self.lower_expr(f)),
            ),
            ExprKind::Call(callee, args) => self.lower_call(callee, args),
            ExprKind::Index(base, idx) => {
                let stride = self.elem_size(&minic::sema::decay(self.ty(base)));
                let addr = LExpr::PtrAdd(
                    Box::new(self.lower_expr(base)),
                    Box::new(self.lower_expr(idx)),
                    stride,
                );
                if matches!(self.ty(e), Type::Array(..)) {
                    addr // decay: the element is itself an array
                } else {
                    LExpr::ReadMem(Box::new(addr))
                }
            }
            ExprKind::Member(..) | ExprKind::Arrow(..) => {
                if matches!(self.ty(e), Type::Array(..)) {
                    // Field of array type decays to its address.
                    let (place, _) = self.lower_place(e);
                    self.place_addr(place)
                } else {
                    let (place, _) = self.lower_place(e);
                    match place {
                        LPlace::Local(off) => LExpr::ReadLocal(off),
                        LPlace::Global(a) => LExpr::ReadGlobal(a),
                        LPlace::Mem(addr) => LExpr::ReadMem(addr),
                    }
                }
            }
            ExprKind::Cast(ty, a) => {
                let inner = self.lower_expr(a);
                match ty {
                    Type::Int => LExpr::CastInt(Box::new(inner)),
                    Type::Float => LExpr::CastFloat(Box::new(inner)),
                    // Pointer casts are representation no-ops.
                    _ => inner,
                }
            }
        }
    }

    fn lower_var_read(&mut self, e: &Expr) -> LExpr {
        let res = self.info.res.get(&e.id).expect("var resolved");
        match res {
            Res::Slot(off) => {
                if matches!(self.ty(e), Type::Array(..)) {
                    LExpr::AddrLocal(*off as u32)
                } else {
                    LExpr::ReadLocal(*off as u32)
                }
            }
            Res::Global(g) => {
                let addr = self.info.globals[*g].addr as u32;
                if matches!(self.ty(e), Type::Array(..)) {
                    LExpr::AddrGlobal(addr)
                } else {
                    LExpr::ReadGlobal(addr)
                }
            }
            Res::Func(fid) => LExpr::ConstFn(*fid as u32),
            Res::Builtin(_) => panic!("builtin used outside call position"),
        }
    }

    fn lower_binary(&mut self, e: &Expr, op: BinOp, a: &Expr, b: &Expr) -> LExpr {
        let aty = minic::sema::decay(self.ty(a));
        let bty = minic::sema::decay(self.ty(b));
        match (&aty, &bty, op) {
            (Type::Ptr(_), Type::Int, BinOp::Add) => LExpr::PtrAdd(
                Box::new(self.lower_expr(a)),
                Box::new(self.lower_expr(b)),
                self.elem_size(&aty),
            ),
            (Type::Ptr(_), Type::Int, BinOp::Sub) => LExpr::PtrAdd(
                Box::new(self.lower_expr(a)),
                Box::new(self.lower_expr(b)),
                -self.elem_size(&aty),
            ),
            (Type::Int, Type::Ptr(_), BinOp::Add) => LExpr::PtrAdd(
                Box::new(self.lower_expr(b)),
                Box::new(self.lower_expr(a)),
                self.elem_size(&bty),
            ),
            (Type::Ptr(_), Type::Ptr(_), BinOp::Sub) => LExpr::PtrDiff(
                Box::new(self.lower_expr(a)),
                Box::new(self.lower_expr(b)),
                self.elem_size(&aty),
            ),
            _ if op == BinOp::LogAnd || op == BinOp::LogOr => LExpr::Logic {
                and: op == BinOp::LogAnd,
                a: Box::new(self.lower_expr(a)),
                b: Box::new(self.lower_expr(b)),
            },
            _ => {
                let is_float = matches!(aty, Type::Float) || matches!(bty, Type::Float);
                let ck = self.cost_kind(op, is_float);
                let _ = e;
                LExpr::Binary(
                    op,
                    Box::new(self.lower_expr(a)),
                    Box::new(self.lower_expr(b)),
                    ck,
                )
            }
        }
    }

    fn lower_call(&mut self, callee: &Expr, args: &[Expr]) -> LExpr {
        // Peel `(*fp)` — deref of a function value is identity.
        let mut target = callee;
        while let ExprKind::Unary(UnOp::Deref, inner) = &target.kind {
            if matches!(self.ty(inner), Type::Func(_)) {
                target = inner;
            } else {
                break;
            }
        }
        let (lcallee, param_coerce): (LCallee, Vec<Coerce>) = match &target.kind {
            ExprKind::Var(_) => match self.info.res.get(&target.id) {
                Some(Res::Func(fid)) => {
                    let coerces = self.program.funcs[*fid]
                        .params
                        .iter()
                        .map(|p| Coerce::of_type(&p.ty))
                        .collect();
                    (LCallee::Func(*fid as u32), coerces)
                }
                Some(Res::Builtin(b)) => (LCallee::Builtin(*b), vec![Coerce::None; args.len()]),
                _ => self.indirect_callee(target, args),
            },
            _ => self.indirect_callee(target, args),
        };
        let args = args
            .iter()
            .zip(
                param_coerce
                    .into_iter()
                    .chain(std::iter::repeat(Coerce::None)),
            )
            .map(|(a, c)| (self.lower_expr(a), c))
            .collect();
        LExpr::Call {
            callee: lcallee,
            args,
        }
    }

    fn indirect_callee(&mut self, target: &Expr, args: &[Expr]) -> (LCallee, Vec<Coerce>) {
        let coerces = match minic::sema::decay(self.ty(target)) {
            Type::Func(sig) => sig.params.iter().map(Coerce::of_type).collect(),
            Type::Ptr(inner) => match *inner {
                Type::Func(sig) => sig.params.iter().map(Coerce::of_type).collect(),
                _ => vec![Coerce::None; args.len()],
            },
            _ => vec![Coerce::None; args.len()],
        };
        (LCallee::Ptr(Box::new(self.lower_expr(target))), coerces)
    }

    /// Lowers an lvalue to a place and its write-cost class.
    fn lower_place(&mut self, lv: &Expr) -> (LPlace, WriteCost) {
        match &lv.kind {
            ExprKind::Var(_) => match self.info.res.get(&lv.id).expect("var resolved") {
                Res::Slot(off) => (LPlace::Local(*off as u32), WriteCost::Var),
                Res::Global(g) => (
                    LPlace::Global(self.info.globals[*g].addr as u32),
                    WriteCost::Mem,
                ),
                _ => panic!("assignment to function name rejected by sema"),
            },
            ExprKind::Unary(UnOp::Deref, p) => {
                (LPlace::Mem(Box::new(self.lower_expr(p))), WriteCost::Mem)
            }
            ExprKind::Index(base, idx) => {
                let stride = self.elem_size(&minic::sema::decay(self.ty(base)));
                (
                    LPlace::Mem(Box::new(LExpr::PtrAdd(
                        Box::new(self.lower_expr(base)),
                        Box::new(self.lower_expr(idx)),
                        stride,
                    ))),
                    WriteCost::Mem,
                )
            }
            ExprKind::Member(base, _) => {
                let off = *self
                    .info
                    .field_offsets
                    .get(&lv.id)
                    .expect("field offset recorded") as u32;
                let (bplace, bcost) = self.lower_place(base);
                match bplace {
                    LPlace::Local(b) => (LPlace::Local(b + off), bcost),
                    LPlace::Global(b) => (LPlace::Global(b + off), bcost),
                    LPlace::Mem(addr) => (
                        LPlace::Mem(Box::new(LExpr::PtrAdd(
                            addr,
                            Box::new(LExpr::ConstI(off as i64)),
                            1,
                        ))),
                        WriteCost::Mem,
                    ),
                }
            }
            ExprKind::Arrow(base, _) => {
                let off = *self
                    .info
                    .field_offsets
                    .get(&lv.id)
                    .expect("field offset recorded") as i64;
                (
                    LPlace::Mem(Box::new(LExpr::PtrAdd(
                        Box::new(self.lower_expr(base)),
                        Box::new(LExpr::ConstI(off)),
                        1,
                    ))),
                    WriteCost::Mem,
                )
            }
            other => panic!("not an lvalue (sema verified): {other:?}"),
        }
    }

    /// Lowers `&lv`.
    fn lower_addr(&mut self, lv: &Expr) -> LExpr {
        let (place, _) = self.lower_place(lv);
        self.place_addr(place)
    }

    fn place_addr(&self, place: LPlace) -> LExpr {
        match place {
            LPlace::Local(off) => LExpr::AddrLocal(off),
            LPlace::Global(a) => LExpr::AddrGlobal(a),
            LPlace::Mem(addr) => *addr,
        }
    }

    /// Finds which function's frame a statement belongs to. Statements are
    /// lowered function-by-function, so this is the index of the function
    /// currently being lowered; tracked via `current_func`.
    fn current_frame_of(&self, _s: &Stmt) -> usize {
        self.current_func
    }

    fn current_ret_of(&self, _s: &Stmt) -> Type {
        self.program.funcs[self.current_func].ret.clone()
    }
}
