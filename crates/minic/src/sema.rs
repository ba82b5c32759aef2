//! Semantic analysis: name resolution, type checking, and layout.
//!
//! [`check`] renumbers every AST node, resolves variable references to
//! frame slots / globals / functions / builtins, computes struct and frame
//! layouts in *cells* (one cell = one scalar machine word), type-checks all
//! expressions, and returns a [`Checked`] program whose [`SemaInfo`] side
//! tables drive the flow/analysis crates and the VM's lowering step.

use crate::ast::*;
use crate::error::{Diag, Diags, Phase};
use crate::span::Span;
use crate::visit::{self, VisitMut};
use std::collections::HashMap;

/// Built-in functions provided by the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `print(x)` — append an int/float to the program's output stream.
    Print,
    /// `input()` — read the next value from the host-provided input stream
    /// (returns 0 at end of input).
    Input,
    /// `eof()` — 1 if the input stream is exhausted, else 0.
    Eof,
    /// `assert(c)` — trap if `c` is zero.
    Assert,
}

impl Builtin {
    /// Looks up a builtin by source name.
    pub fn by_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "print" => Builtin::Print,
            "input" => Builtin::Input,
            "eof" => Builtin::Eof,
            "assert" => Builtin::Assert,
            _ => return None,
        })
    }
}

/// What a variable reference resolves to.
#[derive(Debug, Clone, PartialEq)]
pub enum Res {
    /// A local or parameter at the given frame offset (in cells).
    Slot(usize),
    /// A global, by index into [`SemaInfo::globals`].
    Global(usize),
    /// A function, by index into `Program::funcs`.
    Func(usize),
    /// A VM builtin.
    Builtin(Builtin),
}

/// Layout of a struct type.
#[derive(Debug, Clone, PartialEq)]
pub struct StructLayout {
    /// Field name, type, and offset in cells, in declaration order.
    pub fields: Vec<(String, Type, usize)>,
    /// Total size in cells.
    pub size: usize,
}

impl StructLayout {
    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&(String, Type, usize)> {
        self.fields.iter().find(|(n, _, _)| n == name)
    }
}

/// Layout of a global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalLayout {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Base address in the global region (cells; address 0 is reserved).
    pub addr: usize,
    /// Size in cells.
    pub size: usize,
    /// Whether declared `const`.
    pub is_const: bool,
    /// Constant initializer values, flattened in memory order (one entry
    /// per cell), if an initializer was given. Cells beyond the initializer
    /// are zero.
    pub init: Option<Vec<ConstVal>>,
}

/// A compile-time constant value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstVal {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
}

/// Per-function frame layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameLayout {
    /// Total frame size in cells.
    pub size: usize,
    /// Frame offset of each parameter, in order.
    pub param_offsets: Vec<usize>,
    /// Frame offset assigned to each local declaration, keyed by the
    /// `StmtKind::Decl` statement's node id.
    pub decl_offsets: HashMap<NodeId, usize>,
}

/// Side tables produced by [`check`].
#[derive(Debug, Clone, Default)]
pub struct SemaInfo {
    /// Struct layouts by name.
    pub structs: HashMap<String, StructLayout>,
    /// Global layouts; index is the global id used by [`Res::Global`].
    pub globals: Vec<GlobalLayout>,
    /// Global name → id.
    pub global_index: HashMap<String, usize>,
    /// Total size of the global region in cells (including reserved cell 0).
    pub global_region: usize,
    /// Function name → index into `Program::funcs`.
    pub func_index: HashMap<String, usize>,
    /// Index of `main`, the entry point, in `Program::funcs`. A program
    /// checks only if it defines `main` with no parameters.
    pub main: usize,
    /// Frame layouts, parallel to `Program::funcs`.
    pub frames: Vec<FrameLayout>,
    /// Static type of every expression (arrays kept un-decayed).
    pub expr_types: HashMap<NodeId, Type>,
    /// Resolution of every `Var` expression.
    pub res: HashMap<NodeId, Res>,
    /// Cell offset of the accessed field for every `Member`/`Arrow`.
    pub field_offsets: HashMap<NodeId, usize>,
    /// Resolution of memo/profile operands, keyed by
    /// `(statement id, operand index)` with inputs numbered before outputs.
    pub operand_res: HashMap<(NodeId, usize), Res>,
    /// One past the largest node id in the program.
    pub next_node_id: u32,
}

impl SemaInfo {
    /// Size of `ty` in cells.
    ///
    /// # Panics
    ///
    /// Panics if `ty` mentions an unknown struct (checked programs never do).
    pub fn size_of(&self, ty: &Type) -> usize {
        match ty {
            Type::Int | Type::Float | Type::Ptr(_) | Type::Func(_) => 1,
            Type::Void => 0,
            Type::Array(elem, n) => self.size_of(elem) * n,
            Type::Struct(name) => {
                self.structs
                    .get(name)
                    .unwrap_or_else(|| panic!("unknown struct `{name}`"))
                    .size
            }
        }
    }

    /// The type of expression `e` as recorded during checking.
    ///
    /// # Panics
    ///
    /// Panics if `e` was not part of the checked program.
    pub fn type_of(&self, e: &Expr) -> &Type {
        self.expr_types
            .get(&e.id)
            .unwrap_or_else(|| panic!("no type recorded for expr {}", e.id))
    }
}

/// A checked program: renumbered AST plus sema side tables.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The program, with every node id unique.
    pub program: Program,
    /// Resolution, typing, and layout information.
    pub info: SemaInfo,
}

/// Checks `program`, renumbering all node ids and building [`SemaInfo`].
///
/// # Errors
///
/// Returns all diagnostics found (at least one) if the program is invalid.
///
/// # Examples
///
/// ```
/// let prog = minic::parse("int main() { return 1 + 2; }")?;
/// let checked = minic::check(prog).map_err(|e| e.0.into_iter().next().unwrap())?;
/// assert!(checked.info.func_index.contains_key("main"));
/// # Ok::<(), minic::error::Diag>(())
/// ```
pub fn check(mut program: Program) -> Result<Checked, Diags> {
    let next_node_id = renumber(&mut program);
    let mut checker = Checker {
        info: SemaInfo {
            next_node_id,
            ..SemaInfo::default()
        },
        diags: Vec::new(),
        scopes: Vec::new(),
        frame: FrameLayout::default(),
        current_ret: Type::Void,
        loop_depth: 0,
        func_sigs: Vec::new(),
    };
    checker.check_program(&program);
    if checker.diags.is_empty() {
        Ok(Checked {
            program,
            info: checker.info,
        })
    } else {
        Err(Diags(checker.diags))
    }
}

/// Assigns fresh sequential ids to every node; returns one past the last id.
pub fn renumber(program: &mut Program) -> u32 {
    struct Renumber {
        next: u32,
    }
    impl Renumber {
        fn next_id(&mut self) -> NodeId {
            let id = NodeId(self.next);
            self.next += 1;
            id
        }
    }
    impl VisitMut for Renumber {
        fn visit_stmt_mut(&mut self, s: &mut Stmt) {
            s.id = self.next_id();
            visit::walk_stmt_mut(self, s);
        }
        fn visit_expr_mut(&mut self, e: &mut Expr) {
            e.id = self.next_id();
            visit::walk_expr_mut(self, e);
        }
    }
    let mut r = Renumber { next: 0 };
    for g in &mut program.globals {
        if let Some(init) = &mut g.init {
            renumber_init(&mut r, init);
        }
    }
    for f in &mut program.funcs {
        r.visit_block_mut(&mut f.body);
    }
    return r.next;

    fn renumber_init(r: &mut Renumber, init: &mut Init) {
        match init {
            Init::Scalar(e) => r.visit_expr_mut(e),
            Init::List(items) => {
                for i in items {
                    renumber_init(r, i);
                }
            }
        }
    }
}

struct Checker {
    info: SemaInfo,
    diags: Vec<Diag>,
    /// Lexical scopes: name → (frame offset, type).
    scopes: Vec<HashMap<String, (usize, Type)>>,
    frame: FrameLayout,
    current_ret: Type,
    loop_depth: u32,
    /// Signatures of all registered functions, parallel to `Program::funcs`.
    func_sigs: Vec<FuncSig>,
}

impl Checker {
    fn err(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.push(Diag::new(Phase::Sema, span, msg));
    }

    fn check_program(&mut self, program: &Program) {
        self.collect_structs(program);
        self.collect_globals(program);

        // Register function names first so calls can be forward.
        for (i, f) in program.funcs.iter().enumerate() {
            self.func_sigs.push(f.sig());
            if self.info.func_index.insert(f.name.clone(), i).is_some() {
                self.err(f.span, format!("duplicate function `{}`", f.name));
            }
            if self.info.global_index.contains_key(&f.name) {
                self.err(
                    f.span,
                    format!("`{}` is defined as both a global and a function", f.name),
                );
            }
            if let Type::Struct(_) = f.ret {
                self.err(f.span, "functions cannot return structs by value");
            } else if !self.type_is_known_shallow(&f.ret) {
                self.err(
                    f.span,
                    format!(
                        "function `{}` returns unknown struct type {}",
                        f.name, f.ret
                    ),
                );
            }
            for p in &f.params {
                if let Type::Struct(_) = p.ty {
                    self.err(p.span, "struct parameters must be passed by pointer");
                }
            }
        }

        // Execution starts at `main` with no arguments.
        match self.info.func_index.get("main") {
            None => self.err(Span::new(0, 0), "program must define `main`"),
            Some(&i) if !program.funcs[i].params.is_empty() => {
                self.err(program.funcs[i].span, "`main` must take no parameters");
            }
            Some(&i) => self.info.main = i,
        }

        for f in program.funcs.iter() {
            self.check_func(f);
        }
    }

    fn collect_structs(&mut self, program: &Program) {
        for s in &program.structs {
            if self.info.structs.contains_key(&s.name) {
                self.err(s.span, format!("duplicate struct `{}`", s.name));
                continue;
            }
            let mut fields = Vec::new();
            let mut offset = 0usize;
            let mut ok = true;
            for field in &s.fields {
                if !self.type_is_known(&field.ty) {
                    self.err(
                        field.span,
                        format!("field `{}` has unknown struct type", field.name),
                    );
                    ok = false;
                    continue;
                }
                if fields.iter().any(|(n, _, _)| n == &field.name) {
                    self.err(field.span, format!("duplicate field `{}`", field.name));
                    ok = false;
                    continue;
                }
                let size = self.info.size_of(&field.ty);
                fields.push((field.name.clone(), field.ty.clone(), offset));
                offset += size;
            }
            if ok {
                self.info.structs.insert(
                    s.name.clone(),
                    StructLayout {
                        fields,
                        size: offset,
                    },
                );
            }
        }
    }

    /// Whether all struct names in `ty` have known layouts (pointers to
    /// structs only require the name to exist eventually, but MiniC keeps
    /// the simpler definition-before-use rule).
    fn type_is_known(&self, ty: &Type) -> bool {
        match ty {
            Type::Int | Type::Float | Type::Void => true,
            Type::Ptr(t) => self.type_is_known_shallow(t),
            Type::Array(t, _) => self.type_is_known(t),
            Type::Struct(name) => self.info.structs.contains_key(name),
            Type::Func(sig) => {
                sig.params.iter().all(|t| self.type_is_known_shallow(t))
                    && self.type_is_known_shallow(&sig.ret)
            }
        }
    }

    fn type_is_known_shallow(&self, ty: &Type) -> bool {
        match ty {
            Type::Struct(name) => self.info.structs.contains_key(name),
            Type::Ptr(t) => self.type_is_known_shallow(t),
            Type::Array(t, _) => self.type_is_known_shallow(t),
            _ => true,
        }
    }

    fn collect_globals(&mut self, program: &Program) {
        let mut addr = 1usize; // cell 0 is a reserved null address
        for g in &program.globals {
            if self.info.global_index.contains_key(&g.name) {
                self.err(g.span, format!("duplicate global `{}`", g.name));
                continue;
            }
            if !self.type_is_known(&g.ty) {
                self.err(
                    g.span,
                    format!("global `{}` has unknown struct type", g.name),
                );
                continue;
            }
            if g.ty == Type::Void {
                self.err(g.span, "globals cannot have type void");
                continue;
            }
            let size = self.info.size_of(&g.ty);
            let init = match &g.init {
                None => None,
                Some(init) => self.flatten_init(&g.ty, init, g.span).ok(),
            };
            let id = self.info.globals.len();
            self.info.global_index.insert(g.name.clone(), id);
            self.info.globals.push(GlobalLayout {
                name: g.name.clone(),
                ty: g.ty.clone(),
                addr,
                size,
                is_const: g.is_const,
                init,
            });
            addr += size;
        }
        self.info.global_region = addr;
    }

    /// Flattens a (possibly nested) initializer into one value per cell.
    fn flatten_init(&mut self, ty: &Type, init: &Init, span: Span) -> Result<Vec<ConstVal>, ()> {
        match (ty, init) {
            (Type::Int, Init::Scalar(e)) => {
                let v = self.const_eval(e)?;
                Ok(vec![ConstVal::Int(as_int(v))])
            }
            (Type::Float, Init::Scalar(e)) => {
                let v = self.const_eval(e)?;
                Ok(vec![ConstVal::Float(as_float(v))])
            }
            (Type::Array(elem, n), Init::List(items)) => {
                if items.len() > *n {
                    self.err(
                        span,
                        format!("too many initializers ({} > {n})", items.len()),
                    );
                    return Err(());
                }
                let elem_size = self.info.size_of(elem);
                let mut cells = Vec::with_capacity(n * elem_size);
                for item in items {
                    cells.extend(self.flatten_init(elem, item, span)?);
                }
                // Zero-fill the remainder, as C does.
                let zero = if matches!(**elem, Type::Float) {
                    ConstVal::Float(0.0)
                } else {
                    ConstVal::Int(0)
                };
                while cells.len() < n * elem_size {
                    cells.push(zero);
                }
                Ok(cells)
            }
            (Type::Array(..), Init::Scalar(e)) => {
                self.err(e.span, "array initializer must be a brace list");
                Err(())
            }
            (_, Init::List(_)) => {
                self.err(span, "brace list initializer on a scalar global");
                Err(())
            }
            (Type::Ptr(_) | Type::Func(_) | Type::Struct(_) | Type::Void, Init::Scalar(e)) => {
                self.err(
                    e.span,
                    "only int/float globals and arrays can be initialized",
                );
                Err(())
            }
        }
    }

    /// Evaluates a constant expression (for global initializers).
    fn const_eval(&mut self, e: &Expr) -> Result<ConstVal, ()> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(ConstVal::Int(*v)),
            ExprKind::FloatLit(v) => Ok(ConstVal::Float(*v)),
            ExprKind::Unary(UnOp::Neg, a) => match self.const_eval(a)? {
                ConstVal::Int(v) => Ok(ConstVal::Int(v.wrapping_neg())),
                ConstVal::Float(v) => Ok(ConstVal::Float(-v)),
            },
            ExprKind::Unary(UnOp::BitNot, a) => {
                let v = as_int(self.const_eval(a)?);
                Ok(ConstVal::Int(!v))
            }
            ExprKind::Cast(Type::Int, a) => Ok(ConstVal::Int(as_int(self.const_eval(a)?))),
            ExprKind::Cast(Type::Float, a) => Ok(ConstVal::Float(as_float(self.const_eval(a)?))),
            ExprKind::Binary(op, a, b) => {
                let a = self.const_eval(a)?;
                let b = self.const_eval(b)?;
                const_binary(*op, a, b).ok_or_else(|| {
                    self.err(e.span, "unsupported operator in constant expression");
                })
            }
            _ => {
                self.err(e.span, "global initializers must be constant expressions");
                Err(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Functions and statements
    // ------------------------------------------------------------------

    fn check_func(&mut self, f: &FuncDef) {
        self.frame = FrameLayout::default();
        self.scopes = vec![HashMap::new()];
        self.current_ret = f.ret.clone();
        self.loop_depth = 0;

        let mut offset = 0usize;
        for p in &f.params {
            if !self.type_is_known(&p.ty) {
                self.err(p.span, format!("parameter `{}` has unknown type", p.name));
                continue;
            }
            let size = self.info.size_of(&p.ty);
            self.frame.param_offsets.push(offset);
            if self
                .scopes
                .last_mut()
                .expect("scope")
                .insert(p.name.clone(), (offset, p.ty.clone()))
                .is_some()
            {
                self.err(p.span, format!("duplicate parameter `{}`", p.name));
            }
            offset += size;
        }
        self.frame.size = offset;

        self.check_block(&f.body, false);

        self.info.frames.push(std::mem::take(&mut self.frame));
    }

    fn check_block(&mut self, b: &Block, new_scope: bool) {
        if new_scope {
            self.scopes.push(HashMap::new());
        }
        for s in &b.stmts {
            self.check_stmt(s);
        }
        if new_scope {
            self.scopes.pop();
        }
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                if !self.type_is_known(ty) {
                    self.err(s.span, format!("local `{name}` has unknown struct type"));
                    return;
                }
                if *ty == Type::Void {
                    self.err(s.span, format!("local `{name}` cannot have type void"));
                    return;
                }
                if let Some(e) = init {
                    if !ty.is_scalar() {
                        self.err(s.span, "only scalar locals can have initializers");
                    }
                    if let Some(got) = self.type_expr(e) {
                        self.require_assignable(ty, &got, e.span);
                    }
                }
                let size = self.info.size_of(ty);
                let offset = self.frame.size;
                self.frame.size += size;
                self.frame.decl_offsets.insert(s.id, offset);
                self.scopes
                    .last_mut()
                    .expect("scope")
                    .insert(name.clone(), (offset, ty.clone()));
            }
            StmtKind::Expr(e) => {
                self.type_expr(e);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.check_cond(cond);
                self.check_block(then_blk, true);
                if let Some(b) = else_blk {
                    self.check_block(b, true);
                }
            }
            StmtKind::While { cond, body } => {
                self.check_cond(cond);
                self.loop_depth += 1;
                self.check_block(body, true);
                self.loop_depth -= 1;
            }
            StmtKind::DoWhile { body, cond } => {
                self.loop_depth += 1;
                self.check_block(body, true);
                self.loop_depth -= 1;
                self.check_cond(cond);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.check_stmt(init);
                }
                if let Some(cond) = cond {
                    self.check_cond(cond);
                }
                if let Some(step) = step {
                    self.type_expr(step);
                }
                self.loop_depth += 1;
                self.check_block(body, true);
                self.loop_depth -= 1;
                self.scopes.pop();
            }
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    self.err(s.span, "`break`/`continue` outside of a loop");
                }
            }
            StmtKind::Return(value) => match (value, self.current_ret.clone()) {
                (None, Type::Void) => {}
                (None, ret) => self.err(s.span, format!("function returns {ret}, missing value")),
                (Some(e), Type::Void) => {
                    self.err(e.span, "void function cannot return a value");
                    self.type_expr(e);
                }
                (Some(e), ret) => {
                    if let Some(got) = self.type_expr(e) {
                        self.require_assignable(&ret, &got, e.span);
                    }
                }
            },
            StmtKind::Block(b) => self.check_block(b, true),
            StmtKind::Profile(p) => {
                for (idx, op) in p.inputs.iter().enumerate() {
                    self.check_operand(s.id, idx, op, s.span);
                }
                self.check_block(&p.body, true);
            }
            StmtKind::Memo(m) => {
                for (idx, op) in m.inputs.iter().chain(m.outputs.iter()).enumerate() {
                    self.check_operand(s.id, idx, op, s.span);
                }
                for dep in &m.deps {
                    let Some(&gid) = self.info.global_index.get(&dep.name) else {
                        self.err(
                            s.span,
                            format!("memo dependency `{}` is not a global", dep.name),
                        );
                        continue;
                    };
                    let words = self.info.size_of(&self.info.globals[gid].ty);
                    if words != dep.words {
                        self.err(
                            s.span,
                            format!(
                                "memo dependency `{}` covers {} words, global has {words}",
                                dep.name, dep.words
                            ),
                        );
                    }
                }
                self.check_block(&m.body, true);
            }
        }
    }

    fn check_cond(&mut self, e: &Expr) {
        if let Some(ty) = self.type_expr(e) {
            let ty = decay(&ty);
            if !(ty.is_arith() || matches!(ty, Type::Ptr(_))) {
                self.err(e.span, format!("condition has non-scalar type {ty}"));
            }
        }
    }

    /// Resolves and validates a memo/profile operand.
    fn check_operand(&mut self, stmt_id: NodeId, idx: usize, op: &MemoOperand, span: Span) {
        let Some((res, ty)) = self.lookup_var(&op.name) else {
            self.err(span, format!("memo operand `{}` is not in scope", op.name));
            return;
        };
        let elem_matches = |t: &Type| {
            matches!(
                (op.elem, t),
                (ScalarKind::Int, Type::Int) | (ScalarKind::Float, Type::Float)
            )
        };
        let ok = match op.shape {
            OperandShape::Scalar => elem_matches(&ty),
            OperandShape::Array(n) => {
                matches!(&ty, Type::Array(elem, len) if *len == n && elem_matches(elem))
            }
            OperandShape::Deref(_) => matches!(&ty, Type::Ptr(elem) if elem_matches(elem)),
        };
        if !ok {
            self.err(
                span,
                format!(
                    "memo operand `{}` has type {ty}, incompatible with its declared shape",
                    op.name
                ),
            );
            return;
        }
        self.info.operand_res.insert((stmt_id, idx), res);
    }

    /// Looks a name up in the local scopes, then globals, then functions.
    fn lookup_var(&self, name: &str) -> Option<(Res, Type)> {
        for scope in self.scopes.iter().rev() {
            if let Some((offset, ty)) = scope.get(name) {
                return Some((Res::Slot(*offset), ty.clone()));
            }
        }
        if let Some(&gid) = self.info.global_index.get(name) {
            return Some((Res::Global(gid), self.info.globals[gid].ty.clone()));
        }
        if let Some(&fid) = self.info.func_index.get(name) {
            return Some((Res::Func(fid), Type::Func(Box::new(func_sig_of(self, fid)))));
        }
        if let Some(b) = Builtin::by_name(name) {
            return Some((Res::Builtin(b), builtin_type(b)));
        }
        None
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Type-checks `e`, records its type, and returns it (None on error).
    fn type_expr(&mut self, e: &Expr) -> Option<Type> {
        let ty = self.type_expr_inner(e)?;
        self.info.expr_types.insert(e.id, ty.clone());
        Some(ty)
    }

    fn type_expr_inner(&mut self, e: &Expr) -> Option<Type> {
        match &e.kind {
            ExprKind::IntLit(_) => Some(Type::Int),
            ExprKind::FloatLit(_) => Some(Type::Float),
            ExprKind::Var(name) => {
                let Some((res, ty)) = self.lookup_var(name) else {
                    self.err(e.span, format!("unknown identifier `{name}`"));
                    return None;
                };
                self.info.res.insert(e.id, res);
                Some(ty)
            }
            ExprKind::Unary(op, a) => self.type_unary(e, *op, a),
            ExprKind::Binary(op, a, b) => self.type_binary(e, *op, a, b),
            ExprKind::IncDec(_, a) => {
                let ty = self.type_expr(a)?;
                if !self.is_lvalue(a) {
                    self.err(a.span, "operand of ++/-- must be an lvalue");
                    return None;
                }
                let ty = decay(&ty);
                if !(ty.is_arith() || matches!(ty, Type::Ptr(_))) {
                    self.err(a.span, format!("cannot increment value of type {ty}"));
                    return None;
                }
                Some(ty)
            }
            ExprKind::Assign(lhs, rhs) => {
                let lty = self.type_expr(lhs)?;
                let rty = self.type_expr(rhs)?;
                if !self.is_lvalue(lhs) {
                    self.err(lhs.span, "left side of assignment must be an lvalue");
                    return None;
                }
                if !lty.is_scalar() {
                    self.err(lhs.span, format!("cannot assign to value of type {lty}"));
                    return None;
                }
                self.require_assignable(&lty, &rty, rhs.span);
                Some(lty)
            }
            ExprKind::AssignOp(op, lhs, rhs) => {
                let lty = self.type_expr(lhs)?;
                let rty = self.type_expr(rhs)?;
                if !self.is_lvalue(lhs) {
                    self.err(lhs.span, "left side of assignment must be an lvalue");
                    return None;
                }
                let l = decay(&lty);
                let r = decay(&rty);
                // `p += i` pointer stepping is allowed for Add/Sub.
                if matches!(l, Type::Ptr(_)) && matches!(*op, BinOp::Add | BinOp::Sub) {
                    if r != Type::Int {
                        self.err(rhs.span, "pointer step must be an integer");
                    }
                    return Some(l);
                }
                if !l.is_arith() || !r.is_arith() {
                    self.err(e.span, format!("invalid operands {l} {} {r}", op.glyph()));
                    return None;
                }
                if op.int_only() && (l == Type::Float || r == Type::Float) {
                    self.err(e.span, format!("operator {} requires integers", op.glyph()));
                    return None;
                }
                Some(l)
            }
            ExprKind::Ternary(c, t, f) => {
                self.check_cond(c);
                let tt = self.type_expr(t)?;
                let ft = self.type_expr(f)?;
                let tt = decay(&tt);
                let ft = decay(&ft);
                if tt == ft {
                    Some(tt)
                } else if tt.is_arith() && ft.is_arith() {
                    Some(Type::Float)
                } else {
                    self.err(e.span, format!("ternary branches have types {tt} and {ft}"));
                    None
                }
            }
            ExprKind::Call(callee, args) => self.type_call(e, callee, args),
            ExprKind::Index(base, idx) => {
                let bty = self.type_expr(base)?;
                let ity = self.type_expr(idx)?;
                if decay(&ity) != Type::Int {
                    self.err(idx.span, "array index must be an integer");
                }
                match decay(&bty) {
                    Type::Ptr(elem) => Some(*elem),
                    other => {
                        self.err(base.span, format!("cannot index value of type {other}"));
                        None
                    }
                }
            }
            ExprKind::Member(base, field) => {
                let bty = self.type_expr(base)?;
                let Type::Struct(sname) = &bty else {
                    self.err(base.span, format!("member access on non-struct type {bty}"));
                    return None;
                };
                self.resolve_field(e, sname, field)
            }
            ExprKind::Arrow(base, field) => {
                let bty = self.type_expr(base)?;
                let bty = decay(&bty);
                let Type::Ptr(inner) = &bty else {
                    self.err(base.span, format!("`->` on non-pointer type {bty}"));
                    return None;
                };
                let Type::Struct(sname) = inner.as_ref() else {
                    self.err(base.span, format!("`->` on pointer to non-struct {inner}"));
                    return None;
                };
                let sname = sname.clone();
                self.resolve_field(e, &sname, field)
            }
            ExprKind::Cast(ty, a) => {
                let aty = self.type_expr(a)?;
                let aty = decay(&aty);
                // The target type is user input too: a cast to (a pointer
                // to) an undeclared struct must be a diagnostic here, not
                // a panic when lowering asks for the struct's size.
                if !self.type_is_known_shallow(ty) {
                    self.err(e.span, format!("cast to unknown struct type {ty}"));
                    return None;
                }
                let ok = matches!(
                    (ty, &aty),
                    (Type::Int, Type::Int | Type::Float)
                        | (Type::Float, Type::Int | Type::Float)
                        | (Type::Ptr(_), Type::Ptr(_))
                        | (Type::Int, Type::Ptr(_))
                );
                if !ok {
                    self.err(e.span, format!("invalid cast from {aty} to {ty}"));
                    return None;
                }
                Some(ty.clone())
            }
        }
    }

    fn resolve_field(&mut self, e: &Expr, sname: &str, field: &str) -> Option<Type> {
        let Some(layout) = self.info.structs.get(sname) else {
            self.err(e.span, format!("unknown struct `{sname}`"));
            return None;
        };
        let Some((_, fty, offset)) = layout.field(field) else {
            self.err(
                e.span,
                format!("struct `{sname}` has no field named `{field}`"),
            );
            return None;
        };
        let (fty, offset) = (fty.clone(), *offset);
        self.info.field_offsets.insert(e.id, offset);
        Some(fty)
    }

    fn type_unary(&mut self, e: &Expr, op: UnOp, a: &Expr) -> Option<Type> {
        let aty = self.type_expr(a)?;
        match op {
            UnOp::Neg => {
                let t = decay(&aty);
                if !t.is_arith() {
                    self.err(e.span, format!("cannot negate value of type {t}"));
                    return None;
                }
                Some(t)
            }
            UnOp::Not => {
                let t = decay(&aty);
                if !(t.is_arith() || matches!(t, Type::Ptr(_))) {
                    self.err(e.span, format!("cannot apply `!` to type {t}"));
                    return None;
                }
                Some(Type::Int)
            }
            UnOp::BitNot => {
                if decay(&aty) != Type::Int {
                    self.err(e.span, "`~` requires an integer operand");
                    return None;
                }
                Some(Type::Int)
            }
            UnOp::Deref => match decay(&aty) {
                Type::Ptr(inner) => Some(*inner),
                Type::Func(sig) => Some(Type::Func(sig)), // (*fp)(...) as in C
                other => {
                    self.err(e.span, format!("cannot dereference type {other}"));
                    None
                }
            },
            UnOp::Addr => {
                if !self.is_lvalue(a) {
                    self.err(a.span, "`&` requires an lvalue operand");
                    return None;
                }
                Some(Type::ptr(aty))
            }
        }
    }

    fn type_binary(&mut self, e: &Expr, op: BinOp, a: &Expr, b: &Expr) -> Option<Type> {
        let aty = self.type_expr(a)?;
        let bty = self.type_expr(b)?;
        let l = decay(&aty);
        let r = decay(&bty);

        // Pointer arithmetic and comparison.
        match (&l, &r) {
            (Type::Ptr(_), Type::Int) if matches!(op, BinOp::Add | BinOp::Sub) => {
                return Some(l);
            }
            (Type::Int, Type::Ptr(_)) if op == BinOp::Add => {
                return Some(r);
            }
            (Type::Ptr(pa), Type::Ptr(pb)) => {
                if op == BinOp::Sub {
                    if pa != pb {
                        self.err(e.span, "pointer difference requires matching types");
                    }
                    return Some(Type::Int);
                }
                if op.is_comparison() {
                    if pa != pb {
                        self.err(e.span, "pointer comparison requires matching types");
                    }
                    return Some(Type::Int);
                }
                self.err(
                    e.span,
                    format!("invalid pointer operands for {}", op.glyph()),
                );
                return None;
            }
            _ => {}
        }

        if !l.is_arith() || !r.is_arith() {
            self.err(e.span, format!("invalid operands {l} {} {r}", op.glyph()));
            return None;
        }
        if op.int_only() && (l == Type::Float || r == Type::Float) {
            self.err(e.span, format!("operator {} requires integers", op.glyph()));
            return None;
        }
        if op.is_comparison() {
            return Some(Type::Int);
        }
        if l == Type::Float || r == Type::Float {
            Some(Type::Float)
        } else {
            Some(Type::Int)
        }
    }

    fn type_call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> Option<Type> {
        // Builtins get bespoke signatures.
        if let ExprKind::Var(name) = &callee.kind {
            if self.lookup_local_or_global(name).is_none()
                && !self.info.func_index.contains_key(name)
            {
                if let Some(b) = Builtin::by_name(name) {
                    self.info.res.insert(callee.id, Res::Builtin(b));
                    self.info.expr_types.insert(callee.id, builtin_type(b));
                    return self.type_builtin_call(e, b, args);
                }
            }
        }

        let cty = self.type_expr(callee)?;
        let sig = match decay(&cty) {
            Type::Func(sig) => *sig,
            Type::Ptr(inner) => match *inner {
                Type::Func(sig) => *sig,
                other => {
                    self.err(callee.span, format!("cannot call value of type {other}*"));
                    return None;
                }
            },
            other => {
                self.err(callee.span, format!("cannot call value of type {other}"));
                return None;
            }
        };
        if args.len() != sig.params.len() {
            self.err(
                e.span,
                format!(
                    "expected {} arguments, found {}",
                    sig.params.len(),
                    args.len()
                ),
            );
        }
        for (arg, pty) in args.iter().zip(&sig.params) {
            if let Some(aty) = self.type_expr(arg) {
                self.require_assignable(pty, &aty, arg.span);
            }
        }
        // Type-check extra args (arity error already reported).
        for arg in args.iter().skip(sig.params.len()) {
            self.type_expr(arg);
        }
        Some(sig.ret)
    }

    fn type_builtin_call(&mut self, e: &Expr, b: Builtin, args: &[Expr]) -> Option<Type> {
        let (arity, ret) = match b {
            Builtin::Print => (1, Type::Void),
            Builtin::Input => (0, Type::Int),
            Builtin::Eof => (0, Type::Int),
            Builtin::Assert => (1, Type::Void),
        };
        if args.len() != arity {
            self.err(
                e.span,
                format!("builtin takes {arity} argument(s), found {}", args.len()),
            );
        }
        for arg in args {
            if let Some(aty) = self.type_expr(arg) {
                let t = decay(&aty);
                if !t.is_arith() {
                    self.err(arg.span, format!("builtin argument has type {t}"));
                }
            }
        }
        Some(ret)
    }

    fn lookup_local_or_global(&self, name: &str) -> Option<()> {
        for scope in self.scopes.iter().rev() {
            if scope.contains_key(name) {
                return Some(());
            }
        }
        if self.info.global_index.contains_key(name) {
            return Some(());
        }
        None
    }

    /// Whether `ty_from` can be implicitly assigned to `ty_to`.
    fn require_assignable(&mut self, to: &Type, from: &Type, span: Span) {
        let to = decay(to);
        let from = decay(&from.clone());
        let ok = match (&to, &from) {
            (Type::Int | Type::Float, Type::Int | Type::Float) => true,
            // `p = 0` (null assignment); non-zero integers trap at run time.
            (Type::Ptr(_), Type::Int) => true,
            (Type::Ptr(a), Type::Ptr(b)) => a == b,
            (Type::Func(a), Type::Func(b)) => a == b,
            // `fp = func` where func has matching signature (func names
            // have Func type directly).
            (Type::Ptr(a), Type::Func(b)) => matches!(a.as_ref(), Type::Func(s) if s == b),
            _ => false,
        };
        if !ok {
            self.err(span, format!("cannot assign {from} to {to}"));
        }
    }

    /// Whether `e` denotes a memory location.
    fn is_lvalue(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Var(name) => {
                // Function names and builtins are not lvalues.
                !matches!(
                    self.info.res.get(&e.id),
                    Some(Res::Func(_)) | Some(Res::Builtin(_))
                ) && self.lookup_var(name).is_some()
            }
            ExprKind::Unary(UnOp::Deref, _) => true,
            ExprKind::Index(_, _) => true,
            ExprKind::Member(base, _) => self.is_lvalue(base),
            ExprKind::Arrow(_, _) => true,
            _ => false,
        }
    }
}

/// Array-to-pointer decay (C semantics) applied to a computed type.
pub fn decay(ty: &Type) -> Type {
    match ty {
        Type::Array(elem, _) => Type::Ptr(elem.clone()),
        other => other.clone(),
    }
}

fn func_sig_of(c: &Checker, fid: usize) -> FuncSig {
    // The signature is reconstructed from the layouts gathered at
    // registration time; stored in func_sigs for cheap access.
    c.func_sigs
        .get(fid)
        .cloned()
        .expect("function signature registered")
}

fn builtin_type(b: Builtin) -> Type {
    let sig = match b {
        Builtin::Print => FuncSig {
            params: vec![Type::Int],
            ret: Type::Void,
        },
        Builtin::Input => FuncSig {
            params: vec![],
            ret: Type::Int,
        },
        Builtin::Eof => FuncSig {
            params: vec![],
            ret: Type::Int,
        },
        Builtin::Assert => FuncSig {
            params: vec![Type::Int],
            ret: Type::Void,
        },
    };
    Type::Func(Box::new(sig))
}

fn as_int(v: ConstVal) -> i64 {
    match v {
        ConstVal::Int(i) => i,
        ConstVal::Float(f) => f as i64,
    }
}

fn as_float(v: ConstVal) -> f64 {
    match v {
        ConstVal::Int(i) => i as f64,
        ConstVal::Float(f) => f,
    }
}

fn const_binary(op: BinOp, a: ConstVal, b: ConstVal) -> Option<ConstVal> {
    use BinOp::*;
    if let (ConstVal::Int(x), ConstVal::Int(y)) = (a, b) {
        let v = match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return None;
                }
                x.wrapping_div(y)
            }
            Rem => {
                if y == 0 {
                    return None;
                }
                x.wrapping_rem(y)
            }
            Shl => x.wrapping_shl(y as u32),
            Shr => x.wrapping_shr(y as u32),
            BitAnd => x & y,
            BitOr => x | y,
            BitXor => x ^ y,
            Lt => (x < y) as i64,
            Le => (x <= y) as i64,
            Gt => (x > y) as i64,
            Ge => (x >= y) as i64,
            Eq => (x == y) as i64,
            Ne => (x != y) as i64,
            LogAnd => ((x != 0) && (y != 0)) as i64,
            LogOr => ((x != 0) || (y != 0)) as i64,
        };
        return Some(ConstVal::Int(v));
    }
    let x = as_float(a);
    let y = as_float(b);
    let v = match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Lt => return Some(ConstVal::Int((x < y) as i64)),
        Le => return Some(ConstVal::Int((x <= y) as i64)),
        Gt => return Some(ConstVal::Int((x > y) as i64)),
        Ge => return Some(ConstVal::Int((x >= y) as i64)),
        Eq => return Some(ConstVal::Int((x == y) as i64)),
        Ne => return Some(ConstVal::Int((x != y) as i64)),
        _ => return None,
    };
    Some(ConstVal::Float(v))
}
