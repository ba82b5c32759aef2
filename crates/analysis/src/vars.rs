//! Variable identities and per-function variable universes.
//!
//! Dataflow facts range over [`VarId`]s: a local (identified by function
//! index and frame slot base) or a global. Arrays and structs are treated
//! as single units (field- and element-insensitive), matching the paper's
//! whole-array input/output handling.

use minic::ast::{Expr, ExprKind, Type};
use minic::sema::{Res, SemaInfo};
use std::collections::HashMap;

/// A program variable: a function's local/parameter slot or a global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarId {
    /// Local or parameter: `(function index, frame slot base)`.
    Local {
        /// Index of the owning function.
        func: usize,
        /// Frame offset of the variable's first cell.
        slot: usize,
    },
    /// Global by id.
    Global(usize),
}

impl VarId {
    /// Resolves a `Var` expression to its [`VarId`], given the enclosing
    /// function. Returns `None` for function names and builtins.
    pub fn of_expr(info: &SemaInfo, func: usize, e: &Expr) -> Option<VarId> {
        debug_assert!(matches!(e.kind, ExprKind::Var(_)));
        match info.res.get(&e.id)? {
            Res::Slot(slot) => Some(VarId::Local { func, slot: *slot }),
            Res::Global(g) => Some(VarId::Global(*g)),
            Res::Func(_) | Res::Builtin(_) => None,
        }
    }
}

/// Dense numbering of the variables visible inside one function: its
/// locals/parameters plus every global. Used to size dataflow bit sets.
#[derive(Debug, Clone)]
pub struct VarMap {
    ids: Vec<VarId>,
    index: HashMap<VarId, usize>,
}

impl VarMap {
    /// Builds the universe for function `func`: all globals plus every
    /// distinct local slot mentioned by the function's frame layout.
    pub fn for_func(info: &SemaInfo, func: usize) -> Self {
        let mut ids: Vec<VarId> = (0..info.globals.len()).map(VarId::Global).collect();
        let frame = &info.frames[func];
        let mut slots: Vec<usize> = frame
            .param_offsets
            .iter()
            .copied()
            .chain(frame.decl_offsets.values().copied())
            .collect();
        slots.sort_unstable();
        slots.dedup();
        ids.extend(slots.into_iter().map(|slot| VarId::Local { func, slot }));
        let index = ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        VarMap { ids, index }
    }

    /// Number of variables in the universe.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dense index of `v`, if it belongs to this universe.
    pub fn index_of(&self, v: VarId) -> Option<usize> {
        self.index.get(&v).copied()
    }

    /// The variable at dense index `i`.
    pub fn var_at(&self, i: usize) -> VarId {
        self.ids[i]
    }

    /// Iterates `(index, VarId)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, VarId)> + '_ {
        self.ids.iter().copied().enumerate()
    }
}

/// The declared type of a variable.
pub fn type_of_var(info: &SemaInfo, program: &minic::Program, v: VarId) -> Option<Type> {
    match v {
        VarId::Global(g) => Some(info.globals[g].ty.clone()),
        VarId::Local { func, slot } => {
            // Parameters first.
            let f = &program.funcs[func];
            let frame = &info.frames[func];
            for (p, &off) in f.params.iter().zip(&frame.param_offsets) {
                if off == slot {
                    return Some(p.ty.clone());
                }
            }
            // Then local declarations, located by slot.
            let mut found = None;
            for (stmt_id, &off) in &frame.decl_offsets {
                if off == slot {
                    found = Some(*stmt_id);
                }
            }
            let stmt_id = found?;
            let mut ty = None;
            minic::visit::for_each_stmt(&f.body, |s| {
                if s.id == stmt_id {
                    if let minic::ast::StmtKind::Decl { ty: t, .. } = &s.kind {
                        ty = Some(t.clone());
                    }
                }
            });
            ty
        }
    }
}

/// A human-readable name for a variable (reports and segment operands).
pub fn name_of_var(info: &SemaInfo, program: &minic::Program, v: VarId) -> String {
    match v {
        VarId::Global(g) => info.globals[g].name.clone(),
        VarId::Local { func, slot } => {
            let f = &program.funcs[func];
            let frame = &info.frames[func];
            for (p, &off) in f.params.iter().zip(&frame.param_offsets) {
                if off == slot {
                    return p.name.clone();
                }
            }
            let mut name = format!("<slot {slot}>");
            minic::visit::for_each_stmt(&f.body, |s| {
                if let minic::ast::StmtKind::Decl { name: n, .. } = &s.kind {
                    if frame.decl_offsets.get(&s.id) == Some(&slot) {
                        name = n.clone();
                    }
                }
            });
            name
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varmap_covers_globals_and_locals() {
        let checked = minic::compile(
            "int g1; float g2;
             int f(int a, int b) { int x; { int y; } return a + b; }
             int main() { return f(1, 2); }",
        )
        .unwrap();
        let map = VarMap::for_func(&checked.info, 0);
        // 2 globals + a, b, x, y.
        assert_eq!(map.len(), 6);
        assert_eq!(map.index_of(VarId::Global(0)), Some(0));
        assert!(map.index_of(VarId::Local { func: 0, slot: 0 }).is_some());
        for (i, v) in map.iter() {
            assert_eq!(map.index_of(v), Some(i));
        }
    }

    #[test]
    fn names_and_types_resolve() {
        let checked = minic::compile(
            "int table[8];
             int f(int val) { float acc = 0.0; return val + (int)acc + table[0]; }
             int main() { return f(1); }",
        )
        .unwrap();
        let info = &checked.info;
        let prog = &checked.program;
        assert_eq!(name_of_var(info, prog, VarId::Global(0)), "table");
        assert_eq!(
            type_of_var(info, prog, VarId::Global(0)).unwrap(),
            Type::array(Type::Int, 8)
        );
        let val = VarId::Local { func: 0, slot: 0 };
        assert_eq!(name_of_var(info, prog, val), "val");
        assert_eq!(type_of_var(info, prog, val).unwrap(), Type::Int);
        let acc = VarId::Local { func: 0, slot: 1 };
        assert_eq!(name_of_var(info, prog, acc), "acc");
        assert_eq!(type_of_var(info, prog, acc).unwrap(), Type::Float);
    }
}
