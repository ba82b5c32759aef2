//! Candidate code-segment enumeration and legality screening.
//!
//! Per the paper (§3.1): "We confine the candidate code segment to a
//! function body, a loop body, or an IF branch." Enumerating these per
//! function gives the "Analyzed CS" counts of Table 4; the legality filter
//! then removes segments whose memoized replay could not be semantically
//! transparent (I/O inside, control flow escaping the segment, ...).

use crate::callgraph::CallGraph;
use minic::ast::{Block, ExprKind, NodeId, Program, Stmt, StmtKind, UnOp};
use minic::sema::{Builtin, Checked, Res};
use std::collections::HashSet;
use std::fmt;

/// What part of a function a segment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegKind {
    /// The whole function body.
    FuncBody,
    /// The body of the loop statement with this id.
    LoopBody(NodeId),
    /// One branch of the `if` statement with this id.
    IfBranch(NodeId, /* then-branch? */ bool),
    /// A bare `{ ... }` block statement with this id — the paper's future
    /// work ("a candidate code segment can be a part of a loop body, a
    /// function body, or an IF branch"): the sub-segment pass wraps
    /// eligible statement ranges into bare blocks so they enumerate here.
    BareBlock(NodeId),
}

/// A candidate code segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Dense id within the enumeration.
    pub id: usize,
    /// Owning function index.
    pub func: usize,
    /// Which region of the function.
    pub kind: SegKind,
    /// Human-readable name, e.g. `quan:body` or `main:loop#17`.
    pub name: String,
}

impl Segment {
    /// The segment's body block.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not belong to `program` (stale ids).
    pub fn body<'p>(&self, program: &'p Program) -> &'p Block {
        let f = &program.funcs[self.func];
        match self.kind {
            SegKind::FuncBody => &f.body,
            SegKind::LoopBody(id) => find_block(&f.body, id, true).expect("loop body present"),
            SegKind::IfBranch(id, then) => {
                find_branch(&f.body, id, then).expect("if branch present")
            }
            SegKind::BareBlock(id) => find_bare_block(&f.body, id).expect("bare block present"),
        }
    }

    /// Ids of all statements inside the segment body (the CFG region).
    pub fn body_stmt_ids(&self, program: &Program) -> HashSet<NodeId> {
        let mut ids = HashSet::new();
        minic::visit::for_each_stmt(self.body(program), |s| {
            ids.insert(s.id);
        });
        ids
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

fn find_block<'p>(block: &'p Block, id: NodeId, _loop_body: bool) -> Option<&'p Block> {
    let mut found: Option<&'p Block> = None;
    visit_blocks(block, &mut |s: &'p Stmt| {
        if s.id == id {
            found = match &s.kind {
                StmtKind::While { body, .. }
                | StmtKind::DoWhile { body, .. }
                | StmtKind::For { body, .. } => Some(body),
                _ => None,
            };
        }
    });
    found
}

fn find_branch<'p>(block: &'p Block, id: NodeId, then: bool) -> Option<&'p Block> {
    let mut found: Option<&'p Block> = None;
    visit_blocks(block, &mut |s: &'p Stmt| {
        if s.id == id {
            if let StmtKind::If {
                then_blk, else_blk, ..
            } = &s.kind
            {
                found = if then {
                    Some(then_blk)
                } else {
                    else_blk.as_ref()
                };
            }
        }
    });
    found
}

fn find_bare_block<'p>(block: &'p Block, id: NodeId) -> Option<&'p Block> {
    let mut found: Option<&'p Block> = None;
    visit_blocks(block, &mut |s: &'p Stmt| {
        if s.id == id {
            if let StmtKind::Block(b) = &s.kind {
                found = Some(b);
            }
        }
    });
    found
}

/// Like `for_each_stmt` but with a lifetime tying the callback argument to
/// the block, so callers can keep references.
fn visit_blocks<'p>(block: &'p Block, f: &mut impl FnMut(&'p Stmt)) {
    for s in &block.stmts {
        f(s);
        match &s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                visit_blocks(then_blk, f);
                if let Some(b) = else_blk {
                    visit_blocks(b, f);
                }
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => visit_blocks(body, f),
            StmtKind::For { init, body, .. } => {
                if let Some(init) = init {
                    f(init);
                }
                visit_blocks(body, f);
            }
            StmtKind::Block(b) => visit_blocks(b, f),
            StmtKind::Profile(p) => visit_blocks(&p.body, f),
            StmtKind::Memo(m) => visit_blocks(&m.body, f),
            _ => {}
        }
    }
}

/// Enumerates every candidate segment of the program: one `FuncBody` per
/// function, one `LoopBody` per loop, one `IfBranch` per (non-empty)
/// `if`/`else` branch, and one `BareBlock` per bare `{ ... }` statement
/// (which the sub-segment pass synthesizes).
pub fn enumerate(checked: &Checked) -> Vec<Segment> {
    let mut segs = Vec::new();
    for (fi, f) in checked.program.funcs.iter().enumerate() {
        segs.push(Segment {
            id: segs.len(),
            func: fi,
            kind: SegKind::FuncBody,
            name: format!("{}:body", f.name),
        });
        visit_blocks(&f.body, &mut |s| match &s.kind {
            StmtKind::While { .. } | StmtKind::DoWhile { .. } | StmtKind::For { .. } => {
                segs.push(Segment {
                    id: 0,
                    func: fi,
                    kind: SegKind::LoopBody(s.id),
                    name: format!("{}:loop#{}", f.name, s.id.0),
                });
            }
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                if !then_blk.stmts.is_empty() {
                    segs.push(Segment {
                        id: 0,
                        func: fi,
                        kind: SegKind::IfBranch(s.id, true),
                        name: format!("{}:if#{}:then", f.name, s.id.0),
                    });
                }
                if else_blk.as_ref().is_some_and(|b| !b.stmts.is_empty()) {
                    segs.push(Segment {
                        id: 0,
                        func: fi,
                        kind: SegKind::IfBranch(s.id, false),
                        name: format!("{}:if#{}:else", f.name, s.id.0),
                    });
                }
            }
            StmtKind::Block(b) if !b.stmts.is_empty() => {
                segs.push(Segment {
                    id: 0,
                    func: fi,
                    kind: SegKind::BareBlock(s.id),
                    name: format!("{}:block#{}", f.name, s.id.0),
                });
            }
            _ => {}
        });
    }
    for (i, s) in segs.iter_mut().enumerate() {
        s.id = i;
    }
    segs
}

/// Why a segment was removed from consideration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// Body is empty.
    Empty,
    /// Performs I/O (directly or through a callee), so replaying recorded
    /// outputs would skip observable effects.
    HasIo,
    /// Contains `return`/`break`/`continue` that escapes the segment.
    EscapingControl,
    /// Already instrumented (contains Profile/Memo).
    Instrumented,
    /// Inputs or outputs not expressible as memo operands (structs,
    /// ambiguous pointers, pointer-valued outputs, ...).
    UnsupportedOperand(String),
    /// No inputs (nothing to key on).
    NoInputs,
    /// No outputs and no return value (nothing to reuse).
    NoOutputs,
    /// Static overhead bound is at least the static granularity bound
    /// (`O/C >= 1`, the paper's pre-profiling filter).
    OverheadDominates,
    /// Executed too rarely to be worth value-profiling.
    ColdCode,
    /// Reading the key trapped on some profiled execution (an input that
    /// is uninitialised on a path the body never uses), so a memo probe
    /// would trap where the original program does not.
    KeyReadTrap,
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::Empty => write!(f, "empty body"),
            Reject::HasIo => write!(f, "performs I/O"),
            Reject::EscapingControl => write!(f, "control flow escapes the segment"),
            Reject::Instrumented => write!(f, "already instrumented"),
            Reject::UnsupportedOperand(why) => write!(f, "unsupported operand: {why}"),
            Reject::NoInputs => write!(f, "no inputs to key on"),
            Reject::NoOutputs => write!(f, "no outputs to reuse"),
            Reject::OverheadDominates => write!(f, "hashing overhead >= granularity"),
            Reject::ColdCode => write!(f, "executed too rarely"),
            Reject::KeyReadTrap => write!(f, "reading the key trapped"),
        }
    }
}

/// Screens a segment for structural legality (everything except operand
/// and cost checks, which need more context).
pub fn check_structure(
    checked: &Checked,
    cg: &CallGraph,
    io: &[bool],
    seg: &Segment,
) -> Result<(), Reject> {
    let body = seg.body(&checked.program);
    if body.stmts.is_empty() {
        return Err(Reject::Empty);
    }

    let mut has_io = false;
    let mut instrumented = false;
    let mut escaping = false;

    // Walk with loop-depth tracking for escape analysis.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        checked: &Checked,
        cg: &CallGraph,
        io: &[bool],
        b: &Block,
        depth: usize,
        is_func_body: bool,
        has_io: &mut bool,
        instrumented: &mut bool,
        escaping: &mut bool,
    ) {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::Break | StmtKind::Continue => {
                    if depth == 0 {
                        *escaping = true;
                    }
                }
                StmtKind::Return(e) => {
                    if !is_func_body {
                        *escaping = true;
                    }
                    if let Some(e) = e {
                        scan_expr(checked, cg, io, e, has_io);
                    }
                }
                StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                    scan_expr(checked, cg, io, cond, has_io);
                    walk(
                        checked,
                        cg,
                        io,
                        body,
                        depth + 1,
                        is_func_body,
                        has_io,
                        instrumented,
                        escaping,
                    );
                }
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                } => {
                    if let Some(init) = init {
                        if let StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) = &init.kind
                        {
                            scan_expr(checked, cg, io, e, has_io);
                        }
                    }
                    if let Some(e) = cond {
                        scan_expr(checked, cg, io, e, has_io);
                    }
                    if let Some(e) = step {
                        scan_expr(checked, cg, io, e, has_io);
                    }
                    walk(
                        checked,
                        cg,
                        io,
                        body,
                        depth + 1,
                        is_func_body,
                        has_io,
                        instrumented,
                        escaping,
                    );
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    scan_expr(checked, cg, io, cond, has_io);
                    walk(
                        checked,
                        cg,
                        io,
                        then_blk,
                        depth,
                        is_func_body,
                        has_io,
                        instrumented,
                        escaping,
                    );
                    if let Some(eb) = else_blk {
                        walk(
                            checked,
                            cg,
                            io,
                            eb,
                            depth,
                            is_func_body,
                            has_io,
                            instrumented,
                            escaping,
                        );
                    }
                }
                StmtKind::Block(inner) => walk(
                    checked,
                    cg,
                    io,
                    inner,
                    depth,
                    is_func_body,
                    has_io,
                    instrumented,
                    escaping,
                ),
                StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) => {
                    scan_expr(checked, cg, io, e, has_io)
                }
                StmtKind::Decl { init: None, .. } => {}
                StmtKind::Profile(_) | StmtKind::Memo(_) => *instrumented = true,
            }
        }
    }

    fn scan_expr(
        checked: &Checked,
        cg: &CallGraph,
        io: &[bool],
        e: &minic::ast::Expr,
        has_io: &mut bool,
    ) {
        minic_expr_walk(e, &mut |e| {
            if let ExprKind::Call(callee, _) = &e.kind {
                let mut c = callee.as_ref();
                while let ExprKind::Unary(UnOp::Deref, inner) = &c.kind {
                    c = inner;
                }
                match checked.info.res.get(&c.id) {
                    Some(Res::Builtin(
                        Builtin::Print | Builtin::Input | Builtin::Eof | Builtin::Assert,
                    )) => *has_io = true,
                    Some(Res::Func(f)) => {
                        if io[*f] {
                            *has_io = true;
                        }
                    }
                    _ => {
                        // Indirect call: conservative — I/O if any possible
                        // callee does I/O.
                        let caller_sets: Vec<usize> =
                            cg.callees.iter().flatten().copied().collect();
                        let _ = caller_sets;
                        if io.iter().any(|&b| b) {
                            // Over-approximate only when the program has
                            // any I/O function that is address-taken.
                            if cg
                                .address_taken
                                .iter()
                                .enumerate()
                                .any(|(i, &taken)| taken && io[i])
                            {
                                *has_io = true;
                            }
                        }
                    }
                }
            }
        });
    }

    fn minic_expr_walk(e: &minic::ast::Expr, f: &mut impl FnMut(&minic::ast::Expr)) {
        f(e);
        match &e.kind {
            ExprKind::Unary(_, a) | ExprKind::IncDec(_, a) | ExprKind::Cast(_, a) => {
                minic_expr_walk(a, f)
            }
            ExprKind::Binary(_, a, b)
            | ExprKind::Assign(a, b)
            | ExprKind::AssignOp(_, a, b)
            | ExprKind::Index(a, b) => {
                minic_expr_walk(a, f);
                minic_expr_walk(b, f);
            }
            ExprKind::Ternary(c, t, fl) => {
                minic_expr_walk(c, f);
                minic_expr_walk(t, f);
                minic_expr_walk(fl, f);
            }
            ExprKind::Call(c, args) => {
                minic_expr_walk(c, f);
                for a in args {
                    minic_expr_walk(a, f);
                }
            }
            ExprKind::Member(a, _) | ExprKind::Arrow(a, _) => minic_expr_walk(a, f),
            _ => {}
        }
    }

    let is_func_body = matches!(seg.kind, SegKind::FuncBody);
    walk(
        checked,
        cg,
        io,
        body,
        0,
        is_func_body,
        &mut has_io,
        &mut instrumented,
        &mut escaping,
    );
    if instrumented {
        return Err(Reject::Instrumented);
    }
    if has_io {
        return Err(Reject::HasIo);
    }
    if escaping {
        return Err(Reject::EscapingControl);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(src: &str) -> (minic::Checked, CallGraph, Vec<bool>, Vec<Segment>) {
        let checked = minic::compile(src).unwrap();
        let cg = CallGraph::build(&checked);
        let io = cg.io_closure();
        let segs = enumerate(&checked);
        (checked, cg, io, segs)
    }

    #[test]
    fn enumerates_all_three_kinds() {
        let (_, _, _, segs) = setup(
            "int f(int x) {
                 int s = 0;
                 for (int i = 0; i < x; i++) {
                     if (i % 2) { s += i; } else { s -= i; }
                 }
                 while (s > 100) { s /= 2; }
                 return s;
             }",
        );
        let kinds: Vec<_> = segs.iter().map(|s| s.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, SegKind::FuncBody)));
        assert_eq!(
            kinds
                .iter()
                .filter(|k| matches!(k, SegKind::LoopBody(_)))
                .count(),
            2
        );
        assert_eq!(
            kinds
                .iter()
                .filter(|k| matches!(k, SegKind::IfBranch(..)))
                .count(),
            2
        );
        // Ids are dense.
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn body_accessor_returns_right_block() {
        let (checked, _, _, segs) = setup("int f(int x) { while (x > 0) { x--; } return x; }");
        let loop_seg = segs
            .iter()
            .find(|s| matches!(s.kind, SegKind::LoopBody(_)))
            .unwrap();
        let body = loop_seg.body(&checked.program);
        assert_eq!(body.stmts.len(), 1);
        assert_eq!(loop_seg.body_stmt_ids(&checked.program).len(), 1);
    }

    #[test]
    fn io_segments_rejected() {
        let (checked, cg, io, segs) = setup(
            "void log_it(int x) { print(x); }
             int quiet(int x) { return x * 2; }
             int main() { log_it(quiet(3)); return 0; }",
        );
        let log_body = segs.iter().find(|s| s.name == "log_it:body").unwrap();
        let quiet_body = segs.iter().find(|s| s.name == "quiet:body").unwrap();
        assert_eq!(
            check_structure(&checked, &cg, &io, log_body),
            Err(Reject::HasIo)
        );
        assert!(check_structure(&checked, &cg, &io, quiet_body).is_ok());
    }

    #[test]
    fn escaping_control_rejected_for_non_func_segments() {
        let (checked, cg, io, segs) = setup(
            "int f(int x) {
                 int s = 0;
                 for (int i = 0; i < x; i++) {
                     if (i == 5) break;
                     s += i;
                 }
                 while (x > 0) {
                     if (x == 2) return s;
                     x--;
                 }
                 return s;
             }",
        );
        // The for-loop body contains `break` at segment depth 0 → escapes.
        let for_body = segs
            .iter()
            .find(|s| matches!(s.kind, SegKind::LoopBody(_)))
            .unwrap();
        assert_eq!(
            check_structure(&checked, &cg, &io, for_body),
            Err(Reject::EscapingControl)
        );
        // The while body contains a return → escapes.
        let while_body = segs
            .iter()
            .filter(|s| matches!(s.kind, SegKind::LoopBody(_)))
            .nth(1)
            .unwrap();
        assert_eq!(
            check_structure(&checked, &cg, &io, while_body),
            Err(Reject::EscapingControl)
        );
        // The function body itself is fine: its break/return are internal.
        let func_body = segs.iter().find(|s| s.name == "f:body").unwrap();
        assert!(check_structure(&checked, &cg, &io, func_body).is_ok());
    }

    #[test]
    fn inner_loop_break_does_not_escape() {
        let (checked, cg, io, segs) = setup(
            "int f(int x) {
                 int s = 0;
                 while (x > 0) {
                     for (int i = 0; i < 10; i++) {
                         if (i == 3) break;
                         s += i;
                     }
                     x--;
                 }
                 return s;
             }",
        );
        // The while body contains a for whose break targets the for — the
        // while body segment is still legal.
        let while_body = segs
            .iter()
            .find(|s| matches!(s.kind, SegKind::LoopBody(_)))
            .unwrap();
        assert!(check_structure(&checked, &cg, &io, while_body).is_ok());
    }

    #[test]
    fn quan_body_is_legal() {
        let (checked, cg, io, segs) = setup(
            "int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
             int quan(int val) {
                 int i;
                 for (i = 0; i < 15; i++)
                     if (val < power2[i])
                         break;
                 return i;
             }
             int main() { return quan(7); }",
        );
        let quan_body = segs.iter().find(|s| s.name == "quan:body").unwrap();
        assert!(check_structure(&checked, &cg, &io, quan_body).is_ok());
        // Its inner loop body contains an if-branch with break → escapes.
        let loop_body = segs
            .iter()
            .find(|s| matches!(s.kind, SegKind::LoopBody(_)) && s.name.starts_with("quan"))
            .unwrap();
        assert_eq!(
            check_structure(&checked, &cg, &io, loop_body),
            Err(Reject::EscapingControl)
        );
    }
}
