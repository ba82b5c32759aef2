//! Control-flow graph construction from MiniC AST blocks.
//!
//! A [`Cfg`] is built per function body (or any [`Block`]). Basic blocks
//! hold [`Instr`]s that borrow the AST; each instruction records the
//! *origin* statement it was lowered from, which lets the analysis crate
//! map a candidate code segment (a loop body, an `if` branch, or a whole
//! function body — the paper's three segment kinds) to its *region*: the
//! set of CFG blocks belonging to the segment.

use crate::graph::DiGraph;
use minic::ast::{Block, Expr, MemoStmt, NodeId, ProfileStmt, Stmt, StmtKind};
use std::collections::HashSet;

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// One lowered instruction inside a basic block.
#[derive(Debug, Clone, Copy)]
pub struct Instr<'p> {
    /// The AST statement this instruction was lowered from. For loop
    /// conditions and steps this is the loop statement itself, so loop-body
    /// regions exclude them.
    pub origin: NodeId,
    /// What the instruction does.
    pub kind: InstrKind<'p>,
}

/// The kinds of lowered instructions.
#[derive(Debug, Clone, Copy)]
pub enum InstrKind<'p> {
    /// A local declaration (with optional initializer).
    Decl(&'p Stmt),
    /// An expression evaluated for effect (expression statements, `for`
    /// steps).
    Expr(&'p Expr),
    /// A branch condition; always the last instruction of its block, whose
    /// first successor is the true edge and second the false edge.
    Cond(&'p Expr),
    /// A `return` (value is `None` for `return;`); the block's only
    /// successor is the CFG exit.
    Return(Option<&'p Expr>),
    /// An opaque memoized segment (post-transformation CFGs only).
    Memo(&'p MemoStmt),
    /// An opaque profiling probe (instrumented CFGs only).
    Profile(&'p ProfileStmt),
}

/// A basic block.
#[derive(Debug, Clone, Default)]
pub struct BasicBlock<'p> {
    /// Instructions in execution order.
    pub instrs: Vec<Instr<'p>>,
    /// Successor blocks (for a block ending in [`InstrKind::Cond`], index 0
    /// is the true edge and index 1 the false edge).
    pub succs: Vec<BlockId>,
    /// Predecessor blocks.
    pub preds: Vec<BlockId>,
}

/// A control-flow graph over a borrowed AST block.
#[derive(Debug)]
pub struct Cfg<'p> {
    /// The basic blocks; `blocks[entry]` is the entry.
    pub blocks: Vec<BasicBlock<'p>>,
    /// Entry block id.
    pub entry: BlockId,
    /// The single synthetic exit block (always empty).
    pub exit: BlockId,
}

impl<'p> Cfg<'p> {
    /// Builds the CFG of `body`.
    ///
    /// # Examples
    ///
    /// ```
    /// let checked = minic::compile(
    ///     "int f(int x) { if (x > 0) { return 1; } return 0; } int main() { return f(1); }",
    /// ).unwrap();
    /// let cfg = flow::cfg::Cfg::build(&checked.program.funcs[0].body);
    /// assert!(cfg.blocks.len() >= 3);
    /// assert!(cfg.blocks[cfg.exit].instrs.is_empty());
    /// ```
    pub fn build(body: &'p Block) -> Cfg<'p> {
        let mut b = Builder {
            blocks: vec![BasicBlock::default(), BasicBlock::default()],
            loop_stack: Vec::new(),
        };
        let entry = 0;
        let exit = 1;
        if let Some(end) = b.lower_block(body, entry, exit) {
            b.edge(end, exit);
        }
        Cfg {
            blocks: b.blocks,
            entry,
            exit,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has no blocks (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The CFG's topology as a [`DiGraph`] (same node indices).
    pub fn graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.blocks.len());
        for (u, blk) in self.blocks.iter().enumerate() {
            for &v in &blk.succs {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Blocks containing at least one instruction originating from `ids`,
    /// plus (to fixpoint) empty blocks all of whose predecessors are
    /// already in the region — this absorbs the empty join blocks that
    /// `if`/`else` lowering creates *inside* a segment without absorbing
    /// blocks reachable from outside it.
    pub fn region_of(&self, ids: &HashSet<NodeId>) -> HashSet<BlockId> {
        let mut region: HashSet<BlockId> = HashSet::new();
        for (bid, blk) in self.blocks.iter().enumerate() {
            if blk.instrs.iter().any(|i| ids.contains(&i.origin)) {
                region.insert(bid);
            }
        }
        loop {
            let mut grew = false;
            for (bid, blk) in self.blocks.iter().enumerate() {
                if region.contains(&bid) || bid == self.exit || bid == self.entry {
                    continue;
                }
                if blk.instrs.is_empty()
                    && !blk.preds.is_empty()
                    && blk.preds.iter().all(|p| region.contains(p))
                {
                    region.insert(bid);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        region
    }

    /// Edges leaving `region`: `(from ∈ region, to ∉ region)`.
    pub fn region_exits(&self, region: &HashSet<BlockId>) -> Vec<(BlockId, BlockId)> {
        let mut exits = Vec::new();
        for &u in region {
            for &v in &self.blocks[u].succs {
                if !region.contains(&v) {
                    exits.push((u, v));
                }
            }
        }
        exits.sort_unstable();
        exits
    }
}

struct Builder<'p> {
    blocks: Vec<BasicBlock<'p>>,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockId, BlockId)>,
}

impl<'p> Builder<'p> {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
            self.blocks[to].preds.push(from);
        }
    }

    fn push(&mut self, blk: BlockId, instr: Instr<'p>) {
        self.blocks[blk].instrs.push(instr);
    }

    /// Lowers `block` starting in `cur`; returns the block where control
    /// falls through, or `None` if all paths terminated.
    fn lower_block(
        &mut self,
        block: &'p Block,
        mut cur: BlockId,
        exit: BlockId,
    ) -> Option<BlockId> {
        let mut live = true;
        for s in &block.stmts {
            if !live {
                // Unreachable code still gets blocks (with no preds) so
                // every statement appears in the CFG.
                cur = self.new_block();
                live = true;
            }
            match self.lower_stmt(s, cur, exit) {
                Some(next) => cur = next,
                None => live = false,
            }
        }
        live.then_some(cur)
    }

    fn lower_stmt(&mut self, s: &'p Stmt, cur: BlockId, exit: BlockId) -> Option<BlockId> {
        match &s.kind {
            StmtKind::Decl { .. } => {
                self.push(
                    cur,
                    Instr {
                        origin: s.id,
                        kind: InstrKind::Decl(s),
                    },
                );
                Some(cur)
            }
            StmtKind::Expr(e) => {
                self.push(
                    cur,
                    Instr {
                        origin: s.id,
                        kind: InstrKind::Expr(e),
                    },
                );
                Some(cur)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.push(
                    cur,
                    Instr {
                        origin: s.id,
                        kind: InstrKind::Cond(cond),
                    },
                );
                let then_b = self.new_block();
                self.edge(cur, then_b);
                let then_end = self.lower_block(then_blk, then_b, exit);
                match else_blk {
                    Some(eb) => {
                        let else_b = self.new_block();
                        self.edge(cur, else_b);
                        let else_end = self.lower_block(eb, else_b, exit);
                        match (then_end, else_end) {
                            (None, None) => None,
                            (a, b) => {
                                let join = self.new_block();
                                if let Some(a) = a {
                                    self.edge(a, join);
                                }
                                if let Some(b) = b {
                                    self.edge(b, join);
                                }
                                Some(join)
                            }
                        }
                    }
                    None => {
                        let join = self.new_block();
                        self.edge(cur, join);
                        if let Some(t) = then_end {
                            self.edge(t, join);
                        }
                        Some(join)
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let header = self.new_block();
                let body_b = self.new_block();
                let after = self.new_block();
                self.edge(cur, header);
                self.push(
                    header,
                    Instr {
                        origin: s.id,
                        kind: InstrKind::Cond(cond),
                    },
                );
                self.edge(header, body_b);
                self.edge(header, after);
                self.loop_stack.push((header, after));
                if let Some(end) = self.lower_block(body, body_b, exit) {
                    self.edge(end, header);
                }
                self.loop_stack.pop();
                Some(after)
            }
            StmtKind::DoWhile { body, cond } => {
                let body_b = self.new_block();
                let latch = self.new_block();
                let after = self.new_block();
                self.edge(cur, body_b);
                self.loop_stack.push((latch, after));
                if let Some(end) = self.lower_block(body, body_b, exit) {
                    self.edge(end, latch);
                }
                self.loop_stack.pop();
                self.push(
                    latch,
                    Instr {
                        origin: s.id,
                        kind: InstrKind::Cond(cond),
                    },
                );
                self.edge(latch, body_b);
                self.edge(latch, after);
                Some(after)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut cur = cur;
                if let Some(init) = init {
                    cur = self
                        .lower_stmt(init, cur, exit)
                        .expect("for-init cannot terminate");
                }
                let header = self.new_block();
                let body_b = self.new_block();
                let step_b = self.new_block();
                let after = self.new_block();
                self.edge(cur, header);
                if let Some(cond) = cond {
                    self.push(
                        header,
                        Instr {
                            origin: s.id,
                            kind: InstrKind::Cond(cond),
                        },
                    );
                    self.edge(header, body_b);
                    self.edge(header, after);
                } else {
                    self.edge(header, body_b);
                }
                self.loop_stack.push((step_b, after));
                if let Some(end) = self.lower_block(body, body_b, exit) {
                    self.edge(end, step_b);
                }
                self.loop_stack.pop();
                if let Some(step) = step {
                    self.push(
                        step_b,
                        Instr {
                            origin: s.id,
                            kind: InstrKind::Expr(step),
                        },
                    );
                }
                self.edge(step_b, header);
                Some(after)
            }
            StmtKind::Break => {
                let (_, after) = *self
                    .loop_stack
                    .last()
                    .expect("break outside loop rejected by sema");
                self.edge(cur, after);
                None
            }
            StmtKind::Continue => {
                let (cont, _) = *self
                    .loop_stack
                    .last()
                    .expect("continue outside loop rejected by sema");
                self.edge(cur, cont);
                None
            }
            StmtKind::Return(value) => {
                self.push(
                    cur,
                    Instr {
                        origin: s.id,
                        kind: InstrKind::Return(value.as_ref()),
                    },
                );
                self.edge(cur, exit);
                None
            }
            StmtKind::Block(b) => {
                // Bare blocks get dedicated basic blocks so segment
                // regions (SegKind::BareBlock) align with block
                // boundaries.
                let inner = self.new_block();
                self.edge(cur, inner);
                match self.lower_block(b, inner, exit) {
                    Some(end) => {
                        let after = self.new_block();
                        self.edge(end, after);
                        Some(after)
                    }
                    None => None,
                }
            }
            StmtKind::Memo(m) => {
                self.push(
                    cur,
                    Instr {
                        origin: s.id,
                        kind: InstrKind::Memo(m),
                    },
                );
                Some(cur)
            }
            StmtKind::Profile(p) => {
                self.push(
                    cur,
                    Instr {
                        origin: s.id,
                        kind: InstrKind::Profile(p),
                    },
                );
                Some(cur)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::visit::for_each_stmt;

    /// Checks `src`, a function or two, with an empty `main` appended
    /// (sema requires an entry point; the tests inspect `funcs[0]`).
    fn compile(src: &str) -> minic::Checked {
        minic::compile(&format!("{src}\nint main() {{ return 0; }}")).expect("compiles")
    }

    fn cfg_of(src: &str) -> (minic::Checked, usize) {
        let checked = compile(src);
        let n = {
            let cfg = Cfg::build(&checked.program.funcs[0].body);
            check_invariants(&cfg);
            cfg.blocks.len()
        };
        (checked, n)
    }

    fn check_invariants(cfg: &Cfg<'_>) {
        // Exit has no successors and no instructions.
        assert!(cfg.blocks[cfg.exit].succs.is_empty());
        assert!(cfg.blocks[cfg.exit].instrs.is_empty());
        // preds/succs are mutually consistent.
        for (u, blk) in cfg.blocks.iter().enumerate() {
            for &v in &blk.succs {
                assert!(cfg.blocks[v].preds.contains(&u));
            }
            for &p in &blk.preds {
                assert!(cfg.blocks[p].succs.contains(&u));
            }
            // Cond is last and has two successors.
            for (i, instr) in blk.instrs.iter().enumerate() {
                if matches!(instr.kind, InstrKind::Cond(_)) {
                    assert_eq!(i, blk.instrs.len() - 1, "Cond must terminate its block");
                    assert_eq!(blk.succs.len(), 2);
                }
            }
        }
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let (checked, _) = cfg_of("int f() { int x = 1; x = x + 1; return x; }");
        let cfg = Cfg::build(&checked.program.funcs[0].body);
        // entry (with all instrs) + exit.
        assert_eq!(cfg.blocks[cfg.entry].instrs.len(), 3);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_else_shapes_diamond() {
        let (checked, _) =
            cfg_of("int f(int x) { int r; if (x > 0) { r = 1; } else { r = 2; } return r; }");
        let cfg = Cfg::build(&checked.program.funcs[0].body);
        let g = cfg.graph();
        let idom = g.dominators(cfg.entry);
        // The return block is dominated by the entry and reachable.
        assert!(idom[cfg.exit].is_some());
        // Entry's Cond has exactly two successors.
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 2);
    }

    #[test]
    fn while_loop_has_back_edge() {
        let (checked, _) = cfg_of("int f(int n) { int i = 0; while (i < n) { i++; } return i; }");
        let cfg = Cfg::build(&checked.program.funcs[0].body);
        let g = cfg.graph();
        let idom = g.dominators(cfg.entry);
        // Find a back edge: some u → v where v dominates u.
        let mut back_edges = 0;
        for u in 0..g.len() {
            for &v in g.succs(u) {
                if idom[u].is_some() && DiGraph::dominates(&idom, v, u) {
                    back_edges += 1;
                }
            }
        }
        assert_eq!(back_edges, 1);
    }

    #[test]
    fn for_loop_regions_exclude_cond_and_step() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }";
        let checked = compile(src);
        let f = &checked.program.funcs[0];
        let cfg = Cfg::build(&f.body);
        check_invariants(&cfg);
        // Collect the loop body's stmt ids.
        let mut body_ids = HashSet::new();
        if let StmtKind::For { body, .. } = &f.body.stmts[1].kind {
            for_each_stmt(body, |st| {
                body_ids.insert(st.id);
            });
        } else {
            panic!("expected for");
        }
        let region = cfg.region_of(&body_ids);
        assert_eq!(region.len(), 1, "loop body is one block");
        let exits = cfg.region_exits(&region);
        assert_eq!(exits.len(), 1, "single exit to the step block");
        // The step block contains an Expr instr whose origin is the For.
        let (_, step_blk) = exits[0];
        assert!(matches!(
            cfg.blocks[step_blk].instrs[0].kind,
            InstrKind::Expr(_)
        ));
    }

    #[test]
    fn break_and_continue_edges() {
        let (checked, _) = cfg_of(
            "int f(int n) {
                int i = 0; int s = 0;
                while (1) {
                    i++;
                    if (i == 3) continue;
                    if (i > n) break;
                    s += i;
                }
                return s;
            }",
        );
        let cfg = Cfg::build(&checked.program.funcs[0].body);
        // Every block must be consistent even with early break/continue.
        check_invariants(&cfg);
        // Exit reachable from entry.
        let rpo = cfg.graph().reverse_postorder(cfg.entry);
        assert!(rpo.contains(&cfg.exit));
    }

    #[test]
    fn do_while_tests_condition_after_body() {
        let (checked, _) = cfg_of("int f() { int i = 0; do { i++; } while (i < 5); return i; }");
        let cfg = Cfg::build(&checked.program.funcs[0].body);
        check_invariants(&cfg);
        // The entry must flow into the body *before* any Cond appears.
        let first_body = cfg.blocks[cfg.entry].succs[0];
        assert!(
            !matches!(
                cfg.blocks[first_body].instrs.first().map(|i| i.kind),
                Some(InstrKind::Cond(_))
            ),
            "do-while body runs before the condition"
        );
    }

    #[test]
    fn unreachable_code_still_lowered() {
        let (checked, _) = cfg_of("int f() { return 1; int x = 2; x = 3; return x; }");
        let cfg = Cfg::build(&checked.program.funcs[0].body);
        let total: usize = cfg.blocks.iter().map(|b| b.instrs.len()).sum();
        assert_eq!(total, 4, "all statements present in the CFG");
    }

    #[test]
    fn if_branch_region_excludes_join() {
        let src = "int f(int x) { int r = 0; if (x) { r = 1; r = r + 1; } r = r * 2; return r; }";
        let checked = compile(src);
        let f = &checked.program.funcs[0];
        let cfg = Cfg::build(&f.body);
        let mut then_ids = HashSet::new();
        if let StmtKind::If { then_blk, .. } = &f.body.stmts[1].kind {
            for_each_stmt(then_blk, |st| {
                then_ids.insert(st.id);
            });
        } else {
            panic!("expected if");
        }
        let region = cfg.region_of(&then_ids);
        assert_eq!(region.len(), 1);
        let exits = cfg.region_exits(&region);
        assert_eq!(exits.len(), 1);
        // The exit target holds `r = r * 2` (reached from both paths).
        let (_, join) = exits[0];
        assert!(cfg.blocks[join].preds.iter().any(|p| !region.contains(p)));
    }

    #[test]
    fn nested_loops_nest_regions() {
        let src = "int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < n; j++) {
                    s += i * j;
                }
            }
            return s;
        }";
        let checked = compile(src);
        let f = &checked.program.funcs[0];
        let cfg = Cfg::build(&f.body);
        check_invariants(&cfg);
        let (mut outer_ids, mut inner_ids) = (HashSet::new(), HashSet::new());
        if let StmtKind::For { body, .. } = &f.body.stmts[1].kind {
            for_each_stmt(body, |st| {
                outer_ids.insert(st.id);
            });
            if let StmtKind::For { body: ib, .. } = &body.stmts[0].kind {
                for_each_stmt(ib, |st| {
                    inner_ids.insert(st.id);
                });
            }
        }
        let outer = cfg.region_of(&outer_ids);
        let inner = cfg.region_of(&inner_ids);
        assert!(inner.is_subset(&outer));
        assert!(inner.len() < outer.len());
    }
}
