//! Program transformation: inserting profiling probes and memoized
//! segments (the paper's "code generation for computation reuse",
//! Fig. 2(b), as a source-to-source rewrite on the AST).
//!
//! Segments are addressed by their pre-transformation statement ids
//! (`SegKind::LoopBody(id)` / `IfBranch(id, _)`), so all insertions are
//! applied to a clone of the *same* checked AST before a single re-check
//! renumbers everything.

use analysis::{SegKind, Segment};
use minic::ast::{
    Block, MemoDep, MemoOperand, MemoStmt, NodeId, ProfileStmt, Program, ScalarKind, Stmt, StmtKind,
};

/// A profiling-probe request: wrap `segment` and record `inputs`.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// The segment to wrap.
    pub func: usize,
    /// Which part of the function.
    pub kind: SegKind,
    /// Probe name (for reports).
    pub name: String,
    /// Dense segment index in the profiling plan.
    pub seg_index: usize,
    /// Input operands to record.
    pub inputs: Vec<MemoOperand>,
}

impl ProbeSpec {
    /// Builds a probe spec from a segment and its inputs.
    pub fn for_segment(seg: &Segment, seg_index: usize, inputs: Vec<MemoOperand>) -> Self {
        ProbeSpec {
            func: seg.func,
            kind: seg.kind,
            name: seg.name.clone(),
            seg_index,
            inputs,
        }
    }
}

/// A memoization request for one segment.
#[derive(Debug, Clone)]
pub struct MemoSpec {
    /// The segment to wrap.
    pub func: usize,
    /// Which part of the function.
    pub kind: SegKind,
    /// Segment name (for reports and pretty-printing).
    pub name: String,
    /// Runtime table id (shared by merged segments).
    pub table: usize,
    /// Output slot within the (possibly merged) table.
    pub slot: usize,
    /// Key operands.
    pub inputs: Vec<MemoOperand>,
    /// Output operands.
    pub outputs: Vec<MemoOperand>,
    /// Validated dependency regions (fingerprinted, not hashed).
    pub deps: Vec<MemoDep>,
    /// Memoized return kind for function-body segments.
    pub ret: Option<ScalarKind>,
}

/// Inserts profiling probes into a clone of `program`.
///
/// # Panics
///
/// Panics if a probe's segment cannot be located (stale ids).
pub fn insert_probes(program: &Program, probes: &[ProbeSpec]) -> Program {
    let mut out = program.clone();
    for p in probes {
        let f = &mut out.funcs[p.func];
        let wrap = |body: Block| -> Block {
            Block::new(vec![Stmt::synth(StmtKind::Profile(ProfileStmt {
                segment: p.name.clone(),
                seg_index: p.seg_index,
                inputs: p.inputs.clone(),
                body,
            }))])
        };
        apply_wrap(&mut f.body, &p.kind, &wrap, &p.name);
    }
    out
}

/// Inserts memoized segments into a clone of `program`.
///
/// # Panics
///
/// Panics if a spec's segment cannot be located (stale ids).
pub fn insert_memos(program: &Program, memos: &[MemoSpec]) -> Program {
    let mut out = program.clone();
    for m in memos {
        let f = &mut out.funcs[m.func];
        let wrap = |body: Block| -> Block {
            Block::new(vec![Stmt::synth(StmtKind::Memo(MemoStmt {
                segment: m.name.clone(),
                table: m.table,
                slot: m.slot,
                inputs: m.inputs.clone(),
                outputs: m.outputs.clone(),
                deps: m.deps.clone(),
                ret: m.ret,
                body,
            }))])
        };
        apply_wrap(&mut f.body, &m.kind, &wrap, &m.name);
    }
    out
}

/// Replaces the segment's body block with `wrap(body)`.
fn apply_wrap(func_body: &mut Block, kind: &SegKind, wrap: &dyn Fn(Block) -> Block, name: &str) {
    match kind {
        SegKind::FuncBody => {
            let body = std::mem::take(func_body);
            *func_body = wrap(body);
        }
        SegKind::LoopBody(id) => {
            let found = wrap_in_block(func_body, *id, &mut |s| match &mut s.kind {
                StmtKind::While { body, .. }
                | StmtKind::DoWhile { body, .. }
                | StmtKind::For { body, .. } => {
                    let b = std::mem::take(body);
                    *body = wrap(b);
                    true
                }
                _ => false,
            });
            assert!(found, "segment {name}: loop {id} not found");
        }
        SegKind::IfBranch(id, then) => {
            let then = *then;
            let found = wrap_in_block(func_body, *id, &mut |s| match &mut s.kind {
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    if then {
                        let b = std::mem::take(then_blk);
                        *then_blk = wrap(b);
                    } else if let Some(eb) = else_blk {
                        let b = std::mem::take(eb);
                        *eb = wrap(b);
                    } else {
                        return false;
                    }
                    true
                }
                _ => false,
            });
            assert!(found, "segment {name}: if-branch {id} not found");
        }
        SegKind::BareBlock(id) => {
            let found = wrap_in_block(func_body, *id, &mut |s| match &mut s.kind {
                StmtKind::Block(b) => {
                    let inner = std::mem::take(b);
                    *b = wrap(inner);
                    true
                }
                _ => false,
            });
            assert!(found, "segment {name}: bare block {id} not found");
        }
    }
}

/// Finds the statement with `id` anywhere under `block` and applies `f`.
fn wrap_in_block(block: &mut Block, id: NodeId, f: &mut impl FnMut(&mut Stmt) -> bool) -> bool {
    for s in &mut block.stmts {
        if s.id == id && f(s) {
            return true;
        }
        let hit = match &mut s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                wrap_in_block(then_blk, id, f)
                    || else_blk.as_mut().is_some_and(|b| wrap_in_block(b, id, f))
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => wrap_in_block(body, id, f),
            StmtKind::Block(b) => wrap_in_block(b, id, f),
            StmtKind::Profile(p) => wrap_in_block(&mut p.body, id, f),
            StmtKind::Memo(m) => wrap_in_block(&mut m.body, id, f),
            _ => false,
        };
        if hit {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::segments;
    use minic::ast::OperandShape;

    const SRC: &str = "
        int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
        int quan(int val) {
            int i;
            for (i = 0; i < 15; i++)
                if (val < power2[i])
                    break;
            return i;
        }
        int main() {
            int s = 0;
            for (int v = 0; v < 50; v++) s += quan(v % 10 * 30);
            return s;
        }";

    fn val_operand() -> MemoOperand {
        MemoOperand {
            name: "val".into(),
            shape: OperandShape::Scalar,
            elem: ScalarKind::Int,
        }
    }

    #[test]
    fn probe_insertion_preserves_semantics() {
        let checked = minic::compile(SRC).unwrap();
        let segs = segments::enumerate(&checked);
        let quan_body = segs.iter().find(|s| s.name == "quan:body").unwrap();
        let probe = ProbeSpec::for_segment(quan_body, 0, vec![val_operand()]);
        let instrumented = insert_probes(&checked.program, &[probe]);
        let rechecked = minic::check(instrumented).expect("instrumented program checks");
        let module = vm::lower(&rechecked);

        let orig = vm::run(&vm::lower(&checked), vm::RunConfig::default()).unwrap();
        let inst = vm::run(&module, vm::RunConfig::default()).unwrap();
        assert_eq!(orig.ret, inst.ret);
        let profile = inst.profile.expect("profile collected");
        assert_eq!(profile.segs[0].n, 50);
        assert!(profile.segs[0].dip() <= 50);
    }

    #[test]
    fn memo_insertion_preserves_semantics() {
        let checked = minic::compile(SRC).unwrap();
        let segs = segments::enumerate(&checked);
        let quan_body = segs.iter().find(|s| s.name == "quan:body").unwrap();
        let memo = MemoSpec {
            func: quan_body.func,
            kind: quan_body.kind,
            name: quan_body.name.clone(),
            table: 0,
            slot: 0,
            inputs: vec![val_operand()],
            outputs: vec![],
            deps: vec![],
            ret: Some(ScalarKind::Int),
        };
        let transformed = insert_memos(&checked.program, &[memo]);
        let rechecked = minic::check(transformed).expect("transformed program checks");
        let module = vm::lower(&rechecked);
        let cfg = vm::RunConfig {
            tables: vec![
                memo_runtime::MemoTable::try_direct(&memo_runtime::TableSpec {
                    slots: 1024,
                    key_words: 1,
                    out_words: vec![1],
                })
                .expect("valid spec"),
            ],
            ..vm::RunConfig::default()
        };
        let orig = vm::run(&vm::lower(&checked), vm::RunConfig::default()).unwrap();
        let memo_run = vm::run(&module, cfg).unwrap();
        assert_eq!(orig.ret, memo_run.ret);
        assert!(memo_run.tables[0].stats().hits > 0);
    }

    #[test]
    fn loop_body_wrap_finds_nested_loop() {
        let src = "int main() {
            int acc = 0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 4; j++) {
                    acc += i * j;
                }
            }
            return acc;
        }";
        let checked = minic::compile(src).unwrap();
        let segs = segments::enumerate(&checked);
        // The inner loop is the second LoopBody.
        let inner = segs
            .iter()
            .filter(|s| matches!(s.kind, SegKind::LoopBody(_)))
            .nth(1)
            .unwrap();
        let probe = ProbeSpec::for_segment(
            inner,
            0,
            vec![
                MemoOperand::scalar("i", ScalarKind::Int),
                MemoOperand::scalar("j", ScalarKind::Int),
            ],
        );
        let instrumented = insert_probes(&checked.program, &[probe]);
        let rechecked = minic::check(instrumented).expect("checks");
        let out = vm::run(&vm::lower(&rechecked), vm::RunConfig::default()).unwrap();
        assert_eq!(out.ret, 18);
        assert_eq!(out.profile.unwrap().segs[0].n, 12);
    }

    #[test]
    fn nested_probes_count_within() {
        // Probe both quan's body and main's loop body; quan executions
        // must be attributed to the loop probe.
        let checked = minic::compile(SRC).unwrap();
        let segs = segments::enumerate(&checked);
        let quan_body = segs.iter().find(|s| s.name == "quan:body").unwrap();
        let main_loop = segs
            .iter()
            .find(|s| matches!(s.kind, SegKind::LoopBody(_)) && s.name.starts_with("main"))
            .unwrap();
        let probes = vec![
            ProbeSpec::for_segment(
                main_loop,
                0,
                vec![MemoOperand::scalar("v", ScalarKind::Int)],
            ),
            ProbeSpec::for_segment(quan_body, 1, vec![val_operand()]),
        ];
        let instrumented = insert_probes(&checked.program, &probes);
        let rechecked = minic::check(instrumented).expect("checks");
        let out = vm::run(&vm::lower(&rechecked), vm::RunConfig::default()).unwrap();
        let profile = out.profile.unwrap();
        assert_eq!(profile.segs[1].within.get(&0), Some(&50));
        assert!((profile.nesting_factor(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_key_trap_is_counted_on_every_engine() {
        // `t` is first read (and first keyed) before it is written: the
        // probe's key read traps on iteration 0 only, and the program
        // itself never reads `t` uninitialised.
        let checked = minic::compile(
            "int main() {
                int s = 0;
                int t;
                for (int i = 0; i < 40; i++) {
                    if (i > 0) s += t;
                    t = i;
                }
                return s;
            }",
        )
        .unwrap();
        let segs = segments::enumerate(&checked);
        let body = segs
            .iter()
            .find(|s| matches!(s.kind, SegKind::LoopBody(_)))
            .unwrap();
        let probe =
            ProbeSpec::for_segment(body, 0, vec![MemoOperand::scalar("t", ScalarKind::Int)]);
        let module = vm::lower(&minic::check(insert_probes(&checked.program, &[probe])).unwrap());
        for engine in [vm::Engine::Tree, vm::Engine::Bytecode] {
            let out = vm::run(
                &module,
                vm::RunConfig {
                    engine,
                    ..vm::RunConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.ret, (0..39).sum::<i64>(), "{engine}");
            let seg = &out.profile.unwrap().segs[0];
            assert_eq!((seg.n, seg.key_traps, seg.dip()), (40, 1, 39), "{engine}");
        }
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn stale_segment_id_panics() {
        let checked = minic::compile(SRC).unwrap();
        let probe = ProbeSpec {
            func: 0,
            kind: SegKind::LoopBody(NodeId(9999)),
            name: "ghost".into(),
            seg_index: 0,
            inputs: vec![],
        };
        insert_probes(&checked.program, &[probe]);
    }
}
